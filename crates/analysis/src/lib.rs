//! Static analysis for the `sxr` SchemeXerox reproduction.
//!
//! Two facilities live here:
//!
//! 1. a **rep-safety abstract interpreter** ([`analyze_module`]) — a forward
//!    dataflow analysis over closure-converted ANF with a tag-set lattice
//!    seeded from the representation registry.  It flags *provable* misuse
//!    of the first-class representation facility: projections through a
//!    representation the value cannot have, raw memory access on values that
//!    are provably immediates, constant field indices outside a known
//!    allocation, and representation tests whose outcome is statically
//!    known;
//! 2. a **load-time bytecode verifier** ([`verify_program`]) — a JVM-style
//!    dataflow proof over the final instruction stream, installed as a
//!    load gate via [`verifier_hook`] and `MachineConfig::verifier`.  It
//!    proves def-before-use, GC scan kinds and handler balance; a
//!    rejection names the exact `{fun, pc, rule}` and the machine refuses
//!    to start.  Structure is not its job: it runs the VM's own
//!    `check_program` first (every load runs it too, which is what the
//!    dispatch loop's memory safety rests on) and reports a refusal as
//!    one `malformed` rejection.
//!
//! The IR verifier is not one of them: it is `sxr_ir::validate`, one walk
//! over both IR phases, and [`verify_module`] re-exports its module entry.
//!
//! The analyzer is deliberately conservative: unknown values (parameters,
//! call results, closure slots) are `Top`, and only contradictions that hold
//! on *every* execution are reported.  A clean program — the full prelude
//! included — produces no errors.

#![warn(missing_docs)]

pub mod analyzer;
pub mod bcverify;
pub mod diag;
pub mod lattice;

pub use analyzer::analyze_module;
pub use bcverify::{verifier_hook, verify_program, Rejection, Rule, VerifyReport};
pub use diag::{DiagClass, Diagnostic, Severity};
pub use lattice::{AbsVal, TagSet};
pub use verify::verify_module;

/// The IR verifier lives in `sxr-ir`; the name is kept here for callers
/// that reach it through this crate. The tests pin that both IR phases are
/// checked through the one `sxr-ir` walk.
mod verify {
    pub use sxr_ir::verify_module;

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::collections::HashMap;
        use sxr_ir::anf::{Atom, Bound, Expr, Fun, FunDef, Literal, Module, Test};
        use sxr_ir::{verify_expr, PrimOp, RepId, RepRegistry, ValidateErrorKind};

        fn registry() -> (RepRegistry, RepId) {
            let mut reg = RepRegistry::new();
            let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
            reg.intern_pointer("pair", 1, false).unwrap();
            (reg, fx)
        }

        #[test]
        fn accepts_well_formed_pre_cc() {
            let (reg, fx) = registry();
            let e = Expr::Let(
                1,
                Bound::Prim(
                    PrimOp::RepInject,
                    vec![Atom::Lit(Literal::Rep(fx)), Atom::raw(5)],
                ),
                Box::new(Expr::Let(
                    2,
                    Bound::Lambda(FunDef {
                        params: vec![3],
                        rest: None,
                        body: Box::new(Expr::Ret(Atom::Var(1))),
                        name: None,
                    }),
                    Box::new(Expr::TailCall(Atom::Var(2), vec![Atom::Var(1)])),
                )),
            );
            assert_eq!(verify_expr(&e, &reg), Ok(()));
        }

        #[test]
        fn catches_use_before_definition() {
            let (reg, _) = registry();
            let e = Expr::Let(
                1,
                Bound::Atom(Atom::Var(9)),
                Box::new(Expr::Ret(Atom::Var(1))),
            );
            let err = verify_expr(&e, &reg).unwrap_err();
            assert_eq!(err.kind, ValidateErrorKind::UndefinedVar { var: 9 });
            assert!(err.excerpt.is_some(), "binding excerpt attached");
        }

        #[test]
        fn catches_double_definition() {
            let (reg, _) = registry();
            let e = Expr::Let(
                1,
                Bound::Atom(Atom::raw(1)),
                Box::new(Expr::Let(
                    1,
                    Bound::Atom(Atom::raw(2)),
                    Box::new(Expr::Ret(Atom::Var(1))),
                )),
            );
            let err = verify_expr(&e, &reg).unwrap_err();
            assert_eq!(err.kind, ValidateErrorKind::RedefinedVar { var: 1 });
        }

        #[test]
        fn catches_prim_arity() {
            let (reg, _) = registry();
            let e = Expr::Let(
                1,
                Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1)]),
                Box::new(Expr::Ret(Atom::Var(1))),
            );
            let err = verify_expr(&e, &reg).unwrap_err();
            assert!(
                matches!(err.kind, ValidateErrorKind::PrimArityMismatch { .. }),
                "{err}"
            );
        }

        #[test]
        fn catches_tail_call_in_bound_body() {
            let (reg, _) = registry();
            let e = Expr::Let(
                1,
                Bound::Body(Box::new(Expr::TailCall(Atom::raw(0), vec![]))),
                Box::new(Expr::Ret(Atom::Var(1))),
            );
            let err = verify_expr(&e, &reg).unwrap_err();
            assert_eq!(err.kind, ValidateErrorKind::TailCallInNonTail);
        }

        #[test]
        fn module_verification_wraps_structural_errors() {
            let (reg, _) = registry();
            let m = Module {
                funs: vec![Fun {
                    name: Some("main".into()),
                    self_var: 0,
                    params: vec![],
                    rest: None,
                    free_count: 0,
                    body: Expr::Ret(Atom::Var(42)),
                }],
                main: 0,
                global_names: vec![],
                var_names: vec![],
            };
            let err = verify_module(&m, &reg, &HashMap::new()).unwrap_err();
            assert_eq!(err.kind, ValidateErrorKind::UndefinedVar { var: 42 });
            assert_eq!(err.fun, Some((0, "main".to_string())));
        }

        #[test]
        fn conditionals_allow_tail_calls_in_tail_position() {
            let (reg, _) = registry();
            let e = Expr::Let(
                1,
                Bound::Atom(Atom::raw(1)),
                Box::new(Expr::If(
                    Test::NonZero(Atom::Var(1)),
                    Box::new(Expr::TailCall(Atom::Var(1), vec![])),
                    Box::new(Expr::Ret(Atom::Var(1))),
                )),
            );
            assert_eq!(verify_expr(&e, &reg), Ok(()));
        }
    }
}
