//! IR invariant checking: the one verifier for both IR phases.
//!
//! The entry point fixes the phase. [`verify_expr`] checks the
//! whole-program expression the optimizer rewrites, before closure
//! conversion; [`verify_module`] and [`validate_module`] check a
//! closure-converted [`Module`]. One walk checks, in either phase:
//!
//! * every variable defined before use, and defined exactly once
//!   (parameters included),
//! * primitive operand counts match [`PrimOp::arity`],
//! * tail calls only in tail position: the branches of a `Bound::If` and
//!   a `Bound::Body` end in `Ret`,
//! * no form of the other phase: `Lambda`/`LetRec` after conversion,
//!   `CallKnown`/`MakeClosure`/`ClosureRef`/`ClosurePatch`/`TailCallKnown`
//!   before it.
//!
//! After conversion the walk also checks the module's tables: function ids,
//! known-call arities, capture counts, `ClosureRef` indices, global ids and
//! the entry function. Given a registry, it also checks the registry facts:
//! every rep literal names a registered rep, and every specialized op a
//! registered pointer rep.
//!
//! The walk is cheap enough to run after every optimizer pass; it exists to
//! turn "miscompiled program" into "failed invariant at the pass that broke
//! it", with a pretty-printed excerpt of the offending binding.

use crate::anf::{Atom, Bound, Expr, FnId, Fun, GlobalId, Literal, Module, VarId};
use crate::pretty::expr_to_string;
use crate::prim::PrimOp;
use crate::rep::{RepId, RepKind, RepRegistry};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The specific IR invariant that was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateErrorKind {
    /// A variable is used before (or without) being defined.
    UndefinedVar {
        /// The offending variable.
        var: VarId,
    },
    /// A variable is let-bound twice (single assignment).
    RedefinedVar {
        /// The offending variable.
        var: VarId,
    },
    /// A parameter (or the self/rest slot) is already defined.
    DuplicateParam {
        /// The offending variable.
        var: VarId,
    },
    /// A tail call appears where only non-tail expressions are allowed
    /// (inside a `Bound::If` branch or a `Bound::Body`).
    TailCallInNonTail,
    /// An [`Expr::LetRec`] survived closure conversion.
    LetRecSurvives,
    /// A [`Bound::Lambda`] survived closure conversion.
    LambdaSurvives,
    /// A closure-converted form appears before closure conversion.
    ConvertedFormTooEarly {
        /// The form's constructor name.
        form: &'static str,
    },
    /// A `ClosureRef` index is outside the function's `free_count`.
    ClosureRefOutOfRange {
        /// The index used.
        index: usize,
        /// The function's free-slot count.
        free_count: usize,
    },
    /// A `CallKnown`/`MakeClosure`/`TailCallKnown` names a function id not
    /// in the module.
    FnIdOutOfRange {
        /// The function id used.
        fnid: FnId,
    },
    /// A known call's argument count differs from the callee's parameters.
    ArityMismatch {
        /// The callee.
        fnid: FnId,
        /// Parameters the callee declares.
        want: usize,
        /// Arguments supplied.
        got: usize,
    },
    /// A known call targets a variadic function (must stay dynamic).
    VariadicKnownCall {
        /// The callee.
        fnid: FnId,
    },
    /// A primitive application has the wrong number of operands.
    PrimArityMismatch {
        /// The primitive.
        op: PrimOp,
        /// Operands the primitive takes.
        want: usize,
        /// Operands supplied.
        got: usize,
    },
    /// A global id is outside the module's global table.
    GlobalOutOfRange {
        /// The global id used.
        global: GlobalId,
    },
    /// A `MakeClosure` capture count differs from the callee's
    /// `free_count`.
    CaptureCountMismatch {
        /// The closed-over function.
        fnid: FnId,
        /// Free slots the function declares.
        want: usize,
        /// Captures supplied.
        got: usize,
    },
    /// The module's entry function id is out of range.
    MainOutOfRange,
    /// A rep literal or specialized op names a rep id the registry lacks.
    UnregisteredRep {
        /// The rep id used.
        rep: RepId,
    },
    /// A specialized memory op names a rep that is not a pointer rep.
    SpecOnNonPointer {
        /// The specialized op.
        op: PrimOp,
        /// The rep's registered name.
        rep: String,
    },
    /// A `rep_globals` entry maps a global to an unregistered rep id.
    UnregisteredRepGlobal {
        /// The global.
        global: GlobalId,
        /// The rep id it maps to.
        rep: RepId,
    },
}

impl fmt::Display for ValidateErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidateErrorKind::*;
        match self {
            UndefinedVar { var } => write!(f, "use of undefined variable v{var}"),
            RedefinedVar { var } => write!(f, "variable v{var} defined twice"),
            DuplicateParam { var } => write!(f, "duplicate parameter v{var}"),
            TailCallInNonTail => write!(f, "tail call in non-tail position"),
            LetRecSurvives => write!(f, "letrec survives closure conversion"),
            LambdaSurvives => write!(f, "nested lambda survives closure conversion"),
            ConvertedFormTooEarly { form } => write!(f, "{form} before closure conversion"),
            ClosureRefOutOfRange { index, free_count } => {
                write!(
                    f,
                    "closure-ref {index} out of range (free_count {free_count})"
                )
            }
            FnIdOutOfRange { fnid } => write!(f, "function id f{fnid} out of range"),
            ArityMismatch { fnid, want, got } => {
                write!(
                    f,
                    "known call to f{fnid} with {got} args; function takes {want}"
                )
            }
            VariadicKnownCall { fnid } => {
                write!(f, "known call to variadic f{fnid} (must stay dynamic)")
            }
            PrimArityMismatch { op, want, got } => {
                write!(f, "{op} arity mismatch: takes {want} operands, given {got}")
            }
            GlobalOutOfRange { global } => write!(f, "global {global} out of range"),
            CaptureCountMismatch { fnid, want, got } => {
                write!(
                    f,
                    "closure over f{fnid} with {got} captures; function expects {want}"
                )
            }
            MainOutOfRange => write!(f, "main function id out of range"),
            UnregisteredRep { rep } => write!(f, "rep id {rep} is not registered"),
            SpecOnNonPointer { op, rep } => {
                write!(f, "{op} specialized on non-pointer rep `{rep}`")
            }
            UnregisteredRepGlobal { global, rep } => {
                write!(
                    f,
                    "rep-globals maps global {global} to unregistered rep id {rep}"
                )
            }
        }
    }
}

/// A violated IR invariant, with where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// What went wrong.
    pub kind: ValidateErrorKind,
    /// The containing function: `(id, diagnostic name)`. `None` before
    /// closure conversion and for module-level violations.
    pub fun: Option<(FnId, String)>,
    /// Pretty-printed excerpt of the `let` binding the violation sits in,
    /// when it sits in one.
    pub excerpt: Option<String>,
}

impl From<ValidateErrorKind> for ValidateError {
    fn from(kind: ValidateErrorKind) -> ValidateError {
        ValidateError {
            kind,
            fun: None,
            excerpt: None,
        }
    }
}

impl ValidateError {
    /// Attaches the binding `v = b` as the excerpt, unless a binding
    /// nested in `b` already did.
    fn in_binding(mut self, v: VarId, b: &Bound) -> ValidateError {
        if self.excerpt.is_none() {
            let one = Expr::Let(v, b.clone(), Box::new(Expr::Ret(Atom::Var(v))));
            self.excerpt = Some(excerpt_of(&one));
        }
        self
    }
}

/// Caps an excerpt to a handful of lines so a huge `if` body does not
/// drown the message.
fn excerpt_of(e: &Expr) -> String {
    let full = expr_to_string(e);
    let mut lines: Vec<&str> = full.lines().take(6).collect();
    if full.lines().count() > 6 {
        lines.push("    ...");
    }
    lines.iter().map(|l| format!("    {l}\n")).collect()
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR invariant violated: ")?;
        if let Some((id, name)) = &self.fun {
            write!(f, "in f{id} ({name}): ")?;
        }
        self.kind.fmt(f)?;
        if let Some(x) = &self.excerpt {
            write!(f, "\n  in:\n{x}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidateError {}

/// Checks a closure-converted module's structure, without the registry
/// facts (see [`verify_module`] for those).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn validate_module(m: &Module) -> Result<(), ValidateError> {
    check_module(m, None)
}

/// Checks a closure-converted module's structure and its registry facts:
/// every rep literal and specialized op names a registered rep,
/// specialized memory ops name pointer reps, and `rep_globals` maps only to
/// registered ids. The pipeline runs it on every compile.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_module(
    m: &Module,
    registry: &RepRegistry,
    rep_globals: &HashMap<GlobalId, RepId>,
) -> Result<(), ValidateError> {
    let unregistered = rep_globals
        .iter()
        .filter(|&(_, &rep)| rep as usize >= registry.len())
        .min();
    if let Some((&global, &rep)) = unregistered {
        return Err(ValidateErrorKind::UnregisteredRepGlobal { global, rep }.into());
    }
    check_module(m, Some(registry))
}

/// Checks the whole-program expression before closure conversion, registry
/// facts included. Variable ids are globally unique there, so one scope
/// spans every nested lambda.
///
/// # Errors
///
/// Returns the first violated invariant, with an IR excerpt when the
/// violation sits inside a `let` binding.
pub fn verify_expr(e: &Expr, registry: &RepRegistry) -> Result<(), ValidateError> {
    Checker {
        module: None,
        registry: Some(registry),
        free_count: 0,
        defined: HashSet::new(),
    }
    .expr(e, true)
}

fn check_module(m: &Module, registry: Option<&RepRegistry>) -> Result<(), ValidateError> {
    let mut checker = Checker {
        module: Some(m),
        registry,
        free_count: 0,
        defined: HashSet::new(),
    };
    for (i, f) in m.funs.iter().enumerate() {
        checker.fun(f).map_err(|mut e| {
            e.fun = Some((
                i as FnId,
                f.name.clone().unwrap_or_else(|| "anonymous".into()),
            ));
            e
        })?;
    }
    if m.main as usize >= m.funs.len() {
        return Err(ValidateErrorKind::MainOutOfRange.into());
    }
    Ok(())
}

/// The function `fnid` names in `m`.
fn fun_of(m: &Module, fnid: FnId) -> Result<&Fun, ValidateError> {
    m.funs
        .get(fnid as usize)
        .ok_or_else(|| ValidateErrorKind::FnIdOutOfRange { fnid }.into())
}

/// A known call to `fnid` with `got` arguments.
fn check_known_call(m: &Module, fnid: FnId, got: usize) -> Result<(), ValidateError> {
    let f = fun_of(m, fnid)?;
    if f.rest.is_some() {
        return Err(ValidateErrorKind::VariadicKnownCall { fnid }.into());
    }
    if f.params.len() != got {
        return Err(ValidateErrorKind::ArityMismatch {
            fnid,
            want: f.params.len(),
            got,
        }
        .into());
    }
    Ok(())
}

/// One walk's state.
struct Checker<'a> {
    /// The module being checked; `None` before closure conversion.
    module: Option<&'a Module>,
    /// The registry whose facts are checked; `None` skips them.
    registry: Option<&'a RepRegistry>,
    /// The `free_count` of the function being checked.
    free_count: usize,
    /// Variables defined so far in the current scope.
    defined: HashSet<VarId>,
}

impl<'a> Checker<'a> {
    fn fun(&mut self, f: &Fun) -> Result<(), ValidateError> {
        self.defined.clear();
        self.defined.insert(f.self_var);
        self.free_count = f.free_count;
        self.params(&f.params, f.rest)?;
        self.expr(&f.body, true)
    }

    fn params(&mut self, params: &[VarId], rest: Option<VarId>) -> Result<(), ValidateError> {
        for &var in params.iter().chain(&rest) {
            if !self.defined.insert(var) {
                return Err(ValidateErrorKind::DuplicateParam { var }.into());
            }
        }
        Ok(())
    }

    fn define(&mut self, var: VarId) -> Result<(), ValidateError> {
        if !self.defined.insert(var) {
            return Err(ValidateErrorKind::RedefinedVar { var }.into());
        }
        Ok(())
    }

    /// The module a closure-converted `form` needs; an error before
    /// closure conversion.
    fn converted(&self, form: &'static str) -> Result<&'a Module, ValidateError> {
        self.module
            .ok_or_else(|| ValidateErrorKind::ConvertedFormTooEarly { form }.into())
    }

    fn rep(&self, rep: RepId) -> Result<(), ValidateError> {
        match self.registry {
            Some(reg) if rep as usize >= reg.len() => {
                Err(ValidateErrorKind::UnregisteredRep { rep }.into())
            }
            _ => Ok(()),
        }
    }

    fn spec(&self, op: PrimOp, rep: RepId) -> Result<(), ValidateError> {
        let Some(reg) = self.registry else {
            return Ok(());
        };
        self.rep(rep)?;
        let info = reg.info(rep);
        if !matches!(info.kind, RepKind::Pointer { .. }) {
            return Err(ValidateErrorKind::SpecOnNonPointer {
                op,
                rep: info.name.clone(),
            }
            .into());
        }
        Ok(())
    }

    fn global(&self, global: GlobalId) -> Result<(), ValidateError> {
        match self.module {
            Some(m) if global as usize >= m.global_names.len() => {
                Err(ValidateErrorKind::GlobalOutOfRange { global }.into())
            }
            _ => Ok(()),
        }
    }

    fn atom(&self, a: &Atom) -> Result<(), ValidateError> {
        match a {
            Atom::Var(v) if !self.defined.contains(v) => {
                Err(ValidateErrorKind::UndefinedVar { var: *v }.into())
            }
            Atom::Lit(Literal::Rep(r)) => self.rep(*r),
            _ => Ok(()),
        }
    }

    fn atoms(&self, atoms: &[Atom]) -> Result<(), ValidateError> {
        atoms.iter().try_for_each(|a| self.atom(a))
    }

    /// `tail` is true when tail calls are permitted in this position.
    fn expr(&mut self, e: &Expr, tail: bool) -> Result<(), ValidateError> {
        match e {
            Expr::Let(v, b, body) => {
                self.bound(b).map_err(|err| err.in_binding(*v, b))?;
                self.define(*v)?;
                self.expr(body, tail)
            }
            Expr::If(t, then, els) => {
                self.atom(t.atom())?;
                // Each branch sees the same scope; their bindings are disjoint
                // (globally unique ids), so a shared `defined` set is fine.
                self.expr(then, tail)?;
                self.expr(els, tail)
            }
            Expr::Ret(a) => self.atom(a),
            Expr::TailCall(callee, args) => {
                if !tail {
                    return Err(ValidateErrorKind::TailCallInNonTail.into());
                }
                self.atom(callee)?;
                self.atoms(args)
            }
            Expr::TailCallKnown(fnid, clo, args) => {
                if !tail {
                    return Err(ValidateErrorKind::TailCallInNonTail.into());
                }
                check_known_call(self.converted("TailCallKnown")?, *fnid, args.len())?;
                self.atom(clo)?;
                self.atoms(args)
            }
            Expr::LetRec(binds, body) => {
                if self.module.is_some() {
                    return Err(ValidateErrorKind::LetRecSurvives.into());
                }
                for (v, _) in binds {
                    self.define(*v)?;
                }
                for (_, l) in binds {
                    self.params(&l.params, l.rest)?;
                    self.expr(&l.body, true)?;
                }
                self.expr(body, tail)
            }
        }
    }

    fn bound(&mut self, b: &Bound) -> Result<(), ValidateError> {
        match b {
            Bound::Atom(a) => self.atom(a),
            Bound::Prim(op, args) => {
                if op.arity() != args.len() {
                    return Err(ValidateErrorKind::PrimArityMismatch {
                        op: *op,
                        want: op.arity(),
                        got: args.len(),
                    }
                    .into());
                }
                if let PrimOp::SpecHeader(r)
                | PrimOp::SpecAlloc(r)
                | PrimOp::SpecRef(r)
                | PrimOp::SpecSet(r) = op
                {
                    self.spec(*op, *r)?;
                }
                self.atoms(args)
            }
            Bound::Call(callee, args) => {
                self.atom(callee)?;
                self.atoms(args)
            }
            Bound::CallKnown(fnid, clo, args) => {
                check_known_call(self.converted("CallKnown")?, *fnid, args.len())?;
                self.atom(clo)?;
                self.atoms(args)
            }
            Bound::GlobalGet(g) => self.global(*g),
            Bound::GlobalSet(g, a) => {
                self.global(*g)?;
                self.atom(a)
            }
            Bound::Lambda(l) => {
                if self.module.is_some() {
                    return Err(ValidateErrorKind::LambdaSurvives.into());
                }
                self.params(&l.params, l.rest)?;
                self.expr(&l.body, true)
            }
            Bound::MakeClosure(fnid, frees) => {
                let want = fun_of(self.converted("MakeClosure")?, *fnid)?.free_count;
                if frees.len() != want {
                    return Err(ValidateErrorKind::CaptureCountMismatch {
                        fnid: *fnid,
                        want,
                        got: frees.len(),
                    }
                    .into());
                }
                self.atoms(frees)
            }
            Bound::ClosureRef(index) => {
                self.converted("ClosureRef")?;
                if *index >= self.free_count {
                    return Err(ValidateErrorKind::ClosureRefOutOfRange {
                        index: *index,
                        free_count: self.free_count,
                    }
                    .into());
                }
                Ok(())
            }
            Bound::ClosurePatch(c, _, x) => {
                self.converted("ClosurePatch")?;
                self.atom(c)?;
                self.atom(x)
            }
            Bound::If(t, then, els) => {
                self.atom(t.atom())?;
                self.expr(then, false)?;
                self.expr(els, false)
            }
            Bound::Body(e) => self.expr(e, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ValidateErrorKind::*;
    use super::*;
    use crate::anf::{FunDef, Test};

    const FX: RepId = 0;
    const PAIR: RepId = 1;

    /// `fixnum` (immediate, id [`FX`]) and `pair` (pointer, id [`PAIR`]).
    fn registry() -> RepRegistry {
        let mut reg = RepRegistry::new();
        assert_eq!(reg.intern_immediate("fixnum", 3, 0, 3), Ok(FX));
        assert_eq!(reg.intern_pointer("pair", 1, false), Ok(PAIR));
        reg
    }

    fn module_with_body(body: Expr) -> Module {
        Module {
            funs: vec![Fun {
                name: Some("main".into()),
                self_var: 0,
                params: vec![],
                rest: None,
                free_count: 0,
                body,
            }],
            main: 0,
            global_names: vec!["g".to_string()],
            var_names: vec![],
        }
    }

    /// A verifier input, in the phase its entry point fixes.
    enum Ir {
        /// Before closure conversion: [`verify_expr`].
        Expr(Expr),
        /// After: [`verify_module`], with this `rep_globals` table.
        Module(Module, HashMap<GlobalId, RepId>),
    }

    fn pre(e: Expr) -> Vec<Ir> {
        vec![Ir::Expr(e)]
    }

    fn post(m: Module) -> Vec<Ir> {
        vec![Ir::Module(m, HashMap::new())]
    }

    /// `body` in both phases: as the whole program, and as `main`'s body.
    fn both(body: Expr) -> Vec<Ir> {
        let m = module_with_body(body.clone());
        vec![Ir::Expr(body), Ir::Module(m, HashMap::new())]
    }

    fn check(ir: &Ir) -> Result<(), ValidateError> {
        let reg = registry();
        match ir {
            Ir::Expr(e) => verify_expr(e, &reg),
            Ir::Module(m, rep_globals) => verify_module(m, &reg, rep_globals),
        }
    }

    fn unspec() -> Atom {
        Atom::Lit(Literal::Unspecified)
    }

    /// `(let v1 b) (ret v1)`.
    fn bind(b: Bound) -> Expr {
        Expr::Let(1, b, Box::new(Expr::Ret(Atom::Var(1))))
    }

    fn lambda(params: Vec<VarId>, body: Expr) -> Bound {
        Bound::Lambda(FunDef {
            params,
            rest: None,
            body: Box::new(body),
            name: None,
        })
    }

    #[test]
    fn accepts_well_formed() {
        let inputs = [
            both(bind(Bound::GlobalGet(0))),
            // A rep literal, a lambda and a tail call before conversion.
            pre(Expr::Let(
                1,
                Bound::Prim(
                    PrimOp::RepInject,
                    vec![Atom::Lit(Literal::Rep(FX)), Atom::raw(5)],
                ),
                Box::new(Expr::Let(
                    2,
                    lambda(vec![3], Expr::Ret(Atom::Var(1))),
                    Box::new(Expr::TailCall(Atom::Var(2), vec![Atom::Var(1)])),
                )),
            )),
            // Tail calls in the branches of a tail-position `if`.
            both(Expr::Let(
                1,
                Bound::Atom(Atom::raw(1)),
                Box::new(Expr::If(
                    Test::NonZero(Atom::Var(1)),
                    Box::new(Expr::TailCall(Atom::Var(1), vec![])),
                    Box::new(Expr::Ret(Atom::Var(1))),
                )),
            )),
            both(bind(Bound::Prim(
                PrimOp::SpecAlloc(PAIR),
                vec![Atom::raw(2), Atom::raw(0)],
            ))),
        ];
        for ir in inputs.iter().flatten() {
            check(ir).unwrap();
        }
        // The registry-free entry skips the registry facts.
        let m = module_with_body(Expr::Ret(Atom::Lit(Literal::Rep(99))));
        validate_module(&m).unwrap();
    }

    /// One test per row, one row per kind: each input must fail with
    /// exactly that kind.
    macro_rules! rejects {
        ($($name:ident: $($inputs:expr => $kind:expr),+;)*) => {$(
            #[test]
            fn $name() {
                $(for ir in $inputs {
                    assert_eq!(check(&ir).map_err(|e| e.kind), Err($kind));
                })+
            }
        )*};
    }

    rejects! {
        rejects_undefined_use:
            both(Expr::Ret(Atom::Var(42))) => UndefinedVar { var: 42 };
        rejects_double_definition:
            both(Expr::Let(1, Bound::Atom(unspec()), Box::new(bind(Bound::Atom(unspec())))))
                => RedefinedVar { var: 1 };
        rejects_duplicate_parameter:
            {
                let mut m = module_with_body(Expr::Ret(unspec()));
                m.funs[0].params = vec![7, 7];
                post(m)
            } => DuplicateParam { var: 7 },
            pre(bind(lambda(vec![7, 7], Expr::Ret(unspec())))) => DuplicateParam { var: 7 };
        rejects_tailcall_in_bound_if:
            both(bind(Bound::If(
                Test::Truthy(unspec()),
                Box::new(Expr::TailCall(unspec(), vec![])),
                Box::new(Expr::Ret(unspec())),
            ))) => TailCallInNonTail,
            both(bind(Bound::Body(Box::new(Expr::TailCall(unspec(), vec![])))))
                => TailCallInNonTail;
        rejects_surviving_letrec:
            post(module_with_body(Expr::LetRec(vec![], Box::new(Expr::Ret(unspec())))))
                => LetRecSurvives;
        rejects_surviving_lambda:
            post(module_with_body(bind(lambda(vec![], Expr::Ret(unspec()))))) => LambdaSurvives;
        rejects_converted_form_before_conversion:
            pre(bind(Bound::CallKnown(0, unspec(), vec![])))
                => ConvertedFormTooEarly { form: "CallKnown" },
            pre(bind(Bound::MakeClosure(0, vec![]))) => ConvertedFormTooEarly { form: "MakeClosure" },
            pre(bind(Bound::ClosureRef(0))) => ConvertedFormTooEarly { form: "ClosureRef" },
            pre(bind(Bound::ClosurePatch(unspec(), 0, unspec())))
                => ConvertedFormTooEarly { form: "ClosurePatch" },
            pre(Expr::TailCallKnown(0, unspec(), vec![]))
                => ConvertedFormTooEarly { form: "TailCallKnown" };
        rejects_bad_closure_ref:
            post(module_with_body(bind(Bound::ClosureRef(0))))
                => ClosureRefOutOfRange { index: 0, free_count: 0 };
        rejects_fnid_out_of_range:
            post(module_with_body(bind(Bound::MakeClosure(9, vec![]))))
                => FnIdOutOfRange { fnid: 9 },
            post(module_with_body(Expr::TailCallKnown(9, unspec(), vec![])))
                => FnIdOutOfRange { fnid: 9 };
        rejects_known_call_arity_mismatch:
            {
                // Calls main, which takes one parameter, with none.
                let mut m = module_with_body(bind(Bound::CallKnown(0, unspec(), vec![])));
                m.funs[0].params = vec![9];
                post(m)
            } => ArityMismatch { fnid: 0, want: 1, got: 0 };
        rejects_known_call_to_variadic:
            {
                let mut m = module_with_body(Expr::TailCallKnown(0, unspec(), vec![]));
                m.funs[0].rest = Some(8);
                post(m)
            } => VariadicKnownCall { fnid: 0 };
        rejects_prim_arity_mismatch:
            both(bind(Bound::Prim(PrimOp::WordAdd, vec![Atom::raw(1)])))
                => PrimArityMismatch { op: PrimOp::WordAdd, want: 2, got: 1 };
        rejects_global_out_of_range:
            post(module_with_body(bind(Bound::GlobalGet(5)))) => GlobalOutOfRange { global: 5 },
            post(module_with_body(bind(Bound::GlobalSet(6, unspec()))))
                => GlobalOutOfRange { global: 6 };
        rejects_capture_count_mismatch:
            {
                let mut m = module_with_body(bind(Bound::MakeClosure(0, vec![])));
                m.funs[0].free_count = 2;
                post(m)
            } => CaptureCountMismatch { fnid: 0, want: 2, got: 0 };
        rejects_main_out_of_range:
            {
                let mut m = module_with_body(Expr::Ret(unspec()));
                m.main = 3;
                post(m)
            } => MainOutOfRange;
        rejects_unregistered_rep:
            both(Expr::Ret(Atom::Lit(Literal::Rep(99)))) => UnregisteredRep { rep: 99 },
            both(bind(Bound::Prim(PrimOp::SpecAlloc(99), vec![Atom::raw(2), Atom::raw(0)])))
                => UnregisteredRep { rep: 99 };
        rejects_spec_op_on_non_pointer_rep:
            both(bind(Bound::Prim(PrimOp::SpecRef(FX), vec![Atom::raw(0), Atom::raw(0)])))
                => SpecOnNonPointer { op: PrimOp::SpecRef(FX), rep: "fixnum".into() };
        rejects_unregistered_rep_global:
            [Ir::Module(module_with_body(Expr::Ret(Atom::raw(0))), HashMap::from([(0, 60)]))]
                => UnregisteredRepGlobal { global: 0, rep: 60 };
    }

    #[test]
    fn error_display_names_function() {
        let m = module_with_body(Expr::Ret(Atom::Var(42)));
        let err = validate_module(&m).unwrap_err();
        assert_eq!(err.fun, Some((0, "main".to_string())));
        let msg = err.to_string();
        assert!(msg.contains("in f0 (main)"), "{msg}");
        assert!(msg.contains("undefined variable v42"), "{msg}");
        // A violation inside a `let` binding carries that binding as an
        // excerpt, in either phase.
        for ir in both(bind(Bound::Atom(Atom::Var(9)))) {
            let err = check(&ir).unwrap_err();
            assert_eq!(err.kind, UndefinedVar { var: 9 });
            let excerpt = err.excerpt.clone().expect("binding excerpt attached");
            assert!(excerpt.contains("v9"), "{excerpt}");
            assert!(err.to_string().ends_with(&excerpt), "{err}");
        }
    }
}
