//! The optimizer: the paper's "few generally-useful optimizing
//! transformations".
//!
//! Nothing in this crate knows what a pair or a fixnum is.  The passes are:
//!
//! | pass | module | what it knows |
//! |------|--------|----------------|
//! | inlining | [`inline`] | call structure |
//! | constant & copy propagation | [`constfold`] | algebra of constants (incl. folding the rep-type constructors themselves) |
//! | representation specialization | [`repspec`] | that a *constant* rep-type operand lets a generic op become word/memory ops |
//! | known-bits algebraic simplification | [`bits`] | bit arithmetic + the type assumptions rep operations carry |
//! | common-subexpression elimination | [`cse`] | purity |
//! | dead-code elimination / cleanup | [`cleanup`] | effect-freeness |
//!
//! The pass manager ([`optimize`]) runs them in rounds to a fixpoint. Every
//! pass can be disabled individually — the ablation experiment (Table 3)
//! measures exactly how much each one matters.

mod bits;
mod cleanup;
mod constfold;
mod cse;
mod globals;
mod inline;
mod repspec;
mod scan;
mod util;

pub use bits::bits;
pub use cleanup::cleanup;
pub use constfold::{constfold, FoldError};
pub use cse::cse;
pub use globals::{analyze_globals, GlobalInfo};
pub use inline::{inline, InlineOptions};
pub use repspec::{repspec, Assumptions};
pub use scan::{scan_representations, ScanError};
pub use util::{lit_word, truthiness};

use sxr_ir::anf::{Expr, NameSupply};
use sxr_ir::rep::RepRegistry;

/// Which passes run, and their knobs.
#[derive(Debug, Clone)]
pub struct OptOptions {
    /// Enable procedure inlining.
    pub inline: bool,
    /// Inlining size threshold (IR nodes).
    pub inline_threshold: usize,
    /// Enable constant/copy propagation and folding.
    pub constfold: bool,
    /// Enable representation specialization.
    pub repspec: bool,
    /// Enable known-bits algebraic simplification.
    pub bits: bool,
    /// Enable common-subexpression elimination.
    pub cse: bool,
    /// Enable dead-code elimination / cleanup.
    pub dce: bool,
    /// Maximum optimization rounds.
    pub rounds: usize,
    /// Re-verify the IR ([`sxr_ir::verify_expr`]) after every enabled pass,
    /// attributing any broken invariant to the pass that broke it. This is
    /// all the flag gates: the pipeline verifies the closure-converted
    /// module on every compile either way. Defaults on in debug builds.
    pub verify: bool,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            inline: true,
            inline_threshold: 48,
            constfold: true,
            repspec: true,
            bits: true,
            cse: true,
            dce: true,
            rounds: 5,
            verify: cfg!(debug_assertions),
        }
    }
}

impl OptOptions {
    /// All passes off (the `AbstractNoOpt` configuration still runs the
    /// representation scan, but nothing rewrites).
    pub fn none() -> OptOptions {
        OptOptions {
            inline: false,
            inline_threshold: 0,
            constfold: false,
            repspec: false,
            bits: false,
            cse: false,
            dce: false,
            rounds: 0,
            verify: cfg!(debug_assertions),
        }
    }

    /// Returns a copy with the named pass disabled (for ablations).
    /// Recognized names: `inline`, `constfold`, `repspec`, `bits`, `cse`,
    /// `dce`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown pass name.
    pub fn without(mut self, pass: &str) -> OptOptions {
        match pass {
            "inline" => self.inline = false,
            "constfold" => self.constfold = false,
            "repspec" => self.repspec = false,
            "bits" => self.bits = false,
            "cse" => self.cse = false,
            "dce" => self.dce = false,
            other => panic!("unknown pass `{other}`"),
        }
        self
    }
}

/// What the optimizer did (for reports and tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Rounds actually executed.
    pub rounds: usize,
    /// Total call sites inlined.
    pub inlined: usize,
    /// Total algebraic rewrites.
    pub bit_rewrites: usize,
    /// Total subexpressions eliminated.
    pub cse_hits: usize,
    /// Total cleanup rewrites.
    pub cleaned: usize,
}

/// Optimization failure (malformed representation declarations discovered
/// while folding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptError(pub String);

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimization error: {}", self.0)
    }
}

impl std::error::Error for OptError {}

/// Verifies the program with [`sxr_ir::verify_expr`], the IR verifier's
/// pre-closure-conversion entry, attributing any violation to `pass`.
/// Called by [`optimize`] after every enabled pass when
/// [`OptOptions::verify`] is set; public so pass authors can wrap
/// experimental rewrites the same way.
///
/// # Errors
///
/// Returns [`OptError`] naming `pass` and the violated invariant, with a
/// pretty-printed IR excerpt when one is available.
pub fn verify_pass(pass: &str, e: &Expr, registry: &RepRegistry) -> Result<(), OptError> {
    sxr_ir::verify_expr(e, registry)
        .map_err(|err| OptError(format!("IR verification failed after pass `{pass}`: {err}")))
}

/// Runs the full pass pipeline over the whole-program expression.
///
/// `registry` must already contain the representation declarations (run
/// [`scan_representations`] first); `rep_globals` is that scan's output.
///
/// When [`OptOptions::verify`] is set (the default in debug builds),
/// [`verify_pass`] runs after every enabled pass and a broken invariant
/// surfaces as an [`OptError`] naming the offending pass.
///
/// # Errors
///
/// Returns [`OptError`] if constant-folding a representation declaration
/// fails, or if per-pass verification catches a pass breaking the IR.
pub fn optimize(
    mut e: Expr,
    registry: &mut RepRegistry,
    rep_globals: &std::collections::HashMap<sxr_ir::anf::GlobalId, sxr_ir::rep::RepId>,
    supply: &mut NameSupply,
    options: &OptOptions,
) -> Result<(Expr, OptReport), OptError> {
    let mut report = OptReport::default();
    let mut assumptions = Assumptions::new();
    let verify = |pass: &str, e: &Expr, registry: &RepRegistry| {
        if options.verify {
            verify_pass(pass, e, registry)
        } else {
            Ok(())
        }
    };
    // Check the input first so pre-existing damage is not pinned on the
    // first pass of the round.
    verify("input", &e, registry)?;
    for _ in 0..options.rounds {
        let size_before = e.size();
        let mut round_changed = 0usize;

        if options.inline {
            let ginfo = analyze_globals(&e, rep_globals);
            let iopts = InlineOptions {
                threshold: options.inline_threshold,
                ..InlineOptions::default()
            };
            let (e2, n) = inline(e, &ginfo, supply, &iopts);
            e = e2;
            report.inlined += n;
            round_changed += n;
            verify("inline", &e, registry)?;
        }
        if options.constfold {
            let ginfo = analyze_globals(&e, rep_globals);
            e = constfold(e, &ginfo, registry).map_err(|err| OptError(err.0))?;
            verify("constfold", &e, registry)?;
        }
        if options.repspec {
            let (e2, assume) = repspec(e, registry, supply);
            e = e2;
            assumptions.extend(assume);
            verify("repspec", &e, registry)?;
        }
        if options.bits {
            let (e2, n) = bits(e, registry, &assumptions);
            e = e2;
            report.bit_rewrites += n;
            round_changed += n;
            verify("bits", &e, registry)?;
            if options.constfold {
                // Bit rewrites expose constants (e.g. folded type tests).
                let ginfo = analyze_globals(&e, rep_globals);
                e = constfold(e, &ginfo, registry).map_err(|err| OptError(err.0))?;
                verify("constfold", &e, registry)?;
            }
        }
        if options.cse {
            let (e2, n) = cse(e);
            e = e2;
            report.cse_hits += n;
            round_changed += n;
            verify("cse", &e, registry)?;
        }
        if options.dce {
            loop {
                let (e2, n) = cleanup(e);
                e = e2;
                report.cleaned += n;
                round_changed += n;
                if n == 0 {
                    break;
                }
            }
            verify("dce", &e, registry)?;
        }
        report.rounds += 1;
        if round_changed == 0 && e.size() == size_before {
            break;
        }
    }
    Ok((e, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use sxr_ir::anf::{Atom, Bound};

    /// A deliberately broken "pass": duplicates the outermost binding,
    /// violating single assignment.
    fn broken_rewrite(e: Expr) -> Expr {
        match e {
            Expr::Let(v, b, body) => {
                let inner = Expr::Let(v, b.clone(), body);
                Expr::Let(v, b, Box::new(inner))
            }
            other => other,
        }
    }

    #[test]
    fn broken_pass_is_caught_and_attributed() {
        let reg = RepRegistry::new();
        let good = Expr::Let(
            1,
            Bound::Atom(Atom::raw(5)),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        assert!(verify_pass("bits", &good, &reg).is_ok());
        let bad = broken_rewrite(good);
        let err = verify_pass("bits", &bad, &reg).unwrap_err();
        assert!(err.0.contains("after pass `bits`"), "{err}");
        assert!(err.0.contains("defined twice"), "{err}");
    }

    #[test]
    fn optimize_rejects_broken_input_before_blaming_a_pass() {
        let mut reg = RepRegistry::new();
        let mut supply = NameSupply::default();
        let bad = Expr::Ret(Atom::Var(7));
        let opts = OptOptions {
            verify: true,
            ..OptOptions::default()
        };
        let err = optimize(bad, &mut reg, &HashMap::new(), &mut supply, &opts).unwrap_err();
        assert!(err.0.contains("after pass `input`"), "{err}");
        assert!(err.0.contains("v7"), "{err}");
    }

    #[test]
    fn optimize_passes_clean_programs_with_verification_on() {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let mut supply = NameSupply::from_names(vec!["v".into(); 10]);
        let e = Expr::Let(
            1,
            Bound::Prim(
                sxr_ir::prim::PrimOp::RepInject,
                vec![Atom::Lit(sxr_ir::anf::Literal::Rep(fx)), Atom::raw(5)],
            ),
            Box::new(Expr::Ret(Atom::Var(1))),
        );
        let opts = OptOptions {
            verify: true,
            ..OptOptions::default()
        };
        let (out, _) = optimize(e, &mut reg, &HashMap::new(), &mut supply, &opts).unwrap();
        sxr_ir::verify_expr(&out, &reg).unwrap();
    }
}
