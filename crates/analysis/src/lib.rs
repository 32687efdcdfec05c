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
//! 2. an **inter-pass semantic verifier** ([`verify_expr`],
//!    [`verify_module`]) — cheap invariant checks strong enough to run after
//!    every optimizer pass, so a pass that breaks scoping, arity, tail
//!    discipline, or registry consistency is caught *at the pass that broke
//!    it* rather than at the VM;
//! 3. a **load-time bytecode verifier** ([`verify_program`]) — a JVM-style
//!    dataflow proof over the final instruction stream, installed as a
//!    load gate via [`verifier_hook`] and `MachineConfig::verifier`.  It
//!    proves def-before-use, GC scan kinds and handler balance; a
//!    rejection names the exact `{fun, pc, rule}` and the machine refuses
//!    to start.  Structure is not its job: it runs the VM's own
//!    `check_program` first (every load runs it too, which is what the
//!    dispatch loop's memory safety rests on) and reports a refusal as
//!    one `malformed` rejection.
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
pub mod verify;

pub use analyzer::analyze_module;
pub use bcverify::{verifier_hook, verify_program, Rejection, Rule, VerifyReport};
pub use diag::{DiagClass, Diagnostic, Severity};
pub use lattice::{AbsVal, TagSet};
pub use verify::{verify_expr, verify_module, VerifyError};
