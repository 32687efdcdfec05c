//! Intermediate representation for the `sxr` SchemeXerox reproduction.
//!
//! This crate owns three things:
//!
//! 1. the **representation registry** ([`rep`]) — the first-class
//!    data-type-representation vocabulary shared by library code, optimizer,
//!    code generator, loader, and garbage collector;
//! 2. the **sub-primitive set** ([`prim`]) — the only operations the
//!    compiler itself understands;
//! 3. the **A-normal-form IR** ([`anf`]) with lowering from the front end
//!    ([`lower`]), closure conversion ([`clconv`]), pretty printing
//!    ([`pretty`]) and the one IR verifier ([`validate`]): a single walk
//!    that checks either IR phase — the entry point picks which — and the
//!    registry facts.  The pipeline verifies every converted module with
//!    [`verify_module`]; the optimizer's per-pass checks use
//!    [`verify_expr`].
//!
//! # Example
//!
//! ```
//! use sxr_ast::{convert_assignments, Expander};
//! use sxr_ir::{closure_convert, lower_program, validate_module};
//! use sxr_sexp::parse_all;
//!
//! let mut ex = Expander::new();
//! let forms = parse_all("(define (inc x) (%word+ x 1)) (inc 41)").unwrap();
//! let unit = ex.expand_unit(&forms).unwrap();
//! let mut prog = ex.into_program(vec![unit]);
//! convert_assignments(&mut prog).unwrap();
//! let module = closure_convert(lower_program(prog).unwrap());
//! validate_module(&module).unwrap();
//! assert!(module.funs.len() >= 2);
//! ```

pub mod anf;
pub mod clconv;
pub mod lower;
pub mod pretty;
pub mod prim;
pub mod rep;
pub mod validate;

pub use anf::{
    Atom, Bound, Expr, FnId, Fun, FunDef, GlobalId, Literal, Module, NameSupply, Test, VarId,
};
pub use clconv::{closure_convert, free_vars};
pub use lower::{lower_expr, lower_program, LowerError, Lowered};
pub use prim::{Intrinsic, PrimOp};
pub use rep::{RepError, RepId, RepInfo, RepKind, RepRegistry};
pub use validate::{validate_module, verify_expr, verify_module, ValidateError, ValidateErrorKind};
