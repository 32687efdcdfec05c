//! A staged replica of `Compiler::compile` and a replay of `optimize`'s
//! pass schedule, built only from the crates' public functions so each
//! stage and pass can carry its own span.
//!
//! Both replicas can drift from the real code when it changes.  Callers
//! compare their results with the real ones and report agreement instead
//! of failing, so the benchmark keeps running and the drift stays visible.

use crate::trace::span;
use std::collections::HashMap;
use sxr::{CompileError, PipelineConfig, PrimitiveMode};
use sxr_ast::{convert_assignments, Expander};
use sxr_codegen::{generate, lower_intrinsics_expr};
use sxr_ir::anf::{Expr, GlobalId, NameSupply};
use sxr_ir::lower::Lowered;
use sxr_ir::rep::{RepId, RepRegistry};
use sxr_ir::{closure_convert, lower_program, validate_module};
use sxr_opt::{
    analyze_globals, bits, cleanup, constfold, cse, inline, optimize, repspec,
    scan_representations, Assumptions, InlineOptions, OptError, OptReport,
};
use sxr_sexp::parse_all;
use sxr_vm::CodeProgram;

/// `Compiler`'s compile-thread stack size.
const COMPILE_STACK: usize = 512 << 20;

/// The prelude `Compiler::compile` puts before user code.
pub fn prelude(config: &PipelineConfig) -> [&'static str; 3] {
    let prims = match config.mode {
        PrimitiveMode::Abstract => sxr::PRIMS_ABSTRACT_SCM,
        PrimitiveMode::Traditional => sxr::PRIMS_TRADITIONAL_SCM,
    };
    [sxr::REPS_SCM, prims, sxr::LIBRARY_SCM]
}

/// Runs `f` on a thread with the compiler's stack size, as
/// `Compiler::compile` does.
fn on_compile_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::Builder::new()
        .name("sxr-compile".to_string())
        .stack_size(COMPILE_STACK)
        .spawn(f)
        .expect("spawn compile thread")
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// Compiles `source` through the same public functions, in the same order,
/// as `Compiler::compile`, with one span per stage.
///
/// # Errors
///
/// The first failing stage's error, as `Compiler::compile` reports it.
pub fn staged_compile(config: &PipelineConfig, source: &str) -> Result<CodeProgram, CompileError> {
    let config = config.clone();
    let source = source.to_string();
    on_compile_thread(move || stages(&config, &source))
}

fn stages(config: &PipelineConfig, source: &str) -> Result<CodeProgram, CompileError> {
    let mut expander = Expander::new();
    let mut units = Vec::new();
    for src in prelude(config).into_iter().chain([source]) {
        let forms = span("sexp.read", || parse_all(src))?;
        units.push(span("ast.expand", || expander.expand_unit(&forms))?);
    }
    let mut program = span("ast.expand", || expander.into_program(units));
    span("ast.assignconv", || convert_assignments(&mut program)).map_err(CompileError::Assign)?;
    let Lowered {
        main_body,
        mut supply,
        global_names,
    } = span("ir.lower", || lower_program(program))?;
    let mut registry = RepRegistry::new();
    let rep_globals = span("opt.repscan", || {
        scan_representations(&main_body, &mut registry)
    })?;
    let main_body = match config.mode {
        PrimitiveMode::Traditional => span("codegen.intrinsics", || {
            lower_intrinsics_expr(main_body, &registry, &mut supply)
        })?,
        PrimitiveMode::Abstract => main_body,
    };
    let mut opt_options = config.opt.clone();
    opt_options.verify = config.verify_passes;
    let (main_body, _) = span("opt.optimize", || {
        optimize(
            main_body,
            &mut registry,
            &rep_globals,
            &mut supply,
            &opt_options,
        )
    })?;
    let module = span("ir.clconv", || {
        closure_convert(Lowered {
            main_body,
            supply,
            global_names,
        })
    });
    if config.verify_passes {
        span("analysis.verify", || {
            sxr_analysis::verify_module(&module, &registry, &rep_globals)
        })?;
    } else {
        span("ir.validate", || validate_module(&module))?;
    }
    Ok(span("codegen.generate", || generate(&module, &registry))?)
}

/// What replaying `optimize`'s schedule pass by pass found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The replay's output equals `optimize`'s on the same input.
    pub agrees: bool,
    /// IR size after lowering (the optimizer's input).
    pub nodes_lowered: usize,
    /// IR size after `optimize`.
    pub nodes_out: usize,
    /// Rounds that left the IR size unchanged.
    pub rounds_idle: usize,
}

/// The optimizer's input, as the pipeline hands it over.
struct OptInput {
    e: Expr,
    registry: RepRegistry,
    rep_globals: HashMap<GlobalId, RepId>,
    supply: NameSupply,
}

/// Rebuilds the optimizer's input for `source` twice (untraced; the name
/// supply cannot be cloned), runs the real `optimize` on one copy and a
/// pass-by-pass replay of its schedule on the other, with one span per pass
/// call, and compares the two outputs.
///
/// # Errors
///
/// A front-end error, or an `optimize` error of the real optimizer.
pub fn replay_optimize(config: &PipelineConfig, source: &str) -> Result<Replay, CompileError> {
    let config = config.clone();
    let source = source.to_string();
    on_compile_thread(move || {
        let mut options = config.opt.clone();
        options.verify = config.verify_passes;
        let mut reference = front_end(&config, &source)?;
        let input = front_end(&config, &source)?;
        let (expected, expected_report) = optimize(
            reference.e,
            &mut reference.registry,
            &reference.rep_globals,
            &mut reference.supply,
            &options,
        )?;
        let nodes_lowered = input.e.size();
        let (got, got_report, rounds_idle) =
            span("opt.replay", || replay(input, &options)).map_err(CompileError::Opt)?;
        Ok(Replay {
            agrees: got == expected && got_report == expected_report,
            nodes_lowered,
            nodes_out: expected.size(),
            rounds_idle,
        })
    })
}

fn front_end(config: &PipelineConfig, source: &str) -> Result<OptInput, CompileError> {
    let mut expander = Expander::new();
    let mut units = Vec::new();
    for src in prelude(config).into_iter().chain([source]) {
        units.push(expander.expand_unit(&parse_all(src)?)?);
    }
    let mut program = expander.into_program(units);
    convert_assignments(&mut program).map_err(CompileError::Assign)?;
    let Lowered {
        main_body,
        mut supply,
        ..
    } = lower_program(program)?;
    let mut registry = RepRegistry::new();
    let rep_globals = scan_representations(&main_body, &mut registry)?;
    let e = match config.mode {
        PrimitiveMode::Traditional => lower_intrinsics_expr(main_body, &registry, &mut supply)?,
        PrimitiveMode::Abstract => main_body,
    };
    Ok(OptInput {
        e,
        registry,
        rep_globals,
        supply,
    })
}

/// `optimize`'s schedule through the public pass functions.  Returns the
/// result, the same report `optimize` keeps, and the idle-round count.
fn replay(
    input: OptInput,
    options: &sxr_opt::OptOptions,
) -> Result<(Expr, OptReport, usize), OptError> {
    let OptInput {
        mut e,
        mut registry,
        rep_globals,
        mut supply,
    } = input;
    let registry = &mut registry;
    let verify = |pass: &str, e: &Expr, registry: &RepRegistry| {
        if options.verify {
            span("opt.pass.verify", || {
                sxr_opt::verify_pass(pass, e, registry)
            })
        } else {
            Ok(())
        }
    };
    let refold = |e: Expr, registry: &mut RepRegistry| {
        let ginfo = span("opt.pass.globals", || analyze_globals(&e, &rep_globals));
        span("opt.pass.constfold", || constfold(e, &ginfo, registry)).map_err(|err| OptError(err.0))
    };
    let mut report = OptReport::default();
    let mut assumptions = Assumptions::new();
    let mut idle = 0;
    verify("input", &e, registry)?;
    for _ in 0..options.rounds {
        let size_before = e.size();
        let mut round_changed = 0usize;
        if options.inline {
            let ginfo = span("opt.pass.globals", || analyze_globals(&e, &rep_globals));
            let iopts = InlineOptions {
                threshold: options.inline_threshold,
                ..InlineOptions::default()
            };
            let (e2, n) = span("opt.pass.inline", || inline(e, &ginfo, &mut supply, &iopts));
            e = e2;
            report.inlined += n;
            round_changed += n;
            verify("inline", &e, registry)?;
        }
        if options.constfold {
            e = refold(e, registry)?;
            verify("constfold", &e, registry)?;
        }
        if options.repspec {
            let (e2, assume) = span("opt.pass.repspec", || repspec(e, registry, &mut supply));
            e = e2;
            assumptions.extend(assume);
            verify("repspec", &e, registry)?;
        }
        if options.bits {
            let (e2, n) = span("opt.pass.bits", || bits(e, registry, &assumptions));
            e = e2;
            report.bit_rewrites += n;
            round_changed += n;
            verify("bits", &e, registry)?;
            if options.constfold {
                e = refold(e, registry)?;
                verify("constfold", &e, registry)?;
            }
        }
        if options.cse {
            let (e2, n) = span("opt.pass.cse", || cse(e));
            e = e2;
            report.cse_hits += n;
            round_changed += n;
            verify("cse", &e, registry)?;
        }
        if options.dce {
            loop {
                let (e2, n) = span("opt.pass.dce", || cleanup(e));
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
        let size_after = e.size();
        if size_after == size_before {
            idle += 1;
        }
        if round_changed == 0 && size_after == size_before {
            break;
        }
    }
    Ok((e, report, idle))
}
