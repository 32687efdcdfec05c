//! The compilation pipeline: source text → loadable VM program.

use crate::config::{PipelineConfig, PrimitiveMode};
use crate::error::CompileError;
use std::collections::HashMap;
use sxr_analysis::Diagnostic;
use sxr_ast::{convert_assignments, Expander};
use sxr_codegen::{generate, lower_intrinsics_expr};
use sxr_ir::anf::{GlobalId, Module};
use sxr_ir::lower::Lowered;
use sxr_ir::rep::{RepId, RepRegistry};
use sxr_ir::{closure_convert, lower_program, verify_module};
use sxr_opt::{optimize, scan_representations, OptReport};
use sxr_sexp::parse_all;
use sxr_vm::{CodeFun, CodeProgram, Counters, FaultPlan, Machine, MachineConfig, VmError};

/// The representation declarations (shared by every configuration).
pub const REPS_SCM: &str = include_str!("../scheme/reps.scm");
/// The abstract primitive layer (rep-type-based).
pub const PRIMS_ABSTRACT_SCM: &str = include_str!("../scheme/prims_abstract.scm");
/// The abstract primitive layer with library-level type and bounds checks
/// ("safety is library policy"; see `tests/integration_checked.rs`).
pub const PRIMS_ABSTRACT_CHECKED_SCM: &str = include_str!("../scheme/prims_abstract_checked.scm");
/// The traditional primitive layer (intrinsic-based baseline).
pub const PRIMS_TRADITIONAL_SCM: &str = include_str!("../scheme/prims_traditional.scm");
/// The shared portable library.
pub const LIBRARY_SCM: &str = include_str!("../scheme/library.scm");

/// A compiler for one pipeline configuration.
///
/// # Example
///
/// ```
/// use sxr::{Compiler, PipelineConfig};
///
/// let compiler = Compiler::new(PipelineConfig::abstract_optimized());
/// let compiled = compiler.compile("(display (fx+ 20 22))").unwrap();
/// let outcome = compiled.run().unwrap();
/// assert_eq!(outcome.output, "42");
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    config: PipelineConfig,
}

impl Compiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: PipelineConfig) -> Compiler {
        Compiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Compiles `source` against the configured prelude.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] describing the first failing stage.
    pub fn compile(&self, source: &str) -> Result<Compiled, CompileError> {
        let prims = match self.config.mode {
            PrimitiveMode::Abstract => PRIMS_ABSTRACT_SCM,
            PrimitiveMode::Traditional => PRIMS_TRADITIONAL_SCM,
        };
        self.compile_with_prelude(&[REPS_SCM, prims, LIBRARY_SCM], source)
    }

    /// Compiles with explicit prelude sources (used by the re-tagging tests
    /// and examples that substitute their own representation layer).
    ///
    /// The pipeline's tree walks recurse per top-level binding, so the work
    /// runs on a dedicated thread with a generous stack (the standard
    /// arrangement for recursive compilers).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] describing the first failing stage.
    ///
    /// # Panics
    ///
    /// Propagates panics from compiler bugs.
    pub fn compile_with_prelude(
        &self,
        prelude_sources: &[&str],
        source: &str,
    ) -> Result<Compiled, CompileError> {
        let config = self.config.clone();
        let preludes: Vec<String> = prelude_sources.iter().map(|s| s.to_string()).collect();
        let source = source.to_string();
        std::thread::Builder::new()
            .name("sxr-compile".to_string())
            .stack_size(512 << 20)
            .spawn(move || {
                let refs: Vec<&str> = preludes.iter().map(String::as_str).collect();
                Compiler { config }.compile_inner(&refs, &source)
            })
            .expect("spawn compile thread")
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    fn compile_inner(
        &self,
        prelude_sources: &[&str],
        source: &str,
    ) -> Result<Compiled, CompileError> {
        // 1. Read + expand everything through one expander so global ids
        //    are shared.
        let mut expander = Expander::new();
        let mut units = Vec::new();
        for src in prelude_sources {
            let forms = parse_all(src)?;
            units.push(expander.expand_unit(&forms)?);
        }
        let user_forms = parse_all(source)?;
        units.push(expander.expand_unit(&user_forms)?);
        let mut program = expander.into_program(units);

        // 2. Assignment conversion (set! of lexicals -> library boxes).
        convert_assignments(&mut program).map_err(CompileError::Assign)?;

        // 3. Lower to ANF.
        let Lowered {
            main_body,
            mut supply,
            global_names,
        } = lower_program(program)?;

        // 4. Stage A: interpret the library's representation declarations.
        let mut registry = RepRegistry::new();
        let rep_globals = scan_representations(&main_body, &mut registry)?;

        // 5. Traditional baseline: expand intrinsics *before* the general
        //    optimizer so inlining exposes the templates to cleanup.
        let main_body = match self.config.mode {
            PrimitiveMode::Traditional => lower_intrinsics_expr(main_body, &registry, &mut supply)?,
            PrimitiveMode::Abstract => main_body,
        };

        // 6. The generally-useful transformations.  `verify_passes` makes
        //    the optimizer re-verify the IR after every enabled pass, so a
        //    broken rewrite is attributed to the pass that made it.
        let mut opt_options = self.config.opt.clone();
        opt_options.verify = self.config.verify_passes;
        let (main_body, opt_report) = optimize(
            main_body,
            &mut registry,
            &rep_globals,
            &mut supply,
            &opt_options,
        )?;

        // 7. Closure-convert, verify (structure plus registry facts),
        //    generate.
        let module = closure_convert(Lowered {
            main_body,
            supply,
            global_names,
        });
        verify_module(&module, &registry, &rep_globals)?;
        let code = generate(&module, &registry)?;
        Ok(Compiled {
            code,
            module,
            registry,
            rep_globals,
            opt_report,
            heap_words: self.config.heap_words,
            instruction_limit: self.config.instruction_limit,
            fault: self.config.fault.clone(),
        })
    }
}

/// A compiled program plus everything needed to run and inspect it.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The loadable program.
    pub code: CodeProgram,
    /// The final IR (for reports and the compiler-explorer example).
    pub module: Module,
    /// The representation registry the library built.
    pub registry: RepRegistry,
    /// What the optimizer did.
    pub opt_report: OptReport,
    /// Which globals hold representation-type values (from the
    /// representation scan) — the seed for the static analyzer.
    pub rep_globals: HashMap<GlobalId, RepId>,
    heap_words: usize,
    instruction_limit: Option<u64>,
    fault: FaultPlan,
}

/// The observable result of running a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The program's final value, rendered via the library's
    /// representations.
    pub value: String,
    /// Everything written through `%write-char`.
    pub output: String,
    /// Dynamic execution counters.
    pub counters: Counters,
}

impl Compiled {
    /// Creates a fresh machine loaded with this program, under the fault
    /// plan the pipeline configuration installed (none by default).
    ///
    /// The load-time bytecode verifier (`sxr-analysis::bcverify`) runs
    /// before the first instruction as a load gate for dataflow properties
    /// (def-before-use, GC scan kinds, handler balance): a rejected program
    /// never starts ([`sxr_vm::VmErrorKind::RejectedByVerifier`]).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program's registry is incomplete, the
    /// verifier rejects the code, or a structured out-of-memory error when
    /// the plan's heap cap cannot hold the constant pool.
    pub fn machine(&self) -> Result<Machine, VmError> {
        self.machine_with_fault(self.fault.clone())
    }

    /// Creates a fresh machine under an explicit fault plan, overriding the
    /// configuration's (chaos harnesses use this to sweep many schedules
    /// over one compilation).
    ///
    /// # Errors
    ///
    /// As for [`Compiled::machine`].
    pub fn machine_with_fault(&self, fault: FaultPlan) -> Result<Machine, VmError> {
        Machine::new(
            self.code.clone(),
            MachineConfig {
                heap_words: self.heap_words,
                instruction_limit: self.instruction_limit,
                fault,
                verifier: Some(sxr_analysis::verifier_hook),
            },
        )
    }

    /// Runs the program to completion on a fresh machine.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] raised during loading or execution.
    pub fn run(&self) -> Result<Outcome, VmError> {
        self.run_with_fault(self.fault.clone())
    }

    /// Runs the program on a fresh machine under an explicit fault plan.
    /// The fault-injection contract: the result is either identical to a
    /// fault-free run or an `Err` with a structured kind (for memory
    /// schedules, [`sxr_vm::VmErrorKind::OutOfMemory`]) — never a panic or
    /// a silently wrong value.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] raised during loading or execution, including
    /// any the plan injects.
    pub fn run_with_fault(&self, fault: FaultPlan) -> Result<Outcome, VmError> {
        let mut m = self.machine_with_fault(fault)?;
        let w = m.run()?;
        Ok(Outcome {
            value: m.describe(w),
            output: m.output().to_string(),
            counters: m.counters.clone(),
        })
    }

    /// Runs the rep-safety static analyzer over the compiled module and
    /// returns every finding (warnings included), followed by any
    /// load-time bytecode verifier rejections of the generated code.
    ///
    /// The analyzer is conservative: it reports only *provable* misuse —
    /// a projection through a representation the value cannot have, a raw
    /// memory operation on a word that is never a tagged pointer, a
    /// constant field index outside a known allocation size, or a
    /// representation test with a statically-known outcome.  Bytecode
    /// rejections are always errors: the machine would refuse to load
    /// this program.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        let mut diags =
            sxr_analysis::analyze_module(&self.module, &self.registry, &self.rep_globals);
        for r in self.verify_bytecode().rejections {
            let fun_name = self
                .code
                .funs
                .get(r.fun as usize)
                .map(|f| f.name.clone())
                .filter(|n| !n.is_empty());
            diags.push(Diagnostic {
                class: sxr_analysis::DiagClass::BytecodeReject,
                fun: r.fun,
                fun_name,
                message: r.to_string(),
            });
        }
        diags
    }

    /// Runs the load-time bytecode verifier over the generated code and
    /// returns its full report (clean for every compiler-produced
    /// program; see `sxr-analysis::bcverify`).
    pub fn verify_bytecode(&self) -> sxr_analysis::VerifyReport {
        sxr_analysis::verify_program(&self.code)
    }

    /// Error-severity analyzer findings, rendered for display.  Empty for
    /// any program free of provable representation misuse.
    pub fn analyze_errors(&self) -> Vec<String> {
        self.analyze()
            .into_iter()
            .filter(|d| d.is_error())
            .map(|d| d.to_string())
            .collect()
    }

    /// Finds the compiled code of a (top-level, named) procedure.
    pub fn fun_by_name(&self, name: &str) -> Option<&CodeFun> {
        self.code.funs.iter().find(|f| f.name == name)
    }

    /// Static instruction count of a named procedure's body.
    pub fn static_count(&self, name: &str) -> Option<usize> {
        self.fun_by_name(name).map(|f| f.insts.len())
    }

    /// A rendering of a named procedure's instructions.
    pub fn disassemble(&self, name: &str) -> Option<String> {
        let f = self.fun_by_name(name)?;
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, ";; {} (arity {}, {} regs)", f.name, f.arity, f.nregs);
        for (i, inst) in f.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:4}  {inst:?}");
        }
        Some(out)
    }
}
