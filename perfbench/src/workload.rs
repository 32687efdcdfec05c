//! The three workloads, their closed-loop run, and the metrics.
//!
//! Every workload is closed-loop with one client: the next op starts when
//! the previous one has finished.  Untraced runs give the end-to-end
//! metrics; traced runs (`--trace 1`) give the per-layer ones.

use crate::gen::{self, Family, Fnv, Program, Rng, Scale, SizeClass};
use crate::replica;
use crate::trace::{self, span, Span};
use std::collections::BTreeMap;
use std::time::Instant;
use sxr::{Compiled, Compiler, PipelineConfig};
use sxr_vm::{CodeProgram, Machine, MachineConfig, VmError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// An op compiles, loads and runs one distinct generated program, as
    /// `sxr FILE.scm` does.
    Script,
    /// An op loads a program compiled at set-up, runs it briefly and
    /// renders its value: an embedder serving one script per request.
    Requests,
    /// An op loads a kernel compiled at set-up and runs it for tens of
    /// milliseconds.
    Kernels,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Script, Workload::Requests, Workload::Kernels];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Script => "script",
            Workload::Requests => "requests",
            Workload::Kernels => "kernels",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The shipped default pipeline; the kernels start from a heap small
    /// enough that the allocation kernels collect and grow it.
    pub fn config(self) -> PipelineConfig {
        let config = PipelineConfig::abstract_optimized();
        match self {
            Workload::Kernels => config.with_heap_words(KERNEL_HEAP_WORDS),
            _ => config,
        }
    }

    /// The traditional pipeline with the same heap (the code-quality
    /// baseline of `opt.run_ratio_vs_traditional`).
    fn traditional_config(self) -> PipelineConfig {
        PipelineConfig::traditional().with_heap_words(self.config().heap_words)
    }
}

/// Initial heap of the kernels workload, in words (512 KiB).  The read-only
/// kernels' data fits in it; the allocation kernels' garbage does not.
pub const KERNEL_HEAP_WORDS: usize = 1 << 16;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// How long the timed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Ops(usize),
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// One timed op.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub family: Family,
    pub class: SizeClass,
    /// Op time (the untraced op in untraced runs, the traced op in traced
    /// runs).
    pub ms: f64,
    pub ok: bool,
    /// Per-layer values of this op (traced runs only).
    pub values: BTreeMap<&'static str, f64>,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub inputs_hash: u64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub ops: Vec<OpRecord>,
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Every op produced its expected value.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

const STREAM_REQUESTS: u64 = 1 << 40;
const STREAM_KERNELS: u64 = 2 << 40;
const STREAM_WARMUP: u64 = 3 << 40;

/// Op `i` of `script`: a distinct program per op.
pub fn script_program(seed: u64, i: usize) -> Program {
    let mut rng = Rng::stream(seed, i as u64);
    let family = *rng.pick(&Family::ALL);
    gen::generate(&mut rng, family, gen::class_of(seed, i), Scale::Short)
}

/// Program variants `requests` compiles at set-up: two decks, so its
/// percentiles fall among several programs of a class, not on one.
const REQUEST_VARIANTS: usize = 40;

/// The programs compiled at set-up: two decks of variants for `requests`,
/// one kernel per family for `kernels`; none for `script`.
pub fn setup_programs(w: Workload, seed: u64) -> Vec<Program> {
    match w {
        Workload::Script => Vec::new(),
        Workload::Requests => (0..REQUEST_VARIANTS)
            .map(|j| {
                let mut rng = Rng::stream(seed, STREAM_REQUESTS + j as u64);
                let family = *rng.pick(&Family::ALL);
                gen::generate(&mut rng, family, gen::class_of(seed, j), Scale::Short)
            })
            .collect(),
        Workload::Kernels => Family::ALL
            .iter()
            .enumerate()
            .map(|(j, f)| {
                let mut rng = Rng::stream(seed, STREAM_KERNELS + j as u64);
                gen::generate(&mut rng, *f, SizeClass::None, Scale::Long)
            })
            .collect(),
    }
}

/// Hash of the workload's generated inputs: the set-up programs, or the
/// first deck of `script`'s stream.
pub fn inputs_hash(w: Workload, seed: u64) -> u64 {
    let mut h = Fnv::default();
    let programs = match w {
        Workload::Script => (0..gen::deck_len())
            .map(|i| script_program(seed, i))
            .collect(),
        _ => setup_programs(w, seed),
    };
    for p in &programs {
        h.add_program(p);
    }
    h.0
}

struct Setup {
    programs: Vec<Program>,
    compiled: Vec<Compiled>,
}

/// Generates the inputs and makes the set-up compiles.  `script` has no
/// set-up compiles; it compiles and runs one warm-up program instead, so
/// lazy process start-up is not charged to its first op.
fn setup(w: Workload, seed: u64, compiler: &Compiler) -> Result<Setup, String> {
    let programs = setup_programs(w, seed);
    let mut compiled = Vec::with_capacity(programs.len());
    for p in &programs {
        compiled.push(
            compiler
                .compile(&p.source)
                .map_err(|e| format!("set-up compile error: {e}"))?,
        );
    }
    if w == Workload::Script {
        let mut rng = Rng::stream(seed, STREAM_WARMUP);
        let warm = gen::generate(&mut rng, Family::Fib, SizeClass::None, Scale::Short);
        let op = run_op(compiler, &warm, None);
        check(&warm, &op.value)?;
    }
    Ok(Setup { programs, compiled })
}

// ---------------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------------

struct PlainOp {
    ms: f64,
    compile_ms: f64,
    value: Result<String, String>,
    compiled: Option<Compiled>,
}

/// One untraced op.  With `compiled` given it loads that program
/// (`requests`, `kernels`); otherwise it compiles `program` first
/// (`script`).  Freeing the machine and program is not part of the op.
fn run_op(compiler: &Compiler, program: &Program, compiled: Option<&Compiled>) -> PlainOp {
    let t0 = Instant::now();
    let mut compile_ms = 0.0;
    let mut owned = None;
    let c = match compiled {
        Some(c) => Ok(c),
        None => match compiler.compile(&program.source) {
            Ok(c) => {
                compile_ms = ms_since(t0);
                Ok(&*owned.insert(c))
            }
            Err(e) => Err(format!("compile error: {e}")),
        },
    };
    let mut machine = None;
    let value = c.and_then(|c| {
        let m = machine.insert(c.machine().map_err(vm_err)?);
        let w = m.run().map_err(vm_err)?;
        Ok(m.describe(w))
    });
    let ms = ms_since(t0);
    drop(machine);
    PlainOp {
        ms,
        compile_ms,
        value,
        compiled: owned,
    }
}

fn vm_err(e: VmError) -> String {
    format!("vm error: {e}")
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn check(p: &Program, value: &Result<String, String>) -> Result<(), String> {
    match value {
        Ok(v) if *v == p.expect => Ok(()),
        Ok(v) => Err(format!(
            "wrong value for a {} program ({} class): got {v}, expected {}",
            p.family.name(),
            p.class.name(),
            p.expect
        )),
        Err(e) => Err(format!(
            "{} program ({} class): {e}",
            p.family.name(),
            p.class.name()
        )),
    }
}

/// The verifier `Compiled::machine` installs, inside a span.
fn traced_verifier(program: &CodeProgram) -> Result<(), VmError> {
    span("analysis.bcverify", || sxr_analysis::verifier_hook(program))
}

/// `Compiled::machine` for the default configuration, with the verifier
/// hook traced.
fn traced_machine(config: &PipelineConfig, c: &Compiled) -> Result<Machine, VmError> {
    span("vm.load", || {
        Machine::new(
            c.code.clone(),
            MachineConfig {
                heap_words: config.heap_words,
                instruction_limit: config.instruction_limit,
                fault: config.fault.clone(),
                verifier: Some(traced_verifier),
            },
        )
    })
}

/// What the traced run learns about one compiled program outside any op:
/// whether the replicas agree with the real code, and its counts.
fn probe_program(
    config: &PipelineConfig,
    p: &Program,
    real: &Compiled,
    staged: Result<CodeProgram, sxr::CompileError>,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let replica_agrees = staged
        .as_ref()
        .is_ok_and(|code| code.funs == real.code.funs && code.pool == real.code.pool);
    values.insert("core.replica_agrees", f64::from(u8::from(replica_agrees)));
    let replay = replica::replay_optimize(config, &p.source);
    let agrees = replay.as_ref().is_ok_and(|r| r.agrees);
    values.insert("opt.replay_agrees", f64::from(u8::from(agrees)));
    if let Ok(r) = &replay {
        values.insert("ir.nodes_lowered", r.nodes_lowered as f64);
        values.insert("opt.nodes_out", r.nodes_out as f64);
        values.insert("opt.rounds_idle", r.rounds_idle as f64);
    }
    let rep = &real.opt_report;
    values.insert("opt.rounds", rep.rounds as f64);
    values.insert("opt.inlined", rep.inlined as f64);
    values.insert("opt.bit_rewrites", rep.bit_rewrites as f64);
    values.insert("opt.cse_hits", rep.cse_hits as f64);
    values.insert("opt.cleaned", rep.cleaned as f64);
    values.insert("sexp.bytes", source_bytes(config, &p.source) as f64);
    values.insert("codegen.funs", real.code.funs.len() as f64);
    values.insert("codegen.static_insts", static_insts(&real.code) as f64);
}

fn source_bytes(config: &PipelineConfig, source: &str) -> usize {
    replica::prelude(config)
        .iter()
        .map(|s| s.len())
        .sum::<usize>()
        + source.len()
}

fn static_insts(code: &CodeProgram) -> usize {
    code.funs.iter().map(|f| f.insts.len()).sum()
}

/// Op-time layers: `(span name, median self time, median share of op
/// time)`.
pub const OP_LAYERS: [(&str, &str, &str); 14] = [
    ("sexp.read", "sexp.read_ms", "sexp.read_share"),
    ("ast.expand", "ast.expand_ms", "ast.expand_share"),
    (
        "ast.assignconv",
        "ast.assignconv_ms",
        "ast.assignconv_share",
    ),
    ("ir.lower", "ir.lower_ms", "ir.lower_share"),
    ("opt.repscan", "opt.repscan_ms", "opt.repscan_share"),
    ("opt.optimize", "opt.optimize_ms", "opt.optimize_share"),
    ("ir.clconv", "ir.clconv_ms", "ir.clconv_share"),
    ("ir.validate", "ir.validate_ms", "ir.validate_share"),
    (
        "codegen.generate",
        "codegen.generate_ms",
        "codegen.generate_share",
    ),
    (
        "analysis.bcverify",
        "analysis.bcverify_ms",
        "analysis.bcverify_share",
    ),
    ("vm.load", "vm.load_ms", "vm.load_share"),
    ("vm.run", "vm.run_ms", "vm.run_share"),
    ("vm.describe", "vm.describe_ms", "vm.describe_share"),
    ("core.thread", "core.thread_ms", "core.thread_share"),
];

/// How many of [`OP_LAYERS`] are the staged replica's compile stages (their
/// durations are what `core.compile_unattributed_ms` subtracts from the
/// real compile).
const COMPILE_STAGES: usize = 9;

/// The pass replay's spans, summed over rounds, with the same two
/// metrics (the replay runs outside the op; its share is of the op's time).
pub const PASSES: [(&str, &str, &str); 7] = [
    (
        "opt.pass.globals",
        "opt.pass.globals_ms",
        "opt.pass.globals_share",
    ),
    (
        "opt.pass.inline",
        "opt.pass.inline_ms",
        "opt.pass.inline_share",
    ),
    (
        "opt.pass.constfold",
        "opt.pass.constfold_ms",
        "opt.pass.constfold_share",
    ),
    (
        "opt.pass.repspec",
        "opt.pass.repspec_ms",
        "opt.pass.repspec_share",
    ),
    ("opt.pass.bits", "opt.pass.bits_ms", "opt.pass.bits_share"),
    ("opt.pass.cse", "opt.pass.cse_ms", "opt.pass.cse_share"),
    ("opt.pass.dce", "opt.pass.dce_ms", "opt.pass.dce_share"),
];

/// Counts and ratios reported as per-op medians, with their units.
pub const PER_OP_VALUES: [(&str, &str); 27] = [
    ("sexp.bytes", "bytes"),
    ("ir.nodes_lowered", "nodes"),
    ("opt.rounds", "count"),
    ("opt.rounds_idle", "count"),
    ("opt.nodes_out", "nodes"),
    ("opt.inlined", "count"),
    ("opt.bit_rewrites", "count"),
    ("opt.cse_hits", "count"),
    ("opt.cleaned", "count"),
    ("opt.run_ratio_vs_traditional", "ratio"),
    ("codegen.static_insts", "insts"),
    ("codegen.funs", "count"),
    ("analysis.bcverify_ns_per_inst", "ns/inst"),
    ("vm.insts", "insts"),
    ("vm.ns_per_inst", "ns/inst"),
    ("vm.calls", "count"),
    ("vm.alloc_words", "words"),
    ("vm.gc_count", "count"),
    ("vm.gc_copied_words", "words"),
    ("vm.gc_ns_per_word", "ns/word"),
    ("vm.gc_ms_est", "ms"),
    ("vm.heap_final_words", "words"),
    ("core.compile_ms", "ms"),
    ("core.compile_unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
];

// ---------------------------------------------------------------------------
// The run loop
// ---------------------------------------------------------------------------

/// Runs `w` from `seed` for `budget`, traced or not.
pub fn run(w: Workload, seed: u64, budget: Budget, traced: bool) -> RunResult {
    let compiler = Compiler::new(w.config());
    let mut failures = Vec::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if traced { 1 } else { SETUP_REPS } {
        let t0 = Instant::now();
        let s = setup(w, seed, &compiler);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(s);
    }
    let inputs_hash = inputs_hash(w, seed);
    let setup = match prepared.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            return RunResult {
                workload: w,
                inputs_hash,
                attempted: 1,
                failed: 1,
                failures: vec![e],
                metrics: Vec::new(),
                ops: Vec::new(),
                spans: Vec::new(),
            }
        }
    };

    let tracer = traced.then(|| TracedState::new(w, &setup));
    let mut ops = Vec::new();
    let mut failed = 0;
    let loop_start = Instant::now();
    let mut i = 0usize;
    while match budget {
        Budget::Seconds(s) => loop_start.elapsed().as_secs_f64() < s,
        Budget::Ops(n) => i < n,
    } {
        let generated;
        let (program, compiled) = match w {
            Workload::Script => {
                generated = script_program(seed, i);
                (&generated, None)
            }
            _ => {
                let j = i % setup.programs.len();
                (&setup.programs[j], Some(j))
            }
        };
        let record = match &tracer {
            None => {
                let op = run_op(&compiler, program, compiled.map(|j| &setup.compiled[j]));
                let ok = check(program, &op.value);
                OpRecord {
                    family: program.family,
                    class: program.class,
                    ms: op.ms,
                    ok: ok.is_ok(),
                    values: BTreeMap::new(),
                }
                .with_failure(ok, &mut failures)
            }
            Some(t) => t.op(i as u64, &compiler, program, compiled, &mut failures),
        };
        failed += usize::from(!record.ok);
        ops.push(record);
        i += 1;
    }
    let elapsed_s = loop_start.elapsed().as_secs_f64();

    let (metrics, spans) = match tracer {
        None => (
            end_to_end(&ops, elapsed_s, median(&mut setup_s), setup_s.len()),
            Vec::new(),
        ),
        Some(_) => {
            let spans = trace::finish();
            (per_layer(&mut ops, &spans), spans)
        }
    };
    RunResult {
        workload: w,
        inputs_hash,
        attempted: ops.len(),
        failed,
        failures,
        metrics,
        ops,
        spans,
    }
}

impl OpRecord {
    fn with_failure(mut self, r: Result<(), String>, failures: &mut Vec<String>) -> OpRecord {
        if let Err(e) = r {
            self.ok = false;
            failures.push(e);
        }
        self
    }
}

/// State of a traced run: per-program values learned at set-up for the
/// programs the ops load, and their traditional-pipeline twins.
struct TracedState {
    w: Workload,
    config: PipelineConfig,
    traditional: Compiler,
    /// `(real program, per-program values, traditional twin)` per set-up
    /// program.
    programs: Vec<(Compiled, BTreeMap<&'static str, f64>, Option<Compiled>)>,
}

/// Op ids of the set-up probes (kept apart from the timed ops' ids).
const PROBE_OP_BASE: u64 = 1 << 32;

impl TracedState {
    fn new(w: Workload, setup: &Setup) -> TracedState {
        trace::start();
        let config = w.config();
        let traditional = Compiler::new(w.traditional_config());
        let mut programs = Vec::new();
        for (j, (p, c)) in setup.programs.iter().zip(&setup.compiled).enumerate() {
            trace::set_op(PROBE_OP_BASE + j as u64);
            let mut values = BTreeMap::new();
            let staged = replica::staged_compile(&config, &p.source);
            probe_program(&config, p, c, staged, &mut values);
            let twin = traditional.compile(&p.source).ok();
            programs.push((c.clone(), values, twin));
        }
        TracedState {
            w,
            config,
            traditional,
            programs,
        }
    }

    /// One traced op, after two untraced runs of the same op.  The first
    /// gives `script` the real `Compiler::compile` output to load and
    /// absorbs the previous op's probes; the second follows it as the traced
    /// op follows the second, so it is the fair base of
    /// `trace.overhead_ratio`, and it times the real compile.  The
    /// out-of-op probes come last.
    fn op(
        &self,
        i: u64,
        compiler: &Compiler,
        p: &Program,
        setup_index: Option<usize>,
        failures: &mut Vec<String>,
    ) -> OpRecord {
        trace::set_op(i);
        let compiled = setup_index.map(|j| &self.programs[j].0);
        let before = run_op(compiler, p, compiled);
        let mut record = OpRecord {
            family: p.family,
            class: p.class,
            ms: 0.0,
            ok: true,
            values: BTreeMap::new(),
        }
        .with_failure(check(p, &before.value), failures);
        let Some(real) = before.compiled.as_ref().or(compiled) else {
            return record;
        };
        let base = run_op(compiler, p, compiled);
        record = record.with_failure(check(p, &base.value), failures);

        let config = &self.config;
        let script = self.w == Workload::Script;
        let t0 = Instant::now();
        let traced = span("op", || {
            let staged =
                script.then(|| span("core.thread", || replica::staged_compile(config, &p.source)));
            let mut m = traced_machine(config, real).map_err(vm_err)?;
            let w = span("vm.run", || m.run()).map_err(vm_err)?;
            let value = span("vm.describe", || m.describe(w));
            Ok::<_, String>((staged, m, value))
        });
        let op_ms = ms_since(t0);
        let (staged, mut m, value) = match traced {
            Ok(t) => t,
            Err(e) => {
                return record.with_failure(Err(e), failures);
            }
        };
        record.ms = op_ms;
        let ok = check(p, &Ok(value));
        let v = &mut record.values;
        v.insert("trace.op_ms", op_ms);
        v.insert("trace.untraced_op_ms", base.ms);
        v.insert("trace.overhead_ratio", op_ms / base.ms);

        let c = m.counters.clone();
        v.insert("vm.insts", c.total as f64);
        v.insert("vm.calls", c.calls as f64);
        v.insert("vm.alloc_words", c.allocated_words as f64);
        v.insert("vm.gc_count", c.gc_count as f64);
        v.insert("vm.gc_copied_words", c.gc_copied_words as f64);
        v.insert("vm.heap_final_words", m.heap_capacity() as f64);
        // The collector's speed on this program's final heap.
        let t = Instant::now();
        let collected = span("vm.gc_probe", || m.collect());
        let gc_ns = t.elapsed().as_nanos() as f64;
        if collected.is_ok() {
            let per_word = gc_ns / m.heap_used().max(1) as f64;
            v.insert("vm.gc_ns_per_word", per_word);
            v.insert("vm.gc_ms_est", c.gc_copied_words as f64 * per_word / 1e6);
        }
        drop(m);

        match staged {
            Some(staged) => {
                v.insert("core.compile_ms", base.compile_ms);
                probe_program(&self.config, p, real, staged, v);
            }
            None => {
                let j = setup_index.expect("set-up program");
                v.extend(self.programs[j].1.iter().map(|(k, x)| (*k, *x)));
            }
        }

        // Code quality: the same program's run under the traditional
        // pipeline, machine construction excluded.
        let twin = match setup_index {
            Some(j) => self.programs[j].2.clone(),
            None => self.traditional.compile(&p.source).ok(),
        };
        let twin_run = twin.and_then(|t| {
            let mut m = t.machine().ok()?;
            let t0 = Instant::now();
            let w = m.run().ok()?;
            let ms = ms_since(t0);
            (m.describe(w) == p.expect).then_some(ms)
        });
        match twin_run {
            Some(ms) => {
                record.values.insert("trace.twin_run_ms", ms);
            }
            None => {
                record = record.with_failure(
                    Err(format!(
                        "traditional pipeline failed on a {} program",
                        p.family.name()
                    )),
                    failures,
                );
            }
        }
        record.with_failure(ok, failures)
    }
}

/// Folds the spans into each op's values and takes per-op medians.
fn per_layer(ops: &mut [OpRecord], spans: &[Span]) -> Vec<Metric> {
    let self_ns = trace::self_times(spans);
    let dur_ns = trace::durations(spans);
    let empty = BTreeMap::new();
    for (i, op) in ops.iter_mut().enumerate() {
        let st = self_ns.get(&(i as u64)).unwrap_or(&empty);
        let du = dur_ns.get(&(i as u64)).unwrap_or(&empty);
        let op_ns = du.get("op").copied().unwrap_or(0) as f64;
        let ms = |name: &str, m: &BTreeMap<&'static str, u64>| {
            m.get(name).copied().unwrap_or(0) as f64 / 1e6
        };
        for (span_name, ms_name, share_name) in OP_LAYERS.iter().chain(&PASSES) {
            let self_ms = ms(span_name, st);
            op.values.insert(ms_name, self_ms);
            let share = if op_ns > 0.0 {
                self_ms * 1e6 / op_ns
            } else {
                0.0
            };
            op.values.insert(share_name, share);
        }
        let run_ms = ms("vm.run", st);
        let insts = op.values.get("vm.insts").copied().unwrap_or(0.0);
        if insts > 0.0 {
            op.values.insert("vm.ns_per_inst", run_ms * 1e6 / insts);
        }
        let static_insts = op
            .values
            .get("codegen.static_insts")
            .copied()
            .unwrap_or(0.0);
        if static_insts > 0.0 {
            op.values.insert(
                "analysis.bcverify_ns_per_inst",
                ms("analysis.bcverify", st) * 1e6 / static_insts,
            );
        }
        if let Some(twin) = op.values.get("trace.twin_run_ms").copied() {
            if twin > 0.0 {
                op.values
                    .insert("opt.run_ratio_vs_traditional", run_ms / twin);
            }
        }
        if let Some(real) = op.values.get("core.compile_ms").copied() {
            let staged: f64 = OP_LAYERS[..COMPILE_STAGES]
                .iter()
                .map(|(s, _, _)| ms(s, du))
                .sum();
            op.values
                .insert("core.compile_unattributed_ms", real - staged);
        }
    }

    let mut out = Vec::new();
    let n = ops.len();
    let mut med =
        |name: String, unit: &'static str, key: &str, filter: &dyn Fn(&OpRecord) -> bool| {
            let mut xs: Vec<f64> = ops
                .iter()
                .filter(|o| filter(o))
                .map(|o| o.values.get(key).copied().unwrap_or(0.0))
                .collect();
            let samples = xs.len();
            out.push(Metric {
                name,
                value: median(&mut xs),
                unit,
                samples,
            });
        };
    let all = |_: &OpRecord| true;
    for (_, ms_name, share_name) in OP_LAYERS.iter().chain(&PASSES) {
        med(ms_name.to_string(), "ms", ms_name, &all);
        med(share_name.to_string(), "ratio", share_name, &all);
    }
    for (name, unit) in PER_OP_VALUES {
        med(name.to_string(), unit, name, &all);
    }
    for class in SizeClass::ALL {
        for key in ["core.compile_ms", "analysis.bcverify_ms"] {
            med(
                format!("{key}.{}", class.name()),
                "ms",
                key,
                &|o: &OpRecord| o.class == class,
            );
        }
    }
    let mean = |key: &str| -> f64 {
        ops.iter()
            .map(|o| o.values.get(key).copied().unwrap_or(0.0))
            .sum::<f64>()
            / n.max(1) as f64
    };
    for key in ["opt.replay_agrees", "core.replica_agrees"] {
        out.push(Metric {
            name: key.to_string(),
            value: mean(key),
            unit: "ratio",
            samples: n,
        });
    }
    for (name, allocates) in [
        ("vm.gc_count_alloc_max", true),
        ("vm.gc_count_readonly_max", false),
    ] {
        let ops_of_kind = ops.iter().filter(|o| o.family.allocates() == allocates);
        out.push(Metric {
            name: name.to_string(),
            value: ops_of_kind
                .clone()
                .map(|o| o.values.get("vm.gc_count").copied().unwrap_or(0.0))
                .fold(0.0, f64::max),
            unit: "count",
            samples: ops_of_kind.count(),
        });
    }
    let mut gc_share: Vec<f64> = ops
        .iter()
        .filter(|o| o.family.allocates())
        .map(|o| {
            let run = o.values.get("vm.run_ms").copied().unwrap_or(0.0);
            let gc = o.values.get("vm.gc_ms_est").copied().unwrap_or(0.0);
            if run > 0.0 {
                gc / run
            } else {
                0.0
            }
        })
        .collect();
    out.push(Metric {
        name: "vm.gc_share_alloc".to_string(),
        samples: gc_share.len(),
        value: median(&mut gc_share),
        unit: "ratio",
    });
    out
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(ops: &[OpRecord], elapsed_s: f64, setup_s: f64, setup_samples: usize) -> Vec<Metric> {
    let n = ops.len();
    let ok = ops.iter().filter(|o| o.ok).count();
    let mut ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let failed = n - ok;
    vec![
        Metric {
            name: "throughput_ops_per_s".into(),
            value: ok as f64 / elapsed_s,
            unit: "ops/s",
            samples: n,
        },
        Metric {
            name: "latency_ms_p50".into(),
            value: percentile(&mut ms, 0.50),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "latency_ms_p95".into(),
            value: percentile(&mut ms, 0.95),
            unit: "ms",
            samples: n,
        },
        Metric {
            name: "error_rate".into(),
            value: failed as f64 / n.max(1) as f64,
            unit: "ratio",
            samples: n,
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: peak_rss_mb(),
            unit: "MB",
            samples: 1,
        },
        Metric {
            name: "setup_s".into(),
            value: setup_s,
            unit: "s",
            samples: setup_samples,
        },
    ]
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile; the median for `q == 0.5`.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if q == 0.5 {
        return median(xs);
    }
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Samples strictly above the `q` percentile (the p95 needs at least ten).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Process peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
