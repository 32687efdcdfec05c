//! The benchmark suite: classic Scheme kernels of the era (Gabriel-style),
//! exercising exactly the primitive operations whose generated code the
//! paper is about. Shared by the integration tests, the table binaries,
//! and the Criterion wall-time benches.

/// One benchmark program.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Short name used in tables.
    pub name: &'static str,
    /// What it stresses.
    pub stresses: &'static str,
    /// Scheme source. Each program calls `(%counters-reset!)` after setup
    /// so dynamic counts measure the kernel, then leaves a checksum as its
    /// value.
    pub source: &'static str,
    /// Expected final value (differential oracle).
    pub expect: &'static str,
}

/// All benchmarks, in report order.
pub const BENCHMARKS: &[Benchmark] = &[
    Benchmark {
        name: "fib",
        stresses: "fixnum arith, non-tail calls",
        source: "
          (define (fib n) (if (fx< n 2) n (fx+ (fib (fx- n 1)) (fib (fx- n 2)))))
          (%counters-reset!)
          (fib 22)",
        expect: "17711",
    },
    Benchmark {
        name: "tak",
        stresses: "fixnum compare, deep calls",
        source: "
          (define (tak x y z)
            (if (not (fx< y x))
                z
                (tak (tak (fx- x 1) y z)
                     (tak (fx- y 1) z x)
                     (tak (fx- z 1) x y))))
          (%counters-reset!)
          (tak 18 12 6)",
        expect: "7",
    },
    Benchmark {
        name: "sieve",
        stresses: "vectors, loops",
        source: "
          (define (sieve n)
            (let ((v (make-vector n #t)))
              (let loop ((i 2) (count 0))
                (cond ((fx< n i) count)
                      ((fx= i n) count)
                      ((vector-ref v i)
                       (begin
                         (let mark ((j (fx* i i)))
                           (when (fx< j n)
                             (vector-set! v j #f)
                             (mark (fx+ j i))))
                         (loop (fx+ i 1) (fx+ count 1))))
                      (else (loop (fx+ i 1) count))))))
          (%counters-reset!)
          (sieve 1000)",
        expect: "168",
    },
    Benchmark {
        name: "nrev",
        stresses: "pairs, allocation, GC",
        source: "
          (define (nrev-iter k acc)
            (if (fx= k 0) acc (nrev-iter (fx- k 1) (length (reverse acc)))))
          (define base (iota 400))
          (%counters-reset!)
          (let loop ((k 60) (sum 0))
            (if (fx= k 0)
                sum
                (loop (fx- k 1) (fx+ sum (length (reverse base))))))",
        expect: "24000",
    },
    Benchmark {
        name: "vsum",
        stresses: "vector-ref in a tight loop",
        source: "
          (define v (list->vector (iota 10000)))
          (%counters-reset!)
          (let loop ((i 0) (sum 0))
            (if (fx= i 10000) sum (loop (fx+ i 1) (fx+ sum (vector-ref v i)))))",
        expect: "49995000",
    },
    Benchmark {
        name: "strhash",
        stresses: "string-ref, char->integer",
        source: "
          (define s \"the quick brown fox jumps over the lazy dog\")
          (%counters-reset!)
          (let loop ((k 0) (h 0))
            (if (fx= k 500) h (loop (fx+ k 1) (fxremainder (fx+ h (string-hash s)) 1000003))))",
        expect: "286570",
    },
    Benchmark {
        name: "assq",
        stresses: "symbol identity, list walking",
        source: "
          (define table
            (map (lambda (i) (cons i (fx* i i))) (iota 64)))
          (%counters-reset!)
          (let loop ((k 0) (sum 0))
            (if (fx= k 2000)
                sum
                (loop (fx+ k 1)
                      (fx+ sum (cdr (assq (fxremainder k 64) table))))))",
        expect: "2646904",
    },
    Benchmark {
        name: "deriv",
        stresses: "quoted structure, dispatch",
        source: "
          (define (deriv e x)
            (cond ((symbol? e) (if (eq? e x) 1 0))
                  ((fixnum? e) 0)
                  ((eq? (car e) '+)
                   (list3 '+ (deriv (cadr e) x) (deriv (caddr e) x))
                  )
                  ((eq? (car e) '*)
                   (list3 '+
                          (list3 '* (cadr e) (deriv (caddr e) x))
                          (list3 '* (caddr e) (deriv (cadr e) x))))
                  (else (error 'deriv))))
          (define expr '(+ (* x x) (* 3 (+ x (* x x)))))
          (%counters-reset!)
          (let loop ((k 0) (n 0))
            (if (fx= k 300)
                n
                (loop (fx+ k 1) (fx+ n (length (deriv expr 'x))))))",
        expect: "900",
    },
    Benchmark {
        name: "queens",
        stresses: "branching, lists, recursion",
        source: "
          (define (ok? row dist placed)
            (if (null? placed)
                #t
                (and (not (fx= (car placed) (fx+ row dist)))
                     (not (fx= (car placed) (fx- row dist)))
                     (ok? row (fx+ dist 1) (cdr placed)))))
          (define (try x y z)
            (if (null? x)
                (if (null? y) 1 0)
                (fx+ (if (ok? (car x) 1 z)
                         (try (append (cdr x) y) '() (cons (car x) z))
                         0)
                     (try (cdr x) (cons (car x) y) z))))
          (define (queens n) (try (iota n) '() '()))
          (%counters-reset!)
          (queens 8)",
        expect: "92",
    },
    Benchmark {
        name: "boxes",
        stresses: "mutable state via the library's boxes",
        source: "
          (define (make-acc) (let ((t 0)) (lambda (d) (set! t (fx+ t d)) t)))
          (define acc (make-acc))
          (%counters-reset!)
          (let loop ((i 0) (last 0))
            (if (fx= i 20000) last (loop (fx+ i 1) (acc 1))))",
        expect: "20000",
    },
];

/// Looks a benchmark up by name.
pub fn benchmark(name: &str) -> Option<&'static Benchmark> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

// ---------------------------------------------------------------------------
// Measurement harness (`bench_vm`)
// ---------------------------------------------------------------------------

use std::time::Duration;
use sxr::report::{run_timed, run_under_fault, ChaosOutcome};
use sxr::{Compiled, Compiler, Counters, FaultPlan, Outcome, PipelineConfig};

/// The pipeline configurations the wall-clock harness measures, with their
/// report labels.
pub fn measured_configs() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("traditional", PipelineConfig::traditional()),
        ("abstract-opt", PipelineConfig::abstract_optimized()),
        ("abstract-noopt", PipelineConfig::abstract_unoptimized()),
    ]
}

/// One (benchmark, configuration) measurement: wall-clock statistics
/// over `iters` fresh-machine runs plus the dynamic counters of the final
/// run (counters are deterministic across runs, so any run's will do).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (see [`BENCHMARKS`]).
    pub name: String,
    /// Configuration label (see [`measured_configs`]).
    pub config: String,
    /// Median per-run wall-clock time.
    pub median: Duration,
    /// Mean per-run wall-clock time.
    pub mean: Duration,
    /// Fastest run.
    pub min: Duration,
    /// The program's final value.
    pub value: String,
    /// Whether `value` matched the benchmark's differential oracle.
    pub ok: bool,
    /// Dynamic counters from the last run.
    pub counters: Counters,
}

/// Runs every benchmark under every configuration, `iters` timed runs each
/// (after one warmup run), and returns the measurements in report order.
/// Each run loads a fresh machine as [`Compiled::machine`] does, bytecode
/// verifier included; load is excluded from the timing (see
/// [`run_timed`]).
///
/// # Panics
///
/// Panics when a benchmark fails to compile or run — the suite is part of
/// the repository's contract, so a broken benchmark is a bug, not a datum.
pub fn measure_suite(iters: usize) -> Vec<Measurement> {
    assert!(iters > 0, "need at least one timed iteration");
    let mut out = Vec::with_capacity(BENCHMARKS.len() * 3);
    for b in BENCHMARKS {
        for (label, cfg) in measured_configs() {
            let compiled = Compiler::new(cfg)
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{}/{label}: compile failed: {e}", b.name));
            let run = || run_timed(&compiled).unwrap_or_else(|e| panic!("{}/{label}: {e}", b.name));
            // Warmup: one untimed run (touches the heap, faults pages).
            run();
            let mut times = Vec::with_capacity(iters);
            let mut last = None;
            for _ in 0..iters {
                let (dt, outcome) = run();
                times.push(dt);
                last = Some(outcome);
            }
            times.sort();
            let outcome = last.expect("iters > 0");
            let mean = times.iter().sum::<Duration>() / iters as u32;
            out.push(Measurement {
                name: b.name.to_string(),
                config: label.to_string(),
                median: times[times.len() / 2],
                mean,
                min: times[0],
                ok: outcome.value == b.expect,
                value: outcome.value,
                counters: outcome.counters,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chaos harness (fault-injection sweeps over the corpus)
// ---------------------------------------------------------------------------

/// One (benchmark, configuration) compilation with its fault-free oracle —
/// the unit a chaos sweep runs fault schedules against.
#[derive(Debug)]
pub struct ChaosTarget {
    /// Benchmark name (see [`BENCHMARKS`]).
    pub name: &'static str,
    /// Expected final value from the suite's differential oracle.
    pub expect: &'static str,
    /// Configuration label (see [`measured_configs`]).
    pub config: &'static str,
    /// The compiled program (compile once, run under many plans).
    pub compiled: Compiled,
    /// The fault-free outcome (verified against `expect`).
    pub oracle: Outcome,
    /// Total object allocations of the fault-free run, pool included —
    /// the ordinal space `FaultPlan::fail_alloc_at` indexes, so sweeps can
    /// scale fail points to each configuration's own allocation profile.
    pub total_allocs: u64,
}

/// Compiles the whole corpus under every measured configuration with
/// `heap_words` of initial heap, runs each fault-free once, and returns the
/// targets for a chaos sweep.
///
/// # Panics
///
/// Panics when a benchmark fails to compile, fails to run fault-free, or
/// misses its oracle — the fault-free corpus is the suite's contract.
pub fn chaos_targets(heap_words: usize) -> Vec<ChaosTarget> {
    let mut out = Vec::with_capacity(BENCHMARKS.len() * 3);
    for b in BENCHMARKS {
        for (label, cfg) in measured_configs() {
            let compiled = Compiler::new(cfg.with_heap_words(heap_words))
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{}/{label}: compile failed: {e}", b.name));
            let mut m = compiled
                .machine()
                .unwrap_or_else(|e| panic!("{}/{label}: load failed: {e}", b.name));
            let w = m
                .run()
                .unwrap_or_else(|e| panic!("{}/{label}: fault-free run failed: {e}", b.name));
            let oracle = Outcome {
                value: m.describe(w),
                output: m.output().to_string(),
                counters: m.counters.clone(),
            };
            assert_eq!(
                oracle.value, b.expect,
                "{}/{label}: fault-free run missed the oracle",
                b.name
            );
            out.push(ChaosTarget {
                name: b.name,
                expect: b.expect,
                config: label,
                compiled,
                oracle,
                total_allocs: m.allocations(),
            });
        }
    }
    out
}

/// Runs one target under `plan` and classifies the result against the
/// target's fault-free oracle (see [`ChaosOutcome`]).
pub fn run_chaos(target: &ChaosTarget, plan: FaultPlan) -> ChaosOutcome {
    run_under_fault(&target.compiled, plan, &target.oracle)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the whole suite as the `BENCH_vm.json` document (schema
/// `sxr-bench-vm/v3`: one row per benchmark × configuration).
/// Serialization is hand-rolled: the build environment is offline, so no
/// serde.
pub fn suite_json(iters: usize, measurements: &[Measurement]) -> String {
    let mut rows = Vec::with_capacity(measurements.len());
    for m in measurements {
        rows.push(format!(
            concat!(
                "    {{\"name\":\"{}\",\"config\":\"{}\",",
                "\"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},",
                "\"value\":\"{}\",\"ok\":{},\"counters\":{}}}"
            ),
            json_escape(&m.name),
            json_escape(&m.config),
            m.median.as_nanos(),
            m.mean.as_nanos(),
            m.min.as_nanos(),
            json_escape(&m.value),
            m.ok,
            m.counters.to_json(),
        ));
    }
    format!(
        "{{\n  \"schema\": \"sxr-bench-vm/v3\",\n  \"iters\": {iters},\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn suite_json_shape() {
        let m = Measurement {
            name: "fib".into(),
            config: "abstract-opt".into(),
            median: Duration::from_nanos(1500),
            mean: Duration::from_nanos(1600),
            min: Duration::from_nanos(1400),
            value: "17711".into(),
            ok: true,
            counters: Counters::default(),
        };
        let j = suite_json(3, &[m]);
        assert!(j.contains("\"schema\": \"sxr-bench-vm/v3\""));
        assert!(j.contains("\"iters\": 3"));
        assert!(!j.contains("verified"));
        assert!(j.contains("\"median_ns\":1500"));
        assert!(j.contains("\"ok\":true"));
        assert!(j.contains("\"counters\":{\"total\":0"));
    }
}
