//! End-to-end tests for `sxr lint` — the rep-safety static analyzer with
//! file/span diagnostics — and for the inter-pass verifier across pipeline
//! configurations.
//!
//! The known-bad programs each provoke one diagnostic class from plain
//! source code (the misuse only becomes visible after library primitives
//! are inlined down to generic representation operations); the known-clean
//! side requires the entire prelude and benchmark suite to lint clean.

use sxr::lint::lint_source;
use sxr::{Compiler, PipelineConfig, Severity};
use sxr_bench::BENCHMARKS;

fn error_codes(src: &str) -> Vec<(String, u32)> {
    let report = lint_source(src).unwrap_or_else(|e| panic!("lint compile failed: {e}\n{src}"));
    report
        .diagnostics
        .iter()
        .filter(|d| d.is_error())
        .map(|d| {
            (
                d.diagnostic.class.code().to_string(),
                d.span.map_or(0, |s| s.line),
            )
        })
        .collect()
}

#[test]
fn wrong_rep_projection_has_code_and_span() {
    // `car` on a vector: both are pointer reps, so this is a projection
    // through a representation the value provably does not have.
    let src =
        "(define (ok x) x)\n(define (bad-proj) (car (make-vector 2 0)))\n(display (bad-proj))";
    let errors = error_codes(src);
    assert_eq!(errors, vec![("rep-disjoint".to_string(), 2)], "{errors:?}");
}

#[test]
fn raw_memory_on_immediate_has_code_and_span() {
    // `car` on a fixnum: a field load through a word that is provably an
    // immediate, never a heap pointer.
    let src = "(define (bad-raw) (car 5))\n(display (bad-raw))";
    let errors = error_codes(src);
    assert_eq!(
        errors,
        vec![("raw-mem-immediate".to_string(), 1)],
        "{errors:?}"
    );
}

#[test]
fn out_of_bounds_constant_index_has_code_and_span() {
    let src = "(define (id x) x)\n(define (id2 x) x)\n(define (bad-idx)\n  (vector-ref (make-vector 2 0) 9))\n(display (bad-idx))";
    let errors = error_codes(src);
    assert_eq!(errors, vec![("index-bounds".to_string(), 3)], "{errors:?}");
}

#[test]
fn out_of_bounds_string_and_store_are_flagged() {
    let errors = error_codes("(define (f) (string-ref \"ab\" 7)) (display (f))");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].0, "index-bounds");
    let errors = error_codes("(define (g) (vector-set! (make-vector 3 0) 5 1)) (display (g))");
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].0, "index-bounds");
}

#[test]
fn dead_rep_test_is_a_warning_not_an_error() {
    let src = "(define (dead) (pair? (cons 1 2))) (display (dead))";
    let report = lint_source(src).unwrap();
    assert!(!report.has_errors(), "{}", report.render("t.scm"));
    let warn = report
        .diagnostics
        .iter()
        .find(|d| d.severity() == Severity::Warning)
        .unwrap_or_else(|| panic!("expected a warning:\n{}", report.render("t.scm")));
    assert_eq!(warn.diagnostic.class.code(), "dead-rep-test");
    assert_eq!(warn.diagnostic.fun_name.as_deref(), Some("dead"));
}

#[test]
fn guarded_access_lints_clean() {
    // The classic safe pattern: test before project. The analyzer must
    // refine the tag set on the true edge and stay silent.
    let src = "(define (safe-car x) (if (pair? x) (car x) 0))\n(display (safe-car 5))";
    let report = lint_source(src).unwrap();
    assert!(
        !report.has_errors(),
        "false positive on guarded access:\n{}",
        report.render("t.scm")
    );
}

#[test]
fn full_prelude_lints_clean() {
    // Linting any program compiles the whole prelude (representation
    // declarations, abstract primitives, library) through the analyzer; a
    // single provable misuse in it would show up here.
    let report = lint_source("(display 42)").unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "prelude not clean:\n{}",
        report.render("prelude")
    );
}

#[test]
fn benchmark_suite_lints_clean() {
    for b in BENCHMARKS {
        let report = lint_source(b.source)
            .unwrap_or_else(|e| panic!("[{}] lint compile failed: {e}", b.name));
        assert!(
            !report.has_errors(),
            "[{}] analyzer flagged a working benchmark:\n{}",
            b.name,
            report.render(b.name)
        );
    }
}

#[test]
fn benchmark_suite_verifies_under_all_configs() {
    // With `verify_passes` forced on, every optimizer pass re-verifies the
    // IR (the converted module is verified on every compile); the whole
    // benchmark suite must compile with zero violations under every
    // pipeline configuration, and the compiled modules must carry zero
    // error-severity analyzer findings.
    for (label, cfg) in [
        ("Traditional", PipelineConfig::traditional()),
        ("AbstractOpt", PipelineConfig::abstract_optimized()),
        ("AbstractNoOpt", PipelineConfig::abstract_unoptimized()),
        ("Ablate(repspec)", PipelineConfig::ablated("repspec")),
    ] {
        let compiler = Compiler::new(cfg.with_verify_passes(true));
        for b in BENCHMARKS {
            let compiled = compiler
                .compile(b.source)
                .unwrap_or_else(|e| panic!("[{label}] {} failed verification: {e}", b.name));
            let errors = compiled.analyze_errors();
            assert!(
                errors.is_empty(),
                "[{label}] {} has analyzer errors:\n{}",
                b.name,
                errors.join("\n")
            );
        }
    }
}
