//! One seed gives the same inputs and the same exact counts; another seed
//! gives other inputs; and every template's reference agrees with `sxr`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds compile and run the generated programs far slower).

use sxr::{Compiler, PipelineConfig};
use sxr_perfbench::gen::{generate, Family, Rng, Scale, SizeClass};
use sxr_perfbench::workload::{inputs_hash, run, setup_programs, Budget, Workload};

#[test]
fn inputs_repeat_for_a_seed_and_change_with_it() {
    for w in Workload::ALL {
        assert_eq!(inputs_hash(w, 7), inputs_hash(w, 7), "{}", w.name());
        assert_ne!(inputs_hash(w, 7), inputs_hash(w, 8), "{}", w.name());
    }
    assert_eq!(
        setup_programs(Workload::Kernels, 7),
        setup_programs(Workload::Kernels, 7)
    );
}

/// The exact counts of two traced runs of the same seed agree op by op, and
/// only the allocation kernels collect.  One test runs every traced run,
/// because the tracer is process-global.
#[test]
fn exact_counts_repeat_across_runs() {
    const EXACT: [&str; 5] = [
        "vm.insts",
        "codegen.static_insts",
        "opt.rounds",
        "vm.gc_count",
        "vm.gc_copied_words",
    ];
    for (w, ops) in [
        (Workload::Script, 3),
        (Workload::Requests, 3),
        (Workload::Kernels, 10),
    ] {
        let a = run(w, 7, Budget::Ops(ops), true);
        let b = run(w, 7, Budget::Ops(ops), true);
        assert!(a.correct(), "{}: {:?}", w.name(), a.failures);
        assert!(b.correct(), "{}: {:?}", w.name(), b.failures);
        assert_eq!(a.ops.len(), ops);
        for key in EXACT {
            let counts = |r: &sxr_perfbench::workload::RunResult| -> Vec<f64> {
                r.ops.iter().map(|o| o.values[key]).collect()
            };
            assert_eq!(counts(&a), counts(&b), "{} {key}", w.name());
        }
        for op in &a.ops {
            let collected = op.values["vm.gc_count"] > 0.0;
            let expected = w == Workload::Kernels && op.family.allocates();
            assert_eq!(collected, expected, "{} {}", w.name(), op.family.name());
        }
    }
}

#[test]
fn references_agree_with_sxr_on_every_template() {
    let compiler = Compiler::new(PipelineConfig::abstract_optimized());
    for (i, family) in Family::ALL.into_iter().enumerate() {
        for class in [SizeClass::None, SizeClass::Small] {
            let mut rng = Rng::stream(11, i as u64);
            let p = generate(&mut rng, family, class, Scale::Short);
            let out = compiler
                .compile(&p.source)
                .unwrap_or_else(|e| panic!("{}: {e}\n{}", family.name(), p.source))
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(out.value, p.expect, "{}\n{}", family.name(), p.source);
        }
    }
}
