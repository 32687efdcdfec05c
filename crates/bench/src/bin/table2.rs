//! Table 2 — dynamic instruction counts, allocation, and ratios on the
//! benchmark suite, per configuration.
//!
//! Regenerate with: `cargo run -p sxr-bench --bin table2`
//! (wall-clock times come from
//! `cargo run --release -p sxr-bench --bin bench_vm`)

use sxr::{Compiler, PipelineConfig};
use sxr_bench::BENCHMARKS;

fn main() {
    println!("Table 2: dynamic instruction counts (kernel only; %counters-reset! after setup)");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>7} {:>13} {:>7} {:>10} {:>5}",
        "bench", "Traditional", "AbstractOpt", "A/T", "AbstractNoOpt", "N/T", "alloc-w", "GCs"
    );
    println!("{}", "-".repeat(82));
    let mut prod_at = 1.0f64;
    let mut prod_nt = 1.0f64;
    for b in BENCHMARKS {
        let run = |cfg: PipelineConfig| {
            Compiler::new(cfg)
                .compile(b.source)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name))
                .run()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name))
        };
        let t = run(PipelineConfig::traditional());
        let a = run(PipelineConfig::abstract_optimized());
        let n = run(PipelineConfig::abstract_unoptimized());
        assert_eq!(t.value, b.expect, "{} oracle (traditional)", b.name);
        assert_eq!(a.value, b.expect, "{} oracle (abstract)", b.name);
        assert_eq!(n.value, b.expect, "{} oracle (noopt)", b.name);
        let at = a.counters.total as f64 / t.counters.total as f64;
        let nt = n.counters.total as f64 / t.counters.total as f64;
        prod_at *= at;
        prod_nt *= nt;
        println!(
            "{:<8} {:>12} {:>12} {:>7.3} {:>13} {:>7.2} {:>10} {:>5}",
            b.name,
            t.counters.total,
            a.counters.total,
            at,
            n.counters.total,
            nt,
            a.counters.allocated_words,
            a.counters.gc_count
        );
    }
    let n = BENCHMARKS.len() as f64;
    println!("{}", "-".repeat(82));
    println!(
        "geometric mean: AbstractOpt/Traditional = {:.3}, AbstractNoOpt/Traditional = {:.2}",
        prod_at.powf(1.0 / n),
        prod_nt.powf(1.0 / n)
    );
}
