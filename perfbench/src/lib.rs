//! Source-to-value benchmark for `sxr`.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how they
//! map onto the crates, and the baseline.

pub mod gen;
pub mod replica;
pub mod trace;
pub mod workload;

use workload::{Metric, RunResult};

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A human-readable table of a run: every metric with its unit and sample
/// count.
pub fn table(r: &RunResult, seed: u64, traced: bool) -> String {
    let mut out = format!(
        "workload={} seed={seed} trace={} inputs_hash={:016x} attempted={} failed={}\n",
        r.workload.name(),
        u8::from(traced),
        r.inputs_hash,
        r.attempted,
        r.failed
    );
    for m in &r.metrics {
        out.push_str(&format!(
            "  {:<36} {:>14.6} {:<8} (n={})\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out
}

/// Per-group medians of a traced run's op values: by kernel family on
/// `kernels`, by size class elsewhere.
pub fn breakdown(r: &RunResult) -> String {
    use std::collections::BTreeMap;
    use workload::{median, Workload};
    const COLS: [&str; 12] = [
        "trace.op_ms",
        "core.compile_ms",
        "opt.optimize_ms",
        "analysis.bcverify_ms",
        "vm.load_ms",
        "vm.run_ms",
        "vm.insts",
        "vm.ns_per_inst",
        "vm.alloc_words",
        "vm.gc_count",
        "vm.gc_ms_est",
        "vm.heap_final_words",
    ];
    let mut groups: BTreeMap<String, Vec<&workload::OpRecord>> = BTreeMap::new();
    for op in &r.ops {
        let key = match r.workload {
            Workload::Kernels => op.family.name().to_string(),
            _ => op.class.name().to_string(),
        };
        groups.entry(key).or_default().push(op);
    }
    let mut out = format!("  {:<14} {:>4}", "group", "n");
    for c in COLS {
        out.push_str(&format!(" {:>13}", c.rsplit('.').next().unwrap_or(c)));
    }
    out.push('\n');
    for (key, ops) in groups {
        out.push_str(&format!("  {key:<14} {:>4}", ops.len()));
        for c in COLS {
            let mut xs: Vec<f64> = ops
                .iter()
                .map(|o| o.values.get(c).copied().unwrap_or(0.0))
                .collect();
            out.push_str(&format!(" {:>13.3}", median(&mut xs)));
        }
        out.push('\n');
    }
    out
}
