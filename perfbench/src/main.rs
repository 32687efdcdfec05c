//! `perfbench --workload <script|requests|kernels|all> --seed N --seconds S --trace <0|1>`
//!
//! Prints a table of every metric (with unit and sample count), then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.  Untraced runs report the
//! end-to-end metrics; traced runs report the per-layer metrics and write
//! their spans to `perfbench/out/`.  Exits 1 when any op failed or produced
//! a wrong value, 2 on a usage error.

use std::process::ExitCode;
use sxr_perfbench::workload::{self, Budget, Metric, Workload};
use sxr_perfbench::{breakdown, result_json, table, trace};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload script|requests|kernels|all --seed N --seconds S [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => match Workload::parse(&value) {
                Some(w) => workloads = Some(vec![w]),
                None => return usage(),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(workloads), Some(seed), Some(seconds)) = (workloads, seed, seconds) else {
        return usage();
    };

    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined: Vec<Metric> = Vec::new();
    for &w in &workloads {
        let r = workload::run(w, seed, Budget::Seconds(seconds), traced);
        print!("{}", table(&r, seed, traced));
        if !traced {
            let beyond = workload::samples_beyond(r.attempted, 0.95);
            if beyond < 10 {
                println!(
                    "  note: only {beyond} samples beyond the p95; run longer for a stable tail"
                );
            }
        }
        for f in r.failures.iter().take(5) {
            eprintln!("perfbench: {}: {f}", w.name());
        }
        if traced {
            print!("{}", breakdown(&r));
            if let Err(e) = write_spans(w, seed, &r.spans) {
                eprintln!("perfbench: cannot write spans: {e}");
            }
        }
        all_correct &= r.correct();
        attempted += r.attempted;
        failed += r.failed;
        if workloads.len() > 1 {
            println!(
                "{}",
                result_json(r.correct(), r.attempted, r.failed, &r.metrics)
            );
        }
        combined.extend(r.metrics.into_iter().map(|mut m| {
            if workloads.len() > 1 {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            m
        }));
    }
    if !traced {
        // `error_rate` is in the table; the result line reports it as
        // `failed` out of `attempted`.
        combined.retain(|m| !m.name.ends_with("error_rate"));
    }
    println!("{}", result_json(all_correct, attempted, failed, &combined));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes a traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, spans: &[trace::Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    std::fs::write(&path, trace::to_json_lines(spans))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}
