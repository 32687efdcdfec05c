//! Load scales linearly with function size.
//!
//! Every top-level `define` lands in `main`, so `main` grows with the
//! program.  Two mechanisms keep loading it linear, and this file pins both
//! with deterministic counters (no wall-clock bound):
//!
//! * the code generator reuses frame registers once their occupant is
//!   dead, so `main`'s frame stays small however many bindings it has;
//! * the bytecode verifier stores abstract states only at join points, so
//!   its peak memory is `(joins + 1) * (nregs + 1)` words, not
//!   `insts * nregs`.
//!
//! Each shape runs to the value computed here in Rust.  The shapes use
//! `abstract_unoptimized()`: the optimizer's inliner is still quadratic on
//! them.

use std::collections::HashSet;
use std::fmt::Write;

use sxr::{Compiler, PipelineConfig};
use sxr_vm::Inst;

/// Compiles and runs `src` without optimization, checks its value, and
/// returns `main`'s frame size after asserting the verifier's bounds.
fn load_and_run(src: &str, expected: i64) -> usize {
    let compiled = Compiler::new(PipelineConfig::abstract_unoptimized())
        .compile(src)
        .expect("compiles");
    let report = compiled.verify_bytecode();
    assert!(report.is_clean(), "{report}");
    let nregs = compiled.code.funs.iter().map(|f| f.nregs).max().unwrap();
    let (insts, joins, words) = (report.insts, report.joins, report.state_words);
    // Join points are each function's entry and its distinct branch and
    // handler targets; no other pc may keep a state.
    let targets: usize = compiled
        .code
        .funs
        .iter()
        .map(|f| {
            let mut at: HashSet<u32> = HashSet::from([0]);
            for inst in &f.insts {
                if let Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } =
                    inst
                {
                    at.insert(*t);
                }
            }
            at.len()
        })
        .sum();
    assert_eq!(joins, targets);
    assert!(
        words <= (joins + 1) * (nregs + 1),
        "state_words {words} over (joins {joins} + 1) * (nregs {nregs} + 1)"
    );
    assert!(
        words <= 2 * (insts + joins * nregs),
        "state_words {words} not linear in insts {insts} + joins {joins} * nregs {nregs}"
    );
    let outcome = compiled.run().expect("runs");
    assert_eq!(outcome.value, expected.to_string());
    compiled.code.funs[compiled.code.main as usize].nregs
}

/// Runs `f` on a thread whose stack holds the deep trees these shapes
/// build (the compiler runs on its own large stack; dropping the result
/// walks the same depth here).
fn deep(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p));
}

#[test]
fn many_list_defines_keep_main_small() {
    deep(|| {
        let mut src = String::new();
        for i in 0..1000 {
            writeln!(src, "(define x{i} (list3 {i} {i} {i}))").unwrap();
        }
        src.push_str("(fx+ (car x999) (car (cdr (cdr x998))))");
        let nregs = load_and_run(&src, 999 + 998);
        assert!(nregs <= 64, "main has {nregs} registers");
    });
}

#[test]
fn deep_nesting_needs_only_its_live_operators() {
    // `(fx+ 1 (fx+ 1 ... 0))`: each level's operator is fetched before
    // its arguments are evaluated, so `depth` operator values are live at
    // the innermost call; nothing else accumulates.
    deep(|| {
        let depth = 20_000;
        let src = format!("{}0{}", "(fx+ 1 ".repeat(depth), ")".repeat(depth));
        let nregs = load_and_run(&src, depth as i64);
        assert!(nregs <= depth + 64, "main has {nregs} registers");
    });
}

#[test]
fn many_branchy_defines_keep_main_small() {
    deep(|| {
        let mut src = String::from("(define g 0)\n");
        for i in 0..2000 {
            writeln!(src, "(define y{i} (if (pair? g) {i} (fx+ {i} 1)))").unwrap();
        }
        src.push_str("(fx+ y0 y1999)");
        let nregs = load_and_run(&src, 1 + 2000);
        assert!(nregs <= 64, "main has {nregs} registers");
    });
}

#[test]
fn more_bindings_than_frame_registers_compile() {
    // 70,000 bindings in one function: more than a frame can address, but
    // only a handful are ever live at once.
    deep(|| {
        let mut src = String::new();
        for i in 0..70_000 {
            writeln!(src, "(define x{i} {i})").unwrap();
        }
        src.push_str("x69999");
        let nregs = load_and_run(&src, 69_999);
        assert!(nregs <= 64, "main has {nregs} registers");
    });
}
