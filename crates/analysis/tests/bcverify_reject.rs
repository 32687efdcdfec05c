//! The adversarial rejection corpus: one hand-crafted program per verifier
//! rule, each asserting the exact `{fun, pc, rule}` address and the stable
//! rule label the rejection carries.  Structural problems belong to the
//! VM's load check; they share one table of `malformed` programs.
//!
//! These are the programs the bytecode verifier exists to refuse — and the
//! machine-level tests at the bottom prove a rejected program never starts.

use sxr_analysis::bcverify::build::ProgramBuilder;
use sxr_analysis::bcverify::{verifier_hook, verify_program, Rejection, Rule};
use sxr_ir::rep::RepRegistry;
use sxr_vm::{
    BinOp, CmpOp, CodeFun, CodeProgram, Inst, Machine, MachineConfig, PoolEntry, RegImm, RepVmOp,
    VmErrorKind,
};

/// Verifies `prog` and returns the first rejection, asserting there is one.
fn first(prog: &CodeProgram) -> Rejection {
    let report = verify_program(prog);
    report
        .first()
        .unwrap_or_else(|| panic!("expected a rejection, got clean report"))
        .clone()
}

#[track_caller]
fn assert_rejects(prog: &CodeProgram, fun: u32, pc: u32, rule: Rule, label: &str) {
    let r = first(prog);
    assert_eq!(
        (r.fun, r.pc, r.rule),
        (fun, pc, rule),
        "wrong address/rule: {r}"
    );
    assert_eq!(r.rule.label(), label, "label drifted for {rule:?}");
}

/// An encoded classic-scheme fixnum (tag 0, shift 3).
fn fx(n: i64) -> i64 {
    n << 3
}

#[track_caller]
fn assert_malformed(prog: CodeProgram, needle: &str) {
    let report = verify_program(&prog);
    let [r] = report.rejections.as_slice() else {
        panic!("expected exactly one rejection, got {report}");
    };
    assert_eq!(
        (r.fun, r.pc, r.rule, r.rule.label()),
        (prog.main, 0, Rule::Malformed, "malformed"),
        "wrong address/rule: {r}"
    );
    // The detail is the VM's own message: the load refuses the same
    // program, through the same check, with no verifier installed.
    let load = Machine::new(prog, MachineConfig::default()).unwrap_err();
    assert_eq!(load.kind, VmErrorKind::BadProgram, "{load}");
    assert_eq!(r.detail, load.message);
    assert!(r.detail.contains(needle), "{:?} lacks {needle:?}", r.detail);
}

/// One `main` function of `nregs` registers over the classic registry.
fn main_fn(nregs: usize, insts: Vec<Inst>) -> CodeProgram {
    ProgramBuilder::new().fun("main", 0, nregs, insts).build()
}

/// Structural problems: the VM's load check owns them, and the verifier
/// reports each as exactly one `malformed` rejection at the entry
/// function's pc 0, carrying the VM's message.
macro_rules! malformed {
    ($($name:ident: $prog:expr => $needle:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_malformed($prog, $needle);
        }
    )*};
}

malformed! {
    reg_oob: main_fn(2, vec![Inst::Move { d: 1, s: 5 }, Inst::Ret { s: 1 }])
        => "register r5 out of range";
    jump_oob: main_fn(2, vec![Inst::Jump { t: 9 }, Inst::Ret { s: 0 }])
        => "jump target 9 out of range";
    // A branch to `insts.len()` would fall off the end at run time; the
    // bound is strict.
    branch_target_at_end_is_oob: main_fn(
        2,
        vec![
            Inst::Const { d: 1, imm: fx(1) },
            Inst::JumpCmp { op: CmpOp::Eq, a: 1, b: RegImm::Imm(0), t: 3 },
            Inst::Ret { s: 1 },
        ],
    ) => "jump target 3 out of range";
    pool_oob: main_fn(2, vec![Inst::Pool { d: 1, idx: 4 }, Inst::Ret { s: 1 }])
        => "pool index 4 out of range";
    global_oob: ProgramBuilder::new()
        .globals(2)
        .fun("main", 0, 2, vec![Inst::GlobalGet { d: 1, g: 3 }, Inst::Ret { s: 1 }])
        .build() => "global 3 out of range";
    fn_oob: main_fn(
        2,
        vec![Inst::CallKnown { d: 1, f: 7, clo: 0, args: vec![] }, Inst::Ret { s: 1 }],
    ) => "function id 7 out of range";
    // Representation id 0 is `fixnum` in the classic registry.
    bad_alloc_of_immediate_rep: main_fn(
        2,
        vec![
            Inst::Const { d: 1, imm: fx(0) },
            Inst::AllocFill { d: 1, len: RegImm::Imm(2), fill: 1, rep: 0 },
            Inst::Ret { s: 1 },
        ],
    ) => "alloc of immediate representation `fixnum`";
    bad_alloc_negative_length: main_fn(
        2,
        vec![
            Inst::Const { d: 1, imm: fx(0) },
            Inst::AllocFill { d: 1, len: RegImm::Imm(-4), fill: 1, rep: 5 }, // pair
            Inst::Ret { s: 1 },
        ],
    ) => "allocation of -4 fields";
    bad_args_rep_operand_count: main_fn(
        2,
        vec![Inst::Rep { op: RepVmOp::Inject, d: 1, args: vec![0] }, Inst::Ret { s: 1 }],
    ) => "takes 2 operands, got 1";
    bad_args_closure_capture_mismatch: ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::MakeClosure { d: 1, f: 1, free: vec![0] }, // leaf declares 2 slots
                Inst::Ret { s: 1 },
            ],
        )
        .fun_raw(leaf(2))
        .build() => "closure captures 1 value(s) but `leaf` declares 2 free slot(s)";
    entry_function_oob: {
        let mut prog = main_fn(1, vec![Inst::Ret { s: 0 }]);
        prog.main = 3;
        prog
    } => "main function id 3 out of range";
    pool_rep_of_unknown_id: ProgramBuilder::new()
        .pool(PoolEntry::Rep(40))
        .fun("main", 0, 2, vec![Inst::Pool { d: 1, idx: 0 }, Inst::Ret { s: 1 }])
        .build() => "unknown representation id 40";
    boot_role_of_wrong_kind: {
        let mut reg = RepRegistry::new();
        for (role, bits) in [("fixnum", 0), ("boolean", 0b0000_0010), ("unspecified", 0b0011_0010)] {
            let id = reg.intern_immediate(role, 8, bits, 8).unwrap();
            reg.provide_role(role, id).unwrap();
        }
        let clo = reg.intern_immediate("closure", 8, 0b0001_0010, 8).unwrap();
        reg.provide_role("closure", clo).unwrap();
        ProgramBuilder::new()
            .registry(reg)
            .fun("main", 0, 1, vec![Inst::Ret { s: 0 }])
            .build()
    } => "role `closure` must be a pointer representation";
}

/// A leaf function with `free` GC-scanned free slots.
fn leaf(free: usize) -> CodeFun {
    CodeFun {
        name: "leaf".into(),
        arity: 0,
        variadic: false,
        nregs: 1,
        free_count: free,
        insts: vec![Inst::Ret { s: 0 }],
        ptr_map: vec![true],
        free_ptr_map: vec![true; free],
    }
}

#[test]
fn bad_args_closure_patch_out_of_range() {
    // `leaf` has one free slot; patching slot 1 would write past it.
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(0) },
                Inst::MakeClosure {
                    d: 2,
                    f: 1,
                    free: vec![1],
                },
                Inst::ClosureSet {
                    clo: 2,
                    idx: 1,
                    val: 1,
                },
                Inst::Ret { s: 2 },
            ],
        )
        .fun_raw(leaf(1))
        .build();
    assert_rejects(&prog, 0, 2, Rule::BadArgs, "bad-args");
}

#[test]
fn missing_role() {
    // A registry with only the boot roles: `WriteChar` needs `char`.
    let mut reg = RepRegistry::new();
    let fx_id = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0001_0010, 8)
        .unwrap();
    let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
    for (role, id) in [
        ("fixnum", fx_id),
        ("boolean", bo),
        ("unspecified", un),
        ("closure", clo),
    ] {
        reg.provide_role(role, id).unwrap();
    }
    let prog = ProgramBuilder::new()
        .registry(reg)
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Const { d: 1, imm: fx(65) },
                Inst::WriteChar { s: 1 },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 1, Rule::MissingRole, "missing-role");
}

#[test]
fn fall_off_end() {
    let prog = ProgramBuilder::new()
        .fun("main", 0, 2, vec![Inst::Const { d: 1, imm: fx(1) }])
        .build();
    assert_rejects(&prog, 0, 0, Rule::FallOffEnd, "fall-off-end");
}

#[test]
fn empty_function_falls_off_immediately() {
    let prog = ProgramBuilder::new().fun("main", 0, 1, vec![]).build();
    assert_rejects(&prog, 0, 0, Rule::FallOffEnd, "fall-off-end");
}

#[test]
fn def_before_use() {
    let prog = ProgramBuilder::new()
        .fun("main", 0, 3, vec![Inst::Ret { s: 2 }])
        .build();
    assert_rejects(&prog, 0, 0, Rule::DefBeforeUse, "def-before-use");
}

#[test]
fn def_before_use_on_one_path_only() {
    // r2 is written on the fall-through path but not the branch path; the
    // join makes it unreadable.
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(1) },
                Inst::JumpCmp {
                    op: CmpOp::Eq,
                    a: 1,
                    b: RegImm::Imm(0),
                    t: 3,
                },
                Inst::Const { d: 2, imm: fx(9) },
                Inst::Ret { s: 2 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 3, Rule::DefBeforeUse, "def-before-use");
}

#[test]
fn raw_mem_base() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(1) },
                Inst::Bin {
                    op: BinOp::Add,
                    d: 1,
                    a: 1,
                    b: 1,
                }, // r1 is now a raw word
                Inst::LoadD {
                    d: 2,
                    p: 1,
                    disp: 0,
                },
                Inst::Ret { s: 2 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 2, Rule::RawMemBase, "raw-mem-base");
}

#[test]
fn const_ptr() {
    // 0b001 is the pair pointer pattern in the classic scheme; the GC
    // would chase it out of a scanned register.
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![Inst::Const { d: 1, imm: 0b001 }, Inst::Ret { s: 1 }],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::ConstPtr, "const-ptr");
}

#[test]
fn tagged_into_raw() {
    let main = CodeFun {
        name: "main".into(),
        arity: 0,
        variadic: false,
        nregs: 2,
        free_count: 0,
        insts: vec![Inst::GlobalGet { d: 1, g: 0 }, Inst::Ret { s: 1 }],
        ptr_map: vec![true, false], // r1 unscanned, yet holds a global
        free_ptr_map: vec![],
    };
    let prog = ProgramBuilder::new().globals(1).fun_raw(main).build();
    assert_rejects(&prog, 0, 0, Rule::TaggedIntoRaw, "tagged-into-raw");
}

#[test]
fn tagged_into_raw_parameter() {
    // Parameter registers hold tagged values on entry; marking one
    // unscanned hides a root from the collector.
    let f = CodeFun {
        name: "f".into(),
        arity: 1,
        variadic: false,
        nregs: 2,
        free_count: 0,
        insts: vec![Inst::Ret { s: 1 }],
        ptr_map: vec![true, false],
        free_ptr_map: vec![],
    };
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::MakeClosure {
                    d: 1,
                    f: 1,
                    free: vec![],
                },
                Inst::Ret { s: 1 },
            ],
        )
        .fun_raw(f)
        .build();
    assert_rejects(&prog, 1, 0, Rule::TaggedIntoRaw, "tagged-into-raw");
}

#[test]
fn tagged_into_raw_slot() {
    let leaf = CodeFun {
        name: "leaf".into(),
        arity: 0,
        variadic: false,
        nregs: 1,
        free_count: 1,
        insts: vec![Inst::Ret { s: 0 }],
        ptr_map: vec![true],
        free_ptr_map: vec![false], // slot 0 unscanned
    };
    let prog = ProgramBuilder::new()
        .globals(1)
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::GlobalGet { d: 1, g: 0 }, // tagged
                Inst::MakeClosure {
                    d: 2,
                    f: 1,
                    free: vec![1],
                },
                Inst::Ret { s: 2 },
            ],
        )
        .fun_raw(leaf)
        .build();
    assert_rejects(&prog, 0, 1, Rule::TaggedIntoRawSlot, "tagged-into-raw-slot");
}

#[test]
fn closure_set_unknown() {
    let prog = ProgramBuilder::new()
        .globals(1)
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::GlobalGet { d: 1, g: 0 },
                Inst::ClosureSet {
                    clo: 1,
                    idx: 0,
                    val: 1,
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 1, Rule::ClosureSetUnknown, "closure-set-unknown");
}

#[test]
fn handler_underflow() {
    let prog = ProgramBuilder::new()
        .fun("main", 0, 2, vec![Inst::PopHandler, Inst::Ret { s: 0 }])
        .build();
    assert_rejects(&prog, 0, 0, Rule::HandlerUnderflow, "handler-underflow");
}

#[test]
fn handler_leak() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(1) },
                Inst::PushHandler { h: 1, d: 2, t: 3 },
                Inst::Ret { s: 1 }, // returns with the handler installed
                Inst::Ret { s: 2 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 2, Rule::HandlerLeak, "handler-leak");
}

#[test]
fn handler_join_mismatch() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(1) },
                Inst::JumpCmp {
                    op: CmpOp::Eq,
                    a: 1,
                    b: RegImm::Imm(0),
                    t: 3,
                },
                Inst::PushHandler { h: 1, d: 2, t: 5 },
                Inst::Ret { s: 1 }, // joined at depth 0 and depth 1
                Inst::Ret { s: 1 },
                Inst::Ret { s: 2 },
            ],
        )
        .build();
    assert_rejects(
        &prog,
        0,
        3,
        Rule::HandlerJoinMismatch,
        "handler-join-mismatch",
    );
}

// ----- the machine refuses to start on a rejected program -----

#[test]
fn machine_refuses_rejected_program() {
    let prog = ProgramBuilder::new()
        .fun("main", 0, 3, vec![Inst::Ret { s: 2 }])
        .build();
    let config = MachineConfig {
        verifier: Some(verifier_hook),
        ..Default::default()
    };
    let err = Machine::new(prog, config).unwrap_err();
    match err.kind {
        VmErrorKind::RejectedByVerifier { fun, pc, rule } => {
            assert_eq!((fun, pc, rule), (0, 0, "def-before-use"));
        }
        other => panic!("expected RejectedByVerifier, got {other:?}"),
    }
    assert_eq!(err.kind.label(), "rejected-by-verifier");
}

#[test]
fn machine_runs_verified_program_on_fast_path() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            3,
            vec![
                Inst::Const { d: 1, imm: fx(20) },
                Inst::Bin {
                    op: BinOp::Add,
                    d: 2,
                    a: 1,
                    b: 1,
                },
                Inst::Ret { s: 2 },
            ],
        )
        .build();
    let config = MachineConfig {
        verifier: Some(verifier_hook),
        ..Default::default()
    };
    let mut m = Machine::new(prog, config).unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "40");
}

#[test]
fn unverified_machine_still_runs_checked() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![Inst::Const { d: 1, imm: fx(7) }, Inst::Ret { s: 1 }],
        )
        .build();
    let mut m = Machine::new(prog, MachineConfig::default()).unwrap();
    let w = m.run().unwrap();
    assert_eq!(m.describe(w), "7");
}
