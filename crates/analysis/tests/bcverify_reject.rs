//! The adversarial rejection corpus: one hand-crafted program per verifier
//! rule, each asserting the exact `{fun, pc, rule}` address and the stable
//! rule label the rejection carries.
//!
//! These are the programs the bytecode verifier exists to refuse — and the
//! machine-level tests at the bottom prove a rejected program never starts.

use sxr_analysis::bcverify::build::ProgramBuilder;
use sxr_analysis::bcverify::{verifier_hook, verify_program, Rejection, Rule};
use sxr_ir::rep::RepRegistry;
use sxr_vm::{
    BinOp, CmpOp, CodeFun, CodeProgram, Inst, Machine, MachineConfig, RegImm, RepVmOp, VmErrorKind,
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

#[test]
fn reg_oob() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![Inst::Move { d: 1, s: 5 }, Inst::Ret { s: 1 }],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::RegOob, "reg-oob");
}

#[test]
fn jump_oob() {
    let prog = ProgramBuilder::new()
        .fun("main", 0, 2, vec![Inst::Jump { t: 9 }, Inst::Ret { s: 0 }])
        .build();
    assert_rejects(&prog, 0, 0, Rule::JumpOob, "jump-oob");
}

#[test]
fn branch_target_at_end_is_oob() {
    // A branch to `insts.len()` would fall off the end at run time; the
    // bound is strict.
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Const { d: 1, imm: fx(1) },
                Inst::JumpCmp {
                    op: CmpOp::Eq,
                    a: 1,
                    b: RegImm::Imm(0),
                    t: 3,
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 1, Rule::JumpOob, "jump-oob");
}

#[test]
fn pool_oob() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![Inst::Pool { d: 1, idx: 4 }, Inst::Ret { s: 1 }],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::PoolOob, "pool-oob");
}

#[test]
fn global_oob() {
    let prog = ProgramBuilder::new()
        .globals(2)
        .fun(
            "main",
            0,
            2,
            vec![Inst::GlobalGet { d: 1, g: 3 }, Inst::Ret { s: 1 }],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::GlobalOob, "global-oob");
}

#[test]
fn fn_oob() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::CallKnown {
                    d: 1,
                    f: 7,
                    clo: 0,
                    args: vec![],
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::FnOob, "fn-oob");
}

#[test]
fn bad_alloc_of_immediate_rep() {
    // Representation id 0 is `fixnum` in the classic registry.
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Const { d: 1, imm: fx(0) },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(2),
                    fill: 1,
                    rep: 0,
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 1, Rule::BadAlloc, "bad-alloc");
}

#[test]
fn bad_alloc_negative_length() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Const { d: 1, imm: fx(0) },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(-4),
                    fill: 1,
                    rep: 5, // pair
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 1, Rule::BadAlloc, "bad-alloc");
}

#[test]
fn bad_args_rep_operand_count() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Rep {
                    op: RepVmOp::Inject,
                    d: 1,
                    args: vec![0],
                },
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    assert_rejects(&prog, 0, 0, Rule::BadArgs, "bad-args");
}

#[test]
fn bad_args_closure_capture_mismatch() {
    let leaf = CodeFun {
        name: "leaf".into(),
        arity: 0,
        variadic: false,
        nregs: 1,
        free_count: 2,
        insts: vec![Inst::Ret { s: 0 }],
        ptr_map: vec![true],
        free_ptr_map: vec![true, true],
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
                    free: vec![0], // leaf declares 2 slots
                },
                Inst::Ret { s: 1 },
            ],
        )
        .fun_raw(leaf)
        .build();
    assert_rejects(&prog, 0, 0, Rule::BadArgs, "bad-args");
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

#[test]
fn entry_function_oob() {
    let mut prog = ProgramBuilder::new()
        .fun("main", 0, 1, vec![Inst::Ret { s: 0 }])
        .build();
    prog.main = 3;
    assert_rejects(&prog, 3, 0, Rule::FnOob, "fn-oob");
}

#[test]
fn structural_problems_are_collected_exhaustively() {
    let prog = ProgramBuilder::new()
        .fun(
            "main",
            0,
            2,
            vec![
                Inst::Move { d: 1, s: 9 },      // reg-oob
                Inst::Jump { t: 77 },           // jump-oob
                Inst::GlobalGet { d: 1, g: 0 }, // global-oob (no globals)
                Inst::Ret { s: 1 },
            ],
        )
        .build();
    let report = verify_program(&prog);
    let rules: Vec<Rule> = report.rejections.iter().map(|r| r.rule).collect();
    assert_eq!(rules, vec![Rule::RegOob, Rule::JumpOob, Rule::GlobalOob]);
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
