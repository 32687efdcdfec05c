//! Regression tests for the load check (`check_program`), which the
//! dispatch loop's unchecked accesses and the verifier's dataflow pass
//! rely on.  Every one of these programs must end
//! in a structured `BadProgram` error in *all* build profiles, whether or
//! not a verifier is installed: most are refused before a single
//! instruction runs, and a program that falls off the end of a function
//! stops at decode's sentinel.

use sxr_ir::rep::RepRegistry;
use sxr_vm::{
    CmpOp, CodeFun, CodeProgram, Heap, Inst, Machine, MachineConfig, PoolEntry, RegImm, RepVmOp,
    VerifierHook, VmError, VmErrorKind,
};

fn boot_registry() -> RepRegistry {
    let mut reg = RepRegistry::new();
    let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
    let bo = reg.intern_immediate("boolean", 8, 0b010, 8).unwrap();
    let un = reg
        .intern_immediate("unspecified", 8, 0b0001_0010, 8)
        .unwrap();
    let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
    for (role, id) in [
        ("fixnum", fx),
        ("boolean", bo),
        ("unspecified", un),
        ("closure", clo),
    ] {
        reg.provide_role(role, id).unwrap();
    }
    reg
}

fn fun(nregs: usize, insts: Vec<Inst>) -> CodeFun {
    CodeFun {
        name: "main".into(),
        arity: 0,
        variadic: false,
        nregs,
        free_count: 0,
        insts,
        ptr_map: vec![true; nregs],
        free_ptr_map: vec![],
    }
}

fn program(funs: Vec<CodeFun>) -> CodeProgram {
    CodeProgram {
        funs,
        main: 0,
        pool: vec![],
        nglobals: 1,
        global_names: vec!["g0".into()],
        registry: boot_registry(),
    }
}

#[track_caller]
fn assert_load_rejected(prog: CodeProgram, needle: &str) {
    // No verifier installed: these are the *decoder's* own hard checks.
    let err = Machine::new(prog, MachineConfig::default()).unwrap_err();
    assert_eq!(err.kind, VmErrorKind::BadProgram, "{}", err.message);
    assert!(
        err.message.contains(needle),
        "message {:?} lacks {:?}",
        err.message,
        needle
    );
}

#[test]
fn register_field_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::Move { d: 1, s: 9 }, Inst::Ret { s: 1 }],
        )]),
        "register",
    );
}

#[test]
fn pool_index_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::Pool { d: 1, idx: 3 }, Inst::Ret { s: 1 }],
        )]),
        "pool",
    );
}

#[test]
fn global_index_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![Inst::GlobalGet { d: 1, g: 44 }, Inst::Ret { s: 1 }],
        )]),
        "global",
    );
}

#[test]
fn function_id_out_of_bounds() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::CallKnown {
                    d: 1,
                    f: 12,
                    clo: 0,
                    args: vec![],
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "function",
    );
}

#[test]
fn alloc_of_unknown_rep_is_rejected_not_a_panic() {
    // A rep id past the registry used to reach `registry.info`'s indexing
    // panic before any structured check.
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::Const { d: 1, imm: 0 },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(1),
                    fill: 1,
                    rep: 999,
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "representation",
    );
}

#[test]
fn rep_operand_count_is_checked_at_load() {
    assert_load_rejected(
        program(vec![fun(
            2,
            vec![
                Inst::Rep {
                    op: RepVmOp::Set,
                    d: 1,
                    args: vec![0, 0], // Set takes 4
                },
                Inst::Ret { s: 1 },
            ],
        )]),
        "operand",
    );
}

#[test]
fn entry_function_id_out_of_bounds() {
    let mut prog = program(vec![fun(1, vec![Inst::Ret { s: 0 }])]);
    prog.main = 5;
    assert_load_rejected(prog, "main function id");
}

#[test]
fn frame_too_small_for_parameters() {
    let mut f = fun(1, vec![Inst::Ret { s: 0 }]);
    f.arity = 2; // needs closure + 2 params = 3 registers
    assert_load_rejected(program(vec![f]), "register");
}

/// What loading and running one crafted program must produce.
enum Expect {
    /// `Machine::new` refuses it with `BadProgram` naming this text.
    LoadRejected(&'static str),
    /// It loads, and the run stops with `BadProgram` naming this text.
    RunFault(&'static str),
}

fn jump_cmp(t: u32) -> Inst {
    Inst::JumpCmp {
        op: CmpOp::Eq,
        a: 1,
        b: RegImm::Imm(0),
        t,
    }
}

fn callee() -> CodeFun {
    let mut f = fun(1, vec![Inst::Ret { s: 0 }]);
    f.name = "callee".into();
    f
}

/// Programs whose instruction fetch would leave the code: out-of-range
/// targets are refused by decode, and falling through the last instruction
/// reaches decode's sentinel.  The dispatch loop fetches unchecked, so none
/// of these may depend on a verifier having looked first.
fn fetch_cases() -> Vec<(&'static str, CodeProgram, Expect)> {
    use Expect::*;
    let one = |insts| program(vec![fun(3, insts)]);
    vec![
        (
            "jump far past the end",
            one(vec![Inst::Jump { t: 1000 }]),
            LoadRejected("jump target 1000"),
        ),
        (
            "jump to one past the last instruction",
            one(vec![Inst::Jump { t: 2 }, Inst::Ret { s: 0 }]),
            LoadRejected("jump target 2"),
        ),
        (
            "compare-and-branch past the end",
            one(vec![
                Inst::Const { d: 1, imm: 0 },
                jump_cmp(3),
                Inst::Ret { s: 1 },
            ]),
            LoadRejected("jump target 3"),
        ),
        (
            "handler target past the end",
            one(vec![
                Inst::PushHandler { h: 0, d: 1, t: 77 },
                Inst::PopHandler,
                Inst::Ret { s: 0 },
            ]),
            LoadRejected("jump target 77"),
        ),
        (
            "empty function",
            one(vec![]),
            RunFault("fell off the end of `main`"),
        ),
        (
            "falls through its last instruction",
            one(vec![Inst::Const { d: 1, imm: 0 }]),
            RunFault("fell off the end of `main`"),
        ),
        (
            "branch falls through to the end",
            one(vec![Inst::Const { d: 1, imm: 8 }, jump_cmp(0)]),
            RunFault("fell off the end of `main`"),
        ),
        (
            "known call as the last instruction",
            program(vec![
                fun(
                    3,
                    vec![Inst::CallKnown {
                        d: 1,
                        f: 1,
                        clo: 0,
                        args: vec![],
                    }],
                ),
                callee(),
            ]),
            RunFault("fell off the end of `main`"),
        ),
        (
            "closure call as the last instruction",
            program(vec![
                fun(
                    3,
                    vec![
                        Inst::MakeClosure {
                            d: 1,
                            f: 1,
                            free: vec![],
                        },
                        Inst::Call {
                            d: 2,
                            f: 1,
                            args: vec![],
                        },
                    ],
                ),
                callee(),
            ]),
            RunFault("fell off the end of `main`"),
        ),
    ]
}

/// Programs that break a structural fact only the load check proves: a
/// closure capture count, a first-class representation in the pool, a
/// boot role, a static allocation.  Each must be refused at load.
fn structural_cases() -> Vec<(&'static str, CodeProgram, Expect)> {
    use Expect::*;
    let alloc = |rep, len| {
        program(vec![fun(
            2,
            vec![
                Inst::Const { d: 1, imm: 0 },
                Inst::AllocFill {
                    d: 1,
                    len: RegImm::Imm(len),
                    fill: 1,
                    rep,
                },
                Inst::Ret { s: 1 },
            ],
        )])
    };
    // A registry providing `roles`, each as an immediate unless it is
    // named in `pointers`.
    let registry = |roles: &[&str], pointers: &[&str]| {
        let mut reg = RepRegistry::new();
        for (i, &role) in roles.iter().enumerate() {
            let id = if pointers.contains(&role) {
                reg.intern_pointer(role, 1 + i as u64, false).unwrap()
            } else {
                reg.intern_immediate(role, 8, 0b010 | (i as u64) << 4, 8)
                    .unwrap()
            };
            reg.provide_role(role, id).unwrap();
        }
        reg
    };
    let boot = ["fixnum", "boolean", "unspecified", "closure"];
    let with = |registry, pool: Option<PoolEntry>| {
        let mut prog = program(vec![fun(
            2,
            vec![Inst::Const { d: 1, imm: 0 }, Inst::Ret { s: 1 }],
        )]);
        prog.registry = registry;
        if let Some(entry) = pool {
            prog.pool.push(entry);
            prog.funs[0].insts[0] = Inst::Pool { d: 1, idx: 0 };
        }
        prog
    };
    let with_rep_type = registry(
        &["fixnum", "boolean", "unspecified", "closure", "rep-type"],
        &["closure", "rep-type"],
    );
    vec![
        (
            "closure captures a value its code has no slot for",
            program(vec![
                fun(
                    2,
                    vec![
                        Inst::MakeClosure {
                            d: 1,
                            f: 1,
                            free: vec![0],
                        },
                        Inst::Ret { s: 1 },
                    ],
                ),
                callee(),
            ]),
            LoadRejected("closure captures 1 value(s) but `callee` declares 0"),
        ),
        (
            "pool representation id out of range",
            with(with_rep_type, Some(PoolEntry::Rep(99))),
            LoadRejected("unknown representation id 99"),
        ),
        (
            "pool representation without a rep-type role",
            with(registry(&boot, &["closure"]), Some(PoolEntry::Rep(0))),
            LoadRejected("role `rep-type`"),
        ),
        (
            "missing boot role",
            with(
                registry(&["fixnum", "boolean", "closure"], &["closure"]),
                None,
            ),
            LoadRejected("role `unspecified`"),
        ),
        (
            "boot role of the wrong kind",
            with(registry(&boot, &["fixnum", "closure"]), None),
            LoadRejected("role `fixnum` must be an immediate representation"),
        ),
        (
            "allocation of an immediate representation",
            alloc(0, 1),
            LoadRejected("alloc of immediate representation `fixnum`"),
        ),
        (
            "negative static allocation length",
            alloc(3, -2), // closure, a pointer
            LoadRejected("allocation of -2 fields"),
        ),
    ]
}

/// A hook that accepts everything: the machine must stay safe when the
/// installed verifier proves nothing.
fn lying_hook(_: &CodeProgram) -> Result<(), VmError> {
    Ok(())
}

/// Loads and runs every case with no verifier and with [`lying_hook`]:
/// decode alone must produce the expected `BadProgram`.
fn assert_table(cases: fn() -> Vec<(&'static str, CodeProgram, Expect)>) {
    for verifier in [None, Some(lying_hook as VerifierHook)] {
        for (what, prog, expect) in cases() {
            let config = MachineConfig {
                instruction_limit: Some(10_000),
                verifier,
                ..MachineConfig::default()
            };
            let hook = if verifier.is_some() {
                "lying hook"
            } else {
                "no verifier"
            };
            let (err, needle) = match (Machine::new(prog, config), expect) {
                (Err(e), Expect::LoadRejected(needle)) => (e, needle),
                (Ok(mut m), Expect::RunFault(needle)) => (m.run().unwrap_err(), needle),
                (Ok(_), Expect::LoadRejected(_)) => panic!("{what} ({hook}): loaded"),
                (Err(e), Expect::RunFault(_)) => panic!("{what} ({hook}): load failed: {e}"),
            };
            assert_eq!(err.kind, VmErrorKind::BadProgram, "{what} ({hook}): {err}");
            assert!(
                err.message.contains(needle),
                "{what} ({hook}): message {:?} lacks {needle:?}",
                err.message
            );
        }
    }
}

#[test]
fn out_of_code_fetches_are_structured_errors_with_or_without_a_verifier() {
    assert_table(fetch_cases);
}

#[test]
fn structural_faults_are_load_errors_with_or_without_a_verifier() {
    assert_table(structural_cases);
}

#[test]
fn stale_handler_never_resumes_another_function() {
    // `installer` leaks a handler (pc 4 is in range for it) and returns;
    // `raiser` then runs at the same frame depth and raises.  Delivering
    // there would resume `raiser` at pc 4, past its end; the stale handler
    // is discarded instead and the raise is uncaught.
    let named = |name: &str, arity, nregs, insts| {
        let mut f = fun(nregs, insts);
        f.name = name.into();
        f.arity = arity;
        f
    };
    let call = |f| Inst::CallKnown {
        d: 1,
        f,
        clo: 0,
        args: vec![],
    };
    for verifier in [None, Some(lying_hook as VerifierHook)] {
        let prog = program(vec![
            named("main", 0, 3, vec![call(1), call(2), Inst::Ret { s: 1 }]),
            named(
                "installer",
                0,
                3,
                vec![
                    Inst::MakeClosure {
                        d: 1,
                        f: 3,
                        free: vec![],
                    },
                    Inst::PushHandler { h: 1, d: 2, t: 4 },
                    Inst::Ret { s: 0 },
                    Inst::Ret { s: 0 },
                    Inst::Ret { s: 2 },
                ],
            ),
            named(
                "raiser",
                0,
                2,
                vec![Inst::Const { d: 1, imm: 0 }, Inst::RaiseOp { s: 1 }],
            ),
            named("handler", 1, 2, vec![Inst::Ret { s: 1 }]),
        ]);
        let config = MachineConfig {
            instruction_limit: Some(10_000),
            verifier,
            ..MachineConfig::default()
        };
        let err = Machine::new(prog, config).unwrap().run().unwrap_err();
        assert_eq!(err.kind, VmErrorKind::UncaughtCondition, "{err}");
    }
}

#[test]
#[should_panic(expected = "caller must ensure space")]
fn heap_alloc_without_reserved_space_panics_in_all_builds() {
    // `Heap::new` rounds capacity up to 64 words; 100 fields cannot fit.
    let mut heap = Heap::new(4);
    heap.alloc(100, 0, 0);
}
