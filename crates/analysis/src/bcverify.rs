//! Load-time bytecode verifier.
//!
//! [`verify_program`] runs a dataflow analysis over a loadable
//! [`CodeProgram`] and either accepts it or rejects it with a
//! `{fun, pc, rule}`-addressed [`Rejection`].  The design follows the JVM
//! verifier: per-function abstract interpretation to a fixpoint over the
//! control-flow graph, applied to *reachable* instructions only (compiled
//! code legitimately carries unreachable tails after `ErrorOp`/`RaiseOp`
//! terminators).  As in the JVM's `StackMapTable` design, abstract states
//! are stored only at join points (the entry and every branch or handler
//! target); straight-line code carries one working state, so time and
//! memory are O(insts + joins * nregs) per function.
//!
//! Structure is not this module's business.  Every bounds and role fact a
//! load relies on (register, jump, pool, global, function and
//! representation indices, operand and capture counts, boot roles) is
//! owned by [`sxr_vm::check_program`], which every `Machine::new` runs.
//! The verifier runs that same check first and reports its error as one
//! [`Rule::Malformed`] rejection; the dataflow pass only ever sees a
//! program the check accepted, so it indexes frames, code and the pool
//! without re-checking.
//!
//! # The abstract domain
//!
//! Each register holds an [`Rv`]:
//!
//! * [`Rv::Uninit`] — not written on some path reaching this point;
//! * [`Rv::Raw`] — an untagged machine word (ALU results, projected
//!   payloads, raw headers);
//! * [`Rv::Tagged`] — a properly tagged Scheme value of unknown
//!   representation;
//! * [`Rv::Ptr`] — a tagged heap pointer whose representation is one of a
//!   known [`TagSet`], with the allocating function remembered for closure
//!   values (that powers the `ClosureSet` free-slot checks).
//!
//! The join moves *up*: `Uninit` absorbs everything (a merge where one
//! predecessor never wrote the register makes it unreadable), pointer sets
//! union, and `Raw ⊔ Tagged = Tagged` — mirroring the code generator's own
//! kind join, where a register any writer tags must be GC-scanned.
//!
//! # What is proved, and what is trusted
//!
//! The verifier proves, over a structurally checked program: every read
//! register was written on every path; memory bases are never raw words;
//! provably tagged values never land in registers or closure slots the GC
//! is told not to scan; and the handler stack is balanced — never popped
//! below zero, path-consistent at joins, and empty at returns and tail
//! calls.
//!
//! Two flows remain *trusted*, exactly as they are for compiled code: a
//! raw word flowing into a GC-scanned position is accepted (the library's
//! inject sequences produce tagged-valid words the verifier cannot
//! distinguish from arbitrary arithmetic), and heap loads/stores stay
//! bounds-checked at run time.

use std::fmt;

use crate::lattice::TagSet;
use sxr_ir::rep::{roles, RepId, RepRegistry};
use sxr_vm::{check_program, CodeFun, CodeProgram, Inst, PoolEntry, Reg, RegImm, RepVmOp, VmError};

/// The verifier's rule set.  Every rejection names exactly one rule; the
/// [`Rule::label`] strings are stable — tests, the CLI, and
/// `VmErrorKind::RejectedByVerifier` all key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// The program fails [`sxr_vm::check_program`], the VM's structural
    /// check (an out-of-range index or target, a wrong operand or capture
    /// count, an impossible allocation, a missing boot role, ...).  The
    /// detail is the VM's message; the address is the entry function at
    /// pc 0.
    Malformed,
    /// A `ClosureSet` patches a free slot the target closure's function
    /// does not have.
    BadArgs,
    /// The instruction requires a representation role the registry does
    /// not provide (`char` for `WriteChar`, `pair`/`null` for variadic
    /// entry, `rep-type` for generic rep operations, ...).  Boot roles are
    /// [`Rule::Malformed`] facts.
    MissingRole,
    /// Execution can fall off the end of the function (an empty function
    /// falls off at pc 0).
    FallOffEnd,
    /// A register may be read before any write on some path.
    DefBeforeUse,
    /// A memory access (or call/intern/handler operand that the machine
    /// dereferences) whose base may be a raw, untagged word.
    RawMemBase,
    /// A `Const` with a pointer-tagged bit pattern written to a GC-scanned
    /// register — the collector would chase a fabricated pointer.
    ConstPtr,
    /// A provably tagged value written to a register the GC root map says
    /// not to scan (or a parameter register marked unscanned).
    TaggedIntoRaw,
    /// A provably tagged value captured into (or patched over) a closure
    /// free slot the GC is told not to scan.
    TaggedIntoRawSlot,
    /// `ClosureSet` on a value not proven to be a closure of a known
    /// function — the patch width cannot be checked statically.
    ClosureSetUnknown,
    /// `PopHandler` with no handler installed on some path.
    HandlerUnderflow,
    /// Return or tail call with a handler still installed by this frame.
    HandlerLeak,
    /// Control-flow join where paths disagree on handler depth.
    HandlerJoinMismatch,
}

impl Rule {
    /// The stable, user-visible name of the rule.
    pub fn label(self) -> &'static str {
        match self {
            Rule::Malformed => "malformed",
            Rule::BadArgs => "bad-args",
            Rule::MissingRole => "missing-role",
            Rule::FallOffEnd => "fall-off-end",
            Rule::DefBeforeUse => "def-before-use",
            Rule::RawMemBase => "raw-mem-base",
            Rule::ConstPtr => "const-ptr",
            Rule::TaggedIntoRaw => "tagged-into-raw",
            Rule::TaggedIntoRawSlot => "tagged-into-raw-slot",
            Rule::ClosureSetUnknown => "closure-set-unknown",
            Rule::HandlerUnderflow => "handler-underflow",
            Rule::HandlerLeak => "handler-leak",
            Rule::HandlerJoinMismatch => "handler-join-mismatch",
        }
    }
}

/// One reason the verifier refused a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Index of the function containing the violation (the entry function
    /// for a [`Rule::Malformed`] program).
    pub fun: u32,
    /// Instruction offset of the violation within that function.
    pub pc: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fun {} pc {}: [{}] {}",
            self.fun,
            self.pc,
            self.rule.label(),
            self.detail
        )
    }
}

/// The outcome of verifying a whole program.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All rejections found, in function order.  A program that fails the
    /// VM's structural check gets exactly one [`Rule::Malformed`]
    /// rejection and no dataflow analysis; otherwise each function reports
    /// at most one dataflow violation (analysis of that function stops
    /// there).
    pub rejections: Vec<Rejection>,
    /// Number of functions analyzed (0 for a malformed program).
    pub funs: usize,
    /// Total instructions in the analyzed functions.
    pub insts: usize,
    /// Join points (function entries plus branch and handler targets) of
    /// the functions that verified: the only pcs that keep a stored state.
    pub joins: usize,
    /// Peak abstract-state words held at once, over the functions that
    /// verified: one function's stored join states plus its working
    /// state, at one word per register and one for the handler depth.
    /// Bounded by `(joins + 1) * (nregs + 1)` for that function, so it
    /// grows with the join count, not with the instruction count.
    pub state_words: usize,
}

impl VerifyReport {
    /// Did the program pass?
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }

    /// The first (lowest function, lowest pc) rejection, if any.
    pub fn first(&self) -> Option<&Rejection> {
        self.rejections.first()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "verified: {} function(s), {} instruction(s)",
                self.funs, self.insts
            )
        } else {
            writeln!(f, "rejected ({} problem(s)):", self.rejections.len())?;
            for r in &self.rejections {
                writeln!(f, "  {r}")?;
            }
            Ok(())
        }
    }
}

/// Adapter with the [`sxr_vm::VerifierHook`] signature: verifies `program`
/// and converts the first rejection into
/// [`sxr_vm::VmErrorKind::RejectedByVerifier`].  Install it via
/// [`sxr_vm::MachineConfig::verifier`] to refuse unverifiable programs at
/// load.
pub fn verifier_hook(program: &CodeProgram) -> Result<(), VmError> {
    let report = verify_program(program);
    match report.first() {
        None => Ok(()),
        Some(r) => Err(VmError::rejected(
            r.fun,
            r.pc,
            r.rule.label(),
            r.detail.clone(),
        )),
    }
}

/// What the verifier knows about one register at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rv {
    /// Possibly never written on some path to this point.
    Uninit,
    /// An untagged machine word.
    Raw,
    /// A tagged value of unknown representation.
    Tagged,
    /// A tagged heap pointer.
    Ptr {
        /// The possible representations.
        tags: TagSet,
        /// The function a `MakeClosure` built this value over, when that
        /// is the unique provenance.
        fid: Option<u32>,
    },
}

impl Rv {
    fn is_tagged(self) -> bool {
        matches!(self, Rv::Tagged | Rv::Ptr { .. })
    }

    /// The lattice join (`Uninit` is top: it poisons reads).
    fn join(self, other: Rv) -> Rv {
        match (self, other) {
            (Rv::Uninit, _) | (_, Rv::Uninit) => Rv::Uninit,
            (Rv::Raw, Rv::Raw) => Rv::Raw,
            (Rv::Ptr { tags: a, fid: fa }, Rv::Ptr { tags: b, fid: fb }) => Rv::Ptr {
                tags: a.union(&b),
                fid: if fa == fb { fa } else { None },
            },
            // Raw ⊔ Tagged = Tagged, matching the code generator's kind
            // join: if any writer tags the register, the GC scans it.
            _ => Rv::Tagged,
        }
    }
}

/// Abstract machine state at one program point: one [`Rv`] per register
/// plus the number of handlers this frame has installed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<Rv>,
    depth: u32,
}

/// The stored states of one function's dataflow pass: one per join point
/// (the entry and every branch or handler target), indexed through `slot`.
struct Joins {
    /// `slot[pc]` indexes `states` for a join point, else [`NO_SLOT`].
    slot: Vec<usize>,
    /// The state stored at each join point, once a path reaches it.
    states: Vec<Option<AbsState>>,
    /// How many entries of `states` are filled.
    stored: usize,
    /// Join points whose state changed since they were last analyzed.
    work: Vec<usize>,
}

const NO_SLOT: usize = usize::MAX;

impl Joins {
    /// Makes `pc` a join point (idempotent).
    fn add(&mut self, pc: usize) {
        if self.slot[pc] == NO_SLOT {
            self.slot[pc] = self.states.len();
            self.states.push(None);
        }
    }
}

/// What one function's verified dataflow pass held: its join points and
/// its peak abstract-state words.
struct Footprint {
    joins: usize,
    state_words: usize,
}

/// How control leaves an instruction.
enum Flow {
    /// Falls through to `pc + 1`.
    Fall,
    /// Jumps to `t` unconditionally.
    Jump(u32),
    /// Branches: `t` or fall through.
    Branch(u32),
    /// `PushHandler`: falls through with one more handler; the trap edge
    /// resumes at `t` at the *current* depth (the machine pops the handler
    /// before delivering) with `d` freshly defined.
    Push { t: u32, d: Reg },
    /// `PopHandler`: falls through with one less handler.
    Pop,
    /// A terminator (return, tail call, raise): no successors.
    Stop,
}

/// Verifies `program`: one [`Rule::Malformed`] rejection if it fails the
/// VM's structural check, otherwise at most one dataflow violation per
/// function.  See the module docs for the exact contract.
pub fn verify_program(program: &CodeProgram) -> VerifyReport {
    let mut report = VerifyReport::default();
    if let Err(e) = check_program(program) {
        report.rejections.push(Rejection {
            fun: program.main,
            pc: 0,
            rule: Rule::Malformed,
            detail: e.message,
        });
        return report;
    }
    let registry = &program.registry;
    let ptr_table = registry.pointer_pattern_table();
    report.funs = program.funs.len();
    for (fid, fun) in program.funs.iter().enumerate() {
        report.insts += fun.insts.len();
        let v = FnVerifier {
            program,
            registry,
            ptr_table,
            fun,
            fid: fid as u32,
        };
        match v.dataflow() {
            Ok(f) => {
                report.joins += f.joins;
                report.state_words = report.state_words.max(f.state_words);
            }
            Err(r) => report.rejections.push(r),
        }
    }
    report
}

fn reptype_role(registry: &RepRegistry) -> Option<RepId> {
    let id = registry.role("rep-type")?;
    registry.info(id).is_pointer().then_some(id)
}

struct FnVerifier<'a> {
    program: &'a CodeProgram,
    registry: &'a RepRegistry,
    /// Which low-three-bit patterns are pointer tags.
    ptr_table: [bool; 8],
    fun: &'a CodeFun,
    fid: u32,
}

impl<'a> FnVerifier<'a> {
    fn reject(&self, pc: usize, rule: Rule, detail: String) -> Rejection {
        Rejection {
            fun: self.fid,
            pc: pc as u32,
            rule,
            detail,
        }
    }

    /// May register `r` hold a tagged value, per the GC root map?
    /// Registers past the end of the map are conservatively scanned.
    fn ptr(&self, r: Reg) -> bool {
        self.fun.ptr_map.get(r as usize).copied().unwrap_or(true)
    }

    /// Registers the frame defines on entry: closure, parameters, and the
    /// rest list for variadic functions.
    fn entry_regs(&self) -> usize {
        1 + self.fun.arity + usize::from(self.fun.variadic)
    }

    // ----- dataflow pass (reachable instructions only) -----

    fn dataflow(&self) -> Result<Footprint, Rejection> {
        let fun = self.fun;
        let len = fun.insts.len();
        if len == 0 {
            return Err(self.reject(
                0,
                Rule::FallOffEnd,
                "function has no instructions".to_string(),
            ));
        }
        // The closure, the parameters and any rest list arrive tagged, so
        // the root map must scan their registers.
        let mut entry = AbsState {
            regs: vec![Rv::Uninit; fun.nregs],
            depth: 0,
        };
        for r in 0..self.entry_regs() {
            self.def(&mut entry, 0, r as Reg, Rv::Tagged)?;
        }
        if fun.variadic {
            let pair = self.need_role(0, roles::PAIR, "variadic entry")?;
            self.need_role(0, roles::NULL, "variadic entry")?;
            if !self.registry.info(pair).is_pointer() {
                return Err(self.reject(
                    0,
                    Rule::MissingRole,
                    "role `pair` must be a pointer representation".to_string(),
                ));
            }
        }
        // Stored states live only at join points: the entry and every
        // branch or handler target.  Any other pc is reached only by
        // falling through from `pc - 1`, so its state is the working state
        // carried along straight-line code.
        let mut joins = Joins {
            slot: vec![NO_SLOT; len],
            states: Vec::new(),
            stored: 0,
            work: Vec::new(),
        };
        joins.add(0);
        for inst in &fun.insts {
            if let Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } = inst {
                joins.add(*t as usize);
            }
        }
        self.merge(&mut joins, 0, &entry)?;

        while let Some(head) = joins.work.pop() {
            let mut st = joins.states[joins.slot[head]]
                .clone()
                .expect("queued join has a state");
            let mut pc = head;
            loop {
                let fall = match self.step(pc, &fun.insts[pc], &mut st)? {
                    Flow::Fall => true,
                    Flow::Jump(t) => {
                        self.merge(&mut joins, t as usize, &st)?;
                        false
                    }
                    Flow::Branch(t) => {
                        self.merge(&mut joins, t as usize, &st)?;
                        true
                    }
                    Flow::Push { t, d } => {
                        // The trap edge resumes at the current depth with
                        // `d` defined; the fall-through runs one deeper.
                        let saved = std::mem::replace(&mut st.regs[d as usize], Rv::Tagged);
                        self.merge(&mut joins, t as usize, &st)?;
                        st.regs[d as usize] = saved;
                        st.depth += 1;
                        true
                    }
                    Flow::Pop => {
                        st.depth -= 1;
                        true
                    }
                    Flow::Stop => false,
                };
                if !fall {
                    break;
                }
                pc += 1;
                if pc >= len {
                    return Err(self.reject(
                        pc - 1,
                        Rule::FallOffEnd,
                        "execution can fall off the end of the function".to_string(),
                    ));
                }
                if joins.slot[pc] != NO_SLOT {
                    self.merge(&mut joins, pc, &st)?;
                    break;
                }
            }
        }
        // The stored join states plus the working state.
        Ok(Footprint {
            joins: joins.states.len(),
            state_words: (joins.stored + 1) * (fun.nregs + 1),
        })
    }

    /// Joins `st` into the stored state at join point `t`, re-queuing `t`
    /// only when that state changed.
    fn merge(&self, joins: &mut Joins, t: usize, st: &AbsState) -> Result<(), Rejection> {
        let cell = &mut joins.states[joins.slot[t]];
        let Some(old) = cell else {
            *cell = Some(st.clone());
            joins.stored += 1;
            joins.work.push(t);
            return Ok(());
        };
        if old.depth != st.depth {
            return Err(self.reject(
                t,
                Rule::HandlerJoinMismatch,
                format!(
                    "paths join with handler depths {} and {}",
                    old.depth, st.depth
                ),
            ));
        }
        let mut changed = false;
        for (a, &b) in old.regs.iter_mut().zip(&st.regs) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        if changed {
            joins.work.push(t);
        }
        Ok(())
    }

    /// Reads register `r`, rejecting a possibly-undefined value.
    fn use_(&self, st: &AbsState, pc: usize, r: Reg) -> Result<Rv, Rejection> {
        match st.regs[r as usize] {
            Rv::Uninit => Err(self.reject(
                pc,
                Rule::DefBeforeUse,
                format!("register r{r} may be read before any write"),
            )),
            v => Ok(v),
        }
    }

    /// Reads register `r` as something the machine will dereference (a
    /// memory base, call target, handler, or interned string): raw words
    /// are rejected — a fabricated address would reach the heap.
    fn deref(&self, st: &AbsState, pc: usize, r: Reg, what: &str) -> Result<Rv, Rejection> {
        match self.use_(st, pc, r)? {
            Rv::Raw => Err(self.reject(
                pc,
                Rule::RawMemBase,
                format!("{what} r{r} may hold a raw word, not a tagged value"),
            )),
            v => Ok(v),
        }
    }

    /// Writes `v` into register `d`, enforcing the root-map discipline:
    /// provably tagged values must not land in unscanned registers.  The
    /// reverse direction (raw into a scanned register) is allowed — see
    /// the module docs on trusted flows.
    fn def(&self, st: &mut AbsState, pc: usize, d: Reg, v: Rv) -> Result<(), Rejection> {
        let stored = if self.ptr(d) {
            v
        } else {
            if v.is_tagged() {
                return Err(self.reject(
                    pc,
                    Rule::TaggedIntoRaw,
                    format!(
                        "tagged value written to r{d}, which the GC root map \
                         marks unscanned"
                    ),
                ));
            }
            Rv::Raw
        };
        st.regs[d as usize] = stored;
        Ok(())
    }

    /// The kind a load/constant produces, as declared by the root map.
    fn map_kind(&self, d: Reg) -> Rv {
        if self.ptr(d) {
            Rv::Tagged
        } else {
            Rv::Raw
        }
    }

    fn need_role(&self, pc: usize, role: &str, what: &str) -> Result<RepId, Rejection> {
        self.registry.role(role).ok_or_else(|| {
            self.reject(
                pc,
                Rule::MissingRole,
                format!("{what} requires the `{role}` role"),
            )
        })
    }

    fn reg_imm_use(&self, st: &AbsState, pc: usize, v: &RegImm) -> Result<(), Rejection> {
        if let RegImm::Reg(r) = v {
            self.use_(st, pc, *r)?;
        }
        Ok(())
    }

    /// Abstractly executes one instruction, mutating `st` in place and
    /// returning how control leaves it.
    fn step(&self, pc: usize, inst: &Inst, st: &mut AbsState) -> Result<Flow, Rejection> {
        match inst {
            Inst::Const { d, imm } => {
                if self.ptr(*d) && self.ptr_table[(*imm as u64 & 0b111) as usize] {
                    return Err(self.reject(
                        pc,
                        Rule::ConstPtr,
                        format!(
                            "constant {imm:#x} carries a pointer tag; the GC \
                             would chase a fabricated pointer in r{d}"
                        ),
                    ));
                }
                // A tagged constant is therefore an immediate.
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::Pool { d, idx } => {
                let v = match &self.program.pool[*idx as usize] {
                    PoolEntry::Datum(_) => Rv::Tagged,
                    PoolEntry::Rep(_) => match reptype_role(self.registry) {
                        Some(rt) => Rv::Ptr {
                            tags: TagSet::singleton(rt),
                            fid: None,
                        },
                        None => Rv::Tagged,
                    },
                };
                self.def(st, pc, *d, v)?;
            }
            Inst::Move { d, s } => {
                let v = self.use_(st, pc, *s)?;
                self.def(st, pc, *d, v)?;
            }
            Inst::Bin { d, a, b, .. } => {
                self.use_(st, pc, *a)?;
                self.use_(st, pc, *b)?;
                self.def(st, pc, *d, Rv::Raw)?;
            }
            Inst::BinI { d, a, .. } => {
                self.use_(st, pc, *a)?;
                self.def(st, pc, *d, Rv::Raw)?;
            }
            Inst::LoadD { d, p, .. } => {
                self.deref(st, pc, *p, "load base")?;
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::LoadX { d, p, x, .. } => {
                self.deref(st, pc, *p, "load base")?;
                self.use_(st, pc, *x)?;
                self.def(st, pc, *d, self.map_kind(*d))?;
            }
            Inst::StoreD { p, s, .. } => {
                self.deref(st, pc, *p, "store base")?;
                self.use_(st, pc, *s)?;
            }
            Inst::StoreX { p, x, s, .. } => {
                self.deref(st, pc, *p, "store base")?;
                self.use_(st, pc, *x)?;
                self.use_(st, pc, *s)?;
            }
            Inst::AllocFill { d, len, fill, rep } => {
                self.reg_imm_use(st, pc, len)?;
                self.use_(st, pc, *fill)?;
                self.def(
                    st,
                    pc,
                    *d,
                    Rv::Ptr {
                        tags: TagSet::singleton(*rep),
                        fid: None,
                    },
                )?;
            }
            Inst::Jump { t } => return Ok(Flow::Jump(*t)),
            Inst::JumpCmp { a, b, t, .. } => {
                self.use_(st, pc, *a)?;
                self.reg_imm_use(st, pc, b)?;
                return Ok(Flow::Branch(*t));
            }
            Inst::GlobalGet { d, .. } => {
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::GlobalSet { s, .. } => {
                self.use_(st, pc, *s)?;
            }
            Inst::MakeClosure { d, f, free } => {
                let target = &self.program.funs[*f as usize];
                for (i, r) in free.iter().enumerate() {
                    let v = self.use_(st, pc, *r)?;
                    let scanned = target.free_ptr_map.get(i).copied().unwrap_or(true);
                    if v.is_tagged() && !scanned {
                        return Err(self.reject(
                            pc,
                            Rule::TaggedIntoRawSlot,
                            format!(
                                "tagged value r{r} captured into free slot {i} of \
                                 `{}`, which its GC map marks unscanned",
                                target.name
                            ),
                        ));
                    }
                }
                let clo = self.need_role(pc, roles::CLOSURE, "closure creation")?;
                self.def(
                    st,
                    pc,
                    *d,
                    Rv::Ptr {
                        tags: TagSet::singleton(clo),
                        fid: Some(*f),
                    },
                )?;
            }
            Inst::ClosureSet { clo, idx, val } => {
                let target = self.deref(st, pc, *clo, "closure patch target")?;
                let v = self.use_(st, pc, *val)?;
                match target {
                    Rv::Ptr { fid: Some(f), .. } => {
                        let tf = &self.program.funs[f as usize];
                        if (*idx as usize) >= tf.free_count {
                            return Err(self.reject(
                                pc,
                                Rule::BadArgs,
                                format!(
                                    "patch of free slot {idx} but `{}` has {} slot(s)",
                                    tf.name, tf.free_count
                                ),
                            ));
                        }
                        let scanned = tf.free_ptr_map.get(*idx as usize).copied().unwrap_or(true);
                        if v.is_tagged() && !scanned {
                            return Err(self.reject(
                                pc,
                                Rule::TaggedIntoRawSlot,
                                format!(
                                    "tagged value r{val} patched into free slot \
                                     {idx} of `{}`, which its GC map marks unscanned",
                                    tf.name
                                ),
                            ));
                        }
                    }
                    _ => {
                        return Err(self.reject(
                            pc,
                            Rule::ClosureSetUnknown,
                            format!(
                                "r{clo} is not proven to be a closure of a known \
                                 function; the patch width cannot be checked"
                            ),
                        ));
                    }
                }
            }
            Inst::Call { d, f, args } => {
                self.deref(st, pc, *f, "call target")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::CallKnown { d, clo, args, .. } => {
                self.deref(st, pc, *clo, "closure operand")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::TailCall { f, args } => {
                self.deref(st, pc, *f, "call target")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::TailCallKnown { clo, args, .. } => {
                self.deref(st, pc, *clo, "closure operand")?;
                for a in args {
                    self.use_(st, pc, *a)?;
                }
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::Ret { s } => {
                self.use_(st, pc, *s)?;
                self.leak_check(st, pc)?;
                return Ok(Flow::Stop);
            }
            Inst::Rep { op, d, args } => {
                self.need_role(pc, "rep-type", "generic representation operations")?;
                if matches!(op, RepVmOp::MakeImm | RepVmOp::MakePtr | RepVmOp::Provide) {
                    // These read a symbol's name (and its backing string).
                    for role in [roles::SYMBOL, roles::STRING, roles::CHAR] {
                        self.need_role(pc, role, "representation construction")?;
                    }
                }
                // Which operands the machine dereferences (the rep-type
                // object, symbol names, and tag-checked subjects that may
                // be discriminated pointers).  Payload/index operands are
                // raw by design — `%rep-inject` exists to tag raw words.
                let deref_mask: &[bool] = match op {
                    RepVmOp::MakeImm => &[true, false, false, false],
                    RepVmOp::MakePtr => &[true, false, false],
                    RepVmOp::Provide | RepVmOp::Test | RepVmOp::Len => &[true, true],
                    RepVmOp::Inject | RepVmOp::Project => &[true, false],
                    RepVmOp::Alloc => &[true, false, false],
                    RepVmOp::Ref => &[true, true, false],
                    RepVmOp::Set => &[true, true, false, false],
                };
                for (a, &de) in args.iter().zip(deref_mask) {
                    if de {
                        self.deref(st, pc, *a, "representation operand")?;
                    } else {
                        self.use_(st, pc, *a)?;
                    }
                }
                let v = match op {
                    RepVmOp::Project | RepVmOp::Test | RepVmOp::Len => Rv::Raw,
                    _ => Rv::Tagged,
                };
                self.def(st, pc, *d, v)?;
            }
            Inst::Intern { d, s } => {
                for role in [roles::SYMBOL, roles::STRING, roles::CHAR] {
                    self.need_role(pc, role, "interning")?;
                }
                self.deref(st, pc, *s, "intern operand")?;
                self.def(st, pc, *d, Rv::Tagged)?;
            }
            Inst::WriteChar { s } => {
                self.need_role(pc, roles::CHAR, "character output")?;
                self.use_(st, pc, *s)?;
            }
            Inst::ErrorOp { s } | Inst::RaiseOp { s } => {
                // The payload becomes a GC root while the condition is
                // built, so a raw word here is a collector hazard.
                self.deref(st, pc, *s, "condition payload")?;
                return Ok(Flow::Stop);
            }
            Inst::PushHandler { h, d, t } => {
                self.deref(st, pc, *h, "trap handler")?;
                if !self.ptr(*d) {
                    return Err(self.reject(
                        pc,
                        Rule::TaggedIntoRaw,
                        format!(
                            "handler result register r{d} is marked unscanned \
                             but receives a tagged value"
                        ),
                    ));
                }
                return Ok(Flow::Push { t: *t, d: *d });
            }
            Inst::PopHandler => {
                if st.depth == 0 {
                    return Err(self.reject(
                        pc,
                        Rule::HandlerUnderflow,
                        "pop with no handler installed by this frame".to_string(),
                    ));
                }
                return Ok(Flow::Pop);
            }
            Inst::ResetCounters => {}
        }
        Ok(Flow::Fall)
    }

    fn leak_check(&self, st: &AbsState, pc: usize) -> Result<(), Rejection> {
        if st.depth != 0 {
            return Err(self.reject(
                pc,
                Rule::HandlerLeak,
                format!("frame exits with {} handler(s) still installed", st.depth),
            ));
        }
        Ok(())
    }
}

pub mod build {
    //! A small builder for hand-crafting raw [`Inst`] programs — the
    //! adversarial rejection corpus and verifier unit tests use it, so it
    //! lives in the library rather than a test module.

    use sxr_ir::rep::RepRegistry;
    use sxr_vm::{CodeFun, CodeProgram, Inst, PoolEntry};

    /// The classic tagging scheme the shipped prelude builds: fixnum in
    /// the low-zero pattern, 8-bit immediates for booleans/chars/null/
    /// unspecified, and the seven pointer tags.  Hand-built verifier tests
    /// use it so crafted programs exercise the same layout compiled code
    /// does.
    pub fn classic_registry() -> RepRegistry {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let bo = reg.intern_immediate("boolean", 8, 0b0000_0010, 8).unwrap();
        let ch = reg.intern_immediate("char", 8, 0b0001_0010, 8).unwrap();
        let nil = reg.intern_immediate("null", 8, 0b0010_0010, 8).unwrap();
        let un = reg
            .intern_immediate("unspecified", 8, 0b0011_0010, 8)
            .unwrap();
        let pair = reg.intern_pointer("pair", 0b001, false).unwrap();
        let vec_r = reg.intern_pointer("vector", 0b011, false).unwrap();
        let string = reg.intern_pointer("string", 0b101, false).unwrap();
        let symbol = reg.intern_pointer("symbol", 0b110, false).unwrap();
        let clo = reg.intern_pointer("closure", 0b111, false).unwrap();
        let reptype = reg.intern_pointer("rep-type", 0b100, true).unwrap();
        for (role, id) in [
            ("fixnum", fx),
            ("boolean", bo),
            ("char", ch),
            ("null", nil),
            ("unspecified", un),
            ("pair", pair),
            ("vector", vec_r),
            ("string", string),
            ("symbol", symbol),
            ("closure", clo),
            ("rep-type", reptype),
        ] {
            reg.provide_role(role, id).unwrap();
        }
        reg
    }

    /// Accumulates functions and pool entries into a [`CodeProgram`] with
    /// function 0 as the entry point.
    #[derive(Debug)]
    pub struct ProgramBuilder {
        funs: Vec<CodeFun>,
        pool: Vec<PoolEntry>,
        nglobals: usize,
        registry: RepRegistry,
    }

    impl Default for ProgramBuilder {
        fn default() -> Self {
            ProgramBuilder::new()
        }
    }

    impl ProgramBuilder {
        /// A builder over [`classic_registry`] with no globals.
        pub fn new() -> ProgramBuilder {
            ProgramBuilder {
                funs: Vec::new(),
                pool: Vec::new(),
                nglobals: 0,
                registry: classic_registry(),
            }
        }

        /// Replaces the registry (for crafting missing-role programs).
        pub fn registry(mut self, registry: RepRegistry) -> Self {
            self.registry = registry;
            self
        }

        /// Sets the number of global slots.
        pub fn globals(mut self, n: usize) -> Self {
            self.nglobals = n;
            self
        }

        /// Appends a constant-pool entry.
        pub fn pool(mut self, entry: PoolEntry) -> Self {
            self.pool.push(entry);
            self
        }

        /// Appends a non-variadic function with every register GC-scanned.
        pub fn fun(self, name: &str, arity: usize, nregs: usize, insts: Vec<Inst>) -> Self {
            self.fun_raw(CodeFun {
                name: name.into(),
                arity,
                variadic: false,
                nregs,
                free_count: 0,
                insts,
                ptr_map: vec![true; nregs],
                free_ptr_map: vec![],
            })
        }

        /// Appends a fully specified function (raw registers, free slots,
        /// variadic entry).
        pub fn fun_raw(mut self, fun: CodeFun) -> Self {
            self.funs.push(fun);
            self
        }

        /// The finished program; function 0 is `main`.
        pub fn build(self) -> CodeProgram {
            let nglobals = self.nglobals;
            CodeProgram {
                funs: self.funs,
                main: 0,
                pool: self.pool,
                nglobals,
                global_names: (0..nglobals).map(|i| format!("g{i}")).collect(),
                registry: self.registry,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::build::ProgramBuilder;
    use super::*;
    use sxr_vm::BinOp;

    #[test]
    fn straight_line_program_verifies() {
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                3,
                vec![
                    Inst::Const { d: 1, imm: 8 }, // fixnum 1
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
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.funs, 1);
        assert_eq!(report.insts, 3);
        // Only the entry keeps a state: it plus the working state, each
        // three registers and a depth.
        assert_eq!((report.joins, report.state_words), (1, 8));
        assert!(verifier_hook(&prog).is_ok());
    }

    #[test]
    fn loops_reach_a_fixpoint() {
        // r1 counts down; the loop merges two paths with identical state.
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                2,
                vec![
                    Inst::Const { d: 1, imm: 80 },
                    Inst::JumpCmp {
                        op: sxr_vm::CmpOp::Eq,
                        a: 1,
                        b: RegImm::Imm(0),
                        t: 4,
                    },
                    Inst::BinI {
                        op: BinOp::Sub,
                        d: 1,
                        a: 1,
                        imm: 8,
                    },
                    Inst::Jump { t: 1 },
                    Inst::Ret { s: 1 },
                ],
            )
            .build();
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
        // Joins at the entry, the loop head and the exit.
        assert_eq!((report.joins, report.state_words), (3, 12));
    }

    #[test]
    fn unreachable_tail_is_not_typed() {
        // Dead code after a raise may violate dataflow rules (here: a read
        // of an undefined register) without failing verification; only
        // structural bounds apply to it.
        let prog = ProgramBuilder::new()
            .fun(
                "main",
                0,
                3,
                vec![
                    Inst::Const { d: 1, imm: 8 },
                    Inst::ErrorOp { s: 1 },
                    Inst::Ret { s: 2 }, // r2 never written; unreachable
                ],
            )
            .build();
        let report = verify_program(&prog);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn hook_reports_first_rejection() {
        let prog = ProgramBuilder::new()
            .fun("main", 0, 2, vec![Inst::Ret { s: 1 }])
            .build();
        let err = verifier_hook(&prog).unwrap_err();
        assert_eq!(err.kind.label(), "rejected-by-verifier");
        assert!(err.message.contains("[def-before-use]"), "{}", err.message);
    }
}
