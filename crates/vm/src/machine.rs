//! The interpreter: loads a [`CodeProgram`], runs it, counts everything.
//!
//! The execution hot path is allocation-free: instructions are pre-decoded
//! into the flat [`DInst`] form at load time (see [`crate::decode`]), call
//! frames recycle their register arrays through a pool, and the instruction
//! budget is charged before an instruction runs so budgets and counters
//! always agree.
//!
//! There is one dispatch loop.  It reads registers, the constant pool, the
//! globals, the operand arena and the code without bounds checks, because
//! decode has proved every such index in range on every load.  Heap
//! accesses stay checked: their addresses are run-time values.

use crate::counters::Counters;
use crate::decode::{decode_program, ArgSpan, DInst, DecodedProgram};
use crate::encode;
use crate::error::{OomPhase, VmError, VmErrorKind};
use crate::fault::{ChaosRng, FaultPlan};
use crate::heap::{grow_target, header_len, header_type, ClosureScan, Heap, Word};
use crate::inst::{BinOp, CmpOp, CodeProgram, PoolEntry, Reg, RepVmOp};
use std::collections::HashMap;
use std::rc::Rc;
use sxr_ir::rep::{roles, RepId, RepKind, RepRegistry};

/// A load-time bytecode verifier: inspects the whole program and either
/// accepts it (`Ok`) or rejects it with a structured
/// [`VmErrorKind::RejectedByVerifier`] error.  It is a load gate for
/// dataflow properties decode does not check (def-before-use, GC scan
/// kinds, handler balance); memory safety of the dispatch loop never
/// depends on it.  A plain function pointer so [`MachineConfig`] stays
/// `Copy`-friendly and the VM crate needs no dependency on the analysis
/// crate that implements the standard verifier.
pub type VerifierHook = fn(&CodeProgram) -> Result<(), VmError>;

/// Tuning knobs for a [`Machine`].
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Initial heap size in words (grows on demand, up to any cap the
    /// fault plan imposes).
    pub heap_words: usize,
    /// Abort with [`VmErrorKind::Timeout`] after this many instructions.
    pub instruction_limit: Option<u64>,
    /// Deterministic fault-injection schedule (defaults to none).
    pub fault: FaultPlan,
    /// Load-time bytecode verifier.  When set, [`Machine::new`] runs it
    /// once after decode and refuses to load a program it rejects.  It
    /// does not change how the machine runs: decode alone makes every
    /// decodable program safe to run, with or without a verifier.
    pub verifier: Option<VerifierHook>,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            heap_words: 1 << 20,
            instruction_limit: None,
            fault: FaultPlan::default(),
            verifier: None,
        }
    }
}

/// Upper bound on pooled register arrays; deeper recursion simply
/// allocates, shallower call chains reuse.
const REG_POOL_MAX: usize = 64;

#[derive(Debug)]
struct Frame {
    fnid: u32,
    pc: usize,
    regs: Vec<Word>,
    ret_dst: Reg,
}

/// One installed trap handler (a `PushHandler` whose `PopHandler` has not
/// yet run).  `depth` is `frames.len()` at install time: delivery unwinds
/// the frame stack back to exactly that depth, so the frame that installed
/// the handler is on top when the handler is called.
#[derive(Debug)]
struct Handler {
    depth: usize,
    /// The installing frame's function: decode checked `dst` and `t`
    /// against this function only.
    fnid: u32,
    handler: Word,
    dst: Reg,
    t: u32,
}

/// Carries the guest value behind an in-flight trap between the raising
/// instruction and delivery (cleared on every delivery attempt).
#[derive(Debug, Clone, Copy)]
enum PendingTrap {
    /// `%raise v`: deliver `v` itself, unwrapped (identity-preserving
    /// re-raise).
    Reraise(Word),
    /// `%error v`: deliver a fresh condition whose payload is `v`.
    Payload(Word),
}

/// Why a [`Machine::start`]/[`Machine::resume`] session paused without
/// finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendReason {
    /// The instruction budget reached zero.  No instruction was lost: the
    /// next [`Machine::resume`] re-fetches the instruction the budget
    /// refused.
    FuelExhausted,
    /// The machine executed a host-visible effect (`%write-char` with
    /// [`Machine::set_yield_on_output`] enabled) and is handing control to
    /// the embedder.  The effect has already happened; resuming continues
    /// at the next instruction.
    HostCall,
}

/// What one slice of resumable execution produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The program ran to completion with this result word.
    Done(Word),
    /// Execution paused; all machine state is intact and
    /// [`Machine::resume`] continues exactly where the slice stopped.
    Suspended(SuspendReason),
}

/// The machine's session lifecycle.  `run`/`start` are only valid in
/// `Ready`, `resume` only in `Running`; everything else is a deterministic
/// `BadProgram` error rather than unspecified behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Ready,
    Running,
    Done,
    Faulted,
}

/// Control flow out of one executed instruction.
enum Exec {
    Continue,
    Suspend(SuspendReason),
}

#[derive(Debug, Clone, Copy)]
struct RoleCache {
    fixnum: RepId,
    closure: RepId,
    false_word: Word,
    unspec_word: Word,
    reg_init: Word,
}

/// A loaded program plus all mutable run-time state.
///
/// # Example
///
/// See the crate-level documentation; machines are normally produced by the
/// `sxr` pipeline rather than built by hand.
#[derive(Debug)]
pub struct Machine {
    program: Rc<CodeProgram>,
    /// The pre-decoded hot-path form of the program.
    decoded: DecodedProgram,
    /// The run-time representation registry (starts as the compile-time
    /// registry; extended by run-time `%make-*-type`).
    pub registry: RepRegistry,
    heap: Heap,
    globals: Vec<Word>,
    pool: Vec<Word>,
    interned: HashMap<String, Word>,
    frames: Vec<Frame>,
    /// Retired register arrays awaiting reuse (the frame pool).
    reg_pool: Vec<Vec<Word>>,
    /// Dynamic execution counters.
    pub counters: Counters,
    output: String,
    ptr_table: [bool; 8],
    remaining: Option<u64>,
    role: RoleCache,
    /// The fault-injection schedule in force for this machine.
    fault: FaultPlan,
    /// Hard heap capacity ceiling in words (`usize::MAX` when uncapped).
    heap_cap: usize,
    /// True when the plan perturbs GC timing (fast-path gate so fault-free
    /// runs pay one boolean test per safe point).
    chaos_gc: bool,
    /// Jittered-schedule PRNG state, when seeded.
    jitter: Option<ChaosRng>,
    /// Total object allocations performed since load (never reset; the
    /// ordinal stream `fail_alloc_at` indexes into).
    alloc_seq: u64,
    /// Installed trap handlers, innermost last.  Handler closures are GC
    /// roots (traced in [`Machine::collect`]).
    handlers: Vec<Handler>,
    /// Extra GC roots for guest words a trap is carrying while the
    /// condition object is under construction (empty outside delivery).
    trap_roots: Vec<Word>,
    /// The guest value behind an in-flight `%raise`/`%error`, if any.
    pending_trap: Option<PendingTrap>,
    /// Session lifecycle (pins `run`-after-`Err` to a deterministic error).
    phase: Phase,
    /// The result word once the outermost frame returns.
    result: Word,
    /// When set, `%write-char` yields [`SuspendReason::HostCall`] after
    /// appending (resumable sessions only; [`Machine::run`] runs through).
    host_yield_output: bool,
}

impl Machine {
    /// Loads `program` (pre-decoding every function and building the
    /// constant pool on the heap).
    ///
    /// # Errors
    ///
    /// Returns [`crate::check_program`]'s [`VmErrorKind::BadProgram`] error
    /// when the program is structurally unsound (a missing boot role, an
    /// out-of-range index or jump target, an impossible allocation, ...),
    /// and the configured verifier's rejection when it refuses the program.
    pub fn new(program: CodeProgram, config: MachineConfig) -> Result<Machine, VmError> {
        let decoded = decode_program(&program)?;
        // The verifier sees the loadable program, of which the decoded
        // stream is a faithful 1:1 translation; a rejected program never
        // starts.
        if let Some(verify) = config.verifier {
            verify(&program)?;
        }
        let registry = program.registry.clone();
        let boot = decoded.roles;
        let role = RoleCache {
            fixnum: boot.fixnum,
            closure: boot.closure,
            false_word: registry.encode_immediate(boot.boolean, 0),
            unspec_word: registry.encode_immediate(boot.unspecified, 0),
            reg_init: registry.encode_immediate(boot.fixnum, 0),
        };
        let ptr_table = registry.pointer_pattern_table();
        let nglobals = program.nglobals;
        let heap_cap = config.fault.effective_cap();
        let chaos_gc = config.fault.perturbs_gc();
        let jitter = config.fault.gc_jitter_seed.map(ChaosRng::new);
        let mut m = Machine {
            program: Rc::new(program),
            decoded,
            registry,
            heap: Heap::new(config.heap_words.min(heap_cap)),
            globals: vec![role.unspec_word; nglobals],
            pool: Vec::new(),
            interned: HashMap::new(),
            frames: Vec::new(),
            reg_pool: Vec::new(),
            counters: Counters::default(),
            output: String::new(),
            ptr_table,
            remaining: config.instruction_limit,
            role,
            fault: config.fault,
            heap_cap,
            chaos_gc,
            jitter,
            alloc_seq: 0,
            handlers: Vec::new(),
            trap_roots: Vec::new(),
            pending_trap: None,
            phase: Phase::Ready,
            result: role.unspec_word,
            host_yield_output: false,
        };
        m.build_pool()?;
        Ok(m)
    }

    fn build_pool(&mut self) -> Result<(), VmError> {
        let prog = self.program.clone();
        // Pre-reserve so pool construction never triggers GC (intermediate
        // children would not be roots).
        let mut need = 0usize;
        for e in &prog.pool {
            need += match e {
                PoolEntry::Datum(d) => encode::words_needed(d),
                PoolEntry::Rep(_) => 2,
            };
        }
        if self.heap.needs_gc(need) {
            let target = grow_target(self.heap.used(), need, self.heap.capacity());
            self.heap.grow_to(target.min(self.heap_cap));
            if self.heap.needs_gc(need) {
                // Nothing on the heap is garbage at load time, so a capped
                // heap that cannot hold the pool is simply too small.
                return Err(VmError::oom(need, self.heap.capacity(), OomPhase::Alloc));
            }
        }
        for e in &prog.pool {
            let w = match e {
                PoolEntry::Datum(d) => encode::encode_datum(self, d)?,
                PoolEntry::Rep(rid) => self.make_rep_object(*rid)?,
            };
            self.pool.push(w);
        }
        Ok(())
    }

    /// The accumulated `%write-char` output.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Clears the output port.
    pub fn clear_output(&mut self) {
        self.output.clear();
    }

    /// Formats a tagged word using the library's registered representations.
    pub fn describe(&self, w: Word) -> String {
        encode::describe(self, w, 64)
    }

    pub(crate) fn heap_ref(&self) -> &Heap {
        &self.heap
    }

    /// Words of heap currently in use.
    pub fn heap_used(&self) -> usize {
        self.heap.used()
    }

    /// Current heap capacity in words (observing the growth policy).
    pub fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Heap store used by the constant encoder on freshly allocated objects.
    pub(crate) fn heap_set_for_encode(&mut self, idx: usize, w: Word) -> Result<(), VmError> {
        self.heap.set(idx, w)
    }

    pub(crate) fn role_fixnum(&self) -> RepId {
        self.role.fixnum
    }

    /// Allocates, collecting or growing first if needed. `fill` must be a
    /// valid tagged word.
    ///
    /// Fault-injected collections never fire here: this is *inside* an
    /// allocation, where callers may hold derived words (an encoded child,
    /// a frame under construction) that are not yet GC roots.  Chaos
    /// schedules perturb only the designated safe points
    /// ([`Machine::ensure_space`]).
    ///
    /// # Errors
    ///
    /// Propagates collection failures (heap corruption surfaced by the
    /// checked forwarder), and raises [`VmErrorKind::OutOfMemory`] when the
    /// request cannot be satisfied under the fault plan's capacity cap or
    /// the plan fails this allocation by schedule.
    pub(crate) fn alloc_object(
        &mut self,
        len: usize,
        type_id: u16,
        tag: u64,
        fill: Word,
    ) -> Result<Word, VmError> {
        self.alloc_seq += 1;
        if self.fault.fail_alloc_at == Some(self.alloc_seq) {
            return Err(VmError::oom(len + 1, self.heap.capacity(), OomPhase::Alloc));
        }
        self.ensure_space_quiet(len + 1)?;
        self.counters.allocated_words += len as u64 + 1;
        self.counters.allocated_objects += 1;
        let idx = self.heap.alloc(len, type_id, fill);
        Ok(((idx as i64) << 3) | tag as i64)
    }

    /// A GC-safe point reserving `words` of heap.  Every register, global,
    /// pool slot, and interned symbol is a root here, so the fault plan is
    /// free to force a collection; afterwards the normal reservation logic
    /// runs.  Once this returns, allocations totalling `words` are
    /// guaranteed not to collect (callers rely on that to keep not-yet-
    /// rooted intermediate values alive across multi-object builds).
    fn ensure_space(&mut self, words: usize) -> Result<(), VmError> {
        if self.chaos_gc {
            let force =
                self.fault.gc_every_alloc || self.jitter.as_mut().is_some_and(ChaosRng::force_gc);
            if force {
                self.counters.gc_forced += 1;
                self.collect()?;
            }
        }
        self.ensure_space_quiet(words)
    }

    /// The reservation logic alone, with no fault hooks: collect when the
    /// request does not fit, grow when the collection left the heap tight.
    fn ensure_space_quiet(&mut self, words: usize) -> Result<(), VmError> {
        if !self.heap.needs_gc(words.saturating_sub(1)) {
            return Ok(());
        }
        self.collect()?;
        // Grow when the collection left the heap tight: either the request
        // still does not fit, or live data holds more than half of capacity
        // (so the next collection would come almost immediately).  The
        // target is strictly larger than the current capacity — see
        // [`grow_target`] — which keeps the decision monotone and
        // thrash-free under high live-data residency.  A capacity cap
        // clamps the target; a request the capped heap cannot satisfy is a
        // structured out-of-memory error, never a panic.
        if self.heap.needs_gc(words.saturating_sub(1))
            || self.heap.used() * 2 > self.heap.capacity()
        {
            let target = grow_target(self.heap.used(), words, self.heap.capacity());
            self.heap.grow_to(target.min(self.heap_cap));
        }
        if self.heap.needs_gc(words.saturating_sub(1)) {
            let phase = if words > self.heap_cap {
                OomPhase::Alloc // could never fit, even in an empty heap
            } else {
                OomPhase::Collect // collection reclaimed too little
            };
            return Err(VmError::oom(words, self.heap.capacity(), phase));
        }
        Ok(())
    }

    /// Runs a full two-space collection.
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadMemoryAccess`] when the forwarder detects
    /// heap corruption (out-of-range pointers, to-space overflow) instead
    /// of silently mis-forwarding in release builds.
    pub fn collect(&mut self) -> Result<(), VmError> {
        self.counters.gc_count += 1;
        let cap = self.heap.capacity();
        let mut from = self.heap.begin_gc(cap);
        let pt = self.ptr_table;
        for w in self.globals.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        for w in self.pool.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        let prog = self.program.clone();
        for f in self.frames.iter_mut() {
            let map = &prog.funs[f.fnid as usize].ptr_map;
            for (r, w) in f.regs.iter_mut().enumerate() {
                if map.get(r).copied().unwrap_or(true) {
                    *w = self.heap.forward(&mut from, *w, &pt)?;
                }
            }
        }
        for w in self.interned.values_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        for h in self.handlers.iter_mut() {
            h.handler = self.heap.forward(&mut from, h.handler, &pt)?;
        }
        for w in self.trap_roots.iter_mut() {
            *w = self.heap.forward(&mut from, *w, &pt)?;
        }
        self.result = self.heap.forward(&mut from, self.result, &pt)?;
        // Closures are mixed-representation objects: free slots the code
        // generator proved raw must not be treated as pointers.
        let RepKind::Immediate { shift, .. } = self.registry.info(self.role.fixnum).kind else {
            unreachable!("fixnum role validated as immediate at load");
        };
        let cs = ClosureScan {
            type_id: self.role.closure as u16,
            code_shift: shift,
            funs: &prog.funs,
        };
        self.heap.scan_from_precise(0, &mut from, &pt, Some(&cs))?;
        self.heap.end_gc(from);
        self.counters.gc_copied_words += self.heap.used() as u64;
        Ok(())
    }

    /// Total object allocations performed since load, pool construction
    /// included.  Unlike [`Counters::allocated_objects`] this is never
    /// reset, so it is the ordinal stream that
    /// [`FaultPlan::fail_alloc_at`] indexes into — chaos harnesses use it
    /// to derive schedules from a fault-free run.
    pub fn allocations(&self) -> u64 {
        self.alloc_seq
    }

    /// The fault plan this machine runs under.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// Register read of the active frame, unchecked.
    #[inline(always)]
    fn r(&self, reg: Reg) -> Word {
        let f = self.frames.last().expect("active frame");
        debug_assert!((reg as usize) < f.regs.len(), "decode missed r{reg}");
        // SAFETY: `validate_inst` refused any register operand `>= nregs`
        // of the function it belongs to, frames always hold `nregs` words
        // of their own function, and an instruction only ever runs in a
        // frame of its own function.
        unsafe { *f.regs.get_unchecked(reg as usize) }
    }

    /// Register write of the active frame, unchecked.
    #[inline(always)]
    fn set_r(&mut self, reg: Reg, w: Word) {
        let f = self.frames.last_mut().expect("active frame");
        debug_assert!((reg as usize) < f.regs.len(), "decode missed r{reg}");
        // SAFETY: as for `r`.
        unsafe {
            *f.regs.get_unchecked_mut(reg as usize) = w;
        }
    }

    /// The operand at position `i` of an arena span, unchecked.
    #[inline(always)]
    fn arg(&self, span: ArgSpan, i: usize) -> Reg {
        debug_assert!(span.off as usize + i < self.decoded.args.len());
        // SAFETY: `decode_program` builds every span over the operands it
        // appended to the arena, callers keep `i < span.len`, and
        // `validate_inst` checked each rep operation's operand count.
        unsafe { *self.decoded.args.get_unchecked(span.off as usize + i) }
    }

    /// Takes a register array from the pool (or allocates one), fully
    /// initialized to the library's register-init word so no values bleed
    /// through from the frame that previously used it.
    fn take_regs(&mut self, nregs: usize) -> Vec<Word> {
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(nregs, self.role.reg_init);
        regs
    }

    fn recycle_regs(&mut self, regs: Vec<Word>) {
        if self.reg_pool.len() < REG_POOL_MAX {
            self.reg_pool.push(regs);
        }
    }

    /// Builds the entry frame for `main`.
    fn main_frame(&mut self) -> Result<Frame, VmError> {
        let fnid = self.program.main;
        let fun = &self.decoded.funs[fnid as usize];
        if fun.arity != 0 {
            return Err(VmError::new(
                VmErrorKind::ArityMismatch,
                format!(
                    "`{}` takes {} arguments, got 0",
                    self.program.funs[fnid as usize].name, fun.arity
                ),
            ));
        }
        let nregs = fun.nregs;
        let mut regs = self.take_regs(nregs);
        regs[0] = self.role.unspec_word;
        Ok(Frame {
            fnid,
            pc: 0,
            regs,
            ret_dst: 0,
        })
    }

    fn arity_error(&self, fnid: u32, at_least: bool, got: usize) -> VmError {
        let fun = &self.program.funs[fnid as usize];
        VmError::new(
            VmErrorKind::ArityMismatch,
            format!(
                "`{}` takes {}{} arguments, got {}",
                fun.name,
                if at_least { "at least " } else { "" },
                fun.arity,
                got
            ),
        )
    }

    /// Builds a callee frame reading the closure and arguments from the
    /// *current* frame's registers. For variadic callees the extra
    /// arguments are collected into a library list; space for the pairs is
    /// reserved before any register is read, so a collection here cannot
    /// leave stale copies behind.
    fn build_frame(
        &mut self,
        fnid: u32,
        clo_reg: Reg,
        arg_span: ArgSpan,
        ret_dst: Reg,
    ) -> Result<Frame, VmError> {
        let fun = &self.decoded.funs[fnid as usize];
        let (arity, variadic, nregs) = (fun.arity, fun.variadic, fun.nregs);
        let nargs = arg_span.len as usize;
        if !variadic {
            if arity != nargs {
                return Err(self.arity_error(fnid, false, nargs));
            }
            let mut regs = self.take_regs(nregs);
            regs[0] = self.r(clo_reg);
            for i in 0..nargs {
                regs[1 + i] = self.r(self.arg(arg_span, i));
            }
            return Ok(Frame {
                fnid,
                pc: 0,
                regs,
                ret_dst,
            });
        }
        if nargs < arity {
            return Err(self.arity_error(fnid, true, nargs));
        }
        let extras = nargs - arity;
        let pair = self
            .registry
            .role(sxr_ir::rep::roles::PAIR)
            .ok_or_else(|| {
                VmError::new(
                    VmErrorKind::BadProgram,
                    "variadic call requires a `pair` representation",
                )
            })?;
        let null = self
            .registry
            .role(sxr_ir::rep::roles::NULL)
            .ok_or_else(|| {
                VmError::new(
                    VmErrorKind::BadProgram,
                    "variadic call requires a `null` representation",
                )
            })?;
        let RepKind::Pointer { tag: pair_tag, .. } = self.registry.info(pair).kind else {
            return Err(VmError::new(
                VmErrorKind::BadProgram,
                "`pair` role must be a pointer",
            ));
        };
        // Reserve everything up front; reads below see post-GC registers.
        self.ensure_space(3 * extras + 1)?;
        let mut regs = self.take_regs(nregs);
        regs[0] = self.r(clo_reg);
        for i in 0..arity {
            regs[1 + i] = self.r(self.arg(arg_span, i));
        }
        let mut rest = self.registry.encode_immediate(null, 0);
        for i in (arity..nargs).rev() {
            let car = self.r(self.arg(arg_span, i));
            let p = self.alloc_object(2, pair as u16, pair_tag, rest)?;
            let base = (p >> 3) as usize;
            self.heap.set(base + 1, car)?;
            rest = p;
        }
        regs[1 + arity] = rest;
        Ok(Frame {
            fnid,
            pc: 0,
            regs,
            ret_dst,
        })
    }

    fn closure_target(&self, fval: Word) -> Result<u32, VmError> {
        if !self.registry.tag_matches(self.role.closure, fval) {
            return Err(VmError::new(
                VmErrorKind::NotAProcedure,
                format!("call of non-procedure {}", self.describe(fval)),
            ));
        }
        let base = (fval >> 3) as usize;
        let code = self.heap.get(base + 1)?;
        let fnid = self.registry.decode_immediate(self.role.fixnum, code) as u32;
        // The code word lives on the heap, where a sufficiently adversarial
        // guest (a `%rep-set!` through a representation sharing the closure
        // tag) can overwrite it; such an object is simply not a callable
        // procedure, and saying so keeps the error recoverable — important
        // for the verifier's contract that verified programs never reach
        // `BadProgram` at run time.  The step loop's unchecked fetch relies
        // on this check for every frame built from a closure.
        if (fnid as usize) >= self.decoded.funs.len() {
            return Err(VmError::new(
                VmErrorKind::NotAProcedure,
                format!("closure code word {fnid} is not a function id"),
            ));
        }
        Ok(fnid)
    }

    /// A deterministic "wrong lifecycle phase" error for `run`/`start`/
    /// `resume` calls outside their valid phase.
    fn phase_error(&self, wanted: &str) -> VmError {
        let state = match self.phase {
            Phase::Ready => "has not started",
            Phase::Running => "is suspended mid-run",
            Phase::Done => "already ran to completion",
            Phase::Faulted => "previously stopped with an error",
        };
        VmError::new(
            VmErrorKind::BadProgram,
            format!("machine {state}; {wanted}"),
        )
    }

    /// Executes the program to completion.
    ///
    /// Valid only on a fresh machine: calling `run` again after it has
    /// returned — a value *or* an error — is a deterministic
    /// [`VmErrorKind::BadProgram`] error, never unspecified behaviour.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised during execution (with
    /// [`VmErrorKind::Timeout`] when the configured instruction budget runs
    /// out).
    pub fn run(&mut self) -> Result<Word, VmError> {
        self.begin()?;
        loop {
            match self.step_loop()? {
                StepResult::Done(w) => return Ok(w),
                StepResult::Suspended(SuspendReason::FuelExhausted) => {
                    self.phase = Phase::Faulted;
                    return Err(VmError::new(
                        VmErrorKind::Timeout,
                        "instruction budget exhausted",
                    ));
                }
                // `run` owns the session: cooperative yield points are
                // simply run through.
                StepResult::Suspended(SuspendReason::HostCall) => {}
            }
        }
    }

    /// Begins a resumable session, executing until completion, fuel
    /// exhaustion, or a host-call yield.  Unlike [`Machine::run`], an empty
    /// instruction budget is not an error: the machine suspends with all
    /// state intact and [`Machine::resume`] continues it.
    ///
    /// # Errors
    ///
    /// Terminal [`VmError`]s only; suspension is an `Ok` outcome.
    pub fn start(&mut self) -> Result<StepResult, VmError> {
        self.begin()?;
        self.step_loop()
    }

    /// Continues a suspended session, granting `extra_budget` more
    /// instructions (added to whatever budget remains; a machine with no
    /// budget limit stays unlimited).
    ///
    /// # Errors
    ///
    /// Returns [`VmErrorKind::BadProgram`] unless the machine is suspended
    /// (i.e. the last `start`/`resume` returned [`StepResult::Suspended`]);
    /// otherwise any terminal [`VmError`] the continued execution raises.
    pub fn resume(&mut self, extra_budget: u64) -> Result<StepResult, VmError> {
        if self.phase != Phase::Running {
            return Err(self.phase_error("`resume` needs a suspended session"));
        }
        if let Some(rem) = self.remaining.as_mut() {
            *rem = rem.saturating_add(extra_budget);
        }
        self.step_loop()
    }

    /// Remaining instruction budget (`None` = unlimited).
    pub fn fuel(&self) -> Option<u64> {
        self.remaining
    }

    /// Replaces the instruction budget (`None` = unlimited).  Harnesses
    /// use this to pick a first fuel slice before [`Machine::start`].
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.remaining = fuel;
    }

    /// When enabled, `%write-char` suspends resumable sessions with
    /// [`SuspendReason::HostCall`] after appending the character
    /// ([`Machine::run`] is unaffected — it runs through yield points).
    pub fn set_yield_on_output(&mut self, yield_on_output: bool) {
        self.host_yield_output = yield_on_output;
    }

    /// Shared entry: pushes the `main` frame and moves to `Running`.
    fn begin(&mut self) -> Result<(), VmError> {
        if self.phase != Phase::Ready {
            return Err(self.phase_error("build a fresh machine to run again"));
        }
        let main = match self.main_frame() {
            Ok(f) => f,
            Err(e) => {
                self.phase = Phase::Faulted;
                return Err(e);
            }
        };
        self.frames.push(main);
        self.phase = Phase::Running;
        Ok(())
    }

    /// The fetch/decode/execute loop.  Returns `Done` when the outermost
    /// frame has returned, `Suspended` when the budget ran dry or a host
    /// call yielded; terminal errors move the machine to `Faulted`.
    fn step_loop(&mut self) -> Result<StepResult, VmError> {
        loop {
            let (fi, pc) = {
                let Some(top) = self.frames.last_mut() else {
                    self.phase = Phase::Done;
                    return Ok(StepResult::Done(self.result));
                };
                let fi = top.fnid as usize;
                let pc = top.pc;
                top.pc += 1;
                (fi, pc)
            };
            debug_assert!(pc < self.decoded.funs[fi].insts.len(), "decode missed a pc");
            // SAFETY: `fi` comes from a frame, and frames are built only
            // for function ids decode bounds-checked (`main`, `CallKnown`,
            // `MakeClosure`) or `closure_target` validated.  A pc is 0, a
            // jump or handler target (decode refused any `>= len`), or one
            // past an executed instruction, at most `len`: the index of the
            // `FellOff` sentinel decode appended to every function.
            let inst = unsafe { *self.decoded.funs.get_unchecked(fi).insts.get_unchecked(pc) };
            // The budget is charged before an instruction does anything —
            // including `ResetCounters` — so a limit of N admits exactly N
            // instructions and the counters never record a timed-out one.
            // Suspension rewinds the pc: the refused instruction is
            // re-fetched by the next `resume`, making the slice boundary
            // invisible to the program.
            if let Some(rem) = self.remaining.as_mut() {
                if *rem == 0 {
                    self.frames.last_mut().expect("frame").pc = pc;
                    return Ok(StepResult::Suspended(SuspendReason::FuelExhausted));
                }
                *rem -= 1;
            }
            match inst {
                DInst::ResetCounters => {
                    self.counters.reset();
                    continue;
                }
                DInst::FellOff => {
                    self.phase = Phase::Faulted;
                    return Err(VmError::new(
                        VmErrorKind::BadProgram,
                        format!("fell off the end of `{}`", self.program.funs[fi].name),
                    ));
                }
                _ => {}
            }
            self.counters.count(inst.class());
            match self.exec_inst(inst) {
                Ok(Exec::Continue) => {}
                Ok(Exec::Suspend(reason)) => {
                    return Ok(StepResult::Suspended(reason));
                }
                Err(e) => {
                    if let Err(fatal) = self.deliver_trap(e) {
                        self.phase = Phase::Faulted;
                        return Err(fatal);
                    }
                }
            }
        }
    }

    /// Executes one (already counted and budgeted) instruction.  Register,
    /// pool, global, and operand-arena accesses skip their bounds checks
    /// (each proved by decode); heap accesses stay checked, because their
    /// addresses are run-time values.
    #[inline]
    fn exec_inst(&mut self, inst: DInst) -> Result<Exec, VmError> {
        match inst {
            DInst::Const { d, imm } => {
                self.set_r(d, imm);
            }
            DInst::Pool { d, idx } => {
                debug_assert!((idx as usize) < self.pool.len());
                // SAFETY: decode refused `idx >= program.pool.len()`, and a
                // loaded machine holds one pool word per entry.
                let w = unsafe { *self.pool.get_unchecked(idx as usize) };
                self.set_r(d, w);
            }
            DInst::Move { d, s } => {
                let w = self.r(s);
                self.set_r(d, w);
            }
            DInst::Bin { op, d, a, b } => {
                let (a, b) = (self.r(a), self.r(b));
                let v = self.binop(op, a, b)?;
                self.set_r(d, v);
            }
            DInst::BinI { op, d, a, imm } => {
                let a = self.r(a);
                let v = self.binop(op, a, imm)?;
                self.set_r(d, v);
            }
            DInst::LoadD { d, p, disp } => {
                let addr = self.r(p).wrapping_add(disp);
                let w = self.heap.get((addr >> 3) as usize)?;
                self.set_r(d, w);
            }
            DInst::LoadX { d, p, x, disp } => {
                let addr = self.r(p).wrapping_add(self.r(x)).wrapping_add(disp);
                let w = self.heap.get((addr >> 3) as usize)?;
                self.set_r(d, w);
            }
            DInst::StoreD { p, disp, s } => {
                let addr = self.r(p).wrapping_add(disp);
                let w = self.r(s);
                self.heap.set((addr >> 3) as usize, w)?;
            }
            DInst::StoreX { p, x, disp, s } => {
                let addr = self.r(p).wrapping_add(self.r(x)).wrapping_add(disp);
                let w = self.r(s);
                self.heap.set((addr >> 3) as usize, w)?;
            }
            DInst::AllocImm {
                d,
                len,
                fill,
                rep,
                tag,
            } => {
                let len = len as usize;
                self.ensure_space(len + 1)?;
                let fill = self.r(fill); // after possible GC
                let w = self.alloc_object(len, rep, tag, fill)?;
                self.set_r(d, w);
            }
            DInst::AllocReg {
                d,
                len,
                fill,
                rep,
                tag,
            } => {
                let len = self.r(len);
                if !(0..=(1 << 40)).contains(&len) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!("allocation of {len} fields"),
                    ));
                }
                let len = len as usize;
                self.ensure_space(len + 1)?;
                let fill = self.r(fill); // after possible GC
                let w = self.alloc_object(len, rep, tag, fill)?;
                self.set_r(d, w);
            }
            DInst::Jump { t } => {
                self.frames.last_mut().expect("frame").pc = t as usize;
            }
            DInst::JumpCmpRR { op, a, b, t } => {
                let (a, b) = (self.r(a), self.r(b));
                if cmp_taken(op, a, b) {
                    self.frames.last_mut().expect("frame").pc = t as usize;
                }
            }
            DInst::JumpCmpRI { op, a, imm, t } => {
                let a = self.r(a);
                if cmp_taken(op, a, imm) {
                    self.frames.last_mut().expect("frame").pc = t as usize;
                }
            }
            DInst::GlobalGet { d, g } => {
                debug_assert!((g as usize) < self.globals.len());
                // SAFETY: decode refused `g >= nglobals`, and the machine
                // holds exactly `nglobals` global slots.
                let w = unsafe { *self.globals.get_unchecked(g as usize) };
                self.set_r(d, w);
            }
            DInst::GlobalSet { g, s } => {
                let w = self.r(s);
                debug_assert!((g as usize) < self.globals.len());
                // SAFETY: as for `GlobalGet`.
                unsafe {
                    *self.globals.get_unchecked_mut(g as usize) = w;
                }
            }
            DInst::MakeClosure { d, free, tag, code } => {
                let n = free.len as usize;
                self.ensure_space(n + 2)?;
                let w = self.alloc_object(n + 1, self.role.closure as u16, tag, code)?;
                let base = (w >> 3) as usize;
                for i in 0..n {
                    let v = self.r(self.arg(free, i));
                    self.heap.set(base + 2 + i, v)?;
                }
                self.set_r(d, w);
            }
            DInst::ClosureSet { clo, idx, val } => {
                let base = (self.r(clo) >> 3) as usize;
                let v = self.r(val);
                self.heap.set(base + 2 + idx as usize, v)?;
            }
            DInst::Call { d, f, args } => {
                let fnid = self.closure_target(self.r(f))?;
                self.counters.calls += 1;
                let frame = self.build_frame(fnid, f, args, d)?;
                self.frames.push(frame);
            }
            DInst::CallKnown { d, f, clo, args } => {
                self.counters.calls += 1;
                let frame = self.build_frame(f, clo, args, d)?;
                self.frames.push(frame);
            }
            DInst::TailCall { f, args } => {
                let fnid = self.closure_target(self.r(f))?;
                self.counters.calls += 1;
                let ret_dst = self.frames.last().expect("frame").ret_dst;
                let frame = self.build_frame(fnid, f, args, ret_dst)?;
                let old = std::mem::replace(self.frames.last_mut().expect("frame"), frame);
                self.recycle_regs(old.regs);
            }
            DInst::TailCallKnown { f, clo, args } => {
                self.counters.calls += 1;
                let ret_dst = self.frames.last().expect("frame").ret_dst;
                let frame = self.build_frame(f, clo, args, ret_dst)?;
                let old = std::mem::replace(self.frames.last_mut().expect("frame"), frame);
                self.recycle_regs(old.regs);
            }
            DInst::Ret { s } => {
                let v = self.r(s);
                let frame = self.frames.pop().expect("frame");
                match self.frames.last_mut() {
                    Some(caller) => caller.regs[frame.ret_dst as usize] = v,
                    None => self.result = v,
                }
                self.recycle_regs(frame.regs);
            }
            DInst::Rep { op, d, args } => {
                let v = self.rep_generic(op, args)?;
                self.set_r(d, v);
            }
            DInst::Intern { d, s } => {
                let sval = self.r(s);
                let sym = self.intern_value(sval)?;
                self.set_r(d, sym);
            }
            DInst::WriteChar { s } => {
                let w = self.r(s);
                let char_rep = self.registry.role(roles::CHAR).ok_or_else(|| {
                    VmError::new(VmErrorKind::BadProgram, "no `char` representation role")
                })?;
                let code = self.registry.decode_immediate(char_rep, w) as u32;
                self.output.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                if self.host_yield_output {
                    return Ok(Exec::Suspend(SuspendReason::HostCall));
                }
            }
            DInst::ErrorOp { s } => {
                let w = self.r(s);
                self.pending_trap = Some(PendingTrap::Payload(w));
                return Err(VmError::new(
                    VmErrorKind::SchemeError,
                    format!("error: {}", self.describe(w)),
                ));
            }
            DInst::PushHandler { h, d, t } => {
                self.handlers.push(Handler {
                    depth: self.frames.len(),
                    fnid: self.frames.last().expect("frame").fnid,
                    handler: self.r(h),
                    dst: d,
                    t,
                });
            }
            DInst::PopHandler => {
                if self.handlers.pop().is_none() {
                    return Err(VmError::new(
                        VmErrorKind::BadProgram,
                        "PopHandler with no handler installed",
                    ));
                }
            }
            DInst::RaiseOp { s } => {
                let w = self.r(s);
                self.pending_trap = Some(PendingTrap::Reraise(w));
                return Err(VmError::new(
                    VmErrorKind::UncaughtCondition,
                    format!("uncaught condition: {}", self.describe(w)),
                ));
            }
            DInst::ResetCounters | DInst::FellOff => unreachable!("handled before counting"),
        }
        Ok(Exec::Continue)
    }

    /// Attempts to deliver a trap to the innermost handler.
    ///
    /// Terminal kinds ([`VmErrorKind::BadProgram`],
    /// [`VmErrorKind::BadMemoryAccess`], [`VmErrorKind::Timeout`]) are
    /// never handled.  For recoverable kinds the frame stack is unwound to
    /// the handler's install depth *first* (dropping dead roots), then the
    /// condition value is built — so its allocation sees the post-unwind
    /// root set — and the handler closure is called with it.  The handler
    /// runs with its own entry already popped, so a re-raise propagates
    /// outward.
    ///
    /// `Ok(())` means the handler frame is in place and execution should
    /// continue; `Err` re-surfaces the (original) terminal error.
    fn deliver_trap(&mut self, e: VmError) -> Result<(), VmError> {
        let pending = self.pending_trap.take();
        if matches!(
            e.kind,
            VmErrorKind::BadProgram
                | VmErrorKind::BadMemoryAccess
                | VmErrorKind::Timeout
                | VmErrorKind::RejectedByVerifier { .. }
        ) {
            return Err(e);
        }
        // Innermost handler whose frame is still live (hand-built code can
        // return past a PushHandler; such stale entries are discarded).  The
        // frame at the install depth must run the installing function:
        // decode checked the handler's `dst` and `t` against that function
        // alone.
        let h = loop {
            match self.handlers.pop() {
                None => return Err(e),
                Some(h)
                    if h.depth <= self.frames.len() && self.frames[h.depth - 1].fnid == h.fnid =>
                {
                    break h
                }
                Some(_) => continue,
            }
        };
        while self.frames.len() > h.depth {
            let f = self.frames.pop().expect("frame");
            self.recycle_regs(f.regs);
        }
        let cond = match pending {
            Some(PendingTrap::Reraise(w)) => w,
            other => {
                let payload = match other {
                    Some(PendingTrap::Payload(w)) => Some(w),
                    _ => None,
                };
                match self.build_condition(&e, payload) {
                    Ok(c) => c,
                    // The condition itself would not fit (or the library
                    // defines no condition representation): the original
                    // error is terminal after all.
                    Err(_) => return Err(e),
                }
            }
        };
        let fnid = self.closure_target(h.handler)?;
        let fun = &self.decoded.funs[fnid as usize];
        if fun.variadic || fun.arity != 1 {
            return Err(self.arity_error(fnid, false, 1));
        }
        let nregs = fun.nregs;
        let mut regs = self.take_regs(nregs);
        regs[0] = h.handler;
        regs[1] = cond;
        self.frames.last_mut().expect("installing frame").pc = h.t as usize;
        self.counters.calls += 1;
        self.frames.push(Frame {
            fnid,
            pc: 0,
            regs,
            ret_dst: h.dst,
        });
        Ok(())
    }

    /// Builds the condition object for `e`: a 4-field record of the
    /// library's `condition` representation holding
    /// `[kind-symbol, p1, p2, p3]` — for out-of-memory that is
    /// `[kind, requested, capacity, phase-symbol]`, for `%error` it is
    /// `[kind, value, #f, #f]`, otherwise the payload fields are `#f`.
    ///
    /// All heap space (fresh symbols included) is reserved up front with
    /// the quiet path, and `payload` rides in `trap_roots` across that
    /// reservation, so a collection here cannot lose it.
    fn build_condition(&mut self, e: &VmError, payload: Option<Word>) -> Result<Word, VmError> {
        let cond_rep = self.registry.role("condition").ok_or_else(|| {
            VmError::new(
                VmErrorKind::BadProgram,
                "library did not provide a `condition` representation role",
            )
        })?;
        let RepKind::Pointer { tag, .. } = self.registry.info(cond_rep).kind else {
            return Err(VmError::new(
                VmErrorKind::BadProgram,
                "`condition` role must be a pointer representation",
            ));
        };
        let kind_label = e.kind.label();
        let phase_label = match e.kind {
            VmErrorKind::OutOfMemory { phase, .. } => Some(match phase {
                OomPhase::Alloc => "alloc",
                OomPhase::Collect => "collect",
            }),
            _ => None,
        };
        let mut need = 5; // the condition record: header + 4 fields
        if !self.interned.contains_key(kind_label) {
            need += 3 + kind_label.len();
        }
        if let Some(p) = phase_label {
            if !self.interned.contains_key(p) {
                need += 3 + p.len();
            }
        }
        let false_word = self.role.false_word;
        self.trap_roots.push(payload.unwrap_or(false_word));
        if let Err(oom) = self.ensure_space_quiet(need) {
            self.trap_roots.pop();
            return Err(oom);
        }
        // No collection can run until `need` words are consumed; every
        // word below is stable.
        let payload_w = self.trap_roots.pop().expect("trap root");
        let ksym = self.intern_loaded(kind_label)?;
        let (p1, p2, p3) = match e.kind {
            VmErrorKind::OutOfMemory {
                requested,
                capacity,
                ..
            } => {
                let psym = self.intern_loaded(phase_label.expect("oom phase"))?;
                (
                    self.registry
                        .encode_immediate(self.role.fixnum, requested as i64),
                    self.registry
                        .encode_immediate(self.role.fixnum, capacity as i64),
                    psym,
                )
            }
            VmErrorKind::SchemeError | VmErrorKind::UncaughtCondition => {
                (payload_w, false_word, false_word)
            }
            _ => (false_word, false_word, false_word),
        };
        let w = self.alloc_object(4, cond_rep as u16, tag, false_word)?;
        let base = (w >> 3) as usize;
        self.heap.set(base + 1, ksym)?;
        self.heap.set(base + 2, p1)?;
        self.heap.set(base + 3, p2)?;
        self.heap.set(base + 4, p3)?;
        Ok(w)
    }

    fn binop(&self, op: BinOp, a: Word, b: Word) -> Result<Word, VmError> {
        Ok(match op {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Quot => {
                if b == 0 {
                    return Err(VmError::new(VmErrorKind::DivideByZero, "quotient by zero"));
                }
                a.wrapping_div(b)
            }
            BinOp::Rem => {
                if b == 0 {
                    return Err(VmError::new(VmErrorKind::DivideByZero, "remainder by zero"));
                }
                a.wrapping_rem(b)
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::CmpEq => (a == b) as i64,
            BinOp::CmpLt => (a < b) as i64,
        })
    }

    /// Builds a first-class rep-type object for `rid`.
    pub(crate) fn make_rep_object(&mut self, rid: RepId) -> Result<Word, VmError> {
        let reptype = self.registry.role("rep-type").ok_or_else(|| {
            VmError::new(
                VmErrorKind::BadProgram,
                "first-class representation objects require the `rep-type` role",
            )
        })?;
        let RepKind::Pointer { tag, .. } = self.registry.info(reptype).kind else {
            return Err(VmError::new(
                VmErrorKind::BadProgram,
                "`rep-type` role must be a pointer",
            ));
        };
        let payload = self.registry.encode_immediate(self.role.fixnum, rid as i64);
        let w = self.alloc_object(1, reptype as u16, tag, payload)?;
        Ok(w)
    }

    fn rep_id_of(&self, w: Word) -> Result<RepId, VmError> {
        let reptype = self.registry.role("rep-type").ok_or_else(|| {
            VmError::new(VmErrorKind::BadProgram, "no `rep-type` role registered")
        })?;
        if !self.registry.tag_matches(reptype, w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("not a representation type: {}", self.describe(w)),
            ));
        }
        let base = (w >> 3) as usize;
        let header = self.heap.get(base)?;
        if header_type(header) != reptype as u16 {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                "not a representation type (wrong record type)",
            ));
        }
        // `%rep-alloc` can forge a rep-type object of any length and
        // contents; only a one-field object naming a registered
        // representation is one.
        if header_len(header) != 1 {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!(
                    "not a representation type ({} fields, not 1)",
                    header_len(header)
                ),
            ));
        }
        let id = self
            .registry
            .decode_immediate(self.role.fixnum, self.heap.get(base + 1)?);
        if !(0..self.registry.len() as i64).contains(&id) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("not a representation type (unknown id {id})"),
            ));
        }
        Ok(id as RepId)
    }

    fn fixnum_arg(&self, w: Word, what: &str) -> Result<i64, VmError> {
        if !self.registry.tag_matches(self.role.fixnum, w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("{what} must be a fixnum, got {}", self.describe(w)),
            ));
        }
        Ok(self.registry.decode_immediate(self.role.fixnum, w))
    }

    fn symbol_name(&self, w: Word) -> Result<String, VmError> {
        let sym = self
            .registry
            .role(roles::SYMBOL)
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `symbol` role"))?;
        if !self.registry.tag_matches(sym, w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("expected a symbol, got {}", self.describe(w)),
            ));
        }
        let base = (w >> 3) as usize;
        let str_ptr = self.heap.get(base + 1)?;
        self.string_content(str_ptr)
    }

    pub(crate) fn string_content(&self, w: Word) -> Result<String, VmError> {
        let string = self
            .registry
            .role(roles::STRING)
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `string` role"))?;
        let char_rep = self
            .registry
            .role(roles::CHAR)
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `char` role"))?;
        if !self.registry.tag_matches(string, w) {
            return Err(VmError::new(
                VmErrorKind::BadRepOperation,
                format!("expected a string, got {}", self.describe(w)),
            ));
        }
        let base = (w >> 3) as usize;
        let len = header_len(self.heap.get(base)?);
        let mut s = String::with_capacity(len);
        for i in 0..len {
            let cw = self.heap.get(base + 1 + i)?;
            let code = self.registry.decode_immediate(char_rep, cw) as u32;
            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
        }
        Ok(s)
    }

    /// Interns the symbol named by the string at `string_ptr` (the runtime
    /// `Intern` instruction).  The name is copied out of the heap before the
    /// reservation, so the safe point below is a real one: every value the
    /// rest of this function touches is either a root or allocated inside
    /// the reservation.
    pub(crate) fn intern_value(&mut self, string_ptr: Word) -> Result<Word, VmError> {
        let name = self.string_content(string_ptr)?;
        if let Some(w) = self.interned.get(&name) {
            return Ok(*w);
        }
        // Reserve the name string and the symbol cell together: the freshly
        // encoded string in `intern_reserved` is not a GC root, so no
        // collection may run between encoding it and installing it in the
        // interned table (via the symbol, which is a root).
        self.ensure_space(1 + name.chars().count() + 2)?;
        self.intern_reserved(name)
    }

    /// Load-time interning for quoted symbols.  Deliberately *quiet*: the
    /// constant encoder holds partially built structure (list tails, vector
    /// elements) in Rust locals that are not GC roots, so no collection —
    /// fault-forced or otherwise — may run during pool construction.
    /// [`Machine::build_pool`]'s up-front reservation (which budgets
    /// `1 + chars + 2` words per fresh symbol, see
    /// [`encode::words_needed`]) guarantees the quiet reserve never
    /// collects here.
    pub(crate) fn intern_loaded(&mut self, name: &str) -> Result<Word, VmError> {
        if let Some(w) = self.interned.get(name) {
            return Ok(*w);
        }
        self.ensure_space_quiet(1 + name.chars().count() + 2)?;
        self.intern_reserved(name.to_string())
    }

    /// Shared tail of the interning paths.  Space for the name string and
    /// the symbol cell must already be reserved.
    fn intern_reserved(&mut self, name: String) -> Result<Word, VmError> {
        let symrep = self
            .registry
            .role(roles::SYMBOL)
            .ok_or_else(|| VmError::new(VmErrorKind::BadProgram, "no `symbol` role"))?;
        let RepKind::Pointer { tag, .. } = self.registry.info(symrep).kind else {
            return Err(VmError::new(
                VmErrorKind::BadProgram,
                "`symbol` role must be a pointer",
            ));
        };
        let fresh = encode::encode_string(self, &name)?;
        let w = self.alloc_object(1, symrep as u16, tag, fresh)?;
        self.interned.insert(name, w);
        Ok(w)
    }

    fn rep_generic(&mut self, op: RepVmOp, span: ArgSpan) -> Result<Word, VmError> {
        match op {
            RepVmOp::MakeImm => {
                let name = self.symbol_name(self.r(self.arg(span, 0)))?;
                let tag_bits = self.fixnum_arg(self.r(self.arg(span, 1)), "tag-bits")? as u32;
                let tag = self.fixnum_arg(self.r(self.arg(span, 2)), "tag")? as u64;
                let shift = self.fixnum_arg(self.r(self.arg(span, 3)), "shift")? as u32;
                let rid = self
                    .registry
                    .intern_immediate(&name, tag_bits, tag, shift)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                self.make_rep_object(rid)
            }
            RepVmOp::MakePtr => {
                let name = self.symbol_name(self.r(self.arg(span, 0)))?;
                let tag = self.fixnum_arg(self.r(self.arg(span, 1)), "tag")? as u64;
                let discriminated = self.r(self.arg(span, 2)) != self.role.false_word;
                let rid = self
                    .registry
                    .intern_pointer(&name, tag, discriminated)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                self.ptr_table = self.registry.pointer_pattern_table();
                self.make_rep_object(rid)
            }
            RepVmOp::Provide => {
                let role = self.symbol_name(self.r(self.arg(span, 0)))?;
                let rid = self.rep_id_of(self.r(self.arg(span, 1)))?;
                self.registry
                    .provide_role(&role, rid)
                    .map_err(|e| VmError::new(VmErrorKind::BadRepOperation, e.0))?;
                Ok(self.role.unspec_word)
            }
            RepVmOp::Inject => {
                let rid = self.rep_id_of(self.r(self.arg(span, 0)))?;
                let w = self.r(self.arg(span, 1));
                Ok(match self.registry.info(rid).kind {
                    RepKind::Immediate { tag, shift, .. } => (w << shift) | tag as i64,
                    RepKind::Pointer { tag, .. } => w | tag as i64,
                })
            }
            RepVmOp::Project => {
                let rid = self.rep_id_of(self.r(self.arg(span, 0)))?;
                let w = self.r(self.arg(span, 1));
                Ok(match self.registry.info(rid).kind {
                    RepKind::Immediate { shift, .. } => w >> shift,
                    RepKind::Pointer { .. } => w & !0b111,
                })
            }
            RepVmOp::Test => {
                let rid = self.rep_id_of(self.r(self.arg(span, 0)))?;
                let w = self.r(self.arg(span, 1));
                let info = self.registry.info(rid);
                let mut ok = self.registry.tag_matches(rid, w);
                if ok {
                    if let RepKind::Pointer {
                        discriminated: true,
                        ..
                    } = info.kind
                    {
                        let base = (w >> 3) as usize;
                        ok = header_type(self.heap.get(base)?) == rid as u16;
                    }
                }
                Ok(ok as i64)
            }
            RepVmOp::Alloc => {
                let n = self.r(self.arg(span, 1));
                if !(0..=(1 << 40)).contains(&n) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!("rep-alloc of {n} fields"),
                    ));
                }
                self.ensure_space(n as usize + 1)?;
                // Re-read after potential GC.
                let rid = self.rep_id_of(self.r(self.arg(span, 0)))?;
                let fill = self.r(self.arg(span, 2));
                let RepKind::Pointer { tag, .. } = self.registry.info(rid).kind else {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        "rep-alloc of an immediate representation",
                    ));
                };
                self.alloc_object(n as usize, rid as u16, tag, fill)
            }
            RepVmOp::Ref | RepVmOp::Set | RepVmOp::Len => {
                let rid = self.rep_id_of(self.r(self.arg(span, 0)))?;
                let v = self.r(self.arg(span, 1));
                if !self.registry.tag_matches(rid, v) {
                    return Err(VmError::new(
                        VmErrorKind::BadRepOperation,
                        format!(
                            "value is not a {}: {}",
                            self.registry.info(rid).name,
                            self.describe(v)
                        ),
                    ));
                }
                let base = (v >> 3) as usize;
                let len = header_len(self.heap.get(base)?);
                match op {
                    RepVmOp::Len => Ok(len as i64),
                    _ => {
                        let i = self.r(self.arg(span, 2));
                        if !(0..len as i64).contains(&i) {
                            return Err(VmError::new(
                                VmErrorKind::BadRepOperation,
                                format!("field index {i} out of range 0..{len}"),
                            ));
                        }
                        match op {
                            RepVmOp::Ref => self.heap.get(base + 1 + i as usize),
                            RepVmOp::Set => {
                                let x = self.r(self.arg(span, 3));
                                self.heap.set(base + 1 + i as usize, x)?;
                                Ok(self.role.unspec_word)
                            }
                            _ => unreachable!(),
                        }
                    }
                }
            }
        }
    }
}

/// Whether a fused compare-and-branch is taken.
#[inline]
fn cmp_taken(op: CmpOp, a: Word, b: Word) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Ge => a >= b,
    }
}
