//! Instruction selection: closure-converted ANF → VM code.
//!
//! Notable selections (all available to *both* pipelines — they encode
//! machine knowledge, not data-representation knowledge):
//!
//! * displacement/indexed addressing folds tag subtraction into loads and
//!   stores,
//! * single-use comparisons feeding a branch fuse into compare-and-branch,
//! * immediate operand forms for constants that fit.
//!
//! The code generator also computes each function's **pointer map** for the
//! precise collector: a register is marked "raw" when the value it holds is
//! statically known never to be a heap pointer (results of word arithmetic,
//! projections, type tests). Raw registers are skipped by the GC.
//!
//! Code is emitted over unbounded virtual registers; [`allocate_registers`]
//! then renames them onto frame registers, reusing a register once its
//! value is dead and only for a value of the same kind, so the pointer map
//! stays exact while frames stay as small as the values live at once.

use std::collections::HashMap;
use sxr_ir::anf::{Atom, Bound, Expr, FnId, Fun, Literal, Module, Test, VarId};
use sxr_ir::prim::PrimOp;
use sxr_ir::rep::{roles, RepKind, RepRegistry};
use sxr_vm::{BinOp, CmpOp, CodeFun, CodeProgram, Inst, PoolEntry, Reg, RegImm, RepVmOp};

/// A virtual register: one per binding or temporary, unbounded, renamed
/// onto frame registers by [`allocate_registers`].
type VReg = u32;

/// A code-generation failure (missing role, register overflow, or an IR
/// shape the backend cannot accept).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

/// Whether a register can ever hold a heap pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Never a pointer (word arithmetic results, projections, raw
    /// constants); skipped by the collector.
    Raw,
    /// A tagged Scheme value; scanned by the collector.
    Tagged,
}

/// "Tagged wins": once a value may be tagged it must be treated as a root.
fn join(a: Kind, b: Kind) -> Kind {
    if a == Kind::Tagged || b == Kind::Tagged {
        Kind::Tagged
    } else {
        Kind::Raw
    }
}

/// The kind a primitive's result register gets (must agree with
/// [`FnGen::emit_prim`]).
fn prim_kind(op: &PrimOp) -> Kind {
    use PrimOp::*;
    match op {
        WordAdd | WordSub | WordMul | WordQuot | WordRem | WordAnd | WordOr | WordXor | WordShl
        | WordShr | WordEq | WordLt | PtrEq | RepProject | RepTest | RepLen | SpecHeader(_) => {
            Kind::Raw
        }
        _ => Kind::Tagged,
    }
}

/// Computes, for every function, the kind of each closure free-variable
/// slot: `Raw` slots hold untagged machine words (projections, word
/// arithmetic the optimizer hoisted across a lambda) and must be *skipped*
/// by the collector — a raw word whose low bits alias a pointer tag would
/// otherwise be "forwarded" into garbage.  Slots start `Raw` and join
/// toward `Tagged` over every `MakeClosure`/`ClosurePatch` site, so the
/// fixpoint terminates; `ClosureRef` reads feed a function's own slot
/// kinds back into values it captures for others, which is why this is a
/// whole-module fixpoint rather than a single pass.
fn free_slot_kinds(module: &Module) -> Vec<Vec<Kind>> {
    let mut slots: Vec<Vec<Kind>> = module
        .funs
        .iter()
        .map(|f| vec![Kind::Raw; f.free_count])
        .collect();
    loop {
        let mut changed = false;
        for (fid, f) in module.funs.iter().enumerate() {
            let mut env: HashMap<VarId, Kind> = HashMap::new();
            env.insert(f.self_var, Kind::Tagged);
            for p in f.params.iter().chain(f.rest.iter()) {
                env.insert(*p, Kind::Tagged);
            }
            // Vars bound to `MakeClosure`, so `ClosurePatch` can attribute
            // its store to the right function's slot.
            let mut closure_of: HashMap<VarId, FnId> = HashMap::new();
            slot_walk_expr(
                &f.body,
                fid as FnId,
                &mut env,
                &mut closure_of,
                &mut slots,
                &mut changed,
            );
        }
        if !changed {
            break;
        }
    }
    slots
}

fn slot_atom_kind(a: &Atom, env: &HashMap<VarId, Kind>) -> Kind {
    match a {
        Atom::Var(v) => env.get(v).copied().unwrap_or(Kind::Tagged),
        Atom::Lit(Literal::Raw(_)) => Kind::Raw,
        Atom::Lit(_) => Kind::Tagged,
    }
}

fn slot_join_into(slots: &mut [Vec<Kind>], fid: FnId, idx: usize, k: Kind, changed: &mut bool) {
    if let Some(slot) = slots.get_mut(fid as usize).and_then(|s| s.get_mut(idx)) {
        let j = join(*slot, k);
        if j != *slot {
            *slot = j;
            *changed = true;
        }
    }
}

/// Walks an expression, binding kinds into `env`, and returns the kind of
/// the value the expression yields.
fn slot_walk_expr(
    e: &Expr,
    fid: FnId,
    env: &mut HashMap<VarId, Kind>,
    closure_of: &mut HashMap<VarId, FnId>,
    slots: &mut Vec<Vec<Kind>>,
    changed: &mut bool,
) -> Kind {
    match e {
        Expr::Let(v, b, body) => {
            let k = slot_walk_bound(*v, b, fid, env, closure_of, slots, changed);
            env.insert(*v, k);
            slot_walk_expr(body, fid, env, closure_of, slots, changed)
        }
        Expr::If(_, t, els) => {
            let a = slot_walk_expr(t, fid, env, closure_of, slots, changed);
            let b = slot_walk_expr(els, fid, env, closure_of, slots, changed);
            join(a, b)
        }
        Expr::Ret(a) => slot_atom_kind(a, env),
        Expr::TailCall(..) | Expr::TailCallKnown(..) => Kind::Tagged,
        // Pre-closure-conversion only; nothing to do here.
        Expr::LetRec(_, body) => slot_walk_expr(body, fid, env, closure_of, slots, changed),
    }
}

fn slot_walk_bound(
    v: VarId,
    b: &Bound,
    fid: FnId,
    env: &mut HashMap<VarId, Kind>,
    closure_of: &mut HashMap<VarId, FnId>,
    slots: &mut Vec<Vec<Kind>>,
    changed: &mut bool,
) -> Kind {
    match b {
        Bound::Atom(a) => {
            if let Atom::Var(src) = a {
                if let Some(t) = closure_of.get(src).copied() {
                    closure_of.insert(v, t);
                }
            }
            slot_atom_kind(a, env)
        }
        Bound::Prim(op, _) => prim_kind(op),
        Bound::MakeClosure(target, frees) => {
            for (i, a) in frees.iter().enumerate() {
                let k = slot_atom_kind(a, env);
                slot_join_into(slots, *target, i, k, changed);
            }
            closure_of.insert(v, *target);
            Kind::Tagged
        }
        Bound::ClosureRef(i) => slots
            .get(fid as usize)
            .and_then(|s| s.get(*i))
            .copied()
            .unwrap_or(Kind::Tagged),
        Bound::ClosurePatch(c, i, x) => {
            let k = slot_atom_kind(x, env);
            match c.as_var().and_then(|cv| closure_of.get(&cv).copied()) {
                Some(target) => slot_join_into(slots, target, *i, k, changed),
                // Unknown patch target: assume it could be any function.
                None => {
                    for t in 0..slots.len() {
                        slot_join_into(slots, t as FnId, *i, k, changed);
                    }
                }
            }
            Kind::Tagged // binds the unspecified value
        }
        Bound::If(_, t, els) => {
            let a = slot_walk_expr(t, fid, env, closure_of, slots, changed);
            let b = slot_walk_expr(els, fid, env, closure_of, slots, changed);
            join(a, b)
        }
        Bound::Body(e) => slot_walk_expr(e, fid, env, closure_of, slots, changed),
        // Calls, globals, lambdas (pre-cc), and effect binders yield tagged
        // values (effect binders bind the unspecified value).
        Bound::Call(..)
        | Bound::CallKnown(..)
        | Bound::GlobalGet(_)
        | Bound::GlobalSet(..)
        | Bound::Lambda(_) => Kind::Tagged,
    }
}

/// Generates a loadable program from a validated module.
///
/// # Errors
///
/// Returns [`CodegenError`] when a literal requires a representation role
/// the library did not provide, when intrinsics were not lowered, or when a
/// function exceeds the register budget.
pub fn generate(module: &Module, registry: &RepRegistry) -> Result<CodeProgram, CodegenError> {
    let mut shared = Shared {
        registry,
        pool: Vec::new(),
        pool_index: HashMap::new(),
        false_word: encode_role_imm(registry, roles::BOOLEAN, 0)?,
        unspec_word: encode_role_imm(registry, roles::UNSPECIFIED, 0)?,
        closure_tag: ptr_tag(registry, roles::CLOSURE)?,
    };
    let slot_kinds = free_slot_kinds(module);
    let mut funs = Vec::with_capacity(module.funs.len());
    for (fid, f) in module.funs.iter().enumerate() {
        funs.push(FnGen::emit(f, &slot_kinds[fid], &mut shared)?);
    }
    Ok(CodeProgram {
        funs,
        main: module.main,
        pool: shared.pool,
        nglobals: module.global_names.len(),
        global_names: module.global_names.clone(),
        registry: registry.clone(),
    })
}

/// Removes `Jump` instructions whose target is the next instruction
/// (artifacts of straight-line value bodies) and remaps branch targets.
fn drop_fallthrough_jumps<R>(insts: Vec<Inst<R>>) -> Vec<Inst<R>> {
    let dead: Vec<bool> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| matches!(inst, Inst::Jump { t } if *t as usize == i + 1))
        .collect();
    if !dead.iter().any(|&d| d) {
        return insts;
    }
    // new_index[i] = position of instruction i after removal.
    let mut new_index = Vec::with_capacity(insts.len() + 1);
    let mut n = 0u32;
    for d in &dead {
        new_index.push(n);
        if !d {
            n += 1;
        }
    }
    new_index.push(n);
    insts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !dead[*i])
        .map(|(_, mut inst)| {
            match &mut inst {
                Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } => {
                    *t = new_index[*t as usize]
                }
                _ => {}
            }
            inst
        })
        .collect()
}

/// Renames virtual registers onto frame registers, reusing a frame
/// register once its previous occupant is dead.  Reuse is a pure renaming:
/// no instruction is added, removed or reordered.
///
/// A virtual register's live interval is [first mention, last mention] in
/// pc order.  Because the code generator emits only forward jumps (checked
/// here), every path from a definition to a use stays inside that
/// interval, including a handler's trap edge from the protected call to
/// its resume target.  Scanning pcs in order, a virtual register takes a
/// frame register at its first mention and hands it back after the
/// instruction of its last mention, so an operand that dies where a result
/// is defined never shares with it.  Registers `0..entry` (closure,
/// parameters, rest list) keep their numbers and are never reused.
///
/// Free frame registers are kept in one list per final [`Kind`], so every
/// occupant of a frame register has that register's kind and the root map
/// stays one precise bit per register: a raw word never sits in a scanned
/// register and a tagged value never in a skipped one.
fn allocate_registers(
    mut insts: Vec<Inst<VReg>>,
    kinds: &[Kind],
    entry: usize,
) -> Result<(Vec<Inst>, Vec<Kind>), CodegenError> {
    const PINNED: usize = usize::MAX;
    let mut last = vec![0usize; kinds.len()];
    for (pc, inst) in insts.iter_mut().enumerate() {
        if let Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } = inst {
            if *t as usize <= pc {
                return Err(CodegenError(format!(
                    "backward jump at pc {pc}: register reuse needs forward-only control flow"
                )));
            }
        }
        inst.regs_mut(|v| last[*v as usize] = pc);
    }
    let mut frame: Vec<Kind> = kinds[..entry].to_vec();
    let mut phys: Vec<Option<Reg>> = vec![None; kinds.len()];
    for (v, p) in phys.iter_mut().enumerate().take(entry) {
        *p = Some(v as Reg);
        last[v] = PINNED;
    }
    let mut free: [Vec<Reg>; 2] = [Vec::new(), Vec::new()];
    let mut dying = Vec::new();
    let mut overflow = entry > Reg::MAX as usize + 1;
    let mut out = Vec::with_capacity(insts.len());
    for (pc, inst) in insts.into_iter().enumerate() {
        out.push(inst.map_regs(|v| {
            let v = v as usize;
            let k = kinds[v];
            let r = *phys[v].get_or_insert_with(|| {
                free[k as usize].pop().unwrap_or_else(|| {
                    overflow |= frame.len() > Reg::MAX as usize;
                    frame.push(k);
                    (frame.len() - 1) as Reg
                })
            });
            if last[v] == pc {
                last[v] = PINNED; // hand back once, however often mentioned
                dying.push((k, r));
            }
            r
        }));
        for (k, r) in dying.drain(..) {
            free[k as usize].push(r);
        }
    }
    if overflow {
        return Err(CodegenError(
            "function needs more than 65536 registers live at once".to_string(),
        ));
    }
    Ok((out, frame))
}

fn encode_role_imm(reg: &RepRegistry, role: &str, payload: i64) -> Result<i64, CodegenError> {
    let id = reg
        .role(role)
        .ok_or_else(|| CodegenError(format!("library provided no `{role}` representation")))?;
    match reg.info(id).kind {
        RepKind::Immediate { .. } => Ok(reg.encode_immediate(id, payload)),
        RepKind::Pointer { .. } => Err(CodegenError(format!(
            "role `{role}` must be an immediate representation"
        ))),
    }
}

fn ptr_tag(reg: &RepRegistry, role: &str) -> Result<i64, CodegenError> {
    let id = reg
        .role(role)
        .ok_or_else(|| CodegenError(format!("library provided no `{role}` representation")))?;
    match reg.info(id).kind {
        RepKind::Pointer { tag, .. } => Ok(tag as i64),
        RepKind::Immediate { .. } => Err(CodegenError(format!(
            "role `{role}` must be a pointer representation"
        ))),
    }
}

#[derive(Debug, Clone, Hash, PartialEq, Eq)]
enum PoolKey {
    Datum(sxr_sexp::Datum),
    Rep(u32),
}

struct Shared<'a> {
    registry: &'a RepRegistry,
    pool: Vec<PoolEntry>,
    pool_index: HashMap<PoolKey, u32>,
    false_word: i64,
    unspec_word: i64,
    closure_tag: i64,
}

impl Shared<'_> {
    fn pool_slot(&mut self, key: PoolKey) -> u32 {
        if let Some(&i) = self.pool_index.get(&key) {
            return i;
        }
        let i = self.pool.len() as u32;
        self.pool.push(match &key {
            PoolKey::Datum(d) => PoolEntry::Datum(d.clone()),
            PoolKey::Rep(r) => PoolEntry::Rep(*r),
        });
        self.pool_index.insert(key, i);
        i
    }

    /// Encodes a literal as either an inline immediate or a pool slot.
    fn literal(&mut self, lit: &Literal) -> Result<Enc, CodegenError> {
        use sxr_sexp::Datum;
        Ok(match lit {
            Literal::Raw(w) => Enc::Imm(*w, Kind::Raw),
            Literal::Unspecified => Enc::Imm(self.unspec_word, Kind::Tagged),
            Literal::Rep(r) => Enc::Pool(self.pool_slot(PoolKey::Rep(*r))),
            Literal::Datum(d) => match d {
                Datum::Fixnum(n) => Enc::Imm(
                    encode_role_imm(self.registry, roles::FIXNUM, *n)?,
                    Kind::Tagged,
                ),
                Datum::Bool(b) => Enc::Imm(
                    encode_role_imm(self.registry, roles::BOOLEAN, *b as i64)?,
                    Kind::Tagged,
                ),
                Datum::Char(c) => Enc::Imm(
                    encode_role_imm(self.registry, roles::CHAR, *c as i64)?,
                    Kind::Tagged,
                ),
                Datum::List(items) if items.is_empty() => Enc::Imm(
                    encode_role_imm(self.registry, roles::NULL, 0)?,
                    Kind::Tagged,
                ),
                other => Enc::Pool(self.pool_slot(PoolKey::Datum(other.clone()))),
            },
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Enc {
    Imm(i64, Kind),
    Pool(u32),
}

struct FnGen<'a, 'b> {
    shared: &'a mut Shared<'b>,
    regs: HashMap<VarId, VReg>,
    kinds: Vec<Kind>,       // per virtual register
    free_kinds: &'a [Kind], // per closure free slot (from `free_slot_kinds`)
    insts: Vec<Inst<VReg>>,
    patches: Vec<(usize, u32)>, // (inst index, label)
    labels: Vec<Option<u32>>,
    uses: HashMap<VarId, usize>,
}

/// Where a sub-expression delivers its value.
enum Ctx {
    /// Function tail: `Ret` / tail calls allowed.
    Tail,
    /// Value branch of a `Bound::If`: `Ret a` means "move a to `dst`, jump
    /// to `join`".
    Yield { dst: VReg, join: u32 },
}

impl<'a, 'b> FnGen<'a, 'b> {
    fn emit(
        f: &Fun,
        free_kinds: &'a [Kind],
        shared: &'a mut Shared<'b>,
    ) -> Result<CodeFun, CodegenError> {
        let (insts, kinds) = FnGen::virtual_code(f, free_kinds, shared)?;
        let entry = 1 + f.params.len() + usize::from(f.rest.is_some());
        let (insts, kinds) = allocate_registers(insts, &kinds, entry)?;
        Ok(CodeFun {
            name: f.name.clone().unwrap_or_else(|| "anonymous".to_string()),
            arity: f.params.len(),
            variadic: f.rest.is_some(),
            nregs: kinds.len(),
            free_count: f.free_count,
            insts,
            ptr_map: kinds.iter().map(|k| *k == Kind::Tagged).collect(),
            free_ptr_map: free_kinds.iter().map(|k| *k == Kind::Tagged).collect(),
        })
    }

    /// The function's final code over virtual registers, with each
    /// virtual register's final kind.
    fn virtual_code(
        f: &Fun,
        free_kinds: &'a [Kind],
        shared: &'a mut Shared<'b>,
    ) -> Result<(Vec<Inst<VReg>>, Vec<Kind>), CodegenError> {
        let mut g = FnGen {
            shared,
            regs: HashMap::new(),
            kinds: Vec::new(),
            free_kinds,
            insts: Vec::new(),
            patches: Vec::new(),
            labels: Vec::new(),
            uses: HashMap::new(),
        };
        f.body.use_counts(&mut g.uses);
        // The machine stores the callee closure in register 0 and the
        // arguments (then any rest list) after it; the allocator keeps
        // these entry registers at their numbers.
        for v in std::iter::once(&f.self_var).chain(&f.params).chain(&f.rest) {
            g.define(*v, Kind::Tagged);
        }
        g.emit_expr(&f.body, &mut Ctx::Tail)?;
        // Patch labels.
        for (at, label) in std::mem::take(&mut g.patches) {
            let target = g.labels[label as usize]
                .ok_or_else(|| CodegenError(format!("unbound label {label}")))?;
            match &mut g.insts[at] {
                Inst::Jump { t } | Inst::JumpCmp { t, .. } | Inst::PushHandler { t, .. } => {
                    *t = target
                }
                other => return Err(CodegenError(format!("patch of non-branch {other:?}"))),
            }
        }
        Ok((drop_fallthrough_jumps(g.insts), g.kinds))
    }

    fn fresh_reg(&mut self, kind: Kind) -> VReg {
        self.kinds.push(kind);
        (self.kinds.len() - 1) as VReg
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(None);
        (self.labels.len() - 1) as u32
    }

    fn bind_label(&mut self, l: u32) {
        self.labels[l as usize] = Some(self.insts.len() as u32);
    }

    fn jump(&mut self, l: u32) {
        self.patches.push((self.insts.len(), l));
        self.insts.push(Inst::Jump { t: 0 });
    }

    fn jump_cmp(&mut self, op: CmpOp, a: VReg, b: RegImm<VReg>, l: u32) {
        self.patches.push((self.insts.len(), l));
        self.insts.push(Inst::JumpCmp { op, a, b, t: 0 });
    }

    fn var_reg(&self, v: VarId) -> Result<VReg, CodegenError> {
        self.regs
            .get(&v)
            .copied()
            .ok_or_else(|| CodegenError(format!("use of unallocated variable v{v}")))
    }

    fn kind_of_atom(&mut self, a: &Atom) -> Result<Kind, CodegenError> {
        Ok(match a {
            Atom::Var(v) => self.kinds[self.var_reg(*v)? as usize],
            Atom::Lit(l) => match self.shared.literal(l)? {
                Enc::Imm(_, k) => k,
                Enc::Pool(_) => Kind::Tagged,
            },
        })
    }

    /// Materializes an atom into a register.
    fn atom_reg(&mut self, a: &Atom) -> Result<VReg, CodegenError> {
        match a {
            Atom::Var(v) => self.var_reg(*v),
            Atom::Lit(l) => {
                let enc = self.shared.literal(l)?;
                match enc {
                    Enc::Imm(w, k) => {
                        let r = self.fresh_reg(k);
                        self.insts.push(Inst::Const { d: r, imm: w });
                        Ok(r)
                    }
                    Enc::Pool(idx) => {
                        let r = self.fresh_reg(Kind::Tagged);
                        self.insts.push(Inst::Pool { d: r, idx });
                        Ok(r)
                    }
                }
            }
        }
    }

    /// Returns an immediate encoding of the atom if it fits i32.
    fn atom_imm(&mut self, a: &Atom) -> Result<Option<i32>, CodegenError> {
        if let Atom::Lit(l) = a {
            if let Enc::Imm(w, _) = self.shared.literal(l)? {
                return Ok(i32::try_from(w).ok());
            }
        }
        Ok(None)
    }

    fn atom_regs(&mut self, atoms: &[Atom]) -> Result<Vec<VReg>, CodegenError> {
        atoms.iter().map(|a| self.atom_reg(a)).collect()
    }

    fn used_once(&self, v: VarId) -> bool {
        self.uses.get(&v).copied().unwrap_or(0) == 1
    }

    fn emit_expr(&mut self, e: &Expr, ctx: &mut Ctx) -> Result<(), CodegenError> {
        match e {
            Expr::Let(v, b, body) => {
                // Compare-and-branch fusion: a single-use comparison feeding
                // the immediately following raw test.
                if let Bound::Prim(op @ (PrimOp::WordEq | PrimOp::WordLt | PrimOp::PtrEq), args) = b
                {
                    if self.used_once(*v) {
                        match &**body {
                            Expr::If(Test::NonZero(Atom::Var(w)), t, els) if w == v => {
                                return self.emit_fused_if(*op, args, t, els, None, ctx);
                            }
                            Expr::Let(v2, Bound::If(Test::NonZero(Atom::Var(w)), t, els), rest)
                                if w == v =>
                            {
                                return self.emit_fused_if(
                                    *op,
                                    args,
                                    t,
                                    els,
                                    Some((*v2, rest)),
                                    ctx,
                                );
                            }
                            _ => {}
                        }
                    }
                }
                self.emit_bound(*v, b)?;
                self.emit_expr(body, ctx)
            }
            Expr::If(test, t, els) => {
                let else_l = self.new_label();
                self.branch_unless(test, else_l)?;
                self.emit_expr(t, ctx)?;
                self.bind_label(else_l);
                self.emit_expr(els, ctx)
            }
            Expr::Ret(a) => match ctx {
                Ctx::Tail => {
                    let r = self.atom_reg(a)?;
                    self.insts.push(Inst::Ret { s: r });
                    Ok(())
                }
                Ctx::Yield { dst, join } => {
                    let (dst, join) = (*dst, *join);
                    // Move/encode directly into the destination register.
                    match a {
                        Atom::Var(v) => {
                            let s = self.var_reg(*v)?;
                            let k = self.kinds[s as usize];
                            self.join_kind(dst, k);
                            if s != dst {
                                self.insts.push(Inst::Move { d: dst, s });
                            }
                        }
                        Atom::Lit(l) => {
                            let enc = self.shared.literal(l)?;
                            match enc {
                                Enc::Imm(w, k) => {
                                    self.join_kind(dst, k);
                                    self.insts.push(Inst::Const { d: dst, imm: w });
                                }
                                Enc::Pool(idx) => {
                                    self.join_kind(dst, Kind::Tagged);
                                    self.insts.push(Inst::Pool { d: dst, idx });
                                }
                            }
                        }
                    }
                    self.jump(join);
                    Ok(())
                }
            },
            Expr::TailCall(f, args) => {
                if !matches!(ctx, Ctx::Tail) {
                    return Err(CodegenError("tail call in value branch".to_string()));
                }
                let fr = self.atom_reg(f)?;
                let argr = self.atom_regs(args)?;
                self.insts.push(Inst::TailCall { f: fr, args: argr });
                Ok(())
            }
            Expr::TailCallKnown(fid, clo, args) => {
                if !matches!(ctx, Ctx::Tail) {
                    return Err(CodegenError("tail call in value branch".to_string()));
                }
                let cr = self.atom_reg(clo)?;
                let argr = self.atom_regs(args)?;
                self.insts.push(Inst::TailCallKnown {
                    f: *fid,
                    clo: cr,
                    args: argr,
                });
                Ok(())
            }
            Expr::LetRec(..) => Err(CodegenError(
                "letrec reached the code generator".to_string(),
            )),
        }
    }

    /// Joins a yield kind into the destination register's kind: pointer-ness
    /// wins (a register is scanned if *any* path may store a pointer there).
    /// Mixing is only safe because non-pointer words under every registered
    /// immediate representation remain valid tagged words; a raw word that
    /// could alias a pointer pattern must never flow into a tagged join —
    /// the library upholds this by construction and the differential tests
    /// exercise it.
    fn join_kind(&mut self, dst: VReg, k: Kind) {
        if k == Kind::Tagged {
            self.kinds[dst as usize] = Kind::Tagged;
        }
    }

    fn branch_unless(&mut self, test: &Test, else_l: u32) -> Result<(), CodegenError> {
        match test {
            Test::Truthy(a) => {
                let r = self.atom_reg(a)?;
                let fw = self.shared.false_word;
                match i32::try_from(fw) {
                    Ok(imm) => self.jump_cmp(CmpOp::Eq, r, RegImm::Imm(imm), else_l),
                    Err(_) => {
                        let t = self.fresh_reg(Kind::Tagged);
                        self.insts.push(Inst::Const { d: t, imm: fw });
                        self.jump_cmp(CmpOp::Eq, r, RegImm::Reg(t), else_l);
                    }
                }
                Ok(())
            }
            Test::NonZero(a) => {
                let r = self.atom_reg(a)?;
                self.jump_cmp(CmpOp::Eq, r, RegImm::Imm(0), else_l);
                Ok(())
            }
        }
    }

    /// Emits `if (a cmp b) then else` with the comparison fused into the
    /// branch. `bound` is `Some((v, rest))` for a value-producing if.
    fn emit_fused_if(
        &mut self,
        op: PrimOp,
        args: &[Atom],
        t: &Expr,
        els: &Expr,
        bound: Option<(VarId, &Expr)>,
        ctx: &mut Ctx,
    ) -> Result<(), CodegenError> {
        let a = self.atom_reg(&args[0])?;
        let b = match self.atom_imm(&args[1])? {
            Some(imm) => RegImm::Imm(imm),
            None => RegImm::Reg(self.atom_reg(&args[1])?),
        };
        // Branch to else when the comparison is false.
        let cmp = match op {
            PrimOp::WordEq | PrimOp::PtrEq => CmpOp::Ne,
            PrimOp::WordLt => CmpOp::Ge,
            _ => unreachable!("fusion only on comparisons"),
        };
        let else_l = self.new_label();
        match bound {
            None => {
                self.jump_cmp(cmp, a, b, else_l);
                self.emit_expr(t, ctx)?;
                self.bind_label(else_l);
                self.emit_expr(els, ctx)
            }
            Some((v, rest)) => {
                let dst = self.fresh_reg(Kind::Raw); // corrected by join_kind
                self.regs.insert(v, dst);
                let join = self.new_label();
                self.jump_cmp(cmp, a, b, else_l);
                self.emit_expr(t, &mut Ctx::Yield { dst, join })?;
                self.bind_label(else_l);
                self.emit_expr(els, &mut Ctx::Yield { dst, join })?;
                self.bind_label(join);
                self.emit_expr(rest, ctx)
            }
        }
    }

    fn define(&mut self, v: VarId, kind: Kind) -> VReg {
        let r = self.fresh_reg(kind);
        self.regs.insert(v, r);
        r
    }

    fn emit_bound(&mut self, v: VarId, b: &Bound) -> Result<(), CodegenError> {
        match b {
            Bound::Atom(a) => {
                let k = self.kind_of_atom(a)?;
                match a {
                    Atom::Var(src) => {
                        let s = self.var_reg(*src)?;
                        let d = self.define(v, k);
                        self.insts.push(Inst::Move { d, s });
                    }
                    Atom::Lit(l) => {
                        let enc = self.shared.literal(l)?;
                        let d = self.define(v, k);
                        match enc {
                            Enc::Imm(w, _) => self.insts.push(Inst::Const { d, imm: w }),
                            Enc::Pool(idx) => self.insts.push(Inst::Pool { d, idx }),
                        }
                    }
                }
                Ok(())
            }
            Bound::Prim(op, args) => self.emit_prim(v, *op, args),
            Bound::Call(f, args) => {
                let fr = self.atom_reg(f)?;
                let argr = self.atom_regs(args)?;
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::Call {
                    d,
                    f: fr,
                    args: argr,
                });
                Ok(())
            }
            Bound::CallKnown(fid, clo, args) => {
                let cr = self.atom_reg(clo)?;
                let argr = self.atom_regs(args)?;
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::CallKnown {
                    d,
                    f: *fid,
                    clo: cr,
                    args: argr,
                });
                Ok(())
            }
            Bound::GlobalGet(g) => {
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::GlobalGet { d, g: *g });
                Ok(())
            }
            Bound::GlobalSet(g, a) => {
                let s = self.atom_reg(a)?;
                self.insts.push(Inst::GlobalSet { g: *g, s });
                self.bind_unspec_if_used(v)
            }
            Bound::Lambda(_) => Err(CodegenError(
                "nested lambda reached the code generator".to_string(),
            )),
            Bound::MakeClosure(fid, frees) => {
                let freer = self.atom_regs(frees)?;
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::MakeClosure {
                    d,
                    f: *fid,
                    free: freer,
                });
                Ok(())
            }
            Bound::ClosureRef(i) => {
                // The slot's kind flows into the destination register: a raw
                // capture must stay invisible to the collector.
                let k = self.free_kinds.get(*i).copied().unwrap_or(Kind::Tagged);
                let d = self.define(v, k);
                let disp = (8 * (*i as i64 + 2) - self.shared.closure_tag) as i32;
                self.insts.push(Inst::LoadD { d, p: 0, disp });
                Ok(())
            }
            Bound::ClosurePatch(c, i, x) => {
                let cr = self.atom_reg(c)?;
                let xr = self.atom_reg(x)?;
                self.insts.push(Inst::ClosureSet {
                    clo: cr,
                    idx: *i as u32,
                    val: xr,
                });
                self.bind_unspec_if_used(v)
            }
            Bound::If(test, t, els) => {
                // Value-producing if.
                let dst = self.fresh_reg(Kind::Raw); // join_kind corrects
                self.regs.insert(v, dst);
                let else_l = self.new_label();
                let join = self.new_label();
                self.branch_unless(test, else_l)?;
                self.emit_expr(t, &mut Ctx::Yield { dst, join })?;
                self.bind_label(else_l);
                self.emit_expr(els, &mut Ctx::Yield { dst, join })?;
                self.bind_label(join);
                Ok(())
            }
            Bound::Body(e) => {
                let dst = self.fresh_reg(Kind::Raw); // join_kind corrects
                self.regs.insert(v, dst);
                let join = self.new_label();
                self.emit_expr(e, &mut Ctx::Yield { dst, join })?;
                self.bind_label(join);
                Ok(())
            }
        }
    }

    /// Binds `v`'s register to the unspecified value, but only when the
    /// variable is actually read (effect-only prims usually are not).
    fn bind_unspec_if_used(&mut self, v: VarId) -> Result<(), CodegenError> {
        // An unread binding is never mentioned, so it takes no frame
        // register.
        let d = self.define(v, Kind::Tagged);
        if self.uses.get(&v).copied().unwrap_or(0) > 0 {
            let w = self.shared.unspec_word;
            self.insts.push(Inst::Const { d, imm: w });
        }
        Ok(())
    }

    fn emit_prim(&mut self, v: VarId, op: PrimOp, args: &[Atom]) -> Result<(), CodegenError> {
        use PrimOp::*;
        let bin = |o: BinOp| o;
        match op {
            WordAdd | WordSub | WordMul | WordQuot | WordRem | WordAnd | WordOr | WordXor
            | WordShl | WordShr | WordEq | WordLt | PtrEq => {
                let o = match op {
                    WordAdd => bin(BinOp::Add),
                    WordSub => bin(BinOp::Sub),
                    WordMul => bin(BinOp::Mul),
                    WordQuot => bin(BinOp::Quot),
                    WordRem => bin(BinOp::Rem),
                    WordAnd => bin(BinOp::And),
                    WordOr => bin(BinOp::Or),
                    WordXor => bin(BinOp::Xor),
                    WordShl => bin(BinOp::Shl),
                    WordShr => bin(BinOp::Shr),
                    WordEq | PtrEq => bin(BinOp::CmpEq),
                    WordLt => bin(BinOp::CmpLt),
                    _ => unreachable!(),
                };
                let a = self.atom_reg(&args[0])?;
                let imm = self.atom_imm(&args[1])?;
                let d = self.define(v, Kind::Raw);
                match imm {
                    Some(i) => self.insts.push(Inst::BinI {
                        op: o,
                        d,
                        a,
                        imm: i,
                    }),
                    None => {
                        let b = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::Bin { op: o, d, a, b });
                    }
                }
                Ok(())
            }
            SpecHeader(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let d = self.define(v, Kind::Raw);
                self.insts.push(Inst::LoadD { d, p, disp: -tag });
                Ok(())
            }
            SpecAlloc(rid) => {
                let len = match self.atom_imm(&args[0])? {
                    Some(i) => RegImm::Imm(i),
                    None => RegImm::Reg(self.atom_reg(&args[0])?),
                };
                let fill = self.atom_reg(&args[1])?;
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::AllocFill {
                    d,
                    len,
                    fill,
                    rep: rid,
                });
                Ok(())
            }
            SpecRef(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let off = self.atom_imm(&args[1])?;
                let d = self.define(v, Kind::Tagged);
                match off {
                    Some(byteoff) => self.insts.push(Inst::LoadD {
                        d,
                        p,
                        disp: byteoff + 8 - tag,
                    }),
                    None => {
                        let x = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::LoadX {
                            d,
                            p,
                            x,
                            disp: 8 - tag,
                        });
                    }
                }
                Ok(())
            }
            SpecSet(rid) => {
                let tag = self.spec_tag(rid)?;
                let p = self.atom_reg(&args[0])?;
                let off = self.atom_imm(&args[1])?;
                let s = self.atom_reg(&args[2])?;
                match off {
                    Some(byteoff) => self.insts.push(Inst::StoreD {
                        p,
                        disp: byteoff + 8 - tag,
                        s,
                    }),
                    None => {
                        let x = self.atom_reg(&args[1])?;
                        self.insts.push(Inst::StoreX {
                            p,
                            x,
                            disp: 8 - tag,
                            s,
                        });
                    }
                }
                self.bind_unspec_if_used(v)
            }
            MakeImmType | MakePtrType | ProvideRep | RepInject | RepProject | RepTest
            | RepAlloc | RepRef | RepSet | RepLen => {
                let o = match op {
                    MakeImmType => RepVmOp::MakeImm,
                    MakePtrType => RepVmOp::MakePtr,
                    ProvideRep => RepVmOp::Provide,
                    RepInject => RepVmOp::Inject,
                    RepProject => RepVmOp::Project,
                    RepTest => RepVmOp::Test,
                    RepAlloc => RepVmOp::Alloc,
                    RepRef => RepVmOp::Ref,
                    RepSet => RepVmOp::Set,
                    RepLen => RepVmOp::Len,
                    _ => unreachable!(),
                };
                let argr = self.atom_regs(args)?;
                let kind = match op {
                    RepProject | RepTest | RepLen => Kind::Raw,
                    _ => Kind::Tagged,
                };
                let d = self.define(v, kind);
                self.insts.push(Inst::Rep {
                    op: o,
                    d,
                    args: argr,
                });
                Ok(())
            }
            Intern => {
                let s = self.atom_reg(&args[0])?;
                let d = self.define(v, Kind::Tagged);
                self.insts.push(Inst::Intern { d, s });
                Ok(())
            }
            WriteChar => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::WriteChar { s });
                self.bind_unspec_if_used(v)
            }
            Error => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::ErrorOp { s });
                self.bind_unspec_if_used(v)
            }
            TrapCall => {
                // PushHandler / call thunk / PopHandler, with the resume
                // label bound *after* PopHandler: the trap path pops the
                // handler entry itself, so the normal and unwound paths
                // each pop exactly once.  Both the thunk's and the
                // handler's result land in `d`.
                let hr = self.atom_reg(&args[0])?;
                let tr = self.atom_reg(&args[1])?;
                let d = self.define(v, Kind::Tagged);
                let after = self.new_label();
                self.patches.push((self.insts.len(), after));
                self.insts.push(Inst::PushHandler { h: hr, d, t: 0 });
                self.insts.push(Inst::Call {
                    d,
                    f: tr,
                    args: vec![],
                });
                self.insts.push(Inst::PopHandler);
                self.bind_label(after);
                Ok(())
            }
            Raise => {
                let s = self.atom_reg(&args[0])?;
                self.insts.push(Inst::RaiseOp { s });
                self.bind_unspec_if_used(v)
            }
            CounterReset => {
                self.insts.push(Inst::ResetCounters);
                self.bind_unspec_if_used(v)
            }
            Intrinsic(i) => Err(CodegenError(format!(
                "intrinsic %{} must be lowered before code generation",
                i.name()
            ))),
        }
    }

    fn spec_tag(&self, rid: u32) -> Result<i32, CodegenError> {
        match self.shared.registry.info(rid).kind {
            RepKind::Pointer { tag, .. } => Ok(tag as i32),
            RepKind::Immediate { .. } => Err(CodegenError(format!(
                "specialized memory op on immediate representation `{}`",
                self.shared.registry.info(rid).name
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The roles [`Shared`] needs, laid out as the shipped prelude does.
    fn registry() -> RepRegistry {
        let mut reg = RepRegistry::new();
        let fx = reg.intern_immediate("fixnum", 3, 0, 3).unwrap();
        let bo = reg.intern_immediate("boolean", 8, 0b0000_0010, 8).unwrap();
        let un = reg
            .intern_immediate("unspecified", 8, 0b0011_0010, 8)
            .unwrap();
        let cl = reg.intern_pointer("closure", 7, false).unwrap();
        for (role, id) in [
            ("fixnum", fx),
            ("boolean", bo),
            ("unspecified", un),
            ("closure", cl),
        ] {
            reg.provide_role(role, id).unwrap();
        }
        reg
    }

    fn let_(v: VarId, b: Bound, body: Expr) -> Expr {
        Expr::Let(v, b, Box::new(body))
    }

    fn var(v: VarId) -> Atom {
        Atom::Var(v)
    }

    /// Every register operand of `inst`, in visiting order.
    fn operands<R: Copy>(inst: &Inst<R>) -> Vec<R> {
        let mut out = Vec::new();
        inst.clone().regs_mut(|r| out.push(*r));
        out
    }

    #[test]
    fn reuse_keeps_kinds_and_holds_values_across_handler_regions() {
        // f(a):
        //   r1 = a + 8                        raw
        //   x  = if r1 { r2 = r1 << 3; r2 }   raw on one path ...
        //        else  { t = g0; t }          ... tagged on the other
        //   r3 = r1 - 1                       raw, live across the handler
        //   z  = trap-call(g1, g2)            PushHandler region; x and r3
        //                                     are live into its target
        //   r4 = r3 & 7
        //   if r4 then x else z
        let (a, r1, x, r2, t, r3, h, th, z, r4) = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10);
        let body = let_(
            r1,
            Bound::Prim(PrimOp::WordAdd, vec![var(a), Atom::raw(8)]),
            let_(
                x,
                Bound::If(
                    Test::NonZero(var(r1)),
                    Box::new(let_(
                        r2,
                        Bound::Prim(PrimOp::WordShl, vec![var(r1), Atom::raw(3)]),
                        Expr::Ret(var(r2)),
                    )),
                    Box::new(let_(t, Bound::GlobalGet(0), Expr::Ret(var(t)))),
                ),
                let_(
                    r3,
                    Bound::Prim(PrimOp::WordSub, vec![var(r1), Atom::raw(1)]),
                    let_(
                        h,
                        Bound::GlobalGet(1),
                        let_(
                            th,
                            Bound::GlobalGet(2),
                            let_(
                                z,
                                Bound::Prim(PrimOp::TrapCall, vec![var(h), var(th)]),
                                let_(
                                    r4,
                                    Bound::Prim(PrimOp::WordAnd, vec![var(r3), Atom::raw(7)]),
                                    Expr::If(
                                        Test::NonZero(var(r4)),
                                        Box::new(Expr::Ret(var(x))),
                                        Box::new(Expr::Ret(var(z))),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        );
        let f = Fun {
            name: Some("f".into()),
            self_var: 0,
            params: vec![a],
            rest: None,
            free_count: 0,
            body,
        };
        let registry = registry();
        let mut shared = Shared {
            registry: &registry,
            pool: Vec::new(),
            pool_index: HashMap::new(),
            false_word: encode_role_imm(&registry, roles::BOOLEAN, 0).unwrap(),
            unspec_word: encode_role_imm(&registry, roles::UNSPECIFIED, 0).unwrap(),
            closure_tag: ptr_tag(&registry, roles::CLOSURE).unwrap(),
        };
        let (virt, kinds) = FnGen::virtual_code(&f, &[], &mut shared).unwrap();
        let (code, frame) = allocate_registers(virt.clone(), &kinds, 2).unwrap();
        assert_eq!(code.len(), virt.len(), "renaming adds or drops nothing");

        // Recover the renaming and each virtual register's interval.
        let mut map: HashMap<VReg, Reg> = HashMap::new();
        let mut span: HashMap<VReg, (usize, usize)> = HashMap::new();
        for (pc, (vi, pi)) in virt.iter().zip(&code).enumerate() {
            for (v, r) in operands(vi).into_iter().zip(operands(pi)) {
                assert_eq!(*map.entry(v).or_insert(r), r, "v{v} renamed consistently");
                span.entry(v).or_insert((pc, pc)).1 = pc;
            }
        }
        assert_eq!(map[&1], 1, "the parameter keeps its entry register");
        assert!(
            map.iter().all(|(&v, &r)| r > 1 || v == r as VReg),
            "entry registers are never reused"
        );
        for (&v, &r) in &map {
            assert_eq!(kinds[v as usize], frame[r as usize], "v{v} in r{r}");
        }
        for (&v, &r) in &map {
            for (&w, &s) in &map {
                let ((v0, v1), (w0, w1)) = (span[&v], span[&w]);
                if v != w && r == s {
                    assert!(v1 < w0 || w1 < v0, "v{v} and v{w} overlap in r{r}");
                }
            }
        }

        // A value live into the handler target keeps its register across
        // the protected region: nothing else touches it in between.
        let (push, target) = virt
            .iter()
            .enumerate()
            .find_map(|(pc, i)| match i {
                Inst::PushHandler { t, .. } => Some((pc, *t as usize)),
                _ => None,
            })
            .expect("a handler region");
        let live_across: Vec<VReg> = span
            .iter()
            .filter(|(_, &(first, last))| first < push && last >= target)
            .map(|(&v, _)| v)
            .collect();
        let across_kinds: Vec<Kind> = live_across.iter().map(|&v| kinds[v as usize]).collect();
        assert!(across_kinds.contains(&Kind::Raw) && across_kinds.contains(&Kind::Tagged));
        for &v in &live_across {
            for (pc, vi) in virt.iter().enumerate().take(target + 1).skip(push) {
                for w in operands(vi) {
                    assert!(
                        w == v || map[&w] != map[&v],
                        "v{w} shares r{} at pc {pc}",
                        map[&v]
                    );
                }
            }
        }

        // Registers were reused, and both kinds occur.
        assert!(
            frame.len() < kinds.len(),
            "{} vregs in {} registers",
            kinds.len(),
            frame.len()
        );
        assert!(frame.contains(&Kind::Raw) && frame.contains(&Kind::Tagged));
    }

    #[test]
    fn backward_jump_is_refused() {
        let err = allocate_registers(vec![Inst::Jump { t: 0 }], &[Kind::Tagged], 1).unwrap_err();
        assert!(err.0.contains("backward jump"), "{err}");
    }

    #[test]
    fn register_cap_counts_only_simultaneously_live_values() {
        // `n` values all live at one tail call, plus the closure register.
        let code = |n: u32| -> (Vec<Inst<VReg>>, Vec<Kind>) {
            let mut insts: Vec<Inst<VReg>> = (1..=n).map(|d| Inst::Const { d, imm: 0 }).collect();
            insts.push(Inst::TailCall {
                f: 0,
                args: (1..=n).collect(),
            });
            (insts, vec![Kind::Tagged; n as usize + 1])
        };
        let (insts, kinds) = code(65_535);
        let (_, frame) = allocate_registers(insts, &kinds, 1).unwrap();
        assert_eq!(frame.len(), 65_536);
        let (insts, kinds) = code(65_536);
        let err = allocate_registers(insts, &kinds, 1).unwrap_err();
        assert!(err.0.contains("more than 65536 registers"), "{err}");
    }
}
