//! The virtual machine's instruction set.
//!
//! A register machine over 64-bit tagged words.  The set is deliberately
//! close to what a RISC code generator would emit — loads/stores with a
//! displacement (so tag subtraction folds into addressing), compare-and-
//! branch fusions, and immediate operand forms — so that *instruction
//! counts* are a meaningful proxy for generated-code quality.
//!
//! The `Rep` instruction family is the run-time (generic, dynamically
//! dispatched) face of the first-class representation-type facility; the
//! optimizer's job in the paper is to make these disappear from hot code.

use sxr_ir::rep::RepId;
use sxr_ir::FnId;

/// A virtual register index within the current frame.
pub type Reg = u16;

/// Two-operand ALU operations. `CmpEq`/`CmpLt` produce raw 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Quot,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,
    CmpLt,
}

/// Branch comparison kinds (fused compare-and-branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Ge,
}

/// A register or a small immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegImm<R = Reg> {
    /// Operand in a register.
    Reg(R),
    /// Immediate operand.
    Imm(i32),
}

/// Generic representation-type operations (the run-time slow path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RepVmOp {
    MakeImm,
    MakePtr,
    Provide,
    Inject,
    Project,
    Test,
    Alloc,
    Ref,
    Set,
    Len,
}

/// One VM instruction.
///
/// `R` is the register operand type: [`Reg`] in a loadable program.  The
/// code generator emits unbounded virtual registers and renames them onto
/// frame registers with [`Inst::map_regs`].
#[derive(Debug, Clone, PartialEq)]
pub enum Inst<R = Reg> {
    /// `d <- imm` (an already-encoded tagged word or raw word).
    Const { d: R, imm: i64 },
    /// `d <- pool[idx]` (heap constants built by the loader).
    Pool { d: R, idx: u32 },
    /// `d <- s`.
    Move { d: R, s: R },
    /// `d <- a op b`.
    Bin { op: BinOp, d: R, a: R, b: R },
    /// `d <- a op imm`.
    BinI { op: BinOp, d: R, a: R, imm: i32 },
    /// `d <- heap[(p + disp) >> 3]` — displacement addressing folds the tag.
    LoadD { d: R, p: R, disp: i32 },
    /// `d <- heap[(p + x + disp) >> 3]` — indexed addressing.
    LoadX { d: R, p: R, x: R, disp: i32 },
    /// `heap[(p + disp) >> 3] <- s`.
    StoreD { p: R, disp: i32, s: R },
    /// `heap[(p + x + disp) >> 3] <- s`.
    StoreX { p: R, x: R, disp: i32, s: R },
    /// Allocate an object of representation `rep` with `len` fields, all
    /// initialized to `fill`; `d` receives the tagged pointer.
    AllocFill {
        d: R,
        len: RegImm<R>,
        fill: R,
        rep: RepId,
    },
    /// Unconditional jump to instruction index `t`.
    Jump { t: u32 },
    /// `if a cmp b goto t` (b may be an immediate).
    JumpCmp {
        op: CmpOp,
        a: R,
        b: RegImm<R>,
        t: u32,
    },
    /// `d <- globals[g]`.
    GlobalGet { d: R, g: u32 },
    /// `globals[g] <- s`.
    GlobalSet { g: u32, s: R },
    /// Allocate a closure over function `f` capturing `free`.
    MakeClosure { d: R, f: FnId, free: Vec<R> },
    /// Overwrite free slot `idx` of closure `clo` (letrec patching).
    ClosureSet { clo: R, idx: u32, val: R },
    /// Indirect call through a closure value.
    Call { d: R, f: R, args: Vec<R> },
    /// Direct call to a known function (`clo` becomes the callee's closure
    /// register).
    CallKnown { d: R, f: FnId, clo: R, args: Vec<R> },
    /// Indirect tail call.
    TailCall { f: R, args: Vec<R> },
    /// Direct tail call.
    TailCallKnown { f: FnId, clo: R, args: Vec<R> },
    /// Return `s` to the caller.
    Ret { s: R },
    /// Generic representation operation (dynamic dispatch on the rep-type
    /// argument in `args[0]`, except `MakeImm`/`MakePtr`).
    Rep { op: RepVmOp, d: R, args: Vec<R> },
    /// Intern the string in `s`; `d` receives the canonical symbol.
    Intern { d: R, s: R },
    /// Append the character in `s` to the output port.
    WriteChar { s: R },
    /// Raise a runtime error carrying the value in `s`.
    ErrorOp { s: R },
    /// Install a trap handler: if a recoverable trap fires while this
    /// frame (or any callee) runs, the stack unwinds back here, the closure
    /// in `h` is called with the condition value, and its result lands in
    /// `d` with control resuming at instruction index `t`.
    PushHandler { h: R, d: R, t: u32 },
    /// Uninstall the most recent trap handler (normal exit of the
    /// protected extent).
    PopHandler,
    /// Raise the value in `s` as a condition, delivering it to the nearest
    /// handler (terminal `UncaughtCondition` error when none exists).
    RaiseOp { s: R },
    /// Reset the dynamic instruction counters (measurement support; not
    /// itself counted).
    ResetCounters,
}

/// Coarse classification for reporting (Table 2 breaks counts down by
/// class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// ALU and constant/move traffic.
    Arith,
    /// Loads and stores.
    Memory,
    /// Jumps and fused branches.
    Branch,
    /// Calls, returns, closure creation.
    Call,
    /// Allocation.
    Alloc,
    /// Generic (dynamically dispatched) representation operations.
    RepGeneric,
    /// Globals, interning, I/O, everything else.
    Misc,
}

impl InstClass {
    /// All classes, in report order.
    pub const ALL: [InstClass; 7] = [
        InstClass::Arith,
        InstClass::Memory,
        InstClass::Branch,
        InstClass::Call,
        InstClass::Alloc,
        InstClass::RepGeneric,
        InstClass::Misc,
    ];

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Arith => "alu",
            InstClass::Memory => "mem",
            InstClass::Branch => "br",
            InstClass::Call => "call",
            InstClass::Alloc => "alloc",
            InstClass::RepGeneric => "rep",
            InstClass::Misc => "misc",
        }
    }
}

impl<R> Inst<R> {
    /// The reporting class of this instruction.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Const { .. } | Inst::Move { .. } | Inst::Bin { .. } | Inst::BinI { .. } => {
                InstClass::Arith
            }
            Inst::LoadD { .. }
            | Inst::LoadX { .. }
            | Inst::StoreD { .. }
            | Inst::StoreX { .. }
            | Inst::ClosureSet { .. } => InstClass::Memory,
            Inst::Jump { .. } | Inst::JumpCmp { .. } => InstClass::Branch,
            Inst::Call { .. }
            | Inst::CallKnown { .. }
            | Inst::TailCall { .. }
            | Inst::TailCallKnown { .. }
            | Inst::Ret { .. } => InstClass::Call,
            Inst::AllocFill { .. } | Inst::MakeClosure { .. } => InstClass::Alloc,
            Inst::Rep { .. } => InstClass::RepGeneric,
            Inst::Pool { .. }
            | Inst::GlobalGet { .. }
            | Inst::GlobalSet { .. }
            | Inst::Intern { .. }
            | Inst::WriteChar { .. }
            | Inst::ErrorOp { .. }
            | Inst::PushHandler { .. }
            | Inst::PopHandler
            | Inst::RaiseOp { .. }
            | Inst::ResetCounters => InstClass::Misc,
        }
    }
}

impl<R> RegImm<R> {
    fn map<S>(self, f: impl FnOnce(R) -> S) -> RegImm<S> {
        match self {
            RegImm::Reg(r) => RegImm::Reg(f(r)),
            RegImm::Imm(i) => RegImm::Imm(i),
        }
    }
}

impl<R> Inst<R> {
    /// The one visitor over register operands: rebuilds the instruction
    /// with every register operand passed through `f`, the destination
    /// first and then the sources in field order (a `RegImm` operand only
    /// when it is a register).  Struct fields below are written, and so
    /// evaluated, in that order.
    pub fn map_regs<S>(self, mut f: impl FnMut(R) -> S) -> Inst<S> {
        fn list<R, S>(v: Vec<R>, f: &mut impl FnMut(R) -> S) -> Vec<S> {
            v.into_iter().map(f).collect()
        }
        match self {
            Inst::Const { d, imm } => Inst::Const { d: f(d), imm },
            Inst::Pool { d, idx } => Inst::Pool { d: f(d), idx },
            Inst::Move { d, s } => Inst::Move { d: f(d), s: f(s) },
            Inst::Bin { op, d, a, b } => Inst::Bin {
                op,
                d: f(d),
                a: f(a),
                b: f(b),
            },
            Inst::BinI { op, d, a, imm } => Inst::BinI {
                op,
                d: f(d),
                a: f(a),
                imm,
            },
            Inst::LoadD { d, p, disp } => Inst::LoadD {
                d: f(d),
                p: f(p),
                disp,
            },
            Inst::LoadX { d, p, x, disp } => Inst::LoadX {
                d: f(d),
                p: f(p),
                x: f(x),
                disp,
            },
            Inst::StoreD { p, disp, s } => Inst::StoreD {
                p: f(p),
                s: f(s),
                disp,
            },
            Inst::StoreX { p, x, disp, s } => Inst::StoreX {
                p: f(p),
                x: f(x),
                s: f(s),
                disp,
            },
            Inst::AllocFill { d, len, fill, rep } => Inst::AllocFill {
                d: f(d),
                fill: f(fill),
                len: len.map(&mut f),
                rep,
            },
            Inst::Jump { t } => Inst::Jump { t },
            Inst::JumpCmp { op, a, b, t } => Inst::JumpCmp {
                op,
                a: f(a),
                b: b.map(&mut f),
                t,
            },
            Inst::GlobalGet { d, g } => Inst::GlobalGet { d: f(d), g },
            Inst::GlobalSet { g, s } => Inst::GlobalSet { g, s: f(s) },
            Inst::MakeClosure { d, f: fid, free } => {
                let d = f(d);
                Inst::MakeClosure {
                    d,
                    f: fid,
                    free: list(free, &mut f),
                }
            }
            Inst::ClosureSet { clo, idx, val } => Inst::ClosureSet {
                clo: f(clo),
                idx,
                val: f(val),
            },
            Inst::Call { d, f: callee, args } => {
                let (d, callee) = (f(d), f(callee));
                Inst::Call {
                    d,
                    f: callee,
                    args: list(args, &mut f),
                }
            }
            Inst::CallKnown {
                d,
                f: fid,
                clo,
                args,
            } => {
                let (d, clo) = (f(d), f(clo));
                Inst::CallKnown {
                    d,
                    f: fid,
                    clo,
                    args: list(args, &mut f),
                }
            }
            Inst::TailCall { f: callee, args } => {
                let callee = f(callee);
                Inst::TailCall {
                    f: callee,
                    args: list(args, &mut f),
                }
            }
            Inst::TailCallKnown { f: fid, clo, args } => {
                let clo = f(clo);
                Inst::TailCallKnown {
                    f: fid,
                    clo,
                    args: list(args, &mut f),
                }
            }
            Inst::Ret { s } => Inst::Ret { s: f(s) },
            Inst::Rep { op, d, args } => {
                let d = f(d);
                Inst::Rep {
                    op,
                    d,
                    args: list(args, &mut f),
                }
            }
            Inst::Intern { d, s } => Inst::Intern { d: f(d), s: f(s) },
            Inst::WriteChar { s } => Inst::WriteChar { s: f(s) },
            Inst::ErrorOp { s } => Inst::ErrorOp { s: f(s) },
            Inst::PushHandler { h, d, t } => Inst::PushHandler {
                h: f(h),
                d: f(d),
                t,
            },
            Inst::PopHandler => Inst::PopHandler,
            Inst::RaiseOp { s } => Inst::RaiseOp { s: f(s) },
            Inst::ResetCounters => Inst::ResetCounters,
        }
    }

    /// [`Inst::map_regs`] in place: visits every register operand, in the
    /// same order, through `&mut`.
    pub fn regs_mut(&mut self, mut f: impl FnMut(&mut R)) {
        let inst = std::mem::replace(self, Inst::PopHandler);
        *self = inst.map_regs(|mut r| {
            f(&mut r);
            r
        });
    }
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeFun {
    /// Diagnostic name.
    pub name: String,
    /// Number of declared (fixed) parameters.
    pub arity: usize,
    /// True when extra arguments are collected into a rest list (built via
    /// the library's `pair`/`null` representations).
    pub variadic: bool,
    /// Number of registers in a frame (>= arity + 1; register 0 is the
    /// closure).
    pub nregs: usize,
    /// Number of closure free-variable slots.
    pub free_count: usize,
    /// The code.
    pub insts: Vec<Inst>,
    /// `ptr_map[r]` is true when register `r` may hold a *tagged* value (the
    /// precise-GC root map). Raw-word registers are skipped by the
    /// collector.
    pub ptr_map: Vec<bool>,
    /// `free_ptr_map[i]` is true when closure free slot `i` may hold a
    /// tagged value. Raw slots (untagged words the optimizer hoisted across
    /// a lambda) are skipped when the collector scans a closure of this
    /// function. Slots past the end of the map are conservatively scanned,
    /// so an empty map means "scan everything" (hand-built code).
    pub free_ptr_map: Vec<bool>,
}

/// An entry in the constant pool, materialized on the heap by the loader.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolEntry {
    /// A quoted datum.
    Datum(sxr_sexp::Datum),
    /// A first-class representation-type object.
    Rep(RepId),
}

/// A complete loadable program.
#[derive(Debug, Clone, Default)]
pub struct CodeProgram {
    /// All functions; entry point is `main`.
    pub funs: Vec<CodeFun>,
    /// Entry function id.
    pub main: FnId,
    /// Constant pool.
    pub pool: Vec<PoolEntry>,
    /// Number of global slots.
    pub nglobals: usize,
    /// Global names (diagnostics).
    pub global_names: Vec<String>,
    /// The representation registry built at compile time (the library's
    /// layout decisions, which the loader and GC obey).
    pub registry: sxr_ir::rep::RepRegistry,
}

impl Default for CodeFun {
    fn default() -> Self {
        CodeFun {
            name: String::new(),
            arity: 0,
            variadic: false,
            nregs: 1,
            free_count: 0,
            insts: Vec::new(),
            ptr_map: vec![true],
            free_ptr_map: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(Inst::Const { d: 0, imm: 1 }.class(), InstClass::Arith);
        assert_eq!(
            Inst::LoadD {
                d: 0,
                p: 0,
                disp: 7
            }
            .class(),
            InstClass::Memory
        );
        assert_eq!(Inst::<Reg>::Jump { t: 0 }.class(), InstClass::Branch);
        assert_eq!(Inst::Ret { s: 0 }.class(), InstClass::Call);
        assert_eq!(
            Inst::PushHandler { h: 0, d: 0, t: 0 }.class(),
            InstClass::Misc
        );
        assert_eq!(Inst::<Reg>::PopHandler.class(), InstClass::Misc);
        assert_eq!(Inst::RaiseOp { s: 0 }.class(), InstClass::Misc);
        assert_eq!(
            Inst::Rep {
                op: RepVmOp::Ref,
                d: 0,
                args: vec![]
            }
            .class(),
            InstClass::RepGeneric
        );
    }
}
