//! Lowered code and the one executor shared by all four execution engines.
//!
//! The single-context [`Interpreter`](crate::interp::Interpreter), the
//! round-robin functional executor and the cycle-level timing model
//! (`dswp-sim`), and the native multi-threaded runtime (`dswp-rt`) all
//! execute the same IR with the same call/frame discipline. None of them
//! walks the IR while it runs: each lowers the program once into a [`Code`]
//! and executes it with [`Code::run`], the one definition of what an
//! instruction does. What differs between engines — memory, queues,
//! scheduling and timing — is supplied through the [`Engine`] hooks, so the
//! engines cannot drift apart on value semantics. The exact arithmetic
//! lives next door in [`interp`](crate::interp): [`eval_unary`],
//! [`eval_binary`] and [`eval_cmp`].
//!
//! # The lowered form
//!
//! [`Code::new`] turns every function into
//!
//! * one flat instruction array, blocks laid out in block order, with
//!   branch and jump targets resolved to array indices;
//! * a register-file template: the function's registers (zero) followed by
//!   a constant pool holding every immediate operand and load/store offset,
//!   so each operand read is one indexed load with no register/immediate
//!   branch;
//! * instruction tags with the [`BinOp`]/[`CmpOp`]/[`UnOp`] folded in, so
//!   executing an instruction is one dispatch;
//! * the [`InstrId`] of every index, for engines that inspect the IR
//!   instruction at the program counter (the timing model's issue checks,
//!   the interpreter's error report).
//!
//! Lowering neither fuses, elides nor reorders instructions: every IR
//! instruction retires as itself, a `jump` to the next block included.
//!
//! # Step convention
//!
//! [`Code::run`] retires at most `max` instructions and reports how many.
//! `halt`, and an indirect call of a negative target (the terminate sentinel
//! of the DSWP master loop), end the run *without* retiring, but only when
//! one unit of `max` is left for them; engines that count the halt (the
//! interpreter, the timing model) add it themselves.

use std::collections::HashMap;

use crate::function::Function;
use crate::interp::{eval_binary, eval_cmp, eval_unary};
use crate::op::{BinOp, CmpOp, Op, Operand, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId, QueueId, Reg};

/// Default maximum number of instructions the single-context
/// [`Interpreter`](crate::interp::Interpreter) executes before it raises
/// [`InterpError::StepLimit`](crate::interp::InterpError::StepLimit).
pub const DEFAULT_STEP_LIMIT: u64 = 200_000_000;

/// Default total step budget, summed over every context, of the
/// multi-context engines: the functional executor and the native runtime.
pub const MULTI_CONTEXT_STEP_LIMIT: u64 = 500_000_000;

/// One call-stack entry of an executing hardware context: the function, the
/// program counter and the register file.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Index of the next instruction in the function's lowered code.
    pub pc: usize,
    /// The function's registers (all start at zero), followed by its
    /// constant pool.
    pub regs: Vec<i64>,
}

/// A bounds-checked memory read. Returns `None` when `addr` is negative or
/// past the end of memory.
#[inline]
pub fn checked_read(memory: &[i64], addr: i64) -> Option<i64> {
    usize::try_from(addr)
        .ok()
        .and_then(|a| memory.get(a).copied())
}

/// A bounds-checked memory write. Returns `false` when `addr` is out of
/// bounds.
#[inline]
pub fn checked_write(memory: &mut [i64], addr: i64, value: i64) -> bool {
    match usize::try_from(addr).ok().and_then(|a| memory.get_mut(a)) {
        Some(slot) => {
            *slot = value;
            true
        }
        None => false,
    }
}

/// What an engine supplies to [`Code::run`]: its memory and its queues.
///
/// A queue hook that cannot complete returns `Err(Self::Stop)`; the run
/// then ends with the frame at that instruction, so the engine may retry it
/// later (a blocked consume) or give up (a poisoned queue).
pub trait Engine {
    /// Why a queue operation did not complete.
    type Stop;

    /// Reads the word at `addr`; `None` if it is out of bounds.
    fn load(&mut self, addr: i64) -> Option<i64>;

    /// Writes `value` to the word at `addr`; `false` if it is out of bounds.
    fn store(&mut self, addr: i64, value: i64) -> bool;

    /// Appends `value` to `queue`. Token produces send `0`.
    ///
    /// # Errors
    ///
    /// `Self::Stop` when the value cannot be enqueued now.
    fn produce(&mut self, queue: QueueId, value: i64) -> Result<(), Self::Stop>;

    /// Takes the oldest value from `queue`. Token consumes drop it.
    ///
    /// # Errors
    ///
    /// `Self::Stop` when no value can be dequeued now.
    fn consume(&mut self, queue: QueueId) -> Result<i64, Self::Stop>;

    /// The occupancy of `queue` as this context sees it.
    ///
    /// # Errors
    ///
    /// `Self::Stop` when the engine has no queues.
    fn depth(&mut self, queue: QueueId) -> Result<i64, Self::Stop>;

    /// A retired branch, jump or call entered the block that starts at `pc`
    /// of `func`. The interpreter counts block frequencies here; the empty
    /// default compiles away for every other engine.
    #[inline(always)]
    fn enter(&mut self, func: FuncId, pc: usize) {
        let _ = (func, pc);
    }
}

/// An instruction that cannot execute under any engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A load or store addressed a word outside program memory.
    MemoryOutOfBounds {
        /// The faulting word address.
        address: i64,
    },
    /// An indirect call's target register did not hold a valid function id.
    BadIndirectTarget(i64),
    /// `ret` executed in a context's entry frame.
    ReturnFromEntry,
}

/// Why [`Code::run`] returned. Except after [`Exit::Budget`], the top frame
/// is left at the instruction that ended the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit<S> {
    /// `max` instructions retired.
    Budget,
    /// `halt`, or an indirect call of a negative target (the terminate
    /// sentinel of the DSWP master loop): the context is done. Not retired.
    Halt,
    /// A queue hook stopped; the instruction did not retire.
    Stop(S),
    /// The instruction faulted and did not retire.
    Fault(Fault),
}

/// The result of one [`Code::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome<S> {
    /// Instructions retired by this run.
    pub retired: u64,
    /// Why the run ended.
    pub exit: Exit<S>,
}

/// An index into a lowered register file: a register, or a constant-pool
/// entry past the registers.
type Slot = u32;

/// `dst = op src`.
#[derive(Clone, Copy, Debug)]
struct Un {
    dst: Slot,
    src: Slot,
}

/// `dst = lhs op rhs`.
#[derive(Clone, Copy, Debug)]
struct Bin {
    dst: Slot,
    lhs: Slot,
    rhs: Slot,
}

impl Un {
    #[inline(always)]
    fn unary(self, regs: &mut [i64], op: UnOp) {
        regs[self.dst as usize] = eval_unary(op, regs[self.src as usize]);
    }
}

impl Bin {
    #[inline(always)]
    fn binary(self, regs: &mut [i64], op: BinOp) {
        regs[self.dst as usize] = eval_binary(op, regs[self.lhs as usize], regs[self.rhs as usize]);
    }

    #[inline(always)]
    fn cmp(self, regs: &mut [i64], op: CmpOp) {
        regs[self.dst as usize] = eval_cmp(op, regs[self.lhs as usize], regs[self.rhs as usize]);
    }
}

/// A lowered instruction. Branch targets are indices into the function's
/// instruction array; `Const` becomes a `Mov` from the constant pool.
#[derive(Clone, Copy, Debug)]
enum Instr {
    Mov(Un),
    Neg(Un),
    Not(Un),
    IntToFloat(Un),
    FloatToInt(Un),
    Add(Bin),
    Sub(Bin),
    Mul(Bin),
    Div(Bin),
    Rem(Bin),
    And(Bin),
    Or(Bin),
    Xor(Bin),
    Shl(Bin),
    Shr(Bin),
    Min(Bin),
    Max(Bin),
    FAdd(Bin),
    FSub(Bin),
    FMul(Bin),
    FDiv(Bin),
    Eq(Bin),
    Ne(Bin),
    Lt(Bin),
    Le(Bin),
    Gt(Bin),
    Ge(Bin),
    FLt(Bin),
    Load { dst: Slot, addr: Slot, offset: Slot },
    Store { src: Slot, addr: Slot, offset: Slot },
    Produce { queue: QueueId, src: Slot },
    ProduceToken { queue: QueueId },
    Consume { queue: QueueId, dst: Slot },
    ConsumeToken { queue: QueueId },
    Depth { dst: Slot, queue: QueueId },
    Call { callee: FuncId },
    CallInd { target: Slot },
    Br { cond: Slot, then_: u32, else_: u32 },
    Jump { target: u32 },
    Ret,
    Halt,
    Nop,
}

/// One lowered function.
#[derive(Clone, Debug)]
struct Lowered {
    instrs: Vec<Instr>,
    /// The IR instruction at each index of `instrs`.
    ids: Vec<InstrId>,
    /// The index of each block's first instruction.
    starts: Vec<usize>,
    /// A fresh register file: zeroed registers, then the constant pool.
    template: Vec<i64>,
    num_regs: usize,
    entry: usize,
}

/// A whole program lowered for execution; see the [module docs](self).
///
/// Lowering expects a verified program: every block non-empty and ending
/// in its terminator, every branch target in range.
#[derive(Clone, Debug)]
pub struct Code {
    funcs: Vec<Lowered>,
}

/// Where control goes when the top frame stops executing.
enum Transfer<S> {
    Call(FuncId),
    Ret,
    Exit(Exit<S>),
}

/// `i` as a 32-bit lowered index.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("lowered index exceeds 32 bits")
}

fn lower(f: &Function) -> Lowered {
    let num_regs = f.num_regs() as usize;
    // Size the registers to cover every register the code names, so the
    // pool can never alias one, even in an unverified function.
    let width = f
        .instr_ids()
        .flat_map(|(_, i)| {
            let op = f.op(i);
            op.def().into_iter().chain(op.use_regs())
        })
        .map(|r| r.index() + 1)
        .fold(num_regs, usize::max);
    let mut starts = Vec::with_capacity(f.num_blocks());
    let mut len = 0;
    for b in f.block_ids() {
        starts.push(len);
        len += f.block(b).instrs().len();
    }

    let mut template = vec![0; width];
    let mut pool: HashMap<i64, Slot> = HashMap::new();
    let mut constant = |v: i64| {
        *pool.entry(v).or_insert_with(|| {
            template.push(v);
            narrow(template.len() - 1)
        })
    };
    let reg = |r: Reg| r.0;
    let mut slot = |o: Operand| match o {
        Operand::Reg(r) => r.0,
        Operand::Imm(v) => constant(v),
    };
    let target = |b: BlockId| narrow(starts[b.index()]);

    let mut instrs = Vec::with_capacity(len);
    let mut ids = Vec::with_capacity(len);
    for (_, id) in f.instr_ids() {
        let instr = match *f.op(id) {
            Op::Const { dst, value } => Instr::Mov(Un {
                dst: reg(dst),
                src: slot(Operand::Imm(value)),
            }),
            Op::Unary { dst, op, src } => {
                let u = Un {
                    dst: reg(dst),
                    src: slot(src),
                };
                match op {
                    UnOp::Mov => Instr::Mov(u),
                    UnOp::Neg => Instr::Neg(u),
                    UnOp::Not => Instr::Not(u),
                    UnOp::IntToFloat => Instr::IntToFloat(u),
                    UnOp::FloatToInt => Instr::FloatToInt(u),
                }
            }
            Op::Binary { dst, op, lhs, rhs } => {
                let b = Bin {
                    dst: reg(dst),
                    lhs: slot(lhs),
                    rhs: slot(rhs),
                };
                match op {
                    BinOp::Add => Instr::Add(b),
                    BinOp::Sub => Instr::Sub(b),
                    BinOp::Mul => Instr::Mul(b),
                    BinOp::Div => Instr::Div(b),
                    BinOp::Rem => Instr::Rem(b),
                    BinOp::And => Instr::And(b),
                    BinOp::Or => Instr::Or(b),
                    BinOp::Xor => Instr::Xor(b),
                    BinOp::Shl => Instr::Shl(b),
                    BinOp::Shr => Instr::Shr(b),
                    BinOp::Min => Instr::Min(b),
                    BinOp::Max => Instr::Max(b),
                    BinOp::FAdd => Instr::FAdd(b),
                    BinOp::FSub => Instr::FSub(b),
                    BinOp::FMul => Instr::FMul(b),
                    BinOp::FDiv => Instr::FDiv(b),
                }
            }
            Op::Cmp { dst, op, lhs, rhs } => {
                let b = Bin {
                    dst: reg(dst),
                    lhs: slot(lhs),
                    rhs: slot(rhs),
                };
                match op {
                    CmpOp::Eq => Instr::Eq(b),
                    CmpOp::Ne => Instr::Ne(b),
                    CmpOp::Lt => Instr::Lt(b),
                    CmpOp::Le => Instr::Le(b),
                    CmpOp::Gt => Instr::Gt(b),
                    CmpOp::Ge => Instr::Ge(b),
                    CmpOp::FLt => Instr::FLt(b),
                }
            }
            Op::Load {
                dst, addr, offset, ..
            } => Instr::Load {
                dst: reg(dst),
                addr: reg(addr),
                offset: slot(Operand::Imm(offset)),
            },
            Op::Store {
                src, addr, offset, ..
            } => Instr::Store {
                src: slot(src),
                addr: reg(addr),
                offset: slot(Operand::Imm(offset)),
            },
            Op::Produce { queue, src } => Instr::Produce {
                queue,
                src: slot(src),
            },
            Op::ProduceToken { queue } => Instr::ProduceToken { queue },
            Op::Consume { queue, dst } => Instr::Consume {
                queue,
                dst: reg(dst),
            },
            Op::ConsumeToken { queue } => Instr::ConsumeToken { queue },
            Op::QueueDepth { dst, queue } => Instr::Depth {
                dst: reg(dst),
                queue,
            },
            Op::Call { callee } => Instr::Call { callee },
            Op::CallInd { target } => Instr::CallInd {
                target: reg(target),
            },
            Op::Br { cond, then_, else_ } => Instr::Br {
                cond: reg(cond),
                then_: target(then_),
                else_: target(else_),
            },
            Op::Jump { target: t } => Instr::Jump { target: target(t) },
            Op::Ret => Instr::Ret,
            Op::Halt => Instr::Halt,
            Op::Nop => Instr::Nop,
        };
        instrs.push(instr);
        ids.push(id);
    }
    Lowered {
        instrs,
        ids,
        entry: starts[f.entry().index()],
        starts,
        template,
        num_regs,
    }
}

impl Code {
    /// Lowers every function of `program`.
    ///
    /// # Panics
    ///
    /// Panics if a branch names a block its function does not have.
    pub fn new(program: &Program) -> Self {
        Code {
            funcs: program.functions().iter().map(lower).collect(),
        }
    }

    /// A fresh frame for `func`: registers zeroed, control at the entry
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn frame(&self, func: FuncId) -> Frame {
        let f = &self.funcs[func.index()];
        Frame {
            func,
            pc: f.entry,
            regs: f.template.clone(),
        }
    }

    /// The IR instruction at `frame`'s program counter.
    ///
    /// # Panics
    ///
    /// Panics if the frame's program counter is past its function's code.
    pub fn instr_id(&self, frame: &Frame) -> InstrId {
        self.funcs[frame.func.index()].ids[frame.pc]
    }

    /// The index of the first instruction of `block` in `func`'s code.
    ///
    /// # Panics
    ///
    /// Panics if `func` or `block` is out of range.
    pub fn block_start(&self, func: FuncId, block: BlockId) -> usize {
        self.funcs[func.index()].starts[block.index()]
    }

    /// The registers of the bottom (entry) frame of `stack`, without the
    /// constant pool; empty for an empty stack.
    pub fn entry_regs(&self, stack: &[Frame]) -> Vec<i64> {
        stack
            .first()
            .map(|f| f.regs[..self.funcs[f.func.index()].num_regs].to_vec())
            .unwrap_or_default()
    }

    /// Executes the top frame of `stack` against `engine`, following calls
    /// and returns, until `max` instructions have retired or an instruction
    /// ends the run (see [`Exit`]).
    ///
    /// # Panics
    ///
    /// Panics if `stack` is empty.
    pub fn run<E: Engine>(
        &self,
        stack: &mut Vec<Frame>,
        engine: &mut E,
        max: u64,
    ) -> Outcome<E::Stop> {
        let mut retired = 0;
        let exit = loop {
            let depth = stack.len();
            let frame = stack.last_mut().expect("live context has a frame");
            let func = frame.func;
            let code = &self.funcs[func.index()].instrs[..];
            let regs = &mut frame.regs[..];
            let mut pc = frame.pc;
            let transfer = loop {
                if retired == max {
                    break Transfer::Exit(Exit::Budget);
                }
                match code[pc] {
                    Instr::Mov(u) => u.unary(regs, UnOp::Mov),
                    Instr::Neg(u) => u.unary(regs, UnOp::Neg),
                    Instr::Not(u) => u.unary(regs, UnOp::Not),
                    Instr::IntToFloat(u) => u.unary(regs, UnOp::IntToFloat),
                    Instr::FloatToInt(u) => u.unary(regs, UnOp::FloatToInt),
                    Instr::Add(b) => b.binary(regs, BinOp::Add),
                    Instr::Sub(b) => b.binary(regs, BinOp::Sub),
                    Instr::Mul(b) => b.binary(regs, BinOp::Mul),
                    Instr::Div(b) => b.binary(regs, BinOp::Div),
                    Instr::Rem(b) => b.binary(regs, BinOp::Rem),
                    Instr::And(b) => b.binary(regs, BinOp::And),
                    Instr::Or(b) => b.binary(regs, BinOp::Or),
                    Instr::Xor(b) => b.binary(regs, BinOp::Xor),
                    Instr::Shl(b) => b.binary(regs, BinOp::Shl),
                    Instr::Shr(b) => b.binary(regs, BinOp::Shr),
                    Instr::Min(b) => b.binary(regs, BinOp::Min),
                    Instr::Max(b) => b.binary(regs, BinOp::Max),
                    Instr::FAdd(b) => b.binary(regs, BinOp::FAdd),
                    Instr::FSub(b) => b.binary(regs, BinOp::FSub),
                    Instr::FMul(b) => b.binary(regs, BinOp::FMul),
                    Instr::FDiv(b) => b.binary(regs, BinOp::FDiv),
                    Instr::Eq(b) => b.cmp(regs, CmpOp::Eq),
                    Instr::Ne(b) => b.cmp(regs, CmpOp::Ne),
                    Instr::Lt(b) => b.cmp(regs, CmpOp::Lt),
                    Instr::Le(b) => b.cmp(regs, CmpOp::Le),
                    Instr::Gt(b) => b.cmp(regs, CmpOp::Gt),
                    Instr::Ge(b) => b.cmp(regs, CmpOp::Ge),
                    Instr::FLt(b) => b.cmp(regs, CmpOp::FLt),
                    Instr::Load { dst, addr, offset } => {
                        let address = regs[addr as usize].wrapping_add(regs[offset as usize]);
                        match engine.load(address) {
                            Some(v) => regs[dst as usize] = v,
                            None => {
                                let fault = Fault::MemoryOutOfBounds { address };
                                break Transfer::Exit(Exit::Fault(fault));
                            }
                        }
                    }
                    Instr::Store { src, addr, offset } => {
                        let address = regs[addr as usize].wrapping_add(regs[offset as usize]);
                        if !engine.store(address, regs[src as usize]) {
                            let fault = Fault::MemoryOutOfBounds { address };
                            break Transfer::Exit(Exit::Fault(fault));
                        }
                    }
                    Instr::Produce { queue, src } => {
                        if let Err(s) = engine.produce(queue, regs[src as usize]) {
                            break Transfer::Exit(Exit::Stop(s));
                        }
                    }
                    Instr::ProduceToken { queue } => {
                        if let Err(s) = engine.produce(queue, 0) {
                            break Transfer::Exit(Exit::Stop(s));
                        }
                    }
                    Instr::Consume { queue, dst } => match engine.consume(queue) {
                        Ok(v) => regs[dst as usize] = v,
                        Err(s) => break Transfer::Exit(Exit::Stop(s)),
                    },
                    Instr::ConsumeToken { queue } => {
                        if let Err(s) = engine.consume(queue) {
                            break Transfer::Exit(Exit::Stop(s));
                        }
                    }
                    Instr::Depth { dst, queue } => match engine.depth(queue) {
                        Ok(v) => regs[dst as usize] = v,
                        Err(s) => break Transfer::Exit(Exit::Stop(s)),
                    },
                    Instr::Nop => {}
                    Instr::Br { cond, then_, else_ } => {
                        pc = if regs[cond as usize] != 0 {
                            then_
                        } else {
                            else_
                        } as usize;
                        retired += 1;
                        engine.enter(func, pc);
                        continue;
                    }
                    Instr::Jump { target } => {
                        pc = target as usize;
                        retired += 1;
                        engine.enter(func, pc);
                        continue;
                    }
                    Instr::Call { callee } => {
                        pc += 1;
                        retired += 1;
                        break Transfer::Call(callee);
                    }
                    Instr::CallInd { target } => {
                        let v = regs[target as usize];
                        if v < 0 {
                            break Transfer::Exit(Exit::Halt);
                        }
                        match usize::try_from(v).ok().filter(|&i| i < self.funcs.len()) {
                            Some(callee) => {
                                pc += 1;
                                retired += 1;
                                break Transfer::Call(FuncId::from_index(callee));
                            }
                            None => break Transfer::Exit(Exit::Fault(Fault::BadIndirectTarget(v))),
                        }
                    }
                    Instr::Ret => {
                        if depth == 1 {
                            break Transfer::Exit(Exit::Fault(Fault::ReturnFromEntry));
                        }
                        retired += 1;
                        break Transfer::Ret;
                    }
                    Instr::Halt => break Transfer::Exit(Exit::Halt),
                }
                pc += 1;
                retired += 1;
            };
            frame.pc = pc;
            match transfer {
                Transfer::Call(callee) => {
                    let callee_frame = self.frame(callee);
                    engine.enter(callee, callee_frame.pc);
                    stack.push(callee_frame);
                }
                Transfer::Ret => {
                    stack.pop();
                }
                Transfer::Exit(exit) => break exit,
            }
        };
        Outcome { retired, exit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn frames_start_zeroed_at_entry() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let r = f.reg();
        f.switch_to(e);
        f.iconst(r, 1);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let code = Code::new(&p);
        let frame = code.frame(main);
        assert_eq!(code.entry_regs(std::slice::from_ref(&frame)), vec![0]);
        assert_eq!(frame.pc, code.block_start(main, p.function(main).entry()));
    }

    #[test]
    fn immediates_and_offsets_live_in_the_pool_past_the_registers() {
        let text = "program 1 threads 1 queues 0 memory 4\nthread 0 = fn0\n\
                    func main entry bb0 regs 2 {\nbb0 entry:\n  r0 = 2\n  \
                    r1 = add r0, 2\n  M[r0+1] = 7\n  halt\n}\n";
        let p = crate::text::parse_program(text).unwrap();
        let code = Code::new(&p);
        // Registers r0 and r1, then the distinct constants in order of first
        // use: 2, the stored 7, the offset 1.
        assert_eq!(code.frame(p.main()).regs, vec![0, 0, 2, 7, 1]);
    }

    #[test]
    fn checked_memory_access() {
        let mut mem = vec![1, 2, 3];
        assert_eq!(checked_read(&mem, 2), Some(3));
        assert_eq!(checked_read(&mem, 3), None);
        assert_eq!(checked_read(&mem, -1), None);
        assert!(checked_write(&mut mem, 0, 42));
        assert_eq!(mem[0], 42);
        assert!(!checked_write(&mut mem, 99, 0));
    }

    /// A hook call seen by [`Fake`].
    #[derive(Debug, PartialEq, Eq)]
    enum Hook {
        Load(i64),
        Store(i64, i64),
        Produce(u32, i64),
        Consume(u32),
        Depth(u32),
    }

    /// An engine with memory `[10, 11, 12, 13]` whose queues always hold
    /// `queued` (and stop when it is `None`), recording every hook call and
    /// the last block entered.
    struct Fake {
        memory: Vec<i64>,
        queued: Option<i64>,
        calls: Vec<Hook>,
        entered: Option<usize>,
    }

    impl Engine for Fake {
        type Stop = &'static str;

        fn load(&mut self, addr: i64) -> Option<i64> {
            self.calls.push(Hook::Load(addr));
            checked_read(&self.memory, addr)
        }

        fn store(&mut self, addr: i64, value: i64) -> bool {
            self.calls.push(Hook::Store(addr, value));
            checked_write(&mut self.memory, addr, value)
        }

        fn produce(&mut self, q: QueueId, value: i64) -> Result<(), &'static str> {
            self.calls.push(Hook::Produce(q.0, value));
            self.queued.map(|_| ()).ok_or("full")
        }

        fn consume(&mut self, q: QueueId) -> Result<i64, &'static str> {
            self.calls.push(Hook::Consume(q.0));
            self.queued.ok_or("empty")
        }

        fn depth(&mut self, q: QueueId) -> Result<i64, &'static str> {
            self.calls.push(Hook::Depth(q.0));
            Ok(3)
        }

        fn enter(&mut self, _: FuncId, pc: usize) {
            self.entered = Some(pc);
        }
    }

    /// Where control went after one instruction, as observed from the
    /// outside of a one-instruction [`Code::run`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Flow {
        Next,
        Branch(BlockId),
        Call(FuncId),
        Ret,
        Halt,
    }

    /// Why the run of [`run`] stopped early.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum StepError {
        Fault(Fault),
        Stop(&'static str),
    }

    type Run = (Vec<Flow>, Option<StepError>, Vec<Frame>, Fake, Code);

    /// The program whose `main` has the blocks given as IR text; `fn1` is a
    /// helper that only returns.
    fn program(main: &str) -> Program {
        let text = format!(
            "program 2 threads 1 queues 2 memory 0\nthread 0 = fn0\n\
             func main entry bb0 regs 4 {{\n{main}}}\n\
             func helper entry bb0 regs 0 {{\nbb0 entry:\n  ret\n}}\n"
        );
        crate::text::parse_program(&text).unwrap()
    }

    /// Executes `main` one instruction per [`Code::run`] until it halts or
    /// errors, recording the control flow of each retired instruction.
    fn run(main: &str, queued: Option<i64>) -> Run {
        let p = program(main);
        let code = Code::new(&p);
        let mut stack = vec![code.frame(p.main())];
        let mut fake = Fake {
            memory: vec![10, 11, 12, 13],
            queued,
            calls: Vec::new(),
            entered: None,
        };
        let mut flows = Vec::new();
        let err = loop {
            let depth = stack.len();
            let out = code.run(&mut stack, &mut fake, 1);
            let entered = fake.entered.take();
            let flow = match out.exit {
                Exit::Budget => match stack.len().cmp(&depth) {
                    std::cmp::Ordering::Greater => Flow::Call(stack[depth].func),
                    std::cmp::Ordering::Less => Flow::Ret,
                    std::cmp::Ordering::Equal => match entered {
                        Some(pc) => {
                            let func = stack[depth - 1].func;
                            let blocks = p.function(func).block_ids();
                            let mut at = blocks.filter(|&b| code.block_start(func, b) == pc);
                            Flow::Branch(at.next().expect("a block starts there"))
                        }
                        None => Flow::Next,
                    },
                },
                Exit::Halt => Flow::Halt,
                Exit::Stop(s) => break Some(StepError::Stop(s)),
                Exit::Fault(f) => break Some(StepError::Fault(f)),
            };
            assert_eq!(out.retired, u64::from(flow != Flow::Halt));
            flows.push(flow);
            if flow == Flow::Halt {
                break None;
            }
        };
        (flows, err, stack, fake, code)
    }

    #[test]
    fn straight_line_ops_fall_through() {
        let main = "bb0 entry:\n  r0 = 2\n  r1 = M[r0+1]\n  r2 = add r0, r1\n  M[r0-2] = r2\n  \
                    CONSUME r3 = [q1]\n  r0 = DEPTH [q0]\n  nop\n  halt\n";
        let (flows, err, stack, fake, code) = run(main, Some(5));
        assert_eq!(flows, [vec![Flow::Next; 7], vec![Flow::Halt]].concat());
        assert_eq!(err, None);
        assert_eq!(code.entry_regs(&stack), vec![3, 13, 15, 5]);
        assert_eq!(stack[0].pc, 7, "halt leaves the frame unchanged");
        assert_eq!(fake.memory[0], 15);
        let calls = [
            Hook::Load(3),
            Hook::Store(0, 15),
            Hook::Consume(1),
            Hook::Depth(0),
        ];
        assert_eq!(fake.calls, calls);
    }

    #[test]
    fn branches_calls_and_returns_report_their_flow() {
        use Flow::*;
        let main = "bb0 entry:\n  r0 = 1\n  br r0, bb1, bb2\nbb1 then:\n  call fn1\n  \
                    r1 = 1\n  call.ind r1\n  jump bb2\nbb2 done:\n  halt\n";
        let (flows, err, stack, _, code) = run(main, None);
        let (helper, then_, done) = (FuncId(1), BlockId(1), BlockId(2));
        let expect = vec![
            Next,
            Branch(then_),
            Call(helper),
            Ret,
            Next,
            Call(helper),
            Ret,
            Branch(done),
            Halt,
        ];
        assert_eq!(flows, expect);
        assert_eq!(err, None);
        let done_pc = code.block_start(FuncId(0), done);
        assert_eq!((stack.len(), stack[0].pc), (1, done_pc));
    }

    #[test]
    fn negative_indirect_target_is_the_terminate_sentinel() {
        let (flows, err, stack, _, _) = run("bb0 entry:\n  r0 = -1\n  call.ind r0\n", None);
        assert_eq!((flows, err), (vec![Flow::Next, Flow::Halt], None));
        assert_eq!((stack.len(), stack[0].pc), (1, 1));
    }

    #[test]
    fn faults_leave_the_stack_unchanged() {
        let fault = |main: &str| {
            let (_, err, stack, fake, _) = run(main, None);
            assert_eq!((stack.len(), stack[0].pc), (1, 1));
            assert_eq!(fake.memory, vec![10, 11, 12, 13]);
            err
        };
        let oob = |address| Some(StepError::Fault(Fault::MemoryOutOfBounds { address }));
        assert_eq!(fault("bb0 entry:\n  r0 = 4\n  r1 = M[r0+0]\n"), oob(4));
        assert_eq!(fault("bb0 entry:\n  r0 = 1\n  M[r0-2] = r0\n"), oob(-1));
        assert_eq!(
            fault("bb0 entry:\n  r0 = 2\n  call.ind r0\n"),
            Some(StepError::Fault(Fault::BadIndirectTarget(2)))
        );
        assert_eq!(
            fault("bb0 entry:\n  nop\n  ret\n"),
            Some(StepError::Fault(Fault::ReturnFromEntry))
        );
    }

    #[test]
    fn a_stopped_consume_leaves_the_frame_for_a_retry() {
        let (flows, err, stack, fake, _) = run("bb0 entry:\n  r0 = 9\n  CONSUME r1 = [q0]\n", None);
        assert_eq!(
            (flows, err),
            (vec![Flow::Next], Some(StepError::Stop("empty")))
        );
        assert_eq!((stack[0].pc, stack[0].regs[1]), (1, 0));
        assert_eq!(fake.calls, [Hook::Consume(0)]);
    }

    #[test]
    fn tokens_travel_as_zero() {
        let main = "bb0 entry:\n  r0 = 4\n  PRODUCE [q0] = r0\n  PRODUCE.token [q1]\n  \
                    CONSUME.token [q1]\n  halt\n";
        let (_, err, _, fake, _) = run(main, Some(7));
        assert_eq!(err, None);
        let calls = [Hook::Produce(0, 4), Hook::Produce(1, 0), Hook::Consume(1)];
        assert_eq!(fake.calls, calls);
    }

    #[test]
    fn a_budget_splits_a_run_at_exact_instruction_boundaries() {
        // A loop of 3 × 4 + 3 instructions around a call, before the halt.
        let main = "bb0 entry:\n  r0 = 0\n  jump bb1\nbb1 loop:\n  r0 = add r0, 1\n  \
                    r1 = (r0 < 4)\n  br r1, bb1, bb2\nbb2 done:\n  call fn1\n  halt\n";
        let p = program(main);
        let code = Code::new(&p);
        let fake = || Fake {
            memory: Vec::new(),
            queued: None,
            calls: Vec::new(),
            entered: None,
        };
        // In one go: 2 + 12 + call + ret retire, then the halt ends the run.
        let mut stack = vec![code.frame(p.main())];
        let whole = code.run(&mut stack, &mut fake(), u64::MAX);
        assert_eq!((whole.retired, whole.exit), (16, Exit::Halt));
        // In budgets of 5: the same instructions, and the halt needs one
        // unit of budget of its own.
        let mut stack = vec![code.frame(p.main())];
        let mut engine = fake();
        let runs: Vec<Outcome<_>> = (0..4)
            .map(|_| code.run(&mut stack, &mut engine, 5))
            .collect();
        let retired: Vec<u64> = runs.iter().map(|o| o.retired).collect();
        assert_eq!(retired, [5, 5, 5, 1]);
        assert_eq!(runs[2].exit, Exit::Budget);
        assert_eq!(runs[3].exit, Exit::Halt);
        assert_eq!(code.entry_regs(&stack), [4, 0, 0, 0]);
        // A zero budget retires nothing, not even the halt.
        let zero = code.run(&mut stack, &mut engine, 0);
        assert_eq!((zero.retired, zero.exit), (0, Exit::Budget));
    }
}
