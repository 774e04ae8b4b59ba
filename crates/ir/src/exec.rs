//! The instruction stepper shared by all four execution engines.
//!
//! The single-context [`Interpreter`](crate::interp::Interpreter), the
//! round-robin functional executor and the cycle-level timing model
//! (`dswp-sim`), and the native multi-threaded runtime (`dswp-rt`) all
//! execute the same IR with the same call/frame discipline. [`step`] is
//! the one definition of what an instruction does: it executes the
//! instruction at the top frame of a call stack and reports the control
//! [`Flow`]. What differs between engines — memory, queues, scheduling and
//! timing — is supplied through the [`Engine`] hooks, so the engines cannot
//! drift apart on value semantics. The exact arithmetic lives next door in
//! [`interp`](crate::interp): [`eval_unary`], [`eval_binary`] and
//! [`eval_cmp`].

use crate::function::Function;
use crate::interp::{eval_binary, eval_cmp, eval_unary};
use crate::op::{Op, Operand};
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId, QueueId};

/// Default maximum number of instructions the single-context
/// [`Interpreter`](crate::interp::Interpreter) executes before it raises
/// [`InterpError::StepLimit`](crate::interp::InterpError::StepLimit).
pub const DEFAULT_STEP_LIMIT: u64 = 200_000_000;

/// Default total step budget, summed over every context, of the
/// multi-context engines: the functional executor and the native runtime.
pub const MULTI_CONTEXT_STEP_LIMIT: u64 = 500_000_000;

/// One call-stack entry of an executing hardware context: the function, its
/// register file, and the program counter (block + index within block).
#[derive(Clone, Debug)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// The function's register file (all registers start at zero).
    pub regs: Vec<i64>,
    /// Current basic block.
    pub block: BlockId,
    /// Index of the next instruction within `block`.
    pub index: usize,
}

impl Frame {
    /// The instruction at this frame's program counter, and its operation.
    #[inline]
    pub fn fetch<'p>(&self, program: &'p Program) -> (InstrId, &'p Op) {
        let func = program.function(self.func);
        let instr = func.block(self.block).instrs()[self.index];
        (instr, func.op(instr))
    }
}

/// Creates a fresh frame for `f`: registers zeroed, control at the entry
/// block.
pub fn new_frame(f: &Function, id: FuncId) -> Frame {
    Frame {
        func: id,
        regs: vec![0; f.num_regs() as usize],
        block: f.entry(),
        index: 0,
    }
}

/// Reads an operand against a register file.
#[inline]
pub fn read_operand(o: Operand, regs: &[i64]) -> i64 {
    match o {
        Operand::Reg(r) => regs[r.index()],
        Operand::Imm(v) => v,
    }
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

/// What an engine supplies to [`step`]: its memory and its queues.
///
/// A queue hook that cannot complete returns `Err(Self::Stop)`; [`step`]
/// then leaves the frame untouched, so the engine may retry the same
/// instruction later (a blocked consume) or give up (a poisoned queue).
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
}

/// Where control went after one [`step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Fell through to the next instruction of the same block.
    Next,
    /// A branch or jump moved the top frame to the start of this block.
    Branch(BlockId),
    /// A call pushed a fresh frame for this function.
    Call(FuncId),
    /// A `ret` popped the top frame.
    Ret,
    /// `halt`, or an indirect call of a negative target (the terminate
    /// sentinel of the DSWP master loop): the context is done. The frame
    /// is left unchanged.
    Halt,
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

/// Why [`step`] did not execute an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepError<S> {
    /// The instruction faulted.
    Fault(Fault),
    /// A queue hook stopped; the frame is unchanged.
    Stop(S),
}

/// Executes the instruction at the top frame of `stack` against `engine`.
///
/// # Errors
///
/// [`StepError::Fault`] when the instruction faults, and
/// [`StepError::Stop`] when one of the engine's queue hooks stops. In both
/// cases the call stack is unchanged.
///
/// # Panics
///
/// Panics if `stack` is empty.
#[inline]
pub fn step<E: Engine>(
    program: &Program,
    stack: &mut Vec<Frame>,
    engine: &mut E,
) -> Result<Flow, StepError<E::Stop>> {
    let depth = stack.len();
    let frame = stack.last_mut().expect("live context has a frame");
    let (_, op) = frame.fetch(program);
    let read = |o: Operand| read_operand(o, &frame.regs);
    let (dst, value) = match *op {
        Op::Const { dst, value } => (dst, value),
        Op::Unary { dst, op, src } => (dst, eval_unary(op, read(src))),
        Op::Binary { dst, op, lhs, rhs } => (dst, eval_binary(op, read(lhs), read(rhs))),
        Op::Cmp { dst, op, lhs, rhs } => (dst, eval_cmp(op, read(lhs), read(rhs))),
        Op::Load {
            dst, addr, offset, ..
        } => {
            let address = frame.regs[addr.index()].wrapping_add(offset);
            let v = engine
                .load(address)
                .ok_or(StepError::Fault(Fault::MemoryOutOfBounds { address }))?;
            (dst, v)
        }
        Op::Consume { queue, dst } => (dst, engine.consume(queue).map_err(StepError::Stop)?),
        Op::QueueDepth { dst, queue } => (dst, engine.depth(queue).map_err(StepError::Stop)?),
        Op::Store {
            src, addr, offset, ..
        } => {
            let address = frame.regs[addr.index()].wrapping_add(offset);
            if !engine.store(address, read(src)) {
                return Err(StepError::Fault(Fault::MemoryOutOfBounds { address }));
            }
            frame.index += 1;
            return Ok(Flow::Next);
        }
        Op::Produce { queue, src } => {
            engine.produce(queue, read(src)).map_err(StepError::Stop)?;
            frame.index += 1;
            return Ok(Flow::Next);
        }
        Op::ProduceToken { queue } => {
            engine.produce(queue, 0).map_err(StepError::Stop)?;
            frame.index += 1;
            return Ok(Flow::Next);
        }
        Op::ConsumeToken { queue } => {
            engine.consume(queue).map_err(StepError::Stop)?;
            frame.index += 1;
            return Ok(Flow::Next);
        }
        Op::Nop => {
            frame.index += 1;
            return Ok(Flow::Next);
        }
        Op::Call { callee } => {
            frame.index += 1;
            stack.push(new_frame(program.function(callee), callee));
            return Ok(Flow::Call(callee));
        }
        Op::CallInd { target } => {
            let v = frame.regs[target.index()];
            if v < 0 {
                return Ok(Flow::Halt);
            }
            let callee = usize::try_from(v)
                .ok()
                .filter(|&i| i < program.functions().len())
                .map(FuncId::from_index)
                .ok_or(StepError::Fault(Fault::BadIndirectTarget(v)))?;
            frame.index += 1;
            stack.push(new_frame(program.function(callee), callee));
            return Ok(Flow::Call(callee));
        }
        Op::Br { cond, then_, else_ } => {
            let target = if frame.regs[cond.index()] != 0 {
                then_
            } else {
                else_
            };
            frame.block = target;
            frame.index = 0;
            return Ok(Flow::Branch(target));
        }
        Op::Jump { target } => {
            frame.block = target;
            frame.index = 0;
            return Ok(Flow::Branch(target));
        }
        Op::Ret => {
            if depth == 1 {
                return Err(StepError::Fault(Fault::ReturnFromEntry));
            }
            stack.pop();
            return Ok(Flow::Ret);
        }
        Op::Halt => return Ok(Flow::Halt),
    };
    frame.regs[dst.index()] = value;
    frame.index += 1;
    Ok(Flow::Next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::Reg;

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
        let frame = new_frame(p.function(main), main);
        assert_eq!(frame.regs, vec![0]);
        assert_eq!(frame.block, p.function(main).entry());
        assert_eq!(frame.index, 0);
    }

    #[test]
    fn operand_reads() {
        let regs = vec![7, 9];
        assert_eq!(read_operand(Operand::Reg(Reg(1)), &regs), 9);
        assert_eq!(read_operand(Operand::Imm(-3), &regs), -3);
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
    /// `queued` (and stop when it is `None`), recording every hook call.
    struct Fake {
        memory: Vec<i64>,
        queued: Option<i64>,
        calls: Vec<Hook>,
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
    }

    type Run = (Vec<Flow>, Option<StepError<&'static str>>, Vec<Frame>, Fake);

    /// Steps `main`, whose blocks are given as IR text, until it halts or
    /// errors. `fn1` is a helper that only returns.
    fn run(main: &str, queued: Option<i64>) -> Run {
        let text = format!(
            "program 2 threads 1 queues 2 memory 0\nthread 0 = fn0\n\
             func main entry bb0 regs 4 {{\n{main}}}\n\
             func helper entry bb0 regs 0 {{\nbb0 entry:\n  ret\n}}\n"
        );
        let p = crate::text::parse_program(&text).unwrap();
        let mut stack = vec![new_frame(p.function(p.main()), p.main())];
        let mut fake = Fake {
            memory: vec![10, 11, 12, 13],
            queued,
            calls: Vec::new(),
        };
        let mut flows = Vec::new();
        let err = loop {
            match step(&p, &mut stack, &mut fake) {
                Ok(flow) => flows.push(flow),
                Err(e) => break Some(e),
            }
            if flows.last() == Some(&Flow::Halt) {
                break None;
            }
        };
        (flows, err, stack, fake)
    }

    #[test]
    fn straight_line_ops_fall_through() {
        let main = "bb0 entry:\n  r0 = 2\n  r1 = M[r0+1]\n  r2 = add r0, r1\n  M[r0-2] = r2\n  \
                    CONSUME r3 = [q1]\n  r0 = DEPTH [q0]\n  nop\n  halt\n";
        let (flows, err, stack, fake) = run(main, Some(5));
        assert_eq!(flows, [vec![Flow::Next; 7], vec![Flow::Halt]].concat());
        assert_eq!(err, None);
        assert_eq!(stack[0].regs, vec![3, 13, 15, 5]);
        assert_eq!(stack[0].index, 7, "halt leaves the frame unchanged");
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
        let (flows, err, stack, _) = run(main, None);
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
        assert_eq!((stack.len(), stack[0].block, stack[0].index), (1, done, 0));
    }

    #[test]
    fn negative_indirect_target_is_the_terminate_sentinel() {
        let (flows, err, stack, _) = run("bb0 entry:\n  r0 = -1\n  call.ind r0\n", None);
        assert_eq!((flows, err), (vec![Flow::Next, Flow::Halt], None));
        assert_eq!((stack.len(), stack[0].index), (1, 1));
    }

    #[test]
    fn faults_leave_the_stack_unchanged() {
        let fault = |main: &str| {
            let (_, err, stack, fake) = run(main, None);
            assert_eq!((stack.len(), stack[0].index), (1, 1));
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
        let (flows, err, stack, fake) = run("bb0 entry:\n  r0 = 9\n  CONSUME r1 = [q0]\n", None);
        assert_eq!(
            (flows, err),
            (vec![Flow::Next], Some(StepError::Stop("empty")))
        );
        assert_eq!((stack[0].index, stack[0].regs[1]), (1, 0));
        assert_eq!(fake.calls, [Hook::Consume(0)]);
    }

    #[test]
    fn tokens_travel_as_zero() {
        let main = "bb0 entry:\n  r0 = 4\n  PRODUCE [q0] = r0\n  PRODUCE.token [q1]\n  \
                    CONSUME.token [q1]\n  halt\n";
        let (_, err, _, fake) = run(main, Some(7));
        assert_eq!(err, None);
        let calls = [Hook::Produce(0, 4), Hook::Produce(1, 0), Hook::Consume(1)];
        assert_eq!(fake.calls, calls);
    }
}
