//! A single-context functional interpreter.
//!
//! The interpreter executes one hardware context (thread) with exact,
//! deterministic semantics and no timing model. It is used for
//!
//! * running baseline (un-transformed) programs,
//! * collecting the block-frequency [`Profile`] the DSWP partitioning
//!   heuristic consumes (the paper uses IMPACT's profiling tools,
//!   Section 2.2.2),
//! * serving as the correctness oracle against which DSWP-transformed
//!   programs are compared.
//!
//! A run lowers the program into a [`Code`] and executes it in one
//! [`Code::run`], the executor every engine shares; the interpreter
//! supplies plain memory, counts steps (`halt` included) and profiles
//! through the [`Engine::enter`] hook, which fires on every retired branch,
//! jump and call. Queue instructions cannot execute in a single context
//! and yield [`InterpError::QueueOpInSingleThread`]; transformed programs
//! run on the multi-context engines, which execute the same lowered code.
//! The exact arithmetic is defined here: [`eval_unary`], [`eval_binary`]
//! and [`eval_cmp`].

use std::fmt;

pub use crate::exec::DEFAULT_STEP_LIMIT;
use crate::exec::{checked_read, checked_write, Code, Engine, Exit, Fault};
use crate::op::{BinOp, CmpOp, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId, QueueId};

/// Errors raised during interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// A load or store addressed a word outside the program memory.
    MemoryOutOfBounds {
        /// The faulting word address.
        address: i64,
        /// The memory size in words.
        size: usize,
    },
    /// A queue instruction was executed in a single-context interpreter.
    QueueOpInSingleThread(InstrId),
    /// An indirect call's target register did not hold a valid function id.
    BadIndirectTarget(i64),
    /// The configured step limit was exceeded (runaway loop guard).
    StepLimit(u64),
    /// `ret` executed with an empty call stack in a context whose entry
    /// function is expected to `halt`.
    ReturnFromEntry,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MemoryOutOfBounds { address, size } => {
                write!(
                    f,
                    "memory access at word {address} out of bounds (size {size})"
                )
            }
            InterpError::QueueOpInSingleThread(i) => {
                write!(
                    f,
                    "queue instruction {i} executed in a single-context interpreter"
                )
            }
            InterpError::BadIndirectTarget(v) => {
                write!(f, "indirect call target {v} is not a valid function id")
            }
            InterpError::StepLimit(n) => write!(f, "step limit of {n} instructions exceeded"),
            InterpError::ReturnFromEntry => write!(f, "ret executed with an empty call stack"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Exact value semantics of unary operations.
#[inline]
pub fn eval_unary(op: UnOp, v: i64) -> i64 {
    match op {
        UnOp::Mov => v,
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => !v,
        UnOp::IntToFloat => (v as f64).to_bits() as i64,
        UnOp::FloatToInt => {
            let x = f64::from_bits(v as u64);
            if x.is_nan() {
                0
            } else {
                x as i64
            }
        }
    }
}

/// Exact value semantics of binary operations (wrapping; division by zero
/// yields 0).
#[inline]
pub fn eval_binary(op: BinOp, a: i64, b: i64) -> i64 {
    let fa = || f64::from_bits(a as u64);
    let fb = || f64::from_bits(b as u64);
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::FAdd => (fa() + fb()).to_bits() as i64,
        BinOp::FSub => (fa() - fb()).to_bits() as i64,
        BinOp::FMul => (fa() * fb()).to_bits() as i64,
        BinOp::FDiv => (fa() / fb()).to_bits() as i64,
    }
}

/// Exact value semantics of comparisons (result is 0 or 1).
#[inline]
pub fn eval_cmp(op: CmpOp, a: i64, b: i64) -> i64 {
    let r = match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::FLt => f64::from_bits(a as u64) < f64::from_bits(b as u64),
    };
    r as i64
}

/// Block execution frequencies collected by a profiling run.
///
/// This is the analogue of the paper's edge/block profile weights used by
/// the load-balance heuristic (Section 2.2.2).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    weights: Vec<Vec<u64>>,
}

impl Profile {
    /// Creates an all-zero profile shaped like `program`.
    pub fn zeroed(program: &Program) -> Self {
        Profile {
            weights: program
                .functions()
                .iter()
                .map(|f| vec![0; f.num_blocks()])
                .collect(),
        }
    }

    /// The number of times `block` of `func` executed.
    pub fn weight(&self, func: FuncId, block: BlockId) -> u64 {
        self.weights
            .get(func.index())
            .and_then(|w| w.get(block.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Merges another profile into this one by summing weights.
    pub fn merge(&mut self, other: &Profile) {
        for (fs, fo) in self.weights.iter_mut().zip(&other.weights) {
            for (ws, wo) in fs.iter_mut().zip(fo) {
                *ws += wo;
            }
        }
    }
}

/// The observable result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Final shared memory image.
    pub memory: Vec<i64>,
    /// Registers of the entry (bottom) frame at halt.
    pub entry_regs: Vec<i64>,
    /// Number of instructions executed.
    pub steps: u64,
    /// Block-frequency profile of the run.
    pub profile: Profile,
}

/// Single-context functional interpreter over a [`Program`].
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    step_limit: u64,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter for `program` with the default step limit.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            step_limit: DEFAULT_STEP_LIMIT,
        }
    }

    /// Overrides the step limit (runaway guard).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Runs the program's main thread to `halt`.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError`] on memory faults, queue instructions,
    /// invalid indirect calls or step-limit exhaustion.
    pub fn run(&self) -> Result<RunResult, InterpError> {
        let program = self.program;
        let code = Code::new(program);
        let mut engine = SingleContext {
            memory: program.initial_memory.clone(),
            entries: program
                .functions()
                .iter()
                .map(|f| vec![0; f.num_instrs()])
                .collect(),
        };
        let entry = program.main();
        let mut stack = vec![code.frame(entry)];
        engine.enter(entry, stack[0].pc);

        let out = code.run(&mut stack, &mut engine, self.step_limit);
        match out.exit {
            Exit::Halt => {}
            Exit::Budget => return Err(InterpError::StepLimit(self.step_limit)),
            Exit::Stop(QueueOp) => {
                let instr = code.instr_id(&stack[stack.len() - 1]);
                return Err(InterpError::QueueOpInSingleThread(instr));
            }
            Exit::Fault(f) => {
                return Err(match f {
                    Fault::MemoryOutOfBounds { address } => InterpError::MemoryOutOfBounds {
                        address,
                        size: engine.memory.len(),
                    },
                    Fault::BadIndirectTarget(v) => InterpError::BadIndirectTarget(v),
                    Fault::ReturnFromEntry => InterpError::ReturnFromEntry,
                })
            }
        }

        // A block's weight is the count of entries at its first instruction
        // (an empty block, which a verified program never has, has none).
        let weights = program
            .functions()
            .iter()
            .zip(&engine.entries)
            .enumerate()
            .map(|(fi, (f, entries))| {
                let func = FuncId::from_index(fi);
                f.block_ids()
                    .map(|b| match f.block(b).instrs() {
                        [] => 0,
                        _ => entries[code.block_start(func, b)],
                    })
                    .collect()
            })
            .collect();
        Ok(RunResult {
            memory: engine.memory,
            entry_regs: code.entry_regs(&stack),
            // The final `halt` counts as a step.
            steps: out.retired + 1,
            profile: Profile { weights },
        })
    }
}

/// The interpreter's [`Engine`]: program memory, no queues, and the number
/// of times control entered each instruction index of each function.
struct SingleContext {
    memory: Vec<i64>,
    entries: Vec<Vec<u64>>,
}

/// A queue instruction reached the single-context interpreter.
struct QueueOp;

impl Engine for SingleContext {
    type Stop = QueueOp;

    fn load(&mut self, addr: i64) -> Option<i64> {
        checked_read(&self.memory, addr)
    }

    fn store(&mut self, addr: i64, value: i64) -> bool {
        checked_write(&mut self.memory, addr, value)
    }

    fn produce(&mut self, _: QueueId, _: i64) -> Result<(), QueueOp> {
        Err(QueueOp)
    }

    fn consume(&mut self, _: QueueId) -> Result<i64, QueueOp> {
        Err(QueueOp)
    }

    fn depth(&mut self, _: QueueId) -> Result<i64, QueueOp> {
        Err(QueueOp)
    }

    fn enter(&mut self, func: FuncId, pc: usize) {
        self.entries[func.index()][pc] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    fn sum_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, sum, limit, base, done) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(sum, 0);
        f.iconst(limit, n);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, limit);
        f.br(done, exit, body);
        f.switch_to(body);
        f.add(sum, sum, i);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(sum, base, 0);
        f.halt();
        let main = f.finish();
        pb.finish(main, 4)
    }

    #[test]
    fn computes_triangular_numbers() {
        let p = sum_loop(100);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 4950);
    }

    #[test]
    fn profile_counts_block_frequencies() {
        let p = sum_loop(10);
        let r = Interpreter::new(&p).run().unwrap();
        let main = p.main();
        // header executes 11 times (10 body iterations + exit test).
        assert_eq!(r.profile.weight(main, BlockId(1)), 11);
        assert_eq!(r.profile.weight(main, BlockId(2)), 10);
        assert_eq!(r.profile.weight(main, BlockId(0)), 1);
        assert_eq!(r.profile.weight(main, BlockId(3)), 1);
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.jump(e);
        let main = f.finish();
        let p = pb.finish(main, 0);
        let err = Interpreter::new(&p)
            .with_step_limit(1000)
            .run()
            .unwrap_err();
        assert_eq!(err, InterpError::StepLimit(1000));

        // The boundary: the interpreter counts the final `halt`, so the
        // 59 steps of `sum_loop(10)` pass a limit of 59 and fail at 58.
        let p = sum_loop(10);
        let run = |limit| Interpreter::new(&p).with_step_limit(limit).run();
        assert_eq!(run(59).unwrap().steps, 59);
        assert_eq!(run(58).unwrap_err(), InterpError::StepLimit(58));
    }

    #[test]
    fn memory_fault_is_reported() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (a, v) = (f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(a, 100);
        f.load(v, a, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 4);
        let err = Interpreter::new(&p).run().unwrap_err();
        assert!(matches!(
            err,
            InterpError::MemoryOutOfBounds { address: 100, .. }
        ));
    }

    #[test]
    fn calls_use_fresh_frames_and_return() {
        let mut pb = ProgramBuilder::new();

        let mut callee = pb.function("callee");
        let ce = callee.entry_block();
        let (a, v) = (callee.reg(), callee.reg());
        callee.switch_to(ce);
        callee.iconst(a, 0);
        callee.iconst(v, 7);
        callee.store(v, a, 1);
        callee.ret();
        let callee = callee.finish();

        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.iconst(x, 3);
        f.call(callee);
        // x survives the call (callee has its own frame).
        let base = f.reg();
        f.iconst(base, 0);
        f.store(x, base, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 4);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 3);
        assert_eq!(r.memory[1], 7);
    }

    #[test]
    fn float_ops_round_trip() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (a, b, c, base, i) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.fconst(a, 1.5);
        f.fconst(b, 2.25);
        f.fmul(c, a, b);
        f.unary(i, UnOp::FloatToInt, c);
        f.iconst(base, 0);
        f.store(i, base, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 1);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 3); // 1.5 * 2.25 = 3.375 -> 3
    }

    #[test]
    fn queue_op_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        let r = f.reg();
        f.produce(crate::types::QueueId(0), r);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;
        let err = Interpreter::new(&p).run().unwrap_err();
        assert!(matches!(err, InterpError::QueueOpInSingleThread(_)));
    }

    #[test]
    fn eval_semantics_edge_cases() {
        assert_eq!(eval_binary(BinOp::Div, 5, 0), 0);
        assert_eq!(eval_binary(BinOp::Rem, 5, 0), 0);
        assert_eq!(eval_binary(BinOp::Add, i64::MAX, 1), i64::MIN);
        assert_eq!(eval_binary(BinOp::Div, i64::MIN, -1), i64::MIN); // wrapping
        assert_eq!(eval_unary(UnOp::Neg, i64::MIN), i64::MIN);
        assert_eq!(eval_cmp(CmpOp::Lt, -1, 0), 1);
        assert_eq!(eval_unary(UnOp::FloatToInt, f64::NAN.to_bits() as i64), 0);
        assert_eq!(eval_binary(BinOp::Shl, 1, 64), 1); // shift modulo 64
    }
}
