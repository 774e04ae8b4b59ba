//! A multi-context *functional* executor: exact semantics, no timing.
//!
//! Lowers the program once into a [`Code`] and runs every hardware context
//! round-robin through the shared executor [`Code::run`], a quantum of 128
//! instructions per turn, with unbounded FIFO queues. `consume` blocks
//! while its queue is empty (the context retries it on its next turn);
//! `produce` never blocks. `halt` is not a counted step. Used as the fast
//! correctness oracle for
//! DSWP-transformed programs: the observable result (final memory + main
//! thread's entry-frame registers) must equal the single-threaded
//! interpreter's result on the original program.
//!
//! Deadlock (every live context blocked on an empty queue) is detected and
//! reported — a valid DSWP partitioning can never deadlock, so the oracle
//! doubles as a pipeline-acyclicity check.

use std::collections::VecDeque;
use std::fmt;

use dswp_ir::exec::{
    checked_read, checked_write, Code, Engine, Exit, Fault, Frame, MULTI_CONTEXT_STEP_LIMIT,
};
use dswp_ir::{Program, QueueId};

/// Errors raised by the functional executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A load or store addressed a word outside program memory.
    MemoryOutOfBounds {
        /// Faulting word address.
        address: i64,
        /// Memory size in words.
        size: usize,
    },
    /// Every live context is blocked on an empty queue.
    Deadlock {
        /// Contexts still alive (not halted) at deadlock.
        live_threads: Vec<usize>,
    },
    /// An indirect call target was not a valid function id.
    BadIndirectTarget(i64),
    /// The step limit was exceeded.
    StepLimit(u64),
    /// `ret` with an empty call stack.
    ReturnFromEntry(usize),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemoryOutOfBounds { address, size } => {
                write!(
                    f,
                    "memory access at word {address} out of bounds (size {size})"
                )
            }
            ExecError::Deadlock { live_threads } => {
                write!(
                    f,
                    "deadlock: threads {live_threads:?} all blocked on empty queues"
                )
            }
            ExecError::BadIndirectTarget(v) => {
                write!(f, "indirect call target {v} is not a valid function id")
            }
            ExecError::StepLimit(n) => write!(f, "step limit of {n} instructions exceeded"),
            ExecError::ReturnFromEntry(t) => {
                write!(f, "thread {t} returned from its entry function")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Observable result of a functional multi-context run.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// Final shared memory.
    pub memory: Vec<i64>,
    /// Registers of the main thread's entry frame at halt.
    pub entry_regs: Vec<i64>,
    /// Instructions executed per context.
    pub steps: Vec<u64>,
    /// Maximum number of values simultaneously buffered in any queue
    /// (a decoupling measure; the paper reports occupancies up to
    /// thousands of instructions, Section 2).
    pub max_queue_occupancy: usize,
    /// Per-queue sequence of produced values, in production order (token
    /// produces record a `0`). Because every queue has a single producer
    /// stage, this stream is deterministic for valid DSWP programs and is
    /// compared verbatim against the native runtime by the differential
    /// test suite.
    pub streams: Vec<Vec<i64>>,
}

/// Instructions a context may retire per round-robin turn.
const QUANTUM: u64 = 128;

struct Context {
    stack: Vec<Frame>,
    halted: bool,
}

/// Multi-context functional executor.
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    step_limit: u64,
}

impl<'p> Executor<'p> {
    /// Creates an executor over `program`.
    pub fn new(program: &'p Program) -> Self {
        Executor {
            program,
            step_limit: MULTI_CONTEXT_STEP_LIMIT,
        }
    }

    /// Overrides the total step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Runs all contexts to completion.
    ///
    /// The run ends when every context halts — DSWP auxiliary threads
    /// receive the terminate sentinel produced before the main thread's
    /// `halt` (Section 3 of the paper), so they halt shortly after it.
    /// A context still blocked on an empty queue after the main context has
    /// halted is treated as parked and the run completes; if the *main*
    /// context is among the blocked, the run is a deadlock.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run(&self) -> Result<ExecResult, ExecError> {
        let program = self.program;
        let mut fifos = Fifos {
            memory: program.initial_memory.clone(),
            queues: vec![VecDeque::new(); program.num_queues as usize],
            streams: vec![Vec::new(); program.num_queues as usize],
            max_occupancy: 0,
        };
        let code = Code::new(program);
        let mut contexts: Vec<Context> = program
            .thread_entries()
            .iter()
            .map(|&entry| Context {
                stack: vec![code.frame(entry)],
                halted: false,
            })
            .collect();
        let mut steps = vec![0u64; contexts.len()];
        let mut total_steps = 0u64;

        loop {
            let mut any_progress = false;
            for (t, ctx) in contexts.iter_mut().enumerate() {
                if ctx.halted {
                    continue;
                }
                // Run each context until it blocks, halts, or exhausts a
                // small quantum (keeps round-robin fair yet fast). Every
                // attempt, a halt or a blocked consume included, needs a
                // step left under the limit.
                if total_steps >= self.step_limit {
                    return Err(ExecError::StepLimit(self.step_limit));
                }
                let out = code.run(
                    &mut ctx.stack,
                    &mut fifos,
                    QUANTUM.min(self.step_limit - total_steps),
                );
                steps[t] += out.retired;
                total_steps += out.retired;
                any_progress |= out.retired > 0;
                match out.exit {
                    // A short budget was cut by the limit, with quantum left.
                    Exit::Budget if out.retired < QUANTUM => {
                        return Err(ExecError::StepLimit(self.step_limit));
                    }
                    Exit::Budget | Exit::Stop(Blocked) => {}
                    Exit::Halt => {
                        ctx.halted = true;
                        any_progress = true;
                    }
                    Exit::Fault(f) => {
                        return Err(match f {
                            Fault::MemoryOutOfBounds { address } => ExecError::MemoryOutOfBounds {
                                address,
                                size: fifos.memory.len(),
                            },
                            Fault::BadIndirectTarget(v) => ExecError::BadIndirectTarget(v),
                            Fault::ReturnFromEntry => ExecError::ReturnFromEntry(t),
                        })
                    }
                }
            }
            if contexts.iter().all(|c| c.halted) {
                break;
            }
            if !any_progress {
                if contexts[0].halted {
                    // Remaining contexts are parked on empty queues with no
                    // producer left; the program is done.
                    break;
                }
                let live: Vec<usize> = contexts
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| !c.halted)
                    .map(|(i, _)| i)
                    .collect();
                return Err(ExecError::Deadlock { live_threads: live });
            }
        }

        let entry_regs = code.entry_regs(&contexts[0].stack);
        Ok(ExecResult {
            memory: fifos.memory,
            entry_regs,
            steps,
            max_queue_occupancy: fifos.max_occupancy,
            streams: fifos.streams,
        })
    }
}

/// The executor's [`Engine`]: shared memory and unbounded FIFO queues that
/// record every produced value and their deepest occupancy.
struct Fifos {
    memory: Vec<i64>,
    queues: Vec<VecDeque<i64>>,
    streams: Vec<Vec<i64>>,
    max_occupancy: usize,
}

/// A consume found its queue empty; the context retries it later.
struct Blocked;

impl Engine for Fifos {
    type Stop = Blocked;

    fn load(&mut self, addr: i64) -> Option<i64> {
        checked_read(&self.memory, addr)
    }

    fn store(&mut self, addr: i64, value: i64) -> bool {
        checked_write(&mut self.memory, addr, value)
    }

    fn produce(&mut self, queue: QueueId, value: i64) -> Result<(), Blocked> {
        let q = &mut self.queues[queue.index()];
        q.push_back(value);
        self.max_occupancy = self.max_occupancy.max(q.len());
        self.streams[queue.index()].push(value);
        Ok(())
    }

    fn consume(&mut self, queue: QueueId) -> Result<i64, Blocked> {
        self.queues[queue.index()].pop_front().ok_or(Blocked)
    }

    fn depth(&mut self, queue: QueueId) -> Result<i64, Blocked> {
        Ok(self.queues[queue.index()].len() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_ir::{ProgramBuilder, QueueId};

    /// Two threads: thread 0 produces 0..n, thread 1 sums and stores,
    /// thread 0 then reads the result back through a second queue.
    fn ping_pong(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();

        let q_data = QueueId(0);
        let q_done = QueueId(1);

        let mut f = pb.function("producer");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let tail = f.block("tail");
        let (i, lim, done, res, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(lim, n);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, lim);
        f.br(done, tail, body);
        f.switch_to(body);
        f.produce(q_data, i);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(tail);
        f.produce(q_data, -1);
        f.consume(res, q_done);
        f.store(res, base, 0);
        f.halt();
        let producer = f.finish();

        let mut g = pb.function("consumer");
        let e2 = g.entry_block();
        let loop_ = g.block("loop");
        let acc_b = g.block("accumulate");
        let fin = g.block("fin");
        let (v, sum, neg) = (g.reg(), g.reg(), g.reg());
        g.switch_to(e2);
        g.iconst(sum, 0);
        g.jump(loop_);
        g.switch_to(loop_);
        g.consume(v, q_data);
        g.cmp_lt(neg, v, 0);
        g.br(neg, fin, acc_b);
        g.switch_to(acc_b);
        g.add(sum, sum, v);
        g.jump(loop_);
        g.switch_to(fin);
        g.produce(q_done, sum);
        g.halt();
        let consumer = g.finish();

        let mut p = pb.finish(producer, 4);
        p.num_queues = 2;
        p.add_thread(consumer);
        p
    }

    #[test]
    fn two_threads_communicate_through_queues() {
        let p = ping_pong(100);
        let r = Executor::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 4950);
        assert!(r.steps[0] > 0 && r.steps[1] > 0);
        assert!(r.max_queue_occupancy >= 1);
    }

    #[test]
    fn max_queue_occupancy_counts_data_and_token_produces() {
        // Main fills queue 0 with two values and queue 1 with three tokens
        // before blocking on queue 2; the aux thread drains both and
        // answers with their sum. The deepest queue is the token queue.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (x, r, base) = (f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(x, 7);
        f.iconst(base, 0);
        f.produce(QueueId(0), x);
        f.produce(QueueId(0), x);
        for _ in 0..3 {
            f.produce_token(QueueId(1));
        }
        f.consume(r, QueueId(2));
        f.store(r, base, 0);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("aux");
        let e2 = g.entry_block();
        let (a, b, sum) = (g.reg(), g.reg(), g.reg());
        g.switch_to(e2);
        g.consume(a, QueueId(0));
        g.consume(b, QueueId(0));
        for _ in 0..3 {
            g.consume_token(QueueId(1));
        }
        g.add(sum, a, b);
        g.produce(QueueId(2), sum);
        g.halt();
        let aux = g.finish();
        let mut p = pb.finish(main, 1);
        p.num_queues = 3;
        p.add_thread(aux);
        let res = Executor::new(&p).run().unwrap();
        assert_eq!(res.memory[0], 14);
        assert_eq!(res.max_queue_occupancy, 3);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let r = f.reg();
        f.switch_to(e);
        f.consume(r, QueueId(0));
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;
        let err = Executor::new(&p).run().unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { .. }));
    }

    #[test]
    fn run_ends_when_main_halts_even_if_aux_parks() {
        // Aux thread blocks forever on an empty queue (like a master loop
        // waiting for work); the run still completes when main halts.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("parked");
        let e2 = g.entry_block();
        let r = g.reg();
        g.switch_to(e2);
        g.consume(r, QueueId(0));
        g.halt();
        let parked = g.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;
        p.add_thread(parked);
        let res = Executor::new(&p).run().unwrap();
        assert_eq!(res.steps[1], 0);
    }

    #[test]
    fn step_limit_guards_runaways() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.jump(e);
        let main = f.finish();
        let p = pb.finish(main, 0);
        let err = Executor::new(&p).with_step_limit(1_000).run().unwrap_err();
        assert_eq!(err, ExecError::StepLimit(1000));

        // The boundary: `halt` is not a counted step, but every attempt —
        // a halt or a blocked consume included — first checks the limit.
        // The 509 + 506 steps of `ping_pong(100)` pass a limit of one more and
        // fail at exactly their sum.
        let p = ping_pong(100);
        let run = |limit| Executor::new(&p).with_step_limit(limit).run();
        assert_eq!(run(1_016).unwrap().steps, [509, 506]);
        assert_eq!(run(1_015).unwrap_err(), ExecError::StepLimit(1_015));
    }
}
