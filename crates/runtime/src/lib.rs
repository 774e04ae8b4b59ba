//! Native multi-threaded runtime for DSWP-transformed programs.
//!
//! The MICRO 2005 DSWP paper evaluates decoupled software pipelining on a
//! simulated dual-core Itanium 2 with a hardware *synchronization array*.
//! This crate is one of the reproduction's four execution engines, and the
//! only one that actually runs the pipeline concurrently:
//!
//! * the single-context [`Interpreter`](dswp_ir::interp::Interpreter)
//!   executes baseline programs and rejects queue instructions;
//! * the functional [`Executor`](../dswp_sim) round-robins all hardware
//!   contexts in one OS thread with unbounded queues — the deterministic
//!   correctness oracle;
//! * the cycle-level `Machine` (also `dswp-sim`) times the pipeline on
//!   simulated in-order cores;
//! * this [`Runtime`] runs **the pipeline stages concurrently on OS
//!   threads** and implements the synchronization array as bounded
//!   lock-free SPSC ring-buffer queues ([`queue::SpscQueue`]), with
//!   park/unpark backpressure and deadlock detection.
//!
//! Every stage is a resumable task. The calling thread runs all of its
//! run's tasks itself, switching between them when a queue operation would
//! block, until workers of a process-wide pool claim stages 1..: once a
//! stage has retired a whole step budget (1024 instructions) they are
//! offered to the pool, and a worker that wakes takes its stage over at
//! the stage's next slice boundary and runs it on a thread of its own. The
//! pool module owns that hand-over, one state machine per worker; a stage
//! that was never handed over is taken back when its run ends. A short run
//! thus never waits for a thread to wake or for values to cross cores, a
//! long run gets a thread per stage, and a warm pool starts no thread.
//!
//! The synchronization-array gap the paper glosses over — its hardware
//! `produce`/`consume` cost ~a cycle, a software queue costs at least a
//! cross-core cache-line transfer per value (the ring is built so that
//! the slot is the only one) — is attacked further with **batched
//! communication** ([`BatchPolicy`]): values are accumulated in per-queue
//! local buffers and published/acquired a chunk at a time, with forced
//! flushes on blocking waits, stage end, and a step cadence so batching
//! never changes observable results or liveness, only timing.
//!
//! Every engine executes the program's lowered form through one executor,
//! `dswp_ir::exec::Code::run`, so a DSWP-transformed program must produce
//! **bit-identical observable results** (final memory, main entry
//! registers, per-queue value streams) on all of them. The differential test suite at the workspace root
//! asserts exactly that over every paper workload.
//!
//! # Liveness
//!
//! A buggy partition (or a deliberately miswired queue) must fail, not
//! hang. Three guards, all run by the stage threads, ensure it returns:
//!
//! 1. the monitor detects true deadlock — every live thread blocked on an
//!    unsatisfiable queue operation — and returns [`RtError::Deadlock`]
//!    naming the blocked threads;
//! 2. a shared step budget ([`RtConfig::step_limit`]) stops runaway loops
//!    with [`RtError::StepLimit`];
//! 3. a no-progress watchdog ([`RtConfig::watchdog`]) aborts the run with
//!    [`RtError::Watchdog`] if *no thread makes progress* for the
//!    configured duration — a backstop for livelock the first two guards
//!    cannot see, checked on every poll of a stage blocked in the monitor.
//!
//! # Crash safety
//!
//! Each stage runs under `catch_unwind`, on whichever thread runs it. A
//! panic, like every other
//! failure, takes the one shutdown path: record [`RtError::StagePanic`]
//! (first error wins), set the abort flag, poison every queue, and wake
//! every blocked stage — the run returns a structured error instead of
//! propagating the panic or deadlocking the surviving stages. Two
//! cooperative controls complete the picture: a per-run wall-clock deadline
//! ([`RtConfig::deadline`] → [`RtError::Timeout`] with a diagnosis of
//! *which* stage was stuck and how far it got) and an external
//! [`CancelToken`] ([`RtError::Cancelled`]), both checked by running stages
//! at every budget refill and by blocked ones on every monitor poll.
//!
//! The [`fault`] module provides deterministic seeded fault injection
//! ([`FaultPlan`]) for exercising all of this; the chaos differential
//! suite at the workspace root asserts that under hundreds of seeded fault
//! plans every run either matches the interpreter bit-for-bit or returns a
//! structured error — never a hang, never corrupt memory.
//!
//! # Example
//!
//! ```
//! use dswp_ir::{ProgramBuilder, QueueId};
//! use dswp_rt::{RtConfig, Runtime};
//!
//! // Stage 0 produces 0..10, stage 1 sums them into memory word 0.
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("stage0");
//! let e = f.entry_block();
//! let header = f.block("header");
//! let body = f.block("body");
//! let tail = f.block("tail");
//! let (i, lim, done) = (f.reg(), f.reg(), f.reg());
//! f.switch_to(e);
//! f.iconst(i, 0);
//! f.iconst(lim, 10);
//! f.jump(header);
//! f.switch_to(header);
//! f.cmp_ge(done, i, lim);
//! f.br(done, tail, body);
//! f.switch_to(body);
//! f.produce(QueueId(0), i);
//! f.add(i, i, 1);
//! f.jump(header);
//! f.switch_to(tail);
//! f.produce(QueueId(0), -1);
//! f.halt();
//! let stage0 = f.finish();
//!
//! let mut g = pb.function("stage1");
//! let e = g.entry_block();
//! let loop_ = g.block("loop");
//! let acc = g.block("acc");
//! let fin = g.block("fin");
//! let (v, sum, neg, base) = (g.reg(), g.reg(), g.reg(), g.reg());
//! g.switch_to(e);
//! g.iconst(sum, 0);
//! g.jump(loop_);
//! g.switch_to(loop_);
//! g.consume(v, QueueId(0));
//! g.cmp_lt(neg, v, 0);
//! g.br(neg, fin, acc);
//! g.switch_to(acc);
//! g.add(sum, sum, v);
//! g.jump(loop_);
//! g.switch_to(fin);
//! g.iconst(base, 0);
//! g.store(sum, base, 0);
//! g.halt();
//! let stage1 = g.finish();
//!
//! let mut program = pb.finish(stage0, 4);
//! program.num_queues = 1;
//! program.add_thread(stage1);
//!
//! let result = Runtime::new(&program).with_config(RtConfig::default()).run().unwrap();
//! assert_eq!(result.memory[0], 45);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod queue;

pub(crate) mod monitor;
pub(crate) mod pool;
pub(crate) mod worker;

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dswp_ir::exec::MULTI_CONTEXT_STEP_LIMIT;
use dswp_ir::Program;

use monitor::Verdict;
use worker::Shared;

pub use fault::{silence_injected_panics, FaultPlan, InjectedPanic};
pub use queue::{BatchHistogram, QueueStats};

/// Errors raised by the native runtime.
///
/// The variants mirror the functional executor's `ExecError` so the two
/// engines can be compared in differential tests; [`RtError::Watchdog`] is
/// runtime-specific.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RtError {
    /// A load or store addressed a word outside program memory.
    MemoryOutOfBounds {
        /// Faulting word address.
        address: i64,
        /// Memory size in words.
        size: usize,
    },
    /// An indirect call target was not a valid function id.
    BadIndirectTarget(i64),
    /// The shared step budget was exhausted (runaway-loop guard).
    StepLimit(u64),
    /// `ret` executed with an empty call stack.
    ReturnFromEntry(usize),
    /// Every live thread was blocked on a queue operation that can never
    /// be satisfied, with the main thread among them.
    Deadlock {
        /// Indices of the blocked threads.
        blocked: Vec<usize>,
    },
    /// No thread made progress for the watchdog duration (livelock
    /// backstop).
    Watchdog {
        /// How long the run was stalled before the watchdog fired.
        stalled_for: Duration,
    },
    /// A stage thread panicked; the recovery layer caught the unwind,
    /// poisoned the queues and shut the pipeline down.
    StagePanic {
        /// Hardware context of the crashed stage.
        stage: usize,
        /// The panic payload rendered as text.
        message: String,
    },
    /// A queue operation found its queue poisoned: the peer endpoint died
    /// (or a fault plan poisoned the queue) and the operation can never
    /// complete — producers stop immediately, consumers stop once drained.
    QueuePoisoned {
        /// The poisoned queue.
        queue: usize,
        /// The stage whose operation observed the poison.
        stage: usize,
    },
    /// The per-run wall-clock deadline ([`RtConfig::deadline`]) elapsed.
    Timeout {
        /// The stage diagnosed as stuck: the first blocked stage if any,
        /// otherwise the stage that retired the fewest instructions.
        stage: usize,
        /// Instructions that stage had retired when the deadline fired.
        last_progress: u64,
    },
    /// The run was cancelled through its [`CancelToken`].
    Cancelled,
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::MemoryOutOfBounds { address, size } => {
                write!(
                    f,
                    "memory access at word {address} out of bounds (size {size})"
                )
            }
            RtError::BadIndirectTarget(v) => {
                write!(f, "indirect call target {v} is not a valid function id")
            }
            RtError::StepLimit(n) => write!(f, "step limit of {n} instructions exceeded"),
            RtError::ReturnFromEntry(t) => {
                write!(f, "thread {t} returned from its entry function")
            }
            RtError::Deadlock { blocked } => {
                write!(
                    f,
                    "deadlock: threads {blocked:?} blocked on unsatisfiable queue operations"
                )
            }
            RtError::Watchdog { stalled_for } => {
                write!(f, "watchdog: no progress for {stalled_for:?}")
            }
            RtError::StagePanic { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            RtError::QueuePoisoned { queue, stage } => {
                write!(
                    f,
                    "queue {queue} poisoned: stage {stage} cannot complete its operation"
                )
            }
            RtError::Timeout {
                stage,
                last_progress,
            } => {
                write!(
                    f,
                    "deadline exceeded: stage {stage} stuck after {last_progress} instructions"
                )
            }
            RtError::Cancelled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for RtError {}

/// Cooperative cancellation handle for a native run.
///
/// Clone the token, hand one clone to [`RtConfig::cancel`], keep the other,
/// and call [`cancel`](Self::cancel) from any thread; the run aborts with
/// [`RtError::Cancelled`] within one budget batch (1024 instructions) of a
/// running stage, or one monitor poll (at most 20 ms) of a blocked one.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// How many values a stage accumulates per queue before publishing them
/// with a single release store (and how many a consumer acquires at once).
///
/// The paper's hardware synchronization array makes `produce`/`consume`
/// roughly one cycle each; a software SPSC queue pays a cross-core
/// cache-line transfer per value and per cursor publication instead.
/// Batching amortizes the cursor publications over a chunk of values.
/// Correctness is batch-size-independent — the worker force-flushes on
/// blocking waits, stage end, and every `STEP_BATCH` retired instructions,
/// and consumers never wait for a full chunk — so the policy only trades
/// latency for synchronization throughput.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Use this chunk size on every queue (1 = unbatched, the default).
    Fixed(usize),
    /// Derive the chunk size from the queue capacity:
    /// `(capacity / 2).clamp(1, 16)` — half the queue so producer and
    /// consumer can overlap, capped where the returns flatten out.
    Auto,
}

impl BatchPolicy {
    /// The chunk size this policy yields for a queue of `capacity` slots.
    pub fn chunk(self, capacity: usize) -> usize {
        match self {
            BatchPolicy::Fixed(n) => n.max(1),
            BatchPolicy::Auto => (capacity / 2).clamp(1, 16),
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::Fixed(1)
    }
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RtConfig {
    /// Capacity of every synchronization-array queue, in values. The paper
    /// models a 32-entry-per-queue synchronization array (Section 2.1).
    pub queue_capacity: usize,
    /// Communication batch (chunk) size policy applied to every queue.
    pub batch: BatchPolicy,
    /// Per-queue batch-size overrides (indexed by queue id; entries beyond
    /// the vector fall back to [`RtConfig::batch`]). Lets the pipeline map
    /// keep token queues at small chunks while data queues batch deeply.
    pub queue_batches: Option<Vec<usize>>,
    /// Total instruction budget across all stage threads.
    pub step_limit: u64,
    /// Abort the run if no thread makes progress for this long.
    pub watchdog: Duration,
    /// Record every produced value per queue (for differential testing;
    /// adds a mutex acquisition per produce).
    pub record_streams: bool,
    /// Hard wall-clock deadline for the whole run; exceeded runs fail with
    /// [`RtError::Timeout`] naming the stuck stage. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// External cancellation token; when it fires, the run aborts with
    /// [`RtError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Deterministic fault-injection plan (chaos testing). `None` = no
    /// faults, zero overhead on the worker hot path beyond a branch.
    pub faults: Option<FaultPlan>,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            queue_capacity: 32,
            batch: BatchPolicy::default(),
            queue_batches: None,
            step_limit: MULTI_CONTEXT_STEP_LIMIT,
            watchdog: Duration::from_secs(2),
            record_streams: false,
            deadline: None,
            cancel: None,
            faults: None,
        }
    }
}

impl RtConfig {
    /// Sets the per-queue capacity: at least 1 and at most
    /// [`queue::MAX_CAPACITY`], or [`Runtime::run`] panics.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets a fixed communication batch size for every queue (1 =
    /// unbatched).
    pub fn batch(mut self, n: usize) -> Self {
        self.batch = BatchPolicy::Fixed(n);
        self
    }

    /// Derives the communication batch size from the queue capacity
    /// ([`BatchPolicy::Auto`]).
    pub fn batch_auto(mut self) -> Self {
        self.batch = BatchPolicy::Auto;
        self
    }

    /// Sets per-queue batch-size overrides (see [`RtConfig::queue_batches`]).
    pub fn queue_batches(mut self, batches: Vec<usize>) -> Self {
        self.queue_batches = Some(batches);
        self
    }

    /// Sets the shared step budget.
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Sets the no-progress watchdog duration.
    pub fn watchdog(mut self, duration: Duration) -> Self {
        self.watchdog = duration;
        self
    }

    /// Enables per-queue produced-value stream recording.
    pub fn record_streams(mut self, on: bool) -> Self {
        self.record_streams = on;
        self
    }

    /// Sets the per-run wall-clock deadline.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deterministic fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Wall-clock and scheduling statistics of one pipeline stage.
#[derive(Clone, Debug)]
pub struct StageStats {
    /// Successfully executed instructions (comparable to the functional
    /// executor's per-context step counts).
    pub steps: u64,
    /// The part of `steps` retired on a pool worker, after the worker
    /// claimed the stage from the calling thread (0 for stage 0, and for a
    /// stage the calling thread ran to its end).
    pub pool_steps: u64,
    /// Wall-clock time from the stage's first instruction to its end.
    pub wall: Duration,
    /// Portion of `wall` spent blocked on queue backpressure/starvation:
    /// waiting in the backoff loop, or stopped in a queue operation while
    /// another stage ran on the calling thread.
    pub blocked: Duration,
    /// Whether the stage was parked (still blocked when the main thread
    /// terminated) rather than reaching its own halt.
    pub parked: bool,
    /// Failed queue-operation attempts that entered the spin→yield→park
    /// backoff loop or stopped the stage to let another run (retry
    /// accounting).
    pub retries: u64,
    /// Times the stage exhausted its spin/yield budget and parked on the
    /// monitor condvar.
    pub parks: u64,
    /// Whether the stage thread panicked (caught by crash recovery).
    pub panicked: bool,
}

/// The observable result of a completed native run.
#[derive(Clone, Debug)]
pub struct RtResult {
    /// Final shared memory image.
    pub memory: Vec<i64>,
    /// Registers of the main thread's entry frame at halt.
    pub entry_regs: Vec<i64>,
    /// Per-stage statistics, indexed by hardware context.
    pub stages: Vec<StageStats>,
    /// Per-queue occupancy and traffic statistics.
    pub queues: Vec<QueueStats>,
    /// Per-queue produced-value streams, present when
    /// [`RtConfig::record_streams`] was set.
    pub streams: Option<Vec<Vec<i64>>>,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
}

impl RtResult {
    /// Total instructions executed across all stages.
    pub fn total_steps(&self) -> u64 {
        self.stages.iter().map(|s| s.steps).sum()
    }
}

/// Native multi-threaded runtime over a [`Program`].
#[derive(Debug)]
pub struct Runtime<'p> {
    program: &'p Program,
    config: RtConfig,
}

impl<'p> Runtime<'p> {
    /// Creates a runtime for `program` with the default configuration.
    pub fn new(program: &'p Program) -> Self {
        Runtime {
            program,
            config: RtConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: RtConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the program until it completes (main halts and every other
    /// stage halts or parks). The calling thread runs every hardware
    /// context until workers of the process-wide stage pool claim contexts
    /// 1.., which it offers them once a context has retired a whole step
    /// budget; the pool starts a thread only when none of its workers is
    /// idle. It returns only once every stage has reported.
    ///
    /// # Errors
    ///
    /// See [`RtError`]. The runtime never hangs: deadlock, runaway loops
    /// and livelock all surface as structured errors.
    pub fn run(&self) -> Result<RtResult, RtError> {
        let shared = Arc::new(Shared::new(self.program, &self.config));
        let started = Instant::now();
        let mut reports = worker::run_stages(&shared);
        let elapsed = started.elapsed();

        if let Some(Verdict::Fail(err)) = shared.monitor.verdict() {
            return Err(err);
        }

        let streams = self
            .config
            .record_streams
            .then(|| shared.queues.iter().map(|q| q.take_stream()).collect());
        Ok(RtResult {
            memory: shared
                .memory
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            entry_regs: std::mem::take(&mut reports[0].entry_regs),
            stages: reports.into_iter().map(|r| r.stats).collect(),
            queues: shared.queues.iter().map(|q| q.stats()).collect(),
            streams,
            elapsed,
        })
    }
}

/// Renders a caught panic payload as text for [`RtError::StagePanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        p.to_string()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Convenience wrapper: runs `program` with `config` and returns the
/// result.
pub fn run_native(program: &Program, config: RtConfig) -> Result<RtResult, RtError> {
    Runtime::new(program).with_config(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_ir::{ProgramBuilder, QueueId};

    /// Two stages: stage 0 produces 0..n then a -1 sentinel and reads the
    /// sum back through a second queue; stage 1 accumulates.
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
    fn two_stages_communicate() {
        let p = ping_pong(1000);
        let r = Runtime::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 499_500);
        assert_eq!(r.stages.len(), 2);
        assert!(r.queues[0].produced == 1001);
        assert!(r.queues[0].max_occupancy <= 32);
    }

    #[test]
    fn tiny_queues_still_complete() {
        let p = ping_pong(500);
        for cap in [1, 2, 3] {
            let r = run_native(&p, RtConfig::default().queue_capacity(cap)).unwrap();
            assert_eq!(r.memory[0], 124_750, "capacity {cap}");
            assert!(r.queues[0].max_occupancy <= cap);
        }
    }

    #[test]
    fn batched_runs_match_unbatched_exactly() {
        let p = ping_pong(2_000);
        let clean = run_native(&p, RtConfig::default().record_streams(true)).unwrap();
        let steps = |r: &RtResult| r.stages.iter().map(|s| s.steps).collect::<Vec<_>>();
        for batch in [2, 4, 16, 64] {
            let r = run_native(&p, RtConfig::default().record_streams(true).batch(batch))
                .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
            assert_eq!(r.memory, clean.memory, "batch {batch}: memory");
            assert_eq!(r.entry_regs, clean.entry_regs, "batch {batch}: regs");
            assert_eq!(r.streams, clean.streams, "batch {batch}: streams");
            assert_eq!(steps(&r), steps(&clean), "batch {batch}: steps");
        }
    }

    #[test]
    fn auto_batch_policy_completes_and_batches() {
        let p = ping_pong(2_000);
        let r = run_native(&p, RtConfig::default().batch_auto()).unwrap();
        assert_eq!(r.memory[0], 1_999_000);
        // Capacity 32 → chunk 16: the data queue must see real batches,
        // and every value the producer sent must reach the consumer.
        assert!(r.queues[0].flush_sizes.mean() > 1.0);
        assert_eq!(r.queues[0].flush_sizes.sum, 2_001);
        assert_eq!(r.queues[0].refill_sizes.sum, 2_001);
    }

    #[test]
    fn per_queue_batch_overrides_apply() {
        let p = ping_pong(2_000);
        // Deep batching on the data queue, unbatched on the done queue.
        let r = run_native(&p, RtConfig::default().batch(16).queue_batches(vec![16, 1])).unwrap();
        assert_eq!(r.memory[0], 1_999_000);
        assert_eq!(r.queues[1].flush_sizes.buckets[0], 1); // single-value flush
    }

    #[test]
    fn streams_are_recorded_in_order() {
        let p = ping_pong(50);
        let r = run_native(
            &p,
            RtConfig::default().queue_capacity(4).record_streams(true),
        )
        .unwrap();
        let streams = r.streams.unwrap();
        let mut expected: Vec<i64> = (0..50).collect();
        expected.push(-1);
        assert_eq!(streams[0], expected);
        assert_eq!(streams[1], vec![1225]);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        // Main consumes from a queue nothing produces into.
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
        let err = Runtime::new(&p).run().unwrap_err();
        assert_eq!(err, RtError::Deadlock { blocked: vec![0] });
    }

    #[test]
    fn aux_parks_when_main_halts() {
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
        let res = Runtime::new(&p).run().unwrap();
        assert!(!res.stages[0].parked);
        assert!(res.stages[1].parked);
        assert_eq!(res.stages[1].steps, 0);
    }

    #[test]
    fn step_limit_stops_runaways() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.jump(e);
        let main = f.finish();
        let p = pb.finish(main, 0);
        let err = Runtime::new(&p)
            .with_config(RtConfig::default().step_limit(10_000))
            .run()
            .unwrap_err();
        assert_eq!(err, RtError::StepLimit(10_000));

        // The boundary: a stage claims its budget 1024 steps at a time and
        // its `halt` spends one unit of it without being counted, so the
        // 5008 steps of this single-stage loop span five claims and pass a
        // limit of one more.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let (e, header, body, exit) = (f.entry_block(), f.block("h"), f.block("b"), f.block("x"));
        let (i, sum, done, base) = (f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(sum, 0);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, 1_000);
        f.br(done, exit, body);
        f.switch_to(body);
        f.add(sum, sum, i);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(sum, base, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 1);
        let run = |limit| run_native(&p, RtConfig::default().step_limit(limit));
        let ok = run(5_008).unwrap();
        assert_eq!((ok.memory[0], ok.stages[0].steps), (499_500, 5_007));
        assert_eq!(run(5_007).unwrap_err(), RtError::StepLimit(5_007));
    }

    #[test]
    fn memory_fault_aborts_all_stages() {
        let p = {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main");
            let e = f.entry_block();
            let (a, v) = (f.reg(), f.reg());
            f.switch_to(e);
            f.iconst(a, 1_000);
            f.load(v, a, 0);
            f.halt();
            let main = f.finish();
            pb.finish(main, 4)
        };
        let err = Runtime::new(&p).run().unwrap_err();
        assert!(matches!(
            err,
            RtError::MemoryOutOfBounds { address: 1_000, .. }
        ));
    }
}
