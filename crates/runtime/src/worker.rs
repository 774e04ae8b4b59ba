//! Pipeline stages as resumable tasks, and the loops that run them.
//!
//! Each DSWP pipeline stage is a [`StageTask`]: its call stack, its
//! communication buffers, its fault session, and its backoff counters and
//! timers — everything it needs to continue on any thread. Every
//! instruction executes through `Code::run`, the executor the other three
//! engines share, over the [`Code`] that `Runtime::run` lowered once; the
//! task supplies only shared memory, the batched queues, the step budget
//! and the fault hooks (its `Stage` engine), so the native runtime cannot
//! drift from the interpreter, the functional executor or the timing
//! model on anything but scheduling. `Code::run` returns with the stack
//! intact when a queue operation stops, so a stopped task resumes by
//! re-executing that instruction.
//!
//! # Work-first scheduling
//!
//! The thread that calls `Runtime::run` starts out holding every task of
//! its run and runs them round-robin itself ([`run_stages`]), switching
//! when a queue operation stops and at every `STEP_BATCH` budget refill:
//! the functional executor's interleave, over the real queues. Once one of
//! its tasks has spent a whole budget, stages 1.. are offered to the stage
//! pool, which owns the whole hand-over ([`pool::offer`]). A worker that
//! wakes for an offer asks for its task, and the calling thread hands the
//! task over at its next slice boundary; the worker then runs it to its
//! end, alone ([`run_claimed`]). When the run ends, the calling thread
//! takes back every offer it never handed over and waits only for the
//! stages it did. A short run — a service job of a few thousand
//! instructions — thus pays for no wake-up and moves no value between
//! cores, and a long one moves its stages to workers within a few budgets
//! of instructions.
//!
//! The stage engine is the same on every thread. After the failed first
//! attempt of a queue operation it stops the task only when its thread
//! holds another task that is ready; otherwise — always on a worker, which
//! holds one task — it enters the spin→yield→park wait, so a thread that
//! holds one task behaves exactly as a thread per stage. A stopped
//! operation keeps its stall budget (fault injection), so it counts once
//! when it resumes and the fault cadence stays exact; a stopped flush keeps
//! only the values it has not published yet. A slice hands the executor a
//! whole claimed budget (up to `STEP_BATCH` instructions) per call; with a
//! fault plan it runs the fault hook once per retired-instruction count,
//! before that instruction's first attempt, and stops the executor at the
//! next count at which the hook acts (a delay, the poison or the panic), so
//! fault runs take the same budgeted path as every other run.
//!
//! Shared program memory is a `Vec<AtomicI64>` accessed with relaxed
//! loads/stores; cross-stage ordering comes from the queues' release/acquire
//! slot stamps, exactly the discipline the DSWP transformation enforces by
//! routing every cross-stage memory dependence through a synchronization
//! flow.
//!
//! An unbatched `produce`/`consume` (batch size 1) goes straight to the
//! ring: one `try_produce`/`try_consume`, and only when that attempt fails
//! does the operation stop or enter the spin→yield→park loop. A produce
//! that found its queue full first [slips](slip) until half the queue is
//! free.
//!
//! # Batched communication
//!
//! With a per-queue batch size `b > 1`, produced values are accumulated in
//! a per-queue local buffer and *flushed* — published with one release
//! store — when the buffer reaches `b` values; consumers *refill* a local
//! buffer with up to `b` values in one acquire and serve from it. Four
//! rules keep batching an invisible (timing-only) change:
//!
//! * **Flush before blocking.** A thread that blocks for any reason
//!   side-flushes every non-empty output buffer inside its blocking loop
//!   and registers the still-pending ones in its monitor
//!   [`WaitSet`], so buffered values can never
//!   manufacture a deadlock the unbatched runtime would not have.
//! * **Flush on stage end.** A terminating stage performs a blocking flush
//!   of every residual buffer before it reports termination.
//! * **Flush on cadence.** Every `STEP_BATCH` retired instructions (the
//!   budget-refill boundary) the stage opportunistically flushes lingering
//!   buffers, so a stage that stops producing but keeps computing cannot
//!   starve its consumers behind a half-filled chunk.
//! * **Refills never wait for a full chunk.** A refill takes whatever is
//!   available (up to `b`), so a half-filled chunk published by the
//!   producer is consumed immediately.
//!
//! Fault hooks fire per *flush/refill operation* — with `b = 1` every
//! produce is a flush and every consume is a refill, so the unbatched
//! fault cadence is preserved exactly.
//!
//! When the runtime carries a [`FaultPlan`], each task additionally
//! drives a [`FaultSession`]: periodic busy-spin delays, artificial
//! queue-operation stalls, queue poisoning, and forced panics at an exact
//! retired-instruction count. Benign faults perturb timing only — the
//! chaos differential suite asserts the observable results stay
//! bit-identical; lethal faults are converted by the recovery layer in
//! `lib.rs` into structured [`RtError`]s.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dswp_ir::exec::{Code, Engine, Exit, Fault, Frame};
use dswp_ir::{FuncId, Program, QueueId};

use crate::fault::{FaultPlan, InjectedPanic, StageFaults};
use crate::monitor::{can_progress, BlockInfo, BlockKind, Monitor, WaitOutcome, WaitSet};
use crate::pool;
use crate::queue::SpscQueue;
use crate::{panic_message, RtConfig, RtError, StageStats};

/// Steps claimed from the shared budget at a time; also the cadence of
/// abort, cancel and deadline checks, progress heartbeats, opportunistic
/// flushes of lingering output buffers, and the calling thread's
/// round-robin over its tasks.
const STEP_BATCH: u64 = 1024;
/// Busy-spin iterations on a blocked queue, or by a pool worker that waits
/// for its stage, before yielding.
pub(crate) const SPINS: u32 = 64;
/// `yield_now` iterations after spinning before parking.
pub(crate) const YIELDS: u32 = 32;
/// The longest wait, in PAUSEs, between two reads of the consumer's cursor
/// by a producer that found its queue full (see [`slip`]).
const SLIP_MAX_PAUSES: u32 = 64;

/// Everything the stages of one run share. It owns what it holds, so the
/// calling thread and the pool workers share it through an `Arc`.
#[derive(Debug)]
pub(crate) struct Shared {
    /// Entry function of each hardware context.
    pub entries: Vec<FuncId>,
    /// The program, lowered once for every stage.
    pub code: Code,
    pub memory: Vec<AtomicI64>,
    pub queues: Vec<SpscQueue>,
    pub monitor: Monitor,
    /// Per-queue communication batch size (≥ 1; 1 = unbatched).
    pub batches: Vec<usize>,
    /// Total steps claimed across all threads (runaway guard).
    pub steps_claimed: AtomicU64,
    pub step_limit: u64,
    /// Fault-injection plan, if any.
    pub faults: Option<FaultPlan>,
}

impl Shared {
    /// Everything a run of `program` under `config` shares, before any
    /// stage ran.
    pub(crate) fn new(program: &Program, config: &RtConfig) -> Self {
        let num_threads = program.thread_entries().len();
        // A fault plan may override the configured queue capacity (the
        // "artificially tiny queues" fault class).
        let queue_capacity = config
            .faults
            .as_ref()
            .and_then(|f| f.queue_capacity)
            .unwrap_or(config.queue_capacity);
        // Per-queue effective batch sizes, computed after the capacity
        // override so `BatchPolicy::Auto` tracks the real queue size.
        let base_chunk = config.batch.chunk(queue_capacity);
        let batches = (0..program.num_queues as usize)
            .map(|qi| {
                config
                    .queue_batches
                    .as_ref()
                    .and_then(|v| v.get(qi).copied())
                    .unwrap_or(base_chunk)
                    .max(1)
            })
            .collect();
        Shared {
            entries: program.thread_entries().to_vec(),
            code: Code::new(program),
            memory: program
                .initial_memory
                .iter()
                .map(|&v| AtomicI64::new(v))
                .collect(),
            queues: (0..program.num_queues as usize)
                .map(|_| SpscQueue::new(queue_capacity, config.record_streams))
                .collect(),
            monitor: Monitor::new(num_threads).limits(config),
            batches,
            steps_claimed: AtomicU64::new(0),
            step_limit: config.step_limit,
            faults: config.faults.clone(),
        }
    }
}

/// How a stage ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StageEnd {
    /// Reached `halt` or the terminate sentinel — normal completion.
    Terminated,
    /// Stopped by a Park verdict while blocked (run completed without it).
    Parked,
    /// Stopped by a failure verdict or the abort flag.
    Aborted,
    /// The stage thread panicked and was caught by the recovery layer.
    Panicked,
}

/// What a stage reports to `Runtime::run` when it ends.
#[derive(Clone, Debug)]
pub(crate) struct StageReport {
    /// The stage's statistics, as the run's result publishes them.
    pub stats: StageStats,
    /// Entry-frame registers at the end of the run.
    pub entry_regs: Vec<i64>,
}

/// Why a blocking queue operation did not complete.
enum QueueStop {
    /// The named queue was poisoned: the peer endpoint is dead (or a fault
    /// plan poisoned it) and the operation — or a pending flush to it —
    /// can never complete meaningfully.
    Poisoned(usize),
    /// The run ended while this stage waited.
    End(StageEnd),
    /// The operation stopped so that another task of this thread, which
    /// is ready, can run; the task resumes it later (see [`Resume`]).
    WouldBlock,
}

/// Per-queue consumer-side local buffer: values acquired in one refill,
/// served one at a time.
#[derive(Debug, Default)]
struct InBuf {
    vals: Vec<i64>,
    next: usize,
}

impl InBuf {
    fn pop(&mut self) -> Option<i64> {
        let v = *self.vals.get(self.next)?;
        self.next += 1;
        Some(v)
    }
}

/// A stage's communication state: per-queue output buffers awaiting a
/// flush, and per-queue input buffers being served.
#[derive(Debug)]
struct Comm {
    out: Vec<Vec<i64>>,
    inq: Vec<InBuf>,
}

impl Comm {
    fn new(num_queues: usize) -> Self {
        Comm {
            out: vec![Vec::new(); num_queues],
            inq: (0..num_queues).map(|_| InBuf::default()).collect(),
        }
    }

    /// Queues this stage holds a non-empty output buffer for.
    fn pending(&self) -> impl Iterator<Item = usize> + '_ {
        self.out
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(qi, _)| qi)
    }
}

/// The per-stage fault-injection state: counters that decide when the
/// stage's [`StageFaults`] fire.
#[derive(Debug)]
struct FaultSession {
    faults: StageFaults,
    /// Flush/refill operations performed so far (drives stall cadence;
    /// with batch size 1 this is exactly the queue-operation count).
    queue_ops: u64,
    /// Whether the poison fault already fired.
    poisoned: bool,
    /// The last retired-instruction count the hook ran for.
    hooked: u64,
}

impl FaultSession {
    fn new(plan: Option<&FaultPlan>, stage: usize) -> Self {
        FaultSession {
            faults: plan
                .and_then(|p| p.stages.get(stage))
                .copied()
                .unwrap_or_default(),
            queue_ops: 0,
            poisoned: false,
            hooked: 0,
        }
    }

    /// Runs [`on_step`](Self::on_step) for `count`, the count the next
    /// instruction retires as, unless it already ran for it (a resumed
    /// queue operation is the same attempt), and returns how many
    /// instructions may run before the hook can act again.
    fn hook(&mut self, stage: usize, count: u64, queues: &[SpscQueue]) -> u64 {
        if self.hooked < count {
            self.hooked = count;
            self.on_step(stage, count, queues);
        }
        self.next_trigger(count) - count
    }

    /// The first count after `count` at which [`on_step`](Self::on_step)
    /// acts: the next delay multiple, the poison step if the poison has not
    /// fired, or the panic step; `u64::MAX` if there is none.
    fn next_trigger(&self, count: u64) -> u64 {
        let f = &self.faults;
        let delay = f
            .delay
            .and_then(|d| (count.checked_div(d.every)? + 1).checked_mul(d.every));
        let poison = f.poison.filter(|_| !self.poisoned).map(|p| p.after_steps);
        [delay, poison, f.panic_at]
            .into_iter()
            .flatten()
            .filter(|&c| c > count)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The hook for `steps`, the count the next instruction retires as.
    /// Applies the delay, poisons queues, and triggers the forced panic.
    ///
    /// # Panics
    ///
    /// Deliberately panics with an [`InjectedPanic`] payload when the plan
    /// says this stage must crash at this retired-instruction count; the
    /// recovery layer in [`slice`] catches it.
    fn on_step(&mut self, stage: usize, steps: u64, queues: &[SpscQueue]) {
        if let Some(d) = self.faults.delay {
            if steps.is_multiple_of(d.every) {
                for _ in 0..d.spins {
                    std::hint::spin_loop();
                }
            }
        }
        if !self.poisoned {
            if let Some(p) = self.faults.poison {
                if steps >= p.after_steps {
                    self.poisoned = true;
                    if let Some(q) = queues.get(p.queue) {
                        q.poison();
                    }
                }
            }
        }
        if self.faults.panic_at == Some(steps) {
            std::panic::panic_any(InjectedPanic { stage, steps });
        }
    }

    /// Flush/refill hook: how many attempts of the upcoming operation
    /// must artificially fail.
    fn stall_budget(&mut self) -> Stall {
        self.queue_ops += 1;
        Stall(match self.faults.stall {
            Some(s) if self.queue_ops.is_multiple_of(s.every) => {
                if s.permanent {
                    u32::MAX
                } else {
                    s.attempts
                }
            }
            _ => 0,
        })
    }
}

/// Attempts of one queue operation that must still fail artificially
/// (fault injection; `u32::MAX` stalls the operation forever — the
/// monitor's watchdog, deadline or cancel check then ends the run).
#[derive(Debug)]
struct Stall(u32);

impl Stall {
    /// Whether the next attempt must fail; spends one forced failure.
    fn fails(&mut self) -> bool {
        match self.0 {
            0 => false,
            u32::MAX => true,
            _ => {
                self.0 -= 1;
                true
            }
        }
    }

    /// Whether the operation can never complete.
    fn permanent(&self) -> bool {
        self.0 == u32::MAX
    }
}

/// Tracks the retry/park accounting of one stage across its blocked
/// queue operations.
#[derive(Debug, Default)]
struct Backoff {
    retries: u64,
    parks: u64,
}

/// A queue operation that stopped to let another task of its thread run,
/// kept so the re-executed instruction continues it rather than starting a
/// new one: the stall budget is spent once per logical operation, so the
/// fault cadence stays exact. A partly published flush continues where it
/// stopped, since its unpublished values stay in the output buffer.
#[derive(Debug)]
struct Resume {
    info: BlockInfo,
    /// Forced failures the operation still owes.
    stall: Stall,
}

/// What the stage engine works on: the stage's communication, fault and
/// backoff state. Everything here moves with the task.
#[derive(Debug)]
struct StageIo {
    thread: usize,
    comm: Comm,
    faults: FaultSession,
    /// The queue operation the task stopped in, if it stopped in one.
    resume: Option<Resume>,
    /// Time spent blocked on queues.
    blocked: Duration,
    backoff: Backoff,
}

/// One pipeline stage as a resumable task: its call stack, communication
/// buffers, fault session, backoff counters and timers — everything it
/// needs to continue on any thread. `Code::run` returns with the stack
/// intact when a queue operation stops, so a stopped task resumes by
/// re-executing that instruction.
#[derive(Debug)]
pub(crate) struct StageTask {
    stack: Vec<Frame>,
    io: StageIo,
    steps: u64,
    /// Steps left of the last budget claim.
    budget: u64,
    /// Reached `halt`: only the stage-end flush is left.
    halted: bool,
    /// `steps` when a pool worker claimed the task.
    claimed_at: Option<u64>,
    /// When the task first ran.
    started: Option<Instant>,
    /// When the task last stopped in a queue operation.
    stopped: Option<Instant>,
}

impl StageTask {
    pub(crate) fn new(shared: &Shared, thread: usize) -> Self {
        StageTask {
            stack: vec![shared.code.frame(shared.entries[thread])],
            io: StageIo {
                thread,
                comm: Comm::new(shared.queues.len()),
                faults: FaultSession::new(shared.faults.as_ref(), thread),
                resume: None,
                blocked: Duration::ZERO,
                backoff: Backoff::default(),
            },
            steps: 0,
            budget: 0,
            halted: false,
            claimed_at: None,
            started: None,
            stopped: None,
        }
    }

    /// Whether running the task could make progress now: it did not stop
    /// in a queue operation, or that operation — or a flush it owes —
    /// could complete. An operation stalled for good never can.
    fn ready(&self, queues: &[SpscQueue]) -> bool {
        let Some(r) = &self.io.resume else {
            return true;
        };
        !r.stall.permanent() && can_progress(r.info, self.io.comm.pending(), queues)
    }

    /// The stage and wait set of a task stopped in a queue operation.
    fn wait_set(&self) -> Option<(usize, WaitSet)> {
        let r = self.io.resume.as_ref()?;
        let set = WaitSet {
            primary: r.info,
            flush: self.io.comm.pending().collect(),
        };
        Some((self.io.thread, set))
    }

    /// Accounts for the time up to `now`, when the task runs again.
    fn run_at(&mut self, now: Instant) {
        self.started.get_or_insert(now);
        if let Some(at) = self.stopped.take() {
            self.io.blocked += now.saturating_duration_since(at);
        }
    }

    /// [`run_at`](Self::run_at) now, reading the clock only when the task
    /// runs for the first time or after it stopped.
    fn run_now(&mut self) {
        if self.started.is_none() || self.stopped.is_some() {
            self.run_at(Instant::now());
        }
    }

    /// Ends the task: publishes its final step count and reports.
    fn end(mut self, shared: &Shared, end: StageEnd) -> StageReport {
        let now = Instant::now();
        self.run_at(now);
        let t = self.io.thread;
        shared.monitor.stage_steps[t].store(self.steps, Ordering::Relaxed);
        shared.monitor.progress.fetch_add(1, Ordering::Relaxed);
        StageReport {
            stats: StageStats {
                steps: self.steps,
                pool_steps: self.claimed_at.map_or(0, |at| self.steps - at),
                wall: self.started.map_or(Duration::ZERO, |s| now - s),
                blocked: self.io.blocked,
                parked: end == StageEnd::Parked,
                retries: self.io.backoff.retries,
                parks: self.io.backoff.parks,
                panicked: end == StageEnd::Panicked,
            },
            entry_regs: if end == StageEnd::Panicked {
                Vec::new()
            } else {
                shared.code.entry_regs(&self.stack)
            },
        }
    }
}

/// The other unfinished tasks held by the thread that runs a task.
#[derive(Clone, Copy)]
struct Peers<'a> {
    before: &'a [StageTask],
    after: &'a [StageTask],
    /// Whether the thread holds every unfinished task of the run, so no
    /// other thread can change any queue.
    alone: bool,
}

impl<'a> Peers<'a> {
    /// A task running on a thread of its own (a pool worker's claim).
    const NONE: Peers<'static> = Peers {
        before: &[],
        after: &[],
        alone: false,
    };

    fn iter(self) -> impl Iterator<Item = &'a StageTask> {
        self.before.iter().chain(self.after)
    }

    fn is_empty(self) -> bool {
        self.before.is_empty() && self.after.is_empty()
    }

    fn any_ready(self, queues: &[SpscQueue]) -> bool {
        self.iter().any(|t| t.ready(queues))
    }
}

/// Opportunistically flushes every non-empty output buffer as far as the
/// queues allow (never blocking). Called at budget-refill boundaries and
/// from inside the blocking loop, so buffered values reach consumers even
/// while this stage computes or waits on a different queue.
fn side_flush(shared: &Shared, out: &mut [Vec<i64>]) {
    let mut progress = false;
    for (qi, buf) in out.iter_mut().enumerate() {
        if buf.is_empty() {
            continue;
        }
        let q = &shared.queues[qi];
        if q.is_poisoned() {
            continue; // surfaces as an error at the blocking flush
        }
        let n = q.push_batch(buf);
        if n > 0 {
            buf.drain(..n);
            progress = true;
        }
    }
    if progress {
        shared.monitor.notify_activity();
    }
}

/// Whether a queue operation on `queue` can never complete: a produce onto
/// a poisoned queue can never be consumed; a consume may still drain
/// buffered values, but once the queue is empty nothing will ever arrive.
fn dead_end(queue: &SpscQueue, kind: BlockKind) -> bool {
    queue.is_poisoned()
        && match kind {
            BlockKind::Produce => true,
            BlockKind::Consume => queue.is_empty(),
        }
}

/// Temporal slipping (FastForward): a producer that found `queue` full
/// waits, re-reading the consumer's `head` after 1, 2, 4 … up to
/// [`SLIP_MAX_PAUSES`] PAUSEs, until half the queue is free. Retrying at once
/// would publish into each slot the consumer frees and re-read `head` — the
/// line the consumer writes at every acquire — once per publish for as long
/// as the producer stays ahead, slowing the consumer down; after slipping,
/// the producer has room for several publishes that its cached head covers.
/// The wait is short (127 PAUSEs in all), so a producer sharing its core
/// with the consumer soon reaches the retry loop's yields. Timing only: the
/// retry loop that follows completes the operation.
fn slip(queue: &SpscQueue) {
    let want = queue.capacity().div_ceil(2);
    let mut pauses = 1;
    while pauses <= SLIP_MAX_PAUSES {
        for _ in 0..pauses {
            std::hint::spin_loop();
        }
        if queue.room() >= want {
            return;
        }
        pauses *= 2;
    }
}

/// The rest of a queue operation whose first attempt failed (see
/// [`Stage::op`]): it counts the block once per logical operation
/// (`fresh`), stops the task if its thread holds another ready task, and
/// otherwise spins, yields and parks. `attempt` performs the non-blocking
/// queue operation, returning the first consumed value (or 0 for
/// produces) on completion; it may make partial progress across calls.
/// `stall` forces attempts to fail first (fault injection); an operation
/// that stops keeps what is left of it in the task's [`Resume`]. A blocked
/// produce first [slips](slip).
///
/// While waiting, the stage side-flushes its other pending output
/// buffers and registers them in its monitor [`WaitSet`], so buffered
/// values cannot deadlock the pipeline and a pending flush to a poisoned
/// queue is converted into a structured error instead of a hang.
///
/// A thread that holds other tasks (`peers`) stops waiting as soon as one
/// of them is ready ([`QueueStop::WouldBlock`]), and parks on all of their
/// wait sets at once. A thread that holds every unfinished task of the run
/// parks at once: nothing it could spin for can happen, so the monitor
/// reaches its verdict without delay.
#[cold]
fn comm_wait(
    shared: &Shared,
    io: &mut StageIo,
    info: BlockInfo,
    mut stall: Stall,
    fresh: bool,
    peers: Peers<'_>,
    mut attempt: impl FnMut() -> Option<i64>,
) -> Result<i64, QueueStop> {
    let queue = &shared.queues[info.queue];
    if fresh {
        match info.kind {
            BlockKind::Produce => queue.count_producer_block(),
            BlockKind::Consume => queue.count_consumer_block(),
        }
    }
    if !peers.is_empty() {
        // Stop only after flushing what the peers may be waiting for.
        side_flush(shared, &mut io.comm.out);
        if peers.any_ready(&shared.queues) {
            io.backoff.retries += 1;
            io.resume = Some(Resume { info, stall });
            return Err(QueueStop::WouldBlock);
        }
    }
    let began = Instant::now();
    if info.kind == BlockKind::Produce {
        side_flush(shared, &mut io.comm.out);
        if !peers.alone {
            slip(queue);
        }
    }
    let mut tries: u32 = 0;
    let outcome =
        loop {
            if dead_end(queue, info.kind) {
                break Err(QueueStop::Poisoned(info.queue));
            }
            // A pending flush to a poisoned queue can never be delivered —
            // fail now rather than spin on a satisfiable-but-unflushable set.
            if let Some(qi) = io.comm.out.iter().enumerate().find_map(|(qi, b)| {
                (!b.is_empty() && shared.queues[qi].is_poisoned()).then_some(qi)
            }) {
                break Err(QueueStop::Poisoned(qi));
            }
            if !stall.fails() {
                if let Some(v) = attempt() {
                    shared.monitor.notify_activity();
                    break Ok(v);
                }
            }
            if shared.monitor.abort.load(Ordering::Relaxed) {
                break Err(QueueStop::End(StageEnd::Aborted));
            }
            side_flush(shared, &mut io.comm.out);
            io.backoff.retries += 1;
            if peers.any_ready(&shared.queues) {
                break Err(QueueStop::WouldBlock);
            }
            tries += 1;
            if tries <= SPINS && !peers.alone {
                std::hint::spin_loop();
            } else if tries <= SPINS + YIELDS && !peers.alone {
                std::thread::yield_now();
            } else {
                tries = 0;
                io.backoff.parks += 1;
                let own = WaitSet {
                    primary: info,
                    flush: io.comm.pending().collect(),
                };
                let waits: Vec<(usize, WaitSet)> = std::iter::once((io.thread, own))
                    .chain(peers.iter().filter_map(StageTask::wait_set))
                    .collect();
                match shared.monitor.wait(&waits, &shared.queues) {
                    WaitOutcome::Ready => {}
                    WaitOutcome::Park => break Err(QueueStop::End(StageEnd::Parked)),
                    WaitOutcome::Fail => break Err(QueueStop::End(StageEnd::Aborted)),
                }
            }
        };
    shared.monitor.progress.fetch_add(1, Ordering::Relaxed);
    io.blocked += began.elapsed();
    if let Err(QueueStop::WouldBlock) = outcome {
        io.resume = Some(Resume { info, stall });
    }
    outcome
}

/// The stall budget of the operation a task stopped in, as it resumes.
#[cold]
fn resumed_stall(io: &mut StageIo, info: BlockInfo) -> Stall {
    let r = io
        .resume
        .take()
        .expect("a stopped task has an operation to resume");
    debug_assert_eq!(r.info, info, "a task resumes the operation it stopped in");
    r.stall
}

/// A stage's [`Engine`]: shared memory, the batched queues, and the
/// bookkeeping of its blocked waits.
struct Stage<'a> {
    shared: &'a Shared,
    io: &'a mut StageIo,
    /// The other tasks of the running thread.
    peers: Peers<'a>,
}

impl Stage<'_> {
    /// One blocking queue operation on `info.queue`: the first attempt runs
    /// here, with nothing set up for waiting, and only a failed attempt
    /// enters [`comm_wait`], which stops the task if another task of this
    /// thread is ready and waits otherwise — so a thread with one task
    /// waits exactly as a thread per stage would. `attempt` is as there.
    /// The fault plan's stall cadence counts one operation per logical
    /// operation, however often it stops and resumes.
    #[inline]
    fn op(
        &mut self,
        info: BlockInfo,
        mut attempt: impl FnMut() -> Option<i64>,
    ) -> Result<i64, QueueStop> {
        let shared = self.shared;
        let fresh = self.io.resume.is_none();
        let mut stall = if fresh {
            self.io.faults.stall_budget()
        } else {
            resumed_stall(self.io, info)
        };
        let queue = &shared.queues[info.queue];
        if dead_end(queue, info.kind) {
            return Err(QueueStop::Poisoned(info.queue));
        }
        if !stall.fails() {
            if let Some(v) = attempt() {
                shared.monitor.notify_activity();
                return Ok(v);
            }
        }
        comm_wait(shared, self.io, info, stall, fresh, self.peers, attempt)
    }

    /// Blocking flush of output buffer `qi`: publishes every buffered value
    /// (possibly across several partial `push_batch`es while the consumer
    /// drains) before returning. A flush that stops keeps what it has not
    /// published in the buffer and continues when the task resumes.
    fn flush(&mut self, qi: usize) -> Result<(), QueueStop> {
        let shared = self.shared;
        let mut buf = std::mem::take(&mut self.io.comm.out[qi]);
        let q = &shared.queues[qi];
        let info = BlockInfo {
            queue: qi,
            kind: BlockKind::Produce,
        };
        let mut pos = 0usize;
        let res = self.op(info, || {
            let n = q.push_batch(&buf[pos..]);
            pos += n;
            if pos == buf.len() {
                return Some(0); // `op` or `comm_wait` wakes the consumer
            }
            if n > 0 {
                // A partial push: the consumer may drain it before this
                // flush can complete, so wake it now.
                shared.monitor.notify_activity();
            }
            None
        });
        match &res {
            Err(QueueStop::WouldBlock) => {
                buf.drain(..pos);
            }
            _ => buf.clear(),
        }
        self.io.comm.out[qi] = buf; // keep the allocation
        res.map(drop)
    }

    /// Blocking refill of input buffer `qi`: acquires up to the queue's
    /// batch size in one `pop_batch` (never waiting for a full chunk) and
    /// returns the first value; the rest are served from the local buffer.
    fn refill(&mut self, qi: usize) -> Result<i64, QueueStop> {
        let shared = self.shared;
        let mut buf = std::mem::take(&mut self.io.comm.inq[qi]);
        buf.vals.clear();
        buf.next = 0;
        let q = &shared.queues[qi];
        let info = BlockInfo {
            queue: qi,
            kind: BlockKind::Consume,
        };
        let max = shared.batches[qi];
        let vals = &mut buf.vals;
        let res = self.op(info, || (q.pop_batch(vals, max) > 0).then(|| vals[0]));
        if res.is_ok() {
            buf.next = 1;
        }
        self.io.comm.inq[qi] = buf; // keep the allocation
        res
    }
}

impl Engine for Stage<'_> {
    type Stop = QueueStop;

    fn load(&mut self, addr: i64) -> Option<i64> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.shared.memory.get(a))
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    fn store(&mut self, addr: i64, value: i64) -> bool {
        match usize::try_from(addr)
            .ok()
            .and_then(|a| self.shared.memory.get(a))
        {
            Some(cell) => {
                cell.store(value, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn produce(&mut self, queue: QueueId, value: i64) -> Result<(), QueueStop> {
        let qi = queue.index();
        let shared = self.shared;
        let batch = shared.batches[qi];
        if batch == 1 {
            // Unbatched: straight to the ring. Every unbatched produce
            // completes before the next, so nothing is buffered here.
            debug_assert!(self.io.comm.out[qi].is_empty());
            let q = &shared.queues[qi];
            let info = BlockInfo {
                queue: qi,
                kind: BlockKind::Produce,
            };
            self.op(info, || q.try_produce(value).then_some(0))?;
            return Ok(());
        }
        // A resumed produce already buffered its value: only its flush is
        // left.
        if self.io.resume.is_some() {
            return self.flush(qi);
        }
        self.io.comm.out[qi].push(value);
        if self.io.comm.out[qi].len() >= batch {
            self.flush(qi)?;
        }
        Ok(())
    }

    fn consume(&mut self, queue: QueueId) -> Result<i64, QueueStop> {
        let qi = queue.index();
        let shared = self.shared;
        if shared.batches[qi] == 1 {
            // Unbatched: straight from the ring; nothing is ever refilled
            // into this queue's local buffer.
            let q = &shared.queues[qi];
            let info = BlockInfo {
                queue: qi,
                kind: BlockKind::Consume,
            };
            return self.op(info, || q.try_consume());
        }
        match self.io.comm.inq[qi].pop() {
            Some(v) => Ok(v),
            None => self.refill(qi),
        }
    }

    fn depth(&mut self, queue: QueueId) -> Result<i64, QueueStop> {
        // Occupancy as visible to this context: the ring itself, plus
        // anything this stage has produced but not yet flushed, plus
        // refilled values it has not yet served. The snapshot is racy by
        // design — the probe feeds a routing heuristic (work-stealing
        // scatter), never a correctness decision.
        let qi = queue.index();
        let inq = &self.io.comm.inq[qi];
        let local = self.io.comm.out[qi].len() + (inq.vals.len() - inq.next);
        Ok((self.shared.queues[qi].len() + local) as i64)
    }
}

/// How a slice of a task ended.
enum SliceEnd {
    /// The task spent its step budget and can run on.
    Budget,
    /// A queue operation stopped so that another, ready task of this
    /// thread can run.
    Stopped,
    /// The task ended.
    Done(StageEnd),
}

/// Runs `task` for one slice under crash recovery: a panic shuts the run
/// down with the panic as its cause, and the task ends as panicked.
fn slice(shared: &Shared, task: &mut StageTask, peers: Peers<'_>) -> SliceEnd {
    let stage = task.io.thread;
    catch_unwind(AssertUnwindSafe(|| run_slice(shared, task, peers))).unwrap_or_else(|payload| {
        shared.monitor.shutdown(
            RtError::StagePanic {
                stage,
                message: panic_message(&*payload),
            },
            &shared.queues,
        );
        SliceEnd::Done(StageEnd::Panicked)
    })
}

/// Runs `task` from a budget refill until its budget is spent, it ends, or
/// one of its queue operations stops. Errors are reported to the monitor
/// (first failure wins) and end the task as `Aborted`.
fn run_slice(shared: &Shared, task: &mut StageTask, peers: Peers<'_>) -> SliceEnd {
    let thread = task.io.thread;
    let fail = |err: RtError| {
        shared.monitor.shutdown(err, &shared.queues);
        SliceEnd::Done(StageEnd::Aborted)
    };
    // Converts the stop of a blocking queue operation.
    let queue_stop = |stop: QueueStop| match stop {
        QueueStop::Poisoned(queue) => fail(RtError::QueuePoisoned {
            queue,
            stage: thread,
        }),
        QueueStop::End(e) => SliceEnd::Done(e),
        QueueStop::WouldBlock => SliceEnd::Stopped,
    };
    let mut stage = Stage {
        shared,
        io: &mut task.io,
        peers,
    };

    if !task.halted {
        if task.budget == 0 {
            let base = shared
                .steps_claimed
                .fetch_add(STEP_BATCH, Ordering::Relaxed);
            if base >= shared.step_limit {
                return fail(RtError::StepLimit(shared.step_limit));
            }
            task.budget = STEP_BATCH.min(shared.step_limit - base);
            shared.monitor.progress.fetch_add(1, Ordering::Relaxed);
            shared.monitor.stage_steps[thread].store(task.steps, Ordering::Relaxed);
            if shared.monitor.should_stop(&shared.queues) {
                return SliceEnd::Done(StageEnd::Aborted);
            }
            // Cadence flush: don't let buffered values linger while this
            // stage computes without touching its queues.
            side_flush(shared, &mut stage.io.comm.out);
        }
        let code = &shared.code;
        let hooked = shared.faults.is_some();
        loop {
            // With a fault plan, the hook runs once per count, before the
            // first attempt of the instruction that would retire as it (a
            // halt included), and the executor runs up to the next count at
            // which the hook acts.
            let max = if hooked {
                let room = stage.io.faults.hook(thread, task.steps + 1, &shared.queues);
                task.budget.min(room)
            } else {
                task.budget
            };
            let out = code.run(&mut task.stack, &mut stage, max);
            task.steps += out.retired;
            task.budget -= out.retired;
            match out.exit {
                Exit::Budget if task.budget == 0 => return SliceEnd::Budget,
                Exit::Budget => {}
                // Neither `halt` nor the terminate sentinel is a counted step
                // (executor parity).
                Exit::Halt => break,
                Exit::Stop(stop) => return queue_stop(stop),
                Exit::Fault(f) => {
                    return fail(match f {
                        Fault::MemoryOutOfBounds { address } => RtError::MemoryOutOfBounds {
                            address,
                            size: shared.memory.len(),
                        },
                        Fault::BadIndirectTarget(v) => RtError::BadIndirectTarget(v),
                        Fault::ReturnFromEntry => RtError::ReturnFromEntry(thread),
                    })
                }
            }
        }
        task.halted = true;
    }

    // Stage-end flush: a terminating stage still owes its consumers
    // whatever it buffered since the last flush.
    for qi in 0..shared.queues.len() {
        if stage.io.comm.out[qi].is_empty() {
            continue;
        }
        if let Err(stop) = stage.flush(qi) {
            return queue_stop(stop);
        }
    }
    shared.monitor.terminate(thread, &shared.queues);
    SliceEnd::Done(StageEnd::Terminated)
}

/// Runs a task a pool worker was handed to its end, on this thread alone.
pub(crate) fn run_claimed(shared: &Shared, mut task: Box<StageTask>) -> StageReport {
    task.claimed_at = Some(task.steps);
    task.run_now();
    let end = loop {
        if let SliceEnd::Done(end) = slice(shared, &mut task, Peers::NONE) {
            break end;
        }
    };
    task.end(shared, end)
}

/// Runs every stage of the run and returns their reports, indexed by
/// hardware context.
///
/// The calling thread starts out holding every stage as a task and runs
/// them round-robin, switching when a queue operation stops and at every
/// `STEP_BATCH` refill, as the functional executor does. When one of its
/// tasks first spends a whole budget, it offers the pool every stage 1..
/// it still holds. A worker that wakes for an offer asks for its task,
/// and the calling thread hands the task over at its next slice boundary.
/// An offer whose task ends on the calling thread, or that is still open
/// when the run ends, is taken back: the caller waits only for the stages
/// it handed over. (Offering at run start instead made `perfbench` jobs 29%
/// slower; see EXPERIMENTS.md.)
pub(crate) fn run_stages(shared: &Arc<Shared>) -> Vec<StageReport> {
    let n = shared.entries.len();
    let mut local: Vec<StageTask> = (0..n).map(|t| StageTask::new(shared, t)).collect();
    let mut reports: Vec<Option<StageReport>> = (0..n).map(|_| None).collect();
    // Each stage's open offer, indexed by hardware context; empty until
    // the first budget refill.
    let mut offers: Vec<Option<pool::Offer>> = Vec::new();
    let mut handed = 0usize;
    let mut cursor = 0usize;
    while !local.is_empty() {
        if !offers.is_empty() {
            let mut k = 0;
            while k < local.len() {
                match &offers[local[k].io.thread] {
                    Some(offer) if offer.wanted() => {
                        offer.hand(local.remove(k));
                        handed += 1;
                    }
                    _ => k += 1,
                }
            }
            if local.is_empty() {
                break;
            }
        }
        if shared.monitor.abort.load(Ordering::Relaxed) {
            for task in local.drain(..) {
                let t = task.io.thread;
                reports[t] = Some(task.end(shared, StageEnd::Aborted));
            }
            break;
        }
        let len = local.len();
        // The next ready task in round-robin order; if none is, the next
        // task anyway: its stopped operation then waits for the others.
        let i = (0..len)
            .map(|k| (cursor + k) % len)
            .find(|&i| local[i].ready(&shared.queues))
            .unwrap_or(cursor % len);
        let (before, rest) = local.split_at_mut(i);
        let (task, after) = rest.split_first_mut().expect("i < len");
        task.run_now();
        let peers = Peers {
            before,
            after,
            alone: handed == 0,
        };
        match slice(shared, task, peers) {
            SliceEnd::Budget => {
                if offers.is_empty() {
                    offers.resize_with(n, || None);
                    for t in local.iter().map(|task| task.io.thread).filter(|&t| t != 0) {
                        offers[t] = Some(pool::offer(shared));
                    }
                }
                cursor = i + 1;
            }
            SliceEnd::Stopped => {
                task.stopped = Some(Instant::now());
                cursor = i + 1;
            }
            SliceEnd::Done(end) => {
                let task = local.remove(i);
                let t = task.io.thread;
                if let Some(offer) = offers.get_mut(t).and_then(Option::take) {
                    offer.finish();
                }
                reports[t] = Some(task.end(shared, end));
                // A Park verdict ends every stopped task of the run.
                if end == StageEnd::Parked {
                    for task in local.drain(..) {
                        let t = task.io.thread;
                        reports[t] = Some(task.end(shared, StageEnd::Parked));
                    }
                }
                cursor = i;
            }
        }
    }
    for (t, offer) in offers.into_iter().enumerate() {
        if let Some(report) = offer.and_then(pool::Offer::finish) {
            reports[t] = Some(report);
        }
    }
    reports
        .into_iter()
        .map(|r| r.expect("every stage reports once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StallFault;
    use dswp_ir::ProgramBuilder;

    /// Two stages that halt at once, sharing one queue of capacity 1.
    fn two_stages(plan: FaultPlan) -> Shared {
        let mut pb = ProgramBuilder::new();
        let mut stage = |name: &str| {
            let mut f = pb.function(name);
            let e = f.entry_block();
            f.switch_to(e);
            f.halt();
            f.finish()
        };
        let (s0, s1) = (stage("s0"), stage("s1"));
        let mut p = pb.finish(s0, 0);
        p.num_queues = 1;
        p.add_thread(s1);
        Shared::new(&p, &RtConfig::default().queue_capacity(1).faults(plan))
    }

    #[test]
    fn a_stopped_operation_keeps_its_stall_budget() {
        // Stage 0's every second queue operation fails its first three
        // attempts.
        let stall = StallFault {
            every: 2,
            attempts: 3,
            permanent: false,
        };
        let shared = two_stages(FaultPlan::none(2).with_stall(0, stall));
        let mut consumer = StageTask::new(&shared, 0);
        // Never run, so always ready: every failed attempt stops.
        let peer = [StageTask::new(&shared, 1)];
        let peers = Peers {
            before: &[],
            after: &peer,
            alone: true,
        };
        let consume = |task: &mut StageTask| {
            let mut stage = Stage {
                shared: &shared,
                io: &mut task.io,
                peers,
            };
            stage.consume(QueueId(0)).ok()
        };
        let q = &shared.queues[0];

        // Operation 1 is not stalled and finds the queue empty: it stops,
        // and resumes as the same operation until a value arrives.
        assert_eq!(consume(&mut consumer), None);
        assert_eq!(consume(&mut consumer), None);
        assert!(q.try_produce(7));
        assert_eq!(consume(&mut consumer), Some(7));
        assert_eq!(consumer.io.faults.queue_ops, 1);

        // Operation 2 is stalled: each forced failure stops it once, and
        // its fourth attempt completes.
        assert!(q.try_produce(8));
        for _ in 0..3 {
            assert_eq!(consume(&mut consumer), None);
        }
        assert_eq!(consume(&mut consumer), Some(8));
        assert_eq!(consumer.io.faults.queue_ops, 2);
        assert!(consumer.io.resume.is_none());
        assert_eq!(consumer.io.backoff.retries, 5);
        // One block per logical operation, however often it stopped.
        assert_eq!(q.stats().consumer_blocks, 2);
    }
}
