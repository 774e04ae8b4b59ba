//! The per-stage worker: one thread interpreting one hardware context.
//!
//! Each DSWP pipeline stage runs this loop on a thread of its own — stage 0
//! on the thread that called `Runtime::run`, the others on workers of the
//! stage pool — over the [`Code`] that `Runtime::run` lowered once before
//! handing the stages out. Every
//! instruction executes through `Code::run`, the executor the other three
//! engines share; the worker supplies only shared memory, the batched
//! queues, the step budget and the fault hooks (its `Stage` engine), so the
//! native runtime cannot drift from the interpreter, the functional
//! executor or the timing model on anything but scheduling.
//!
//! There is one loop for every stage. Without a fault plan it hands the
//! executor a whole claimed budget (up to `STEP_BATCH` instructions) per
//! call. With a plan, it calls the same executor one instruction at a time
//! and runs the per-instruction fault hook before each, so the fault
//! cadence is exact.
//!
//! Shared program memory is a `Vec<AtomicI64>` accessed with relaxed
//! loads/stores; cross-stage ordering comes from the queues' release/acquire
//! slot stamps, exactly the discipline the DSWP transformation enforces by
//! routing every cross-stage memory dependence through a synchronization
//! flow.
//!
//! An unbatched `produce`/`consume` (batch size 1) goes straight to the
//! ring: one `try_produce`/`try_consume`, and only when that attempt fails
//! does the operation enter the spin→yield→park loop. A produce that found
//! its queue full first [slips](slip) until half the queue is free.
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
//!   budget-refill boundary) the worker opportunistically flushes lingering
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
//! When the runtime carries a [`FaultPlan`], each worker additionally
//! drives a [`FaultSession`]: periodic busy-spin delays, artificial
//! queue-operation stalls, queue poisoning, and forced panics at an exact
//! retired-instruction count. Benign faults perturb timing only — the
//! chaos differential suite asserts the observable results stay
//! bit-identical; lethal faults are converted by the recovery layer in
//! `lib.rs` into structured [`RtError`]s.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dswp_ir::exec::{Code, Engine, Exit, Fault, Frame};
use dswp_ir::{FuncId, QueueId};

use crate::fault::{FaultPlan, InjectedPanic, StageFaults};
use crate::monitor::{BlockInfo, BlockKind, Monitor, WaitOutcome, WaitSet};
use crate::queue::{BatchHistogram, SpscQueue};
use crate::RtError;

/// Steps claimed from the shared budget at a time; also the cadence of
/// abort, cancel and deadline checks, progress heartbeats, and
/// opportunistic flushes of lingering output buffers.
const STEP_BATCH: u64 = 1024;
/// Busy-spin iterations on a blocked queue before yielding.
const SPINS: u32 = 64;
/// `yield_now` iterations after spinning before parking on the monitor.
const YIELDS: u32 = 32;
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

/// How a worker's loop ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WorkerEnd {
    /// Reached `halt` or the terminate sentinel — normal completion.
    Terminated,
    /// Stopped by a Park verdict while blocked (run completed without it).
    Parked,
    /// Stopped by a failure verdict or the abort flag.
    Aborted,
    /// The stage thread panicked and was caught by the recovery layer.
    Panicked,
}

/// Per-stage outcome and statistics, reported to `Runtime::run` when the
/// stage ends.
#[derive(Clone, Debug)]
pub(crate) struct WorkerReport {
    pub end: WorkerEnd,
    /// Successfully executed instructions (matches the functional
    /// executor's per-context step counts exactly).
    pub steps: u64,
    /// Entry-frame registers at the end of the run.
    pub entry_regs: Vec<i64>,
    /// Wall-clock time this stage ran.
    pub wall: Duration,
    /// Portion of `wall` spent blocked on queues (spin + park).
    pub blocked: Duration,
    /// Failed queue-operation attempts that entered the spin→yield→park
    /// backoff (each retry is one loop turn of a blocked operation).
    pub retries: u64,
    /// Times the stage gave up spinning and parked on the monitor.
    pub parks: u64,
    /// Sizes of the logical output batches this stage flushed.
    pub flushes: BatchHistogram,
    /// Sizes of the input batches this stage refilled.
    pub refills: BatchHistogram,
}

/// Why a blocking queue operation did not complete.
enum QueueStop {
    /// The named queue was poisoned: the peer endpoint is dead (or a fault
    /// plan poisoned it) and the operation — or a pending flush to it —
    /// can never complete meaningfully.
    Poisoned(usize),
    /// The run ended while this stage waited.
    End(WorkerEnd),
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

/// A worker's communication state: per-queue output buffers awaiting a
/// flush, per-queue input buffers being served, and the per-stage batch
/// histograms.
struct Comm {
    out: Vec<Vec<i64>>,
    inq: Vec<InBuf>,
    flushes: BatchHistogram,
    refills: BatchHistogram,
}

impl Comm {
    fn new(num_queues: usize) -> Self {
        Comm {
            out: vec![Vec::new(); num_queues],
            inq: (0..num_queues).map(|_| InBuf::default()).collect(),
            flushes: BatchHistogram::default(),
            refills: BatchHistogram::default(),
        }
    }
}

/// The per-worker fault-injection state: counters that decide when the
/// stage's [`StageFaults`] fire.
struct FaultSession {
    faults: StageFaults,
    /// Flush/refill operations performed so far (drives stall cadence;
    /// with batch size 1 this is exactly the queue-operation count).
    queue_ops: u64,
    /// Whether the poison fault already fired.
    poisoned: bool,
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
        }
    }

    /// Per-instruction hook, called after `steps` was incremented. Applies
    /// the delay, poisons queues, and triggers the forced panic.
    ///
    /// # Panics
    ///
    /// Deliberately panics with an [`InjectedPanic`] payload when the plan
    /// says this stage must crash at this retired-instruction count; the
    /// recovery layer in `Runtime::run` catches it.
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
}

/// Tracks the retry/park accounting of one worker across its blocked
/// queue operations.
#[derive(Default)]
struct Backoff {
    retries: u64,
    parks: u64,
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

/// Spin-then-park loop of a queue operation whose first attempt failed
/// (see [`Stage::op`]). `attempt` performs the non-blocking queue
/// operation, returning the first consumed value (or 0 for produces) on
/// completion; it may make partial progress across calls. `stall` forces
/// attempts to fail first (fault injection). A blocked produce first
/// [slips](slip).
///
/// While waiting, the worker side-flushes its other pending output
/// buffers (`out`) and registers them in its monitor [`WaitSet`], so
/// buffered values cannot deadlock the pipeline and a pending flush to a
/// poisoned queue is converted into a structured error instead of a hang.
#[cold]
#[allow(clippy::too_many_arguments)]
fn comm_wait(
    shared: &Shared,
    thread: usize,
    info: BlockInfo,
    out: &mut [Vec<i64>],
    blocked_time: &mut Duration,
    backoff: &mut Backoff,
    mut stall: Stall,
    mut attempt: impl FnMut() -> Option<i64>,
) -> Result<i64, QueueStop> {
    let queue = &shared.queues[info.queue];
    match info.kind {
        BlockKind::Produce => queue.count_producer_block(),
        BlockKind::Consume => queue.count_consumer_block(),
    };
    let began = Instant::now();
    if info.kind == BlockKind::Produce {
        side_flush(shared, out);
        slip(queue);
    }
    let mut tries: u32 = 0;
    let outcome =
        loop {
            if dead_end(queue, info.kind) {
                break Err(QueueStop::Poisoned(info.queue));
            }
            // A pending flush to a poisoned queue can never be delivered —
            // fail now rather than spin on a satisfiable-but-unflushable set.
            if let Some(qi) = out.iter().enumerate().find_map(|(qi, b)| {
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
                break Err(QueueStop::End(WorkerEnd::Aborted));
            }
            side_flush(shared, out);
            backoff.retries += 1;
            tries += 1;
            if tries <= SPINS {
                std::hint::spin_loop();
            } else if tries <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                tries = 0;
                backoff.parks += 1;
                let set = WaitSet {
                    primary: info,
                    flush: out
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| !b.is_empty())
                        .map(|(qi, _)| qi)
                        .collect(),
                };
                match shared.monitor.wait(thread, &set, &shared.queues) {
                    WaitOutcome::Ready => {}
                    WaitOutcome::Park => break Err(QueueStop::End(WorkerEnd::Parked)),
                    WaitOutcome::Fail => break Err(QueueStop::End(WorkerEnd::Aborted)),
                }
            }
        };
    shared.monitor.progress.fetch_add(1, Ordering::Relaxed);
    *blocked_time += began.elapsed();
    outcome
}

/// A stage thread's [`Engine`]: shared memory, the batched queues, and the
/// bookkeeping of its blocked waits.
struct Stage<'s> {
    shared: &'s Shared,
    thread: usize,
    comm: Comm,
    faults: FaultSession,
    /// Time spent blocked on queues (spin + park).
    blocked: Duration,
    backoff: Backoff,
}

impl Stage<'_> {
    /// One blocking queue operation on `info.queue`: the first attempt runs
    /// here, with nothing set up for waiting, and only a failed attempt
    /// enters [`comm_wait`]. `attempt` is as there. The fault plan's stall
    /// cadence counts one operation per call, whichever way it completes.
    #[inline]
    fn op(
        &mut self,
        info: BlockInfo,
        mut attempt: impl FnMut() -> Option<i64>,
    ) -> Result<i64, QueueStop> {
        let shared = self.shared;
        let mut stall = self.faults.stall_budget();
        if dead_end(&shared.queues[info.queue], info.kind) {
            return Err(QueueStop::Poisoned(info.queue));
        }
        if !stall.fails() {
            if let Some(v) = attempt() {
                shared.monitor.notify_activity();
                return Ok(v);
            }
        }
        comm_wait(
            shared,
            self.thread,
            info,
            &mut self.comm.out,
            &mut self.blocked,
            &mut self.backoff,
            stall,
            attempt,
        )
    }

    /// Blocking flush of output buffer `qi`: publishes every buffered value
    /// (possibly across several partial `push_batch`es while the consumer
    /// drains) before returning.
    fn flush(&mut self, qi: usize) -> Result<(), QueueStop> {
        let shared = self.shared;
        let mut buf = std::mem::take(&mut self.comm.out[qi]);
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
        if res.is_ok() {
            self.comm.flushes.add(buf.len());
        }
        buf.clear();
        self.comm.out[qi] = buf; // keep the allocation
        res.map(drop)
    }

    /// Blocking refill of input buffer `qi`: acquires up to the queue's
    /// batch size in one `pop_batch` (never waiting for a full chunk) and
    /// returns the first value; the rest are served from the local buffer.
    fn refill(&mut self, qi: usize) -> Result<i64, QueueStop> {
        let shared = self.shared;
        let mut buf = std::mem::take(&mut self.comm.inq[qi]);
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
            self.comm.refills.add(buf.vals.len());
        }
        self.comm.inq[qi] = buf; // keep the allocation
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
            debug_assert!(self.comm.out[qi].is_empty());
            let q = &shared.queues[qi];
            let info = BlockInfo {
                queue: qi,
                kind: BlockKind::Produce,
            };
            self.op(info, || q.try_produce(value).then_some(0))?;
            self.comm.flushes.add(1);
            return Ok(());
        }
        self.comm.out[qi].push(value);
        if self.comm.out[qi].len() >= batch {
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
            let v = self.op(info, || q.try_consume())?;
            self.comm.refills.add(1);
            return Ok(v);
        }
        match self.comm.inq[qi].pop() {
            Some(v) => Ok(v),
            None => self.refill(qi),
        }
    }

    fn depth(&mut self, queue: QueueId) -> Result<i64, QueueStop> {
        // Occupancy as visible to this context: the ring itself, plus
        // anything this worker has produced but not yet flushed, plus
        // refilled values it has not yet served. The snapshot is racy by
        // design — the probe feeds a routing heuristic (work-stealing
        // scatter), never a correctness decision.
        let qi = queue.index();
        let inq = &self.comm.inq[qi];
        let local = self.comm.out[qi].len() + (inq.vals.len() - inq.next);
        Ok((self.shared.queues[qi].len() + local) as i64)
    }
}

/// Runs hardware context `thread` to completion. Errors are reported to the
/// monitor (first failure wins) and surface as an `Aborted` report.
pub(crate) fn run_worker(shared: &Shared, thread: usize) -> WorkerReport {
    let started = Instant::now();
    let mut stage = Stage {
        shared,
        thread,
        comm: Comm::new(shared.queues.len()),
        faults: FaultSession::new(shared.faults.as_ref(), thread),
        blocked: Duration::ZERO,
        backoff: Backoff::default(),
    };
    let code = &shared.code;
    let entry = shared.entries[thread];
    let mut stack: Vec<Frame> = vec![code.frame(entry)];
    let mut steps: u64 = 0;
    let mut budget: u64 = 0;
    let hooked = shared.faults.is_some();

    let fail = |err: RtError| {
        shared.monitor.shutdown(err, &shared.queues);
        WorkerEnd::Aborted
    };
    // Converts the stop of a blocking queue operation.
    let queue_stop = |stop: QueueStop| match stop {
        QueueStop::Poisoned(queue) => fail(RtError::QueuePoisoned {
            queue,
            stage: thread,
        }),
        QueueStop::End(e) => e,
    };

    let mut end = 'run: loop {
        if budget == 0 {
            let base = shared
                .steps_claimed
                .fetch_add(STEP_BATCH, Ordering::Relaxed);
            if base >= shared.step_limit {
                break 'run fail(RtError::StepLimit(shared.step_limit));
            }
            budget = STEP_BATCH.min(shared.step_limit - base);
            shared.monitor.progress.fetch_add(1, Ordering::Relaxed);
            shared.monitor.stage_steps[thread].store(steps, Ordering::Relaxed);
            if shared.monitor.should_stop(&shared.queues) {
                break 'run WorkerEnd::Aborted;
            }
            // Cadence flush: don't let buffered values linger while this
            // stage computes without touching its queues.
            side_flush(shared, &mut stage.comm.out);
        }
        // With a fault plan, the hook runs before every attempt (a halt or a
        // stopped queue operation included) with the count the instruction
        // would retire as, and the executor runs that one instruction.
        let max = if hooked {
            stage.faults.on_step(thread, steps + 1, &shared.queues);
            1
        } else {
            budget
        };
        let out = code.run(&mut stack, &mut stage, max);
        steps += out.retired;
        budget -= out.retired;
        match out.exit {
            Exit::Budget => {}
            // Neither `halt` nor the terminate sentinel is a counted step
            // (executor parity).
            Exit::Halt => break 'run WorkerEnd::Terminated,
            Exit::Stop(stop) => break 'run queue_stop(stop),
            Exit::Fault(f) => {
                break 'run fail(match f {
                    Fault::MemoryOutOfBounds { address } => RtError::MemoryOutOfBounds {
                        address,
                        size: shared.memory.len(),
                    },
                    Fault::BadIndirectTarget(v) => RtError::BadIndirectTarget(v),
                    Fault::ReturnFromEntry => RtError::ReturnFromEntry(thread),
                })
            }
        }
    };

    // Stage-end flush: a terminating stage still owes its consumers
    // whatever it buffered since the last flush.
    if end == WorkerEnd::Terminated {
        for qi in 0..shared.queues.len() {
            if stage.comm.out[qi].is_empty() {
                continue;
            }
            if let Err(stop) = stage.flush(qi) {
                end = queue_stop(stop);
                break;
            }
        }
    }

    if end == WorkerEnd::Terminated {
        shared.monitor.terminate(thread, &shared.queues);
    }
    shared.monitor.stage_steps[thread].store(steps, Ordering::Relaxed);
    shared.monitor.progress.fetch_add(1, Ordering::Relaxed);

    WorkerReport {
        end,
        steps,
        entry_regs: code.entry_regs(&stack),
        wall: started.elapsed(),
        blocked: stage.blocked,
        retries: stage.backoff.retries,
        parks: stage.backoff.parks,
        flushes: stage.comm.flushes,
        refills: stage.comm.refills,
    }
}
