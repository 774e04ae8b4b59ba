//! The per-stage worker: one OS thread interpreting one hardware context.
//!
//! Each DSWP pipeline stage runs this loop on its own `std::thread`. Value
//! semantics are shared with the other two engines through
//! `dswp_ir::exec` (frames, operands, call discipline) and
//! `dswp_ir::interp::{eval_unary, eval_binary, eval_cmp}` (arithmetic), so
//! the native runtime cannot drift from the interpreter or the functional
//! executor on anything but scheduling.
//!
//! Shared program memory is a `Vec<AtomicI64>` accessed with relaxed
//! loads/stores; cross-stage ordering comes from the queues' release/acquire
//! cursor pairs, exactly the discipline the DSWP transformation enforces by
//! routing every cross-stage memory dependence through a synchronization
//! flow.
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

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dswp_ir::exec::{new_frame, read_operand, Frame};
use dswp_ir::interp::{eval_binary, eval_cmp, eval_unary};
use dswp_ir::{FuncId, Op, Program};

use crate::fault::{FaultPlan, InjectedPanic, StageFaults};
use crate::monitor::{BlockInfo, BlockKind, Monitor, WaitOutcome, WaitSet};
use crate::queue::{BatchHistogram, SpscQueue};
use crate::RtError;

/// Steps claimed from the shared budget at a time; also the cadence of
/// abort-flag checks, progress heartbeats, and opportunistic flushes of
/// lingering output buffers.
const STEP_BATCH: u64 = 1024;
/// Busy-spin iterations on a blocked queue before yielding.
const SPINS: u32 = 64;
/// `yield_now` iterations after spinning before parking on the monitor.
const YIELDS: u32 = 32;

/// Everything the stage threads share. Borrows the program for the scope of
/// the run (`std::thread::scope`).
#[derive(Debug)]
pub(crate) struct Shared<'p> {
    pub program: &'p Program,
    pub memory: Vec<AtomicI64>,
    pub queues: Vec<SpscQueue>,
    pub monitor: Monitor,
    /// Per-queue communication batch size (≥ 1; 1 = unbatched).
    pub batches: Vec<usize>,
    /// Total steps claimed across all threads (runaway guard).
    pub steps_claimed: AtomicU64,
    pub step_limit: u64,
    /// Set on any failure verdict; running threads stop at the next batch
    /// boundary or blocking attempt.
    pub abort: AtomicBool,
    /// Heartbeat for the wall-clock watchdog in `Runtime::run`.
    pub progress: AtomicU64,
    /// Per-stage retired-instruction counters, refreshed at batch
    /// boundaries: the deadline watchdog's `last_progress` diagnosis, and
    /// the best-effort step count of a crashed stage.
    pub stage_steps: Vec<AtomicU64>,
    /// Fault-injection plan, if any.
    pub faults: Option<&'p FaultPlan>,
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

/// Per-stage outcome and statistics, returned through the scoped join.
#[derive(Clone, Debug)]
pub(crate) struct WorkerReport {
    pub end: WorkerEnd,
    /// Successfully executed instructions (matches the functional
    /// executor's per-context step counts exactly).
    pub steps: u64,
    /// Entry-frame registers at the end of the run.
    pub entry_regs: Vec<i64>,
    /// Total wall-clock time of this stage thread.
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

enum QueueOutcome {
    /// The operation completed; for consumes, carries the value.
    Done(i64),
    /// The named queue was poisoned: the peer endpoint is dead (or a fault
    /// plan poisoned it) and the operation — or a pending flush to it —
    /// can never complete meaningfully.
    Poisoned(usize),
    Stop(WorkerEnd),
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
    /// must artificially fail (`u32::MAX` = the operation never completes).
    fn stall_budget(&mut self) -> u32 {
        self.queue_ops += 1;
        match self.faults.stall {
            Some(s) if self.queue_ops.is_multiple_of(s.every) => {
                if s.permanent {
                    u32::MAX
                } else {
                    s.attempts
                }
            }
            _ => 0,
        }
    }
}

fn mem_load(shared: &Shared<'_>, addr: i64) -> Option<i64> {
    usize::try_from(addr)
        .ok()
        .and_then(|a| shared.memory.get(a))
        .map(|cell| cell.load(Ordering::Relaxed))
}

fn mem_store(shared: &Shared<'_>, addr: i64, value: i64) -> bool {
    match usize::try_from(addr)
        .ok()
        .and_then(|a| shared.memory.get(a))
    {
        Some(cell) => {
            cell.store(value, Ordering::Relaxed);
            true
        }
        None => false,
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
fn side_flush(shared: &Shared<'_>, out: &mut [Vec<i64>]) {
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

/// Spin-then-park loop shared by flushes and refills. `attempt` performs
/// the non-blocking queue operation, returning the first consumed value
/// (or 0 for flushes) on completion; it may make partial progress across
/// calls. `forced_fails` attempts are failed artificially first (fault
/// injection; `u32::MAX` stalls the operation forever — the watchdog or
/// deadline then ends the run).
///
/// While waiting, the worker side-flushes its other pending output
/// buffers (`out`) and registers them in its monitor [`WaitSet`], so
/// buffered values cannot deadlock the pipeline and a pending flush to a
/// poisoned queue is converted into a structured error instead of a hang.
#[allow(clippy::too_many_arguments)]
fn comm_wait(
    shared: &Shared<'_>,
    thread: usize,
    info: BlockInfo,
    out: &mut [Vec<i64>],
    blocked_time: &mut Duration,
    backoff: &mut Backoff,
    mut forced_fails: u32,
    mut attempt: impl FnMut() -> Option<i64>,
) -> QueueOutcome {
    let queue = &shared.queues[info.queue];
    let mut attempt = move || {
        if forced_fails > 0 {
            if forced_fails != u32::MAX {
                forced_fails -= 1;
            }
            return None;
        }
        attempt()
    };
    // A produce onto a poisoned queue can never be consumed; a consume may
    // still drain buffered values, but once the queue is empty nothing will
    // ever arrive.
    let poisoned = |queue: &SpscQueue| {
        queue.is_poisoned()
            && match info.kind {
                BlockKind::Produce => true,
                BlockKind::Consume => queue.is_empty(),
            }
    };
    // Fast path: no contention, no timing overhead.
    if poisoned(queue) {
        return QueueOutcome::Poisoned(info.queue);
    }
    if let Some(v) = attempt() {
        shared.monitor.notify_activity();
        return QueueOutcome::Done(v);
    }
    match info.kind {
        BlockKind::Produce => queue.count_producer_block(),
        BlockKind::Consume => queue.count_consumer_block(),
    };
    let began = Instant::now();
    let mut tries: u32 = 0;
    let outcome =
        loop {
            if poisoned(queue) {
                break QueueOutcome::Poisoned(info.queue);
            }
            // A pending flush to a poisoned queue can never be delivered —
            // fail now rather than spin on a satisfiable-but-unflushable set.
            if let Some(qi) = out.iter().enumerate().find_map(|(qi, b)| {
                (!b.is_empty() && shared.queues[qi].is_poisoned()).then_some(qi)
            }) {
                break QueueOutcome::Poisoned(qi);
            }
            if let Some(v) = attempt() {
                shared.monitor.notify_activity();
                break QueueOutcome::Done(v);
            }
            if shared.abort.load(Ordering::Relaxed) {
                break QueueOutcome::Stop(WorkerEnd::Aborted);
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
                    WaitOutcome::Park => break QueueOutcome::Stop(WorkerEnd::Parked),
                    WaitOutcome::Fail => break QueueOutcome::Stop(WorkerEnd::Aborted),
                }
            }
        };
    shared.progress.fetch_add(1, Ordering::Relaxed);
    *blocked_time += began.elapsed();
    outcome
}

/// Blocking flush of output buffer `qi`: publishes every buffered value
/// (possibly across several partial `push_batch`es while the consumer
/// drains) before returning `Done`.
fn flush_queue(
    shared: &Shared<'_>,
    thread: usize,
    qi: usize,
    comm: &mut Comm,
    faults: &mut FaultSession,
    blocked_time: &mut Duration,
    backoff: &mut Backoff,
) -> QueueOutcome {
    let mut buf = std::mem::take(&mut comm.out[qi]);
    let q = &shared.queues[qi];
    let info = BlockInfo {
        queue: qi,
        kind: BlockKind::Produce,
    };
    let stall = faults.stall_budget();
    let total = buf.len();
    let mut pos = 0usize;
    let res = comm_wait(
        shared,
        thread,
        info,
        &mut comm.out,
        blocked_time,
        backoff,
        stall,
        || {
            let n = q.push_batch(&buf[pos..]);
            if n > 0 {
                pos += n;
                shared.monitor.notify_activity();
            }
            (pos == total).then_some(0)
        },
    );
    if matches!(res, QueueOutcome::Done(_)) {
        comm.flushes.add(total);
    }
    buf.clear();
    comm.out[qi] = buf; // keep the allocation
    res
}

/// Blocking refill of input buffer `qi`: acquires up to the queue's batch
/// size in one `pop_batch` (never waiting for a full chunk) and returns
/// the first value; the rest are served from the local buffer.
fn refill_queue(
    shared: &Shared<'_>,
    thread: usize,
    qi: usize,
    comm: &mut Comm,
    faults: &mut FaultSession,
    blocked_time: &mut Duration,
    backoff: &mut Backoff,
) -> QueueOutcome {
    let mut buf = std::mem::take(&mut comm.inq[qi]);
    buf.vals.clear();
    buf.next = 0;
    let q = &shared.queues[qi];
    let info = BlockInfo {
        queue: qi,
        kind: BlockKind::Consume,
    };
    let stall = faults.stall_budget();
    let max = shared.batches[qi];
    let vals = &mut buf.vals;
    let res = comm_wait(
        shared,
        thread,
        info,
        &mut comm.out,
        blocked_time,
        backoff,
        stall,
        || (q.pop_batch(vals, max) > 0).then(|| vals[0]),
    );
    if matches!(res, QueueOutcome::Done(_)) {
        buf.next = 1;
        comm.refills.add(buf.vals.len());
    }
    comm.inq[qi] = buf; // keep the allocation
    res
}

/// Runs hardware context `thread` to completion. Errors are reported to the
/// monitor (first failure wins) and surface as an `Aborted` report.
pub(crate) fn run_worker(shared: &Shared<'_>, thread: usize) -> WorkerReport {
    let started = Instant::now();
    let mut blocked_time = Duration::ZERO;
    let mut backoff = Backoff::default();
    let mut faults = FaultSession::new(shared.faults, thread);
    let mut comm = Comm::new(shared.queues.len());
    let program = shared.program;
    let entry = program.thread_entries()[thread];
    let mut stack: Vec<Frame> = vec![new_frame(program.function(entry), entry)];
    let mut steps: u64 = 0;
    let mut budget: u64 = 0;

    let fail = |err: RtError| {
        shared.abort.store(true, Ordering::Relaxed);
        shared.monitor.fail(err);
        WorkerEnd::Aborted
    };
    // Converts a blocked-op outcome shared by all four queue instructions.
    let queue_stop = |end: QueueOutcome| match end {
        QueueOutcome::Poisoned(queue) => fail(RtError::QueuePoisoned {
            queue,
            stage: thread,
        }),
        QueueOutcome::Stop(e) => e,
        QueueOutcome::Done(_) => unreachable!("Done handled by the caller"),
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
            shared.progress.fetch_add(1, Ordering::Relaxed);
            shared.stage_steps[thread].store(steps, Ordering::Relaxed);
            if shared.abort.load(Ordering::Relaxed) {
                break 'run WorkerEnd::Aborted;
            }
            // Cadence flush: don't let buffered values linger while this
            // stage computes without touching its queues.
            side_flush(shared, &mut comm.out);
        }
        budget -= 1;
        steps += 1;
        faults.on_step(thread, steps, &shared.queues);

        let frame = stack.last_mut().expect("live context has a frame");
        let func = program.function(frame.func);
        let instr = func.block(frame.block).instrs()[frame.index];

        match *func.op(instr) {
            Op::Const { dst, value } => {
                frame.regs[dst.index()] = value;
                frame.index += 1;
            }
            Op::Unary { dst, op, src } => {
                let v = read_operand(src, &frame.regs);
                frame.regs[dst.index()] = eval_unary(op, v);
                frame.index += 1;
            }
            Op::Binary { dst, op, lhs, rhs } => {
                let (a, b) = (
                    read_operand(lhs, &frame.regs),
                    read_operand(rhs, &frame.regs),
                );
                frame.regs[dst.index()] = eval_binary(op, a, b);
                frame.index += 1;
            }
            Op::Cmp { dst, op, lhs, rhs } => {
                let (a, b) = (
                    read_operand(lhs, &frame.regs),
                    read_operand(rhs, &frame.regs),
                );
                frame.regs[dst.index()] = eval_cmp(op, a, b);
                frame.index += 1;
            }
            Op::Load {
                dst, addr, offset, ..
            } => {
                let a = frame.regs[addr.index()].wrapping_add(offset);
                let Some(v) = mem_load(shared, a) else {
                    break 'run fail(RtError::MemoryOutOfBounds {
                        address: a,
                        size: shared.memory.len(),
                    });
                };
                frame.regs[dst.index()] = v;
                frame.index += 1;
            }
            Op::Store {
                src, addr, offset, ..
            } => {
                let v = read_operand(src, &frame.regs);
                let a = frame.regs[addr.index()].wrapping_add(offset);
                if !mem_store(shared, a, v) {
                    break 'run fail(RtError::MemoryOutOfBounds {
                        address: a,
                        size: shared.memory.len(),
                    });
                }
                frame.index += 1;
            }
            Op::Call { callee } => {
                frame.index += 1;
                stack.push(new_frame(program.function(callee), callee));
            }
            Op::CallInd { target } => {
                let v = frame.regs[target.index()];
                if v < 0 {
                    // Terminate sentinel (master-loop protocol): not a
                    // counted step, matching the functional executor.
                    steps -= 1;
                    break 'run WorkerEnd::Terminated;
                }
                let Some(idx) = usize::try_from(v)
                    .ok()
                    .filter(|&i| i < program.functions().len())
                else {
                    break 'run fail(RtError::BadIndirectTarget(v));
                };
                frame.index += 1;
                let callee = FuncId::from_index(idx);
                stack.push(new_frame(program.function(callee), callee));
            }
            Op::Br { cond, then_, else_ } => {
                frame.block = if frame.regs[cond.index()] != 0 {
                    then_
                } else {
                    else_
                };
                frame.index = 0;
            }
            Op::Jump { target } => {
                frame.block = target;
                frame.index = 0;
            }
            Op::Ret => {
                if stack.len() == 1 {
                    break 'run fail(RtError::ReturnFromEntry(thread));
                }
                stack.pop();
            }
            Op::Halt => {
                steps -= 1; // halt is not a counted step (executor parity)
                break 'run WorkerEnd::Terminated;
            }
            Op::Produce { queue, src } => {
                let v = read_operand(src, &frame.regs);
                let qi = queue.index();
                comm.out[qi].push(v);
                if comm.out[qi].len() >= shared.batches[qi] {
                    match flush_queue(
                        shared,
                        thread,
                        qi,
                        &mut comm,
                        &mut faults,
                        &mut blocked_time,
                        &mut backoff,
                    ) {
                        QueueOutcome::Done(_) => frame.index += 1,
                        other => {
                            steps -= 1; // the op never completed
                            break 'run queue_stop(other);
                        }
                    }
                } else {
                    frame.index += 1;
                }
            }
            Op::Consume { queue, dst } => {
                let qi = queue.index();
                let v = match comm.inq[qi].pop() {
                    Some(v) => v,
                    None => match refill_queue(
                        shared,
                        thread,
                        qi,
                        &mut comm,
                        &mut faults,
                        &mut blocked_time,
                        &mut backoff,
                    ) {
                        QueueOutcome::Done(v) => v,
                        other => {
                            steps -= 1;
                            break 'run queue_stop(other);
                        }
                    },
                };
                frame.regs[dst.index()] = v;
                frame.index += 1;
            }
            Op::ProduceToken { queue } => {
                let qi = queue.index();
                comm.out[qi].push(0);
                if comm.out[qi].len() >= shared.batches[qi] {
                    match flush_queue(
                        shared,
                        thread,
                        qi,
                        &mut comm,
                        &mut faults,
                        &mut blocked_time,
                        &mut backoff,
                    ) {
                        QueueOutcome::Done(_) => frame.index += 1,
                        other => {
                            steps -= 1;
                            break 'run queue_stop(other);
                        }
                    }
                } else {
                    frame.index += 1;
                }
            }
            Op::ConsumeToken { queue } => {
                let qi = queue.index();
                match comm.inq[qi].pop() {
                    Some(_) => frame.index += 1,
                    None => match refill_queue(
                        shared,
                        thread,
                        qi,
                        &mut comm,
                        &mut faults,
                        &mut blocked_time,
                        &mut backoff,
                    ) {
                        QueueOutcome::Done(_) => frame.index += 1,
                        other => {
                            steps -= 1;
                            break 'run queue_stop(other);
                        }
                    },
                }
            }
            Op::QueueDepth { dst, queue } => {
                // Occupancy as visible to this context: the ring itself,
                // plus anything this worker has produced but not yet
                // flushed, plus refilled values it has not yet served.
                // The snapshot is racy by design — the probe feeds a
                // routing heuristic (work-stealing scatter), never a
                // correctness decision.
                let qi = queue.index();
                let local = comm.out[qi].len() + (comm.inq[qi].vals.len() - comm.inq[qi].next);
                frame.regs[dst.index()] = (shared.queues[qi].len() + local) as i64;
                frame.index += 1;
            }
            Op::Nop => {
                frame.index += 1;
            }
        }
    };

    // Stage-end flush: a terminating stage still owes its consumers
    // whatever it buffered since the last flush.
    if end == WorkerEnd::Terminated {
        for qi in 0..shared.queues.len() {
            if comm.out[qi].is_empty() {
                continue;
            }
            match flush_queue(
                shared,
                thread,
                qi,
                &mut comm,
                &mut faults,
                &mut blocked_time,
                &mut backoff,
            ) {
                QueueOutcome::Done(_) => {}
                other => {
                    end = queue_stop(other);
                    break;
                }
            }
        }
    }

    if end == WorkerEnd::Terminated {
        shared.monitor.terminate(thread, &shared.queues);
    }
    shared.stage_steps[thread].store(steps, Ordering::Relaxed);
    shared.progress.fetch_add(1, Ordering::Relaxed);

    WorkerReport {
        end,
        steps,
        entry_regs: stack.first().map(|f| f.regs.clone()).unwrap_or_default(),
        wall: started.elapsed(),
        blocked: blocked_time,
        retries: backoff.retries,
        parks: backoff.parks,
        flushes: comm.flushes,
        refills: comm.refills,
    }
}
