//! Global blocking coordination, deadlock detection and liveness limits.
//!
//! The queue fast path is lock-free; a stage thread only arrives here after
//! spinning on a full (produce) or empty (consume) queue. The [`Monitor`]
//! parks such threads on a condition variable and — because it sees every
//! blocked thread at once — is the runtime's only liveness authority: when
//! every live thread is blocked and no blocked operation can ever be
//! satisfied, it issues a structured verdict instead of letting the process
//! hang.
//!
//! Two verdicts exist, mirroring the functional executor's semantics
//! (`dswp-sim`): if the main context has already terminated, the remaining
//! blocked threads are *parked* (a DSWP master loop that produced its
//! terminate sentinels may leave auxiliary threads waiting on queues that
//! will never fill — the run is complete); if the main context is itself
//! blocked, the program is *deadlocked* and the run fails with
//! [`RtError::Deadlock`].
//!
//! With batched communication a blocked thread may hold *pending flush
//! buffers* for other queues. Those buffered values could unblock a peer,
//! so a thread registers a [`WaitSet`]: its primary blocked operation plus
//! every queue it still owes a flush to. The thread is woken (and
//! quiescence is denied) whenever the primary op *or any pending flush*
//! becomes performable — the blocking loop in the worker then side-flushes
//! those buffers, which is what keeps buffering from manufacturing
//! deadlocks that the unbatched runtime would not have.
//!
//! Waiters poll with a bounded `wait_timeout`, so a lost wakeup costs
//! milliseconds, never liveness. Every poll also checks cancel, the
//! deadline and the no-progress watchdog; running stages check the first
//! two at budget refills. Every failure ends the run through
//! [`Monitor::shutdown`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::queue::{CacheLine, SpscQueue};
use crate::{CancelToken, RtConfig, RtError};

/// Which side of a queue a thread is blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Producer waiting for a free slot (queue full).
    Produce,
    /// Consumer waiting for a value (queue empty).
    Consume,
}

/// A blocked queue operation: the queue and the side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockInfo {
    pub queue: usize,
    pub kind: BlockKind,
}

/// Everything a blocked thread is waiting on: the operation it cannot
/// complete, plus the queues it holds non-empty local output buffers for
/// (a flush to any of them is progress too).
#[derive(Clone, Debug)]
pub(crate) struct WaitSet {
    /// The operation the thread is actually blocked on.
    pub primary: BlockInfo,
    /// Queues with pending (non-empty) local output buffers.
    pub flush: Vec<usize>,
}

impl WaitSet {
    /// A wait on a single operation with no pending flushes — the
    /// un-batched shape.
    #[cfg(test)]
    pub fn solo(queue: usize, kind: BlockKind) -> Self {
        WaitSet {
            primary: BlockInfo { queue, kind },
            flush: Vec::new(),
        }
    }
}

/// Terminal decision about a quiescent (or failed) run.
#[derive(Clone, Debug)]
pub(crate) enum Verdict {
    /// Main terminated; remaining blocked threads park and the run is
    /// complete.
    Park,
    /// The run failed; all threads must stop.
    Fail(RtError),
}

/// What a blocked thread should do next.
#[derive(Debug)]
pub(crate) enum WaitOutcome {
    /// The blocked operation (or a pending flush) became satisfiable —
    /// retry it.
    Ready,
    /// Park verdict: stop this thread, the run completed without it.
    Park,
    /// Failure verdict: stop this thread, the run is an error.
    Fail,
}

#[derive(Debug)]
struct MonState {
    /// `Some(set)` while thread `t` is blocked inside [`Monitor::wait`].
    blocked: Vec<Option<WaitSet>>,
    /// Whether thread `t` has terminated (halt or terminate sentinel).
    terminated: Vec<bool>,
    verdict: Option<Verdict>,
    /// The heartbeat as last seen by the liveness check, and since when.
    heartbeat: (u64, Instant),
}

/// The runtime-global coordination object.
#[derive(Debug)]
pub(crate) struct Monitor {
    state: Mutex<MonState>,
    cond: Condvar,
    /// Fast-path hint: number of threads currently inside [`wait`]. Lets
    /// queue operations skip the mutex when nobody is parked. Read after
    /// every successful queue operation, so it has a line of its own, away
    /// from the state mutex that blocked stages write.
    blocked_hint: CacheLine<AtomicUsize>,
    /// Raised by [`shutdown`](Self::shutdown); running stages stop at their
    /// next budget refill or blocking attempt.
    pub abort: AtomicBool,
    /// Heartbeat: bumped at every budget refill, every completed blocked
    /// operation and every stage end. On a line of its own, so every
    /// stage's writes leave the read-mostly fields around it alone.
    pub progress: CacheLine<AtomicU64>,
    /// Per-stage retired-instruction counters, refreshed at budget
    /// refills: the timeout diagnosis, and a crashed stage's step count.
    /// One line each, so stages do not write to a shared line.
    pub stage_steps: Vec<CacheLine<AtomicU64>>,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    watchdog: Duration,
}

/// Whether a blocked operation could complete right now. A poisoned queue
/// counts as satisfiable so its waiters wake up, re-attempt, and observe
/// the poison in the worker's blocking loop (which converts it into a
/// structured error) — instead of sleeping on a dead endpoint or tripping
/// a spurious deadlock verdict.
fn satisfiable(info: BlockInfo, queues: &[SpscQueue]) -> bool {
    let q = &queues[info.queue];
    if q.is_poisoned() {
        return true;
    }
    match info.kind {
        BlockKind::Consume => !q.is_empty(),
        BlockKind::Produce => !q.is_full(),
    }
}

/// Whether anything in the wait set can make progress: the primary op, or a
/// flush of a pending output buffer (a produce-shaped op on that queue).
fn satisfiable_set(set: &WaitSet, queues: &[SpscQueue]) -> bool {
    satisfiable(set.primary, queues)
        || set.flush.iter().any(|&q| {
            satisfiable(
                BlockInfo {
                    queue: q,
                    kind: BlockKind::Produce,
                },
                queues,
            )
        })
}

impl Monitor {
    pub fn new(num_threads: usize) -> Self {
        Monitor {
            state: Mutex::new(MonState {
                blocked: vec![None; num_threads],
                terminated: vec![false; num_threads],
                verdict: None,
                heartbeat: (0, Instant::now()),
            }),
            cond: Condvar::new(),
            blocked_hint: CacheLine(AtomicUsize::new(0)),
            abort: AtomicBool::new(false),
            progress: CacheLine(AtomicU64::new(0)),
            stage_steps: (0..num_threads)
                .map(|_| CacheLine(AtomicU64::new(0)))
                .collect(),
            cancel: None,
            deadline: None,
            watchdog: Duration::MAX,
        }
    }

    /// Enforces `config`'s cancel token, deadline (counted from now) and
    /// watchdog.
    pub fn limits(mut self, config: &RtConfig) -> Self {
        self.cancel = config.cancel.clone();
        self.deadline = config.deadline.and_then(|d| Instant::now().checked_add(d));
        self.watchdog = config.watchdog;
        self
    }

    /// Locks the shared state, tolerating mutex poisoning: a stage thread
    /// that panicked (crash recovery catches it) must not cascade into
    /// panics on every surviving thread. The state itself stays consistent
    /// — every mutation under the lock is a single field store.
    fn lock(&self) -> MutexGuard<'_, MonState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Quiescence check, called with the state lock held: if every live
    /// thread is blocked and nothing in any blocked thread's wait set is
    /// satisfiable, nothing can ever happen again — park the run if main
    /// has terminated, otherwise shut it down as deadlocked. Returns whether
    /// it issued a verdict.
    fn settle_if_quiescent(&self, st: &mut MonState, queues: &[SpscQueue]) -> bool {
        let all_stopped = st
            .blocked
            .iter()
            .zip(&st.terminated)
            .all(|(b, &t)| t || b.is_some());
        if !all_stopped
            || st
                .blocked
                .iter()
                .flatten()
                .any(|s| satisfiable_set(s, queues))
        {
            return false;
        }
        if st.terminated[0] {
            st.verdict = Some(Verdict::Park);
            self.cond.notify_all();
        } else {
            let blocked = st
                .blocked
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_some())
                .map(|(t, _)| t)
                .collect();
            self.shutdown_locked(st, RtError::Deadlock { blocked }, queues);
        }
        true
    }

    /// The liveness check, with the state lock held: cancel, then the
    /// deadline — blaming the lowest-numbered blocked stage, else the one
    /// that retired the fewest instructions — then no heartbeat for the
    /// watchdog duration.
    fn expired(&self, st: &mut MonState) -> Option<RtError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(RtError::Cancelled);
        }
        let now = Instant::now();
        if self.deadline.is_some_and(|d| now >= d) {
            let steps = |t: usize| self.stage_steps[t].load(Ordering::Relaxed);
            let stage = st.blocked.iter().position(Option::is_some);
            let stage = stage
                .unwrap_or_else(|| (0..st.blocked.len()).min_by_key(|&t| steps(t)).unwrap_or(0));
            return Some(RtError::Timeout {
                stage,
                last_progress: steps(stage),
            });
        }
        let beat = self.progress.load(Ordering::Relaxed);
        if beat != st.heartbeat.0 {
            st.heartbeat = (beat, now);
        } else if now.duration_since(st.heartbeat.1) >= self.watchdog {
            return Some(RtError::Watchdog {
                stalled_for: self.watchdog,
            });
        }
        None
    }

    /// A running stage's check at each budget refill: shuts the run down if
    /// cancel or the deadline has fired, and says whether it is aborting.
    /// Lock-free until then; reads the clock only when a deadline is set.
    pub fn should_stop(&self, queues: &[SpscQueue]) -> bool {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            let mut st = self.lock();
            if let Some(err) = self.expired(&mut st) {
                self.shutdown_locked(&mut st, err, queues);
            }
        }
        self.abort.load(Ordering::Relaxed)
    }

    /// Blocks `thread` on `set` until anything in it becomes satisfiable or
    /// a verdict is issued. Re-runs the liveness and quiescence checks on
    /// every poll, so whichever thread blocks last detects deadlock within
    /// one poll interval, and a blocked run notices cancel, its deadline or
    /// a stall within one poll of it.
    pub fn wait(&self, thread: usize, set: &WaitSet, queues: &[SpscQueue]) -> WaitOutcome {
        let mut st = self.lock();
        st.blocked[thread] = Some(set.clone());
        self.blocked_hint.fetch_add(1, Ordering::Relaxed);
        let outcome = loop {
            // The verdict first: a failure ends every wait, and nothing
            // can become satisfiable after a Park verdict.
            match st.verdict {
                Some(Verdict::Park) => break WaitOutcome::Park,
                Some(Verdict::Fail(_)) => break WaitOutcome::Fail,
                None => {}
            }
            // The limits before satisfiability, so a permanently stalled
            // (always satisfiable) operation still polls them.
            if let Some(err) = self.expired(&mut st) {
                self.shutdown_locked(&mut st, err, queues);
                continue;
            }
            // SPSC ownership: a satisfiable operation stays satisfiable
            // until *this* thread performs it.
            if satisfiable_set(set, queues) {
                break WaitOutcome::Ready;
            }
            if self.settle_if_quiescent(&mut st, queues) {
                continue;
            }
            let (guard, _timed_out) = self
                .cond
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        };
        st.blocked[thread] = None;
        self.blocked_hint.fetch_sub(1, Ordering::Relaxed);
        outcome
    }

    /// Records that `thread` terminated (halt / terminate sentinel) and
    /// re-checks quiescence: this termination may strand blocked peers.
    pub fn terminate(&self, thread: usize, queues: &[SpscQueue]) {
        let mut st = self.lock();
        st.terminated[thread] = true;
        if st.verdict.is_none() {
            self.settle_if_quiescent(&mut st, queues);
        }
        self.cond.notify_all();
    }

    /// The one shutdown path, taken by every failure: a stage panic, a
    /// worker fault or step limit, a poisoned queue, deadlock, the
    /// watchdog, the deadline and cancel.
    pub fn shutdown(&self, err: RtError, queues: &[SpscQueue]) {
        self.shutdown_locked(&mut self.lock(), err, queues);
    }

    /// Records the verdict first — the first error wins, so the cause and
    /// not its poisoned-queue aftermath is reported — then raises the abort
    /// flag, poisons every queue so stalled operations give up, and wakes
    /// every waiter.
    fn shutdown_locked(&self, st: &mut MonState, err: RtError, queues: &[SpscQueue]) {
        if st.verdict.is_none() {
            st.verdict = Some(Verdict::Fail(err));
        }
        self.abort.store(true, Ordering::Relaxed);
        for q in queues {
            q.poison();
        }
        self.cond.notify_all();
    }

    /// Issues a failure verdict with no queues to poison.
    #[cfg(test)]
    pub fn fail(&self, err: RtError) {
        self.shutdown(err, &[]);
    }

    /// Wakes blocked threads after a successful queue operation. Cheap
    /// (one relaxed load) when nobody is blocked.
    pub fn notify_activity(&self) {
        if self.blocked_hint.load(Ordering::Relaxed) > 0 {
            let _guard = self.lock();
            self.cond.notify_all();
        }
    }

    /// The final verdict, if any.
    pub fn verdict(&self) -> Option<Verdict> {
        self.lock().verdict.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lone_blocked_main_is_deadlock() {
        let queues = vec![SpscQueue::new(4, false)];
        let m = Monitor::new(1);
        let out = m.wait(0, &WaitSet::solo(0, BlockKind::Consume), &queues);
        assert!(matches!(out, WaitOutcome::Fail));
        assert!(matches!(
            m.verdict(),
            Some(Verdict::Fail(RtError::Deadlock { .. }))
        ));
    }

    #[test]
    fn blocked_aux_parks_after_main_terminates() {
        let queues = Arc::new(vec![SpscQueue::new(4, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let aux =
            std::thread::spawn(move || mc.wait(1, &WaitSet::solo(0, BlockKind::Consume), &qc));
        std::thread::sleep(Duration::from_millis(5));
        m.terminate(0, &queues);
        assert!(matches!(aux.join().unwrap(), WaitOutcome::Park));
        assert!(matches!(m.verdict(), Some(Verdict::Park)));
    }

    #[test]
    fn satisfiable_wait_returns_ready() {
        let queues = Arc::new(vec![SpscQueue::new(1, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let consumer =
            std::thread::spawn(move || mc.wait(1, &WaitSet::solo(0, BlockKind::Consume), &qc));
        std::thread::sleep(Duration::from_millis(5));
        assert!(queues[0].try_produce(9));
        m.notify_activity();
        assert!(matches!(consumer.join().unwrap(), WaitOutcome::Ready));
        assert!(m.verdict().is_none());
    }

    #[test]
    fn fail_wakes_waiters() {
        let queues = Arc::new(vec![SpscQueue::new(1, false)]);
        let m = Arc::new(Monitor::new(2));
        let (mc, qc) = (Arc::clone(&m), Arc::clone(&queues));
        let waiter =
            std::thread::spawn(move || mc.wait(1, &WaitSet::solo(0, BlockKind::Consume), &qc));
        std::thread::sleep(Duration::from_millis(5));
        m.fail(RtError::StepLimit(1));
        assert!(matches!(waiter.join().unwrap(), WaitOutcome::Fail));
    }

    #[test]
    fn pending_flush_denies_quiescence() {
        // Thread 0 (main) blocked consuming empty queue 1, but it owes a
        // flush to queue 0 which has space: not a deadlock — the wait must
        // return Ready so the worker can side-flush.
        let queues = vec![SpscQueue::new(4, false), SpscQueue::new(4, false)];
        let m = Monitor::new(1);
        let set = WaitSet {
            primary: BlockInfo {
                queue: 1,
                kind: BlockKind::Consume,
            },
            flush: vec![0],
        };
        let out = m.wait(0, &set, &queues);
        assert!(matches!(out, WaitOutcome::Ready));
        assert!(m.verdict().is_none());
    }

    #[test]
    fn unflushable_pending_flush_still_deadlocks() {
        // Same shape, but the flush target is itself full: genuinely stuck.
        let queues = vec![SpscQueue::new(1, false), SpscQueue::new(1, false)];
        assert!(queues[0].try_produce(1));
        let m = Monitor::new(1);
        let set = WaitSet {
            primary: BlockInfo {
                queue: 1,
                kind: BlockKind::Consume,
            },
            flush: vec![0],
        };
        let out = m.wait(0, &set, &queues);
        assert!(matches!(out, WaitOutcome::Fail));
        assert!(matches!(
            m.verdict(),
            Some(Verdict::Fail(RtError::Deadlock { .. }))
        ));
    }
}
