//! The process-wide pool of stage workers, and the hand-over of a stage
//! from the calling thread to one of them.
//!
//! [`Runtime::run`](crate::Runtime::run) runs every stage on the calling
//! thread until it [offers](offer) stages 1.. to this pool rather than
//! spawning an OS thread per stage and run. An offer goes to an idle worker
//! if there is one, and to a newly started worker otherwise: once handed
//! over, the stages of a run block on each other through their queues, so
//! every one of them must be live at once, and the pool never makes a stage
//! wait for a busy worker and never caps its size. It therefore holds at
//! most the peak number of stages that were ever offered at the same time.
//!
//! Each worker is one state machine behind one mutex:
//!
//! ```text
//! Idle ─offer→ Offered ─hand→ Handed ─worker→ Running ─worker→ Done ─finish→ Idle
//!                 └──────────────────────finish─────────────────────────────→ Idle
//! ```
//!
//! A worker that wakes for an offer raises its [`wanted`](Offer::wanted)
//! flag and waits for the stage as a blocked queue operation waits —
//! spinning, then yielding, then parked — and the calling thread hands the
//! stage over at its next slice boundary. The worker then runs it to its
//! end, alone, and leaves the stage's report in its state.
//! [`finish`](Offer::finish) takes that report, or takes back an offer that
//! was never handed over, whether or not its worker woke; either way the
//! caller puts the worker back on the idle list itself. So a run that ends
//! before its workers wake waits for nothing, and the caller's next run
//! finds every worker of this one idle: a warm pool starts no thread.
//!
//! An idle worker blocks on its condition variable — no spinning, no
//! yielding and no idle timeout — so a parked pool costs the machine
//! nothing. Workers live as long as the process and are never joined. A
//! stage catches its own panic, so a worker does not die with a stage in
//! hand; if one did, its state would turn `Lost` and the run would panic
//! rather than wait forever for the stage's report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::worker::{run_claimed, Shared, StageReport, StageTask, SPINS, YIELDS};

/// Where a worker is in the hand-over of a stage.
enum State {
    /// Not offered anything.
    Idle,
    /// Offered a stage of this run, which the calling thread still runs.
    Offered(Arc<Shared>),
    /// The stage was handed over; the worker takes it.
    Handed(Arc<Shared>, Box<StageTask>),
    /// The worker runs the stage.
    Running,
    /// The stage ended; its report waits for the caller.
    Done(Box<StageReport>),
    /// The worker died while holding the stage.
    Lost,
}

/// One pool thread and the state through which it takes stages.
struct Worker {
    state: Mutex<State>,
    /// Wakes the worker on an offer or a hand-over, and the caller when
    /// the stage is done.
    changed: Condvar,
    /// Raised by the worker once it waits for the offered stage; the
    /// calling thread reads it at every slice boundary. The stage itself
    /// moves through `state`'s mutex, whose unlock and lock order the two
    /// threads' work on it.
    wanted: AtomicBool,
}

/// Stage workers: the idle ones are listed here, a busy one is held by its
/// [`Offer`].
struct Pool {
    idle: Mutex<Vec<Arc<Worker>>>,
}

/// The process-wide pool.
static POOL: Pool = Pool::new();

/// Locks `m`, tolerating poisoning: no stage runs while a pool lock is
/// held, so a panic can never leave the guarded state half-updated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Offers a stage of `shared`'s run to a pool worker: an idle one, or a
/// new one if none is idle.
///
/// # Panics
///
/// Panics if no idle worker is left and the OS refuses a new thread.
pub(crate) fn offer(shared: &Arc<Shared>) -> Offer {
    POOL.offer(shared)
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
        }
    }

    fn offer(&'static self, shared: &Arc<Shared>) -> Offer {
        let idle = lock(&self.idle).pop();
        let worker = idle.unwrap_or_else(|| {
            let worker = Arc::new(Worker {
                state: Mutex::new(State::Idle),
                changed: Condvar::new(),
                wanted: AtomicBool::new(false),
            });
            let serving = Arc::clone(&worker);
            thread::Builder::new()
                .name("dswp-stage".into())
                .spawn(move || serving.serve())
                .expect("the OS refused a stage worker thread");
            worker
        });
        *lock(&worker.state) = State::Offered(Arc::clone(shared));
        worker.changed.notify_one();
        Offer { worker, pool: self }
    }
}

/// A stage offered to one pool worker; [`finish`](Offer::finish) ends it.
pub(crate) struct Offer {
    worker: Arc<Worker>,
    pool: &'static Pool,
}

impl Offer {
    /// Whether the worker waits for the stage.
    pub(crate) fn wanted(&self) -> bool {
        self.worker.wanted.load(Ordering::Relaxed)
    }

    /// Hands `task` to the worker, which runs it to its end.
    pub(crate) fn hand(&self, task: StageTask) {
        let mut state = lock(&self.worker.state);
        let State::Offered(shared) = std::mem::replace(&mut *state, State::Idle) else {
            unreachable!("a stage is handed over once, while offered");
        };
        *state = State::Handed(shared, Box::new(task));
        drop(state);
        self.worker.changed.notify_one();
    }

    /// Ends the offer and puts the worker back on the idle list. Returns
    /// the report of a handed-over stage, once the stage ended, and `None`
    /// for a stage that was never handed over, whether or not the worker
    /// woke for it.
    ///
    /// # Panics
    ///
    /// Panics if the worker died while holding the stage.
    pub(crate) fn finish(self) -> Option<StageReport> {
        let worker = &self.worker;
        let mut state = lock(&worker.state);
        let report = loop {
            match std::mem::replace(&mut *state, State::Idle) {
                State::Offered(_) => break None,
                State::Done(report) => break Some(*report),
                busy @ (State::Handed(..) | State::Running) => {
                    *state = busy;
                    state = worker
                        .changed
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                State::Lost => panic!("a pool stage ended without reporting"),
                State::Idle => unreachable!("an offered worker is never idle"),
            }
        };
        worker.wanted.store(false, Ordering::Relaxed);
        drop(state);
        lock(&self.pool.idle).push(self.worker);
        report
    }
}

impl Worker {
    /// The worker's loop: wait for an offer, wait for its stage, run the
    /// stage, leave its report, and wait again.
    fn serve(self: Arc<Self>) {
        let mut state = lock(&self.state);
        let mut tries: u32 = 0;
        loop {
            match std::mem::replace(&mut *state, State::Running) {
                State::Handed(shared, task) => {
                    drop(state);
                    let report = catch_unwind(AssertUnwindSafe(|| run_claimed(&shared, task)));
                    drop(shared);
                    // Notified with the lock released, so the caller wakes
                    // to a free mutex.
                    let Ok(report) = report else {
                        *lock(&self.state) = State::Lost;
                        self.changed.notify_one();
                        return;
                    };
                    *lock(&self.state) = State::Done(Box::new(report));
                    self.changed.notify_one();
                    state = lock(&self.state);
                }
                other => {
                    // Offered: wait for the stage as a blocked queue
                    // operation waits, from the first sight of the offer,
                    // when `wanted` is still down. Otherwise: park until
                    // offered.
                    let offered = matches!(other, State::Offered(_));
                    *state = other;
                    if offered && !self.wanted.load(Ordering::Relaxed) {
                        self.wanted.store(true, Ordering::Relaxed);
                        tries = 0;
                    }
                    tries = tries.saturating_add(1);
                    if offered && tries <= SPINS + YIELDS {
                        drop(state);
                        if tries <= SPINS {
                            std::hint::spin_loop();
                        } else {
                            thread::yield_now();
                        }
                        state = lock(&self.state);
                    } else {
                        state = self
                            .changed
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Verdict;
    use crate::RtConfig;
    use dswp_ir::{ProgramBuilder, QueueId};

    /// A run of `n` stages that pass one value along `1 → 2 → … → n-1 → 0`,
    /// each adding 1 to it; stage 0 stores it at address 0. Every stage
    /// retires 3 instructions.
    fn chain(n: usize) -> Arc<Shared> {
        let mut pb = ProgramBuilder::new();
        let mut stage = |k: usize| {
            let mut f = pb.function(format!("s{k}"));
            let e = f.entry_block();
            let (x, base) = (f.reg(), f.reg());
            f.switch_to(e);
            match k {
                0 => {
                    f.consume(x, QueueId(n as u32 - 2));
                    f.iconst(base, 0);
                    f.store(x, base, 0);
                }
                _ => {
                    if k == 1 {
                        f.iconst(x, 0);
                    } else {
                        f.consume(x, QueueId(k as u32 - 2));
                    }
                    f.add(x, x, 1);
                    f.produce(QueueId(k as u32 - 1), x);
                }
            }
            f.halt();
            f.finish()
        };
        let stages: Vec<_> = (0..n).map(&mut stage).collect();
        let mut p = pb.finish(stages[0], 1);
        p.num_queues = n as u32 - 1;
        for &s in &stages[1..] {
            p.add_thread(s);
        }
        Arc::new(Shared::new(&p, &RtConfig::default()))
    }

    /// Offers stage `t` of `shared` to `pool` and hands it over once the
    /// worker wants it.
    fn hand(pool: &'static Pool, shared: &Arc<Shared>, t: usize) -> Offer {
        let offer = pool.offer(shared);
        while !offer.wanted() {
            thread::yield_now();
        }
        offer.hand(StageTask::new(shared, t));
        offer
    }

    #[test]
    fn an_offer_never_waits_for_a_busy_worker() {
        // Stages are handed over in the order 0, n-1, …, 1: each but the
        // last waits for a value from a stage handed over after it, so a
        // pool that made an offer wait for a busy worker would hang here.
        static POOL: Pool = Pool::new();
        let n = 6;
        let shared = chain(n);
        let offers: Vec<Offer> = std::iter::once(0)
            .chain((1..n).rev())
            .map(|t| hand(&POOL, &shared, t))
            .collect();
        for offer in offers {
            let report = offer.finish().expect("a handed-over stage reports");
            assert!(!report.stats.parked && !report.stats.panicked);
            assert_eq!(report.stats.steps, 3);
        }
        assert!(!matches!(shared.monitor.verdict(), Some(Verdict::Fail(_))));
        assert_eq!(shared.memory[0].load(Ordering::Relaxed), n as i64 - 1);
        assert_eq!(lock(&POOL.idle).len(), n);
    }

    #[test]
    fn finish_takes_back_an_offer_its_worker_woke_for() {
        static POOL: Pool = Pool::new();
        let shared = chain(2);
        let first = POOL.offer(&shared);
        while !first.wanted() {
            thread::yield_now();
        }
        let worker = Arc::clone(&first.worker);
        assert!(first.finish().is_none());
        assert!(!worker.wanted.load(Ordering::Relaxed));
        assert!(matches!(lock(&POOL.idle).as_slice(), [w] if Arc::ptr_eq(w, &worker)));

        // The next offer goes to that worker, which runs the stage exactly.
        let second = hand(&POOL, &shared, 1);
        assert!(Arc::ptr_eq(&second.worker, &worker));
        let report = second.finish().expect("a handed-over stage reports");
        assert!(!report.stats.parked && !report.stats.panicked);
        assert!(!matches!(shared.monitor.verdict(), Some(Verdict::Fail(_))));
        assert_eq!((report.stats.steps, report.stats.pool_steps), (3, 3));
        assert_eq!(shared.queues[0].try_consume(), Some(1));
        assert_eq!(lock(&POOL.idle).len(), 1);
    }
}
