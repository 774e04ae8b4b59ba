//! The process-wide pool of stage workers.
//!
//! [`Runtime::run`](crate::Runtime::run) runs every stage on the calling
//! thread until it offers stages 1.. to this pool rather than spawning an
//! OS thread per stage and run. An offer goes to an idle worker if there is
//! one, and to a newly started worker otherwise: once handed over, the
//! stages of a run block on each other through their queues, so every one
//! of them must be live at once, and the pool never makes a stage wait for
//! a busy worker and never caps its size. It therefore holds at most the
//! peak number of stages that were ever offered at the same time.
//!
//! An offer the worker has not started yet can be [withdrawn](Ticket):
//! the caller takes the job back from the worker's slot and puts the worker
//! back on the idle list itself, so a run that ends before its worker wakes
//! waits for nothing. A worker that started reports as usual, and the
//! caller waits for it.
//!
//! An idle worker blocks on its own condition variable — no spinning, no
//! yielding and no idle timeout — so a parked pool costs the machine
//! nothing. Workers live as long as the process and are never joined. A
//! stage catches its own panic, so a worker does not die with a job in
//! hand; if one did, its run would see the report channel close in place
//! of that stage's report and panic rather than wait forever.
//!
//! A worker goes back on the idle list *before* it delivers its result.
//! The caller that receives the last result of a run can therefore start
//! its next run at once and find every worker of the previous one idle:
//! sequential runs start no new thread once the pool is warm.

use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Delivers a finished job's result; called once the worker is idle again.
type Delivery = Box<dyn FnOnce() + Send>;
/// A job as the pool stores it: does the work and returns its delivery.
type Job = Box<dyn FnOnce() -> Delivery + Send>;

/// One pool thread and the slot through which it receives its next job.
struct Worker {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

/// Workers waiting for a job.
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());

/// Locks `m`, tolerating poisoning: no job runs while a pool lock is held,
/// so a panic can never leave the guarded state half-updated. The stage
/// offers use it for the same reason: every update of theirs is one store.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job handed to a worker, which [`withdraw`](Ticket::withdraw) takes
/// back unless the worker already started it.
pub(crate) struct Ticket(Arc<Worker>);

impl Ticket {
    /// Takes the job back if its worker has not started it, and puts that
    /// worker back on the idle list; the job then never runs and never
    /// reports. Returns whether it did: `false` means the job runs, or ran,
    /// and its result is sent as usual.
    pub(crate) fn withdraw(self) -> bool {
        let taken = lock(&self.0.job).take().is_some();
        if taken {
            lock(&IDLE).push(self.0);
        }
        taken
    }
}

/// Runs `work` on a pool worker and sends its result to `report`, unless
/// the returned ticket withdraws it first.
///
/// The job starts at once, on an idle worker or on a new one. The worker
/// drops `work` and everything it captured before it goes idle, and sends
/// the result only after that.
///
/// # Panics
///
/// Panics if no idle worker is left and the OS refuses a new thread.
pub(crate) fn execute<R: Send + 'static>(
    work: impl FnOnce() -> R + Send + 'static,
    report: Sender<R>,
) -> Ticket {
    let job: Job = Box::new(move || {
        let result = work();
        Box::new(move || {
            // The receiver is gone only if the caller itself panicked.
            let _ = report.send(result);
        })
    });
    let idle = lock(&IDLE).pop();
    match idle {
        Some(worker) => {
            *lock(&worker.job) = Some(job);
            worker.ready.notify_one();
            Ticket(worker)
        }
        None => {
            let worker = Arc::new(Worker {
                job: Mutex::new(Some(job)),
                ready: Condvar::new(),
            });
            let serving = Arc::clone(&worker);
            thread::Builder::new()
                .name("dswp-stage".into())
                .spawn(move || serving.serve())
                .expect("the OS refused a stage worker thread");
            Ticket(worker)
        }
    }
}

impl Worker {
    /// The worker's loop: take a job, run it, go idle, deliver, wait.
    fn serve(self: Arc<Self>) {
        loop {
            let job = {
                let mut slot = lock(&self.job);
                loop {
                    if let Some(job) = slot.take() {
                        break job;
                    }
                    slot = self
                        .ready
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let deliver = job();
            lock(&IDLE).push(Arc::clone(&self));
            deliver();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn blocked_jobs_never_wait_for_each_other() {
        // Job `i` messages job `i + 1`, then waits for job `i - 1`'s
        // message. They are handed over last to first, so a pool that made
        // a job wait for a busy worker would hang here.
        let n = 6;
        let (senders, mut inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<()>()).unzip();
        let (tx, rx) = channel();
        for i in (0..n).rev() {
            let inbox = inboxes.pop().unwrap();
            let next = senders[(i + 1) % n].clone();
            execute(
                move || {
                    next.send(()).unwrap();
                    inbox.recv().unwrap();
                    i
                },
                tx.clone(),
            );
        }
        let mut got: Vec<usize> = (0..n).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }
}
