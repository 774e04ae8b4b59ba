//! A warm stage-worker pool starts no OS thread.
//!
//! `Runtime::run` offers stages 1.. to a process-wide pool. The caller puts
//! each worker back on the idle list as it takes the report of a stage it
//! handed over, or takes back an offer it never handed over, so a caller's
//! next run finds the workers idle. This check counts the process's
//! threads, so it lives alone in its test binary: any other test running
//! beside it would start threads of its own.

mod support;

use dswp_rt::Runtime;

use support::two_stage_sum;

/// The number of threads in this process, where the OS lists them.
fn os_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn warm_pool_starts_no_thread() {
    // The calling thread runs a run's stages itself and offers stage 1 to
    // the pool only once a stage spent a whole step budget; a worker
    // claims it only after that. So the short run never reaches the pool,
    // the medium one mostly ends before a worker claims its stage, and the
    // long one moves its stage to a worker.
    let programs = [100, 300, 20_000].map(|n| (n, two_stage_sum(n)));
    let run = |(n, p): &(i64, dswp_ir::Program)| {
        let r = Runtime::new(p).run().unwrap();
        assert_eq!(r.memory[0], n * (n - 1) / 2);
        r
    };
    for p in &programs {
        run(p);
    }
    let Some(warm) = os_threads() else {
        eprintln!("skipped: this OS does not list a process's threads in /proc");
        return;
    };
    for i in 0..200 {
        let short = run(&programs[0]);
        assert!(short.stages.iter().all(|s| s.pool_steps == 0));
        assert_eq!(os_threads(), Some(warm), "short run {i} started a thread");
        run(&programs[1]);
        assert_eq!(os_threads(), Some(warm), "medium run {i} started a thread");
        if i % 20 == 0 {
            run(&programs[2]);
            assert_eq!(os_threads(), Some(warm), "long run {i} started a thread");
        }
    }
}
