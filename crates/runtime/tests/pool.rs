//! The stage-worker pool under concurrent callers, oversubscription and
//! failing runs.
//!
//! `Runtime::run` runs stage 0 on the calling thread and every other stage
//! on a process-wide pool of parked workers, so runs share threads. These
//! tests check that sharing is invisible: concurrent runs of different
//! programs keep their results apart, a run with more stages than the host
//! has CPUs still completes, and a run that fails in any way leaves the
//! pool able to serve the next run exactly. That the pool stops starting
//! threads once it is warm is checked in `pool_reuse.rs`, a test binary of
//! its own.

// The root integration suites' routing-independent check, which names the
// crates through the workspace facade.
extern crate self as dswp_repro;
#[path = "../../../tests/common/mod.rs"]
mod common;
pub use dswp;
use dswp_ir as ir;
use dswp_rt as rt;
use dswp_sim as sim;

use std::time::Duration;

use dswp::{annotate_loop_affine, dswp_loop, DswpOptions, Replicate};
use dswp_analysis::AliasMode;
use dswp_ir::interp::Interpreter;
use dswp_ir::{parse_program, Program};
use dswp_rt::fault::StallFault;
use dswp_rt::{silence_injected_panics, CancelToken, FaultPlan, RtConfig, RtError, Runtime};
use dswp_sim::{ExecResult, Executor};
use dswp_workloads::{paper_suite, Size, Workload};

use common::assert_native_matches_executor;

/// A paper kernel, DSWP-transformed with default options, and its
/// functional-executor run.
struct Kernel {
    name: &'static str,
    program: Program,
    exec: ExecResult,
}

fn kernel(w: &Workload) -> Kernel {
    let baseline = Interpreter::new(&w.program)
        .run()
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
    let mut program = w.program.clone();
    let main = program.main();
    dswp_loop(
        &mut program,
        main,
        w.header,
        &baseline.profile,
        &DswpOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{}: DSWP failed: {e}", w.name));
    let exec = Executor::new(&program)
        .run()
        .unwrap_or_else(|e| panic!("{}: executor failed: {e}", w.name));
    assert_eq!(exec.memory, baseline.memory, "{}: executor memory", w.name);
    Kernel {
        name: w.name,
        program,
        exec,
    }
}

/// Runs `k` natively with recorded streams and checks it against the
/// executor exactly.
fn run_exact(ctx: &str, k: &Kernel, cfg: RtConfig) {
    let native = Runtime::new(&k.program)
        .with_config(cfg.record_streams(true))
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: {}: native run failed: {e}", k.name));
    assert_native_matches_executor(&format!("{ctx}: {}", k.name), &k.program, &k.exec, &native);
}

#[test]
fn concurrent_callers_keep_their_runs_apart() {
    let kernels: Vec<Kernel> = paper_suite(Size::Test).iter().map(kernel).collect();
    assert!(kernels.iter().all(|k| k.program.num_threads() >= 2));
    let kernels = &kernels;
    std::thread::scope(|s| {
        for caller in 0..4 {
            s.spawn(move || {
                for i in 0..25 {
                    let k = &kernels[(caller * 3 + i) % kernels.len()];
                    run_exact(&format!("caller {caller} run {i}"), k, RtConfig::default());
                }
            });
        }
    });
}

#[test]
fn oversubscribed_replicated_run_completes() {
    let w = dswp_workloads::compress::build(Size::Test);
    let baseline = Interpreter::new(&w.program).run().expect("baseline");
    let mut p = w.program.clone();
    let main = p.main();
    annotate_loop_affine(&mut p, main, w.header).expect("scev");
    let opts = DswpOptions {
        alias: AliasMode::Precise,
        replicate: Replicate::Fixed(4),
        max_threads: 2,
        ..DswpOptions::default()
    };
    let report = dswp_loop(&mut p, main, w.header, &baseline.profile, &opts).expect("dswp");
    assert!(!report.replication.is_empty(), "compress must replicate");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stages = p.num_threads();
    assert!(stages > 4, "{stages} stages");
    if stages <= cpus {
        eprintln!("note: {stages} stages do not oversubscribe {cpus} CPUs here");
    }
    let exec = Executor::new(&p).run().expect("executor");
    assert_eq!(exec.memory, baseline.memory);
    for round in 0..3 {
        let native = Runtime::new(&p)
            .with_config(RtConfig::default().record_streams(true))
            .run()
            .unwrap_or_else(|e| panic!("round {round}: native run failed: {e}"));
        assert_native_matches_executor(&format!("compress x4 round {round}"), &p, &exec, &native);
    }
}

#[test]
fn failed_runs_leave_the_pool_serving_exactly() {
    silence_injected_panics();
    let w = paper_suite(Size::Test)
        .into_iter()
        .find(|w| w.name == "181.mcf")
        .expect("mcf kernel");
    let k = kernel(&w);
    assert_eq!(k.program.num_threads(), 2);
    let err = |cfg: RtConfig| {
        Runtime::new(&k.program)
            .with_config(cfg)
            .run()
            .expect_err("the run must fail")
    };
    run_exact("warm-up", &k, RtConfig::default());

    // An injected panic in stage 0, which runs on the calling thread.
    let e = err(RtConfig::default().faults(FaultPlan::none(2).with_panic(0, 40)));
    assert!(matches!(e, RtError::StagePanic { stage: 0, .. }), "{e}");
    run_exact("after a stage-0 panic", &k, RtConfig::default());

    // An injected panic in stage 1, which runs on a pool worker.
    let e = err(RtConfig::default().faults(FaultPlan::none(2).with_panic(1, 40)));
    assert!(matches!(e, RtError::StagePanic { stage: 1, .. }), "{e}");
    run_exact("after a stage-1 panic", &k, RtConfig::default());

    // A miswired pipeline: every stage blocks forever.
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/deadlock.ir"
    ))
    .expect("deadlock fixture");
    let miswired = parse_program(&text).expect("parse deadlock.ir");
    let e = Runtime::new(&miswired).run().expect_err("deadlock");
    assert!(matches!(e, RtError::Deadlock { .. }), "{e}");
    run_exact("after a deadlock", &k, RtConfig::default());

    // A run cancelled before it starts.
    let token = CancelToken::new();
    token.cancel();
    let e = err(RtConfig::default().cancel_token(token));
    assert_eq!(e, RtError::Cancelled);
    run_exact("after a cancel", &k, RtConfig::default());

    // A run whose stage 1 never completes a queue operation, stopped by
    // its deadline.
    let stall = StallFault {
        every: 1,
        attempts: 0,
        permanent: true,
    };
    let e = err(RtConfig::default()
        .faults(FaultPlan::none(2).with_stall(1, stall))
        .watchdog(Duration::from_secs(30))
        .deadline(Duration::from_millis(50)));
    assert!(matches!(e, RtError::Timeout { .. }), "{e}");
    run_exact("after a timeout", &k, RtConfig::default());
}
