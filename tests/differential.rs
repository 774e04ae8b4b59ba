//! Differential suite over the execution engines.
//!
//! For every `paper_suite()` workload, the DSWP-transformed program is run
//! on the deterministic functional `Executor` (unbounded queues, one OS
//! thread) and the native `dswp-rt` runtime (bounded queues, one OS thread
//! per pipeline stage), and the observable results are compared against
//! each other and against the single-threaded `Interpreter` baseline of
//! the *original* program:
//!
//! * final shared memory (the program's output),
//! * the main thread's entry-frame registers (the "return value"),
//! * the per-queue produced-value streams,
//! * even the per-context retired-instruction counts.
//!
//! Each engine implements scheduling independently, so agreement on all
//! four is strong evidence that the DSWP transformation produced a truly
//! schedule-independent pipeline — the property the paper's correctness
//! argument (Section 2.2.4) relies on. The same loop also pins each
//! engine's step-count convention, the cycle-level `Machine` included.

mod common;

use common::assert_native_matches_executor;
use dswp_repro::dswp::{dswp_loop, DswpOptions, PipelineMap};
use dswp_repro::ir::interp::{Interpreter, RunResult};
use dswp_repro::ir::Program;
use dswp_repro::rt::{FaultPlan, RtConfig, Runtime};
use dswp_repro::sim::{Executor, Machine, MachineConfig};
use dswp_repro::workloads::{paper_suite, Size, Workload};

/// Profiles and DSWP-transforms a workload with default options; returns
/// the transformed program and the baseline (interpreter) run.
fn transform(w: &Workload) -> (Program, RunResult) {
    let baseline = Interpreter::new(&w.program)
        .run()
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
    let mut p = w.program.clone();
    let main = p.main();
    dswp_loop(
        &mut p,
        main,
        w.header,
        &baseline.profile,
        &DswpOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{}: DSWP failed: {e}", w.name));
    (p, baseline)
}

/// Per-context step counts of `p` on the Executor, the Machine (retired
/// instructions under `MachineConfig::full_width()`) and the native runtime.
fn step_counts(name: &str, p: &Program) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let exec = Executor::new(p)
        .run()
        .unwrap_or_else(|e| panic!("{name}: executor failed: {e}"));
    let sim = Machine::new(p, MachineConfig::full_width())
        .run()
        .unwrap_or_else(|e| panic!("{name}: timing model failed: {e}"));
    let native = Runtime::new(p)
        .run()
        .unwrap_or_else(|e| panic!("{name}: native runtime failed: {e}"));
    (
        exec.steps,
        sim.cores.iter().map(|c| c.retired).collect(),
        native.stages.iter().map(|s| s.steps).collect(),
    )
}

#[test]
fn native_runtime_matches_oracle_on_every_workload() {
    for w in paper_suite(Size::Test) {
        let (transformed, baseline) = transform(&w);

        let exec = Executor::new(&transformed)
            .run()
            .unwrap_or_else(|e| panic!("{}: executor failed: {e}", w.name));
        assert_eq!(
            exec.memory, baseline.memory,
            "{}: executor vs baseline",
            w.name
        );

        // The plain run executes in budgeted batches; an empty fault plan
        // sends the same program through the one-instruction path with the
        // fault hooks. Both must match the oracle exactly.
        let plain = RtConfig::default().record_streams(true);
        let hooked = plain
            .clone()
            .faults(FaultPlan::none(transformed.num_threads()));
        for (path, config) in [("budgeted", plain), ("fault-plan", hooked)] {
            let native = Runtime::new(&transformed)
                .with_config(config)
                .run()
                .unwrap_or_else(|e| panic!("{} ({path}): native runtime failed: {e}", w.name));

            // Output memory: all three engines agree.
            assert_eq!(
                native.memory, baseline.memory,
                "{} ({path}): native vs baseline",
                w.name
            );

            // Return value (entry-frame registers of the main context).
            assert_eq!(
                native.entry_regs, exec.entry_regs,
                "{} ({path}): entry regs",
                w.name
            );

            // Produce/consume value streams, per queue, in production order.
            let streams = native.streams.as_ref().expect("streams recorded");
            assert_eq!(streams, &exec.streams, "{} ({path}): queue streams", w.name);

            // Retired instructions per context.
            let native_steps: Vec<u64> = native.stages.iter().map(|s| s.steps).collect();
            assert_eq!(
                native_steps, exec.steps,
                "{} ({path}): per-context steps",
                w.name
            );
        }

        // Step-count conventions, untransformed and DSWP: the Interpreter
        // and the Machine count each context's final `halt` (or terminate
        // sentinel); the Executor and the native runtime do not.
        let (base, dswp) = (
            step_counts(w.name, &w.program),
            step_counts(w.name, &transformed),
        );
        let plus_halt = |steps: &[u64]| steps.iter().map(|s| s + 1).collect::<Vec<_>>();
        assert_eq!(
            (vec![baseline.steps], base.1, base.2, dswp.1, dswp.2),
            (
                plus_halt(&base.0),
                plus_halt(&base.0),
                base.0.clone(),
                plus_halt(&dswp.0),
                dswp.0
            ),
            "{}: step conventions (interpreter, machine, native; base then DSWP)",
            w.name
        );
    }
}

/// The same cross-engine agreement must hold with batched communication:
/// chunked queue publishes are a pure transport optimization, invisible to
/// every observable. `batch_hints` additionally exercises the per-queue
/// path (token queues shallow, data queues deep).
#[test]
fn batched_native_runtime_matches_oracle_on_every_workload() {
    for w in paper_suite(Size::Test) {
        let (transformed, baseline) = transform(&w);
        let exec = Executor::new(&transformed)
            .run()
            .unwrap_or_else(|e| panic!("{}: executor failed: {e}", w.name));
        let map = PipelineMap::infer(&transformed);

        for batch in [4usize, 16, 64] {
            for hinted in [false, true] {
                let mut cfg = RtConfig::default().record_streams(true);
                cfg = if hinted {
                    cfg.queue_batches(map.batch_hints(batch))
                } else {
                    cfg.batch(batch)
                };
                let native = Runtime::new(&transformed)
                    .with_config(cfg)
                    .run()
                    .unwrap_or_else(|e| panic!("{} (batch {batch}, hinted {hinted}): {e}", w.name));
                let ctx = format!("{} batch {batch}, hinted {hinted}", w.name);
                assert_eq!(native.memory, baseline.memory, "{ctx}: memory");
                assert_eq!(native.entry_regs, exec.entry_regs, "{ctx}: entry regs");
                assert_eq!(
                    native.streams.as_ref().unwrap(),
                    &exec.streams,
                    "{ctx}: queue streams"
                );
                let steps: Vec<u64> = native.stages.iter().map(|s| s.steps).collect();
                assert_eq!(steps, exec.steps, "{ctx}: per-context steps");
            }
        }
    }
}

#[test]
fn transformed_workloads_have_valid_pipeline_maps() {
    for w in paper_suite(Size::Test) {
        let (transformed, _) = transform(&w);
        let map = PipelineMap::infer(&transformed);
        assert_eq!(
            map.stages.len(),
            transformed.num_threads(),
            "{}: one stage per context",
            w.name
        );
        map.validate()
            .unwrap_or_else(|e| panic!("{}: pipeline map invalid: {e}", w.name));
        // Every stage beyond the main context reaches real code (its master
        // function plus the indirect-call-resolved loop body).
        for (i, stage) in map.stages.iter().enumerate().skip(1) {
            assert!(
                stage.functions.len() >= 2,
                "{}: stage {i} resolved no aux loop function",
                w.name
            );
        }
    }
}

#[test]
fn differential_holds_for_a_three_stage_pipeline() {
    use dswp_repro::analysis::AliasMode;

    let w = dswp_repro::workloads::mcf::build(Size::Test);
    let baseline = Interpreter::new(&w.program).run().unwrap();
    let main = w.program.main();
    let analysis =
        dswp_repro::dswp::analyze_loop(&w.program, main, w.header, AliasMode::Region).unwrap();
    let n = analysis.dag.len();
    let part = dswp_repro::dswp::Partitioning::new((0..n).map(|i| i * 3 / n).collect(), 3);
    let mut p = w.program.clone();
    let opts = DswpOptions {
        partitioning: Some(part),
        max_threads: 3,
        ..DswpOptions::default()
    };
    dswp_loop(&mut p, main, w.header, &baseline.profile, &opts).unwrap();
    assert_eq!(p.num_threads(), 3);

    let exec = Executor::new(&p).run().unwrap();
    let native = Runtime::new(&p)
        .with_config(RtConfig::default().record_streams(true))
        .run()
        .unwrap();
    assert_eq!(native.memory, baseline.memory);
    assert_eq!(native.entry_regs, exec.entry_regs);
    assert_eq!(native.streams.unwrap(), exec.streams);
    assert_eq!(native.stages.len(), 3);
}

/// The cross-engine agreement must also hold with replicated pipeline
/// stages, at a fixed replica count and under the auto plan — the gather
/// stage's in-order merge makes replication observably invisible, down to
/// the queue streams outside the replica groups. Routing inside a group
/// follows real queue depth natively, so those queues and contexts are
/// compared as multisets and step sums instead.
#[test]
fn replicated_pipelines_match_oracle_on_every_workload() {
    use dswp_repro::analysis::AliasMode;
    use dswp_repro::dswp::{annotate_loop_affine, Replicate};

    for replicate in [Replicate::Fixed(2), Replicate::Auto { cores: Some(4) }] {
        for w in paper_suite(Size::Test) {
            let baseline = Interpreter::new(&w.program)
                .run()
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
            let mut p = w.program.clone();
            let main = p.main();
            annotate_loop_affine(&mut p, main, w.header)
                .unwrap_or_else(|e| panic!("{}: scev failed: {e}", w.name));
            let opts = DswpOptions {
                alias: AliasMode::Precise,
                replicate,
                ..DswpOptions::default()
            };
            if dswp_loop(&mut p, main, w.header, &baseline.profile, &opts).is_err() {
                continue; // single-SCC / unprofitable under this partitioning
            }

            let exec = Executor::new(&p)
                .run()
                .unwrap_or_else(|e| panic!("{}: executor failed: {e}", w.name));
            let native = Runtime::new(&p)
                .with_config(RtConfig::default().record_streams(true))
                .run()
                .unwrap_or_else(|e| panic!("{}: native runtime failed: {e}", w.name));
            let ctx = format!("{} ({replicate:?})", w.name);
            assert_eq!(exec.memory, baseline.memory, "{ctx}: executor memory");
            assert_native_matches_executor(&ctx, &p, &exec, &native);

            let map = PipelineMap::infer(&p);
            map.validate()
                .unwrap_or_else(|e| panic!("{ctx}: pipeline map invalid: {e}"));
        }
    }
}
