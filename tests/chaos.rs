//! Chaos differential suite: every paper workload under hundreds of seeded
//! fault plans.
//!
//! The invariant (ISSUE 2 acceptance criterion): under *any* generated
//! fault plan, a native run either
//!
//! * completes and matches the interpreter/oracle results **exactly**
//!   (memory, entry registers, queue streams, per-context step counts;
//!   inside a replica group, where native routing follows real queue
//!   depth, the value multisets and summed replica steps) —
//!   mandatory for benign plans, and also required when a lethal fault
//!   never fired (e.g. a forced panic scheduled past the stage's retired
//!   instruction count); or
//! * returns a **structured [`RtError`]** consistent with the injected
//!   lethal fault — never a hang, never a panic escaping `run()`, never
//!   divergent memory.
//!
//! Fault plans are derived deterministically from seeds
//! ([`FaultPlan::from_seed`]), and the seeds themselves come from the
//! zero-dep `dswp-testutil` RNG, so any failure reproduces exactly from
//! the panic message.
//!
//! The suite is split into parallel chunks so the wall-clock cost of the
//! permanent-stall plans (each costs one watchdog interval) is spread over
//! the test harness's thread pool.

use std::time::Duration;

mod common;

use common::assert_native_matches_executor;
use dswp_repro::dswp::{dswp_loop, DswpOptions};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::Program;
use dswp_repro::rt::fault::FaultPlan;
use dswp_repro::rt::{silence_injected_panics, RtConfig, RtError, Runtime};
use dswp_repro::sim::{ExecResult, Executor};
use dswp_repro::workloads::{paper_suite, Size, Workload};
use dswp_testutil::Rng;

/// Seeded fault plans per workload (the acceptance criterion demands at
/// least 200).
const PLANS_PER_WORKLOAD: usize = 200;

/// Watchdog for chaos runs: long enough that benign timing faults (delays,
/// bounded stalls) can never trip it, short enough that the handful of
/// permanent-stall plans resolve quickly.
const CHAOS_WATCHDOG: Duration = Duration::from_millis(250);

/// Hard per-run deadline: the anti-hang backstop. Any run that somehow
/// evades the watchdog still returns `RtError::Timeout` long before the CI
/// job timeout.
const CHAOS_DEADLINE: Duration = Duration::from_secs(30);

fn transform(w: &Workload) -> (Program, ExecResult) {
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
    let oracle = Executor::new(&p)
        .run()
        .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", w.name));
    assert_eq!(
        oracle.memory, baseline.memory,
        "{}: oracle diverges from interpreter",
        w.name
    );
    (p, oracle)
}

/// Runs one workload under `plans` seeded plans with the given
/// communication batch size and checks the invariant for each.
fn chaos_one(w: &Workload, salt: u64, plans: usize, batch: usize) {
    let (program, oracle) = transform(w);
    chaos_run(w.name, &program, &oracle, salt, plans, batch);
}

/// The invariant check proper, over an already-transformed program and its
/// functional-executor oracle (lets callers pick non-default DSWP options,
/// e.g. replication).
fn chaos_run(
    name: &str,
    program: &Program,
    oracle: &ExecResult,
    salt: u64,
    plans: usize,
    batch: usize,
) {
    silence_injected_panics();
    let num_stages = program.num_threads();
    let num_queues = program.num_queues as usize;

    let mut rng = Rng::new(salt ^ 0x0043_4841_4F53); // "CHAOS"
    let (mut benign, mut lethal, mut completed, mut failed) = (0u32, 0u32, 0u32, 0u32);
    for _ in 0..plans {
        let seed = rng.next_u64();
        let plan = FaultPlan::from_seed(seed, num_stages, num_queues);
        if plan.is_benign() {
            benign += 1;
        } else {
            lethal += 1;
        }
        let config = RtConfig::default()
            .record_streams(true)
            .batch(batch)
            .watchdog(CHAOS_WATCHDOG)
            .deadline(CHAOS_DEADLINE)
            .faults(plan.clone());

        match Runtime::new(program).with_config(config).run() {
            Ok(r) => {
                // Completion — with or without a (never-fired) lethal fault
                // — must be indistinguishable from the clean run.
                completed += 1;
                assert_native_matches_executor(
                    &format!("{name} under {plan}"),
                    program,
                    oracle,
                    &r,
                );
            }
            Err(e) => {
                // Failure must be structured AND attributable to the one
                // lethal fault the plan carries.
                failed += 1;
                let consistent = match &e {
                    RtError::StagePanic { .. } => plan.injects_panic(),
                    RtError::QueuePoisoned { .. } => plan.injects_poison(),
                    RtError::Watchdog { .. } | RtError::Timeout { .. } => {
                        plan.injects_permanent_stall()
                    }
                    _ => false,
                };
                assert!(consistent, "{name}: error {e} not explained by {plan}");
            }
        }
    }

    // Distribution sanity: the generator must exercise both sides, and a
    // benign plan can never fail (checked per-run above), so failures are
    // bounded by lethal plans.
    assert!(benign > 0 && lethal > 0, "{name}: degenerate seeding");
    assert!(completed > 0, "{name}: no run completed");
    assert!(
        failed <= lethal,
        "{name}: {failed} failures from {lethal} lethal plans",
    );
}

/// Splits the suite into `total` round-robin chunks so the harness runs
/// them on parallel test threads.
fn chaos_chunk(index: usize, total: usize) {
    for (i, w) in paper_suite(Size::Test).iter().enumerate() {
        if i % total == index {
            chaos_one(w, i as u64, PLANS_PER_WORKLOAD, 1);
        }
    }
}

/// The batched analogue: chunked communication must be invisible to the
/// chaos invariant too. Every workload runs under 50 fresh seeded plans
/// with a batch of 16 — faults now land mid-chunk, flushes race poisoning,
/// and permanent stalls freeze whole chunks, yet the outcome contract is
/// unchanged.
#[test]
fn chaos_differential_batched() {
    for (i, w) in paper_suite(Size::Test).iter().enumerate() {
        chaos_one(w, 0xBA7C_0000 ^ i as u64, 50, 16);
    }
}

#[test]
fn chaos_differential_chunk_0() {
    chaos_chunk(0, 4);
}

#[test]
fn chaos_differential_chunk_1() {
    chaos_chunk(1, 4);
}

#[test]
fn chaos_differential_chunk_2() {
    chaos_chunk(2, 4);
}

#[test]
fn chaos_differential_chunk_3() {
    chaos_chunk(3, 4);
}

/// Replication under chaos: each workload whose heaviest stage legally
/// replicates (compress, jpegenc) runs its replicated pipeline under 50
/// fresh seeded fault plans. Scatter, replicas, and gather are ordinary
/// stages to the fault injector — panics poison their queues, stalls
/// freeze one replica while its siblings keep draining — and the outcome
/// contract is unchanged: bit-identical results or a structured,
/// attributable error.
#[test]
fn chaos_differential_replicated() {
    use dswp_repro::analysis::AliasMode;
    use dswp_repro::dswp::{annotate_loop_affine, Replicate};

    let mut replicated = 0;
    for (i, w) in paper_suite(Size::Test).iter().enumerate() {
        let baseline = Interpreter::new(&w.program)
            .run()
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
        let mut p = w.program.clone();
        let main = p.main();
        annotate_loop_affine(&mut p, main, w.header)
            .unwrap_or_else(|e| panic!("{}: scev failed: {e}", w.name));
        let opts = DswpOptions {
            alias: AliasMode::Precise,
            replicate: Replicate::Fixed(2),
            ..DswpOptions::default()
        };
        let Ok(report) = dswp_loop(&mut p, main, w.header, &baseline.profile, &opts) else {
            continue;
        };
        if report.replication.is_empty() {
            continue;
        }
        replicated += 1;
        let oracle = Executor::new(&p)
            .run()
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", w.name));
        assert_eq!(
            oracle.memory, baseline.memory,
            "{}: oracle diverges from interpreter",
            w.name
        );
        chaos_run(w.name, &p, &oracle, 0x5EB1_0000 ^ i as u64, 50, 1);
    }
    assert!(replicated >= 2, "only {replicated} workloads replicated");
}

/// Multi-stage replication under chaos, with batching enabled: a
/// three-stage pipeline whose two worker stages are both DOALL gets both
/// replicated (two scatter/replica/gather groups live in one program),
/// then runs under 50 seeded fault plans with a communication batch of 8.
#[test]
fn chaos_differential_multi_stage_replicated() {
    use dswp_repro::analysis::AliasMode;
    use dswp_repro::dswp::{annotate_loop_affine, Replicate};
    use dswp_repro::ir::{BinOp, BlockId, ProgramBuilder, RegionId};

    // for i in 0..48 { out[i] = hash2(hash1(in[i])) } with two chains heavy
    // enough that `--threads 3` puts them in separate replicable stages.
    let n = 48i64;
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let entry = f.entry_block();
    let header = f.block("header");
    let body = f.block("body");
    let exit = f.block("exit");
    let (i, bound, inb, outb, t, a_in, a_out, c) = (
        f.reg(),
        f.reg(),
        f.reg(),
        f.reg(),
        f.reg(),
        f.reg(),
        f.reg(),
        f.reg(),
    );
    f.switch_to(entry);
    f.iconst(i, 0);
    f.iconst(bound, n);
    f.iconst(inb, 0);
    f.iconst(outb, n);
    f.jump(header);
    f.switch_to(header);
    f.cmp_ge(t, i, bound);
    f.br(t, exit, body);
    f.switch_to(body);
    f.add(a_in, inb, i);
    f.load_region(c, a_in, 0, RegionId(0));
    for (j, op) in [
        BinOp::Mul,
        BinOp::Xor,
        BinOp::Add,
        BinOp::Mul,
        BinOp::Xor,
        BinOp::Add,
    ]
    .iter()
    .cycle()
    .take(14)
    .enumerate()
    {
        let k = f.reg();
        f.iconst(k, 0x9E37 + 131 * j as i64);
        f.binary(c, *op, c, k);
    }
    f.add(a_out, outb, i);
    f.store_region(c, a_out, 0, RegionId(1));
    f.add(i, i, 1);
    f.jump(header);
    f.switch_to(exit);
    f.halt();
    let main = f.finish();
    let mem: Vec<i64> = (0..n)
        .map(|k| (k * k * 7919 + 13) % (1 << 20))
        .chain(std::iter::repeat_n(0, n as usize))
        .collect();
    let program = pb.finish_with_memory(main, mem);

    let baseline = Interpreter::new(&program).run().expect("baseline");
    let mut p = program.clone();
    let main = p.main();
    annotate_loop_affine(&mut p, main, BlockId(1)).expect("scev");
    let opts = DswpOptions {
        alias: AliasMode::Precise,
        max_threads: 3,
        replicate: Replicate::Fixed(2),
        ..DswpOptions::default()
    };
    let report = dswp_loop(&mut p, main, BlockId(1), &baseline.profile, &opts).expect("dswp");
    assert!(
        report.replication.len() >= 2,
        "expected two replicated stages, got {:?}",
        report
            .replication
            .iter()
            .map(|r| (r.stage, r.replicas))
            .collect::<Vec<_>>()
    );
    let oracle = Executor::new(&p).run().expect("oracle");
    assert_eq!(
        oracle.memory, baseline.memory,
        "oracle diverges from interpreter"
    );
    chaos_run("two-stage-doall", &p, &oracle, 0x3157_A6E5, 50, 8);
}
