//! Parallel-stage replication: correctness against the single-threaded
//! interpreter oracle.
//!
//! The replicated pipeline must be *observably identical* to the
//! unreplicated one (and hence to the original sequential loop): same
//! final memory, same main-context registers, and — because the gather
//! restores iteration order — the same value stream on every queue outside
//! the replica groups. The property tests drive randomly generated
//! DOALL-shaped loops through random replica counts and queue capacities
//! on all three engines.

mod common;

use common::assert_native_matches_executor;
use dswp_repro::analysis::AliasMode;
use dswp_repro::dswp::{
    annotate_loop_affine, dswp_loop, DswpOptions, DswpReport, PipelineMap, Replicate,
};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::{BinOp, Program, ProgramBuilder, RegionId};
use dswp_repro::rt::fault::DelayFault;
use dswp_repro::rt::{FaultPlan, RtConfig, Runtime};
use dswp_repro::sim::Executor;
use dswp_repro::workloads::{paper_suite, Size};
use dswp_testutil::Rng;

/// DSWP-transforms `program` with replication requested, returning the
/// transformed program, the interpreter-baseline memory of the original,
/// and the transformation report (whose `replication` entries say what was
/// actually replicated).
fn transform_replicated(
    program: &Program,
    header: dswp_repro::ir::BlockId,
    replicate: Replicate,
    max_threads: usize,
) -> (Program, Vec<i64>, DswpReport) {
    let baseline = Interpreter::new(program).run().expect("baseline");
    let mut p = program.clone();
    let main = p.main();
    annotate_loop_affine(&mut p, main, header).expect("scev");
    let opts = DswpOptions {
        alias: AliasMode::Precise,
        replicate,
        max_threads,
        ..DswpOptions::default()
    };
    let report = dswp_loop(&mut p, main, header, &baseline.profile, &opts).expect("dswp");
    (p, baseline.memory, report)
}

/// Generates a random DOALL-shaped loop: `for i in 0..n { out[i] =
/// hash(in[i]) }` with a random straight-line hash chain. Every iteration
/// is independent, so the body stage is always legally replicable.
fn random_doall(rng: &mut Rng, n: i64) -> Program {
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
    // A random chain of 4..10 arithmetic steps over `c` (and sometimes
    // `i`), heavy enough that the TPP heuristic puts it in its own stage.
    let steps = rng.range(4, 10);
    for _ in 0..steps {
        let op = *rng.pick(&[BinOp::Add, BinOp::Mul, BinOp::Xor, BinOp::And, BinOp::Shr]);
        let rhs = if rng.chance(1, 4) { i } else { c };
        match op {
            BinOp::Shr => {
                let k = f.reg();
                f.iconst(k, rng.range_i64(1, 5));
                f.binary(c, BinOp::Shr, c, k);
            }
            _ => {
                if rng.bool() {
                    f.binary(c, op, c, rhs);
                } else {
                    let k = f.reg();
                    f.iconst(k, rng.range_i64(1, 1 << 16));
                    f.binary(c, op, c, k);
                }
            }
        }
    }
    f.add(a_out, outb, i);
    f.store_region(c, a_out, 0, RegionId(1));
    f.add(i, i, 1);
    f.jump(header);

    f.switch_to(exit);
    f.halt();
    let main = f.finish();

    let mut mem: Vec<i64> = Vec::with_capacity(2 * n as usize);
    for k in 0..n {
        mem.push(rng.range_i64(-(1 << 30), 1 << 30).wrapping_mul(k + 1));
    }
    mem.resize(2 * n as usize, 0);
    pb.finish_with_memory(main, mem)
}

/// Generates a random *two-stage* DOALL pipeline: `for i in 0..n {
/// out[i] = hash2(hash1(in[i])) }` where `hash1` and `hash2` are separate
/// random chains heavy enough that, at `--threads 3`, the TPP heuristic
/// puts them in separate stages — both independently replicable.
fn random_two_stage_doall(rng: &mut Rng, n: i64) -> Program {
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
    // Two chains over `c`, each long enough to be its own stage.
    for _ in 0..2 {
        let steps = rng.range(6, 12);
        for _ in 0..steps {
            let op = *rng.pick(&[BinOp::Add, BinOp::Mul, BinOp::Xor, BinOp::And, BinOp::Shr]);
            match op {
                BinOp::Shr => {
                    let k = f.reg();
                    f.iconst(k, rng.range_i64(1, 5));
                    f.binary(c, BinOp::Shr, c, k);
                }
                _ => {
                    let k = f.reg();
                    f.iconst(k, rng.range_i64(1, 1 << 16));
                    f.binary(c, op, c, k);
                }
            }
        }
    }
    f.add(a_out, outb, i);
    f.store_region(c, a_out, 0, RegionId(1));
    f.add(i, i, 1);
    f.jump(header);

    f.switch_to(exit);
    f.halt();
    let main = f.finish();

    let mut mem: Vec<i64> = Vec::with_capacity(2 * n as usize);
    for k in 0..n {
        mem.push(rng.range_i64(-(1 << 30), 1 << 30).wrapping_mul(k + 1));
    }
    mem.resize(2 * n as usize, 0);
    pb.finish_with_memory(main, mem)
}

/// Runs `p` on the executor and the native runtime, checks both against
/// the interpreter-baseline memory, and compares the two runs on
/// everything routing cannot change (see [`assert_native_matches_executor`]).
fn check_all_engines(ctx: &str, p: &Program, baseline_memory: &[i64], cfg: RtConfig) {
    let exec = Executor::new(p)
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: executor failed: {e}"));
    assert_eq!(exec.memory, baseline_memory, "{ctx}: executor memory");
    let native = Runtime::new(p)
        .with_config(cfg.record_streams(true))
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: native runtime failed: {e}"));
    assert_native_matches_executor(ctx, p, &exec, &native);
}

#[test]
fn replicated_compress_matches_interpreter() {
    let w = dswp_repro::workloads::compress::build(Size::Test);
    for replicas in [2usize, 3, 4] {
        let (p, mem, report) =
            transform_replicated(&w.program, w.header, Replicate::Fixed(replicas), 2);
        assert!(
            !report.replication.is_empty(),
            "compress must replicate at {replicas}"
        );
        check_all_engines(
            &format!("compress x{replicas}"),
            &p,
            &mem,
            RtConfig::default(),
        );
    }
}

#[test]
fn replication_property_random_doall_loops() {
    let mut rng = Rng::new(0xD05_11A5);
    let mut applied_count = 0;
    let cases = dswp_testutil::cases(12);
    for case in 0..cases {
        let p = random_doall(&mut rng, 48);
        let replicas = rng.range(1, 9);
        let capacity = *rng.pick(&[1usize, 2, 8, 32]);
        let (tp, mem, report) = transform_replicated(
            &p,
            dswp_repro::ir::BlockId(1),
            Replicate::Fixed(replicas),
            2,
        );
        if !report.replication.is_empty() {
            applied_count += 1;
        } else {
            assert!(
                replicas < 2,
                "case {case}: replication refused at {replicas}"
            );
        }
        let ctx = format!("case {case} (x{replicas}, cap {capacity})");
        check_all_engines(
            &ctx,
            &tp,
            &mem,
            RtConfig::default().queue_capacity(capacity),
        );
        // Batching composes with replication.
        check_all_engines(
            &format!("{ctx} batched"),
            &tp,
            &mem,
            RtConfig::default().queue_capacity(32).batch(8),
        );
    }
    assert!(
        applied_count >= cases / 2,
        "replication applied in only {applied_count}/{cases} cases"
    );
}

/// Multi-stage replication: random pipelines with two replicable stages,
/// `Fixed(k)` replicating both, checked bit-exactly on all engines (with
/// and without batching).
#[test]
fn multi_stage_replication_composes() {
    let mut rng = Rng::new(0x2057_A6E5);
    let mut multi = 0;
    let cases = dswp_testutil::cases(8);
    for case in 0..cases {
        let p = random_two_stage_doall(&mut rng, 40);
        let replicas = rng.range(2, 5);
        let capacity = *rng.pick(&[2usize, 8, 32]);
        let (tp, mem, report) = transform_replicated(
            &p,
            dswp_repro::ir::BlockId(1),
            Replicate::Fixed(replicas),
            3,
        );
        if report.replication.len() >= 2 {
            multi += 1;
        }
        let ctx = format!("two-stage case {case} (x{replicas}, cap {capacity})");
        check_all_engines(
            &ctx,
            &tp,
            &mem,
            RtConfig::default().queue_capacity(capacity),
        );
        check_all_engines(
            &format!("{ctx} batched"),
            &tp,
            &mem,
            RtConfig::default().queue_capacity(32).batch(8),
        );
    }
    assert!(
        multi >= cases / 2,
        "two replicable stages in only {multi}/{cases} cases"
    );
}

/// Skewed replicas: for random single- and multi-stage DOALL pipelines
/// across replica counts and capacities, the first replica of every group
/// is slowed by a benign injected delay, so the scatter's depth feedback
/// routes iterations around it. Results must not move.
#[test]
fn skewed_replicas_match_oracle() {
    let mut rng = Rng::new(0x57EA_11B5);
    let mut exercised = 0;
    let cases = dswp_testutil::cases(8);
    for case in 0..cases {
        let (p, threads) = if rng.bool() {
            (random_two_stage_doall(&mut rng, 40), 3)
        } else {
            (random_doall(&mut rng, 48), 2)
        };
        let replicas = rng.range(2, 5);
        let capacity = *rng.pick(&[2usize, 4, 8]);
        let (tp, mem, report) = transform_replicated(
            &p,
            dswp_repro::ir::BlockId(1),
            Replicate::Fixed(replicas),
            threads,
        );
        if report.replication.is_empty() {
            continue;
        }
        exercised += 1;
        let map = PipelineMap::infer(&tp);
        let mut plan = FaultPlan::none(tp.num_threads());
        for g in map.replica_groups(&tp) {
            plan = plan.with_delay(
                g.replica_threads[0],
                DelayFault {
                    every: 1,
                    spins: 200,
                },
            );
        }
        let ctx = format!("case {case} (x{replicas}, cap {capacity}, skewed)");
        check_all_engines(
            &ctx,
            &tp,
            &mem,
            RtConfig::default()
                .queue_capacity(capacity)
                .faults(plan.clone()),
        );
        check_all_engines(
            &format!("{ctx} batched"),
            &tp,
            &mem,
            RtConfig::default().queue_capacity(32).batch(8).faults(plan),
        );
    }
    assert!(
        exercised >= cases / 2,
        "replication exercised in only {exercised}/{cases} cases"
    );
}

/// Routing regression: on the deterministic executor, every replica of
/// 4-way replicated compress retires more than the steps it spends on its
/// prologue and epilogue alone, so a depth probe that always reads the
/// same value (and thus always picks replica 0) cannot go unnoticed. The
/// per-replica overhead is derived from the replica step sums at 2 and 4
/// replicas: the iterations cost the same in total, so the difference is
/// two replicas' worth of overhead.
#[test]
fn stealing_spreads_compress_iterations_over_every_replica() {
    let w = dswp_repro::workloads::compress::build(Size::Test);
    let replica_steps = |replicas: usize| -> Vec<u64> {
        let (p, mem, report) =
            transform_replicated(&w.program, w.header, Replicate::Fixed(replicas), 2);
        assert_eq!(report.replication.len(), 1, "compress x{replicas}");
        let exec = Executor::new(&p).run().expect("executor");
        assert_eq!(exec.memory, mem, "compress x{replicas}: memory");
        let groups = PipelineMap::infer(&p).replica_groups(&p);
        groups[0]
            .replica_threads
            .iter()
            .map(|&t| exec.steps[t])
            .collect()
    };
    let two = replica_steps(2);
    let four = replica_steps(4);
    let overhead = (four.iter().sum::<u64>() - two.iter().sum::<u64>()) / 2;
    assert!(overhead > 0, "x2 {two:?}, x4 {four:?}");
    assert!(
        four.iter().all(|&s| s > overhead),
        "a replica ran no iterations: x4 {four:?}, overhead {overhead}"
    );
}

#[test]
fn replicate_auto_picks_doall_stages() {
    for w in paper_suite(Size::Test) {
        let baseline = Interpreter::new(&w.program).run().expect("baseline");
        let mut p = w.program.clone();
        let main = p.main();
        annotate_loop_affine(&mut p, main, w.header).expect("scev");
        let opts = DswpOptions {
            alias: AliasMode::Precise,
            replicate: Replicate::Auto { cores: Some(4) },
            ..DswpOptions::default()
        };
        let Ok(report) = dswp_loop(&mut p, main, w.header, &baseline.profile, &opts) else {
            continue; // single-SCC / unprofitable workloads are not at issue
        };
        // `compress` and `jpegenc` are DOALL as written; `art` is only
        // DOALL after accumulator expansion (its partial sums are real
        // carried recurrences), so replication must refuse it.
        if w.name.contains("compress") || w.name.contains("jpeg") {
            let info = report
                .replication
                .first()
                .unwrap_or_else(|| panic!("{}: DOALL workload did not replicate", w.name));
            assert!(info.replicas >= 2, "{}: degenerate replica count", w.name);
        } else {
            assert!(
                report.replication.is_empty() || w.doall,
                "{}: unexpected replication of a non-DOALL workload",
                w.name
            );
        }
        check_all_engines(w.name, &p, &baseline.memory, RtConfig::default());
    }
}
