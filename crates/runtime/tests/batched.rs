//! Batched-communication edge cases: the nasty corners where chunking
//! could change semantics if any forced-flush rule were missing.
//!
//! * capacity 1 (every flush degenerates to single-value pushes),
//! * batch sizes far above the queue capacity (flushes span several
//!   partial `push_batch`es),
//! * queue poisoning landing mid-chunk (buffered values can never be
//!   delivered — must surface as a structured error, not a hang),
//! * the step-cadence flush (a producer that stops touching queues but
//!   keeps computing must still deliver its half-filled chunk),
//! * deadlock detection with values parked in local buffers.

use dswp_ir::{ProgramBuilder, QueueId};
use dswp_rt::fault::{FaultPlan, PoisonFault};
use dswp_rt::{run_native, RtConfig, RtError, Runtime};

/// Two stages: stage 0 produces 0..n then a -1 sentinel and reads the sum
/// back through a second queue; stage 1 accumulates.
fn ping_pong(n: i64) -> dswp_ir::Program {
    let mut pb = ProgramBuilder::new();
    let q_data = QueueId(0);
    let q_done = QueueId(1);

    let mut f = pb.function("producer");
    let e = f.entry_block();
    let header = f.block("header");
    let body = f.block("body");
    let tail = f.block("tail");
    let (i, lim, done, res, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
    f.switch_to(e);
    f.iconst(i, 0);
    f.iconst(lim, n);
    f.iconst(base, 0);
    f.jump(header);
    f.switch_to(header);
    f.cmp_ge(done, i, lim);
    f.br(done, tail, body);
    f.switch_to(body);
    f.produce(q_data, i);
    f.add(i, i, 1);
    f.jump(header);
    f.switch_to(tail);
    f.produce(q_data, -1);
    f.consume(res, q_done);
    f.store(res, base, 0);
    f.halt();
    let producer = f.finish();

    let mut g = pb.function("consumer");
    let e2 = g.entry_block();
    let loop_ = g.block("loop");
    let acc_b = g.block("accumulate");
    let fin = g.block("fin");
    let (v, sum, neg) = (g.reg(), g.reg(), g.reg());
    g.switch_to(e2);
    g.iconst(sum, 0);
    g.jump(loop_);
    g.switch_to(loop_);
    g.consume(v, q_data);
    g.cmp_lt(neg, v, 0);
    g.br(neg, fin, acc_b);
    g.switch_to(acc_b);
    g.add(sum, sum, v);
    g.jump(loop_);
    g.switch_to(fin);
    g.produce(q_done, sum);
    g.halt();
    let consumer = g.finish();

    let mut p = pb.finish(producer, 4);
    p.num_queues = 2;
    p.add_thread(consumer);
    p
}

#[test]
fn capacity_one_with_every_batch_size() {
    let p = ping_pong(500);
    for batch in [1, 2, 4, 16] {
        let r = run_native(
            &p,
            RtConfig::default()
                .queue_capacity(1)
                .batch(batch)
                .record_streams(true),
        )
        .unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        assert_eq!(r.memory[0], 124_750, "batch {batch}");
        assert!(r.queues.iter().all(|q| q.max_occupancy <= 1));
        let mut expected: Vec<i64> = (0..500).collect();
        expected.push(-1);
        assert_eq!(r.streams.as_ref().unwrap()[0], expected, "batch {batch}");
    }
}

#[test]
fn batch_far_above_capacity_still_completes() {
    let p = ping_pong(2_000);
    for (cap, batch) in [(2, 64), (4, 256), (32, 4096)] {
        let r = run_native(&p, RtConfig::default().queue_capacity(cap).batch(batch))
            .unwrap_or_else(|e| panic!("cap {cap} batch {batch}: {e}"));
        assert_eq!(r.memory[0], 1_999_000, "cap {cap} batch {batch}");
        assert!(
            r.queues[0].max_occupancy <= cap,
            "cap {cap} batch {batch}: occupancy {}",
            r.queues[0].max_occupancy
        );
    }
}

#[test]
fn poison_mid_chunk_is_a_structured_error() {
    // The poison fires at retired-instruction 100 — mid-loop, with values
    // sitting in the producer's half-filled chunk. Those values can never
    // be delivered; the run must fail with QueuePoisoned, never hang on a
    // "satisfiable" wait set.
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_poison(
        0,
        PoisonFault {
            queue: 0,
            after_steps: 100,
        },
    );
    for batch in [4, 16, 64] {
        let err = Runtime::new(&p)
            .with_config(RtConfig::default().batch(batch).faults(plan.clone()))
            .run()
            .unwrap_err();
        match err {
            RtError::QueuePoisoned { queue, stage } => {
                assert_eq!(queue, 0, "batch {batch}");
                assert!(stage < 2, "batch {batch}");
            }
            other => panic!("batch {batch}: expected QueuePoisoned, got {other}"),
        }
    }
}

#[test]
fn cadence_flush_delivers_chunks_from_computing_stages() {
    // Aux produces ONE value into a batch-64 buffer (never reaching the
    // chunk threshold) and then spins on a memory flag without touching
    // any queue again. Main blocks consuming that value, then raises the
    // flag. Only the step-cadence flush can deliver the buffered value —
    // if it were missing, this run would die on the step limit.
    let mut pb = ProgramBuilder::new();
    let q = QueueId(0);

    let mut f = pb.function("main");
    let e = f.entry_block();
    let (v, one, base) = (f.reg(), f.reg(), f.reg());
    f.switch_to(e);
    f.consume(v, q);
    f.iconst(one, 1);
    f.iconst(base, 0);
    f.store(v, base, 1);
    f.store(one, base, 0);
    f.halt();
    let main = f.finish();

    let mut g = pb.function("aux");
    let e2 = g.entry_block();
    let spin = g.block("spin");
    let fin = g.block("fin");
    let (x, flag, base2, zero) = (g.reg(), g.reg(), g.reg(), g.reg());
    g.switch_to(e2);
    g.iconst(x, 7);
    g.produce(q, x);
    g.iconst(base2, 0);
    g.jump(spin);
    g.switch_to(spin);
    g.load(flag, base2, 0);
    g.cmp_eq(zero, flag, 0);
    g.br(zero, spin, fin);
    g.switch_to(fin);
    g.halt();
    let aux = g.finish();

    let mut p = pb.finish(main, 4);
    p.num_queues = 1;
    p.add_thread(aux);

    let r = run_native(&p, RtConfig::default().batch(64).step_limit(50_000_000)).unwrap();
    assert_eq!(r.memory[0], 1);
    assert_eq!(r.memory[1], 7);
    assert_eq!(r.queues[0].produced, 1);
}

#[test]
fn batched_full_queue_nobody_drains_is_deadlock() {
    // Main produces forever into a queue with no consumer. With batch 4 and
    // capacity 2, the local buffer fills, the flush blocks on the full
    // queue, and the monitor must call it: deadlock, not a hang.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let x = f.reg();
    f.switch_to(e);
    f.iconst(x, 1);
    f.produce(QueueId(0), x);
    f.jump(e);
    let main = f.finish();
    let mut p = pb.finish(main, 0);
    p.num_queues = 1;

    let err = Runtime::new(&p)
        .with_config(RtConfig::default().queue_capacity(2).batch(4))
        .run()
        .unwrap_err();
    assert_eq!(err, RtError::Deadlock { blocked: vec![0] });
}

#[test]
fn batched_histograms_reflect_chunking() {
    let p = ping_pong(2_000);
    let r = run_native(&p, RtConfig::default().batch(8)).unwrap();
    // Stage 0 pushes 2001 values through the data queue in chunks of 8.
    // Queue-level accounting is exact: every produced value crossed each
    // queue in exactly one publish and one acquire.
    assert_eq!(
        r.queues[0].flush_sizes.sum + r.queues[1].flush_sizes.sum,
        2_002
    );
    assert_eq!(
        r.queues[0].refill_sizes.sum + r.queues[1].refill_sizes.sum,
        2_002
    );
    // The data queue saw genuinely multi-value publishes.
    assert!(r.queues[0].flush_sizes.mean() > 1.0);
}
