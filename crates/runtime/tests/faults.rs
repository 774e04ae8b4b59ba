//! Fault-injection and recovery tests: every lethal fault class must
//! surface as a structured [`RtError`] — never a hang, never an escaped
//! panic — and every benign fault class must leave the observable results
//! bit-identical to the fault-free run.
//!
//! Together with the unit tests in `lib.rs` (deadlock, step limit, memory
//! fault) this file constructs every `RtError` variant at least once.

use std::time::Duration;

use dswp_ir::{ProgramBuilder, QueueId};
use dswp_rt::fault::{DelayFault, FaultPlan, PoisonFault, StallFault};
use dswp_rt::{silence_injected_panics, CancelToken, RtConfig, RtError, Runtime};

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

/// A single stage spinning in an infinite loop (no queue traffic).
fn spin_forever() -> dswp_ir::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.switch_to(e);
    f.jump(e);
    let main = f.finish();
    pb.finish(main, 0)
}

#[test]
fn injected_panic_is_recovered_as_stage_panic() {
    silence_injected_panics();
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_panic(1, 50);
    let err = Runtime::new(&p)
        .with_config(RtConfig::default().faults(plan))
        .run()
        .unwrap_err();
    match err {
        RtError::StagePanic { stage, message } => {
            assert_eq!(stage, 1);
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected StagePanic, got {other}"),
    }
}

#[test]
fn panic_in_main_stage_is_recovered_too() {
    silence_injected_panics();
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_panic(0, 7);
    let err = Runtime::new(&p)
        .with_config(RtConfig::default().faults(plan))
        .run()
        .unwrap_err();
    assert!(matches!(err, RtError::StagePanic { stage: 0, .. }), "{err}");
}

#[test]
fn poison_fault_yields_queue_poisoned() {
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_poison(
        0,
        PoisonFault {
            queue: 0,
            after_steps: 20,
        },
    );
    let err = Runtime::new(&p)
        .with_config(RtConfig::default().faults(plan))
        .run()
        .unwrap_err();
    match err {
        RtError::QueuePoisoned { queue, stage } => {
            assert_eq!(queue, 0);
            assert!(stage < 2);
        }
        other => panic!("expected QueuePoisoned, got {other}"),
    }
}

#[test]
fn permanent_stall_trips_watchdog() {
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_stall(
        0,
        StallFault {
            every: 1,
            attempts: 0,
            permanent: true,
        },
    );
    let err = Runtime::new(&p)
        .with_config(
            RtConfig::default()
                .faults(plan)
                .watchdog(Duration::from_millis(100)),
        )
        .run()
        .unwrap_err();
    assert!(matches!(err, RtError::Watchdog { .. }), "{err}");
}

#[test]
fn deadline_times_out_with_stuck_stage_diagnosis() {
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_stall(
        1,
        StallFault {
            every: 1,
            attempts: 0,
            permanent: true,
        },
    );
    let err = Runtime::new(&p)
        .with_config(
            RtConfig::default()
                .faults(plan)
                .watchdog(Duration::from_secs(30))
                .deadline(Duration::from_millis(100)),
        )
        .run()
        .unwrap_err();
    match err {
        RtError::Timeout {
            stage,
            last_progress: _,
        } => assert!(stage < 2),
        other => panic!("expected Timeout, got {other}"),
    }
}

#[test]
fn deadline_is_inert_on_completing_runs() {
    let p = ping_pong(500);
    let r = Runtime::new(&p)
        .with_config(RtConfig::default().deadline(Duration::from_secs(30)))
        .run()
        .unwrap();
    assert_eq!(r.memory[0], 124_750);
}

#[test]
fn cancel_token_aborts_run() {
    let p = spin_forever();
    let token = CancelToken::new();
    token.cancel();
    assert!(token.is_cancelled());
    let err = Runtime::new(&p)
        .with_config(RtConfig::default().cancel_token(token))
        .run()
        .unwrap_err();
    assert_eq!(err, RtError::Cancelled);
}

#[test]
fn cancel_from_another_thread_aborts_run() {
    let p = spin_forever();
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        remote.cancel();
    });
    let err = Runtime::new(&p)
        .with_config(RtConfig::default().cancel_token(token))
        .run()
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, RtError::Cancelled);
}

#[test]
fn cancel_reaches_a_permanently_stalled_stage() {
    // Stage 1 never completes a refill, so stage 0 soon blocks on a full
    // queue: no stage is running when the token fires, and the watchdog
    // is far away.
    let p = ping_pong(10_000);
    let plan = FaultPlan::none(2).with_stall(
        1,
        StallFault {
            every: 1,
            attempts: 0,
            permanent: true,
        },
    );
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        remote.cancel();
    });
    let err = Runtime::new(&p)
        .with_config(
            RtConfig::default()
                .faults(plan)
                .watchdog(Duration::from_secs(30))
                .cancel_token(token),
        )
        .run()
        .unwrap_err();
    canceller.join().unwrap();
    assert_eq!(err, RtError::Cancelled);
}

#[test]
fn deadline_stops_a_running_stage() {
    // The only stage never blocks, so the deadline must be noticed by the
    // running stage itself.
    let p = spin_forever();
    let err = Runtime::new(&p)
        .with_config(
            RtConfig::default()
                .watchdog(Duration::from_secs(30))
                .deadline(Duration::from_millis(50)),
        )
        .run()
        .unwrap_err();
    assert!(matches!(err, RtError::Timeout { stage: 0, .. }), "{err}");
}

#[test]
fn bad_indirect_target_is_reported() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let t = f.reg();
    f.switch_to(e);
    f.iconst(t, 99);
    f.call_ind(t);
    f.halt();
    let main = f.finish();
    let p = pb.finish(main, 0);
    let err = Runtime::new(&p).run().unwrap_err();
    assert_eq!(err, RtError::BadIndirectTarget(99));
}

#[test]
fn return_from_entry_is_reported() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.switch_to(e);
    f.ret();
    let main = f.finish();
    let p = pb.finish(main, 0);
    let err = Runtime::new(&p).run().unwrap_err();
    assert_eq!(err, RtError::ReturnFromEntry(0));
}

#[test]
fn benign_faults_preserve_results_exactly() {
    let p = ping_pong(2_000);
    let clean = Runtime::new(&p)
        .with_config(RtConfig::default().record_streams(true))
        .run()
        .unwrap();

    // A hand-built worst case: tiny queues, delays and stalls everywhere.
    let mut plans = vec![FaultPlan::none(2)
        .with_queue_capacity(1)
        .with_delay(
            0,
            DelayFault {
                every: 16,
                spins: 500,
            },
        )
        .with_delay(
            1,
            DelayFault {
                every: 7,
                spins: 900,
            },
        )
        .with_stall(
            0,
            StallFault {
                every: 3,
                attempts: 40,
                permanent: false,
            },
        )
        .with_stall(
            1,
            StallFault {
                every: 2,
                attempts: 25,
                permanent: false,
            },
        )];
    // Plus whatever benign plans the seeded generator produces.
    plans.extend(
        (0..64)
            .map(|s| FaultPlan::from_seed(s, 2, 2))
            .filter(FaultPlan::is_benign),
    );

    for plan in plans {
        let seed = plan.seed;
        let faulty = Runtime::new(&p)
            .with_config(RtConfig::default().record_streams(true).faults(plan))
            .run()
            .unwrap_or_else(|e| panic!("benign plan (seed {seed}) failed: {e}"));
        assert_eq!(faulty.memory, clean.memory, "seed {seed}: memory");
        assert_eq!(faulty.entry_regs, clean.entry_regs, "seed {seed}: regs");
        assert_eq!(faulty.streams, clean.streams, "seed {seed}: streams");
        let steps = |r: &dswp_rt::RtResult| r.stages.iter().map(|s| s.steps).collect::<Vec<_>>();
        assert_eq!(steps(&faulty), steps(&clean), "seed {seed}: steps");
    }
}

#[test]
fn transient_stalls_are_accounted_as_retries() {
    let p = ping_pong(2_000);
    let plan = FaultPlan::none(2)
        .with_stall(
            0,
            StallFault {
                every: 1,
                attempts: 8,
                permanent: false,
            },
        )
        .with_stall(
            1,
            StallFault {
                every: 1,
                attempts: 8,
                permanent: false,
            },
        );
    let r = Runtime::new(&p)
        .with_config(RtConfig::default().faults(plan))
        .run()
        .unwrap();
    assert_eq!(r.memory[0], 1_999_000);
    let retries: u64 = r.stages.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "forced stall attempts must show up as retries");
    assert!(r.stages.iter().all(|s| !s.panicked));
}

#[test]
fn tiny_queue_override_applies_and_completes() {
    let p = ping_pong(500);
    let plan = FaultPlan::none(2).with_queue_capacity(1);
    let r = Runtime::new(&p)
        .with_config(RtConfig::default().queue_capacity(64).faults(plan))
        .run()
        .unwrap();
    assert_eq!(r.memory[0], 124_750);
    assert!(r.queues.iter().all(|q| q.capacity == 1));
    assert!(r.queues[0].max_occupancy <= 1);
}
