//! Batched-communication sweep: native pipeline wall-clock time at batch
//! sizes 1 / 4 / 16 / 64, per workload.
//!
//! The paper's synchronization array moves one value per (~1-cycle)
//! `produce`; the software runtime pays an atomic Release/Acquire pair per
//! value instead. Chunked communication amortizes that cost across the
//! chunk — this binary measures by how much. Each workload reports the
//! throughput ratio `time(batch=1) / time(batch=N)` (higher is better,
//! 1.0 = batching changed nothing), which is what CI gates on: ratios are
//! far less machine-dependent than absolute milliseconds.
//!
//! Alongside the DSWP-transformed paper workloads, the sweep includes a
//! hand-built `queue-stream` pipeline that does nothing but move values —
//! the communication-bound extreme where batching must pay off.
//!
//! ```text
//! cargo run --release -p dswp-bench --bin batched_speedup -- [options]
//!   --out FILE               write ratios as flat JSON (default BENCH_batched.json)
//!   --check FILE             fail (exit 1) if any ratio regresses more than
//!                            10% below the committed baseline
//!   --update-baseline FILE   overwrite the baseline with this run's ratios
//! DSWP_BENCH_SIZE=test      quick smoke run
//! DSWP_QUEUE_CAP=N          queue capacity (default 32)
//! ```

use std::process::ExitCode;
use std::time::Duration;

use dswp_bench::json;
use dswp_bench::runner::{
    below_baseline, best_native_time, geomean, profile, queue_cap, transform_auto, Experiment,
};
use dswp_ir::{Program, ProgramBuilder, QueueId};
use dswp_rt::RtConfig;
use dswp_workloads::{paper_suite, Size};

const REPS: usize = 5;
const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Re-measurements granted to keys that miss the baseline before the
/// check fails for real.
const CHECK_RETRIES: usize = 2;

struct Case {
    name: String,
    program: Program,
    expect: Vec<i64>,
}

/// The communication-bound extreme: a two-stage pipeline that only moves
/// values. The producer streams `0..n` (then a `-1` sentinel); the
/// consumer folds them into an order-sensitive checksum.
fn queue_stream(n: i64) -> Case {
    let mut pb = ProgramBuilder::new();
    let q = QueueId(0);

    let mut f = pb.function("producer");
    let e = f.entry_block();
    let header = f.block("header");
    let body = f.block("body");
    let tail = f.block("tail");
    let (i, lim, done) = (f.reg(), f.reg(), f.reg());
    f.switch_to(e);
    f.iconst(i, 0);
    f.iconst(lim, n);
    f.jump(header);
    f.switch_to(header);
    f.cmp_ge(done, i, lim);
    f.br(done, tail, body);
    f.switch_to(body);
    f.produce(q, i);
    f.add(i, i, 1);
    f.jump(header);
    f.switch_to(tail);
    f.produce(q, -1);
    f.halt();
    let producer = f.finish();

    let mut g = pb.function("consumer");
    let e2 = g.entry_block();
    let loop_ = g.block("loop");
    let acc = g.block("acc");
    let fin = g.block("fin");
    let (v, sum, neg, base) = (g.reg(), g.reg(), g.reg(), g.reg());
    g.switch_to(e2);
    g.iconst(sum, 0);
    g.jump(loop_);
    g.switch_to(loop_);
    g.consume(v, q);
    g.cmp_lt(neg, v, 0);
    g.br(neg, fin, acc);
    g.switch_to(acc);
    g.mul(sum, sum, 31);
    g.add(sum, sum, v);
    g.jump(loop_);
    g.switch_to(fin);
    g.iconst(base, 0);
    g.store(sum, base, 0);
    g.halt();
    let consumer = g.finish();

    let mut program = pb.finish(producer, 2);
    program.num_queues = 1;
    program.add_thread(consumer);

    let mut checksum: i64 = 0;
    for k in 0..n {
        checksum = checksum.wrapping_mul(31).wrapping_add(k);
    }
    Case {
        name: "queue-stream".into(),
        program,
        expect: vec![checksum, 0],
    }
}

fn cases(size: Size) -> Vec<Case> {
    let stream_len = match size {
        Size::Test => 20_000,
        Size::Paper => 200_000,
    };
    let mut out = vec![queue_stream(stream_len)];
    for w in paper_suite(size) {
        let (prof, _) = profile(&w);
        let Some((transformed, _)) = transform_auto(&w, &prof, Experiment::from_env().alias) else {
            continue;
        };
        let oracle = dswp_sim::Executor::new(&transformed)
            .run()
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", w.name));
        out.push(Case {
            name: w.name.into(),
            program: transformed,
            expect: oracle.memory,
        });
    }
    out
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_batched.json");
    let mut check_path: Option<String> = None;
    let mut update_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path"),
            "--check" => check_path = Some(it.next().expect("--check needs a path")),
            "--update-baseline" => {
                update_path = Some(it.next().expect("--update-baseline needs a path"));
            }
            other => {
                eprintln!("batched_speedup: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    let exp = Experiment::from_env();
    let cap = queue_cap();
    let cases = cases(exp.size);
    let mut pairs = sweep(&cases, cap);
    let mut gate_failed = false;

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("batched_speedup: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The baseline file is shared with `replicated_speedup`, which owns
        // every key under `replicated/`; this gate checks only its own
        // section.
        let baseline: Vec<(String, f64)> = match json::parse(&text) {
            Ok(b) => b
                .into_iter()
                .filter(|(k, _)| !k.starts_with("replicated/"))
                .collect(),
            Err(e) => {
                eprintln!("batched_speedup: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The gate asks "can this build still achieve the baseline
        // throughput ratios?" — so a noisy miss earns a re-measure, and
        // each key's score is its best across attempts. One unlucky
        // scheduler quantum must not fail CI; a real regression fails
        // every attempt.
        let mut problems = below_baseline(&baseline, &pairs);
        for retry in 0..CHECK_RETRIES {
            if problems.is_empty() {
                break;
            }
            println!(
                "{} key(s) below baseline; re-measuring (retry {}/{CHECK_RETRIES})",
                problems.len(),
                retry + 1
            );
            for (key, v) in sweep(&cases, cap) {
                if let Some((_, best)) = pairs.iter_mut().find(|(k, _)| *k == key) {
                    *best = best.max(v);
                }
            }
            problems = below_baseline(&baseline, &pairs);
        }
        if problems.is_empty() {
            println!("baseline check passed ({path}, {} keys)", baseline.len());
        } else {
            for p in &problems {
                eprintln!("REGRESSION {p}");
            }
            eprintln!(
                "batched_speedup: {} regression(s) vs {path}; rerun with \
                 --update-baseline {path} if this change is intentional",
                problems.len()
            );
            gate_failed = true;
        }
    }

    // Persist the final (best-across-attempts) ratios — even on gate
    // failure, so the uploaded artifact shows what was measured.
    let rendered = json::emit(&pairs);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("batched_speedup: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = update_path {
        // Rewrite only this binary's section; `replicated_speedup` owns the
        // keys under `replicated/`.
        let existing = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| json::parse(&t).ok())
            .unwrap_or_default();
        let merged = json::replace_section(&existing, |k| !k.starts_with("replicated/"), &pairs);
        if let Err(e) = std::fs::write(&path, json::emit(&merged)) {
            eprintln!("batched_speedup: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("updated baseline {path} ({} keys total)", merged.len());
    }
    if gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One full sweep over `cases`: prints the table and returns the
/// `workload/batch` ratio pairs plus per-batch geomeans.
fn sweep(cases: &[Case], cap: usize) -> Vec<(String, f64)> {
    println!("batched communication sweep (queue capacity {cap}, best of {REPS})");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "workload", "b=1 ms", "b=4 ms", "b=16 ms", "b=64 ms", "r4", "r16", "r64"
    );
    let mut pairs: Vec<(String, f64)> = Vec::new();
    let mut per_batch: Vec<Vec<f64>> = vec![Vec::new(); BATCHES.len()];
    for case in cases {
        let times: Vec<Duration> = BATCHES
            .iter()
            .map(|&b| {
                let cfg = RtConfig::default().queue_capacity(cap).batch(b);
                best_native_time(&case.name, &case.program, &case.expect, &cfg, REPS)
            })
            .collect();
        let base = times[0].as_secs_f64();
        let ratios: Vec<f64> = times.iter().map(|t| base / t.as_secs_f64()).collect();
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>7.2}x {:>7.2}x {:>7.2}x",
            case.name,
            times[0].as_secs_f64() * 1e3,
            times[1].as_secs_f64() * 1e3,
            times[2].as_secs_f64() * 1e3,
            times[3].as_secs_f64() * 1e3,
            ratios[1],
            ratios[2],
            ratios[3]
        );
        for (i, &b) in BATCHES.iter().enumerate().skip(1) {
            pairs.push((format!("{}/{b}", case.name), ratios[i]));
            per_batch[i].push(ratios[i]);
        }
    }
    // Geomean ratios across workloads: the statistic the CI baseline
    // gates on. Individual workloads at a few ms each are too noisy for
    // a tight regression threshold; the geomean (and the long-running
    // queue-stream sentinel) is not.
    for (i, &b) in BATCHES.iter().enumerate().skip(1) {
        let g = geomean(per_batch[i].iter().copied());
        println!("geomean ratio at batch {b}: {g:.2}x");
        pairs.push((format!("geomean/{b}"), g));
    }
    pairs
}
