//! Measured wall-clock speedup of native pipelined execution.
//!
//! The paper's evaluation (Figure 6) reports *modeled* cycle counts; this
//! binary measures what the `dswp-sim` timing model can only predict: real
//! wall-clock time of the DSWP-transformed program running every pipeline
//! stage on a thread of its own (`dswp-rt`), against the untransformed program
//! running on the same runtime with a single stage. Both sides pay the
//! same interpretation overhead, so the ratio isolates the pipeline-
//! parallelism effect (decoupling wins vs. per-value queue cost).
//!
//! ```text
//! cargo run --release -p dswp-bench --bin native_speedup -- [--out FILE]
//! DSWP_BENCH_SIZE=test ... for a quick smoke run
//! DSWP_QUEUE_CAP=N    ... queue capacity (default 32)
//! ```
//!
//! `--out FILE` additionally writes the per-workload speedups (and their
//! geomean) as flat JSON, for CI artifact archiving.

use std::time::Duration;

use dswp_bench::runner::{geomean, profile, transform_auto, Experiment};
use dswp_ir::Program;
use dswp_rt::{RtConfig, Runtime};
use dswp_workloads::paper_suite;

const REPS: usize = 3;

/// Best-of-`REPS` native wall-clock time; also sanity-checks the memory
/// image against `expect` on every repetition.
fn native_time(program: &Program, cfg: &RtConfig, expect: &[i64]) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let r = Runtime::new(program)
            .with_config(cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("native run failed: {e}"));
        assert_eq!(r.memory, expect, "native run diverged from baseline");
        best = best.min(r.elapsed);
    }
    best
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(it.next().expect("--out needs a path")),
            other => {
                eprintln!("native_speedup: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let exp = Experiment::from_env();
    let cap = std::env::var("DSWP_QUEUE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let cfg = RtConfig::default().queue_capacity(cap);

    println!("native wall-clock speedup (queue capacity {cap}, best of {REPS})");
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>9}",
        "workload", "stages", "seq ms", "pipe ms", "speedup"
    );

    let mut speedups = Vec::new();
    let mut pairs: Vec<(String, f64)> = Vec::new();
    for w in paper_suite(exp.size) {
        let (prof, _) = profile(&w);
        let Some((transformed, report)) = transform_auto(&w, &prof, exp.alias) else {
            println!(
                "{:<12} {:>7} {:>12} {:>12} {:>9}",
                w.name, "-", "-", "-", "declined"
            );
            continue;
        };
        // Reference memory image from the deterministic oracle.
        let oracle = dswp_sim::Executor::new(&transformed)
            .run()
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", w.name));

        let seq = native_time(&w.program, &cfg, &oracle.memory);
        let pipe = native_time(&transformed, &cfg, &oracle.memory);
        let speedup = seq.as_secs_f64() / pipe.as_secs_f64();
        speedups.push(speedup);
        pairs.push((w.name.to_string(), speedup));
        println!(
            "{:<12} {:>7} {:>12.3} {:>12.3} {:>8.2}x",
            w.name,
            report.partitioning.num_threads,
            seq.as_secs_f64() * 1e3,
            pipe.as_secs_f64() * 1e3,
            speedup
        );
    }
    if !speedups.is_empty() {
        let g = geomean(speedups);
        println!("geomean speedup: {g:.2}x");
        pairs.push(("geomean".to_string(), g));
    }
    if let Some(path) = out_path {
        std::fs::write(&path, dswp_bench::json::emit(&pairs))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
