//! Parallel-stage replication sweep: native pipeline wall-clock time with
//! every DOALL stage replicated 1 / 2 / 4 ways, per workload.
//!
//! DSWP's pipeline throughput is bounded by its slowest stage; when that
//! stage carries no recurrence, replicating it N ways divides its
//! per-iteration cost by N (the paper's Section 5 "parallel-stage"
//! extension). This binary measures the end-to-end effect, scatter and
//! gather overhead included: each workload reports the throughput ratio
//! `time(replicas=1) / time(replicas=N)` (higher is better; 1 replica =
//! the plain pipeline, no scatter context). Every repetition is checked
//! bit-for-bit against the sequential interpreter's memory image, so a
//! replication bug can never "win" the benchmark.
//!
//! Workloads whose candidate stage is not legally replicable (a carried
//! recurrence, a live-out, an unprovable store) appear in the table as
//! `refused` and are excluded from the gated keys — refusing is the
//! correct result for them, not a regression.
//!
//! A second, *skewed-cost* section shows the scatter routing around a slow
//! replica: one replica of each 4-way replicated stage runs under an
//! injected benign delay (timing-only, results still checked bit-for-bit),
//! and the table reports `time(skewed) / time(even)`. The scatter sends
//! each iteration to the least-backlogged replica (queue-depth feedback),
//! so the slow replica only takes the iterations it keeps up with. The
//! section is informational: it writes no keys and gates nothing.
//!
//! ```text
//! cargo run --release -p dswp-bench --bin replicated_speedup -- [options]
//!   --out FILE               write ratios as flat JSON (default BENCH_replicated.json)
//!   --check FILE             fail (exit 1) if any `replicated/` ratio regresses
//!                            more than 10% below the committed baseline; on
//!                            hosts with >= 4 cores additionally require the
//!                            DOALL sentinel (compress or jpegenc at 4
//!                            replicas) to reach 1.3x
//!   --update-baseline FILE   rewrite the baseline's `replicated/` section
//!                            with this run's ratios (other sections kept)
//! DSWP_BENCH_SIZE=test      quick smoke run
//! DSWP_QUEUE_CAP=N          queue capacity (default 32)
//! ```

use std::process::ExitCode;
use std::time::Duration;

use dswp::{annotate_loop_affine, dswp_loop, DswpError, DswpOptions, PipelineMap, Replicate};
use dswp_analysis::AliasMode;
use dswp_bench::json;
use dswp_bench::runner::{below_baseline, best_native_time, geomean, queue_cap, Experiment};
use dswp_ir::interp::Interpreter;
use dswp_ir::Program;
use dswp_rt::fault::DelayFault;
use dswp_rt::{FaultPlan, RtConfig};
use dswp_workloads::{paper_suite, Size, Workload};

const REPS: usize = 5;
const REPLICAS: [usize; 3] = [1, 2, 4];
/// Communication batch used for every run (identical across replica
/// counts, so the ratios compare replication alone).
const BATCH: usize = 8;
/// Namespace of every key this binary owns in the shared baseline.
const PREFIX: &str = "replicated/";
/// DOALL workloads that must hit [`SENTINEL_FLOOR`] at 4 replicas on a
/// machine with enough cores.
const SENTINELS: [&str; 2] = ["29.compress", "jpegenc"];
const SENTINEL_FLOOR: f64 = 1.3;
/// Spin count of the injected per-instruction delay that skews one replica
/// of each group in the skewed-cost section.
const SKEW_SPINS: u32 = 400;

const CHECK_RETRIES: usize = 2;

struct Case {
    name: String,
    /// Transformed program per replica count (index-aligned with
    /// [`REPLICAS`]); `None` past the point where replication refused.
    programs: Vec<Option<Program>>,
    /// Sequential-interpreter memory image of the original program.
    expect: Vec<i64>,
    /// Whether the stage actually replicated at counts >= 2.
    replicated: bool,
}

/// DSWP-transforms `w` with `replicate` under precise alias analysis
/// (replication legality needs provable per-iteration stores). Returns the
/// transformed program and whether a stage was actually replicated.
fn transform(w: &Workload, replicate: Replicate) -> Option<(Program, bool)> {
    let mut p = w.program.clone();
    let main = p.main();
    let profile = Interpreter::new(&p)
        .run()
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name))
        .profile;
    annotate_loop_affine(&mut p, main, w.header)
        .unwrap_or_else(|e| panic!("{}: scev failed: {e}", w.name));
    let opts = DswpOptions {
        alias: AliasMode::Precise,
        replicate,
        ..DswpOptions::default()
    };
    match dswp_loop(&mut p, main, w.header, &profile, &opts) {
        Ok(report) => Some((p, !report.replication.is_empty())),
        Err(DswpError::SingleScc | DswpError::NotProfitable) => None,
        Err(e) => panic!("{}: unexpected DSWP failure: {e}", w.name),
    }
}

fn cases(size: Size) -> Vec<Case> {
    let mut out = Vec::new();
    for w in paper_suite(size) {
        let expect = Interpreter::new(&w.program)
            .run()
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name))
            .memory;
        let mut programs = Vec::new();
        let mut replicated = false;
        for &k in &REPLICAS {
            let req = if k == 1 {
                Replicate::Off
            } else {
                Replicate::Fixed(k)
            };
            match transform(&w, req) {
                Some((p, applied)) => {
                    if k > 1 && !applied {
                        programs.push(None);
                    } else {
                        replicated |= applied;
                        programs.push(Some(p));
                    }
                }
                None => programs.push(None),
            }
        }
        if programs[0].is_none() {
            continue; // DSWP itself declined; nothing to compare
        }
        out.push(Case {
            name: w.name.into(),
            programs,
            expect,
            replicated,
        });
    }
    out
}

/// One full sweep: prints the table and returns the gated
/// `replicated/<workload>/r<N>` ratio pairs plus per-count geomeans.
fn sweep(cases: &[Case], cap: usize) -> Vec<(String, f64)> {
    println!(
        "parallel-stage replication sweep (queue capacity {cap}, batch {BATCH}, best of {REPS})"
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "r=1 ms", "r=2 ms", "r=4 ms", "x2", "x4"
    );
    let mut pairs: Vec<(String, f64)> = Vec::new();
    let mut per_count: Vec<Vec<f64>> = vec![Vec::new(); REPLICAS.len()];
    for case in cases {
        let cfg = RtConfig::default().queue_capacity(cap).batch(BATCH);
        let times: Vec<Option<Duration>> = case
            .programs
            .iter()
            .map(|p| {
                p.as_ref()
                    .map(|p| best_native_time(&case.name, p, &case.expect, &cfg, REPS))
            })
            .collect();
        let base = times[0].expect("replica count 1 always runs").as_secs_f64();
        let ms = |t: &Option<Duration>| match t {
            Some(t) => format!("{:.3}", t.as_secs_f64() * 1e3),
            None => "refused".into(),
        };
        let ratio = |t: &Option<Duration>| t.map(|t| base / t.as_secs_f64());
        let rx = |t: &Option<Duration>| match ratio(t) {
            Some(r) => format!("{r:.2}x"),
            None => "-".into(),
        };
        println!(
            "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8}",
            case.name,
            ms(&times[0]),
            ms(&times[1]),
            ms(&times[2]),
            rx(&times[1]),
            rx(&times[2])
        );
        if !case.replicated {
            continue; // refusal is correct, not a gated data point
        }
        for (i, &k) in REPLICAS.iter().enumerate().skip(1) {
            if let Some(r) = ratio(&times[i]) {
                pairs.push((format!("{PREFIX}{}/r{k}", case.name), r));
                per_count[i].push(r);
            }
        }
    }
    for (i, &k) in REPLICAS.iter().enumerate().skip(1) {
        if per_count[i].is_empty() {
            continue;
        }
        let g = geomean(per_count[i].iter().copied());
        println!("geomean ratio at {k} replicas: {g:.2}x");
        pairs.push((format!("{PREFIX}geomean/r{k}"), g));
    }
    pairs
}

/// Skewed-cost section: each DOALL sentinel is replicated 4 ways and timed
/// twice, evenly and with the first replica of every replica group slowed
/// by an injected benign delay. Prints `time(skewed) / time(even)`.
fn skew_sweep(size: Size, cap: usize) {
    println!("skewed-cost scatter sweep (one replica delayed {SKEW_SPINS} spins/instr, x4)");
    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "workload", "even ms", "skewed ms", "slowdown"
    );
    for w in paper_suite(size) {
        if !SENTINELS.contains(&w.name) {
            continue;
        }
        let expect = Interpreter::new(&w.program)
            .run()
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name))
            .memory;
        let Some((p, true)) = transform(&w, Replicate::Fixed(4)) else {
            continue;
        };
        let map = PipelineMap::infer(&p);
        let mut plan = FaultPlan::none(p.num_threads());
        for g in map.replica_groups(&p) {
            plan = plan.with_delay(
                g.replica_threads[0],
                DelayFault {
                    every: 1,
                    spins: SKEW_SPINS,
                },
            );
        }
        let cfg = RtConfig::default().queue_capacity(cap).batch(BATCH);
        let t_even = best_native_time(&format!("{} even", w.name), &p, &expect, &cfg, REPS);
        let skewed = cfg.faults(plan);
        let t_skew = best_native_time(&format!("{} skew", w.name), &p, &expect, &skewed, REPS);
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>9.2}x",
            w.name,
            t_even.as_secs_f64() * 1e3,
            t_skew.as_secs_f64() * 1e3,
            t_skew.as_secs_f64() / t_even.as_secs_f64()
        );
    }
}

/// Regression messages vs. the committed baseline (empty = gate passes).
/// `cores` also arms the DOALL sentinel floor: with at least 4 cores, a
/// build where neither compress nor jpegenc reaches 1.3x at 4 replicas is
/// broken regardless of what the baseline says.
fn check_against(
    baseline: &[(String, f64)],
    current: &[(String, f64)],
    cores: usize,
) -> Vec<String> {
    let mut problems = below_baseline(baseline, current);
    if cores >= 4 {
        let best = SENTINELS
            .iter()
            .filter_map(|s| {
                current
                    .iter()
                    .find(|(k, _)| k == &format!("{PREFIX}{s}/r4"))
                    .map(|&(_, v)| v)
            })
            .fold(f64::NAN, f64::max);
        // NaN (no sentinel measured at all) must fail the floor too.
        if best.is_nan() || best < SENTINEL_FLOOR {
            problems.push(format!(
                "DOALL sentinel: best of {SENTINELS:?} at 4 replicas is {best:.3}, \
                 below the {SENTINEL_FLOOR} floor ({cores} cores available)"
            ));
        }
    } else {
        println!("sentinel floor skipped: only {cores} core(s) available (need 4)");
    }
    problems
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_replicated.json");
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
                eprintln!("replicated_speedup: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }

    let exp = Experiment::from_env();
    let cap = queue_cap();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cases = cases(exp.size);
    let mut pairs = sweep(&cases, cap);
    skew_sweep(exp.size, cap);
    let mut gate_failed = false;

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("replicated_speedup: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline: Vec<(String, f64)> = match json::parse(&text) {
            Ok(b) => b
                .into_iter()
                .filter(|(k, _)| k.starts_with(PREFIX))
                .collect(),
            Err(e) => {
                eprintln!("replicated_speedup: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Noisy misses earn a re-measure; each key keeps its best score
        // across attempts. A real regression fails every attempt.
        let mut problems = check_against(&baseline, &pairs, cores);
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
            problems = check_against(&baseline, &pairs, cores);
        }
        if problems.is_empty() {
            println!("baseline check passed ({path}, {} keys)", baseline.len());
        } else {
            for p in &problems {
                eprintln!("REGRESSION {p}");
            }
            eprintln!(
                "replicated_speedup: {} regression(s) vs {path}; rerun with \
                 --update-baseline {path} if this change is intentional",
                problems.len()
            );
            gate_failed = true;
        }
    }

    let rendered = json::emit(&pairs);
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        eprintln!("replicated_speedup: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = update_path {
        // Rewrite only the `replicated/` section; `batched_speedup` owns
        // the rest of the shared baseline. Only the geomean keys are
        // committed — per-workload ratios at a few ms per run are too
        // noisy to gate individually (they still land in the `--out`
        // artifact, and the 4-core sentinel reads them from the current
        // run, not the baseline).
        let existing = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| json::parse(&t).ok())
            .unwrap_or_default();
        let gate_keys: Vec<(String, f64)> = pairs
            .iter()
            .filter(|(k, _)| k.starts_with("replicated/geomean/"))
            .cloned()
            .collect();
        let merged = json::replace_section(&existing, |k| k.starts_with(PREFIX), &gate_keys);
        if let Err(e) = std::fs::write(&path, json::emit(&merged)) {
            eprintln!("replicated_speedup: cannot write {path}: {e}");
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
