//! `dswpc` — a command-line driver for the DSWP reproduction.
//!
//! Reads a program in the `dswp-ir` text format, optionally unrolls and
//! DSWP-transforms its hottest loop, and runs it on the interpreter or the
//! dual-core timing model.
//!
//! ```text
//! USAGE: dswpc <file.ir> [options]
//!
//!   --dswp                 apply automatic DSWP to the selected loop
//!   --loop bbN             select the loop with this header (default: hottest)
//!   --unroll K             unroll the selected loop K times first (K >= 2)
//!   --alias MODE           conservative | region | precise   (default region)
//!   --threads N            pipeline stages to target          (default 2)
//!   --stats                print Table 1-style loop statistics
//!   --dot FILE             write the loop's PDG as Graphviz to FILE
//!   --emit FILE            write the (transformed) program text to FILE
//!   --sim [full|half]      run on the timing model             (default full)
//!   --comm N               inter-core latency for --sim        (default 1)
//!   --run [functional|native]  execute the program: `functional` on the
//!                          deterministic executor (default), `native` on
//!                          real OS threads (stage 0 on the calling thread,
//!                          the others on pooled stage workers)
//!   --queue-cap N          native queue capacity in values     (default 32,
//!                          at most 2^20 = 1048576)
//!   --batch N|auto         native communication batch: values per queue
//!                          publish (`auto` derives it from the capacity;
//!                          token queues are capped low; default 1)
//!   --replicate N|auto     replicate every DOALL stage N ways (`auto`
//!                          distributes the available cores across the
//!                          DOALL stages by the stage cost estimate;
//!                          requires `--dswp --alias precise`)
//!   --chaos SEED           run `--run native` under the seeded fault plan
//!                          (delays, stalls, forced panics, poisoning)
//!   --deadline MS          hard wall-clock deadline for `--run native`;
//!                          exceeded runs fail with a timeout diagnosis
//! ```
//!
//! Exit codes: 0 success, 1 input/transform/execution errors, 2 usage.
//! `--run native` failures map the structured runtime error to a distinct
//! code so scripts and CI can tell a deadlock from a panic from a timeout:
//! deadlock 10, watchdog 11, stage panic 12, queue poisoned 13, deadline
//! timeout 14, cancelled 15, memory out of bounds 20, bad indirect call
//! target 21, step limit 22, return from entry 23.

use std::process::ExitCode;

use dswp_repro::analysis::{AliasMode, DagScc};
use dswp_repro::dswp::PipelineMap;
use dswp_repro::dswp::{
    analyze_loop, annotate_loop_affine, dswp_loop, loop_stats, select_loop, unroll_loop,
    DswpOptions, Replicate,
};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::verify::verify_program;
use dswp_repro::ir::{parse_program, to_text, BlockId};
use dswp_repro::rt::queue::MAX_CAPACITY;
use dswp_repro::rt::{silence_injected_panics, BatchPolicy, FaultPlan, RtConfig, RtError, Runtime};
use dswp_repro::sim::{Executor, Machine, MachineConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
enum RunMode {
    Functional,
    Native,
}

struct Args {
    file: String,
    dswp: bool,
    loop_header: Option<BlockId>,
    unroll: Option<usize>,
    alias: AliasMode,
    threads: usize,
    stats: bool,
    dot: Option<String>,
    emit: Option<String>,
    sim: Option<MachineConfig>,
    comm: u64,
    run: Option<RunMode>,
    queue_cap: usize,
    batch: Option<BatchPolicy>,
    replicate: Replicate,
    chaos: Option<u64>,
    deadline: Option<std::time::Duration>,
}

/// Exit code for a structured native-runtime error (documented in the
/// module header and asserted by `tests/cli.rs`).
fn rt_exit_code(e: &RtError) -> u8 {
    match e {
        RtError::Deadlock { .. } => 10,
        RtError::Watchdog { .. } => 11,
        RtError::StagePanic { .. } => 12,
        RtError::QueuePoisoned { .. } => 13,
        RtError::Timeout { .. } => 14,
        RtError::Cancelled => 15,
        RtError::MemoryOutOfBounds { .. } => 20,
        RtError::BadIndirectTarget(_) => 21,
        RtError::StepLimit(_) => 22,
        RtError::ReturnFromEntry(_) => 23,
    }
}

/// One-line usage synopsis; `tests/docs.rs` checks that every flag listed
/// here is documented in `README.md`.
const USAGE: &str = "usage: dswpc <file.ir> [--dswp] [--loop bbN] [--unroll K] \
     [--alias conservative|region|precise] [--threads N] [--stats] \
     [--dot FILE] [--emit FILE] [--sim [full|half]] [--comm N] \
     [--run [functional|native]] [--queue-cap N] [--batch N|auto] \
     [--replicate N|auto] [--chaos SEED] [--deadline MS]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        dswp: false,
        loop_header: None,
        unroll: None,
        alias: AliasMode::Region,
        threads: 2,
        stats: false,
        dot: None,
        emit: None,
        sim: None,
        comm: 1,
        run: None,
        queue_cap: 32,
        batch: None,
        replicate: Replicate::Off,
        chaos: None,
        deadline: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--dswp" => args.dswp = true,
            "--stats" => args.stats = true,
            "--run" => {
                args.run = Some(match it.peek().map(String::as_str) {
                    Some("native") => {
                        it.next();
                        RunMode::Native
                    }
                    Some("functional") => {
                        it.next();
                        RunMode::Functional
                    }
                    _ => RunMode::Functional,
                });
            }
            "--queue-cap" => {
                args.queue_cap = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|n| (1..=MAX_CAPACITY).contains(n))
                    .unwrap_or_else(|| usage());
            }
            "--batch" => {
                args.batch = Some(match it.next().as_deref() {
                    Some("auto") => BatchPolicy::Auto,
                    Some(v) => BatchPolicy::Fixed(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage()),
                    ),
                    None => usage(),
                });
            }
            "--replicate" => {
                args.replicate = match it.next().as_deref() {
                    Some("auto") => Replicate::Auto { cores: None },
                    Some(v) => Replicate::Fixed(
                        v.parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .unwrap_or_else(|| usage()),
                    ),
                    None => usage(),
                };
            }
            "--chaos" => {
                args.chaos = Some(
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--deadline" => {
                args.deadline = Some(std::time::Duration::from_millis(
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage()),
                ));
            }
            "--loop" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n = v
                    .trim_start_matches("bb")
                    .parse()
                    .unwrap_or_else(|_| usage());
                args.loop_header = Some(BlockId(n));
            }
            "--unroll" => {
                args.unroll = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&k| k >= 2)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--alias" => {
                args.alias = match it.next().as_deref() {
                    Some("conservative") => AliasMode::Conservative,
                    Some("region") => AliasMode::Region,
                    Some("precise") => AliasMode::Precise,
                    _ => usage(),
                };
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--dot" => args.dot = Some(it.next().unwrap_or_else(|| usage())),
            "--emit" => args.emit = Some(it.next().unwrap_or_else(|| usage())),
            "--comm" => {
                args.comm = it
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--sim" => {
                let cfg = match it.peek().map(String::as_str) {
                    Some("half") => {
                        it.next();
                        MachineConfig::half_width()
                    }
                    Some("full") => {
                        it.next();
                        MachineConfig::full_width()
                    }
                    _ => MachineConfig::full_width(),
                };
                args.sim = Some(cfg);
            }
            _ if args.file.is_empty() && !a.starts_with('-') => args.file = a,
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dswpc: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let mut program = match parse_program(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dswpc: {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    // Structural verification gate: a parseable but malformed program
    // (out-of-range registers, branch targets, queues, call targets, missing
    // terminators) must be rejected here instead of panicking deep inside an
    // execution engine or the DSWP transformation.
    if let Err(e) = verify_program(&program) {
        eprintln!("dswpc: {}: invalid program: {e}", args.file);
        return ExitCode::FAILURE;
    }
    let main_fn = program.main();

    // Profile lazily: multi-threaded inputs (e.g. a previously emitted DSWP
    // program) cannot run on the single-context interpreter, but they also
    // need no profile for --run / --sim.
    let needs_loop = args.dswp || args.stats || args.unroll.is_some() || args.dot.is_some();
    let baseline = match Interpreter::new(&program).run() {
        Ok(r) => Some(r),
        Err(e) => {
            if needs_loop && args.loop_header.is_none() {
                eprintln!("dswpc: profiling run failed: {e}");
                return ExitCode::FAILURE;
            }
            None
        }
    };
    let header = args.loop_header.or_else(|| {
        baseline
            .as_ref()
            .and_then(|b| select_loop(&program, main_fn, &b.profile, 2.0))
    });

    if let Some(header) = header {
        if let Some(k) = args.unroll {
            if let Err(e) = unroll_loop(&mut program, main_fn, header, k) {
                eprintln!("dswpc: unroll failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("unrolled {header} x{k}");
        }
        if args.alias == AliasMode::Precise {
            // Derive affine memory facts automatically (mini scalar
            // evolution) so --alias precise works on unannotated inputs.
            match annotate_loop_affine(&mut program, main_fn, header) {
                Ok(s) => eprintln!(
                    "scev: {} access(es) annotated, {} unanalyzable",
                    s.annotated, s.unanalyzed
                ),
                Err(e) => eprintln!("dswpc: scev failed: {e}"),
            }
        }
        if args.stats {
            match loop_stats(&program, main_fn, header, args.alias) {
                Ok(s) => eprintln!(
                    "loop {header}: depth {}, {} blocks, {} instrs, {} SCCs (largest {})",
                    s.depth, s.blocks, s.instrs, s.sccs, s.largest_scc
                ),
                Err(e) => eprintln!("dswpc: stats failed: {e}"),
            }
        }
        if let Some(path) = &args.dot {
            match analyze_loop(&program, main_fn, header, args.alias) {
                Ok(a) => {
                    let dag = DagScc::compute(&a.pdg.instr_graph());
                    let dot = dswp_repro::analysis::pdg_to_dot(
                        a.normalized.function(main_fn),
                        &a.pdg,
                        Some(&dag),
                    );
                    if let Err(e) = std::fs::write(path, dot) {
                        eprintln!("dswpc: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote PDG to {path}");
                }
                Err(e) => eprintln!("dswpc: analysis failed: {e}"),
            }
        }
        if args.dswp {
            // Re-profile in case unrolling changed block ids/weights.
            let profile = Interpreter::new(&program).run().map(|r| r.profile);
            let profile = match profile {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("dswpc: re-profiling failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if args.replicate != Replicate::Off && args.alias != AliasMode::Precise {
                eprintln!(
                    "dswpc: warning: replication needs `--alias precise` to prove \
                     iterations independent; stages will not replicate"
                );
            }
            let opts = DswpOptions {
                alias: args.alias,
                max_threads: args.threads,
                replicate: args.replicate,
                ..DswpOptions::default()
            };
            match dswp_loop(&mut program, main_fn, header, &profile, &opts) {
                Ok(report) => {
                    eprintln!(
                        "DSWP: {} SCCs -> {} stages, flows {}i/{}l/{}f, est. speedup {:.2}x",
                        report.num_sccs,
                        report.partitioning.num_threads,
                        report.artifacts.flows.initial,
                        report.artifacts.flows.loop_flows,
                        report.artifacts.flows.final_flows,
                        report.estimated_speedup
                    );
                    for info in &report.replication {
                        eprintln!(
                            "replicate: stage {} x{} ({} new queue(s), {} new thread(s){})",
                            info.stage,
                            info.replicas,
                            info.new_queues,
                            info.new_threads,
                            if info.gather.is_some() {
                                ", gathered"
                            } else {
                                ""
                            }
                        );
                    }
                    if report.replication.is_empty() && args.replicate != Replicate::Off {
                        eprintln!("replicate: no stage eligible");
                    }
                }
                Err(e) => {
                    eprintln!("dswpc: DSWP declined: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else if args.dswp || args.stats || args.unroll.is_some() {
        eprintln!("dswpc: no candidate loop found");
        return ExitCode::FAILURE;
    }

    if let Some(path) = &args.emit {
        if let Err(e) = std::fs::write(path, to_text(&program)) {
            eprintln!("dswpc: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote program to {path}");
    }

    match args.run {
        Some(RunMode::Functional) => match Executor::new(&program).run() {
            Ok(r) => {
                println!("functional: {:?} steps per context", r.steps);
                print_mem("memory", &r.memory);
            }
            Err(e) => {
                eprintln!("dswpc: execution failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        Some(RunMode::Native) => {
            let map = PipelineMap::infer(&program);
            if let Err(e) = map.validate() {
                eprintln!("dswpc: warning: pipeline map: {e}");
            }
            eprint!("{}", map.summary(&program));
            let mut cfg = RtConfig::default().queue_capacity(args.queue_cap);
            if let Some(policy) = args.batch {
                // Resolve the policy against the configured capacity, then
                // let the pipeline map shape it per queue (token queues
                // stay shallow, unused queues drop to 1).
                let base = policy.chunk(args.queue_cap);
                let hints = map.batch_hints(base);
                eprintln!("batch: base {base}, per-queue {hints:?}");
                cfg = cfg.queue_batches(hints);
            }
            if let Some(deadline) = args.deadline {
                cfg = cfg.deadline(deadline);
            }
            if let Some(seed) = args.chaos {
                let plan =
                    FaultPlan::from_seed(seed, program.num_threads(), program.num_queues as usize);
                eprintln!("chaos: {plan}");
                silence_injected_panics();
                cfg = cfg.faults(plan);
            }
            match Runtime::new(&program).with_config(cfg).run() {
                Ok(r) => {
                    println!(
                        "native: {:.3} ms on {} stage thread(s)",
                        r.elapsed.as_secs_f64() * 1e3,
                        r.stages.len()
                    );
                    let roles = map.roles(&program);
                    for (i, s) in r.stages.iter().enumerate() {
                        let role = match roles.get(i) {
                            Some(dswp_repro::dswp::StageRole::Scatter(t)) => {
                                format!(" [scatter {t}]")
                            }
                            Some(dswp_repro::dswp::StageRole::Replica { stage, index }) => {
                                format!(" [stage {stage} replica {index}]")
                            }
                            Some(dswp_repro::dswp::StageRole::Gather(t)) => {
                                format!(" [gather {t}]")
                            }
                            _ => String::new(),
                        };
                        println!(
                            "  stage {i}: {} steps, {:.3} ms wall ({:.3} ms blocked){}{role}",
                            s.steps,
                            s.wall.as_secs_f64() * 1e3,
                            s.blocked.as_secs_f64() * 1e3,
                            if s.parked { ", parked" } else { "" }
                        );
                    }
                    // Per-replica-group rollup: total throughput of the
                    // replicated stage and how evenly it spread.
                    for g in map.replica_groups(&program) {
                        let steps: Vec<u64> = g
                            .replica_threads
                            .iter()
                            .filter_map(|&t| r.stages.get(t).map(|s| s.steps))
                            .collect();
                        let total: u64 = steps.iter().sum();
                        let blocked: f64 = g
                            .replica_threads
                            .iter()
                            .filter_map(|&t| r.stages.get(t).map(|s| s.blocked.as_secs_f64()))
                            .sum();
                        println!(
                            "  replicas of stage {}: {} thread(s), {} steps total \
                             (per replica {:?}), {:.3} ms blocked across replicas",
                            g.stage,
                            g.replica_threads.len(),
                            total,
                            steps,
                            blocked * 1e3
                        );
                    }
                    for (q, s) in r.queues.iter().enumerate().filter(|(_, s)| s.produced > 0) {
                        println!(
                            "  queue {q}: {} values, max occupancy {}/{}, blocks {}p/{}c, \
                             avg batch {:.1}w/{:.1}r",
                            s.produced,
                            s.max_occupancy,
                            s.capacity,
                            s.producer_blocks,
                            s.consumer_blocks,
                            s.flush_sizes.mean(),
                            s.refill_sizes.mean()
                        );
                    }
                    print_mem("memory", &r.memory);
                }
                Err(e) => {
                    eprintln!("dswpc: native execution failed: {e}");
                    return ExitCode::from(rt_exit_code(&e));
                }
            }
        }
        None => {}
    }
    if let Some(cfg) = args.sim {
        let cfg = cfg.with_comm_latency(args.comm);
        match Machine::new(&program, cfg).run() {
            Ok(r) => {
                println!("timing: {} cycles", r.cycles);
                for (c, s) in r.cores.iter().enumerate() {
                    println!(
                        "  core {c}: {} instrs ({} queue ops), IPC {:.2}",
                        s.retired,
                        s.queue_ops,
                        s.ipc(r.cycles)
                    );
                }
                println!(
                    "  queues: mean occupancy {:.1}, max {}",
                    r.occupancy.mean(),
                    r.occupancy.max()
                );
                print_mem("memory", &r.memory);
            }
            Err(e) => {
                eprintln!("dswpc: simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_mem(label: &str, mem: &[i64]) {
    let nonzero: Vec<String> = mem
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .take(16)
        .map(|(a, v)| format!("[{a}]={v}"))
        .collect();
    println!("{label}: {}", nonzero.join(" "));
}
