//! Micro-benchmarks of the compiler passes and the simulator: PDG
//! construction, SCC/DAG coalescing, the TPP heuristic, the full DSWP
//! transformation, timing-model throughput, and a per-kernel table of the
//! text, analysis and compile cost of every `jobs` kernel (the 10 paper
//! kernels plus `gzip` at `Size::Test`).
//!
//! Uses a small self-contained harness (median-of-samples over
//! `std::time::Instant`) instead of an external benchmark framework so the
//! workspace builds with no registry access. Run with
//! `cargo bench -p dswp-bench --bench pass_costs`.

use std::hint::black_box;
use std::time::Instant;

use dswp::{analyze_loop, dswp_loop, scc_costs, tpp_heuristic, DswpOptions, TppOptions};
use dswp_analysis::{
    build_pdg, find_loops, loop_dataflow, AliasMode, DagScc, Liveness, PdgOptions,
};
use dswp_ir::interp::Interpreter;
use dswp_ir::{parse_program, to_text, LatencyTable};
use dswp_sim::{Machine, MachineConfig};
use dswp_workloads::{gzip, mcf, paper_suite, Size};

/// Runs `f` `samples` times after a short warm-up and returns the median
/// per-call time in µs.
fn median_us<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[samples / 2] as f64 / 1000.0
}

/// Runs `f` repeatedly and prints the median per-iteration time.
fn bench<T>(name: &str, f: impl FnMut() -> T) {
    const SAMPLES: usize = 15;
    let median = median_us(SAMPLES, f);
    println!("{name:<32} {median:>12.3} µs/iter (median of {SAMPLES})");
}

fn bench_passes() {
    let w = mcf::build(Size::Test);
    let main = w.program.main();
    let analysis = analyze_loop(&w.program, main, w.header, AliasMode::Region).unwrap();
    let f = analysis.normalized.function(main);
    let liveness = Liveness::compute(f);
    let profile = Interpreter::new(&w.program).run().unwrap().profile;

    bench("pdg_build_mcf", || {
        build_pdg(
            black_box(f),
            &analysis.loop_,
            &liveness,
            &PdgOptions {
                alias: AliasMode::Region,
            },
        )
    });

    bench("dag_scc_mcf", || {
        DagScc::compute(&black_box(&analysis.pdg).instr_graph())
    });

    let costs = scc_costs(
        f,
        main,
        &analysis.pdg,
        &analysis.dag,
        &profile,
        &LatencyTable::default(),
    );
    bench("tpp_heuristic_mcf", || {
        tpp_heuristic(black_box(&analysis.dag), &costs, &TppOptions::default())
    });

    bench("dswp_full_transform_mcf", || {
        let mut p = w.program.clone();
        dswp_loop(&mut p, main, w.header, &profile, &DswpOptions::default()).unwrap()
    });

    bench("find_loops_mcf", || {
        find_loops(black_box(w.program.function(main)))
    });
}

fn bench_simulator() {
    let w = mcf::build(Size::Test);
    bench("timing_sim_mcf_baseline", || {
        Machine::new(black_box(&w.program), MachineConfig::full_width())
            .run()
            .unwrap()
    });

    let profile = Interpreter::new(&w.program).run().unwrap().profile;
    let mut p = w.program.clone();
    let main = p.main();
    dswp_loop(&mut p, main, w.header, &profile, &DswpOptions::default()).unwrap();
    bench("timing_sim_mcf_dswp", || {
        Machine::new(black_box(&p), MachineConfig::full_width())
            .run()
            .unwrap()
    });

    bench("functional_exec_mcf_dswp", || {
        dswp_sim::Executor::new(black_box(&p)).run().unwrap()
    });

    bench("interpreter_mcf_baseline", || {
        Interpreter::new(black_box(&w.program)).run().unwrap()
    });
}

/// Per-kernel text, analysis and compile cost of every `jobs` kernel:
/// `parse_program` of the kernel's text and `to_text` of its program (the
/// two ends of a `jobs` request and of `dswpc --emit`), the register
/// dataflow and the PDG of the normalized candidate loop, a whole
/// `analyze_loop` (clone, normalize, PDG, SCCs) and a whole `dswp_loop`
/// (which declines `gzip`, a single SCC, after analyzing it).
fn bench_kernels() {
    const SAMPLES: usize = 201;
    let mut kernels = paper_suite(Size::Test);
    kernels.push(gzip::build(Size::Test));
    let opts = DswpOptions::default();
    println!(
        "\nper-kernel compile path, Size::Test, median of {SAMPLES} calls (µs)\n\
         {:<12} {:>6} {:>6} {:>13} {:>8} {:>13} {:>10} {:>13} {:>10}",
        "kernel",
        "instrs",
        "arcs",
        "parse_program",
        "to_text",
        "loop_dataflow",
        "build_pdg",
        "analyze_loop",
        "dswp_loop"
    );
    let mut totals = [0.0f64; 6];
    for w in &kernels {
        let main = w.program.main();
        let a = analyze_loop(&w.program, main, w.header, opts.alias).unwrap();
        let f = a.normalized.function(main);
        let liveness = Liveness::compute(f);
        let profile = Interpreter::new(&w.program).run().unwrap().profile;
        let pdg_opts = PdgOptions { alias: opts.alias };
        let text = to_text(&w.program);
        let row = [
            median_us(SAMPLES, || parse_program(black_box(&text))),
            median_us(SAMPLES, || to_text(black_box(&w.program))),
            median_us(SAMPLES, || loop_dataflow(black_box(f), &a.loop_, &liveness)),
            median_us(SAMPLES, || {
                build_pdg(black_box(f), &a.loop_, &liveness, &pdg_opts)
            }),
            median_us(SAMPLES, || {
                analyze_loop(black_box(&w.program), main, w.header, opts.alias)
            }),
            median_us(SAMPLES, || {
                let mut p = w.program.clone();
                dswp_loop(&mut p, main, w.header, &profile, &opts).is_ok()
            }),
        ];
        for (t, v) in totals.iter_mut().zip(row) {
            *t += v;
        }
        print_row(
            w.name,
            &a.pdg.num_instr_nodes().to_string(),
            &a.pdg.arcs().len().to_string(),
            &row,
        );
    }
    let n = kernels.len() as f64;
    print_row("mean", "", "", &totals.map(|t| t / n));
}

fn print_row(kernel: &str, instrs: &str, arcs: &str, us: &[f64; 6]) {
    println!(
        "{kernel:<12} {instrs:>6} {arcs:>6} {:>13.1} {:>8.1} {:>13.1} {:>10.1} {:>13.1} {:>10.1}",
        us[0], us[1], us[2], us[3], us[4], us[5]
    );
}

fn main() {
    println!("pass_costs micro-benchmarks (manual harness)\n");
    bench_passes();
    bench_simulator();
    bench_kernels();
}
