//! End-to-end integration: apply automatic DSWP to every benchmark kernel
//! and check observational equivalence on both executors, plus the
//! case-study behaviors (gzip bail-out, epicdec alias sensitivity).

use dswp::{analyze_loop, dswp_loop, DswpError, DswpOptions};
use dswp_analysis::AliasMode;
use dswp_ir::interp::Interpreter;
use dswp_ir::text::to_text;
use dswp_ir::verify::verify_program;
use dswp_sim::{Executor, Machine, MachineConfig};
use dswp_workloads::{adpcm, epic, gzip, paper_suite, Size, Workload};

fn opts() -> DswpOptions {
    DswpOptions {
        alias: AliasMode::Region,
        ..DswpOptions::default()
    }
}

fn transform_and_check(w: &Workload, opts: &DswpOptions) -> dswp::DswpReport {
    let baseline = Interpreter::new(&w.program)
        .run()
        .unwrap_or_else(|e| panic!("{}: baseline: {e}", w.name));
    let mut p = w.program.clone();
    let main = p.main();
    let report = dswp_loop(&mut p, main, w.header, &baseline.profile, opts)
        .unwrap_or_else(|e| panic!("{}: dswp: {e}", w.name));
    verify_program(&p).unwrap_or_else(|e| panic!("{}: verify: {e}", w.name));

    let exec = Executor::new(&p)
        .run()
        .unwrap_or_else(|e| panic!("{}: functional: {e}", w.name));
    assert_eq!(
        exec.memory, baseline.memory,
        "{}: functional memory",
        w.name
    );

    let sim = Machine::new(&p, MachineConfig::full_width())
        .run()
        .unwrap_or_else(|e| panic!("{}: timing: {e}", w.name));
    assert_eq!(sim.memory, baseline.memory, "{}: timing memory", w.name);
    report
}

#[test]
fn dswp_transforms_every_paper_benchmark_correctly() {
    for w in paper_suite(Size::Test) {
        let report = transform_and_check(&w, &opts());
        assert_eq!(report.partitioning.num_threads, 2, "{}", w.name);
        assert!(report.num_sccs > 1, "{}", w.name);
    }
}

#[test]
fn gzip_case_study_is_declined() {
    let w = gzip::build(Size::Test);
    let baseline = Interpreter::new(&w.program).run().unwrap();
    let mut p = w.program.clone();
    let main = p.main();
    let err = dswp_loop(&mut p, main, w.header, &baseline.profile, &opts()).unwrap_err();
    assert!(
        matches!(err, DswpError::SingleScc | DswpError::NotProfitable),
        "gzip should be unfit for DSWP, got {err}"
    );
}

/// A declined loop stays normalized in place, exactly the program
/// `analyze_loop` analyses.
#[test]
fn a_declined_loop_is_left_normalized() {
    let w = gzip::build(Size::Test);
    let baseline = Interpreter::new(&w.program).run().unwrap();
    let mut p = w.program.clone();
    let main = p.main();
    dswp_loop(&mut p, main, w.header, &baseline.profile, &opts()).unwrap_err();
    let a = analyze_loop(&w.program, main, w.header, opts().alias).unwrap();
    assert_eq!(to_text(&p), to_text(&a.normalized));
}

#[test]
fn epicdec_alias_precision_changes_scc_structure() {
    // Section 5.1: conservative analysis merges the loads and stores of
    // result[] into one SCC; precise (affine) analysis splits them.
    let w = epic::build(Size::Test, 1);
    let conservative = dswp::loop_stats(
        &w.program,
        w.program.main(),
        w.header,
        AliasMode::Conservative,
    )
    .unwrap();
    let precise =
        dswp::loop_stats(&w.program, w.program.main(), w.header, AliasMode::Precise).unwrap();
    assert!(
        precise.sccs > conservative.sccs,
        "precise {} vs conservative {}",
        precise.sccs,
        conservative.sccs
    );
    assert!(precise.largest_scc < conservative.largest_scc);
}

#[test]
fn epicdec_transforms_correctly_at_every_precision_and_unroll() {
    for unroll in [1usize, 2, 8] {
        for alias in [
            AliasMode::Conservative,
            AliasMode::Region,
            AliasMode::Precise,
        ] {
            let w = epic::build(Size::Test, unroll);
            let baseline = Interpreter::new(&w.program).run().unwrap();
            let mut p = w.program.clone();
            let main = p.main();
            let o = DswpOptions {
                alias,
                min_speedup: 0.0,
                ..DswpOptions::default()
            };
            match dswp_loop(&mut p, main, w.header, &baseline.profile, &o) {
                Ok(_) => {
                    let exec = Executor::new(&p)
                        .run()
                        .unwrap_or_else(|e| panic!("epic unroll={unroll} alias={alias:?}: {e}"));
                    assert_eq!(
                        exec.memory, baseline.memory,
                        "epic unroll={unroll} alias={alias:?}"
                    );
                }
                Err(DswpError::SingleScc | DswpError::NotProfitable) => {
                    // Acceptable only for the conservative configurations.
                    assert_eq!(
                        alias,
                        AliasMode::Conservative,
                        "unexpected bail at {alias:?}"
                    );
                }
                Err(e) => panic!("epic unroll={unroll} alias={alias:?}: {e}"),
            }
        }
    }
}

#[test]
fn adpcm_hyperblock_variant_has_denser_recurrences() {
    // Section 5.2: the predicated build has fewer SCCs with a dominant one.
    let hb = adpcm::build(Size::Test, true);
    let cfg = adpcm::build(Size::Test, false);
    let s_hb =
        dswp::loop_stats(&hb.program, hb.program.main(), hb.header, AliasMode::Region).unwrap();
    let s_cfg = dswp::loop_stats(
        &cfg.program,
        cfg.program.main(),
        cfg.header,
        AliasMode::Region,
    )
    .unwrap();
    let frac_hb = s_hb.largest_scc as f64 / s_hb.instrs as f64;
    let frac_cfg = s_cfg.largest_scc as f64 / s_cfg.instrs as f64;
    assert!(
        frac_hb > frac_cfg,
        "hyperblock largest-SCC share {frac_hb:.2} should exceed CFG {frac_cfg:.2}"
    );
}

#[test]
fn dswp_beats_baseline_on_most_benchmarks() {
    // The Figure 6(a) shape at test scale: count wins. Absolute factors are
    // checked in the benchmark harness at Paper size.
    let mut wins = 0;
    let mut total = 0;
    for w in paper_suite(Size::Test) {
        let base = Machine::new(&w.program, MachineConfig::full_width())
            .run()
            .unwrap();
        let baseline = Interpreter::new(&w.program).run().unwrap();
        let mut p = w.program.clone();
        let main = p.main();
        if dswp_loop(&mut p, main, w.header, &baseline.profile, &opts()).is_ok() {
            let sim = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
            total += 1;
            if sim.cycles < base.cycles {
                wins += 1;
            }
        }
    }
    assert!(total >= 8, "most benchmarks should partition ({total})");
    assert!(
        wins * 2 > total,
        "DSWP should win on most benchmarks even at test size ({wins}/{total})"
    );
}
