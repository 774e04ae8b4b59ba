//! Benchmark-local checks on small (`Size::Test`) inputs: exact outputs
//! repeat across runs and seeds, the compiler accepts and declines the
//! right kernels, and a wrong reference image is caught as a failure.

use dswp::{dswp_loop, DswpOptions};
use dswp_ir::interp::Interpreter;
use dswp_ir::parse_program;
use dswp_perfbench::{measure, run, setup, Options, Report, Workload};
use dswp_workloads::Size;

/// Exact metrics that must not depend on the run, the seed or the host.
const EXACT_E2E: [&str; 2] = ["sim_speedup", "sim_speedup_replicated"];
const EXACT_LAYER: [&str; 6] = [
    "sim.cycles_base",
    "sim.cycles_dswp",
    "sim.cycles_replicated",
    "core.loop_flows",
    "core.initial_flows",
    "core.final_flows",
];

fn small(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        paper_size: Size::Test,
        ..Options::new(workload, seed, 0.2, trace)
    }
}

fn values(r: &Report, names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|n| r.get(n).unwrap_or_else(|| panic!("{n} missing")).to_bits())
        .collect()
}

#[test]
fn exact_metrics_repeat_across_runs_and_seeds() {
    for (names, trace) in [(&EXACT_E2E[..], false), (&EXACT_LAYER[..], true)] {
        let mut seen = Vec::new();
        for seed in [1, 2] {
            for _ in 0..2 {
                let r = run(&small(Workload::Simulate, seed, trace)).expect("run");
                assert!(r.correct, "failures: {:?}", r.failures);
                seen.push(values(&r, names));
            }
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{names:?}: {seen:?}");
    }
}

#[test]
fn every_workload_reports_every_metric() {
    for w in [Workload::Jobs, Workload::Native, Workload::Simulate] {
        let r = run(&small(w, 3, false)).expect("run");
        assert!(r.correct, "{w:?}: {:?}", r.failures);
        assert_eq!(r.get("ok_rate"), Some(1.0));
        assert_eq!(r.metrics.len(), 8, "{w:?}");
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{w:?}: {:?}",
            r.metrics
        );
        let json = r.to_json();
        assert!(
            json.starts_with(r#"{"correct": true, "attempted": "#),
            "{json}"
        );
    }
}

#[test]
fn paper_kernels_accepted_and_gzip_declined() {
    let s = setup(&small(Workload::Jobs, 0, false)).expect("setup");
    assert_eq!(s.suite.paper.len(), 10);
    for k in &s.suite.paper {
        assert!(k.dswp.is_some(), "{} declined", k.name);
    }
    for k in &s.suite.jobs {
        let program = parse_program(&k.text).expect("parse");
        let profile = Interpreter::new(&program).run().expect("interpret").profile;
        let mut p = program.clone();
        let main = p.main();
        let accepted = dswp_loop(&mut p, main, k.header, &profile, &DswpOptions::default()).is_ok();
        assert_eq!(accepted, k.name != "164.gzip", "{}", k.name);
    }
    let r = run(&small(Workload::Jobs, 0, true)).expect("traced run");
    assert_eq!(r.get("core.declined"), Some(1.0));
    assert_eq!(r.get("rt.errors"), Some(0.0));
}

#[test]
fn corrupted_reference_lowers_ok_rate() {
    let opts = Options {
        seconds: 0.5,
        ..small(Workload::Jobs, 4, false)
    };
    let mut s = setup(&opts).expect("setup");
    // Every other job kernel now "expects" a wrong image.
    for k in s.suite.jobs.iter_mut().step_by(2) {
        k.expected[0] ^= 1;
    }
    let r = measure(&opts, &s);
    assert!(!r.correct);
    assert!(r.failed > 0);
    assert!(r.get("ok_rate").expect("ok_rate") < 1.0);
}

#[test]
fn a_paper_kernel_that_always_fails_is_reported_not_fatal() {
    let opts = small(Workload::Native, 6, false);
    let mut s = setup(&opts).expect("setup");
    // Every native and timing-model run of this kernel now mismatches.
    let broken = s.suite.paper[3].name;
    s.suite.paper[3].expected[0] ^= 1;
    let r = measure(&opts, &s);
    assert!(!r.correct);
    assert!(r.failed > 0);
    assert!(r.get("ok_rate").expect("ok_rate") < 1.0);
    // The other kernels still give every metric.
    for name in ["seq_ms", "pipe_ms", "sim_speedup", "sim_speedup_replicated"] {
        assert!(r.get(name).is_some_and(|v| v > 0.0), "{name} missing");
    }
    assert!(
        r.failures.iter().any(|f| f.contains(broken)),
        "{:?}",
        r.failures
    );
    assert!(r.to_json().starts_with(r#"{"correct": false, "#));
}

#[test]
fn native_runs_stay_within_the_thread_budget() {
    let r = run(&small(Workload::Native, 5, true)).expect("traced run");
    let threads = r.get("host.available_parallelism").expect("recorded");
    assert!(r.get("rt.max_stage_threads").expect("recorded") <= threads);
}
