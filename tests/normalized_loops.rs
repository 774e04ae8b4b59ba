//! `normalize_loop` returns the normalized loop instead of leaving the
//! driver to rediscover it with a second `find_loops`. For every natural
//! loop that `pdg_golden` walks — each function of the 11 kernels at both
//! workload sizes and of every verifiable `.ir` fixture — the returned loop
//! must equal the one `find_loops` finds at the same header afterwards.
//! (`crates/core/tests/random_equivalence.rs` checks the same for every
//! loop of its random generator.)

use dswp_repro::analysis::find_loops;
use dswp_repro::dswp::normalize_loop;
use dswp_repro::ir::text::parse_program;
use dswp_repro::ir::verify::verify_program;
use dswp_repro::ir::{Function, Program};
use dswp_repro::workloads::{gzip, paper_suite, Size};

/// The programs `pdg_golden` analyses: `(label, program)`.
fn programs() -> Vec<(String, Program)> {
    let mut out = Vec::new();
    for size in [Size::Test, Size::Paper] {
        let mut ws = paper_suite(size);
        ws.push(gzip::build(size));
        for w in ws {
            out.push((format!("{}@{size:?}", w.name), w.program));
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("fixture text");
        let Ok(p) = parse_program(&text) else {
            continue;
        };
        if verify_program(&p).is_err() {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, p));
    }
    out
}

/// Checks every loop of `f`; returns how many normalized.
fn check_function(label: &str, f: &Function) -> usize {
    let mut normalized_count = 0;
    for l in find_loops(f) {
        let mut normalized = f.clone();
        let Ok((norm, returned)) = normalize_loop(&mut normalized, &l) else {
            continue;
        };
        let found = find_loops(&normalized)
            .into_iter()
            .find(|n| n.header == l.header)
            .unwrap_or_else(|| panic!("{label} loop b{}: lost by normalization", l.header.0));
        assert_eq!(returned, found, "{label} loop b{}", l.header.0);
        assert_eq!(returned.exit_targets(), vec![norm.landing], "{label}");
        normalized_count += 1;
    }
    normalized_count
}

#[test]
fn normalize_loop_returns_the_loop_find_loops_rediscovers() {
    let mut checked = 0;
    for (name, p) in programs() {
        for f in p.functions() {
            checked += check_function(&format!("{name} {}", f.name), f);
        }
    }
    // Every kernel contributes at least its candidate loop at both sizes.
    assert!(checked >= 22, "only {checked} loops normalized");
}
