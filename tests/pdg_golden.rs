//! Golden dependence analysis: the register dataflow, the PDG and the
//! `DAG_SCC` of every natural loop of every benchmark kernel and every
//! verifiable `.ir` fixture, written out in full and compared line for line
//! with `tests/golden/pdg.txt`.
//!
//! Each loop is analyzed twice — on the raw function and after
//! `normalize_loop` — under all three alias modes, at both workload sizes.
//! The file pins the analysis arc for arc (kinds and carried flags
//! included), so a change that is meant to be a pure speed-up of the
//! analysis must leave it byte-identical. If the analysis is meant to
//! change, re-derive the file and say why in the change log.

use std::fmt::Write as _;

use dswp_repro::analysis::{
    build_pdg, find_loops, AliasMode, DagScc, DepKind, Liveness, LoopDataFlow, Pdg, PdgNode,
    PdgOptions,
};
use dswp_repro::dswp::normalize_loop;
use dswp_repro::ir::text::parse_program;
use dswp_repro::ir::verify::verify_program;
use dswp_repro::ir::{Function, Program};
use dswp_repro::workloads::{gzip, paper_suite, Size};

const GOLDEN: &str = include_str!("golden/pdg.txt");

const ALIAS_MODES: [AliasMode; 3] = [
    AliasMode::Conservative,
    AliasMode::Region,
    AliasMode::Precise,
];

/// The programs under test: `(label, program)`.
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

fn write_dataflow(out: &mut String, df: &LoopDataFlow) {
    out.push_str("  reg_deps:");
    for d in &df.reg_deps {
        let c = if d.carried { "'" } else { "" };
        write!(out, " {}>{}:r{}{c}", d.def.0, d.use_.0, d.reg.0).unwrap();
    }
    out.push_str("\n  live_in_uses:");
    for (r, u) in &df.live_in_uses {
        write!(out, " r{}>{}", r.0, u.0).unwrap();
    }
    out.push_str("\n  live_out_defs:");
    for (r, d) in &df.live_out_defs {
        write!(out, " {}>r{}", d.0, r.0).unwrap();
    }
    for (label, set) in [
        ("live_ins", &df.live_ins),
        ("live_outs", &df.live_outs),
        ("live_out_external", &df.live_out_external),
    ] {
        write!(out, "\n  {label}:").unwrap();
        for r in set {
            write!(out, " r{}", r.0).unwrap();
        }
    }
    out.push('\n');
}

fn write_pdg(out: &mut String, pdg: &Pdg) {
    out.push_str("  nodes:");
    for (n, node) in pdg.nodes().iter().enumerate() {
        match *node {
            PdgNode::Instr(i) => {
                assert_eq!(pdg.node_of(i), Some(n), "node_of disagrees with nodes()");
                write!(out, " i{}", i.0).unwrap();
            }
            PdgNode::LiveIn(r) => write!(out, " in:r{}", r.0).unwrap(),
            PdgNode::LiveOut(r) => write!(out, " out:r{}", r.0).unwrap(),
        }
    }
    let mut arcs = pdg.arcs().to_vec();
    arcs.sort();
    write!(out, "\n  arcs ({}):", arcs.len()).unwrap();
    for a in &arcs {
        let kind = match a.kind {
            DepKind::Data(r) => format!("r{}", r.0),
            DepKind::Control => "c".into(),
            DepKind::CondControl => "cc".into(),
            DepKind::Memory => "m".into(),
            DepKind::Output => "o".into(),
        };
        let c = if a.carried { "'" } else { "" };
        write!(out, " {}>{}:{kind}{c}", a.src, a.dst).unwrap();
    }
    out.push('\n');
    write_dataflow(out, &pdg.dataflow);
    let dag = DagScc::compute(&pdg.instr_graph());
    write!(out, "  sccs ({}):", dag.len()).unwrap();
    for c in &dag.sccs {
        let ids: Vec<String> = c.iter().map(usize::to_string).collect();
        write!(out, " [{}]", ids.join(",")).unwrap();
    }
    out.push_str("\n  dag_arcs:");
    for (a, b) in &dag.arcs {
        write!(out, " {a}>{b}").unwrap();
    }
    out.push('\n');
}

fn write_function(out: &mut String, label: &str, f: &Function) {
    for l in find_loops(f) {
        let mut normalized = f.clone();
        let norm = normalize_loop(&mut normalized, &l).map(|_| {
            find_loops(&normalized)
                .into_iter()
                .find(|n| n.header == l.header)
                .expect("normalized loop keeps its header")
        });
        for alias in ALIAS_MODES {
            let opts = PdgOptions { alias };
            writeln!(
                out,
                "{label} loop b{} depth {} raw {alias:?}",
                l.header.0, l.depth
            )
            .unwrap();
            write_pdg(out, &build_pdg(f, &l, &Liveness::compute(f), &opts));
            write!(out, "{label} loop b{} normalized {alias:?}", l.header.0).unwrap();
            match &norm {
                Ok(nl) => {
                    out.push('\n');
                    let lv = Liveness::compute(&normalized);
                    write_pdg(out, &build_pdg(&normalized, nl, &lv, &opts));
                }
                Err(e) => writeln!(out, ": {e}").unwrap(),
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, p) in programs() {
        for f in p.functions() {
            write_function(&mut out, &format!("{name} {}", f.name), f);
        }
    }
    out
}

#[test]
fn dependence_analysis_matches_golden_file() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pdg.actual.txt");
    std::fs::write(&path, &actual).expect("write actual output");
    let (line, want, got) = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(n, (w, g))| (n + 1, w, g))
        .unwrap_or((
            GOLDEN.lines().count().min(actual.lines().count()) + 1,
            "<end>",
            "<end>",
        ));
    panic!(
        "dependence analysis differs from tests/golden/pdg.txt at line {line}\n  \
         golden: {want}\n  actual: {got}\nfull output: {}",
        path.display()
    );
}
