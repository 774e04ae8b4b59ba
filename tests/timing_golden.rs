//! Golden timing-model figures: the exact simulated cycle count and the
//! per-core retired-instruction counts of every paper kernel at
//! `Size::Test` under `MachineConfig::full_width()`, for the untransformed
//! program and for its default DSWP split.
//!
//! The benchmark's `sim_speedup` is a geomean over these kernels, and a
//! geomean can hide per-kernel errors that cancel out; this table cannot.
//! Any change to the timing model, the executor or the DSWP transformation
//! that moves a single cycle on a single kernel fails here. If such a
//! change is intended, re-derive the table and say why in the change log.

use dswp_repro::dswp::{dswp_loop, DswpOptions};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::sim::{Machine, MachineConfig};
use dswp_repro::workloads::{paper_suite, Size};

/// `(kernel, base cycles, base retired per core, DSWP cycles, DSWP retired
/// per core)`.
type Golden = (&'static str, u64, &'static [u64], u64, &'static [u64]);

const GOLDEN: &[Golden] = &[
    ("29.compress", 2036, &[1032], 1623, &[720, 972]),
    ("179.art", 1912, &[782], 1786, &[727, 589]),
    ("181.mcf", 9900, &[1292], 8668, &[1109, 785]),
    ("183.equake", 5441, &[782], 5259, &[728, 590]),
    ("188.ammp", 11014, &[1295], 9073, &[1178, 783]),
    ("256.bzip2", 1985, &[1071], 1780, &[860, 1041]),
    ("adpcmdec", 4459, &[2209], 3719, &[1364, 1567]),
    ("epicdec", 3007, &[914], 2825, &[589, 789]),
    ("jpegenc", 1888, &[1354], 1739, &[1169, 1099]),
    ("wc", 1653, &[1167], 1422, &[730, 975]),
];

#[test]
fn timing_model_cycles_match_golden_table() {
    let mut seen = Vec::new();
    for w in paper_suite(Size::Test) {
        let baseline = Interpreter::new(&w.program)
            .run()
            .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
        let mut dswp = w.program.clone();
        let main = dswp.main();
        dswp_loop(
            &mut dswp,
            main,
            w.header,
            &baseline.profile,
            &DswpOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: DSWP failed: {e}", w.name));

        let sim = |p| {
            let r = Machine::new(p, MachineConfig::full_width())
                .run()
                .unwrap_or_else(|e| panic!("{}: timing model failed: {e}", w.name));
            let retired: Vec<u64> = r.cores.iter().map(|c| c.retired).collect();
            (r.cycles, retired)
        };
        let (base_cycles, base_retired) = sim(&w.program);
        let (dswp_cycles, dswp_retired) = sim(&dswp);
        seen.push((w.name, base_cycles, base_retired, dswp_cycles, dswp_retired));
    }
    let golden: Vec<_> = GOLDEN
        .iter()
        .map(|&(n, bc, br, dc, dr)| (n, bc, br.to_vec(), dc, dr.to_vec()))
        .collect();
    assert_eq!(seen, golden);
}
