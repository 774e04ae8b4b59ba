//! Cost estimation for thread partitioning.
//!
//! The TPP heuristic (Section 2.2.2 of the paper) weighs each SCC by "the
//! instruction latency and its execution profile weight"; the profitability
//! gate additionally prices the `produce`/`consume` instructions a
//! partitioning would insert. This module computes those estimates from the
//! interpreter-collected [`Profile`] and the loop's [`AnalyzedLoop`]: each
//! instruction node's block comes from its PDG, and the driver computes a
//! partitioning's stage times once for both the profitability gate and the
//! replication plan.

use std::collections::BTreeSet;

use dswp_ir::interp::Profile;
use dswp_ir::{LatencyTable, Program};

use crate::partition::Partitioning;
use crate::pipeline::AnalyzedLoop;

/// Per-SCC and total estimated cycles of a loop's `DAG_SCC`.
#[derive(Clone, Debug)]
pub struct SccCosts {
    /// Estimated cycles per SCC (indexed like `DagScc::sccs`).
    pub cycles: Vec<f64>,
    /// Sum of all SCC cycles (the single-thread estimate).
    pub total: f64,
}

/// Computes SCC costs: `Σ latency(op) × profile_weight(block(op))` per SCC.
/// `program` is the program `a` was analysed on.
pub fn scc_costs(
    program: &Program,
    a: &AnalyzedLoop,
    profile: &Profile,
    latency: &LatencyTable,
) -> SccCosts {
    let f = program.function(a.func);
    let mut cycles = vec![0.0; a.dag.len()];
    for (ci, comp) in a.dag.sccs.iter().enumerate() {
        for &node in comp {
            let instr = a.pdg.instr_of(node).expect("scc node is an instruction");
            let w = profile.weight(a.func, a.pdg.block_of(node)) as f64;
            cycles[ci] += latency.op(f.op(instr)) as f64 * w;
        }
    }
    let total = cycles.iter().sum();
    SccCosts { cycles, total }
}

/// Estimated execution time of each pipeline stage under `partitioning`,
/// including the queue-access cost of the flows it requires.
///
/// Flow counting mirrors redundant-flow elimination: one flow per distinct
/// `(source instruction, destination thread)` pair, priced at
/// `queue_cost × profile_weight(source block)` on both the producing and the
/// consuming stage.
pub fn stage_times(
    a: &AnalyzedLoop,
    partitioning: &Partitioning,
    costs: &SccCosts,
    profile: &Profile,
    queue_cost: u64,
) -> Vec<f64> {
    let (pdg, dag) = (&a.pdg, &a.dag);
    let n = partitioning.num_threads;
    let mut times = vec![0.0; n];
    for (ci, &c) in costs.cycles.iter().enumerate() {
        times[partitioning.assignment[ci]] += c;
    }

    let mut flows: BTreeSet<(usize, usize)> = BTreeSet::new();
    for arc in pdg.arcs() {
        if arc.src >= pdg.num_instr_nodes() || arc.dst >= pdg.num_instr_nodes() {
            continue; // initial/final flows execute once per invocation
        }
        let ts = partitioning.assignment[dag.node_scc[arc.src]];
        let td = partitioning.assignment[dag.node_scc[arc.dst]];
        if ts != td {
            flows.insert((arc.src, td));
        }
    }
    for &(src, td) in &flows {
        let w = profile.weight(a.func, pdg.block_of(src)) as f64 * queue_cost as f64;
        let ts = partitioning.assignment[dag.node_scc[src]];
        times[ts] += w; // produce
        times[td] += w; // consume
    }
    times
}

/// Estimated speedup of a partitioning with stage times `times` over
/// single-threaded execution (`total / max stage time`).
pub fn estimated_speedup(costs: &SccCosts, times: &[f64]) -> f64 {
    let bottleneck = times.iter().copied().fold(0.0f64, f64::max);
    if bottleneck <= 0.0 {
        return 1.0;
    }
    costs.total / bottleneck
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end through the partitioner tests in
    // `crate::partition` and the pipeline tests; unit-level checks here
    // cover the flow-counting rule.
    use super::*;
    use dswp_analysis::AliasMode;
    use dswp_ir::interp::Interpreter;
    use dswp_ir::ProgramBuilder;

    #[test]
    fn costs_scale_with_profile_weight_and_latency() {
        // A loop with a mul (3 cycles) in the body executed 10 times.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, n, x, done, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(n, 10);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, n);
        f.br(done, exit, body);
        f.switch_to(body);
        f.mul(x, i, 7);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(x, base, 0);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 1);
        let run = Interpreter::new(&p).run().unwrap();

        let a = AnalyzedLoop::new(&mut p, main, header, AliasMode::default()).unwrap();
        let lat = LatencyTable::default();
        let costs = scc_costs(&p, &a, &run.profile, &lat);
        assert_eq!(costs.cycles.len(), a.dag.len());
        assert!(costs.total > 0.0);
        // The mul alone contributes 3 * 10 = 30 cycles; the total must
        // exceed that.
        assert!(costs.total >= 30.0, "{}", costs.total);
    }
}
