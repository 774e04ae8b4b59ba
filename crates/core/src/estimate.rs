//! Cost estimation for thread partitioning.
//!
//! The TPP heuristic (Section 2.2.2 of the paper) weighs each SCC by "the
//! instruction latency and its execution profile weight"; the profitability
//! gate additionally prices the `produce`/`consume` instructions a
//! partitioning would insert. This module computes those estimates from the
//! interpreter-collected [`Profile`].

use std::collections::BTreeSet;

use dswp_ir::interp::Profile;
use dswp_ir::{FuncId, Function, LatencyTable};

use dswp_analysis::{DagScc, Pdg};

use crate::partition::Partitioning;

/// Per-SCC and total estimated cycles of a loop's `DAG_SCC`.
#[derive(Clone, Debug)]
pub struct SccCosts {
    /// Estimated cycles per SCC (indexed like `DagScc::sccs`).
    pub cycles: Vec<f64>,
    /// Sum of all SCC cycles (the single-thread estimate).
    pub total: f64,
}

/// Computes SCC costs: `Σ latency(op) × profile_weight(block(op))` per SCC.
pub fn scc_costs(
    f: &Function,
    fid: FuncId,
    pdg: &Pdg,
    dag: &DagScc,
    profile: &Profile,
    latency: &LatencyTable,
) -> SccCosts {
    let block_of = f.instr_blocks();
    let mut cycles = vec![0.0; dag.len()];
    for (ci, comp) in dag.sccs.iter().enumerate() {
        for &node in comp {
            let instr = pdg.instr_of(node).expect("scc node is an instruction");
            let block = block_of[instr.index()].expect("loop instruction has a block");
            let w = profile.weight(fid, block) as f64;
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
#[allow(clippy::too_many_arguments)] // mirrors the analysis products a caller already holds
pub fn stage_times(
    f: &Function,
    fid: FuncId,
    pdg: &Pdg,
    dag: &DagScc,
    partitioning: &Partitioning,
    costs: &SccCosts,
    profile: &Profile,
    queue_cost: u64,
) -> Vec<f64> {
    let n = partitioning.num_threads;
    let mut times = vec![0.0; n];
    for (ci, &c) in costs.cycles.iter().enumerate() {
        times[partitioning.assignment[ci]] += c;
    }

    let block_of = f.instr_blocks();
    let mut flows: BTreeSet<(usize, usize)> = BTreeSet::new();
    for a in pdg.arcs() {
        if a.src >= pdg.num_instr_nodes() || a.dst >= pdg.num_instr_nodes() {
            continue; // initial/final flows execute once per invocation
        }
        let ts = partitioning.assignment[dag.node_scc[a.src]];
        let td = partitioning.assignment[dag.node_scc[a.dst]];
        if ts != td {
            flows.insert((a.src, td));
        }
    }
    for &(src, td) in &flows {
        let instr = pdg.instr_of(src).expect("flow source is an instruction");
        let block = block_of[instr.index()].expect("loop instruction has a block");
        let w = profile.weight(fid, block) as f64 * queue_cost as f64;
        let ts = partitioning.assignment[dag.node_scc[src]];
        times[ts] += w; // produce
        times[td] += w; // consume
    }
    times
}

/// Estimated speedup of `partitioning` over single-threaded execution
/// (`total / max stage time`).
#[allow(clippy::too_many_arguments)] // same signature as `stage_times`
pub fn estimated_speedup(
    f: &Function,
    fid: FuncId,
    pdg: &Pdg,
    dag: &DagScc,
    partitioning: &Partitioning,
    costs: &SccCosts,
    profile: &Profile,
    queue_cost: u64,
) -> f64 {
    let times = stage_times(f, fid, pdg, dag, partitioning, costs, profile, queue_cost);
    let bottleneck = times.iter().copied().fold(0.0f64, f64::max);
    if bottleneck <= 0.0 {
        return 1.0;
    }
    costs.total / bottleneck
}

/// Predicted pipeline bottleneck (slowest effective stage time) after
/// applying a replication `plan` of `(stage, replicas)` pairs: a stage
/// granted `k` replicas contributes `times[stage] / k`, everything else
/// contributes its raw time. This is the quantity the `--replicate auto`
/// water-filling (`replica_plans` in [`crate::replicate`]) minimizes.
pub fn replicated_bottleneck(stage_times: &[f64], plan: &[(usize, usize)]) -> f64 {
    stage_times
        .iter()
        .enumerate()
        .map(|(t, &time)| {
            let k = plan
                .iter()
                .find(|&&(s, _)| s == t)
                .map(|&(_, k)| k.max(1))
                .unwrap_or(1);
            time / k as f64
        })
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end through the partitioner tests in
    // `crate::partition` and the pipeline tests; unit-level checks here
    // cover the flow-counting rule.
    use super::*;
    use dswp_analysis::{build_pdg, find_loops, DagScc, Liveness, PdgOptions};
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
        let p = pb.finish(main, 1);
        let run = Interpreter::new(&p).run().unwrap();

        let func = p.function(main);
        let liveness = Liveness::compute(func);
        let l = &find_loops(func)[0];
        let pdg = build_pdg(func, l, &liveness, &PdgOptions::default());
        let dag = DagScc::compute(&pdg.instr_graph());
        let lat = LatencyTable::default();
        let costs = scc_costs(func, main, &pdg, &dag, &run.profile, &lat);
        assert_eq!(costs.cycles.len(), dag.len());
        assert!(costs.total > 0.0);
        // The mul alone contributes 3 * 10 = 30 cycles; the total must
        // exceed that.
        assert!(costs.total >= 30.0, "{}", costs.total);
    }
}
