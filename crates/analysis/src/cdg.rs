//! Control-dependence computation.
//!
//! Standard control dependence follows Ferrante–Ottenstein–Warren: node `q`
//! is control dependent on branch node `p` iff `p` has an outgoing edge
//! `p → s` such that `q` post-dominates `s` but `q` does not post-dominate
//! `p`.
//!
//! DSWP additionally needs **loop-iteration control dependences**
//! (Section 2.3.1, Figure 4 of the paper): a branch may determine whether
//! the *next* iteration's instructions execute even when no standard control
//! dependence exists. Following the paper, we conceptually peel the first
//! iteration of the loop, compute standard control dependence on the peeled
//! CFG, and coalesce the two copies of each block; dependences between
//! different copies become *loop-carried* control dependences.

use dswp_ir::{BlockId, Function};

use crate::dom::PostDomTree;
use crate::graph::Graph;
use crate::loops::NaturalLoop;

/// Computes standard node-level control dependences of `g`.
///
/// Returns, for each node, the sorted list of nodes it is control dependent
/// on. `extra_exits` is forwarded to the post-dominator computation.
pub fn control_deps(g: &Graph, extra_exits: &[usize]) -> Vec<Vec<usize>> {
    let pd = PostDomTree::compute(g, extra_exits);
    let mut deps = vec![Vec::new(); g.len()];
    for a in 0..g.len() {
        if g.succs(a).len() < 2 {
            continue; // only real branches generate control dependence
        }
        let ipdom_a = pd.ipdom(a);
        for &b in g.succs(a) {
            // Post-dominance (and hence control dependence) is undefined
            // for nodes that cannot reach an exit (exitless cycles); the
            // DSWP driver never transforms such regions.
            if !pd.reaches_exit(b) {
                continue;
            }
            // Walk from b up the post-dominator tree to (exclusive) ipdom(a).
            let mut runner = Some(b);
            while runner != ipdom_a {
                let Some(r) = runner else { break };
                deps[r].push(a);
                runner = pd.ipdom(r);
            }
        }
    }
    for d in &mut deps {
        d.sort_unstable();
        d.dedup();
    }
    deps
}

/// One loop-level control dependence: `dependent` is control dependent on
/// the branch terminating `branch_block`; `carried` marks a loop-iteration
/// (cross-iteration) dependence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LoopControlDep {
    /// Block whose terminator is the controlling branch.
    pub branch_block: BlockId,
    /// Block whose instructions are control dependent on the branch.
    pub dependent: BlockId,
    /// Whether the dependence crosses the loop back edge.
    pub carried: bool,
}

/// Computes the combined standard + loop-iteration control dependences of a
/// loop, restricted to blocks of the loop (Figure 4(e) of the paper).
pub fn loop_control_deps(f: &Function, l: &NaturalLoop) -> Vec<LoopControlDep> {
    let k = l.blocks.len();
    let local = |b: BlockId| l.blocks.binary_search(&b).ok();

    // Peeled graph: nodes 0..k are iteration-0 copies, k..2k iteration-1
    // copies, 2k is the shared outside/exit sink.
    let outside = 2 * k;
    let mut g = Graph::new(2 * k + 1);
    for (i, &b) in l.blocks.iter().enumerate() {
        for s in f.successors(b) {
            match local(s) {
                Some(j) if s == l.header => {
                    // Back edge: iteration 0 flows into iteration 1;
                    // iteration 1 loops on itself (steady state).
                    g.add_edge(i, k + j);
                    g.add_edge(k + i, k + j);
                }
                Some(j) => {
                    g.add_edge(i, j);
                    g.add_edge(k + i, k + j);
                }
                None => {
                    g.add_edge(i, outside);
                    g.add_edge(k + i, outside);
                }
            }
        }
    }

    let deps = control_deps(&g, &[]);
    let mut out = Vec::new();
    for (q, controllers) in deps.iter().enumerate() {
        if q == outside {
            continue;
        }
        let (q_copy, q_local) = (q / k, q % k);
        for &p in controllers {
            if p == outside {
                continue;
            }
            let (p_copy, p_local) = (p / k, p % k);
            // A branch cannot control instructions of its own block within
            // one iteration (they precede it); a same-copy self dependence
            // is an artifact of the steady-state copy's internal back edge
            // and is really loop-carried.
            let carried = p_copy != q_copy || p_local == q_local;
            out.push(LoopControlDep {
                branch_block: l.blocks[p_local],
                dependent: l.blocks[q_local],
                carried,
            });
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use dswp_ir::{Program, ProgramBuilder};

    #[test]
    fn diamond_control_deps() {
        // 0 -> {1,2}; 1 -> 3; 2 -> 3
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let deps = control_deps(&g, &[]);
        assert_eq!(deps[1], vec![0]);
        assert_eq!(deps[2], vec![0]);
        assert!(deps[3].is_empty());
        assert!(deps[0].is_empty());
    }

    #[test]
    fn control_deps_match_brute_force_on_random_shapes() {
        // Hand-rolled small graphs checked against the FOW definition.
        let mut g = Graph::new(6);
        // 0 -> 1 -> {2, 4}; 2 -> 3; 3 -> {1, 5}; 4 -> 5
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(1, 4);
        g.add_edge(2, 3);
        g.add_edge(3, 1);
        g.add_edge(3, 5);
        g.add_edge(4, 5);
        let deps = control_deps(&g, &[]);
        let pd = PostDomTree::compute(&g, &[]);
        for (q, dq) in deps.iter().enumerate().take(6) {
            for p in 0..6 {
                let expected = g.succs(p).len() >= 2
                    && g.succs(p).iter().any(|&s| pd.post_dominates(q, s))
                    && !pd.post_dominates(q, p);
                assert_eq!(dq.contains(&p), expected, "q={q} p={p}");
            }
        }
    }

    /// The paper's Figure 4 shape: pre-header -> B1; B1 -> {B2, B3};
    /// B2 -> B3(jump); B3 -> {B1, exit}.
    fn figure4() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let b1 = f.block("B1");
        let b2 = f.block("B2");
        let b3 = f.block("B3");
        let exit = f.block("exit");
        let (p1, p3) = (f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(p1, 1);
        f.iconst(p3, 1);
        f.jump(b1);
        f.switch_to(b1);
        f.br(p1, b2, b3);
        f.switch_to(b2);
        f.jump(b3);
        f.switch_to(b3);
        f.br(p3, b1, exit);
        f.switch_to(exit);
        f.halt();
        let main = f.finish();
        pb.finish(main, 0)
    }

    #[test]
    fn loop_iteration_deps_match_figure4() {
        let p = figure4();
        let f = p.function(p.main());
        let l = &find_loops(f)[0];
        let deps = loop_control_deps(f, l);
        let has = |bb: u32, dep: u32, carried: bool| {
            deps.contains(&LoopControlDep {
                branch_block: BlockId(bb),
                dependent: BlockId(dep),
                carried,
            })
        };
        // Standard: B2 is control dependent on B1 (intra-iteration).
        assert!(has(1, 2, false), "{deps:?}");
        // Loop-iteration (Figure 4e): F (the B3 branch) controls whether
        // the next iteration's B1 — and F itself — execute.
        assert!(has(3, 1, true), "{deps:?}");
        assert!(has(3, 3, true), "{deps:?}");
        // No intra-iteration dependence of B3 on itself.
        assert!(!has(3, 3, false), "{deps:?}");
        // B1's branch does not control B3 intra-iteration (B3 always runs
        // once B1 runs), matching Figure 4(b).
        assert!(!has(1, 3, false), "{deps:?}");
        // Control dependence is not transitive: B2 of the next iteration is
        // controlled by its own iteration's B1, not directly by F.
        assert!(!has(3, 2, true), "{deps:?}");
    }

    #[test]
    fn single_block_self_loop_controls_itself_carried() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let h = f.block("h");
        let x = f.block("x");
        let c = f.reg();
        f.switch_to(e);
        f.iconst(c, 0);
        f.jump(h);
        f.switch_to(h);
        f.br(c, h, x);
        f.switch_to(x);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let func = p.function(main);
        let l = &find_loops(func)[0];
        let deps = loop_control_deps(func, l);
        assert_eq!(
            deps,
            vec![LoopControlDep {
                branch_block: BlockId(1),
                dependent: BlockId(1),
                carried: true
            }]
        );
    }
}
