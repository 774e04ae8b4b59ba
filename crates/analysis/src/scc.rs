//! Strongly connected components and the `DAG_SCC`.
//!
//! Step 2 of the DSWP algorithm (Figure 3, lines 2–4): the SCCs of the
//! dependence graph are the loop recurrences; coalescing each SCC to one
//! node yields the acyclic `DAG_SCC` that the thread-partitioning heuristic
//! operates on.

use crate::graph::Graph;

/// Computes the strongly connected components of `g` (Tarjan, iterative).
///
/// Components are returned in **topological order** (sources first), each as
/// a sorted list of node ids. Every node appears in exactly one component.
pub fn strongly_connected_components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan: frames of (node, next-successor-position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call_stack.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            if *pos < g.succs(v).len() {
                let w = g.succs(v)[*pos];
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order.
    components.reverse();
    components
}

/// The coalesced `DAG_SCC` of a dependence graph (Figure 2(c) of the paper).
#[derive(Clone, Debug)]
pub struct DagScc {
    /// Components in topological order; each is a sorted list of original
    /// node ids.
    pub sccs: Vec<Vec<usize>>,
    /// `node_scc[v]` is the index (into [`sccs`](Self::sccs)) of `v`'s
    /// component.
    pub node_scc: Vec<usize>,
    /// Deduplicated inter-component arcs; every arc goes forward in
    /// topological order.
    pub arcs: Vec<(usize, usize)>,
}

impl DagScc {
    /// Builds the `DAG_SCC` of `g`.
    pub fn compute(g: &Graph) -> Self {
        let sccs = strongly_connected_components(g);
        let mut node_scc = vec![0usize; g.len()];
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                node_scc[v] = ci;
            }
        }
        let mut arcs = Vec::new();
        for v in 0..g.len() {
            for &w in g.succs(v) {
                let (a, b) = (node_scc[v], node_scc[w]);
                if a != b {
                    arcs.push((a, b));
                }
            }
        }
        arcs.sort_unstable();
        arcs.dedup();
        DagScc {
            sccs,
            node_scc,
            arcs,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.sccs.len()
    }

    /// Whether the graph was empty.
    pub fn is_empty(&self) -> bool {
        self.sccs.is_empty()
    }

    /// Successor components of component `c`.
    pub fn succs(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.arcs
            .iter()
            .filter(move |&&(a, _)| a == c)
            .map(|&(_, b)| b)
    }

    /// Predecessor components of component `c`.
    pub fn preds(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.arcs
            .iter()
            .filter(move |&&(_, b)| b == c)
            .map(|&(a, _)| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cycle_is_one_component() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn dag_yields_singletons_in_topo_order() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        let pos = |v: usize| sccs.iter().position(|c| c.contains(&v)).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn mixed_components_and_dag_arcs() {
        // {0,1} cycle -> 2 -> {3,4} cycle
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(3, 4);
        g.add_edge(4, 3);
        let dag = DagScc::compute(&g);
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.sccs[0], vec![0, 1]);
        assert_eq!(dag.sccs[1], vec![2]);
        assert_eq!(dag.sccs[2], vec![3, 4]);
        assert_eq!(dag.arcs, vec![(0, 1), (1, 2)]);
        assert_eq!(dag.succs(0).collect::<Vec<_>>(), vec![1]);
        assert_eq!(dag.preds(2).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn matches_brute_force_mutual_reachability() {
        // Deterministic pseudo-random graph, checked against the definition
        // that u,v share a component iff u reaches v and v reaches u.
        let n = 12;
        let mut g = Graph::new(n);
        let mut seed = 0x12345678u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..24 {
            let a = rnd() % n;
            let b = rnd() % n;
            if a != b {
                g.add_edge(a, b);
            }
        }
        let sccs = strongly_connected_components(&g);
        // All nodes covered exactly once.
        let mut count = vec![0; n];
        for c in &sccs {
            for &v in c {
                count[v] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));

        let reach: Vec<Vec<bool>> = (0..n).map(|v| g.reachable(v)).collect();
        let comp_of = |v: usize| sccs.iter().position(|c| c.contains(&v)).unwrap();
        for (u, ru) in reach.iter().enumerate() {
            for (v, rv) in reach.iter().enumerate() {
                let same = ru[v] && rv[u];
                assert_eq!(comp_of(u) == comp_of(v), same, "u={u} v={v}");
            }
        }
        // Topological order: every cross-component edge goes forward.
        for u in 0..n {
            for &v in g.succs(u) {
                if comp_of(u) != comp_of(v) {
                    assert!(comp_of(u) < comp_of(v));
                }
            }
        }
    }
}
