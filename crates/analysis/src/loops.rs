//! Natural-loop discovery.
//!
//! A back edge is a CFG edge `latch → header` where `header` dominates
//! `latch`; the natural loop of a header is the union of the header and all
//! nodes that reach a latch without passing through the header. Loops with
//! the same header are merged, as usual.

use std::collections::BTreeSet;

use dswp_ir::{BlockId, Function};

use crate::cfg::cfg_graph;
use crate::dom::DomTree;
use crate::graph::Graph;

/// A natural loop of a function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header block.
    pub header: BlockId,
    /// All blocks of the loop, including the header (sorted).
    pub blocks: Vec<BlockId>,
    /// Source blocks of back edges (`latch → header`).
    pub latches: Vec<BlockId>,
    /// Loop-exit edges `(from ∈ loop, to ∉ loop)`.
    pub exit_edges: Vec<(BlockId, BlockId)>,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
}

impl NaturalLoop {
    /// Whether `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// The distinct blocks outside the loop targeted by exit edges.
    pub fn exit_targets(&self) -> Vec<BlockId> {
        let mut t: Vec<BlockId> = self.exit_edges.iter().map(|&(_, to)| to).collect();
        t.sort();
        t.dedup();
        t
    }
}

/// Finds all natural loops of `f`, outermost first within each header, and
/// computes nesting depths.
///
/// Irreducible control flow (a cycle whose "header" does not dominate the
/// rest of the cycle) produces no loop for that cycle; the DSWP driver
/// simply never selects such regions.
pub fn find_loops(f: &Function) -> Vec<NaturalLoop> {
    let g = cfg_graph(f);
    let dom = DomTree::compute(&g, f.entry().index());

    // Collect back edges grouped by header.
    let mut headers: Vec<(usize, Vec<usize>)> = Vec::new();
    for u in 0..g.len() {
        if !dom.is_reachable(u) {
            continue;
        }
        for &v in g.succs(u) {
            if dom.dominates(v, u) {
                match headers.iter_mut().find(|(h, _)| *h == v) {
                    Some((_, latches)) => latches.push(u),
                    None => headers.push((v, vec![u])),
                }
            }
        }
    }

    let preds = g.preds();
    let mut loops: Vec<NaturalLoop> = headers
        .into_iter()
        .map(|(header, latches)| {
            let body = loop_body(&preds, header, &latches);
            let mut blocks: Vec<BlockId> = body.iter().map(|&b| BlockId::from_index(b)).collect();
            blocks.sort();
            let exit_edges = collect_exits(&g, &body);
            NaturalLoop {
                header: BlockId::from_index(header),
                blocks,
                latches: latches.into_iter().map(BlockId::from_index).collect(),
                exit_edges,
                depth: 1,
            }
        })
        .collect();

    // Nesting depth: loop A contains loop B if A's blocks ⊇ B's blocks and
    // A ≠ B. Depth = number of containing loops + 1.
    let snapshots: Vec<BTreeSet<BlockId>> = loops
        .iter()
        .map(|l| l.blocks.iter().copied().collect())
        .collect();
    for i in 0..loops.len() {
        let mut depth = 1;
        for (j, other) in snapshots.iter().enumerate() {
            if i != j && other.len() > snapshots[i].len() && snapshots[i].is_subset(other) {
                depth += 1;
            }
        }
        loops[i].depth = depth;
    }
    // Outermost (shallowest, then largest) first.
    loops.sort_by_key(|l| (l.depth, usize::MAX - l.blocks.len(), l.header));
    loops
}

fn loop_body(preds: &[Vec<usize>], header: usize, latches: &[usize]) -> BTreeSet<usize> {
    let mut body: BTreeSet<usize> = BTreeSet::new();
    body.insert(header);
    let mut stack: Vec<usize> = Vec::new();
    for &l in latches {
        if body.insert(l) {
            stack.push(l);
        }
    }
    while let Some(n) = stack.pop() {
        for &p in &preds[n] {
            if body.insert(p) {
                stack.push(p);
            }
        }
    }
    body
}

fn collect_exits(g: &Graph, body: &BTreeSet<usize>) -> Vec<(BlockId, BlockId)> {
    let mut exits = Vec::new();
    for &b in body {
        for &s in g.succs(b) {
            if !body.contains(&s) {
                exits.push((BlockId::from_index(b), BlockId::from_index(s)));
            }
        }
    }
    exits
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_ir::{Program, ProgramBuilder};

    /// entry -> h1 -> b1 -> h2 -> b2 -> h2 (inner), h2 -> l1 -> h1 (outer),
    /// h1 -> exit
    fn nested() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let h1 = f.block("h1");
        let b1 = f.block("b1");
        let h2 = f.block("h2");
        let b2 = f.block("b2");
        let l1 = f.block("l1");
        let exit = f.block("exit");
        let c = f.reg();
        f.switch_to(e);
        f.iconst(c, 1);
        f.jump(h1);
        f.switch_to(h1);
        f.br(c, b1, exit);
        f.switch_to(b1);
        f.jump(h2);
        f.switch_to(h2);
        f.br(c, b2, l1);
        f.switch_to(b2);
        f.jump(h2);
        f.switch_to(l1);
        f.jump(h1);
        f.switch_to(exit);
        f.halt();
        let main = f.finish();
        pb.finish(main, 0)
    }

    #[test]
    fn finds_nested_loops_with_depths() {
        let p = nested();
        let loops = find_loops(p.function(p.main()));
        assert_eq!(loops.len(), 2);
        let outer = &loops[0];
        let inner = &loops[1];
        assert_eq!(outer.header, BlockId(1));
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.header, BlockId(3));
        assert_eq!(inner.depth, 2);
        assert!(outer.contains(BlockId(3)));
        assert!(!inner.contains(BlockId(1)));
        assert_eq!(outer.exit_edges, vec![(BlockId(1), BlockId(6))]);
        assert_eq!(inner.exit_edges, vec![(BlockId(3), BlockId(5))]);
        assert_eq!(outer.latches, vec![BlockId(5)]);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        assert!(find_loops(p.function(main)).is_empty());
    }

    #[test]
    fn self_loop_is_detected() {
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
        let loops = find_loops(p.function(main));
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].blocks, vec![BlockId(1)]);
        assert_eq!(loops[0].latches, vec![BlockId(1)]);
        assert_eq!(loops[0].exit_targets(), vec![BlockId(2)]);
    }
}
