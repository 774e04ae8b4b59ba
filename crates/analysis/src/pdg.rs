//! The loop Program Dependence Graph (PDG) — step 1 of the DSWP algorithm
//! (Figure 3, line 1 of the paper).
//!
//! The graph contains one node per loop instruction plus pseudo-nodes for
//! loop live-in and live-out registers (the "special nodes ... in the top
//! (bottom) of the graph" of Section 2.2.1). Arcs cover
//!
//! * register **flow** dependences (output/anti dependences are dropped —
//!   threads get private register frames),
//! * **control** dependences, including the loop-iteration extension of
//!   Section 2.3.1 (computed on a conceptually peeled CFG),
//! * **conditional control** dependences (Section 2.3.2, Figure 5(a)): when
//!   the source of a dependence is control dependent on a branch the sink is
//!   not, the sink also depends on that branch so the *condition* of the
//!   dependence can be communicated,
//! * **memory** dependences from the configured [`AliasMode`], with calls as
//!   barriers (the memory/synchronization category of Section 2.2.4),
//! * **output** coupling among multiple loop definitions of the same
//!   live-out register (Figure 5(b)), forcing them into one SCC.
//!
//! Each arc carries a `carried` flag distinguishing intra-iteration from
//! loop-carried dependences (Figure 2(b)'s solid vs dashed arcs). The flag
//! is advisory for control arcs (see [`crate::cdg`]); the DSWP
//! transformation treats both identically.
//!
//! Construction is dense: nodes are numbered block by block in loop order,
//! node maps are `Vec`s indexed by instruction, arcs are collected and then
//! sorted and deduplicated once, and the conditional-control closure is a
//! semi-naive fixpoint over bit matrices (see `cond_control_closure`).

use dswp_ir::{Function, InstrId, Reg};

use crate::alias::{alias_query, AliasMode, AliasResult};
use crate::bits::{self, BitMatrix};
use crate::cdg::loop_control_deps;
use crate::dataflow::{loop_dataflow, Liveness, LoopDataFlow};
use crate::graph::Graph;
use crate::loops::NaturalLoop;

/// A PDG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PdgNode {
    /// A loop instruction.
    Instr(InstrId),
    /// The value of a register entering the loop (initial-flow source).
    LiveIn(Reg),
    /// The value of a register leaving the loop (final-flow sink).
    LiveOut(Reg),
}

/// The kind of a PDG arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// Register flow dependence carrying `Reg`.
    Data(Reg),
    /// Control dependence (source is a branch instruction).
    Control,
    /// Conditional-control dependence added by the Figure 5(a) rule.
    CondControl,
    /// Memory or call-ordering dependence (token flow).
    Memory,
    /// Output-dependence coupling among live-out definitions (Figure 5(b)).
    Output,
}

/// A PDG arc `src → dst` (`src` must execute before / produces for `dst`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PdgArc {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Dependence kind.
    pub kind: DepKind,
    /// Whether the dependence crosses the loop back edge.
    pub carried: bool,
}

/// Options controlling PDG construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct PdgOptions {
    /// Memory-analysis precision.
    pub alias: AliasMode,
}

/// Marks an instruction outside the loop in [`Pdg`]'s node map.
const NO_NODE: u32 = u32::MAX;

/// The loop program dependence graph.
#[derive(Clone, Debug)]
pub struct Pdg {
    nodes: Vec<PdgNode>,
    arcs: Vec<PdgArc>,
    num_instr_nodes: usize,
    /// Node of each instruction, indexed by `InstrId` (`NO_NODE` for
    /// instructions outside the loop).
    instr_index: Vec<u32>,
    /// The register dataflow facts the graph was built from (needed again
    /// by flow insertion).
    pub dataflow: LoopDataFlow,
}

impl Pdg {
    /// All nodes; instruction nodes come first (`0..num_instr_nodes`).
    pub fn nodes(&self) -> &[PdgNode] {
        &self.nodes
    }

    /// All arcs.
    pub fn arcs(&self) -> &[PdgArc] {
        &self.arcs
    }

    /// Number of instruction nodes (they occupy indices
    /// `0..num_instr_nodes`).
    pub fn num_instr_nodes(&self) -> usize {
        self.num_instr_nodes
    }

    /// The node index of a loop instruction.
    pub fn node_of(&self, instr: InstrId) -> Option<usize> {
        match self.instr_index.get(instr.index()) {
            Some(&n) if n != NO_NODE => Some(n as usize),
            _ => None,
        }
    }

    /// The instruction of a node, if it is an instruction node.
    pub fn instr_of(&self, node: usize) -> Option<InstrId> {
        match self.nodes[node] {
            PdgNode::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// The subgraph induced by instruction nodes, for SCC computation
    /// (pseudo live-in/live-out nodes never join a recurrence).
    pub fn instr_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_instr_nodes);
        for a in &self.arcs {
            if a.src < self.num_instr_nodes && a.dst < self.num_instr_nodes && a.src != a.dst {
                g.add_edge(a.src, a.dst);
            }
        }
        g
    }

    /// Iterates over arcs whose source is `node`.
    pub fn arcs_from(&self, node: usize) -> impl Iterator<Item = &PdgArc> + '_ {
        self.arcs.iter().filter(move |a| a.src == node)
    }

    /// Iterates over arcs whose destination is `node`.
    pub fn arcs_to(&self, node: usize) -> impl Iterator<Item = &PdgArc> + '_ {
        self.arcs.iter().filter(move |a| a.dst == node)
    }
}

/// A loop instruction that takes part in memory ordering.
struct MemAccess<'f> {
    node: usize,
    op: &'f dswp_ir::Op,
    /// Loop-local block index and position in the block.
    at: (usize, usize),
}

/// Builds the PDG of loop `l` in function `f`.
pub fn build_pdg(f: &Function, l: &NaturalLoop, liveness: &Liveness, opts: &PdgOptions) -> Pdg {
    let df = loop_dataflow(f, l, liveness);

    // ---- nodes: loop instructions block by block, then live-ins, then
    // live-outs (each in register order) ----
    let mut nodes = Vec::new();
    let mut instr_index = vec![NO_NODE; f.num_instr_slots()];
    let mut accesses = Vec::new();
    for (k, &b) in l.blocks.iter().enumerate() {
        for (pos, &i) in f.block(b).instrs().iter().enumerate() {
            let op = f.op(i);
            if op.is_mem_read() || op.is_mem_write() || op.is_barrier() {
                accesses.push(MemAccess {
                    node: nodes.len(),
                    op,
                    at: (k, pos),
                });
            }
            instr_index[i.index()] = nodes.len() as u32;
            nodes.push(PdgNode::Instr(i));
        }
    }
    let num_instr_nodes = nodes.len();
    let node = |i: InstrId| instr_index[i.index()] as usize;
    let live_ins: Vec<Reg> = df.live_ins.iter().copied().collect();
    let live_outs: Vec<Reg> = df.live_outs.iter().copied().collect();
    let live_in_node = |r: Reg| num_instr_nodes + live_ins.binary_search(&r).expect("live-in");
    let live_out_node =
        |r: Reg| num_instr_nodes + live_ins.len() + live_outs.binary_search(&r).expect("live-out");
    nodes.extend(live_ins.iter().map(|&r| PdgNode::LiveIn(r)));
    nodes.extend(live_outs.iter().map(|&r| PdgNode::LiveOut(r)));

    // Arcs are collected with repeats, then sorted and deduplicated once.
    let mut arcs: Vec<PdgArc> = Vec::new();
    let arc = |src, dst, kind, carried| PdgArc {
        src,
        dst,
        kind,
        carried,
    };

    // ---- register flow dependences ----
    for d in &df.reg_deps {
        arcs.push(arc(
            node(d.def),
            node(d.use_),
            DepKind::Data(d.reg),
            d.carried,
        ));
    }
    for &(r, u) in &df.live_in_uses {
        arcs.push(arc(live_in_node(r), node(u), DepKind::Data(r), false));
    }
    for &(r, d) in &df.live_out_defs {
        arcs.push(arc(node(d), live_out_node(r), DepKind::Data(r), false));
    }

    // ---- control dependences (standard + loop-iteration) ----
    for dep in &loop_control_deps(f, l) {
        let branch = *f
            .block(dep.branch_block)
            .instrs()
            .last()
            .expect("branch block has terminator");
        for &i in f.block(dep.dependent).instrs() {
            arcs.push(arc(node(branch), node(i), DepKind::Control, dep.carried));
        }
    }

    // ---- memory / call-ordering dependences ----
    let order = IntraOrder::new(f, l);
    for (xi, x) in accesses.iter().enumerate() {
        for y in &accesses[xi + 1..] {
            let both_reads = x.op.is_mem_read() && y.op.is_mem_read();
            let barrier = x.op.is_barrier() || y.op.is_barrier();
            if both_reads && !barrier {
                continue;
            }
            let result = if barrier {
                AliasResult::ALL
            } else {
                alias_query(&mem_info(x.op), &mem_info(y.op), opts.alias)
            };
            let (nx, ny) = (x.node, y.node);
            if result.intra {
                // Same-iteration collision: the arc follows intra-iteration
                // program order. Instructions on mutually exclusive paths
                // never co-execute within one iteration, so an unordered
                // pair generates no intra arc (cross-iteration collisions
                // are covered by the carried flags below).
                match order.compare(x.at, y.at) {
                    Some(std::cmp::Ordering::Less) => arcs.push(mem_arc(nx, ny, false)),
                    Some(std::cmp::Ordering::Greater) => arcs.push(mem_arc(ny, nx, false)),
                    _ => {}
                }
            }
            if result.carried_forward {
                arcs.push(mem_arc(nx, ny, true));
            }
            if result.carried_backward {
                arcs.push(mem_arc(ny, nx, true));
            }
        }
    }

    // ---- output coupling of multiple live-out definitions (Fig. 5b) ----
    // `live_out_defs` is sorted, so each register's definitions are
    // adjacent and in instruction order.
    for defs in df.live_out_defs.chunk_by(|a, b| a.0 == b.0) {
        if defs.len() >= 2 {
            for (w, &(_, d)) in defs.iter().enumerate() {
                let next = defs[(w + 1) % defs.len()].1;
                arcs.push(arc(node(d), node(next), DepKind::Output, false));
            }
        }
    }

    arcs.sort_unstable();
    arcs.dedup();
    let cond = cond_control_closure(&arcs, num_instr_nodes);
    // Two sorted runs: the stable sort merges them in one pass.
    arcs.extend(cond);
    arcs.sort();
    Pdg {
        nodes,
        arcs,
        num_instr_nodes,
        instr_index,
        dataflow: df,
    }
}

/// The conditional control dependences of Figure 5(a), to a fixpoint.
///
/// For every inter-instruction dependence d → u: u inherits d's
/// controlling branches it does not already depend on, so the *condition*
/// of the dependence can be communicated to u's thread. The rule is
/// iterated to a fixpoint because a communicated branch flag is itself a
/// dependence whose own condition must be communicated: without the
/// closure, the code generator's transitive branch-duplication needs could
/// require a flow that Definition 1 never validated (a potential backward,
/// pipeline-breaking queue).
///
/// `arcs` must be deduplicated; the new arcs come back sorted. The
/// fixpoint is round-synchronous: every round reads the control sources as
/// they stood at its start, and its new arcs join the graph (as
/// propagating arcs and as control sources of their sinks) only when it
/// ends. It is also semi-naive: a round looks only at the arcs added in the
/// previous round, and at the arcs leaving the nodes that gained a control
/// source then. Every other (arc, source) pair was already examined, and
/// its verdict cannot change — a sink's sources only grow — so the result
/// equals that of re-scanning every arc every round, carried flags
/// included.
fn cond_control_closure(arcs: &[PdgArc], n: usize) -> Vec<PdgArc> {
    // Bit matrices over the instruction nodes, with one plane per carried
    // flag: `src` row d holds the branches b with a control or conditional
    // arc b → d, and `out` row s the sinks of propagating arcs from s.
    let matrix = || BitMatrix::new(2, n);
    let (mut src, mut out) = (matrix(), matrix());
    for a in arcs.iter().filter(|a| a.src < n && a.dst < n) {
        let c = a.carried as usize;
        match a.kind {
            DepKind::Output => continue,
            DepKind::Control => src.insert(c, a.dst, a.src),
            DepKind::Data(_) | DepKind::Memory | DepKind::CondControl => {}
        }
        out.insert(c, a.src, a.dst);
    }

    // What the last round changed: the arcs it added, and the nodes that
    // gained control sources with those sources (`gained`, rows `gainers`).
    // Round 0 treats every arc as old and every source as gained.
    let mut fresh: Vec<PdgArc> = Vec::new();
    let mut gainers: Vec<usize> = (0..n).collect();
    let mut gained = src.clone();
    let mut next = matrix();
    let mut cond = Vec::new();
    loop {
        let mut touched = Vec::new();
        for a in &fresh {
            let sources = (src.row(0, a.src), src.row(1, a.src));
            let arc = (a.src, a.dst, a.carried);
            propagate(&mut next, &mut touched, &src, arc, sources);
        }
        for &s in &gainers {
            let sources = (gained.row(0, s), gained.row(1, s));
            for c in 0..2 {
                for d in bits::iter(out.row(c, s)) {
                    propagate(&mut next, &mut touched, &src, (s, d, c == 1), sources);
                }
            }
        }
        if touched.is_empty() {
            break;
        }
        // End of round: the new arcs become control sources of their sinks
        // and propagating arcs of their branches.
        for &s in &gainers {
            gained.row_mut(0, s).fill(0);
            gained.row_mut(1, s).fill(0);
        }
        fresh.clear();
        for &d in &touched {
            for c in 0..2 {
                for b in bits::iter(next.row(c, d)) {
                    out.insert(c, b, d);
                    fresh.push(PdgArc {
                        src: b,
                        dst: d,
                        kind: DepKind::CondControl,
                        carried: c == 1,
                    });
                }
                bits::union_into(src.row_mut(c, d), next.row(c, d));
            }
        }
        std::mem::swap(&mut gained, &mut next);
        gainers = touched;
        cond.extend_from_slice(&fresh);
    }
    cond.sort_unstable();
    cond
}

/// One step of [`cond_control_closure`]: the arc `s → d` (carried `c`)
/// meets `sources` (uncarried, carried) of `s`. Sink `d` gains, in `next`,
/// each of those branches it does not depend on in `src` — other than `s`
/// and `d` themselves — carried if the source or the arc is. A sink that
/// gains its first source of the round joins `touched`.
fn propagate(
    next: &mut BitMatrix,
    touched: &mut Vec<usize>,
    src: &BitMatrix,
    (s, d, c): (usize, usize, bool),
    (su, sc): (&[u64], &[u64]),
) {
    let mut was_empty = true;
    let mut grew = false;
    for x in 0..su.len() {
        let mut mask = !(src.row(0, d)[x] | src.row(1, d)[x]);
        for v in [s, d] {
            if v / 64 == x {
                mask &= !(1 << (v % 64));
            }
        }
        let (u, k) = if c {
            (0, su[x] | sc[x])
        } else {
            (su[x], sc[x])
        };
        for (plane, gain) in [(0, u & mask), (1, k & mask)] {
            let word = &mut next.row_mut(plane, d)[x];
            was_empty &= *word == 0;
            grew |= gain != 0;
            *word |= gain;
        }
    }
    if was_empty && grew {
        touched.push(d);
    }
}

fn mem_arc(src: usize, dst: usize, carried: bool) -> PdgArc {
    PdgArc {
        src,
        dst,
        kind: DepKind::Memory,
        carried,
    }
}

fn mem_info(op: &dswp_ir::Op) -> dswp_ir::op::MemInfo {
    match op {
        dswp_ir::Op::Load { mem, .. } | dswp_ir::Op::Store { mem, .. } => *mem,
        _ => dswp_ir::op::MemInfo::UNKNOWN,
    }
}

/// Intra-iteration execution order between loop instructions: `a < b` when
/// `a`'s block reaches `b`'s block in the loop CFG with back edges removed
/// (or `a` precedes `b` in the same block). Blocks on mutually exclusive
/// paths are unordered.
struct IntraOrder {
    /// reach[i][j]: block i (loop-local index) reaches block j without
    /// crossing a back edge.
    reach: Vec<Vec<bool>>,
}

impl IntraOrder {
    fn new(f: &Function, l: &NaturalLoop) -> Self {
        let k = l.blocks.len();
        let mut g = Graph::new(k);
        for (i, &b) in l.blocks.iter().enumerate() {
            for s in f.successors(b) {
                if s != l.header {
                    if let Ok(j) = l.blocks.binary_search(&s) {
                        g.add_edge(i, j);
                    }
                }
            }
        }
        let reach = (0..k).map(|i| g.reachable(i)).collect();
        IntraOrder { reach }
    }

    /// Orders two instructions given as (loop-local block, position).
    fn compare(&self, a: (usize, usize), b: (usize, usize)) -> Option<std::cmp::Ordering> {
        let ((ba, ia), (bb, ib)) = (a, b);
        if ba == bb {
            return Some(ia.cmp(&ib));
        }
        if self.reach[ba][bb] {
            Some(std::cmp::Ordering::Less)
        } else if self.reach[bb][ba] {
            Some(std::cmp::Ordering::Greater)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use crate::scc::DagScc;
    use dswp_ir::{BlockId, Program, ProgramBuilder, RegionId};

    /// The paper's Figure 2(a): traverse a list of lists summing elements.
    ///
    /// Memory layout of an outer node at address `p`: `[_, next, inner]`;
    /// inner node at `q`: `[next, _, _, value]` (offsets chosen to match the
    /// paper's `M[r1+1]`, `M[r1+2]`, `M[r2+3]`, `M[r2+0]`).
    pub(crate) fn figure2() -> (Program, Vec<InstrId>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let bb1 = f.entry_block();
        let bb2 = f.block("BB2");
        let bb3 = f.block("BB3");
        let bb4 = f.block("BB4");
        let bb5 = f.block("BB5");
        let bb6 = f.block("BB6");
        let bb7 = f.block("BB7");
        // r1 = outer ptr, r2 = inner ptr, r3 = value, r4 = sum,
        // p1/p2 predicates, r6 = base for final store.
        let (r1, r2, r3, r4, p1, p2, r6) = (
            f.reg(),
            f.reg(),
            f.reg(),
            f.reg(),
            f.reg(),
            f.reg(),
            f.reg(),
        );
        let mut ids = Vec::new();
        f.switch_to(bb1);
        ids.push(f.iconst(r1, 1)); // 0: head of outer list at word 1
        ids.push(f.iconst(r4, 0)); // 1: sum
        ids.push(f.jump(bb2)); // 2
        f.switch_to(bb2);
        ids.push(f.cmp_eq(p1, r1, 0)); // 3: A
        ids.push(f.br(p1, bb7, bb3)); // 4: B
        f.switch_to(bb3);
        ids.push(f.load_region(r2, r1, 2, RegionId(0))); // 5: C
        ids.push(f.jump(bb4)); // 6
        f.switch_to(bb4);
        ids.push(f.cmp_eq(p2, r2, 0)); // 7: D
        ids.push(f.br(p2, bb6, bb5)); // 8: E
        f.switch_to(bb5);
        ids.push(f.load_region(r3, r2, 3, RegionId(1))); // 9: F
        ids.push(f.add(r4, r4, r3)); // 10: G
        ids.push(f.load_region(r2, r2, 0, RegionId(1))); // 11: H
        ids.push(f.jump(bb4)); // 12: I
        f.switch_to(bb6);
        ids.push(f.load_region(r1, r1, 1, RegionId(0))); // 13: J
        ids.push(f.jump(bb2)); // 14: K
        f.switch_to(bb7);
        ids.push(f.iconst(r6, 0)); // 15
        ids.push(f.store(r4, r6, 0)); // 16
        ids.push(f.halt()); // 17
        let main = f.finish();

        // Memory: outer nodes at 1 and 4; inner lists hang off them.
        //   outer node 1: [_, next=4, inner=10]
        //   outer node 4: [_, next=0, inner=20]
        //   inner 10: [next=14, _, _, val=7]; inner 14: [next=0,_,_,val=5]
        //   inner 20: [next=0, _, _, val=11]
        let mut mem = vec![0i64; 32];
        mem[1 + 1] = 4;
        mem[1 + 2] = 10;
        mem[4 + 1] = 0;
        mem[4 + 2] = 20;
        mem[10] = 14;
        mem[10 + 3] = 7;
        mem[14] = 0;
        mem[14 + 3] = 5;
        mem[20] = 0;
        mem[20 + 3] = 11;
        (pb.finish_with_memory(main, mem), ids)
    }

    #[test]
    fn figure2_program_sums_correctly() {
        let (p, _) = figure2();
        let r = dswp_ir::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 7 + 5 + 11);
    }

    fn build_fig2_pdg() -> (Pdg, Vec<InstrId>) {
        let (p, ids) = figure2();
        let f = p.function(p.main());
        let liveness = Liveness::compute(f);
        let l = &find_loops(f)[0]; // outer loop (depth 1)
        assert_eq!(l.header, BlockId(1));
        let pdg = build_pdg(
            f,
            l,
            &liveness,
            &PdgOptions {
                alias: AliasMode::Region,
            },
        );
        (pdg, ids)
    }

    #[test]
    fn figure2_pdg_has_five_sccs() {
        let (pdg, ids) = build_fig2_pdg();
        let dag = DagScc::compute(&pdg.instr_graph());
        // The paper's Figure 2(c): five SCCs.
        // {A,B,J,K?}: K is BB6's jump — jumps have no dependences out, so
        // they are singleton or grouped; only consider the paper's labeled
        // instructions.
        let scc_of = |i: InstrId| dag.node_scc[pdg.node_of(i).unwrap()];
        let (a, b, c, d, e, ff, g, h, j) = (
            ids[3], ids[4], ids[5], ids[7], ids[8], ids[9], ids[10], ids[11], ids[13],
        );
        // {A, B, J} — the outer pointer-chasing recurrence.
        assert_eq!(scc_of(a), scc_of(b));
        assert_eq!(scc_of(a), scc_of(j));
        // {C} alone.
        assert_ne!(scc_of(c), scc_of(a));
        assert_ne!(scc_of(c), scc_of(d));
        // {D, E, H} — the inner-list recurrence.
        assert_eq!(scc_of(d), scc_of(e));
        assert_eq!(scc_of(d), scc_of(h));
        assert_ne!(scc_of(d), scc_of(a));
        // {F} feeds {G}; G is its own recurrence (sum accumulation).
        assert_ne!(scc_of(ff), scc_of(g));
        assert_ne!(scc_of(ff), scc_of(d));
        assert_ne!(scc_of(g), scc_of(a));
        // Topological order: {A,B,J} ≤ {C} ≤ {D,E,H} ≤ {F} ≤ {G}.
        assert!(scc_of(a) < scc_of(c));
        assert!(scc_of(c) < scc_of(d));
        assert!(scc_of(d) < scc_of(ff));
        assert!(scc_of(ff) < scc_of(g));
    }

    #[test]
    fn figure2_live_in_and_out_nodes() {
        let (pdg, ids) = build_fig2_pdg();
        let live_ins: Vec<Reg> = pdg
            .nodes()
            .iter()
            .filter_map(|n| match n {
                PdgNode::LiveIn(r) => Some(*r),
                _ => None,
            })
            .collect();
        let live_outs: Vec<Reg> = pdg
            .nodes()
            .iter()
            .filter_map(|n| match n {
                PdgNode::LiveOut(r) => Some(*r),
                _ => None,
            })
            .collect();
        // r1 (outer ptr) and r4 (sum) enter the loop; r4 leaves it.
        assert!(live_ins.contains(&Reg(0)), "{live_ins:?}");
        assert!(live_ins.contains(&Reg(3)), "{live_ins:?}");
        assert_eq!(live_outs, vec![Reg(3)]);
        // G defines the live-out sum.
        let g_node = pdg.node_of(ids[10]).unwrap();
        let lo_node = pdg
            .nodes()
            .iter()
            .position(|n| matches!(n, PdgNode::LiveOut(_)))
            .unwrap();
        assert!(pdg
            .arcs()
            .iter()
            .any(|a| a.src == g_node && a.dst == lo_node));
    }

    #[test]
    fn no_memory_arcs_in_figure2() {
        // The paper notes Figure 2 has no memory dependences (loads only).
        let (pdg, _) = build_fig2_pdg();
        assert!(pdg.arcs().iter().all(|a| a.kind != DepKind::Memory));
    }

    #[test]
    fn conservative_store_load_pair_forms_recurrence() {
        // for(i..n) { t = A[i]; A[i] = t + 1 } — conservative analysis ties
        // the load and store into one SCC via carried memory arcs; precise
        // affine analysis splits them apart.
        let build = |alias: AliasMode| {
            let mut pb = ProgramBuilder::new();
            let mut f = pb.function("main");
            let e = f.entry_block();
            let header = f.block("header");
            let body = f.block("body");
            let exit = f.block("exit");
            let (i, n, t, done) = (f.reg(), f.reg(), f.reg(), f.reg());
            f.switch_to(e);
            f.iconst(i, 0);
            f.iconst(n, 8);
            f.jump(header);
            f.switch_to(header);
            f.cmp_ge(done, i, n);
            f.br(done, exit, body);
            f.switch_to(body);
            let ld = f.load_mem(t, i, 0, dswp_ir::op::MemInfo::affine(RegionId(0), 0, 1, 0));
            f.add(t, t, 1);
            let st = f.store_mem(t, i, 0, dswp_ir::op::MemInfo::affine(RegionId(0), 0, 1, 0));
            f.add(i, i, 1);
            f.jump(header);
            f.switch_to(exit);
            f.halt();
            let main = f.finish();
            let p = pb.finish(main, 8);
            let func = p.function(main).clone();
            let liveness = Liveness::compute(&func);
            let l = find_loops(&func)[0].clone();
            let pdg = build_pdg(&func, &l, &liveness, &PdgOptions { alias });
            let dag = DagScc::compute(&pdg.instr_graph());
            dag.node_scc[pdg.node_of(ld).unwrap()] == dag.node_scc[pdg.node_of(st).unwrap()]
        };
        assert!(build(AliasMode::Conservative));
        assert!(build(AliasMode::Region)); // same region: still tied
        assert!(!build(AliasMode::Precise)); // affine: intra-only, split
    }
}
