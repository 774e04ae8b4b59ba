//! Register dataflow: whole-function liveness and loop-level reaching
//! definitions with loop-carried tagging.
//!
//! The DSWP dependence graph needs, for every register use inside the loop,
//! the set of defining instructions that may reach it, with each dependence
//! classified as *intra-iteration* or *loop-carried* (Section 2.2.1 of the
//! paper, Figure 2(b)'s solid vs dashed arcs). Definitions that reach from
//! outside the loop become *live-in* pseudo-dependences (initial flows), and
//! definitions reaching a loop exit at which the register is live become
//! *live-out* pseudo-dependences (final flows).
//!
//! Both analyses run over dense bitsets (`crate::bits`). Liveness keeps
//! one register set per block. Reaching definitions number only the
//! registers the loop reads or writes and the loop's definition sites; each
//! register owns a contiguous range of *facts* (its definition from outside
//! the loop, then its loop definition sites), and a block state holds every
//! fact twice — an uncarried half and a carried half. A definition clears
//! its register's range and sets its own site; the back edge to the header
//! moves every fact into the carried half.

use std::collections::{BTreeSet, VecDeque};

use dswp_ir::{BlockId, Function, InstrId, Reg};

use crate::bits;
use crate::loops::NaturalLoop;

/// Whole-function block-level liveness.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Words per block row of `live_in`.
    words: usize,
    /// Registers live at each block's entry, one row per block.
    live_in: Vec<u64>,
}

impl Liveness {
    /// Computes liveness for `f` by the usual backward fixpoint.
    pub fn compute(f: &Function) -> Self {
        let n = f.num_blocks();
        let w = bits::words(f.num_regs() as usize);
        // Per-block upward-exposed uses and kills.
        let mut gen = vec![0u64; n * w];
        let mut kill = vec![0u64; n * w];
        for b in f.block_ids() {
            let (g, k) = (
                &mut gen[b.index() * w..][..w],
                &mut kill[b.index() * w..][..w],
            );
            for &i in f.block(b).instrs() {
                let op = f.op(i);
                for u in op.use_regs() {
                    if !bits::test(k, u.index()) {
                        bits::insert(g, u.index());
                    }
                }
                if let Some(d) = op.def() {
                    bits::insert(k, d.index());
                }
            }
        }

        let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.successors(b)).collect();
        let preds = f.predecessors();
        let mut live_in = vec![0u64; n * w];
        let mut out = vec![0u64; w];
        let mut queued = vec![true; n];
        let mut work: VecDeque<usize> = (0..n).collect();
        while let Some(b) = work.pop_front() {
            queued[b] = false;
            out.fill(0);
            for s in &succs[b] {
                bits::union_into(&mut out, &live_in[s.index() * w..][..w]);
            }
            let (g, k) = (&gen[b * w..][..w], &kill[b * w..][..w]);
            let mut changed = false;
            for (x, v) in live_in[b * w..][..w].iter_mut().enumerate() {
                let new = g[x] | (out[x] & !k[x]);
                changed |= new != *v;
                *v = new;
            }
            if changed {
                for p in &preds[b] {
                    if !queued[p.index()] {
                        queued[p.index()] = true;
                        work.push_back(p.index());
                    }
                }
            }
        }
        Liveness { words: w, live_in }
    }

    /// Registers live at the entry of `block`.
    pub fn live_in(&self, block: BlockId) -> RegSet<'_> {
        RegSet {
            words: &self.live_in[block.index() * self.words..][..self.words],
        }
    }
}

/// A set of registers, borrowed from a [`Liveness`] row.
#[derive(Clone, Copy, Debug)]
pub struct RegSet<'a> {
    words: &'a [u64],
}

impl RegSet<'_> {
    /// Whether `r` is in the set.
    pub fn contains(&self, r: &Reg) -> bool {
        r.index() < self.words.len() * 64 && bits::test(self.words, r.index())
    }
}

/// A register flow dependence inside a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RegDep {
    /// Defining instruction.
    pub def: InstrId,
    /// Using instruction.
    pub use_: InstrId,
    /// The register carrying the value.
    pub reg: Reg,
    /// Whether the value flows around the loop back edge.
    pub carried: bool,
}

/// Register dataflow facts of one loop.
#[derive(Clone, Debug, Default)]
pub struct LoopDataFlow {
    /// def → use flow dependences among loop instructions.
    pub reg_deps: Vec<RegDep>,
    /// Uses reached by a definition from outside the loop: `(reg, use)`.
    pub live_in_uses: Vec<(Reg, InstrId)>,
    /// Definitions reaching a loop exit at which the register is live:
    /// `(reg, def)`.
    pub live_out_defs: Vec<(Reg, InstrId)>,
    /// Registers with at least one external reaching definition used in the
    /// loop (loop live-ins).
    pub live_ins: BTreeSet<Reg>,
    /// Registers defined in the loop and live at some exit (loop live-outs).
    pub live_outs: BTreeSet<Reg>,
    /// Live-out registers whose pre-loop value may also survive to the exit
    /// (conditionally (re)defined inside the loop).
    pub live_out_external: BTreeSet<Reg>,
}

/// Marks a missing dense index.
const NONE: u32 = u32::MAX;

/// One loop instruction as the reaching-definitions walk sees it.
#[derive(Clone, Copy)]
struct Step {
    instr: InstrId,
    /// Dense registers read, padded with `NONE`.
    uses: [u32; 2],
    /// Dense register written, or `NONE`.
    def: u32,
    /// The fact of this definition site (when `def` is set).
    fact: u32,
}

/// Computes [`LoopDataFlow`] for loop `l` of `f` given whole-function
/// `liveness`.
///
/// Only true (flow) dependences are produced: output- and anti-dependences
/// are ignored per Section 2.2.1 of the paper (threads get private register
/// files); the live-out coupling of Figure 5(b) is handled separately by the
/// PDG builder using [`LoopDataFlow::live_out_defs`].
pub fn loop_dataflow(f: &Function, l: &NaturalLoop, liveness: &Liveness) -> LoopDataFlow {
    // Dense numbering: each register the loop touches, in register order,
    // owns the facts `first[d]` (defined outside the loop) and
    // `first[d] + 1 .. first[d + 1]` (its loop definition sites).
    let nr = f.num_regs() as usize;
    let mut touched = vec![false; nr];
    let mut num_defs = vec![0u32; nr];
    for &b in &l.blocks {
        for &i in f.block(b).instrs() {
            let op = f.op(i);
            for u in op.use_regs() {
                touched[u.index()] = true;
            }
            if let Some(d) = op.def() {
                touched[d.index()] = true;
                num_defs[d.index()] += 1;
            }
        }
    }
    let mut dense = vec![NONE; nr];
    let mut regs = Vec::new();
    let mut first = Vec::new();
    let mut next = 0u32;
    for r in (0..nr).filter(|&r| touched[r]) {
        dense[r] = regs.len() as u32;
        regs.push(Reg::from_index(r));
        first.push(next);
        next += 1 + num_defs[r];
    }
    first.push(next);
    let facts = |d: u32| first[d as usize] as usize..first[d as usize + 1] as usize;
    let w = bits::words(next as usize);

    // The walk of every loop block, its gen/kill sets, and its successors
    // (`Some(local index)` inside the loop, `None` for an exit).
    let nb = l.blocks.len();
    let mut site = vec![InstrId(NONE); next as usize];
    let mut sites_seen = vec![0u32; regs.len()];
    let mut steps = Vec::new();
    let mut step_start = Vec::with_capacity(nb + 1);
    let mut gen = vec![0u64; nb * w];
    let mut kill = vec![0u64; nb * w];
    let mut edges: Vec<(BlockId, Option<usize>)> = Vec::new();
    let mut edge_start = Vec::with_capacity(nb + 1);
    for (k, &b) in l.blocks.iter().enumerate() {
        step_start.push(steps.len());
        let (g, kl) = (&mut gen[k * w..][..w], &mut kill[k * w..][..w]);
        for &i in f.block(b).instrs() {
            let op = f.op(i);
            let mut uses = [NONE; 2];
            for (slot, u) in uses.iter_mut().zip(op.use_regs()) {
                *slot = dense[u.index()];
            }
            let (def, fact) = match op.def() {
                Some(r) => {
                    let d = dense[r.index()];
                    sites_seen[d as usize] += 1;
                    let fact = first[d as usize] + sites_seen[d as usize];
                    site[fact as usize] = i;
                    bits::fill(g, facts(d), false);
                    bits::insert(g, fact as usize);
                    bits::fill(kl, facts(d), true);
                    (d, fact)
                }
                None => (NONE, NONE),
            };
            steps.push(Step {
                instr: i,
                uses,
                def,
                fact,
            });
        }
        edge_start.push(edges.len());
        edges.extend(
            f.successors(b)
                .into_iter()
                .map(|s| (s, l.blocks.binary_search(&s).ok())),
        );
    }
    step_start.push(steps.len());
    edge_start.push(edges.len());

    // Phase 1: fixpoint on block-entry states, one row of two halves
    // (uncarried, carried) per block.
    let row = 2 * w;
    let h = l
        .blocks
        .binary_search(&l.header)
        .expect("loop header is a loop block");
    let mut state = vec![0u64; nb * row];
    for &start in &first[..regs.len()] {
        bits::insert(&mut state[h * row..][..w], start as usize);
    }
    let mut queued = vec![false; nb];
    queued[h] = true;
    let mut work = VecDeque::from([h]);
    let mut out = vec![0u64; row];
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        out.copy_from_slice(&state[b * row..][..row]);
        let (g, k) = (&gen[b * w..][..w], &kill[b * w..][..w]);
        for x in 0..w {
            out[x] = (out[x] & !k[x]) | g[x];
            out[w + x] &= !k[x];
        }
        for &(_, s) in &edges[edge_start[b]..edge_start[b + 1]] {
            let Some(s) = s else { continue };
            let dst = &mut state[s * row..][..row];
            let grew = if s == h {
                // The back edge: every fact arrives carried.
                let mut grew = false;
                for x in 0..w {
                    let v = out[x] | out[w + x];
                    grew |= v & !dst[w + x] != 0;
                    dst[w + x] |= v;
                }
                grew
            } else {
                bits::union_into(dst, &out)
            };
            if grew && !queued[s] {
                queued[s] = true;
                work.push_back(s);
            }
        }
    }

    // Phase 2: one walk per block recording dependences and exit facts.
    let mut flow = LoopDataFlow::default();
    let mut exit_facts = vec![0u64; w];
    let mut cur = vec![0u64; row];
    for b in 0..nb {
        cur.copy_from_slice(&state[b * row..][..row]);
        let (unc, car) = cur.split_at_mut(w);
        for st in &steps[step_start[b]..step_start[b + 1]] {
            for &u in st.uses.iter().filter(|&&u| u != NONE) {
                let (r, reg) = (facts(u), regs[u as usize]);
                if bits::test(unc, r.start) || bits::test(car, r.start) {
                    flow.live_in_uses.push((reg, st.instr));
                }
                for (fact, &def) in site.iter().enumerate().take(r.end).skip(r.start + 1) {
                    for (half, carried) in [(&*unc, false), (&*car, true)] {
                        if bits::test(half, fact) {
                            flow.reg_deps.push(RegDep {
                                def,
                                use_: st.instr,
                                reg,
                                carried,
                            });
                        }
                    }
                }
            }
            if st.def != NONE {
                bits::fill(unc, facts(st.def), false);
                bits::fill(car, facts(st.def), false);
                bits::insert(unc, st.fact as usize);
            }
        }

        // Exit edges: record which definitions reach a live register.
        for &(s, _) in edges[edge_start[b]..edge_start[b + 1]]
            .iter()
            .filter(|e| e.1.is_none())
        {
            let live = liveness.live_in(s);
            for (d, reg) in regs.iter().enumerate() {
                let r = facts(d as u32);
                if r.len() > 1 && live.contains(reg) {
                    for fact in r.filter(|&x| bits::test(unc, x) || bits::test(car, x)) {
                        bits::insert(&mut exit_facts, fact);
                    }
                }
            }
        }
    }

    for (d, &reg) in regs.iter().enumerate() {
        let r = facts(d as u32);
        let before = flow.live_out_defs.len();
        for fact in (r.start + 1..r.end).filter(|&x| bits::test(&exit_facts, x)) {
            flow.live_out_defs.push((reg, site[fact]));
        }
        if flow.live_out_defs.len() == before {
            continue; // loop never defines it there; not a DSWP live-out
        }
        flow.live_outs.insert(reg);
        if bits::test(&exit_facts, r.start) {
            flow.live_out_external.insert(reg);
        }
    }
    flow.live_ins = flow.live_in_uses.iter().map(|&(r, _)| r).collect();
    for v in [&mut flow.live_in_uses, &mut flow.live_out_defs] {
        v.sort_unstable();
        v.dedup();
    }
    flow.reg_deps.sort_unstable();
    flow.reg_deps.dedup();
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::find_loops;
    use dswp_ir::{Program, ProgramBuilder};

    /// entry: i=0, sum=0, n=10 ; header: done = i>=n ; br done exit body ;
    /// body: sum+=i; i+=1; jump header ; exit: store sum ; halt
    fn sum_loop() -> (Program, Vec<InstrId>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, sum, n, base, done) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        let mut ids = Vec::new();
        f.switch_to(e);
        ids.push(f.iconst(i, 0)); // 0
        ids.push(f.iconst(sum, 0)); // 1
        ids.push(f.iconst(n, 10)); // 2
        ids.push(f.iconst(base, 0)); // 3
        ids.push(f.jump(header)); // 4
        f.switch_to(header);
        ids.push(f.cmp_ge(done, i, n)); // 5
        ids.push(f.br(done, exit, body)); // 6
        f.switch_to(body);
        ids.push(f.add(sum, sum, i)); // 7
        ids.push(f.add(i, i, 1)); // 8
        ids.push(f.jump(header)); // 9
        f.switch_to(exit);
        ids.push(f.store(sum, base, 0)); // 10
        ids.push(f.halt()); // 11
        let main = f.finish();
        (pb.finish(main, 4), ids)
    }

    #[test]
    fn liveness_at_loop_exit() {
        let (p, _) = sum_loop();
        let f = p.function(p.main());
        let lv = Liveness::compute(f);
        // At exit block entry, sum (r1) and base (r3) are live.
        let live = lv.live_in(BlockId(3));
        assert!(live.contains(&Reg(1)));
        assert!(live.contains(&Reg(3)));
        assert!(!live.contains(&Reg(0)));
    }

    #[test]
    fn loop_dataflow_finds_carried_and_intra_deps() {
        let (p, ids) = sum_loop();
        let f = p.function(p.main());
        let lv = Liveness::compute(f);
        let l = &find_loops(f)[0];
        let df = loop_dataflow(f, l, &lv);

        let dep = |def: usize, use_: usize, carried: bool| RegDep {
            def: ids[def],
            use_: ids[use_],
            reg: f.op(ids[def]).def().unwrap(),
            carried,
        };
        // i += 1 (8) feeds the compare (5) and both adds (7, 8) carried.
        assert!(df.reg_deps.contains(&dep(8, 5, true)), "{:?}", df.reg_deps);
        assert!(df.reg_deps.contains(&dep(8, 8, true)));
        assert!(df.reg_deps.contains(&dep(8, 7, true)));
        // sum += i (7) feeds itself carried.
        assert!(df.reg_deps.contains(&dep(7, 7, true)));
        // The compare feeds the branch intra-iteration.
        assert!(df.reg_deps.contains(&dep(5, 6, false)));
        // i's use in block body after redef? add(i,i,1) defines i after
        // using it: the use sees both carried (from 8) and external (first
        // iteration).
        assert!(df.live_ins.contains(&Reg(0)));
        assert!(df.live_ins.contains(&Reg(1)));
        assert!(df.live_ins.contains(&Reg(2))); // n
                                                // sum is live-out, defined at 7, and on the zero-trip path the
                                                // external value survives.
        assert!(df.live_outs.contains(&Reg(1)));
        assert!(df.live_out_defs.contains(&(Reg(1), ids[7])));
        assert!(df.live_out_external.contains(&Reg(1)));
        // i is not live out (dead after the loop).
        assert!(!df.live_outs.contains(&Reg(0)));
    }

    #[test]
    fn unconditional_redefinition_is_not_external_live_out() {
        // loop body always redefines x before exiting only via the header.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (x, i, n, done, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(x, 0);
        f.iconst(i, 0);
        f.iconst(n, 5);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, n);
        f.br(done, exit, body);
        f.switch_to(body);
        let xdef = f.add(x, i, 100);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(x, base, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 1);
        let func = p.function(main);
        let lv = Liveness::compute(func);
        let l = &find_loops(func)[0];
        let df = loop_dataflow(func, l, &lv);
        assert!(df.live_outs.contains(&Reg(0)));
        assert!(df.live_out_defs.contains(&(Reg(0), xdef)));
        // x's pre-loop value survives the zero-trip path (exit from header
        // before any body execution), so it *is* externally reachable.
        assert!(df.live_out_external.contains(&Reg(0)));
    }
}
