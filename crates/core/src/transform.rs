//! Code splitting and flow insertion — steps 3 and 4 of the DSWP algorithm
//! (Figure 3, lines 7–8; Sections 2.2.3 and 2.2.4 of the paper).
//!
//! Given a validated partitioning of the loop's `DAG_SCC`, this module
//!
//! 1. computes each thread's **relevant basic blocks** (blocks holding its
//!    instructions, plus blocks holding sources of dependences entering the
//!    thread, closed over the control dependences that decide whether those
//!    blocks execute);
//! 2. **splits the code**: the first partition is rebuilt inside the
//!    original function, every other partition becomes a new auxiliary
//!    function; instructions keep their original relative order, and branch
//!    targets are remapped to the *closest relevant post-dominator*
//!    (Section 2.2.3 rule 4, e.g. the `BB3 → BB6` arc of Figure 2(d));
//!    branches a thread depends on but does not own are **duplicated**,
//!    driven by a consumed flag;
//! 3. inserts the **flows**: loop flows at the dependence source's position
//!    (data values, branch flags, memory tokens), initial flows of
//!    loop-invariant live-ins before the loop, and final flows of live-out
//!    values after it, with redundant-flow elimination (one queue per
//!    distinct `(source, destination-thread)` pair);
//! 4. materializes the paper's Section 3 **runtime**: one master function
//!    per auxiliary thread that blocks on a master queue, indirect-calls the
//!    auxiliary loop function whose id the main thread produces, and halts
//!    on a negative sentinel produced before every pre-existing `halt`.

use std::collections::{BTreeMap, BTreeSet};

use dswp_ir::program::TERMINATE_SENTINEL;
use dswp_ir::{BlockId, FuncId, Function, InstrId, Op, Operand, Program, QueueId, Reg};

use dswp_analysis::{DepKind, NaturalLoop, PostDomTree};

use crate::error::DswpError;
use crate::normalize::NormalizedLoop;
use crate::partition::Partitioning;
use crate::pipeline::AnalyzedLoop;

/// What a loop-flow queue carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FlowKind {
    /// The value defined by the source instruction.
    Value(Reg),
    /// The branch condition of the source branch (drives a duplicated
    /// branch in the consumer).
    Flag(Reg),
    /// A valueless ordering token (memory / call ordering).
    Token,
}

/// Flow counts produced by the transformation, reported per the paper's
/// Table 1 categories.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Initial flows: loop-invariant live-ins delivered before the loop.
    pub initial: usize,
    /// Loop flows: produce/consume pairs inside the loop body.
    pub loop_flows: usize,
    /// Final flows: live-outs delivered after loop termination.
    pub final_flows: usize,
}

/// The result of a successful DSWP transformation.
#[derive(Clone, Debug)]
pub struct DswpArtifacts {
    /// Flow counts (Table 1).
    pub flows: FlowStats,
    /// The auxiliary loop functions, one per thread `1..n`.
    pub aux_functions: Vec<FuncId>,
    /// The master functions (thread entries), one per auxiliary thread.
    pub master_functions: Vec<FuncId>,
    /// Queues allocated by the transformation.
    pub queues_used: usize,
}

/// Applies the DSWP split to the loop `a` describes under `partitioning`.
///
/// `program` must be the program `a` was analysed on (with the loop
/// normalized), and the partitioning must be valid for `a.dag`.
///
/// # Errors
///
/// Returns [`DswpError::InvalidPartition`] if the partitioning (or a
/// transitive control-flow requirement it induces) would need a backward
/// flow.
pub fn apply_dswp(
    program: &mut Program,
    a: &AnalyzedLoop,
    partitioning: &Partitioning,
) -> Result<DswpArtifacts, DswpError> {
    let (func, norm, loop_, pdg, dag) = (a.func, &a.norm, &a.loop_, &a.pdg, &a.dag);
    let n = partitioning.num_threads;
    assert!(n >= 2, "apply_dswp requires at least two threads");
    let src = program.function(func).clone();
    let pre_existing_funcs = program.functions().len();

    // ---- thread assignment per instruction ----
    let thread_of = |i: InstrId| -> Option<usize> {
        pdg.node_of(i)
            .map(|node| partitioning.assignment[dag.node_scc[node]])
    };

    // ---- block-level control dependences of the (normalized) loop ----
    let controllers_of = |b: BlockId| -> Vec<BlockId> {
        let mut v: Vec<BlockId> = pdg
            .control
            .iter()
            .filter(|d| d.dependent == b)
            .map(|d| d.branch_block)
            .collect();
        v.sort();
        v.dedup();
        v
    };

    // ---- collect loop flows from PDG arcs crossing partitions ----
    // Key: (source instruction, destination thread).
    let mut flow_keys: BTreeMap<(InstrId, usize), FlowKind> = BTreeMap::new();
    for a in pdg.arcs() {
        let (Some(u), Some(v)) = (pdg.instr_of(a.src), pdg.instr_of(a.dst)) else {
            continue;
        };
        let (tu, tv) = (thread_of(u).unwrap(), thread_of(v).unwrap());
        if tu == tv {
            continue;
        }
        if tu > tv {
            return Err(DswpError::InvalidPartition(format!(
                "dependence {u} → {v} flows backward (thread {tu} → {tv})"
            )));
        }
        let kind = flow_kind_for(&src, u, a.kind)?;
        merge_flow_kind(&mut flow_keys, (u, tv), kind);
    }

    // ---- relevant blocks + transitive branch-flag closure per thread ----
    let mut relevant: Vec<BTreeSet<BlockId>> = vec![BTreeSet::new(); n];
    for rel in relevant.iter_mut() {
        rel.insert(loop_.header);
    }
    for &b in &loop_.blocks {
        for &i in src.block(b).instrs() {
            if let Some(t) = thread_of(i) {
                relevant[t].insert(b);
            }
        }
    }
    loop {
        let mut changed = false;
        // Sources of flows must be relevant in both producer and consumer.
        for (&(u, tv), _) in flow_keys.iter() {
            let b = pdg.block_of(pdg.node_of(u).expect("flow source is in the loop"));
            changed |= relevant[tv].insert(b);
            let tu = thread_of(u).unwrap();
            changed |= relevant[tu].insert(b);
        }
        // Every relevant block's controlling branches must be available.
        let mut new_flags: Vec<(InstrId, usize)> = Vec::new();
        for (t, rel) in relevant.iter().enumerate() {
            for &b in rel.iter() {
                for c in controllers_of(b) {
                    let branch = *src.block(c).instrs().last().expect("terminator");
                    let tb = thread_of(branch).expect("loop branch has a thread");
                    if tb != t && !flow_keys.contains_key(&(branch, t)) {
                        new_flags.push((branch, t));
                    }
                }
            }
        }
        for (branch, t) in new_flags {
            let tb = thread_of(branch).unwrap();
            if tb > t {
                return Err(DswpError::InvalidPartition(format!(
                    "transitive control flow for {branch} would run backward (thread {tb} → {t})"
                )));
            }
            let cond = branch_cond(&src, branch)?;
            merge_flow_kind(&mut flow_keys, (branch, t), FlowKind::Flag(cond));
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // ---- initial and final flows ----
    let df = &pdg.dataflow;
    // live_in_needs[t] = registers thread t must receive before the loop.
    let mut live_in_needs: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
    for a in pdg.arcs() {
        let dswp_analysis::PdgNode::LiveIn(r) = pdg.nodes()[a.src] else {
            continue;
        };
        let Some(v) = pdg.instr_of(a.dst) else {
            continue;
        };
        let tv = thread_of(v).unwrap();
        if tv > 0 {
            live_in_needs[tv].insert(r);
        }
    }
    // final_defs[t] = live-out registers whose loop definitions live in t.
    let mut final_regs: Vec<BTreeSet<Reg>> = vec![BTreeSet::new(); n];
    for &(r, d) in &df.live_out_defs {
        let t = thread_of(d).expect("live-out def has a thread");
        final_regs[t].insert(r);
        // A conditionally-(re)defined live-out must start from the pre-loop
        // value so the producing thread's copy is correct on paths that
        // skip the definition (zero-trip or kill-free paths).
        if t > 0 && df.live_out_external.contains(&r) {
            live_in_needs[t].insert(r);
        }
    }
    for (r_set, t) in final_regs.iter().zip(0..) {
        for &r in r_set {
            // All defs of one live-out register share an SCC (Figure 5(b)),
            // so they cannot be spread over threads; detect violations.
            for &(r2, d2) in &df.live_out_defs {
                if r2 == r && thread_of(d2) != Some(t) {
                    return Err(DswpError::InvalidPartition(format!(
                        "live-out {r} defined in multiple threads"
                    )));
                }
            }
        }
    }

    // ---- queue allocation ----
    let mut master_queues: Vec<QueueId> = Vec::new();
    let mut init_queues: Vec<BTreeMap<Reg, QueueId>> = vec![BTreeMap::new(); n];
    let mut final_queues: Vec<BTreeMap<Reg, QueueId>> = vec![BTreeMap::new(); n];
    // One completion token per auxiliary thread: the main thread must not
    // run code after the loop until every stage has retired its last
    // iteration — post-loop code may read memory the auxiliary stages
    // write, and no register final flow exists to order that when the
    // loop's only outputs are stores.
    let mut completion_queues: Vec<QueueId> = Vec::new();
    for t in 1..n {
        master_queues.push(program.new_queue());
        for &r in &live_in_needs[t] {
            init_queues[t].insert(r, program.new_queue());
        }
        for &r in &final_regs[t] {
            final_queues[t].insert(r, program.new_queue());
        }
        completion_queues.push(program.new_queue());
    }
    let mut loop_queues: BTreeMap<(InstrId, usize), QueueId> = BTreeMap::new();
    for &key in flow_keys.keys() {
        loop_queues.insert(key, program.new_queue());
    }

    // ---- post-dominator map for branch retargeting (rule 4) ----
    let retarget = RetargetMap::new(&src, loop_, norm);

    // ---- emit each thread's loop copy ----
    let mut aux_functions = Vec::new();
    let mut aux_entries: Vec<(FuncId, QueueId)> = Vec::new();
    for t in 0..n {
        let mut aux = if t == 0 {
            None
        } else {
            let mut af = Function::new(format!("{}.dswp{}", src.name, t));
            af.ensure_reg(Reg(src.num_regs().saturating_sub(1)));
            Some(af)
        };

        // Create copies of relevant blocks.
        let mut copy: BTreeMap<BlockId, BlockId> = BTreeMap::new();
        {
            let dst: &mut Function = match aux.as_mut() {
                Some(a) => a,
                None => program.function_mut(func),
            };
            // Auxiliary prologue comes first so it is the entry.
            if t > 0 {
                let entry = dst.add_block("dswp.prologue");
                dst.set_entry(entry);
            }
            for &b in &loop_.blocks {
                if relevant[t].contains(&b) {
                    let nb = dst.add_block(format!("t{t}.{}", src.block(b).name));
                    copy.insert(b, nb);
                }
            }
            if t > 0 {
                let epi = dst.add_block("dswp.epilogue");
                copy.insert(norm.landing, epi);
            } else {
                copy.insert(norm.landing, norm.landing);
            }
        }

        // Map an original branch target to this thread's block.
        let map_target = |s: BlockId| -> BlockId {
            let mut cur = s;
            loop {
                if let Some(&c) = copy.get(&cur) {
                    return c;
                }
                cur = retarget.next(cur);
            }
        };

        // Emit instructions block by block.
        for &b in &loop_.blocks {
            if !relevant[t].contains(&b) {
                continue;
            }
            let nb = copy[&b];
            let instrs: Vec<InstrId> = src.block(b).instrs().to_vec();
            let dst: &mut Function = match aux.as_mut() {
                Some(a) => a,
                None => program.function_mut(func),
            };
            let mut terminated = false;
            for &i in &instrs {
                let op = src.op(i).clone();
                let ti = thread_of(i);
                let is_term = op.is_terminator();

                if !is_term {
                    // Consumes for flows sourced at i land at i's position.
                    if let Some(&q) = loop_queues.get(&(i, t)) {
                        match flow_keys[&(i, t)] {
                            FlowKind::Value(r) => {
                                dst.append_op(nb, Op::Consume { queue: q, dst: r });
                            }
                            FlowKind::Token => {
                                dst.append_op(nb, Op::ConsumeToken { queue: q });
                            }
                            FlowKind::Flag(_) => unreachable!("flag source is a terminator"),
                        }
                    }
                    if ti == Some(t) {
                        dst.append_op(nb, op.clone());
                        // Produces for flows sourced at i follow it.
                        for t2 in 0..n {
                            if t2 == t {
                                continue;
                            }
                            if let Some(&q) = loop_queues.get(&(i, t2)) {
                                match flow_keys[&(i, t2)] {
                                    FlowKind::Value(r) => {
                                        dst.append_op(
                                            nb,
                                            Op::Produce {
                                                queue: q,
                                                src: Operand::Reg(r),
                                            },
                                        );
                                    }
                                    FlowKind::Token => {
                                        dst.append_op(nb, Op::ProduceToken { queue: q });
                                    }
                                    FlowKind::Flag(_) => {
                                        unreachable!("flag source is a terminator")
                                    }
                                }
                            }
                        }
                    }
                    continue;
                }

                // ---- terminator handling ----
                if ti == Some(t) {
                    // Owned branch: produce any flags first, then branch with
                    // remapped targets.
                    for t2 in 0..n {
                        if t2 == t {
                            continue;
                        }
                        if let Some(&q) = loop_queues.get(&(i, t2)) {
                            match flow_keys[&(i, t2)] {
                                FlowKind::Flag(c) => {
                                    dst.append_op(
                                        nb,
                                        Op::Produce {
                                            queue: q,
                                            src: Operand::Reg(c),
                                        },
                                    );
                                }
                                FlowKind::Token => {
                                    dst.append_op(nb, Op::ProduceToken { queue: q });
                                }
                                FlowKind::Value(_) => {
                                    unreachable!("terminators define no value")
                                }
                            }
                        }
                    }
                    let mut new_op = op.clone();
                    new_op.map_successors(&mut |s| map_target(s));
                    dst.append_op(nb, new_op);
                } else if let Some(&q) = loop_queues.get(&(i, t)) {
                    // Duplicated branch: consume the flag, then branch.
                    let FlowKind::Flag(c) = flow_keys[&(i, t)] else {
                        return Err(DswpError::InvalidPartition(format!(
                            "terminator {i} flows a non-flag into thread {t}"
                        )));
                    };
                    dst.append_op(nb, Op::Consume { queue: q, dst: c });
                    let mut new_op = op.clone();
                    new_op.map_successors(&mut |s| map_target(s));
                    dst.append_op(nb, new_op);
                } else {
                    // Unowned, un-flagged terminator: both ways must lead to
                    // the same relevant block.
                    let succs = op.successors();
                    let mapped: Vec<BlockId> = succs.iter().map(|&s| map_target(s)).collect();
                    let first = mapped[0];
                    if mapped.iter().any(|&m| m != first) {
                        return Err(DswpError::InvalidPartition(format!(
                            "thread {t} needs the direction of {i} but receives no flag"
                        )));
                    }
                    dst.append_op(nb, Op::Jump { target: first });
                }
                terminated = true;
            }
            debug_assert!(terminated, "loop block without terminator");
        }

        if t == 0 {
            // Splice the rebuilt loop into the original function: the
            // preheader now jumps to the thread-0 header copy, and the
            // landing block receives the final-flow consumes.
            let dst = program.function_mut(func);
            let pre_term = *dst.block(norm.preheader).instrs().last().unwrap();
            dst.op_mut(pre_term).map_successors(|s| {
                if s == norm.header {
                    copy[&norm.header]
                } else {
                    s
                }
            });
            // Final consumes at the top of the landing block, in queue
            // order, then the completion tokens.
            let mut at = 0usize;
            for fq in final_queues.iter().take(n).skip(1) {
                for (&r, &q) in fq {
                    let id = dst.add_instr(Op::Consume { queue: q, dst: r });
                    dst.insert_instr(norm.landing, at, id);
                    at += 1;
                }
            }
            for &q in &completion_queues {
                let id = dst.add_instr(Op::ConsumeToken { queue: q });
                dst.insert_instr(norm.landing, at, id);
                at += 1;
            }
        } else {
            let af = aux.as_mut().expect("aux function for t > 0");
            // Prologue: initial consumes then jump into the loop copy.
            let entry = af.entry();
            for (&r, &q) in &init_queues[t] {
                af.append_op(entry, Op::Consume { queue: q, dst: r });
            }
            af.append_op(
                entry,
                Op::Jump {
                    target: copy[&loop_.header],
                },
            );
            // Epilogue: final produces, the completion token, then return
            // to the master loop.
            let epi = copy[&norm.landing];
            for (&r, &q) in &final_queues[t] {
                af.append_op(
                    epi,
                    Op::Produce {
                        queue: q,
                        src: Operand::Reg(r),
                    },
                );
            }
            af.append_op(
                epi,
                Op::ProduceToken {
                    queue: completion_queues[t - 1],
                },
            );
            af.append_op(epi, Op::Ret);
            let fid = program.add_function(aux.take().unwrap());
            aux_functions.push(fid);
            aux_entries.push((fid, master_queues[t - 1]));
        }
    }

    // ---- main-thread preheader: wake the auxiliary threads, send inits ----
    {
        let dst = program.function_mut(func);
        let mut at = 0usize;
        for &(fid, mq) in &aux_entries {
            let id = dst.add_instr(Op::Produce {
                queue: mq,
                src: Operand::Imm(fid.index() as i64),
            });
            dst.insert_instr(norm.preheader, at, id);
            at += 1;
        }
        for iq in init_queues.iter().take(n).skip(1) {
            for (&r, &q) in iq {
                let id = dst.add_instr(Op::Produce {
                    queue: q,
                    src: Operand::Reg(r),
                });
                dst.insert_instr(norm.preheader, at, id);
                at += 1;
            }
        }
    }

    // ---- master functions and termination sentinels (Section 3) ----
    let mut master_functions = Vec::new();
    for (idx, &mq) in master_queues.iter().enumerate() {
        let mut mf = Function::new(format!("dswp.master{}", idx + 1));
        let bb = mf.add_block("loop");
        mf.set_entry(bb);
        let target = mf.new_reg();
        mf.append_op(
            bb,
            Op::Consume {
                queue: mq,
                dst: target,
            },
        );
        mf.append_op(bb, Op::CallInd { target });
        mf.append_op(bb, Op::Jump { target: bb });
        let fid = program.add_function(mf);
        program.add_thread(fid);
        master_functions.push(fid);
    }
    // Send the terminate sentinel before every pre-existing halt.
    for fi in 0..pre_existing_funcs {
        let fid = FuncId::from_index(fi);
        let halts: Vec<(BlockId, usize)> = {
            let f = program.function(fid);
            f.block_ids()
                .flat_map(|b| {
                    f.block(b)
                        .instrs()
                        .iter()
                        .enumerate()
                        .filter(|(_, &i)| matches!(f.op(i), Op::Halt))
                        .map(|(pos, _)| (b, pos))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let f = program.function_mut(fid);
        for (b, pos) in halts.into_iter().rev() {
            for (k, &mq) in master_queues.iter().enumerate() {
                let id = f.add_instr(Op::Produce {
                    queue: mq,
                    src: Operand::Imm(TERMINATE_SENTINEL),
                });
                f.insert_instr(b, pos + k, id);
            }
        }
    }

    let flows = FlowStats {
        initial: init_queues.iter().map(|m| m.len()).sum(),
        loop_flows: loop_queues.len(),
        final_flows: final_queues.iter().map(|m| m.len()).sum(),
    };
    Ok(DswpArtifacts {
        flows,
        aux_functions,
        master_functions,
        queues_used: program.num_queues as usize,
    })
}

/// Resolves the queue kind of a flow sourced at `u` for a dependence of
/// kind `dep`.
fn flow_kind_for(f: &Function, u: InstrId, dep: DepKind) -> Result<FlowKind, DswpError> {
    match dep {
        DepKind::Data(_) | DepKind::Output => {
            let r = f.op(u).def().ok_or_else(|| {
                DswpError::InvalidPartition(format!("data flow source {u} defines nothing"))
            })?;
            Ok(FlowKind::Value(r))
        }
        DepKind::Control | DepKind::CondControl => Ok(FlowKind::Flag(branch_cond(f, u)?)),
        DepKind::Memory => Ok(FlowKind::Token),
    }
}

/// Merges a flow kind into the key map: a value dominates a token (the
/// value's arrival orders memory too); flags never mix with values because
/// branches define no registers.
fn merge_flow_kind(
    keys: &mut BTreeMap<(InstrId, usize), FlowKind>,
    key: (InstrId, usize),
    kind: FlowKind,
) {
    use std::collections::btree_map::Entry;
    match keys.entry(key) {
        Entry::Vacant(e) => {
            e.insert(kind);
        }
        Entry::Occupied(mut e) => {
            let merged = match (*e.get(), kind) {
                (FlowKind::Token, k) => k,
                (k, FlowKind::Token) => k,
                (a, b) => {
                    debug_assert_eq!(a, b, "conflicting flow kinds for one source");
                    a
                }
            };
            e.insert(merged);
        }
    }
}

fn branch_cond(f: &Function, branch: InstrId) -> Result<Reg, DswpError> {
    match f.op(branch) {
        Op::Br { cond, .. } => Ok(*cond),
        other => Err(DswpError::InvalidPartition(format!(
            "expected a conditional branch at {branch}, found `{other}`"
        ))),
    }
}

/// "Closest relevant post-dominator" lookups (splitting rule 4): walks the
/// post-dominator chain of the loop-plus-landing sub-CFG.
struct RetargetMap {
    /// ipdom per sub-CFG node, indexed by position in `nodes`.
    ipdom: Vec<Option<usize>>,
    nodes: Vec<BlockId>,
}

impl RetargetMap {
    fn new(f: &Function, loop_: &NaturalLoop, norm: &NormalizedLoop) -> Self {
        let mut nodes: Vec<BlockId> = loop_.blocks.clone();
        nodes.push(norm.landing);
        let index = |b: BlockId| nodes.iter().position(|&x| x == b);
        let mut g = dswp_analysis::Graph::new(nodes.len());
        for (i, &b) in loop_.blocks.iter().enumerate() {
            for s in f.successors(b) {
                if let Some(j) = index(s) {
                    g.add_edge(i, j);
                }
            }
        }
        // The landing block is the sink; every loop block reaches it.
        let pd = PostDomTree::compute(&g, &[]);
        let ipdom = (0..nodes.len()).map(|i| pd.ipdom(i)).collect();
        RetargetMap { ipdom, nodes }
    }

    /// The immediate post-dominator of `b` within the loop sub-CFG.
    ///
    /// # Panics
    ///
    /// Panics if `b` has no post-dominator (cannot happen for normalized
    /// loops: the landing post-dominates every block).
    fn next(&self, b: BlockId) -> BlockId {
        let i = self
            .nodes
            .iter()
            .position(|&x| x == b)
            .expect("block belongs to the loop sub-CFG");
        let p = self.ipdom[i].expect("landing post-dominates all loop blocks");
        self.nodes[p]
    }
}
