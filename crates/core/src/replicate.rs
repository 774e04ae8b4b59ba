//! Parallel-stage replication: running a dependence-free pipeline stage on
//! several worker threads at once.
//!
//! DSWP's throughput is bounded by its slowest stage (the load-balance
//! heuristic of Section 2.2.2 exists precisely to shrink that bound). A
//! stage whose SCCs carry **no** loop-carried dependence internal to the
//! stage — the situation in the paper's DOALL loops `compress` and
//! `jpegenc` (Section 4.1) — can legally execute many iterations
//! concurrently. This module replicates such a stage `N` ways *after* the
//! ordinary DSWP split:
//!
//! * a **scatter** function takes over the replicated stage's original
//!   hardware context, consuming the stage's upstream queues in iteration
//!   order and forwarding each iteration's values to a per-replica
//!   *instance* of every queue, routing each iteration to the replica
//!   with the smallest pending-input backlog (queue-depth feedback through
//!   the non-blocking `DEPTH` probe, ties to the lowest replica index; the
//!   bounded instance queues themselves limit each replica's backlog);
//! * `N` **replica** functions (clones of the stage's auxiliary loop
//!   function with queue ids remapped to their instance) run on `N` fresh
//!   contexts;
//! * an optional **gather** function restores iteration order on the
//!   stage's downstream queues, driven by an iteration-tag control queue
//!   fed by the scatter (`r + 1` = the iteration was dispatched to replica
//!   `r`, `0` = the loop exited), so downstream stages observe *exactly*
//!   the value streams of the unreplicated pipeline no matter how
//!   iterations were routed.
//!
//! Because the scatter runs every iteration sequentially it can also carry
//! values across the back edge on behalf of the replicas: a register that
//! the stage consumes mid-iteration but *uses before that point* (an
//! upward-exposed consume, e.g. the induction variable feeding address
//! arithmetic in `compress`) is additionally delivered at the top of each
//! replica iteration from a scatter-held copy of the previous iteration's
//! value. A replica therefore never depends on its own frame surviving
//! from one of *its* iterations to the next — which would be wrong, since
//! a replica only executes the iterations routed to it.
//!
//! Every queue in the replicated pipeline — instances included — keeps
//! exactly one producer thread and one consumer thread, so the native
//! runtime's SPSC rings, its batching, and the deadlock monitor's
//! `WaitSet` reasoning stay exact without modification, and the executor /
//! interpreter equivalence argument carries over unchanged.

use std::collections::BTreeMap;

use dswp_analysis::alias_query;
use dswp_ir::program::TERMINATE_SENTINEL;
use dswp_ir::{
    BinOp, BlockId, CmpOp, FuncId, Function, InstrId, Op, Operand, Program, QueueId, Reg,
};

use crate::partition::Partitioning;
use crate::pipeline::AnalyzedLoop;

/// Replication request, carried in
/// [`DswpOptions`](crate::pipeline::DswpOptions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Replicate {
    /// No replication (the default).
    #[default]
    Off,
    /// Replicate *every* replicable stage exactly this many ways (values
    /// below 2 are a no-op).
    Fixed(usize),
    /// Distribute a total-core budget across every replicable stage with
    /// the stage-time estimate (greedy water-filling: the stage with the
    /// worst per-replica time gets the next core), stopping once no
    /// replicable stage is the pipeline bottleneck. `cores` caps the total
    /// replica count (`None` = detect with
    /// [`std::thread::available_parallelism`]).
    Auto {
        /// Hardware threads assumed available, if overriding detection.
        cores: Option<usize>,
    },
}

/// What replication did, reported in
/// [`DswpReport`](crate::pipeline::DswpReport).
#[derive(Clone, Debug)]
pub struct ReplicationInfo {
    /// The replicated stage (thread index in the unreplicated pipeline).
    pub stage: usize,
    /// Number of replicas.
    pub replicas: usize,
    /// The scatter function (runs on the stage's original context).
    pub scatter: FuncId,
    /// The gather function, if the stage produces downstream values.
    pub gather: Option<FuncId>,
    /// The replica loop functions, in replica-index order.
    pub replica_functions: Vec<FuncId>,
    /// Queues allocated by replication (instances, control, masters).
    pub new_queues: usize,
    /// Hardware contexts added (replica masters + optional gather master).
    pub new_threads: usize,
}

/// Cap on replicas per stage, whatever the core budget.
pub(crate) const MAX_REPLICAS: usize = 8;

/// Distributes a budget of `cores` hardware threads across *every*
/// replicable stage for [`Replicate::Auto`]: greedy water-filling on the
/// static per-stage time estimate. Each round grants one more replica to
/// the stage with the largest *effective* time (`stage_times[t] / k[t]`),
/// stopping when the bottleneck is a non-replicable stage, the budget
/// (`sum k ≤ cores`) is spent, or every stage hit [`MAX_REPLICAS`].
///
/// Returns `(stage, replicas)` pairs in stage order, keeping only stages
/// that actually earned ≥ 2 replicas. Empty when fewer than 2 cores are
/// assumed or no stage is replicable.
pub(crate) fn replica_plans(
    stage_times: &[f64],
    replicable: &[bool],
    cores: usize,
) -> Vec<(usize, usize)> {
    if cores < 2 {
        return Vec::new();
    }
    let cap = cores.min(MAX_REPLICAS);
    let repl: Vec<usize> = (0..stage_times.len())
        .filter(|&t| replicable.get(t).copied().unwrap_or(false))
        .collect();
    if repl.is_empty() {
        return Vec::new();
    }
    // Replicating cannot push throughput past the slowest stage that must
    // stay sequential: that's the water level.
    let floor = stage_times
        .iter()
        .enumerate()
        .filter(|&(i, _)| !replicable.get(i).copied().unwrap_or(false))
        .map(|(_, &x)| x)
        .fold(0.0_f64, f64::max);
    let mut k: BTreeMap<usize, usize> = repl.iter().map(|&t| (t, 1)).collect();
    loop {
        if k.values().sum::<usize>() >= cores {
            break;
        }
        let Some(t) = repl
            .iter()
            .copied()
            .filter(|&t| k[&t] < cap)
            .max_by(|&a, &b| {
                (stage_times[a] / k[&a] as f64).total_cmp(&(stage_times[b] / k[&b] as f64))
            })
        else {
            break;
        };
        if stage_times[t] / k[&t] as f64 <= floor {
            break;
        }
        *k.get_mut(&t).unwrap() += 1;
    }
    repl.into_iter()
        .filter(|t| k[t] >= 2)
        .map(|t| (t, k[&t]))
        .collect()
}

/// Marks each pipeline stage as replicable or not.
///
/// A stage is replicable when its iterations are mutually independent:
///
/// * no loop-carried PDG arc has **both** endpoints in the stage (no true
///   recurrence — register, control, or memory — internal to it);
/// * it defines no loop live-out (the epilogue's final value would race
///   between replicas);
/// * none of its stores may collide with *itself* across iterations under
///   the alias analysis ([`build_pdg`](dswp_analysis::build_pdg) never
///   pairs an access with itself, so a lone store's cross-iteration output
///   dependence is invisible in the arc set and must be queried here);
/// * it contains no calls (a call is an opaque memory barrier and would
///   self-conflict across iterations for the same reason).
///
/// Stage 0 stays with the loop control recurrence on the main thread and
/// is never replicable.
///
/// `program` is the program `a` was analysed on.
pub fn replicable_stages(
    program: &Program,
    a: &AnalyzedLoop,
    partitioning: &Partitioning,
) -> Vec<bool> {
    let (f, pdg, dag) = (program.function(a.func), &a.pdg, &a.dag);
    let n = partitioning.num_threads;
    let stage_of_node = |node: usize| -> Option<usize> {
        (node < pdg.num_instr_nodes()).then(|| partitioning.assignment[dag.node_scc[node]])
    };
    let stage_of_instr =
        |instr: InstrId| -> Option<usize> { pdg.node_of(instr).and_then(stage_of_node) };

    let mut ok = vec![true; n];
    ok[0] = false;
    for a in pdg.arcs() {
        if !a.carried {
            continue;
        }
        if let (Some(s), Some(d)) = (stage_of_node(a.src), stage_of_node(a.dst)) {
            if s == d {
                ok[s] = false;
            }
        }
    }
    for &(_, instr) in &pdg.dataflow.live_out_defs {
        if let Some(s) = stage_of_instr(instr) {
            ok[s] = false;
        }
    }
    for id in a.loop_instrs() {
        let Some(s) = stage_of_instr(id) else {
            continue;
        };
        match f.op(id) {
            Op::Store { mem, .. } => {
                let r = alias_query(mem, mem, a.alias);
                if r.carried_forward || r.carried_backward {
                    ok[s] = false;
                }
            }
            Op::Call { .. } | Op::CallInd { .. } => ok[s] = false,
            _ => {}
        }
    }
    ok
}

/// The discovered structure of a stage's auxiliary loop function, as
/// emitted by [`apply_dswp`](crate::transform::apply_dswp). Replication
/// refuses (returns `None`) on any shape it does not fully understand.
struct AuxShape {
    /// Loop body blocks in execution (jump-chain) order.
    body: Vec<BlockId>,
    /// Whether the header branch exits the loop when the flag is non-zero.
    exit_on_true: bool,
    flag_queue: QueueId,
    /// Initial-value (live-in) queues consumed in the prologue, with their
    /// destination registers, in prologue order.
    init_queues: Vec<(QueueId, Reg)>,
    completion_queue: QueueId,
    /// Value queues consumed once per iteration, in body order. `carried`
    /// marks an upward-exposed consume: the destination register is read
    /// earlier in the iteration than it is consumed, i.e. those reads see
    /// the *previous* iteration's value.
    in_data: Vec<InQueue>,
    /// Token queues consumed once per iteration, in body order.
    in_tok: Vec<QueueId>,
    /// Value queues produced once per iteration, in body order.
    out_data: Vec<QueueId>,
    /// Token queues produced once per iteration, in body order.
    out_tok: Vec<QueueId>,
}

struct InQueue {
    queue: QueueId,
    dst: Reg,
    carried: bool,
}

fn discover(af: &Function) -> Option<AuxShape> {
    // Prologue: initial consumes, then a jump into the loop header copy.
    let entry = af.entry();
    let eb = af.block(entry).instrs();
    let (&last, init) = eb.split_last()?;
    let mut init_queues = Vec::new();
    for &i in init {
        match *af.op(i) {
            Op::Consume { queue, dst } => init_queues.push((queue, dst)),
            _ => return None,
        }
    }
    let header = match *af.op(last) {
        Op::Jump { target } => target,
        _ => return None,
    };

    // Header copy: exactly the duplicated exit branch and its flag consume.
    let hb = af.block(header).instrs();
    if hb.len() != 2 {
        return None;
    }
    let (flag_queue, flag_reg) = match *af.op(hb[0]) {
        Op::Consume { queue, dst } => (queue, dst),
        _ => return None,
    };
    let (cond, then_, else_) = match *af.op(hb[1]) {
        Op::Br { cond, then_, else_ } => (cond, then_, else_),
        _ => return None,
    };
    if cond != flag_reg || then_ == else_ {
        return None;
    }

    // Epilogue: exactly the completion token and the return to the master.
    let is_epilogue = |b: BlockId| {
        let ib = af.block(b).instrs();
        ib.len() == 2
            && matches!(af.op(ib[0]), Op::ProduceToken { .. })
            && matches!(af.op(ib[1]), Op::Ret)
    };
    let (epilogue, body_head, exit_on_true) = if is_epilogue(then_) {
        (then_, else_, true)
    } else if is_epilogue(else_) {
        (else_, then_, false)
    } else {
        return None;
    };
    let completion_queue = match *af.op(af.block(epilogue).instrs()[0]) {
        Op::ProduceToken { queue } => queue,
        _ => return None,
    };

    // Body: a single jump chain back to the header covering every
    // remaining block, so each in-loop queue is touched exactly once per
    // non-exit iteration.
    let mut body = Vec::new();
    let mut cur = body_head;
    while cur != header {
        if cur == entry || cur == epilogue || body.contains(&cur) {
            return None;
        }
        body.push(cur);
        cur = match *af.op(*af.block(cur).instrs().last()?) {
            Op::Jump { target } => target,
            _ => return None,
        };
    }
    if af.num_blocks() != body.len() + 3 {
        return None;
    }

    // Classify the per-iteration queue traffic and find upward-exposed
    // consumes (first touch of the destination register is a read).
    let mut in_data: Vec<InQueue> = Vec::new();
    let mut in_tok = Vec::new();
    let mut out_data = Vec::new();
    let mut out_tok = Vec::new();
    let mut first_touch: BTreeMap<Reg, bool> = BTreeMap::new(); // reg → first touch was a read
    let mut last_def: BTreeMap<Reg, usize> = BTreeMap::new(); // reg → body position of last def
    let mut consume_pos: Vec<usize> = Vec::new(); // body position of each in_data consume
    let mut pos = 0usize;
    for &b in &body {
        let ib = af.block(b).instrs();
        for (k, &i) in ib.iter().enumerate() {
            let op = af.op(i);
            for r in op.use_regs() {
                first_touch.entry(r).or_insert(true);
            }
            match *op {
                Op::Consume { queue, dst } => {
                    let carried = *first_touch.entry(dst).or_insert(false);
                    in_data.push(InQueue {
                        queue,
                        dst,
                        carried,
                    });
                    consume_pos.push(pos);
                }
                Op::ConsumeToken { queue } => in_tok.push(queue),
                Op::Produce { queue, .. } => out_data.push(queue),
                Op::ProduceToken { queue } => out_tok.push(queue),
                Op::Call { .. } | Op::CallInd { .. } | Op::Br { .. } | Op::Ret | Op::Halt => {
                    return None
                }
                Op::Jump { .. } if k + 1 != ib.len() => return None,
                Op::Jump { .. } => {}
                _ => {}
            }
            if let Some(d) = op.def() {
                first_touch.entry(d).or_insert(false);
                last_def.insert(d, pos);
            }
            pos += 1;
        }
    }
    // A carried (upward-exposed) consume reads the value the *last* write
    // of the previous iteration left behind, and the scatter replays the
    // consume's own stream shifted by one — that only matches when the
    // consume is the final def of its register in the body. Non-carried
    // consumes may freely share a destination register (the stage just
    // clobbers it locally between them).
    for (q, &p) in in_data.iter().zip(&consume_pos) {
        if q.carried && last_def.get(&q.dst) != Some(&p) {
            return None;
        }
    }
    let mut all: Vec<QueueId> = in_data.iter().map(|q| q.queue).collect();
    all.extend(&in_tok);
    all.extend(&out_data);
    all.extend(&out_tok);
    all.push(flag_queue);
    all.extend(init_queues.iter().map(|&(q, _)| q));
    all.push(completion_queue);
    let mut uniq = all.clone();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.len() != all.len() {
        return None;
    }

    Some(AuxShape {
        body,
        exit_on_true,
        flag_queue,
        init_queues,
        completion_queue,
        in_data,
        in_tok,
        out_data,
        out_tok,
    })
}

/// Rewrites every queue id mentioned by `f` through `map` (ids absent from
/// the map are left alone).
fn remap_queues(f: &mut Function, map: &BTreeMap<QueueId, QueueId>) {
    for slot in 0..f.num_instr_slots() {
        match f.op_mut(InstrId(slot as u32)) {
            Op::Produce { queue, .. }
            | Op::Consume { queue, .. }
            | Op::ProduceToken { queue }
            | Op::ConsumeToken { queue } => {
                if let Some(&q) = map.get(queue) {
                    *queue = q;
                }
            }
            _ => {}
        }
    }
}

/// Builds a `dswp.master`-style trampoline (consume a function index,
/// call it, repeat) on a fresh context.
fn add_master(program: &mut Program, name: String, mq: QueueId) -> FuncId {
    let mut mf = Function::new(name);
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
    fid
}

/// Replicates pipeline `stage` (whose auxiliary loop function is
/// `aux_fid`) `replicas` ways, in place, after [`apply_dswp`] has split the
/// loop `a` describes.
/// The scatter routes each iteration to the least-backlogged replica
/// ([`Op::QueueDepth`] feedback); routing never changes observable
/// results, only which replica runs which iteration.
///
/// Legality must have been established with [`replicable_stages`] first;
/// this function additionally verifies the *structural* preconditions on
/// the emitted code (see the private `AuxShape` discovery) and returns `None` — leaving the
/// program untouched — if the stage's shape is not one it can prove
/// correct. `replicas < 2` is also a no-op.
///
/// Calls compose: replicating stage `t1` and then stage `t2` of the same
/// pipeline touches disjoint auxiliary functions, so every legal DOALL
/// stage of a pipeline can be replicated in one pass by applying this
/// function once per stage.
///
/// [`apply_dswp`]: crate::transform::apply_dswp
pub fn replicate_stage(
    program: &mut Program,
    a: &AnalyzedLoop,
    aux_fid: FuncId,
    stage: usize,
    replicas: usize,
) -> Option<ReplicationInfo> {
    let (func, norm) = (a.func, &a.norm);
    let n = replicas;
    if n < 2 {
        return None;
    }
    let shape = discover(program.function(aux_fid))?;

    // The preheader instruction that wakes the stage's master with the aux
    // function index; it will be retargeted at the scatter.
    let wake = {
        let f = program.function(func);
        let mut found = None;
        for &i in f.block(norm.preheader).instrs() {
            if let Op::Produce {
                src: Operand::Imm(v),
                ..
            } = *f.op(i)
            {
                if v == aux_fid.index() as i64 {
                    found = Some(i);
                    break;
                }
            }
        }
        found?
    };
    // The landing-block position of the stage's completion-token consume,
    // after which the extra replicas' completion consumes go.
    let completion_at = {
        let f = program.function(func);
        f.block(norm.landing).instrs().iter().position(
            |&i| matches!(*f.op(i), Op::ConsumeToken { queue } if queue == shape.completion_queue),
        )?
    };

    // Everything checks out: allocate queues and start rewriting. Only
    // functions that exist *now* can contain pre-existing halts needing
    // termination sentinels for the new master queues.
    let pre_existing_funcs = program.functions().len();
    let queues_before = program.num_queues;

    let flag_inst: Vec<QueueId> = (0..n).map(|_| program.new_queue()).collect();
    let in_data_inst: Vec<Vec<QueueId>> = shape
        .in_data
        .iter()
        .map(|_| (0..n).map(|_| program.new_queue()).collect())
        .collect();
    let in_tok_inst: Vec<Vec<QueueId>> = shape
        .in_tok
        .iter()
        .map(|_| (0..n).map(|_| program.new_queue()).collect())
        .collect();
    let has_gather = !(shape.out_data.is_empty() && shape.out_tok.is_empty());
    let out_data_inst: Vec<Vec<QueueId>> = shape
        .out_data
        .iter()
        .map(|_| (0..n).map(|_| program.new_queue()).collect())
        .collect();
    let out_tok_inst: Vec<Vec<QueueId>> = shape
        .out_tok
        .iter()
        .map(|_| (0..n).map(|_| program.new_queue()).collect())
        .collect();
    let ctl = has_gather.then(|| program.new_queue());
    // Replicas 1..n get fresh copies of the initial-value and completion
    // queues (replica 0 keeps the originals); the scatter gets its own
    // copy of the initial value of every upward-exposed consumed register,
    // to seed the carried value it holds for the replicas.
    let init_inst: Vec<Vec<QueueId>> = shape
        .init_queues
        .iter()
        .map(|_| (1..n).map(|_| program.new_queue()).collect())
        .collect();
    let completion_extra: Vec<QueueId> = (1..n).map(|_| program.new_queue()).collect();
    let scatter_init: Vec<Option<QueueId>> = shape
        .in_data
        .iter()
        .map(|q| {
            (q.carried && shape.init_queues.iter().any(|&(_, r)| r == q.dst))
                .then(|| program.new_queue())
        })
        .collect();
    let replica_mqs: Vec<QueueId> = (0..n).map(|_| program.new_queue()).collect();
    let gather_mq = has_gather.then(|| program.new_queue());

    // ---- replica loop functions ----
    // An upward-exposed consume also receives the previous iteration's
    // value at the top of every (non-exit) iteration, so reads that
    // precede the consume see what they would have seen had this replica
    // executed the previous iteration itself. The delivery goes at the
    // top of the first body block — not the header, which also runs on
    // the exit iteration, when the scatter sends only the flag.
    {
        let af = program.function_mut(aux_fid);
        let mut at = 0;
        for q in &shape.in_data {
            if q.carried {
                let id = af.add_instr(Op::Consume {
                    queue: q.queue,
                    dst: q.dst,
                });
                af.insert_instr(shape.body[0], at, id);
                at += 1;
            }
        }
    }
    let base_name = program.function(aux_fid).name.clone();
    let pristine = program.function(aux_fid).clone();
    let remap_for = |r: usize| -> BTreeMap<QueueId, QueueId> {
        let mut m = BTreeMap::new();
        m.insert(shape.flag_queue, flag_inst[r]);
        for (k, q) in shape.in_data.iter().enumerate() {
            m.insert(q.queue, in_data_inst[k][r]);
        }
        for (k, &q) in shape.in_tok.iter().enumerate() {
            m.insert(q, in_tok_inst[k][r]);
        }
        for (k, &q) in shape.out_data.iter().enumerate() {
            m.insert(q, out_data_inst[k][r]);
        }
        for (k, &q) in shape.out_tok.iter().enumerate() {
            m.insert(q, out_tok_inst[k][r]);
        }
        if r > 0 {
            for (k, &(q, _)) in shape.init_queues.iter().enumerate() {
                m.insert(q, init_inst[k][r - 1]);
            }
            m.insert(shape.completion_queue, completion_extra[r - 1]);
        }
        m
    };
    let mut replica_fids = vec![aux_fid];
    for r in 1..n {
        let mut c = pristine.clone();
        c.name = format!("{base_name}.r{r}");
        remap_queues(&mut c, &remap_for(r));
        replica_fids.push(program.add_function(c));
    }
    {
        let af = program.function_mut(aux_fid);
        af.name = format!("{base_name}.r0");
        remap_queues(af, &remap_for(0));
    }

    // ---- scatter ----
    let scatter_fid = {
        let mut sf = Function::new(format!("dswp.scatter{stage}"));
        let c = sf.new_reg();
        // The chosen replica's index.
        let pick = sf.new_reg();
        let t = sf.new_reg();
        let v = sf.new_reg();
        // Pick-chain scratch: the running minimum backlog and the probed
        // depth of the replica under consideration.
        let best = sf.new_reg();
        let d = sf.new_reg();
        let hold: Vec<Option<Reg>> = shape
            .in_data
            .iter()
            .map(|q| q.carried.then(|| sf.new_reg()))
            .collect();
        let b_entry = sf.add_block("entry");
        let b_head = sf.add_block("head");
        let b_step = sf.add_block("step");
        let b_exit = sf.add_block("exit");
        let disp: Vec<BlockId> = (0..n).map(|r| sf.add_block(format!("disp{r}"))).collect();
        let fwd: Vec<BlockId> = (0..n).map(|r| sf.add_block(format!("fwd{r}"))).collect();
        // Pick chain: `b_pick` seeds the argmin scan with replica 0, then
        // `chk[r-1]`/`upd[r-1]` fold in replica r. Strict less-than keeps
        // ties on the lowest index, so the executor (whose depths are
        // deterministic) routes reproducibly.
        let b_pick = sf.add_block("pick");
        let chk: Vec<BlockId> = (1..n).map(|r| sf.add_block(format!("chk{r}"))).collect();
        let upd: Vec<BlockId> = (1..n).map(|r| sf.add_block(format!("upd{r}"))).collect();
        sf.set_entry(b_entry);
        for (k, sq) in scatter_init.iter().enumerate() {
            if let Some(q) = sq {
                sf.append_op(
                    b_entry,
                    Op::Consume {
                        queue: *q,
                        dst: hold[k].unwrap(),
                    },
                );
            }
        }
        sf.append_op(b_entry, Op::Jump { target: b_head });
        // Exit test mirrors the duplicated branch's polarity.
        sf.append_op(
            b_head,
            Op::Consume {
                queue: shape.flag_queue,
                dst: c,
            },
        );
        let exit_op = if shape.exit_on_true {
            CmpOp::Ne
        } else {
            CmpOp::Eq
        };
        sf.append_op(
            b_head,
            Op::Cmp {
                dst: t,
                op: exit_op,
                lhs: c.into(),
                rhs: 0.into(),
            },
        );
        sf.append_op(
            b_head,
            Op::Br {
                cond: t,
                then_: b_exit,
                else_: b_pick,
            },
        );
        sf.append_op(
            b_pick,
            Op::QueueDepth {
                dst: best,
                queue: flag_inst[0],
            },
        );
        sf.append_op(
            b_pick,
            Op::Const {
                dst: pick,
                value: 0,
            },
        );
        sf.append_op(
            b_pick,
            Op::Jump {
                target: *chk.first().unwrap_or(&disp[0]),
            },
        );
        for r in 1..n {
            let next = *chk.get(r).unwrap_or(&disp[0]);
            sf.append_op(
                chk[r - 1],
                Op::QueueDepth {
                    dst: d,
                    queue: flag_inst[r],
                },
            );
            sf.append_op(
                chk[r - 1],
                Op::Cmp {
                    dst: t,
                    op: CmpOp::Lt,
                    lhs: d.into(),
                    rhs: best.into(),
                },
            );
            sf.append_op(
                chk[r - 1],
                Op::Br {
                    cond: t,
                    then_: upd[r - 1],
                    else_: next,
                },
            );
            sf.append_op(
                upd[r - 1],
                Op::Unary {
                    dst: best,
                    op: dswp_ir::UnOp::Mov,
                    src: d.into(),
                },
            );
            sf.append_op(
                upd[r - 1],
                Op::Const {
                    dst: pick,
                    value: r as i64,
                },
            );
            sf.append_op(upd[r - 1], Op::Jump { target: next });
        }
        for r in 0..n {
            if r + 1 < n {
                sf.append_op(
                    disp[r],
                    Op::Cmp {
                        dst: t,
                        op: CmpOp::Eq,
                        lhs: pick.into(),
                        rhs: (r as i64).into(),
                    },
                );
                sf.append_op(
                    disp[r],
                    Op::Br {
                        cond: t,
                        then_: fwd[r],
                        else_: disp[r + 1],
                    },
                );
            } else {
                sf.append_op(disp[r], Op::Jump { target: fwd[r] });
            }
            sf.append_op(
                fwd[r],
                Op::Produce {
                    queue: flag_inst[r],
                    src: c.into(),
                },
            );
            for (k, q) in shape.in_data.iter().enumerate() {
                if let Some(h) = hold[k] {
                    // Previous value first (for the replica's top-of-
                    // iteration consume), then this iteration's.
                    sf.append_op(
                        fwd[r],
                        Op::Produce {
                            queue: in_data_inst[k][r],
                            src: h.into(),
                        },
                    );
                    sf.append_op(
                        fwd[r],
                        Op::Consume {
                            queue: q.queue,
                            dst: h,
                        },
                    );
                    sf.append_op(
                        fwd[r],
                        Op::Produce {
                            queue: in_data_inst[k][r],
                            src: h.into(),
                        },
                    );
                } else {
                    sf.append_op(
                        fwd[r],
                        Op::Consume {
                            queue: q.queue,
                            dst: v,
                        },
                    );
                    sf.append_op(
                        fwd[r],
                        Op::Produce {
                            queue: in_data_inst[k][r],
                            src: v.into(),
                        },
                    );
                }
            }
            for (k, &q) in shape.in_tok.iter().enumerate() {
                sf.append_op(fwd[r], Op::ConsumeToken { queue: q });
                sf.append_op(
                    fwd[r],
                    Op::ProduceToken {
                        queue: in_tok_inst[k][r],
                    },
                );
            }
            if let Some(ctl) = ctl {
                // Tag the control entry with the chosen replica (`r + 1`;
                // `0` is reserved for exit) so the gather can follow any
                // routing policy without re-deriving it.
                sf.append_op(
                    fwd[r],
                    Op::Produce {
                        queue: ctl,
                        src: (r as i64 + 1).into(),
                    },
                );
            }
            sf.append_op(fwd[r], Op::Jump { target: b_step });
        }
        sf.append_op(b_step, Op::Jump { target: b_head });
        for &q in &flag_inst {
            sf.append_op(
                b_exit,
                Op::Produce {
                    queue: q,
                    src: c.into(),
                },
            );
        }
        if let Some(ctl) = ctl {
            sf.append_op(
                b_exit,
                Op::Produce {
                    queue: ctl,
                    src: 0.into(),
                },
            );
        }
        sf.append_op(b_exit, Op::Ret);
        program.add_function(sf)
    };

    // ---- gather ----
    let gather_fid = if has_gather {
        let mut gf = Function::new(format!("dswp.gather{stage}"));
        let c = gf.new_reg();
        let ctr = gf.new_reg();
        let t = gf.new_reg();
        let v = gf.new_reg();
        let b_entry = gf.add_block("entry");
        let b_head = gf.add_block("head");
        let b_tag = gf.add_block("tag");
        let b_step = gf.add_block("step");
        let b_done = gf.add_block("done");
        let disp: Vec<BlockId> = (0..n).map(|r| gf.add_block(format!("disp{r}"))).collect();
        let fwd: Vec<BlockId> = (0..n).map(|r| gf.add_block(format!("fwd{r}"))).collect();
        gf.set_entry(b_entry);
        gf.append_op(b_entry, Op::Jump { target: b_head });
        gf.append_op(
            b_head,
            Op::Consume {
                queue: ctl.unwrap(),
                dst: c,
            },
        );
        gf.append_op(
            b_head,
            Op::Cmp {
                dst: t,
                op: CmpOp::Eq,
                lhs: c.into(),
                rhs: 0.into(),
            },
        );
        gf.append_op(
            b_head,
            Op::Br {
                cond: t,
                then_: b_done,
                else_: b_tag,
            },
        );
        // The control tag carries the scatter's routing decision: replica
        // index plus one. Decoding it here keeps the gather independent of
        // how the scatter picked the replica.
        gf.append_op(
            b_tag,
            Op::Binary {
                dst: ctr,
                op: BinOp::Sub,
                lhs: c.into(),
                rhs: 1.into(),
            },
        );
        gf.append_op(b_tag, Op::Jump { target: disp[0] });
        for r in 0..n {
            if r + 1 < n {
                gf.append_op(
                    disp[r],
                    Op::Cmp {
                        dst: t,
                        op: CmpOp::Eq,
                        lhs: ctr.into(),
                        rhs: (r as i64).into(),
                    },
                );
                gf.append_op(
                    disp[r],
                    Op::Br {
                        cond: t,
                        then_: fwd[r],
                        else_: disp[r + 1],
                    },
                );
            } else {
                gf.append_op(disp[r], Op::Jump { target: fwd[r] });
            }
            for (k, &q) in shape.out_data.iter().enumerate() {
                gf.append_op(
                    fwd[r],
                    Op::Consume {
                        queue: out_data_inst[k][r],
                        dst: v,
                    },
                );
                gf.append_op(
                    fwd[r],
                    Op::Produce {
                        queue: q,
                        src: v.into(),
                    },
                );
            }
            for (k, &q) in shape.out_tok.iter().enumerate() {
                gf.append_op(
                    fwd[r],
                    Op::ConsumeToken {
                        queue: out_tok_inst[k][r],
                    },
                );
                gf.append_op(fwd[r], Op::ProduceToken { queue: q });
            }
            gf.append_op(fwd[r], Op::Jump { target: b_step });
        }
        gf.append_op(b_step, Op::Jump { target: b_head });
        gf.append_op(b_done, Op::Ret);
        Some(program.add_function(gf))
    } else {
        None
    };

    // ---- masters (one fresh context per replica, plus the gather's) ----
    for (r, &mq) in replica_mqs.iter().enumerate() {
        add_master(program, format!("dswp.master{stage}.r{r}"), mq);
    }
    if let Some(gmq) = gather_mq {
        add_master(program, format!("dswp.master{stage}.g"), gmq);
    }

    // ---- main-thread preheader and landing ----
    {
        let f = program.function_mut(func);
        // The stage's original master now runs the scatter.
        if let Op::Produce { src, .. } = f.op_mut(wake) {
            *src = Operand::Imm(scatter_fid.index() as i64);
        }
        // Duplicate each initial-value produce for the extra replicas (and
        // the scatter's seed copies), right after the original.
        let inits: Vec<(usize, usize, Operand)> = f
            .block(norm.preheader)
            .instrs()
            .iter()
            .enumerate()
            .filter_map(|(pos, &i)| match *f.op(i) {
                Op::Produce { queue, src } => shape
                    .init_queues
                    .iter()
                    .position(|&(q, _)| q == queue)
                    .map(|k| (pos, k, src)),
                _ => None,
            })
            .collect();
        for &(pos, k, src) in inits.iter().rev() {
            let mut extra: Vec<QueueId> = init_inst[k].clone();
            let (_, reg) = shape.init_queues[k];
            extra.extend(
                shape
                    .in_data
                    .iter()
                    .enumerate()
                    .filter_map(|(j, q)| (q.dst == reg).then_some(scatter_init[j]).flatten()),
            );
            for (off, q) in extra.into_iter().enumerate() {
                let id = f.add_instr(Op::Produce { queue: q, src });
                f.insert_instr(norm.preheader, pos + 1 + off, id);
            }
        }
        // Wake the replica masters (and gather master) first thing.
        let mut at = 0;
        for (r, &mq) in replica_mqs.iter().enumerate() {
            let id = f.add_instr(Op::Produce {
                queue: mq,
                src: Operand::Imm(replica_fids[r].index() as i64),
            });
            f.insert_instr(norm.preheader, at, id);
            at += 1;
        }
        if let (Some(gmq), Some(gfid)) = (gather_mq, gather_fid) {
            let id = f.add_instr(Op::Produce {
                queue: gmq,
                src: Operand::Imm(gfid.index() as i64),
            });
            f.insert_instr(norm.preheader, at, id);
        }
        // Wait for every replica's completion token, not just replica 0's.
        for (off, &q) in completion_extra.iter().enumerate() {
            let id = f.add_instr(Op::ConsumeToken { queue: q });
            f.insert_instr(norm.landing, completion_at + 1 + off, id);
        }
    }

    // ---- termination sentinels for the new master queues ----
    let mut new_mqs = replica_mqs.clone();
    new_mqs.extend(gather_mq);
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
            for (k, &mq) in new_mqs.iter().enumerate() {
                let id = f.add_instr(Op::Produce {
                    queue: mq,
                    src: Operand::Imm(TERMINATE_SENTINEL),
                });
                f.insert_instr(b, pos + k, id);
            }
        }
    }

    Some(ReplicationInfo {
        stage,
        replicas: n,
        scatter: scatter_fid,
        gather: gather_fid,
        replica_functions: replica_fids,
        new_queues: (program.num_queues - queues_before) as usize,
        new_threads: n + usize::from(has_gather),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_plans_water_fill_to_the_sequential_floor() {
        // Stage 1 (40) fills until its per-replica time reaches the
        // non-replicable floor (stage 0, 10): 40 / 4 = 10.
        assert_eq!(
            replica_plans(&[10.0, 40.0, 5.0], &[false, true, false], 8),
            vec![(1, 4)]
        );
        // The core budget stops the fill first.
        assert_eq!(
            replica_plans(&[10.0, 40.0, 5.0], &[false, true, false], 3),
            vec![(1, 3)]
        );
        // So does the per-stage cap.
        assert_eq!(
            replica_plans(&[1.0, 1000.0], &[false, true], 64),
            vec![(1, MAX_REPLICAS)]
        );
        // Each round feeds the stage with the worst per-replica time.
        assert_eq!(
            replica_plans(&[1.0, 30.0, 20.0], &[false, true, true], 4),
            vec![(1, 2), (2, 2)]
        );
        assert!(replica_plans(&[10.0, 40.0], &[false, true], 1).is_empty());
        assert!(replica_plans(&[10.0, 40.0], &[false, false], 8).is_empty());
    }
}
