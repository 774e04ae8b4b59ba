//! Stage/queue topology metadata for transformed programs.
//!
//! The DSWP transformation leaves behind a multi-threaded [`Program`] whose
//! structure — which functions each pipeline stage executes, and which
//! stage sits at each end of every synchronization-array queue — is
//! implicit in the code. The native runtime (`dswp-rt`) and its
//! differential tests need that structure explicitly: the runtime's SPSC
//! ring-buffer queues are only correct if every queue really has a single
//! producer stage and a single consumer stage.
//!
//! [`PipelineMap::infer`] recovers the topology statically:
//!
//! 1. each stage's function set is the closure of its thread entry over
//!    direct calls;
//! 2. indirect calls (the Section 3 master-loop protocol: the main thread
//!    produces a function id, the master function consumes it and
//!    `callind`s) are resolved by collecting the constant function ids
//!    produced onto the queue the `callind`'s register was consumed from,
//!    iterating to a fixpoint;
//! 3. queue endpoints are then the stages whose function sets contain a
//!    produce (resp. consume) on that queue.
//!
//! [`PipelineMap::validate`] checks the SPSC discipline and that no queue
//! is produced into but never consumed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dswp_ir::{FuncId, Op, Operand, Program};

/// One pipeline stage (hardware context) of a transformed program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageInfo {
    /// The stage's thread-entry function.
    pub entry: FuncId,
    /// Every function the stage can execute (entry, direct-call closure,
    /// and resolved indirect-call targets), in ascending id order.
    pub functions: Vec<FuncId>,
}

/// What a queue carries, inferred from the instructions that touch it.
///
/// The distinction drives the native runtime's batching hints
/// ([`PipelineMap::batch_hints`]): data queues tolerate deep chunking
/// (values are consumed in bulk anyway), while token queues exist to
/// release a waiting peer — holding a chunk of tokens back only adds
/// latency, so their batch is capped low.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// No instruction touches the queue.
    #[default]
    Unused,
    /// Only `produce`/`consume` (value-carrying) instructions.
    Data,
    /// Only `produce.token`/`consume.token` (synchronization-only)
    /// instructions.
    Token,
    /// Both value-carrying and token instructions.
    Mixed,
}

impl QueueKind {
    fn merge(self, other: QueueKind) -> QueueKind {
        use QueueKind::*;
        match (self, other) {
            (Unused, k) | (k, Unused) => k,
            (Data, Data) => Data,
            (Token, Token) => Token,
            _ => Mixed,
        }
    }
}

/// The stages at the two ends of one queue.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueEndpoints {
    /// Stages containing a `produce`/`produce.token` on this queue.
    pub producers: Vec<usize>,
    /// Stages containing a `consume`/`consume.token` on this queue.
    pub consumers: Vec<usize>,
    /// What the queue carries (data values, tokens, or both).
    pub kind: QueueKind,
}

impl QueueEndpoints {
    /// Whether the queue appears in any stage at all.
    pub fn is_used(&self) -> bool {
        !self.producers.is_empty() || !self.consumers.is_empty()
    }
}

/// A violation of the pipeline discipline the native runtime assumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineMapError {
    /// More than one stage produces into the queue (violates SPSC).
    MultipleProducers {
        /// The offending queue.
        queue: usize,
        /// The producing stages.
        stages: Vec<usize>,
    },
    /// More than one stage consumes from the queue (violates SPSC).
    MultipleConsumers {
        /// The offending queue.
        queue: usize,
        /// The consuming stages.
        stages: Vec<usize>,
    },
    /// A stage produces into a queue no stage consumes: with bounded
    /// queues the producer eventually blocks forever.
    NoConsumer {
        /// The offending queue.
        queue: usize,
    },
    /// A stage consumes from a queue no stage produces into: the consumer
    /// blocks forever.
    NoProducer {
        /// The offending queue.
        queue: usize,
    },
}

impl fmt::Display for PipelineMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineMapError::MultipleProducers { queue, stages } => {
                write!(f, "queue {queue} has multiple producer stages {stages:?}")
            }
            PipelineMapError::MultipleConsumers { queue, stages } => {
                write!(f, "queue {queue} has multiple consumer stages {stages:?}")
            }
            PipelineMapError::NoConsumer { queue } => {
                write!(f, "queue {queue} is produced into but never consumed")
            }
            PipelineMapError::NoProducer { queue } => {
                write!(f, "queue {queue} is consumed from but never produced into")
            }
        }
    }
}

impl std::error::Error for PipelineMapError {}

/// The stage/queue topology of a (transformed) multi-threaded program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineMap {
    /// One entry per hardware context, in thread order (stage 0 = main).
    pub stages: Vec<StageInfo>,
    /// One entry per queue id.
    pub queues: Vec<QueueEndpoints>,
}

/// Constant function ids produced onto each queue anywhere in the program
/// (the master-loop protocol produces `Operand::Imm(fid)`).
fn produced_fids_per_queue(program: &Program) -> BTreeMap<usize, BTreeSet<FuncId>> {
    let mut map: BTreeMap<usize, BTreeSet<FuncId>> = BTreeMap::new();
    for func in program.functions() {
        for (_, instr) in func.instr_ids() {
            if let Op::Produce {
                queue,
                src: Operand::Imm(v),
            } = *func.op(instr)
            {
                if let Ok(idx) = usize::try_from(v) {
                    if idx < program.functions().len() {
                        map.entry(queue.index())
                            .or_default()
                            .insert(FuncId::from_index(idx));
                    }
                }
            }
        }
    }
    map
}

/// Queues a function set consumes from via the `consume r, q; ...;
/// callind r` master pattern.
fn callind_source_queues(program: &Program, funcs: &BTreeSet<FuncId>) -> BTreeSet<usize> {
    let mut queues = BTreeSet::new();
    for &fid in funcs {
        let func = program.function(fid);
        if !func
            .instr_ids()
            .any(|(_, i)| matches!(func.op(i), Op::CallInd { .. }))
        {
            continue;
        }
        // Conservative: any queue this function consumes could feed the
        // indirect call's register.
        for (_, instr) in func.instr_ids() {
            if let Op::Consume { queue, .. } = func.op(instr) {
                queues.insert(queue.index());
            }
        }
    }
    queues
}

impl PipelineMap {
    /// Recovers the stage/queue topology of `program`.
    pub fn infer(program: &Program) -> Self {
        let num_queues = program.num_queues as usize;
        let fid_candidates = produced_fids_per_queue(program);

        // Per-stage function closure, to a fixpoint over indirect calls.
        let mut stage_funcs: Vec<BTreeSet<FuncId>> = program
            .thread_entries()
            .iter()
            .map(|&entry| {
                let mut set = BTreeSet::new();
                direct_closure(program, entry, &mut set);
                set
            })
            .collect();
        loop {
            let mut changed = false;
            for funcs in &mut stage_funcs {
                for q in callind_source_queues(program, funcs) {
                    if let Some(fids) = fid_candidates.get(&q) {
                        for &fid in fids {
                            if !funcs.contains(&fid) {
                                direct_closure(program, fid, funcs);
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Queue endpoints from the per-stage closures.
        let mut queues = vec![QueueEndpoints::default(); num_queues];
        for (stage, funcs) in stage_funcs.iter().enumerate() {
            for &fid in funcs {
                let func = program.function(fid);
                for (_, instr) in func.instr_ids() {
                    match *func.op(instr) {
                        Op::Produce { queue, .. } => {
                            let ep = &mut queues[queue.index()];
                            push_unique(&mut ep.producers, stage);
                            ep.kind = ep.kind.merge(QueueKind::Data);
                        }
                        Op::ProduceToken { queue } => {
                            let ep = &mut queues[queue.index()];
                            push_unique(&mut ep.producers, stage);
                            ep.kind = ep.kind.merge(QueueKind::Token);
                        }
                        Op::Consume { queue, .. } => {
                            let ep = &mut queues[queue.index()];
                            push_unique(&mut ep.consumers, stage);
                            ep.kind = ep.kind.merge(QueueKind::Data);
                        }
                        Op::ConsumeToken { queue } => {
                            let ep = &mut queues[queue.index()];
                            push_unique(&mut ep.consumers, stage);
                            ep.kind = ep.kind.merge(QueueKind::Token);
                        }
                        _ => {}
                    }
                }
            }
        }

        let stages = program
            .thread_entries()
            .iter()
            .zip(&stage_funcs)
            .map(|(&entry, funcs)| StageInfo {
                entry,
                functions: funcs.iter().copied().collect(),
            })
            .collect();
        PipelineMap { stages, queues }
    }

    /// Checks the discipline the native runtime's SPSC queues assume:
    /// every used queue has exactly one producer stage and exactly one
    /// consumer stage.
    pub fn validate(&self) -> Result<(), PipelineMapError> {
        for (q, ep) in self.queues.iter().enumerate() {
            if ep.producers.len() > 1 {
                return Err(PipelineMapError::MultipleProducers {
                    queue: q,
                    stages: ep.producers.clone(),
                });
            }
            if ep.consumers.len() > 1 {
                return Err(PipelineMapError::MultipleConsumers {
                    queue: q,
                    stages: ep.consumers.clone(),
                });
            }
            if !ep.producers.is_empty() && ep.consumers.is_empty() {
                return Err(PipelineMapError::NoConsumer { queue: q });
            }
            if ep.producers.is_empty() && !ep.consumers.is_empty() {
                return Err(PipelineMapError::NoProducer { queue: q });
            }
        }
        Ok(())
    }

    /// `true` when [`validate`](Self::validate) passes.
    pub fn is_spsc(&self) -> bool {
        self.validate().is_ok()
    }

    /// Per-queue communication batch (chunk) sizes for a requested base
    /// batch, one entry per queue id.
    ///
    /// Data and mixed queues get the full `batch`; token queues are capped
    /// at 4 (a token's whole job is to release a waiting peer — sitting on
    /// a deep chunk of them only defers that); unused queues get 1. The
    /// result plugs straight into the native runtime's per-queue batch
    /// override.
    pub fn batch_hints(&self, batch: usize) -> Vec<usize> {
        let batch = batch.max(1);
        self.queues
            .iter()
            .map(|ep| match ep.kind {
                QueueKind::Data | QueueKind::Mixed => batch,
                QueueKind::Token => batch.clamp(1, 4),
                QueueKind::Unused => 1,
            })
            .collect()
    }

    /// The role each hardware context plays, recovered from the
    /// transformation's function-naming convention (`dswp.master{t}`,
    /// `dswp.master{t}.r{r}`, `dswp.master{t}.g`, `dswp.scatter{t}`).
    pub fn roles(&self, program: &Program) -> Vec<StageRole> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                if i == 0 {
                    return StageRole::Main;
                }
                let name = &program.function(stage.entry).name;
                let Some(rest) = name.strip_prefix("dswp.master") else {
                    return StageRole::Stage(i);
                };
                let mut parts = rest.splitn(2, '.');
                let Some(Ok(t)) = parts.next().map(str::parse::<usize>) else {
                    return StageRole::Stage(i);
                };
                match parts.next() {
                    None => {
                        let scatter = format!("dswp.scatter{t}");
                        if stage
                            .functions
                            .iter()
                            .any(|&f| program.function(f).name == scatter)
                        {
                            StageRole::Scatter(t)
                        } else {
                            StageRole::Stage(t)
                        }
                    }
                    Some("g") => StageRole::Gather(t),
                    Some(r) => match r.strip_prefix('r').and_then(|s| s.parse().ok()) {
                        Some(index) => StageRole::Replica { stage: t, index },
                        None => StageRole::Stage(t),
                    },
                }
            })
            .collect()
    }

    /// Groups the contexts belonging to each replicated stage: the scatter
    /// context, the replica contexts (in replica-index order), the optional
    /// gather context, and the queue sets the scatter feeds / the gather
    /// drains. Empty when the program is unreplicated.
    pub fn replica_groups(&self, program: &Program) -> Vec<ReplicaGroup> {
        let roles = self.roles(program);
        let mut groups: BTreeMap<usize, ReplicaGroup> = BTreeMap::new();
        fn group(groups: &mut BTreeMap<usize, ReplicaGroup>, stage: usize) -> &mut ReplicaGroup {
            groups.entry(stage).or_insert_with(|| ReplicaGroup {
                stage,
                scatter_thread: 0,
                replica_threads: Vec::new(),
                gather_thread: None,
                scatter_queues: Vec::new(),
                gather_queues: Vec::new(),
            })
        }
        for (i, role) in roles.iter().enumerate() {
            match *role {
                StageRole::Scatter(t) => group(&mut groups, t).scatter_thread = i,
                StageRole::Replica { stage, index } => {
                    let g = group(&mut groups, stage);
                    g.replica_threads.push(i);
                    debug_assert_eq!(g.replica_threads.len() - 1, index);
                }
                StageRole::Gather(t) => group(&mut groups, t).gather_thread = Some(i),
                StageRole::Main | StageRole::Stage(_) => {}
            }
        }
        let mut out: Vec<ReplicaGroup> = groups.into_values().collect();
        for g in &mut out {
            for (q, ep) in self.queues.iter().enumerate() {
                if ep.producers == [g.scatter_thread] {
                    g.scatter_queues.push(q);
                }
                if let Some(gt) = g.gather_thread {
                    if ep.consumers == [gt] {
                        g.gather_queues.push(q);
                    }
                }
            }
        }
        out
    }

    /// Human-readable one-line-per-item summary (used by `dswpc`).
    pub fn summary(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, stage) in self.stages.iter().enumerate() {
            let names: Vec<&str> = stage
                .functions
                .iter()
                .map(|&f| program.function(f).name.as_str())
                .collect();
            let _ = writeln!(out, "stage {i}: {}", names.join(", "));
        }
        for (q, ep) in self.queues.iter().enumerate() {
            if !ep.is_used() {
                continue;
            }
            let kind = match ep.kind {
                QueueKind::Unused => "unused",
                QueueKind::Data => "data",
                QueueKind::Token => "token",
                QueueKind::Mixed => "mixed",
            };
            let _ = writeln!(
                out,
                "queue {q}: stage {} -> stage {} ({kind})",
                fmt_stages(&ep.producers),
                fmt_stages(&ep.consumers)
            );
        }
        out
    }
}

/// What a hardware context does in a (possibly replicated) pipeline,
/// recovered by [`PipelineMap::roles`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageRole {
    /// Context 0: the original function with the stage-0 loop spliced in.
    Main,
    /// An ordinary pipeline stage's master context.
    Stage(usize),
    /// The scatter of a replicated stage (runs on the stage's original
    /// master context).
    Scatter(usize),
    /// One replica of a replicated stage.
    Replica {
        /// The replicated stage.
        stage: usize,
        /// Index among the stage's replicas (`r` in `dswp.master{t}.r{r}`).
        index: usize,
    },
    /// The in-order gather of a replicated stage.
    Gather(usize),
}

/// The contexts and queue sets of one replicated stage (see
/// [`PipelineMap::replica_groups`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaGroup {
    /// The replicated stage (its index in the unreplicated pipeline).
    pub stage: usize,
    /// Context running the scatter.
    pub scatter_thread: usize,
    /// Contexts running the replicas, in replica-index order.
    pub replica_threads: Vec<usize>,
    /// Context running the gather, when the stage feeds later stages.
    pub gather_thread: Option<usize>,
    /// Queues produced (only) by the scatter: the per-replica instance
    /// queues plus the gather's iteration-tag control queue.
    pub scatter_queues: Vec<usize>,
    /// Queues consumed (only) by the gather: the per-replica instances of
    /// the stage's downstream queues plus the control queue.
    pub gather_queues: Vec<usize>,
}

impl ReplicaGroup {
    /// Every context belonging to the group, scatter first, gather last.
    pub fn threads(&self) -> Vec<usize> {
        let mut v = vec![self.scatter_thread];
        v.extend(&self.replica_threads);
        v.extend(self.gather_thread);
        v
    }
}

fn fmt_stages(stages: &[usize]) -> String {
    match stages {
        [] => "-".to_string(),
        [s] => s.to_string(),
        many => format!("{many:?}"),
    }
}

fn push_unique(v: &mut Vec<usize>, stage: usize) {
    if !v.contains(&stage) {
        v.push(stage);
    }
}

/// Adds `root` and everything reachable from it through direct calls to
/// `out`.
fn direct_closure(program: &Program, root: FuncId, out: &mut BTreeSet<FuncId>) {
    let mut work = vec![root];
    while let Some(fid) = work.pop() {
        if !out.insert(fid) {
            continue;
        }
        let func = program.function(fid);
        for (_, instr) in func.instr_ids() {
            if let Op::Call { callee } = *func.op(instr) {
                if !out.contains(&callee) {
                    work.push(callee);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_ir::{ProgramBuilder, QueueId};

    /// A hand-built two-stage pipeline with a master-loop aux thread:
    /// main produces the aux loop's fid on queue 0 and data on queue 1.
    fn master_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();

        let mut w = pb.function("aux_loop");
        let e = w.entry_block();
        let v = w.reg();
        w.switch_to(e);
        w.consume(v, QueueId(1));
        w.ret();
        let aux_loop = w.finish();

        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.iconst(x, 5);
        f.produce(QueueId(0), aux_loop.index() as i64);
        f.produce(QueueId(1), x);
        f.produce(QueueId(0), -1);
        f.halt();
        let main = f.finish();

        let mut m = pb.function("master");
        let e = m.entry_block();
        let loop_ = m.block("loop");
        let fid = m.reg();
        m.switch_to(e);
        m.jump(loop_);
        m.switch_to(loop_);
        m.consume(fid, QueueId(0));
        m.call_ind(fid);
        m.jump(loop_);
        let master = m.finish();

        let mut p = pb.finish(main, 4);
        p.num_queues = 2;
        p.add_thread(master);
        p
    }

    #[test]
    fn resolves_master_loop_indirect_calls() {
        let p = master_loop_program();
        let map = PipelineMap::infer(&p);
        assert_eq!(map.stages.len(), 2);
        // Stage 1 (master) picks up aux_loop through the callind fixpoint.
        let aux = p.function_by_name("aux_loop").unwrap();
        assert!(map.stages[1].functions.contains(&aux));
        // Queue 0: main -> master; queue 1: main -> aux (stage 1).
        assert_eq!(map.queues[0].producers, vec![0]);
        assert_eq!(map.queues[0].consumers, vec![1]);
        assert_eq!(map.queues[1].producers, vec![0]);
        assert_eq!(map.queues[1].consumers, vec![1]);
        assert!(map.is_spsc());
    }

    #[test]
    fn single_thread_program_has_one_stage() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let map = PipelineMap::infer(&p);
        assert_eq!(map.stages.len(), 1);
        assert!(map.queues.is_empty());
        assert!(map.is_spsc());
    }

    #[test]
    fn classifies_queue_kinds_and_caps_token_batches() {
        // Queue 0 carries data, queue 1 carries tokens, queue 2 sees both
        // (data produce, token consume), queue 3 is declared but untouched.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.iconst(x, 1);
        f.produce(QueueId(0), x);
        f.produce_token(QueueId(1));
        f.produce(QueueId(2), x);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("aux");
        let e2 = g.entry_block();
        let v = g.reg();
        g.switch_to(e2);
        g.consume(v, QueueId(0));
        g.consume_token(QueueId(1));
        g.consume_token(QueueId(2));
        g.halt();
        let aux = g.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 4;
        p.add_thread(aux);

        let map = PipelineMap::infer(&p);
        assert_eq!(map.queues[0].kind, QueueKind::Data);
        assert_eq!(map.queues[1].kind, QueueKind::Token);
        assert_eq!(map.queues[2].kind, QueueKind::Mixed);
        assert_eq!(map.queues[3].kind, QueueKind::Unused);
        assert_eq!(map.batch_hints(16), vec![16, 4, 16, 1]);
        assert_eq!(map.batch_hints(2), vec![2, 2, 2, 1]);
        assert_eq!(map.batch_hints(0), vec![1, 1, 1, 1]);

        let summary = map.summary(&p);
        assert!(summary.contains("(data)"), "{summary}");
        assert!(summary.contains("(token)"), "{summary}");
        assert!(summary.contains("(mixed)"), "{summary}");
    }

    #[test]
    fn detects_spsc_violations() {
        // Both threads produce into queue 0; nobody consumes it.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.produce(QueueId(0), x);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("aux");
        let e2 = g.entry_block();
        let y = g.reg();
        g.switch_to(e2);
        g.produce(QueueId(0), y);
        g.halt();
        let aux = g.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;
        p.add_thread(aux);
        let map = PipelineMap::infer(&p);
        assert_eq!(
            map.validate(),
            Err(PipelineMapError::MultipleProducers {
                queue: 0,
                stages: vec![0, 1]
            })
        );
    }
}
