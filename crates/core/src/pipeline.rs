//! The end-to-end DSWP driver: Figure 3 of the paper.
//!
//! [`dswp_loop`] runs the full pipeline on one candidate loop:
//!
//! 1. normalize the loop shape (dedicated preheader / exit landing);
//! 2. build the dependence graph (`dswp-analysis`);
//! 3. find SCCs and coalesce the `DAG_SCC`; bail out on a single SCC
//!    (Figure 3 line 3 — the 164.gzip case);
//! 4. partition with the TPP heuristic (or a caller-specified partitioning,
//!    used by the "best manually directed" search of Figure 6(a));
//!    bail out when not profitable (Figure 3 line 6);
//! 5. split the code and insert flows ([`apply_dswp`]).
//!
//! Steps 1–3 produce one [`AnalyzedLoop`], computed once and passed whole
//! to the cost, partition, split and replication steps, much as Noelle's
//! DSWP hands every step one loop-dependence-info value.
//! [`analyze_loop`] returns the same analysis on a normalized clone.
//!
//! [`select_loop`] picks the candidate the way Section 4 describes: the most
//! important loop that iterates enough times per invocation.

use std::ops::Deref;

use dswp_ir::interp::Profile;
use dswp_ir::verify::verify_program;
use dswp_ir::{BlockId, FuncId, Function, InstrId, LatencyTable, Program};

use dswp_analysis::{
    build_pdg, find_loops, AliasMode, DagScc, Liveness, NaturalLoop, Pdg, PdgOptions,
};

use crate::error::DswpError;
use crate::estimate::{estimated_speedup, scc_costs, stage_times};
use crate::normalize::{normalize_loop, NormalizedLoop};
use crate::partition::{tpp_heuristic, Partitioning, TppOptions};
use crate::replicate::{
    replica_plans, replicable_stages, replicate_stage, Replicate, ReplicationInfo,
};
use crate::transform::{apply_dswp, DswpArtifacts};

/// Options for the DSWP driver.
#[derive(Clone, Debug)]
pub struct DswpOptions {
    /// Memory-analysis precision used for the PDG.
    pub alias: AliasMode,
    /// Number of hardware contexts to target (the paper uses 2).
    pub max_threads: usize,
    /// Profitability threshold (estimated speedup must exceed this).
    pub min_speedup: f64,
    /// Latency table for the cost estimates.
    pub latency: LatencyTable,
    /// Caller-specified partitioning, bypassing the heuristic and the
    /// profitability gate (used by the manual/iterative search).
    pub partitioning: Option<Partitioning>,
    /// Parallel-stage replication request (see [`crate::replicate`]).
    /// Every legal DOALL stage is replicated after the split —
    /// [`Replicate::Fixed`] gives each one the same replica count,
    /// [`Replicate::Auto`] distributes a total-core budget across them by
    /// water-filling on the stage-time estimate. When no stage is legal
    /// (or structurally eligible) the pipeline is left unreplicated and
    /// [`DswpReport::replication`] stays empty.
    ///
    /// ```
    /// use dswp::{DswpOptions, Replicate};
    ///
    /// // Replicate every DOALL stage 4 ways:
    /// let opts = DswpOptions {
    ///     replicate: Replicate::Fixed(4),
    ///     ..DswpOptions::default()
    /// };
    /// assert_eq!(opts.replicate, Replicate::Fixed(4));
    ///
    /// // Let the load model split 8 cores across the DOALL stages:
    /// let auto = DswpOptions {
    ///     replicate: Replicate::Auto { cores: Some(8) },
    ///     ..DswpOptions::default()
    /// };
    /// assert_eq!(auto.replicate, Replicate::Auto { cores: Some(8) });
    /// ```
    pub replicate: Replicate,
}

impl Default for DswpOptions {
    fn default() -> Self {
        DswpOptions {
            alias: AliasMode::Region,
            max_threads: 2,
            min_speedup: 1.01,
            latency: LatencyTable::default(),
            partitioning: None,
            replicate: Replicate::Off,
        }
    }
}

/// Report of a successful DSWP transformation.
#[derive(Clone, Debug)]
pub struct DswpReport {
    /// Header of the transformed loop (pre-normalization id).
    pub loop_header: BlockId,
    /// Number of basic blocks in the loop.
    pub loop_blocks: usize,
    /// Number of instructions in the loop.
    pub loop_instrs: usize,
    /// Number of SCCs in the dependence graph (Table 1).
    pub num_sccs: usize,
    /// The partitioning that was applied.
    pub partitioning: Partitioning,
    /// Estimated speedup from the static model.
    pub estimated_speedup: f64,
    /// Split artifacts: flow counts, auxiliary/master functions, queues.
    pub artifacts: DswpArtifacts,
    /// What parallel-stage replication did, one entry per replicated
    /// stage in pipeline order (empty when off, not legal, or not
    /// structurally eligible).
    pub replication: Vec<ReplicationInfo>,
}

/// Structural statistics of a candidate loop (without transforming it) —
/// the analysis half of the paper's Table 1.
#[derive(Clone, Debug)]
pub struct LoopStats {
    /// Loop header.
    pub header: BlockId,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Basic blocks in the loop.
    pub blocks: usize,
    /// Instructions in the loop.
    pub instrs: usize,
    /// Function calls inside the loop.
    pub calls: usize,
    /// SCC count of the dependence graph.
    pub sccs: usize,
    /// Size of the largest SCC (instructions).
    pub largest_scc: usize,
}

/// Computes [`LoopStats`] for the loop with `header` in `func`.
///
/// # Errors
///
/// Returns [`DswpError::NoCandidateLoop`] if no such loop exists, or a
/// normalization error.
pub fn loop_stats(
    program: &Program,
    func: FuncId,
    header: BlockId,
    alias: AliasMode,
) -> Result<LoopStats, DswpError> {
    let a = analyze_loop(program, func, header, alias)?;
    let f = a.normalized.function(func);
    let calls = a.loop_instrs().filter(|&i| f.op(i).is_barrier()).count();
    Ok(LoopStats {
        header,
        depth: a.loop_.depth,
        blocks: a.loop_.blocks.len(),
        instrs: a.pdg.num_instr_nodes(),
        calls,
        sccs: a.dag.len(),
        largest_scc: a.dag.sccs.iter().map(Vec::len).max().unwrap_or(0),
    })
}

/// One candidate loop after normalization and dependence analysis: every
/// fact the cost, partition, split and replication steps read, computed
/// once on the program it was built from.
#[derive(Clone, Debug)]
pub struct AnalyzedLoop {
    /// The function holding the loop.
    pub(crate) func: FuncId,
    /// The memory-analysis precision the PDG was built with.
    pub(crate) alias: AliasMode,
    /// The loop's preheader and exit landing.
    pub(crate) norm: NormalizedLoop,
    /// The natural loop, normalized.
    pub loop_: NaturalLoop,
    /// The loop's program dependence graph.
    pub pdg: Pdg,
    /// The coalesced `DAG_SCC`.
    pub dag: DagScc,
}

impl AnalyzedLoop {
    /// Verifies `program`, normalizes the loop with `header` in `func` in
    /// place, and builds its PDG and `DAG_SCC`.
    ///
    /// # Errors
    ///
    /// [`DswpError::InvalidProgram`], [`DswpError::NoCandidateLoop`] or a
    /// normalization error; `program` is unchanged then.
    pub(crate) fn new(
        program: &mut Program,
        func: FuncId,
        header: BlockId,
        alias: AliasMode,
    ) -> Result<Self, DswpError> {
        check_program(program)?;
        let l = find_loop(program.function(func), header)?;
        let (norm, loop_) = normalize_loop(program.function_mut(func), &l)?;
        let f = program.function(func);
        let pdg = build_pdg(f, &loop_, &Liveness::compute(f), &PdgOptions { alias });
        let dag = DagScc::compute(&pdg.instr_graph());
        Ok(AnalyzedLoop {
            func,
            alias,
            norm,
            loop_,
            pdg,
            dag,
        })
    }

    /// The loop's instructions, in PDG node order.
    pub(crate) fn loop_instrs(&self) -> impl Iterator<Item = InstrId> + '_ {
        (0..self.pdg.num_instr_nodes()).filter_map(|n| self.pdg.instr_of(n))
    }
}

/// The analysis of one candidate loop on a normalized clone of the program
/// (the input program is untouched). It reads as the [`AnalyzedLoop`] it
/// holds.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    /// Clone of the program with the loop normalized.
    pub normalized: Program,
    /// The loop's analysis, on `normalized`.
    pub analyzed: AnalyzedLoop,
}

impl Deref for LoopAnalysis {
    type Target = AnalyzedLoop;

    fn deref(&self) -> &AnalyzedLoop {
        &self.analyzed
    }
}

/// Analyzes the loop with `header` in `func` without transforming
/// `program`: normalization and PDG/SCC construction happen on an internal
/// clone, returned in [`LoopAnalysis::normalized`].
///
/// # Errors
///
/// Returns [`DswpError::NoCandidateLoop`] or a normalization error.
pub fn analyze_loop(
    program: &Program,
    func: FuncId,
    header: BlockId,
    alias: AliasMode,
) -> Result<LoopAnalysis, DswpError> {
    let mut normalized = program.clone();
    let analyzed = AnalyzedLoop::new(&mut normalized, func, header, alias)?;
    Ok(LoopAnalysis {
        normalized,
        analyzed,
    })
}

/// The natural loop of `f` with `header`.
pub(crate) fn find_loop(f: &Function, header: BlockId) -> Result<NaturalLoop, DswpError> {
    find_loops(f)
        .into_iter()
        .find(|l| l.header == header)
        .ok_or(DswpError::NoCandidateLoop)
}

/// Structural-verification gate shared by the public loop-level entry
/// points: the transformation indexes registers, blocks, queues and call
/// targets without further checks, so malformed (e.g. hand-written and
/// mis-edited) programs must be turned away with a typed error here rather
/// than panicking mid-transformation.
fn check_program(program: &Program) -> Result<(), DswpError> {
    verify_program(program).map_err(|e| DswpError::InvalidProgram(e.to_string()))
}

/// Runs the full DSWP pipeline on the loop with `header` in `func`,
/// transforming `program` in place.
///
/// # Errors
///
/// * [`DswpError::NoCandidateLoop`] — no loop with that header;
/// * [`DswpError::MultipleExitTargets`] — unsupported loop shape;
/// * [`DswpError::SingleScc`] — the dependence graph is one recurrence;
/// * [`DswpError::NotProfitable`] — the heuristic declined (Figure 3
///   line 6);
/// * [`DswpError::InvalidPartition`] / [`DswpError::TooManyThreads`] — a
///   caller-specified partitioning is unusable;
/// * [`DswpError::InvalidProgram`] — the input fails structural
///   verification.
pub fn dswp_loop(
    program: &mut Program,
    func: FuncId,
    header: BlockId,
    profile: &Profile,
    opts: &DswpOptions,
) -> Result<DswpReport, DswpError> {
    let a = AnalyzedLoop::new(program, func, header, opts.alias)?;
    if a.dag.len() <= 1 {
        return Err(DswpError::SingleScc);
    }

    // Partition.
    let costs = scc_costs(program, &a, profile, &opts.latency);
    let partitioning = match &opts.partitioning {
        Some(p) => {
            p.validate(&a.dag, opts.max_threads)?;
            p.clone()
        }
        None => {
            let p = tpp_heuristic(
                &a.dag,
                &costs,
                &TppOptions {
                    max_threads: opts.max_threads,
                    min_speedup: opts.min_speedup,
                },
            );
            if p.num_threads < 2 {
                return Err(DswpError::NotProfitable);
            }
            p.validate(&a.dag, opts.max_threads)?;
            p
        }
    };
    let times = stage_times(&a, &partitioning, &costs, profile, opts.latency.queue);
    let est = estimated_speedup(&costs, &times);
    if opts.partitioning.is_none() && est < opts.min_speedup {
        return Err(DswpError::NotProfitable);
    }

    // Replication plan (decided before the split mutates the function:
    // legality reads the pre-split program). One `(stage, replicas)` pair
    // per stage to replicate, in stage order.
    let repl_plan: Vec<(usize, usize)> = match opts.replicate {
        Replicate::Off | Replicate::Fixed(0..=1) => Vec::new(),
        Replicate::Fixed(k) => replicable_stages(program, &a, &partitioning)
            .into_iter()
            .enumerate()
            .filter(|&(_, ok)| ok)
            .map(|(t, _)| (t, k))
            .collect(),
        Replicate::Auto { cores } => {
            let cores = cores
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            let replicable = replicable_stages(program, &a, &partitioning);
            replica_plans(&times, &replicable, cores)
        }
    };

    // Split.
    let artifacts = apply_dswp(program, &a, &partitioning)?;
    // Replicate each planned stage in turn. The calls compose: every call
    // only rewrites its own stage's auxiliary function and mints fresh
    // queues/functions, so earlier replications are never disturbed.
    let replication: Vec<ReplicationInfo> = repl_plan
        .into_iter()
        .filter_map(|(t, k)| replicate_stage(program, &a, artifacts.aux_functions[t - 1], t, k))
        .collect();
    Ok(DswpReport {
        loop_header: header,
        loop_blocks: a.loop_.blocks.len(),
        loop_instrs: a.pdg.num_instr_nodes(),
        num_sccs: a.dag.len(),
        partitioning,
        estimated_speedup: est,
        artifacts,
        replication,
    })
}

/// Runs the scalar-evolution pass over the loop with `header`, deriving
/// affine annotations for its memory accesses in place (see
/// [`dswp_analysis::scev`]). Run this before [`dswp_loop`] with
/// [`AliasMode::Precise`] when the program carries no hand-written affine
/// facts — the automated version of the paper's "accurate memory analysis"
/// (Section 5.1).
///
/// # Errors
///
/// Returns [`DswpError::NoCandidateLoop`] if no loop with that header
/// exists.
pub fn annotate_loop_affine(
    program: &mut Program,
    func: FuncId,
    header: BlockId,
) -> Result<dswp_analysis::ScevStats, DswpError> {
    let l = find_loop(program.function(func), header)?;
    Ok(dswp_analysis::annotate_affine(
        program.function_mut(func),
        &l,
    ))
}

/// Selects the DSWP candidate loop of `func` the way Section 4 of the paper
/// does: the loop with the largest profiled execution weight among loops
/// that iterate at least `min_avg_iters` times per invocation on average.
pub fn select_loop(
    program: &Program,
    func: FuncId,
    profile: &Profile,
    min_avg_iters: f64,
) -> Option<BlockId> {
    let f = program.function(func);
    let loops = find_loops(f);
    let mut best: Option<(f64, BlockId)> = None;
    for l in &loops {
        let header_w = profile.weight(func, l.header) as f64;
        if header_w == 0.0 {
            continue;
        }
        // Entries ≈ header executions − back-edge traversals.
        let latch_w: f64 = l
            .latches
            .iter()
            .map(|&b| profile.weight(func, b) as f64)
            .sum();
        let entries = (header_w - latch_w).max(1.0);
        if header_w / entries < min_avg_iters {
            continue;
        }
        let weight: f64 = l
            .blocks
            .iter()
            .map(|&b| profile.weight(func, b) as f64 * f.block(b).instrs().len() as f64)
            .sum();
        if best.map(|(w, _)| weight > w).unwrap_or(true) {
            best = Some((weight, l.header));
        }
    }
    best.map(|(_, h)| h)
}
