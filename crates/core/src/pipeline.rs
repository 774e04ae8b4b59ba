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
//! [`select_loop`] picks the candidate the way Section 4 describes: the most
//! important loop that iterates enough times per invocation.

use dswp_ir::interp::Profile;
use dswp_ir::verify::verify_program;
use dswp_ir::{BlockId, FuncId, LatencyTable, Program};

use dswp_analysis::{build_pdg, find_loops, AliasMode, DagScc, Liveness, PdgOptions};

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
    // Work on a clone: stats must not mutate the program.
    let mut scratch = program.clone();
    let Analyzed { dag, l, .. } = analyze(&mut scratch, func, header, alias)?;
    let f = scratch.function(func);
    let calls = l
        .blocks
        .iter()
        .flat_map(|&b| f.block(b).instrs())
        .filter(|&&i| f.op(i).is_barrier())
        .count();
    Ok(LoopStats {
        header,
        depth: l.depth,
        blocks: l.blocks.len(),
        instrs: l.blocks.iter().map(|&b| f.block(b).instrs().len()).sum(),
        calls,
        sccs: dag.len(),
        largest_scc: dag.sccs.iter().map(Vec::len).max().unwrap_or(0),
    })
}

/// The analysis products of one candidate loop, computed on a normalized
/// clone of the program (the input program is untouched).
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    /// Clone of the program with the loop normalized.
    pub normalized: Program,
    /// The loop's program dependence graph.
    pub pdg: dswp_analysis::Pdg,
    /// The coalesced `DAG_SCC`.
    pub dag: DagScc,
    /// The (re-discovered, post-normalization) natural loop.
    pub loop_: dswp_analysis::NaturalLoop,
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
    let mut scratch = program.clone();
    let Analyzed { pdg, dag, l, .. } = analyze(&mut scratch, func, header, alias)?;
    Ok(LoopAnalysis {
        normalized: scratch,
        pdg,
        dag,
        loop_: l,
    })
}

/// What [`analyze`] produces for one loop.
struct Analyzed {
    norm: NormalizedLoop,
    /// The natural loop, re-discovered after normalization.
    l: dswp_analysis::NaturalLoop,
    pdg: dswp_analysis::Pdg,
    dag: DagScc,
}

/// The analysis sequence shared by every loop-level entry point: verify
/// `program`, normalize the loop with `header` in place, and build its PDG
/// and `DAG_SCC`.
fn analyze(
    program: &mut Program,
    func: FuncId,
    header: BlockId,
    alias: AliasMode,
) -> Result<Analyzed, DswpError> {
    check_program(program)?;
    let l = find_loops(program.function(func))
        .into_iter()
        .find(|l| l.header == header)
        .ok_or(DswpError::NoCandidateLoop)?;
    let norm = normalize_loop(program.function_mut(func), &l)?;
    let l = find_loops(program.function(func))
        .into_iter()
        .find(|l| l.header == header)
        .ok_or(DswpError::NoCandidateLoop)?;
    let f = program.function(func);
    let liveness = Liveness::compute(f);
    let pdg = build_pdg(f, &l, &liveness, &PdgOptions { alias });
    let dag = DagScc::compute(&pdg.instr_graph());
    Ok(Analyzed { norm, l, pdg, dag })
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
    let Analyzed { norm, l, pdg, dag } = analyze(program, func, header, opts.alias)?;
    let f = program.function(func);
    if dag.len() <= 1 {
        return Err(DswpError::SingleScc);
    }

    // Partition.
    let costs = scc_costs(f, func, &pdg, &dag, profile, &opts.latency);
    let partitioning = match &opts.partitioning {
        Some(p) => {
            p.validate(&dag, opts.max_threads)?;
            p.clone()
        }
        None => {
            let p = tpp_heuristic(
                &dag,
                &costs,
                &TppOptions {
                    max_threads: opts.max_threads,
                    min_speedup: opts.min_speedup,
                },
            );
            if p.num_threads < 2 {
                return Err(DswpError::NotProfitable);
            }
            p.validate(&dag, opts.max_threads)?;
            p
        }
    };
    let est = estimated_speedup(
        f,
        func,
        &pdg,
        &dag,
        &partitioning,
        &costs,
        profile,
        opts.latency.queue,
    );
    if opts.partitioning.is_none() && est < opts.min_speedup {
        return Err(DswpError::NotProfitable);
    }

    // Replication plan (decided before the split mutates the function:
    // legality and the stage-time estimate both need the pre-split PDG).
    // One `(stage, replicas)` pair per stage to replicate, in stage order.
    let repl_plan: Vec<(usize, usize)> = match opts.replicate {
        Replicate::Off => Vec::new(),
        _ => {
            let replicable = replicable_stages(f, &pdg, &dag, &partitioning, opts.alias);
            let times = stage_times(
                f,
                func,
                &pdg,
                &dag,
                &partitioning,
                &costs,
                profile,
                opts.latency.queue,
            );
            match opts.replicate {
                Replicate::Off => Vec::new(),
                Replicate::Fixed(k) if k >= 2 => (0..partitioning.num_threads)
                    .filter(|&t| replicable[t])
                    .map(|t| (t, k))
                    .collect(),
                Replicate::Fixed(_) => Vec::new(),
                Replicate::Auto { cores } => {
                    let cores = cores.unwrap_or_else(|| {
                        std::thread::available_parallelism().map_or(1, |n| n.get())
                    });
                    replica_plans(&times, &replicable, cores)
                }
            }
        }
    };

    // Split.
    let loop_instrs: usize = l
        .blocks
        .iter()
        .map(|&b| program.function(func).block(b).instrs().len())
        .sum();
    let loop_blocks = l.blocks.len();
    let artifacts = apply_dswp(program, func, &norm, &l, &pdg, &dag, &partitioning)?;
    // Replicate each planned stage in turn. The calls compose: every call
    // only rewrites its own stage's auxiliary function and mints fresh
    // queues/functions, so earlier replications are never disturbed.
    let replication: Vec<ReplicationInfo> = repl_plan
        .into_iter()
        .filter_map(|(t, k)| {
            replicate_stage(program, func, &norm, artifacts.aux_functions[t - 1], t, k)
        })
        .collect();
    Ok(DswpReport {
        loop_header: header,
        loop_blocks,
        loop_instrs,
        num_sccs: dag.len(),
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
    let l = find_loops(program.function(func))
        .into_iter()
        .find(|l| l.header == header)
        .ok_or(DswpError::NoCandidateLoop)?;
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
