//! Benchmark set-up: build the kernels, compute reference images, and
//! compile everything the timed loop needs ahead of it.

use std::time::{Duration, Instant};

use dswp::{
    annotate_loop_affine, dswp_loop, DswpError, DswpOptions, DswpReport, PipelineMap, Replicate,
};
use dswp_analysis::AliasMode;
use dswp_ir::interp::{Interpreter, Profile};
use dswp_ir::{to_text, BlockId, Program};
use dswp_rt::{BatchPolicy, RtConfig};
use dswp_workloads::{gzip, paper_suite, Size, Workload};

/// One `jobs` input: a kernel handed over as IR text.
#[derive(Clone, Debug)]
pub struct JobKernel {
    /// Kernel label.
    pub name: &'static str,
    /// The program in the textual IR format.
    pub text: String,
    /// Header of the DSWP candidate loop.
    pub header: BlockId,
    /// Reference memory image: the `Interpreter` run of the untransformed
    /// program.
    pub expected: Vec<i64>,
}

/// One paper kernel, compiled ahead of the timed loop for the `native`
/// and `simulate` operations.
#[derive(Clone, Debug)]
pub struct PaperKernel {
    /// Kernel label.
    pub name: &'static str,
    /// The untransformed program.
    pub program: Program,
    /// Reference memory image of the untransformed program.
    pub expected: Vec<i64>,
    /// DSWP with default options (`None` when the compiler declined).
    pub dswp: Option<(Program, DswpReport)>,
    /// Per-queue chunk sizes for the batched run of `dswp`, as
    /// `dswpc --batch auto` derives them.
    pub batches: Vec<usize>,
    /// Affine-annotated, precise-alias DSWP with every legal stage
    /// replicated twice; `None` when the compiler declined or no stage
    /// could be replicated.
    pub replicated: Option<(Program, DswpReport)>,
}

impl PaperKernel {
    /// The program the pipelined runs execute: DSWP output, or the
    /// untransformed program when the compiler declined.
    pub fn pipe_program(&self) -> &Program {
        self.dswp.as_ref().map_or(&self.program, |(p, _)| p)
    }

    /// Runtime configuration of the batched pipelined run.
    pub fn batched_config(&self) -> RtConfig {
        RtConfig::default().queue_batches(self.batches.clone())
    }
}

/// Everything the timed loop needs, built by [`Suite::build`].
#[derive(Clone, Debug)]
pub struct Suite {
    /// The 10 paper kernels plus `gzip`, at the `jobs` size.
    pub jobs: Vec<JobKernel>,
    /// The 10 paper kernels at the native/simulate size.
    pub paper: Vec<PaperKernel>,
    /// Time spent constructing kernels (both sizes).
    pub build_time: Duration,
}

impl Suite {
    /// Builds the `jobs` kernels at `job_size` and the paper kernels at
    /// `paper_size`, interprets every reference and compiles the paper
    /// kernels.
    ///
    /// # Errors
    ///
    /// Fails when a reference run or a compile fails.
    pub fn build(job_size: Size, paper_size: Size) -> Result<Suite, String> {
        let t = Instant::now();
        let mut job_ws = paper_suite(job_size);
        job_ws.push(gzip::build(job_size));
        let paper_ws = paper_suite(paper_size);
        let build_time = t.elapsed();

        let reference = |w: &Workload| {
            Interpreter::new(&w.program)
                .run()
                .map_err(|e| format!("{}: reference run failed: {e}", w.name))
        };

        let mut jobs = Vec::with_capacity(job_ws.len());
        for w in &job_ws {
            jobs.push(JobKernel {
                name: w.name,
                text: to_text(&w.program),
                header: w.header,
                expected: reference(w)?.memory,
            });
        }
        let mut paper = Vec::with_capacity(paper_ws.len());
        for w in paper_ws {
            let r = reference(&w)?;
            let dswp = compile(&w, &r.profile, false)?;
            let batches = dswp.as_ref().map_or_else(Vec::new, |(p, _)| {
                PipelineMap::infer(p)
                    .batch_hints(BatchPolicy::Auto.chunk(RtConfig::default().queue_capacity))
            });
            let replicated =
                compile(&w, &r.profile, true)?.filter(|(_, rep)| !rep.replication.is_empty());
            paper.push(PaperKernel {
                name: w.name,
                program: w.program,
                expected: r.memory,
                dswp,
                batches,
                replicated,
            });
        }
        Ok(Suite {
            jobs,
            paper,
            build_time,
        })
    }
}

/// Compiles `w` with default DSWP options, or with the replication
/// variant (affine facts, precise alias, every legal stage ×2).
fn compile(
    w: &Workload,
    profile: &Profile,
    replicate: bool,
) -> Result<Option<(Program, DswpReport)>, String> {
    let mut p = w.program.clone();
    let main = p.main();
    let opts = if replicate {
        annotate_loop_affine(&mut p, main, w.header)
            .map_err(|e| format!("{}: affine annotation failed: {e}", w.name))?;
        DswpOptions {
            alias: AliasMode::Precise,
            replicate: Replicate::Fixed(2),
            ..DswpOptions::default()
        }
    } else {
        DswpOptions::default()
    };
    match dswp_loop(&mut p, main, w.header, profile, &opts) {
        Ok(report) => Ok(Some((p, report))),
        Err(DswpError::SingleScc | DswpError::NotProfitable) => Ok(None),
        Err(e) => Err(format!("{}: DSWP failed: {e}", w.name)),
    }
}
