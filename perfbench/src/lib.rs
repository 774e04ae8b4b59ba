//! End-to-end benchmark of the DSWP reproduction.
//!
//! One closed-loop client in one process keeps one operation in flight.
//! There are three operation kinds:
//!
//! * **job** — a paper kernel (or `gzip`) at `Size::Test`, handed over as
//!   IR text: `parse_program` → `verify_program` → `Interpreter` profile →
//!   `dswp_loop` → `Runtime::run` → memory check;
//! * **native round** — the 10 precompiled paper kernels at `Size::Paper`
//!   in a seeded order, each run untransformed, DSWP unbatched and DSWP
//!   batched, back to back;
//! * **sim** — one precompiled paper kernel on the timing model: baseline,
//!   DSWP and the replication variant, plus the functional `Executor`.
//!
//! A workload is a time-share mix of the three kinds; see
//! [`Workload::shares`] and `README.md` for why each exists. Every run
//! reports every metric, measured only on that run's operations.

pub mod metrics;
pub mod ops;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod window;

use std::time::Instant;

use dswp_workloads::Size;

use ops::Ctx;
use suite::Suite;

/// Size of the `jobs` inputs.
pub(crate) const JOB_SIZE: Size = Size::Test;

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Compile-and-run requests dominate.
    Jobs,
    /// The native runtime's per-iteration hot loop dominates.
    Native,
    /// The timing model dominates.
    Simulate,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "jobs" => Some(Workload::Jobs),
            "native" => Some(Workload::Native),
            "simulate" => Some(Workload::Simulate),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Jobs => "jobs",
            Workload::Native => "native",
            Workload::Simulate => "simulate",
        }
    }

    /// Target shares of operation time for jobs, native rounds and
    /// timing-model runs. Workloads without timed simulation still run each
    /// paper kernel once on the timing model after the window (its outputs
    /// are exact and feed `sim_speedup`).
    pub fn shares(self) -> [f64; 3] {
        match self {
            Workload::Jobs => [0.75, 0.25, 0.0],
            Workload::Native => [0.25, 0.75, 0.0],
            Workload::Simulate => [0.25, 0.25, 0.5],
        }
    }
}

/// Benchmark options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which mix to run.
    pub workload: Workload,
    /// Seed of the job draws and kernel orders.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Size of the native/simulate kernels (`Size::Paper` for real runs).
    pub paper_size: Size,
}

impl Options {
    /// Options for a real run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            paper_size: Size::Paper,
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug)]
pub struct Report {
    /// `true` when every operation matched its reference.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error or mismatch).
    pub failed: u64,
    /// Metrics in report order; a metric without a sample is left out.
    pub metrics: Vec<Metric>,
    /// Operation counts, thread budget and calibration time, for the log.
    pub summary: String,
    /// First failure messages, then the metrics or kernels left without a
    /// sample.
    pub failures: Vec<String>,
    /// Span log of the traced run (JSON lines), empty otherwise.
    pub spans_jsonl: String,
}

impl Report {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object: `{"correct","attempted","failed","metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What set-up produced, with its time.
#[derive(Debug)]
pub struct Setup {
    /// Inputs, references and precompiled programs.
    pub suite: Suite,
    /// Wall time of the set-up, in s.
    pub setup_s: f64,
    /// Kernel-construction part of it, in ms.
    pub build_ms: f64,
}

/// Builds the suite: kernels, reference images, and the programs compiled
/// ahead of the window. The window repeats this to sample `setup_s`.
///
/// # Errors
///
/// Fails when a reference run or a compile fails.
pub fn setup(opts: &Options) -> Result<Setup, String> {
    let t = Instant::now();
    let suite = Suite::build(JOB_SIZE, opts.paper_size)?;
    Ok(Setup {
        setup_s: t.elapsed().as_secs_f64(),
        build_ms: suite.build_time.as_secs_f64() * 1e3,
        suite,
    })
}

/// Runs one benchmark invocation: set-up, then [`measure`].
///
/// # Errors
///
/// See [`setup`].
pub fn run(opts: &Options) -> Result<Report, String> {
    Ok(measure(opts, &setup(opts)?))
}

/// Runs the timed window over a prepared suite and computes the metrics.
/// Failed or mismatching operations are counted, never fatal: a metric
/// is computed over the kernels that have samples, and a metric or kernel
/// left without one makes the report incorrect.
pub fn measure(opts: &Options, setup: &Setup) -> Report {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let suite = &setup.suite;
    let mut ctx = Ctx::new(suite.paper.len(), threads);
    let mut s = window::run(opts, suite, &mut ctx);
    s.setup_s.push(setup.setup_s);
    s.build_ms.push(setup.build_ms);

    // Workloads without timed simulation still need the exact timing-model
    // outputs: one untimed pass over the paper kernels.
    if opts.workload.shares()[2] == 0.0 {
        ctx.tracer.set_enabled(opts.trace);
        for (i, k) in suite.paper.iter().enumerate() {
            window::begin_op(&mut ctx, &mut s);
            if !ctx.simulate(i, k) {
                s.failed += 1;
            }
        }
        ctx.tracer.set_enabled(false);
    }

    let summary = format!(
        "ops: {} jobs, {} native, {} sim, {} set-ups; {} failed; available_parallelism {}; calibration {:.4} ms",
        s.per_kind[0],
        s.per_kind[1],
        s.per_kind[2],
        s.setup_s.len(),
        s.failed,
        threads,
        stats::median(&s.calib).unwrap_or(f64::NAN)
    );
    let out = if opts.trace {
        metrics::per_layer(suite, &s, &ctx)
    } else {
        metrics::end_to_end(suite, &s, &ctx)
    };
    let mut failures = ctx.obs.failures.clone();
    failures.extend(out.gaps.iter().cloned());
    Report {
        correct: s.failed == 0 && out.gaps.is_empty(),
        attempted: s.attempted,
        failed: s.failed,
        metrics: out.metrics,
        summary,
        failures,
        spans_jsonl: if opts.trace {
            ctx.tracer.to_jsonl()
        } else {
            String::new()
        },
    }
}
