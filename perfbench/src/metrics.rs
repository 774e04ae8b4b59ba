//! Turns the window's samples and observations into the reported metrics.
//!
//! Nothing here fails: a metric is computed over the kernels that have
//! samples, and every metric or kernel left without one is noted as a
//! gap, which makes the report incorrect.

use dswp::{analyze_loop, dswp_loop, DswpOptions, FlowStats};
use dswp_ir::interp::Interpreter;
use dswp_ir::parse_program;

use crate::ops::{Ctx, Role, SimCycles};
use crate::stats::{geomean, lower_half_mean, mean, median, quantile};
use crate::suite::Suite;
use crate::window::Samples;
use crate::Metric;

/// Duration of one calibration sample on the reference host (2-vCPU
/// 2.1 GHz x86-64 VM), in ms. End-to-end wall times are scaled by
/// `CALIB_REF_MS / calibration`: they read as ms on the reference host
/// whatever the current host speed.
pub const CALIB_REF_MS: f64 = 0.19;

/// Quantile of the wall-time samples reported end to end: the lower
/// quartile. Two-thread runs on a 2-vCPU host are bimodal (both stage
/// threads on one vCPU, or one each), and the share of fast runs drifts
/// with the host's scheduler state; the median flips mode once that share
/// falls below a half, the lower quartile only below a quarter.
pub const WALL_QUANTILE: f64 = 0.25;

/// The metrics of a run, and what had no sample.
#[derive(Debug, Default)]
pub struct Out {
    /// Metrics with a finite value, in report order.
    pub metrics: Vec<Metric>,
    /// Metrics or kernels left without a sample.
    pub gaps: Vec<String>,
}

impl Out {
    /// Adds metric `name`, or notes a gap when `value` is missing or not
    /// finite.
    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value.filter(|v| v.is_finite()) {
            Some(value) => self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
            }),
            None => self.gaps.push(format!("{name}: no sample in this run")),
        }
    }

    /// Geomean over the paper kernels that have a value; notes a gap for
    /// each kernel that has none.
    fn kernel_geomean(
        &mut self,
        name: &str,
        suite: &Suite,
        per_kernel: Vec<Option<f64>>,
    ) -> Option<f64> {
        for (k, v) in suite.paper.iter().zip(&per_kernel) {
            if v.is_none() {
                self.gaps.push(format!("{name}: no sample of {}", k.name));
            }
        }
        geomean(per_kernel.into_iter().flatten())
    }
}

/// Per-kernel quantile `q` of one native role (0 seq, 1 pipe, 2 batched),
/// optionally only over traced or untraced samples.
fn role_quantiles(s: &Samples, role: usize, q: f64, traced: Option<bool>) -> Vec<Option<f64>> {
    s.triples
        .iter()
        .map(|ts| {
            let v: Vec<f64> = ts
                .iter()
                .filter(|t| traced.is_none_or(|tr| t.traced == tr))
                .filter_map(|t| t.ms[role])
                .collect();
            quantile(&v, q)
        })
        .collect()
}

/// Geomean over kernels of each kernel's lower-quartile time of `role`,
/// optionally only over traced or untraced samples.
fn role_geomean(
    out: &mut Out,
    suite: &Suite,
    s: &Samples,
    role: usize,
    traced: Option<bool>,
    name: &str,
) -> Option<f64> {
    out.kernel_geomean(name, suite, role_quantiles(s, role, WALL_QUANTILE, traced))
}

/// Scale factor from the window's host speed to the reference host's.
fn speed(s: &Samples) -> Option<f64> {
    median(&s.calib).map(|c| CALIB_REF_MS / c)
}

/// Latencies of the jobs, optionally only traced or untraced ones.
fn job_ms(s: &Samples, traced: Option<bool>) -> Vec<f64> {
    s.jobs
        .iter()
        .filter(|j| traced.is_none_or(|tr| j.traced == tr))
        .map(|j| j.ms)
        .collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(suite: &Suite, s: &Samples, ctx: &Ctx) -> Out {
    let mut out = Out::default();
    let speed = speed(s);
    let scaled = |v: Option<f64>| Some(v? * speed?);
    let jobs = job_ms(s, None);
    let seq = role_geomean(&mut out, suite, s, 0, None, "seq_ms");
    let pipe = role_geomean(&mut out, suite, s, 1, None, "pipe_ms");
    let sims: Vec<Option<&SimCycles>> = ctx.obs.sim.iter().map(Option::as_ref).collect();
    let sim = out.kernel_geomean(
        "sim_speedup",
        suite,
        sims.iter()
            .map(|c| c.map(|c| c.base as f64 / c.dswp as f64))
            .collect(),
    );
    let sim_repl = geomean(
        sims.iter()
            .flatten()
            .filter_map(|c| c.replicated.map(|r| c.base as f64 / r as f64)),
    );
    out.put("setup_s", scaled(median(&s.setup_s)), "s");
    out.put(
        "ok_rate",
        Some((s.attempted - s.failed) as f64 / s.attempted.max(1) as f64),
        "share",
    );
    out.put(
        "jobs_per_s",
        lower_half_mean(&jobs).and_then(|m| Some(1e3 / m / speed?)),
        "1/s",
    );
    out.put("job_ms", scaled(quantile(&jobs, WALL_QUANTILE)), "ms");
    out.put("seq_ms", scaled(seq), "ms");
    out.put("pipe_ms", scaled(pipe), "ms");
    out.put("sim_speedup", sim, "x");
    out.put("sim_speedup_replicated", sim_repl, "x");
    out
}

/// Structural counts of the `jobs` kernels: PDG arcs, SCCs and how many
/// of them the compiler declines.
fn census(suite: &Suite) -> Result<(usize, usize, usize), String> {
    let (mut arcs, mut sccs, mut declined) = (0, 0, 0);
    for k in &suite.jobs {
        let err = |e: &dyn std::fmt::Display| format!("census {}: {e}", k.name);
        let program = parse_program(&k.text).map_err(|e| err(&e))?;
        let main = program.main();
        let a = analyze_loop(&program, main, k.header, DswpOptions::default().alias)
            .map_err(|e| err(&e))?;
        arcs += a.pdg.arcs().len();
        sccs += a.dag.len();
        let profile = Interpreter::new(&program)
            .run()
            .map_err(|e| err(&e))?
            .profile;
        let mut p = program.clone();
        if dswp_loop(&mut p, main, k.header, &profile, &DswpOptions::default()).is_err() {
            declined += 1;
        }
    }
    Ok((arcs, sccs, declined))
}

/// The per-layer metrics of a traced run.
pub fn per_layer(suite: &Suite, s: &Samples, ctx: &Ctx) -> Out {
    let tr = &ctx.tracer;
    let obs = &ctx.obs;
    let mut out = Out::default();
    let med_us = |name: &str| median(&tr.durations_us(name));
    let interp_ns: f64 = tr.durations_us("ir.interp").iter().sum::<f64>() * 1e3;
    let census = census(suite);
    if let Err(e) = &census {
        out.gaps.push(e.clone());
    }
    let census = census.ok();
    let analyze = med_us("analysis.analyze");
    let compile = med_us("core.compile");
    let reports: Vec<_> = suite
        .paper
        .iter()
        .filter_map(|k| k.dswp.as_ref().map(|(_, r)| r))
        .collect();
    let flows = |f: fn(&FlowStats) -> usize| {
        Some(reports.iter().map(|r| f(&r.artifacts.flows)).sum::<usize>() as f64)
    };
    let replicated_stages: usize = suite
        .paper
        .iter()
        .filter_map(|k| k.replicated.as_ref())
        .map(|(_, r)| r.replication.len())
        .sum();

    // Host speed, and the end-to-end wall times before scaling by it, from
    // the untraced half: if a change moves `host.calib_ms`, the scaled
    // comparison is void and these are the figures to compare.
    let untraced_seq = role_geomean(&mut out, suite, s, 0, Some(false), "unscaled.seq_ms");
    let untraced_pipe = role_geomean(&mut out, suite, s, 1, Some(false), "unscaled.pipe_ms");
    out.put(
        "host.available_parallelism",
        Some(ctx.threads as f64),
        "count",
    );
    out.put("host.calib_ms", median(&s.calib), "ms");
    out.put("unscaled.setup_s", median(&s.setup_s), "s");
    out.put(
        "unscaled.job_ms",
        quantile(&job_ms(s, Some(false)), WALL_QUANTILE),
        "ms",
    );
    out.put("unscaled.seq_ms", untraced_seq, "ms");
    out.put("unscaled.pipe_ms", untraced_pipe, "ms");

    out.put("workloads.build_ms", median(&s.build_ms), "ms");
    out.put("ir.parse_us", med_us("ir.parse"), "us");
    out.put("ir.verify_us", med_us("ir.verify"), "us");
    out.put(
        "ir.interp_ns_per_instr",
        (obs.interp_steps > 0).then(|| interp_ns / obs.interp_steps as f64),
        "ns",
    );
    out.put("analysis.analyze_us", analyze, "us");
    out.put("analysis.pdg_arcs", census.map(|c| c.0 as f64), "count");
    out.put("analysis.sccs", census.map(|c| c.1 as f64), "count");
    out.put("core.compile_us", compile, "us");
    out.put(
        "core.transform_us",
        compile.zip(analyze).map(|(c, a)| c - a),
        "us",
    );
    out.put("core.loop_flows", flows(|f| f.loop_flows), "count");
    out.put("core.initial_flows", flows(|f| f.initial), "count");
    out.put("core.final_flows", flows(|f| f.final_flows), "count");
    out.put(
        "core.est_speedup",
        geomean(reports.iter().map(|r| r.estimated_speedup)),
        "x",
    );
    out.put("core.declined", census.map(|c| c.2 as f64), "count");
    out.put(
        "core.replicated_stages",
        Some(replicated_stages as f64),
        "count",
    );

    // The batched pipeline's lower-quartile time (scaled like the
    // end-to-end times) and the geomean over kernels of the within-round
    // `seq / batched` ratio at the matching quantile (fast batched runs
    // give high ratios). Both flip by ~2.5x with the host's two-CPU
    // regime, so they are per-layer only (see README).
    let batched = role_geomean(&mut out, suite, s, 2, None, "rt.pipe_batched_ms");
    let ratios = s
        .triples
        .iter()
        .map(|ts| {
            let r: Vec<f64> = ts
                .iter()
                .filter_map(|t| Some(t.ms[0]? / t.ms[2]?))
                .collect();
            quantile(&r, 1.0 - WALL_QUANTILE)
        })
        .collect();
    let native_speedup = out.kernel_geomean("rt.native_speedup", suite, ratios);
    out.put(
        "rt.pipe_batched_ms",
        batched.zip(speed(s)).map(|(b, v)| b * v),
        "ms",
    );
    out.put("rt.native_speedup", native_speedup, "x");
    let mut spawn = Vec::new();
    for role in Role::ALL {
        let o = obs.role(role);
        let r = role.name();
        spawn.extend(&o.spawn_us);
        out.put(&format!("rt.{r}.run_ms"), median(&o.run_ms), "ms");
        out.put(
            &format!("rt.{r}.ns_per_instr"),
            median(&o.ns_per_instr),
            "ns",
        );
        if role == Role::Seq {
            continue;
        }
        let runs = o.run_ms.len().max(1) as f64;
        out.put(
            &format!("rt.{r}.blocked_share"),
            Some(o.blocked_s / o.wall_s.max(1e-12)),
            "share",
        );
        out.put(
            &format!("rt.{r}.retries_per_kvalue"),
            Some(o.retries as f64 * 1e3 / o.queue_values.max(1) as f64),
            "count",
        );
        out.put(
            &format!("rt.{r}.parks"),
            Some(o.parks as f64 / runs),
            "count",
        );
        out.put(
            &format!("rt.{r}.values_per_flush"),
            Some(o.queue_values as f64 / o.pushes.max(1) as f64),
            "count",
        );
        out.put(
            &format!("rt.{r}.queue_values"),
            Some(o.queue_values as f64 / runs),
            "count",
        );
    }
    out.put("rt.spawn_us", median(&spawn), "us");
    out.put("rt.errors", Some(obs.rt_errors as f64), "count");
    out.put("rt.refused_runs", Some(obs.refused as f64), "count");
    out.put(
        "rt.max_stage_threads",
        Some(obs.max_stage_threads as f64),
        "count",
    );

    let sims: Vec<&SimCycles> = obs.sim.iter().flatten().collect();
    let sum = |f: fn(&SimCycles) -> u64| Some(sims.iter().map(|c| f(c)).sum::<u64>() as f64);
    let occupancy: Vec<f64> = sims.iter().map(|c| c.occupancy_mean).collect();
    out.put(
        "sim.host_ns_per_instr",
        (obs.sim_instrs > 0).then(|| obs.sim_host_ns / obs.sim_instrs as f64),
        "ns",
    );
    out.put("sim.cycles_base", sum(|c| c.base), "cycles");
    out.put("sim.cycles_dswp", sum(|c| c.dswp), "cycles");
    out.put(
        "sim.cycles_replicated",
        sum(|c| c.replicated.unwrap_or(0)),
        "cycles",
    );
    out.put(
        "sim.stall_queue_empty",
        sum(|c| c.stall_queue_empty),
        "cycles",
    );
    out.put(
        "sim.stall_queue_full",
        sum(|c| c.stall_queue_full),
        "cycles",
    );
    out.put("sim.occupancy_mean", mean(&occupancy), "values");
    out.put("sim.exec_us", median(&obs.exec_us), "us");

    // Latency tail and tracing overhead, from the untraced half.
    let (on, off) = (job_ms(s, Some(true)), job_ms(s, Some(false)));
    let pipe_median = |traced| {
        geomean(
            role_quantiles(s, 1, 0.5, Some(traced))
                .into_iter()
                .flatten(),
        )
    };
    out.put("job_ms_p99", quantile(&off, 0.99), "ms");
    out.put("job_ms_samples", Some(off.len() as f64), "count");
    out.put(
        "trace.job_ms_overhead",
        median(&on).zip(median(&off)).map(|(a, b)| a - b),
        "ms",
    );
    out.put(
        "trace.pipe_ms_overhead",
        pipe_median(true)
            .zip(pipe_median(false))
            .map(|(a, b)| a - b),
        "ms",
    );
    out.put(
        "jobs.unattributed_ms",
        median(&tr.self_times_us("op.job")).map(|us| us / 1e3),
        "ms",
    );
    let layer_self = tr.layer_self_ns();
    let total: u64 = layer_self.values().sum();
    for layer in ["op", "ir", "analysis", "core", "rt", "sim"] {
        let ns = layer_self.get(layer).copied().unwrap_or(0);
        out.put(
            &format!("{layer}.self_share"),
            Some(ns as f64 / total.max(1) as f64),
            "share",
        );
    }
    out
}
