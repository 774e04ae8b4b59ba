//! The timed window: a closed loop with one operation in flight.
//!
//! Each next operation is of the kind furthest below its share of the
//! operation time spent so far, so every kind is sampled evenly across the
//! whole window and slow drift of the host's speed hits them alike. A
//! fixed share of the window repeats the set-up, and another times
//! [`calibrate`], a routine independent of the repository's code, which
//! measures that drift.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dswp_testutil::Rng;

use crate::ops::{Ctx, OpError};
use crate::suite::Suite;
use crate::{Options, JOB_SIZE};

/// Share of operation time spent timing the calibration routine.
pub const CALIB_SHARE: f64 = 0.04;
/// Share of operation time spent repeating the set-up.
pub const SETUP_SHARE: f64 = 0.04;
/// Iterations of one calibration sample.
pub const CALIB_ITERS: u64 = 20_000;

/// Latency of one job, with whether it was traced.
#[derive(Clone, Copy, Debug)]
pub struct JobSample {
    /// Wall time of the job in ms (minus the traced-only analysis call).
    pub ms: f64,
    /// Whether spans were recorded.
    pub traced: bool,
}

/// One native triple: elapsed ms of the seq, pipe and batched runs.
#[derive(Clone, Copy, Debug)]
pub struct TripleSample {
    /// `RtResult::elapsed` of each role, in ms; `None` when that run
    /// failed or was refused.
    pub ms: [Option<f64>; 3],
    /// Whether spans were recorded.
    pub traced: bool,
}

/// Everything the window collects.
#[derive(Debug, Default)]
pub struct Samples {
    /// Successful jobs.
    pub jobs: Vec<JobSample>,
    /// Native triples with at least one successful run, per paper kernel.
    pub triples: Vec<Vec<TripleSample>>,
    /// Calibration times in ms.
    pub calib: Vec<f64>,
    /// Set-up times in s.
    pub setup_s: Vec<f64>,
    /// Kernel-construction part of each set-up, in ms.
    pub build_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Operations run per kind (jobs, native rounds, sim kernels).
    pub per_kind: [u64; 3],
}

/// Fixed CPU-bound routine (a xorshift walk over a small table) whose
/// duration tracks the host's current single-thread speed.
pub fn calibrate(iters: u64) -> u64 {
    let mut table = [0u64; 256];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x & 255) as usize;
        table[slot] = table[slot].wrapping_add(i ^ x);
        if table[slot] & 1 == 0 {
            x = x.wrapping_add(table[(slot + 1) & 255]);
        }
    }
    table.iter().fold(0, |a, &b| a ^ b)
}

/// Times one [`calibrate`] call of [`CALIB_ITERS`] iterations, in ms.
pub fn calib_sample() -> f64 {
    let t = Instant::now();
    black_box(calibrate(black_box(CALIB_ITERS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs operations until the window has passed, the calibration routine
/// has run, and every kind in the mix has covered each of its kernels at
/// least once (twice in a traced run, so both its traced and untraced
/// halves have samples).
pub fn run(opts: &Options, suite: &Suite, ctx: &mut Ctx) -> Samples {
    let mix = opts.workload.shares();
    // Slots: job, native round, sim kernel, calibration, set-up.
    let ops = 1.0 - CALIB_SHARE - SETUP_SHARE;
    let shares = [
        mix[0] * ops,
        mix[1] * ops,
        mix[2] * ops,
        CALIB_SHARE,
        SETUP_SHARE,
    ];
    let n = suite.paper.len();
    let mut rng = Rng::new(opts.seed);
    let mut s = Samples {
        triples: vec![Vec::new(); n],
        ..Samples::default()
    };
    let mut spent = [0.0f64; 5];
    let mut sim_order = Vec::new();
    let mut sim_seen = vec![false; n];
    let min_ops = if opts.trace { 2 } else { 1 };
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    loop {
        let covered = !s.calib.is_empty()
            && (shares[0] == 0.0 || s.per_kind[0] >= min_ops)
            && (shares[1] == 0.0 || s.per_kind[1] >= min_ops)
            && (shares[2] == 0.0 || sim_seen.iter().all(|&b| b));
        if covered && start.elapsed() >= window {
            break;
        }
        let total: f64 = spent.iter().sum();
        let slot = (0..5)
            .filter(|&k| shares[k] > 0.0)
            .max_by(|&a, &b| {
                let da = shares[a] * total - spent[a];
                let db = shares[b] * total - spent[b];
                da.total_cmp(&db).then(b.cmp(&a))
            })
            .expect("calibration always has a share");
        if slot == 3 {
            let ms = calib_sample();
            s.calib.push(ms);
            spent[3] += ms / 1e3;
            continue;
        }
        if slot == 4 {
            let t = Instant::now();
            match Suite::build(JOB_SIZE, opts.paper_size) {
                Ok(rebuilt) => {
                    s.setup_s.push(t.elapsed().as_secs_f64());
                    s.build_ms.push(rebuilt.build_time.as_secs_f64() * 1e3);
                }
                Err(e) => {
                    ctx.obs.fail(format!("set-up: {e}"));
                    s.attempted += 1;
                    s.failed += 1;
                }
            }
            spent[4] += t.elapsed().as_secs_f64();
            continue;
        }
        let t = Instant::now();
        // Traced runs alternate traced and untraced operations of each
        // kind; the untraced half measures the tracing overhead.
        let traced = opts.trace && s.per_kind[slot].is_multiple_of(2);
        ctx.tracer.set_enabled(traced);
        s.per_kind[slot] += 1;
        match slot {
            0 => {
                let k = &suite.jobs[rng.below(suite.jobs.len())];
                begin_op(ctx, &mut s);
                match ctx.job(k) {
                    Ok(analyze) => s.jobs.push(JobSample {
                        ms: t.elapsed().saturating_sub(analyze).as_secs_f64() * 1e3,
                        traced,
                    }),
                    Err(OpError::Refused) => {}
                    Err(OpError::Failed) => s.failed += 1,
                }
            }
            1 => {
                // A round: every paper kernel once, in a seeded order.
                for i in permutation(n, &mut rng) {
                    begin_op(ctx, &mut s);
                    let runs = ctx.native_triple(&suite.paper[i]);
                    if runs.contains(&Err(OpError::Failed)) {
                        s.failed += 1;
                    }
                    let ms = runs.map(|r| r.ok().map(|d| d.as_secs_f64() * 1e3));
                    if ms.iter().any(Option::is_some) {
                        s.triples[i].push(TripleSample { ms, traced });
                    }
                }
            }
            _ => {
                if sim_order.is_empty() {
                    sim_order = permutation(n, &mut rng);
                }
                let i = sim_order.pop().expect("refilled above");
                sim_seen[i] = true;
                begin_op(ctx, &mut s);
                if !ctx.simulate(i, &suite.paper[i]) {
                    s.failed += 1;
                }
            }
        }
        spent[slot] += t.elapsed().as_secs_f64();
    }
    ctx.tracer.set_enabled(false);
    s
}

/// Counts one attempted operation and stamps its id on its spans.
pub fn begin_op(ctx: &mut Ctx, s: &mut Samples) {
    ctx.tracer.set_op(s.attempted);
    s.attempted += 1;
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}
