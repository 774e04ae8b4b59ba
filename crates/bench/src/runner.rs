//! Experiment machinery shared by the `paper_results` harness, the
//! per-figure binaries and the native benchmark gates.

use std::time::Duration;

use dswp::{analyze_loop, dswp_loop, DswpError, DswpOptions, DswpReport, Partitioning};
use dswp_analysis::AliasMode;
use dswp_ir::interp::{Interpreter, Profile};
use dswp_ir::Program;
use dswp_rt::{RtConfig, Runtime};
use dswp_sim::{Machine, MachineConfig, SimResult};
use dswp_workloads::{Size, Workload};

/// Ratio loss below the committed baseline that a native gate tolerates
/// before it fails a key.
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// Experiment-wide configuration.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Workload size.
    pub size: Size,
    /// Cap on the number of partitionings explored by the "best manually
    /// directed" search (Figure 6(a)).
    pub search_cap: usize,
    /// Alias precision used for the main evaluation.
    pub alias: AliasMode,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment::from_env()
    }
}

impl Experiment {
    /// Reads `DSWP_BENCH_SIZE` (`test` | `paper`, default `paper`) so the
    /// harness can be smoke-tested quickly.
    pub fn from_env() -> Self {
        let size = match std::env::var("DSWP_BENCH_SIZE").as_deref() {
            Ok("test") => Size::Test,
            _ => Size::Paper,
        };
        Experiment {
            size,
            search_cap: 64,
            alias: AliasMode::Region,
        }
    }
}

/// Profile a workload by running the interpreter once.
pub fn profile(w: &Workload) -> (Profile, u64) {
    let r = Interpreter::new(&w.program)
        .run()
        .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", w.name));
    (r.profile, r.steps)
}

/// Runs the timing model.
pub fn simulate(p: &Program, cfg: &MachineConfig) -> SimResult {
    Machine::new(p, cfg.clone())
        .run()
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
}

/// Applies automatic DSWP; `None` when the compiler declines (single SCC /
/// not profitable).
pub fn transform_auto(
    w: &Workload,
    profile: &Profile,
    alias: AliasMode,
) -> Option<(Program, DswpReport)> {
    let mut p = w.program.clone();
    let main = p.main();
    let opts = DswpOptions {
        alias,
        ..DswpOptions::default()
    };
    match dswp_loop(&mut p, main, w.header, profile, &opts) {
        Ok(report) => Some((p, report)),
        Err(DswpError::SingleScc | DswpError::NotProfitable) => None,
        Err(e) => panic!("{}: unexpected DSWP failure: {e}", w.name),
    }
}

/// Applies DSWP under a caller-chosen partitioning.
pub fn transform_with(
    w: &Workload,
    profile: &Profile,
    alias: AliasMode,
    partitioning: Partitioning,
) -> Result<(Program, DswpReport), DswpError> {
    let mut p = w.program.clone();
    let main = p.main();
    let opts = DswpOptions {
        alias,
        partitioning: Some(partitioning),
        ..DswpOptions::default()
    };
    dswp_loop(&mut p, main, w.header, profile, &opts).map(|r| (p, r))
}

/// Enumerates valid two-thread partitionings of the workload's loop.
pub fn partitions(w: &Workload, alias: AliasMode, cap: usize) -> Vec<Partitioning> {
    match analyze_loop(&w.program, w.program.main(), w.header, alias) {
        Ok(a) => dswp::enumerate_two_thread(&a.dag, cap),
        Err(_) => Vec::new(),
    }
}

/// The per-benchmark measurement bundle behind Figures 6, 8, 9.
#[derive(Debug)]
pub struct BenchRun {
    /// Workload name.
    pub name: &'static str,
    /// Interpreter profile and dynamic instruction count.
    pub profile: Profile,
    /// Total dynamic instructions of the baseline.
    pub steps: u64,
    /// Full-width single-threaded baseline.
    pub base: SimResult,
    /// Automatic DSWP (program, report, simulation), if the compiler
    /// accepted the loop.
    pub auto_dswp: Option<(Program, DswpReport, SimResult)>,
    /// Best partitioning found by iterative search (partitioning, sim).
    pub best: Option<(Partitioning, SimResult)>,
}

impl BenchRun {
    /// Measures one workload end to end.
    pub fn measure(w: &Workload, exp: &Experiment, search_best: bool) -> BenchRun {
        let (prof, steps) = profile(w);
        let cfg = MachineConfig::full_width();
        let base = simulate(&w.program, &cfg);

        let auto_dswp = transform_auto(w, &prof, exp.alias).map(|(p, report)| {
            let sim = simulate(&p, &cfg);
            assert_eq!(sim.memory, base.memory, "{}: DSWP diverged", w.name);
            (p, report, sim)
        });

        let best = if search_best {
            let mut best: Option<(Partitioning, SimResult)> = None;
            for part in partitions(w, exp.alias, exp.search_cap) {
                if let Ok((p, _)) = transform_with(w, &prof, exp.alias, part.clone()) {
                    let sim = simulate(&p, &cfg);
                    assert_eq!(sim.memory, base.memory, "{}: partition diverged", w.name);
                    if best
                        .as_ref()
                        .map(|(_, b)| sim.cycles < b.cycles)
                        .unwrap_or(true)
                    {
                        best = Some((part, sim));
                    }
                }
            }
            best
        } else {
            None
        };

        BenchRun {
            name: w.name,
            profile: prof,
            steps,
            base,
            auto_dswp,
            best,
        }
    }

    /// Loop speedup of automatic DSWP over the baseline (1.0 if declined).
    pub fn auto_speedup(&self) -> f64 {
        self.auto_dswp
            .as_ref()
            .map(|(_, _, s)| self.base.cycles as f64 / s.cycles as f64)
            .unwrap_or(1.0)
    }

    /// Speedup of the best searched partitioning (≥ auto by construction
    /// when the search covers the heuristic's pick).
    pub fn best_speedup(&self) -> f64 {
        self.best
            .as_ref()
            .map(|(_, s)| self.base.cycles as f64 / s.cycles as f64)
            .unwrap_or_else(|| self.auto_speedup())
    }
}

/// Queue capacity of the native benchmarks: `DSWP_QUEUE_CAP`, default 32.
pub fn queue_cap() -> usize {
    std::env::var("DSWP_QUEUE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Best-of-`reps` native wall-clock time of `program` under `cfg`. Every
/// repetition's memory image must equal `expect`, so a broken run can
/// never "win"; `name` labels the panic when it does not.
pub fn best_native_time(
    name: &str,
    program: &Program,
    expect: &[i64],
    cfg: &RtConfig,
    reps: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let r = Runtime::new(program)
            .with_config(cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{name}: native run failed: {e}"));
        assert_eq!(
            r.memory, expect,
            "{name}: diverged from the expected memory"
        );
        best = best.min(r.elapsed);
    }
    best
}

/// The keys of `baseline` whose ratio in `current` is missing or more than
/// [`REGRESSION_TOLERANCE`] below the baseline, as messages (empty = the
/// gate passes).
pub fn below_baseline(baseline: &[(String, f64)], current: &[(String, f64)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, base) in baseline {
        match current.iter().find(|(k, _)| k == key) {
            None => problems.push(format!("{key}: present in baseline but not measured")),
            Some((_, cur)) => {
                if *cur < base * (1.0 - REGRESSION_TOLERANCE) {
                    problems.push(format!(
                        "{key}: ratio {cur:.3} regressed more than 10% below baseline {base:.3}"
                    ));
                }
            }
        }
    }
    problems
}

/// Geometric mean.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_workloads::mcf;

    #[test]
    fn below_baseline_flags_missing_and_regressed_keys() {
        let key = |k: &str, v: f64| (k.to_string(), v);
        let baseline = [key("a", 1.0), key("b", 2.0), key("c", 1.0)];
        let current = [key("a", 0.91), key("b", 1.79)];
        let problems = below_baseline(&baseline, &current);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("b: ratio 1.790"));
        assert!(problems[1].starts_with("c: present in baseline"));
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((mean([1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn bench_run_measures_mcf() {
        let exp = Experiment {
            size: Size::Test,
            search_cap: 8,
            alias: AliasMode::Region,
        };
        let w = mcf::build(Size::Test);
        let run = BenchRun::measure(&w, &exp, true);
        assert!(run.base.cycles > 0);
        assert!(run.auto_dswp.is_some());
        assert!(run.best.is_some());
        assert!(run.best_speedup() >= run.auto_speedup() * 0.999 || run.best_speedup() > 1.0);
    }
}
