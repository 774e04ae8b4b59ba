//! The three operation kinds of the closed loop: a compile-and-run job, a
//! native kernel run three ways, and a timing-model run. Every operation
//! checks its memory images against the untransformed program's
//! `Interpreter` reference; failures are returned, never panicked on.

use std::time::{Duration, Instant};

use dswp::{analyze_loop, dswp_loop, DswpOptions};
use dswp_ir::interp::Interpreter;
use dswp_ir::verify::verify_program;
use dswp_ir::{parse_program, Program};
use dswp_rt::{RtConfig, RtResult, Runtime};
use dswp_sim::{Executor, Machine, MachineConfig, SimResult};

use crate::suite::{JobKernel, PaperKernel};
use crate::trace::Tracer;

/// The way a native run executes its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The runtime call inside a `jobs` operation.
    Job,
    /// Untransformed program, one stage thread.
    Seq,
    /// DSWP program, unbatched queues (default `RtConfig`).
    Pipe,
    /// DSWP program, queue batches as `dswpc --batch auto` picks them.
    Batched,
}

impl Role {
    /// Every role, in metric order.
    pub const ALL: [Role; 4] = [Role::Job, Role::Seq, Role::Pipe, Role::Batched];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Role::Job => "job",
            Role::Seq => "seq",
            Role::Pipe => "pipe",
            Role::Batched => "batched",
        }
    }
}

/// Runtime counters accumulated per role.
#[derive(Clone, Debug, Default)]
pub struct RoleObs {
    /// `RtResult::elapsed` of every run, in ms.
    pub run_ms: Vec<f64>,
    /// Elapsed time per retired instruction, in ns.
    pub ns_per_instr: Vec<f64>,
    /// Elapsed minus the longest stage wall, in µs.
    pub spawn_us: Vec<f64>,
    /// Σ stage wall time, in s.
    pub wall_s: f64,
    /// Σ stage blocked time, in s.
    pub blocked_s: f64,
    /// Σ failed queue attempts that entered backoff.
    pub retries: u64,
    /// Σ times a stage parked on the monitor.
    pub parks: u64,
    /// Σ values produced into queues.
    pub queue_values: u64,
    /// Σ producer-side queue pushes (batches).
    pub pushes: u64,
}

/// Timing-model outputs of one paper kernel (exact, host-independent).
#[derive(Clone, Debug, PartialEq)]
pub struct SimCycles {
    /// Cycles of the untransformed program.
    pub base: u64,
    /// Cycles of the DSWP program.
    pub dswp: u64,
    /// Cycles of the replicated program, when replication applied.
    pub replicated: Option<u64>,
    /// Σ per-core cycles stalled on an empty queue (DSWP program).
    pub stall_queue_empty: u64,
    /// Σ per-core cycles stalled on a full queue (DSWP program).
    pub stall_queue_full: u64,
    /// Mean total queue occupancy (DSWP program).
    pub occupancy_mean: f64,
}

/// Observations the operations feed the per-layer metrics.
#[derive(Clone, Debug)]
pub struct Obs {
    /// Native-run counters, indexed like [`Role::ALL`].
    pub roles: [RoleObs; 4],
    /// Native runs refused because they need more stage threads than the
    /// host has.
    pub refused: u64,
    /// Runtime errors (`RtError`) seen.
    pub rt_errors: u64,
    /// Most stage threads of any timed native run.
    pub max_stage_threads: usize,
    /// Host time spent in `Machine::run`, in ns.
    pub sim_host_ns: f64,
    /// Instructions retired by those simulations.
    pub sim_instrs: u64,
    /// `Executor::run` durations, in µs.
    pub exec_us: Vec<f64>,
    /// Instructions interpreted by traced job profile runs.
    pub interp_steps: u64,
    /// First timing-model result per paper kernel.
    pub sim: Vec<Option<SimCycles>>,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

impl Obs {
    /// Empty observations for `paper_kernels` kernels.
    pub fn new(paper_kernels: usize) -> Self {
        Obs {
            roles: Default::default(),
            refused: 0,
            rt_errors: 0,
            max_stage_threads: 0,
            sim_host_ns: 0.0,
            sim_instrs: 0,
            exec_us: Vec::new(),
            interp_steps: 0,
            sim: vec![None; paper_kernels],
            failures: Vec::new(),
        }
    }

    /// Per-role counters.
    pub fn role(&self, role: Role) -> &RoleObs {
        &self.roles[role as usize]
    }

    /// Keeps `msg` for the log, up to a few messages.
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Shared state every operation reports into.
#[derive(Debug)]
pub struct Ctx {
    /// Span recorder (records only while enabled).
    pub tracer: Tracer,
    /// Counters for the per-layer metrics.
    pub obs: Obs,
    /// `std::thread::available_parallelism`: the stage-thread budget of a
    /// timed native run.
    pub threads: usize,
}

impl Ctx {
    /// A context for `paper_kernels` paper kernels and a thread budget.
    pub fn new(paper_kernels: usize, threads: usize) -> Self {
        Ctx {
            tracer: Tracer::new(),
            obs: Obs::new(paper_kernels),
            threads,
        }
    }

    /// Runs `program` natively unless it needs more stage threads than the
    /// budget, checks its memory image and records its counters.
    fn native(
        &mut self,
        program: &Program,
        cfg: RtConfig,
        expected: &[i64],
        role: Role,
        what: &str,
    ) -> Result<RtResult, OpError> {
        let threads = program.thread_entries().len();
        if threads > self.threads {
            self.obs.refused += 1;
            return Err(OpError::Refused);
        }
        self.obs.max_stage_threads = self.obs.max_stage_threads.max(threads);
        let r = self
            .tracer
            .span("rt.run", || Runtime::new(program).with_config(cfg).run());
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                self.obs.rt_errors += 1;
                self.obs.fail(format!("{what} ({}): {e}", role.name()));
                return Err(OpError::Failed);
            }
        };
        if r.memory != expected {
            self.obs.fail(format!(
                "{what} ({}): memory image differs from reference",
                role.name()
            ));
            return Err(OpError::Failed);
        }
        let o = &mut self.obs.roles[role as usize];
        let elapsed = r.elapsed.as_secs_f64();
        let longest = r.stages.iter().map(|s| s.wall).max().unwrap_or_default();
        o.run_ms.push(elapsed * 1e3);
        o.ns_per_instr
            .push(elapsed * 1e9 / r.total_steps().max(1) as f64);
        o.spawn_us
            .push(r.elapsed.saturating_sub(longest).as_secs_f64() * 1e6);
        for s in &r.stages {
            o.wall_s += s.wall.as_secs_f64();
            o.blocked_s += s.blocked.as_secs_f64();
            o.retries += s.retries;
            o.parks += s.parks;
        }
        for q in &r.queues {
            o.queue_values += q.produced;
            o.pushes += q.flush_sizes.count;
        }
        Ok(r)
    }

    /// One `jobs` operation: parse → verify → profile → compile → run →
    /// check. Returns the time spent in the `analyze_loop` call that only
    /// traced jobs make.
    pub fn job(&mut self, k: &JobKernel) -> Result<Duration, OpError> {
        let root = self.tracer.open("op.job");
        let r = self.job_inner(k);
        self.tracer.close(root);
        r
    }

    fn job_inner(&mut self, k: &JobKernel) -> Result<Duration, OpError> {
        let mut analyze = Duration::ZERO;
        let program = match self.tracer.span("ir.parse", || parse_program(&k.text)) {
            Ok(p) => p,
            Err(e) => {
                self.obs.fail(format!("job {}: parse: {e}", k.name));
                return Err(OpError::Failed);
            }
        };
        if let Err(e) = self.tracer.span("ir.verify", || verify_program(&program)) {
            self.obs.fail(format!("job {}: verify: {e}", k.name));
            return Err(OpError::Failed);
        }
        let profile = match self
            .tracer
            .span("ir.interp", || Interpreter::new(&program).run())
        {
            Ok(r) if r.memory == k.expected => {
                if self.tracer.enabled() {
                    self.obs.interp_steps += r.steps;
                }
                r.profile
            }
            Ok(_) => {
                self.obs.fail(format!(
                    "job {}: interpreter image differs from reference",
                    k.name
                ));
                return Err(OpError::Failed);
            }
            Err(e) => {
                self.obs.fail(format!("job {}: interpret: {e}", k.name));
                return Err(OpError::Failed);
            }
        };
        let main = program.main();
        if self.tracer.enabled() {
            let t = Instant::now();
            // The result is only timed: the compile below repeats the analysis.
            let _ = self.tracer.span("analysis.analyze", || {
                analyze_loop(&program, main, k.header, DswpOptions::default().alias)
            });
            analyze = t.elapsed();
        }
        let mut compiled = program.clone();
        let report = self.tracer.span("core.compile", || {
            dswp_loop(
                &mut compiled,
                main,
                k.header,
                &profile,
                &DswpOptions::default(),
            )
        });
        let run = if report.is_ok() { &compiled } else { &program };
        self.native(run, RtConfig::default(), &k.expected, Role::Job, k.name)
            .map(|_| analyze)
    }

    /// One `native` operation: kernel `k` untransformed, DSWP unbatched
    /// and DSWP batched, back to back. Returns the `(seq, pipe, batched)`
    /// elapsed times of the runs that ran and matched the reference.
    pub fn native_triple(&mut self, k: &PaperKernel) -> [Result<Duration, OpError>; 3] {
        let root = self.tracer.open("op.native");
        let runs = [
            (&k.program, RtConfig::default(), Role::Seq),
            (k.pipe_program(), RtConfig::default(), Role::Pipe),
            (k.pipe_program(), k.batched_config(), Role::Batched),
        ];
        let out = runs.map(|(p, cfg, role)| {
            self.native(p, cfg, &k.expected, role, k.name)
                .map(|r| r.elapsed)
        });
        self.tracer.close(root);
        out
    }

    /// One `simulate` operation on paper kernel `idx`: the timing model on
    /// the baseline, the DSWP program and (when it exists) the replicated
    /// program, plus the functional `Executor` on the DSWP program. Every
    /// image must match the reference, and cycles must repeat exactly.
    pub fn simulate(&mut self, idx: usize, k: &PaperKernel) -> bool {
        let root = self.tracer.open("op.sim");
        let ok = self.simulate_inner(idx, k);
        self.tracer.close(root);
        ok
    }

    fn simulate_inner(&mut self, idx: usize, k: &PaperKernel) -> bool {
        let Some(base) = self.machine(&k.program, &k.expected, k.name) else {
            return false;
        };
        let Some(dswp) = self.machine(k.pipe_program(), &k.expected, k.name) else {
            return false;
        };
        let replicated = match &k.replicated {
            Some((p, _)) => match self.machine(p, &k.expected, k.name) {
                Some(r) => Some(r.cycles),
                None => return false,
            },
            None => None,
        };
        let t = Instant::now();
        let exec = self
            .tracer
            .span("sim.exec", || Executor::new(k.pipe_program()).run());
        self.obs.exec_us.push(t.elapsed().as_secs_f64() * 1e6);
        match exec {
            Ok(e) if e.memory == k.expected => {}
            Ok(_) => {
                self.obs.fail(format!(
                    "sim {}: executor image differs from reference",
                    k.name
                ));
                return false;
            }
            Err(e) => {
                self.obs.fail(format!("sim {}: executor: {e}", k.name));
                return false;
            }
        }
        let cycles = SimCycles {
            base: base.cycles,
            dswp: dswp.cycles,
            replicated,
            stall_queue_empty: dswp.cores.iter().map(|c| c.stall_queue_empty).sum(),
            stall_queue_full: dswp.cores.iter().map(|c| c.stall_queue_full).sum(),
            occupancy_mean: dswp.occupancy.mean(),
        };
        match &self.obs.sim[idx] {
            None => {
                self.obs.sim[idx] = Some(cycles);
                true
            }
            Some(first) if *first == cycles => true,
            Some(_) => {
                self.obs.fail(format!(
                    "sim {}: cycles differ between repeated runs",
                    k.name
                ));
                false
            }
        }
    }

    fn machine(&mut self, program: &Program, expected: &[i64], what: &str) -> Option<SimResult> {
        let t = Instant::now();
        let r = self.tracer.span("sim.machine", || {
            Machine::new(program, MachineConfig::full_width()).run()
        });
        self.obs.sim_host_ns += t.elapsed().as_secs_f64() * 1e9;
        match r {
            Ok(r) if r.memory == expected => {
                self.obs.sim_instrs += r.cores.iter().map(|c| c.retired).sum::<u64>();
                Some(r)
            }
            Ok(_) => {
                self.obs
                    .fail(format!("sim {what}: machine image differs from reference"));
                None
            }
            Err(e) => {
                self.obs.fail(format!("sim {what}: {e}"));
                None
            }
        }
    }
}

/// Why an operation produced no timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpError {
    /// A run needed more stage threads than the host has; nothing failed.
    Refused,
    /// A run failed or its memory image differed from the reference.
    Failed,
}
