//! The cycle-level CMP timing model.
//!
//! A deterministic, cycle-driven simulation of `N` in-order multi-issue
//! cores (one per program hardware context) connected through the
//! synchronization array (Section 2.1 / 4.2 of the paper):
//!
//! * per-cycle in-order issue of up to `issue_width` instructions, at most
//!   `m_ports` of them M-type (memory or queue), gated by a register
//!   scoreboard;
//! * per-opcode latencies from the [`LatencyTable`](dswp_ir::LatencyTable), with load latency from
//!   the cache model when enabled;
//! * `produce` blocks while its queue holds `queue_capacity` entries and
//!   makes the value visible `comm_latency` cycles later; `consume` blocks
//!   while no visible entry exists and delivers in one cycle — the paper's
//!   blocking-queue semantics;
//! * control transfers pay a front-end redirect bubble.
//!
//! Execution is *execute-at-issue*: the program is lowered once into a
//! [`Code`], and an instruction that passes the issue checks — which read
//! the IR instruction at the program counter through [`Code::instr_id`],
//! without allocating — executes through the shared executor [`Code::run`]
//! with a budget of one instruction in the cycle it issues; timing
//! constraints (scoreboard + queue visibility) guarantee cross-core
//! ordering matches the dependences, so the simulation is also a correct
//! functional execution.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::fmt;

use dswp_ir::exec::{checked_read, checked_write, Code, Engine, Exit, Fault, Frame};
use dswp_ir::{Op, Program, QueueId};

use crate::cache::{CacheModel, CacheStats};
use crate::config::MachineConfig;
use crate::sharing::Access;

/// Errors raised by the timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Out-of-bounds memory access.
    MemoryOutOfBounds {
        /// Faulting word address.
        address: i64,
        /// Memory size in words.
        size: usize,
    },
    /// Invalid indirect call target.
    BadIndirectTarget(i64),
    /// No core made progress for a long window — a queue deadlock.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
    },
    /// The configured cycle limit was reached.
    CycleLimit(u64),
    /// `ret` with an empty call stack.
    ReturnFromEntry(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemoryOutOfBounds { address, size } => {
                write!(
                    f,
                    "memory access at word {address} out of bounds (size {size})"
                )
            }
            SimError::BadIndirectTarget(v) => {
                write!(f, "indirect call target {v} is not a valid function id")
            }
            SimError::Deadlock { cycle } => write!(f, "deadlock detected at cycle {cycle}"),
            SimError::CycleLimit(c) => write!(f, "cycle limit of {c} reached"),
            SimError::ReturnFromEntry(t) => {
                write!(f, "core {t} returned from its entry function")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Why a core issued nothing in a given cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StallReason {
    /// Waiting on a source register (scoreboard).
    Data,
    /// Blocked consuming from an empty queue.
    QueueEmpty,
    /// Blocked producing to a full queue.
    QueueFull,
    /// Front-end redirect bubble.
    FrontEnd,
    /// Structural (M-port) conflict.
    Structural,
}

/// Per-core statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// All retired instructions.
    pub retired: u64,
    /// Retired `produce`/`consume`/token instructions.
    pub queue_ops: u64,
    /// Cycles in which nothing issued, waiting on a source register.
    pub stall_data: u64,
    /// Cycles blocked on an empty queue.
    pub stall_queue_empty: u64,
    /// Cycles blocked on a full queue.
    pub stall_queue_full: u64,
    /// Front-end bubble cycles.
    pub stall_frontend: u64,
    /// Structural-hazard cycles.
    pub stall_structural: u64,
    /// Cycles before this core halted.
    pub active_cycles: u64,
}

impl CoreStats {
    /// Instructions (excluding queue operations) per cycle over the whole
    /// run, the metric of Figure 6(b) ("these IPC numbers do not include
    /// the produce and consume instructions inserted by DSWP").
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            (self.retired - self.queue_ops) as f64 / cycles as f64
        }
    }
}

/// Per-cycle classification of the synchronization array, the categories of
/// the paper's Figure 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancyClasses {
    /// Some queue full and its producer stalled on it.
    pub full_producer_stalled: u64,
    /// All relevant queues empty and a consumer stalled.
    pub empty_consumer_stalled: u64,
    /// Queues empty but both/all cores made progress.
    pub empty_both_active: u64,
    /// Data buffered and both/all cores made progress.
    pub balanced_both_active: u64,
}

/// Synchronization-array occupancy statistics.
#[derive(Clone, Debug, Default)]
pub struct OccupancyStats {
    /// Cycle-count histogram keyed by total buffered entries.
    pub histogram: BTreeMap<usize, u64>,
    /// Periodic samples `(cycle, total occupancy)` for trace plots
    /// (Figure 7).
    pub timeline: Vec<(u64, usize)>,
    /// Figure 8 classification.
    pub classes: OccupancyClasses,
}

impl OccupancyStats {
    /// Mean total occupancy over the run.
    pub fn mean(&self) -> f64 {
        let (mut sum, mut n) = (0f64, 0f64);
        for (&occ, &cycles) in &self.histogram {
            sum += occ as f64 * cycles as f64;
            n += cycles as f64;
        }
        if n == 0.0 {
            0.0
        } else {
            sum / n
        }
    }

    /// Maximum observed total occupancy.
    pub fn max(&self) -> usize {
        self.histogram.keys().next_back().copied().unwrap_or(0)
    }
}

/// The result of a timing-model run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Cycles until the main core halted.
    pub cycles: u64,
    /// Final shared memory.
    pub memory: Vec<i64>,
    /// Main core's entry-frame registers at halt.
    pub entry_regs: Vec<i64>,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Queue occupancy statistics.
    pub occupancy: OccupancyStats,
    /// Per-core cache statistics (empty when the cache model is disabled).
    pub cache: Vec<CacheStats>,
    /// Memory trace (empty unless `record_mem_trace` was set).
    pub mem_trace: Vec<Access>,
}

struct Core {
    stack: Vec<Frame>,
    /// Scoreboard: the cycle each register's value becomes available, one
    /// register file per frame of `stack`.
    ready: Vec<Vec<u64>>,
    halted: bool,
    next_issue: u64,
    stats: CoreStats,
}

/// Everything outside the cores, and the [`Engine`] a core steps against:
/// shared memory behind the optional cache model, and the synchronization
/// array, whose entries carry the cycle they become visible.
struct Uncore {
    memory: Vec<i64>,
    queues: Vec<VecDeque<(i64, u64)>>,
    cache: Option<CacheModel>,
    /// Memory trace, when `record_mem_trace` is set.
    trace: Option<Vec<Access>>,
    comm_latency: u64,
    /// The core and cycle of the instruction being issued.
    core: usize,
    cycle: u64,
    /// The cache model's latency for the load being issued.
    load_latency: Option<u64>,
}

impl Uncore {
    fn record(&mut self, addr: i64, write: bool) {
        if let Some(t) = &mut self.trace {
            t.push(Access {
                core: self.core,
                cycle: self.cycle,
                addr: addr as u64,
                write,
            });
        }
    }
}

/// Never stops: `issue_cycle` holds back a queue operation that would block.
impl Engine for Uncore {
    type Stop = Infallible;

    fn load(&mut self, addr: i64) -> Option<i64> {
        let v = checked_read(&self.memory, addr)?;
        if let Some(c) = &mut self.cache {
            self.load_latency = Some(c.load_latency(self.core, addr as u64));
        }
        self.record(addr, false);
        Some(v)
    }

    fn store(&mut self, addr: i64, value: i64) -> bool {
        if !checked_write(&mut self.memory, addr, value) {
            return false;
        }
        if let Some(c) = &mut self.cache {
            c.store(self.core, addr as u64);
        }
        self.record(addr, true);
        true
    }

    fn produce(&mut self, queue: QueueId, value: i64) -> Result<(), Infallible> {
        self.queues[queue.index()].push_back((value, self.cycle + self.comm_latency));
        Ok(())
    }

    fn consume(&mut self, queue: QueueId) -> Result<i64, Infallible> {
        let (v, _) = self.queues[queue.index()]
            .pop_front()
            .expect("availability checked");
        Ok(v)
    }

    fn depth(&mut self, queue: QueueId) -> Result<i64, Infallible> {
        // Occupancy as visible to this core: entries whose communication
        // latency has elapsed by this cycle.
        let cycle = self.cycle;
        let visible = self.queues[queue.index()]
            .iter()
            .filter(|&&(_, vis)| vis <= cycle)
            .count();
        Ok(visible as i64)
    }
}

/// The CMP timing model.
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    config: MachineConfig,
}

impl<'p> Machine<'p> {
    /// Creates a machine for `program` under `config`.
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        Machine { program, config }
    }

    /// Runs the program to completion (main core halt).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&self) -> Result<SimResult, SimError> {
        let program = self.program;
        let code = Code::new(program);
        let cfg = &self.config;
        let num_cores = program.num_threads();
        let mut uncore = Uncore {
            memory: program.initial_memory.clone(),
            queues: vec![VecDeque::new(); program.num_queues as usize],
            cache: cfg.cache.map(|cc| CacheModel::new(cc, num_cores)),
            trace: cfg.record_mem_trace.then(Vec::new),
            comm_latency: cfg.comm_latency,
            core: 0,
            cycle: 0,
            load_latency: None,
        };
        let mut cores: Vec<Core> = program
            .thread_entries()
            .iter()
            .map(|&e| {
                let f = program.function(e);
                Core {
                    stack: vec![code.frame(e)],
                    ready: vec![vec![0; f.num_regs() as usize]],
                    halted: false,
                    next_issue: 0,
                    stats: CoreStats::default(),
                }
            })
            .collect();

        let mut occupancy = OccupancyStats::default();
        let mut cycle: u64 = 0;
        let mut last_progress: u64 = 0;
        let deadlock_window: u64 = 50_000 + cfg.comm_latency * 64;

        while !cores.iter().all(|c| c.halted) {
            if cycle >= cfg.max_cycles {
                return Err(SimError::CycleLimit(cfg.max_cycles));
            }
            if cycle.saturating_sub(last_progress) > deadlock_window {
                if cores[0].halted {
                    // Remaining cores are parked on empty queues with no
                    // producer left; the program is done.
                    break;
                }
                return Err(SimError::Deadlock { cycle });
            }

            let mut stall_flags = [false; 3]; // [full-stall, empty-stall, any-issue]
            for (c, core) in cores.iter_mut().enumerate().take(num_cores) {
                if core.halted {
                    continue;
                }
                core.stats.active_cycles += 1;
                uncore.core = c;
                uncore.cycle = cycle;
                match issue_cycle(program, &code, cfg, core, &mut uncore)? {
                    CycleOutcome::Issued(n) => {
                        debug_assert!(n > 0);
                        stall_flags[2] = true;
                        last_progress = cycle;
                    }
                    CycleOutcome::Stalled(StallReason::QueueFull) => {
                        core.stats.stall_queue_full += 1;
                        stall_flags[0] = true;
                    }
                    CycleOutcome::Stalled(StallReason::QueueEmpty) => {
                        core.stats.stall_queue_empty += 1;
                        stall_flags[1] = true;
                    }
                    CycleOutcome::Stalled(r) => {
                        match r {
                            StallReason::Data => core.stats.stall_data += 1,
                            StallReason::FrontEnd => core.stats.stall_frontend += 1,
                            StallReason::Structural => core.stats.stall_structural += 1,
                            _ => unreachable!(),
                        }
                        stall_flags[2] = true; // making forward progress soon
                    }
                }
            }

            // Occupancy bookkeeping.
            let occ: usize = uncore.queues.iter().map(VecDeque::len).sum();
            *occupancy.histogram.entry(occ).or_insert(0) += 1;
            if cycle.is_multiple_of(cfg.occupancy_sample_period) {
                occupancy.timeline.push((cycle, occ));
            }
            let cls = &mut occupancy.classes;
            if stall_flags[0] {
                cls.full_producer_stalled += 1;
            } else if stall_flags[1] {
                cls.empty_consumer_stalled += 1;
            } else if occ == 0 {
                cls.empty_both_active += 1;
            } else {
                cls.balanced_both_active += 1;
            }

            cycle += 1;
        }

        let entry_regs = code.entry_regs(&cores[0].stack);
        Ok(SimResult {
            cycles: cycle,
            memory: uncore.memory,
            entry_regs,
            cores: cores.into_iter().map(|c| c.stats).collect(),
            occupancy,
            cache: uncore.cache.map(|c| c.stats().to_vec()).unwrap_or_default(),
            mem_trace: uncore.trace.unwrap_or_default(),
        })
    }
}

enum CycleOutcome {
    Issued(usize),
    Stalled(StallReason),
}

/// Issues as many instructions as the cycle allows on one core.
fn issue_cycle(
    program: &Program,
    code: &Code,
    cfg: &MachineConfig,
    core: &mut Core,
    uncore: &mut Uncore,
) -> Result<CycleOutcome, SimError> {
    let cycle = uncore.cycle;
    if cycle < core.next_issue {
        return Ok(CycleOutcome::Stalled(StallReason::FrontEnd));
    }
    let mut issued = 0usize;
    let mut m_used = 0usize;
    let mut first_block: Option<StallReason> = None;

    'issue: while issued < cfg.issue_width {
        let frame = core.stack.last().expect("live core has a frame");
        let op = program.function(frame.func).op(code.instr_id(frame));
        let ready = core.ready.last_mut().expect("one scoreboard per frame");

        // Structural: M-port limit.
        if op.is_m_type() && m_used >= cfg.m_ports {
            first_block.get_or_insert(StallReason::Structural);
            break 'issue;
        }
        // Scoreboard: all sources ready.
        if op.use_regs().any(|u| ready[u.index()] > cycle) {
            first_block.get_or_insert(StallReason::Data);
            break 'issue;
        }
        // Queue availability.
        match *op {
            Op::Consume { queue, .. } | Op::ConsumeToken { queue } => {
                let visible = uncore.queues[queue.index()]
                    .front()
                    .is_some_and(|&(_, vis)| vis <= cycle);
                if !visible {
                    first_block.get_or_insert(StallReason::QueueEmpty);
                    break 'issue;
                }
            }
            Op::Produce { queue, .. } | Op::ProduceToken { queue }
                if uncore.queues[queue.index()].len() >= cfg.queue_capacity =>
            {
                first_block.get_or_insert(StallReason::QueueFull);
                break 'issue;
            }
            _ => {}
        }

        // ---- issue: execute functionally, assign latency ----
        let halted = match code.run(&mut core.stack, uncore, 1).exit {
            Exit::Budget => false,
            Exit::Halt => true,
            Exit::Stop(never) => match never {},
            Exit::Fault(f) => {
                return Err(match f {
                    Fault::MemoryOutOfBounds { address } => SimError::MemoryOutOfBounds {
                        address,
                        size: uncore.memory.len(),
                    },
                    Fault::BadIndirectTarget(v) => SimError::BadIndirectTarget(v),
                    Fault::ReturnFromEntry => SimError::ReturnFromEntry(uncore.core),
                })
            }
        };
        // The core retires its `halt` (or terminate sentinel) too.
        core.stats.retired += 1;
        issued += 1;
        if op.is_m_type() {
            m_used += 1;
        }
        if op.is_queue_op() {
            core.stats.queue_ops += 1;
        }
        if halted {
            core.halted = true;
            break 'issue;
        }
        match *op {
            Op::Br { .. } | Op::Jump { .. } => {}
            Op::Call { .. } | Op::CallInd { .. } => {
                let callee = core.stack.last().expect("a call pushed a frame").func;
                let regs = program.function(callee).num_regs() as usize;
                core.ready.push(vec![0; regs]);
            }
            Op::Ret => {
                core.ready.pop();
            }
            _ => {
                if let Some(dst) = op.def() {
                    let lat = uncore.load_latency.take().unwrap_or(cfg.latency.op(op));
                    ready[dst.index()] = cycle + lat;
                }
                continue 'issue;
            }
        }
        // Control transfer: front-end redirect bubble.
        core.next_issue = cycle + 1 + cfg.taken_branch_bubble;
        break 'issue;
    }

    if issued > 0 {
        Ok(CycleOutcome::Issued(issued))
    } else {
        Ok(CycleOutcome::Stalled(
            first_block.unwrap_or(StallReason::Data),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::Executor;
    use dswp_ir::{ProgramBuilder, QueueId};

    fn sum_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, sum, lim, done, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(sum, 0);
        f.iconst(lim, n);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, lim);
        f.br(done, exit, body);
        f.switch_to(body);
        f.add(sum, sum, i);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(sum, base, 0);
        f.halt();
        let main = f.finish();
        pb.finish(main, 1)
    }

    #[test]
    fn timing_model_matches_functional_semantics() {
        let p = sum_loop(200);
        let sim = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
        let fun = Executor::new(&p).run().unwrap();
        assert_eq!(sim.memory, fun.memory);
        assert!(sim.cycles > 0);
        assert!(sim.cores[0].retired > 0);
    }

    #[test]
    fn narrower_core_takes_more_cycles() {
        let p = sum_loop(500);
        let full = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
        let half = Machine::new(&p, MachineConfig::half_width()).run().unwrap();
        assert!(half.cycles >= full.cycles);
    }

    #[test]
    fn ipc_excludes_queue_ops() {
        let stats = CoreStats {
            retired: 100,
            queue_ops: 40,
            ..CoreStats::default()
        };
        assert!((stats.ipc(60) - 1.0).abs() < 1e-9);
    }

    fn queued_pair(capacity: usize, comm: u64) -> (Program, MachineConfig) {
        // Thread 0 produces 1000 values; thread 1 consumes with a slow body.
        let mut pb = ProgramBuilder::new();
        let q = QueueId(0);

        let mut f = pb.function("producer");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, lim, done) = (f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(lim, 1000);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, lim);
        f.br(done, exit, body);
        f.switch_to(body);
        f.produce(q, i);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.halt();
        let producer = f.finish();

        let mut g = pb.function("consumer");
        let e2 = g.entry_block();
        let header2 = g.block("header2");
        let body2 = g.block("body2");
        let exit2 = g.block("exit2");
        let (j, lim2, done2, v, acc, base) = (g.reg(), g.reg(), g.reg(), g.reg(), g.reg(), g.reg());
        g.switch_to(e2);
        g.iconst(j, 0);
        g.iconst(lim2, 1000);
        g.iconst(acc, 0);
        g.iconst(base, 0);
        g.jump(header2);
        g.switch_to(header2);
        g.cmp_ge(done2, j, lim2);
        g.br(done2, exit2, body2);
        g.switch_to(body2);
        g.consume(v, q);
        // Slow body: serial multiplies.
        g.mul(acc, acc, 3);
        g.mul(acc, acc, 5);
        g.add(acc, acc, v);
        g.add(j, j, 1);
        g.jump(header2);
        g.switch_to(exit2);
        g.store(acc, base, 0);
        g.halt();
        let consumer = g.finish();

        let mut p = pb.finish(producer, 1);
        p.num_queues = 1;
        p.add_thread(consumer);
        let cfg = MachineConfig::full_width()
            .with_queue_capacity(capacity)
            .with_comm_latency(comm);
        (p, cfg)
    }

    #[test]
    fn producer_stalls_on_full_queue() {
        let (p, cfg) = queued_pair(4, 1);
        // NB: main = producer halts first; run until then.
        let sim = Machine::new(&p, cfg).run().unwrap();
        assert!(sim.cores[0].stall_queue_full > 0, "{:?}", sim.cores[0]);
        assert!(sim.occupancy.classes.full_producer_stalled > 0);
        assert!(sim.occupancy.max() <= 4);
    }

    #[test]
    fn decoupling_grows_with_queue_capacity() {
        let (p, cfg_small) = queued_pair(4, 1);
        let small = Machine::new(&p, cfg_small).run().unwrap();
        let (p2, cfg_big) = queued_pair(128, 1);
        let big = Machine::new(&p2, cfg_big).run().unwrap();
        assert!(big.occupancy.max() > small.occupancy.max());
        // A fast producer in front of a slow consumer finishes earlier with
        // deeper queues.
        assert!(big.cycles <= small.cycles);
    }

    #[test]
    fn deadlock_detection_fires() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let r = f.reg();
        f.switch_to(e);
        f.consume(r, QueueId(0));
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        p.num_queues = 1;
        let err = Machine::new(&p, MachineConfig::full_width())
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn comm_latency_delays_visibility() {
        let (p, cfg1) = queued_pair(32, 1);
        let r1 = Machine::new(&p, cfg1).run().unwrap();
        let (p2, cfg50) = queued_pair(32, 50);
        let r50 = Machine::new(&p2, cfg50).run().unwrap();
        // The producer (main core) is insensitive; it only fills queues.
        // But the consumer's first datum arrives 49 cycles later, which can
        // only stretch its execution, never shrink the producer's.
        assert!(r50.cycles >= r1.cycles);
    }
}

#[cfg(test)]
mod structural_tests {
    use super::*;
    use crate::config::MachineConfig;
    use dswp_ir::ProgramBuilder;

    /// Five independent loads in one block: with 4 M-ports at most four can
    /// issue per cycle, so structural stalls must appear at 2 M-ports.
    #[test]
    fn m_port_limit_binds() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let base = f.reg();
        f.switch_to(e);
        f.iconst(base, 0);
        for k in 0..8 {
            let d = f.reg();
            f.load(d, base, k);
        }
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 8);

        let mut full = MachineConfig::full_width();
        full.cache = None; // flat load latency; isolate the port effect
        let mut narrow = full.clone();
        narrow.m_ports = 1;
        let wide = Machine::new(&p, full).run().unwrap();
        let tight = Machine::new(&p, narrow).run().unwrap();
        assert!(
            tight.cycles > wide.cycles,
            "1 M-port {} !> 4 M-ports {}",
            tight.cycles,
            wide.cycles
        );
    }

    /// An indirect call through a register holding a function id runs the
    /// callee and returns.
    #[test]
    fn indirect_call_dispatches() {
        let mut pb = ProgramBuilder::new();
        let mut callee = pb.function("callee");
        let ce = callee.entry_block();
        let (b, v) = (callee.reg(), callee.reg());
        callee.switch_to(ce);
        callee.iconst(b, 0);
        callee.iconst(v, 99);
        callee.store(v, b, 0);
        callee.ret();
        let callee = callee.finish();

        let mut f = pb.function("main");
        let e = f.entry_block();
        let t = f.reg();
        f.switch_to(e);
        f.iconst(t, callee.index() as i64);
        f.call_ind(t);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 1);
        let r = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
        assert_eq!(r.memory[0], 99);
    }

    /// A negative indirect-call target halts the context (the DSWP
    /// terminate sentinel).
    #[test]
    fn indirect_call_sentinel_halts() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let t = f.reg();
        f.switch_to(e);
        f.iconst(t, -1);
        f.call_ind(t);
        // Unreachable, but blocks need terminators.
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        let r = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
        assert!(r.cycles < 10);
    }
}

impl SimResult {
    /// A multi-line human-readable summary of the run: cycles, per-core
    /// instruction counts, IPC and stall breakdowns, queue behavior and
    /// cache miss rates. Intended for logs and CLI output.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycles: {}", self.cycles);
        for (c, s) in self.cores.iter().enumerate() {
            let _ = writeln!(
                out,
                "core {c}: {} instrs ({} queue ops), IPC {:.2}; stalls: \
                 data {}, q-empty {}, q-full {}, frontend {}, structural {}",
                s.retired,
                s.queue_ops,
                s.ipc(self.cycles),
                s.stall_data,
                s.stall_queue_empty,
                s.stall_queue_full,
                s.stall_frontend,
                s.stall_structural,
            );
        }
        let cls = &self.occupancy.classes;
        let total = (cls.full_producer_stalled
            + cls.empty_consumer_stalled
            + cls.empty_both_active
            + cls.balanced_both_active)
            .max(1) as f64;
        let _ = writeln!(
            out,
            "queues: mean occupancy {:.1}, max {}; cycles {:.0}% balanced / \
             {:.0}% consumer-starved / {:.0}% producer-blocked",
            self.occupancy.mean(),
            self.occupancy.max(),
            100.0 * cls.balanced_both_active as f64 / total,
            100.0 * cls.empty_consumer_stalled as f64 / total,
            100.0 * cls.full_producer_stalled as f64 / total,
        );
        for (c, cs) in self.cache.iter().enumerate() {
            let _ = writeln!(
                out,
                "cache core {c}: {} loads, L1 miss rate {:.1}%",
                cs.accesses,
                100.0 * cs.l1_miss_rate()
            );
        }
        out
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use crate::config::MachineConfig;
    use dswp_ir::ProgramBuilder;

    #[test]
    fn summary_mentions_every_section() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (a, b) = (f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(a, 0);
        f.load(b, a, 0);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 1);
        let r = Machine::new(&p, MachineConfig::full_width()).run().unwrap();
        let s = r.summary();
        assert!(s.contains("cycles:"), "{s}");
        assert!(s.contains("core 0:"), "{s}");
        assert!(s.contains("queues:"), "{s}");
        assert!(s.contains("cache core 0:"), "{s}");
    }
}
