//! Local (basic-block) list scheduling.
//!
//! The paper's baseline is ILP-scheduled IMPACT code, and the compiler runs
//! "scheduling (which includes both traditional software pipelining and
//! acyclic list scheduling) and register allocation" after DSWP
//! (Section 3). This pass provides the acyclic list-scheduling half: within
//! each basic block, instructions are reordered by a critical-path priority
//! so that independent chains interleave and the in-order core can issue
//! them together.
//!
//! The schedule preserves, per block:
//!
//! * register flow, anti and output dependences (no renaming is performed);
//! * the relative order of possibly-aliasing memory operations (under the
//!   chosen [`AliasMode`]) and of calls (barriers);
//! * the relative order of all queue operations — `produce`/`consume` are
//!   blocking and their cross-thread matching must not be perturbed;
//! * the terminator's position (last).

use std::collections::BTreeMap;

use dswp_ir::{FuncId, Function, InstrId, LatencyTable, Op, Program};

use dswp_analysis::{alias_query, AliasMode};

/// Statistics from a scheduling run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Blocks whose instruction order changed.
    pub blocks_changed: usize,
    /// Blocks processed.
    pub blocks_total: usize,
}

/// List-schedules every block of every function in `program`.
pub fn schedule_program(
    program: &mut Program,
    latency: &LatencyTable,
    alias: AliasMode,
) -> ScheduleStats {
    let mut stats = ScheduleStats::default();
    for fi in 0..program.functions().len() {
        let s = schedule_function(program.function_mut(FuncId::from_index(fi)), latency, alias);
        stats.blocks_changed += s.blocks_changed;
        stats.blocks_total += s.blocks_total;
    }
    stats
}

/// List-schedules every block of `f`.
pub fn schedule_function(
    f: &mut Function,
    latency: &LatencyTable,
    alias: AliasMode,
) -> ScheduleStats {
    let mut stats = ScheduleStats::default();
    for b in f.block_ids().collect::<Vec<_>>() {
        let order = f.block(b).instrs().to_vec();
        let new_order = schedule_block(f, &order, latency, alias);
        stats.blocks_total += 1;
        if new_order != order {
            stats.blocks_changed += 1;
            f.set_block_instrs(b, new_order);
        }
    }
    stats
}

fn mem_info(op: &Op) -> dswp_ir::op::MemInfo {
    match op {
        Op::Load { mem, .. } | Op::Store { mem, .. } => *mem,
        _ => dswp_ir::op::MemInfo::UNKNOWN,
    }
}

/// Builds the intra-block dependence DAG and emits a latency-aware list
/// schedule. The terminator (if any) is pinned last.
fn schedule_block(
    f: &Function,
    instrs: &[InstrId],
    latency: &LatencyTable,
    alias: AliasMode,
) -> Vec<InstrId> {
    let n = instrs.len();
    if n <= 2 {
        return instrs.to_vec();
    }
    // preds[i] counts unscheduled predecessors; succs[i] lists dependents.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pred_count = vec![0usize; n];
    let add_edge =
        |succs: &mut Vec<Vec<usize>>, pred_count: &mut Vec<usize>, a: usize, b: usize| {
            if !succs[a].contains(&b) {
                succs[a].push(b);
                pred_count[b] += 1;
            }
        };

    let ops: Vec<&Op> = instrs.iter().map(|&i| f.op(i)).collect();
    for j in 1..n {
        for i in 0..j {
            let (a, b) = (ops[i], ops[j]);
            let mut dep = false;
            // Register: flow (def i, use j), anti (use i, def j),
            // output (def i, def j).
            if let Some(d) = a.def() {
                dep |= b.use_regs().any(|u| u == d);
                dep |= b.def() == Some(d);
            }
            if let Some(d) = b.def() {
                dep |= a.use_regs().any(|u| u == d);
            }
            // Memory / barriers.
            let bar = a.is_barrier() || b.is_barrier();
            let mem_pair = (a.is_mem_read() || a.is_mem_write())
                && (b.is_mem_read() || b.is_mem_write())
                && (a.is_mem_write() || b.is_mem_write());
            if bar
                && (b.is_mem_read()
                    || b.is_mem_write()
                    || b.is_barrier()
                    || a.is_mem_read()
                    || a.is_mem_write())
            {
                dep = true;
            }
            if mem_pair && alias_query(&mem_info(a), &mem_info(b), alias).intra {
                dep = true;
            }
            // Queue operations stay mutually ordered.
            if a.is_queue_op() && b.is_queue_op() {
                dep = true;
            }
            // Terminator last.
            if b.is_terminator() {
                dep = true;
            }
            if dep {
                add_edge(&mut succs, &mut pred_count, i, j);
            }
        }
    }

    // Critical-path priority: longest latency-weighted path to the end.
    let mut priority = vec![0u64; n];
    for i in (0..n).rev() {
        let lat = latency.op(ops[i]);
        let best_succ = succs[i].iter().map(|&s| priority[s]).max().unwrap_or(0);
        priority[i] = lat + best_succ;
    }

    // Greedy list schedule: among ready instructions, highest priority
    // first; break ties by original position (stability).
    let mut ready: BTreeMap<(u64, usize), usize> = BTreeMap::new();
    for i in 0..n {
        if pred_count[i] == 0 {
            ready.insert((u64::MAX - priority[i], i), i);
        }
    }
    let mut out = Vec::with_capacity(n);
    while let Some((_, i)) = ready.pop_first() {
        out.push(instrs[i]);
        for &s in &succs[i] {
            pred_count[s] -= 1;
            if pred_count[s] == 0 {
                ready.insert((u64::MAX - priority[s], s), s);
            }
        }
    }
    debug_assert_eq!(out.len(), n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_ir::interp::Interpreter;
    use dswp_ir::verify::verify_program;
    use dswp_ir::{ProgramBuilder, RegionId};

    /// Two independent chains interleaved badly: chain A (serial muls) then
    /// chain B (serial muls). Scheduling should interleave them.
    fn two_chains() -> dswp_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (a, b, base) = (f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(a, 3);
        f.mul(a, a, 5);
        f.mul(a, a, 7);
        f.mul(a, a, 11);
        f.iconst(b, 2);
        f.mul(b, b, 5);
        f.mul(b, b, 7);
        f.mul(b, b, 11);
        f.iconst(base, 0);
        f.store(a, base, 0);
        f.store(b, base, 1);
        f.halt();
        let main = f.finish();
        pb.finish(main, 2)
    }

    #[test]
    fn scheduling_preserves_semantics_and_interleaves() {
        let mut p = two_chains();
        let before = Interpreter::new(&p).run().unwrap();
        let lat = LatencyTable::default();
        let stats = schedule_program(&mut p, &lat, AliasMode::Region);
        assert!(stats.blocks_changed >= 1, "{stats:?}");
        verify_program(&p).unwrap();
        let after = Interpreter::new(&p).run().unwrap();
        assert_eq!(before.memory, after.memory);

        // The two mul chains should now alternate: find positions of the
        // first ops of each chain in the block.
        let f = p.function(p.main());
        let block = f.block(f.entry());
        let texts: Vec<String> = block
            .instrs()
            .iter()
            .map(|&i| f.op(i).to_string())
            .collect();
        let first_b = texts.iter().position(|t| t == "r1 = 2").unwrap();
        let last_a_mul = texts
            .iter()
            .rposition(|t| t.starts_with("r0 = mul"))
            .unwrap();
        assert!(
            first_b < last_a_mul,
            "chain B should start before chain A finishes: {texts:?}"
        );
    }

    #[test]
    fn scheduling_speeds_up_the_in_order_core() {
        let p = two_chains();
        let base = dswp_sim::Machine::new(&p, dswp_sim::MachineConfig::full_width())
            .run()
            .unwrap();
        let mut s = p.clone();
        schedule_program(&mut s, &LatencyTable::default(), AliasMode::Region);
        let sched = dswp_sim::Machine::new(&s, dswp_sim::MachineConfig::full_width())
            .run()
            .unwrap();
        assert_eq!(base.memory, sched.memory);
        assert!(
            sched.cycles < base.cycles,
            "scheduled {} vs unscheduled {}",
            sched.cycles,
            base.cycles
        );
    }

    #[test]
    fn aliasing_stores_keep_their_order() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let (base, v1, v2) = (f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(base, 0);
        f.iconst(v1, 1);
        f.iconst(v2, 2);
        f.store_region(v1, base, 0, RegionId(0));
        f.store_region(v2, base, 0, RegionId(0)); // same address: must stay last
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 1);
        schedule_program(&mut p, &LatencyTable::default(), AliasMode::Region);
        let r = Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 2);
    }

    #[test]
    fn queue_ops_keep_their_order() {
        use dswp_ir::QueueId;
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        let t = f.reg();
        f.iconst(t, 1);
        f.produce(QueueId(0), t);
        f.produce(QueueId(1), 2);
        f.halt();
        let main = f.finish();
        let mut g = pb.function("aux");
        let e2 = g.entry_block();
        g.switch_to(e2);
        let (a, b, base) = (g.reg(), g.reg(), g.reg());
        g.consume(a, QueueId(0));
        g.consume(b, QueueId(1));
        g.iconst(base, 0);
        g.store(a, base, 0);
        g.store(b, base, 1);
        g.halt();
        let aux = g.finish();
        let mut p = pb.finish(main, 2);
        p.num_queues = 2;
        p.add_thread(aux);

        let mut s = p.clone();
        schedule_program(&mut s, &LatencyTable::default(), AliasMode::Region);
        // Queue ops must be in the same relative order in every block.
        for (fi, f) in s.functions().iter().enumerate() {
            let orig = p.function(dswp_ir::FuncId::from_index(fi));
            for b in f.block_ids() {
                let qs: Vec<String> = f
                    .block(b)
                    .instrs()
                    .iter()
                    .filter(|&&i| f.op(i).is_queue_op())
                    .map(|&i| f.op(i).to_string())
                    .collect();
                let orig_qs: Vec<String> = orig
                    .block(b)
                    .instrs()
                    .iter()
                    .filter(|&&i| orig.op(i).is_queue_op())
                    .map(|&i| orig.op(i).to_string())
                    .collect();
                assert_eq!(qs, orig_qs);
            }
        }
        let exec = dswp_sim::Executor::new(&s).run().unwrap();
        assert_eq!(exec.memory, vec![1, 2]);
    }
}
