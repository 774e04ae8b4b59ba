//! Checks shared by the root integration suites.

use std::collections::BTreeSet;

use dswp_repro::dswp::PipelineMap;
use dswp_repro::ir::Program;
use dswp_repro::rt::RtResult;
use dswp_repro::sim::ExecResult;

/// Compares a native run of `p` (with recorded streams) against its
/// functional-executor run on everything the scatter's routing cannot
/// change.
///
/// A replicated stage's scatter sends each iteration to the replica with
/// the smallest backlog, and on the native runtime that backlog is real
/// queue depth, so the two engines may route iterations differently. What
/// routing can never change, and what is checked exactly:
///
/// * final memory and the main context's entry registers;
/// * the value stream of every queue outside a replica group (the stage's
///   upstream queues and the gather's downstream queues included);
/// * the retired-step count of every context outside a replica group.
///
/// Per replica group, routing only moves work between replicas, so the
/// check is on the summed step count of the replicas and on the sorted
/// multiset of values through the scatter-fed and gather-drained queues
/// (the scatter→gather tag queue, which records the routing itself, is
/// left out). An unreplicated program has no groups, so every stream and
/// every step count is compared exactly.
pub fn assert_native_matches_executor(
    ctx: &str,
    p: &Program,
    exec: &ExecResult,
    native: &RtResult,
) {
    assert_eq!(native.memory, exec.memory, "{ctx}: memory");
    assert_eq!(native.entry_regs, exec.entry_regs, "{ctx}: entry regs");
    let streams = native
        .streams
        .as_ref()
        .unwrap_or_else(|| panic!("{ctx}: native streams not recorded"));
    let steps: Vec<u64> = native.stages.iter().map(|s| s.steps).collect();
    assert_eq!(streams.len(), exec.streams.len(), "{ctx}: queue count");
    assert_eq!(steps.len(), exec.steps.len(), "{ctx}: context count");

    let mut routed_queues = BTreeSet::new();
    let mut routed_threads = BTreeSet::new();
    for g in PipelineMap::infer(p).replica_groups(p) {
        let values: Vec<usize> = g
            .scatter_queues
            .iter()
            .chain(&g.gather_queues)
            .copied()
            .filter(|q| !(g.scatter_queues.contains(q) && g.gather_queues.contains(q)))
            .collect();
        let multiset = |s: &[Vec<i64>]| {
            let mut v: Vec<i64> = values.iter().flat_map(|&q| s[q].iter().copied()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            multiset(streams),
            multiset(&exec.streams),
            "{ctx}: values through the replicas of stage {}",
            g.stage
        );
        let replica_steps = |s: &[u64]| g.replica_threads.iter().map(|&t| s[t]).sum::<u64>();
        assert_eq!(
            replica_steps(&steps),
            replica_steps(&exec.steps),
            "{ctx}: summed replica steps of stage {}",
            g.stage
        );
        routed_queues.extend(g.scatter_queues.iter().chain(&g.gather_queues).copied());
        routed_threads.extend(g.threads());
    }
    for (q, stream) in streams.iter().enumerate() {
        if !routed_queues.contains(&q) {
            assert_eq!(*stream, exec.streams[q], "{ctx}: stream of queue {q}");
        }
    }
    for (t, &n) in steps.iter().enumerate() {
        if !routed_threads.contains(&t) {
            assert_eq!(n, exec.steps[t], "{ctx}: steps of context {t}");
        }
    }
}
