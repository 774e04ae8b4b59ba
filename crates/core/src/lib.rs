//! Decoupled Software Pipelining (DSWP) — automatic thread extraction.
//!
//! A faithful reproduction of the compiler algorithm of *"Automatic Thread
//! Extraction with Decoupled Software Pipelining"* (Ottoni, Rangan, Stoler,
//! August — MICRO 2005), implemented over the `dswp-ir` register IR and the
//! `dswp-analysis` dependence analyses.
//!
//! The algorithm (the paper's Figure 3):
//!
//! ```text
//! DSWP(loop L)
//!   (1) G        ← build dependence graph(L)        // dswp-analysis::pdg
//!   (2) SCCs     ← find strongly connected comps(G) // dswp-analysis::scc
//!   (3) if |SCCs| = 1 then return
//!   (4) DAG_SCC  ← coalesce SCCs(G, SCCs)
//!   (5) P        ← TPP algorithm(DAG_SCC, L)        // partition::tpp_heuristic
//!   (6) if |P| = 1 then return
//!   (7) split code into loops(L, P)                 // transform
//!   (8) insert necessary flows(L, P)                // transform
//! ```
//!
//! Entry points:
//!
//! * [`dswp_loop`] — run the full pipeline on a chosen loop;
//! * [`select_loop`] — pick the candidate loop the way the paper's
//!   evaluation does;
//! * [`loop_stats`] — Table 1-style structural statistics;
//! * [`enumerate_two_thread`] — the "best manually directed" search space
//!   of Figure 6(a);
//! * [`doacross()`](doacross::doacross) — the DOACROSS comparator of Figure 1.
//!
//! # Example
//!
//! ```
//! use dswp::{dswp_loop, select_loop, DswpOptions};
//! use dswp_ir::interp::Interpreter;
//! # use dswp_ir::ProgramBuilder;
//! # // Build a trivial pointer-chasing loop: sum += node.val over a list.
//! # let mut pb = ProgramBuilder::new();
//! # let mut f = pb.function("main");
//! # let e = f.entry_block();
//! # let h = f.block("h");
//! # let body = f.block("body");
//! # let exit = f.block("exit");
//! # let (ptr, sum, val, done, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
//! # f.switch_to(e);
//! # f.iconst(ptr, 1);
//! # f.iconst(sum, 0);
//! # f.iconst(base, 0);
//! # f.jump(h);
//! # f.switch_to(h);
//! # f.cmp_eq(done, ptr, 0);
//! # f.br(done, exit, body);
//! # f.switch_to(body);
//! # f.load(val, ptr, 1);
//! # f.add(sum, sum, val);
//! # f.load(ptr, ptr, 0);
//! # f.jump(h);
//! # f.switch_to(exit);
//! # f.store(sum, base, 0);
//! # f.halt();
//! # let main = f.finish();
//! # let mut mem = vec![0i64; 64];
//! # let mut addr = 1usize;
//! # for i in 0..12 { let next = if i == 11 { 0 } else { addr + 2 };
//! #   mem[addr] = next as i64; mem[addr + 1] = i as i64; addr += 2; }
//! # let mut program = pb.finish_with_memory(main, mem);
//! let profile = Interpreter::new(&program).run()?.profile;
//! let main = program.main();
//! if let Some(header) = select_loop(&program, main, &profile, 4.0) {
//!     let report = dswp_loop(&mut program, main, header, &profile, &DswpOptions::default())?;
//!     assert_eq!(report.partitioning.num_threads, 2);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cleanup;
pub mod doacross;
pub mod error;
pub mod estimate;
pub mod normalize;
pub mod partition;
pub mod pipeline;
pub mod replicate;
pub mod schedule;
pub mod stage_map;
pub mod transform;
pub mod unroll;

pub use cleanup::{merge_blocks, merge_blocks_program, MergeStats};
pub use doacross::{doacross, DoacrossReport};
pub use error::DswpError;
pub use estimate::{estimated_speedup, replicated_bottleneck, scc_costs, stage_times, SccCosts};
pub use normalize::{normalize_loop, NormalizedLoop};
pub use partition::{enumerate_two_thread, tpp_heuristic, Partitioning, TppOptions};
pub use pipeline::{
    analyze_loop, annotate_loop_affine, dswp_loop, loop_stats, select_loop, DswpOptions,
    DswpReport, LoopAnalysis, LoopStats,
};
pub use replicate::{replicable_stages, replicate_stage, Replicate, ReplicationInfo};
pub use schedule::{schedule_function, schedule_program, ScheduleStats};
pub use stage_map::{
    PipelineMap, PipelineMapError, QueueEndpoints, QueueKind, ReplicaGroup, StageInfo, StageRole,
};
pub use transform::{apply_dswp, DswpArtifacts, FlowStats};
pub use unroll::{unroll_counted, unroll_loop};
