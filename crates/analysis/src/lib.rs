//! Dependence analyses for the DSWP reproduction.
//!
//! This crate reconstructs the compiler analysis infrastructure the MICRO
//! 2005 DSWP paper obtained from the IMPACT compiler:
//!
//! * [`graph`] — a small directed-graph type shared by all analyses;
//! * [`dom`] — dominator and post-dominator trees (Cooper–Harvey–Kennedy);
//! * [`loops`] — natural-loop discovery with nesting depths;
//! * [`cdg`] — control dependence, standard (Ferrante–Ottenstein–Warren)
//!   plus the paper's **loop-iteration** extension computed on a
//!   conceptually peeled CFG (Section 2.3.1, Figure 4);
//! * [`dataflow`] — liveness and loop reaching definitions with
//!   loop-carried tagging;
//! * [`alias`] — memory disambiguation at three precision levels
//!   (conservative / region / affine), the knob behind the paper's epicdec
//!   case study (Section 5.1);
//! * [`pdg`] — the loop Program Dependence Graph, including conditional
//!   control dependences and live-out output coupling (Section 2.3.2,
//!   Figure 5);
//! * [`scc`] — Tarjan SCCs and the coalesced `DAG_SCC` (Figure 2(c)).
//!
//! The `dswp` crate consumes these to implement the transformation itself.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alias;
mod bits;
pub mod cdg;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod dot;
pub mod graph;
pub mod loops;
pub mod pdg;
pub mod scc;
pub mod scev;

pub use alias::{alias_query, AliasMode, AliasResult};
pub use cdg::{control_deps, loop_control_deps, LoopControlDep};
pub use dataflow::{loop_dataflow, Liveness, LoopDataFlow, RegDep, RegSet};
pub use dom::{DomTree, PostDomTree};
pub use dot::{dag_to_dot, pdg_to_dot};
pub use graph::Graph;
pub use loops::{find_loops, NaturalLoop};
pub use pdg::{build_pdg, DepKind, Pdg, PdgArc, PdgNode, PdgOptions};
pub use scc::{strongly_connected_components, DagScc};
pub use scev::{annotate_affine, ScevStats};
