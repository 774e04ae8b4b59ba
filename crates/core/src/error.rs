//! Errors reported by the DSWP transformation.

use std::fmt;

use dswp_ir::BlockId;

/// Reasons the DSWP transformation declines or fails to transform a loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DswpError {
    /// The dependence graph has a single SCC: the loop is one recurrence and
    /// cannot be pipelined (Figure 3 line 3; the 164.gzip case, Section 5.4).
    SingleScc,
    /// The partitioner found no profitable multi-thread partitioning
    /// (Figure 3 line 6).
    NotProfitable,
    /// The loop's exit edges target more than one outside block, or none;
    /// this implementation requires a single exit target (workloads are
    /// built in this shape; see DESIGN.md).
    MultipleExitTargets(Vec<BlockId>),
    /// The requested partition is not valid per Definition 1.
    InvalidPartition(String),
    /// No loop satisfying the selection criteria was found.
    NoCandidateLoop,
    /// The loop shape is not eligible for the DOACROSS comparator
    /// (which requires a straight-line loop body).
    IneligibleForDoacross(String),
    /// The target machine cannot run the requested number of threads.
    TooManyThreads {
        /// Threads requested by the partitioning.
        requested: usize,
        /// Hardware contexts available.
        available: usize,
    },
    /// The input program failed structural verification (out-of-range
    /// registers/blocks/queues, empty or unterminated blocks, …). Raised at
    /// the public API boundary so malformed input surfaces as a typed error
    /// instead of an index panic deep inside the transformation.
    InvalidProgram(String),
}

impl fmt::Display for DswpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DswpError::SingleScc => {
                write!(
                    f,
                    "dependence graph has a single SCC; loop is not partitionable"
                )
            }
            DswpError::NotProfitable => {
                write!(f, "no profitable multi-thread partitioning was found")
            }
            DswpError::MultipleExitTargets(t) if t.is_empty() => {
                write!(f, "loop has no exit; a single exit target is required")
            }
            DswpError::MultipleExitTargets(t) => {
                write!(
                    f,
                    "loop has multiple exit targets {t:?}; a single exit target is required"
                )
            }
            DswpError::InvalidPartition(msg) => write!(f, "invalid partitioning: {msg}"),
            DswpError::IneligibleForDoacross(msg) => {
                write!(f, "loop not eligible for DOACROSS: {msg}")
            }
            DswpError::NoCandidateLoop => write!(f, "no candidate loop found"),
            DswpError::TooManyThreads {
                requested,
                available,
            } => write!(
                f,
                "partitioning requests {requested} threads but only {available} are available"
            ),
            DswpError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl std::error::Error for DswpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(DswpError::SingleScc.to_string().contains("single SCC"));
        assert!(DswpError::MultipleExitTargets(vec![BlockId(3)])
            .to_string()
            .contains("bb3"));
        let e = DswpError::TooManyThreads {
            requested: 4,
            available: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
    }
}
