//! Instruction opcodes and operands.
//!
//! The instruction set is a minimal RISC-like register machine extended with
//! the paper's `produce`/`consume` queue instructions (Section 2.1). All
//! values are 64-bit words; floating-point opcodes reinterpret the word as an
//! `f64` bit pattern. Arithmetic is wrapping and division by zero yields
//! zero, so every program has a total, deterministic semantics — a property
//! the DSWP equivalence oracle relies on.

use crate::types::{BlockId, FuncId, QueueId, Reg, RegionId};

/// An instruction source operand: either a register or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a virtual register.
    Reg(Reg),
    /// A 64-bit immediate constant.
    Imm(i64),
}

impl Operand {
    /// Returns the register read by this operand, if any.
    #[inline]
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// Binary arithmetic and logical operations.
///
/// Integer operations wrap on overflow; `Div`/`Rem` by zero yield zero.
/// The `F`-prefixed operations treat their operands as `f64` bit patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping integer addition.
    Add,
    /// Wrapping integer subtraction.
    Sub,
    /// Wrapping integer multiplication.
    Mul,
    /// Integer division (0 when the divisor is 0, wrapping on overflow).
    Div,
    /// Integer remainder (0 when the divisor is 0).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Shr,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
}

impl BinOp {
    /// Whether this is one of the floating-point operations.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }
}

/// Unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Register-to-register copy.
    Mov,
    /// Wrapping integer negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Convert an integer word to the `f64` bit pattern of the same value.
    IntToFloat,
    /// Truncate an `f64` bit pattern to an integer word (0 for NaN/overflow).
    FloatToInt,
}

/// Signed integer comparison predicates. Results are 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Floating-point less-than on `f64` bit patterns.
    FLt,
}

/// Coarse latency classes used by the timing model to assign per-opcode
/// latencies (the paper's heuristic weighs SCCs by instruction latency,
/// Section 2.2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LatencyClass {
    /// Simple integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// Floating-point add/sub/convert/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide.
    FpDiv,
    /// Memory load (base latency; the cache model adds miss penalties).
    Load,
    /// Memory store.
    Store,
    /// Branch or jump.
    Branch,
    /// Call / return overhead.
    Call,
    /// `produce`/`consume` queue access.
    Queue,
    /// Zero-work instruction.
    Nop,
}

/// An affine address annotation: within the annotated loop, the access
/// touches word `stride * i + phase` of its region on iteration `i` of the
/// induction variable labeled `iv`.
///
/// This is the reproduction's stand-in for IMPACT's accurate memory analysis
/// (the epicdec case study, Section 5.1 of the paper): two accesses to the
/// same region that are affine in the same induction variable with the same
/// stride can be disambiguated exactly (same phase → intra-iteration only;
/// phases that never coincide → independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Affine {
    /// Workload-chosen label identifying the induction variable.
    pub iv: u32,
    /// Words advanced per iteration.
    pub stride: i64,
    /// Constant word offset within the stride pattern.
    pub phase: i64,
}

/// Memory-analysis facts attached to a load or store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MemInfo {
    /// Points-to region (array / allocation site), if known.
    pub region: Option<RegionId>,
    /// Affine address pattern, if known.
    pub affine: Option<Affine>,
}

impl MemInfo {
    /// No facts: the access is analyzed fully conservatively.
    pub const UNKNOWN: MemInfo = MemInfo {
        region: None,
        affine: None,
    };

    /// Region-only annotation.
    pub fn region(region: RegionId) -> Self {
        MemInfo {
            region: Some(region),
            affine: None,
        }
    }

    /// Region plus affine pattern.
    pub fn affine(region: RegionId, iv: u32, stride: i64, phase: i64) -> Self {
        MemInfo {
            region: Some(region),
            affine: Some(Affine { iv, stride, phase }),
        }
    }
}

/// An IR instruction.
///
/// `Br`, `Jump`, `Ret` and `Halt` are *terminators* and may only appear as
/// the last instruction of a block; every block ends with exactly one
/// terminator (enforced by [`verify_program`](crate::verify::verify_program)).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = op src`.
    Unary {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: UnOp,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Binary {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = (lhs op rhs) ? 1 : 0`.
    Cmp {
        /// Destination register (receives 0 or 1).
        dst: Reg,
        /// Comparison predicate.
        op: CmpOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = memory[addr + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register (word index).
        addr: Reg,
        /// Constant word offset.
        offset: i64,
        /// Memory-analysis facts (region / affine pattern).
        mem: MemInfo,
    },
    /// `memory[addr + offset] = src`.
    Store {
        /// Value to store.
        src: Operand,
        /// Base address register (word index).
        addr: Reg,
        /// Constant word offset.
        offset: i64,
        /// Memory-analysis facts (region / affine pattern).
        mem: MemInfo,
    },
    /// Direct call of a void, zero-argument function.
    ///
    /// The callee runs in a fresh register frame (all registers zero);
    /// communication happens through memory and queues. Calls act as
    /// memory-dependence barriers in the PDG.
    Call {
        /// The called function.
        callee: FuncId,
    },
    /// Indirect call through a register holding a [`FuncId`] index.
    ///
    /// Used by the DSWP runtime master loop (Section 3 of the paper): the
    /// auxiliary thread consumes a function "address" from the master queue
    /// and calls it. A negative value halts the thread.
    CallInd {
        /// Register holding the callee's function index.
        target: Reg,
    },
    /// Conditional branch: to `then_` if `cond != 0`, else to `else_`.
    Br {
        /// Condition register.
        cond: Reg,
        /// Taken target.
        then_: BlockId,
        /// Fall-through target.
        else_: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Return from the current function (or halt the thread if the call
    /// stack is empty).
    Ret,
    /// Halt the executing hardware context.
    Halt,
    /// Send `src` on queue `queue` (blocks while the queue is full).
    Produce {
        /// Destination queue.
        queue: QueueId,
        /// Value to send.
        src: Operand,
    },
    /// Receive into `dst` from queue `queue` (blocks while empty).
    Consume {
        /// Source queue.
        queue: QueueId,
        /// Destination register.
        dst: Reg,
    },
    /// Send a valueless synchronization token (memory/sync flows,
    /// Section 2.2.4 category 3).
    ProduceToken {
        /// Destination queue.
        queue: QueueId,
    },
    /// Receive and discard a synchronization token.
    ConsumeToken {
        /// Source queue.
        queue: QueueId,
    },
    /// `dst = ` current occupancy of queue `queue` (never blocks).
    ///
    /// A load-feedback probe for scheduling decisions, not a queue access:
    /// it reads how many produced values have not yet been consumed, as
    /// visible to the executing context. The work-stealing scatter of a
    /// replicated stage uses it to route each iteration to the least-loaded
    /// replica. The value is advisory — on the native runtime it is a racy
    /// snapshot — so correctness must never depend on it, only routing.
    /// Deliberately *not* an [`is_queue_op`](Op::is_queue_op) instruction:
    /// it imposes no ordering and neither produces nor consumes.
    QueueDepth {
        /// Destination register (receives the occupancy).
        dst: Reg,
        /// The probed queue.
        queue: QueueId,
    },
    /// No operation.
    Nop,
}

impl Op {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Op::Const { dst, .. }
            | Op::Unary { dst, .. }
            | Op::Binary { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Load { dst, .. }
            | Op::Consume { dst, .. }
            | Op::QueueDepth { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The registers read by this instruction, in operand order, without
    /// allocating (at most two).
    pub fn use_regs(&self) -> impl Iterator<Item = Reg> {
        let (first, second) = match *self {
            Op::Unary { src, .. } | Op::Produce { src, .. } => (src.as_reg(), None),
            Op::Binary { lhs, rhs, .. } | Op::Cmp { lhs, rhs, .. } => (lhs.as_reg(), rhs.as_reg()),
            Op::Load { addr, .. } => (Some(addr), None),
            Op::Store { src, addr, .. } => (src.as_reg(), Some(addr)),
            Op::Br { cond, .. } => (Some(cond), None),
            Op::CallInd { target } => (Some(target), None),
            Op::Const { .. }
            | Op::Call { .. }
            | Op::Jump { .. }
            | Op::Ret
            | Op::Halt
            | Op::Consume { .. }
            | Op::ProduceToken { .. }
            | Op::ConsumeToken { .. }
            | Op::QueueDepth { .. }
            | Op::Nop => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Rewrites every register mentioned by this instruction through `f`.
    ///
    /// Used by code duplication (loop splitting renames auxiliary-thread
    /// registers into a fresh frame).
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let map_op = |o: &mut Operand, f: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match self {
            Op::Const { dst, .. } => *dst = f(*dst),
            Op::Unary { dst, src, .. } => {
                map_op(src, &mut f);
                *dst = f(*dst);
            }
            Op::Binary { dst, lhs, rhs, .. } | Op::Cmp { dst, lhs, rhs, .. } => {
                map_op(lhs, &mut f);
                map_op(rhs, &mut f);
                *dst = f(*dst);
            }
            Op::Load { dst, addr, .. } => {
                *addr = f(*addr);
                *dst = f(*dst);
            }
            Op::Store { src, addr, .. } => {
                map_op(src, &mut f);
                *addr = f(*addr);
            }
            Op::Br { cond, .. } => *cond = f(*cond),
            Op::CallInd { target } => *target = f(*target),
            Op::Produce { src, .. } => map_op(src, &mut f),
            Op::Consume { dst, .. } | Op::QueueDepth { dst, .. } => *dst = f(*dst),
            Op::Call { .. }
            | Op::Jump { .. }
            | Op::Ret
            | Op::Halt
            | Op::ProduceToken { .. }
            | Op::ConsumeToken { .. }
            | Op::Nop => {}
        }
    }

    /// Whether this instruction must terminate a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::Jump { .. } | Op::Ret | Op::Halt)
    }

    /// Whether this is a conditional or unconditional branch (has CFG
    /// successors within the function).
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::Jump { .. })
    }

    /// Successor blocks of a terminator (empty for `Ret`/`Halt`).
    pub fn successors(&self) -> Vec<BlockId> {
        match *self {
            Op::Br { then_, else_, .. } => {
                if then_ == else_ {
                    vec![then_]
                } else {
                    vec![then_, else_]
                }
            }
            Op::Jump { target } => vec![target],
            _ => Vec::new(),
        }
    }

    /// Rewrites the successor blocks of a terminator through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Op::Br { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            Op::Jump { target } => *target = f(*target),
            _ => {}
        }
    }

    /// Whether this instruction reads memory.
    pub fn is_mem_read(&self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// Whether this instruction writes memory.
    pub fn is_mem_write(&self) -> bool {
        matches!(self, Op::Store { .. })
    }

    /// Whether this instruction has unanalyzable side effects (calls): a
    /// memory-dependence barrier in the PDG.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Op::Call { .. } | Op::CallInd { .. })
    }

    /// Whether this instruction accesses a synchronization-array queue.
    pub fn is_queue_op(&self) -> bool {
        matches!(
            self,
            Op::Produce { .. }
                | Op::Consume { .. }
                | Op::ProduceToken { .. }
                | Op::ConsumeToken { .. }
        )
    }

    /// Whether this instruction occupies an M-type issue slot (memory or
    /// queue port). The paper's model issues at most 4 M-type instructions
    /// per cycle on a full-width Itanium 2 core (Section 4.2).
    pub fn is_m_type(&self) -> bool {
        self.is_mem_read() || self.is_mem_write() || self.is_queue_op()
    }

    /// The latency class of this instruction.
    pub fn latency_class(&self) -> LatencyClass {
        match self {
            Op::Const { .. } | Op::Unary { .. } | Op::QueueDepth { .. } => LatencyClass::IntAlu,
            Op::Binary { op, .. } => match op {
                BinOp::Mul => LatencyClass::IntMul,
                BinOp::Div | BinOp::Rem => LatencyClass::IntDiv,
                BinOp::FAdd | BinOp::FSub => LatencyClass::FpAlu,
                BinOp::FMul => LatencyClass::FpMul,
                BinOp::FDiv => LatencyClass::FpDiv,
                _ => LatencyClass::IntAlu,
            },
            Op::Cmp { op, .. } => {
                if matches!(op, CmpOp::FLt) {
                    LatencyClass::FpAlu
                } else {
                    LatencyClass::IntAlu
                }
            }
            Op::Load { .. } => LatencyClass::Load,
            Op::Store { .. } => LatencyClass::Store,
            Op::Call { .. } | Op::CallInd { .. } | Op::Ret => LatencyClass::Call,
            Op::Br { .. } | Op::Jump { .. } => LatencyClass::Branch,
            Op::Halt | Op::Nop => LatencyClass::Nop,
            Op::Produce { .. }
            | Op::Consume { .. }
            | Op::ProduceToken { .. }
            | Op::ConsumeToken { .. } => LatencyClass::Queue,
        }
    }

    /// The queue referenced by this instruction, if any (queue operations
    /// plus the non-blocking [`QueueDepth`](Op::QueueDepth) probe).
    pub fn queue(&self) -> Option<QueueId> {
        match *self {
            Op::Produce { queue, .. }
            | Op::Consume { queue, .. }
            | Op::ProduceToken { queue }
            | Op::ConsumeToken { queue }
            | Op::QueueDepth { queue, .. } => Some(queue),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> Reg {
        Reg(n)
    }

    #[test]
    fn def_and_uses() {
        let op = Op::Binary {
            dst: r(0),
            op: BinOp::Add,
            lhs: Operand::Reg(r(1)),
            rhs: Operand::Imm(3),
        };
        assert_eq!(op.def(), Some(r(0)));
        assert_eq!(op.use_regs().collect::<Vec<_>>(), vec![r(1)]);

        let st = Op::Store {
            src: Operand::Reg(r(2)),
            addr: r(3),
            offset: 4,
            mem: MemInfo::UNKNOWN,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.use_regs().collect::<Vec<_>>(), vec![r(2), r(3)]);
    }

    #[test]
    fn consume_defines_its_destination() {
        let c = Op::Consume {
            queue: QueueId(1),
            dst: r(5),
        };
        assert_eq!(c.def(), Some(r(5)));
        assert_eq!(c.use_regs().count(), 0);
        assert!(c.is_queue_op());
        assert!(c.is_m_type());
        assert_eq!(c.queue(), Some(QueueId(1)));
    }

    #[test]
    fn terminators_and_successors() {
        let br = Op::Br {
            cond: r(0),
            then_: BlockId(1),
            else_: BlockId(2),
        };
        assert!(br.is_terminator());
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);

        let same = Op::Br {
            cond: r(0),
            then_: BlockId(3),
            else_: BlockId(3),
        };
        assert_eq!(same.successors(), vec![BlockId(3)]);

        assert!(Op::Ret.is_terminator());
        assert!(Op::Ret.successors().is_empty());
        assert!(!Op::Nop.is_terminator());
    }

    #[test]
    fn map_regs_renames_everything() {
        let mut op = Op::Binary {
            dst: r(0),
            op: BinOp::Add,
            lhs: Operand::Reg(r(1)),
            rhs: Operand::Reg(r(2)),
        };
        op.map_regs(|x| Reg(x.0 + 10));
        assert_eq!(op.def(), Some(r(10)));
        assert_eq!(op.use_regs().collect::<Vec<_>>(), vec![r(11), r(12)]);
    }

    #[test]
    fn latency_classes() {
        assert_eq!(
            Op::Binary {
                dst: r(0),
                op: BinOp::FMul,
                lhs: Operand::Imm(0),
                rhs: Operand::Imm(0)
            }
            .latency_class(),
            LatencyClass::FpMul
        );
        assert_eq!(
            Op::Load {
                dst: r(0),
                addr: r(1),
                offset: 0,
                mem: MemInfo::UNKNOWN
            }
            .latency_class(),
            LatencyClass::Load
        );
    }

    #[test]
    fn m_type_covers_memory_and_queues() {
        assert!(Op::Load {
            dst: r(0),
            addr: r(1),
            offset: 0,
            mem: MemInfo::UNKNOWN
        }
        .is_m_type());
        assert!(Op::ProduceToken { queue: QueueId(0) }.is_m_type());
        assert!(!Op::Nop.is_m_type());
    }
}
