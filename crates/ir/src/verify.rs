//! Structural verification of IR programs.
//!
//! The verifier enforces the invariants the analyses and the DSWP
//! transformation rely on:
//!
//! * every block ends with exactly one terminator, and terminators appear
//!   nowhere else;
//! * every branch target, register, function, queue and instruction id is in
//!   range;
//! * no instruction slot appears in more than one block;
//! * every thread entry is a valid function.

use std::fmt;

use crate::function::Function;
use crate::op::Op;
use crate::program::Program;
use crate::types::{BlockId, FuncId, InstrId};

/// A structural error found by the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error occurred, if attributable.
    pub function: Option<FuncId>,
    /// Block in which the error occurred, if attributable.
    pub block: Option<BlockId>,
    /// Offending instruction, if attributable.
    pub instr: Option<InstrId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error")?;
        if let Some(func) = self.function {
            write!(f, " in {func}")?;
        }
        if let Some(b) = self.block {
            write!(f, " at {b}")?;
        }
        if let Some(i) = self.instr {
            write!(f, " ({i})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(
    function: Option<FuncId>,
    block: Option<BlockId>,
    instr: Option<InstrId>,
    message: impl Into<String>,
) -> VerifyError {
    VerifyError {
        function,
        block,
        instr,
        message: message.into(),
    }
}

/// Verifies a single function. `num_funcs` and `num_queues` bound call and
/// queue references (pass `u32::MAX` for `num_queues` to skip queue checks).
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn verify_function(
    f: &Function,
    fid: FuncId,
    num_funcs: usize,
    num_queues: u32,
) -> Result<(), VerifyError> {
    if f.num_blocks() == 0 {
        return Err(err(Some(fid), None, None, "function has no blocks"));
    }
    if f.entry().index() >= f.num_blocks() {
        return Err(err(Some(fid), None, None, "entry block out of range"));
    }

    let mut seen = vec![false; f.num_instr_slots()];
    for b in f.block_ids() {
        let block = f.block(b);
        if block.instrs().is_empty() {
            return Err(err(Some(fid), Some(b), None, "empty block"));
        }
        for (idx, &i) in block.instrs().iter().enumerate() {
            if i.index() >= f.num_instr_slots() {
                return Err(err(
                    Some(fid),
                    Some(b),
                    Some(i),
                    "instruction id out of range",
                ));
            }
            if seen[i.index()] {
                return Err(err(
                    Some(fid),
                    Some(b),
                    Some(i),
                    "instruction appears in more than one position",
                ));
            }
            seen[i.index()] = true;

            let op = f.op(i);
            let is_last = idx + 1 == block.instrs().len();
            if op.is_terminator() != is_last {
                let what = if is_last {
                    "block does not end with a terminator"
                } else {
                    "terminator in the middle of a block"
                };
                return Err(err(Some(fid), Some(b), Some(i), what));
            }

            if let Some(d) = op.def() {
                if d.0 >= f.num_regs() {
                    return Err(err(
                        Some(fid),
                        Some(b),
                        Some(i),
                        format!("defined register {d} out of range"),
                    ));
                }
            }
            for u in op.use_regs() {
                if u.0 >= f.num_regs() {
                    return Err(err(
                        Some(fid),
                        Some(b),
                        Some(i),
                        format!("used register {u} out of range"),
                    ));
                }
            }
            for s in op.successors() {
                if s.index() >= f.num_blocks() {
                    return Err(err(
                        Some(fid),
                        Some(b),
                        Some(i),
                        format!("branch target {s} out of range"),
                    ));
                }
            }
            if let Op::Call { callee } = *op {
                if callee.index() >= num_funcs {
                    return Err(err(Some(fid), Some(b), Some(i), "call target out of range"));
                }
            }
            if let Some(q) = op.queue() {
                if q.0 >= num_queues {
                    return Err(err(
                        Some(fid),
                        Some(b),
                        Some(i),
                        format!("queue {q} out of range"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Verifies a whole program.
///
/// # Errors
///
/// Returns the first structural violation found in any function or thread
/// entry.
pub fn verify_program(p: &Program) -> Result<(), VerifyError> {
    if p.thread_entries().is_empty() {
        return Err(err(None, None, None, "program has no thread entries"));
    }
    for &entry in p.thread_entries() {
        if entry.index() >= p.functions().len() {
            return Err(err(None, None, None, "thread entry out of range"));
        }
    }
    let num_queues = if p.num_queues == 0 { 0 } else { p.num_queues };
    for (idx, f) in p.functions().iter().enumerate() {
        verify_function(f, FuncId::from_index(idx), p.functions().len(), num_queues)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::op::Op;
    use crate::types::{QueueId, Reg};

    fn good_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let x = f.reg();
        f.switch_to(e);
        f.iconst(x, 1);
        f.halt();
        let main = f.finish();
        pb.finish(main, 0)
    }

    #[test]
    fn accepts_valid_program() {
        assert!(verify_program(&good_program()).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let b = f.add_block("loose");
        let r = Reg(0);
        f.append_op(b, Op::Const { dst: r, value: 0 });
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let entry = f.entry();
        f.insert_before_terminator(
            entry,
            Op::Const {
                dst: Reg(99),
                value: 0,
            },
        );
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("register"), "{e}");
    }

    #[test]
    fn rejects_bad_queue() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let entry = f.entry();
        f.insert_before_terminator(entry, Op::ProduceToken { queue: QueueId(5) });
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("queue"), "{e}");
    }

    #[test]
    fn rejects_duplicated_instruction_slot() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let entry = f.entry();
        let dup = f.block(entry).instrs()[0];
        f.insert_instr(entry, 0, dup);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("more than one"), "{e}");
    }

    #[test]
    fn rejects_mid_block_terminator() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let entry = f.entry();
        let halt = f.add_instr(Op::Halt);
        f.insert_instr(entry, 0, halt);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("middle"), "{e}");
    }

    #[test]
    fn error_display_mentions_location() {
        let mut p = good_program();
        let main = p.main();
        let f = p.function_mut(main);
        let b = f.add_block("loose");
        f.append_op(b, Op::Nop);
        let e = verify_program(&p).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("fn0") && s.contains("bb1"), "{s}");
    }
}
