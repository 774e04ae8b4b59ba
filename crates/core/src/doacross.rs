//! A DOACROSS comparator for the motivation experiment of Figure 1.
//!
//! DOACROSS parallelism assigns whole iterations to cores round-robin and
//! forwards loop-carried values from core to core each iteration — which
//! routes the loop's critical-path recurrence through the inter-core
//! network, so the recurrence grows by the communication latency every
//! iteration (the left half of Figure 1). DSWP's entire point is to avoid
//! that; this module implements DOACROSS so the contrast can be measured.
//!
//! The implementation targets two cores and, per classic DOACROSS
//! restrictions the paper cites (Section 2, "such transformations require
//! loops ... to have simple (or even no) control flow"), accepts only loops
//! whose body is straight-line: every loop block has exactly one in-loop
//! successor.
//!
//! Protocol: cores alternate iterations. At each iteration boundary the
//! running core sends `(continue=1, state…)` to the other core on a single
//! queue; on loop exit it sends `(0, state…)`. The state is the carried
//! register set (loop-carried values, redefined live-ins, live-outs);
//! loop-invariant live-ins are sent once up front. The boundary message
//! also serializes memory, satisfying loop-carried memory dependences. The
//! auxiliary core reuses DSWP's master-thread runtime (Section 3).

use std::collections::BTreeSet;

use dswp_ir::program::TERMINATE_SENTINEL;
use dswp_ir::{BlockId, FuncId, Function, Op, Operand, Program, Reg};

use dswp_analysis::{loop_dataflow, Liveness};

use crate::error::DswpError;
use crate::normalize::normalize_loop;
use crate::pipeline::find_loop;

/// The result of a successful DOACROSS transformation.
#[derive(Clone, Debug)]
pub struct DoacrossReport {
    /// Registers transferred at every iteration boundary.
    pub state_regs: Vec<Reg>,
    /// Loop-invariant live-ins sent once.
    pub invariant_regs: Vec<Reg>,
    /// The auxiliary loop function.
    pub aux_function: FuncId,
    /// The master function entering the auxiliary hardware context.
    pub master_function: FuncId,
}

/// Applies DOACROSS to the loop with `header` in `func` (two cores).
///
/// # Errors
///
/// * [`DswpError::NoCandidateLoop`] — no loop with that header;
/// * [`DswpError::MultipleExitTargets`] — unsupported loop shape;
/// * [`DswpError::IneligibleForDoacross`] — the body has internal control
///   flow.
pub fn doacross(
    program: &mut Program,
    func: FuncId,
    header: BlockId,
) -> Result<DoacrossReport, DswpError> {
    let l = find_loop(program.function(func), header)?;
    let (norm, l) = normalize_loop(program.function_mut(func), &l)?;

    let src = program.function(func).clone();
    let pre_existing_funcs = program.functions().len();

    // ---- eligibility: straight-line body ----
    let mut order = vec![l.header];
    {
        let mut cur = l.header;
        loop {
            let in_loop: Vec<BlockId> = src
                .successors(cur)
                .into_iter()
                .filter(|&s| l.contains(s))
                .collect();
            if in_loop.len() != 1 {
                return Err(DswpError::IneligibleForDoacross(format!(
                    "block {cur} has {} in-loop successors",
                    in_loop.len()
                )));
            }
            if in_loop[0] == l.header {
                break;
            }
            cur = in_loop[0];
            order.push(cur);
            if order.len() > l.blocks.len() {
                return Err(DswpError::IneligibleForDoacross(
                    "loop body is not a simple cycle".into(),
                ));
            }
        }
    }
    if order.len() != l.blocks.len() {
        return Err(DswpError::IneligibleForDoacross(
            "loop contains blocks off the main chain".into(),
        ));
    }

    // ---- register sets ----
    let liveness = Liveness::compute(&src);
    let df = loop_dataflow(&src, &l, &liveness);
    let defined: BTreeSet<Reg> = l
        .blocks
        .iter()
        .flat_map(|&b| src.block(b).instrs())
        .filter_map(|&i| src.op(i).def())
        .collect();
    let mut state: BTreeSet<Reg> = BTreeSet::new();
    for d in &df.reg_deps {
        if d.carried {
            state.insert(d.reg);
        }
    }
    for &r in &df.live_outs {
        state.insert(r);
    }
    for &r in &df.live_ins {
        if defined.contains(&r) {
            state.insert(r);
        }
    }
    let invariants: Vec<Reg> = df
        .live_ins
        .iter()
        .copied()
        .filter(|r| !defined.contains(r))
        .collect();
    let state: Vec<Reg> = state.into_iter().collect();

    // ---- queues ----
    let mq = program.new_queue();
    let q01 = program.new_queue(); // main → aux (invariants, boundaries)
    let q10 = program.new_queue(); // aux → main (boundaries)

    // ---- emit both copies ----
    let mut aux = Function::new(format!("{}.doacross", src.name));
    aux.ensure_reg(Reg(src.num_regs().saturating_sub(1)));
    let aux_entry = aux.add_block("entry");
    aux.set_entry(aux_entry);

    for core in 0..2usize {
        let (q_out, q_in) = if core == 0 { (q01, q10) } else { (q10, q01) };
        // Plan block ids.
        let (boundary, recv, recv_state, remote_exit, own_exit);
        let mut copies: Vec<BlockId> = Vec::new();
        {
            let dst: &mut Function = if core == 0 {
                program.function_mut(func)
            } else {
                &mut aux
            };
            for &b in &order {
                copies.push(dst.add_block(format!("dx{core}.{}", src.block(b).name)));
            }
            boundary = dst.add_block(format!("dx{core}.boundary"));
            recv = dst.add_block(format!("dx{core}.recv"));
            recv_state = dst.add_block(format!("dx{core}.recv_state"));
            remote_exit = dst.add_block(format!("dx{core}.remote_exit"));
            own_exit = dst.add_block(format!("dx{core}.own_exit"));
        }
        let copy_of = |b: BlockId| -> BlockId {
            copies[order.iter().position(|&x| x == b).expect("chain block")]
        };

        let dst: &mut Function = if core == 0 {
            program.function_mut(func)
        } else {
            &mut aux
        };

        // Loop body copies with remapped terminators.
        for (&b, &nb) in order.iter().zip(&copies) {
            for &i in src.block(b).instrs() {
                let mut op = src.op(i).clone();
                if op.is_terminator() {
                    op.map_successors(|s| {
                        if s == l.header {
                            boundary
                        } else if s == norm.landing {
                            own_exit
                        } else {
                            copy_of(s)
                        }
                    });
                }
                dst.append_op(nb, op);
            }
        }
        // Boundary: hand the next iteration to the other core.
        dst.append_op(
            boundary,
            Op::Produce {
                queue: q_out,
                src: Operand::Imm(1),
            },
        );
        for &r in &state {
            dst.append_op(
                boundary,
                Op::Produce {
                    queue: q_out,
                    src: Operand::Reg(r),
                },
            );
        }
        dst.append_op(boundary, Op::Jump { target: recv });
        // Receive: continue flag, then state.
        let cont = dst.new_reg();
        dst.append_op(
            recv,
            Op::Consume {
                queue: q_in,
                dst: cont,
            },
        );
        dst.append_op(
            recv,
            Op::Br {
                cond: cont,
                then_: recv_state,
                else_: remote_exit,
            },
        );
        for &r in &state {
            dst.append_op(
                recv_state,
                Op::Consume {
                    queue: q_in,
                    dst: r,
                },
            );
        }
        dst.append_op(recv_state, Op::Jump { target: copies[0] });
        // Own exit: notify the peer (with state) and finish.
        dst.append_op(
            own_exit,
            Op::Produce {
                queue: q_out,
                src: Operand::Imm(0),
            },
        );
        for &r in &state {
            dst.append_op(
                own_exit,
                Op::Produce {
                    queue: q_out,
                    src: Operand::Reg(r),
                },
            );
        }
        // Remote exit: adopt the peer's final state.
        for &r in &state {
            dst.append_op(
                remote_exit,
                Op::Consume {
                    queue: q_in,
                    dst: r,
                },
            );
        }
        if core == 0 {
            dst.append_op(
                own_exit,
                Op::Jump {
                    target: norm.landing,
                },
            );
            dst.append_op(
                remote_exit,
                Op::Jump {
                    target: norm.landing,
                },
            );
            // Preheader: wake the aux thread, send invariants, start at the
            // first iteration (core 0 owns iteration 0).
            let mut at = 0usize;
            let aux_id_placeholder = pre_existing_funcs as i64; // aux is next
            let id = dst.add_instr(Op::Produce {
                queue: mq,
                src: Operand::Imm(aux_id_placeholder),
            });
            dst.insert_instr(norm.preheader, at, id);
            at += 1;
            for &r in &invariants {
                let id = dst.add_instr(Op::Produce {
                    queue: q01,
                    src: Operand::Reg(r),
                });
                dst.insert_instr(norm.preheader, at, id);
                at += 1;
            }
            let pre_term = *dst.block(norm.preheader).instrs().last().unwrap();
            dst.op_mut(pre_term)
                .map_successors(|s| if s == l.header { copies[0] } else { s });
        } else {
            dst.append_op(own_exit, Op::Ret);
            dst.append_op(remote_exit, Op::Ret);
            // Aux entry: invariants, then wait for the first boundary.
            for &r in &invariants {
                dst.append_op(aux_entry, Op::Consume { queue: q01, dst: r });
            }
            dst.append_op(aux_entry, Op::Jump { target: recv });
        }
    }

    let aux_function = program.add_function(aux);
    debug_assert_eq!(aux_function.index(), pre_existing_funcs);

    // Master runtime (shared shape with DSWP, Section 3).
    let mut mf = Function::new("doacross.master");
    let bb = mf.add_block("loop");
    mf.set_entry(bb);
    let target = mf.new_reg();
    mf.append_op(
        bb,
        Op::Consume {
            queue: mq,
            dst: target,
        },
    );
    mf.append_op(bb, Op::CallInd { target });
    mf.append_op(bb, Op::Jump { target: bb });
    let master_function = program.add_function(mf);
    program.add_thread(master_function);

    for fi in 0..pre_existing_funcs {
        let fid = FuncId::from_index(fi);
        let halts: Vec<(BlockId, usize)> = {
            let f = program.function(fid);
            f.block_ids()
                .flat_map(|b| {
                    f.block(b)
                        .instrs()
                        .iter()
                        .enumerate()
                        .filter(|(_, &i)| matches!(f.op(i), Op::Halt))
                        .map(|(pos, _)| (b, pos))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let f = program.function_mut(fid);
        for (b, pos) in halts {
            let id = f.add_instr(Op::Produce {
                queue: mq,
                src: Operand::Imm(TERMINATE_SENTINEL),
            });
            f.insert_instr(b, pos, id);
        }
    }

    Ok(DoacrossReport {
        state_regs: state,
        invariant_regs: invariants,
        aux_function,
        master_function,
    })
}
