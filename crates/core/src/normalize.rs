//! Loop-shape normalization ahead of the DSWP transformation.
//!
//! DSWP inserts *initial flows* just before the loop and *final flows* just
//! after it (Section 2.2.4). To give those flows well-defined insertion
//! points, the driver first normalizes the candidate loop:
//!
//! * a dedicated **preheader** — a block whose only job is to jump to the
//!   header, carrying every entry edge from outside the loop;
//! * a dedicated **exit landing** block — a block all exit edges are
//!   retargeted to, which jumps to the original (single) exit target.
//!
//! Neither new block joins the loop, so [`normalize_loop`] also returns the
//! normalized loop itself instead of leaving the caller to rediscover it:
//! its blocks, latches and depth are unchanged, and every exit edge now
//! ends at the landing.
//!
//! Loops whose exit edges lead to more than one outside block, or to none,
//! are rejected ([`DswpError::MultipleExitTargets`]).

use dswp_ir::{BlockId, Function, Op};

use dswp_analysis::NaturalLoop;

use crate::error::DswpError;

/// The normalized shape of a candidate loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NormalizedLoop {
    /// The loop header (unchanged by normalization).
    pub header: BlockId,
    /// The dedicated preheader.
    pub preheader: BlockId,
    /// The dedicated exit landing block (inside neither the loop nor the
    /// original exit target).
    pub landing: BlockId,
    /// The original exit target the landing jumps to.
    pub exit_target: BlockId,
}

/// Normalizes loop `l` of `f` in place and returns the new shape together
/// with the loop as [`find_loops`](dswp_analysis::find_loops) would now
/// find it.
///
/// # Errors
///
/// Returns [`DswpError::MultipleExitTargets`] when the loop does not exit
/// to exactly one outside block; `f` is then unchanged.
pub fn normalize_loop(
    f: &mut Function,
    l: &NaturalLoop,
) -> Result<(NormalizedLoop, NaturalLoop), DswpError> {
    let targets = l.exit_targets();
    let &[exit_target] = targets.as_slice() else {
        return Err(DswpError::MultipleExitTargets(targets));
    };

    // --- preheader ---
    let preheader = f.add_block("dswp.preheader");
    {
        let jump = f.add_instr(Op::Jump { target: l.header });
        f.push_instr(preheader, jump);
    }
    // Retarget every entry edge (predecessor of the header outside the loop).
    let outside_preds: Vec<BlockId> = f.predecessors()[l.header.index()]
        .iter()
        .copied()
        .filter(|&p| !l.contains(p) && p != preheader)
        .collect();
    for p in outside_preds {
        let term = *f.block(p).instrs().last().expect("terminator");
        f.op_mut(term)
            .map_successors(|t| if t == l.header { preheader } else { t });
    }
    // If the header is the function entry, the preheader becomes the entry.
    if f.entry() == l.header {
        f.set_entry(preheader);
    }

    // --- exit landing ---
    let landing = f.add_block("dswp.landing");
    {
        let jump = f.add_instr(Op::Jump {
            target: exit_target,
        });
        f.push_instr(landing, jump);
    }
    for &(from, _) in &l.exit_edges {
        let term = *f.block(from).instrs().last().expect("terminator");
        f.op_mut(term)
            .map_successors(|t| if t == exit_target { landing } else { t });
    }

    let mut normalized = l.clone();
    for edge in &mut normalized.exit_edges {
        edge.1 = landing;
    }
    Ok((
        NormalizedLoop {
            header: l.header,
            preheader,
            landing,
            exit_target,
        },
        normalized,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dswp_analysis::find_loops;
    use dswp_ir::interp::Interpreter;
    use dswp_ir::{verify::verify_program, Program, ProgramBuilder};

    fn counting_loop() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit = f.block("exit");
        let (i, n, done, base) = (f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(n, 7);
        f.iconst(base, 0);
        f.jump(header);
        f.switch_to(header);
        f.cmp_ge(done, i, n);
        f.br(done, exit, body);
        f.switch_to(body);
        f.add(i, i, 1);
        f.jump(header);
        f.switch_to(exit);
        f.store(i, base, 0);
        f.halt();
        let main = f.finish();
        pb.finish(main, 1)
    }

    #[test]
    fn normalization_preserves_semantics_and_verifies() {
        let mut p = counting_loop();
        let main = p.main();
        let before = Interpreter::new(&p).run().unwrap();

        let l = find_loops(p.function(main))[0].clone();
        let (norm, normalized) = normalize_loop(p.function_mut(main), &l).unwrap();
        verify_program(&p).unwrap();

        let after = Interpreter::new(&p).run().unwrap();
        assert_eq!(before.memory, after.memory);

        // The preheader is now the unique outside predecessor of the header.
        let f = p.function(main);
        let preds = f.predecessors();
        let outside: Vec<_> = preds[norm.header.index()]
            .iter()
            .filter(|&&b| !l.contains(b))
            .collect();
        assert_eq!(outside, vec![&norm.preheader]);
        // All exit edges now land on the landing block.
        assert_eq!(f.successors(norm.landing), vec![norm.exit_target]);
        let relooped = find_loops(f);
        let l2 = relooped
            .iter()
            .find(|x| x.header == norm.header)
            .expect("loop survives");
        assert_eq!(l2.exit_targets(), vec![norm.landing]);
        assert_eq!(*l2, normalized);
    }

    #[test]
    fn multiple_exit_targets_are_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let header = f.block("header");
        let body = f.block("body");
        let exit1 = f.block("exit1");
        let exit2 = f.block("exit2");
        let (c1, c2) = (f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(c1, 0);
        f.iconst(c2, 1);
        f.jump(header);
        f.switch_to(header);
        f.br(c1, exit1, body);
        f.switch_to(body);
        f.br(c2, header, exit2);
        f.switch_to(exit1);
        f.halt();
        f.switch_to(exit2);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        let l = find_loops(p.function(main))[0].clone();
        let err = normalize_loop(p.function_mut(main), &l).unwrap_err();
        assert!(matches!(err, DswpError::MultipleExitTargets(_)));
    }

    #[test]
    fn a_loop_without_exit_is_rejected_as_such() {
        // bb1 only jumps back to itself: the loop has no exit edge at all.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let spin = f.block("spin");
        let c = f.reg();
        f.switch_to(e);
        f.iconst(c, 0);
        f.jump(spin);
        f.switch_to(spin);
        f.add(c, c, 1);
        f.jump(spin);
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        let l = find_loops(p.function(main))[0].clone();
        let err = normalize_loop(p.function_mut(main), &l).unwrap_err();
        assert_eq!(err, DswpError::MultipleExitTargets(Vec::new()));
        assert!(err.to_string().contains("no exit"), "{err}");
    }

    #[test]
    fn header_as_function_entry_is_handled() {
        // A loop whose header is the entry block: normalization must move
        // the entry to the preheader.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let header = f.entry_block();
        let exit = f.block("exit");
        let c = f.reg();
        f.switch_to(header);
        f.add(c, c, 1);
        let done = f.reg();
        f.cmp_ge(done, c, 3);
        f.br(done, exit, header);
        f.switch_to(exit);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 0);
        let l = find_loops(p.function(main))[0].clone();
        let (norm, _) = normalize_loop(p.function_mut(main), &l).unwrap();
        assert_eq!(p.function(main).entry(), norm.preheader);
        verify_program(&p).unwrap();
        Interpreter::new(&p).run().unwrap();
    }
}
