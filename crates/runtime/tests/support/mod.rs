//! Programs shared by the runtime's integration suites.

use dswp_ir::{Program, ProgramBuilder, QueueId};

/// Stage 0 produces `0..n` and a -1 sentinel; stage 1 sums them into
/// memory word 0.
pub fn two_stage_sum(n: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("producer");
    let (e, header, body, tail) = (f.entry_block(), f.block("h"), f.block("b"), f.block("t"));
    let (i, lim, done) = (f.reg(), f.reg(), f.reg());
    f.switch_to(e);
    f.iconst(i, 0);
    f.iconst(lim, n);
    f.jump(header);
    f.switch_to(header);
    f.cmp_ge(done, i, lim);
    f.br(done, tail, body);
    f.switch_to(body);
    f.produce(QueueId(0), i);
    f.add(i, i, 1);
    f.jump(header);
    f.switch_to(tail);
    f.produce(QueueId(0), -1);
    f.halt();
    let producer = f.finish();

    let mut g = pb.function("consumer");
    let (e, loop_, acc, fin) = (g.entry_block(), g.block("l"), g.block("a"), g.block("f"));
    let (v, sum, neg, base) = (g.reg(), g.reg(), g.reg(), g.reg());
    g.switch_to(e);
    g.iconst(sum, 0);
    g.jump(loop_);
    g.switch_to(loop_);
    g.consume(v, QueueId(0));
    g.cmp_lt(neg, v, 0);
    g.br(neg, fin, acc);
    g.switch_to(acc);
    g.add(sum, sum, v);
    g.jump(loop_);
    g.switch_to(fin);
    g.iconst(base, 0);
    g.store(sum, base, 0);
    g.halt();
    let consumer = g.finish();

    let mut p = pb.finish(producer, 1);
    p.num_queues = 1;
    p.add_thread(consumer);
    p
}
