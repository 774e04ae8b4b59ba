//! Randomized testing of the DSWP transformation: random structured loops
//! (nested diamonds/sequences of random arithmetic, loads, stores) must be
//! observationally equivalent after DSWP under the heuristic *and* under
//! every enumerated valid partitioning.
//!
//! This is the repository's strongest correctness evidence: the generator
//! produces loops with conditional stores, conditionally updated live-outs,
//! cross-iteration register recurrences and aliasing memory traffic, and
//! the oracle is exact (final memory image). Cases are enumerated from
//! deterministic seeds (see `dswp-testutil`).

use dswp::{analyze_loop, dswp_loop, enumerate_two_thread, normalize_loop, DswpError, DswpOptions};
use dswp_analysis::{find_loops, AliasMode};
use dswp_ir::interp::Interpreter;
use dswp_ir::verify::verify_program;
use dswp_ir::{BlockId, FunctionBuilder, Program, ProgramBuilder, Reg, RegionId};
use dswp_sim::{Executor, Machine, MachineConfig};
use dswp_testutil::{cases, Rng};

/// Number of general-purpose pool registers the generator plays with.
const POOL: usize = 6;
/// Iterations the generated loop runs.
const ITERS: i64 = 20;
/// Two disjoint scratch arrays (region 0 and region 1).
const ARRAY_A: i64 = 16;
const ARRAY_B: i64 = 48;
const ARRAY_MASK: i64 = 31;

#[derive(Clone, Debug)]
enum LeafOp {
    /// `pool[d] = pool[a] <op> pool[b]`, op selected by `k`.
    Bin { d: u8, a: u8, b: u8, k: u8 },
    /// `pool[d] = (pool[a] <cmp> pool[b])`.
    Cmp { d: u8, a: u8, b: u8, k: u8 },
    /// `pool[d] = array[r][pool[a] & mask]`.
    Load { d: u8, a: u8, r: bool },
    /// `array[r][pool[a] & mask] = pool[s]`.
    Store { s: u8, a: u8, r: bool },
    /// `pool[d] = array[r][i + k]` — IV-addressed (scalar-evolution food).
    IdxLoad { d: u8, k: u8, r: bool },
    /// `array[r][i + k] = pool[s]` — IV-addressed.
    IdxStore { s: u8, k: u8, r: bool },
}

#[derive(Clone, Debug)]
enum Shape {
    Leaf(Vec<LeafOp>),
    Seq(Box<Shape>, Box<Shape>),
    Diamond(u8, Box<Shape>, Box<Shape>),
}

fn leaf_op(rng: &mut Rng) -> LeafOp {
    let r = |rng: &mut Rng| rng.below(POOL) as u8;
    match rng.below(6) {
        0 => LeafOp::Bin {
            d: r(rng),
            a: r(rng),
            b: r(rng),
            k: rng.below(8) as u8,
        },
        1 => LeafOp::Cmp {
            d: r(rng),
            a: r(rng),
            b: r(rng),
            k: rng.below(4) as u8,
        },
        2 => LeafOp::Load {
            d: r(rng),
            a: r(rng),
            r: rng.bool(),
        },
        3 => LeafOp::Store {
            s: r(rng),
            a: r(rng),
            r: rng.bool(),
        },
        4 => LeafOp::IdxLoad {
            d: r(rng),
            k: rng.below(8) as u8,
            r: rng.bool(),
        },
        _ => LeafOp::IdxStore {
            s: r(rng),
            k: rng.below(8) as u8,
            r: rng.bool(),
        },
    }
}

fn shape(rng: &mut Rng, depth: u32) -> Shape {
    let leaf = |rng: &mut Rng| {
        let n = rng.range(1, 5);
        Shape::Leaf(rng.vec(n, leaf_op))
    };
    if depth == 0 {
        return leaf(rng);
    }
    // Weights mirror the original strategy: 3 leaf : 2 seq : 2 diamond.
    match rng.below(7) {
        0..=2 => leaf(rng),
        3 | 4 => {
            let a = shape(rng, depth - 1);
            let b = shape(rng, depth - 1);
            Shape::Seq(Box::new(a), Box::new(b))
        }
        _ => {
            let c = rng.below(POOL) as u8;
            let a = shape(rng, depth - 1);
            let b = shape(rng, depth - 1);
            Shape::Diamond(c, Box::new(a), Box::new(b))
        }
    }
}

fn pool_seeds(rng: &mut Rng) -> Vec<i64> {
    rng.vec(POOL, |r| r.range_i64(-50, 50))
}

struct Emitter {
    pool: Vec<Reg>,
    /// The loop counter (a basic induction variable).
    iv: Reg,
}

impl Emitter {
    fn emit_leaf(&self, f: &mut FunctionBuilder, ops: &[LeafOp]) {
        for op in ops {
            match *op {
                LeafOp::Bin { d, a, b, k } => {
                    use dswp_ir::BinOp::*;
                    let ops = [Add, Sub, Mul, And, Or, Xor, Min, Max];
                    f.binary(
                        self.pool[d as usize],
                        ops[k as usize % ops.len()],
                        self.pool[a as usize],
                        self.pool[b as usize],
                    );
                }
                LeafOp::Cmp { d, a, b, k } => {
                    use dswp_ir::CmpOp::*;
                    let ops = [Eq, Ne, Lt, Ge];
                    f.cmp(
                        self.pool[d as usize],
                        ops[k as usize % ops.len()],
                        self.pool[a as usize],
                        self.pool[b as usize],
                    );
                }
                LeafOp::Load { d, a, r } => {
                    let addr = f.reg();
                    f.and(addr, self.pool[a as usize], ARRAY_MASK);
                    let (base, region) = if r {
                        (ARRAY_B, RegionId(1))
                    } else {
                        (ARRAY_A, RegionId(0))
                    };
                    f.add(addr, addr, base);
                    f.load_region(self.pool[d as usize], addr, 0, region);
                }
                LeafOp::Store { s, a, r } => {
                    let addr = f.reg();
                    f.and(addr, self.pool[a as usize], ARRAY_MASK);
                    let (base, region) = if r {
                        (ARRAY_B, RegionId(1))
                    } else {
                        (ARRAY_A, RegionId(0))
                    };
                    f.add(addr, addr, base);
                    f.store_region(self.pool[s as usize], addr, 0, region);
                }
                LeafOp::IdxLoad { d, k, r } => {
                    let addr = f.reg();
                    let (base, region) = if r {
                        (ARRAY_B, RegionId(1))
                    } else {
                        (ARRAY_A, RegionId(0))
                    };
                    f.add(addr, self.iv, base);
                    f.load_region(self.pool[d as usize], addr, k as i64, region);
                }
                LeafOp::IdxStore { s, k, r } => {
                    let addr = f.reg();
                    let (base, region) = if r {
                        (ARRAY_B, RegionId(1))
                    } else {
                        (ARRAY_A, RegionId(0))
                    };
                    f.add(addr, self.iv, base);
                    f.store_region(self.pool[s as usize], addr, k as i64, region);
                }
            }
        }
    }

    /// Emits `shape`, returning the block to continue from.
    fn emit(&self, f: &mut FunctionBuilder, cur: BlockId, shape: &Shape, n: &mut usize) -> BlockId {
        *n += 1;
        match shape {
            Shape::Leaf(ops) => {
                f.switch_to(cur);
                self.emit_leaf(f, ops);
                cur
            }
            Shape::Seq(a, b) => {
                let after_a = self.emit(f, cur, a, n);
                self.emit(f, after_a, b, n)
            }
            Shape::Diamond(c, a, b) => {
                let then_b = f.block(format!("then{n}"));
                let else_b = f.block(format!("else{n}"));
                let join = f.block(format!("join{n}"));
                let cond = f.reg();
                f.switch_to(cur);
                f.and(cond, self.pool[*c as usize], 1);
                f.br(cond, then_b, else_b);
                let ta = self.emit(f, then_b, a, n);
                f.switch_to(ta);
                f.jump(join);
                let tb = self.emit(f, else_b, b, n);
                f.switch_to(tb);
                f.jump(join);
                join
            }
        }
    }
}

/// Builds a terminating loop program around the random body.
fn build_program(body: &Shape, seeds: &[i64]) -> Program {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let entry = f.entry_block();
    let header = f.block("header");
    let first_body = f.block("body");
    let latch = f.block("latch");
    let exit = f.block("exit");

    let i = f.reg();
    let n = f.reg();
    let done = f.reg();
    let pool: Vec<Reg> = (0..POOL).map(|_| f.reg()).collect();

    f.switch_to(entry);
    f.iconst(i, 0);
    f.iconst(n, ITERS);
    for (k, &r) in pool.iter().enumerate() {
        f.iconst(r, seeds[k % seeds.len()]);
    }
    f.jump(header);

    f.switch_to(header);
    f.cmp_ge(done, i, n);
    f.br(done, exit, first_body);

    let em = Emitter {
        pool: pool.clone(),
        iv: i,
    };
    let mut counter = 0usize;
    let last = em.emit(&mut f, first_body, body, &mut counter);
    f.switch_to(last);
    f.jump(latch);
    f.switch_to(latch);
    f.add(i, i, 1);
    f.jump(header);

    f.switch_to(exit);
    // Make every pool register observable through memory.
    let base = f.reg();
    f.iconst(base, 0);
    for (k, &r) in pool.iter().enumerate() {
        f.store(r, base, k as i64);
    }
    f.halt();
    let main = f.finish();

    let mut mem = vec![0i64; 96];
    for (k, slot) in mem.iter_mut().enumerate().skip(ARRAY_A as usize) {
        *slot = (k as i64).wrapping_mul(2654435761) % 1000;
    }
    pb.finish_with_memory(main, mem)
}

#[test]
fn random_loops_survive_dswp() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(seed);
        let body = shape(&mut rng, 2);
        let seeds = pool_seeds(&mut rng);

        let program = build_program(&body, &seeds);
        verify_program(&program).expect("generated program verifies");
        let baseline = Interpreter::new(&program).run().expect("baseline runs");

        let main = program.main();
        let header = BlockId(1);

        // Heuristic pass (profitability disabled so every split is tested).
        let mut p = program.clone();
        let opts = DswpOptions {
            alias: AliasMode::Region,
            min_speedup: 0.0,
            ..DswpOptions::default()
        };
        match dswp_loop(&mut p, main, header, &baseline.profile, &opts) {
            Ok(_) => {
                verify_program(&p).expect("transformed program verifies");
                let exec = Executor::new(&p).run().expect("no deadlock");
                assert_eq!(&exec.memory, &baseline.memory, "seed {seed}");
            }
            Err(DswpError::SingleScc | DswpError::NotProfitable) => {}
            Err(e) => panic!("seed {seed}: unexpected DSWP error: {e}"),
        }

        // A handful of enumerated valid partitionings.
        if let Ok(a) = analyze_loop(&program, main, header, AliasMode::Region) {
            for part in enumerate_two_thread(&a.dag, 4) {
                let mut p = program.clone();
                let opts = DswpOptions {
                    alias: AliasMode::Region,
                    partitioning: Some(part.clone()),
                    ..DswpOptions::default()
                };
                dswp_loop(&mut p, main, header, &baseline.profile, &opts)
                    .expect("valid partitioning transforms");
                let exec = Executor::new(&p).run().expect("no deadlock");
                assert_eq!(
                    &exec.memory, &baseline.memory,
                    "seed {seed} partition {part:?}"
                );
            }
        }
    }
}

/// `normalize_loop` returns the loop `find_loops` rediscovers afterwards,
/// for every loop of generated programs, unrolled ones included.
#[test]
fn normalize_loop_returns_the_rediscovered_loop() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(0x4E4F_524D ^ seed);
        let body = shape(&mut rng, 2);
        let seeds = pool_seeds(&mut rng);
        let factor = rng.range(2, 4);

        let program = build_program(&body, &seeds);
        let main = program.main();
        let mut unrolled = program.clone();
        dswp::unroll_loop(&mut unrolled, main, BlockId(1), factor).expect("unrolls");
        for p in [&program, &unrolled] {
            let f = p.function(main);
            for l in find_loops(f) {
                let mut g = f.clone();
                let (_, returned) = normalize_loop(&mut g, &l).expect("single exit");
                let found = find_loops(&g).into_iter().find(|n| n.header == l.header);
                assert_eq!(Some(returned), found, "seed {seed}");
            }
        }
    }
}

#[test]
fn random_loops_survive_scev_then_precise_dswp() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(0x5343_4556 ^ seed);
        let body = shape(&mut rng, 2);
        let seeds = pool_seeds(&mut rng);

        let program = build_program(&body, &seeds);
        let baseline = Interpreter::new(&program).run().expect("baseline runs");
        let main = program.main();

        let mut p = program.clone();
        dswp::annotate_loop_affine(&mut p, main, BlockId(1)).expect("scev runs");
        let annotated = Interpreter::new(&p).run().expect("annotated runs");
        assert_eq!(&annotated.memory, &baseline.memory, "seed {seed}");

        let opts = DswpOptions {
            alias: AliasMode::Precise,
            min_speedup: 0.0,
            ..DswpOptions::default()
        };
        if dswp_loop(&mut p, main, BlockId(1), &annotated.profile, &opts).is_ok() {
            let exec = Executor::new(&p).run().expect("no deadlock");
            assert_eq!(
                &exec.memory, &baseline.memory,
                "seed {seed}: scev-derived precise analysis licensed a wrong split"
            );
        }
    }
}

#[test]
fn random_loops_survive_list_scheduling() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(0x5343_4845 ^ seed);
        let body = shape(&mut rng, 2);
        let seeds = pool_seeds(&mut rng);

        let program = build_program(&body, &seeds);
        let baseline = Interpreter::new(&program).run().expect("baseline runs");
        let mut s = program.clone();
        dswp::schedule_program(&mut s, &dswp_ir::LatencyTable::default(), AliasMode::Region);
        verify_program(&s).expect("scheduled program verifies");
        let after = Interpreter::new(&s).run().expect("scheduled runs");
        assert_eq!(&after.memory, &baseline.memory, "seed {seed}");

        // Scheduling composes with DSWP.
        let main = s.main();
        let opts = DswpOptions {
            alias: AliasMode::Region,
            min_speedup: 0.0,
            ..DswpOptions::default()
        };
        if dswp_loop(&mut s, main, BlockId(1), &after.profile, &opts).is_ok() {
            let exec = Executor::new(&s).run().expect("no deadlock");
            assert_eq!(&exec.memory, &baseline.memory, "seed {seed}");
        }
    }
}

#[test]
fn random_loops_survive_unrolling_then_dswp() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(0x554E_524C ^ seed);
        let body = shape(&mut rng, 1);
        let seeds = pool_seeds(&mut rng);
        let factor = rng.range(2, 4);

        let program = build_program(&body, &seeds);
        let baseline = Interpreter::new(&program).run().expect("baseline runs");
        let main = program.main();

        let mut u = program.clone();
        dswp::unroll_loop(&mut u, main, BlockId(1), factor).expect("unrolls");
        verify_program(&u).expect("unrolled program verifies");
        let after = Interpreter::new(&u).run().expect("unrolled runs");
        assert_eq!(&after.memory, &baseline.memory, "seed {seed}");

        let opts = DswpOptions {
            alias: AliasMode::Region,
            min_speedup: 0.0,
            ..DswpOptions::default()
        };
        if dswp_loop(&mut u, main, BlockId(1), &after.profile, &opts).is_ok() {
            let exec = Executor::new(&u).run().expect("no deadlock");
            assert_eq!(&exec.memory, &baseline.memory, "seed {seed}");
        }
    }
}

#[test]
fn random_loops_survive_dswp_on_the_timing_model() {
    for seed in 0..cases(48) as u64 {
        let mut rng = Rng::new(0x5449_4D45 ^ seed);
        let body = shape(&mut rng, 1);
        let seeds = pool_seeds(&mut rng);

        let program = build_program(&body, &seeds);
        let baseline = Interpreter::new(&program).run().expect("baseline runs");
        let main = program.main();
        let mut p = program.clone();
        let opts = DswpOptions {
            alias: AliasMode::Region,
            min_speedup: 0.0,
            ..DswpOptions::default()
        };
        if dswp_loop(&mut p, main, BlockId(1), &baseline.profile, &opts).is_ok() {
            let sim = Machine::new(&p, MachineConfig::full_width())
                .run()
                .expect("timing model runs");
            assert_eq!(&sim.memory, &baseline.memory, "seed {seed}");
        }
    }
}
