//! Text serialization of whole programs: a readable assembler format that
//! round-trips through [`parse_program`].
//!
//! The format extends the [`Display`](std::fmt::Display) output with the
//! pieces a program needs to be reconstructed: the program header (threads,
//! queues, memory size), a sparse `memory` section, and affine
//! memory-analysis annotations. Example:
//!
//! ```text
//! program 1 threads 1 queues 0 memory 16
//! thread 0 = fn0
//!
//! memory {
//!   1: 42
//! }
//!
//! func main entry bb0 regs 3 {
//! bb0 entry:
//!   r0 = 1
//!   r1 = M[r0+0] !mem0 @affine(0, 1, 0)
//!   r2 = add r1, 41
//!   halt
//! }
//! ```
//!
//! The header keywords must read as shown, and the `memory` section may
//! give each address at most once.
//!
//! The parser makes one forward pass over the text. Each significant line
//! (trimmed; blank lines and `#` / `//` comments skipped) is dispatched on
//! its leading bytes and its fields are sliced in place. Nothing is
//! allocated but the program itself and, for a `memory` section, the set
//! of addresses seen; an error message is built only when parsing fails.

use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::function::Function;
use crate::op::{Affine, BinOp, CmpOp, MemInfo, Op, Operand, UnOp};
use crate::program::Program;
use crate::types::{BlockId, FuncId, QueueId, Reg, RegionId};

/// A parse failure, with 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serializes `program` to the round-trippable text format.
pub fn to_text(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {} threads {} queues {} memory {}",
        program.functions().len(),
        program.num_threads(),
        program.num_queues,
        program.initial_memory.len()
    );
    for (t, entry) in program.thread_entries().iter().enumerate() {
        let _ = writeln!(out, "thread {t} = {entry}");
    }

    let mut nonzero = program
        .initial_memory
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .peekable();
    if nonzero.peek().is_some() {
        out.push_str("\nmemory {\n");
        for (a, &v) in nonzero {
            push_entry(&mut out, a as u64, v);
        }
        out.push_str("}\n");
    }

    for f in program.functions() {
        let _ = writeln!(
            out,
            "\nfunc {} entry {} regs {} {{",
            f.name,
            f.entry(),
            f.num_regs()
        );
        for b in f.block_ids() {
            let _ = writeln!(out, "{b} {}:", f.block(b).name);
            for &i in f.block(b).instrs() {
                out.push_str("  ");
                write_op(&mut out, f.op(i));
                out.push('\n');
            }
        }
        out.push_str("}\n");
    }
    out
}

/// Writes one instruction: its `Display` form, plus the affine annotation
/// that `Display` leaves out of loads and stores.
/// Appends the memory entry `  {addr}: {value}` and a newline, as
/// `writeln!` formats it but without going through `core::fmt`: memory
/// sections are most of a program's text. The line is assembled from the
/// right in a stack buffer and appended at once.
fn push_entry(out: &mut String, addr: u64, value: i64) {
    // Two spaces, 20 address digits, `: `, a sign, 20 value digits, `\n`.
    let mut line = [0u8; 46];
    let mut at = line.len() - 1;
    line[at] = b'\n';
    at = push_digits(&mut line[..at], value.unsigned_abs());
    if value < 0 {
        at -= 1;
        line[at] = b'-';
    }
    at -= 2;
    line[at..at + 2].copy_from_slice(b": ");
    at = push_digits(&mut line[..at], addr);
    at -= 2;
    line[at..at + 2].copy_from_slice(b"  ");
    out.push_str(std::str::from_utf8(&line[at..]).expect("ASCII digits and punctuation"));
}

/// Writes the decimal digits of `n` at the end of `buf` and returns where
/// they start.
fn push_digits(buf: &mut [u8], mut n: u64) -> usize {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return at;
        }
    }
}

fn write_op(out: &mut String, op: &Op) {
    let mem = match op {
        Op::Load {
            dst,
            addr,
            offset,
            mem,
        } => {
            let _ = write!(out, "{dst} = M[{addr}{offset:+}]");
            mem
        }
        Op::Store {
            src,
            addr,
            offset,
            mem,
        } => {
            let _ = write!(out, "M[{addr}{offset:+}] = {src}");
            mem
        }
        other => {
            let _ = write!(out, "{other}");
            return;
        }
    };
    if let Some(r) = mem.region {
        let _ = write!(out, " !{r}");
    }
    if let Some(a) = mem.affine {
        let _ = write!(out, " @affine({}, {}, {})", a.iv, a.stride, a.phase);
    }
}

/// Parses a program previously produced by [`to_text`] (or hand-written in
/// the same format).
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending line.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    Parser {
        lines: Lines {
            text,
            pos: 0,
            read: 0,
            last: 0,
        },
    }
    .program()
}

fn error(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// The significant lines of the text, trimmed and numbered from 1; blank
/// lines and `#` / `//` comment lines are skipped.
#[derive(Clone, Copy)]
struct Lines<'a> {
    text: &'a str,
    /// Byte offset of the first unread line.
    pos: usize,
    /// Lines read so far, significant or not.
    read: usize,
    /// Number of the last significant line returned, 0 before the first.
    last: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        while self.pos < self.text.len() {
            let rest = &self.text[self.pos..];
            let end = rest.find('\n').unwrap_or(rest.len());
            self.pos += end + 1;
            self.read += 1;
            let line = rest[..end].trim();
            if !(line.is_empty() || line.starts_with('#') || line.starts_with("//")) {
                self.last = self.read;
                return Some((self.read, line));
            }
        }
        None
    }
}

struct Parser<'a> {
    lines: Lines<'a>,
}

impl<'a> Parser<'a> {
    /// The next significant line. At the end of the text the error points
    /// at its last line: truncated files are a common hand-editing mistake
    /// and the report should say where the text stopped.
    fn expect(&mut self, what: &str) -> Result<(usize, &'a str), ParseError> {
        self.lines.next().ok_or_else(|| {
            error(
                self.lines.last,
                format!("unexpected end of input, expected {what}"),
            )
        })
    }

    fn program(mut self) -> Result<Program, ParseError> {
        let (ln, header) = self.lines.next().ok_or_else(|| error(0, "empty input"))?;
        let Some([kw, nfuncs, threads, nthreads, queues, nqueues, memory, nmem]) = words(header)
        else {
            return Err(error(
                ln,
                "expected `program N threads N queues N memory N`",
            ));
        };
        if kw != "program" {
            return Err(error(ln, "expected `program` header"));
        }
        keywords(
            ln,
            &[(threads, "threads"), (queues, "queues"), (memory, "memory")],
        )?;
        let nfuncs: usize = number(ln, nfuncs)?;
        let nthreads: usize = number(ln, nthreads)?;
        let nqueues: u32 = number(ln, nqueues)?;
        let nmem: usize = number(ln, nmem)?;

        let mut entries = Vec::new();
        for t in 0..nthreads {
            let (ln, line) = self.expect("thread entry")?;
            let Some([kw, idx, eq, f]) = words(line) else {
                return Err(error(ln, "expected `thread T = fnN`"));
            };
            if kw != "thread" || eq != "=" || number::<usize>(ln, idx)? != t {
                return Err(error(ln, "expected `thread T = fnN` in order"));
            }
            entries.push(func_id(ln, f)?);
        }

        // The size comes straight from the text: allocate it fallibly, so a
        // size no machine can hold is a parse error and not an abort.
        let mut memory = Vec::new();
        if memory.try_reserve_exact(nmem).is_err() {
            return Err(error(
                ln,
                format!("memory of {nmem} words cannot be allocated"),
            ));
        }
        memory.resize(nmem, 0i64);
        let mut peek = self.lines;
        if peek.next().is_some_and(|(_, l)| l == "memory {") {
            self.lines = peek;
            self.memory(&mut memory)?;
        }

        let mut functions = Vec::new();
        for _ in 0..nfuncs {
            functions.push(self.function()?);
        }
        if let Some((ln, l)) = self.lines.next() {
            return Err(error(ln, format!("unexpected trailing content `{l}`")));
        }
        if entries.is_empty() {
            return Err(error(0, "program needs at least one thread"));
        }
        Ok(Program::from_parts(functions, memory, nqueues, entries))
    }

    /// The entries of a `memory { .. }` section, after its opening line.
    /// No address may appear twice.
    fn memory(&mut self, memory: &mut [i64]) -> Result<(), ParseError> {
        // As large as `memory`, which was allocated: at most an eighth of it.
        let mut seen = vec![false; memory.len()];
        loop {
            let (ln, a, v) = match self.plain_entry() {
                Some((a, v)) => (self.lines.last, a, v),
                None => {
                    let (ln, l) = self.expect("memory entry or `}`")?;
                    if l == "}" {
                        return Ok(());
                    }
                    let Some((a, v)) = l.split_once(':') else {
                        return Err(error(ln, "expected `addr: value`"));
                    };
                    (ln, number(ln, a.trim())?, number(ln, v.trim())?)
                }
            };
            let Some(slot) = memory.get_mut(a) else {
                let n = memory.len();
                return Err(error(ln, format!("address {a} beyond memory size {n}")));
            };
            *slot = v;
            if std::mem::replace(&mut seen[a], true) {
                return Err(error(ln, format!("address {a} appears twice")));
            }
        }
    }

    /// Reads the next line straight off the text if it is a memory entry as
    /// `to_text` writes it: `A: V` or `A: -V` in plain digits, indented by
    /// spaces. Returns `None`, having read nothing, for any other line, and
    /// for a number that does not fit; [`Parser::memory`] then reads that
    /// line the general way. Memory entries are most of a kernel's text,
    /// and this reads each one in a single scan.
    fn plain_entry(&mut self) -> Option<(usize, i64)> {
        let bytes = self.lines.text.as_bytes();
        let mut i = self.lines.pos;
        while bytes.get(i) == Some(&b' ') {
            i += 1;
        }
        // The value of the digits at `i`, if there are any and it fits.
        let digits = |i: &mut usize| {
            let start = *i;
            let mut n = 0u64;
            while let Some(d) = bytes.get(*i).filter(|b| b.is_ascii_digit()) {
                n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                *i += 1;
            }
            (*i > start).then_some(n)
        };
        let a = usize::try_from(digits(&mut i)?).ok()?;
        if bytes.get(i..i + 2) != Some(b": ") {
            return None;
        }
        i += 2;
        let negative = bytes.get(i) == Some(&b'-');
        i += usize::from(negative);
        let m = digits(&mut i)?;
        let v = if negative {
            0i64.checked_sub_unsigned(m)?
        } else {
            i64::try_from(m).ok()?
        };
        if !matches!(bytes.get(i), None | Some(b'\n')) {
            return None;
        }
        self.lines.pos = i + 1;
        self.lines.read += 1;
        self.lines.last = self.lines.read;
        Some((a, v))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        const HEADER: &str = "expected `func NAME entry bbN regs N {`";
        let (ln, line) = self.expect("function header")?;
        let Some([kw, name, entry_kw, entry, regs_kw, regs, brace]) = words(line) else {
            return Err(error(ln, HEADER));
        };
        if kw != "func" || brace != "{" {
            return Err(error(ln, HEADER));
        }
        keywords(ln, &[(entry_kw, "entry"), (regs_kw, "regs")])?;
        let entry = block_id(ln, entry)?;
        let regs: u32 = number(ln, regs)?;
        let mut f = Function::new(name);
        if let Some(last) = regs.checked_sub(1) {
            f.ensure_reg(Reg(last));
        }

        let mut current = None;
        loop {
            let (ln, l) = self.expect("block, instruction, or `}`")?;
            if l == "}" {
                break;
            }
            if let Some(rest) = l.strip_prefix("bb") {
                let name = block_header(ln, rest, f.num_blocks())?;
                current = Some(f.add_block(name));
                continue;
            }
            let Some(block) = current else {
                return Err(error(ln, "instruction before any block header"));
            };
            f.append_op(block, op(ln, l)?);
        }
        if entry.index() >= f.num_blocks() {
            return Err(error(ln, "entry block out of range"));
        }
        f.set_entry(entry);
        Ok(f)
    }
}

/// Checks the keywords of a header: each `(found, wanted)` pair must match.
fn keywords(ln: usize, pairs: &[(&str, &str)]) -> Result<(), ParseError> {
    match pairs.iter().find(|(found, wanted)| found != wanted) {
        Some((found, wanted)) => Err(error(ln, format!("expected `{wanted}`, found `{found}`"))),
        None => Ok(()),
    }
}

/// The name in a block header `bbN name:` (given without its `bb`), whose
/// index must be `expected`.
fn block_header(ln: usize, rest: &str, expected: usize) -> Result<&str, ParseError> {
    let Some(rest) = rest.strip_suffix(':') else {
        return Err(error(ln, "expected block header `bbN name:`"));
    };
    let (idx, name) = match rest.split_once(' ') {
        Some((idx, name)) => (idx, name.trim()),
        None => (rest, ""),
    };
    if number::<usize>(ln, idx)? != expected {
        return Err(error(
            ln,
            format!("blocks must appear in order; expected bb{expected}"),
        ));
    }
    Ok(name)
}

/// Parses one instruction line, choosing its form from its leading bytes.
fn op(ln: usize, l: &str) -> Result<Op, ParseError> {
    let l = strip_tag(l);
    let arg = |prefix: &str| l[prefix.len()..].trim_start();
    match l.as_bytes().first() {
        Some(b'r') if l == "ret" => Ok(Op::Ret),
        Some(b'h') if l == "halt" => Ok(Op::Halt),
        Some(b'n') if l == "nop" => Ok(Op::Nop),
        Some(b'j') if l.starts_with("jump ") => Ok(Op::Jump {
            target: block_id(ln, arg("jump "))?,
        }),
        Some(b'b') if l.starts_with("br ") => {
            let mut parts = l[3..].split(',').map(str::trim);
            let (Some(c), Some(t), Some(e), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(error(ln, "expected `br rC, bbT, bbE`"));
            };
            Ok(Op::Br {
                cond: reg(ln, c)?,
                then_: block_id(ln, t)?,
                else_: block_id(ln, e)?,
            })
        }
        Some(b'c') if l.starts_with("call.ind ") => Ok(Op::CallInd {
            target: reg(ln, arg("call.ind "))?,
        }),
        Some(b'c') if l.starts_with("call ") => Ok(Op::Call {
            callee: func_id(ln, arg("call "))?,
        }),
        Some(b'P') if l.starts_with("PRODUCE.token ") => Ok(Op::ProduceToken {
            queue: queue(ln, arg("PRODUCE.token "))?,
        }),
        Some(b'P') if l.starts_with("PRODUCE ") => {
            let Some((q, src)) = l[8..].split_once('=') else {
                return Err(error(ln, "expected `PRODUCE [qN] = src`"));
            };
            Ok(Op::Produce {
                queue: queue(ln, q.trim())?,
                src: operand(ln, src.trim_start())?,
            })
        }
        Some(b'C') if l.starts_with("CONSUME.token ") => Ok(Op::ConsumeToken {
            queue: queue(ln, arg("CONSUME.token "))?,
        }),
        Some(b'C') if l.starts_with("CONSUME ") => {
            let Some((dst, q)) = l[8..].split_once('=') else {
                return Err(error(ln, "expected `CONSUME rN = [qN]`"));
            };
            Ok(Op::Consume {
                queue: queue(ln, q.trim_start())?,
                dst: reg(ln, dst.trim())?,
            })
        }
        Some(b'M') if l.starts_with("M[") => store(ln, l),
        _ => assign(ln, l),
    }
}

/// Drops a leading `iN:` tag (`Display` output carries one).
fn strip_tag(l: &str) -> &str {
    if !l.starts_with('i') {
        return l;
    }
    match l.split_once(':') {
        Some((tag, rest)) if tag[1..].bytes().all(|b| b.is_ascii_digit()) => rest.trim_start(),
        _ => l,
    }
}

/// A store: `M[rA+O] = src [!memR] [@affine(..)]`.
fn store(ln: usize, l: &str) -> Result<Op, ParseError> {
    let Some((lhs, rhs)) = l.split_once('=') else {
        return Err(error(ln, "expected `M[rA+O] = src`"));
    };
    let (addr, offset) = mem_ref(ln, lhs.trim_end())?;
    let rhs = rhs.trim_start();
    let (src, tail) = rhs.split_once(char::is_whitespace).unwrap_or((rhs, ""));
    let mem = annotations(ln, tail)?;
    Ok(Op::Store {
        src: operand(ln, src)?,
        addr,
        offset,
        mem,
    })
}

/// Everything of the form `rD = ...`.
fn assign(ln: usize, l: &str) -> Result<Op, ParseError> {
    let Some((dst, rhs)) = l.split_once('=') else {
        return Err(unrecognized(ln, l));
    };
    let dst = reg(ln, dst.trim_end())?;
    let rhs = rhs.trim_start();
    match rhs.as_bytes().first() {
        Some(b'M') if rhs.starts_with("M[") => {
            let Some(k) = rhs.bytes().position(|b| b == b']') else {
                return Err(error(ln, "missing `]` in memory operand"));
            };
            let mem = annotations(ln, rhs[k + 1..].trim_start())?;
            let (addr, offset) = mem_ref(ln, &rhs[..=k])?;
            Ok(Op::Load {
                dst,
                addr,
                offset,
                mem,
            })
        }
        Some(b'D') if rhs.starts_with("DEPTH ") => Ok(Op::QueueDepth {
            dst,
            queue: queue(ln, rhs[6..].trim_start())?,
        }),
        Some(b'(') if rhs.ends_with(')') => compare(ln, dst, rhs),
        _ => {
            let mut w = rhs.split_whitespace();
            match (w.next(), w.next(), w.next(), w.next()) {
                (Some(v), None, _, _) => Ok(match operand(ln, v)? {
                    Operand::Imm(value) => Op::Const { dst, value },
                    src @ Operand::Reg(_) => Op::Unary {
                        dst,
                        op: UnOp::Mov,
                        src,
                    },
                }),
                (Some(un), Some(src), None, _) => Ok(Op::Unary {
                    dst,
                    op: unary_op(un)
                        .ok_or_else(|| error(ln, format!("unknown unary op `{un}`")))?,
                    src: operand(ln, src)?,
                }),
                (Some(bin), Some(a), Some(b), None) => Ok(Op::Binary {
                    dst,
                    op: binary_op(bin)
                        .ok_or_else(|| error(ln, format!("unknown binary op `{bin}`")))?,
                    lhs: operand(ln, a)?,
                    rhs: operand(ln, b)?,
                }),
                _ => Err(unrecognized(ln, l)),
            }
        }
    }
}

fn unrecognized(ln: usize, l: &str) -> ParseError {
    error(ln, format!("unrecognized instruction `{l}`"))
}

/// Comparison symbols in the order they are tried: the first that occurs
/// between spaces anywhere inside the parentheses wins.
const CMP_OPS: [(&str, CmpOp); 7] = [
    ("==", CmpOp::Eq),
    ("!=", CmpOp::Ne),
    ("<=", CmpOp::Le),
    (">=", CmpOp::Ge),
    ("<f", CmpOp::FLt),
    ("<", CmpOp::Lt),
    (">", CmpOp::Gt),
];

/// A comparison `(a <op> b)`, given with its parentheses.
fn compare(ln: usize, dst: Reg, rhs: &str) -> Result<Op, ParseError> {
    let inner = &rhs[1..rhs.len() - 1];
    let Some((k, sym, op)) = CMP_OPS.iter().find_map(|&(sym, op)| {
        inner
            .match_indices(sym)
            .find(|&(k, _)| inner[..k].ends_with(' ') && inner[k + sym.len()..].starts_with(' '))
            .map(|(k, _)| (k, sym, op))
    }) else {
        return Err(error(ln, format!("unrecognized comparison `{rhs}`")));
    };
    Ok(Op::Cmp {
        dst,
        op,
        lhs: operand(ln, inner[..k].trim())?,
        rhs: operand(ln, inner[k + sym.len()..].trim())?,
    })
}

fn unary_op(s: &str) -> Option<UnOp> {
    Some(match s {
        "mov" => UnOp::Mov,
        "neg" => UnOp::Neg,
        "not" => UnOp::Not,
        "itof" => UnOp::IntToFloat,
        "ftoi" => UnOp::FloatToInt,
        _ => return None,
    })
}

fn binary_op(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        _ => return None,
    })
}

/// Parses the `!memR @affine(iv, stride, phase)` tail of a load or store.
/// Annotations are separated by whitespace, except that a space after a
/// comma belongs to the annotation (`@affine(0, 1, 0)` is one).
fn annotations(ln: usize, mut rest: &str) -> Result<MemInfo, ParseError> {
    let mut info = MemInfo::UNKNOWN;
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Ok(info);
        }
        let mut end = 0;
        let tok = loop {
            match rest[end..].find(char::is_whitespace).map(|k| end + k) {
                Some(k) if rest[k..].starts_with(' ') && rest[..k].ends_with(',') => end = k + 1,
                Some(k) => break &rest[..k],
                None => break rest,
            }
        };
        rest = &rest[tok.len()..];
        if let Some(r) = tok.strip_prefix("!mem") {
            let region = r
                .parse()
                .map_err(|_| expected(ln, "a number", &r.replace(", ", ",")))?;
            info.region = Some(RegionId(region));
        } else if let Some(a) = tok.strip_prefix("@affine(") {
            let mut parts = a.trim_end_matches(')').split(',').map(str::trim);
            let (Some(iv), Some(stride), Some(phase), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(error(ln, "expected `@affine(iv, stride, phase)`"));
            };
            info.affine = Some(Affine {
                iv: number(ln, iv)?,
                stride: number(ln, stride)?,
                phase: number(ln, phase)?,
            });
        } else {
            let tok = tok.replace(", ", ",");
            return Err(error(ln, format!("unknown memory annotation `{tok}`")));
        }
    }
}

/// Parses `M[rA+O]` / `M[rA-O]`.
fn mem_ref(ln: usize, s: &str) -> Result<(Reg, i64), ParseError> {
    let inner = s
        .strip_prefix("M[")
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| expected(ln, "`M[rA±O]`", s))?;
    let Some(k) = inner.bytes().skip(1).position(|b| b == b'+' || b == b'-') else {
        return Err(error(ln, "memory operand needs a signed offset"));
    };
    Ok((reg(ln, &inner[..=k])?, number(ln, &inner[k + 1..])?))
}

fn reg(ln: usize, s: &str) -> Result<Reg, ParseError> {
    s.strip_prefix('r')
        .and_then(|n| n.parse().ok())
        .map(Reg)
        .ok_or_else(|| expected(ln, "a register `rN`", s))
}

fn operand(ln: usize, s: &str) -> Result<Operand, ParseError> {
    let s = s.trim_end_matches(',');
    match s.strip_prefix('r').and_then(|n| n.parse().ok()) {
        Some(n) => Ok(Operand::Reg(Reg(n))),
        None => Ok(Operand::Imm(number(ln, s)?)),
    }
}

fn block_id(ln: usize, s: &str) -> Result<BlockId, ParseError> {
    s.strip_prefix("bb")
        .and_then(|n| n.parse().ok())
        .map(BlockId)
        .ok_or_else(|| expected(ln, "a block `bbN`", s))
}

fn func_id(ln: usize, s: &str) -> Result<FuncId, ParseError> {
    s.strip_prefix("fn")
        .and_then(|n| n.parse().ok())
        .map(FuncId)
        .ok_or_else(|| expected(ln, "a function `fnN`", s))
}

fn queue(ln: usize, s: &str) -> Result<QueueId, ParseError> {
    s.strip_prefix("[q")
        .and_then(|x| x.strip_suffix(']'))
        .or_else(|| s.strip_prefix('q'))
        .and_then(|n| n.parse().ok())
        .map(QueueId)
        .ok_or_else(|| expected(ln, "a queue `[qN]`", s))
}

fn number<T: FromStr>(ln: usize, s: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| expected(ln, "a number", s))
}

/// The error for `found` where the text should hold `what`.
fn expected(ln: usize, what: &str, found: &str) -> ParseError {
    error(ln, format!("expected {what}, found `{found}`"))
}

/// The whitespace-separated words of `s` when there are exactly `N`.
fn words<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut it = s.split_whitespace();
    let mut out = [""; N];
    for slot in &mut out {
        *slot = it.next()?;
    }
    it.next().is_none().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verify::verify_program;

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let h = f.block("header");
        let x = f.block("exit");
        let (i, n, done, v, base) = (f.reg(), f.reg(), f.reg(), f.reg(), f.reg());
        f.switch_to(e);
        f.iconst(i, 0);
        f.iconst(n, 5);
        f.iconst(base, 0);
        f.jump(h);
        f.switch_to(h);
        f.cmp_ge(done, i, n);
        f.load_mem(v, i, 8, MemInfo::affine(RegionId(0), 0, 1, 0));
        f.add(v, v, 1);
        f.store_region(v, i, 8, RegionId(0));
        f.add(i, i, 1);
        f.br(done, x, h);
        f.switch_to(x);
        f.store(i, base, 0);
        f.halt();
        let main = f.finish();
        let mut mem = vec![0i64; 16];
        for (k, slot) in mem.iter_mut().enumerate().take(13).skip(8) {
            *slot = k as i64;
        }
        pb.finish_with_memory(main, mem)
    }

    #[test]
    fn round_trip_preserves_text_and_semantics() {
        let p = sample();
        let text = to_text(&p);
        let q = parse_program(&text).unwrap();
        verify_program(&q).unwrap();
        assert_eq!(to_text(&q), text, "text fixed point");
        let a = crate::interp::Interpreter::new(&p).run().unwrap();
        let b = crate::interp::Interpreter::new(&q).run().unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn parses_hand_written_program() {
        let text = "\
program 1 threads 1 queues 0 memory 4
thread 0 = fn0
memory {
  1: 40
}
func main entry bb0 regs 3 {
bb0 entry:
  r0 = 1
  r1 = M[r0+0]
  r2 = add r1, 2
  M[r0+1] = r2
  halt
}
";
        let p = parse_program(text).unwrap();
        verify_program(&p).unwrap();
        let r = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[2], 42);
    }

    #[test]
    fn queue_instructions_round_trip() {
        let text = "\
program 2 threads 2 queues 2 memory 2
thread 0 = fn0
thread 1 = fn1
func producer entry bb0 regs 1 {
bb0 entry:
  r0 = 7
  PRODUCE [q0] = r0
  PRODUCE.token [q1]
  halt
}
func consumer entry bb0 regs 2 {
bb0 entry:
  CONSUME r0 = [q0]
  CONSUME.token [q1]
  r1 = 0
  M[r1+0] = r0
  halt
}
";
        let p = parse_program(text).unwrap();
        verify_program(&p).unwrap();
        let rt = parse_program(&to_text(&p)).unwrap();
        assert_eq!(to_text(&rt), to_text(&p));
    }

    #[test]
    fn zero_registers_round_trip() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0

func main entry bb0 regs 0 {
bb0 entry:
  halt
}
";
        let p = parse_program(text).unwrap();
        assert_eq!(p.function(p.main()).num_regs(), 0);
        assert_eq!(to_text(&p), text);
    }

    #[test]
    fn rejects_misspelled_header_keywords() {
        let good = "\
program 1 threads 1 queues 0 memory 1
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  halt
}
";
        parse_program(good).unwrap();
        for (from, to, line) in [
            ("threads", "thraeds", 1),
            ("queues", "queuse", 1),
            ("memory", "memroy", 1),
            ("entry", "entyr", 3),
            ("regs", "rges", 3),
        ] {
            let err = parse_program(&good.replacen(from, to, 1)).unwrap_err();
            assert_eq!(err.line, line, "{to}: {err}");
            assert!(err.message.contains(to), "{to}: {err}");
        }
    }

    #[test]
    fn memory_addresses_appear_once() {
        let program = |entries: &str| {
            format!(
                "program 1 threads 1 queues 0 memory 4\nthread 0 = fn0\nmemory {{\n{entries}}}\n\
                 func main entry bb0 regs 0 {{\nbb0 entry:\n  halt\n}}\n"
            )
        };
        // Out of order is fine, with comments and odd spacing in between.
        let p = parse_program(&program("  3: 1\n  1: 2\n  # note\n  0:4\n  2 : -5\n")).unwrap();
        assert_eq!(p.initial_memory, [4, 2, -5, 1]);
        // A repeat is an error at its line, in order or not, even of a zero.
        for (entries, line, addr) in [
            ("  1: 5\n  1: 7\n", 5, 1),
            ("  1: 0\n  2: 3\n  1: 7\n", 6, 1),
            ("  3: 1\n  1: 2\n  // note\n  2: 2\n  3: 9\n", 8, 3),
            ("  2: 1\n  0: 2\n  0: 3\n", 6, 0),
        ] {
            let err = parse_program(&program(entries)).unwrap_err();
            assert_eq!(err.line, line, "{entries:?}: {err}");
            assert_eq!(err.message, format!("address {addr} appears twice"));
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = frobnicate r0
  halt
}
";
        let err = parse_program(text).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.message.contains("frobnicate"), "{err}");
    }

    #[test]
    fn truncated_input_reports_last_line() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = 1
";
        let err = parse_program(text).unwrap_err();
        assert!(err.message.contains("end of input"), "{err}");
        assert_eq!(err.line, 5, "points at the last line, not a sentinel");
    }

    #[test]
    fn rejects_out_of_order_blocks() {
        let text = "\
program 1 threads 1 queues 0 memory 0
thread 0 = fn0
func main entry bb0 regs 1 {
bb1 entry:
  halt
}
";
        let err = parse_program(text).unwrap_err();
        assert!(err.message.contains("order"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\
# a comment
program 1 threads 1 queues 0 memory 1

// another comment
thread 0 = fn0
func main entry bb0 regs 1 {
bb0 entry:
  r0 = 9
  M[r0-9] = r0
  halt
}
";
        let p = parse_program(text).unwrap();
        let r = crate::interp::Interpreter::new(&p).run().unwrap();
        assert_eq!(r.memory[0], 9);
    }
}
