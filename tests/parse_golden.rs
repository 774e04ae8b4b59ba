//! Golden parser behaviour: what `parse_program` makes of every accepted
//! input and of a deterministic corpus of broken and unusual inputs,
//! written out in full and compared line for line with
//! `tests/golden/parse.txt`.
//!
//! Accepted inputs are every `tests/fixtures/*.ir` and `to_text` of every
//! benchmark kernel (the 10 paper kernels plus `gzip`, at both sizes) raw,
//! after DSWP and after DSWP with replication; each is recorded as the
//! `to_text` of what it parses to (long memory sections as a digest).
//!
//! The mutation corpus takes a hand-written text that uses every form of
//! the format, and every fixture, and, line by line, deletes
//! the line, repeats it, truncates it at every token boundary, misspells each keyword
//! and opcode, inserts stray non-ASCII characters and no-break spaces,
//! puts `+` before numbers, adds `iN:` tags, writes bare `qN` queues and
//! swaps spaces for tabs; whole texts also get CRLF line ends and
//! interleaved comments. Each case records `Ok` with a digest of the
//! parsed program's `to_text`, or the exact `Err` line and message. No case
//! may panic.
//!
//! A rewrite of the parser that is meant to keep its behaviour must leave
//! the file byte-identical. If the behaviour is meant to change, re-derive
//! the file and say which cases changed, and why, in the change log.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use dswp_repro::analysis::AliasMode;
use dswp_repro::dswp::{annotate_loop_affine, dswp_loop, DswpOptions, Replicate};
use dswp_repro::ir::interp::Interpreter;
use dswp_repro::ir::{parse_program, to_text};
use dswp_repro::workloads::{gzip, paper_suite, Size, Workload};

const GOLDEN: &str = include_str!("golden/parse.txt");

/// A hand-written program that uses every form the text format knows.
const ALL_FORMS: &str = "\
# every form of the text format
program 3 threads 2 queues 2 memory 8
thread 0 = fn0
thread 1 = fn1

memory {
  0: 7
  // a comment inside the memory section
  3: -9223372036854775808
  7: 9223372036854775807
}
func main entry bb0 regs 6 {
bb0 entry block:
  i0: r0 = 0
  r1 = -5
  r2 = r1
  r3 = mov r2
  r3 = neg r2
  r3 = not r2
  r3 = itof r2
  r3 = ftoi r3
  r4 = add r0, r1
  r4 = sub r4, 2
  r4 = mul r4, r4
  r4 = div r4, 3
  r4 = rem r4, -3
  r4 = and r4, 255
  r4 = or r4, r1
  r4 = xor r4, r0
  r4 = shl r4, 1
  r4 = shr r4, 1
  r4 = min r4, r1
  r4 = max r4, 0
  r5 = fadd r3, r3
  r5 = fsub r5, r3
  r5 = fmul r5, r3
  r5 = fdiv r5, r3
  jump bb1
bb1 compare:
  r5 = (r0 == r1)
  r5 = (r0 != 0)
  r5 = (r0 < r1)
  r5 = (r0 <= r1)
  r5 = (r0 > -1)
  r5 = (r0 >= r1)
  r5 = (r3 <f r5)
  br r5, bb2, bb3
bb2 memory:
  r4 = M[r0+3]
  r4 = M[r0-1] !mem2
  r4 = M[r0+0] !mem0 @affine(0, 1, 0)
  M[r0+7] = r4
  M[r0+1] = -4 !mem1
  M[r0+2] = r4 !mem0 @affine(3, -2, 5)
  jump bb3
bb3 queues:
  PRODUCE [q0] = r4
  PRODUCE [q0] = 11
  PRODUCE.token [q1]
  r4 = DEPTH [q1]
  call fn2
  r4 = 2
  call.ind r4
  nop
  halt
}
func consumer entry bb1 regs 2 {
bb0 unused:
  ret
bb1 entry:
  CONSUME r0 = [q0]
  CONSUME r1 = [q0]
  CONSUME.token [q1]
  halt
}
func helper entry bb0 regs 1 {
bb0 entry:
  r0 = 1
  ret
}
";

/// Keywords and opcodes the misspelling mutations target.
const KEYWORDS: &str = "program threads queues memory thread func entry regs ret halt nop \
    jump br call call.ind PRODUCE CONSUME PRODUCE.token CONSUME.token DEPTH mov neg not itof ftoi \
    add sub mul div rem and or xor shl shr min max fadd fsub fmul fdiv !mem @affine";

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `to_text` of `text` parsed, with memory sections of more than eight
/// entries cut to their first four plus a digest of the whole section.
fn render_program(out: &mut String, text: &str) {
    match parse_program(text) {
        Err(e) => writeln!(out, "Err {}: {:?}", e.line, e.message).unwrap(),
        Ok(p) => {
            out.push_str("Ok\n");
            let printed = to_text(&p);
            let mut lines = printed.lines();
            while let Some(l) = lines.next() {
                writeln!(out, "| {l}").unwrap();
                if l != "memory {" {
                    continue;
                }
                let entries: Vec<&str> = lines.by_ref().take_while(|&l| l != "}").collect();
                if entries.len() <= 8 {
                    for e in &entries {
                        writeln!(out, "| {e}").unwrap();
                    }
                } else {
                    for e in &entries[..4] {
                        writeln!(out, "| {e}").unwrap();
                    }
                    let digest = fnv1a(&entries.join("\n"));
                    writeln!(
                        out,
                        "| ... {} entries in all, fnv1a {digest:016x}",
                        entries.len()
                    )
                    .unwrap();
                }
                out.push_str("| }\n");
            }
        }
    }
}

/// DSWP with default options, or the replication variant (affine facts,
/// precise alias, every legal stage twice); the untransformed text when
/// the compiler declines.
fn compiled(w: &Workload, replicate: bool) -> String {
    let profile = Interpreter::new(&w.program).run().unwrap().profile;
    let mut p = w.program.clone();
    let main = p.main();
    let opts = if replicate {
        annotate_loop_affine(&mut p, main, w.header).unwrap();
        DswpOptions {
            alias: AliasMode::Precise,
            replicate: Replicate::Fixed(2),
            ..DswpOptions::default()
        }
    } else {
        DswpOptions::default()
    };
    let _ = dswp_loop(&mut p, main, w.header, &profile, &opts);
    to_text(&p)
}

fn fixtures() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture directory")
        .map(|e| e.expect("fixture entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("fixture text"))
        })
        .collect()
}

fn render_accepted(out: &mut String) {
    for (name, text) in fixtures() {
        writeln!(out, "== fixture {name}").unwrap();
        render_program(out, &text);
    }
    for size in [Size::Test, Size::Paper] {
        let mut ws = paper_suite(size);
        ws.push(gzip::build(size));
        for w in &ws {
            for (variant, text) in [
                ("raw", to_text(&w.program)),
                ("dswp", compiled(w, false)),
                ("replicated", compiled(w, true)),
            ] {
                writeln!(out, "== {}@{size:?} {variant}", w.name).unwrap();
                render_program(out, &text);
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Space,
    Word,
    Punct,
}

fn class(c: char) -> Class {
    if c.is_whitespace() {
        Class::Space
    } else if c.is_alphanumeric() || c == '_' || c == '.' {
        Class::Word
    } else {
        Class::Punct
    }
}

/// Byte offsets that end a token: after every run of word characters and
/// after every punctuation character, excluding the end of the line.
fn cut_points(line: &str) -> Vec<usize> {
    let chars: Vec<(usize, char)> = line.char_indices().collect();
    let mut cuts = Vec::new();
    for w in chars.windows(2) {
        let ((_, a), (k, b)) = (w[0], w[1]);
        let (ca, cb) = (class(a), class(b));
        if ca != Class::Space && (ca != cb || ca == Class::Punct) {
            cuts.push(k);
        }
    }
    cuts
}

/// Spans of keyword tokens in `line`: maximal runs of letters, `.`, `!`
/// and `@` that spell a keyword.
fn keyword_spans(line: &str) -> Vec<(usize, usize)> {
    let is_kw_char = |c: char| c.is_ascii_alphabetic() || matches!(c, '.' | '!' | '@');
    let mut spans = Vec::new();
    let mut start = None;
    for (k, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (start, is_kw_char(c) && k < line.len()) {
            (None, true) => start = Some(k),
            (Some(s), false) => {
                if KEYWORDS.split(' ').any(|kw| kw == &line[s..k]) {
                    spans.push((s, k));
                }
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// Two misspellings of a keyword: its middle letters swapped, and its
/// case flipped.
fn misspellings(kw: &str) -> [String; 2] {
    let mut swapped: Vec<char> = kw.chars().collect();
    let m = swapped.len() / 2;
    swapped.swap(m - 1, m);
    let flipped = if kw.chars().any(|c| c.is_ascii_lowercase()) {
        kw.to_ascii_uppercase()
    } else {
        kw.to_ascii_lowercase()
    };
    [swapped.into_iter().collect(), flipped]
}

/// Every single-line mutation of `line`: `(label, replacement)`, where a
/// `None` replacement deletes the line.
fn line_mutations(line: &str) -> Vec<(String, Option<String>)> {
    let mut out: Vec<(String, Option<String>)> = vec![
        ("del".into(), None),
        ("dup".into(), Some(format!("{line}\n{line}"))),
    ];
    let cuts = cut_points(line);
    for &c in &cuts {
        out.push((format!("cut@{c}"), Some(line[..c].to_string())));
    }
    for (s, e) in keyword_spans(line) {
        for typo in misspellings(&line[s..e]) {
            let text = format!("{}{typo}{}", &line[..s], &line[e..]);
            out.push((format!("typo@{s} {typo}"), Some(text)));
        }
    }
    if let Some(k) = line.find(' ') {
        out.push((
            "nbsp".into(),
            Some(format!("{}\u{a0}{}", &line[..k], &line[k + 1..])),
        ));
    }
    out.push(("nbsp$".into(), Some(format!("{line}\u{a0}"))));
    let first_cut = cuts.first().copied().unwrap_or(line.len());
    out.push((
        "stray".into(),
        Some(format!(
            "{}\u{e9}{}",
            &line[..first_cut],
            &line[first_cut..]
        )),
    ));
    out.push(("stray$".into(), Some(format!("{line}\u{80}"))));
    let bytes = line.as_bytes();
    for k in 0..bytes.len() {
        if bytes[k].is_ascii_digit() && (k == 0 || !bytes[k - 1].is_ascii_digit()) {
            out.push((
                format!("plus@{k}"),
                Some(format!("{}+{}", &line[..k], &line[k..])),
            ));
        }
    }
    let indent = line.len() - line.trim_start().len();
    for tag in ["i7: ", "ix: "] {
        out.push((
            format!("tag {}", tag.trim_end_matches([':', ' '])),
            Some(format!("{}{tag}{}", &line[..indent], &line[indent..])),
        ));
    }
    if line.contains("[q") {
        let mut bare = String::new();
        let mut rest = line;
        while let Some(k) = rest.find("[q") {
            bare.push_str(&rest[..k]);
            rest = &rest[k + 1..];
            if let Some(e) = rest.find(']') {
                bare.push_str(&rest[..e]);
                rest = &rest[e + 1..];
            }
        }
        bare.push_str(rest);
        out.push(("bareq".into(), Some(bare)));
    }
    if line.contains(' ') {
        out.push(("tab".into(), Some(line.replace(' ', "\t"))));
    }
    out
}

fn record(out: &mut String, label: &str, text: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| parse_program(text)));
    match result {
        Err(_) => panic!("{label}: parse_program panicked"),
        Ok(Ok(p)) => writeln!(out, "{label}: Ok {:016x}", fnv1a(&to_text(&p))).unwrap(),
        Ok(Err(e)) => writeln!(out, "{label}: Err {}: {:?}", e.line, e.message).unwrap(),
    }
}

fn render_mutations(out: &mut String, base: &str, text: &str) {
    writeln!(out, "== mutations of {base}").unwrap();
    record(out, &format!("{base} as is"), text);
    let lines: Vec<&str> = text.lines().collect();
    for (n, line) in lines.iter().enumerate() {
        for (kind, replacement) in line_mutations(line) {
            let mut mutated = String::with_capacity(text.len() + 8);
            for (k, l) in lines.iter().enumerate() {
                let l = if k == n {
                    replacement.as_deref()
                } else {
                    Some(*l)
                };
                if let Some(l) = l {
                    mutated.push_str(l);
                    mutated.push('\n');
                }
            }
            record(out, &format!("{base} L{} {kind}", n + 1), &mutated);
        }
    }
    record(out, &format!("{base} crlf"), &text.replace('\n', "\r\n"));
    record(out, &format!("{base} no-final-newline"), text.trim_end());
    let commented: String = lines
        .iter()
        .enumerate()
        .map(|(k, l)| match k % 3 {
            0 => format!("{l}\n# c{k}\n"),
            1 => format!("{l}\n  // c{k}\n\n"),
            _ => format!("{l}\n \t \n"),
        })
        .collect();
    record(out, &format!("{base} comments"), &commented);
}

fn render() -> String {
    let mut out = String::new();
    render_accepted(&mut out);
    render_mutations(&mut out, "all-forms", ALL_FORMS);
    for (name, text) in fixtures() {
        render_mutations(&mut out, &name, &text);
    }
    out
}

#[test]
fn parser_behaviour_matches_golden_file() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("parse.actual.txt");
    std::fs::write(&path, &actual).expect("write actual output");
    let (line, want, got) = GOLDEN
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(n, (w, g))| (n + 1, w, g))
        .unwrap_or((
            GOLDEN.lines().count().min(actual.lines().count()) + 1,
            "<end>",
            "<end>",
        ));
    panic!(
        "parser behaviour differs from tests/golden/parse.txt at line {line}\n  \
         golden: {want}\n  actual: {got}\nfull output: {}",
        path.display()
    );
}
