//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload jobs|native|simulate --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a line of operation counts, then, as the last line of standard
//! output, `{"correct","attempted","failed","metrics"}` as JSON: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. A traced
//! run also writes its spans to `traces/<workload>-seed<N>.jsonl` beside
//! this package's manifest.

use std::process::ExitCode;

use dswp_perfbench::{run, Options, Workload};

const USAGE: &str =
    "usage: perfbench --workload jobs|native|simulate --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.summary);
    for f in &report.failures {
        eprintln!("perfbench: failure: {f}");
    }
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &report.spans_jsonl))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans: {}", path.display());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
