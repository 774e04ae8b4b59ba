//! Integration tests of the `dswpc` binary itself: malformed inputs must
//! exit with a diagnostic (never a panic or a hang), and the `--chaos` /
//! `--deadline` flags must behave as documented.

use std::path::Path;
use std::process::{Command, Output};

fn dswpc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dswpc"))
        .args(args)
        .output()
        .expect("failed to spawn dswpc")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn truncated_file_is_rejected_with_parse_error() {
    let out = dswpc(&[&fixture("malformed_truncated.ir")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("end of input"), "stderr: {err}");
    // The diagnosis points at a real line, not a sentinel.
    assert!(err.contains("line 8"), "stderr: {err}");
}

#[test]
fn out_of_range_register_is_rejected_by_verification() {
    let out = dswpc(&[&fixture("malformed_badreg.ir")]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid program"), "stderr: {err}");
}

#[test]
fn out_of_range_queue_is_rejected_by_verification() {
    let out = dswpc(&[&fixture("malformed_badqueue.ir"), "--run", "native"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("invalid program"), "stderr: {err}");
}

#[test]
fn valid_fixture_still_runs() {
    let out = dswpc(&[&fixture("sum.ir"), "--run", "functional"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[0]=31"), "stdout: {stdout}");
}

#[test]
fn chaos_native_run_is_deterministic_per_seed_and_structured() {
    // The pipeline fixture runs on the native runtime; under a seeded
    // fault plan the outcome must be either a successful run with correct
    // memory or a structured error — and identical across invocations of
    // the same seed.
    let args = [
        fixture("pipeline.ir"),
        "--run".into(),
        "native".into(),
        "--chaos".into(),
        "7".into(),
        "--deadline".into(),
        "10000".into(),
    ];
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let a = dswpc(&argv);
    let b = dswpc(&argv);
    let plan_line = |o: &Output| {
        stderr(o)
            .lines()
            .find(|l| l.starts_with("chaos:"))
            .map(String::from)
    };
    let plan = plan_line(&a).expect("chaos plan echoed to stderr");
    assert_eq!(Some(&plan), plan_line(&b).as_ref(), "plan must be seeded");
    if a.status.success() {
        let stdout = String::from_utf8_lossy(&a.stdout);
        assert!(stdout.contains("[0]=10"), "stdout: {stdout}");
    } else {
        let err = stderr(&a);
        assert!(err.contains("native execution failed"), "stderr: {err}");
    }
}

#[test]
fn injected_stage_panic_surfaces_as_structured_error() {
    // Scan seeds for a plan that forces a panic within the first few
    // retired instructions — the pipeline fixture is tiny, so a panic
    // scheduled later would never fire. The CLI must report it as a
    // structured stage-panic error with a nonzero exit code.
    let panic_seed = (0..1_000_000u64)
        .find(|&s| {
            dswp_repro::rt::FaultPlan::from_seed(s, 2, 2)
                .stages
                .iter()
                .any(|st| st.panic_at.is_some_and(|n| n <= 5))
        })
        .expect("some seed injects an early panic");
    let out = dswpc(&[
        &fixture("pipeline.ir"),
        "--run",
        "native",
        "--chaos",
        &panic_seed.to_string(),
    ]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("panicked"), "stderr: {err}");
    assert!(err.contains("injected fault"), "stderr: {err}");
    // Stage panics get their own documented exit code.
    assert_eq!(out.status.code(), Some(12), "stderr: {err}");
}

#[test]
fn deadlocked_pipeline_exits_with_deadlock_code() {
    let out = dswpc(&[&fixture("deadlock.ir"), "--run", "native"]);
    assert_eq!(out.status.code(), Some(10), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("deadlock"), "stderr: {err}");
}

#[test]
fn exceeded_deadline_exits_with_timeout_code() {
    // Scan seeds for a plan whose only lethal fault is a permanent stall
    // firing within the pipeline fixture's handful of queue operations.
    // Under a 400 ms deadline (well below the 2 s default watchdog) the
    // run must be diagnosed as a timeout, with the timeout exit code.
    let stall_seed = (0..1_000_000u64)
        .find(|&s| {
            let plan = dswp_repro::rt::FaultPlan::from_seed(s, 2, 3);
            !plan.injects_panic()
                && !plan.injects_poison()
                && plan
                    .stages
                    .iter()
                    .any(|st| st.stall.is_some_and(|f| f.permanent && f.every <= 8))
        })
        .expect("some seed injects an early permanent stall");
    let out = dswpc(&[
        &fixture("pipeline.ir"),
        "--run",
        "native",
        "--chaos",
        &stall_seed.to_string(),
        "--deadline",
        "400",
    ]);
    assert_eq!(out.status.code(), Some(14), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("deadline"), "stderr: {err}");
}

#[test]
fn batch_flag_runs_batched_and_preserves_results() {
    for batch in ["1", "16", "auto"] {
        let out = dswpc(&[&fixture("pipeline.ir"), "--run", "native", "--batch", batch]);
        assert!(
            out.status.success(),
            "--batch {batch} stderr: {}",
            stderr(&out)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("[0]=10"),
            "--batch {batch} stdout: {stdout}"
        );
        let err = stderr(&out);
        assert!(
            err.contains("batch: base "),
            "--batch {batch} stderr: {err}"
        );
    }
}

#[test]
fn zero_batch_is_a_usage_error() {
    let out = dswpc(&[&fixture("pipeline.ir"), "--run", "native", "--batch", "0"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn replicated_pipeline_runs_natively_with_correct_memory() {
    let out = dswpc(&[
        &fixture("doall.ir"),
        "--dswp",
        "--alias",
        "precise",
        "--replicate",
        "2",
        "--run",
        "native",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("replicate: stage 1 x2"), "stderr: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // out[0] = (3*3 + 1) ^ (3 >> 1) = 10 ^ 1 = 11, stored at word 8.
    assert!(stdout.contains("[8]=11"), "stdout: {stdout}");
    assert!(
        stdout.contains("replicas of stage 1: 2 thread(s)"),
        "stdout: {stdout}"
    );
}

#[test]
fn bad_replicate_arguments_exit_with_usage() {
    for args in [
        vec![fixture("doall.ir"), "--replicate".into(), "0".into()],
        vec![fixture("doall.ir"), "--replicate".into(), "two".into()],
        vec![fixture("doall.ir"), "--replicate".into()],
        vec![fixture("wc.ir"), "--unroll".into(), "0".into()],
        vec![fixture("wc.ir"), "--unroll".into(), "1".into()],
        // One above the runtime's `MAX_CAPACITY`, and a value whose
        // power-of-two rounding would overflow: both rejected while
        // parsing, before any queue is allocated.
        vec![
            fixture("pipeline.ir"),
            "--run".into(),
            "native".into(),
            "--queue-cap".into(),
            "1048577".into(),
        ],
        vec![
            fixture("pipeline.ir"),
            "--run".into(),
            "native".into(),
            "--queue-cap".into(),
            usize::MAX.to_string(),
        ],
    ] {
        let argv: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = dswpc(&argv);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}
