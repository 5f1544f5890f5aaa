//! Golden snapshot tests for the CLI: `fragalign demo` and
//! `fragalign gen --seed 42 | fragalign solve -` must be byte-stable
//! across runs and match the snapshots under `tests/golden/` at the
//! repository root — guarding the determinism work of PR 1 (sorted
//! layouts, deterministic winner selection, seeded generation).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {}: {e}", path.display()))
}

fn run(args: &[&str], stdin: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fragalign"));
    cmd.args(args).stdout(Stdio::piped());
    match stdin {
        Some(_) => cmd.stdin(Stdio::piped()),
        None => cmd.stdin(Stdio::null()),
    };
    let mut child = cmd.spawn().expect("spawn fragalign");
    if let Some(data) = stdin {
        use std::io::Write;
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(data.as_bytes())
            .expect("feed stdin");
    }
    let out = child.wait_with_output().expect("fragalign runs");
    assert!(out.status.success(), "fragalign {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn demo_output_is_byte_stable() {
    let first = run(&["demo"], None);
    let second = run(&["demo"], None);
    assert_eq!(first, second, "demo output differs between two runs");
    assert_eq!(
        first,
        golden("demo.txt"),
        "demo output drifted from snapshot"
    );
}

#[test]
fn gen_seed42_is_byte_stable() {
    let first = run(&["gen", "--seed", "42"], None);
    let second = run(&["gen", "--seed", "42"], None);
    assert_eq!(first, second, "gen output differs between two runs");
    assert_eq!(
        first,
        golden("gen_seed42.json"),
        "gen --seed 42 drifted from snapshot"
    );
}

#[test]
fn one_csr_gen_pipe_solve_is_byte_stable() {
    // The 1-CSR/ISP reduction is reachable end to end now that the
    // registry dispatches the CLI: a single-M generated instance
    // solves under `--algo one-csr` and both artifacts stay
    // byte-stable.
    let instance = run(
        &[
            "gen",
            "--seed",
            "7",
            "--m-frags",
            "1",
            "--regions",
            "8",
            "--h-frags",
            "3",
        ],
        None,
    );
    assert_eq!(
        instance,
        golden("one_csr_seed7.json"),
        "single-M gen drifted from snapshot"
    );
    let first = run(&["solve", "--algo", "one-csr", "-"], Some(&instance));
    let second = run(&["solve", "--algo", "one-csr", "-"], Some(&instance));
    assert_eq!(first, second, "one-csr output differs between two runs");
    assert_eq!(
        first,
        golden("one_csr_solve_seed7.txt"),
        "one-csr solve drifted from snapshot"
    );
}

#[test]
fn report_json_is_machine_readable() {
    // `--report json` replaces the layout with the engine's uniform
    // telemetry record. Wall time varies, so this parses instead of
    // snapshotting.
    let instance = run(&["gen", "--seed", "42"], None);
    for algo in ["csr", "portfolio"] {
        let out = run(
            &["solve", "--algo", algo, "--report", "json", "-"],
            Some(&instance),
        );
        assert!(out.contains(&format!("\"solver\": \"{algo}\"")), "{out}");
        for field in [
            "\"score\"",
            "\"rounds\"",
            "\"attempts\"",
            "\"evaluated\"",
            "\"dp_fills\"",
            "\"dp_reallocs\"",
            "\"wall_secs\"",
            "\"winner\"",
        ] {
            assert!(out.contains(field), "{algo}: report lacks {field}: {out}");
        }
    }
}

#[test]
fn gen_pipe_solve_is_byte_stable() {
    let instance = run(&["gen", "--seed", "42"], None);
    let first = run(&["solve", "-"], Some(&instance));
    let second = run(&["solve", "-"], Some(&instance));
    assert_eq!(first, second, "solve output differs between two runs");
    assert_eq!(
        first,
        golden("gen_solve_seed42.txt"),
        "gen | solve drifted from snapshot"
    );
}

#[test]
fn solve_threads_flag_is_result_invariant() {
    // `--threads N` runs the solve on a dedicated N-thread pool; the
    // output must stay byte-identical to the default-pool snapshot at
    // every width (the pool is a wall-clock knob, never a results
    // knob).
    let instance = run(&["gen", "--seed", "42"], None);
    for threads in ["1", "2", "4"] {
        let out = run(&["solve", "--threads", threads, "-"], Some(&instance));
        assert_eq!(
            out,
            golden("gen_solve_seed42.txt"),
            "--threads {threads} changed solve output"
        );
    }
    // The batch path threads the same knob through BatchOptions.
    let tmp = std::env::temp_dir().join(format!("fragalign_threads_golden_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create batch dir");
    std::fs::write(tmp.join("a.json"), &instance).expect("write instance");
    let path = tmp.to_str().expect("utf-8 temp path");
    // The trailing summary line carries a wall-clock rate; only the
    // per-instance result lines must be invariant.
    let results_only = |out: String| -> String {
        out.lines()
            .filter(|l| !l.starts_with("batch:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let base = results_only(run(&["solve", "--batch", path], None));
    assert!(base.contains("score"), "batch printed no results: {base}");
    for threads in ["1", "4"] {
        let out = results_only(run(&["solve", "--batch", "--threads", threads, path], None));
        assert_eq!(out, base, "--threads {threads} changed batch output");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
