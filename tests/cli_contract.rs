//! The command-line contract of the `figures`, `ycsb`, `bench_check` and
//! `export_check` binaries, checked on the real executables: bad input is
//! a message on stderr and exit 2 — never a silent success, never a panic
//! — and `figures bench` leaves exactly one record, appended v1 rows in
//! `BENCH_history.jsonl`.

use std::path::PathBuf;
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const YCSB: &str = env!("CARGO_BIN_EXE_ycsb");
const BENCH_CHECK: &str = env!("CARGO_BIN_EXE_bench_check");
const EXPORT_CHECK: &str = env!("CARGO_BIN_EXE_export_check");
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Run `bin args`, returning its exit code and stderr.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A path under the temp dir that does not exist yet.
fn fresh(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("azb-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn figures_rejects_bad_input_before_doing_anything() {
    let dir = fresh("reject");
    let csv = dir.to_str().unwrap();
    let blocker = fresh("reject-file");
    std::fs::write(&blocker, "a file where --csv wants a directory").unwrap();
    let under_file = format!("{}/x", blocker.display());
    for (args, needle) in [
        (
            vec!["fgi6", "--csv", csv],
            "error: unknown target \"fgi6\" (expected one of table1, fig4, ",
        ),
        (
            vec!["fig6", "fgi7", "--csv", csv],
            "error: unknown target \"fgi7\"",
        ),
        (
            vec!["fig6", "--backend", "was,nope", "--csv", csv],
            "error: unknown backend \"nope\"",
        ),
        (
            vec!["fig6", "--workers", "0", "--csv", csv],
            "error: bad workers list \"0\" (every entry must be at least 1)",
        ),
        (
            vec!["fig6", "--workers", "1,0,4", "--csv", csv],
            "error: bad workers list \"1,0,4\"",
        ),
        (
            vec!["fig6", "--workers", "", "--csv", csv],
            "error: bad workers list \"\"",
        ),
        (vec!["fig9", "--csv", &under_file], "error: cannot write "),
    ] {
        let (code, stderr) = run(FIGURES, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("swept in"), "{args:?} ran a target");
    }
    assert!(!dir.exists(), "a rejected invocation wrote into --csv");
    std::fs::remove_file(blocker).unwrap();
}

#[test]
fn ycsb_rejects_zero_workers() {
    let (code, stderr) = run(YCSB, &["A", "--workers", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("error: --workers must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn a_repeated_backend_runs_once() {
    let args = ["fig7", "--scale", "0.02", "--workers", "1"];
    for (backends, passes) in [("was,s3,was", 2), ("all,was", 4)] {
        let (code, stderr) = run(FIGURES, &[&args[..], &["--backend", backends]].concat());
        assert_eq!(code, Some(0), "{stderr}");
        assert_eq!(
            stderr.matches("# ---- backend: ").count(),
            passes,
            "{stderr}"
        );
        assert_eq!(stderr.matches("# ---- backend: was").count(), 1, "{stderr}");
    }
}

#[test]
fn bench_check_has_exactly_trend_and_report() {
    let history = format!("{REPO}/BENCH_history.jsonl");
    for args in [
        vec![],
        vec!["a.json", "b.json"],
        vec!["record", "a.json", &history],
        vec!["migrate", &history],
        vec!["trend", &history, "--snapshot", "a.json"],
    ] {
        let (code, stderr) = run(BENCH_CHECK, &args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: bench_check trend "),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn trend_names_the_line_it_cannot_read() {
    let dir = fresh("trend");
    std::fs::create_dir_all(&dir).unwrap();
    let committed = std::fs::read(format!("{REPO}/BENCH_history.jsonl")).unwrap();
    let first_row_len = committed.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut untagged = committed[..first_row_len].to_vec();
    untagged.extend(br#"{"unix_ts":5,"engine":[{"actors":1,"ops_per_second":9}]}"#);
    for (name, bytes, needle) in [
        ("untagged", &untagged[..], "line 2: no \"schema\" tag"),
        ("torn", &committed[..150], "line 1: invalid JSON"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let (code, stderr) = run(BENCH_CHECK, &["trend", path.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn figures_bench_appends_v1_rows_to_the_one_store() {
    let dir = fresh("bench");
    let csv = dir.to_str().unwrap();
    for _ in 0..2 {
        // `--backend all`: the ladder is backend-free and must run once.
        let args = ["bench", "--ladder", "quick", "--backend", "all"];
        let (code, stderr) = run(FIGURES, &[&args[..], &["--csv", csv]].concat());
        assert_eq!(code, Some(0), "{stderr}");
    }
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files, ["BENCH_history.jsonl"]);

    let history = dir.join("BENCH_history.jsonl");
    let text = std::fs::read_to_string(&history).unwrap();
    assert_eq!(text.lines().count(), 4, "2 runs x 2 quick rungs:\n{text}");
    let schema = format!("{REPO}/schemas/bench_history.schema.json");
    let row = dir.join("row.json");
    for line in text.lines() {
        std::fs::write(&row, line).unwrap();
        let (code, stderr) = run(EXPORT_CHECK, &[row.to_str().unwrap(), &schema]);
        assert_eq!(code, Some(0), "{line}: {stderr}");
    }
    let (code, stderr) = run(BENCH_CHECK, &["trend", history.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    std::fs::remove_dir_all(dir).unwrap();
}
