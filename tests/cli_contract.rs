//! The command-line contract of the `figures` and `ycsb` binaries, checked
//! on the real executables: bad input is a message on stderr and exit 2 —
//! never a silent success, never a panic.

use std::path::PathBuf;
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const YCSB: &str = env!("CARGO_BIN_EXE_ycsb");

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
        (
            vec!["fig6", "--scale", "0", "--csv", csv],
            "error: bad scale \"0\"",
        ),
        (
            vec!["fig6", "--scale", "-1", "--csv", csv],
            "error: bad scale \"-1\"",
        ),
        (
            vec!["fig6", "--scale", "nan", "--csv", csv],
            "error: bad scale \"nan\"",
        ),
        (
            vec!["fig6", "--scale", "inf", "--csv", csv],
            "error: bad scale \"inf\"",
        ),
        // `azbench` is the one benchmark: `figures` has no timing target or flag.
        (
            vec!["bench", "--csv", csv],
            "error: unknown target \"bench\" (expected one of table1, fig4, ",
        ),
        (
            vec!["fig6", "--ladder", "quick", "--csv", csv],
            "error: unknown flag \"--ladder\"",
        ),
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
