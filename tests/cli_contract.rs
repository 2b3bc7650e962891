//! The command-line contract of the `figures`, `ycsb` and `export_check`
//! binaries, checked on the real executables: bad input is a message on
//! stderr and exit 2 — never a silent success, never a panic. Also the
//! build contract of the manifests: every declared dependency is used, and
//! so is every shim.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const YCSB: &str = env!("CARGO_BIN_EXE_ycsb");
const EXPORT_CHECK: &str = env!("CARGO_BIN_EXE_export_check");

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
        // Gauge sampling is the `timeline` target's, not a flag.
        (
            vec!["fig6", "--timeline", "--csv", csv],
            "error: unknown flag \"--timeline\"",
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
fn export_check_rejects_a_hostile_document() {
    let doc = fresh("deep.json");
    std::fs::write(&doc, "[".repeat(100_000)).unwrap();
    let schema = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/timeline.schema.json"
    );
    let (code, stderr) = run(EXPORT_CHECK, &[doc.to_str().unwrap(), schema]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
    std::fs::remove_file(doc).unwrap();
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

/// The string value of `key = "…"` on a manifest line, if that is the line.
fn toml_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let (k, v) = line.split_once('=')?;
    (k.trim() == key).then(|| v.trim().trim_matches('"'))
}

/// Append every `.rs` file under `dir` to `out`.
fn read_sources(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        if path.is_dir() {
            read_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap());
        }
    }
}

#[test]
fn every_dependency_is_used_and_every_shim_is_depended_on() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut unused, mut depended_on) = (Vec::new(), BTreeSet::new());
    for group in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(group)).unwrap().flatten() {
            let dir = member.path();
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            // The member's sources: its own tree plus any `path = "….rs"`
            // target that lives outside it (the workspace tests and examples).
            let mut src = String::new();
            read_sources(&dir.join("src"), &mut src);
            if dir.join("tests").is_dir() {
                read_sources(&dir.join("tests"), &mut src);
            }
            let (mut package, mut section, mut deps) = ("", "", Vec::new());
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                    continue;
                }
                match section {
                    "[package]" => package = toml_str(line, "name").unwrap_or(package),
                    "[dependencies]" | "[dev-dependencies]" => {
                        deps.extend(line.split_once('=').map(|(dep, _)| dep.trim()))
                    }
                    _ => {
                        if let Some(path) = toml_str(line, "path").filter(|p| p.ends_with(".rs")) {
                            src.push_str(&std::fs::read_to_string(dir.join(path)).unwrap());
                        }
                    }
                }
            }
            for dep in deps {
                let krate = dep.replace('-', "_");
                if !src.contains(&format!("{krate}::")) && !src.contains(&format!("use {krate}")) {
                    unused.push(format!("{package} → {dep}"));
                }
                depended_on.insert(dep.to_owned());
            }
        }
    }
    let orphans: Vec<String> = std::fs::read_dir(root.join("shims"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .filter(|shim| !depended_on.contains(shim))
        .collect();
    assert!(unused.is_empty(), "declared but never named: {unused:?}");
    assert!(
        orphans.is_empty(),
        "shims no member depends on: {orphans:?}"
    );
}

#[test]
fn every_root_test_and_example_is_a_declared_target() {
    // Cargo compiles a root `tests/*.rs` or `examples/*.rs` file only when
    // a member lists it as a `[[test]]` or `[[example]]` path: a file no
    // manifest names silently never runs.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut declared = BTreeSet::new();
    for group in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(group)).unwrap().flatten() {
            let manifest = std::fs::read_to_string(member.path().join("Cargo.toml")).unwrap();
            let mut section = "";
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                } else if let ("[[test]]" | "[[example]]", Some(path)) =
                    (section, toml_str(line, "path"))
                {
                    declared.insert(member.path().join(path).canonicalize().unwrap());
                }
            }
        }
    }
    let undeclared: Vec<PathBuf> = ["tests", "examples"]
        .iter()
        .flat_map(|dir| std::fs::read_dir(root.join(dir)).unwrap().flatten())
        .map(|file| file.path().canonicalize().unwrap())
        .filter(|path| path.extension().is_some_and(|e| e == "rs") && !declared.contains(path))
        .collect();
    assert!(
        undeclared.is_empty(),
        "declared by no [[test]] or [[example]] entry: {undeclared:?}"
    );
}
