//! `azbench` — the repo's benchmark.
//!
//! ```text
//! azbench run   <workload> [--seed N] [--seconds S] [--smoke] [--out DIR]
//! azbench trace <workload> [--seed N] [--seconds S] [--smoke] [--out DIR]
//! azbench all   [--seed N] [--seconds S] [--reverse] [--smoke] [--out DIR]
//! azbench agree A.json B.json
//! azbench bless
//! azbench bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! ```
//!
//! `run` and `trace` are the measuring processes; `all` and `bench` spawn
//! them (one process per workload, one at a time) and read what they
//! report. `bench` is the entry the `command` of `BENCHMARK.json` names:
//! its last line of standard output is the contract's JSON object. See
//! `README.md` beside this crate for the metrics and the method.

mod alloc;
mod check;
mod ladder;
mod manifest;
mod proc;
mod result;
mod runner;
mod spans;
mod stats;
mod workloads;

use check::DEFAULT_SEED;
use manifest::Manifest;
use result::{contract_line, ResultSet};
use runner::RunOpts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: azbench run|trace <workload> [--seed N] [--seconds S] [--smoke] [--out DIR]
       azbench all [--seed N] [--seconds S] [--reverse] [--smoke] [--out DIR]
       azbench agree A.json B.json
       azbench bless
       azbench bench --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]";

#[derive(Debug, Default)]
struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    reverse: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: it.next().ok_or("no command given")?,
        ..Args::default()
    };
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = Some(num("--seed", value("--seed")?)?),
            "--seconds" => {
                let s: f64 = num("--seconds", value("--seconds")?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--reverse" => args.reverse = true,
            "--out" => args.out = Some(value("--out")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn workload_named(name: Option<&String>) -> Result<&'static workloads::Workload, String> {
    let name = name.ok_or("no workload given")?;
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })
}

/// How the flags say to run; the time budget is the manifest's
/// `run_seconds` unless `--seconds` gives another.
fn run_opts(args: &Args, manifest: &Manifest) -> RunOpts {
    RunOpts {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        smoke: args.smoke,
        seconds: args.seconds.unwrap_or(manifest.run_seconds),
        out: args.out.clone().unwrap_or_else(runner::default_out),
    }
}

/// A measuring process: run, print the table and the report line; exit
/// non-zero if any check failed.
fn measuring_process(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = workload_named(args.positional.first())?;
    let manifest = Manifest::load();
    let opts = run_opts(args, &manifest);
    let report = if args.command == "trace" {
        runner::trace_child(workload, &opts, &manifest, started)?
    } else {
        runner::run_child(workload, &opts, started)?
    };
    println!(
        "# {} seed {}: setup {:.3} s, {} timed repetitions {:?} s, peak RSS {:.1} MB, \
         {} of {} checks failed",
        report.workload,
        report.seed,
        report.setup_s,
        report.wall_s.len(),
        report.wall_s,
        report.peak_rss_mb,
        report.checks_failed,
        report.checks_attempted
    );
    for f in &report.failures {
        println!("  FAILED {f}");
    }
    for (def, (_, value)) in manifest.per_layer.iter().zip(&report.layers) {
        println!("{:<44} {value:>16.4} {}", def.name, def.unit);
    }
    println!("{}", report.to_json());
    Ok(if report.checks_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The entry `BENCHMARK.json` names.
fn bench(args: &Args) -> Result<ExitCode, String> {
    let manifest = Manifest::load();
    let workload = workload_named(args.workload.as_ref())?.name;
    let opts = run_opts(args, &manifest);
    let (attempted, failed, metrics) = if args.trace {
        let (child, metrics) = runner::measure_traced(&manifest, workload, &opts)?;
        for f in &child.failures {
            println!("  FAILED {f}");
        }
        for m in &metrics {
            println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
        }
        (child.checks_attempted, child.checks_failed, metrics)
    } else {
        let r = runner::measure(&manifest, workload, &opts)?;
        print!("{}", r.render());
        (r.checks_attempted, r.checks_failed, r.metrics)
    };
    println!("{}", contract_line(attempted, failed, &metrics));
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced, into one result set.
fn all(args: &Args) -> Result<ExitCode, String> {
    let manifest = Manifest::load();
    let opts = run_opts(args, &manifest);
    let mut names: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
    if args.reverse {
        names.reverse();
    }
    let mut set = ResultSet {
        provenance: proc::Provenance::detect(),
        workloads: Vec::new(),
    };
    println!("# azbench all — {}", set.provenance.to_json());
    for name in names {
        let r = runner::measure(&manifest, name, &opts)?;
        print!("{}", r.render());
        println!("  why: {}", r.why);
        set.workloads.push(r);
    }
    let path = opts.out.join("results.json");
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    std::fs::write(&path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    let failed: u64 = set.workloads.iter().map(|w| w.checks_failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Hold two result sets against the bounds of `BENCHMARK.json`.
fn agree(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = &args.positional[..] else {
        return Err("agree takes exactly two result files".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultSet::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "# A: {}\n# B: {}",
        a.provenance.to_json(),
        b.provenance.to_json()
    );
    let rows = result::agree(&Manifest::load(), &a, &b)?;
    println!(
        "{:<16} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<14} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            100.0 * r.relative,
            100.0 * r.bound,
            if r.within { "" } else { "  DISAGREE" }
        );
    }
    let mut ok = rows.iter().all(|r| r.within);
    for (label, set) in [("A", &a), ("B", &b)] {
        for w in set.workloads.iter().filter(|w| w.checks_failed > 0) {
            println!(
                "{label}: {} failed {} of {} checks",
                w.name, w.checks_failed, w.checks_attempted
            );
            ok = false;
        }
    }
    println!("{}", if ok { "sets agree" } else { "sets DISAGREE" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Regenerate `reference/<workload>.fnv` from one repetition each at the
/// default seed.
fn bless(args: &Args) -> Result<ExitCode, String> {
    let out = args.out.clone().unwrap_or_else(runner::default_out);
    for w in &workloads::WORKLOADS {
        let dir = out.join("bless").join(w.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let artifacts = (w.rep)(&mut workloads::Env {
            seed: DEFAULT_SEED,
            smoke: false,
            out: &dir,
            spans: &mut spans::Spans::new(false),
        });
        let fps = artifacts
            .iter()
            .map(|(name, body)| (name.clone(), check::fnv1a(body.as_bytes())))
            .collect();
        let path = check::write_reference(w.name, &fps)?;
        println!("wrote {} ({} artifacts)", path.display(), fps.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome =
        parse_args(std::env::args().skip(1)).and_then(|args| match args.command.as_str() {
            "run" | "trace" => measuring_process(&args, started),
            "bench" => bench(&args),
            "all" => all(&args),
            "agree" => agree(&args),
            "bless" => bless(&args),
            other => Err(format!("unknown command {other:?}")),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse("bench --workload engine-null --seed 7 --seconds 14 --trace 1").unwrap();
        assert_eq!(a.command, "bench");
        assert_eq!(a.workload.as_deref(), Some("engine-null"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(14.0), true));
    }

    #[test]
    fn bad_input_is_an_error_not_a_default() {
        assert!(parse("").is_err());
        assert!(parse("run x --seed").is_err());
        assert!(parse("run x --seed minus").is_err());
        assert!(parse("run x --seconds -1").is_err());
        assert!(parse("bench --trace 2").is_err());
        assert!(parse("run x --frobnicate").is_err());
        assert!(workload_named(Some(&"queue-fnaout".to_owned())).is_err());
        assert!(workload_named(None).is_err());
    }
}
