//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures TARGET... [--scale S] [--workers 1,2,4,...] [--seed N] [--csv DIR]
//!         [--threads N] [--shards N] [--backend was,s3,gcs,file|all]
//!         [--timeline] [--extrapolate] [--verify-seeds N] [--naive]
//!         [--expect-violation]
//! ```
//!
//! The targets are the rows of [`TARGETS`] plus `all`; with no target the
//! usage text generated from that table is printed. An unknown target or
//! flag, or an output that cannot be written, is an error (exit 2) —
//! never a silent success.
//!
//! `--scale 1.0` (default) reproduces the paper's workload volumes;
//! smaller scales shrink them proportionally.
//! `--csv DIR` additionally writes one CSV per figure into `DIR`.
//! `--threads N` caps the sweep engine's point-level parallelism (`0`,
//! the default, uses every core; `1` forces the serial schedule — the
//! emitted figures are identical either way).
//! `--shards N` runs every simulation on the sharded executor with `N`
//! shards — the emitted figures are bit-identical to the serial run (the
//! sharded executor reproduces the serial event history exactly); only
//! wall-clock time changes.
//! `--backend` runs the per-backend targets once per listed backend; `was`
//! keeps the unsuffixed output names (the committed goldens) and peers
//! suffix every artifact with `-{backend}`.
//! `--timeline` enables virtual-time gauge sampling for every target (the
//! figures stay bit-identical — sampling is passive).
//!
//! The `profile` target runs the mixed workload with phase tracing and
//! writes `profile.json`, `profile.prom` and `profile.otlp.json` (into the
//! `--csv` directory if given, else `results/`). The `timeline` target
//! runs the mixed workload under a fault plan with virtual-time gauge
//! sampling enabled and writes `timeline.json`, `timeline.csv`, a
//! Perfetto-loadable `trace.json`, and `metrics.prom`/`metrics.otlp.json`
//! — the Prometheus, OTLP and Chrome trace exports all render the same
//! end-of-run snapshot. The `bottleneck` target sweeps the attribution
//! scenarios over the worker ladder and writes `bottlenecks.json` plus a
//! `bottlenecks.md` summary table. The `fleet` target (opt-in) sweeps the
//! multi-tenant fleet scenario — the partition-parallel workload where
//! sharding gives real speedup — over the tenant ladder. The opt-in
//! `verify` target is described at [`run_verify`].

use azsim_fabric::BackendKind;
use azurebench::{
    alg1_blob, alg3_queue, alg4_queue, alg5_table, chaos, fig9, verify, BenchConfig, Figure,
};
use std::cell::OnceCell;
use std::time::Instant;

/// One thing `figures` can be asked for.
struct Target {
    name: &'static str,
    /// Part of `all`; the rest are opt-in — this reproduction's own
    /// scenario, a verdict and a timing, not paper figures.
    in_all: bool,
    /// Runs once per `--backend`; the rest never touch a storage backend
    /// and run once per invocation.
    per_backend: bool,
    run: fn(&Ctx) -> Result<(), String>,
}

/// Every target, in the order a run executes them. Argument validation,
/// the usage text, the `all` expansion and the run loop all read this
/// table and nothing else.
#[rustfmt::skip]
const TARGETS: &[Target] = &[
    Target { name: "table1",     in_all: true,  per_backend: false, run: run_table1 },
    Target { name: "fig4",       in_all: true,  per_backend: true,  run: run_fig4 },
    Target { name: "fig5",       in_all: true,  per_backend: true,  run: run_fig5 },
    Target { name: "fig6",       in_all: true,  per_backend: true,  run: run_fig6 },
    Target { name: "fig7",       in_all: true,  per_backend: true,  run: run_fig7 },
    Target { name: "fig8",       in_all: true,  per_backend: true,  run: run_fig8 },
    Target { name: "latency",    in_all: true,  per_backend: true,  run: run_latency },
    Target { name: "fig9",       in_all: true,  per_backend: true,  run: run_fig9 },
    Target { name: "profile",    in_all: true,  per_backend: true,  run: run_profile },
    Target { name: "timeline",   in_all: true,  per_backend: true,  run: run_timeline },
    Target { name: "bottleneck", in_all: true,  per_backend: true,  run: run_bottleneck },
    Target { name: "chaos",      in_all: true,  per_backend: true,  run: run_chaos },
    Target { name: "fleet",      in_all: false, per_backend: true,  run: run_fleet },
    Target { name: "verify",     in_all: false, per_backend: true,  run: run_verify },
];

fn names(targets: impl Iterator<Item = &'static Target>) -> Vec<&'static str> {
    targets.map(|t| t.name).collect()
}

fn usage() -> String {
    format!(
        "usage: figures [{}|all]... \
         [--scale S] [--workers 1,2,...] [--seed N] [--csv DIR] [--threads N] [--shards N] \
         [--backend was,s3,gcs,file|all] \
         [--timeline] [--extrapolate] [--verify-seeds N] [--naive] [--expect-violation]\n\
         \u{20}      (`all` leaves out the opt-in targets: {})",
        names(TARGETS.iter()).join("|"),
        names(TARGETS.iter().filter(|t| !t.in_all)).join(", ")
    )
}

struct Args {
    /// The requested rows of [`TARGETS`], `all` expanded, in table order.
    targets: Vec<&'static Target>,
    scale: f64,
    workers: Option<Vec<usize>>,
    seed: Option<u64>,
    csv_dir: Option<String>,
    threads: usize,
    shards: u32,
    backends: Vec<BackendKind>,
    timeline: bool,
    extrapolate: bool,
    verify_seeds: usize,
    naive: bool,
    expect_violation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        targets: Vec::new(),
        scale: 1.0,
        workers: None,
        seed: None,
        csv_dir: None,
        threads: 0,
        shards: 1,
        backends: vec![BackendKind::Was],
        timeline: false,
        extrapolate: false,
        verify_seeds: 50,
        naive: false,
        expect_violation: false,
    };
    let mut requested: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                // 0, a negative or NaN would trip `with_scale`'s assert; an
                // infinite scale never finishes.
                args.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad scale {v:?} (expected a finite number above 0)"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                // `split` yields at least one token and an empty token does
                // not parse, so the ladder cannot come out empty.
                let ws: Result<Vec<usize>, _> = v.split(',').map(|s| s.parse()).collect();
                let ws = ws.map_err(|_| format!("bad workers list {v:?}"))?;
                if ws.contains(&0) {
                    return Err(format!(
                        "bad workers list {v:?} (every entry must be at least 1)"
                    ));
                }
                args.workers = Some(ws);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--csv" => {
                args.csv_dir = Some(it.next().ok_or("--csv needs a directory")?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value")?;
                args.backends.clear();
                for tok in v.split(',') {
                    let kinds = match tok {
                        "all" => BackendKind::ALL.to_vec(),
                        _ => vec![BackendKind::parse(tok)
                            .ok_or_else(|| format!("unknown backend {tok:?}"))?],
                    };
                    // First mention wins: a repeat would only overwrite
                    // that backend's artifacts with identical bytes.
                    for kind in kinds {
                        if !args.backends.contains(&kind) {
                            args.backends.push(kind);
                        }
                    }
                }
            }
            "--timeline" => args.timeline = true,
            "--extrapolate" => args.extrapolate = true,
            "--verify-seeds" => {
                let v = it.next().ok_or("--verify-seeds needs a value")?;
                args.verify_seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
            }
            "--naive" => args.naive = true,
            "--expect-violation" => args.expect_violation = true,
            t if !t.starts_with('-') => requested.push(t.to_owned()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(bad) = requested
        .iter()
        .find(|r| *r != "all" && TARGETS.iter().all(|t| t.name != *r))
    {
        return Err(format!(
            "unknown target {bad:?} (expected one of {}, all)",
            names(TARGETS.iter()).join(", ")
        ));
    }
    let all = requested.iter().any(|r| r == "all");
    args.targets = TARGETS
        .iter()
        .filter(|t| (all && t.in_all) || requested.iter().any(|r| r == t.name))
        .collect();
    Ok(args)
}

/// What a target runs against: the invocation's arguments and the config
/// of the backend pass it belongs to.
struct Ctx<'a> {
    args: &'a Args,
    cfg: BenchConfig,
    /// Artifact-name suffix: empty for `was`, so the 15 Azure goldens keep
    /// their names; `-{backend}` for the peers.
    sfx: String,
    /// The Algorithm 1 sweep as (fig4, fig5) panels: `fig4` and `fig5`
    /// share it, so asking for both sweeps once.
    alg1: OnceCell<(Vec<Figure>, Vec<Figure>)>,
}

impl Ctx<'_> {
    /// Write `{dir}/{stem}{sfx}.{ext}`, where `dir` is `--csv` or, without
    /// it, `results/`. The one place a target's artifact reaches disk.
    fn write(&self, stem: &str, ext: &str, body: &str) -> Result<(), String> {
        let dir = self.args.csv_dir.as_deref().unwrap_or("results");
        let path = format!("{dir}/{stem}{}.{ext}", self.sfx);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, body))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
        Ok(())
    }

    /// Print each figure's table and, given `--csv`, write its CSV.
    fn emit(&self, figures: &[Figure]) -> Result<(), String> {
        for f in figures {
            println!("{}", f.render_table());
            if self.args.csv_dir.is_some() {
                self.write(&f.id, "csv", &f.to_csv())?;
            }
        }
        Ok(())
    }

    fn alg1(&self) -> &(Vec<Figure>, Vec<Figure>) {
        self.alg1.get_or_init(|| {
            alg1_blob::figures_4_and_5(&self.cfg)
                .into_iter()
                .partition(|f| f.id.starts_with("fig4"))
        })
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.targets.is_empty() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }
    if let Some(dir) = &args.csv_dir {
        // Before any sweep: an unwritable `--csv` must not cost a run.
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot write {dir}: {e}"))?;
    }

    let mut cfg = BenchConfig::paper()
        .with_scale(args.scale)
        .with_sweep_threads(args.threads)
        .with_shards(args.shards);
    if let Some(w) = args.workers.clone() {
        cfg = cfg.with_workers(w);
    }
    if let Some(s) = args.seed {
        cfg.seed = s;
    }
    if args.timeline {
        // Gauge sampling is passive: the emitted figures are bit-identical
        // with or without this flag; only wall-clock time changes.
        cfg.params.timeline_resolution = Some(azurebench::timeline::DEFAULT_RESOLUTION);
    }
    eprintln!(
        "# AzureBench figures — scale {}, workers {:?}, seed {}, shards {}, backends [{}]{}",
        cfg.scale,
        cfg.workers,
        cfg.seed,
        cfg.shards,
        args.backends
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
        if args.timeline {
            ", timeline sampling ON"
        } else {
            ""
        }
    );

    // One pass per selected backend; the backend-independent targets ride
    // along with the first pass only.
    for (pass, &kind) in args.backends.iter().enumerate() {
        if args.backends.len() > 1 {
            eprintln!("# ---- backend: {kind} ----");
        }
        let ctx = Ctx {
            args: &args,
            cfg: cfg.clone().with_backend(kind),
            sfx: match kind {
                BackendKind::Was => String::new(),
                peer => format!("-{}", peer.name()),
            },
            alg1: OnceCell::new(),
        };
        for t in args.targets.iter().filter(|t| t.per_backend || pass == 0) {
            let start = Instant::now();
            (t.run)(&ctx)?;
            eprintln!("# {} swept in {:.1?}", t.name, start.elapsed());
        }
    }
    Ok(())
}

fn run_table1(_: &Ctx) -> Result<(), String> {
    println!(
        "# Table I — VM configurations\n{}",
        azsim_compute::vm::render_table1()
    );
    Ok(())
}

fn run_fig4(c: &Ctx) -> Result<(), String> {
    c.emit(&c.alg1().0)
}

fn run_fig5(c: &Ctx) -> Result<(), String> {
    c.emit(&c.alg1().1)
}

fn run_fig6(c: &Ctx) -> Result<(), String> {
    c.emit(&alg3_queue::figure_6(&c.cfg))
}

fn run_fig7(c: &Ctx) -> Result<(), String> {
    c.emit(&alg4_queue::figure_7(&c.cfg))
}

fn run_fig8(c: &Ctx) -> Result<(), String> {
    c.emit(&alg5_table::figure_8(&c.cfg))
}

fn run_latency(c: &Ctx) -> Result<(), String> {
    let report = azurebench::latency::profile_mixed(&c.cfg, 8, 50);
    println!(
        "# latency — per-op distributions (mixed workload, 8 workers)\n{}",
        report.render()
    );
    Ok(())
}

fn run_fig9(c: &Ctx) -> Result<(), String> {
    c.emit(&[fig9::figure_9(&c.cfg)])?;
    if c.args.extrapolate {
        c.emit(&[fig9::figure_9_extrapolated(&c.cfg)])?;
    }
    Ok(())
}

fn run_profile(c: &Ctx) -> Result<(), String> {
    let report = azurebench::profile::run_profile(&c.cfg, &c.cfg.workers, c.cfg.scaled(50));
    println!(
        "# profile — per-phase latency breakdown (mixed workload)\n{}",
        report.render()
    );
    c.write("profile", "json", &report.to_json())?;
    c.write("profile", "prom", &report.to_prometheus())?;
    c.write("profile", "otlp.json", &report.to_otlp())
}

fn run_timeline(c: &Ctx) -> Result<(), String> {
    let report = azurebench::timeline::run_timeline(&c.cfg, 8, c.cfg.scaled(50));
    println!(
        "# timeline — virtual-time gauge/counter series (mixed workload + faults)\n{}",
        report.render()
    );
    c.write("timeline", "json", &report.to_json())?;
    c.write("timeline", "csv", &report.to_csv())?;
    c.write("trace", "json", &report.to_chrome_trace())?;
    c.write("metrics", "prom", &report.to_prometheus())?;
    c.write("metrics", "otlp.json", &report.to_otlp())
}

fn run_bottleneck(c: &Ctx) -> Result<(), String> {
    let report = azurebench::bottleneck::run_bottlenecks(&c.cfg, &c.cfg.workers);
    let markdown = report.render_markdown();
    println!("{markdown}");
    c.write("bottlenecks", "json", &report.to_json())?;
    c.write("bottlenecks", "md", &markdown)
}

fn run_chaos(c: &Ctx) -> Result<(), String> {
    c.emit(&chaos::figure_chaos(
        &c.cfg,
        8,
        &[0.0, 0.25, 0.5, 0.75, 1.0],
    ))
}

fn run_fleet(c: &Ctx) -> Result<(), String> {
    c.emit(&azurebench::fleet::figure_fleet(&c.cfg))
}

/// The `verify` target: chaos-search the fault-plan space — `--verify-seeds
/// N` randomized plans plus boundary schedules — for violations of the
/// invariants in [`azurebench::verify`]. `--naive` swaps the hardened
/// idempotent client for a blind-retry one (expected to be caught). Exit
/// code 0 = expectation met (clean under the hardened policy, or a
/// violation found when `--expect-violation` was given); 1 = unexpected
/// outcome. On violation, the shrunk reproducer is written as
/// `repro-<policy>.json`.
fn run_verify(c: &Ctx) -> Result<(), String> {
    let args = c.args;
    let policy = if args.naive { "naive" } else { "hardened" };
    let vcfg = verify::VerifyConfig {
        seed: args.seed.unwrap_or(2012),
        hardened: !args.naive,
        backend: c.cfg.backend(),
        ..verify::VerifyConfig::quick(!args.naive)
    };
    let seeds: Vec<u64> = (0..args.verify_seeds as u64).collect();
    let t = Instant::now();
    let report = verify::chaos_search(&vcfg, &seeds, args.threads);
    eprintln!(
        "# verify: {} runs ({} boundary + {} seeded, {policy} policy) in {:.1?}",
        report.runs,
        report.boundary_runs,
        seeds.len(),
        t.elapsed()
    );
    match &report.failure {
        None => {
            println!("verify: zero invariant violations in {} runs", report.runs);
            if args.expect_violation {
                eprintln!("error: expected a violation but found none");
                std::process::exit(1);
            }
        }
        Some(case) => {
            let doc = verify::ReproDoc::new(&vcfg, case);
            println!(
                "verify: VIOLATION — {} (plan shrunk {} → {} ingredients)",
                case.violations
                    .iter()
                    .map(|v| v.invariant.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
                verify::plan_events(&case.plan),
                verify::plan_events(&case.shrunk),
            );
            for v in &case.violations {
                println!("  {}: {}", v.invariant, v.detail);
            }
            c.write(&format!("repro-{policy}"), "json", &doc.to_json())?;
            if !args.expect_violation {
                std::process::exit(1);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_are_unique_and_all_in_the_usage_text() {
        let usage = usage();
        let listed = usage.split(['[', ']']).nth(1).expect("bracketed list");
        let mut expected = names(TARGETS.iter());
        expected.push("all");
        assert_eq!(listed.split('|').collect::<Vec<_>>(), expected, "{usage}");
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(expected.len(), TARGETS.len() + 1, "a name is listed twice");
    }
}
