//! Running a workload: the measuring process itself (`run`, `trace`) and
//! the parent that spawns one measuring process per workload.
//!
//! One measuring process = set-up + one untimed warm-up repetition (grows
//! the heap to its working size, faults in arenas) → timed repetitions of
//! the workload's fixed unit of work → checks → one JSON report. A timing
//! is the median over the timed repetitions; the repetitions are as many
//! as fit in the time budget, never fewer than `MIN_REPS`.

use crate::check::{self, Fingerprints, DEFAULT_SEED};
use crate::manifest::Manifest;
use crate::proc::{peak_rss_mb, Usage};
use crate::result::{ChildReport, Metric, WorkloadResult};
use crate::spans::{self_time_ns, Spans};
use crate::workloads::{self, Env, Workload};
use crate::{alloc, ladder, stats};
use azurebench::{bottleneck, BenchConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Timed repetitions a process makes at least, whatever its budget.
pub const MIN_REPS: usize = 3;
/// Traced + untraced repetition pairs a traced process makes at least.
pub const TRACE_PAIRS: usize = 1;

/// How one measuring process is told to run.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Tiny sizes and one timed repetition (one pair when traced).
    pub smoke: bool,
    /// Budget of seconds for the timed repetitions.
    pub seconds: f64,
    pub out: PathBuf,
}

impl RunOpts {
    /// Whether another repetition should start after `done` of them took
    /// `elapsed` seconds in all: at least `min` are made, then as many as
    /// should still fit in the budget if each takes `typical` seconds.
    fn another(&self, min: usize, done: usize, elapsed: f64, typical: f64) -> bool {
        if self.smoke {
            return done == 0;
        }
        done < min || elapsed + typical <= self.seconds
    }
}

/// Where run output goes unless `--out` says otherwise: under the build's
/// target directory, which is git-ignored.
pub fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("azbench")
}

/// The state of one measuring process while it repeats its workload.
struct Measuring<'a> {
    workload: &'a Workload,
    opts: &'a RunOpts,
    dir: PathBuf,
    spans: Spans,
    /// What every repetition must emit: the committed reference, or the
    /// first repetition's bytes when the seed has none.
    want: Option<Fingerprints>,
    goldens: Fingerprints,
    attempted: u64,
    failures: Vec<String>,
    rep: u32,
}

impl<'a> Measuring<'a> {
    fn new(workload: &'a Workload, opts: &'a RunOpts) -> Result<Self, String> {
        let dir = opts.out.join(workload.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let referenced = opts.seed == DEFAULT_SEED && !opts.smoke;
        let want = if referenced {
            Some(check::load_reference(workload.name)?)
        } else {
            None
        };
        // `queue-fanout` at the default seed is the paper configuration:
        // its CSVs must also equal the WAS goldens themselves.
        let mut goldens = Fingerprints::new();
        if referenced && workload.name == "queue-fanout" {
            let results = check::repo_root().join("results");
            for name in want.iter().flatten().map(|(n, _)| n) {
                if let Ok(bytes) = std::fs::read(results.join(name)) {
                    goldens.insert(name.clone(), check::fnv1a(&bytes));
                }
            }
            if goldens.is_empty() {
                return Err(format!("{}: no fig6/fig7 goldens found", results.display()));
            }
        }
        Ok(Measuring {
            workload,
            opts,
            dir,
            spans: Spans::new(false),
            want,
            goldens,
            attempted: 0,
            failures: Vec::new(),
            rep: 0,
        })
    }

    /// One repetition: the workload's unit of work, then its checks.
    /// Returns the seconds it took, or `None` if it panicked (which fails
    /// every check it owed).
    fn repetition(&mut self) -> Option<f64> {
        let rep = self.rep;
        self.rep += 1;
        self.spans.set_rep(rep);
        let (workload, opts, dir) = (self.workload, self.opts, self.dir.clone());
        let (want, goldens) = (&mut self.want, &self.goldens);
        let (attempted, failures) = (&mut self.attempted, &mut self.failures);
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.spans.span("rep", |spans| {
                let artifacts = (workload.rep)(&mut Env {
                    seed: opts.seed,
                    smoke: opts.smoke,
                    out: &dir,
                    spans,
                });
                spans.span("bench.check", |_| {
                    let got: Fingerprints = artifacts
                        .iter()
                        .map(|(name, body)| (name.clone(), check::fnv1a(body.as_bytes())))
                        .collect();
                    match want.as_ref() {
                        // No reference for this seed: the first repetition
                        // sets what the others must repeat.
                        None => *want = Some(got.clone()),
                        Some(want) => {
                            let (n, failed) = check::compare(&got, want);
                            *attempted += n;
                            failures.extend(failed.into_iter().map(|f| format!("rep {rep}: {f}")));
                        }
                    }
                    for (name, golden) in goldens {
                        *attempted += 1;
                        if got.get(name) != Some(golden) {
                            failures.push(format!("rep {rep}: {name} differs from results/{name}"));
                        }
                    }
                });
            })
        }));
        match outcome {
            Ok(()) => Some(started.elapsed().as_secs_f64()),
            Err(_) => {
                self.spans.abandon_open();
                let owed = self.want.as_ref().map_or(1, |w| w.len().max(1)) as u64;
                self.attempted += owed;
                self.failures
                    .extend((0..owed).map(|_| format!("rep {rep}: panicked")));
                None
            }
        }
    }

    /// The error of a process whose every repetition panicked: it has no
    /// timing to report.
    fn no_samples(&self) -> String {
        format!(
            "{}: no repetition completed ({})",
            self.workload.name,
            self.failures.join("; ")
        )
    }

    fn report(self, setup_s: f64, wall_s: Vec<f64>, layers: Vec<(String, f64)>) -> ChildReport {
        ChildReport {
            workload: self.workload.name.to_owned(),
            seed: self.opts.seed,
            ops: (self.workload.ops)(self.opts.smoke),
            checks_attempted: self.attempted.max(1),
            checks_failed: self.failures.len() as u64,
            failures: self.failures,
            setup_s,
            wall_s,
            peak_rss_mb: peak_rss_mb(),
            layers,
        }
    }
}

/// `azbench run`: the untraced measuring process.
pub fn run_child(
    workload: &Workload,
    opts: &RunOpts,
    started: Instant,
) -> Result<ChildReport, String> {
    let mut m = Measuring::new(workload, opts)?;
    let Some(warmup) = m.repetition() else {
        return Err(m.no_samples());
    };
    let setup_s = started.elapsed().as_secs_f64();
    let mut wall = Vec::new();
    let timed = Instant::now();
    while opts.another(
        MIN_REPS,
        wall.len(),
        timed.elapsed().as_secs_f64(),
        if wall.is_empty() {
            warmup
        } else {
            stats::median(&wall)
        },
    ) {
        // A panic repeats and has already failed its checks: stop there.
        let Some(secs) = m.repetition() else { break };
        wall.push(secs);
    }
    if wall.is_empty() {
        return Err(m.no_samples());
    }
    Ok(m.report(setup_s, wall, Vec::new()))
}

/// What the traced repetitions of one process add up to.
#[derive(Default)]
struct Counted {
    reps: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// One repetition with spans recorded and allocations counted.
fn traced_repetition(m: &mut Measuring, counted: &mut Counted) -> Option<f64> {
    m.spans.set_enabled(true);
    alloc::set_enabled(true);
    let (a0, b0) = alloc::snapshot();
    let secs = m.repetition();
    let (a1, b1) = alloc::snapshot();
    alloc::set_enabled(false);
    m.spans.set_enabled(false);
    if secs.is_some() {
        counted.reps += 1;
        counted.allocs += a1 - a0;
        counted.alloc_bytes += b1 - b0;
    }
    secs
}

/// `azbench trace`: the traced measuring process. Repetitions alternate
/// traced (spans recorded, allocations counted) and untraced, so the same
/// process yields `trace.overhead_pct`; then the layer ladder runs. Writes
/// `trace.json` and returns every per-layer metric the manifest names.
pub fn trace_child(
    workload: &Workload,
    opts: &RunOpts,
    manifest: &Manifest,
    started: Instant,
) -> Result<ChildReport, String> {
    let mut m = Measuring::new(workload, opts)?;
    let Some(warmup) = m.repetition() else {
        return Err(m.no_samples());
    };
    let setup_s = started.elapsed().as_secs_f64();

    // Complete `(traced, untraced)` pairs of seconds.
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut counted = Counted::default();
    let before = Usage::now();
    let timed = Instant::now();
    while opts.another(
        TRACE_PAIRS,
        pairs.len(),
        timed.elapsed().as_secs_f64(),
        2.0 * warmup,
    ) {
        // Alternate which side goes first, so a drifting host does not
        // favour one of them. A panic repeats: stop at the first.
        let traced_first = pairs.len() % 2 == 1;
        let pair = if traced_first {
            traced_repetition(&mut m, &mut counted).and_then(|t| Some((t, m.repetition()?)))
        } else {
            m.repetition()
                .and_then(|u| Some((traced_repetition(&mut m, &mut counted)?, u)))
        };
        let Some(pair) = pair else { break };
        pairs.push(pair);
    }
    if pairs.is_empty() {
        return Err(m.no_samples());
    }
    let usage = Usage::now().since(before);
    // Each pair ran back to back, so its ratio is the part of the host's
    // drift the alternation does not already cancel.
    let pair_ratio = pairs.iter().map(|(t, u)| t / u).sum::<f64>() / pairs.len() as f64;
    let untraced: Vec<f64> = pairs.iter().map(|&(_, u)| u).collect();
    let reps_run = f64::from(m.rep - 1);
    let ops = (workload.ops)(opts.smoke) as f64;

    m.spans.set_enabled(true);
    m.spans.set_rep(0);
    alloc::set_enabled(true);
    let mut layers = ladder::run(&mut m.spans, opts.smoke);
    alloc::set_enabled(false);
    if workload.name == "observed-mixed" {
        // The bottleneck sweep drives the same instrumentation; it is a
        // span of the traced run only, outside the repetitions.
        let cfg = BenchConfig::paper()
            .with_scale(if opts.smoke { 0.01 } else { 0.25 })
            .with_sweep_threads(1);
        let ladder: &[usize] = if opts.smoke { &[1, 4] } else { &cfg.workers };
        m.spans.span("core.bottleneck", |_| {
            std::hint::black_box(bottleneck::run_bottlenecks(&cfg, ladder).to_json().len())
        });
    }

    // Per-repetition means of each span inside the traced repetitions.
    let n = counted.reps as f64;
    let per_rep_s = |name: &str| m.spans.total_s(name) / n;
    let rep_spans: Vec<usize> = (0..m.spans.all().len())
        .filter(|&i| m.spans.all()[i].name == "rep")
        .collect();
    let rep_ns: u64 = rep_spans.iter().map(|&i| m.spans.all()[i].dur_ns()).sum();
    let unattributed_ns: u64 = rep_spans
        .iter()
        .map(|&i| self_time_ns(m.spans.all(), i))
        .sum();
    let verify_runs = workloads::verify_runs(opts.smoke) as f64;
    layers.extend([
        ("core.alg1.wall_s", per_rep_s("core.alg1")),
        ("core.alg3.wall_s", per_rep_s("core.alg3")),
        ("core.alg4.wall_s", per_rep_s("core.alg4")),
        ("core.alg5.wall_s", per_rep_s("core.alg5")),
        ("core.hotqueue.wall_s", per_rep_s("core.hotqueue")),
        ("core.profile.wall_s", per_rep_s("core.profile")),
        ("core.timeline.wall_s", per_rep_s("core.timeline")),
        ("core.chaos.wall_s", per_rep_s("core.chaos")),
        (
            "core.verify.us_per_plan",
            per_rep_s("core.verify") * 1e6 / verify_runs,
        ),
        ("core.engine.wall_s", per_rep_s("core.engine")),
        ("core.bottleneck.wall_s", m.spans.total_s("core.bottleneck")),
        (
            "core.report.emit_ms",
            (per_rep_s("core.report.emit") + per_rep_s("core.profile.export")) * 1e3,
        ),
        (
            "core.timeline.export_ms",
            per_rep_s("core.timeline.export") * 1e3,
        ),
        ("bench.check_ms", per_rep_s("bench.check") * 1e3),
        (
            "trace.unattributed_pct",
            100.0 * unattributed_ns as f64 / rep_ns.max(1) as f64,
        ),
        ("proc.allocs_per_op", counted.allocs as f64 / (n * ops)),
        (
            "proc.alloc_bytes_per_op",
            counted.alloc_bytes as f64 / (n * ops),
        ),
        ("proc.cpu_user_s", usage.user_s / reps_run),
        ("proc.cpu_sys_s", usage.sys_s / reps_run),
        ("proc.minor_faults", usage.minor_faults / reps_run),
        ("trace.overhead_pct", 100.0 * (pair_ratio - 1.0)),
        ("checks_failed", m.failures.len() as f64),
    ]);

    let trace_path = m.dir.join("trace.json");
    std::fs::write(&trace_path, m.spans.to_chrome_trace())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("wrote {}", trace_path.display());

    // Report exactly the per-layer metrics the manifest names, in its order.
    let named: Vec<(String, f64)> = manifest
        .per_layer
        .iter()
        .map(|d| {
            let hits: Vec<f64> = layers
                .iter()
                .filter(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .collect();
            match hits[..] {
                [v] => Ok((d.name.clone(), v)),
                [] => Err(format!("per-layer metric `{}` is not measured", d.name)),
                _ => Err(format!("per-layer metric `{}` is measured twice", d.name)),
            }
        })
        .collect::<Result<_, String>>()?;
    if let Some((extra, _)) = layers
        .iter()
        .find(|(n, _)| !manifest.per_layer.iter().any(|d| d.name == *n))
    {
        return Err(format!(
            "measured `{extra}`, which BENCHMARK.json does not name"
        ));
    }
    Ok(m.report(setup_s, untraced, named))
}

/// Spawn this executable as a measuring process and parse its report.
fn spawn(mode: &str, workload: &str, opts: &RunOpts) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([mode, workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr passes through.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {mode} {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{mode} {workload} printed nothing ({})", output.status))?;
    ChildReport::from_json(line).map_err(|e| format!("{mode} {workload} ({}): {e}", output.status))
}

/// Measure one workload untraced, in one fresh process of its own.
pub fn measure(
    manifest: &Manifest,
    workload: &str,
    opts: &RunOpts,
) -> Result<WorkloadResult, String> {
    let child = spawn("run", workload, opts)?;
    Ok(WorkloadResult::of(manifest, child))
}

/// Measure one workload traced: one process; returns its checks and every
/// per-layer metric with the manifest's units.
pub fn measure_traced(
    manifest: &Manifest,
    workload: &str,
    opts: &RunOpts,
) -> Result<(ChildReport, Vec<Metric>), String> {
    // Half the budget for the repetition pairs; the ladder takes the rest.
    let half = RunOpts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let child = spawn("trace", workload, &half)?;
    if child.layers.len() != manifest.per_layer.len() {
        return Err(format!(
            "trace {workload} reported {} per-layer values",
            child.layers.len()
        ));
    }
    let metrics = manifest
        .per_layer
        .iter()
        .zip(&child.layers)
        .map(|(d, (name, value))| {
            if *name != d.name {
                return Err(format!(
                    "trace {workload} reported `{name}` where `{}` belongs",
                    d.name
                ));
            }
            Ok(Metric {
                name: d.name.clone(),
                value: *value,
                unit: d.unit.clone(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((child, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_budgets() {
        let mut opts = RunOpts {
            seed: 1,
            smoke: false,
            seconds: 5.0,
            out: PathBuf::new(),
        };
        // The minimum is honoured even when the budget is already spent.
        assert!(opts.another(2, 1, 9.0, 3.0));
        // Past the minimum, a repetition starts only if it should fit.
        assert!(opts.another(2, 2, 1.9, 3.0));
        assert!(!opts.another(2, 2, 2.1, 3.0));
        // Smoke is one repetition, whatever the budget and the minimum.
        opts.smoke = true;
        assert!(opts.another(2, 0, 0.0, 3.0));
        assert!(!opts.another(2, 1, 0.0, 0.0));
    }
}
