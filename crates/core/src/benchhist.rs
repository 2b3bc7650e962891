//! Continuous benchmark history: the versioned `BENCH_history.jsonl`
//! store — the only record of engine-ladder runs — the trend-aware
//! regression detector and the report renderers behind
//! `bench_check trend|report`.
//!
//! The paper reports point-in-time numbers; its own conclusion — cloud
//! storage performance drifts and must be re-measured — is the argument
//! for *continuous* benchmarking: one append-only row per rung per run.
//!
//! * **Rows** ([`HistoryRow`], schema [`HISTORY_SCHEMA`]): one JSON line
//!   per engine-ladder rung per run, carrying full provenance (timestamp,
//!   host, commit, backend, shard count, core count) so series from
//!   different machines or configurations never silently mix.
//! * **Trend** ([`analyze`]): for every `(backend, actors, shards)` key,
//!   a robust baseline — median plus MAD over the last
//!   [`TrendConfig::window`] runs — classifies the newest point as
//!   stable, improved, regressed, recovered or too noisy to call. The
//!   gate fires only when a drop clears **both** the relative tolerance
//!   and the series' own noise band, so a noisy-but-flat series never
//!   gates while a clean 30 % step does.
//! * **Report** ([`render_markdown`], [`render_html`]): self-contained
//!   artifacts with sparkline trend tables per backend/shard section.
//!
//! Everything is plain-text JSONL with hand-rolled serialization (the
//! offline serde shim's `Value` for parsing), so the history file stays
//! diffable and mergeable in git.

use serde::ser::write_escaped;
use serde::value::{find, parse, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Schema identifier carried by every v1 history row.
pub const HISTORY_SCHEMA: &str = "azurebench-bench-history/v1";

/// The backend label of the engine ladder: its `NullModel` never touches a
/// storage backend, so `figures bench` records every run under this one.
pub const DEFAULT_BACKEND: &str = "was";

/// One engine-ladder rung of one bench run: a single JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRow {
    /// Wall-clock time of the run (seconds since the Unix epoch). All
    /// rungs of one run share one timestamp — it is the run key.
    pub unix_ts: u64,
    /// Hostname the run executed on (`unknown` when unavailable).
    pub host: String,
    /// Commit the run measured (`unknown` when unavailable).
    pub commit: String,
    /// Storage backend profile the run used.
    pub backend: String,
    /// Workload scale factor of the surrounding bench invocation.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Actor count of the rung.
    pub actors: u64,
    /// Executor shard count of the rung.
    pub shards: u64,
    /// Cores available to the run.
    pub cores: u64,
    /// Simulated operations the rung completed.
    pub simulated_ops: u64,
    /// Wall-clock seconds the rung took.
    pub wall_seconds: f64,
    /// Throughput of the rung.
    pub ops_per_second: f64,
    /// Events processed per executor shard.
    pub per_shard_events: Vec<u64>,
}

impl HistoryRow {
    /// Serialize as one JSONL line (no trailing newline). Deterministic:
    /// fixed key order, shortest-roundtrip floats.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        write_escaped(HISTORY_SCHEMA, &mut out);
        out.push_str(&format!(",\"unix_ts\":{}", self.unix_ts));
        out.push_str(",\"host\":");
        write_escaped(&self.host, &mut out);
        out.push_str(",\"commit\":");
        write_escaped(&self.commit, &mut out);
        out.push_str(",\"backend\":");
        write_escaped(&self.backend, &mut out);
        out.push_str(&format!(
            ",\"scale\":{:?},\"seed\":{},\"actors\":{},\"shards\":{},\"cores\":{},\
             \"simulated_ops\":{},\"wall_seconds\":{:?},\"ops_per_second\":{:?},\
             \"per_shard_events\":[{}]}}",
            self.scale,
            self.seed,
            self.actors,
            self.shards,
            self.cores,
            self.simulated_ops,
            self.wall_seconds,
            self.ops_per_second,
            self.per_shard_events
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out
    }
}

fn num_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => n.parse().ok(),
        _ => None,
    }
}

fn get_f64(m: &[(String, Value)], key: &str) -> Option<f64> {
    find(m, key).and_then(num_f64)
}

fn get_u64(m: &[(String, Value)], key: &str) -> Option<u64> {
    get_f64(m, key).map(|v| v as u64)
}

fn get_str(m: &[(String, Value)], key: &str, default: &str) -> String {
    match find(m, key) {
        Some(Value::Str(s)) => s.to_ascii_lowercase(),
        _ => default.to_owned(),
    }
}

/// Parse one v1 row object.
fn parse_v1_row(m: &[(String, Value)]) -> Result<HistoryRow, String> {
    let req_u64 = |key: &str| get_u64(m, key).ok_or_else(|| format!("missing numeric {key:?}"));
    let req_f64 = |key: &str| get_f64(m, key).ok_or_else(|| format!("missing numeric {key:?}"));
    Ok(HistoryRow {
        unix_ts: req_u64("unix_ts")?,
        host: get_str(m, "host", "unknown"),
        commit: get_str(m, "commit", "unknown"),
        backend: get_str(m, "backend", DEFAULT_BACKEND),
        scale: req_f64("scale")?,
        seed: req_u64("seed")?,
        actors: req_u64("actors")?,
        shards: get_u64(m, "shards").unwrap_or(1),
        cores: get_u64(m, "cores").unwrap_or(1),
        simulated_ops: req_u64("simulated_ops")?,
        wall_seconds: req_f64("wall_seconds")?,
        ops_per_second: req_f64("ops_per_second")?,
        per_shard_events: find(m, "per_shard_events")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(num_f64).map(|v| v as u64).collect())
            .unwrap_or_default(),
    })
}

fn parse_line(line: &str) -> Result<HistoryRow, String> {
    let doc = parse(line.as_bytes()).map_err(|e| format!("invalid JSON: {e}"))?;
    let m = doc.as_object().ok_or("line is not a JSON object")?;
    match find(m, "schema").and_then(|v| v.as_str()) {
        Some(HISTORY_SCHEMA) => parse_v1_row(m),
        Some(other) => Err(format!(
            "unknown history schema {other:?} (expected {HISTORY_SCHEMA:?})"
        )),
        None => Err(format!("no \"schema\" tag (expected {HISTORY_SCHEMA:?})")),
    }
}

/// Parse a whole history file, one v1 row per non-blank line; errors name
/// the offending line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        rows.push(parse_line(line).map_err(|e| format!("BENCH_history line {}: {e}", i + 1))?);
    }
    Ok(rows)
}

/// The run timestamp of the newest row in a history file's text, if any.
pub fn tail_unix_ts(text: &str) -> Result<Option<u64>, String> {
    let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Ok(None);
    };
    let row = parse_line(last).map_err(|e| format!("BENCH_history tail line: {e}"))?;
    Ok(Some(row.unix_ts))
}

/// Append rows to a history file, refusing rows older than the file's
/// tail — a replayed run or a host with a skewed clock must not corrupt
/// the append-only ordering the trend detector relies on.
pub fn append_rows(path: &str, rows: &[HistoryRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Ok(());
    }
    let new_ts = rows.iter().map(|r| r.unix_ts).min().unwrap_or(0);
    if let Ok(existing) = std::fs::read_to_string(path) {
        if let Some(tail) = tail_unix_ts(&existing)? {
            if new_ts < tail {
                return Err(format!(
                    "refusing to append run at unix_ts {new_ts} behind the history tail \
                     ({tail}): clock skew or a replayed run would corrupt the trend order"
                ));
            }
        }
    }
    let mut text = String::new();
    for r in rows {
        text.push_str(&r.to_line());
        text.push('\n');
    }
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot append {path}: {e}"))
}

/// The first of `vars` set to a non-blank value, trimmed.
fn first_env(vars: &[&str]) -> Option<String> {
    vars.iter()
        .filter_map(|var| std::env::var(var).ok())
        .map(|v| v.trim().to_owned())
        .find(|v| !v.is_empty())
}

/// The host identity recorded in history rows: `AZBENCH_HOST`, then
/// `HOSTNAME`, then `/etc/hostname`, then `unknown`.
pub fn detect_host() -> String {
    first_env(&["AZBENCH_HOST", "HOSTNAME"])
        .or_else(|| std::fs::read_to_string("/etc/hostname").ok())
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit identity recorded in history rows: `AZBENCH_COMMIT`, then
/// `GITHUB_SHA`, then `GIT_COMMIT`, then the `HEAD` of the repository
/// containing the working directory, then `unknown`. No `git` subprocess —
/// benches must not depend on a git installation.
pub fn detect_commit() -> String {
    first_env(&["AZBENCH_COMMIT", "GITHUB_SHA", "GIT_COMMIT"])
        .or_else(|| git_head_commit(&std::env::current_dir().ok()?))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit `HEAD` names in the repository whose `.git` directory is in
/// `start` or the nearest ancestor that has one, read from the files git
/// keeps: `HEAD` itself when detached, else the ref's loose file, else its
/// `packed-refs` entry.
fn git_head_commit(start: &Path) -> Option<String> {
    let sha = |s: &str| {
        let s = s.trim();
        (!s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit())).then(|| s.to_owned())
    };
    let git = start
        .ancestors()
        .map(|dir| dir.join(".git"))
        .find(|git| git.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return sha(&head);
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(name)) {
        return sha(&loose);
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|&(_, packed_name)| packed_name == name)
        .and_then(|(id, _)| sha(id))
}

// ---------------------------------------------------------------------------
// Trend detection.
// ---------------------------------------------------------------------------

/// Knobs of the trend detector.
#[derive(Clone, Copy, Debug)]
pub struct TrendConfig {
    /// How many prior runs the rolling baseline covers.
    pub window: usize,
    /// Relative drop that is *never* acceptable on a quiet series.
    pub tolerance: f64,
    /// How many robust standard deviations (1.4826 × MAD) a drop must
    /// also clear before it gates — the noise-band half-width.
    pub mad_gate: f64,
    /// Minimum prior runs before any verdict besides `Insufficient`.
    pub min_history: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: 8,
            tolerance: 0.25,
            mad_gate: 4.0,
            min_history: 3,
        }
    }
}

/// Classification of the newest point of one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrendVerdict {
    /// Fewer than `min_history` prior runs: nothing to gate against.
    Insufficient,
    /// Within tolerance and noise band of the rolling baseline.
    Stable,
    /// The series' own noise band exceeds the tolerance: a single point
    /// can never be called a regression (or an improvement) here.
    Noisy,
    /// Above baseline beyond both tolerance and noise band.
    Improvement,
    /// Below baseline beyond both tolerance and noise band — gates.
    Regression,
    /// Back within tolerance right after a regressed point.
    Recovery,
}

impl TrendVerdict {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            TrendVerdict::Insufficient => "insufficient-history",
            TrendVerdict::Stable => "stable",
            TrendVerdict::Noisy => "noisy",
            TrendVerdict::Improvement => "improvement",
            TrendVerdict::Regression => "REGRESSION",
            TrendVerdict::Recovery => "recovery",
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Robust per-point statistics: the baseline the point was judged
/// against plus the resulting verdict.
#[derive(Clone, Copy, Debug)]
pub struct PointJudgement {
    /// Median of the prior window.
    pub baseline: f64,
    /// Median absolute deviation of the prior window.
    pub mad: f64,
    /// Relative deviation of the point from the baseline.
    pub deviation: f64,
    /// The verdict.
    pub verdict: TrendVerdict,
}

/// Judge every point of a chronological series against the rolling
/// window of points before it.
pub fn judge_series(values: &[f64], cfg: &TrendConfig) -> Vec<PointJudgement> {
    let mut out = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        let start = i.saturating_sub(cfg.window);
        let prior = &values[start..i];
        let j = if prior.len() < cfg.min_history {
            PointJudgement {
                baseline: median(prior),
                mad: 0.0,
                deviation: 0.0,
                verdict: TrendVerdict::Insufficient,
            }
        } else {
            let m = median(prior);
            let mad = median(&prior.iter().map(|x| (x - m).abs()).collect::<Vec<_>>());
            let sigma = 1.4826 * mad;
            let dev = if m > 0.0 { (v - m) / m } else { 0.0 };
            let prev_regressed = out
                .last()
                .is_some_and(|p: &PointJudgement| p.verdict == TrendVerdict::Regression);
            let verdict = if m <= 0.0 {
                TrendVerdict::Insufficient
            } else if dev < -cfg.tolerance && v < m - cfg.mad_gate * sigma {
                TrendVerdict::Regression
            } else if prev_regressed && dev >= -cfg.tolerance {
                TrendVerdict::Recovery
            } else if sigma / m > cfg.tolerance / 2.0 {
                TrendVerdict::Noisy
            } else if dev > cfg.tolerance && v > m + cfg.mad_gate * sigma {
                TrendVerdict::Improvement
            } else {
                TrendVerdict::Stable
            };
            PointJudgement {
                baseline: m,
                mad,
                deviation: dev,
                verdict,
            }
        };
        out.push(j);
    }
    out
}

/// The trend of one `(backend, actors, shards)` series.
#[derive(Clone, Debug)]
pub struct KeyTrend {
    /// Storage backend of the series.
    pub backend: String,
    /// Actor count of the series.
    pub actors: u64,
    /// Shard count of the series.
    pub shards: u64,
    /// Chronological throughput values, newest last.
    pub history: Vec<f64>,
    /// Timestamp of the newest row.
    pub latest_ts: u64,
    /// Judgement of the newest point.
    pub latest: PointJudgement,
    /// Whether the newest row belongs to the newest run in the whole
    /// history — only those series gate.
    pub in_latest_run: bool,
}

impl KeyTrend {
    /// Whether this series fails the gate.
    pub fn gated(&self) -> bool {
        self.in_latest_run && self.latest.verdict == TrendVerdict::Regression
    }

    /// One human-readable verdict line.
    pub fn line(&self) -> String {
        let v = self.history.last().copied().unwrap_or(0.0);
        if self.latest.verdict == TrendVerdict::Insufficient {
            return format!(
                "trend: [{}] {:>6} actors x {} shard(s): {:>12.0} ops/s ({} runs, \
                 insufficient history)",
                self.backend,
                self.actors,
                self.shards,
                v,
                self.history.len()
            );
        }
        format!(
            "trend: [{}] {:>6} actors x {} shard(s): {:>12.0} ops/s vs trend {:>12.0} \
             ({:+.1}%, {} runs) {}",
            self.backend,
            self.actors,
            self.shards,
            v,
            self.latest.baseline,
            self.latest.deviation * 100.0,
            self.history.len(),
            self.latest.verdict.label()
        )
    }
}

/// The whole trend analysis of a history.
#[derive(Clone, Debug)]
pub struct TrendReport {
    /// Per-series trends, ordered by (backend, shards, actors).
    pub keys: Vec<KeyTrend>,
    /// Timestamp of the newest run in the history.
    pub latest_ts: u64,
}

impl TrendReport {
    /// Series failing the gate.
    pub fn gated(&self) -> Vec<&KeyTrend> {
        self.keys.iter().filter(|k| k.gated()).collect()
    }
}

/// Group history rows into per-key series (file order is chronological —
/// [`append_rows`] enforces it) and judge each against its own trend.
pub fn analyze(rows: &[HistoryRow], cfg: &TrendConfig) -> TrendReport {
    let latest_ts = rows.iter().map(|r| r.unix_ts).max().unwrap_or(0);
    let mut series: BTreeMap<(String, u64, u64), Vec<&HistoryRow>> = BTreeMap::new();
    for r in rows {
        series
            .entry((r.backend.clone(), r.shards, r.actors))
            .or_default()
            .push(r);
    }
    let keys = series
        .into_iter()
        .map(|((backend, shards, actors), rows)| {
            let history: Vec<f64> = rows.iter().map(|r| r.ops_per_second).collect();
            let judgements = judge_series(&history, cfg);
            let latest = *judgements.last().expect("series is non-empty");
            let ts = rows.last().expect("series is non-empty").unix_ts;
            KeyTrend {
                backend,
                actors,
                shards,
                history,
                latest_ts: ts,
                latest,
                in_latest_run: ts == latest_ts,
            }
        })
        .collect();
    TrendReport { keys, latest_ts }
}

// ---------------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------------

/// Provenance summary of one run.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Run timestamp.
    pub unix_ts: u64,
    /// Host the run executed on.
    pub host: String,
    /// Commit the run measured.
    pub commit: String,
    /// Backends the run covered.
    pub backends: BTreeSet<String>,
    /// Rung count.
    pub rows: usize,
}

/// Distinct runs of a history, oldest first.
pub fn runs(rows: &[HistoryRow]) -> Vec<RunInfo> {
    let mut by_ts: BTreeMap<u64, RunInfo> = BTreeMap::new();
    for r in rows {
        let e = by_ts.entry(r.unix_ts).or_insert_with(|| RunInfo {
            unix_ts: r.unix_ts,
            host: r.host.clone(),
            commit: r.commit.clone(),
            backends: BTreeSet::new(),
            rows: 0,
        });
        e.backends.insert(r.backend.clone());
        e.rows += 1;
    }
    by_ts.into_values().collect()
}

/// Render a value series as a unicode sparkline (one glyph per run).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Format a Unix timestamp as an ISO-8601 UTC instant, no external
/// crates (Howard Hinnant's `civil_from_days`).
pub fn iso_utc(unix_ts: u64) -> String {
    let days = (unix_ts / 86_400) as i64;
    let secs = unix_ts % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// How many trailing runs a report row's sparkline covers.
const SPARK_WINDOW: usize = 24;

fn spark_tail(history: &[f64]) -> &[f64] {
    &history[history.len().saturating_sub(SPARK_WINDOW)..]
}

/// Render the trend report as markdown: per `(backend, shards)` sections
/// with sparkline rung tables, plus the run provenance list.
pub fn render_markdown(rows: &[HistoryRow], report: &TrendReport, cfg: &TrendConfig) -> String {
    let mut out = String::from("# Benchmark history report\n\n");
    let run_list = runs(rows);
    out.push_str(&format!(
        "{} run(s), {} series, latest run {} — baseline: median + MAD over the \
         last {} run(s), gate at −{:.0}% beyond {}σ.\n\n",
        run_list.len(),
        report.keys.len(),
        iso_utc(report.latest_ts),
        cfg.window,
        cfg.tolerance * 100.0,
        cfg.mad_gate
    ));

    let gated = report.gated();
    if gated.is_empty() {
        out.push_str("**Gate: PASS** — no series regressed beyond its trend.\n\n");
    } else {
        out.push_str(&format!(
            "**Gate: FAIL** — {} series regressed beyond trend:\n\n",
            gated.len()
        ));
        for k in &gated {
            out.push_str(&format!("- {}\n", k.line()));
        }
        out.push('\n');
    }

    let mut sections: BTreeMap<(String, u64), Vec<&KeyTrend>> = BTreeMap::new();
    for k in &report.keys {
        sections
            .entry((k.backend.clone(), k.shards))
            .or_default()
            .push(k);
    }
    for ((backend, shards), keys) in sections {
        out.push_str(&format!("## backend `{backend}`, {shards} shard(s)\n\n"));
        out.push_str(
            "| actors | runs | trend | baseline ops/s | latest ops/s | Δ vs trend | verdict |\n\
             |---:|---:|---|---:|---:|---:|---|\n",
        );
        for k in keys {
            let latest = k.history.last().copied().unwrap_or(0.0);
            let (baseline, delta) = if k.latest.verdict == TrendVerdict::Insufficient {
                ("-".to_owned(), "-".to_owned())
            } else {
                (
                    format!("{:.0}", k.latest.baseline),
                    format!("{:+.1}%", k.latest.deviation * 100.0),
                )
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.0} | {} | {} |\n",
                k.actors,
                k.history.len(),
                sparkline(spark_tail(&k.history)),
                baseline,
                latest,
                delta,
                k.latest.verdict.label()
            ));
        }
        out.push('\n');
    }

    out.push_str(
        "## Runs\n\n| when | host | commit | backends | rungs |\n|---|---|---|---|---:|\n",
    );
    for r in &run_list {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            iso_utc(r.unix_ts),
            r.host,
            r.commit,
            r.backends.iter().cloned().collect::<Vec<_>>().join(", "),
            r.rows
        ));
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render the trend report as a self-contained HTML page (inline CSS, no
/// external assets) — the CI artifact.
pub fn render_html(rows: &[HistoryRow], report: &TrendReport, cfg: &TrendConfig) -> String {
    let run_list = runs(rows);
    let gated = report.gated();
    let mut out = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>AzureBench benchmark history</title>\n<style>\n\
         body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\n\
         table{border-collapse:collapse;margin:1em 0}\n\
         th,td{border:1px solid #ccc;padding:.3em .6em;text-align:right}\n\
         th{background:#f0f0f0}td.l,th.l{text-align:left}\n\
         .spark{font-family:monospace;letter-spacing:.05em}\n\
         .pass{color:#006400;font-weight:bold}.fail{color:#8b0000;font-weight:bold}\n\
         .REGRESSION{color:#8b0000;font-weight:bold}.recovery{color:#006400}\n\
         .noisy{color:#8a6d00}\n</style></head><body>\n\
         <h1>AzureBench benchmark history</h1>\n",
    );
    out.push_str(&format!(
        "<p>{} run(s), {} series, latest run {} — baseline: median + MAD over the \
         last {} run(s), gate at &minus;{:.0}% beyond {}&sigma;.</p>\n",
        run_list.len(),
        report.keys.len(),
        iso_utc(report.latest_ts),
        cfg.window,
        cfg.tolerance * 100.0,
        cfg.mad_gate
    ));
    if gated.is_empty() {
        out.push_str("<p class=\"pass\">Gate: PASS — no series regressed beyond its trend.</p>\n");
    } else {
        out.push_str(&format!(
            "<p class=\"fail\">Gate: FAIL — {} series regressed beyond trend.</p>\n<ul>\n",
            gated.len()
        ));
        for k in &gated {
            out.push_str(&format!("<li>{}</li>\n", html_escape(&k.line())));
        }
        out.push_str("</ul>\n");
    }

    let mut sections: BTreeMap<(String, u64), Vec<&KeyTrend>> = BTreeMap::new();
    for k in &report.keys {
        sections
            .entry((k.backend.clone(), k.shards))
            .or_default()
            .push(k);
    }
    for ((backend, shards), keys) in sections {
        out.push_str(&format!(
            "<h2>backend <code>{}</code>, {shards} shard(s)</h2>\n\
             <table><tr><th>actors</th><th>runs</th><th class=\"l\">trend</th>\
             <th>baseline ops/s</th><th>latest ops/s</th><th>&Delta; vs trend</th>\
             <th class=\"l\">verdict</th></tr>\n",
            html_escape(&backend)
        ));
        for k in keys {
            let latest = k.history.last().copied().unwrap_or(0.0);
            let (baseline, delta) = if k.latest.verdict == TrendVerdict::Insufficient {
                ("-".to_owned(), "-".to_owned())
            } else {
                (
                    format!("{:.0}", k.latest.baseline),
                    format!("{:+.1}%", k.latest.deviation * 100.0),
                )
            };
            let verdict = k.latest.verdict.label();
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td class=\"l spark\">{}</td><td>{}</td>\
                 <td>{:.0}</td><td>{}</td><td class=\"l {verdict}\">{verdict}</td></tr>\n",
                k.actors,
                k.history.len(),
                sparkline(spark_tail(&k.history)),
                baseline,
                latest,
                delta,
            ));
        }
        out.push_str("</table>\n");
    }

    out.push_str(
        "<h2>Runs</h2>\n<table><tr><th class=\"l\">when</th><th class=\"l\">host</th>\
         <th class=\"l\">commit</th><th class=\"l\">backends</th><th>rungs</th></tr>\n",
    );
    for r in &run_list {
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
             <td class=\"l\">{}</td><td>{}</td></tr>\n",
            iso_utc(r.unix_ts),
            html_escape(&r.host),
            html_escape(&r.commit),
            html_escape(&r.backends.iter().cloned().collect::<Vec<_>>().join(", ")),
            r.rows
        ));
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ts: u64, backend: &str, actors: u64, shards: u64, ops: f64) -> HistoryRow {
        HistoryRow {
            unix_ts: ts,
            host: "testhost".into(),
            commit: "deadbeef".into(),
            backend: backend.into(),
            scale: 0.1,
            seed: 2012,
            actors,
            shards,
            cores: 1,
            simulated_ops: 1000,
            wall_seconds: 0.5,
            ops_per_second: ops,
            per_shard_events: vec![2000],
        }
    }

    /// One single-rung run per value, chronological.
    fn series_rows(values: &[f64]) -> Vec<HistoryRow> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| row(1000 + i as u64, "was", 32, 1, v))
            .collect()
    }

    #[test]
    fn row_roundtrips_through_its_own_line() {
        let r = row(1234, "s3", 128, 4, 123456.7);
        let parsed = parse_history(&r.to_line()).unwrap();
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn rows_match_the_checked_in_schema() {
        let line = row(1234, "s3", 128, 4, 123456.7).to_line();
        let doc = parse(line.as_bytes()).unwrap();
        let errors = crate::schema::validate_against_file(
            &doc,
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../schemas/bench_history.schema.json"
            ),
        );
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn unknown_schema_tag_is_an_error() {
        let line = r#"{"schema": "azurebench-bench-history/v9", "unix_ts": 1}"#;
        let err = parse_history(line).unwrap_err();
        assert!(err.contains("unknown history schema"), "{err}");
        // No tag at all (the retired pre-v1 run-line shape): an error
        // naming the line, never a defaulted row.
        let line = r#"{"unix_ts":5,"engine":[{"actors":1,"ops_per_second":9}]}"#;
        let err = parse_history(&format!("\n{line}\n")).unwrap_err();
        assert!(err.contains("line 2: no \"schema\" tag"), "{err}");
    }

    #[test]
    fn commit_is_read_from_the_git_files() {
        let root = std::env::temp_dir().join(format!("azb-git-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (git, nested) = (root.join(".git"), root.join("crates/core"));
        std::fs::create_dir_all(&nested).unwrap();
        assert_eq!(git_head_commit(&nested), None, "no repository");

        let id = |c: char| c.to_string().repeat(40);
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), format!("{}\n", id('a'))).unwrap();
        assert_eq!(git_head_commit(&nested), Some(id('a')), "detached HEAD");

        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            format!(
                "# pack-refs with: peeled fully-peeled sorted\n{} refs/heads/other\n{} refs/heads/main\n",
                id('c'),
                id('d')
            ),
        )
        .unwrap();
        assert_eq!(git_head_commit(&nested), Some(id('d')), "packed ref");

        std::fs::write(git.join("refs/heads/main"), format!("{}\n", id('b'))).unwrap();
        assert_eq!(git_head_commit(&root), Some(id('b')), "loose ref wins");

        std::fs::write(git.join("refs/heads/main"), "not a commit id\n").unwrap();
        assert_eq!(git_head_commit(&root), None, "garbage is not a commit");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn append_refuses_rows_older_than_the_tail() {
        let dir = std::env::temp_dir().join(format!("azb-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.jsonl");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        append_rows(path, &[row(100, "was", 1, 1, 10.0)]).unwrap();
        // Equal timestamps append fine (same run, multiple rungs/backends).
        append_rows(path, &[row(100, "was", 8, 1, 20.0)]).unwrap();
        append_rows(path, &[row(200, "was", 1, 1, 11.0)]).unwrap();
        let err = append_rows(path, &[row(150, "was", 1, 1, 12.0)]).unwrap_err();
        assert!(err.contains("refusing to append"), "{err}");
        let rows = parse_history(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(rows.len(), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn step_regression_of_30_percent_gates() {
        // Clean series with small jitter, then a 30 % step down.
        let mut vals = vec![1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0];
        vals.push(700.0);
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        assert_eq!(report.keys.len(), 1);
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Regression);
        assert!(k.gated());
        assert!(k.line().contains("REGRESSION"), "{}", k.line());
    }

    #[test]
    fn noisy_but_flat_series_passes_without_gating() {
        // ±15 % swings around a flat 1000 — the same −30 % low sample that
        // gates a quiet series is inside this series' own noise band.
        let vals = [
            1000.0, 1150.0, 850.0, 1120.0, 880.0, 1100.0, 900.0, 1150.0, 700.0,
        ];
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        let k = &report.keys[0];
        assert!(!k.gated(), "noisy series must not gate: {}", k.line());
        assert_eq!(k.latest.verdict, TrendVerdict::Noisy);
    }

    #[test]
    fn slow_drift_within_the_band_does_not_gate() {
        // 2 % decline per run: each point stays within tolerance of the
        // rolling median, so the detector (by design) follows the drift.
        let vals: Vec<f64> = (0..12).map(|i| 1000.0 * 0.98f64.powi(i)).collect();
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Stable, "{}", k.line());
        assert!(!k.gated());
    }

    #[test]
    fn recovery_after_a_regression_is_labelled_and_passes() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 650.0, 1002.0];
        let rows = series_rows(&vals);
        let judged = judge_series(&vals, &TrendConfig::default());
        assert_eq!(judged[4].verdict, TrendVerdict::Regression);
        assert_eq!(judged[5].verdict, TrendVerdict::Recovery);
        let report = analyze(&rows, &TrendConfig::default());
        assert!(!report.keys[0].gated());
    }

    #[test]
    fn improvement_beyond_the_band_is_labelled() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 1500.0];
        let judged = judge_series(&vals, &TrendConfig::default());
        assert_eq!(judged[4].verdict, TrendVerdict::Improvement);
    }

    #[test]
    fn short_series_are_insufficient_not_gated() {
        let report = analyze(&series_rows(&[1000.0, 600.0]), &TrendConfig::default());
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Insufficient);
        assert!(!k.gated());
    }

    #[test]
    fn only_series_in_the_latest_run_gate() {
        // The s3 series regressed in an *older* run; the latest run only
        // covers was. The stale regression must not gate today's run.
        let mut rows = Vec::new();
        for (i, v) in [1000.0, 1000.0, 1000.0, 1000.0, 600.0].iter().enumerate() {
            rows.push(row(1000 + i as u64, "s3", 32, 1, *v));
        }
        for (i, v) in [500.0, 505.0, 495.0, 500.0, 502.0].iter().enumerate() {
            rows.push(row(2000 + i as u64, "was", 32, 1, *v));
        }
        let report = analyze(&rows, &TrendConfig::default());
        let s3 = report.keys.iter().find(|k| k.backend == "s3").unwrap();
        assert_eq!(s3.latest.verdict, TrendVerdict::Regression);
        assert!(!s3.in_latest_run);
        assert!(report.gated().is_empty());
    }

    #[test]
    fn report_renders_markdown_and_html() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 650.0];
        let rows = series_rows(&vals);
        let report = analyze(&rows, &TrendConfig::default());
        let md = render_markdown(&rows, &report, &TrendConfig::default());
        assert!(md.contains("Gate: FAIL"), "{md}");
        assert!(md.contains("backend `was`, 1 shard(s)"));
        assert!(md.contains('█'), "sparkline missing: {md}");
        let html = render_html(&rows, &report, &TrendConfig::default());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("class=\"fail\""));
        assert!(html.contains("testhost"));
        // Self-contained: no external references.
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
    }

    #[test]
    fn iso_utc_formats_known_instants() {
        assert_eq!(iso_utc(0), "1970-01-01 00:00:00Z");
        assert_eq!(iso_utc(1_786_110_026), "2026-08-07 13:40:26Z");
    }
}
