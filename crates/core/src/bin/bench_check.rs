//! Gate on engine-throughput trends and render the trend report — the
//! front end of [`azurebench::benchhist`].
//!
//! ```text
//! bench_check trend  <BENCH_history.jsonl> [--window K] [--tolerance T] [--mad-gate G]
//!                    [--min-history N]
//! bench_check report <BENCH_history.jsonl> [--out DIR] [--window K] [--tolerance T]
//! ```
//!
//! Both read the append-only v1 history (`azurebench-bench-history/v1`,
//! one JSON line per rung per run) that `figures bench` appends to; any
//! other line in it is an error naming the line.
//!
//! * `trend` fits a robust per-series baseline (median + MAD over the
//!   last `--window` runs of each `(backend, actors, shards)` key) and
//!   gates only when the newest run drops beyond **both** the relative
//!   tolerance and the series' own noise band — a clean 30 % step gates,
//!   a noisy-but-flat series does not. Exit 1 on a gated regression.
//! * `report` renders the self-contained markdown + HTML trend report.
//!
//! Bad input or usage is exit 2.

use azurebench::benchhist::{
    analyze, parse_history, render_html, render_markdown, HistoryRow, TrendConfig,
};

const USAGE: &str = "usage: bench_check trend <BENCH_history.jsonl> [--window K] [--tolerance T] \
                     [--mad-gate G] [--min-history N]\n\
                     \u{20}      bench_check report <BENCH_history.jsonl> [--out DIR] [--window K] \
                     [--tolerance T] [--mad-gate G] [--min-history N]";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The history named by the one positional argument left after the flags.
fn load_history(args: &[String]) -> Vec<HistoryRow> {
    let [path] = args else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let rows = parse_history(&text).unwrap_or_else(|e| fail(&e));
    if rows.is_empty() {
        fail(&format!("{path} has no history rows"));
    }
    rows
}

/// Pull `--flag value` out of an argument list, in place.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(&format!("bad {what} {s:?}")))
}

fn trend_config(args: &mut Vec<String>) -> TrendConfig {
    let mut cfg = TrendConfig::default();
    if let Some(v) = take_flag(args, "--window") {
        cfg.window = parse_num(&v, "--window");
    }
    if let Some(v) = take_flag(args, "--tolerance") {
        cfg.tolerance = parse_num(&v, "--tolerance");
    }
    if let Some(v) = take_flag(args, "--mad-gate") {
        cfg.mad_gate = parse_num(&v, "--mad-gate");
    }
    if let Some(v) = take_flag(args, "--min-history") {
        cfg.min_history = parse_num(&v, "--min-history");
    }
    cfg
}

fn cmd_trend(mut args: Vec<String>) {
    let cfg = trend_config(&mut args);
    let history = load_history(&args);
    let report = analyze(&history, &cfg);
    for k in report.keys.iter().filter(|k| k.in_latest_run) {
        println!("{}", k.line());
    }
    let gated = report.gated();
    if !gated.is_empty() {
        eprintln!(
            "bench_check: {} series regressed beyond trend (window {}, tolerance {:.0}%, \
             {}σ noise band)",
            gated.len(),
            cfg.window,
            cfg.tolerance * 100.0,
            cfg.mad_gate
        );
        std::process::exit(1);
    }
    println!(
        "bench_check: OK ({} series in latest run within trend; {} series tracked)",
        report.keys.iter().filter(|k| k.in_latest_run).count(),
        report.keys.len()
    );
}

fn cmd_report(mut args: Vec<String>) {
    let cfg = trend_config(&mut args);
    let out_dir = take_flag(&mut args, "--out").unwrap_or_else(|| "results".to_owned());
    let history = load_history(&args);
    let report = analyze(&history, &cfg);
    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {out_dir}: {e}")));
    let md_path = format!("{out_dir}/bench_report.md");
    let html_path = format!("{out_dir}/bench_report.html");
    std::fs::write(&md_path, render_markdown(&history, &report, &cfg))
        .unwrap_or_else(|e| fail(&format!("cannot write {md_path}: {e}")));
    std::fs::write(&html_path, render_html(&history, &report, &cfg))
        .unwrap_or_else(|e| fail(&format!("cannot write {html_path}: {e}")));
    println!(
        "bench_check: wrote {md_path} and {html_path} ({} series, {} gated)",
        report.keys.len(),
        report.gated().len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trend") => cmd_trend(args[1..].to_vec()),
        Some("report") => cmd_report(args[1..].to_vec()),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
