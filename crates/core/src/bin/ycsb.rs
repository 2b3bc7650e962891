//! Run the YCSB-style extension workloads (A–F) against the simulated
//! Table storage and print a per-op latency table.
//!
//! ```text
//! ycsb [A|B|C|D|E|F|all]... [--workers N] [--records N] [--ops N]
//!      [--value-size BYTES] [--theta T]
//! ```

use azurebench::ycsb::{run_ycsb, YcsbConfig, YcsbOp, YcsbWorkload};
use azurebench::BenchConfig;

fn main() {
    let mut workloads: Vec<YcsbWorkload> = Vec::new();
    let mut workers = 8usize;
    let mut ycsb = YcsbConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next_num = |flag: &str| -> f64 {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .parse()
                .unwrap_or_else(|_| panic!("bad value for {flag}"))
        };
        match a.as_str() {
            "A" | "a" => workloads.push(YcsbWorkload::A),
            "B" | "b" => workloads.push(YcsbWorkload::B),
            "C" | "c" => workloads.push(YcsbWorkload::C),
            "D" | "d" => workloads.push(YcsbWorkload::D),
            "E" | "e" => workloads.push(YcsbWorkload::E),
            "F" | "f" => workloads.push(YcsbWorkload::F),
            "all" => workloads.extend(YcsbWorkload::ALL),
            "--workers" => {
                workers = next_num("--workers") as usize;
                if workers == 0 {
                    eprintln!("error: --workers must be at least 1");
                    std::process::exit(2);
                }
            }
            "--records" => ycsb.records = next_num("--records") as usize,
            "--ops" => ycsb.ops_per_worker = next_num("--ops") as usize,
            "--value-size" => ycsb.value_size = next_num("--value-size") as usize,
            "--theta" => ycsb.theta = next_num("--theta"),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if workloads.is_empty() {
        eprintln!(
            "usage: ycsb [A|B|C|D|E|F|all]... [--workers N] [--records N] \
             [--ops N] [--value-size BYTES] [--theta T]"
        );
        std::process::exit(2);
    }

    let bench = BenchConfig::paper();
    eprintln!(
        "# YCSB on simulated Azure Table storage — {} workers, {} records, \
         {} ops/worker, {}B values, zipfian θ={}",
        workers, ycsb.records, ycsb.ops_per_worker, ycsb.value_size, ycsb.theta
    );
    println!(
        "{:<8} | {:>8} | {:>6} | {:>12} | {:>12} | {:>12}",
        "workload", "op", "count", "mean ms", "min ms", "max ms"
    );
    for wl in workloads {
        let result = run_ycsb(&bench, &ycsb, wl, workers);
        let mut ops: Vec<(&YcsbOp, _)> = result.iter().collect();
        ops.sort_by_key(|(op, _)| format!("{op:?}"));
        for (op, stats) in ops {
            println!(
                "{:<8} | {:>8} | {:>6} | {:>12.3} | {:>12.3} | {:>12.3}",
                wl.label(),
                format!("{op:?}"),
                stats.count(),
                stats.mean() * 1e3,
                stats.min() * 1e3,
                stats.max() * 1e3
            );
        }
    }
}
