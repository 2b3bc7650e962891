//! YCSB-style workloads over the simulated Table storage.
//!
//! The paper predates standardized cloud-storage benchmarking on Azure;
//! YCSB (Cooper et al., SoCC'10) became the de-facto suite for exactly the
//! kind of key-value serving the Table service offers. This module adds
//! the classic core workloads A–F as an *extension* of AzureBench, running
//! against the same simulated cluster so their results are comparable with
//! the paper's Figure 8/9 numbers.
//!
//! | Workload | Mix |
//! |---|---|
//! | A | 50% read / 50% update |
//! | B | 95% read / 5% update |
//! | C | 100% read |
//! | D | 95% read (latest) / 5% insert |
//! | E | 95% scan / 5% insert |
//! | F | 50% read / 50% read-modify-write |
//!
//! Keys are drawn from a Zipfian distribution (θ = 0.99, YCSB's default)
//! over the loaded key space, deterministic per worker stream.

use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use azsim_client::{Environment, TableClient, VirtualEnv};
use azsim_core::stats::OnlineStats;
use azsim_fabric::Cluster;
use azsim_framework::QueueBarrier;
use azsim_storage::{Entity, PropValue};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// The six YCSB core workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YcsbWorkload {
    /// 50/50 read/update — "update heavy".
    A,
    /// 95/5 read/update — "read mostly".
    B,
    /// Read only.
    C,
    /// Read latest, 5% inserts.
    D,
    /// Short scans, 5% inserts.
    E,
    /// Read-modify-write.
    F,
}

impl YcsbWorkload {
    /// All workloads.
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    /// Single-letter label.
    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "A",
            YcsbWorkload::B => "B",
            YcsbWorkload::C => "C",
            YcsbWorkload::D => "D",
            YcsbWorkload::E => "E",
            YcsbWorkload::F => "F",
        }
    }
}

/// The operation classes YCSB issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum YcsbOp {
    /// Point read.
    Read,
    /// Blind update.
    Update,
    /// Insert of a new key.
    Insert,
    /// Partition scan.
    Scan,
    /// Read-modify-write (read + conditional-free update).
    Rmw,
}

/// A Zipfian generator over `0..n` with parameter `theta` (YCSB's
/// `ScrambledZipfian` without the scrambling — we hash afterwards),
/// using the Gray/Jim rejection-free method.
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Build a generator over `0..n` items.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for moderate n (the benchmarks load ≤ ~100k keys).
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draw the next rank (0 = most popular).
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let _ = self.zeta2;
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
    }
}

/// Per-op latency statistics of one YCSB run.
pub type YcsbResult = HashMap<YcsbOp, OnlineStats>;

/// YCSB run parameters.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    /// Records loaded before the run.
    pub records: usize,
    /// Operations per worker.
    pub ops_per_worker: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Zipfian theta.
    pub theta: f64,
    /// Maximum rows returned by a scan.
    pub scan_len: usize,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            records: 1_000,
            ops_per_worker: 500,
            value_size: 1 << 10,
            theta: 0.99,
            scan_len: 20,
        }
    }
}

pub(crate) fn record_key(i: u64) -> (String, String) {
    // Spread records over 16 partitions by hashed prefix — a "good
    // partitioning" per the paper's advice — with the row key carrying the
    // record id.
    let p = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) & 0xF;
    (format!("part-{p:02}"), format!("user{i:010}"))
}

/// Run one YCSB workload on the simulated cluster at `workers` workers.
pub fn run_ycsb(
    bench: &BenchConfig,
    ycsb: &YcsbConfig,
    workload: YcsbWorkload,
    workers: usize,
) -> YcsbResult {
    let records = ycsb.records as u64;
    let ops = ycsb.ops_per_worker;
    let value_size = ycsb.value_size;
    let theta = ycsb.theta;
    let scan_len = ycsb.scan_len;
    let seed = bench.seed;

    let report = crate::exec::run_cluster_workers(
        bench,
        Cluster::new(bench.params.clone()),
        workers,
        move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let table = TableClient::new(&env, "usertable");
            table.create_table().await.unwrap();
            let mut barrier = QueueBarrier::new(&env, "ycsb-sync", workers);
            barrier.init().await.unwrap();
            let mut gen = PayloadGen::new(seed, ctx.id().0 as u64);

            // ---- Load phase: each worker loads its share ----
            let me = ctx.id().0 as u64;
            let w = workers as u64;
            for i in (me..records).step_by(w as usize) {
                let (pk, rk) = record_key(i);
                table
                    .insert(
                        Entity::new(pk, rk)
                            .with("field0", PropValue::Binary(gen.bytes(value_size))),
                    )
                    .await
                    .unwrap();
            }

            // A transaction may read any record, so none starts until
            // every worker has loaded its share.
            barrier.wait().await.unwrap();

            // ---- Transaction phase ----
            let zipf = Zipfian::new(records, theta);
            let mut stats: YcsbResult = HashMap::new();
            for opno in 0..ops {
                let op = ctx.with_rng(|r| {
                    let roll: f64 = r.random();
                    match workload {
                        YcsbWorkload::A => {
                            if roll < 0.5 {
                                YcsbOp::Read
                            } else {
                                YcsbOp::Update
                            }
                        }
                        YcsbWorkload::B => {
                            if roll < 0.95 {
                                YcsbOp::Read
                            } else {
                                YcsbOp::Update
                            }
                        }
                        YcsbWorkload::C => YcsbOp::Read,
                        YcsbWorkload::D => {
                            if roll < 0.95 {
                                YcsbOp::Read
                            } else {
                                YcsbOp::Insert
                            }
                        }
                        YcsbWorkload::E => {
                            if roll < 0.95 {
                                YcsbOp::Scan
                            } else {
                                YcsbOp::Insert
                            }
                        }
                        YcsbWorkload::F => {
                            if roll < 0.5 {
                                YcsbOp::Read
                            } else {
                                YcsbOp::Rmw
                            }
                        }
                    }
                });
                let rank = ctx.with_rng(|r| zipf.next(r));
                let (pk, rk) = record_key(rank);
                let t0 = env.now();
                match op {
                    YcsbOp::Read => {
                        let got = table.query(&pk, &rk).await.unwrap();
                        assert!(got.is_some(), "loaded key must exist");
                    }
                    YcsbOp::Update => {
                        table
                            .update(
                                Entity::new(&pk, &rk)
                                    .with("field0", PropValue::Binary(gen.bytes(value_size))),
                            )
                            .await
                            .unwrap();
                    }
                    YcsbOp::Insert => {
                        // Unique new id: disjoint per (worker, op index) and
                        // disjoint from the loaded key space.
                        let id = records + me + (opno as u64) * w;
                        let (pk, rk) = record_key(id + 1_000_000_000);
                        table
                            .insert(
                                Entity::new(pk, rk)
                                    .with("field0", PropValue::Binary(gen.bytes(value_size))),
                            )
                            .await
                            .unwrap();
                    }
                    YcsbOp::Scan => {
                        let rows = table.query_partition(&pk).await.unwrap();
                        assert!(!rows.is_empty());
                        std::hint::black_box(rows.len().min(scan_len));
                    }
                    YcsbOp::Rmw => {
                        let (e, _) = table.query(&pk, &rk).await.unwrap().unwrap();
                        let mut updated = e.clone();
                        updated
                            .properties
                            .insert("field0".into(), PropValue::Binary(gen.bytes(value_size)));
                        table.update(updated).await.unwrap();
                    }
                }
                stats
                    .entry(op)
                    .or_default()
                    .record(env.now().saturating_since(t0).as_secs_f64());
            }
            stats
        },
    );

    let mut merged: YcsbResult = HashMap::new();
    for worker in report.results {
        for (op, s) in worker {
            merged.entry(op).or_default().merge(&s);
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> BenchConfig {
        BenchConfig::paper().with_scale(0.01)
    }

    fn small() -> YcsbConfig {
        YcsbConfig {
            records: 100,
            ops_per_worker: 50,
            value_size: 256,
            ..YcsbConfig::default()
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1_000, 0.99);
        let mut rng = azsim_core::rng::stream_rng(1, 1);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..20_000 {
            let r = z.next(&mut rng);
            assert!(r < 1_000);
            counts[r as usize] += 1;
        }
        // Rank 0 must be far more popular than the median rank.
        assert!(counts[0] > 20 * counts[500].max(1));
        // But the tail must still be hit.
        assert!(counts[500..].iter().any(|&c| c > 0));
    }

    #[test]
    fn zipfian_theta_controls_skew() {
        let mut rng = azsim_core::rng::stream_rng(2, 2);
        let hits_top10 = |theta: f64, rng: &mut rand::rngs::SmallRng| {
            let z = Zipfian::new(1_000, theta);
            (0..5_000).filter(|_| z.next(rng) < 10).count()
        };
        let mild = hits_top10(0.5, &mut rng);
        let strong = hits_top10(0.99, &mut rng);
        assert!(
            strong > mild,
            "higher theta must be more skewed: {strong} vs {mild}"
        );
    }

    #[test]
    fn workload_a_mixes_reads_and_updates() {
        let r = run_ycsb(&bench(), &small(), YcsbWorkload::A, 2);
        let reads = r[&YcsbOp::Read].count();
        let updates = r[&YcsbOp::Update].count();
        assert_eq!(reads + updates, 100);
        assert!(
            reads > 20 && updates > 20,
            "mix badly skewed: {reads}/{updates}"
        );
        // Updates replicate; reads do not: updates must be slower.
        assert!(r[&YcsbOp::Update].mean() > r[&YcsbOp::Read].mean());
    }

    /// With 96 workers the first to finish loading used to start reading
    /// records the others had not inserted yet ("loaded key must exist").
    #[test]
    fn transactions_wait_for_every_worker_to_load() {
        for wl in [YcsbWorkload::A, YcsbWorkload::F] {
            let r = run_ycsb(&bench(), &small(), wl, 96);
            let ops: u64 = r.values().map(|s| s.count()).sum();
            assert_eq!(ops, 96 * 50, "{}", wl.label());
        }
    }

    #[test]
    fn workload_c_is_read_only() {
        let r = run_ycsb(&bench(), &small(), YcsbWorkload::C, 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r[&YcsbOp::Read].count(), 100);
    }

    #[test]
    fn workload_f_rmw_costs_more_than_read() {
        let r = run_ycsb(&bench(), &small(), YcsbWorkload::F, 2);
        assert!(r[&YcsbOp::Rmw].mean() > r[&YcsbOp::Read].mean() * 1.5);
    }

    #[test]
    fn inserts_in_d_and_e_succeed() {
        for wl in [YcsbWorkload::D, YcsbWorkload::E] {
            let r = run_ycsb(&bench(), &small(), wl, 3);
            if let Some(ins) = r.get(&YcsbOp::Insert) {
                assert!(ins.count() > 0);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_ycsb(&bench(), &small(), YcsbWorkload::A, 2);
        let b = run_ycsb(&bench(), &small(), YcsbWorkload::A, 2);
        for (op, s) in &a {
            assert_eq!(s.count(), b[op].count());
            assert_eq!(s.mean(), b[op].mean());
        }
    }
}
