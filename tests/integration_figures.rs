//! Integration: every figure regenerates at reduced scale and exhibits the
//! paper's qualitative shapes (the six shape claims in DESIGN.md §5), and
//! the four design-choice ablations of DESIGN.md §8 move the virtual-time
//! outcome the way EXPERIMENTS.md says they do.

use azsim_client::{QueueClient, TableClient, VirtualEnv};
use azsim_core::Simulation;
use azsim_fabric::{Cluster, ClusterParams};
use azsim_storage::{Entity, PropValue};
use azurebench::alg1_blob::{phase, run_alg1, BlobPhase};
use azurebench::alg3_queue::{run_alg3, Alg3Result, QueueOp};
use azurebench::{alg3_queue, alg4_queue, alg5_table, fig9, BenchConfig};
use bytes::Bytes;

#[test]
fn all_figures_regenerate_and_render() {
    let cfg = BenchConfig::paper()
        .with_scale(0.01)
        .with_workers(vec![1, 4]);

    let figs = azurebench::alg1_blob::figures_4_and_5(&cfg);
    assert_eq!(figs.len(), 4);
    let f6 = alg3_queue::figure_6(&cfg);
    assert_eq!(f6.len(), 3);
    let f7 = alg4_queue::figure_7(&cfg);
    assert_eq!(f7.len(), 3);
    let f8 = alg5_table::figure_8(&cfg);
    assert_eq!(f8.len(), 4);
    let f9 = fig9::figure_9(&cfg);
    assert_eq!(f9.series.len(), 7);

    // Every figure renders to table and CSV without panicking, with data.
    for f in figs.iter().chain(&f6).chain(&f7).chain(&f8).chain([&f9]) {
        let t = f.render_table();
        assert!(t.contains(&f.id));
        let csv = f.to_csv();
        assert!(csv.lines().count() >= 2, "{} csv empty", f.id);
        for s in &f.series {
            assert!(!s.points.is_empty(), "{}/{} has no data", f.id, s.name);
        }
    }

    // Table I renders too.
    let t1 = azsim_compute::vm::render_table1();
    assert!(t1.contains("Extra Large"));
}

#[test]
fn shape1_blob_updown_directions() {
    let cfg = BenchConfig::paper().with_scale(0.05);
    let w2 = run_alg1(&cfg, 2);
    let w8 = run_alg1(&cfg, 8);
    // Download time grows, throughput grows, upload time falls.
    assert!(
        phase(&w8, BlobPhase::PageFullDownload).mean_worker_seconds
            >= phase(&w2, BlobPhase::PageFullDownload).mean_worker_seconds * 0.99
    );
    assert!(
        phase(&w8, BlobPhase::PageFullDownload).throughput_mb_s
            > phase(&w2, BlobPhase::PageFullDownload).throughput_mb_s
    );
    assert!(
        phase(&w8, BlobPhase::PageUpload).mean_worker_seconds
            < phase(&w2, BlobPhase::PageUpload).mean_worker_seconds
    );
    // Page upload throughput exceeds block upload throughput.
    assert!(
        phase(&w8, BlobPhase::PageUpload).throughput_mb_s
            > phase(&w8, BlobPhase::BlockUpload).throughput_mb_s
    );
}

#[test]
fn shape2_sequential_blocks_beat_random_pages() {
    let cfg = BenchConfig::paper().with_scale(0.05);
    let aggs = run_alg1(&cfg, 8);
    assert!(
        phase(&aggs, BlobPhase::BlockSeqRead).throughput_mb_s
            > phase(&aggs, BlobPhase::PageRandomRead).throughput_mb_s
    );
}

#[test]
fn shape3_queue_ordering_and_anomaly_in_figure6() {
    let cfg = BenchConfig::paper().with_scale(0.01).with_workers(vec![2]);
    let figs = alg3_queue::figure_6(&cfg);
    let y = |fig: usize, series: &str| figs[fig].series(series).unwrap().y_at(2.0).unwrap();
    // figs[0]=put, [1]=peek, [2]=get; peek < put < get at 32 KB.
    assert!(y(1, "32KB") < y(0, "32KB"));
    assert!(y(0, "32KB") < y(2, "32KB"));
    // Get anomaly: 16 KB above 8 and 32 KB.
    assert!(y(2, "16KB") > y(2, "8KB"));
    assert!(y(2, "16KB") > y(2, "32KB"));
    // But NOT for put/peek (the anomaly is a Get-only phenomenon).
    assert!(y(0, "16KB") < y(0, "32KB"));
    assert!(y(1, "16KB") < y(1, "32KB"));
}

#[test]
fn shape4_shared_queue_think_time() {
    let cfg = BenchConfig::paper().with_scale(0.03).with_workers(vec![8]);
    let figs = alg4_queue::figure_7(&cfg);
    for f in &figs {
        let t1 = f.series("think-1s").unwrap().y_at(8.0).unwrap();
        let t5 = f.series("think-5s").unwrap().y_at(8.0).unwrap();
        assert!(t5 <= t1 * 1.05, "{}: think-5s {t5} vs think-1s {t1}", f.id);
    }
}

#[test]
fn shape5_table_degradation_for_big_entities() {
    let cfg = BenchConfig::paper()
        .with_scale(0.06)
        .with_workers(vec![1, 16]);
    let figs = alg5_table::figure_8(&cfg);
    let insert = &figs[0];
    let deg = |series: &str| {
        let s = insert.series(series).unwrap();
        s.y_at(16.0).unwrap() / s.y_at(1.0).unwrap()
    };
    assert!(deg("64KB") > 2.0, "64KB must degrade: ×{:.2}", deg("64KB"));
    assert!(
        deg("64KB") > deg("4KB") * 1.5,
        "64KB (×{:.2}) must degrade much more than 4KB (×{:.2})",
        deg("64KB"),
        deg("4KB")
    );
}

#[test]
fn shape6_queue_scales_better_than_table() {
    let cfg = BenchConfig::paper()
        .with_scale(0.05)
        .with_workers(vec![1, 16]);
    let fig = fig9::figure_9(&cfg);
    let deg = |name: &str| {
        let s = fig.series(name).unwrap();
        s.y_at(16.0).unwrap() / s.y_at(1.0).unwrap()
    };
    assert!(deg("table-insert") > deg("queue-put"));
    assert!(deg("table-update") > deg("queue-get"));
}

/// Algorithm 3 at two workers under `params`; the per-op latency of each
/// `(size, op)` is the `.1` of its entry.
fn alg3_under(params: ClusterParams) -> Alg3Result {
    let mut cfg = BenchConfig::paper().with_scale(0.01).with_workers(vec![2]);
    cfg.params = params;
    run_alg3(&cfg, 2)
}

#[test]
fn ablation_get16k_quirk_moves_only_the_16kb_get() {
    let on = alg3_under(ClusterParams::default());
    let off = alg3_under(ClusterParams {
        quirk_get16k: false,
        ..ClusterParams::default()
    });
    let anomaly = (16 << 10, QueueOp::Get);
    let (on_ms, off_ms) = (on[&anomaly].1 * 1e3, off[&anomaly].1 * 1e3);
    assert!((on_ms - 55.8).abs() < 0.05, "quirk on: {on_ms} ms per get");
    assert!(
        (off_ms - 30.3).abs() < 0.05,
        "quirk off: {off_ms} ms per get"
    );
    for (key, with_quirk) in &on {
        if *key != anomaly {
            assert_eq!(*with_quirk, off[key], "{key:?} moved with the quirk");
        }
    }
}

#[test]
fn ablation_single_replica_collapses_the_queue_cost_ordering() {
    let at_32kb = |r: &Alg3Result| {
        let per_op = |op| r[&(32 << 10, op)].1;
        (
            per_op(QueueOp::Peek),
            per_op(QueueOp::Put),
            per_op(QueueOp::Get),
        )
    };
    let (peek3, put3, get3) = at_32kb(&alg3_under(ClusterParams::default()));
    assert!(peek3 < put3 && put3 < get3, "{peek3} {put3} {get3}");
    // Without the replica and state syncs a put costs what a peek costs,
    // and a get (which folds the delete in) falls below the replicated put.
    let (peek1, put1, get1) = at_32kb(&alg3_under(ClusterParams::single_replica()));
    assert_eq!(peek1, peek3, "a peek never paid a sync");
    assert!((put1 - peek1).abs() < 1e-9, "put {put1} vs peek {peek1}");
    assert!(get1 < put3, "get {get1} vs replicated put {put3}");
}

#[test]
fn ablation_shared_queue_finishes_later_than_per_worker_queues() {
    // The same drain load both ways: 8 workers put 25 messages of 1 KB
    // each, then get-and-delete until the queue is empty.
    let run = |shared: bool| {
        Simulation::new(Cluster::with_defaults(), 3)
            .run_workers(8, move |ctx| async move {
                let env = VirtualEnv::new(&ctx);
                let name = if shared {
                    "only".to_owned()
                } else {
                    format!("q{}", ctx.id().0)
                };
                let q = QueueClient::new(&env, name);
                q.create().await.unwrap();
                for i in 0..25u8 {
                    q.put_message(Bytes::from(vec![i; 1024])).await.unwrap();
                }
                while let Some(m) = q.get_message().await.unwrap() {
                    q.delete_message(&m).await.unwrap();
                }
            })
            .end_time
            .as_secs_f64()
    };
    let (shared, separate) = (run(true), run(false));
    assert!((shared - 1.45).abs() < 0.01, "shared queue: {shared} s");
    assert!((separate - 1.01).abs() < 0.01, "per-worker: {separate} s");
}

#[test]
fn ablation_hot_table_partition_throttles_and_per_worker_partitions_do_not() {
    // 16 workers insert 20 entities each, into one partition or one each.
    let run = |hot: bool| {
        let params = ClusterParams {
            throttle_burst: 10.0,
            account_tx_rate: 1e9,
            ..ClusterParams::default()
        };
        let report =
            Simulation::new(Cluster::new(params), 4).run_workers(16, move |ctx| async move {
                let env = VirtualEnv::new(&ctx);
                let t = TableClient::new(&env, "abl");
                t.create_table().await.unwrap();
                let me = ctx.id().0;
                let pk = if hot {
                    "hot".to_owned()
                } else {
                    format!("p{me}")
                };
                for i in 0..20i64 {
                    t.insert(Entity::new(&pk, format!("{me}-{i}")).with("v", PropValue::I64(i)))
                        .await
                        .unwrap();
                }
            });
        (
            report.model.metrics().total_throttled(),
            report.end_time.as_secs_f64(),
        )
    };
    let (hot_throttles, hot_end) = run(true);
    let (cold_throttles, cold_end) = run(false);
    assert!(hot_throttles > 0, "one partition never hit its bucket");
    assert_eq!(cold_throttles, 0);
    assert!(
        hot_end > cold_end,
        "hot {hot_end} s vs per-worker {cold_end} s"
    );
}
