//! Algorithm 1: the Blob storage benchmark (Figures 4 and 5).
//!
//! Per repetition, the workers collectively upload one page blob and one
//! block blob of `blob_chunks × 1 MB` each (chunks split evenly across
//! workers, everyone writing into the *same* shared blobs), synchronize via
//! the queue barrier of Algorithm 2, then each worker downloads:
//!
//! * `blob_chunks` random 1 MB pages from the page blob (random access),
//! * every block of the block blob sequentially (block blobs have no
//!   random-access API),
//! * the entire page blob and the entire block blob via the streaming path.
//!
//! The paper's pseudocode has every worker call `PutBlockList` with its own
//! partial block list, which on the real service would replace the blob
//! with that worker's blocks alone; we commit the full list once (worker 0)
//! after a barrier — the behaviour the measurement clearly intends.
//! Barrier time is excluded from all figures, as in the paper.

use crate::config::BenchConfig;
use crate::payload::PayloadGen;
use crate::report::{Figure, Series};
use azsim_client::{BlobClient, Environment, VirtualEnv};
use azsim_core::SimTime;
use azsim_framework::QueueBarrier;

/// The measured phases of Algorithm 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlobPhase {
    /// `PutPage` uploads of this worker's share of the page blob.
    PageUpload,
    /// `PutBlock` staging (plus the single commit) of the block blob.
    BlockUpload,
    /// 1 MB `GetPage` reads at random offsets.
    PageRandomRead,
    /// Sequential `GetBlock` reads.
    BlockSeqRead,
    /// Whole-page-blob streaming download.
    PageFullDownload,
    /// Whole-block-blob streaming download.
    BlockFullDownload,
}

impl BlobPhase {
    /// All phases in execution order.
    pub const ALL: [BlobPhase; 6] = [
        BlobPhase::PageUpload,
        BlobPhase::BlockUpload,
        BlobPhase::PageRandomRead,
        BlobPhase::BlockSeqRead,
        BlobPhase::PageFullDownload,
        BlobPhase::BlockFullDownload,
    ];

    /// Short label used in series names.
    pub fn label(self) -> &'static str {
        match self {
            BlobPhase::PageUpload => "page-upload",
            BlobPhase::BlockUpload => "block-upload",
            BlobPhase::PageRandomRead => "page-random-read",
            BlobPhase::BlockSeqRead => "block-seq-read",
            BlobPhase::PageFullDownload => "page-full-download",
            BlobPhase::BlockFullDownload => "block-full-download",
        }
    }
}

/// One worker's measurement of one phase in one repetition.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSample {
    /// Which phase.
    pub phase: BlobPhase,
    /// Virtual start of the phase on this worker.
    pub start: SimTime,
    /// Virtual end of the phase on this worker.
    pub end: SimTime,
    /// Payload bytes this worker moved during the phase.
    pub bytes: u64,
}

/// Aggregate of one phase at one worker count.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseAggregate {
    /// Mean per-worker phase duration in seconds.
    pub mean_worker_seconds: f64,
    /// Aggregate throughput in MB/s: total bytes over the phase's global
    /// window (min start → max end), averaged over repetitions.
    pub throughput_mb_s: f64,
}

/// Run Algorithm 1 at one worker count; returns per-phase aggregates.
pub fn run_alg1(cfg: &BenchConfig, workers: usize) -> Vec<(BlobPhase, PhaseAggregate)> {
    let chunks = cfg.blob_chunks();
    let chunk_bytes = cfg.chunk_bytes();
    let repeats = cfg.blob_repeats();
    let seed = cfg.seed;

    let report = crate::exec::run_cluster_workers(
        cfg,
        crate::exec::build_cluster(cfg),
        workers,
        move |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let me = env.instance();
            let blobs = BlobClient::new(&env, "azurebench");
            blobs.create_container().await.unwrap();
            let mut barrier = QueueBarrier::new(&env, "alg1-sync", workers);
            barrier.init().await.unwrap();
            let mut gen = PayloadGen::new(seed, me as u64);
            let mut samples: Vec<PhaseSample> = Vec::new();

            // This worker's contiguous share of chunk indices.
            let per = chunks / workers;
            let extra = chunks % workers;
            let lo = me * per + me.min(extra);
            let hi = lo + per + usize::from(me < extra);

            let record = |samples: &mut Vec<PhaseSample>,
                          phase,
                          start: SimTime,
                          end: SimTime,
                          bytes: u64| {
                samples.push(PhaseSample {
                    phase,
                    start,
                    end,
                    bytes,
                });
            };

            for repeat in 0..repeats {
                let page_blob = format!("AzureBenchPageBlob-{repeat}");
                let block_blob = format!("AzureBenchBlockBlob-{repeat}");
                if me == 0 {
                    blobs
                        .create_page_blob(&page_blob, (chunks * chunk_bytes) as u64)
                        .await
                        .unwrap();
                }
                barrier.wait().await.unwrap();

                // ---- Page blob upload ----
                let t0 = env.now();
                for chunk in lo..hi {
                    let content = gen.bytes(chunk_bytes);
                    blobs
                        .put_page(&page_blob, (chunk * chunk_bytes) as u64, content)
                        .await
                        .unwrap();
                }
                record(
                    &mut samples,
                    BlobPhase::PageUpload,
                    t0,
                    env.now(),
                    ((hi - lo) * chunk_bytes) as u64,
                );

                // ---- Block blob upload (stage own chunks, commit once) ----
                let t0 = env.now();
                for chunk in lo..hi {
                    let content = gen.bytes(chunk_bytes);
                    blobs
                        .put_block(&block_blob, format!("{chunk:06}"), content)
                        .await
                        .unwrap();
                }
                let staged_end = env.now();
                record(
                    &mut samples,
                    BlobPhase::BlockUpload,
                    t0,
                    staged_end,
                    ((hi - lo) * chunk_bytes) as u64,
                );
                barrier.wait().await.unwrap();
                if me == 0 {
                    let ids: Vec<String> = (0..chunks).map(|c| format!("{c:06}")).collect();
                    blobs.put_block_list(&block_blob, ids).await.unwrap();
                }
                barrier.wait().await.unwrap();

                // ---- Random page reads (every worker reads `chunks` pages) ----
                let t0 = env.now();
                for _ in 0..chunks {
                    let chunk = ctx.with_rng(|r| rand::Rng::random_range(r, 0..chunks));
                    let data = blobs
                        .get_page(&page_blob, (chunk * chunk_bytes) as u64, chunk_bytes as u64)
                        .await
                        .unwrap();
                    assert_eq!(data.len(), chunk_bytes);
                }
                record(
                    &mut samples,
                    BlobPhase::PageRandomRead,
                    t0,
                    env.now(),
                    (chunks * chunk_bytes) as u64,
                );

                // ---- Sequential block reads ----
                let t0 = env.now();
                for block in 0..chunks {
                    let data = blobs.get_block(&block_blob, block).await.unwrap();
                    assert_eq!(data.len(), chunk_bytes);
                }
                record(
                    &mut samples,
                    BlobPhase::BlockSeqRead,
                    t0,
                    env.now(),
                    (chunks * chunk_bytes) as u64,
                );
                barrier.wait().await.unwrap();

                // ---- Whole-blob downloads ----
                let t0 = env.now();
                let data = blobs.download(&page_blob).await.unwrap();
                record(
                    &mut samples,
                    BlobPhase::PageFullDownload,
                    t0,
                    env.now(),
                    data.len() as u64,
                );
                let t0 = env.now();
                let data = blobs.download(&block_blob).await.unwrap();
                record(
                    &mut samples,
                    BlobPhase::BlockFullDownload,
                    t0,
                    env.now(),
                    data.len() as u64,
                );
                barrier.wait().await.unwrap();

                if me == 0 {
                    blobs.delete(&page_blob).await.unwrap();
                    blobs.delete(&block_blob).await.unwrap();
                }
                barrier.wait().await.unwrap();
            }
            samples
        },
    );

    aggregate(report.results, repeats)
}

/// Fold per-worker samples into per-phase aggregates.
fn aggregate(
    per_worker: Vec<Vec<PhaseSample>>,
    repeats: usize,
) -> Vec<(BlobPhase, PhaseAggregate)> {
    BlobPhase::ALL
        .iter()
        .map(|&phase| {
            let mut worker_secs = Vec::new();
            let mut tput_sum = 0.0;
            let mut tput_n = 0;
            for rep in 0..repeats {
                // The rep-th sample of this phase on each worker.
                let samples: Vec<&PhaseSample> = per_worker
                    .iter()
                    .filter_map(|w| w.iter().filter(|s| s.phase == phase).nth(rep))
                    .collect();
                if samples.is_empty() {
                    continue;
                }
                let start = samples.iter().map(|s| s.start).min().unwrap();
                let end = samples.iter().map(|s| s.end).max().unwrap();
                let bytes: u64 = samples.iter().map(|s| s.bytes).sum();
                let window = end.saturating_since(start).as_secs_f64();
                if window > 0.0 {
                    tput_sum += bytes as f64 / (1 << 20) as f64 / window;
                    tput_n += 1;
                }
                for s in &samples {
                    worker_secs.push(s.end.saturating_since(s.start).as_secs_f64());
                }
            }
            let agg = PhaseAggregate {
                mean_worker_seconds: if worker_secs.is_empty() {
                    0.0
                } else {
                    worker_secs.iter().sum::<f64>() / worker_secs.len() as f64
                },
                throughput_mb_s: if tput_n == 0 {
                    0.0
                } else {
                    tput_sum / tput_n as f64
                },
            };
            (phase, agg)
        })
        .collect()
}

/// Sweep the worker ladder and produce Figure 4 (whole-blob up/downloads:
/// throughput and time) and Figure 5 (chunked downloads: throughput and
/// time) — four [`Figure`]s in paper order: 4a, 4b, 5a, 5b.
pub fn figures_4_and_5(cfg: &BenchConfig) -> Vec<Figure> {
    let mut fig4a = Figure::new(
        "fig4a",
        "Blob storage throughput (upload + full download)",
        "workers",
        "MB/s (aggregate)",
    );
    let mut fig4b = Figure::new(
        "fig4b",
        "Blob storage time (upload + full download)",
        "workers",
        "seconds (mean per worker)",
    );
    let mut fig5a = Figure::new(
        "fig5a",
        "Blob download one page/block at a time: throughput",
        "workers",
        "MB/s (aggregate)",
    );
    let mut fig5b = Figure::new(
        "fig5b",
        "Blob download one page/block at a time: time",
        "workers",
        "seconds (mean per worker)",
    );
    let fig4_phases = [
        BlobPhase::PageUpload,
        BlobPhase::BlockUpload,
        BlobPhase::PageFullDownload,
        BlobPhase::BlockFullDownload,
    ];
    let fig5_phases = [BlobPhase::PageRandomRead, BlobPhase::BlockSeqRead];
    for p in fig4_phases {
        fig4a.series.push(Series::new(p.label()));
        fig4b.series.push(Series::new(p.label()));
    }
    for p in fig5_phases {
        fig5a.series.push(Series::new(p.label()));
        fig5b.series.push(Series::new(p.label()));
    }

    let swept = crate::sweep::sweep(cfg, run_alg1);
    for (&w, aggs) in cfg.workers.iter().zip(swept) {
        for (phase, agg) in aggs {
            let x = w as f64;
            if let Some(i) = fig4_phases.iter().position(|&p| p == phase) {
                fig4a.series[i].push(x, agg.throughput_mb_s);
                fig4b.series[i].push(x, agg.mean_worker_seconds);
            }
            if let Some(i) = fig5_phases.iter().position(|&p| p == phase) {
                fig5a.series[i].push(x, agg.throughput_mb_s);
                fig5b.series[i].push(x, agg.mean_worker_seconds);
            }
        }
    }
    vec![fig4a, fig4b, fig5a, fig5b]
}

/// Convenience: total duration of Duration-like phase windows (used by
/// tests asserting the paper's qualitative shapes).
pub fn phase(aggs: &[(BlobPhase, PhaseAggregate)], p: BlobPhase) -> PhaseAggregate {
    aggs.iter()
        .find(|(q, _)| *q == p)
        .map(|(_, a)| *a)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig::paper().with_scale(0.04).with_workers(vec![2])
        // 4 chunks, 1 repeat
    }

    #[test]
    fn alg1_produces_samples_for_every_phase() {
        let cfg = tiny();
        let aggs = run_alg1(&cfg, 2);
        assert_eq!(aggs.len(), BlobPhase::ALL.len());
        for (p, a) in &aggs {
            assert!(a.mean_worker_seconds > 0.0, "phase {p:?} has zero duration");
            assert!(a.throughput_mb_s > 0.0, "phase {p:?} has zero throughput");
        }
    }

    #[test]
    fn uploads_split_chunks_across_workers() {
        // 4 chunks over 3 workers: shares 2/1/1; upload bytes must sum to
        // the blob size, downloads are full-size per worker.
        let cfg = BenchConfig::paper().with_scale(0.04).with_workers(vec![3]);
        let aggs = run_alg1(&cfg, 3);
        let up = phase(&aggs, BlobPhase::PageUpload);
        let down = phase(&aggs, BlobPhase::PageFullDownload);
        // Mean upload share < full blob download time at equal bandwidth
        // would not strictly hold, but both must at least be measured.
        assert!(up.mean_worker_seconds > 0.0 && down.mean_worker_seconds > 0.0);
    }

    #[test]
    fn page_upload_outpaces_block_upload() {
        let cfg = tiny();
        let aggs = run_alg1(&cfg, 2);
        let page = phase(&aggs, BlobPhase::PageUpload);
        let block = phase(&aggs, BlobPhase::BlockUpload);
        assert!(
            page.throughput_mb_s > block.throughput_mb_s,
            "page {:.1} MB/s must beat block {:.1} MB/s",
            page.throughput_mb_s,
            block.throughput_mb_s
        );
    }

    #[test]
    fn sequential_blocks_beat_random_pages() {
        let cfg = tiny();
        let aggs = run_alg1(&cfg, 2);
        let blocks = phase(&aggs, BlobPhase::BlockSeqRead);
        let pages = phase(&aggs, BlobPhase::PageRandomRead);
        assert!(
            blocks.throughput_mb_s > pages.throughput_mb_s,
            "sequential {:.1} must beat random {:.1}",
            blocks.throughput_mb_s,
            pages.throughput_mb_s
        );
    }

    #[test]
    fn figures_have_full_ladders() {
        let cfg = BenchConfig::paper()
            .with_scale(0.04)
            .with_workers(vec![1, 2]);
        let figs = figures_4_and_5(&cfg);
        assert_eq!(figs.len(), 4);
        for f in &figs {
            for s in &f.series {
                assert_eq!(s.points.len(), 2, "{}/{} missing points", f.id, s.name);
            }
        }
    }
}
