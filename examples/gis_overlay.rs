//! A Crayons-style GIS overlay workload (the paper's reference [9]): the
//! scientific application whose development motivated AzureBench.
//!
//! The web role partitions two polygon layers into spatial cells, uploads
//! each cell's geometry to Blob storage as a block blob, and enqueues one
//! task per cell carrying only the *blob name* (the paper's guidance for
//! payloads beyond the 48 KB message limit). Worker roles fetch their
//! cell's geometry from Blob storage, compute the polygon-overlay
//! intersection areas locally, store per-cell results in Table storage,
//! and signal the termination-indicator queue.
//!
//! ```text
//! cargo run --release -p azurebench --example gis_overlay
//! ```

use azsim_client::{BlobClient, TableClient, VirtualEnv};
use azsim_compute::{Deployment, VmSize};
use azsim_fabric::ClusterParams;
use azsim_framework::BagOfTasks;
use azsim_storage::{Entity, PropValue};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// An axis-aligned rectangle (a degenerate but honest polygon — enough to
/// exercise the overlay data path end to end).
#[derive(Serialize, Deserialize, Clone, Copy, Debug)]
struct Rect {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
}

impl Rect {
    fn area(&self) -> f64 {
        (self.x1 - self.x0).max(0.0) * (self.y1 - self.y0).max(0.0)
    }

    fn intersect(&self, o: &Rect) -> Rect {
        Rect {
            x0: self.x0.max(o.x0),
            y0: self.y0.max(o.y0),
            x1: self.x1.min(o.x1),
            y1: self.y1.min(o.y1),
        }
    }
}

/// One spatial cell's worth of work: where to find its two layers.
#[derive(Serialize, Deserialize, Clone)]
struct CellTask {
    cell: u32,
    blob_a: String,
    blob_b: String,
}

const CELLS: u32 = 24;
const RECTS_PER_LAYER: usize = 200;

fn random_layer(seed: u64, n: usize) -> Vec<Rect> {
    let mut rng = azsim_core::rng::stream_rng(seed, 1);
    (0..n)
        .map(|_| {
            let x0: f64 = rand::Rng::random_range(&mut rng, 0.0..100.0);
            let y0: f64 = rand::Rng::random_range(&mut rng, 0.0..100.0);
            let w: f64 = rand::Rng::random_range(&mut rng, 0.1..5.0);
            let h: f64 = rand::Rng::random_range(&mut rng, 0.1..5.0);
            Rect {
                x0,
                y0,
                x1: x0 + w,
                y1: y0 + h,
            }
        })
        .collect()
}

fn main() {
    let report = Deployment::new(ClusterParams::default(), 777)
        .with_role("web", 1, VmSize::Large, |ctx, _meta| async move {
            let env = VirtualEnv::new(&ctx);
            let blobs = BlobClient::new(&env, "gis");
            blobs.create_container().await.unwrap();
            let bag: BagOfTasks<'_, _, CellTask> = BagOfTasks::new(&env, "gis");
            bag.init().await.unwrap();
            let results = TableClient::new(&env, "overlay");
            results.create_table().await.unwrap();

            // Partition phase: one blob per (cell, layer).
            let mut tasks = Vec::new();
            for cell in 0..CELLS {
                for (layer, name) in ["a", "b"].iter().enumerate() {
                    let rects = random_layer(u64::from(cell) * 2 + layer as u64, RECTS_PER_LAYER);
                    let payload = serde_json::to_vec(&rects).unwrap();
                    blobs
                        .upload(&format!("cell-{cell}-{name}"), Bytes::from(payload))
                        .await
                        .unwrap();
                }
                tasks.push(CellTask {
                    cell,
                    blob_a: format!("cell-{cell}-a"),
                    blob_b: format!("cell-{cell}-b"),
                });
            }
            let submitted = bag.submit_all(tasks).await.unwrap();
            println!("[web] partitioned {CELLS} cells, submitted {submitted} tasks");

            bag.wait_all().await;
            let done = bag.done.count().await.unwrap();
            println!("[web] overlay complete: {done} signals");

            // Collect the total intersection area.
            let rows = results.query_partition("area").await.unwrap();
            let total: f64 = rows
                .iter()
                .map(|(e, _)| match &e.properties["value"] {
                    PropValue::F64(v) => *v,
                    _ => unreachable!(),
                })
                .sum();
            println!("[web] total intersection area: {total:.2}");
            assert_eq!(rows.len(), CELLS as usize);
            assert!(total > 0.0, "random layers must intersect somewhere");
            total
        })
        .with_role("worker", 6, VmSize::Medium, |ctx, meta| async move {
            let env = VirtualEnv::new(&ctx);
            let blobs = BlobClient::new(&env, "gis");
            blobs.create_container().await.unwrap();
            let bag: BagOfTasks<'_, _, CellTask> = BagOfTasks::new(&env, "gis");
            bag.init().await.unwrap();
            let results = TableClient::new(&env, "overlay");
            results.create_table().await.unwrap();

            // The web role spends several virtual seconds uploading cell
            // geometry before any task appears; workers wait for its seal.
            let r = bag
                .run_worker(async |task, _attempt| {
                    // I/O phase: fetch both layers from Blob storage.
                    let a: Vec<Rect> =
                        serde_json::from_slice(&blobs.download(&task.blob_a).await.unwrap())
                            .unwrap();
                    let b: Vec<Rect> =
                        serde_json::from_slice(&blobs.download(&task.blob_b).await.unwrap())
                            .unwrap();
                    // Compute phase: pairwise overlay.
                    let area: f64 = a
                        .iter()
                        .map(|ra| b.iter().map(|rb| ra.intersect(rb).area()).sum::<f64>())
                        .sum();
                    results
                        .insert(
                            Entity::new("area", task.cell.to_string())
                                .with("value", PropValue::F64(area))
                                .with("worker", PropValue::I64(meta.actor as i64)),
                        )
                        .await
                        .unwrap();
                })
                .await
                .unwrap();
            println!("[worker {}] overlaid {} cells", meta.instance, r.completed);
            r.completed as f64
        })
        .run();

    let processed: usize = report.results[1..].iter().map(|v| *v as usize).sum();
    println!(
        "\n{processed} cells overlaid in {:.1} virtual seconds",
        report.end_time.as_secs_f64()
    );
}
