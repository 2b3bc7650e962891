//! Iterative k-means clustering on the storage-backed MapReduce runtime —
//! the flagship workload of Twister4Azure (the paper's reference [15]),
//! which demonstrated that iterative MapReduce can be built from exactly
//! the Azure storage primitives this repository models.
//!
//! One driver role generates 2-D points around hidden centers, then runs
//! MapReduce rounds — map: assign each point chunk to the nearest current
//! centroid and emit partial sums; reduce: average a centroid's partial
//! sums — until the centroids stop moving. Four worker roles serve both
//! phases from the same task queue.
//!
//! ```text
//! cargo run --release -p azurebench --example kmeans_mapreduce
//! ```

use azsim_client::VirtualEnv;
use azsim_compute::{Deployment, VmSize};
use azsim_fabric::ClusterParams;
use azsim_framework::{MapReduce, MapReduceJob};
use serde::{Deserialize, Serialize};

const K: usize = 3;
const CHUNKS: usize = 12;
const POINTS_PER_CHUNK: usize = 200;
const HIDDEN_CENTERS: [(f64, f64); K] = [(0.0, 0.0), (10.0, 0.0), (5.0, 8.0)];

#[derive(Serialize, Deserialize, Clone)]
struct Chunk {
    points: Vec<(f64, f64)>,
    centroids: Vec<(f64, f64)>,
}

/// Reduce output: `(cluster, new centroid, points assigned)`.
type Moved = (usize, (f64, f64), u64);

struct KMeans;

impl MapReduceJob for KMeans {
    type MapIn = Chunk;
    type Key = usize; // cluster id
    type Value = (f64, f64, u64); // partial (sum_x, sum_y, count)
    type Out = Moved;

    fn map(&self, chunk: &Chunk) -> Vec<(usize, (f64, f64, u64))> {
        let mut partial = vec![(0.0, 0.0, 0u64); chunk.centroids.len()];
        for &(x, y) in &chunk.points {
            let nearest = chunk
                .centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let da = (x - a.0).powi(2) + (y - a.1).powi(2);
                    let db = (x - b.0).powi(2) + (y - b.1).powi(2);
                    da.partial_cmp(&db).unwrap()
                })
                .map(|(i, _)| i)
                .unwrap();
            partial[nearest].0 += x;
            partial[nearest].1 += y;
            partial[nearest].2 += 1;
        }
        partial
            .into_iter()
            .enumerate()
            .filter(|(_, (_, _, n))| *n > 0)
            .collect()
    }

    fn reduce(&self, key: &usize, values: Vec<(f64, f64, u64)>) -> Moved {
        let (sx, sy, n) = values.into_iter().fold((0.0, 0.0, 0u64), |acc, v| {
            (acc.0 + v.0, acc.1 + v.1, acc.2 + v.2)
        });
        (*key, (sx / n as f64, sy / n as f64), n)
    }

    fn next_round(&self, round: usize, outputs: &[Moved]) -> Option<Vec<Chunk>> {
        // Driver-side convergence handled in main (needs the point data);
        // the trait hook is unused for this job.
        let _ = (round, outputs);
        None
    }
}

fn generate_points(seed: u64) -> Vec<Vec<(f64, f64)>> {
    use rand::Rng;
    let mut rng = azsim_core::rng::stream_rng(seed, 0);
    (0..CHUNKS)
        .map(|_| {
            (0..POINTS_PER_CHUNK)
                .map(|_| {
                    let (cx, cy) = HIDDEN_CENTERS[rng.random_range(0..K)];
                    (
                        cx + rng.random_range(-1.5..1.5),
                        cy + rng.random_range(-1.5..1.5),
                    )
                })
                .collect()
        })
        .collect()
}

fn main() {
    let report = Deployment::new(ClusterParams::default(), 31337)
        .with_role("driver", 1, VmSize::Large, |ctx, _| async move {
            let env = VirtualEnv::new(&ctx);
            let mr = MapReduce::new(&env, "kmeans", KMeans, K);
            mr.init().await.unwrap();

            let chunks = generate_points(7);
            // k-means++-style deterministic seeding over the first chunk:
            // start anywhere, then repeatedly take the point farthest from
            // every chosen centroid — avoids the classic bad-local-optimum
            // start of clustered initial guesses.
            let seedset = &chunks[0];
            let mut centroids: Vec<(f64, f64)> = vec![seedset[0]];
            while centroids.len() < K {
                let far = seedset
                    .iter()
                    .max_by(|a, b| {
                        let da: f64 = centroids
                            .iter()
                            .map(|c| (a.0 - c.0).powi(2) + (a.1 - c.1).powi(2))
                            .fold(f64::INFINITY, f64::min);
                        let db: f64 = centroids
                            .iter()
                            .map(|c| (b.0 - c.0).powi(2) + (b.1 - c.1).powi(2))
                            .fold(f64::INFINITY, f64::min);
                        da.partial_cmp(&db).unwrap()
                    })
                    .copied()
                    .unwrap();
                centroids.push(far);
            }
            let mut rounds = 0;
            loop {
                rounds += 1;
                let inputs: Vec<Chunk> = chunks
                    .iter()
                    .map(|points| Chunk {
                        points: points.clone(),
                        centroids: centroids.clone(),
                    })
                    .collect();
                let moved = mr.run_driver(inputs).await.unwrap();
                let mut next = centroids.clone();
                let mut shift: f64 = 0.0;
                for (cluster, c, _) in &moved {
                    shift = shift.max(
                        ((c.0 - next[*cluster].0).powi(2) + (c.1 - next[*cluster].1).powi(2))
                            .sqrt(),
                    );
                    next[*cluster] = *c;
                }
                println!(
                    "[driver] round {rounds}: centroids {:?} (max shift {shift:.4})",
                    next.iter()
                        .map(|(x, y)| format!("({x:.2},{y:.2})"))
                        .collect::<Vec<_>>()
                );
                centroids = next;
                if shift < 1e-3 || rounds >= 15 {
                    break;
                }
            }
            mr.seal().await.unwrap();
            // Each recovered centroid must sit near one hidden center.
            for (cx, cy) in &centroids {
                let nearest = HIDDEN_CENTERS
                    .iter()
                    .map(|(hx, hy)| ((cx - hx).powi(2) + (cy - hy).powi(2)).sqrt())
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    nearest < 0.5,
                    "centroid ({cx:.2},{cy:.2}) too far from any hidden center"
                );
            }
            println!("[driver] converged in {rounds} rounds");
            rounds
        })
        .with_role("worker", 4, VmSize::Medium, |ctx, meta| async move {
            let env = VirtualEnv::new(&ctx);
            let mr = MapReduce::new(&env, "kmeans", KMeans, K);
            mr.init().await.unwrap();
            // Workers serve every round until the driver seals the queue.
            let (maps, reduces) = mr.run_worker().await.unwrap();
            println!("[worker {}] {maps} maps, {reduces} reduces", meta.instance);
            maps + reduces
        })
        .run();

    let tasks: usize = report.results[1..].iter().sum();
    println!(
        "\nk-means finished: {} tasks over {} storage ops in {:.1} virtual seconds",
        tasks,
        report.requests,
        report.end_time.as_secs_f64()
    );
}
