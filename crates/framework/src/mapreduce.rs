//! MapReduce over Azure storage primitives.
//!
//! The paper's introduction singles out Azure's lack of "traditional
//! parallel programming support such as MPI and map-reduce", and points at
//! Twister4Azure (its reference \[15\]) — an *iterative* MapReduce runtime
//! built purely from the storage services this repository models. This
//! module provides that substrate:
//!
//! * **map tasks** travel on a task-assignment queue; each mapper writes
//!   its partitioned intermediate data to Blob storage (one block blob per
//!   `(map task, reduce bucket)`), then signals a termination indicator;
//! * the **driver** (web role) watches the indicator, then enqueues one
//!   **reduce task** per bucket; reducers pull every mapper's bucket blob,
//!   group by key, reduce, and write an output blob;
//! * workers are *phase-agnostic*: one worker loop
//!   ([`TaskQueue::run_worker`]) serves map and reduce tasks alike, so the
//!   same role instances carry the whole job until the driver
//!   [`seal`](MapReduce::seal)s the task queue after its last round;
//! * **iteration** (the Twister4Azure contribution): the driver feeds each
//!   round's reduce outputs into the next round's map inputs until the job
//!   declares convergence.
//!
//! Crash tolerance is inherited from the task queue's visibility timeouts:
//! a mapper or reducer that dies mid-task has its task re-delivered, and
//! intermediate blob writes are idempotent (same name, same content). Only
//! the attempt that completes the task signals the indicator.

use crate::taskqueue::{TaskOutcome, TaskQueue};
use crate::termination::TerminationIndicator;
use azsim_client::{BlobClient, Environment};
use azsim_storage::StorageResult;
use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A MapReduce job definition.
pub trait MapReduceJob {
    /// One map task's input.
    type MapIn: Serialize + DeserializeOwned + Clone;
    /// Intermediate key (its ordering defines reduce grouping).
    type Key: Serialize + DeserializeOwned + Ord + Clone;
    /// Intermediate value.
    type Value: Serialize + DeserializeOwned;
    /// One reduce group's output.
    type Out: Serialize + DeserializeOwned + Clone;

    /// The map function.
    fn map(&self, input: &Self::MapIn) -> Vec<(Self::Key, Self::Value)>;

    /// The reduce function.
    fn reduce(&self, key: &Self::Key, values: Vec<Self::Value>) -> Self::Out;

    /// Which reduce bucket a key belongs to (0..`buckets`). The default
    /// hashes the key's JSON encoding.
    fn bucket(&self, key: &Self::Key, buckets: usize) -> usize {
        let json = serde_json::to_vec(key).expect("key must serialize");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in json {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
        (h % buckets as u64) as usize
    }

    /// Iterative driver hook: given a finished round's outputs, produce
    /// the next round's map inputs, or `None` when converged. The default
    /// is a single-round job.
    fn next_round(&self, _round: usize, _outputs: &[Self::Out]) -> Option<Vec<Self::MapIn>> {
        None
    }
}

#[derive(Serialize, Deserialize, Clone)]
enum MrTask<M> {
    Map {
        round: usize,
        id: usize,
        input: M,
        buckets: usize,
    },
    Reduce {
        round: usize,
        bucket: usize,
        maps: usize,
    },
}

/// Storage naming + clients for one MapReduce application.
pub struct MapReduce<'e, E: Environment, J: MapReduceJob> {
    job: J,
    name: String,
    tasks: TaskQueue<'e, E, MrTask<J::MapIn>>,
    done: TerminationIndicator<'e, E>,
    blobs: BlobClient<'e, E>,
    /// Number of reduce buckets.
    pub buckets: usize,
}

impl<'e, E: Environment, J: MapReduceJob> MapReduce<'e, E, J> {
    /// Bind a MapReduce application `name` with `buckets` reduce buckets.
    pub fn new(env: &'e E, name: &str, job: J, buckets: usize) -> Self {
        assert!(buckets > 0);
        MapReduce {
            job,
            name: name.to_owned(),
            tasks: TaskQueue::new(env, format!("{name}-mr-tasks")),
            done: TerminationIndicator::new(env, format!("{name}-mr-done")),
            blobs: BlobClient::new(env, format!("{name}-mr")),
            buckets,
        }
    }

    /// Create the underlying queues and container (idempotent; every role
    /// must call it).
    pub async fn init(&self) -> StorageResult<()> {
        self.tasks.init().await?;
        self.done.init().await?;
        self.blobs.create_container().await
    }

    fn inter_blob(&self, round: usize, map_id: usize, bucket: usize) -> String {
        format!("{}/r{round}/inter-m{map_id}-b{bucket}", self.name)
    }

    fn out_blob(&self, round: usize, bucket: usize) -> String {
        format!("{}/r{round}/out-b{bucket}", self.name)
    }

    /// Driver side: run the whole (possibly iterative) job to completion
    /// and return the final round's outputs. Workers must be running
    /// [`run_worker`](Self::run_worker) concurrently; they stay until
    /// [`seal`](Self::seal), so the driver may call this again.
    pub async fn run_driver(&self, inputs: Vec<J::MapIn>) -> StorageResult<Vec<J::Out>> {
        let mut round = 0usize;
        let mut inputs = inputs;
        // Signals accumulate on the indicator queue across rounds AND
        // across repeated `run_driver` calls (an outer iterative loop, as
        // in k-means); always baseline against the current count.
        let mut signals_seen = self.done.count().await?;
        loop {
            let maps = inputs.len();
            for (id, input) in inputs.iter().enumerate() {
                self.tasks
                    .submit(&MrTask::Map {
                        round,
                        id,
                        input: input.clone(),
                        buckets: self.buckets,
                    })
                    .await?;
            }
            // Wait for all maps of this round, then fan out reduces.
            signals_seen += maps;
            self.done.wait_for(signals_seen).await?;
            for bucket in 0..self.buckets {
                self.tasks
                    .submit(&MrTask::Reduce {
                        round,
                        bucket,
                        maps,
                    })
                    .await?;
            }
            signals_seen += self.buckets;
            self.done.wait_for(signals_seen).await?;

            // Collect this round's outputs.
            let mut outputs: Vec<J::Out> = Vec::new();
            for bucket in 0..self.buckets {
                let blob = self.out_blob(round, bucket);
                let data = self.blobs.download(&blob).await?;
                let mut part: Vec<J::Out> =
                    serde_json::from_slice(&data).expect("malformed reduce output");
                outputs.append(&mut part);
            }
            match self.job.next_round(round, &outputs) {
                Some(next) => {
                    round += 1;
                    inputs = next;
                }
                None => return Ok(outputs),
            }
        }
    }

    /// Driver side: no further job will run; workers stop once the task
    /// queue is empty.
    pub async fn seal(&self) -> StorageResult<()> {
        self.tasks.seal().await
    }

    async fn execute_map(
        &self,
        round: usize,
        id: usize,
        input: &J::MapIn,
        buckets: usize,
    ) -> StorageResult<()> {
        let pairs = self.job.map(input);
        let mut by_bucket: Vec<Vec<(J::Key, J::Value)>> =
            (0..buckets).map(|_| Vec::new()).collect();
        for (k, v) in pairs {
            let b = self.job.bucket(&k, buckets);
            by_bucket[b].push((k, v));
        }
        for (b, pairs) in by_bucket.into_iter().enumerate() {
            // Empty buckets still get a blob so reducers need no listing.
            let json = serde_json::to_vec(&pairs).expect("intermediate data must serialize");
            self.blobs
                .upload(&self.inter_blob(round, id, b), Bytes::from(json))
                .await?;
        }
        Ok(())
    }

    async fn execute_reduce(&self, round: usize, bucket: usize, maps: usize) -> StorageResult<()> {
        let mut grouped: BTreeMap<J::Key, Vec<J::Value>> = BTreeMap::new();
        for m in 0..maps {
            let data = self
                .blobs
                .download(&self.inter_blob(round, m, bucket))
                .await?;
            let pairs: Vec<(J::Key, J::Value)> =
                serde_json::from_slice(&data).expect("malformed intermediate data");
            for (k, v) in pairs {
                grouped.entry(k).or_default().push(v);
            }
        }
        let outputs: Vec<J::Out> = grouped
            .into_iter()
            .map(|(k, vs)| self.job.reduce(&k, vs))
            .collect();
        let json = serde_json::to_vec(&outputs).expect("reduce output must serialize");
        self.blobs
            .upload(&self.out_blob(round, bucket), Bytes::from(json))
            .await?;
        Ok(())
    }

    /// Worker side: serve map and reduce tasks until the driver has sealed
    /// the task queue and it is empty. Returns `(maps_done, reduces_done)`.
    pub async fn run_worker(&self) -> StorageResult<(usize, usize)> {
        let mut maps_done = 0;
        let mut reduces_done = 0;
        self.tasks
            .run_worker(
                async |claimed| match &claimed.task {
                    MrTask::Map {
                        round,
                        id,
                        input,
                        buckets,
                    } => self.execute_map(*round, *id, input, *buckets).await,
                    MrTask::Reduce {
                        round,
                        bucket,
                        maps,
                    } => self.execute_reduce(*round, *bucket, *maps).await,
                },
                // Superseded by a re-delivery: the blob writes are
                // idempotent, and the attempt that completes signals.
                async |claimed, outcome| {
                    if outcome == TaskOutcome::Completed {
                        match &claimed.task {
                            MrTask::Map { .. } => maps_done += 1,
                            MrTask::Reduce { .. } => reduces_done += 1,
                        }
                        self.done.signal(Bytes::from_static(b"t")).await?;
                    }
                    Ok(())
                },
            )
            .await?;
        Ok((maps_done, reduces_done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_client::VirtualEnv;
    use azsim_core::runtime::{actor, ActorCtx, ActorFn};
    use azsim_core::Simulation;
    use azsim_fabric::Cluster;

    /// Classic word count.
    struct WordCount;
    impl MapReduceJob for WordCount {
        type MapIn = String;
        type Key = String;
        type Value = u64;
        type Out = (String, u64);
        fn map(&self, input: &String) -> Vec<(String, u64)> {
            input
                .split_whitespace()
                .map(|w| (w.to_lowercase(), 1))
                .collect()
        }
        fn reduce(&self, key: &String, values: Vec<u64>) -> (String, u64) {
            (key.clone(), values.into_iter().sum())
        }
    }

    fn run_wordcount(workers: usize, docs: Vec<&str>) -> Vec<(String, u64)> {
        let docs: Vec<String> = docs.into_iter().map(String::from).collect();
        let sim = Simulation::new(Cluster::with_defaults(), 55);
        let mut actors: Vec<ActorFn<'_, Cluster, Vec<(String, u64)>>> = Vec::new();
        let driver_docs = docs.clone();
        actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let mr = MapReduce::new(&env, "wc", WordCount, 3);
            mr.init().await.unwrap();
            let mut out = mr.run_driver(driver_docs).await.unwrap();
            mr.seal().await.unwrap();
            out.sort();
            out
        }));
        for _ in 0..workers {
            actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
                let env = VirtualEnv::new(&ctx);
                let mr = MapReduce::new(&env, "wc", WordCount, 3);
                mr.init().await.unwrap();
                mr.run_worker().await.unwrap();
                Vec::new()
            }));
        }
        let report = sim.run(actors);
        report.results.into_iter().next().unwrap()
    }

    #[test]
    fn word_count_end_to_end() {
        let out = run_wordcount(
            3,
            vec![
                "the quick brown fox",
                "the lazy dog and the quick cat",
                "brown dog",
            ],
        );
        let get = |w: &str| out.iter().find(|(k, _)| k == w).map(|(_, c)| *c);
        assert_eq!(get("the"), Some(3));
        assert_eq!(get("quick"), Some(2));
        assert_eq!(get("brown"), Some(2));
        assert_eq!(get("dog"), Some(2));
        assert_eq!(get("cat"), Some(1));
        // Nothing invented.
        let total: u64 = out.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 13);
    }

    #[test]
    fn single_worker_suffices() {
        let out = run_wordcount(1, vec!["a b a"]);
        assert_eq!(out, vec![("a".into(), 2), ("b".into(), 1)]);
    }

    /// An iterative job: repeatedly halve numbers until all are ≤ 1
    /// (a miniature stand-in for k-means-style convergence loops).
    struct HalveUntilSmall;
    impl MapReduceJob for HalveUntilSmall {
        type MapIn = u64;
        type Key = u64; // bucket everything together per parity
        type Value = u64;
        type Out = u64;
        fn map(&self, input: &u64) -> Vec<(u64, u64)> {
            vec![(*input % 2, *input / 2)]
        }
        fn reduce(&self, _key: &u64, values: Vec<u64>) -> u64 {
            values.into_iter().max().unwrap_or(0)
        }
        fn next_round(&self, round: usize, outputs: &[u64]) -> Option<Vec<u64>> {
            assert!(round < 20, "must converge");
            if outputs.iter().all(|&v| v <= 1) {
                None
            } else {
                Some(outputs.to_vec())
            }
        }
    }

    #[test]
    fn iterative_job_converges_across_rounds() {
        let sim = Simulation::new(Cluster::with_defaults(), 56);
        let mut actors: Vec<ActorFn<'_, Cluster, Vec<u64>>> = Vec::new();
        actors.push(actor(|ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let mr = MapReduce::new(&env, "halve", HalveUntilSmall, 2);
            mr.init().await.unwrap();
            let out = mr.run_driver(vec![37, 8, 129]).await.unwrap();
            mr.seal().await.unwrap();
            out
        }));
        for _ in 0..2 {
            actors.push(actor(|ctx: ActorCtx<Cluster>| async move {
                let env = VirtualEnv::new(&ctx);
                let mr = MapReduce::new(&env, "halve", HalveUntilSmall, 2);
                mr.init().await.unwrap();
                mr.run_worker().await.unwrap();
                Vec::new()
            }));
        }
        let report = sim.run(actors);
        let out = &report.results[0];
        assert!(!out.is_empty());
        assert!(out.iter().all(|&v| v <= 1), "converged outputs: {out:?}");
    }
}
