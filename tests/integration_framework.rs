//! Integration: the Section III application framework end to end,
//! including crash-tolerance fault injection.

use azsim_client::VirtualEnv;
use azsim_compute::{Deployment, VmSize};
use azsim_core::runtime::{actor, ActorCtx, ActorFn};
use azsim_core::Simulation;
use azsim_fabric::{Cluster, ClusterParams};
use azsim_framework::{BagOfTasks, TaskQueue};
use serde::{Deserialize, Serialize};
use std::time::Duration;

#[derive(Serialize, Deserialize, Clone, PartialEq, Debug)]
struct Work {
    id: u32,
}

#[test]
fn web_role_plus_workers_full_lifecycle() {
    let workers = 6usize;
    let tasks = 48u32;
    let sim = Simulation::new(Cluster::with_defaults(), 71);
    let mut actors: Vec<ActorFn<'_, Cluster, usize>> = Vec::new();
    actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
        let env = VirtualEnv::new(&ctx);
        let bag: BagOfTasks<'_, _, Work> = BagOfTasks::new(&env, "life");
        bag.init().await.unwrap();
        let n = bag
            .submit_all((0..tasks).map(|id| Work { id }))
            .await
            .unwrap();
        bag.wait_all().await;
        n
    }));
    for _ in 0..workers {
        actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Work> = BagOfTasks::new(&env, "life");
            bag.init().await.unwrap();
            bag.run_worker(async |_t, _a| {
                ctx.sleep(Duration::from_millis(50)).await;
            })
            .await
            .unwrap()
            .completed
        }));
    }
    let report = sim.run(actors);
    assert_eq!(report.results[0], tasks as usize);
    let total: usize = report.results[1..].iter().sum();
    assert_eq!(total, tasks as usize);
    let mut model = report.model;
    let signals = model
        .queue_store_mut()
        .approximate_count(report.end_time, "life-done")
        .unwrap();
    assert!(signals >= tasks as usize);
}

#[test]
fn crashed_worker_tasks_are_recovered_by_healthy_workers() {
    // Fault injection: one worker claims tasks and never completes them.
    // Visibility timeouts must hand its tasks to the healthy workers.
    let tasks = 12u32;
    let vis = Duration::from_secs(8);
    let sim = Simulation::new(Cluster::with_defaults(), 72);
    let mut actors: Vec<ActorFn<'_, Cluster, (usize, usize)>> = Vec::new();
    // The crasher: claims up to 5 tasks, abandons them all, exits.
    actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
        let env = VirtualEnv::new(&ctx);
        let tq: TaskQueue<'_, _, Work> = TaskQueue::new(&env, "rec-tasks").with_visibility(vis);
        tq.init().await.unwrap();
        // Submit everything first so the crasher definitely sees work.
        for id in 0..tasks {
            tq.submit(&Work { id }).await.unwrap();
        }
        tq.seal().await.unwrap();
        let mut claimed = 0;
        while claimed < 5 {
            if tq.claim().await.unwrap().is_some() {
                claimed += 1; // never complete() — simulated crash
            }
        }
        (0, claimed)
    }));
    // Healthy workers arrive a little later and drain everything.
    for _ in 0..3 {
        actors.push(actor(move |ctx: ActorCtx<Cluster>| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Work> = TaskQueue::new(&env, "rec-tasks").with_visibility(vis);
            tq.init().await.unwrap();
            ctx.sleep(Duration::from_secs(1)).await;
            let mut retried = 0;
            let r = tq
                .run_worker(
                    async |c| {
                        if c.attempt > 1 {
                            retried += 1;
                        }
                        Ok(())
                    },
                    async |_, _| Ok(()),
                )
                .await
                .unwrap();
            (r.completed, retried)
        }));
    }
    let report = sim.run(actors);
    let done: usize = report.results[1..].iter().map(|(d, _)| d).sum();
    let retried: usize = report.results[1..].iter().map(|(_, r)| r).sum();
    assert_eq!(done, tasks as usize, "every task must complete");
    assert!(retried >= 5, "the 5 crashed claims must be re-delivered");
    // Queue fully drained.
    let mut model = report.model;
    assert_eq!(
        model
            .queue_store_mut()
            .approximate_count(report.end_time, "rec-tasks")
            .unwrap(),
        0
    );
}

#[test]
fn deployment_mixes_vm_sizes_with_framework() {
    let tasks = 16u32;
    let report = Deployment::new(ClusterParams::default(), 73)
        .with_role("web", 1, VmSize::Large, move |ctx, _| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Work> = BagOfTasks::new(&env, "mix");
            bag.init().await.unwrap();
            bag.submit_all((0..tasks).map(|id| Work { id }))
                .await
                .unwrap();
            bag.wait_all().await;
            0
        })
        .with_role("worker", 4, VmSize::ExtraSmall, move |ctx, _| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, Work> = BagOfTasks::new(&env, "mix");
            bag.init().await.unwrap();
            bag.run_worker(async |_t, _a| {}).await.unwrap().completed
        })
        .run();
    let total: usize = report.results[1..].iter().sum();
    assert_eq!(total, tasks as usize);
}

#[test]
fn oversized_tasks_go_via_blob_reference_pattern() {
    // The framework guidance: payloads beyond 48 KB go to Blob storage,
    // the queue carries the name. Verify the task-queue rejects an
    // oversized inline payload but the blob-reference pattern works.
    use azsim_client::BlobClient;
    use bytes::Bytes;

    #[derive(Serialize, Deserialize)]
    struct Fat {
        blob: String,
    }

    let sim = Simulation::new(Cluster::with_defaults(), 74);
    sim.run_workers(1, |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        // Inline > 48 KB payload is rejected by the queue.
        let tq_raw = azsim_client::QueueClient::new(&env, "fat-tasks");
        tq_raw.create().await.unwrap();
        let too_big = Bytes::from(vec![0u8; 49 * 1024]);
        assert!(matches!(
            tq_raw.put_message(too_big).await,
            Err(azsim_storage::StorageError::MessageTooLarge { .. })
        ));

        // Blob-reference pattern.
        let blobs = BlobClient::new(&env, "fat");
        blobs.create_container().await.unwrap();
        let payload = Bytes::from(vec![7u8; 256 * 1024]);
        blobs.upload("input-0", payload.clone()).await.unwrap();
        let tq: TaskQueue<'_, _, Fat> = TaskQueue::new(&env, "fat-tasks");
        tq.submit(&Fat {
            blob: "input-0".into(),
        })
        .await
        .unwrap();
        let claimed = tq.claim().await.unwrap().unwrap();
        let fetched = blobs.download(&claimed.task.blob).await.unwrap();
        assert_eq!(fetched, payload);
        tq.complete(&claimed).await.unwrap();
    });
}
