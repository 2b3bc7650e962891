//! Fault tolerance through visibility timeouts (paper §IV-B).
//!
//! "Equipped with these properties, queues can easily facilitate the
//! behavior of a shared task pool with in-built fault tolerance
//! mechanisms": a worker that claims a task and crashes never deletes the
//! message, so after the visibility timeout the task *reappears* and a
//! healthy worker finishes it. This example makes one worker crash-prone
//! (it abandons every task it claims) and shows that every task still
//! completes exactly once.
//!
//! ```text
//! cargo run --release -p azurebench --example fault_tolerance
//! ```

use azsim_client::VirtualEnv;
use azsim_compute::{Deployment, VmSize};
use azsim_fabric::ClusterParams;
use azsim_framework::TaskQueue;
use serde::{Deserialize, Serialize};
use std::time::Duration;

#[derive(Serialize, Deserialize, Clone)]
struct Job {
    id: u32,
}

const JOBS: u32 = 20;
const VISIBILITY: Duration = Duration::from_secs(10);

fn main() {
    let report = Deployment::new(ClusterParams::default(), 99)
        .with_role("submitter", 1, VmSize::Small, |ctx, _| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> =
                TaskQueue::new(&env, "jobs").with_visibility(VISIBILITY);
            tq.init().await.unwrap();
            for id in 0..JOBS {
                tq.submit(&Job { id }).await.unwrap();
            }
            tq.seal().await.unwrap();
            println!("[submitter] {JOBS} jobs queued");
            (0, 0)
        })
        // A byzantine worker: claims a few tasks and "crashes" on each.
        .with_role("flaky", 1, VmSize::Small, |ctx, _| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> =
                TaskQueue::new(&env, "jobs").with_visibility(VISIBILITY);
            tq.init().await.unwrap();
            let mut abandoned = 0;
            for _ in 0..5 {
                if tq.claim().await.unwrap().is_some() {
                    abandoned += 1; // crash mid-task: no complete()
                }
                ctx.sleep(Duration::from_millis(100)).await;
            }
            println!("[flaky] abandoned {abandoned} tasks");
            (0, abandoned)
        })
        // Healthy workers: process whatever reappears.
        .with_role("worker", 3, VmSize::Small, |ctx, meta| async move {
            let env = VirtualEnv::new(&ctx);
            let tq: TaskQueue<'_, _, Job> =
                TaskQueue::new(&env, "jobs").with_visibility(VISIBILITY);
            tq.init().await.unwrap();
            let mut retried = 0;
            let r = tq
                .run_worker(
                    async |c| {
                        if c.attempt > 1 {
                            retried += 1;
                        }
                        ctx.sleep(Duration::from_millis(250)).await; // the "work"
                        Ok(())
                    },
                    async |_, _| Ok(()),
                )
                .await
                .unwrap();
            println!(
                "[worker {}] completed {} jobs ({retried} were re-deliveries)",
                meta.instance, r.completed
            );
            (r.completed as u32, retried)
        })
        .run();

    let completed: u32 = report.results.iter().map(|(d, _)| *d).sum();
    let redelivered: u32 = report.results[2..].iter().map(|(_, r)| *r).sum();
    let remaining = {
        let mut model = report.model;
        model
            .queue_store_mut()
            .approximate_count(report.end_time, "jobs")
            .unwrap()
    };
    println!(
        "\n{completed} jobs completed ({redelivered} after crash re-delivery), \
         {remaining} left in queue"
    );
    assert_eq!(remaining, 0, "no job may be lost");
    assert_eq!(completed, JOBS, "every job completes exactly once");
    assert!(
        redelivered > 0,
        "the crashes must have caused re-deliveries"
    );
}
