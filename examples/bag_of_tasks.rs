//! The paper's generic application framework (Section III, Figure 3) as a
//! runnable bag-of-tasks application: a web role submits Monte-Carlo π
//! estimation tasks to the task-assignment queue, worker roles drain the
//! pool, results land in Table storage, and completion is tracked on the
//! termination-indicator queue.
//!
//! Runs in the deterministic virtual-time simulation: 1 web role + 8
//! worker roles, coordinated exclusively through storage.
//!
//! ```text
//! cargo run --release -p azurebench --example bag_of_tasks
//! ```

use azsim_client::{TableClient, VirtualEnv};
use azsim_compute::{Deployment, VmSize};
use azsim_fabric::ClusterParams;
use azsim_framework::BagOfTasks;
use azsim_storage::{Entity, PropValue};
use serde::{Deserialize, Serialize};
use std::time::Duration;

#[derive(Serialize, Deserialize, Clone)]
struct PiTask {
    id: u32,
    samples: u64,
    seed: u64,
}

const TASKS: u32 = 64;
const SAMPLES_PER_TASK: u64 = 100_000;

fn main() {
    let report = Deployment::new(ClusterParams::default(), 4242)
        // The interactive front end: submits work, polls progress.
        .with_role("web", 1, VmSize::Large, |ctx, _env| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, PiTask> = BagOfTasks::new(&env, "pi");
            bag.init().await.unwrap();
            let results = TableClient::new(&env, "pi-results");
            results.create_table().await.unwrap();

            let submitted = bag
                .submit_all((0..TASKS).map(|id| PiTask {
                    id,
                    samples: SAMPLES_PER_TASK,
                    seed: 0xC0FFEE ^ id as u64,
                }))
                .await
                .unwrap();
            println!("[web] submitted {submitted} tasks");

            // Progress loop, as the paper's interactive UI would do.
            loop {
                let done = bag.done.count().await.unwrap();
                println!(
                    "[web] t={:.0}s  {done}/{submitted} tasks complete",
                    ctx.now().as_secs_f64()
                );
                if done >= submitted {
                    break;
                }
                ctx.sleep(Duration::from_secs(2)).await;
            }

            // Reduce: average the per-task estimates from Table storage.
            let rows = results.query_partition("estimate").await.unwrap();
            let sum: f64 = rows
                .iter()
                .map(|(e, _)| match &e.properties["pi"] {
                    PropValue::F64(v) => *v,
                    _ => unreachable!(),
                })
                .sum();
            let pi = sum / rows.len() as f64;
            println!("[web] π ≈ {pi:.5} from {} tasks", rows.len());
            assert!((pi - std::f64::consts::PI).abs() < 0.01);
            rows.len()
        })
        // The backend: 8 Small worker-role instances.
        .with_role("worker", 8, VmSize::Small, |ctx, env_meta| async move {
            let env = VirtualEnv::new(&ctx);
            let bag: BagOfTasks<'_, _, PiTask> = BagOfTasks::new(&env, "pi");
            bag.init().await.unwrap();
            let results = TableClient::new(&env, "pi-results");
            results.create_table().await.unwrap();

            let r = bag
                .run_worker(async |task, _attempt| {
                    // Monte-Carlo estimate (deterministic per task seed).
                    let mut rng = azsim_core::rng::stream_rng(task.seed, 0);
                    let mut inside = 0u64;
                    for _ in 0..task.samples {
                        let x: f64 = rand::Rng::random(&mut rng);
                        let y: f64 = rand::Rng::random(&mut rng);
                        if x * x + y * y <= 1.0 {
                            inside += 1;
                        }
                    }
                    let pi = 4.0 * inside as f64 / task.samples as f64;
                    results
                        .insert(
                            Entity::new("estimate", task.id.to_string())
                                .with("pi", PropValue::F64(pi))
                                .with("worker", PropValue::I64(env_meta.actor as i64)),
                        )
                        .await
                        .unwrap();
                })
                .await
                .unwrap();
            println!(
                "[worker {}] processed {} tasks",
                env_meta.instance, r.completed
            );
            r.completed
        })
        .run();

    let total: usize = report.results[1..].iter().sum();
    println!(
        "\nall workers together processed {total} tasks in {:.1} virtual seconds \
         ({} storage ops)",
        report.end_time.as_secs_f64(),
        report.requests
    );
    assert_eq!(total, TASKS as usize);
}
