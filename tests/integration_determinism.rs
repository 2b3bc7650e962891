//! Integration: reproducibility guarantees of the whole stack — identical
//! seeds must give bit-identical figures, different seeds must differ.

use azsim_client::VirtualEnv;
use azsim_core::Simulation;
use azsim_fabric::Cluster;
use azurebench::alg3_queue::{run_alg3, QueueOp};
use azurebench::alg5_table::run_alg5;
use azurebench::{alg3_queue, fig9, BenchConfig};

#[test]
fn alg3_is_bit_deterministic() {
    let cfg = BenchConfig::paper().with_scale(0.01);
    let a = run_alg3(&cfg, 4);
    let b = run_alg3(&cfg, 4);
    assert_eq!(a.len(), b.len());
    for (k, v) in &a {
        assert_eq!(v, &b[k], "mismatch at {k:?}");
    }
}

#[test]
fn alg5_is_bit_deterministic() {
    let cfg = BenchConfig::paper().with_scale(0.01);
    let a = run_alg5(&cfg, 3);
    let b = run_alg5(&cfg, 3);
    for (k, v) in &a {
        assert_eq!(v, &b[k], "mismatch at {k:?}");
    }
}

#[test]
fn different_seeds_change_fuzzed_behaviour_not_shapes() {
    let mut cfg_a = BenchConfig::paper().with_scale(0.01);
    cfg_a.seed = 1;
    let mut cfg_b = cfg_a.clone();
    cfg_b.seed = 2;
    let a = run_alg3(&cfg_a, 2);
    let b = run_alg3(&cfg_b, 2);
    // The paper-level shape (peek < put < get) holds under both seeds.
    for r in [&a, &b] {
        let size = 32 << 10;
        assert!(r[&(size, QueueOp::Peek)].1 < r[&(size, QueueOp::Put)].1);
        assert!(r[&(size, QueueOp::Put)].1 < r[&(size, QueueOp::Get)].1);
    }
}

#[test]
fn parallel_and_serial_sweeps_emit_identical_csvs() {
    // The sweep engine runs ladder points on OS threads; the emitted CSVs
    // must be byte-identical to the single-threaded schedule.
    let base = BenchConfig::paper()
        .with_scale(0.02)
        .with_workers(vec![1, 2, 4]);
    let serial = base.clone().with_sweep_threads(1);
    let parallel = base.with_sweep_threads(4);

    let a = fig9::figure_9(&serial).to_csv();
    let b = fig9::figure_9(&parallel).to_csv();
    assert_eq!(a, b, "fig9 CSV differs between schedules");

    let fa = alg3_queue::figure_6(&serial);
    let fb = alg3_queue::figure_6(&parallel);
    assert_eq!(fa.len(), fb.len());
    for (x, y) in fa.iter().zip(&fb) {
        assert_eq!(
            x.to_csv(),
            y.to_csv(),
            "{} CSV differs between schedules",
            x.id
        );
    }
}

#[test]
fn fig9_extrapolation_is_deterministic_across_schedules() {
    // The 256-worker extrapolation point (figures --extrapolate) is a
    // committed golden artifact: identical between runs and between the
    // serial and parallel sweep schedules, with the beyond-paper ladder
    // point always present and always last.
    let base = BenchConfig::paper().with_scale(0.005).with_workers(vec![1]);
    let serial = base.clone().with_sweep_threads(1);
    let parallel = base.with_sweep_threads(4);

    let a = fig9::figure_9_extrapolated(&serial);
    let b = fig9::figure_9_extrapolated(&parallel);
    assert_eq!(
        a.to_csv(),
        b.to_csv(),
        "fig9-extrapolated CSV differs between schedules"
    );
    for s in &a.series {
        assert_eq!(
            s.points.last().map(|(x, _)| *x),
            Some(fig9::EXTRAPOLATE_WORKERS as f64),
            "series {} must end at the extrapolation point",
            s.name
        );
    }
}

#[test]
fn profile_json_is_golden_across_runs_and_schedules() {
    // The `figures profile` export is a golden artifact: the same config
    // and seed must serialize byte-identically run to run AND between the
    // serial and parallel sweep schedules (the JSON deliberately excludes
    // `sweep_threads`, the only config knob allowed to differ).
    let base = BenchConfig::paper()
        .with_scale(0.02)
        .with_workers(vec![1, 2, 4]);
    let serial = base.clone().with_sweep_threads(1);
    let parallel = base.with_sweep_threads(4);

    let a = azurebench::profile::run_profile(&serial, &serial.workers, 8).to_json();
    let b = azurebench::profile::run_profile(&serial, &serial.workers, 8).to_json();
    assert_eq!(a, b, "profile.json differs between identical runs");

    let c = azurebench::profile::run_profile(&parallel, &parallel.workers, 8).to_json();
    assert_eq!(a, c, "profile.json differs between --threads 1 and 4");

    let pa = azurebench::profile::run_profile(&serial, &serial.workers, 8).to_prometheus();
    let pc = azurebench::profile::run_profile(&parallel, &parallel.workers, 8).to_prometheus();
    assert_eq!(pa, pc, "prometheus export differs between schedules");
}

#[test]
fn full_stack_trace_is_reproducible() {
    // Drive a mixed workload and compare end times and server metrics.
    let run = || {
        let sim = Simulation::new(Cluster::with_defaults(), 12345);
        let report = sim.run_workers(8, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let q = azsim_client::QueueClient::new(&env, format!("d{}", ctx.id().0 % 3));
            q.create().await.unwrap();
            for i in 0..20u32 {
                let jitter: u64 = ctx.with_rng(|r| rand::Rng::random_range(r, 0..10_000));
                ctx.sleep(std::time::Duration::from_micros(jitter)).await;
                q.put_message(bytes::Bytes::from(i.to_le_bytes().to_vec()))
                    .await
                    .unwrap();
                if let Some(m) = q.get_message().await.unwrap() {
                    q.delete_message(&m).await.unwrap();
                }
            }
            ctx.now()
        });
        let completed = report.model.metrics().total_completed();
        (report.results, report.end_time, completed, report.requests)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "per-worker end times differ");
    assert_eq!(a.1, b.1, "global end time differs");
    assert_eq!(a.2, b.2, "op counts differ");
    assert_eq!(a.3, b.3, "request counts differ");
}
