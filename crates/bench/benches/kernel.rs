//! Microbenchmarks of the simulation kernel: how expensive is simulating?

use azsim_core::heap::EventKey;
use azsim_core::resource::{FifoServer, Pipe, TokenBucket};
use azsim_core::runtime::{ActorId, Model};
use azsim_core::{
    EventHeap, ShardPlan, ShardedSimulation, SimTime, Simulation, ThreadedSimulation,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_event_heap(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/event_heap");
    for n in [1_000usize, 100_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut h = EventHeap::new();
                for i in 0..n {
                    h.push(
                        EventKey {
                            time: SimTime((i as u64 * 2_654_435_761) % 1_000_000),
                            actor: ActorId(i % 64),
                            seq: i as u64,
                        },
                        i,
                    );
                }
                let mut acc = 0usize;
                while let Some((_, v)) = h.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_resources(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/resources");
    g.bench_function("fifo_admit", |b| {
        let mut s = FifoServer::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            black_box(s.admit(SimTime(t), Duration::from_nanos(250)))
        })
    });
    g.bench_function("pipe_transfer_1mb", |b| {
        let mut p = Pipe::new(1e9);
        let mut t = 0u64;
        b.iter(|| {
            t += 1_000_000;
            black_box(p.transfer(SimTime(t), 1 << 20))
        })
    });
    g.bench_function("token_bucket_acquire", |b| {
        let mut tb = TokenBucket::new(1e6, 1e6);
        let mut t = 0u64;
        b.iter(|| {
            t += 10_000;
            black_box(tb.acquire(SimTime(t), 1.0))
        })
    });
    g.finish();
}

/// A trivial model so the measured cost is the runtime itself (channel
/// hops, heap events, context switches) — the per-op overhead every
/// simulated storage call pays.
struct NullModel;
impl Model for NullModel {
    type Req = u64;
    type Resp = u64;
    fn handle(&mut self, now: SimTime, _actor: ActorId, req: u64) -> (SimTime, u64) {
        (now + Duration::from_micros(1), req)
    }
}
impl azsim_core::ShardableModel for NullModel {
    fn split(self, partitions: u32) -> Vec<Self> {
        (0..partitions).map(|_| NullModel).collect()
    }
    fn merge(_parts: Vec<Self>) -> Self {
        NullModel
    }
}

fn bench_virtual_runtime(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/virtual_runtime");
    g.sample_size(10);
    for workers in [1usize, 8, 32] {
        g.bench_with_input(
            BenchmarkId::new("roundtrips_1k_per_worker", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let sim = Simulation::new(NullModel, 1);
                    let report = sim.run_workers(workers, |ctx| async move {
                        let mut acc = 0u64;
                        for i in 0..1_000u64 {
                            acc = acc.wrapping_add(ctx.call(i).await);
                        }
                        acc
                    });
                    black_box(report.requests)
                })
            },
        );
    }
    g.finish();
}

/// Engine throughput under lockstep timers: every actor's timer fires at
/// the same virtual instant, so each scheduling round batch-wakes the whole
/// fleet. This is the hot path of the barrier-heavy benchmarks — per-round
/// cost should stay flat in ops/sec terms as the fleet grows.
fn bench_batch_wake(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/batch_wake");
    g.sample_size(10);
    for workers in [8usize, 64] {
        g.bench_with_input(
            BenchmarkId::new("lockstep_timers_1k", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let sim = Simulation::new(NullModel, 1);
                    let report = sim.run_workers(workers, |ctx| async move {
                        for _ in 0..1_000 {
                            ctx.sleep(Duration::from_micros(100)).await;
                        }
                    });
                    black_box(report.end_time)
                })
            },
        );
    }
    g.finish();
}

/// Handoff cost across executors: the same program (back-to-back model
/// calls, each one a virtual-time handoff) on the coroutine executor vs
/// the retained thread-backed reference executor. A coroutine handoff is a
/// poll (function call); a threaded handoff is a mutex/condvar park-unpark
/// round trip — this group keeps that gap visible in CI.
fn bench_handoff_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/handoff");
    g.sample_size(10);
    for workers in [8usize, 128] {
        g.bench_with_input(
            BenchmarkId::new("coroutine", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let sim = Simulation::new(NullModel, 1);
                    let report = sim.run_workers(workers, |ctx| async move {
                        for i in 0..200u64 {
                            black_box(ctx.call(i).await);
                        }
                    });
                    black_box(report.requests)
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("threaded", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let sim = ThreadedSimulation::new(NullModel, 1);
                    let report = sim.run_workers(workers, |ctx| {
                        for i in 0..200u64 {
                            black_box(ctx.call(i));
                        }
                    });
                    black_box(report.requests)
                })
            },
        );
    }
    g.finish();
}

/// The engine ladder across executors: the serial coroutine executor vs the
/// sharded executor (striped one-partition-per-actor plan, free-running
/// shards) at 1, 2 and 4 shards. On a multi-core box the sharded rungs
/// should pull ahead of serial from a few hundred actors up — this is the
/// scaling-cliff group; `figures bench` records the same ladder to
/// `BENCH_history.jsonl` with per-shard event counts.
fn bench_sharded_ladder(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel/sharded_ladder");
    g.sample_size(10);
    // Per-actor call counts shrink as the rung grows so every rung stays
    // near a constant total-op budget (the 10 000-actor rung is the dense
    // per-shard-arena territory where cache locality, not algorithmic
    // overhead, sets the rate).
    for (actors, per_actor) in [(32usize, 1_000u64), (512, 1_000), (10_000, 64)] {
        let body = move |ctx: azsim_core::ActorCtx<NullModel>| async move {
            let mut acc = 0u64;
            for i in 0..per_actor {
                acc = acc.wrapping_add(ctx.call(i).await);
            }
            acc
        };
        g.bench_with_input(BenchmarkId::new("serial", actors), &actors, |b, &actors| {
            b.iter(|| {
                let report = Simulation::new(NullModel, 1).run_workers(actors, body);
                black_box(report.requests)
            })
        });
        for shards in [2u32, 4] {
            g.bench_with_input(
                BenchmarkId::new(format!("shards_{shards}"), actors),
                &actors,
                |b, &actors| {
                    b.iter(|| {
                        let plan = ShardPlan::striped(actors, actors as u32, shards);
                        let report = ShardedSimulation::new(NullModel, 1, plan).run_workers(body);
                        black_box(report.requests)
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_event_heap,
    bench_resources,
    bench_virtual_runtime,
    bench_batch_wake,
    bench_handoff_cost,
    bench_sharded_ladder
);
criterion_main!(benches);
