//! The layer ladder and the direct per-layer loops of the traced run.
//!
//! The benchmark cannot see inside `figure_6`, so the per-layer split is a
//! ladder: one closed-loop put / get / delete body (32 actors, 8 KB
//! messages, one queue per actor) run on increasingly complete stacks —
//! event heap → executor → `Cluster::submit` called directly → the full
//! `QueueClient` + `VirtualEnv` + `Simulation<Cluster>` stack → + each
//! recorder and the resilience layer. A layer's cost is the difference
//! from the rung below. Every rung is timed `REPEATS` times and the
//! fastest taken: the host's interference only ever adds time, and the
//! differences between rungs are too small to survive a median of three.
//!
//! Only public functions of the library crates are called.

use crate::alloc;
use crate::spans::Spans;
use crate::workloads::{hot_queue, NullModel};
use azsim_blob::BlobStore;
use azsim_client::{Environment, QueueClient, ResilientPolicy, VirtualEnv};
use azsim_core::heap::EventKey;
use azsim_core::resource::{FifoServer, Pipe, TokenBucket};
use azsim_core::runtime::ActorId;
use azsim_core::stats::Histogram;
use azsim_core::{
    EventHeap, GaugeRecorder, ShardPlan, ShardedSimulation, SimTime, Simulation, WindowTuning,
};
use azsim_fabric::Cluster;
use azsim_framework::taskqueue::TaskQueue;
use azsim_queue::QueueStore;
use azsim_storage::message::{MessageId, PopReceipt};
use azsim_storage::{Entity, EtagCondition, PropValue, StorageOk, StorageRequest};
use azsim_table::TableStore;
use azurebench::payload::PayloadGen;
use azurebench::{alg3_queue, chaos, BenchConfig};
use bytes::Bytes;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 2012;
const ACTORS: usize = 32;
const MSG: usize = 8 << 10;
const REPEATS: usize = 3;

/// Iteration counts of every loop; the smoke variant only proves the code
/// paths run.
struct Sizes {
    heap_events: u64,
    engine_calls: [(usize, u64); 3],
    shard_free: (usize, u64),
    shard_windowed: (usize, u64),
    micro: u64,
    store_iters: u64,
    blob_chunks: usize,
    ladder_iters: usize,
    knee: (usize, usize),
    /// Queues past the gauge-bucket budget, and requests timed across them.
    overbudget: (usize, usize),
    tasks: u32,
    /// Fresh generators that each materialize a rotation of this many bytes.
    payload_fresh: (u64, usize),
    sweep: (f64, &'static [usize]),
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            heap_events: 2_000,
            engine_calls: [(32, 50), (200, 5), (400, 3)],
            shard_free: (64, 20),
            shard_windowed: (64, 10),
            micro: 2_000,
            store_iters: 200,
            blob_chunks: 2,
            ladder_iters: 20,
            knee: (8, 30),
            overbudget: (40, 60),
            tasks: 20,
            payload_fresh: (1, 16 << 10),
            sweep: (0.002, &[1, 2]),
        }
    } else {
        Sizes {
            heap_events: 2_000_000,
            engine_calls: [(32, 50_000), (100_000, 16), (1_000_000, 4)],
            shard_free: (100_000, 16),
            shard_windowed: (1_000_000, 4),
            micro: 2_000_000,
            store_iters: 100_000,
            blob_chunks: 64,
            ladder_iters: 3_000,
            knee: (96, 500),
            overbudget: (2_304, 1_200),
            tasks: 20_000,
            payload_fresh: (100, 1 << 20),
            sweep: (0.1, &[1, 2, 4, 8, 16, 32, 48, 64, 80, 96]),
        }
    }
}

/// Seconds `f` takes.
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Fastest of `REPEATS` timings of `f`, with the last result.
fn fastest<R>(mut f: impl FnMut() -> (R, f64)) -> (R, f64) {
    let (mut out, mut best) = f();
    for _ in 1..REPEATS {
        let (r, s) = f();
        out = r;
        best = best.min(s);
    }
    (out, best)
}

/// Named per-layer values, in table order.
pub type Layers = Vec<(&'static str, f64)>;

/// Run every ladder rung and direct loop; each is one span under `ladder`.
pub fn run(spans: &mut Spans, smoke: bool) -> Layers {
    let z = sizes(smoke);
    let mut out = Layers::new();
    spans.span("ladder", |spans| {
        spans.span("ladder.simcore", |_| simcore(&z, &mut out));
        spans.span("ladder.stores", |_| stores(&z, &mut out));
        spans.span("ladder.stack", |_| stack(&z, &mut out));
        spans.span("ladder.misc", |_| misc(&z, &mut out));
    });
    out
}

// ---------------------------------------------------------------------------
// simcore: heap, executor, shards, resources, recorders.
// ---------------------------------------------------------------------------

/// `per_actor` back-to-back calls, summing the echoed replies.
async fn null_loop(ctx: azsim_core::ActorCtx<NullModel>, per_actor: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..per_actor {
        acc = acc.wrapping_add(ctx.call(i).await);
    }
    acc
}

fn heap_cycle(events: u64, out_of_order: bool) -> f64 {
    let mut heap = EventHeap::with_capacity(ACTORS);
    for a in 0..ACTORS {
        heap.push(
            EventKey {
                time: SimTime(a as u64),
                actor: ActorId(a),
                seq: 0,
            },
            a,
        );
    }
    let ((), secs) = time(|| {
        for i in 0..events {
            let (key, v) = heap.pop().expect("heap stays full");
            // Monotone keys land on the heap's in-order tail; a step that
            // depends on the actor scatters them through the sift path.
            let step = if out_of_order {
                1 + (key.actor.0 as u64 * 2_654_435_761) % 4_096
            } else {
                ACTORS as u64
            };
            heap.push(
                EventKey {
                    time: SimTime(key.time.0 + step),
                    actor: key.actor,
                    seq: i,
                },
                v,
            );
        }
        black_box(&heap);
    });
    secs * 1e9 / events as f64
}

fn simcore(z: &Sizes, out: &mut Layers) {
    out.push((
        "simcore.heap.ns_per_event",
        fastest(|| ((), heap_cycle(z.heap_events, false))).1,
    ));
    out.push((
        "simcore.heap.ooo_ns_per_event",
        fastest(|| ((), heap_cycle(z.heap_events, true))).1,
    ));

    let names = [
        "simcore.runtime.ns_per_call",
        "simcore.runtime.ns_per_call_100k",
        "simcore.runtime.ns_per_call_1m",
    ];
    for (name, &(actors, per_actor)) in names.iter().zip(&z.engine_calls) {
        let calls = actors as u64 * per_actor;
        let (allocs, secs) = fastest(|| {
            let ((report, allocs), secs) = time(|| {
                alloc::allocs_during(|| {
                    Simulation::new(NullModel, 1)
                        .run_workers(actors, move |ctx| null_loop(ctx, per_actor))
                })
            });
            assert_eq!(report.requests, calls);
            (allocs, secs)
        });
        out.push((name, secs * 1e9 / calls as f64));
        if actors == ACTORS {
            // Launch allocates a fixed handful; steady state none.
            out.push((
                "simcore.runtime.allocs_per_call",
                allocs as f64 / calls as f64,
            ));
        }
    }

    let sharded = |(actors, per_actor): (usize, u64), windowed: bool| {
        let mut plan = ShardPlan::striped(actors, actors as u32, 2);
        if windowed {
            plan = plan
                .with_hop(Duration::from_micros(2))
                .with_window_tuning(WindowTuning::Adaptive { target: 0.25 });
        }
        let (report, secs) = time(|| {
            ShardedSimulation::new(NullModel, 1, plan)
                .run_workers(move |ctx| null_loop(ctx, per_actor))
        });
        assert_eq!(report.requests, actors as u64 * per_actor);
        (report, secs * 1e9 / (actors as u64 * per_actor) as f64)
    };
    let (free, ns) = sharded(z.shard_free, false);
    out.push(("simcore.shard.ns_per_call_2s", ns));
    let mean = free.shard_events.iter().sum::<u64>() as f64 / free.shard_events.len() as f64;
    let most = free.shard_events.iter().copied().max().unwrap_or(0) as f64;
    out.push(("simcore.shard.imbalance", most / mean));
    let (windowed, ns) = sharded(z.shard_windowed, true);
    out.push(("simcore.shard.windowed_ns_per_call_2s", ns));
    let active: Vec<f64> = windowed
        .window_stats
        .iter()
        .filter(|w| w.windows > 0)
        .map(|w| w.mean_multiple)
        .collect();
    out.push((
        "simcore.shard.window_multiple",
        active.iter().sum::<f64>() / active.len().max(1) as f64,
    ));

    let n = z.micro;
    let per = |secs: f64| secs * 1e9 / n as f64;
    let mut bucket = TokenBucket::new(1e6, 1e6);
    let ((), secs) = time(|| {
        for i in 0..n {
            black_box(bucket.acquire(SimTime(i * 10_000), 1.0));
        }
    });
    out.push(("simcore.resource.bucket_ns_per_acquire", per(secs)));
    let mut fifo = FifoServer::new();
    let ((), secs) = time(|| {
        for i in 0..n {
            black_box(fifo.admit(SimTime(i * 100), Duration::from_nanos(250)));
        }
    });
    out.push(("simcore.resource.fifo_ns_per_admit", per(secs)));
    let mut pipe = Pipe::new(1e9);
    let ((), secs) = time(|| {
        for i in 0..n {
            black_box(pipe.transfer(SimTime(i * 1_000), MSG as u64));
        }
    });
    out.push(("simcore.resource.pipe_ns_per_transfer", per(secs)));
    let mut hist = Histogram::new();
    let ((), secs) = time(|| {
        for i in 0..n {
            hist.record(1e-6 * (1 + i % 10_000) as f64);
        }
        black_box(hist.count());
    });
    out.push(("simcore.stats.hist_ns_per_record", per(secs)));
    let mut rec = GaugeRecorder::new(Duration::from_millis(5));
    let gauge = rec.register_gauge("g", "x");
    let ((), secs) = time(|| {
        for i in 0..n {
            rec.record_gauge(gauge, SimTime(i * 50_000), i as f64);
        }
        black_box(rec.total_buckets());
    });
    out.push(("simcore.timeline.gauge_ns_per_sample", per(secs)));
}

// ---------------------------------------------------------------------------
// The three stores, called directly: no fabric, no executor.
// ---------------------------------------------------------------------------

fn stores(z: &Sizes, out: &mut Layers) {
    let n = z.store_iters;
    let payload = Bytes::from(vec![7u8; MSG]);

    let mut queues = QueueStore::new(SEED, 0.0);
    queues.create_queue("q").expect("create queue");
    let ((), secs) = time(|| {
        for i in 0..n {
            let now = SimTime(i * 1_000_000);
            queues.put(now, "q", payload.clone(), None).expect("put");
            let m = queues
                .get(now, "q", Duration::from_secs(30))
                .expect("get")
                .expect("message queued");
            queues
                .delete_message("q", m.id, m.pop_receipt)
                .expect("delete");
        }
    });
    out.push(("queue.store.ns_per_op", secs * 1e9 / (3 * n) as f64));

    let mut tables = TableStore::new();
    tables.create_table("t").expect("create table");
    let ((), secs) = time(|| {
        for i in 0..n {
            let row = i.to_string();
            let entity = Entity::new("p", &row).with("v", PropValue::Binary(payload.clone()));
            tables.insert("t", entity.clone()).expect("insert");
            black_box(tables.query("t", "p", &row).expect("query"));
            tables
                .update("t", entity, EtagCondition::Any)
                .expect("update");
            tables
                .delete("t", "p", &row, EtagCondition::Any)
                .expect("delete");
        }
    });
    out.push(("table.store.ns_per_op", secs * 1e9 / (4 * n) as f64));

    // Blobs: stage / write every chunk, read every chunk back, download
    // the whole blob — the byte path of Algorithm 1 without the fabric.
    let chunks = z.blob_chunks;
    let chunk = Bytes::from(vec![1u8; 1 << 20]);
    let moved_mb = (3 * chunks) as f64;
    let ((), secs) = fastest(|| {
        time(|| {
            let mut blobs = BlobStore::new();
            blobs.create_container("c").expect("container");
            let ids: Vec<String> = (0..chunks).map(|i| format!("{i:06}")).collect();
            for id in &ids {
                blobs
                    .put_block("c", "b", id.clone(), chunk.clone())
                    .expect("put block");
            }
            blobs.put_block_list("c", "b", &ids).expect("commit");
            for i in 0..chunks {
                black_box(blobs.get_block("c", "b", i).expect("get block"));
            }
            black_box(blobs.download("c", "b").expect("download").len());
        })
    });
    out.push(("blob.store.block_ns_per_mb", secs * 1e9 / moved_mb));
    let ((), secs) = fastest(|| {
        time(|| {
            let mut blobs = BlobStore::new();
            blobs.create_container("c").expect("container");
            blobs
                .create_page_blob("c", "p", (chunks as u64) << 20)
                .expect("page blob");
            for i in 0..chunks as u64 {
                blobs
                    .put_page("c", "p", i << 20, chunk.clone())
                    .expect("put page");
            }
            for i in 0..chunks as u64 {
                black_box(
                    blobs
                        .get_page("c", "p", i << 20, 1 << 20)
                        .expect("get page"),
                );
            }
            black_box(blobs.download("c", "p").expect("download").len());
        })
    });
    out.push(("blob.store.page_ns_per_mb", secs * 1e9 / moved_mb));
}

// ---------------------------------------------------------------------------
// The ladder proper: submit → full stack → + recorders → + resilience.
// ---------------------------------------------------------------------------

/// Requests one ladder run makes: a create, then put / get / delete per
/// iteration, per actor.
fn ladder_ops(iters: usize) -> u64 {
    (ACTORS * (1 + 3 * iters)) as u64
}

/// `Cluster::submit` called directly on per-actor queues: no executor, no
/// client. Each actor's clock advances to its reply, as in a closed loop.
/// Returns `(allocations, seconds)`.
fn submit_rung(mut cluster: Cluster, queues: usize, requests: usize) -> (u64, f64) {
    let names: Vec<String> = (0..queues).map(|q| format!("ladder-{q}")).collect();
    let mut clock = vec![SimTime::ZERO; queues];
    for (q, name) in names.iter().enumerate() {
        let req = StorageRequest::CreateQueue {
            queue: name.clone(),
        };
        let (done, res) = cluster.submit(clock[q], q % ACTORS, &req);
        res.expect("create queue");
        clock[q] = done;
    }
    // The three requests of each queue are built once, outside the timed
    // and allocation-counted region, so what is measured is `submit` and
    // not the harness cloning queue names; the delete is patched in place.
    let payload = Bytes::from(vec![7u8; MSG]);
    let mut trios: Vec<[StorageRequest; 3]> = names
        .iter()
        .map(|name| {
            [
                StorageRequest::PutMessage {
                    queue: name.clone(),
                    data: payload.clone(),
                    ttl: None,
                },
                StorageRequest::GetMessage {
                    queue: name.clone(),
                    visibility_timeout: Duration::from_secs(30),
                },
                StorageRequest::DeleteMessage {
                    queue: name.clone(),
                    id: MessageId(0),
                    pop_receipt: PopReceipt(0),
                },
            ]
        })
        .collect();
    let (((), allocs), secs) = time(|| {
        alloc::allocs_during(|| {
            for i in 0..requests / 3 {
                let q = i % queues;
                let actor = q % ACTORS;
                let [put, get, delete] = &mut trios[q];
                let (t, res) = cluster.submit(clock[q], actor, put);
                res.expect("put");
                let (t, res) = cluster.submit(t, actor, get);
                let Ok(StorageOk::Message(Some(msg))) = res else {
                    panic!("get must return the message just put");
                };
                if let StorageRequest::DeleteMessage {
                    id, pop_receipt, ..
                } = delete
                {
                    (*id, *pop_receipt) = (msg.id, msg.pop_receipt);
                }
                let (t, res) = cluster.submit(t, actor, delete);
                res.expect("delete");
                clock[q] = t;
            }
        })
    });
    assert_eq!(cluster.metrics().total_throttled(), 0, "uncontended rung");
    (allocs, secs)
}

/// The full stack: `QueueClient` over `VirtualEnv` on `Simulation<Cluster>`.
/// `resilient` swaps the paper's retry loop for a `ResilientPolicy`.
/// Returns `(allocations, seconds)`.
fn stack_rung(cluster: Cluster, iters: usize, resilient: bool) -> (u64, f64) {
    let ((report, allocs), secs) = time(|| {
        alloc::allocs_during(|| {
            Simulation::new(cluster, SEED).run_workers(ACTORS, |ctx| async move {
                let env = VirtualEnv::new(&ctx);
                let me = env.instance();
                let mut queue = QueueClient::new(&env, format!("ladder-{me}"));
                if resilient {
                    queue = queue.with_policy(ResilientPolicy::new(SEED ^ me as u64));
                }
                queue.create().await.expect("create queue");
                let mut gen = PayloadGen::new(SEED, me as u64);
                for _ in 0..iters {
                    queue.put_message(gen.bytes(MSG)).await.expect("put");
                    let msg = queue
                        .get_message()
                        .await
                        .expect("get")
                        .expect("message queued");
                    queue.delete_message(&msg).await.expect("delete");
                }
            })
        })
    });
    assert_eq!(report.requests, ladder_ops(iters), "no retries expected");
    (allocs, secs)
}

fn stack(z: &Sizes, out: &mut Layers) {
    let iters = z.ladder_iters;
    let ops = ladder_ops(iters) as f64;
    let per_op = |secs: f64| secs * 1e9 / ops;
    /// A default cluster with `setup` applied.
    fn cluster(setup: impl Fn(&mut Cluster)) -> Cluster {
        let mut c = Cluster::with_defaults();
        setup(&mut c);
        c
    }
    let rung = |setup: &dyn Fn(&mut Cluster), resilient: bool| {
        fastest(|| stack_rung(cluster(setup), iters, resilient))
    };

    let (submit_allocs, submit_s) =
        fastest(|| submit_rung(cluster(|_| {}), ACTORS, 3 * ACTORS * iters));
    let submit_ops = (3 * ACTORS * iters) as f64;
    let submit_ns = submit_s * 1e9 / submit_ops;
    out.push(("fabric.cluster.submit_ns_per_op", submit_ns));
    out.push((
        "fabric.cluster.submit_allocs_per_op",
        submit_allocs as f64 / submit_ops,
    ));

    let (stack_allocs, stack_s) = rung(&|_| {}, false);
    out.push(("client.stack.ns_per_op", per_op(stack_s)));
    out.push(("client.stack.allocs_per_op", stack_allocs as f64 / ops));
    let runtime_ns = out
        .iter()
        .find(|(n, _)| *n == "simcore.runtime.ns_per_call")
        .map_or(0.0, |(_, v)| *v);
    out.push((
        "client.self_ns_per_op",
        per_op(stack_s) - submit_ns - runtime_ns,
    ));

    let over = |name: &'static str, setup: &dyn Fn(&mut Cluster), out: &mut Layers| {
        out.push((name, per_op(rung(setup, false).1 - stack_s)));
    };
    over(
        "fabric.trace.overhead_ns_per_op",
        &Cluster::enable_phase_profiling,
        out,
    );
    over(
        "fabric.trace.records_overhead_ns_per_op",
        &|c| c.enable_tracing(ladder_ops(iters) as usize + 1_024),
        out,
    );
    let timeline_on = |c: &mut Cluster| c.enable_timeline(azurebench::timeline::DEFAULT_RESOLUTION);
    over("fabric.timeline.overhead_ns_per_op", &timeline_on, out);
    over(
        "fabric.faults.overhead_ns_per_op",
        &|c| {
            // A live plan whose windows never open inside this run: the
            // cost is the per-request fault decision, not retries.
            let mut plan = chaos::chaos_plan(&BenchConfig::paper(), 0.5);
            plan.timeout_prob = 0.0;
            plan.replica_stall_prob = 0.0;
            for storm in &mut plan.busy_storms {
                storm.at = SimTime::from_secs(1_000_000);
            }
            for crash in &mut plan.crashes {
                crash.at = SimTime::from_secs(1_000_000);
            }
            c.set_fault_plan(plan);
        },
        out,
    );
    over(
        "fabric.verify.history_overhead_ns_per_op",
        &Cluster::enable_history,
        out,
    );
    out.push((
        "client.resilience.overhead_ns_per_op",
        per_op(rung(&|_| {}, true).1 - stack_s),
    ));

    // Past the gauge-bucket budget: the same direct loop spread over more
    // queue partitions than `ClusterTimeline::BUCKET_BUDGET` leaves eight
    // buckets for, with the timeline on and off.
    let (queues, requests) = z.overbudget;
    let (_, off_s) = submit_rung(cluster(|_| {}), queues, requests);
    let (_, on_s) = submit_rung(cluster(timeline_on), queues, requests);
    out.push((
        "fabric.timeline.overbudget_ns_per_op",
        (on_s - off_s) * 1e9 / (requests / 3 * 3) as f64,
    ));

    // The knee: 96 workers on one queue through the full stack.
    let (workers, knee_iters) = z.knee;
    let (hot, secs) = time(|| hot_queue(SEED, workers, knee_iters));
    let logical = (workers * (1 + 3 * knee_iters)) as f64;
    out.push((
        "fabric.cluster.knee_ns_per_op",
        secs * 1e9 / hot.requests as f64,
    ));
    out.push((
        "fabric.cluster.knee_throttled_share",
        hot.throttled as f64 / hot.requests as f64,
    ));
    out.push((
        "client.retry.retries_per_op",
        (hot.requests as f64 - logical) / logical,
    ));

    // Snapshot and the three export formats of a cluster that has served
    // one ladder run with phase profiling on.
    let profiled = cluster(Cluster::enable_phase_profiling);
    let report = Simulation::new(profiled, SEED).run_workers(ACTORS, |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let queue = QueueClient::new(&env, format!("ladder-{}", env.instance()));
        queue.create().await.expect("create queue");
        let mut gen = PayloadGen::new(SEED, env.instance() as u64);
        for _ in 0..iters.min(200) {
            queue.put_message(gen.bytes(MSG)).await.expect("put");
        }
    });
    let (snapshot, secs) = fastest(|| time(|| report.model.snapshot()));
    out.push(("fabric.metrics.snapshot_ms", secs * 1e3));
    let ((), secs) = fastest(|| {
        time(|| {
            black_box(snapshot.to_json().len());
            black_box(snapshot.to_prometheus().len());
            black_box(snapshot.to_otlp_json(&[("azbench.rung", "export")]).len());
        })
    });
    out.push(("fabric.metrics.export_ms", secs * 1e3));
}

// ---------------------------------------------------------------------------
// Framework, payload generator, sweep engine.
// ---------------------------------------------------------------------------

fn misc(z: &Sizes, out: &mut Layers) {
    let tasks = z.tasks;
    let (report, secs) = time(|| {
        Simulation::new(Cluster::with_defaults(), SEED).run_workers(ACTORS, |ctx| async move {
            let env = VirtualEnv::new(&ctx);
            let queue: TaskQueue<_, u32> =
                TaskQueue::new(&env, format!("tasks-{}", env.instance()));
            queue.init().await.expect("init");
            let mine = tasks / ACTORS as u32;
            for t in 0..mine {
                queue.submit(&t).await.expect("submit");
                let claimed = queue.claim().await.expect("claim").expect("task queued");
                queue.complete(&claimed).await.expect("complete");
            }
            mine
        })
    });
    let done: u32 = report.results.iter().sum();
    out.push((
        "framework.taskqueue.ns_per_task",
        secs * 1e9 / f64::from(done.max(1)),
    ));

    let n = z.micro;
    let mut gen = PayloadGen::new(SEED, 0);
    black_box(gen.bytes(MSG));
    let ((), secs) = time(|| {
        for _ in 0..n {
            black_box(gen.bytes(MSG));
        }
    });
    out.push(("core.payload.ns_per_call", secs * 1e9 / n as f64));
    // Fresh generators: the cost of materializing the 1 MB rotation, which
    // every Algorithm 1 worker pays once.
    let (gens, block) = z.payload_fresh;
    let ((), secs) = time(|| {
        for stream in 0..gens {
            let mut gen = PayloadGen::new(SEED, stream);
            for _ in 0..azurebench::payload::BLOCK_ROTATION {
                black_box(gen.bytes(block));
            }
        }
    });
    let mb =
        (gens as usize * azurebench::payload::BLOCK_ROTATION * block) as f64 / (1 << 20) as f64;
    out.push(("core.payload.mb_per_s", mb / secs));

    let (scale, workers) = z.sweep;
    let cfg = BenchConfig::paper()
        .with_scale(scale)
        .with_workers(workers.to_vec());
    let sweep = |threads: usize| {
        let cfg = cfg.clone().with_sweep_threads(threads);
        fastest(|| time(|| black_box(alg3_queue::figure_6(&cfg)).len())).1
    };
    out.push(("core.sweep.speedup_2t", sweep(1) / sweep(2)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ladder_reports_finite_values_once_each() {
        let layers = run(&mut Spans::new(false), true);
        let mut seen = std::collections::BTreeSet::new();
        for (name, value) in &layers {
            assert!(value.is_finite(), "{name} = {value}");
            assert!(seen.insert(*name), "{name} reported twice");
        }
        assert!(seen.contains("client.stack.ns_per_op"));
        assert!(seen.contains("fabric.cluster.knee_throttled_share"));
    }
}
