//! Integration: live mode — the same cluster model driven by real threads
//! in (heavily time-scaled) wall-clock time, as the examples use it.

use azsim_client::{BlobClient, LiveCluster, QueueClient, TableClient};
use azsim_core::block_on;
use azsim_fabric::{BackendKind, ClusterParams};
use azsim_storage::{Entity, PropValue, StorageError, TableBatchOp};
use bytes::Bytes;
use std::time::Duration;

/// Virtual seconds per real second for tests: modeled milliseconds become
/// host microseconds.
const FAST: f64 = 20_000.0;

#[test]
fn all_three_services_work_live() {
    let lc = LiveCluster::new(ClusterParams::default(), FAST);
    let env = lc.env(0);

    let blobs = BlobClient::new(&env, "live");
    block_on(blobs.create_container()).unwrap();
    block_on(blobs.upload("b", Bytes::from_static(b"live-blob"))).unwrap();
    assert_eq!(
        block_on(blobs.download("b")).unwrap(),
        Bytes::from_static(b"live-blob")
    );

    let q = QueueClient::new(&env, "live-q");
    block_on(q.create()).unwrap();
    block_on(q.put_message(Bytes::from_static(b"m"))).unwrap();
    let m = block_on(q.get_message()).unwrap().unwrap();
    block_on(q.delete_message(&m)).unwrap();

    let t = TableClient::new(&env, "live-t");
    block_on(t.create_table()).unwrap();
    block_on(t.insert(Entity::new("p", "r").with("v", PropValue::I64(1)))).unwrap();
    assert!(block_on(t.query("p", "r")).unwrap().is_some());
}

#[test]
fn live_mode_parallel_workers_drain_a_task_pool() {
    let lc = LiveCluster::new(ClusterParams::default(), FAST);
    let submit_env = lc.env(0);
    let q = QueueClient::new(&submit_env, "pool");
    block_on(q.create()).unwrap();
    let n_tasks = 40;
    for i in 0..n_tasks {
        block_on(q.put_message(Bytes::from(vec![i as u8]))).unwrap();
    }

    let counts: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=4)
            .map(|w| {
                let env = lc.env(w);
                s.spawn(move || {
                    let q = QueueClient::new(&env, "pool");
                    let mut done = 0;
                    while let Some(m) = block_on(q.get_message()).unwrap() {
                        block_on(q.delete_message(&m)).unwrap();
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(counts.iter().sum::<usize>(), n_tasks);
    assert_eq!(block_on(q.message_count()).unwrap(), 0);
}

#[test]
fn live_mode_visibility_timeout_uses_scaled_time() {
    let lc = LiveCluster::new(ClusterParams::default(), FAST);
    let env = lc.env(0);
    let q = QueueClient::new(&env, "vis");
    block_on(q.create()).unwrap();
    block_on(q.put_message(Bytes::from_static(b"t"))).unwrap();
    // 60 virtual seconds = 3 real milliseconds at scale 20 000.
    let m1 = block_on(q.get_message_with_visibility(Duration::from_secs(60)))
        .unwrap()
        .unwrap();
    assert!(
        block_on(q.get_message_with_visibility(Duration::from_secs(60)))
            .unwrap()
            .is_none()
    );
    std::thread::sleep(Duration::from_millis(10));
    let m2 = block_on(q.get_message_with_visibility(Duration::from_secs(60)))
        .unwrap()
        .unwrap();
    assert_eq!(m1.id, m2.id);
    assert_eq!(m2.dequeue_count, 2);
}

#[test]
fn entity_group_transaction_via_live_client() {
    let lc = LiveCluster::new(ClusterParams::default(), FAST);
    let env = lc.env(0);
    let t = TableClient::new(&env, "batch");
    block_on(t.create_table()).unwrap();
    let tags = block_on(t.execute_batch(
        "p",
        vec![
            TableBatchOp::Insert(Entity::new("p", "a").with("v", PropValue::I64(1))),
            TableBatchOp::Insert(Entity::new("p", "b").with("v", PropValue::I64(2))),
        ],
    ))
    .unwrap();
    assert_eq!(tags.len(), 2);
    assert_eq!(block_on(t.query_partition("p")).unwrap().len(), 2);

    // An atomic failure leaves no trace.
    let err = block_on(t.execute_batch(
        "p",
        vec![
            TableBatchOp::Insert(Entity::new("p", "c").with("v", PropValue::I64(3))),
            TableBatchOp::Insert(Entity::new("p", "a").with("v", PropValue::I64(9))), // dup
        ],
    ));
    assert!(err.is_err());
    assert_eq!(block_on(t.query_partition("p")).unwrap().len(), 2);
    assert!(block_on(t.query("p", "c")).unwrap().is_none());
}

#[test]
fn live_metrics_accumulate_across_threads() {
    let lc = LiveCluster::new(ClusterParams::default(), FAST);
    std::thread::scope(|s| {
        for w in 0..6 {
            let env = lc.env(w);
            s.spawn(move || {
                let q = QueueClient::new(&env, format!("m{w}"));
                block_on(q.create()).unwrap();
                for _ in 0..5 {
                    block_on(q.put_message(Bytes::from_static(b"x"))).unwrap();
                }
            });
        }
    });
    let puts = lc.with_cluster(|c| {
        c.metrics()
            .counter(azsim_storage::OpClass::QueuePut)
            .unwrap()
            .completed
    });
    assert_eq!(puts, 30);
}

/// `len` copies of one byte chosen by (worker, unit): every answer the
/// reduced Algorithm 1 + 3 workload expects is computed from this.
fn payload(worker: usize, unit: usize, len: usize) -> Bytes {
    Bytes::from(vec![((worker * 131 + unit * 31) % 251) as u8; len])
}

#[test]
fn reduced_alg1_alg3_reconciles_with_the_payload_function_on_every_backend() {
    // The client stack (block staging, indexed block reads, queue drain,
    // retries) over each backend profile returns exactly what the payload
    // function predicts. Drained payloads compare as a multiset: delivery
    // order is not a declared guarantee.
    const BLOCKS: usize = 4;
    const BLOCK_SIZE: usize = 2 * 1024;
    const MESSAGES: usize = 20;
    for kind in BackendKind::ALL {
        let profile = kind.profile();
        let window = profile.list_visibility_window.unwrap_or_default();
        let lc = LiveCluster::new(ClusterParams::for_backend(profile), FAST);
        let env = lc.env(0);
        for w in 0..2 {
            let blobs = BlobClient::new(&env, format!("alg1-{w}"));
            block_on(blobs.create_container()).unwrap();
            let blob = format!("data-{w}");
            let ids: Vec<String> = (0..BLOCKS).map(|i| format!("blk-{i:04}")).collect();
            for (i, id) in ids.iter().enumerate() {
                block_on(blobs.put_block(&blob, id.clone(), payload(w, i, BLOCK_SIZE))).unwrap();
            }
            block_on(blobs.put_block_list(&blob, ids)).unwrap();
            let whole: Vec<u8> = (0..BLOCKS)
                .flat_map(|i| payload(w, i, BLOCK_SIZE).to_vec())
                .collect();
            assert_eq!(block_on(blobs.download(&blob)).unwrap(), whole, "{kind}");
            assert_eq!(
                block_on(blobs.get_block(&blob, 2)).unwrap(),
                payload(w, 2, BLOCK_SIZE),
                "{kind}"
            );
            // A listing is only bound to show the commit once the declared
            // visibility window has passed.
            std::thread::sleep(window.div_f64(FAST));
            assert_eq!(block_on(blobs.list_blobs()).unwrap(), vec![blob], "{kind}");

            let q = QueueClient::new(&env, format!("alg3-{w}"));
            block_on(q.create()).unwrap();
            for i in 0..MESSAGES {
                block_on(q.put_message(payload(w, i, 64))).unwrap();
            }
            // A visibility timeout of an hour (180 real ms) outlasts any
            // stall between get and delete on a loaded host.
            let hour = Duration::from_secs(3600);
            let mut drained = Vec::new();
            while let Some(m) = block_on(q.get_message_with_visibility(hour)).unwrap() {
                block_on(q.delete_message(&m)).unwrap();
                drained.push(m.data);
                assert!(drained.len() <= MESSAGES, "{kind}: drained a message twice");
            }
            let mut want: Vec<Bytes> = (0..MESSAGES).map(|i| payload(w, i, 64)).collect();
            drained.sort();
            want.sort();
            assert_eq!(drained, want, "{kind}");
            assert_eq!(block_on(q.message_count()).unwrap(), 0, "{kind}");
        }
    }
}

#[test]
fn client_stack_surfaces_missing_resources_on_every_backend() {
    // A missing container, blob and queue reach the caller as the service's
    // error class, not as a retry or a panic, whatever the backend.
    for kind in BackendKind::ALL {
        let lc = LiveCluster::new(ClusterParams::for_backend(kind.profile()), FAST);
        let env = lc.env(0);
        let err = block_on(BlobClient::new(&env, "ghost").download("b")).unwrap_err();
        assert!(
            matches!(err, StorageError::ContainerNotFound(_)),
            "{kind}: {err:?}"
        );
        let real = BlobClient::new(&env, "real");
        block_on(real.create_container()).unwrap();
        let err = block_on(real.download("missing")).unwrap_err();
        assert!(
            matches!(err, StorageError::BlobNotFound(_)),
            "{kind}: {err:?}"
        );
        let err = block_on(QueueClient::new(&env, "ghost-q").message_count()).unwrap_err();
        assert!(
            matches!(err, StorageError::QueueNotFound(_)),
            "{kind}: {err:?}"
        );
    }
}
