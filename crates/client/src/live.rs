//! Live mode: drive the very same cluster model in wall-clock time.
//!
//! Real OS threads share one [`Cluster`] behind a mutex; each request is
//! priced by the identical latency pipeline, then the calling thread really
//! sleeps until the computed completion time. A `time_scale` factor maps
//! virtual seconds to real seconds (e.g. `60.0` runs a minute of "Azure
//! time" per real second), so interactive demos finish quickly while still
//! exhibiting the modeled contention.
//!
//! [`LiveEnv`] satisfies the async [`Environment`] interface with futures
//! that are already complete by the time they are returned: the blocking
//! work (pricing the request, sleeping out the scaled latency) happens
//! eagerly on the calling thread, and the caller drives the ready future
//! with [`azsim_core::block_on`]. The same client and framework code
//! therefore runs unchanged on the coroutine simulator and in live mode.
//!
//! Live mode is *not* deterministic (it reads the host clock); use the
//! virtual runtime for benchmark figures.

use crate::env::Environment;
use azsim_core::SimTime;
use azsim_fabric::{Cluster, ClusterParams};
use azsim_storage::{StorageOk, StorageRequest, StorageResult};
use std::future::{ready, Future};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A cluster shared by live-mode threads.
pub struct LiveCluster {
    inner: Mutex<Cluster>,
    epoch: Instant,
    time_scale: f64,
}

impl LiveCluster {
    /// Build a live cluster. `time_scale` is virtual seconds per real
    /// second (must be positive; `1.0` is real time).
    pub fn new(params: ClusterParams, time_scale: f64) -> Arc<Self> {
        assert!(time_scale > 0.0, "time_scale must be positive");
        Arc::new(LiveCluster {
            inner: Mutex::new(Cluster::new(params)),
            epoch: Instant::now(),
            time_scale,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime((self.epoch.elapsed().as_nanos() as f64 * self.time_scale) as u64)
    }

    /// Create an environment handle for one role instance.
    pub fn env(self: &Arc<Self>, instance: usize) -> LiveEnv {
        LiveEnv {
            cluster: Arc::clone(self),
            instance,
        }
    }

    /// Inspect or mutate the underlying cluster (metrics, fault injection).
    pub fn with_cluster<R>(&self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        f(&mut self.lock())
    }

    /// Take the cluster lock. A panic while it was held (in a
    /// [`with_cluster`](Self::with_cluster) closure) is recovered, not
    /// propagated: one failed live thread must not stop the others.
    fn lock(&self) -> MutexGuard<'_, Cluster> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn virtual_to_real(&self, d: Duration) -> Duration {
        d.mul_f64(1.0 / self.time_scale)
    }
}

/// One role instance's handle onto a [`LiveCluster`].
pub struct LiveEnv {
    cluster: Arc<LiveCluster>,
    instance: usize,
}

impl Environment for LiveEnv {
    fn now(&self) -> SimTime {
        self.cluster.now()
    }

    fn sleep(&self, d: Duration) -> impl Future<Output = ()> {
        std::thread::sleep(self.cluster.virtual_to_real(d));
        ready(())
    }

    fn execute(&self, req: Arc<StorageRequest>) -> impl Future<Output = StorageResult<StorageOk>> {
        let (done, resp) = {
            let mut c = self.cluster.lock();
            let now = self.cluster.now();
            c.submit(now, self.instance, &req)
        };
        // Really wait out the modeled latency (scaled).
        let remaining = done.saturating_since(self.cluster.now());
        if remaining > Duration::ZERO {
            std::thread::sleep(self.cluster.virtual_to_real(remaining));
        }
        ready(resp)
    }

    fn instance(&self) -> usize {
        self.instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::block_on;
    use bytes::Bytes;

    /// Run live tests heavily time-scaled so modeled milliseconds cost
    /// microseconds of real time.
    const FAST: f64 = 10_000.0;

    #[test]
    fn live_roundtrip() {
        let lc = LiveCluster::new(ClusterParams::default(), FAST);
        let env = lc.env(0);
        block_on(env.execute(StorageRequest::CreateQueue { queue: "q".into() }.into())).unwrap();
        block_on(
            env.execute(
                StorageRequest::PutMessage {
                    queue: "q".into(),
                    data: Bytes::from_static(b"live"),
                    ttl: None,
                }
                .into(),
            ),
        )
        .unwrap();
        let got = block_on(
            env.execute(
                StorageRequest::GetMessage {
                    queue: "q".into(),
                    visibility_timeout: Duration::from_secs(30),
                }
                .into(),
            ),
        )
        .unwrap();
        match got {
            StorageOk::Message(Some(m)) => assert_eq!(m.data, Bytes::from_static(b"live")),
            other => panic!("expected message, got {other:?}"),
        }
        assert_eq!(lc.with_cluster(|c| c.metrics().total_completed()), 3);
    }

    #[test]
    fn concurrent_live_threads_share_state() {
        let lc = LiveCluster::new(ClusterParams::default(), FAST);
        block_on(
            lc.env(0)
                .execute(StorageRequest::CreateQueue { queue: "q".into() }.into()),
        )
        .unwrap();
        let n = 8;
        std::thread::scope(|s| {
            for i in 0..n {
                let env = lc.env(i);
                s.spawn(move || {
                    block_on(
                        env.execute(
                            StorageRequest::PutMessage {
                                queue: "q".into(),
                                data: Bytes::from(vec![i as u8]),
                                ttl: None,
                            }
                            .into(),
                        ),
                    )
                    .unwrap();
                });
            }
        });
        let count = block_on(
            lc.env(0)
                .execute(StorageRequest::GetMessageCount { queue: "q".into() }.into()),
        )
        .unwrap();
        match count {
            StorageOk::Count(c) => assert_eq!(c, n),
            other => panic!("expected count, got {other:?}"),
        }
    }

    #[test]
    fn a_panic_inside_with_cluster_does_not_poison_it() {
        let lc = LiveCluster::new(ClusterParams::default(), FAST);
        block_on(
            lc.env(0)
                .execute(StorageRequest::CreateQueue { queue: "q".into() }.into()),
        )
        .unwrap();
        let lc2 = Arc::clone(&lc);
        let panicked = std::thread::spawn(move || lc2.with_cluster(|_| panic!("poison it")));
        assert!(panicked.join().is_err());
        // Still lockable, and the state from before the panic is there.
        assert_eq!(lc.with_cluster(|c| c.metrics().total_completed()), 1);
    }

    #[test]
    fn clock_advances_and_scales() {
        let lc = LiveCluster::new(ClusterParams::default(), FAST);
        let t0 = lc.now();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = lc.now();
        // 2 ms of real time is ≥ 10 virtual seconds at scale 10 000.
        assert!(t1.saturating_since(t0) >= Duration::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "time_scale must be positive")]
    fn zero_time_scale_rejected() {
        let _ = LiveCluster::new(ClusterParams::default(), 0.0);
    }
}
