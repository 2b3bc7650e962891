//! Retry policy: the paper's behaviour on throttling.
//!
//! "When we run into such exceptions, the worker sleeps for a second before
//! retrying the same operation" (paper §IV-C).

use crate::env::Environment;
use azsim_storage::{StorageError, StorageOk, StorageRequest, StorageResult};
use std::sync::Arc;
use std::time::Duration;

/// Retry configuration for `ServerBusy` responses.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first). `1` disables retries.
    pub max_attempts: usize,
    /// Sleep between attempts (the paper uses one second).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 120,
            backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Execute `req` against `env`, sleeping and retrying on `ServerBusy`
    /// until it succeeds, fails with a non-retryable error, or attempts run
    /// out. Every attempt shares the one request.
    pub async fn run<E: Environment>(
        &self,
        env: &E,
        req: StorageRequest,
    ) -> StorageResult<StorageOk> {
        let req = Arc::new(req);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match env.execute(Arc::clone(&req)).await {
                Err(
                    StorageError::ServerBusy { retry_after }
                    | StorageError::SlowDown { retry_after },
                ) if attempt < self.max_attempts => {
                    // Sleep at least the configured backoff, but honour a
                    // longer server-provided hint (for `SlowDown` the hint
                    // escalates with consecutive rejections, so obeying it
                    // is what drains the pushback).
                    env.sleep(self.backoff.max(retry_after)).await;
                }
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::{block_on, SimTime};
    use std::cell::{Cell, RefCell};

    /// An environment that fails with ServerBusy a fixed number of times.
    struct Flaky {
        failures_left: Cell<usize>,
        calls: Cell<usize>,
        slept: RefCell<Vec<Duration>>,
        /// Every attempt's request, held so no two can share an address.
        seen: RefCell<Vec<Arc<StorageRequest>>>,
    }

    impl Environment for Flaky {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn sleep(&self, d: Duration) -> impl std::future::Future<Output = ()> {
            self.slept.borrow_mut().push(d);
            std::future::ready(())
        }
        fn execute(
            &self,
            req: Arc<StorageRequest>,
        ) -> impl std::future::Future<Output = StorageResult<StorageOk>> {
            self.calls.set(self.calls.get() + 1);
            self.seen.borrow_mut().push(req);
            std::future::ready(if self.failures_left.get() > 0 {
                self.failures_left.set(self.failures_left.get() - 1);
                Err(StorageError::ServerBusy {
                    retry_after: Duration::from_millis(100),
                })
            } else {
                Ok(StorageOk::Ack)
            })
        }
        fn instance(&self) -> usize {
            0
        }
    }

    fn flaky(failures: usize) -> Flaky {
        Flaky {
            failures_left: Cell::new(failures),
            calls: Cell::new(0),
            slept: RefCell::new(Vec::new()),
            seen: RefCell::new(Vec::new()),
        }
    }

    fn req() -> StorageRequest {
        StorageRequest::GetMessageCount { queue: "q".into() }
    }

    #[test]
    fn retries_until_success() {
        let env = flaky(3);
        let policy = RetryPolicy::default();
        block_on(policy.run(&env, req())).unwrap();
        assert_eq!(env.calls.get(), 4);
        assert_eq!(env.slept.borrow().len(), 3);
        // Paper behaviour: the server hint (100 ms) is shorter than the
        // configured backoff, so every sleep is exactly one second.
        assert!(env
            .slept
            .borrow()
            .iter()
            .all(|d| *d == Duration::from_secs(1)));
    }

    #[test]
    fn every_attempt_shares_one_request() {
        // ServerBusy → ServerBusy → Ok: three attempts, one allocation.
        let env = flaky(2);
        block_on(RetryPolicy::default().run(&env, req())).unwrap();
        let seen = env.seen.borrow();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|r| Arc::as_ptr(r) == Arc::as_ptr(&seen[0])));
    }

    #[test]
    fn longer_server_hint_overrides_backoff() {
        // retry_after (100 ms) exceeds the configured backoff (10 ms): the
        // client must wait out the server's hint, not its own shorter default.
        let env = flaky(2);
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(10),
        };
        block_on(policy.run(&env, req())).unwrap();
        assert_eq!(
            *env.slept.borrow(),
            vec![Duration::from_millis(100), Duration::from_millis(100)]
        );
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let env = flaky(100);
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_secs(1),
        };
        let r = block_on(policy.run(&env, req()));
        assert!(matches!(r, Err(StorageError::ServerBusy { .. })));
        assert_eq!(env.calls.get(), 5);
    }

    #[test]
    fn no_retry_policy_fails_fast() {
        let env = flaky(1);
        let r = block_on(RetryPolicy::none().run(&env, req()));
        assert!(r.is_err());
        assert_eq!(env.calls.get(), 1);
        assert!(env.slept.borrow().is_empty());
    }

    #[test]
    fn non_retryable_errors_pass_through() {
        struct AlwaysMissing;
        impl Environment for AlwaysMissing {
            fn now(&self) -> SimTime {
                SimTime::ZERO
            }
            async fn sleep(&self, _d: Duration) {
                panic!("must not sleep on non-retryable errors")
            }
            fn execute(
                &self,
                _req: Arc<StorageRequest>,
            ) -> impl std::future::Future<Output = StorageResult<StorageOk>> {
                std::future::ready(Err(StorageError::QueueNotFound("q".into())))
            }
            fn instance(&self) -> usize {
                0
            }
        }
        let r = block_on(RetryPolicy::default().run(&AlwaysMissing, req()));
        assert!(matches!(r, Err(StorageError::QueueNotFound(_))));
    }
}
