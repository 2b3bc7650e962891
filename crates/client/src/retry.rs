//! Retry policy: the paper's behaviour on throttling.
//!
//! "When we run into such exceptions, the worker sleeps for a second before
//! retrying the same operation" (paper §IV-C).

use crate::env::Environment;
use azsim_storage::{StorageError, StorageOk, StorageRequest, StorageResult};
use std::sync::Arc;
use std::time::Duration;

/// Attempts per operation, the first included.
const MAX_ATTEMPTS: usize = 120;

/// Sleep between attempts: the paper's one second.
const BACKOFF: Duration = Duration::from_secs(1);

/// The paper's retry loop for `ServerBusy` / `SlowDown` responses: sleep
/// one second (or the server's longer hint) and retry, up to 120 attempts
/// in all.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy;

impl RetryPolicy {
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
                ) if attempt < MAX_ATTEMPTS => {
                    // Sleep at least the paper's backoff, but honour a
                    // longer server-provided hint (for `SlowDown` the hint
                    // escalates with consecutive rejections, so obeying it
                    // is what drains the pushback).
                    env.sleep(BACKOFF.max(retry_after)).await;
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
        /// The `retry_after` every rejection carries.
        hint: Duration,
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
                    retry_after: self.hint,
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
            hint: Duration::from_millis(100),
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
        let policy = RetryPolicy;
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
        block_on(RetryPolicy.run(&env, req())).unwrap();
        let seen = env.seen.borrow();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|r| Arc::as_ptr(r) == Arc::as_ptr(&seen[0])));
    }

    #[test]
    fn longer_server_hint_overrides_backoff() {
        // retry_after (2 s) exceeds the paper's one-second backoff: the
        // client must wait out the server's hint, not its own shorter one.
        let env = Flaky {
            hint: Duration::from_secs(2),
            ..flaky(2)
        };
        block_on(RetryPolicy.run(&env, req())).unwrap();
        assert_eq!(
            *env.slept.borrow(),
            vec![Duration::from_secs(2), Duration::from_secs(2)]
        );
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let env = flaky(MAX_ATTEMPTS + 10);
        let r = block_on(RetryPolicy.run(&env, req()));
        assert!(matches!(r, Err(StorageError::ServerBusy { .. })));
        assert_eq!(env.calls.get(), MAX_ATTEMPTS);
        assert_eq!(env.slept.borrow().len(), MAX_ATTEMPTS - 1);
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
        let r = block_on(RetryPolicy.run(&AlwaysMissing, req()));
        assert!(matches!(r, Err(StorageError::QueueNotFound(_))));
    }
}
