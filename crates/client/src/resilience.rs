//! Composable resilience layer: classification, backoff, deadlines and a
//! per-partition circuit breaker.
//!
//! The paper-faithful [`crate::RetryPolicy`] (sleep one second on
//! `ServerBusy`, retry) stays the default everywhere so figure
//! reproductions are unchanged. [`ResilientPolicy`] is the opt-in
//! alternative for running workloads under fault injection
//! (`azsim_fabric::FaultPlan`): it layers
//!
//! * **retry/abort classification** per error kind ([`classify`]):
//!   throttles and server faults are safely retryable, timeouts are
//!   *ambiguous* (the operation may have executed server-side) and are
//!   retried too, which gives at-least-once semantics; semantic errors
//!   abort immediately;
//! * **exponential backoff with decorrelated jitter**
//!   ([`BackoffConfig`]): each sleep is drawn uniformly from
//!   `[base, prev * multiplier]` and capped, which spreads synchronized
//!   retry storms; a longer server-provided `retry_after` hint always
//!   wins;
//! * **per-operation deadlines**: once the next sleep would push the
//!   operation past its budget the policy gives up with
//!   `StorageError::Timeout` instead of sleeping;
//! * a **per-partition circuit breaker** ([`BreakerConfig`]): after a run
//!   of consecutive transient failures against one [`PartitionKey`] the
//!   breaker opens and further calls fail fast (no cluster traffic) until
//!   a cooldown elapses, then a half-open probe decides whether to close.
//!
//! All randomness comes from a dedicated seeded stream, so a simulation
//! run with a `ResilientPolicy` is exactly as reproducible as one with
//! the fixed-backoff paper policy.

use crate::env::Environment;
use crate::retry::RetryPolicy;
use azsim_core::rng::stream_rng;
use azsim_core::SimTime;
use azsim_storage::{
    OpClass, PartitionKey, StorageError, StorageOk, StorageRequest, StorageResult,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// RNG stream tag for backoff jitter (see [`azsim_core::rng::stream_rng`]).
const JITTER_STREAM: u64 = 0xB0FF;

/// What a client should do with a failed operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Safe to retry: the server rejected the request without executing it
    /// (`ServerBusy`, `ServerFault`).
    Transient,
    /// The request *may* have executed server-side (`Timeout`): retrying is
    /// only safe for idempotent operations / at-least-once semantics.
    Ambiguous,
    /// A semantic answer (not-found, precondition failed, …): retrying the
    /// identical request cannot succeed.
    Permanent,
}

/// Classify an error for retry purposes.
pub fn classify(err: &StorageError) -> ErrorClass {
    match err {
        StorageError::ServerBusy { .. }
        | StorageError::SlowDown { .. }
        | StorageError::ServerFault { .. } => ErrorClass::Transient,
        StorageError::Timeout { .. } => ErrorClass::Ambiguous,
        _ => ErrorClass::Permanent,
    }
}

/// Exponential backoff with decorrelated jitter.
///
/// The `n`-th sleep is drawn uniformly from `[base, prev * multiplier]`
/// (clamped to `cap`), where `prev` is the previous sleep — the
/// "decorrelated jitter" scheme that avoids synchronized retry waves while
/// still growing exponentially in expectation.
#[derive(Clone, Copy, Debug)]
pub struct BackoffConfig {
    /// Minimum (and first) sleep.
    pub base: Duration,
    /// Upper bound on any single sleep.
    pub cap: Duration,
    /// Growth factor of the sampling window.
    pub multiplier: f64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(10),
            multiplier: 3.0,
        }
    }
}

impl BackoffConfig {
    /// Draw the next sleep given the previous one.
    fn next(&self, rng: &mut SmallRng, prev: Duration) -> Duration {
        let hi = (prev.as_secs_f64() * self.multiplier).min(self.cap.as_secs_f64());
        let lo = self.base.as_secs_f64().min(hi);
        if hi <= lo {
            return Duration::from_secs_f64(lo);
        }
        Duration::from_secs_f64(rng.random_range(lo..hi))
    }
}

/// Per-partition circuit-breaker configuration.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive transient failures against one partition that open the
    /// breaker.
    pub failure_threshold: u32,
    /// How long an open breaker fails fast before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
        }
    }
}

/// Client-wide retry-budget configuration: a token pool shared by every
/// operation the policy runs.
///
/// Each retry spends one token; each successful attempt refills
/// `refill_per_success` tokens (capped at `capacity`). Under a healthy
/// cluster the pool stays full and the budget is invisible; under a wide
/// fault (an ack-loss storm timing out every request) the pool drains and
/// the client stops amplifying the outage with retry traffic — at most
/// `capacity + refill_per_success × successes` retries are ever sent.
/// When the budget is exhausted the operation fails with its *own* last
/// error (a timeout stays a timeout), so callers still see what the
/// cluster actually did.
#[derive(Clone, Copy, Debug)]
pub struct RetryBudgetConfig {
    /// Maximum (and initial) number of banked retry tokens.
    pub capacity: u32,
    /// Tokens earned back per successful attempt.
    pub refill_per_success: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            capacity: 10,
            refill_per_success: 0.1,
        }
    }
}

/// Counters accumulated by a [`ResilientPolicy`] across operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Requests actually sent to the cluster.
    pub attempts: u64,
    /// Sleeps taken before re-sending.
    pub retries: u64,
    /// Operations abandoned after exhausting `max_attempts`.
    pub giveups: u64,
    /// Operations rejected locally by an open breaker (no cluster traffic).
    pub fast_failures: u64,
    /// Times a breaker transitioned closed → open.
    pub breaker_opens: u64,
    /// Operations abandoned because the deadline budget ran out.
    pub deadline_expired: u64,
    /// Retries suppressed because the retry budget was exhausted (the
    /// operation failed with its own last error, not a synthetic one).
    pub budget_exhausted: u64,
}

#[derive(Clone, Debug)]
struct BreakerState {
    consecutive: u32,
    open_until: Option<SimTime>,
    last_error: StorageError,
    /// Whether this breaker has opened at least once since it was created —
    /// gates the `Closed` event so healthy partitions don't emit one on
    /// every streak reset.
    opened: bool,
}

/// A circuit-breaker state transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed → open: consecutive transient failures hit the threshold;
    /// further calls fail fast until the cooldown elapses.
    Opened,
    /// Open → half-open: the cooldown elapsed and one probe operation is
    /// allowed through.
    HalfOpen,
    /// Half-open (or any failing streak after an open) → closed: the
    /// partition answered, the breaker entry is dropped.
    Closed,
}

/// One recorded breaker state transition. Collected when event logging is
/// enabled ([`ResilientPolicy::with_event_log`]) so harnesses can render
/// breaker lifecycles on telemetry timelines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BreakerEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The partition whose breaker transitioned.
    pub partition: PartitionKey,
    /// Which transition occurred.
    pub kind: BreakerTransition,
}

/// One recorded retry wait: the client-side backoff span between two
/// attempts of the same operation. Collected when span logging is enabled
/// ([`ResilientPolicy::with_span_log`]) so harnesses can attribute retry
/// time to the `retry_backoff` phase of the observability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetrySpan {
    /// Class of the operation being retried.
    pub class: OpClass,
    /// Virtual time the wait began.
    pub at: SimTime,
    /// How long the policy slept before the next attempt.
    pub wait: Duration,
    /// The attempt number that just failed (1-based).
    pub attempt: usize,
}

struct Inner {
    rng: SmallRng,
    breakers: HashMap<PartitionKey, BreakerState>,
    stats: ResilienceStats,
    spans: Option<Vec<RetrySpan>>,
    events: Option<Vec<BreakerEvent>>,
    /// Banked retry tokens (meaningful only with a budget configured).
    budget_tokens: f64,
}

/// The composable resilience executor. Construct with [`ResilientPolicy::new`],
/// tune with the `with_*` builders, then drive requests through
/// [`ResilientPolicy::run`] exactly like [`crate::RetryPolicy`].
pub struct ResilientPolicy {
    backoff: BackoffConfig,
    max_attempts: usize,
    deadline: Option<Duration>,
    breaker: Option<BreakerConfig>,
    budget: Option<RetryBudgetConfig>,
    state: RefCell<Inner>,
}

impl ResilientPolicy {
    /// A policy with default backoff, 8 attempts, no deadline, breaker
    /// enabled with defaults, timeouts retried. `seed` fixes the jitter
    /// stream for reproducibility.
    pub fn new(seed: u64) -> Self {
        ResilientPolicy {
            backoff: BackoffConfig::default(),
            max_attempts: 8,
            deadline: None,
            breaker: Some(BreakerConfig::default()),
            budget: None,
            state: RefCell::new(Inner {
                rng: stream_rng(seed, JITTER_STREAM),
                breakers: HashMap::new(),
                stats: ResilienceStats::default(),
                spans: None,
                events: None,
                budget_tokens: 0.0,
            }),
        }
    }

    /// Replace the backoff schedule.
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = backoff;
        self
    }

    /// Maximum attempts per operation (including the first); `1` disables
    /// retries.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Per-operation wall budget: once elapsed time plus the pending sleep
    /// would exceed it, the operation fails with `StorageError::Timeout`.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Replace (or, with `None`, disable) the per-partition circuit breaker.
    pub fn with_breaker(mut self, breaker: Option<BreakerConfig>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Enable a client-wide retry budget (off by default): a token pool
    /// that caps total retry traffic so a cluster-wide fault cannot
    /// amplify into a retry storm. See [`RetryBudgetConfig`].
    pub fn with_retry_budget(mut self, budget: RetryBudgetConfig) -> Self {
        self.state.borrow_mut().budget_tokens = budget.capacity as f64;
        self.budget = Some(budget);
        self
    }

    /// Record every retry wait as a [`RetrySpan`] (off by default — spans
    /// cost one `Vec` push per retry).
    pub fn with_span_log(self) -> Self {
        self.state.borrow_mut().spans = Some(Vec::new());
        self
    }

    /// Record every breaker state transition as a [`BreakerEvent`] (off by
    /// default — events cost one `Vec` push per transition).
    pub fn with_event_log(self) -> Self {
        self.state.borrow_mut().events = Some(Vec::new());
        self
    }

    /// Drain the recorded breaker events (empty unless
    /// [`ResilientPolicy::with_event_log`] was enabled).
    pub fn take_breaker_events(&self) -> Vec<BreakerEvent> {
        self.state
            .borrow_mut()
            .events
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ResilienceStats {
        self.state.borrow().stats
    }

    /// Drain the recorded retry spans (empty unless
    /// [`ResilientPolicy::with_span_log`] was enabled).
    pub fn take_retry_spans(&self) -> Vec<RetrySpan> {
        self.state
            .borrow_mut()
            .spans
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Execute `req` against `env` under this policy. Every attempt shares
    /// the one request.
    pub async fn run<E: Environment>(
        &self,
        env: &E,
        req: StorageRequest,
    ) -> StorageResult<StorageOk> {
        let req = Arc::new(req);
        let pk = req.partition();
        let start = env.now();

        if let Some(err) = self.breaker_gate(env.now(), &pk) {
            return Err(err);
        }

        let mut prev = self.backoff.base;
        let mut attempt = 0;
        loop {
            attempt += 1;
            self.state.borrow_mut().stats.attempts += 1;
            let err = match env.execute(Arc::clone(&req)).await {
                Ok(ok) => {
                    self.record_outcome(env.now(), &pk, None);
                    if let Some(b) = self.budget {
                        let inner = &mut *self.state.borrow_mut();
                        inner.budget_tokens =
                            (inner.budget_tokens + b.refill_per_success).min(b.capacity as f64);
                    }
                    return Ok(ok);
                }
                Err(err) => err,
            };

            let retryable = match classify(&err) {
                ErrorClass::Transient | ErrorClass::Ambiguous => true,
                ErrorClass::Permanent => {
                    // A semantic answer proves the partition is serving:
                    // reset its failure streak, then abort.
                    self.record_outcome(env.now(), &pk, None);
                    return Err(err);
                }
            };
            let opened = self.record_outcome(env.now(), &pk, Some(&err));
            if !retryable || opened {
                return Err(err);
            }
            if attempt >= self.max_attempts {
                self.state.borrow_mut().stats.giveups += 1;
                return Err(err);
            }
            if self.budget.is_some() {
                let inner = &mut *self.state.borrow_mut();
                if inner.budget_tokens < 1.0 {
                    // Budget dry: surface the operation's own error so the
                    // caller sees what the cluster did, not a synthetic
                    // budget-exhausted mask.
                    inner.stats.budget_exhausted += 1;
                    return Err(err);
                }
                inner.budget_tokens -= 1.0;
            }

            let jittered = {
                let inner = &mut *self.state.borrow_mut();
                self.backoff.next(&mut inner.rng, prev)
            };
            prev = jittered;
            let sleep = jittered.max(err.retry_after().unwrap_or(Duration::ZERO));

            if let Some(deadline) = self.deadline {
                let elapsed = env.now().saturating_since(start);
                if elapsed + sleep >= deadline {
                    self.state.borrow_mut().stats.deadline_expired += 1;
                    return Err(StorageError::Timeout { elapsed });
                }
            }

            {
                let inner = &mut *self.state.borrow_mut();
                inner.stats.retries += 1;
                if let Some(spans) = &mut inner.spans {
                    spans.push(RetrySpan {
                        class: req.class(),
                        at: env.now(),
                        wait: sleep,
                        attempt,
                    });
                }
            }
            env.sleep(sleep).await;
        }
    }

    /// Fail fast if the partition's breaker is open; transition open →
    /// half-open when the cooldown has elapsed. Takes the current time
    /// rather than an environment so it stays a plain synchronous helper.
    fn breaker_gate(&self, now: SimTime, pk: &PartitionKey) -> Option<StorageError> {
        self.breaker?;
        let inner = &mut *self.state.borrow_mut();
        let b = inner.breakers.get_mut(pk)?;
        let until = b.open_until?;
        if now < until {
            let err = b.last_error.clone();
            inner.stats.fast_failures += 1;
            return Some(err);
        }
        // Cooldown over: half-open. Let this operation probe the partition;
        // its first failure re-opens immediately (streak is still at the
        // threshold), success closes the breaker.
        b.open_until = None;
        if let Some(events) = &mut inner.events {
            events.push(BreakerEvent {
                at: now,
                partition: pk.clone(),
                kind: BreakerTransition::HalfOpen,
            });
        }
        None
    }

    /// Update the partition's breaker after an attempt. `err` is `None` on
    /// success (or a semantic answer). Returns true when this failure
    /// opened the breaker.
    fn record_outcome(&self, now: SimTime, pk: &PartitionKey, err: Option<&StorageError>) -> bool {
        let Some(cfg) = self.breaker else {
            return false;
        };
        let inner = &mut *self.state.borrow_mut();
        match err {
            None => {
                if inner.breakers.remove(pk).is_some_and(|b| b.opened) {
                    if let Some(events) = &mut inner.events {
                        events.push(BreakerEvent {
                            at: now,
                            partition: pk.clone(),
                            kind: BreakerTransition::Closed,
                        });
                    }
                }
                false
            }
            Some(err) => {
                let b = inner
                    .breakers
                    .entry(pk.clone())
                    .or_insert_with(|| BreakerState {
                        consecutive: 0,
                        open_until: None,
                        last_error: err.clone(),
                        opened: false,
                    });
                b.consecutive += 1;
                b.last_error = err.clone();
                if b.consecutive >= cfg.failure_threshold && b.open_until.is_none() {
                    b.open_until = Some(now + cfg.cooldown);
                    b.opened = true;
                    inner.stats.breaker_opens += 1;
                    if let Some(events) = &mut inner.events {
                        events.push(BreakerEvent {
                            at: now,
                            partition: pk.clone(),
                            kind: BreakerTransition::Opened,
                        });
                    }
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The policy slot every client carries: either the paper-faithful
/// [`RetryPolicy`] (the default — figure reproductions are unchanged) or a
/// shared [`ResilientPolicy`]. An `Rc` lets one worker's clients share a
/// single jitter stream, breaker map and stat counters.
#[derive(Clone)]
pub enum ClientPolicy {
    /// The paper's fixed-backoff `ServerBusy` retry loop.
    Paper(RetryPolicy),
    /// The composable resilience layer, shared across clients.
    Resilient(Rc<ResilientPolicy>),
}

impl Default for ClientPolicy {
    fn default() -> Self {
        ClientPolicy::Paper(RetryPolicy)
    }
}

impl From<ResilientPolicy> for ClientPolicy {
    fn from(p: ResilientPolicy) -> Self {
        ClientPolicy::Resilient(Rc::new(p))
    }
}

impl From<Rc<ResilientPolicy>> for ClientPolicy {
    fn from(p: Rc<ResilientPolicy>) -> Self {
        ClientPolicy::Resilient(p)
    }
}

impl ClientPolicy {
    /// Execute `req` against `env` under whichever policy is configured.
    pub async fn run<E: Environment>(
        &self,
        env: &E,
        req: StorageRequest,
    ) -> StorageResult<StorageOk> {
        match self {
            ClientPolicy::Paper(p) => p.run(env, req).await,
            ClientPolicy::Resilient(p) => p.run(env, req).await,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azsim_core::block_on;
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;

    /// An environment driven by a script of responses, with a virtual
    /// clock that advances on sleep.
    struct ScriptedEnv {
        clock: Cell<SimTime>,
        script: RefCell<VecDeque<StorageResult<StorageOk>>>,
        calls: Cell<usize>,
        slept: RefCell<Vec<Duration>>,
        /// Every attempt's request, held so no two can share an address.
        seen: RefCell<Vec<Arc<StorageRequest>>>,
    }

    impl ScriptedEnv {
        fn new(script: Vec<StorageResult<StorageOk>>) -> Self {
            ScriptedEnv {
                clock: Cell::new(SimTime::ZERO),
                script: RefCell::new(script.into()),
                calls: Cell::new(0),
                slept: RefCell::new(Vec::new()),
                seen: RefCell::new(Vec::new()),
            }
        }

        fn advance(&self, d: Duration) {
            self.clock.set(self.clock.get() + d);
        }
    }

    impl Environment for ScriptedEnv {
        fn now(&self) -> SimTime {
            self.clock.get()
        }
        fn sleep(&self, d: Duration) -> impl std::future::Future<Output = ()> {
            self.slept.borrow_mut().push(d);
            self.advance(d);
            std::future::ready(())
        }
        fn execute(
            &self,
            req: Arc<StorageRequest>,
        ) -> impl std::future::Future<Output = StorageResult<StorageOk>> {
            self.calls.set(self.calls.get() + 1);
            self.seen.borrow_mut().push(req);
            std::future::ready(
                self.script
                    .borrow_mut()
                    .pop_front()
                    .unwrap_or(Ok(StorageOk::Ack)),
            )
        }
        fn instance(&self) -> usize {
            0
        }
    }

    fn busy(ms: u64) -> StorageResult<StorageOk> {
        Err(StorageError::ServerBusy {
            retry_after: Duration::from_millis(ms),
        })
    }

    fn fault(ms: u64) -> StorageResult<StorageOk> {
        Err(StorageError::ServerFault {
            retry_after: Duration::from_millis(ms),
        })
    }

    fn req() -> StorageRequest {
        StorageRequest::GetMessageCount { queue: "q".into() }
    }

    #[test]
    fn classification_per_error_kind() {
        assert_eq!(
            classify(&StorageError::ServerBusy {
                retry_after: Duration::ZERO
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&StorageError::ServerFault {
                retry_after: Duration::ZERO
            }),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&StorageError::Timeout {
                elapsed: Duration::ZERO
            }),
            ErrorClass::Ambiguous
        );
        assert_eq!(
            classify(&StorageError::QueueNotFound("q".into())),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify(&StorageError::BatchTooLarge { count: 101 }),
            ErrorClass::Permanent
        );
    }

    #[test]
    fn retries_transient_errors_with_bounded_jitter() {
        let env = ScriptedEnv::new(vec![busy(0), fault(0), busy(0)]);
        let policy = ResilientPolicy::new(7);
        block_on(policy.run(&env, req())).unwrap();
        assert_eq!(env.calls.get(), 4);
        let slept = env.slept.borrow();
        assert_eq!(slept.len(), 3);
        let cfg = BackoffConfig::default();
        for d in slept.iter() {
            assert!(*d >= cfg.base && *d <= cfg.cap, "sleep {d:?} out of range");
        }
        let stats = policy.stats();
        assert_eq!(stats.attempts, 4);
        assert_eq!(stats.retries, 3);
    }

    #[test]
    fn every_attempt_shares_one_request() {
        // ServerBusy → ServerBusy → Ok: three attempts, one allocation,
        // through the policy and through the client slot that wraps it.
        for policy in [
            ClientPolicy::from(ResilientPolicy::new(7)),
            ClientPolicy::default(),
        ] {
            let env = ScriptedEnv::new(vec![busy(0), busy(0)]);
            block_on(policy.run(&env, req())).unwrap();
            let seen = env.seen.borrow();
            assert_eq!(seen.len(), 3);
            assert!(seen.iter().all(|r| Arc::as_ptr(r) == Arc::as_ptr(&seen[0])));
        }
    }

    #[test]
    fn longer_retry_after_hint_wins_over_jitter() {
        let env = ScriptedEnv::new(vec![busy(5_000)]);
        let policy = ResilientPolicy::new(1);
        block_on(policy.run(&env, req())).unwrap();
        assert_eq!(env.slept.borrow()[0], Duration::from_secs(5));
    }

    #[test]
    fn jitter_sequence_is_seed_deterministic() {
        let sleeps = |seed: u64| {
            let env = ScriptedEnv::new(vec![busy(0); 5]);
            block_on(
                ResilientPolicy::new(seed)
                    .with_breaker(None)
                    .run(&env, req()),
            )
            .unwrap();
            let slept = env.slept.borrow().clone();
            slept
        };
        assert_eq!(sleeps(42), sleeps(42));
        assert_ne!(sleeps(42), sleeps(43));
    }

    #[test]
    fn permanent_errors_abort_immediately() {
        let env = ScriptedEnv::new(vec![Err(StorageError::QueueNotFound("q".into()))]);
        let r = block_on(ResilientPolicy::new(0).run(&env, req()));
        assert!(matches!(r, Err(StorageError::QueueNotFound(_))));
        assert_eq!(env.calls.get(), 1);
        assert!(env.slept.borrow().is_empty());
    }

    #[test]
    fn deadline_stops_retrying_before_the_sleep() {
        let env = ScriptedEnv::new(vec![busy(0); 100]);
        let policy = ResilientPolicy::new(3)
            .with_max_attempts(100)
            .with_backoff(BackoffConfig {
                base: Duration::from_millis(60),
                cap: Duration::from_millis(60),
                multiplier: 1.0,
            })
            .with_deadline(Duration::from_millis(100));
        let r = block_on(policy.run(&env, req()));
        assert!(matches!(r, Err(StorageError::Timeout { .. })));
        // One 60 ms sleep fits the 100 ms budget; the second would not.
        assert_eq!(env.slept.borrow().len(), 1);
        assert_eq!(policy.stats().deadline_expired, 1);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let env = ScriptedEnv::new(vec![busy(0); 100]);
        let policy = ResilientPolicy::new(0).with_max_attempts(3);
        let r = block_on(policy.run(&env, req()));
        assert!(matches!(r, Err(StorageError::ServerBusy { .. })));
        assert_eq!(env.calls.get(), 3);
        assert_eq!(policy.stats().giveups, 1);
    }

    #[test]
    fn breaker_opens_and_fails_fast_per_partition() {
        let env = ScriptedEnv::new(vec![fault(0); 100]);
        let policy = ResilientPolicy::new(0)
            .with_max_attempts(1)
            .with_breaker(Some(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_secs(30),
            }));
        for _ in 0..3 {
            block_on(policy.run(&env, req())).unwrap_err();
        }
        assert_eq!(env.calls.get(), 3);
        assert_eq!(policy.stats().breaker_opens, 1);
        // Open: the next call is rejected locally without cluster traffic.
        let r = block_on(policy.run(&env, req()));
        assert!(matches!(r, Err(StorageError::ServerFault { .. })));
        assert_eq!(env.calls.get(), 3);
        assert_eq!(policy.stats().fast_failures, 1);
        // A different partition is unaffected.
        block_on(policy.run(
            &env,
            StorageRequest::GetMessageCount {
                queue: "other".into(),
            },
        ))
        .unwrap_err();
        assert_eq!(env.calls.get(), 4);
    }

    #[test]
    fn breaker_half_open_probe_closes_on_success() {
        let env = ScriptedEnv::new(vec![fault(0), fault(0)]);
        let policy = ResilientPolicy::new(0)
            .with_max_attempts(1)
            .with_breaker(Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(1),
            }));
        block_on(policy.run(&env, req())).unwrap_err();
        block_on(policy.run(&env, req())).unwrap_err();
        assert_eq!(policy.stats().breaker_opens, 1);
        env.advance(Duration::from_secs(2));
        // Half-open probe succeeds (script exhausted → Ack) and closes the
        // breaker: further calls flow normally.
        block_on(policy.run(&env, req())).unwrap();
        block_on(policy.run(&env, req())).unwrap();
        assert_eq!(env.calls.get(), 4);
        assert_eq!(policy.stats().fast_failures, 0);
    }

    #[test]
    fn breaker_lifecycle_surfaces_as_events() {
        let env = ScriptedEnv::new(vec![fault(0), fault(0)]);
        let policy = ResilientPolicy::new(0)
            .with_max_attempts(1)
            .with_breaker(Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(1),
            }))
            .with_event_log();
        block_on(policy.run(&env, req())).unwrap_err();
        block_on(policy.run(&env, req())).unwrap_err();
        let open_at = env.now();
        env.advance(Duration::from_secs(2));
        // Half-open probe succeeds (script exhausted → Ack) and closes.
        block_on(policy.run(&env, req())).unwrap();
        let events = policy.take_breaker_events();
        let pk = req().partition();
        assert_eq!(
            events,
            vec![
                BreakerEvent {
                    at: open_at,
                    partition: pk.clone(),
                    kind: BreakerTransition::Opened,
                },
                BreakerEvent {
                    at: env.now(),
                    partition: pk.clone(),
                    kind: BreakerTransition::HalfOpen,
                },
                BreakerEvent {
                    at: env.now(),
                    partition: pk,
                    kind: BreakerTransition::Closed,
                },
            ]
        );
        // Drained: a second take returns nothing.
        assert!(policy.take_breaker_events().is_empty());
    }

    #[test]
    fn breaker_half_open_probe_retrips_under_second_window() {
        // A second crash window at the half-open instant: the probe fails
        // and the breaker must re-open immediately (streak still at the
        // threshold), going back to failing fast without new traffic.
        let env = ScriptedEnv::new(vec![fault(0), fault(0), fault(0)]);
        let policy = ResilientPolicy::new(0)
            .with_max_attempts(1)
            .with_breaker(Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(1),
            }))
            .with_event_log();
        block_on(policy.run(&env, req())).unwrap_err();
        block_on(policy.run(&env, req())).unwrap_err();
        assert_eq!(policy.stats().breaker_opens, 1);
        env.advance(Duration::from_secs(2));
        // Half-open probe hits the second window and fails → re-trip.
        block_on(policy.run(&env, req())).unwrap_err();
        assert_eq!(env.calls.get(), 3);
        assert_eq!(
            policy.stats().breaker_opens,
            2,
            "probe failure must re-open"
        );
        // Open again: fail fast, no cluster traffic.
        block_on(policy.run(&env, req())).unwrap_err();
        assert_eq!(env.calls.get(), 3);
        assert_eq!(policy.stats().fast_failures, 1);
        let kinds: Vec<BreakerTransition> = policy
            .take_breaker_events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                BreakerTransition::Opened,
                BreakerTransition::HalfOpen,
                BreakerTransition::Opened,
            ]
        );
    }

    #[test]
    fn budget_exhaustion_surfaces_the_original_error() {
        // Three timeouts with a 2-token budget: two retries spend the
        // budget, the third failure surfaces as the operation's own error
        // (a timeout stays a timeout — no synthetic masking error).
        let timeout = || {
            Err(StorageError::Timeout {
                elapsed: Duration::from_secs(30),
            })
        };
        let env = ScriptedEnv::new(vec![timeout(), timeout(), timeout()]);
        let policy = ResilientPolicy::new(0)
            .with_breaker(None)
            .with_max_attempts(10)
            .with_retry_budget(RetryBudgetConfig {
                capacity: 2,
                refill_per_success: 1.0,
            });
        let r = block_on(policy.run(&env, req()));
        assert!(
            matches!(r, Err(StorageError::Timeout { .. })),
            "exhaustion must surface the underlying error, got {r:?}"
        );
        // 1 initial attempt + 2 budgeted retries, then the pool is dry.
        assert_eq!(env.calls.get(), 3);
        assert_eq!(policy.stats().budget_exhausted, 1);
        assert_eq!(
            policy.stats().giveups,
            0,
            "budget, not max_attempts, stopped it"
        );
        // A success refills the pool: the next failure can retry again.
        let r = block_on(policy.run(&env, req()));
        assert!(r.is_ok(), "script exhausted → Ack");
        let env2 = &env;
        env2.script.borrow_mut().push_back(timeout());
        block_on(policy.run(env2, req())).unwrap();
        assert_eq!(policy.stats().retries, 3, "refilled token spent on a retry");
    }

    #[test]
    fn healthy_partitions_emit_no_breaker_events() {
        // A failing streak below the threshold that then succeeds must not
        // emit Closed — the breaker never opened.
        let env = ScriptedEnv::new(vec![fault(0), Ok(StorageOk::Ack)]);
        let policy = ResilientPolicy::new(0).with_event_log();
        block_on(policy.run(&env, req())).unwrap();
        assert!(policy.take_breaker_events().is_empty());
    }
}
