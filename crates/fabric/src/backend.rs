//! Storage-backend abstraction: capabilities, consistency and throttle
//! model as *data*.
//!
//! The cluster pipeline (NICs, FIFO partition servers, replica sync) is
//! shared across providers; what differs between clouds is the *policy*
//! layered on top — which documented caps exist, what shape the throttle
//! signal takes, and how quickly writes become visible to listings. A
//! [`BackendProfile`] captures exactly that policy surface, so one
//! `Cluster` reproduces Windows Azure Storage (the paper's subject, and
//! the reference implementation) or an S3-/GCS-style peer by swapping a
//! value, not a code path.
//!
//! Declared semantics per backend:
//!
//! | backend | partition caps | account cap | throttle shape | list-after-write | read staleness |
//! |---------|----------------|-------------|----------------|------------------|----------------|
//! | `was`   | 500 msg/s per queue, 500 entities/s per partition | 5 000 tx/s | `ServerBusy` + retry hint floor | immediate | none (strong) |
//! | `s3`    | none           | 3 500 tx/s  | `503 SlowDown`, doubling curve 100 ms → 5 s | bounded window ≤ 2 s | ≤ 2 s |
//! | `gcs`   | none           | 1 000 tx/s  | `ServerBusy`, exponential pushback 400 ms → 32 s | immediate | none (strong) |
//! | `file`  | none           | none        | never throttles | immediate | none (strong) |
//!
//! Every row of this table is *asserted*, not just modeled: the
//! `azurebench::conformance` suite runs identical op sequences against all
//! four backends and fails if any declared property (or any declared
//! *difference*) is unobservable.

use azsim_storage::StorageError;
use std::time::Duration;

/// Which simulated storage provider a cluster reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BackendKind {
    /// Windows Azure Storage — the paper's subject and the reference
    /// implementation; the 15 committed golden CSVs are this backend's
    /// output.
    Was,
    /// S3-style peer: eventual list-after-write with a bounded visibility
    /// window, no per-partition caps, `503 SlowDown` throttle curve.
    S3,
    /// GCS-style peer: per-object update rate limit with exponential
    /// pushback, no per-partition caps.
    Gcs,
    /// `file` — a simulated cap-free profile: the same pipeline with no
    /// caps, no throttling and synchronous listings.
    File,
}

impl BackendKind {
    /// All backends, in canonical order (CSV suffixes, CI matrix, …).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Was,
        BackendKind::S3,
        BackendKind::Gcs,
        BackendKind::File,
    ];

    /// Stable lowercase name used in CLI flags and file suffixes.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Was => "was",
            BackendKind::S3 => "s3",
            BackendKind::Gcs => "gcs",
            BackendKind::File => "file",
        }
    }

    /// Parse a CLI token (accepts the `file://` spelling too).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "was" | "azure" => Some(BackendKind::Was),
            "s3" => Some(BackendKind::S3),
            "gcs" => Some(BackendKind::Gcs),
            "file" | "file://" => Some(BackendKind::File),
            _ => None,
        }
    }

    /// The declared-semantics profile for this backend.
    pub fn profile(self) -> BackendProfile {
        match self {
            BackendKind::Was => BackendProfile::was(),
            BackendKind::S3 => BackendProfile::s3(),
            BackendKind::Gcs => BackendProfile::gcs(),
            BackendKind::File => BackendProfile::file(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shape of the throttle signal a backend returns when a cap engages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThrottleShape {
    /// WAS: `ServerBusy` whose hint is the token bucket's computed deficit,
    /// floored at the account's coarse `Retry-After` (1 s by default).
    RetryAfterHint,
    /// S3: `503 SlowDown` whose hint doubles per *consecutive* rejection —
    /// `base`, `base*factor`, `base*factor²`, … capped at `cap` — and
    /// resets as soon as a request is admitted.
    SlowDownCurve {
        /// First rejection's hint.
        base: Duration,
        /// Growth per consecutive rejection.
        factor: u32,
        /// Upper bound on the hint.
        cap: Duration,
    },
    /// GCS: `ServerBusy` with the same exponential escalation, tracked
    /// per limited object (and per account for the transaction cap).
    ExponentialPushback {
        /// First rejection's hint.
        base: Duration,
        /// Growth per consecutive rejection.
        factor: u32,
        /// Upper bound on the hint.
        cap: Duration,
    },
}

impl ThrottleShape {
    /// The throttle signal after `consecutive` rejections in a row
    /// (1-based), given the bucket's computed deficit `wait` and the
    /// configured floor `hint`: the error variant and its retry hint.
    pub fn reject(self, consecutive: u32, wait: Duration, hint: Duration) -> StorageError {
        match self {
            ThrottleShape::RetryAfterHint => StorageError::ServerBusy {
                retry_after: wait.max(hint),
            },
            ThrottleShape::SlowDownCurve { base, factor, cap } => StorageError::SlowDown {
                retry_after: escalate(consecutive, base, factor, cap),
            },
            ThrottleShape::ExponentialPushback { base, factor, cap } => StorageError::ServerBusy {
                retry_after: escalate(consecutive, base, factor, cap),
            },
        }
    }
}

/// `base * factor^(consecutive - 1)`, capped at `cap`.
fn escalate(consecutive: u32, base: Duration, factor: u32, cap: Duration) -> Duration {
    let n = consecutive.saturating_sub(1).min(30);
    base.saturating_mul(factor.saturating_pow(n)).min(cap)
}

/// A backend's declared semantics: which caps exist, how throttles look,
/// and how quickly writes become visible. Plain data — the cluster
/// interprets it, the conformance suite asserts it.
#[derive(Clone, Copy, Debug)]
pub struct BackendProfile {
    /// Which provider this profile describes.
    pub kind: BackendKind,
    /// Whether the per-queue / per-table-partition rate buckets exist
    /// (WAS's documented 500 ops/s scalability targets).
    pub per_partition_caps: bool,
    /// Whether an account-wide transaction cap exists at all.
    pub account_cap: bool,
    /// Override for the account transactions/s rate (falls back to
    /// `ClusterParams::account_tx_rate` when `None`).
    pub account_rate_override: Option<f64>,
    /// Per-object mutation rate limit (GCS's documented one update per
    /// second per object), or `None` for no such limit.
    pub object_update_rate: Option<f64>,
    /// Shape of every throttle signal this backend emits.
    pub throttle: ThrottleShape,
    /// Eventual list-after-write: a new blob may stay invisible to
    /// `ListBlobs` for up to this long after its creating write is acked.
    /// `None` declares immediate (read-after-write) listing.
    pub list_visibility_window: Option<Duration>,
    /// Declared bound on read-your-writes staleness; `Duration::ZERO`
    /// declares strong reads. Verification relaxes (never skips) the
    /// read-your-writes invariant to this bound.
    pub read_staleness: Duration,
}

impl BackendProfile {
    /// Windows Azure Storage — exactly the behaviour the golden CSVs pin.
    pub fn was() -> Self {
        BackendProfile {
            kind: BackendKind::Was,
            per_partition_caps: true,
            account_cap: true,
            account_rate_override: None,
            object_update_rate: None,
            throttle: ThrottleShape::RetryAfterHint,
            list_visibility_window: None,
            read_staleness: Duration::ZERO,
        }
    }

    /// S3-style: eventual listing, request-rate cap per prefix modeled at
    /// the account scope (3 500 mutating requests/s), `SlowDown` curve.
    pub fn s3() -> Self {
        BackendProfile {
            kind: BackendKind::S3,
            per_partition_caps: false,
            account_cap: true,
            account_rate_override: Some(3_500.0),
            object_update_rate: None,
            throttle: ThrottleShape::SlowDownCurve {
                base: Duration::from_millis(100),
                factor: 2,
                cap: Duration::from_secs(5),
            },
            list_visibility_window: Some(Duration::from_secs(2)),
            read_staleness: Duration::from_secs(2),
        }
    }

    /// GCS-style: strong listing, one update per second per object with
    /// exponential pushback, 1 000 requests/s account cap.
    pub fn gcs() -> Self {
        BackendProfile {
            kind: BackendKind::Gcs,
            per_partition_caps: false,
            account_cap: true,
            account_rate_override: Some(1_000.0),
            object_update_rate: Some(1.0),
            throttle: ThrottleShape::ExponentialPushback {
                base: Duration::from_millis(400),
                factor: 2,
                cap: Duration::from_secs(32),
            },
            list_visibility_window: None,
            read_staleness: Duration::ZERO,
        }
    }

    /// Cap-free: the simulated pipeline with no service limits; never
    /// throttles, strong everything.
    pub fn file() -> Self {
        BackendProfile {
            kind: BackendKind::File,
            per_partition_caps: false,
            account_cap: false,
            account_rate_override: None,
            object_update_rate: None,
            throttle: ThrottleShape::RetryAfterHint,
            list_visibility_window: None,
            read_staleness: Duration::ZERO,
        }
    }
}

impl Default for BackendProfile {
    fn default() -> Self {
        BackendProfile::was()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_name() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("file://"), Some(BackendKind::File));
        assert_eq!(BackendKind::parse("azure"), Some(BackendKind::Was));
        assert_eq!(BackendKind::parse("swift"), None);
    }

    #[test]
    fn was_profile_is_the_reference() {
        let p = BackendProfile::default();
        assert_eq!(p.kind, BackendKind::Was);
        assert!(p.per_partition_caps);
        assert!(p.account_cap);
        assert_eq!(p.account_rate_override, None);
        assert_eq!(p.object_update_rate, None);
        assert_eq!(p.throttle, ThrottleShape::RetryAfterHint);
        assert_eq!(p.list_visibility_window, None);
        assert_eq!(p.read_staleness, Duration::ZERO);
    }

    #[test]
    fn peers_declare_their_documented_deviations() {
        let s3 = BackendProfile::s3();
        assert!(!s3.per_partition_caps);
        assert!(s3.list_visibility_window.is_some());
        assert!(matches!(s3.throttle, ThrottleShape::SlowDownCurve { .. }));

        let gcs = BackendProfile::gcs();
        assert_eq!(gcs.object_update_rate, Some(1.0));
        assert!(matches!(
            gcs.throttle,
            ThrottleShape::ExponentialPushback { .. }
        ));
        assert_eq!(gcs.list_visibility_window, None);

        let file = BackendProfile::file();
        assert!(!file.account_cap);
        assert!(!file.per_partition_caps);
    }

    #[test]
    fn slowdown_curve_doubles_and_caps() {
        let shape = ThrottleShape::SlowDownCurve {
            base: Duration::from_millis(100),
            factor: 2,
            cap: Duration::from_secs(5),
        };
        let w = Duration::ZERO;
        let h = Duration::from_secs(1);
        let slow_down = |ms| StorageError::SlowDown {
            retry_after: Duration::from_millis(ms),
        };
        assert_eq!(shape.reject(1, w, h), slow_down(100));
        assert_eq!(shape.reject(2, w, h), slow_down(200));
        assert_eq!(shape.reject(3, w, h), slow_down(400));
        assert_eq!(shape.reject(10, w, h), slow_down(5_000));
        // Escalation count far beyond the cap must not overflow.
        assert_eq!(shape.reject(u32::MAX, w, h), slow_down(5_000));
    }

    #[test]
    fn exponential_pushback_is_server_busy_on_the_same_curve() {
        let shape = BackendProfile::gcs().throttle;
        let busy = |ms| StorageError::ServerBusy {
            retry_after: Duration::from_millis(ms),
        };
        // The deficit and the floor play no part; only the count does.
        let (w, h) = (Duration::from_secs(9), Duration::from_secs(1));
        assert_eq!(shape.reject(1, w, h), busy(400));
        assert_eq!(shape.reject(2, w, h), busy(800));
        assert_eq!(shape.reject(8, w, h), busy(32_000));
        assert_eq!(shape.reject(u32::MAX, w, h), busy(32_000));
    }

    #[test]
    fn retry_after_hint_shape_matches_was_semantics() {
        let shape = ThrottleShape::RetryAfterHint;
        let hint = Duration::from_secs(1);
        let busy = |retry_after| StorageError::ServerBusy { retry_after };
        // Hint is a floor …
        assert_eq!(shape.reject(1, Duration::from_millis(10), hint), busy(hint));
        // … not a cap, and the rejection count plays no part.
        assert_eq!(
            shape.reject(5, Duration::from_secs(3), hint),
            busy(Duration::from_secs(3))
        );
    }
}
