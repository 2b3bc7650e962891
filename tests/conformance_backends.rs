//! Integration: cross-backend conformance harness.
//!
//! Every simulated backend — `was` (the paper's reference), the S3-style
//! and GCS-style peers, and the `file://` no-throttle model — runs the
//! same table-driven operation sequences, and each is held to exactly
//! what its [`BackendProfile`](azsim_fabric::BackendProfile) declares:
//! throttle shape and scope, per-object update limits, bounded
//! list-after-write visibility, the `figures verify` safety invariants,
//! and a reduced Algorithm 1 + 3 round trip checked against the payload
//! function. On top of the per-backend checks, a differential oracle
//! fingerprints each backend's observable history for one shared script
//! and fails if two backends that declare different semantics produce
//! identical histories — the regression that per-backend checks alone
//! cannot catch.

use azsim_fabric::BackendKind;
use azurebench::conformance::{
    check_all, check_backend, divergent_pairs, history_fingerprint, CHECKS,
};

#[test]
fn every_backend_honours_its_declared_semantics() {
    let failures = check_all();
    assert!(
        failures.is_empty(),
        "declared-semantics violations:\n{}",
        failures
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_suite_actually_covers_the_declared_axes() {
    // Guard against the table quietly shrinking: the suite must keep
    // covering throttling, object-update limits, listing visibility, the
    // verify invariants and the Algorithm 1 + 3 round trip.
    let names: Vec<&str> = CHECKS.iter().map(|&(n, _)| n).collect();
    for expected in [
        "throttle-shape-and-scope",
        "object-update-limit",
        "list-after-write-visibility",
        "verify-invariants",
        "round-trip",
    ] {
        assert!(names.contains(&expected), "missing check {expected:?}");
    }
}

#[test]
fn was_reference_passes_in_isolation() {
    // The reference backend deserves its own line in a failing test run.
    let failures = check_backend(BackendKind::Was);
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn differential_oracle_separates_every_backend_pair() {
    // 4 backends → 6 unordered pairs. Each pair declares different
    // semantics (caps, shapes, visibility), so each must produce a
    // different observable history for the shared divergence script.
    // The acceptance bar is ≥ 3 observable divergences; the model today
    // delivers all 6, and this pins that.
    let pairs = divergent_pairs(2012);
    assert_eq!(
        pairs.len(),
        6,
        "expected every distinct backend pair to diverge, got {pairs:?}"
    );
    assert!(
        pairs.len() >= 3,
        "fewer than 3 observable cross-backend divergences: {pairs:?}"
    );
}

#[test]
fn differential_oracle_is_deterministic_and_reflexive() {
    for k in BackendKind::ALL {
        assert_eq!(
            history_fingerprint(k, 2012),
            history_fingerprint(k, 2012),
            "{k} history must be reproducible"
        );
    }
    // Divergence is seed-stable: a different seed still separates every
    // pair (the semantics differ, not one lucky hash).
    assert_eq!(divergent_pairs(7).len(), 6);
}
