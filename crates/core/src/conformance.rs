//! Cross-backend conformance: declared semantics, actually enforced.
//!
//! The storage fabric simulates several backends behind one
//! [`BackendProfile`](azsim_fabric::BackendProfile): WAS (the paper's
//! reference), an S3-style peer, a GCS-style peer and a `file://`
//! no-throttle model. Each profile *declares* its semantics — cap scope,
//! throttle shape, listing consistency, per-object update limits — as
//! data. This module is the harness that holds every backend to its own
//! declaration, two ways:
//!
//! 1. **Declared-semantics checks** ([`check_backend`]): a table-driven
//!    suite ([`CHECKS`]) runs the *same* operation sequences against every
//!    backend and asserts what the profile promises:
//!    * throttle rejections carry the declared error variant and escalate
//!      along the declared curve (`SlowDown` doubling for S3, exponential
//!      `ServerBusy` pushback for GCS, hint-floored `ServerBusy` for WAS,
//!      nothing at all for `file://`);
//!    * the cap *scope* matches (partition-scoped for WAS — a fresh queue
//!      is admitted while a hot one is throttled; account-scoped for
//!      S3/GCS — the fresh queue is rejected just the same);
//!    * per-object update limits apply exactly when declared, per object;
//!    * list-after-write visibility lag is bounded by the declared window,
//!      never loses a write, and is monotonic once visible;
//!    * the `figures verify` safety invariants (no acked write lost,
//!      idempotent RMW, poison accounting, read-your-writes at the
//!      declared consistency level) hold under an inert plan;
//!    * a reduced Algorithm 1 + 3 round trip (staged upload, whole and
//!      per-block download, listing, queue produce and drain, missing
//!      resources) returns exactly what the payload function predicts.
//!
//! 2. **Differential oracle** ([`history_fingerprint`],
//!    [`divergent_pairs`]): every backend runs one shared divergence
//!    script — a same-instant put burst, a cold-queue scope probe, rapid
//!    same-row updates, fresh-blob listings — and the full observable
//!    history (outcomes, retry hints, completion times, listing contents)
//!    is folded into a fingerprint. Backends whose declarations differ
//!    **must** produce different fingerprints; two runs of the same
//!    backend must produce the same one. A refactor that quietly collapses
//!    two backends into identical behaviour fails here even if every
//!    individual semantics check still passes.
//!
//! Everything is deterministic: fixed virtual times, fixed seeds, and a
//! fixed (FNV-1a) fold, so `tests/conformance_backends.rs` can assert
//! exact divergence sets.

use crate::verify::{run_verify, VerifyConfig};
use azsim_core::SimTime;
use azsim_fabric::{BackendKind, Cluster, ClusterParams, FaultPlan};
use azsim_storage::{
    Entity, EtagCondition, PropValue, StorageError, StorageOk, StorageRequest, StorageResult,
};
use bytes::Bytes;
use std::time::Duration;

/// One failed conformance check.
#[derive(Clone, Debug)]
pub struct ConformanceFailure {
    /// The backend that broke its declaration.
    pub backend: BackendKind,
    /// Name of the check that failed (see [`CHECKS`]).
    pub check: &'static str,
    /// What the backend did instead.
    pub detail: String,
}

impl std::fmt::Display for ConformanceFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.backend, self.check, self.detail)
    }
}

/// One named conformance check: runs against a backend, `Err` carries
/// what the backend did instead of its declaration.
pub type Check = (&'static str, fn(BackendKind) -> Result<(), String>);

/// The table-driven suite: every check runs against every backend.
pub const CHECKS: &[Check] = &[
    ("throttle-shape-and-scope", check_throttle),
    ("object-update-limit", check_object_update),
    ("list-after-write-visibility", check_visibility),
    ("verify-invariants", check_verify_invariants),
    ("round-trip", check_round_trip),
];

/// Run the whole suite against one backend.
pub fn check_backend(kind: BackendKind) -> Vec<ConformanceFailure> {
    CHECKS
        .iter()
        .filter_map(|&(check, f)| {
            f(kind).err().map(|detail| ConformanceFailure {
                backend: kind,
                check,
                detail,
            })
        })
        .collect()
}

/// Run the whole suite against every backend.
pub fn check_all() -> Vec<ConformanceFailure> {
    BackendKind::ALL
        .iter()
        .flat_map(|&k| check_backend(k))
        .collect()
}

// ---------------------------------------------------------------------------
// Shared plumbing.
// ---------------------------------------------------------------------------

fn cluster(kind: BackendKind) -> Cluster {
    Cluster::new(ClusterParams::for_backend(kind.profile()))
}

fn at(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn put_msg(queue: &str) -> StorageRequest {
    StorageRequest::PutMessage {
        queue: queue.into(),
        data: Bytes::from_static(&[7u8; 64]),
        ttl: None,
    }
}

fn must<T>(r: Result<T, StorageError>, what: &str) -> Result<T, String> {
    r.map_err(|e| format!("{what} unexpectedly failed: {e}"))
}

// ---------------------------------------------------------------------------
// Check 1 — throttle shape and scope.
// ---------------------------------------------------------------------------

/// Saturate one queue with a same-instant burst, then hold the observed
/// rejections against the profile's declared
/// [`ThrottleShape`](azsim_fabric::ThrottleShape) and cap scope.
fn check_throttle(kind: BackendKind) -> Result<(), String> {
    let p = kind.profile();
    let mut c = cluster(kind);
    for q in ["hot", "fresh"] {
        must(
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.into() })
                .1,
            "create queue",
        )?;
    }

    // Same-instant burst: once the binding bucket is empty, every further
    // submission is a *consecutive* rejection, so curve backends escalate
    // deterministically.
    let t = at(1_000);
    let mut rejections: Vec<(StorageError, Duration)> = Vec::new();
    for i in 0..800usize {
        match c.submit(t, i, &put_msg("hot")).1 {
            Ok(_) => {}
            Err(
                e @ (StorageError::SlowDown { retry_after }
                | StorageError::ServerBusy { retry_after }),
            ) => rejections.push((e, retry_after)),
            Err(other) => return Err(format!("unexpected rejection variant: {other}")),
        }
        if rejections.len() >= 6 {
            break;
        }
    }

    if !p.account_cap && !p.per_partition_caps {
        // `file` declares no transaction caps anywhere: an 800-put
        // same-instant burst must sail through untouched.
        return if rejections.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "backend declares no caps but rejected {} of the burst",
                rejections.len()
            ))
        };
    }
    if rejections.is_empty() {
        return Err("declared caps never engaged in an 800-put burst".into());
    }
    // Each rejection must be exactly the declared signal for its place in
    // the run and its own hint: the variant, then the hint floor (WAS) or
    // the escalation curve and its cap (S3, GCS).
    let floor = ClusterParams::default().throttle_retry_hint;
    for (k, (got, hint)) in rejections.iter().enumerate() {
        let declared = p.throttle.reject(k as u32 + 1, *hint, floor);
        if *got != declared {
            return Err(format!(
                "rejection #{k} was {got:?}, the declared shape says {declared:?}"
            ));
        }
    }

    // Scope probe: with the hot queue saturated, is a *cold* queue still
    // admitted at the same instant?
    let fresh = c.submit(t, 9_999, &put_msg("fresh")).1;
    if p.per_partition_caps {
        if let Err(e) = fresh {
            return Err(format!(
                "partition-scoped backend rejected a cold queue ({e}) while the hot one throttled"
            ));
        }
    } else if fresh.is_ok() {
        return Err(
            "account-scoped backend admitted a cold queue while the account was saturated".into(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Check 2 — per-object update limits.
// ---------------------------------------------------------------------------

/// Rapid same-row updates: limited (per object, with declared pushback)
/// exactly when the profile declares an update rate; unlimited otherwise.
fn check_object_update(kind: BackendKind) -> Result<(), String> {
    let p = kind.profile();
    let mut c = cluster(kind);
    must(
        c.submit(at(0), 0, &StorageRequest::CreateTable { table: "t".into() })
            .1,
        "create table",
    )?;
    let entity = |rk: &str, v: i64| Entity::new("p", rk).with("v", PropValue::I64(v));
    for rk in ["r1", "r2"] {
        must(
            c.submit(
                at(100),
                0,
                &StorageRequest::InsertEntity {
                    table: "t".into(),
                    entity: entity(rk, 0),
                },
            )
            .1,
            "insert entity",
        )?;
    }
    let update = |rk: &str, v: i64| StorageRequest::UpdateEntity {
        table: "t".into(),
        entity: entity(rk, v),
        condition: EtagCondition::Any,
    };

    must(c.submit(at(5_000), 0, &update("r1", 1)).1, "first update")?;
    let second = c.submit(at(5_000), 0, &update("r1", 2)).1;
    match p.object_update_rate {
        None => {
            if let Err(e) = second {
                return Err(format!(
                    "backend declares no per-object update limit but rejected a rapid update: {e}"
                ));
            }
        }
        Some(_) => {
            match second {
                Err(StorageError::ServerBusy { .. }) => {}
                other => {
                    return Err(format!(
                        "declared per-object limit did not engage on a rapid update: {other:?}"
                    ))
                }
            }
            // The limit is per *object*: a sibling row is untouched.
            must(
                c.submit(at(5_000), 0, &update("r2", 1)).1,
                "sibling-row update under a per-object limit",
            )?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Check 3 — list-after-write visibility.
// ---------------------------------------------------------------------------

const VISIBILITY_BLOBS: usize = 16;

fn list_names(c: &mut Cluster, t: SimTime) -> Result<Vec<String>, String> {
    match c
        .submit(
            t,
            999,
            &StorageRequest::ListBlobs {
                container: "cc".into(),
            },
        )
        .1
    {
        Ok(StorageOk::Names(names)) => Ok(names),
        other => Err(format!("listing failed: {other:?}")),
    }
}

/// Freshly committed blobs may lag a listing by at most the declared
/// window; visibility is monotonic and no write is ever lost. Backends
/// declaring no window must list synchronously.
fn check_visibility(kind: BackendKind) -> Result<(), String> {
    let p = kind.profile();
    let mut c = cluster(kind);
    must(
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "cc".into(),
            },
        )
        .1,
        "create container",
    )?;
    let mut done_max = at(1_000);
    for i in 0..VISIBILITY_BLOBS {
        let (done, r) = c.submit(
            at(1_000),
            i,
            &StorageRequest::UploadBlockBlob {
                container: "cc".into(),
                blob: format!("b{i:02}"),
                data: Bytes::from(vec![3u8; 2_048]),
            },
        );
        must(r, "upload blob")?;
        done_max = done_max.max(done);
    }

    match p.list_visibility_window {
        None => {
            // Strong listing: every committed blob is visible immediately.
            let now = list_names(&mut c, done_max)?;
            if now.len() != VISIBILITY_BLOBS {
                return Err(format!(
                    "backend declares synchronous listings but showed {}/{VISIBILITY_BLOBS} \
                     fresh blobs",
                    now.len()
                ));
            }
        }
        Some(window) => {
            // Monotonic: each later listing contains every earlier one.
            let steps = [done_max, done_max + window.mul_f64(0.5), done_max + window];
            let mut prev: Vec<String> = Vec::new();
            for t in steps {
                let cur = list_names(&mut c, t)?;
                if !prev.iter().all(|b| cur.contains(b)) {
                    return Err(format!(
                        "visibility regressed: {prev:?} at an earlier instant, {cur:?} later"
                    ));
                }
                prev = cur;
            }
            // Bounded: at commit + window everything must be visible —
            // the declared window is a guarantee, not a suggestion.
            if prev.len() != VISIBILITY_BLOBS {
                return Err(format!(
                    "{} of {VISIBILITY_BLOBS} blobs still hidden after the declared \
                     {window:?} window",
                    VISIBILITY_BLOBS - prev.len()
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Check 4 — the verify suite's safety invariants.
// ---------------------------------------------------------------------------

/// The `figures verify` invariants (I1–I5) hold on every backend under an
/// inert fault plan, with read-your-writes checked at the backend's
/// declared consistency level.
fn check_verify_invariants(kind: BackendKind) -> Result<(), String> {
    let cfg = VerifyConfig {
        workers: 2,
        items: 10,
        increments: 4,
        poison: 1,
        backend: kind,
        ..VerifyConfig::quick(true)
    };
    let out = run_verify(&cfg, &FaultPlan::default());
    if out.violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "invariant violations under an inert plan: {:?}",
            out.violations
        ))
    }
}

// ---------------------------------------------------------------------------
// Check 5 — Algorithm 1 + 3 round trip.
// ---------------------------------------------------------------------------

const RT_BLOCKS: usize = 4;
const RT_BLOCK_SIZE: usize = 2 * 1024;
const RT_MESSAGES: usize = 20;

/// `len` copies of one byte chosen by (worker, unit): every answer the
/// round trip expects is computed from this.
fn payload(worker: usize, unit: usize, len: usize) -> Bytes {
    Bytes::from(vec![((worker * 131 + unit * 31) % 251) as u8; len])
}

/// One client's requests back to back: each is submitted when the previous
/// one completed, and a throttled one again after its hint, as the SDK's
/// retry policy does (for at most ten virtual minutes).
struct Session {
    c: Cluster,
    now: SimTime,
}

impl Session {
    /// The answer to `req` (`None` for an error), or the check's failure
    /// if `ok` rejects it.
    fn check(
        &mut self,
        actor: usize,
        req: &StorageRequest,
        ok: impl Fn(&StorageResult<StorageOk>) -> bool,
    ) -> Result<Option<StorageOk>, String> {
        loop {
            let (done, r) = self.c.submit(self.now, actor, req);
            self.now = done;
            match r {
                Err(
                    StorageError::ServerBusy { retry_after }
                    | StorageError::SlowDown { retry_after },
                ) if done < at(600_000) => self.now += retry_after,
                r if ok(&r) => return Ok(r.ok()),
                r => return Err(format!("{:?} answered {r:.80?}", req.class())),
            }
        }
    }
}

/// Per worker: stage four blocks, commit, download the blob whole and
/// block 2, list the container; put 20 messages on a fresh queue, drain
/// them with get + delete, read the count. Then address a missing
/// container, blob and queue. Every answer is computed from [`payload`];
/// drained payloads compare as a multiset, because delivery order is not a
/// declared guarantee.
fn check_round_trip(kind: BackendKind) -> Result<(), String> {
    use {StorageError as E, StorageOk as O, StorageRequest as R};
    let mut s = Session {
        c: cluster(kind),
        now: at(0),
    };
    let download = |container: &str, blob: &str| R::DownloadBlob {
        container: container.into(),
        blob: blob.into(),
    };
    for w in 0..2 {
        let cn = format!("alg1-{w}");
        let bn = format!("data-{w}");
        let qn = format!("alg3-{w}");
        let ids: Vec<String> = (0..RT_BLOCKS).map(|i| format!("blk-{i}")).collect();
        let mut writes = vec![R::CreateContainer {
            container: cn.clone(),
        }];
        writes.extend(ids.iter().enumerate().map(|(i, id)| R::PutBlock {
            container: cn.clone(),
            blob: bn.clone(),
            block_id: id.clone(),
            data: payload(w, i, RT_BLOCK_SIZE),
        }));
        writes.push(R::PutBlockList {
            container: cn.clone(),
            blob: bn.clone(),
            block_ids: ids,
        });
        for req in &writes {
            s.check(w, req, Result::is_ok)?;
        }
        let whole: Vec<u8> = (0..RT_BLOCKS)
            .flat_map(|i| payload(w, i, RT_BLOCK_SIZE).to_vec())
            .collect();
        let block = R::GetBlock {
            container: cn.clone(),
            blob: bn.clone(),
            index: 2,
        };
        let block_2 = &whole[2 * RT_BLOCK_SIZE..3 * RT_BLOCK_SIZE];
        for (req, want) in [(download(&cn, &bn), &whole[..]), (block, block_2)] {
            s.check(w, &req, |r| matches!(r, Ok(O::Data(d)) if d[..] == *want))?;
        }
        s.now += kind.profile().list_visibility_window.unwrap_or_default();
        let (list, listed) = (R::ListBlobs { container: cn }, vec![bn]);
        s.check(w, &list, |r| matches!(r, Ok(O::Names(n)) if *n == listed))?;

        let mut writes = vec![R::CreateQueue { queue: qn.clone() }];
        writes.extend((0..RT_MESSAGES).map(|i| R::PutMessage {
            queue: qn.clone(),
            data: payload(w, i, 64),
            ttl: None,
        }));
        for req in &writes {
            s.check(w, req, Result::is_ok)?;
        }
        let get = R::GetMessage {
            queue: qn.clone(),
            visibility_timeout: Duration::from_secs(30),
        };
        let mut drained = Vec::new();
        while let Some(O::Message(Some(m))) = s.check(w, &get, Result::is_ok)? {
            let delete = R::DeleteMessage {
                queue: qn.clone(),
                id: m.id,
                pop_receipt: m.pop_receipt,
            };
            s.check(w, &delete, Result::is_ok)?;
            drained.push(m.data);
            if drained.len() > RT_MESSAGES {
                break;
            }
        }
        let mut want: Vec<Bytes> = (0..RT_MESSAGES).map(|i| payload(w, i, 64)).collect();
        drained.sort();
        want.sort();
        if drained != want {
            return Err(format!("drained payloads are not the {RT_MESSAGES} put"));
        }
        let count = R::GetMessageCount { queue: qn };
        s.check(w, &count, |r| matches!(r, Ok(O::Count(0))))?;
    }

    let ghost_q = R::GetMessageCount {
        queue: "ghost-q".into(),
    };
    let missing = [
        (download("ghost", "b"), "ghost"),
        (download("alg1-0", "gone"), "gone"),
        (ghost_q, "ghost-q"),
    ];
    let errors: [fn(String) -> E; 3] = [E::ContainerNotFound, E::BlobNotFound, E::QueueNotFound];
    for ((req, name), error) in missing.into_iter().zip(errors) {
        s.check(0, &req, |r| r.as_ref().err() == Some(&error(name.into())))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Differential oracle.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_result(h: &mut u64, done: SimTime, r: &Result<StorageOk, StorageError>) {
    fold(h, &done.as_nanos().to_le_bytes());
    match r {
        Ok(StorageOk::Names(names)) => {
            fold(h, &[1]);
            for n in names {
                fold(h, n.as_bytes());
                fold(h, &[0xff]);
            }
        }
        Ok(_) => fold(h, &[2]),
        Err(StorageError::ServerBusy { retry_after }) => {
            fold(h, &[3]);
            fold(h, &(retry_after.as_nanos() as u64).to_le_bytes());
        }
        Err(StorageError::SlowDown { retry_after }) => {
            fold(h, &[4]);
            fold(h, &(retry_after.as_nanos() as u64).to_le_bytes());
        }
        Err(_) => fold(h, &[5]),
    }
}

/// Run the shared divergence script against one backend and fingerprint
/// the complete observable history — outcome variants, retry hints,
/// completion times and listing contents of every operation, in order.
///
/// The script deliberately crosses every axis on which the profiles
/// differ: a 400-put same-instant burst (engages WAS's per-queue cap, the
/// S3/GCS account caps at their different rates and shapes, and nothing
/// on `file://`), a cold-queue probe at the saturated instant (partition
/// vs account scope), rapid same-row updates (GCS's per-object limit),
/// and listings right after fresh uploads (S3's eventual visibility).
pub fn history_fingerprint(kind: BackendKind, seed: u64) -> u64 {
    let mut params = ClusterParams::for_backend(kind.profile());
    params.seed = seed;
    let mut c = Cluster::new(params);
    let mut h = FNV_OFFSET ^ seed;
    let mut run = |c: &mut Cluster, t: SimTime, actor: usize, req: &StorageRequest| {
        let (done, r) = c.submit(t, actor, req);
        fold_result(&mut h, done, &r);
    };

    for q in ["hot", "fresh"] {
        run(
            &mut c,
            at(0),
            0,
            &StorageRequest::CreateQueue { queue: q.into() },
        );
    }
    // Axis 1: same-instant burst — rejection onset, variant and curve.
    for i in 0..400usize {
        run(&mut c, at(1_000), i, &put_msg("hot"));
    }
    // Axis 2: cap scope — is a cold queue admitted at the hot instant?
    run(&mut c, at(1_000), 401, &put_msg("fresh"));

    // Axis 3: per-object update limits.
    run(
        &mut c,
        at(0),
        0,
        &StorageRequest::CreateTable { table: "t".into() },
    );
    let entity = |v: i64| Entity::new("p", "r").with("v", PropValue::I64(v));
    run(
        &mut c,
        at(100),
        0,
        &StorageRequest::InsertEntity {
            table: "t".into(),
            entity: entity(0),
        },
    );
    for v in 1..=4i64 {
        run(
            &mut c,
            at(5_000),
            0,
            &StorageRequest::UpdateEntity {
                table: "t".into(),
                entity: entity(v),
                condition: EtagCondition::Any,
            },
        );
    }

    // Axis 4: list-after-write visibility.
    run(
        &mut c,
        at(0),
        0,
        &StorageRequest::CreateContainer {
            container: "cc".into(),
        },
    );
    let mut done_max = at(8_000);
    for i in 0..8usize {
        let (done, r) = c.submit(
            at(8_000),
            i,
            &StorageRequest::UploadBlockBlob {
                container: "cc".into(),
                blob: format!("b{i}"),
                data: Bytes::from(vec![5u8; 1_024]),
            },
        );
        fold_result(&mut h, done, &r);
        done_max = done_max.max(done);
    }
    for t in [done_max, done_max + Duration::from_secs(3)] {
        let (done, r) = c.submit(
            t,
            999,
            &StorageRequest::ListBlobs {
                container: "cc".into(),
            },
        );
        fold_result(&mut h, done, &r);
    }
    h
}

/// All ordered backend pairs whose fingerprints differ under `seed`.
/// Every pair of *distinct* backends is expected to appear: their
/// declarations differ, so their observable histories must too.
pub fn divergent_pairs(seed: u64) -> Vec<(BackendKind, BackendKind)> {
    let prints: Vec<(BackendKind, u64)> = BackendKind::ALL
        .iter()
        .map(|&k| (k, history_fingerprint(k, seed)))
        .collect();
    let mut out = Vec::new();
    for (i, &(a, ha)) in prints.iter().enumerate() {
        for &(b, hb) in &prints[i + 1..] {
            if ha != hb {
                out.push((a, b));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_deterministic() {
        for k in BackendKind::ALL {
            assert_eq!(
                history_fingerprint(k, 2012),
                history_fingerprint(k, 2012),
                "{k} must fingerprint identically run to run"
            );
        }
    }

    #[test]
    fn was_reference_passes_every_check() {
        let failures = check_backend(BackendKind::Was);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn seed_perturbs_the_fingerprint_stream() {
        // The fold is seeded, so fingerprints from different seeds never
        // collide by construction — a guard against accidentally hashing
        // nothing.
        assert_ne!(
            history_fingerprint(BackendKind::S3, 1),
            history_fingerprint(BackendKind::S3, 2)
        );
    }
}
