//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is an immutable, cheaply-cloneable byte buffer backed by an
//! `Arc` of a vector plus a view window, so `clone()` and `slice()` are
//! O(1) and never copy payload — the property the simulated storage
//! services rely on when a 64 MB blob body flows through several layers.
//! The `Arc` wraps the vector rather than a `[u8]` so that
//! `Bytes::from(Vec<u8>)` and [`BytesMut::freeze`] adopt the vector's
//! allocation: `Vec<u8> → Arc<[u8]>` has to reallocate and copy every byte
//! to put the reference counts in front of them. [`BytesMut`] is a thin
//! growable builder that freezes into a [`Bytes`].
//!
//! # Spare buffers (a divergence from upstream `bytes`)
//!
//! Upstream frees a buffer when its last view drops. Here the drop of the
//! last view of a buffer whose capacity is at least `MIN_SPARE` (128 KiB)
//! parks the vector in a per-thread spare list, and
//! [`BytesMut::with_capacity`] / [`BytesMut::zeroed`] take the smallest
//! spare with `request ≤ capacity ≤ 2 × request` before asking the
//! allocator. `with_capacity` returns it empty and `zeroed` really
//! zero-fills it, so recycling is invisible to callers; only addresses
//! repeat.
//!
//! Why: glibc serves every request of 128 KiB or more with its own `mmap`
//! and returns it with `munmap`, so a megabyte payload that is built, used
//! once and dropped costs a page fault per 4 KiB each time round — most of
//! the blob benchmark's host time was the kernel zeroing fresh pages. A
//! parked buffer keeps its pages. Buffers below the threshold come from
//! the allocator's own free lists already and pay one integer compare on
//! their final drop.
//!
//! Bounds: the list holds at most `MAX_HELD` (256 MiB) of capacity per
//! thread (a buffer that would exceed it is freed, as upstream would),
//! never hands a request a buffer more than twice its size, and dies with
//! its thread. A `Bytes` dropped on another thread parks there; one
//! dropped while its thread's locals are being destroyed is simply freed.
//! Both numbers are constants, not options: the first is the allocator's
//! threshold, the second only bounds what an idle thread can sit on.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// Smallest capacity worth parking: glibc's threshold for serving a
/// request with its own `mmap`/`munmap` pair.
const MIN_SPARE: usize = 128 * 1024;

/// Most bytes of capacity one thread's spare list may hold.
const MAX_HELD: usize = 256 * 1024 * 1024;

/// One thread's parked vectors: empty, sorted by capacity, each of capacity
/// at least [`MIN_SPARE`], `held` (the sum of capacities) at most
/// [`MAX_HELD`].
struct Spares {
    held: usize,
    bufs: Vec<Vec<u8>>,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares { held: 0, bufs: Vec::new() })
    };
}

impl Spares {
    fn park(&mut self, mut v: Vec<u8>) {
        let cap = v.capacity();
        if self.held + cap > MAX_HELD {
            return;
        }
        v.clear();
        let at = self.bufs.partition_point(|b| b.capacity() < cap);
        self.bufs.insert(at, v);
        self.held += cap;
    }

    /// The smallest spare with `request ≤ capacity ≤ 2 × request`.
    fn take(&mut self, request: usize) -> Option<Vec<u8>> {
        let at = self.bufs.partition_point(|b| b.capacity() < request);
        if self.bufs.get(at)?.capacity() > request.saturating_mul(2) {
            return None;
        }
        let v = self.bufs.remove(at);
        self.held -= v.capacity();
        Some(v)
    }
}

/// Run `f` on this thread's spare list, unless the list cannot be had: the
/// thread's locals are already destroyed. Never panics, so a `Drop` may
/// call it.
fn with_spares<R>(f: impl FnOnce(&mut Spares) -> R) -> Option<R> {
    SPARES
        .try_with(|s| s.try_borrow_mut().ok().map(|mut spares| f(&mut spares)))
        .ok()
        .flatten()
}

/// This thread's best-fitting spare for `request`, empty. Requests under
/// [`MIN_SPARE`] can match nothing worth having and never look.
fn take_spare(request: usize) -> Option<Vec<u8>> {
    if request < MIN_SPARE {
        return None;
    }
    with_spares(|s| s.take(request)).flatten()
}

/// The vector behind a [`Bytes`]. It is dropped when the last view of it
/// is, and that drop parks a large vector instead of freeing it.
#[derive(Default)]
struct Storage(Vec<u8>);

impl Drop for Storage {
    fn drop(&mut self) {
        if self.0.capacity() >= MIN_SPARE {
            let v = std::mem::take(&mut self.0);
            // Without a list to park it in, `v` is freed with the closure.
            let _ = with_spares(|s| s.park(v));
        }
    }
}

/// An immutable, reference-counted byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Storage>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer over a static slice (copied once; the real crate borrows,
    /// but no caller here is latency-sensitive on construction).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }

    /// Copy `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// The view as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data.0[self.start..self.end]
    }
}

/// Adopts the vector's allocation: no payload byte is copied or moved.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(Storage(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "…(+{} bytes)", self.len() - 64)?;
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A growable byte buffer that freezes into an immutable [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with reserved capacity (a spare buffer when one
    /// fits, see the crate docs).
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: take_spare(cap).unwrap_or_else(|| Vec::with_capacity(cap)),
        }
    }

    /// A zero-filled buffer of length `len` (a spare buffer, filled with
    /// zeros here, when one fits).
    pub fn zeroed(len: usize) -> Self {
        let buf = match take_spare(len) {
            Some(mut spare) => {
                spare.resize(len, 0);
                spare
            }
            None => vec![0; len],
        };
        BytesMut { buf }
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.buf.extend_from_slice(other);
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Resize, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Convert into an immutable [`Bytes`] (consumes the buffer; no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b, c);
        assert_eq!(Arc::strong_count(&b.data), 3);
    }

    #[test]
    fn builder_roundtrip() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abc");
        m.extend_from_slice(b"def");
        let b = m.freeze();
        assert_eq!(&b[..], b"abcdef");
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn zeroed_is_writable_through_deref() {
        let mut m = BytesMut::zeroed(4);
        m[1..3].copy_from_slice(&[7, 8]);
        assert_eq!(&m.freeze()[..], &[0, 7, 8, 0]);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![7u8; 4096];
        let p = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), p, "From<Vec<u8>> must not copy");

        let mut m = BytesMut::with_capacity(4096);
        m.extend_from_slice(&[1u8; 4096]);
        let p = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), p, "freeze must not copy");

        let s = String::from("a string long enough to live on the heap");
        let p = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), p, "From<String> must not copy");
    }

    // Each `#[test]` runs on its own thread, so each starts with an empty
    // spare list.
    fn held() -> usize {
        SPARES.with(|s| s.borrow().held)
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn a_dropped_large_buffer_is_the_next_one_and_comes_back_clean() {
        let n = MIB;
        let mut m = BytesMut::zeroed(n);
        m.fill(0xAB);
        let dirty = m.freeze();
        let p = dirty.as_ptr();
        drop(dirty);
        // Were the buffer freed, this same-size request is the one the
        // allocator would hand its address to.
        let _decoy = vec![1u8; n];

        let m = BytesMut::zeroed(n);
        assert_eq!(m.as_ptr(), p, "zeroed must take the parked buffer");
        assert_eq!(m.len(), n);
        assert!(m.iter().all(|&b| b == 0), "a recycled buffer reads zero");
        drop(m.freeze());

        let m = BytesMut::with_capacity(n);
        assert_eq!(m.as_ptr(), p, "with_capacity must take the parked buffer");
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());

        // A vector adopted through `From<Vec<u8>>` is parked too.
        let v = vec![0xCDu8; n];
        let p = v.as_ptr();
        drop(Bytes::from(v));
        assert_eq!(BytesMut::with_capacity(n).as_ptr(), p);
    }

    #[test]
    fn only_the_last_view_of_a_large_buffer_parks_it() {
        drop(Bytes::from(vec![7u8; MIN_SPARE - 1]));
        assert_eq!(held(), 0, "a buffer under the threshold is not kept");

        let whole = Bytes::from(vec![7u8; MIN_SPARE]);
        let copy = whole.clone();
        let part = whole.slice(16..32);
        drop(whole);
        drop(copy);
        assert_eq!(held(), 0, "a live slice keeps the buffer out of the list");
        assert_eq!(&part[..], &[7u8; 16]);
        drop(part);
        assert_eq!(held(), MIN_SPARE);
    }

    #[test]
    fn the_list_is_bounded_and_fits_requests_to_spares() {
        let big = 30 * MIB;
        drop(Bytes::from(vec![1u8; big]));
        assert_eq!(held(), big);
        assert!(
            BytesMut::with_capacity(MIB).buf.capacity() < big,
            "a 1 MiB request never receives a 30 MiB spare"
        );
        assert_eq!(held(), big, "the large spare stays for a large request");
        assert!(BytesMut::with_capacity(big - MIB).buf.capacity() >= big);
        assert_eq!(held(), 0);

        // Park one more buffer than the cap has room for. `with_capacity`
        // touches no page, so this costs address space, not memory.
        let each = 32 * MIB;
        let bufs: Vec<Bytes> = (0..MAX_HELD / each + 1)
            .map(|_| Bytes::from(Vec::with_capacity(each)))
            .collect();
        drop(bufs);
        assert_eq!(held(), MAX_HELD);
    }

    #[test]
    fn the_smallest_spare_that_fits_is_taken() {
        for cap in [2 * MIB, MIB + 4096, MIB + MIB / 2, MIB - 4096] {
            drop(Bytes::from(Vec::with_capacity(cap)));
        }
        assert_eq!(BytesMut::with_capacity(MIB).buf.capacity(), MIB + 4096);
        assert_eq!(BytesMut::with_capacity(MIB).buf.capacity(), MIB + MIB / 2);
        assert_eq!(BytesMut::with_capacity(MIB).buf.capacity(), 2 * MIB);
        assert_eq!(held(), MIB - 4096, "too small for the request: left alone");
    }

    #[test]
    fn spares_belong_to_the_thread_that_dropped_them() {
        let here = Bytes::from(vec![3u8; MIB]);
        let away = Bytes::from(vec![4u8; MIB]);
        thread_local! {
            // Dropped while the thread's locals are being destroyed, possibly
            // after its spare list is gone.
            static LATE: RefCell<Option<Bytes>> = const { RefCell::new(None) };
        }
        std::thread::spawn(move || {
            LATE.with(|l| *l.borrow_mut() = Some(Bytes::from(vec![5u8; MIB])));
            drop(away);
            assert_eq!(held(), MIB);
        })
        .join()
        .expect("dropping a large buffer at thread exit must not panic");
        assert_eq!(held(), 0, "another thread's drops are not ours");
        drop(here);
        assert_eq!(held(), MIB);
    }

    #[test]
    fn equality_across_views() {
        let a = Bytes::from(vec![9, 9, 1, 2]).slice(2..);
        let b = Bytes::from(vec![1, 2]);
        assert_eq!(a, b);
        assert_eq!(a, &[1u8, 2][..]);
    }
}
