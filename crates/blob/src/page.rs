//! Page blobs: fixed-size, 512-byte-aligned random access.
//!
//! "A Page blob is created and initialized with a maximum size; pages can
//! be added at any location in the blob by specifying the offset. The
//! offset boundary should be divisible by 512, and the total data that can
//! be updated in one operation is 4 MB. A Page blob can store up to 1 TB."
//! (paper §IV-A). Unwritten ranges read back as zeros.

use azsim_storage::limits::{MAX_PAGE_BLOB_SIZE, MAX_PAGE_WRITE, PAGE_ALIGNMENT};
use azsim_storage::{StorageError, StorageResult};
use bytes::{Bytes, BytesMut};
use std::collections::BTreeMap;

/// A page blob: a sparse map of written extents.
#[derive(Clone, Debug)]
pub struct PageBlob {
    size: u64,
    /// Written ranges, keyed by start offset. Extents never overlap and
    /// are never empty; every start and length is a multiple of 512. Each
    /// is a view of the upload buffer that wrote it, so a 1 MB `put_page`
    /// costs one node however many pages it covers.
    extents: BTreeMap<u64, Bytes>,
    /// Lazily assembled full content, shared by concurrent whole-blob
    /// downloads; invalidated by writes.
    download_cache: Option<Bytes>,
}

impl PageBlob {
    /// Create a page blob with the given maximum size (multiple of 512,
    /// at most 1 TB). No storage is consumed until pages are written.
    pub fn create(size: u64) -> StorageResult<Self> {
        if size > MAX_PAGE_BLOB_SIZE {
            return Err(StorageError::BlobTooLarge { size });
        }
        if !size.is_multiple_of(PAGE_ALIGNMENT) {
            return Err(StorageError::InvalidPageRange {
                offset: 0,
                length: size,
            });
        }
        Ok(PageBlob {
            size,
            extents: BTreeMap::new(),
            download_cache: None,
        })
    }

    /// The blob's fixed maximum size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of distinct 512-byte pages currently holding written data.
    pub fn written_pages(&self) -> usize {
        let bytes: usize = self.extents.values().map(Bytes::len).sum();
        bytes / PAGE_ALIGNMENT as usize
    }

    fn check_range(&self, offset: u64, length: u64) -> StorageResult<()> {
        let bad = || StorageError::InvalidPageRange { offset, length };
        if length == 0
            || !offset.is_multiple_of(PAGE_ALIGNMENT)
            || !length.is_multiple_of(PAGE_ALIGNMENT)
            || offset.checked_add(length).is_none_or(|end| end > self.size)
        {
            return Err(bad());
        }
        Ok(())
    }

    /// The extents that intersect `offset..end`, in offset order: the one
    /// starting at or before `offset` if it reaches past it, then every
    /// one starting inside the range.
    fn overlapping(&self, offset: u64, end: u64) -> impl Iterator<Item = (u64, &Bytes)> {
        let before = self
            .extents
            .range(..offset)
            .next_back()
            .filter(|(&s, e)| s + e.len() as u64 > offset);
        before
            .into_iter()
            .chain(self.extents.range(offset..end))
            .map(|(&s, e)| (s, e))
    }

    /// Write a page range. Overlapping earlier writes are overwritten
    /// (last writer wins at 512-byte granularity): the extents the range
    /// overlaps are removed, what sticks out of it on either side is kept
    /// as a narrower view of the same buffer, and `data` goes in as one
    /// extent.
    pub fn put_page(&mut self, offset: u64, data: Bytes) -> StorageResult<()> {
        self.download_cache = None;
        let length = data.len() as u64;
        if length > MAX_PAGE_WRITE {
            return Err(StorageError::InvalidPageRange { offset, length });
        }
        self.check_range(offset, length)?;
        let end = offset + length;
        let hit: Vec<u64> = self.overlapping(offset, end).map(|(s, _)| s).collect();
        for start in hit {
            let old = self
                .extents
                .remove(&start)
                .expect("key was just read from the map");
            if start < offset {
                self.extents
                    .insert(start, old.slice(..(offset - start) as usize));
            }
            if start + old.len() as u64 > end {
                self.extents
                    .insert(end, old.slice((end - start) as usize..));
            }
        }
        self.extents.insert(offset, data);
        Ok(())
    }

    /// Read a page range; unwritten pages read as zeros.
    ///
    /// A range that lies inside one extent — any aligned sub-range of an
    /// earlier `put_page` — is a zero-copy view of that upload's buffer.
    /// A range that spans several extents or touches a hole is assembled
    /// front to back, each byte written once: extents are appended, holes
    /// zero-filled.
    pub fn get_page(&self, offset: u64, length: u64) -> StorageResult<Bytes> {
        self.check_range(offset, length)?;
        let end = offset + length;
        let mut hits = self.overlapping(offset, end).peekable();
        // Only the first overlapping extent can start at or before `offset`.
        if let Some(&(start, extent)) = hits.peek() {
            if start <= offset && end <= start + extent.len() as u64 {
                return Ok(extent.slice((offset - start) as usize..(end - start) as usize));
            }
        }
        let mut out = BytesMut::with_capacity(length as usize);
        for (start, extent) in hits {
            let (lo, hi) = (start.max(offset), (start + extent.len() as u64).min(end));
            // Extents come in offset order and never overlap, so `out` only
            // grows: first over the hole before this extent, then over it.
            out.resize((lo - offset) as usize, 0);
            out.extend_from_slice(&extent[(lo - start) as usize..(hi - start) as usize]);
        }
        out.resize(length as usize, 0);
        Ok(out.freeze())
    }

    /// Download the entire blob (`openRead()` path): all `size` bytes with
    /// zeros in unwritten holes. Cached: all concurrent downloads share
    /// one buffer.
    pub fn download(&mut self) -> Bytes {
        if let Some(c) = &self.download_cache {
            return c.clone();
        }
        // The whole blob is a valid range unless the blob is empty.
        let out = self.get_page(0, self.size).unwrap_or_else(|_| Bytes::new());
        self.download_cache = Some(out.clone());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size of the blob the reference-model proptest runs on.
    const PAGES: u64 = 64;
    const SIZE: u64 = PAGES * 512;

    #[test]
    fn create_validates_size() {
        assert!(PageBlob::create(0).is_ok());
        assert!(PageBlob::create(1024).is_ok());
        assert!(matches!(
            PageBlob::create(1000),
            Err(StorageError::InvalidPageRange { .. })
        ));
        assert!(matches!(
            PageBlob::create(MAX_PAGE_BLOB_SIZE + 512),
            Err(StorageError::BlobTooLarge { .. })
        ));
        // Exactly 1 TB is allowed — and consumes no memory until written.
        let huge = PageBlob::create(MAX_PAGE_BLOB_SIZE).unwrap();
        assert_eq!(huge.written_pages(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut b = PageBlob::create(4096).unwrap();
        let data = Bytes::from(vec![7u8; 1024]);
        b.put_page(512, data.clone()).unwrap();
        assert_eq!(b.get_page(512, 1024).unwrap(), data);
        assert_eq!(b.written_pages(), 2);
    }

    #[test]
    fn unwritten_ranges_read_zero() {
        let mut b = PageBlob::create(2048).unwrap();
        b.put_page(512, Bytes::from(vec![9u8; 512])).unwrap();
        let all = b.download();
        assert_eq!(all.len(), 2048);
        assert!(all[..512].iter().all(|&x| x == 0));
        assert!(all[512..1024].iter().all(|&x| x == 9));
        assert!(all[1024..].iter().all(|&x| x == 0));
    }

    #[test]
    fn alignment_rules_enforced() {
        let mut b = PageBlob::create(8192).unwrap();
        // Misaligned offset.
        assert!(b.put_page(100, Bytes::from(vec![0u8; 512])).is_err());
        // Misaligned length.
        assert!(b.put_page(0, Bytes::from(vec![0u8; 100])).is_err());
        // Empty write.
        assert!(b.put_page(0, Bytes::new()).is_err());
        // Past the end.
        assert!(b.put_page(8192, Bytes::from(vec![0u8; 512])).is_err());
        assert!(b.put_page(7680, Bytes::from(vec![0u8; 1024])).is_err());
        // Reads follow the same rules.
        assert!(b.get_page(1, 512).is_err());
        assert!(b.get_page(0, 0).is_err());
        assert!(b.get_page(0, 8704).is_err());
    }

    #[test]
    fn write_larger_than_4mb_rejected() {
        let mut b = PageBlob::create(8 * 1024 * 1024).unwrap();
        let big = Bytes::from(vec![0u8; (MAX_PAGE_WRITE + PAGE_ALIGNMENT) as usize]);
        assert!(matches!(
            b.put_page(0, big),
            Err(StorageError::InvalidPageRange { .. })
        ));
        let ok = Bytes::from(vec![1u8; MAX_PAGE_WRITE as usize]);
        b.put_page(0, ok).unwrap();
    }

    #[test]
    fn overlapping_writes_last_writer_wins() {
        let mut b = PageBlob::create(2048).unwrap();
        b.put_page(0, Bytes::from(vec![1u8; 1536])).unwrap();
        b.put_page(512, Bytes::from(vec![2u8; 512])).unwrap();
        let out = b.get_page(0, 1536).unwrap();
        assert!(out[..512].iter().all(|&x| x == 1));
        assert!(out[512..1024].iter().all(|&x| x == 2));
        assert!(out[1024..].iter().all(|&x| x == 1));
    }

    #[test]
    fn aligned_sub_range_read_shares_the_upload_allocation() {
        let mut b = PageBlob::create(8192).unwrap();
        let data = Bytes::from((0..4096u32).map(|i| (i / 512) as u8).collect::<Vec<u8>>());
        b.put_page(1024, data.clone()).unwrap();
        // Neither the whole extent nor a strict sub-range of it is copied.
        assert_eq!(b.get_page(1024, 4096).unwrap().as_ptr(), data.as_ptr());
        let inner = b.get_page(2048, 1024).unwrap();
        assert_eq!(inner.as_ptr(), data[1024..].as_ptr());
        assert_eq!(inner, data.slice(1024..2048));
        // Splitting the extent keeps both remnants as views of the upload.
        b.put_page(2560, Bytes::from(vec![9u8; 512])).unwrap();
        assert_eq!(b.written_pages(), 8);
        assert_eq!(b.get_page(1024, 1536).unwrap().as_ptr(), data.as_ptr());
        assert_eq!(
            b.get_page(3072, 2048).unwrap().as_ptr(),
            data[2048..].as_ptr()
        );
    }

    /// Reads large enough to be assembled in a recycled buffer (`bytes`
    /// parks buffers of 128 KiB and more; the proptest below stays under
    /// that) must still read zeros in holes the recycler saw dirty.
    #[test]
    fn holes_read_zero_from_recycled_dirty_buffers() {
        const MIB: u64 = 1 << 20;
        // One dirty spare for each size the reads below ask for.
        let dirty: Vec<*const u8> = [4 * MIB, 3 * MIB, 2 * MIB, MIB + 512]
            .into_iter()
            .map(|len| {
                let mut buf = BytesMut::zeroed(len as usize);
                buf.fill(0xFF);
                buf.freeze().as_ptr()
            })
            .collect();
        let mut b = PageBlob::create(4 * MIB).unwrap();
        // hole [0, ½ M) · extent [½ M, 1½ M) · hole · extent [2½ M, 3½ M) · hole
        let (first, second) = (MIB / 2, 5 * MIB / 2);
        b.put_page(first, Bytes::from(vec![0x11u8; MIB as usize]))
            .unwrap();
        b.put_page(second, Bytes::from(vec![0x22u8; MIB as usize]))
            .unwrap();
        let mut expect = vec![0u8; 4 * MIB as usize];
        expect[first as usize..(first + MIB) as usize].fill(0x11);
        expect[second as usize..(second + MIB) as usize].fill(0x22);

        let reads = [
            (0, 4 * MIB),       // leading, middle and trailing hole
            (0, 3 * MIB),       // ends inside the second extent
            (MIB, 2 * MIB),     // starts inside the first extent
            (first, MIB + 512), // one extent, then 512 bytes of hole
        ];
        for ((offset, len), spare) in reads.into_iter().zip(dirty) {
            let got = b.get_page(offset, len).unwrap();
            assert_eq!(got.as_ptr(), spare, "read was not assembled in a spare");
            assert!(
                got == expect[offset as usize..(offset + len) as usize],
                "get_page({offset}, {len}) differs from the reference"
            );
        }
        assert!(
            b.download() == expect,
            "download differs from the reference"
        );
    }

    proptest::proptest! {
        /// Interleaved aligned writes, range reads and whole-blob downloads
        /// match a flat reference buffer: reads inside one extent, across
        /// several, over holes, and after overwrites that trim an extent or
        /// split it in two.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..PAGES, 1u64..24, 0u8..=255), 0..80)
        ) {
            let mut blob = PageBlob::create(SIZE).unwrap();
            let mut reference = vec![0u8; SIZE as usize];
            let mut written = [false; PAGES as usize];
            for (kind, page, len_pages, fill) in ops {
                let offset = page * 512;
                let len = (len_pages * 512).min(SIZE - offset);
                let range = offset as usize..(offset + len) as usize;
                match kind {
                    0 | 1 => {
                        // Every page of a write differs, so a view that is
                        // off by a page cannot pass for the right one.
                        let data: Vec<u8> = (0..len)
                            .map(|i| fill.wrapping_add((i / 512) as u8))
                            .collect();
                        reference[range].copy_from_slice(&data);
                        written[page as usize..(page + len / 512) as usize].fill(true);
                        blob.put_page(offset, Bytes::from(data)).unwrap();
                    }
                    2 => {
                        let got = blob.get_page(offset, len).unwrap();
                        proptest::prop_assert_eq!(got.as_ref(), &reference[range]);
                    }
                    _ => {
                        let got = blob.download();
                        proptest::prop_assert_eq!(got.as_ref(), reference.as_slice());
                    }
                }
                proptest::prop_assert_eq!(
                    blob.written_pages(),
                    written.iter().filter(|&&w| w).count()
                );
            }
            let got = blob.download();
            proptest::prop_assert_eq!(got.as_ref(), reference.as_slice());
        }
    }
}
