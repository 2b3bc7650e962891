//! Documented Windows Azure storage limits, as reported by the paper
//! (2011/2012-era API versions). Every limit is enforced by the service
//! state machines or by the fabric throttles.

/// Maximum transactions (entities/messages/blobs) per second for a single
/// storage account. Exceeding this can fail a role instance.
pub const ACCOUNT_TX_PER_SEC: f64 = 5_000.0;

/// Maximum bandwidth for a single storage account (3 GB/s).
pub const ACCOUNT_BANDWIDTH: f64 = 3.0 * GB as f64;

/// Maximum size of one block within a block blob (4 MB).
pub const MAX_BLOCK_SIZE: u64 = 4 * MB;

/// Maximum number of committed blocks in a block blob (50 000), capping a
/// block blob at 200 GB.
pub const MAX_BLOCKS_PER_BLOB: usize = 50_000;

/// Maximum size of a block blob (200 GB = 50 000 × 4 MB).
pub const MAX_BLOCK_BLOB_SIZE: u64 = MAX_BLOCKS_PER_BLOB as u64 * MAX_BLOCK_SIZE;

/// Block blobs up to this size (64 MB) may be uploaded in a single call
/// without staging blocks.
pub const MAX_SINGLE_SHOT_UPLOAD: u64 = 64 * MB;

/// Page blob writes must start on a multiple of this offset (512 bytes).
pub const PAGE_ALIGNMENT: u64 = 512;

/// Maximum data updated by one `PutPage` call (4 MB).
pub const MAX_PAGE_WRITE: u64 = 4 * MB;

/// Maximum size of a page blob (1 TB).
pub const MAX_PAGE_BLOB_SIZE: u64 = TB;

/// Maximum *usable* payload of a queue message: 48 KB (49 152 bytes) — the
/// remainder of the 64 KB raw size is Base64/metadata overhead. The paper
/// calls this out explicitly.
pub const MAX_MESSAGE_PAYLOAD: u64 = 48 * KB;

/// A message left in a queue for longer than this disappears (7 days under
/// the 2011 APIs; it was 2 hours before, which made Azure problematic for
/// long-running scientific applications).
pub const MESSAGE_TTL_SECS: u64 = 7 * 24 * 3600;

/// A single queue (one partition) handles at most 500 messages per second.
pub const QUEUE_MSGS_PER_SEC: f64 = 500.0;

/// A single table partition supports access to at most 500 entities per
/// second.
pub const PARTITION_ENTITIES_PER_SEC: f64 = 500.0;

/// Maximum size of one table entity (1 MB).
pub const MAX_ENTITY_SIZE: u64 = MB;

/// Maximum number of properties per entity (255).
pub const MAX_ENTITY_PROPERTIES: usize = 255;

/// One kilobyte (binary).
pub const KB: u64 = 1 << 10;
/// One megabyte (binary).
pub const MB: u64 = 1 << 20;
/// One gigabyte (binary).
pub const GB: u64 = 1 << 30;
/// One terabyte (binary).
pub const TB: u64 = 1 << 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn block_blob_cap_is_roughly_200_gb() {
        // 50 000 blocks × 4 MiB — the paper rounds this to "200 GB".
        assert_eq!(MAX_BLOCK_BLOB_SIZE, 50_000 * 4 * MB);
        assert!(MAX_BLOCK_BLOB_SIZE > 195 * GB && MAX_BLOCK_BLOB_SIZE < 200 * GB);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn usable_payload_is_49152_bytes() {
        // "48 KB (49152 Bytes to be precise) is the maximum usable size."
        assert_eq!(MAX_MESSAGE_PAYLOAD, 49_152);
    }

    #[test]
    fn units_are_consistent() {
        assert_eq!(KB * KB, MB);
        assert_eq!(MB * KB, GB);
        assert_eq!(GB * KB, TB);
    }

    #[test]
    fn ttl_is_one_week() {
        assert_eq!(MESSAGE_TTL_SECS, 604_800);
    }
}
