//! Error model of the simulated storage services.

use std::fmt;
use std::time::Duration;

/// Result alias used by every storage operation.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors a storage operation can return.
///
/// `ServerBusy` is the throttle signal the paper's benchmarks observe when a
/// scalability target (500 tx/s per queue/partition, 5 000 tx/s per account)
/// is exceeded; the SDK's retry policy sleeps one second and retries, just
/// like the paper's worker code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The request was throttled; retry after roughly the contained delay.
    ServerBusy {
        /// Hint for when capacity should be available again.
        retry_after: Duration,
    },
    /// An S3-style `503 SlowDown` response: the service sheds load and
    /// expects the client to back off along the escalating curve encoded
    /// in the hint. Semantically a throttle like [`StorageError::ServerBusy`],
    /// but the hint grows with consecutive rejections instead of reflecting
    /// a token-bucket deficit.
    SlowDown {
        /// Escalating back-off hint (doubles per consecutive rejection up
        /// to the backend's declared cap).
        retry_after: Duration,
    },
    /// The request (or its response) was lost and the client's wait
    /// expired. The operation may or may not have executed server-side —
    /// callers must treat it as ambiguous and retry idempotently.
    Timeout {
        /// How long the client waited before giving up.
        elapsed: Duration,
    },
    /// A partition server crashed or the partition is failing over; the
    /// partition is temporarily unavailable.
    ServerFault {
        /// Rough time until the failover window closes and the partition
        /// is served again.
        retry_after: Duration,
    },
    /// The addressed container does not exist.
    ContainerNotFound(String),
    /// The addressed blob does not exist.
    BlobNotFound(String),
    /// The addressed queue does not exist.
    QueueNotFound(String),
    /// The addressed table does not exist.
    TableNotFound(String),
    /// The addressed entity does not exist.
    EntityNotFound,
    /// The resource already exists (e.g. inserting a duplicate entity or
    /// creating an existing container without idempotent semantics).
    AlreadyExists,
    /// An ETag precondition failed on a conditional update/delete.
    PreconditionFailed,
    /// A message payload exceeded the 48 KB usable limit.
    MessageTooLarge {
        /// Size of the rejected payload.
        size: u64,
    },
    /// A block exceeded the 4 MB block limit.
    BlockTooLarge {
        /// Size of the rejected block.
        size: u64,
    },
    /// A block list exceeded 50 000 blocks (or the blob would exceed 200 GB).
    TooManyBlocks {
        /// Number of blocks in the rejected commit.
        count: usize,
    },
    /// A block id referenced by `PutBlockList` was never staged or committed.
    UnknownBlockId(String),
    /// A page write violated the 512-byte alignment rule or the 4 MB
    /// per-write cap, or fell outside the blob.
    InvalidPageRange {
        /// Offending offset.
        offset: u64,
        /// Offending length.
        length: u64,
    },
    /// The blob exists but is of the wrong kind for this operation
    /// (e.g. `PutPage` on a block blob).
    WrongBlobType,
    /// An entity exceeded the 1 MB size limit.
    EntityTooLarge {
        /// Size of the rejected entity.
        size: u64,
    },
    /// An entity exceeded 255 properties.
    TooManyProperties {
        /// Property count of the rejected entity.
        count: usize,
    },
    /// An entity-group transaction held more than 100 operations.
    BatchTooLarge {
        /// Operation count of the rejected batch.
        count: usize,
    },
    /// A `DeleteMessage` presented a pop receipt that is no longer current
    /// (the message timed out and was re-delivered to someone else).
    PopReceiptMismatch,
    /// The single-shot blob upload exceeded 64 MB.
    UploadTooLarge {
        /// Size of the rejected upload.
        size: u64,
    },
    /// Creating a page blob larger than 1 TB, or similar size violations.
    BlobTooLarge {
        /// Requested size.
        size: u64,
    },
}

impl StorageError {
    /// The server's hint for how long to wait before retrying, if the
    /// error carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            StorageError::ServerBusy { retry_after }
            | StorageError::SlowDown { retry_after }
            | StorageError::ServerFault { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ServerBusy { retry_after } => {
                write!(f, "server busy; retry after {retry_after:?}")
            }
            StorageError::SlowDown { retry_after } => {
                write!(f, "slow down; retry after {retry_after:?}")
            }
            StorageError::Timeout { elapsed } => {
                write!(f, "request timed out after {elapsed:?}")
            }
            StorageError::ServerFault { retry_after } => {
                write!(f, "partition server fault; retry after {retry_after:?}")
            }
            StorageError::ContainerNotFound(n) => write!(f, "container not found: {n}"),
            StorageError::BlobNotFound(n) => write!(f, "blob not found: {n}"),
            StorageError::QueueNotFound(n) => write!(f, "queue not found: {n}"),
            StorageError::TableNotFound(n) => write!(f, "table not found: {n}"),
            StorageError::EntityNotFound => write!(f, "entity not found"),
            StorageError::AlreadyExists => write!(f, "resource already exists"),
            StorageError::PreconditionFailed => write!(f, "ETag precondition failed"),
            StorageError::MessageTooLarge { size } => {
                write!(f, "message payload {size} B exceeds 48 KB usable limit")
            }
            StorageError::BlockTooLarge { size } => {
                write!(f, "block of {size} B exceeds 4 MB limit")
            }
            StorageError::TooManyBlocks { count } => {
                write!(f, "block list of {count} exceeds 50000-block limit")
            }
            StorageError::UnknownBlockId(id) => write!(f, "unknown block id {id:?}"),
            StorageError::InvalidPageRange { offset, length } => {
                write!(f, "invalid page range at offset {offset}, length {length}")
            }
            StorageError::WrongBlobType => write!(f, "operation not valid for this blob type"),
            StorageError::EntityTooLarge { size } => {
                write!(f, "entity of {size} B exceeds 1 MB limit")
            }
            StorageError::TooManyProperties { count } => {
                write!(f, "{count} properties exceeds 255-property limit")
            }
            StorageError::BatchTooLarge { count } => {
                write!(f, "batch of {count} operations exceeds 100-operation limit")
            }
            StorageError::PopReceiptMismatch => write!(f, "pop receipt no longer current"),
            StorageError::UploadTooLarge { size } => {
                write!(f, "single-shot upload of {size} B exceeds 64 MB limit")
            }
            StorageError::BlobTooLarge { size } => {
                write!(f, "blob size {size} B exceeds service limit")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_hint_only_where_the_server_provides_one() {
        assert_eq!(
            StorageError::ServerFault {
                retry_after: Duration::from_secs(9)
            }
            .retry_after(),
            Some(Duration::from_secs(9))
        );
        assert_eq!(
            StorageError::SlowDown {
                retry_after: Duration::from_millis(200)
            }
            .retry_after(),
            Some(Duration::from_millis(200))
        );
        assert_eq!(
            StorageError::Timeout {
                elapsed: Duration::from_secs(1)
            }
            .retry_after(),
            None
        );
        assert_eq!(StorageError::AlreadyExists.retry_after(), None);
    }

    #[test]
    fn display_is_informative() {
        let e = StorageError::MessageTooLarge { size: 65_536 };
        assert!(e.to_string().contains("65536"));
        assert!(e.to_string().contains("48 KB"));
        let e = StorageError::QueueNotFound("q7".into());
        assert!(e.to_string().contains("q7"));
    }
}
