//! Entity tags for optimistic concurrency on table entities.

/// An opaque entity version tag. A fresh tag is issued on every insert and
/// update; conditional operations compare tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ETag(pub u64);

impl ETag {
    /// The tag an update bumps to.
    pub fn next(self) -> ETag {
        ETag(self.0 + 1)
    }
}

/// Concurrency condition supplied with updates and deletes.
///
/// The paper tests only *unconditional* updates "by using the wild card
/// character `*` for ETag" — that is [`EtagCondition::Any`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EtagCondition {
    /// `If-Match: *` — apply regardless of current version.
    Any,
    /// `If-Match: <tag>` — apply only if the entity's tag matches.
    Match(ETag),
}

impl EtagCondition {
    /// Whether this condition admits an entity currently at `current`.
    pub fn admits(self, current: ETag) -> bool {
        match self {
            EtagCondition::Any => true,
            EtagCondition::Match(t) => t == current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_increments() {
        assert_eq!(ETag(41).next(), ETag(42));
    }

    #[test]
    fn wildcard_admits_everything() {
        assert!(EtagCondition::Any.admits(ETag(1)));
        assert!(EtagCondition::Any.admits(ETag(999)));
    }

    #[test]
    fn match_admits_only_equal() {
        assert!(EtagCondition::Match(ETag(5)).admits(ETag(5)));
        assert!(!EtagCondition::Match(ETag(5)).admits(ETag(6)));
    }
}
