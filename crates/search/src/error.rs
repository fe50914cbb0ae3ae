//! Typed errors for index construction and queries.
//!
//! Every public entry point of the [`MetricIndex`](crate::MetricIndex)
//! surface, and every index constructor, reports misuse — a bad pivot
//! set, an empty database, a NaN radius — through [`SearchError`]
//! rather than a panic or an empty `Option`, so serving layers can turn
//! misuse into a response rather than a crash.

use core::fmt;

/// Everything that can go wrong building or querying a metric index.
///
/// Marked `#[non_exhaustive]`: new failure modes may be added without
/// a breaking release, so downstream `match`es need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The index holds no items, so no query has a well-defined
    /// answer. Construction of classifiers also rejects this early.
    EmptyDatabase,
    /// A pivot index handed to [`Laesa::try_build`](crate::Laesa::try_build)
    /// does not address a database element.
    PivotOutOfRange {
        /// The offending pivot index.
        pivot: usize,
        /// Database size it was checked against.
        len: usize,
    },
    /// The same pivot index was supplied twice; duplicate rows would
    /// silently waste a pivot slot, so they are rejected.
    DuplicatePivot {
        /// The repeated pivot index.
        pivot: usize,
    },
    /// A query radius was NaN or negative — no result set is
    /// well-defined under such a budget.
    InvalidRadius {
        /// The offending radius.
        radius: f64,
    },
    /// A labelled classifier was given a label vector whose length
    /// does not match the index.
    LabelCount {
        /// Number of labels supplied.
        labels: usize,
        /// Number of items in the index.
        items: usize,
    },
    /// A builder was asked for a combination of knobs no backend
    /// implements (e.g. sharding a vantage-point tree).
    UnsupportedConfig {
        /// Human-readable description of the rejected combination.
        reason: &'static str,
    },
    /// A serving session's admission queue is full: the request was
    /// **not** accepted and can be retried after draining some
    /// in-flight work. This is the backpressure signal of the
    /// session/ticket serving API.
    Overloaded {
        /// The configured admission depth that was exceeded.
        depth: usize,
    },
    /// The serving session (or connection) is shutting down and no
    /// longer accepts requests; already-accepted tickets still drain.
    Shutdown,
    /// A deadline elapsed before the answer arrived: the network
    /// client's read deadline fired while requests were pending (the
    /// server may still be computing — the requests themselves were
    /// not rejected), or a server-side per-request deadline expired.
    DeadlineExceeded,
    /// Durable storage failed: a snapshot or write-ahead-log operation
    /// hit an I/O error, a corrupt or truncated file, or an
    /// unsupported on-disk version. The reason carries the detail
    /// (`cned-store` formats it); an insert reported with this error
    /// was **not** made durable and must be retried.
    Persistence {
        /// Human-readable description of the storage failure.
        reason: String,
    },
}

impl SearchError {
    /// Stable numeric code identifying the variant on the wire
    /// (`cned-serve`'s binary protocol maps errors both ways through
    /// it). Codes are append-only: existing values never change
    /// meaning across protocol versions.
    pub fn code(&self) -> u8 {
        match self {
            SearchError::EmptyDatabase => 1,
            SearchError::PivotOutOfRange { .. } => 2,
            SearchError::DuplicatePivot { .. } => 3,
            SearchError::InvalidRadius { .. } => 4,
            SearchError::LabelCount { .. } => 5,
            SearchError::UnsupportedConfig { .. } => 6,
            SearchError::Overloaded { .. } => 7,
            SearchError::Shutdown => 8,
            SearchError::DeadlineExceeded => 9,
            SearchError::Persistence { .. } => 10,
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::EmptyDatabase => write!(f, "empty database: no query has an answer"),
            SearchError::PivotOutOfRange { pivot, len } => {
                write!(
                    f,
                    "pivot index {pivot} out of range (database has {len} items)"
                )
            }
            SearchError::DuplicatePivot { pivot } => write!(f, "duplicate pivot {pivot}"),
            SearchError::InvalidRadius { radius } => {
                write!(
                    f,
                    "invalid query radius {radius} (must be non-negative, not NaN)"
                )
            }
            SearchError::LabelCount { labels, items } => {
                write!(f, "label count {labels} does not match index size {items}")
            }
            SearchError::UnsupportedConfig { reason } => {
                write!(f, "unsupported configuration: {reason}")
            }
            SearchError::Overloaded { depth } => {
                write!(
                    f,
                    "serving session overloaded (admission queue depth {depth} reached); retry later"
                )
            }
            SearchError::Shutdown => write!(f, "serving session is shutting down"),
            SearchError::DeadlineExceeded => {
                write!(f, "deadline elapsed before the response arrived")
            }
            SearchError::Persistence { reason } => {
                write!(f, "durable storage failure: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_witness_values() {
        let e = SearchError::PivotOutOfRange { pivot: 9, len: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        assert!(SearchError::DuplicatePivot { pivot: 3 }
            .to_string()
            .contains("duplicate pivot 3"));
        let e = SearchError::InvalidRadius { radius: -1.0 };
        assert!(e.to_string().contains("-1"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(SearchError::EmptyDatabase);
    }

    #[test]
    fn wire_codes_are_stable_and_distinct() {
        // The numeric codes are a wire-protocol contract: changing an
        // existing value breaks deployed client/server pairs.
        let variants = [
            (SearchError::EmptyDatabase, 1u8),
            (SearchError::PivotOutOfRange { pivot: 0, len: 0 }, 2),
            (SearchError::DuplicatePivot { pivot: 0 }, 3),
            (SearchError::InvalidRadius { radius: 0.0 }, 4),
            (
                SearchError::LabelCount {
                    labels: 0,
                    items: 0,
                },
                5,
            ),
            (SearchError::UnsupportedConfig { reason: "" }, 6),
            (SearchError::Overloaded { depth: 0 }, 7),
            (SearchError::Shutdown, 8),
            (SearchError::DeadlineExceeded, 9),
            (
                SearchError::Persistence {
                    reason: String::new(),
                },
                10,
            ),
        ];
        let mut seen = std::collections::HashSet::new();
        for (e, expected) in variants {
            assert_eq!(e.code(), expected, "{e}");
            assert!(seen.insert(e.code()), "duplicate code {}", e.code());
        }
    }
}
