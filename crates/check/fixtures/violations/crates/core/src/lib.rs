//! Fixture: seeded `adr::atomic_ordering` violation.
//! Not compiled — scanned by the adr-check integration test.

use std::sync::atomic::{AtomicU64, Ordering};

/// An explicit ordering with no `ordering-*` audit in the (absent)
/// allowlist: a violation, whatever the ordering.
pub fn current_epoch(epoch: &AtomicU64) -> u64 {
    epoch.load(Ordering::Relaxed)
}

/// `cmp::Ordering` is not a memory ordering: fine.
pub fn epoch_is_behind(a: u64, b: u64) -> bool {
    a.cmp(&b) == std::cmp::Ordering::Less
}
