//! The rolling-window dedup core shared by batch and streaming filtering.
//!
//! Temporal filtering (same code + same location) and spatial filtering
//! (same code, any location) are the same algorithm over different keys:
//! keep the first record of a burst, absorb everything of the same key that
//! arrives within `threshold` of the *last* sighting (so storms extend
//! their own window), start a new burst after a gap. The batch
//! [`TemporalFilter`](super::TemporalFilter) / [`SpatialFilter`](super::SpatialFilter)
//! stages and the [`OnlineAnalyzer`](crate::stream::OnlineAnalyzer) all
//! instantiate this one [`DedupWindow`], which is what makes their
//! batch/stream equivalence structural rather than coincidental.

use bgp_model::{Duration, Timestamp};
use std::collections::BTreeMap;

/// What to do with one observed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DedupDecision {
    /// First sighting of this key, or a reappearance beyond the window:
    /// the record starts a new kept event.
    Fresh,
    /// Within the window of the last sighting: merge into the slot the
    /// caller registered when the kept event was fresh.
    Merged(u32),
}

/// Rolling-window deduplication state for one key type.
///
/// Batch callers pass the output index of each fresh event as its *slot* so
/// later merges know which kept event to absorb into; streaming callers that
/// only need the decision pass `0` and ignore the slot.
#[derive(Debug, Clone)]
pub struct DedupWindow<K> {
    threshold: Duration,
    last: BTreeMap<K, (u32, Timestamp)>,
}

impl<K: Ord> DedupWindow<K> {
    /// An empty window with the given merge threshold.
    pub fn new(threshold: Duration) -> DedupWindow<K> {
        DedupWindow {
            threshold,
            last: BTreeMap::new(),
        }
    }

    /// Observe one record of `key` at `time`.
    ///
    /// Contract: times must be fed in non-decreasing order per key. A record
    /// within `threshold` of the key's last sighting returns
    /// [`DedupDecision::Merged`] with the slot registered for the kept event
    /// and extends the window (`last sighting := time`); otherwise the
    /// record is [`DedupDecision::Fresh`] and `fresh_slot` becomes the
    /// key's registered slot.
    pub fn observe(&mut self, key: K, time: Timestamp, fresh_slot: u32) -> DedupDecision {
        match self.last.get_mut(&key) {
            Some((slot, seen)) if time - *seen <= self.threshold => {
                *seen = time;
                DedupDecision::Merged(*slot)
            }
            _ => {
                self.last.insert(key, (fresh_slot, time));
                DedupDecision::Fresh
            }
        }
    }

    /// Drop keys whose last sighting is before `cutoff`. Safe for streaming
    /// eviction: a key older than the threshold horizon could never merge
    /// again anyway.
    pub fn evict_before(&mut self, cutoff: Timestamp) {
        self.last.retain(|_, (_, seen)| *seen >= cutoff);
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.last.len()
    }

    /// Is any key tracked?
    pub fn is_empty(&self) -> bool {
        self.last.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: i64) -> Timestamp {
        Timestamp::from_unix(secs)
    }

    #[test]
    fn merges_within_window_and_extends_it() {
        let mut w: DedupWindow<u8> = DedupWindow::new(Duration::seconds(100));
        assert_eq!(w.observe(1, t(0), 0), DedupDecision::Fresh);
        assert_eq!(w.observe(1, t(90), 0), DedupDecision::Merged(0));
        // 180 is beyond 100 of the first sighting but within 100 of the
        // second — the window rolled forward.
        assert_eq!(w.observe(1, t(180), 0), DedupDecision::Merged(0));
        assert_eq!(w.observe(1, t(300), 5), DedupDecision::Fresh);
        assert_eq!(w.observe(1, t(350), 0), DedupDecision::Merged(5));
    }

    #[test]
    fn keys_are_independent() {
        let mut w: DedupWindow<(u8, u8)> = DedupWindow::new(Duration::seconds(100));
        assert_eq!(w.observe((1, 1), t(0), 0), DedupDecision::Fresh);
        assert_eq!(w.observe((1, 2), t(10), 1), DedupDecision::Fresh);
        assert_eq!(w.observe((1, 1), t(20), 9), DedupDecision::Merged(0));
        assert_eq!(w.observe((1, 2), t(20), 9), DedupDecision::Merged(1));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn eviction_forgets_stale_keys_only() {
        let mut w: DedupWindow<u8> = DedupWindow::new(Duration::seconds(100));
        w.observe(1, t(0), 0);
        w.observe(2, t(500), 1);
        w.evict_before(t(400));
        assert_eq!(w.len(), 1);
        // Key 1 forgotten: a record at 50 would now be fresh again.
        assert_eq!(w.observe(1, t(550), 2), DedupDecision::Fresh);
        assert_eq!(w.observe(2, t(550), 3), DedupDecision::Merged(1));
        w.evict_before(t(10_000));
        assert!(w.is_empty());
    }
}
