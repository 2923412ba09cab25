//! Temporal filtering: collapse repeats of the same code at the same
//! location within a threshold.
//!
//! "Temporal filtering removes multiple events being reported from the same
//! location within a threshold" (Section IV, citing Liang et al. \[12\]).
//! The gap is measured against the *last kept or absorbed* record, so a
//! continuous stream of repeats collapses into one event no matter how long
//! the storm runs — the classic behaviour of \[12\].

use crate::event::Event;
use crate::filter::dedup::{DedupDecision, DedupWindow};
use bgp_model::Duration;

/// Temporal filter with a configurable threshold (default 300 s, the common
/// choice in the Blue Gene literature).
///
/// ```
/// use bgp_model::Timestamp;
/// use coanalysis::event::Event;
/// use coanalysis::filter::TemporalFilter;
/// use raslog::Catalog;
///
/// let code = Catalog::standard().lookup("_bgp_err_ddr_controller").unwrap();
/// let loc = "R00-M0-N00-J00".parse().unwrap();
/// let storm: Vec<Event> = (0..20)
///     .map(|i| Event::synthetic(Timestamp::from_unix(i * 30), loc, code, 1, i as u64))
///     .collect();
/// let events = TemporalFilter::default().apply(&storm);
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].merged, 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalFilter {
    /// Records of the same (code, location) closer than this to the previous
    /// one are merged into it.
    pub threshold: Duration,
}

impl Default for TemporalFilter {
    fn default() -> Self {
        TemporalFilter {
            threshold: Duration::minutes(5),
        }
    }
}

impl TemporalFilter {
    /// Apply to a time-sorted event stream (the `TemporalSpatial` stage's
    /// first half, run per error-code shard).
    ///
    /// Contract: input must be time-sorted; output is a subsequence of the
    /// input keeping the first event of each same-location burst per code.
    pub fn apply(&self, events: &[Event]) -> Vec<Event> {
        // Shared rolling-window core, keyed by (code, exact location) packed
        // into one integer: the window only asks whether two keys are equal.
        let key = |e: &Event| u64::from(e.errcode.0) << 32 | u64::from(e.location.packed());
        let mut window = DedupWindow::new(self.threshold);
        let mut out: Vec<Event> = Vec::new();
        for e in events {
            match window.observe(key(e), e.time, out.len() as u32) {
                DedupDecision::Merged(slot) => out[slot as usize].absorb(e),
                DedupDecision::Fresh => out.push(*e),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Timestamp;
    use raslog::Catalog;

    fn ev(t: i64, loc: &str, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    #[test]
    fn collapses_repeats_within_threshold() {
        let f = TemporalFilter::default();
        let events = vec![
            ev(0, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
            ev(100, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
            ev(200, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
        ];
        let out = f.apply(&events);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged, 3);
        assert_eq!(out[0].time, Timestamp::from_unix(0));
    }

    #[test]
    fn rolling_window_extends_through_long_storms() {
        // Records every 200 s for 40 minutes: each is within 300 s of the
        // previous, so the whole storm is one event even though the last
        // record is far from the first.
        let f = TemporalFilter::default();
        let events: Vec<Event> = (0..12)
            .map(|i| ev(i * 200, "R00-M0-N01-J02", "_bgp_err_kernel_panic"))
            .collect();
        let out = f.apply(&events);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged, 12);
    }

    #[test]
    fn gap_beyond_threshold_starts_new_event() {
        let f = TemporalFilter::default();
        let events = vec![
            ev(0, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
            ev(1000, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
        ];
        let out = f.apply(&events);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn different_locations_or_codes_kept() {
        let f = TemporalFilter::default();
        let events = vec![
            ev(0, "R00-M0-N01-J02", "_bgp_err_kernel_panic"),
            ev(10, "R00-M0-N01-J03", "_bgp_err_kernel_panic"),
            ev(20, "R00-M0-N01-J02", "_bgp_err_ddr_controller"),
        ];
        let out = f.apply(&events);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn merged_counts_are_conserved() {
        let f = TemporalFilter::default();
        let events: Vec<Event> = (0..50)
            .map(|i| ev(i * 7, "R01-M1-N00-J00", "_bgp_err_kernel_panic"))
            .collect();
        let out = f.apply(&events);
        let total: u32 = out.iter().map(|e| e.merged).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn empty_input() {
        assert!(TemporalFilter::default().apply(&[]).is_empty());
    }
}
