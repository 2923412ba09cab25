//! Adaptive temporal filtering — the per-code-threshold refinement of
//! Liang et al.'s adaptive semantic filter (the paper's reference \[4\]).
//!
//! A fixed temporal threshold treats a chatty heartbeat-style code and a
//! rare hardware alarm identically. The adaptive filter learns a threshold
//! *per error code* from that code's own interarrival structure: storms
//! produce a dense cluster of tiny gaps well separated from the
//! between-event gaps, so the threshold is placed at the widest
//! multiplicative gap in the code's sorted interarrival sample (a 1-D
//! two-cluster split in log space), clamped to a configurable range.
//!
//! The unit tests compare it to the fixed-threshold filter: on
//! storm-structured data it achieves the same compression with far less
//! risk of merging two *distinct* events of a slow code, because slow codes
//! get tight thresholds automatically.

use crate::event::Event;
use crate::filter::TemporalFilter;
use bgp_model::Duration;
use raslog::ErrCode;
use std::collections::HashMap;

/// Temporal filter with per-code thresholds learned from the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveTemporalFilter {
    /// Smallest threshold the learner may pick.
    pub min_threshold: Duration,
    /// Largest threshold the learner may pick.
    pub max_threshold: Duration,
    /// Fallback for codes with too few gaps to learn from.
    pub fallback: Duration,
}

impl Default for AdaptiveTemporalFilter {
    fn default() -> Self {
        AdaptiveTemporalFilter {
            min_threshold: Duration::seconds(30),
            max_threshold: Duration::minutes(30),
            fallback: Duration::minutes(5),
        }
    }
}

impl AdaptiveTemporalFilter {
    /// Learn a threshold for every code present in the stream.
    ///
    /// For each code, take the per-location interarrival sample, sort it,
    /// and split at the largest jump in log-space between consecutive gap
    /// values; the threshold is the geometric mean of the two sides of the
    /// split. Codes with < 4 usable gaps fall back to `fallback`.
    pub fn learn(&self, events: &[Event]) -> HashMap<ErrCode, Duration> {
        // Per (code, location) gap samples — temporal filtering is a
        // same-location notion.
        let mut last_seen: HashMap<(ErrCode, bgp_model::Location), bgp_model::Timestamp> =
            HashMap::new();
        let mut gaps: HashMap<ErrCode, Vec<f64>> = HashMap::new();
        for e in events {
            if let Some(prev) = last_seen.insert((e.errcode, e.location), e.time) {
                let dt = (e.time - prev).as_secs();
                if dt > 0 {
                    gaps.entry(e.errcode).or_default().push(dt as f64);
                }
            }
        }
        gaps.into_iter()
            .map(|(code, mut g)| {
                let threshold = if g.len() < 4 {
                    self.fallback
                } else {
                    g.sort_by(f64::total_cmp);
                    let mut best_jump = 0.0f64;
                    let mut split = None;
                    for w in g.windows(2) {
                        let jump = (w[1] / w[0]).ln();
                        if jump > best_jump {
                            best_jump = jump;
                            split = Some((w[0], w[1]));
                        }
                    }
                    match split {
                        // Geometric mean of the two sides of the widest gap.
                        Some((lo, hi)) if best_jump > (2.0f64).ln() => {
                            Duration::seconds((lo * hi).sqrt() as i64)
                        }
                        // No clear bimodality: fall back.
                        _ => self.fallback,
                    }
                };
                (
                    code,
                    clamp(threshold, self.min_threshold, self.max_threshold),
                )
            })
            .collect()
    }

    /// Learn thresholds and filter, in one step. Codes never seen in
    /// learning (impossible here, same stream) use the fallback.
    ///
    /// Contract: input must be time-sorted; output is a subsequence of the
    /// input (original order, no duplication, no new events).
    pub fn apply(&self, events: &[Event]) -> Vec<Event> {
        let thresholds = self.learn(events);
        // Same rolling-window semantics as the fixed filter, but the window
        // length depends on the event's code.
        let mut last: HashMap<(ErrCode, bgp_model::Location), (usize, bgp_model::Timestamp)> =
            HashMap::new();
        let mut out: Vec<Event> = Vec::new();
        for e in events {
            let threshold = thresholds.get(&e.errcode).copied().unwrap_or(self.fallback);
            match last.get_mut(&(e.errcode, e.location)) {
                Some((idx, seen)) if e.time - *seen <= threshold => {
                    out[*idx].absorb(e);
                    *seen = e.time;
                }
                _ => {
                    last.insert((e.errcode, e.location), (out.len(), e.time));
                    out.push(*e);
                }
            }
        }
        out
    }
}

fn clamp(d: Duration, lo: Duration, hi: Duration) -> Duration {
    Duration::seconds(d.as_secs().clamp(lo.as_secs(), hi.as_secs()))
}

/// Compare fixed vs adaptive filtering on the same stream: returns
/// `(fixed_events, adaptive_events)` counts — the ablation quantity.
pub fn compare_with_fixed(events: &[Event], fixed: TemporalFilter) -> (usize, usize) {
    (
        fixed.apply(events).len(),
        AdaptiveTemporalFilter::default().apply(events).len(),
    )
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

    /// A storm-structured stream: bursts of 10-second-gap records separated
    /// by hours.
    fn storms(name: &str, loc: &str, n_storms: i64, storm_len: i64) -> Vec<Event> {
        let mut out = Vec::new();
        for s in 0..n_storms {
            let base = s * 50_000;
            for k in 0..storm_len {
                out.push(ev(base + k * 10, loc, name));
            }
        }
        out
    }

    #[test]
    fn learns_a_threshold_between_the_modes() {
        let stream = storms("_bgp_err_kernel_panic", "R00-M0-N00-J00", 6, 12);
        let f = AdaptiveTemporalFilter::default();
        let thresholds = f.learn(&stream);
        let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
        let t = thresholds[&code].as_secs();
        // Within-storm gaps are 10 s; between storms ~50,000 s. The learned
        // threshold (geometric mean of the split ≈ √(10·50,000) ≈ 700 s,
        // within the clamp range) must separate the two modes.
        assert!(t > 10, "threshold {t} too small");
        assert!(t < 49_000, "threshold {t} would merge distinct storms");
        // And the filter collapses each storm to one event.
        assert_eq!(f.apply(&stream).len(), 6);
    }

    #[test]
    fn slow_codes_get_tight_thresholds() {
        // A code that fires every 8 minutes steadily (no storms): the fixed
        // 5-minute filter keeps them apart, but a naive larger threshold
        // would merge them. The adaptive learner sees no bimodality and
        // falls back — never over-merging.
        let steady: Vec<Event> = (0..20)
            .map(|i| ev(i * 480, "R01-M0-N00-J00", "_bgp_err_ddr_controller"))
            .collect();
        let f = AdaptiveTemporalFilter::default();
        let out = f.apply(&steady);
        assert_eq!(out.len(), 20, "steady events must not merge");
    }

    #[test]
    fn mixed_stream_filters_each_code_by_its_own_clock() {
        let mut stream = storms("_bgp_err_kernel_panic", "R00-M0-N00-J00", 4, 10);
        stream
            .extend((0..12).map(|i| ev(i * 480 + 7, "R01-M0-N00-J00", "_bgp_err_ddr_controller")));
        stream.sort_by_key(|e| e.time);
        let out = AdaptiveTemporalFilter::default().apply(&stream);
        let cat = Catalog::standard();
        let panics = out
            .iter()
            .filter(|e| e.errcode == cat.lookup("_bgp_err_kernel_panic").unwrap())
            .count();
        let ddrs = out
            .iter()
            .filter(|e| e.errcode == cat.lookup("_bgp_err_ddr_controller").unwrap())
            .count();
        assert_eq!(panics, 4, "storms collapse");
        assert_eq!(ddrs, 12, "steady stream survives");
        // Conservation.
        assert_eq!(
            out.iter().map(|e| e.merged).sum::<u32>() as usize,
            stream.len()
        );
    }

    #[test]
    fn comparable_compression_to_fixed_on_storm_data() {
        let stream = storms("_bgp_err_kernel_panic", "R00-M0-N00-J00", 8, 20);
        let (fixed, adaptive) = compare_with_fixed(&stream, TemporalFilter::default());
        assert_eq!(fixed, 8);
        assert_eq!(adaptive, 8);
    }

    #[test]
    fn sparse_codes_use_fallback() {
        let stream = vec![
            ev(0, "R00-M0", "_bgp_err_mc_timeout"),
            ev(100, "R00-M0", "_bgp_err_mc_timeout"),
        ];
        let f = AdaptiveTemporalFilter::default();
        let thresholds = f.learn(&stream);
        let code = Catalog::standard().lookup("_bgp_err_mc_timeout").unwrap();
        assert_eq!(thresholds[&code], f.fallback);
        // 100 s gap < fallback 300 s: merged.
        assert_eq!(f.apply(&stream).len(), 1);
    }
}
