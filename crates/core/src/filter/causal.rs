//! Causality-related filtering: learn which codes co-occur and collapse the
//! companions into their cause.
//!
//! After temporal-spatial filtering, storms of the *same* code are gone, but
//! a root cause that fires several *different* codes (an L1 parity error
//! that also panics the kernel) still appears as several events. The paper's
//! earlier work \[7\] mines frequently co-occurring fatal sets and filters
//! them together; this module implements that idea as association-rule
//! mining over the event stream:
//!
//! * **learn**: for every ordered code pair (A, B), count how often a
//!   B-event follows an A-event within `gap` on the same midplane; a pair
//!   with enough support and confidence becomes a rule "B is a consequence
//!   of A";
//! * **apply**: B-events within `gap` of a preceding A-event (same
//!   midplane) are merged into the A-event.

use crate::event::Event;
use bgp_model::Duration;
use raslog::ErrCode;
use std::collections::{BTreeMap, BTreeSet};

/// A learned causal rule: `consequence` follows `cause`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalRule {
    /// The root code.
    pub cause: ErrCode,
    /// The companion code it drags along.
    pub consequence: ErrCode,
    /// Number of observed co-occurrences.
    pub support: usize,
    /// P(consequence follows | cause fired).
    pub confidence: f64,
}

/// Causality-related filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CausalFilter {
    /// Max delay between cause and consequence.
    pub gap: Duration,
    /// Minimum co-occurrence count for a rule.
    pub min_support: usize,
    /// Minimum confidence for a rule.
    pub min_confidence: f64,
}

impl Default for CausalFilter {
    fn default() -> Self {
        CausalFilter {
            gap: Duration::minutes(2),
            min_support: 3,
            min_confidence: 0.5,
        }
    }
}

impl CausalFilter {
    /// Learn rules from a time-sorted event stream.
    pub fn learn(&self, events: &[Event]) -> Vec<CausalRule> {
        let mut pair_counts: BTreeMap<(ErrCode, ErrCode), usize> = BTreeMap::new();
        let mut cause_counts: BTreeMap<ErrCode, usize> = BTreeMap::new();
        for e in events {
            *cause_counts.entry(e.errcode).or_insert(0) += 1;
        }
        // For each event, look ahead within the gap on the same midplane.
        for (i, a) in events.iter().enumerate() {
            let mut seen_this_window: Vec<ErrCode> = Vec::new();
            for b in events[i + 1..].iter() {
                if b.time - a.time > self.gap {
                    break;
                }
                if b.errcode != a.errcode
                    && b.midplane() == a.midplane()
                    && !seen_this_window.contains(&b.errcode)
                {
                    seen_this_window.push(b.errcode);
                    *pair_counts.entry((a.errcode, b.errcode)).or_insert(0) += 1;
                }
            }
        }
        let mut rules: Vec<CausalRule> = pair_counts
            .into_iter()
            .filter_map(|((cause, consequence), support)| {
                let n_cause = cause_counts[&cause];
                let confidence = support as f64 / n_cause as f64;
                (support >= self.min_support && confidence >= self.min_confidence).then_some(
                    CausalRule {
                        cause,
                        consequence,
                        support,
                        confidence,
                    },
                )
            })
            .collect();
        // If A→B and B→A both qualify (mutual storms), keep the direction
        // with higher confidence so applying rules cannot delete both sides.
        rules.sort_by(|a, b| {
            b.confidence
                .total_cmp(&a.confidence)
                .then_with(|| (a.cause, a.consequence).cmp(&(b.cause, b.consequence)))
        });
        let mut kept: Vec<CausalRule> = Vec::new();
        for r in rules {
            let reversed = kept
                .iter()
                .any(|k| k.cause == r.consequence && k.consequence == r.cause);
            if !reversed {
                kept.push(r);
            }
        }
        kept
    }

    /// Apply rules to the stream: consequence events merge into the nearest
    /// preceding cause event (same midplane, within gap).
    ///
    /// Contract: input must be time-sorted; output is a subsequence of the
    /// input — only consequence events covered by a rule are dropped.
    pub fn apply(&self, events: &[Event], rules: &[CausalRule]) -> Vec<Event> {
        let rule_set: BTreeSet<(ErrCode, ErrCode)> =
            rules.iter().map(|r| (r.cause, r.consequence)).collect();
        let mut absorbed_into: Vec<Option<usize>> = vec![None; events.len()];
        for (i, b) in events.iter().enumerate() {
            // Scan backwards for a cause.
            for (j, a) in events[..i].iter().enumerate().rev() {
                if b.time - a.time > self.gap {
                    break;
                }
                if absorbed_into[j].is_none()
                    && a.midplane() == b.midplane()
                    && rule_set.contains(&(a.errcode, b.errcode))
                {
                    absorbed_into[i] = Some(j);
                    break;
                }
            }
        }
        let mut out: Vec<Event> = Vec::new();
        let mut out_index: Vec<usize> = vec![usize::MAX; events.len()];
        for (i, e) in events.iter().enumerate() {
            match absorbed_into[i] {
                Some(j) => {
                    let tgt = out_index[j];
                    out[tgt].absorb(e);
                    out_index[i] = tgt; // chains collapse into the same root
                }
                None => {
                    out_index[i] = out.len();
                    out.push(*e);
                }
            }
        }
        out
    }

    /// Learn and apply in one step.
    ///
    /// Contract: input must be time-sorted; returns the filtered subsequence
    /// plus the rules learned from this same stream.
    pub fn filter(&self, events: &[Event]) -> (Vec<Event>, Vec<CausalRule>) {
        let rules = self.learn(events);
        let filtered = self.apply(events, &rules);
        (filtered, rules)
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

    /// Build a stream where `panic` reliably follows `l1` on the same
    /// midplane, plus some unrelated events.
    fn companion_stream() -> Vec<Event> {
        let mut events = Vec::new();
        for k in 0..6 {
            let base = k * 100_000;
            events.push(ev(base, "R00-M0-N01-J01", "_bgp_err_cns_ras_storm_fatal"));
            events.push(ev(base + 20, "R00-M0-N02-J05", "_bgp_err_kernel_panic"));
        }
        // Unrelated kernel panics elsewhere (keep panic's marginal high
        // enough that the reverse rule panic→l1 has low confidence).
        for k in 0..6 {
            events.push(ev(
                5_000 + k * 90_000,
                "R11-M1-N00-J00",
                "_bgp_err_kernel_panic",
            ));
        }
        events.sort_by_key(|e| e.time);
        events
    }

    #[test]
    fn learns_companion_rule() {
        let f = CausalFilter::default();
        let rules = f.learn(&companion_stream());
        let cat = Catalog::standard();
        let l1 = cat.lookup("_bgp_err_cns_ras_storm_fatal").unwrap();
        let panic = cat.lookup("_bgp_err_kernel_panic").unwrap();
        let rule = rules
            .iter()
            .find(|r| r.cause == l1 && r.consequence == panic)
            .expect("rule learned");
        assert_eq!(rule.support, 6);
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        // The reverse direction must not qualify (confidence 6/12 = 0.5 but
        // the forward rule wins the mutual-pair tie-break).
        assert!(!rules
            .iter()
            .any(|r| r.cause == panic && r.consequence == l1));
    }

    #[test]
    fn apply_merges_consequences() {
        let f = CausalFilter::default();
        let events = companion_stream();
        let (filtered, _) = f.filter(&events);
        // 6 L1 events remain (each absorbed its panic), 6 lone panics remain.
        assert_eq!(filtered.len(), 12);
        let cat = Catalog::standard();
        let l1 = cat.lookup("_bgp_err_cns_ras_storm_fatal").unwrap();
        let l1_events: Vec<&Event> = filtered.iter().filter(|e| e.errcode == l1).collect();
        assert_eq!(l1_events.len(), 6);
        assert!(l1_events.iter().all(|e| e.merged == 2));
        // Record counts conserved.
        assert_eq!(
            filtered.iter().map(|e| e.merged).sum::<u32>() as usize,
            events.len()
        );
    }

    #[test]
    fn no_rules_from_sparse_data() {
        let f = CausalFilter::default();
        let events = vec![
            ev(0, "R00-M0", "_bgp_err_cns_ras_storm_fatal"),
            ev(10, "R00-M0", "_bgp_err_kernel_panic"),
        ];
        // Support 1 < min_support 3.
        assert!(f.learn(&events).is_empty());
        let (filtered, _) = f.filter(&events);
        assert_eq!(filtered.len(), 2);
    }

    #[test]
    fn different_midplane_not_merged() {
        let f = CausalFilter::default();
        let mut events = Vec::new();
        for k in 0..5 {
            let base = k * 100_000;
            events.push(ev(base, "R00-M0", "_bgp_err_cns_ras_storm_fatal"));
            events.push(ev(base + 20, "R00-M0", "_bgp_err_kernel_panic"));
        }
        // A panic on a different midplane right after an L1 event.
        events.push(ev(500_000, "R00-M0", "_bgp_err_cns_ras_storm_fatal"));
        events.push(ev(500_010, "R30-M1", "_bgp_err_kernel_panic"));
        events.sort_by_key(|e| e.time);
        let (filtered, rules) = f.filter(&events);
        assert!(!rules.is_empty());
        // The cross-midplane panic survives as its own event.
        let cat = Catalog::standard();
        let panic = cat.lookup("_bgp_err_kernel_panic").unwrap();
        assert!(filtered
            .iter()
            .any(|e| e.errcode == panic && e.midplane().to_string() == "R30-M1"));
    }
}
