//! Identification of interruption-related fatal events (Section IV-A).
//!
//! Not every FATAL-severity code actually hurts jobs. Per error code, the
//! paper inspects which of the three cases its events exhibit:
//!
//! | observed cases | classification |
//! |---|---|
//! | 1 (+2) | interruption-related |
//! | 3 (+2), no 1 | non-fatal for applications |
//! | only 2 | undetermined (treated pessimistically as fatal) |
//! | 1 and 3 both | undetermined |
//!
//! On Intrepid this yields 31 interruption-related, 2 non-fatal, and 49
//! undetermined types (Observation 1: 20.84 % of post-filter fatal events
//! belong to the non-fatal types).

use crate::event::Event;
use crate::matching::{EventCase, Matching};
use raslog::ErrCode;
use std::collections::BTreeMap;

/// The per-code impact verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeImpact {
    /// Events of this code interrupt jobs.
    InterruptionRelated,
    /// Events of this code were seen under running jobs without harm.
    NonFatal,
    /// Only idle-location sightings — no evidence either way. The paper
    /// (and we) treat these pessimistically as interruption-related.
    UndeterminedIdle,
    /// Conflicting evidence (both interruptions and survivals).
    UndeterminedMixed,
}

impl CodeImpact {
    /// Should a predictor treat this code as dangerous? (Pessimistic rule.)
    pub fn treat_as_fatal(self) -> bool {
        !matches!(self, CodeImpact::NonFatal)
    }
}

/// Classification output plus headline counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpactSummary {
    /// Verdict per error code (codes with at least one event).
    pub per_code: BTreeMap<ErrCode, CodeImpact>,
    /// Post-filter events belonging to non-fatal codes — the "so-called
    /// fatal events that do not really impact user jobs".
    pub nonfatal_events: usize,
    /// All post-filter events considered.
    pub total_events: usize,
}

impl ImpactSummary {
    /// Count codes with a given verdict.
    pub fn count(&self, impact: CodeImpact) -> usize {
        self.per_code.values().filter(|&&v| v == impact).count()
    }

    /// Fraction of events that are fatal-labeled but harmless
    /// (Observation 1: 20.84 % on Intrepid).
    pub fn nonfatal_event_fraction(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        self.nonfatal_events as f64 / self.total_events as f64
    }
}

/// Classify every code appearing in the event stream.
///
/// Contract: `events` and `matching.per_event` are parallel arrays of equal
/// length; returns a summary covering every distinct code in the input, with
/// each event counted exactly once.
pub fn classify_impact(events: &[Event], matching: &Matching) -> ImpactSummary {
    assert_eq!(events.len(), matching.per_event.len());
    #[derive(Default)]
    struct Cases {
        interrupted: usize,
        idle: usize,
        survived: usize,
    }
    let mut per_code_cases: BTreeMap<ErrCode, Cases> = BTreeMap::new();
    for (e, m) in events.iter().zip(&matching.per_event) {
        let c = per_code_cases.entry(e.errcode).or_default();
        match m.case {
            EventCase::Interrupted => c.interrupted += 1,
            EventCase::IdleLocation => c.idle += 1,
            EventCase::NotInterrupted => c.survived += 1,
        }
    }
    let per_code: BTreeMap<ErrCode, CodeImpact> = per_code_cases
        .iter()
        .map(|(&code, c)| {
            let verdict = match (c.interrupted > 0, c.survived > 0) {
                (true, false) => CodeImpact::InterruptionRelated,
                (false, true) => CodeImpact::NonFatal,
                (false, false) => CodeImpact::UndeterminedIdle,
                (true, true) => CodeImpact::UndeterminedMixed,
            };
            (code, verdict)
        })
        .collect();
    let nonfatal_events = events
        .iter()
        .filter(|e| per_code.get(&e.errcode) == Some(&CodeImpact::NonFatal))
        .count();
    ImpactSummary {
        per_code,
        nonfatal_events,
        total_events: events.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::EventMatch;
    use bgp_model::Timestamp;
    use raslog::Catalog;

    fn ev(t: i64, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            "R00-M0".parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    fn m(case: EventCase) -> EventMatch {
        EventMatch {
            victims: if case == EventCase::Interrupted {
                vec![1]
            } else {
                vec![]
            },
            running: usize::from(case == EventCase::NotInterrupted),
            case,
        }
    }

    fn summary(cases: Vec<(&str, EventCase)>) -> ImpactSummary {
        let events: Vec<Event> = cases
            .iter()
            .enumerate()
            .map(|(i, (n, _))| ev(i as i64, n))
            .collect();
        let matching = Matching {
            per_event: cases.iter().map(|(_, c)| m(*c)).collect(),
            job_to_event: Default::default(),
        };
        classify_impact(&events, &matching)
    }

    #[test]
    fn four_verdicts() {
        use EventCase::*;
        let s = summary(vec![
            // Interruption-related: cases 1 and 2 only.
            ("_bgp_err_ddr_controller", Interrupted),
            ("_bgp_err_ddr_controller", IdleLocation),
            // Non-fatal: cases 2 and 3 only.
            ("BULK_POWER_FATAL", NotInterrupted),
            ("BULK_POWER_FATAL", IdleLocation),
            // Undetermined-idle: case 2 only.
            ("_bgp_err_diag_netbist", IdleLocation),
            // Undetermined-mixed: cases 1 and 3.
            ("_bgp_err_kernel_panic", Interrupted),
            ("_bgp_err_kernel_panic", NotInterrupted),
        ]);
        let cat = Catalog::standard();
        let get = |n: &str| s.per_code[&cat.lookup(n).unwrap()];
        assert_eq!(
            get("_bgp_err_ddr_controller"),
            CodeImpact::InterruptionRelated
        );
        assert_eq!(get("BULK_POWER_FATAL"), CodeImpact::NonFatal);
        assert_eq!(get("_bgp_err_diag_netbist"), CodeImpact::UndeterminedIdle);
        assert_eq!(get("_bgp_err_kernel_panic"), CodeImpact::UndeterminedMixed);
        assert_eq!(s.count(CodeImpact::NonFatal), 1);
        // Events of the nonfatal code: 2 of 7.
        assert_eq!(s.nonfatal_events, 2);
        assert!((s.nonfatal_event_fraction() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn pessimism_flag() {
        assert!(CodeImpact::InterruptionRelated.treat_as_fatal());
        assert!(CodeImpact::UndeterminedIdle.treat_as_fatal());
        assert!(CodeImpact::UndeterminedMixed.treat_as_fatal());
        assert!(!CodeImpact::NonFatal.treat_as_fatal());
    }

    #[test]
    fn empty_input() {
        let s = classify_impact(&[], &Matching::default());
        assert_eq!(s.total_events, 0);
        assert_eq!(s.nonfatal_event_fraction(), 0.0);
    }
}
