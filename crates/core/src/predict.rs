//! Failure-warning policies — the paper's first Section VII recommendation,
//! operationalized.
//!
//! A failure predictor that reacts to RAS events triggers *proactive
//! actions* (checkpoint now, migrate, drain). Every action has a cost, so
//! false alarms matter. The paper's point (Observations 1 and 7): a
//! severity-only predictor wastes actions on (a) fatal-labeled codes that
//! never hurt anybody and (b) faults on idle hardware. Co-analysis gives
//! the predictor exactly the two filters it needs — per-code impact
//! verdicts and location awareness.
//!
//! This module evaluates three warning policies *offline* against an event
//! stream and its matching:
//!
//! * [`WarningPolicy::SeverityOnly`] — warn on every FATAL event (baseline);
//! * [`WarningPolicy::ImpactFiltered`] — warn only on codes co-analysis
//!   considers interruption-related (Observation 1's filter);
//! * [`WarningPolicy::ImpactAndLocation`] — additionally suppress warnings
//!   when nothing runs at the event's location (Observation 7's filter).
//!
//! A warning is *useful* if the event really interrupted a job; every other
//! warning is a false alarm. The paper's prediction: the filters cut false
//! alarms drastically while keeping recall ≈ 1 (imperfect only where a
//! code's verdict was learned wrong).

use crate::classify::ImpactSummary;
use crate::event::Event;
use crate::matching::{EventCase, Matching};

/// The three warning policies, weakest filter first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarningPolicy {
    /// Warn on every FATAL-severity event.
    SeverityOnly,
    /// Warn only on events of codes classified interruption-related (the
    /// pessimistic rule: undetermined codes still warn).
    ImpactFiltered,
    /// Impact filter + suppress warnings on idle hardware.
    ImpactAndLocation,
}

impl WarningPolicy {
    /// All policies, in evaluation order.
    pub const ALL: [WarningPolicy; 3] = [
        WarningPolicy::SeverityOnly,
        WarningPolicy::ImpactFiltered,
        WarningPolicy::ImpactAndLocation,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WarningPolicy::SeverityOnly => "severity-only",
            WarningPolicy::ImpactFiltered => "impact-filtered",
            WarningPolicy::ImpactAndLocation => "impact+location",
        }
    }

    /// Does this policy warn on the given event?
    pub fn warns(
        self,
        event: &Event,
        m: &crate::matching::EventMatch,
        impact: &ImpactSummary,
    ) -> bool {
        match self {
            WarningPolicy::SeverityOnly => true,
            WarningPolicy::ImpactFiltered => impact
                .per_code
                .get(&event.errcode)
                .is_none_or(|v| v.treat_as_fatal()),
            WarningPolicy::ImpactAndLocation => {
                let impact_ok = impact
                    .per_code
                    .get(&event.errcode)
                    .is_none_or(|v| v.treat_as_fatal());
                // "Location aware": something must be running (or just have
                // been interrupted) where the event fired.
                impact_ok && (m.running > 0 || !m.victims.is_empty())
            }
        }
    }
}

/// The outcome of evaluating one policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyScore {
    /// Which policy.
    pub policy: WarningPolicy,
    /// Warnings issued.
    pub warnings: usize,
    /// Warnings on events that really interrupted a job.
    pub useful: usize,
    /// Interrupting events that got a warning (= `useful`; kept separate
    /// for clarity of recall accounting).
    pub covered: usize,
    /// Total interrupting events.
    pub interrupting: usize,
}

impl PolicyScore {
    /// Fraction of warnings that were worth acting on.
    pub fn precision(&self) -> f64 {
        if self.warnings == 0 {
            return 0.0;
        }
        self.useful as f64 / self.warnings as f64
    }

    /// Fraction of interrupting events that were warned about.
    pub fn recall(&self) -> f64 {
        if self.interrupting == 0 {
            return 1.0;
        }
        self.covered as f64 / self.interrupting as f64
    }

    /// Warnings that were wasted actions.
    pub fn false_alarms(&self) -> usize {
        self.warnings - self.useful
    }
}

/// Evaluate every policy against a filtered event stream.
///
/// The evaluation is intentionally *optimistic about timeliness* (a warning
/// at event time counts), because the paper's argument is about *which*
/// events deserve a response, not lead time.
pub fn evaluate_policies(
    events: &[Event],
    matching: &Matching,
    impact: &ImpactSummary,
) -> Vec<PolicyScore> {
    assert_eq!(events.len(), matching.per_event.len());
    let interrupting = matching
        .per_event
        .iter()
        .filter(|m| m.case == EventCase::Interrupted)
        .count();
    WarningPolicy::ALL
        .iter()
        .map(|&policy| {
            let mut warnings = 0usize;
            let mut useful = 0usize;
            for (e, m) in events.iter().zip(&matching.per_event) {
                if policy.warns(e, m, impact) {
                    warnings += 1;
                    if m.case == EventCase::Interrupted {
                        useful += 1;
                    }
                }
            }
            PolicyScore {
                policy,
                warnings,
                useful,
                covered: useful,
                interrupting,
            }
        })
        .collect()
}

/// A *forward-looking* guard built on Observation 9: after an interruption
/// by a persistent-capable code, predict that the same midplane will strike
/// again until a clean run completes there.
///
/// Returns `(predictions, hits)`: how many "this midplane will kill the
/// next job placed on it" predictions were issued, and how many came true.
/// This is the quantity a fault-aware scheduler (Section VII) could have
/// saved.
pub fn chain_guard(events: &[Event], matching: &Matching) -> (usize, usize) {
    use std::collections::BTreeMap;
    // For each (code, midplane), walk interrupting events in time order;
    // after the first, each subsequent one within the same unbroken chain
    // is a correct prediction.
    let mut seen: BTreeMap<(raslog::ErrCode, u8), usize> = BTreeMap::new();
    let mut predictions = 0usize;
    let mut hits = 0usize;
    for (e, m) in events.iter().zip(&matching.per_event) {
        if m.case != EventCase::Interrupted {
            continue;
        }
        let key = (e.errcode, e.midplane().index() as u8);
        let n = seen.entry(key).or_insert(0);
        if *n >= 1 {
            // We had predicted "it will happen again here".
            predictions += 1;
            hits += 1;
        }
        *n += 1;
    }
    // Predictions that never came true: one per chain that ended (the
    // final event of every chain also generated a prediction).
    let unfulfilled = seen.values().filter(|&&n| n >= 1).count();
    (predictions + unfulfilled, hits)
}

/// The correctable-memory WARNING codes [`PrecursorPredictor`] counts.
const PRECURSOR_CODES: [&str; 2] = ["_bgp_warn_ecc_corrected", "_bgp_warn_single_symbol_error"];

/// A precursor-based *lead-time* predictor: correctable-memory WARNING
/// records (ECC corrected, single-symbol) often accelerate for hours before
/// the component dies. The predictor raises an alert for a midplane when at
/// least `threshold` such warnings land there within `window`; the alert is
/// a *hit* if an interrupting fatal event strikes that midplane within
/// `horizon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecursorPredictor {
    /// Sliding window over which warnings are counted.
    pub window: bgp_model::Duration,
    /// Warnings within the window needed to raise an alert.
    pub threshold: usize,
    /// How far ahead an alert is considered to predict.
    pub horizon: bgp_model::Duration,
}

impl Default for PrecursorPredictor {
    fn default() -> Self {
        PrecursorPredictor {
            window: bgp_model::Duration::hours(2),
            // Healthy midplanes log a handful of correctable errors per
            // window; a dying DIMM logs dozens. The threshold sits well
            // above the ambient Poisson tail.
            threshold: 18,
            horizon: bgp_model::Duration::hours(8),
        }
    }
}

/// The outcome of a precursor-prediction evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecursorScore {
    /// Alerts raised.
    pub alerts: usize,
    /// Alerts followed by an interrupting fatal event at that midplane
    /// within the horizon.
    pub hits: usize,
    /// Interrupting events that had an alert active before them.
    pub predicted_events: usize,
    /// Total interrupting events.
    pub interrupting_events: usize,
    /// Median alert→event lead time (seconds) over predicted events.
    pub median_lead_secs: Option<i64>,
}

impl PrecursorScore {
    /// Fraction of alerts that were followed by trouble.
    pub fn precision(&self) -> f64 {
        if self.alerts == 0 {
            return 0.0;
        }
        self.hits as f64 / self.alerts as f64
    }

    /// Fraction of interrupting events that were warned ahead of time.
    pub fn recall(&self) -> f64 {
        if self.interrupting_events == 0 {
            return 1.0;
        }
        self.predicted_events as f64 / self.interrupting_events as f64
    }
}

impl PrecursorPredictor {
    /// Evaluate against a full RAS log (for the WARNING stream) and the
    /// filtered events with their matching (for ground truth on
    /// interruptions).
    pub fn evaluate(
        &self,
        ras: &raslog::RasLog,
        events: &[crate::event::Event],
        matching: &Matching,
    ) -> PrecursorScore {
        use raslog::Severity;
        use std::collections::{BTreeMap, BTreeSet};
        let warn_codes: Vec<raslog::ErrCode> = PRECURSOR_CODES
            .iter()
            .filter_map(|n| raslog::Catalog::standard().lookup(n))
            .collect();

        // Per-midplane warning times.
        let mut warns: BTreeMap<u8, Vec<bgp_model::Timestamp>> = BTreeMap::new();
        for r in ras.records() {
            if r.severity == Severity::Warning && warn_codes.contains(&r.errcode) {
                for m in r.location.touched_midplanes() {
                    warns.entry(m.index() as u8).or_default().push(r.event_time);
                }
            }
        }

        // Alerts: sliding-window threshold crossings with a cooldown of one
        // horizon (one alert per episode).
        let mut alerts: BTreeMap<u8, Vec<bgp_model::Timestamp>> = BTreeMap::new();
        for (&mp, times) in &warns {
            let mut lo = 0usize;
            let mut last_alert: Option<bgp_model::Timestamp> = None;
            for hi in 0..times.len() {
                while times[hi] - times[lo] > self.window {
                    lo += 1;
                }
                if hi - lo + 1 >= self.threshold
                    && last_alert.is_none_or(|t| times[hi] - t > self.horizon)
                {
                    alerts.entry(mp).or_default().push(times[hi]);
                    last_alert = Some(times[hi]);
                }
            }
        }

        // Interrupting events per midplane.
        let mut targets: BTreeMap<u8, Vec<bgp_model::Timestamp>> = BTreeMap::new();
        let mut interrupting_events = 0usize;
        for (e, m) in events.iter().zip(&matching.per_event) {
            if m.case == EventCase::Interrupted {
                interrupting_events += 1;
                targets
                    .entry(e.midplane().index() as u8)
                    .or_default()
                    .push(e.time);
            }
        }

        // Score alerts and events.
        let mut hits = 0usize;
        let mut total_alerts = 0usize;
        let mut leads: Vec<i64> = Vec::new();
        let mut predicted: BTreeSet<(u8, i64)> = BTreeSet::new();
        for (&mp, alert_times) in &alerts {
            total_alerts += alert_times.len();
            let Some(event_times) = targets.get(&mp) else {
                continue;
            };
            for &a in alert_times {
                // The first interrupting event after the alert, within the
                // horizon.
                if let Some(&t) = event_times
                    .iter()
                    .find(|&&t| t >= a && t - a <= self.horizon)
                {
                    hits += 1;
                    if predicted.insert((mp, t.as_unix())) {
                        leads.push((t - a).as_secs());
                    }
                }
            }
        }
        leads.sort_unstable();
        PrecursorScore {
            alerts: total_alerts,
            hits,
            predicted_events: predicted.len(),
            interrupting_events,
            median_lead_secs: (!leads.is_empty()).then(|| leads[leads.len() / 2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_impact;
    use crate::matching::Matcher;
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
    use raslog::Catalog;

    #[test]
    fn precursor_codes_are_catalog_codes() {
        // `evaluate` skips a name the catalog lacks, so a typo would
        // silently silence the predictor instead of failing.
        for name in PRECURSOR_CODES {
            assert!(Catalog::standard().lookup(name).is_some(), "{name}");
        }
    }

    fn ev(t: i64, loc: &str, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    fn job(job_id: u64, start: i64, end: i64, part: &str, failed: bool) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(job_id as u32),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(start - 10),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(end),
            partition: part.parse().unwrap(),
            exit: if failed {
                ExitStatus::Failed(143)
            } else {
                ExitStatus::Completed
            },
        }
    }

    /// Scenario: one real interruption, one transient under a running job,
    /// one idle diagnostic event.
    fn scenario() -> (Vec<Event>, Matching, ImpactSummary) {
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 5_000, "R00-M0", true),
            job(2, 0, 50_000, "R01-M0", false),
        ]);
        let events = vec![
            ev(5_000, "R00-M0", "_bgp_err_ddr_controller"), // interrupts job 1
            ev(20_000, "R01-M0", "BULK_POWER_FATAL"),       // transient, busy
            ev(20_010, "R01-M0", "BULK_POWER_FATAL"),       // transient again
            ev(30_000, "R30-M0", "_bgp_err_diag_netbist"),  // idle
        ];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        let impact = classify_impact(&events, &matching);
        (events, matching, impact)
    }

    #[test]
    fn policies_are_strictly_more_selective() {
        let (events, matching, impact) = scenario();
        let scores = evaluate_policies(&events, &matching, &impact);
        assert_eq!(scores.len(), 3);
        let by_name: std::collections::BTreeMap<&str, &PolicyScore> =
            scores.iter().map(|s| (s.policy.name(), s)).collect();
        let sev = by_name["severity-only"];
        let imp = by_name["impact-filtered"];
        let loc = by_name["impact+location"];
        // Baseline warns on all 4 events; the impact filter drops the two
        // transient events; the location filter also drops the idle one.
        assert_eq!(sev.warnings, 4);
        assert_eq!(imp.warnings, 2);
        assert_eq!(loc.warnings, 1);
        // All policies keep the real interruption.
        for s in [sev, imp, loc] {
            assert_eq!(s.recall(), 1.0, "{}", s.policy.name());
        }
        // Precision strictly improves.
        assert!(sev.precision() < imp.precision());
        assert!(imp.precision() < loc.precision());
        assert_eq!(loc.precision(), 1.0);
        assert_eq!(sev.false_alarms(), 3);
        assert_eq!(loc.false_alarms(), 0);
    }

    #[test]
    fn empty_stream() {
        let scores = evaluate_policies(&[], &Matching::default(), &ImpactSummary::default());
        for s in scores {
            assert_eq!(s.warnings, 0);
            assert_eq!(s.recall(), 1.0);
            assert_eq!(s.precision(), 0.0);
        }
    }

    #[test]
    fn precursor_predictor_end_to_end() {
        // Real inputs: a simulated run with precursors on (the default).
        use bgp_sim::{SimConfig, Simulation};
        let mut cfg = SimConfig::small_test(41);
        cfg.days = 30;
        cfg.num_execs = 1_200;
        let out = Simulation::new(cfg).expect("valid config").run();
        let r = crate::pipeline::CoAnalysis::default().run(&out.ras, &out.jobs);
        let score = PrecursorPredictor::default().evaluate(&out.ras, &r.events, &r.matching);
        // Persistent hardware faults carry a precursor trail, so some
        // interrupting events must be predicted with positive lead time.
        assert!(score.alerts > 0, "no alerts raised");
        assert!(score.predicted_events > 0, "nothing predicted");
        assert!(score.precision() > 0.1, "precision {}", score.precision());
        let lead = score.median_lead_secs.expect("some leads");
        assert!(lead > 0, "lead {lead}");
        // Only a subset of interruptions are persistent-hardware ones, so
        // recall is partial by construction.
        assert!(score.recall() < 1.0);
    }

    #[test]
    fn precursor_predictor_empty_inputs() {
        let score = PrecursorPredictor::default().evaluate(
            &raslog::RasLog::default(),
            &[],
            &Matching::default(),
        );
        assert_eq!(score.alerts, 0);
        assert_eq!(score.precision(), 0.0);
        assert_eq!(score.recall(), 1.0);
        assert!(score.median_lead_secs.is_none());
    }

    #[test]
    fn chain_guard_counts_repeats() {
        // Three interruptions of the same code at one midplane: after the
        // first, two correct predictions; plus one outstanding prediction
        // at chain end.
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 1_000, "R00-M0", true),
            job(2, 1_100, 2_000, "R00-M0", true),
            job(3, 2_100, 3_000, "R00-M0", true),
        ]);
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(2_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(3_000, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        let (predictions, hits) = chain_guard(&events, &matching);
        assert_eq!(hits, 2);
        assert_eq!(predictions, 3); // 2 fulfilled + 1 outstanding
    }
}
