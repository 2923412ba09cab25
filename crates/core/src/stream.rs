//! Online (streaming) co-analysis.
//!
//! The batch pipeline answers "what happened last quarter"; a control room
//! needs the same filters applied to records *as they arrive*. This module
//! provides an incremental analyzer that:
//!
//! * deduplicates the FATAL stream online with the *same*
//!   [`DedupWindow`] rolling-window core the
//!   batch `TemporalSpatial` stage instantiates (fed the same records in
//!   the same order, it surfaces exactly the events the batch
//!   temporal+spatial stack keeps — the equivalence is structural, and the
//!   test pins it);
//! * optionally applies a per-code impact map learned from an earlier
//!   offline run, so warnings skip the codes co-analysis has shown to be
//!   harmless (Observation 1 in production);
//! * bounds its own memory: every `EVICT_EVERY` records it drops rolling
//!   state older than a horizon far beyond both windows, so a long-running
//!   stream stays small without changing any decision.
//!
//! Causality and job-related filtering need hindsight (rule mining, "did a
//! clean job run in between"), so the streaming stage intentionally stops at
//! temporal+spatial — the stages that kill 95+ % of the volume.

use crate::classify::ImpactSummary;
use crate::filter::{DedupDecision, DedupWindow, SpatialFilter, TemporalFilter};
use bgp_model::{Duration, Location, Timestamp};
use raslog::{ErrCode, RasRecord, Severity};

/// Evict rolling dedup state every this many records.
const EVICT_EVERY: u64 = 8_192;

/// One coherent snapshot of an [`OnlineAnalyzer`]'s counters.
///
/// The daemon and the tests read a single snapshot instead of separate
/// getters, so the numbers are guaranteed to describe the same instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Records consumed (any severity).
    pub records_in: u64,
    /// FATAL records consumed.
    pub fatal_in: u64,
    /// Fatal records absorbed by the temporal window (same code + location).
    pub merged_temporal: u64,
    /// Temporal survivors absorbed by the spatial window (same code anywhere).
    pub merged_spatial: u64,
    /// Independent events surfaced.
    pub events_out: u64,
    /// Events that warranted a warning under the impact map.
    pub warnings: u64,
}

impl StreamCounters {
    /// Compression ratio over the fatal stream (0 when no fatals seen).
    pub fn compression(&self) -> f64 {
        if self.fatal_in == 0 {
            return 0.0;
        }
        1.0 - self.events_out as f64 / self.fatal_in as f64
    }

    /// Internal consistency: every fatal record is merged or surfaced.
    pub fn is_consistent(&self) -> bool {
        self.fatal_in == self.merged_temporal + self.merged_spatial + self.events_out
            && self.fatal_in <= self.records_in
            && self.warnings <= self.events_out
    }
}

/// What the analyzer did with one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamDecision {
    /// Below-FATAL severity: not part of the fatal stream.
    NotFatal,
    /// Merged into the current storm at the same (code, location).
    MergedTemporal,
    /// Same code seen elsewhere within the spatial window.
    MergedSpatial,
    /// A new independent fatal event. Carries whether the impact map says
    /// it deserves a warning.
    NewEvent {
        /// Warn the operator / predictor?
        warn: bool,
    },
}

/// The streaming analyzer. Feed records in non-decreasing time order.
///
/// ```
/// use bgp_model::Timestamp;
/// use coanalysis::stream::{OnlineAnalyzer, StreamDecision};
/// use raslog::{Catalog, RasRecord};
///
/// let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
/// let mut monitor = OnlineAnalyzer::new();
/// let at = |t| RasRecord::new(t, Timestamp::from_unix(t as i64),
///                             "R00-M0-N00-J00".parse().unwrap(), code);
/// assert!(matches!(monitor.push(&at(0)), StreamDecision::NewEvent { .. }));
/// assert_eq!(monitor.push(&at(10)), StreamDecision::MergedTemporal);
/// assert_eq!(monitor.events_out(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineAnalyzer {
    /// Rolling window per (code, exact location) — the temporal half.
    temporal: DedupWindow<(ErrCode, Location)>,
    /// Rolling window per code (fed temporal survivors only, mirroring the
    /// batch stack) — the spatial half.
    spatial: DedupWindow<ErrCode>,
    /// Optional per-code impact verdicts from an offline run.
    impact: Option<ImpactSummary>,
    /// How far behind the newest record eviction may drop state: far beyond
    /// both windows, so dropping it cannot change any dedup decision.
    horizon: Duration,
    counters: StreamCounters,
}

impl OnlineAnalyzer {
    /// An analyzer with the batch filters' default thresholds and no
    /// impact map (every new event warns).
    pub fn new() -> OnlineAnalyzer {
        OnlineAnalyzer::with_thresholds(
            TemporalFilter::default().threshold,
            SpatialFilter::default().threshold,
        )
    }

    /// Custom thresholds.
    pub fn with_thresholds(temporal: Duration, spatial: Duration) -> OnlineAnalyzer {
        OnlineAnalyzer {
            temporal: DedupWindow::new(temporal),
            spatial: DedupWindow::new(spatial),
            impact: None,
            horizon: Duration::seconds(temporal.as_secs().max(spatial.as_secs()) * 4 + 1),
            counters: StreamCounters::default(),
        }
    }

    /// Install an impact map from an offline co-analysis run: new events of
    /// codes classified non-fatal stop warning.
    pub fn with_impact(mut self, impact: ImpactSummary) -> OnlineAnalyzer {
        self.impact = Some(impact);
        self
    }

    /// Process one record. Every `EVICT_EVERY`th record also evicts
    /// rolling state older than the horizon.
    pub fn push(&mut self, r: &RasRecord) -> StreamDecision {
        let decision = self.decide(r);
        if self.counters.records_in.is_multiple_of(EVICT_EVERY) {
            self.evict_before(r.event_time);
        }
        decision
    }

    fn decide(&mut self, r: &RasRecord) -> StreamDecision {
        self.counters.records_in += 1;
        if r.severity != Severity::Fatal {
            return StreamDecision::NotFatal;
        }
        self.counters.fatal_in += 1;

        // Temporal: same code at the same exact location, rolling window.
        // A stream keeps no output buffer, so the slot argument is unused.
        let tkey = (r.errcode, r.location);
        if let DedupDecision::Merged(_) = self.temporal.observe(tkey, r.event_time, 0) {
            self.counters.merged_temporal += 1;
            return StreamDecision::MergedTemporal;
        }

        // Spatial: same code anywhere, rolling window over temporal
        // survivors.
        if let DedupDecision::Merged(_) = self.spatial.observe(r.errcode, r.event_time, 0) {
            self.counters.merged_spatial += 1;
            return StreamDecision::MergedSpatial;
        }

        self.counters.events_out += 1;
        let warn = self
            .impact
            .as_ref()
            .and_then(|i| i.per_code.get(&r.errcode))
            .is_none_or(|v| v.treat_as_fatal());
        if warn {
            self.counters.warnings += 1;
        }
        StreamDecision::NewEvent { warn }
    }

    /// One coherent snapshot of every counter.
    pub fn counters(&self) -> StreamCounters {
        self.counters
    }

    /// Independent events surfaced so far.
    pub fn events_out(&self) -> u64 {
        self.counters.events_out
    }

    /// Warnings raised so far.
    pub fn warnings(&self) -> u64 {
        self.counters.warnings
    }

    /// Drop rolling state older than the horizon before `now`.
    fn evict_before(&mut self, now: Timestamp) {
        let cutoff = now - self.horizon;
        self.temporal.evict_before(cutoff);
        self.spatial.evict_before(cutoff);
    }
}

impl Default for OnlineAnalyzer {
    fn default() -> Self {
        OnlineAnalyzer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use bgp_sim::{SimConfig, Simulation};
    use raslog::Catalog;

    fn rec(recid: u64, t: i64, loc: &str, name: &str) -> RasRecord {
        RasRecord::new(
            recid,
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
        )
    }

    #[test]
    fn decisions_follow_the_windows() {
        let mut a = OnlineAnalyzer::new();
        assert_eq!(
            a.push(&rec(1, 0, "R00-M0-N00-J00", "_bgp_warn_ecc_corrected")),
            StreamDecision::NotFatal
        );
        assert_eq!(
            a.push(&rec(2, 10, "R00-M0-N00-J00", "_bgp_err_kernel_panic")),
            StreamDecision::NewEvent { warn: true }
        );
        // Same code + location inside the window.
        assert_eq!(
            a.push(&rec(3, 50, "R00-M0-N00-J00", "_bgp_err_kernel_panic")),
            StreamDecision::MergedTemporal
        );
        // Same code, different location, inside the spatial window.
        assert_eq!(
            a.push(&rec(4, 90, "R11-M1-N00-J00", "_bgp_err_kernel_panic")),
            StreamDecision::MergedSpatial
        );
        // Far in the future: a fresh event.
        assert_eq!(
            a.push(&rec(5, 10_000, "R00-M0-N00-J00", "_bgp_err_kernel_panic")),
            StreamDecision::NewEvent { warn: true }
        );
        assert_eq!(a.events_out(), 2);
        assert_eq!(a.warnings(), 2);
        // The snapshot agrees with the getters and tracks the merges.
        let c = a.counters();
        assert_eq!(
            c,
            StreamCounters {
                records_in: 5,
                fatal_in: 4,
                merged_temporal: 1,
                merged_spatial: 1,
                events_out: 2,
                warnings: 2,
            }
        );
        assert!(c.is_consistent());
        assert!(c.compression() > 0.4);
    }

    #[test]
    fn impact_map_suppresses_nonfatal_warnings() {
        use crate::classify::{CodeImpact, ImpactSummary};
        let bulk = Catalog::standard().lookup("BULK_POWER_FATAL").unwrap();
        let mut impact = ImpactSummary::default();
        impact.per_code.insert(bulk, CodeImpact::NonFatal);
        let mut a = OnlineAnalyzer::new().with_impact(impact);
        assert_eq!(
            a.push(&rec(1, 0, "R00-B", "BULK_POWER_FATAL")),
            StreamDecision::NewEvent { warn: false }
        );
        // An unknown code stays pessimistic.
        assert_eq!(
            a.push(&rec(2, 10_000, "R00-M0", "_bgp_err_ddr_controller")),
            StreamDecision::NewEvent { warn: true }
        );
        assert_eq!(a.warnings(), 1);
        assert_eq!(a.events_out(), 2);
    }

    #[test]
    fn equivalent_to_batch_temporal_spatial() {
        // Feed a whole simulated log through the online analyzer: the event
        // count must equal the batch temporal→spatial stack's. The stream is
        // long enough to evict twice, so the oracle covers eviction.
        let out = Simulation::new(SimConfig::small_test(21))
            .expect("valid config")
            .run();
        let mut online = OnlineAnalyzer::new();
        for r in out.ras.records() {
            online.push(r);
        }
        let (start, end) = out.ras.time_span().expect("non-empty log");
        assert!(
            out.ras.len() as u64 > 2 * EVICT_EVERY,
            "{} records",
            out.ras.len()
        );
        assert!((end - start).as_secs() > 100 * online.horizon.as_secs());
        let raw = Event::from_fatal_records(&out.ras);
        let batch = SpatialFilter::default().apply(&TemporalFilter::default().apply(&raw));
        assert_eq!(online.events_out() as usize, batch.len());
        assert_eq!(online.counters().fatal_in as usize, raw.len());
    }

    proptest::proptest! {
        /// For ANY time-sorted record stream, the online analyzer surfaces
        /// exactly the events the batch temporal→spatial stack keeps.
        #[test]
        fn equivalent_to_batch_on_arbitrary_streams(
            gaps in proptest::collection::vec(0i64..2_000, 1..150),
            codes in proptest::collection::vec(0usize..3, 1..150),
            locs in proptest::collection::vec(0u8..4, 1..150),
        ) {
            let cat = Catalog::standard();
            let pool = [
                cat.lookup("_bgp_err_kernel_panic").unwrap(),
                cat.lookup("_bgp_err_ddr_controller").unwrap(),
                cat.lookup("BULK_POWER_FATAL").unwrap(),
            ];
            let n = gaps.len().min(codes.len()).min(locs.len());
            let mut t = 0i64;
            let records: Vec<RasRecord> = (0..n)
                .map(|i| {
                    t += gaps[i];
                    RasRecord::new(
                        i as u64,
                        Timestamp::from_unix(t),
                        format!("R0{}-M0", locs[i]).parse().unwrap(),
                        pool[codes[i] % pool.len()],
                    )
                })
                .collect();
            let mut online = OnlineAnalyzer::new();
            for r in &records {
                online.push(r);
            }
            let raw: Vec<Event> = records.iter().map(Event::from_record).collect();
            let batch =
                SpatialFilter::default().apply(&TemporalFilter::default().apply(&raw));
            proptest::prop_assert_eq!(online.events_out() as usize, batch.len());
        }
    }

    #[test]
    fn eviction_bounds_memory_without_changing_semantics_nearby() {
        // 64 locations, one record each per 64 × 10 000 s: every location
        // falls far behind the horizon between its own sightings.
        let loc = |i: u64| format!("R{}{}-M{}-N00-J00", (i / 8) % 4, i % 8, (i / 32) % 2);
        let mut a = OnlineAnalyzer::new();
        for i in 0..EVICT_EVERY - 1 {
            a.push(&rec(i, i as i64 * 10_000, &loc(i), "_bgp_err_kernel_panic"));
        }
        assert_eq!(a.temporal.len(), 64, "no eviction before the tick");
        // The tick: only the record just pushed is inside the horizon.
        let last = EVICT_EVERY - 1;
        let t = last as i64 * 10_000;
        a.push(&rec(last, t, &loc(last), "_bgp_err_kernel_panic"));
        assert_eq!(a.temporal.len(), 1);
        assert_eq!(a.spatial.len(), 1);
        // Decisions near the newest record are unchanged by the eviction...
        assert_eq!(
            a.push(&rec(last + 1, t + 60, &loc(last), "_bgp_err_kernel_panic")),
            StreamDecision::MergedTemporal
        );
        assert_eq!(
            a.push(&rec(last + 2, t + 120, &loc(0), "_bgp_err_kernel_panic")),
            StreamDecision::MergedSpatial
        );
        // ...and fresh records are still processed normally.
        assert!(matches!(
            a.push(&rec(
                last + 3,
                t + 100_000,
                &loc(0),
                "_bgp_err_kernel_panic"
            )),
            StreamDecision::NewEvent { .. }
        ));
        assert!(a.counters().is_consistent());
    }
}
