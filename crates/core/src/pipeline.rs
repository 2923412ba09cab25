//! The end-to-end co-analysis pipeline (the paper's Figure 1).
//!
//! `RAS log ─→ temporal ─→ spatial ─→ causal ─→ (match with job log)
//! ─→ job-related filter ─→ classification ─→ characterization`.
//!
//! [`CoAnalysis::run`] is a thin driver: it builds one [`AnalysisContext`]
//! (the shared index layer) and hands the full [`AnalysisSet`] to the
//! stage-graph executor in [`crate::stage`], which starts each stage as
//! soon as its dependencies have finished and runs independent stages
//! concurrently. Every stage body is serial except the temporal/spatial
//! filters, which shard their error codes across the workers. Use
//! [`CoAnalysis::run_selected`] to run only the stages you need, and
//! [`CoAnalysisConfig::sequential`] to force the single-threaded path
//! (`perfbench` times each stage both ways: `stage.*_ms` inside the
//! concurrent run, whose wall clock is `stage.wave_ms`, and
//! `stage.*_seq_ms` alone).

use crate::analysis::failure_stats::TableIv;
use crate::analysis::{
    BurstAnalysis, FdaAnalysis, FdaParams, InterruptionStats, MidplaneProfile, PropagationAnalysis,
    VulnerabilityAnalysis,
};
use crate::classify::{ImpactSummary, RootCauseSummary};
use crate::context::{AnalysisContext, AppendBatch, ContextDelta, EventStore};
use crate::event::Event;
use crate::filter::{CausalFilter, CausalRule, FilterStats, SpatialFilter, TemporalFilter};
use crate::matching::{EventCase, Matcher, Matching};
use crate::report::Observations;
use crate::stage::{self, AnalysisProducts, AnalysisSet, DeltaReport, StageCache, StageObserver};
use bgp_model::Duration;
use joblog::JobLog;
use raslog::RasLog;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoAnalysisConfig {
    /// Temporal filter threshold.
    pub temporal: TemporalFilter,
    /// Spatial filter threshold.
    pub spatial: SpatialFilter,
    /// Causal filter parameters.
    pub causal: CausalFilter,
    /// Event↔job matching window.
    pub matcher: Matcher,
    /// Wide-job threshold in midplanes (paper: 32).
    pub wide_threshold: u32,
    /// Window for "re-interrupted quickly" (Observation 6; paper: 1000 s).
    pub quick_window: Duration,
    /// Number of stage-executor workers, which run independent stages side
    /// by side; also the number of per-code chunks the temporal/spatial
    /// filters split into. 1 = fully sequential. Every stage is
    /// bit-identical at any thread count.
    pub threads: usize,
    /// Fast Dimensional Analysis (frequent-itemset mining) parameters.
    pub fda: FdaParams,
}

impl Default for CoAnalysisConfig {
    fn default() -> Self {
        CoAnalysisConfig {
            temporal: TemporalFilter::default(),
            spatial: SpatialFilter::default(),
            causal: CausalFilter::default(),
            matcher: Matcher::default(),
            wide_threshold: 32,
            quick_window: Duration::seconds(1_000),
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            fda: FdaParams::default(),
        }
    }
}

impl CoAnalysisConfig {
    /// A fully sequential configuration (ablation baseline).
    pub fn sequential() -> Self {
        CoAnalysisConfig {
            threads: 1,
            ..Default::default()
        }
    }
}

/// The pipeline entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoAnalysis {
    /// Configuration used by [`CoAnalysis::run`].
    pub config: CoAnalysisConfig,
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CoAnalysisResult {
    /// Events after temporal + spatial + causal filtering.
    pub events: Vec<Event>,
    /// Learned causal rules.
    pub causal_rules: Vec<CausalRule>,
    /// Matching of `events` against the job log.
    pub matching: Matching,
    /// Per-event job-related redundancy flags (parallel to `events`).
    pub job_redundant: Vec<bool>,
    /// Events after job-related filtering.
    pub events_final: Vec<Event>,
    /// Counts through the filter stack.
    pub filter_stats: FilterStats,
    /// Per-code impact classification (Section IV-A).
    pub impact: ImpactSummary,
    /// Per-code root-cause classification (Section IV-B).
    pub root_cause: RootCauseSummary,
    /// Table IV fits (None if either stream is too small to fit).
    pub table_iv: Option<TableIv>,
    /// Figure 4 midplane profile.
    pub midplane: MidplaneProfile,
    /// Figure 5 / Observation 6 burst analysis.
    pub burst: BurstAnalysis,
    /// Table V / Figure 6 interruption statistics.
    pub interruption: InterruptionStats,
    /// Observation 8 propagation analysis.
    pub propagation: PropagationAnalysis,
    /// Section VI-D vulnerability analysis.
    pub vulnerability: VulnerabilityAnalysis,
    /// Fast Dimensional Analysis: ranked over-represented dimension
    /// combinations among interrupted jobs.
    pub fda: FdaAnalysis,
}

impl CoAnalysis {
    /// Build with a custom configuration.
    pub fn with_config(config: CoAnalysisConfig) -> CoAnalysis {
        CoAnalysis { config }
    }

    /// Run the full pipeline.
    ///
    /// Contract: consumes the raw RAS and job logs and returns per-stage
    /// event counts plus classification summaries; deterministic for a given
    /// input (no clock or entropy reads).
    pub fn run(&self, ras: &RasLog, jobs: &JobLog) -> CoAnalysisResult {
        let ctx = AnalysisContext::new(ras, jobs);
        let full = self.run_on(&ctx, AnalysisSet::all()).into_result();
        #[expect(
            clippy::expect_used,
            reason = "the full set runs every stage, so every product is present"
        )]
        full.expect("full analysis set fills every product")
    }

    /// Run only `set` (closed over its dependencies) on freshly indexed
    /// logs.
    ///
    /// Contract: products of stages inside the closed set come back `Some`
    /// and agree exactly with a full [`CoAnalysis::run`] on the same input;
    /// everything else is `None`.
    pub fn run_selected(&self, ras: &RasLog, jobs: &JobLog, set: AnalysisSet) -> AnalysisProducts {
        let ctx = AnalysisContext::new(ras, jobs);
        self.run_on(&ctx, set)
    }

    /// Run `set` (closed over its dependencies) on an existing context —
    /// the cheapest way to run several selections over the same logs.
    ///
    /// Contract: pure function of `ctx`, the configuration, and `set`;
    /// deterministic for a given input and independent of thread count.
    pub fn run_on(&self, ctx: &AnalysisContext<'_>, set: AnalysisSet) -> AnalysisProducts {
        stage::execute(ctx, &self.config, set, None, None)
            .0
            .into_products()
    }

    /// [`CoAnalysis::run_on`] with a [`StageObserver`] notified around every
    /// stage — the hook the `bgp-serve` metrics registry (and
    /// `coctl analyze --timings`) uses to record per-stage wall-clock.
    ///
    /// Contract: produces exactly the products of [`CoAnalysis::run_on`] on
    /// the same input; the observer sees one started/finished pair per stage
    /// in the closed set and cannot affect the results.
    pub fn run_on_observed(
        &self,
        ctx: &AnalysisContext<'_>,
        set: AnalysisSet,
        observer: &dyn StageObserver,
    ) -> AnalysisProducts {
        stage::execute(ctx, &self.config, set, None, Some(observer))
            .0
            .into_products()
    }
}

/// A resident incremental co-analysis: the owned logs, their event-side
/// indexes, and the previous pass's [`StageCache`], folded forward one
/// [`AppendBatch`] at a time.
///
/// Each [`DeltaSession::append`] merges the batch into the sorted indexes
/// (`EventStore::append_ras`, `JobLog::append`), then re-runs only the
/// stages whose declared inputs changed — with the hard contract that the
/// refreshed [`CoAnalysisResult`] is **bit-identical** to a cold
/// [`CoAnalysis::run`] over the concatenation of everything ingested so
/// far. This is what lets `coserved` serve full (not just streaming-dedup)
/// analysis continuously, and `coctl analyze --append` run day-over-day.
#[derive(Debug)]
pub struct DeltaSession {
    config: CoAnalysisConfig,
    jobs: JobLog,
    store: Option<EventStore>,
    cache: StageCache,
}

impl DeltaSession {
    /// Prime a session with the base logs. Runs one full (all-dirty) pass
    /// to populate the stage cache and returns its result.
    pub fn new(
        config: CoAnalysisConfig,
        ras: &RasLog,
        jobs: JobLog,
    ) -> (DeltaSession, CoAnalysisResult) {
        let mut session = DeltaSession {
            config,
            jobs,
            store: Some(EventStore::from_ras(ras)),
            cache: StageCache::default(),
        };
        // An empty cache marks every stage dirty, so the default (empty)
        // delta yields the priming full pass.
        let (result, _) = session.run_delta(&ContextDelta::default(), None);
        (session, result)
    }

    /// Fold one batch of new records through the stage graph; returns the
    /// refreshed full report and which stages actually re-ran.
    pub fn append(&mut self, batch: AppendBatch) -> (CoAnalysisResult, DeltaReport) {
        self.append_with_observer(batch, None)
    }

    /// [`DeltaSession::append`] with a [`StageObserver`] notified around
    /// every stage that re-runs — the hook `coctl analyze --append
    /// --timings` and the daemon's fold worker use to record per-fold
    /// stage wall-clock. Clean (cache-served) stages are not reported.
    ///
    /// Contract: identical results to [`DeltaSession::append`]; the
    /// observer cannot affect them.
    pub fn append_with_observer(
        &mut self,
        batch: AppendBatch,
        observer: Option<&dyn StageObserver>,
    ) -> (CoAnalysisResult, DeltaReport) {
        let mut delta = match self.store.as_mut() {
            Some(store) => store.append_ras(batch.ras),
            None => ContextDelta::default(),
        };
        delta.jobs_appended = batch.jobs.len();
        if !batch.jobs.is_empty() {
            self.jobs.append(batch.jobs);
        }
        self.run_delta(&delta, observer)
    }

    /// Records ingested so far (events on the RAS side, rows on the job
    /// side).
    pub fn ingested(&self) -> (usize, usize) {
        let events = self.store.as_ref().map_or(0, |s| s.len());
        (events, self.jobs.len())
    }

    /// The session's job log (read-only).
    pub fn jobs(&self) -> &JobLog {
        &self.jobs
    }

    fn run_delta(
        &mut self,
        delta: &ContextDelta,
        observer: Option<&dyn StageObserver>,
    ) -> (CoAnalysisResult, DeltaReport) {
        // Move the event store into a context (no copy), run, and move it
        // back out. The job log keeps its own indexes current across
        // appends; only the FDA columns are built per pass, on first read.
        let store = self.store.take().unwrap_or_default();
        let ctx = AnalysisContext::from_store(store, &self.jobs);
        let (state, report) = stage::execute(
            &ctx,
            &self.config,
            AnalysisSet::all(),
            Some((&mut self.cache, delta)),
            observer,
        );
        self.store = Some(ctx.into_store());
        let full = state.into_products().into_result();
        #[expect(
            clippy::expect_used,
            reason = "the full set runs every stage, so every product is present"
        )]
        let result = full.expect("full analysis set fills every product");
        (result, report)
    }
}

impl CoAnalysisResult {
    /// Fraction of events that fired on idle hardware (case 2).
    pub fn idle_event_fraction(&self) -> f64 {
        let (_, idle, _) = self.matching.case_counts();
        if self.events.is_empty() {
            return 0.0;
        }
        idle as f64 / self.events.len() as f64
    }

    /// Assemble the twelve observations.
    pub fn observations(&self) -> Observations {
        Observations::assemble(
            &self.filter_stats,
            &self.impact,
            &self.root_cause,
            self.root_cause.app_event_fraction(&self.events),
            self.table_iv.as_ref(),
            &self.midplane,
            &self.burst,
            &self.interruption,
            self.idle_event_fraction(),
            &self.propagation,
            &self.vulnerability,
        )
    }

    /// Events of case 1/2/3 (convenience for reports).
    pub fn case_counts(&self) -> (usize, usize, usize) {
        self.matching.case_counts()
    }

    /// The case-2 (idle) events, by reference.
    pub fn idle_events(&self) -> Vec<&Event> {
        self.events
            .iter()
            .zip(&self.matching.per_event)
            .filter(|(_, m)| m.case == EventCase::IdleLocation)
            .map(|(e, _)| e)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_sim::{SimConfig, Simulation};

    fn small_run(seed: u64) -> (bgp_sim::SimOutput, CoAnalysisResult) {
        let out = Simulation::new(SimConfig::small_test(seed))
            .expect("valid config")
            .run();
        let result = CoAnalysis::default().run(&out.ras, &out.jobs);
        (out, result)
    }

    #[test]
    fn pipeline_compresses_heavily() {
        let (_, r) = small_run(1);
        assert!(r.filter_stats.raw_fatal > 1_000);
        assert!(
            r.filter_stats.ts_causal_compression() > 0.9,
            "compression {}",
            r.filter_stats.ts_causal_compression()
        );
        assert!(r.filter_stats.after_causal >= r.filter_stats.after_job_related);
        // Merged record counts are conserved end to end.
        let total: u32 = r.events_final.iter().map(|e| e.merged).sum();
        assert_eq!(total as usize, r.filter_stats.raw_fatal);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let out = Simulation::new(SimConfig::small_test(2))
            .expect("valid config")
            .run();
        let par = CoAnalysis::default().run(&out.ras, &out.jobs);
        let seq = CoAnalysis::with_config(CoAnalysisConfig::sequential()).run(&out.ras, &out.jobs);
        assert_eq!(par.events, seq.events);
        assert_eq!(par.filter_stats, seq.filter_stats);
        assert_eq!(par.matching, seq.matching);
        assert_eq!(par.events_final, seq.events_final);
    }

    #[test]
    fn recovers_interruptions_close_to_truth() {
        let (out, r) = small_run(3);
        let truth = out.truth.total_interruptions();
        let found = r.matching.interrupted_jobs();
        assert!(truth > 0);
        let recall = found as f64 / truth as f64;
        assert!(recall > 0.8, "found {found} of {truth} true interruptions");
    }

    #[test]
    fn observations_assemble_and_print() {
        let (_, r) = small_run(4);
        let obs = r.observations();
        let text = obs.to_string();
        assert!(text.contains("Obs 12"));
        assert!(obs.obs3_ts_compression > 0.5);
    }

    #[test]
    fn observed_run_matches_unobserved_and_brackets_every_stage() {
        use crate::context::AnalysisContext;
        use crate::stage::{StageId, StageObserver};
        use std::sync::Mutex;
        struct Recorder(Mutex<Vec<(StageId, bool)>>);
        #[expect(
            clippy::disallowed_methods,
            reason = "a test observer that never blocks"
        )]
        impl StageObserver for Recorder {
            fn stage_started(&self, id: StageId) {
                self.0.lock().unwrap().push((id, false));
            }
            fn stage_finished(&self, id: StageId) {
                self.0.lock().unwrap().push((id, true));
            }
        }
        let out = Simulation::new(SimConfig::small_test(6))
            .expect("valid config")
            .run();
        let ctx = AnalysisContext::new(&out.ras, &out.jobs);
        let set = AnalysisSet::of(&[StageId::Midplane]);
        let rec = Recorder(Mutex::new(Vec::new()));
        let observed = CoAnalysis::default().run_on_observed(&ctx, set, &rec);
        let plain = CoAnalysis::default().run_on(&ctx, set);
        assert_eq!(observed.events_final, plain.events_final);
        assert_eq!(observed.midplane.is_some(), plain.midplane.is_some());
        let calls = rec.0.into_inner().unwrap();
        // One started + one finished per stage of the closed set (5 stages).
        assert_eq!(calls.len(), 2 * set.closure().len());
        for id in set.closure().stages() {
            assert!(calls.contains(&(id, false)) && calls.contains(&(id, true)));
        }
    }

    #[test]
    fn case_accessors_consistent() {
        let (_, r) = small_run(5);
        let (c1, c2, c3) = r.case_counts();
        assert_eq!(c1 + c2 + c3, r.events.len());
        assert_eq!(r.idle_events().len(), c2);
        assert!((r.idle_event_fraction() - c2 as f64 / r.events.len() as f64).abs() < 1e-12);
    }
}
