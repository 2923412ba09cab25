//! Stage graph: named pipeline passes over a shared [`AnalysisContext`].
//!
//! Every pass of the paper's Figure-1 dataflow is a [`StageId`] variant
//! with declared inputs: the products it reads ([`StageId::deps`]) and the
//! context indexes it reads ([`StageId::ctx_reads`]). One `match` over the
//! id (`run_stage`) runs any pass. The executor (`execute`) walks the graph
//! in dependency waves and runs independent stages of a wave concurrently —
//! the per-code sharding of the temporal/spatial filters and the fan-out
//! of the characterization passes go through the same fork-join point
//! (`fork_join`). Callers choose which passes to run with an
//! [`AnalysisSet`]; dependencies are closed over automatically, so asking
//! for `Midplane` alone pulls in filtering, matching, and job-related
//! filtering but skips the other characterization passes.
//!
//! The same wave loop serves one-shot runs and incremental folds: given the
//! previous pass's [`StageCache`] and a [`ContextDelta`], it re-runs only
//! the stages whose declared inputs changed and replays the rest.

use crate::analysis::failure_stats::TableIv;
use crate::analysis::{
    BurstAnalysis, FdaAnalysis, InterruptionStats, MidplaneProfile, PropagationAnalysis,
    VulnerabilityAnalysis,
};
use crate::classify::{
    classify_impact, classify_root_cause_with_threads, ImpactSummary, RootCauseSummary,
};
use crate::context::{AnalysisContext, ContextDelta, CtxIndex};
use crate::event::Event;
use crate::filter::job_related::JobRelatedOutcome;
use crate::filter::{CausalRule, FilterStats, JobRelatedFilter};
use crate::matching::Matching;
use crate::pipeline::{CoAnalysisConfig, CoAnalysisResult};
use joblog::JobRecord;
use raslog::ErrCode;

/// Identity of one pipeline pass; `run_stage` holds each pass's body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum StageId {
    /// Temporal + spatial dedup, sharded per error code.
    ///
    /// Contract: dedups each error-code shard temporally then spatially
    /// (shards are independent by construction) and merges time-sorted.
    TemporalSpatial = 0,
    /// Causal (cross-code) filtering.
    ///
    /// Contract: learns cross-code rules over the whole post-spatial stream
    /// (global by design — rules connect different codes).
    Causal = 1,
    /// Event ↔ job matching.
    ///
    /// Contract: matches the causally filtered stream against the job
    /// index; produces per-event cases and the job → event attribution.
    Matching = 2,
    /// Job-related redundancy filtering.
    ///
    /// Contract: flags job-related redundancy over the matched stream;
    /// final events are a subsequence of the causal stage's output.
    JobRelated = 3,
    /// Impact classification (Section IV-A).
    ///
    /// Contract: classifies per-code interruption impact from the matching
    /// cases alone.
    Impact = 4,
    /// Root-cause classification (Section IV-B).
    ///
    /// Contract: classifies per-code root cause using the matching and the
    /// job index (executable-following vs. location-sticky evidence).
    RootCause = 5,
    /// Table IV interarrival fits.
    ///
    /// Contract: fits interarrival models before/after job-related
    /// filtering; `None` when a stream is too small to fit.
    TableIv = 6,
    /// Figure 4 midplane profile.
    ///
    /// Contract: builds the per-midplane fatal/workload/wide-workload
    /// series from the fully filtered events (a chain at one broken
    /// midplane is one fault there, not ten).
    Midplane = 7,
    /// Figure 5 / Observation 6 burst analysis.
    ///
    /// Contract: analyzes interruption burstiness over the matched victims
    /// and the RAS time span.
    Burst = 8,
    /// Table V / Figure 6 interruption statistics.
    ///
    /// Contract: splits interruption interarrivals by root cause and fits
    /// each stream.
    Interruption = 9,
    /// Observation 8 propagation analysis.
    ///
    /// Contract: measures spatial propagation from multi-victim events and
    /// temporal propagation from the job-related redundancy flags.
    Propagation = 10,
    /// Section VI-D vulnerability analysis.
    ///
    /// Contract: runs the Section VI-D vulnerability study over the matched
    /// stream, the root-cause labels, and the midplane fatal counts.
    Vulnerability = 11,
    /// Fast Dimensional Analysis: frequent-itemset root-cause mining.
    ///
    /// Contract: mines ranked over-represented dimension combinations from
    /// the causally filtered events, the matching's job attribution, and
    /// the interned job-dimension columns; candidate counting is sharded
    /// but bit-identical at any thread count.
    Fda = 12,
}

impl StageId {
    /// Every stage, in declaration (= topological) order.
    pub const ALL: [StageId; 13] = [
        StageId::TemporalSpatial,
        StageId::Causal,
        StageId::Matching,
        StageId::JobRelated,
        StageId::Impact,
        StageId::RootCause,
        StageId::TableIv,
        StageId::Midplane,
        StageId::Burst,
        StageId::Interruption,
        StageId::Propagation,
        StageId::Vulnerability,
        StageId::Fda,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            StageId::TemporalSpatial => "temporal-spatial",
            StageId::Causal => "causal",
            StageId::Matching => "matching",
            StageId::JobRelated => "job-related",
            StageId::Impact => "impact",
            StageId::RootCause => "root-cause",
            StageId::TableIv => "table-iv",
            StageId::Midplane => "midplane",
            StageId::Burst => "burst",
            StageId::Interruption => "interruption",
            StageId::Propagation => "propagation",
            StageId::Vulnerability => "vulnerability",
            StageId::Fda => "fda",
        }
    }

    /// Direct dependencies: exactly the stages whose products this stage's
    /// `run` reads. Listing every direct read (not just the transitive
    /// reduction) is what lets the executor re-run a stage whenever any of
    /// its inputs changed; the `stage.rs` proptest pins the list to the
    /// reads the `PipelineState` accessors record.
    pub fn deps(self) -> &'static [StageId] {
        use StageId as S;
        match self {
            S::TemporalSpatial => &[],
            S::Causal => &[S::TemporalSpatial],
            S::Matching => &[S::Causal],
            S::JobRelated | S::Impact | S::RootCause | S::Fda => &[S::Causal, S::Matching],
            S::Burst => &[S::Matching],
            S::TableIv => &[S::Causal, S::JobRelated],
            S::Midplane => &[S::JobRelated],
            S::Propagation => &[S::Causal, S::Matching, S::JobRelated],
            S::Interruption => &[S::Causal, S::Matching, S::RootCause],
            S::Vulnerability => &[S::Causal, S::Matching, S::RootCause, S::Midplane],
        }
    }

    /// The [`AnalysisContext`] indexes this stage's `run` reads. The
    /// executor re-runs a cached stage when one of them is in the
    /// [`ContextDelta::dirty`] set; the same proptest pins the list to the
    /// reads the context accessors record.
    pub fn ctx_reads(self) -> &'static [CtxIndex] {
        use StageId as S;
        match self {
            S::TemporalSpatial => &[CtxIndex::Events],
            S::Causal | S::Impact | S::TableIv => &[],
            S::Burst => &[CtxIndex::Span, CtxIndex::Jobs],
            S::Matching
            | S::JobRelated
            | S::RootCause
            | S::Midplane
            | S::Interruption
            | S::Propagation
            | S::Vulnerability
            | S::Fda => &[CtxIndex::Jobs],
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A selection of stages to run (a bitset over [`StageId`]).
///
/// The executor always closes a set over its dependencies, so a set names
/// the *products you want*, not the work to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisSet(u16);

impl AnalysisSet {
    /// No stages.
    pub fn empty() -> AnalysisSet {
        AnalysisSet(0)
    }

    /// Every stage (the full Figure-1 run).
    pub fn all() -> AnalysisSet {
        let mut s = AnalysisSet::empty();
        for id in StageId::ALL {
            s = s.with(id);
        }
        s
    }

    /// The set containing exactly `stages` (before dependency closure).
    pub fn of(stages: &[StageId]) -> AnalysisSet {
        let mut s = AnalysisSet::empty();
        for &id in stages {
            s = s.with(id);
        }
        s
    }

    /// This set plus one stage.
    #[must_use]
    pub fn with(self, id: StageId) -> AnalysisSet {
        AnalysisSet(self.0 | id.bit())
    }

    /// Does the set contain `id`?
    pub fn contains(self, id: StageId) -> bool {
        self.0 & id.bit() != 0
    }

    /// The transitive dependency closure: the stages that actually run.
    #[must_use]
    pub fn closure(self) -> AnalysisSet {
        let mut cur = self;
        loop {
            let mut next = cur;
            for id in StageId::ALL {
                if cur.contains(id) {
                    for &d in id.deps() {
                        next = next.with(d);
                    }
                }
            }
            if next == cur {
                return cur;
            }
            cur = next;
        }
    }

    /// The member stages, in topological order.
    pub fn stages(self) -> Vec<StageId> {
        StageId::ALL
            .iter()
            .copied()
            .filter(|&id| self.contains(id))
            .collect()
    }

    /// The closure of this set grouped into dependency waves, in execution
    /// order: each stage sits in the first wave after all of its
    /// [`StageId::deps`], and the stages of one wave run concurrently.
    pub(crate) fn waves(self) -> Vec<Vec<StageId>> {
        let set = self.closure();
        let mut done = AnalysisSet::empty();
        let mut waves = Vec::new();
        loop {
            let ready: Vec<StageId> = set
                .stages()
                .into_iter()
                .filter(|&id| !done.contains(id) && id.deps().iter().all(|&d| done.contains(d)))
                .collect();
            if ready.is_empty() {
                return waves;
            }
            for &id in &ready {
                done = done.with(id);
            }
            waves.push(ready);
        }
    }

    /// Number of member stages.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl Default for AnalysisSet {
    /// The default set is the full pipeline — `CoAnalysis::run` semantics.
    fn default() -> AnalysisSet {
        AnalysisSet::all()
    }
}

/// The product of one stage run, tagged by stage.
///
/// `Clone + PartialEq` so the delta executor can cache outputs across runs
/// and cut dirty-propagation short when a re-run reproduces the cached
/// value exactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StageOutput {
    /// Post-spatial events plus the post-temporal survivor count.
    TemporalSpatial {
        /// Merged, time-sorted events after temporal + spatial dedup.
        after_spatial: Vec<Event>,
        /// Events surviving the temporal filter (pre-spatial), summed over
        /// shards.
        after_temporal: usize,
    },
    /// Causally filtered events plus the learned rules.
    Causal {
        /// Events after causal filtering.
        events: Vec<Event>,
        /// Learned cross-code rules.
        rules: Vec<CausalRule>,
    },
    /// Event ↔ job matching.
    Matching(Matching),
    /// Job-related filter outcome (final events + redundancy flags).
    JobRelated(JobRelatedOutcome),
    /// Impact classification.
    Impact(ImpactSummary),
    /// Root-cause classification.
    RootCause(RootCauseSummary),
    /// Table IV fits (`None` when a stream is too small to fit).
    TableIv(Option<TableIv>),
    /// Midplane profile.
    Midplane(MidplaneProfile),
    /// Burst analysis.
    Burst(BurstAnalysis),
    /// Interruption statistics.
    Interruption(InterruptionStats),
    /// Propagation analysis.
    Propagation(PropagationAnalysis),
    /// Vulnerability analysis (boxed: by far the largest payload).
    Vulnerability(Box<VulnerabilityAnalysis>),
    /// Fast Dimensional Analysis (ranked over-represented combinations).
    Fda(FdaAnalysis),
}

/// Accumulated products while the graph executes: the products a caller
/// gets back, plus the filter stack's scratch values `filter_stats` needs.
///
/// Stages read earlier products through the accessors; absent products
/// (possible only if a stage is run without its dependencies, which the
/// executor never does) degrade to empty defaults rather than panicking.
/// In test builds every accessor records the producing stage in `reads`,
/// and a proptest checks the recorded set equals [`StageId::deps`]. Direct
/// field access from a stage would bypass that check; keep reads going
/// through the accessors.
#[derive(Debug, Default)]
pub(crate) struct PipelineState {
    /// Producers whose products have been read (as `StageId::bit` bits)
    /// since the last `take_observed_reads`.
    #[cfg(test)]
    reads: std::sync::atomic::AtomicU16,
    raw_fatal: usize,
    after_temporal: usize,
    after_spatial: Option<Vec<Event>>,
    products: AnalysisProducts,
}

impl PipelineState {
    fn new(raw_fatal: usize) -> PipelineState {
        PipelineState {
            raw_fatal,
            ..PipelineState::default()
        }
    }

    /// Record that `producer`'s product was read (test builds only; free
    /// otherwise).
    #[inline]
    fn note_read(&self, producer: StageId) {
        #[cfg(test)]
        self.reads
            .fetch_or(producer.bit(), std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(test))]
        let _ = producer;
    }

    /// Take (and clear) the producers read since the last call.
    #[cfg(test)]
    fn take_observed_reads(&self) -> AnalysisSet {
        AnalysisSet(self.reads.swap(0, std::sync::atomic::Ordering::Relaxed))
    }

    /// Events after temporal + spatial filtering (the causal input).
    fn after_spatial(&self) -> &[Event] {
        self.note_read(StageId::TemporalSpatial);
        self.after_spatial.as_deref().unwrap_or(&[])
    }

    /// Events after causal filtering (the matching/classification input).
    fn events(&self) -> &[Event] {
        self.note_read(StageId::Causal);
        self.products.events.as_deref().unwrap_or(&[])
    }

    /// The event ↔ job matching.
    fn matching(&self) -> Option<&Matching> {
        self.note_read(StageId::Matching);
        self.products.matching.as_ref()
    }

    /// Events after job-related filtering (the characterization input).
    fn final_events(&self) -> &[Event] {
        self.note_read(StageId::JobRelated);
        self.products.events_final.as_deref().unwrap_or(&[])
    }

    /// Per-event redundancy flags from job-related filtering.
    fn redundant_flags(&self) -> &[bool] {
        self.note_read(StageId::JobRelated);
        self.products.job_redundant.as_deref().unwrap_or(&[])
    }

    /// The root-cause classification.
    fn root_cause(&self) -> Option<&RootCauseSummary> {
        self.note_read(StageId::RootCause);
        self.products.root_cause.as_ref()
    }

    /// The per-midplane fatal/workload profile.
    fn midplane(&self) -> Option<&MidplaneProfile> {
        self.note_read(StageId::Midplane);
        self.products.midplane.as_ref()
    }

    fn install(&mut self, out: StageOutput) {
        let p = &mut self.products;
        match out {
            StageOutput::TemporalSpatial {
                after_spatial,
                after_temporal,
            } => {
                self.after_temporal = after_temporal;
                self.after_spatial = Some(after_spatial);
            }
            StageOutput::Causal { events, rules } => {
                p.events = Some(events);
                p.causal_rules = Some(rules);
            }
            StageOutput::Matching(m) => p.matching = Some(m),
            StageOutput::JobRelated(o) => {
                p.job_redundant = Some(o.redundant);
                p.events_final = Some(o.events);
            }
            StageOutput::Impact(i) => p.impact = Some(i),
            StageOutput::RootCause(r) => p.root_cause = Some(r),
            StageOutput::TableIv(t) => p.table_iv = Some(t),
            StageOutput::Midplane(m) => p.midplane = Some(m),
            StageOutput::Burst(b) => p.burst = Some(b),
            StageOutput::Interruption(i) => p.interruption = Some(i),
            StageOutput::Propagation(a) => p.propagation = Some(a),
            StageOutput::Vulnerability(v) => p.vulnerability = Some(*v),
            StageOutput::Fda(a) => p.fda = Some(a),
        }
    }

    pub(crate) fn into_products(self) -> AnalysisProducts {
        let mut p = self.products;
        p.filter_stats = match (&self.after_spatial, &p.events, &p.events_final) {
            (Some(s), Some(ev), Some(fin)) => Some(FilterStats {
                raw_fatal: self.raw_fatal,
                after_temporal: self.after_temporal,
                after_spatial: s.len(),
                after_causal: ev.len(),
                after_job_related: fin.len(),
            }),
            _ => None,
        };
        p
    }
}

/// The products of a (possibly partial) pipeline run.
///
/// A field is `Some` exactly when its producing stage was in the closed
/// [`AnalysisSet`]; `filter_stats` additionally needs the whole filter
/// stack (temporal/spatial + causal + job-related) to have run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisProducts {
    /// Events after temporal + spatial + causal filtering (`Causal`).
    pub events: Option<Vec<Event>>,
    /// Learned causal rules (`Causal`).
    pub causal_rules: Option<Vec<CausalRule>>,
    /// Matching of `events` against the job log (`Matching`).
    pub matching: Option<Matching>,
    /// Per-event job-related redundancy flags (`JobRelated`).
    pub job_redundant: Option<Vec<bool>>,
    /// Events after job-related filtering (`JobRelated`).
    pub events_final: Option<Vec<Event>>,
    /// Counts through the filter stack (needs the full filter stack).
    pub filter_stats: Option<FilterStats>,
    /// Impact classification (`Impact`).
    pub impact: Option<ImpactSummary>,
    /// Root-cause classification (`RootCause`).
    pub root_cause: Option<RootCauseSummary>,
    /// Table IV fits; inner `None` means a stream was too small (`TableIv`).
    pub table_iv: Option<Option<TableIv>>,
    /// Midplane profile (`Midplane`).
    pub midplane: Option<MidplaneProfile>,
    /// Burst analysis (`Burst`).
    pub burst: Option<BurstAnalysis>,
    /// Interruption statistics (`Interruption`).
    pub interruption: Option<InterruptionStats>,
    /// Propagation analysis (`Propagation`).
    pub propagation: Option<PropagationAnalysis>,
    /// Vulnerability analysis (`Vulnerability`).
    pub vulnerability: Option<VulnerabilityAnalysis>,
    /// Fast Dimensional Analysis (`Fda`).
    pub fda: Option<FdaAnalysis>,
}

impl AnalysisProducts {
    /// Assemble the legacy full-run result; `None` unless every product is
    /// present (i.e. the run covered [`AnalysisSet::all`]).
    pub fn into_result(self) -> Option<CoAnalysisResult> {
        Some(CoAnalysisResult {
            events: self.events?,
            causal_rules: self.causal_rules?,
            matching: self.matching?,
            job_redundant: self.job_redundant?,
            events_final: self.events_final?,
            filter_stats: self.filter_stats?,
            impact: self.impact?,
            root_cause: self.root_cause?,
            table_iv: self.table_iv?,
            midplane: self.midplane?,
            burst: self.burst?,
            interruption: self.interruption?,
            propagation: self.propagation?,
            vulnerability: self.vulnerability?,
            fda: self.fda?,
        })
    }
}

/// Run one pass: a pure function from the shared context, the
/// configuration, and earlier products to this stage's product.
///
/// Each arm reads exactly the products of the stages named in
/// [`StageId::deps`] and the context indexes named in
/// [`StageId::ctx_reads`], returns the [`StageOutput`] variant named like
/// `id`, and is deterministic for a given input. The temporal/spatial arm
/// filters every shard; the executor calls `temporal_spatial` itself when
/// it has a per-shard cache.
fn run_stage(
    id: StageId,
    ctx: &AnalysisContext<'_>,
    cfg: &CoAnalysisConfig,
    state: &PipelineState,
) -> StageOutput {
    let (no_matching, no_root_cause) = (Matching::default(), RootCauseSummary::default());
    let matching = || state.matching().unwrap_or(&no_matching);
    let root_cause = || state.root_cause().unwrap_or(&no_root_cause);
    match id {
        StageId::TemporalSpatial => temporal_spatial(ctx, cfg, None),
        StageId::Causal => {
            let (events, rules) = cfg.causal.filter(state.after_spatial());
            StageOutput::Causal { events, rules }
        }
        StageId::Matching => StageOutput::Matching(cfg.matcher.run_with_threads(
            state.events(),
            ctx,
            cfg.threads,
        )),
        StageId::JobRelated => {
            StageOutput::JobRelated(JobRelatedFilter.apply(state.events(), matching(), ctx))
        }
        StageId::Impact => StageOutput::Impact(classify_impact(state.events(), matching())),
        StageId::RootCause => StageOutput::RootCause(classify_root_cause_with_threads(
            state.events(),
            matching(),
            ctx,
            cfg.threads,
        )),
        StageId::TableIv => {
            StageOutput::TableIv(TableIv::new(state.events(), state.final_events()).ok())
        }
        StageId::Midplane => StageOutput::Midplane(MidplaneProfile::new(
            state.final_events(),
            ctx,
            cfg.wide_threshold,
        )),
        StageId::Burst => {
            let matching = matching();
            let mut victims: Vec<&JobRecord> = matching
                .job_to_event
                .keys()
                .filter_map(|&id| ctx.job(id))
                .collect();
            victims.sort_by_key(|j| (j.end_time, j.job_id));
            let window = ctx
                .span()
                .unwrap_or((bgp_model::Timestamp::EPOCH, bgp_model::Timestamp::EPOCH));
            StageOutput::Burst(BurstAnalysis::new(&victims, ctx, window, cfg.quick_window))
        }
        StageId::Interruption => StageOutput::Interruption(InterruptionStats::new(
            state.events(),
            matching(),
            root_cause(),
            ctx,
        )),
        StageId::Propagation => StageOutput::Propagation(PropagationAnalysis::new(
            state.events(),
            matching(),
            ctx,
            state.redundant_flags(),
        )),
        StageId::Vulnerability => {
            let fatal_counts = state
                .midplane()
                .map(|m| m.fatal_counts.as_slice())
                .unwrap_or(&[]);
            StageOutput::Vulnerability(Box::new(VulnerabilityAnalysis::new_with_threads(
                state.events(),
                matching(),
                root_cause(),
                ctx,
                fatal_counts,
                cfg.threads,
            )))
        }
        StageId::Fda => StageOutput::Fda(FdaAnalysis::from_context(
            state.events(),
            matching(),
            ctx,
            &cfg.fda,
            cfg.threads,
        )),
    }
}

/// One error code's temporal/spatial output: the code, its filtered
/// events, and how many survived the temporal filter.
type ShardOutput = (ErrCode, Vec<Event>, usize);

/// Temporal then spatial dedup per error-code shard, merged time-sorted.
///
/// Both filters only ever merge events of the *same* code, so per-code
/// sharding is exact; shards come pre-sorted by code from the context, so
/// chunk→thread assignment is deterministic. With a shard cache (the
/// previous pass's per-code outputs plus the codes whose shard grew since),
/// only dirty or uncached codes are re-filtered and the cache is refreshed.
/// A clean shard's events are byte-identical after an append (the
/// `EventStore` merge never reorders an untouched shard), so its cached
/// output is exact, and the merge below is the same either way.
fn temporal_spatial(
    ctx: &AnalysisContext<'_>,
    cfg: &CoAnalysisConfig,
    mut cache: Option<(&mut Vec<ShardOutput>, &[ErrCode])>,
) -> StageOutput {
    let shards = ctx.code_shards();
    // Per shard, the cached output to reuse (`None` = filter it now).
    let mut reuse: Vec<Option<ShardOutput>> = Vec::with_capacity(shards.len());
    match cache.as_mut() {
        Some((cached, dirty_codes)) => {
            let mut old = std::mem::take(*cached).into_iter().peekable();
            for &(code, _) in &shards {
                while old.next_if(|o| o.0 < code).is_some() {}
                let hit = old.next_if(|o| o.0 == code);
                reuse.push(hit.filter(|_| dirty_codes.binary_search(&code).is_err()));
            }
        }
        None => reuse.resize_with(shards.len(), || None),
    }
    let todo: Vec<(ErrCode, &[Event])> = shards
        .iter()
        .zip(&reuse)
        .filter(|(_, r)| r.is_none())
        .map(|(&shard, _)| shard)
        .collect();
    let mut fresh = fork_join(&todo, cfg.threads, &|&(code, shard)| {
        let t = cfg.temporal.apply(shard);
        (code, cfg.spatial.apply(&t), t.len())
    })
    .into_iter();
    // Every `None` has exactly one fresh output, in shard order.
    let outputs: Vec<ShardOutput> = reuse
        .into_iter()
        .filter_map(|r| r.or_else(|| fresh.next()))
        .collect();
    let mut after_temporal = 0usize;
    let mut merged: Vec<Event> = Vec::new();
    for (_, events, n) in &outputs {
        after_temporal += n;
        merged.extend_from_slice(events);
    }
    merged.sort_by_key(|e| (e.time, e.first_recid));
    if let Some((cached, _)) = cache {
        *cached = outputs;
    }
    StageOutput::TemporalSpatial {
        after_spatial: merged,
        after_temporal,
    }
}

/// Observer of stage execution, called by the executor around every stage.
///
/// The executor itself is clock-free (the `determinism` lint guarantee);
/// callers that want wall-clock per stage — the metrics registry in
/// `bgp-serve`, `coctl analyze --timings` — read their own clock inside
/// these callbacks. Stages of one wave run concurrently, so callbacks must
/// tolerate interleaving across stages (they are never interleaved for one
/// stage: started and finished bracket the run on the same thread).
pub trait StageObserver: Sync {
    /// A stage is about to run on the current thread.
    fn stage_started(&self, id: StageId);
    /// The stage finished on the same thread.
    fn stage_finished(&self, id: StageId);
}

/// Run one stage, bracketed by the observer's callbacks.
fn observed(
    observer: Option<&dyn StageObserver>,
    id: StageId,
    run: impl FnOnce() -> StageOutput,
) -> StageOutput {
    if let Some(o) = observer {
        o.stage_started(id);
    }
    let out = run();
    if let Some(o) = observer {
        o.stage_finished(id);
    }
    out
}

/// Cached products of the previous pass over one evolving input, keyed by
/// stage — the state that makes an `execute` pass incremental.
///
/// Valid for one `(log stream, CoAnalysisConfig)` pair: the cache stores no
/// fingerprint of either, so callers (the `DeltaSession` driver) must keep
/// cache, store, and config together and never mix caches across streams.
/// `ts_shards` additionally caches the temporal/spatial stage *per error
/// code* (sorted by code, matching the context's shard order), so an append
/// touching 3 of 200 codes re-filters 3 shards and memcpys the rest.
#[derive(Debug, Default)]
pub struct StageCache {
    outputs: [Option<StageOutput>; StageId::ALL.len()],
    ts_shards: Vec<ShardOutput>,
}

impl StageCache {
    fn output(&self, id: StageId) -> Option<&StageOutput> {
        self.outputs.get(id as usize).and_then(Option::as_ref)
    }

    fn store(&mut self, id: StageId, out: StageOutput) {
        if let Some(slot) = self.outputs.get_mut(id as usize) {
            *slot = Some(out);
        }
    }

    /// Number of stages with a cached output (diagnostics).
    pub fn len(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_some()).count()
    }

    /// True before the first (priming) pass.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What an `execute` pass actually did, as stage sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Stages that re-executed (their inputs were dirty).
    pub reran: AnalysisSet,
    /// The subset of `reran` whose output differs from the cached pass —
    /// only these propagated dirtiness downstream.
    pub changed: AnalysisSet,
}

/// Execute the dependency closure of `set` over `ctx` in waves; stages in
/// the same wave run concurrently (up to `cfg.threads`).
///
/// One-shot (`incremental` is `None`): every stage runs, and nothing is
/// cloned into or compared against a cache. Incremental (`Some((cache,
/// delta))`): a stage re-runs only when it has no cached output, when one
/// of its [`StageId::ctx_reads`] is in [`ContextDelta::dirty`], or when one
/// of its [`StageId::deps`] re-ran *and produced a different output* —
/// equality with the cached value cuts propagation short (an append whose
/// new events are all dedup'd away re-runs the filters and nothing
/// downstream). Clean stages install their cached product unchanged.
///
/// Contract: an incremental pass is bit-identical to a one-shot pass of
/// `set` over the same (post-append) context — guaranteed by
/// `EventStore::append_ras` keeping the indexes identical to a rebuild,
/// every stage being a pure function of context + config + the products it
/// reads, and `deps`/`ctx_reads` naming every such read (pinned by the
/// read-recording proptest below).
pub(crate) fn execute(
    ctx: &AnalysisContext<'_>,
    cfg: &CoAnalysisConfig,
    set: AnalysisSet,
    mut incremental: Option<(&mut StageCache, &ContextDelta)>,
    observer: Option<&dyn StageObserver>,
) -> (PipelineState, DeltaReport) {
    let dirty_ctx = incremental
        .as_ref()
        .map_or_else(Vec::new, |(_, d)| d.dirty());
    let mut state = PipelineState::new(ctx.raw_events().len());
    let mut reran = AnalysisSet::empty();
    let mut changed = AnalysisSet::empty();
    for wave in set.waves() {
        let mut dirty: Vec<StageId> = Vec::with_capacity(wave.len());
        for id in wave {
            let inputs_changed = id.ctx_reads().iter().any(|r| dirty_ctx.contains(r))
                || id.deps().iter().any(|&d| changed.contains(d));
            match incremental.as_ref().and_then(|(cache, _)| cache.output(id)) {
                Some(out) if !inputs_changed => state.install(out.clone()),
                _ => dirty.push(id),
            }
        }
        // The temporal/spatial stage goes through its per-shard cache
        // (which needs `&mut`); everything else dirty in this wave
        // fork-joins.
        let mut outputs: Vec<(StageId, StageOutput)> = Vec::with_capacity(dirty.len());
        if let Some(pos) = dirty.iter().position(|&id| id == StageId::TemporalSpatial) {
            dirty.remove(pos);
            let shards = incremental
                .as_mut()
                .map(|(cache, delta)| (&mut cache.ts_shards, delta.dirty_codes.as_slice()));
            let out = observed(observer, StageId::TemporalSpatial, || {
                temporal_spatial(ctx, cfg, shards)
            });
            outputs.push((StageId::TemporalSpatial, out));
        }
        outputs.extend(fork_join(&dirty, cfg.threads, &|&id| {
            (
                id,
                observed(observer, id, || run_stage(id, ctx, cfg, &state)),
            )
        }));
        for (id, out) in outputs {
            reran = reran.with(id);
            match incremental.as_mut() {
                Some((cache, _)) if cache.output(id) == Some(&out) => {}
                Some((cache, _)) => {
                    changed = changed.with(id);
                    cache.store(id, out.clone());
                }
                None => changed = changed.with(id),
            }
            state.install(out);
        }
    }
    (state, DeltaReport { reran, changed })
}

/// The pipeline's one fork-join point: apply `f` to every item, splitting
/// the slice into up to `threads` contiguous chunks on scoped threads.
///
/// Results come back in item order regardless of thread count, and a panic
/// in any worker is re-raised on the calling thread with its original
/// payload.
pub(crate) fn fork_join<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => results.push(part),
                // Re-raise the worker's panic on the calling thread so the
                // failure keeps its original message.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_are_topological() {
        // Every dependency appears earlier in ALL than its dependent.
        for (i, id) in StageId::ALL.iter().enumerate() {
            for d in id.deps() {
                let j = StageId::ALL.iter().position(|x| x == d).unwrap();
                assert!(j < i, "{:?} depends on later {:?}", id, d);
            }
        }
    }

    #[test]
    fn closure_pulls_transitive_deps() {
        let s = AnalysisSet::of(&[StageId::Midplane]).closure();
        for need in [
            StageId::TemporalSpatial,
            StageId::Causal,
            StageId::Matching,
            StageId::JobRelated,
            StageId::Midplane,
        ] {
            assert!(s.contains(need), "missing {need:?}");
        }
        assert_eq!(s.len(), 5);
        assert!(!s.contains(StageId::Vulnerability));
    }

    #[test]
    fn vulnerability_closure_is_almost_everything() {
        let s = AnalysisSet::of(&[StageId::Vulnerability]).closure();
        assert!(s.contains(StageId::Midplane));
        assert!(s.contains(StageId::RootCause));
        assert!(s.contains(StageId::JobRelated));
        assert!(!s.contains(StageId::Burst));
        assert!(!s.contains(StageId::Impact));
    }

    #[test]
    fn set_operations() {
        assert!(AnalysisSet::empty().is_empty());
        assert_eq!(AnalysisSet::all().len(), StageId::ALL.len());
        assert_eq!(AnalysisSet::default(), AnalysisSet::all());
        let s = AnalysisSet::of(&[StageId::Burst, StageId::Impact]);
        assert_eq!(s.stages(), vec![StageId::Impact, StageId::Burst]);
        assert_eq!(s.with(StageId::Impact), s);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = StageId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StageId::ALL.len());
    }

    #[test]
    fn fork_join_preserves_order() {
        let items: Vec<u32> = (0..100).collect();
        let seq = fork_join(&items, 1, &|&x| x * 2);
        let par = fork_join(&items, 7, &|&x| x * 2);
        assert_eq!(seq, par);
        assert_eq!(seq[0], 0);
        assert_eq!(seq[99], 198);
    }

    /// One small simulated site, shared across proptest cases.
    fn sim() -> &'static bgp_sim::SimOutput {
        static SIM: std::sync::OnceLock<bgp_sim::SimOutput> = std::sync::OnceLock::new();
        SIM.get_or_init(|| {
            bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(11))
                .expect("valid config")
                .run()
        })
    }

    #[test]
    fn full_set_runs_in_six_waves() {
        use StageId as S;
        assert_eq!(
            AnalysisSet::all().waves(),
            vec![
                vec![S::TemporalSpatial],
                vec![S::Causal],
                vec![S::Matching],
                vec![S::JobRelated, S::Impact, S::RootCause, S::Burst, S::Fda],
                vec![S::TableIv, S::Midplane, S::Interruption, S::Propagation],
                vec![S::Vulnerability],
            ]
        );
    }

    proptest::proptest! {
        /// Run random stage subsets sequentially on real pipeline data and
        /// assert each stage reads *exactly* what it declares: the products
        /// recorded by the `PipelineState` accessors equal
        /// [`StageId::deps`], and the indexes recorded by the
        /// `AnalysisContext` accessors equal [`StageId::ctx_reads`]. A
        /// missing entry would let the executor serve a stale cached output
        /// (or schedule a stage before its input exists); an extra entry
        /// costs wave parallelism and needless re-runs.
        #[test]
        fn observed_reads_equal_declared_reads(mask in 0u16..(1 << StageId::ALL.len())) {
            let out = sim();
            let ctx = AnalysisContext::new(&out.ras, &out.jobs);
            let cfg = CoAnalysisConfig::default();
            let set = AnalysisSet(mask).closure();
            let mut state = PipelineState::new(ctx.raw_events().len());
            state.take_observed_reads();
            ctx.take_observed_reads();
            for id in set.stages() {
                let output = run_stage(id, &ctx, &cfg, &state);
                proptest::prop_assert_eq!(
                    state.take_observed_reads().stages(),
                    AnalysisSet::of(id.deps()).stages(),
                    "{:?} product reads",
                    id
                );
                proptest::prop_assert_eq!(
                    ctx.take_observed_reads(),
                    id.ctx_reads().to_vec(),
                    "{:?} context reads",
                    id
                );
                state.install(output);
            }
        }
    }
}
