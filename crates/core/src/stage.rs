//! Stage graph: named pipeline passes over a shared [`AnalysisContext`].
//!
//! Every pass of the paper's Figure-1 dataflow is a [`StageId`] variant
//! with one body function (in `body`). A body takes the configuration and
//! its inputs, and the types of those inputs are the only statement of what
//! the stage reads: each input type names the stage whose product it views
//! (`AfterSpatial`, `CausalEvents`, `&Matching`, …) or the context index it
//! views (`Shards`, `Span`, `&JobLog`, `&JobDims`), in one row of
//! `product_input!` or `context_input!` that also fetches it from there.
//! [`StageId::deps`] and [`StageId::ctx_reads`] are read off those types, and
//! a body can reach nothing else: it gets neither the context nor the other
//! products. The executor (`execute`) is ready-driven:
//! `cfg.threads` workers each take the next stage whose dependencies have
//! all finished (longest remaining path first, ties by id), and every
//! product lands in its stage's write-once slot, so a slow stage holds back
//! only the stages that read it. The executor is the one place the graph
//! decides parallelism: every stage body is serial except the
//! temporal/spatial filters. They are the graph's root, so while they run
//! every other worker is idle, and they split their per-code shards
//! across `cfg.threads` chunks instead. The workers and those chunks both
//! fork through `bgp_model::bytes::map_chunks_parallel`. Callers choose
//! which passes to run with an [`AnalysisSet`]; dependencies are closed
//! over automatically, so asking for `Midplane` alone pulls in filtering,
//! matching, and job-related filtering but skips the other
//! characterization passes.
//!
//! The same executor serves one-shot runs and incremental folds: given the
//! previous pass's [`StageCache`] and a [`ContextDelta`], it re-runs only
//! the stages whose inputs changed and replays the rest. The graph is held
//! at run time by the goldens and by `tests/stage_graph.rs`, whose subset
//! law runs random stage sets against the full run.

use crate::analysis::failure_stats::TableIv;
use crate::analysis::fda::JobDims;
use crate::analysis::{
    BurstAnalysis, FdaAnalysis, InterruptionStats, MidplaneProfile, PropagationAnalysis,
    VulnerabilityAnalysis,
};
use crate::classify::{classify_impact, classify_root_cause, ImpactSummary, RootCauseSummary};
use crate::context::{AnalysisContext, ContextDelta, CtxIndex, CtxSet};
use crate::event::Event;
use crate::filter::job_related::JobRelatedOutcome;
use crate::filter::{CausalRule, FilterStats, JobRelatedFilter};
use crate::matching::Matching;
use crate::pipeline::{CoAnalysisConfig, CoAnalysisResult};
use bgp_model::bytes::map_chunks_parallel;
use bgp_model::Timestamp;
use joblog::JobLog;
use raslog::ErrCode;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Identity of one pipeline pass; the function of the same name in `body`
/// holds the pass and, in its doc, what the pass guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum StageId {
    /// Temporal + spatial dedup, sharded per error code.
    TemporalSpatial = 0,
    /// Causal (cross-code) filtering.
    Causal = 1,
    /// Event ↔ job matching.
    Matching = 2,
    /// Job-related redundancy filtering.
    JobRelated = 3,
    /// Impact classification (Section IV-A).
    Impact = 4,
    /// Root-cause classification (Section IV-B).
    RootCause = 5,
    /// Table IV interarrival fits.
    TableIv = 6,
    /// Figure 4 midplane profile.
    Midplane = 7,
    /// Figure 5 / Observation 6 burst analysis.
    Burst = 8,
    /// Table V / Figure 6 interruption statistics.
    Interruption = 9,
    /// Observation 8 propagation analysis.
    Propagation = 10,
    /// Section VI-D vulnerability analysis.
    Vulnerability = 11,
    /// Fast Dimensional Analysis: frequent-itemset root-cause mining.
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

    /// Direct dependencies: the stages whose products this stage's body
    /// takes, read off the types of its inputs. Every direct read counts
    /// (not just the transitive reduction), which is what lets the executor
    /// re-run a stage whenever any of its inputs changed.
    pub fn deps(self) -> AnalysisSet {
        self.with_body(ReadsOf).stages
    }

    /// The [`AnalysisContext`] indexes this stage's body takes, read off the
    /// same types. The executor re-runs a cached stage when one of them is
    /// in the [`ContextDelta::dirty`] set.
    pub fn ctx_reads(self) -> CtxSet {
        self.with_body(ReadsOf).ctx
    }

    /// Hand this stage's body to `f`.
    fn with_body<'s, F: BodyUse<'s>>(self, f: F) -> F::Out {
        use StageId as S;
        match self {
            S::TemporalSpatial => f.apply(body::temporal_spatial),
            S::Causal => f.apply(body::causal),
            S::Matching => f.apply(body::matching),
            S::JobRelated => f.apply(body::job_related),
            S::Impact => f.apply(body::impact),
            S::RootCause => f.apply(body::root_cause),
            S::TableIv => f.apply(body::table_iv),
            S::Midplane => f.apply(body::midplane),
            S::Burst => f.apply(body::burst),
            S::Interruption => f.apply(body::interruption),
            S::Propagation => f.apply(body::propagation),
            S::Vulnerability => f.apply(body::vulnerability),
            S::Fda => f.apply(body::fda),
        }
    }

    const fn bit(self) -> u16 {
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
                    next.0 |= id.deps().0;
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

/// Products while the graph executes: one write-once slot per stage, so a
/// running stage reads finished products while other stages install
/// theirs.
///
/// A stage body never sees this state: the executor fetches the body's
/// inputs from it, each through the one slot its type names.
#[derive(Debug, Default)]
pub(crate) struct PipelineState {
    raw_fatal: usize,
    slots: [OnceLock<StageOutput>; StageId::ALL.len()],
}

impl PipelineState {
    fn new(raw_fatal: usize) -> PipelineState {
        PipelineState {
            raw_fatal,
            ..PipelineState::default()
        }
    }

    /// Fill `id`'s slot. Each slot is written once per pass; the executor
    /// never runs a stage twice.
    fn install(&self, id: StageId, out: StageOutput) {
        if let Some(slot) = self.slots.get(id as usize) {
            let _ = slot.set(out);
        }
    }

    pub(crate) fn into_products(self) -> AnalysisProducts {
        let mut p = AnalysisProducts::default();
        let mut after_temporal = 0;
        let mut after_spatial = None;
        for out in self.slots.into_iter().filter_map(OnceLock::into_inner) {
            match out {
                StageOutput::TemporalSpatial {
                    after_spatial: events,
                    after_temporal: n,
                } => {
                    after_temporal = n;
                    after_spatial = Some(events.len());
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
        p.filter_stats = match (after_spatial, &p.events, &p.events_final) {
            (Some(s), Some(ev), Some(fin)) => Some(FilterStats {
                raw_fatal: self.raw_fatal,
                after_temporal,
                after_spatial: s,
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

/// What a stage body reads: the stages whose products it takes and the
/// context indexes it takes.
#[derive(Debug, Clone, Copy)]
struct Reads {
    stages: AnalysisSet,
    ctx: CtxSet,
}

impl Reads {
    const NONE: Reads = Reads {
        stages: AnalysisSet(0),
        ctx: CtxSet::NONE,
    };

    const fn and(self, other: Reads) -> Reads {
        Reads {
            stages: AnalysisSet(self.stages.0 | other.stages.0),
            ctx: self.ctx.union(other.ctx),
        }
    }
}

/// The inputs of a stage body, after its configuration: one input, or a
/// tuple of them. `READS` is where they come from, and `fetch` takes them
/// from there (`None` while a producer has not run, which the executor
/// never lets happen).
trait Input<'s>: Sized {
    const READS: Reads;
    fn fetch(ctx: &'s AnalysisContext<'_>, state: &'s PipelineState) -> Option<Self>;
}

/// Each row makes `$ty` a view of the product of stage `$stage`: it
/// declares the read, and fetches from that stage's slot and
/// [`StageOutput`] variant, so the three cannot disagree.
macro_rules! product_input {
    ($($ty:ty = $stage:ident $fields:tt => $view:expr;)*) => {$(
        impl<'s> Input<'s> for $ty {
            const READS: Reads = Reads {
                stages: AnalysisSet(StageId::$stage.bit()),
                ..Reads::NONE
            };
            fn fetch(_: &'s AnalysisContext<'_>, state: &'s PipelineState) -> Option<Self> {
                let StageOutput::$stage $fields =
                    state.slots.get(StageId::$stage as usize)?.get()?
                else {
                    return None;
                };
                Some($view)
            }
        }
    )*};
}

/// Each row makes `$ty` a view of context index `$index`: it declares the
/// read and names the accessor that fetches it.
macro_rules! context_input {
    ($($ty:ty = $index:ident, |$ctx:ident| $view:expr;)*) => {$(
        impl<'s> Input<'s> for $ty {
            const READS: Reads = Reads {
                ctx: CtxSet::of(CtxIndex::$index),
                ..Reads::NONE
            };
            fn fetch($ctx: &'s AnalysisContext<'_>, _: &'s PipelineState) -> Option<Self> {
                Some($view)
            }
        }
    )*};
}

/// Events after temporal + spatial filtering: the causal input.
struct AfterSpatial<'s>(&'s [Event]);
/// Events after causal filtering: the matching and classification input.
struct CausalEvents<'s>(&'s [Event]);
/// Events after job-related filtering: the characterization input.
struct FinalEvents<'s>(&'s [Event]);
/// The fatal events grouped by error code ([`AnalysisContext::code_shards`]).
struct Shards<'s>(Vec<(ErrCode, &'s [Event])>);
/// The observation window of the RAS log ([`AnalysisContext::span`]).
struct Span(Option<(Timestamp, Timestamp)>);

product_input! {
    AfterSpatial<'s> = TemporalSpatial { after_spatial, .. } => AfterSpatial(after_spatial);
    CausalEvents<'s> = Causal { events, .. } => CausalEvents(events);
    &'s Matching = Matching(m) => m;
    &'s JobRelatedOutcome = JobRelated(o) => o;
    FinalEvents<'s> = JobRelated(o) => FinalEvents(&o.events);
    &'s RootCauseSummary = RootCause(r) => r;
    &'s MidplaneProfile = Midplane(m) => m;
}

context_input! {
    Shards<'s> = Events, |ctx| Shards(ctx.code_shards());
    Span = Span, |ctx| Span(ctx.span());
    &'s JobLog = Jobs, |ctx| ctx.jobs();
    &'s JobDims = Jobs, |ctx| ctx.fda_columns();
}

/// A tuple of inputs reads what its members read.
macro_rules! tuple_input {
    ($($t:ident),+) => {
        impl<'s, $($t: Input<'s>),+> Input<'s> for ($($t,)+) {
            const READS: Reads = Reads::NONE $(.and($t::READS))+;
            fn fetch(ctx: &'s AnalysisContext<'_>, state: &'s PipelineState) -> Option<Self> {
                Some(($($t::fetch(ctx, state)?,)+))
            }
        }
    };
}
tuple_input!(A, B);
tuple_input!(A, B, C);
tuple_input!(A, B, C, D);
tuple_input!(A, B, C, D, E);

/// Something done with a stage body, for whatever its input type is.
trait BodyUse<'s> {
    type Out;
    fn apply<I: Input<'s>>(self, body: fn(&CoAnalysisConfig, I) -> StageOutput) -> Self::Out;
}

/// A body's reads, from its input type alone.
struct ReadsOf;

impl<'s> BodyUse<'s> for ReadsOf {
    type Out = Reads;
    fn apply<I: Input<'s>>(self, _: fn(&CoAnalysisConfig, I) -> StageOutput) -> Reads {
        I::READS
    }
}

/// A body run on its inputs, fetched from the context and the products.
struct Run<'s, 'a> {
    ctx: &'s AnalysisContext<'a>,
    cfg: &'s CoAnalysisConfig,
    state: &'s PipelineState,
}

impl<'s> BodyUse<'s> for Run<'s, '_> {
    type Out = Option<StageOutput>;
    fn apply<I: Input<'s>>(self, body: fn(&CoAnalysisConfig, I) -> StageOutput) -> Self::Out {
        I::fetch(self.ctx, self.state).map(|inputs| body(self.cfg, inputs))
    }
}

/// The stage bodies, one per [`StageId`] and named like it. Each is a pure,
/// deterministic function of the configuration and its inputs, and returns
/// the [`StageOutput`] variant named like its stage. Its doc says what the
/// stage guarantees its readers.
mod body {
    use super::*;

    /// Dedups each error-code shard temporally then spatially (shards are
    /// independent by construction) and merges time-sorted.
    pub(super) fn temporal_spatial(cfg: &CoAnalysisConfig, shards: Shards<'_>) -> StageOutput {
        filter_shards(cfg, &shards.0, None)
    }

    /// Learns cross-code rules over the whole post-spatial stream (global by
    /// design: rules connect different codes).
    pub(super) fn causal(cfg: &CoAnalysisConfig, events: AfterSpatial<'_>) -> StageOutput {
        let (events, rules) = cfg.causal.filter(events.0);
        StageOutput::Causal { events, rules }
    }

    /// Matches the causally filtered stream against the job log; produces
    /// per-event cases and the job → event attribution.
    pub(super) fn matching(
        cfg: &CoAnalysisConfig,
        (events, jobs): (CausalEvents<'_>, &JobLog),
    ) -> StageOutput {
        StageOutput::Matching(cfg.matcher.run(events.0, jobs))
    }

    /// Flags job-related redundancy over the matched stream; final events
    /// are a subsequence of the causal stage's output.
    pub(super) fn job_related(
        _: &CoAnalysisConfig,
        (events, matching, jobs): (CausalEvents<'_>, &Matching, &JobLog),
    ) -> StageOutput {
        StageOutput::JobRelated(JobRelatedFilter.apply(events.0, matching, jobs))
    }

    /// Classifies per-code interruption impact from the matching cases
    /// alone.
    pub(super) fn impact(
        _: &CoAnalysisConfig,
        (events, matching): (CausalEvents<'_>, &Matching),
    ) -> StageOutput {
        StageOutput::Impact(classify_impact(events.0, matching))
    }

    /// Classifies per-code root cause using the matching and the job log
    /// (executable-following vs. location-sticky evidence).
    pub(super) fn root_cause(
        _: &CoAnalysisConfig,
        (events, matching, jobs): (CausalEvents<'_>, &Matching, &JobLog),
    ) -> StageOutput {
        StageOutput::RootCause(classify_root_cause(events.0, matching, jobs))
    }

    /// Fits interarrival models before/after job-related filtering; `None`
    /// when a stream is too small to fit.
    pub(super) fn table_iv(
        _: &CoAnalysisConfig,
        (events, finals): (CausalEvents<'_>, FinalEvents<'_>),
    ) -> StageOutput {
        StageOutput::TableIv(TableIv::new(events.0, finals.0).ok())
    }

    /// Builds the per-midplane fatal/workload/wide-workload series from the
    /// fully filtered events (a chain at one broken midplane is one fault
    /// there, not ten).
    pub(super) fn midplane(
        cfg: &CoAnalysisConfig,
        (finals, jobs): (FinalEvents<'_>, &JobLog),
    ) -> StageOutput {
        StageOutput::Midplane(MidplaneProfile::new(finals.0, jobs, cfg.wide_threshold))
    }

    /// Analyzes interruption burstiness over the matched victims and the RAS
    /// time span.
    pub(super) fn burst(
        cfg: &CoAnalysisConfig,
        (matching, span, jobs): (&Matching, Span, &JobLog),
    ) -> StageOutput {
        let window = span.0.unwrap_or((Timestamp::EPOCH, Timestamp::EPOCH));
        let victims = matching.interrupted_records(jobs);
        StageOutput::Burst(BurstAnalysis::new(&victims, jobs, window, cfg.quick_window))
    }

    /// Splits interruption interarrivals by root cause and fits each stream.
    pub(super) fn interruption(
        _: &CoAnalysisConfig,
        (events, matching, root_cause, jobs): (
            CausalEvents<'_>,
            &Matching,
            &RootCauseSummary,
            &JobLog,
        ),
    ) -> StageOutput {
        StageOutput::Interruption(InterruptionStats::new(events.0, matching, root_cause, jobs))
    }

    /// Measures spatial propagation from multi-victim events and temporal
    /// propagation from the job-related redundancy flags.
    pub(super) fn propagation(
        _: &CoAnalysisConfig,
        (events, matching, outcome, jobs): (
            CausalEvents<'_>,
            &Matching,
            &JobRelatedOutcome,
            &JobLog,
        ),
    ) -> StageOutput {
        StageOutput::Propagation(PropagationAnalysis::new(
            events.0,
            matching,
            jobs,
            &outcome.redundant,
        ))
    }

    /// Runs the Section VI-D vulnerability study over the matched stream,
    /// the root-cause labels, and the midplane fatal counts.
    pub(super) fn vulnerability(
        _: &CoAnalysisConfig,
        (events, matching, root_cause, midplane, jobs): (
            CausalEvents<'_>,
            &Matching,
            &RootCauseSummary,
            &MidplaneProfile,
            &JobLog,
        ),
    ) -> StageOutput {
        StageOutput::Vulnerability(Box::new(VulnerabilityAnalysis::new(
            events.0,
            matching,
            root_cause,
            jobs,
            &midplane.fatal_counts,
        )))
    }

    /// Mines ranked over-represented dimension combinations from the
    /// causally filtered events, the matching's job attribution, and the
    /// interned job-dimension columns.
    pub(super) fn fda(
        cfg: &CoAnalysisConfig,
        (events, matching, dims, jobs): (CausalEvents<'_>, &Matching, &JobDims, &JobLog),
    ) -> StageOutput {
        StageOutput::Fda(FdaAnalysis::compute(
            events.0, matching, dims, jobs, &cfg.fda,
        ))
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
fn filter_shards(
    cfg: &CoAnalysisConfig,
    shards: &[(ErrCode, &[Event])],
    mut cache: Option<(&mut Vec<ShardOutput>, &[ErrCode])>,
) -> StageOutput {
    // Per shard, the cached output to reuse (`None` = filter it now).
    let mut reuse: Vec<Option<ShardOutput>> = Vec::with_capacity(shards.len());
    match cache.as_mut() {
        Some((cached, dirty_codes)) => {
            let mut old = std::mem::take(*cached).into_iter().peekable();
            for &(code, _) in shards {
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
    // Shard sizes are skewed (one storm code can hold most events), so the
    // threads get contiguous chunks of about equal event count, not of
    // equal shard count.
    let sizes: Vec<usize> = todo.iter().map(|(_, shard)| shard.len()).collect();
    let chunks: Vec<&[(ErrCode, &[Event])]> = balanced_runs(&sizes, cfg.threads)
        .into_iter()
        .filter_map(|run| todo.get(run))
        .collect();
    let mut fresh = map_chunks_parallel(&chunks, |chunk| {
        chunk
            .iter()
            .map(|&(code, shard)| {
                let t = cfg.temporal.apply(shard);
                (code, cfg.spatial.apply(&t), t.len())
            })
            .collect::<Vec<ShardOutput>>()
    })
    .into_iter()
    .flatten();
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

/// Cut `weights` into at most `parts` contiguous runs of about equal total
/// weight. A run ends where its prefix sum reaches the next `1/parts` of
/// the total, on whichever side of the crossing item lands closer.
fn balanced_runs(weights: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = weights.iter().sum();
    let mut runs = Vec::with_capacity(parts);
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, &w) in weights.iter().enumerate() {
        // Distance of a prefix sum from the next cut, scaled by `parts`.
        let target = total * (runs.len() + 1);
        let off = |sum: usize| (sum * parts).abs_diff(target);
        if runs.len() + 1 < parts && (acc + w) * parts >= target {
            if start < i && off(acc) < off(acc + w) {
                runs.push(start..i);
                start = i;
            } else {
                runs.push(start..i + 1);
                start = i + 1;
            }
        }
        acc += w;
    }
    if start < weights.len() {
        runs.push(start..weights.len());
    }
    runs
}

/// Observer of stage execution, called by the executor around every stage.
///
/// The executor itself is clock-free (clippy's `disallowed-methods` ban);
/// callers that want wall-clock per stage — the metrics registry in
/// `bgp-serve`, `coctl analyze --timings` — read their own clock inside
/// these callbacks. Independent stages run concurrently, so callbacks must
/// tolerate interleaving across stages (they are never interleaved for one
/// stage: started and finished bracket the run on the same thread).
pub trait StageObserver: Sync {
    /// A stage is about to run on the current thread.
    fn stage_started(&self, id: StageId);
    /// The stage finished on the same thread.
    fn stage_finished(&self, id: StageId);
}

/// Run one stage, bracketed by the observer's callbacks.
fn observed<T>(observer: Option<&dyn StageObserver>, id: StageId, run: impl FnOnce() -> T) -> T {
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

/// Execute the dependency closure of `set` over `ctx` on `cfg.threads`
/// workers.
///
/// A worker starts a stage as soon as every one of its [`StageId::deps`]
/// has finished, taking the ready stage with the longest remaining
/// dependency path first (ties by [`StageId`]). Each product goes into its
/// stage's write-once slot, so stages that do not depend on each other
/// overlap freely. The order changes only the timing: every stage is a
/// pure function of its inputs.
///
/// One-shot (`incremental` is `None`): every stage runs, and nothing is
/// cloned into or compared against a cache. Incremental (`Some((cache,
/// delta))`): when a stage becomes ready it re-runs only if it has no
/// cached output, one of its [`StageId::ctx_reads`] is in
/// [`ContextDelta::dirty`], or one of its [`StageId::deps`] re-ran *and
/// produced a different output* — equality with the cached value cuts
/// propagation short (an append whose new events are all dedup'd away
/// re-runs the filters and nothing downstream). A clean stage installs its
/// cached product unchanged.
///
/// Contract: an incremental pass is bit-identical to a one-shot pass of
/// `set` over the same (post-append) context — guaranteed by
/// `EventStore::append_ras` keeping the indexes identical to a rebuild,
/// every stage being a pure function of config + its inputs, and
/// `deps`/`ctx_reads` being read off those inputs' types.
pub(crate) fn execute(
    ctx: &AnalysisContext<'_>,
    cfg: &CoAnalysisConfig,
    set: AnalysisSet,
    incremental: Option<(&mut StageCache, &ContextDelta)>,
    observer: Option<&dyn StageObserver>,
) -> (PipelineState, DeltaReport) {
    let set = set.closure();
    let (cache, delta) = incremental.unzip();
    let keep_outputs = cache.is_some();
    let dirty_ctx = delta.map_or(CtxSet::NONE, ContextDelta::dirty);
    let dirty_codes = delta.map_or(&[][..], |d| d.dirty_codes.as_slice());
    let state = PipelineState::new(ctx.event_count());
    let schedule = Schedule {
        board: Mutex::new(Board {
            todo: set,
            done: AnalysisSet::empty(),
            reran: AnalysisSet::empty(),
            changed: AnalysisSet::empty(),
            failed: false,
            cache,
        }),
        finished: Condvar::new(),
        priority: ready_priority(set),
        dirty_ctx,
    };
    let workers: Vec<usize> = (0..cfg.threads.clamp(1, set.len().max(1))).collect();
    map_chunks_parallel(&workers, |_| {
        let _guard = PanicGuard(&schedule);
        while let Some(task) = schedule.next() {
            match task {
                Task::Replay(id, out) => {
                    state.install(id, out.clone());
                    schedule.finish(id, false, false, Some(out));
                }
                Task::Run {
                    id,
                    cached,
                    ts_shards,
                } => {
                    let out = observed(observer, id, || match ts_shards {
                        Some(mut cache) => {
                            let shards = Shards::fetch(ctx, &state)?;
                            let out =
                                filter_shards(cfg, &shards.0, Some((&mut cache, dirty_codes)));
                            schedule.board().cache_shards(cache);
                            Some(out)
                        }
                        None => id.with_body(Run {
                            ctx,
                            cfg,
                            state: &state,
                        }),
                    });
                    let changed = cached != out;
                    // An incremental pass leaves the newest product cached.
                    let keep = match cached {
                        Some(old) if !changed => Some(old),
                        _ => keep_outputs.then(|| out.clone()).flatten(),
                    };
                    if let Some(out) = out {
                        state.install(id, out);
                    }
                    schedule.finish(id, true, changed, keep);
                }
            }
        }
    });
    let board = schedule
        .board
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let report = DeltaReport {
        reran: board.reran,
        changed: board.changed,
    };
    (state, report)
}

/// Per stage, the length (in stages) of the longest dependency path from it
/// to a sink of `set`, itself included — the ready order's first key.
fn ready_priority(set: AnalysisSet) -> [usize; StageId::ALL.len()] {
    let mut path = [0usize; StageId::ALL.len()];
    // `ALL` is topological, so walking it backwards sees every dependent
    // before the stages it depends on.
    for id in StageId::ALL.into_iter().rev() {
        if set.contains(id) {
            path[id as usize] = 1 + StageId::ALL
                .into_iter()
                .filter(|&s| set.contains(s) && s.deps().contains(id))
                .map(|s| path[s as usize])
                .max()
                .unwrap_or(0);
        }
    }
    path
}

/// The executor's shared state: which stages are left, done, re-run and
/// changed, and the previous pass's cache while an incremental pass holds
/// it.
struct Board<'c> {
    /// Stages not yet started.
    todo: AnalysisSet,
    /// Stages whose product is installed.
    done: AnalysisSet,
    reran: AnalysisSet,
    changed: AnalysisSet,
    /// A worker panicked: the others stop taking stages.
    failed: bool,
    cache: Option<&'c mut StageCache>,
}

impl Board<'_> {
    /// Return the temporal/spatial stage's per-shard cache.
    fn cache_shards(&mut self, shards: Vec<ShardOutput>) {
        if let Some(cache) = self.cache.as_mut() {
            cache.ts_shards = shards;
        }
    }
}

/// One stage handed to a worker.
enum Task {
    /// Install the cached product of a clean stage.
    Replay(StageId, StageOutput),
    /// Run the stage. `cached` is the previous pass's product to compare
    /// against; `ts_shards` the per-shard cache when the stage is the
    /// temporal/spatial one of an incremental pass.
    Run {
        id: StageId,
        cached: Option<StageOutput>,
        ts_shards: Option<Vec<ShardOutput>>,
    },
}

/// The [`Board`] behind its lock, the signal that a stage finished, and
/// what the ready rule reads.
struct Schedule<'c> {
    board: Mutex<Board<'c>>,
    finished: Condvar,
    priority: [usize; StageId::ALL.len()],
    dirty_ctx: CtxSet,
}

impl<'c> Schedule<'c> {
    #[expect(
        clippy::disallowed_methods,
        reason = "`Condvar::wait` in `next` needs the guard; nothing else blocks while it is held"
    )]
    fn board(&self) -> MutexGuard<'_, Board<'c>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until a stage is ready and hand it out, or return `None` once
    /// every stage has started (or a worker failed).
    fn next(&self) -> Option<Task> {
        let mut board = self.board();
        loop {
            if board.failed || board.todo.is_empty() {
                return None;
            }
            let done = board.done;
            let ready = board
                .todo
                .stages()
                .into_iter()
                .filter(|id| id.deps().0 & !done.0 == 0)
                .max_by_key(|&id| (self.priority[id as usize], std::cmp::Reverse(id as u16)));
            if let Some(id) = ready {
                board.todo = AnalysisSet(board.todo.0 & !id.bit());
                let dirty =
                    id.ctx_reads().meets(self.dirty_ctx) || id.deps().0 & board.changed.0 != 0;
                let Some(cache) = board.cache.as_deref_mut() else {
                    return Some(Task::Run {
                        id,
                        cached: None,
                        ts_shards: None,
                    });
                };
                let cached = cache.outputs.get_mut(id as usize).and_then(Option::take);
                return Some(match cached {
                    Some(out) if !dirty => Task::Replay(id, out),
                    cached => Task::Run {
                        id,
                        cached,
                        ts_shards: (id == StageId::TemporalSpatial)
                            .then(|| std::mem::take(&mut cache.ts_shards)),
                    },
                });
            }
            board = self
                .finished
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Record that `id` finished (`out` goes back into the cache, if any)
    /// and wake the workers waiting for a ready stage.
    fn finish(&self, id: StageId, ran: bool, changed: bool, out: Option<StageOutput>) {
        let mut board = self.board();
        board.done = board.done.with(id);
        if ran {
            board.reran = board.reran.with(id);
        }
        if changed {
            board.changed = board.changed.with(id);
        }
        if let (Some(cache), Some(out)) = (board.cache.as_deref_mut(), out) {
            cache.store(id, out);
        }
        drop(board);
        self.finished.notify_all();
    }
}

/// Stops the other workers when a stage panics: they would otherwise wait
/// forever for its product. `map_chunks_parallel` then re-raises the panic.
struct PanicGuard<'s, 'c>(&'s Schedule<'c>);

impl Drop for PanicGuard<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.board().failed = true;
            self.0.finished.notify_all();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A test observer that records every started/finished callback in
    /// call order; the pipeline's tests use it too.
    #[derive(Default)]
    pub(crate) struct Calls(pub(crate) Mutex<Vec<(StageId, bool)>>);

    #[expect(
        clippy::disallowed_methods,
        reason = "a test observer that never blocks"
    )]
    impl StageObserver for Calls {
        fn stage_started(&self, id: StageId) {
            self.0.lock().unwrap().push((id, false));
        }
        fn stage_finished(&self, id: StageId) {
            self.0.lock().unwrap().push((id, true));
        }
    }

    #[test]
    fn deps_are_topological() {
        // Every dependency appears earlier in ALL than its dependent.
        for (i, id) in StageId::ALL.iter().enumerate() {
            for d in id.deps().stages() {
                let j = StageId::ALL.iter().position(|&x| x == d).unwrap();
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

    /// One small simulated site, shared across proptest cases.
    fn sim() -> &'static bgp_sim::SimOutput {
        static SIM: std::sync::OnceLock<bgp_sim::SimOutput> = std::sync::OnceLock::new();
        SIM.get_or_init(|| {
            bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(11))
                .expect("valid config")
                .run()
        })
    }

    fn run_observed(threads: usize, set: AnalysisSet) -> Vec<(StageId, bool)> {
        let out = sim();
        let ctx = AnalysisContext::new(&out.ras, &out.jobs);
        let cfg = CoAnalysisConfig {
            threads,
            ..CoAnalysisConfig::default()
        };
        let calls = Calls::default();
        execute(&ctx, &cfg, set, None, Some(&calls));
        calls.0.into_inner().unwrap()
    }

    // The ready order replaced the six dependency waves (each stage in the
    // first wave after all of its deps, with a barrier between waves): a
    // stage now starts as soon as its own deps finish, so one slow stage no
    // longer holds back the stages that do not read it.
    #[test]
    fn one_worker_runs_the_ready_order() {
        use StageId as S;
        // Longest remaining path first (TemporalSpatial 6 … Matching 4,
        // JobRelated 3, RootCause and Midplane 2, the leaves 1), ties by id.
        let started: Vec<StageId> = run_observed(1, AnalysisSet::all())
            .into_iter()
            .filter_map(|(id, finished)| (!finished).then_some(id))
            .collect();
        assert_eq!(
            started,
            vec![
                S::TemporalSpatial,
                S::Causal,
                S::Matching,
                S::JobRelated,
                S::RootCause,
                S::Midplane,
                S::Impact,
                S::TableIv,
                S::Burst,
                S::Interruption,
                S::Propagation,
                S::Vulnerability,
                S::Fda,
            ]
        );
        let priority = ready_priority(AnalysisSet::all());
        assert_eq!(priority[S::TemporalSpatial as usize], 6);
        assert_eq!(priority[S::Midplane as usize], 2);
        // Within a smaller set the paths are counted inside it.
        assert_eq!(
            ready_priority(AnalysisSet::of(&[S::Burst]).closure())[S::TemporalSpatial as usize],
            4
        );
    }

    #[test]
    fn a_stage_starts_only_after_its_deps_finish() {
        for threads in [2, 4] {
            for set in [
                AnalysisSet::all(),
                AnalysisSet::of(&[StageId::Vulnerability, StageId::Impact]),
            ] {
                let calls = run_observed(threads, set);
                let at = |call: (StageId, bool)| calls.iter().position(|&c| c == call);
                assert_eq!(calls.len(), 2 * set.closure().len());
                for id in set.closure().stages() {
                    let start = at((id, false)).expect("every stage starts");
                    assert!(
                        at((id, true)) > Some(start),
                        "{id:?} finishes after it starts"
                    );
                    for d in id.deps().stages() {
                        assert!(
                            at((d, true)) < Some(start),
                            "{id:?} started before {d:?} finished"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_panicking_stage_stops_every_worker() {
        struct Boom;
        impl StageObserver for Boom {
            fn stage_started(&self, id: StageId) {
                assert_ne!(id, StageId::Matching, "boom");
            }
            fn stage_finished(&self, _: StageId) {}
        }
        let out = sim();
        let ctx = AnalysisContext::new(&out.ras, &out.jobs);
        let cfg = CoAnalysisConfig {
            threads: 3,
            ..CoAnalysisConfig::default()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&ctx, &cfg, AnalysisSet::all(), None, Some(&Boom))
        }));
        assert!(run.is_err());
    }

    #[test]
    fn balanced_runs_split_by_weight() {
        assert_eq!(balanced_runs(&[1, 1, 1, 1], 2), vec![0..2, 2..4]);
        // The cut lands on whichever side of a heavy item is closer to
        // the middle.
        assert_eq!(balanced_runs(&[2, 40, 3, 2], 2), vec![0..2, 2..4]);
        assert_eq!(balanced_runs(&[10, 40, 3], 2), vec![0..1, 1..3]);
        assert_eq!(balanced_runs(&[40, 3, 2], 2), vec![0..1, 1..3]);
        assert_eq!(balanced_runs(&[5, 5, 5], 1), vec![0..3]);
        assert_eq!(balanced_runs(&[], 2), Vec::<std::ops::Range<usize>>::new());
        let runs = balanced_runs(&[3; 10], 3);
        assert_eq!(runs.len(), 3);
        assert_eq!(
            runs.into_iter().flatten().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }
}
