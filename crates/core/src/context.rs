//! The shared, immutable index layer the stage executor opens for each
//! stage.
//!
//! An [`AnalysisContext`] pairs the two logs' indexes for one co-analysis
//! run. Each index lives with the data it indexes:
//!
//! * the **event side** is an [`EventStore`]: the fatal event stream as
//!   one code-sorted buffer with `(ErrCode, Range)` slices into it (the
//!   **per-code shards**, sorted by [`ErrCode`] so parallel filtering has a
//!   deterministic shard → thread assignment without duplicating every
//!   event), and the RAS log's **time span**, for burst-rate denominators;
//! * the **job side** is the borrowed [`JobLog`], which owns every index
//!   over the job table (occupancy postings, the termination order, the
//!   job-id index, the executable groups) and keeps them current across
//!   appends;
//! * the **FDA columns**, the one index the context builds itself: the
//!   interned job dimensions of the FDA lattice, built on first read.
//!
//! Analyses never see the context: each takes the job log (and FDA the
//! columns) as arguments. Only the stage executor opens it, through the
//! typed inputs of each stage body, and those input types are also where a
//! stage's [`CtxIndex`] reads are declared.

use crate::analysis::fda::JobDims;
use crate::event::Event;
use bgp_model::Timestamp;
use joblog::{JobLog, JobRecord};
use raslog::{ErrCode, RasLog, RasRecord};
use std::ops::Range;
use std::sync::OnceLock;

/// One day's (or one poll's) worth of new log lines, ready to fold into a
/// resident analysis via `DeltaSession::append`.
///
/// Both sides may be empty; records may arrive in any order and may repeat
/// timestamps already seen — the merge below is defined so the result is
/// identical to rebuilding from the concatenated input.
#[derive(Debug, Clone, Default)]
pub struct AppendBatch {
    /// New RAS records (any order).
    pub ras: Vec<RasRecord>,
    /// New job rows (any order).
    pub jobs: Vec<JobRecord>,
}

impl AppendBatch {
    /// True when the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.ras.is_empty() && self.jobs.is_empty()
    }
}

/// The parts of an [`AnalysisContext`] an append can invalidate
/// independently — the unit of a stage's context reads
/// ([`StageId::ctx_reads`](crate::stage::StageId::ctx_reads)) and of a
/// [`ContextDelta`]'s dirty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxIndex {
    /// The fatal events: their per-code shards and their count.
    Events,
    /// The observation window of the RAS log.
    Span,
    /// The job table and every index over it.
    Jobs,
}

/// A set of [`CtxIndex`]es, as bits: what a stage reads of the context, or
/// what an append disturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxSet(u8);

impl CtxSet {
    /// The empty set.
    pub const NONE: CtxSet = CtxSet(0);

    /// The set holding `index` alone.
    pub const fn of(index: CtxIndex) -> CtxSet {
        CtxSet(1 << index as u8)
    }

    /// The members of both sets.
    #[must_use]
    pub const fn union(self, other: CtxSet) -> CtxSet {
        CtxSet(self.0 | other.0)
    }

    /// Do the two sets share a member?
    pub fn meets(self, other: CtxSet) -> bool {
        self.0 & other.0 != 0
    }
}

/// What an [`AppendBatch`] actually touched. The executor re-runs a stage
/// when [`ContextDelta::dirty`] meets its declared
/// [`StageId::ctx_reads`](crate::stage::StageId::ctx_reads); `dirty_codes`
/// narrows the temporal/spatial re-run to the shards that grew.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextDelta {
    /// Error codes whose per-code shard gained events (sorted, deduped).
    pub dirty_codes: Vec<ErrCode>,
    /// RAS records appended (fatal or not).
    pub ras_appended: usize,
    /// Fatal events appended (the subset of `ras_appended` the pipeline
    /// sees).
    pub events_appended: usize,
    /// Job rows appended.
    pub jobs_appended: usize,
    /// Did the observation window (time span) move?
    pub span_changed: bool,
}

impl ContextDelta {
    /// The context indexes this delta invalidated. A job append shifts the
    /// job table itself, so every index over it is new.
    pub fn dirty(&self) -> CtxSet {
        [
            (self.events_appended > 0, CtxIndex::Events),
            (self.span_changed, CtxIndex::Span),
            (self.jobs_appended > 0, CtxIndex::Jobs),
        ]
        .into_iter()
        .filter(|&(hit, _)| hit)
        .fold(CtxSet::NONE, |set, (_, index)| set.union(CtxSet::of(index)))
    }
}

/// The owned, lifetime-free event-side half of an [`AnalysisContext`]: the
/// fatal event stream as per-code shards, and the observation span.
///
/// A resident analysis keeps an `EventStore` alive across appends:
/// `from_store` / `into_store` move it in and out of a context without
/// copying. [`EventStore::append_ras`] merges a batch into the sorted
/// indexes shard by shard — untouched shards are copied wholesale, never
/// re-sorted — and reports which shards went dirty.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    /// Every fatal event, stably sorted by error code (time order within a
    /// code is preserved). `code_slices` carves this single buffer into
    /// per-code shards, so no event is ever stored twice.
    code_events: Vec<Event>,
    code_slices: Vec<(ErrCode, Range<usize>)>,
    span: Option<(Timestamp, Timestamp)>,
}

impl EventStore {
    /// Extract and index the fatal event stream of `ras`.
    pub fn from_ras(ras: &RasLog) -> EventStore {
        EventStore::from_events(Event::from_fatal_records(ras), ras.time_span())
    }

    /// Index an already-extracted event stream, in any order: it is sorted
    /// stably by `(time, first_recid)`, which a stream extracted from a
    /// [`RasLog`] already is, so that pays one linear check. `span` is the
    /// observation window of the underlying log (not just the fatal subset).
    pub fn from_events(mut events: Vec<Event>, span: Option<(Timestamp, Timestamp)>) -> EventStore {
        let key = |e: &Event| (e.time, e.first_recid);
        if !events.is_sorted_by_key(key) {
            events.sort_by_key(key);
        }
        // The stable sort by code keeps each code's events in time order.
        // Slices (not per-code Vecs) mean the events are stored once, and
        // sorting by code keeps the shard → thread assignment deterministic.
        let (code_events, code_slices) = index_by_code(&events);
        EventStore {
            code_events,
            code_slices,
            span,
        }
    }

    /// Number of fatal events.
    pub fn len(&self) -> usize {
        self.code_events.len()
    }

    /// True when the store holds no fatal event.
    pub fn is_empty(&self) -> bool {
        self.code_events.is_empty()
    }

    /// Fatal events grouped by error code, shards sorted by code. Each
    /// shard borrows a slice of the single code-sorted buffer.
    pub fn code_shards(&self) -> Vec<(ErrCode, &[Event])> {
        self.code_slices
            .iter()
            .filter_map(|(code, r)| self.code_events.get(r.clone()).map(|s| (*code, s)))
            .collect()
    }

    /// The observation window, if any records have been seen.
    pub fn span(&self) -> Option<(Timestamp, Timestamp)> {
        self.span
    }

    /// Merge a batch of RAS records into the sorted indexes.
    ///
    /// Contract: after this returns, the store is *identical* (every byte of
    /// every buffer) to one built by `from_ras` over the concatenation of
    /// all records ever passed in — the bit-identity gate `run_delta` rests
    /// on. This holds because a stable merge with base-before-batch tie
    /// order is exactly what a stable sort of the concatenated input
    /// produces, applied once per dirty shard.
    pub fn append_ras(&mut self, records: Vec<RasRecord>) -> ContextDelta {
        let ras_appended = records.len();
        if records.is_empty() {
            return ContextDelta::default();
        }
        let batch = RasLog::from_records(records);
        let new_span = match (self.span, batch.time_span()) {
            (Some((a0, a1)), Some((b0, b1))) => Some((a0.min(b0), a1.max(b1))),
            (one, other) => one.or(other),
        };
        let span_changed = new_span != self.span;
        self.span = new_span;

        let batch_events = Event::from_fatal_records(&batch);
        if batch_events.is_empty() {
            return ContextDelta {
                ras_appended,
                span_changed,
                ..ContextDelta::default()
            };
        }

        // Per-code rebuild: walk the (sorted) old and batch shard lists in
        // lockstep. Clean shards are copied wholesale; shards present on
        // both sides are merged; brand-new codes are spliced in.
        let (batch_code_events, batch_slices) = index_by_code(&batch_events);
        let mut events = Vec::with_capacity(self.code_events.len() + batch_code_events.len());
        let mut slices: Vec<(ErrCode, Range<usize>)> =
            Vec::with_capacity(self.code_slices.len() + batch_slices.len());
        let mut dirty_codes = Vec::with_capacity(batch_slices.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.code_slices.len() || j < batch_slices.len() {
            let ord = match (self.code_slices.get(i), batch_slices.get(j)) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            let start = events.len();
            let code = match ord {
                std::cmp::Ordering::Less => {
                    let Some((code, r)) = self.code_slices.get(i) else {
                        break;
                    };
                    events.extend_from_slice(self.code_events.get(r.clone()).unwrap_or(&[]));
                    i += 1;
                    *code
                }
                std::cmp::Ordering::Greater => {
                    let Some((code, r)) = batch_slices.get(j) else {
                        break;
                    };
                    events.extend_from_slice(batch_code_events.get(r.clone()).unwrap_or(&[]));
                    dirty_codes.push(*code);
                    j += 1;
                    *code
                }
                std::cmp::Ordering::Equal => {
                    let (Some((code, r_old)), Some((_, r_new))) =
                        (self.code_slices.get(i), batch_slices.get(j))
                    else {
                        break;
                    };
                    let mut shard = Vec::from(self.code_events.get(r_old.clone()).unwrap_or(&[]));
                    merge_sorted_events(
                        &mut shard,
                        batch_code_events.get(r_new.clone()).unwrap_or(&[]),
                    );
                    events.extend_from_slice(&shard);
                    dirty_codes.push(*code);
                    i += 1;
                    j += 1;
                    *code
                }
            };
            slices.push((code, start..events.len()));
        }
        self.code_events = events;
        self.code_slices = slices;

        ContextDelta {
            dirty_codes,
            ras_appended,
            events_appended: batch_events.len(),
            jobs_appended: 0,
            span_changed,
        }
    }
}

/// Stably sort `events` by code and carve the buffer into per-code slices:
/// a counting sort on [`ErrCode::index`], so each code's events keep their
/// input (time) order.
fn index_by_code(events: &[Event]) -> (Vec<Event>, Vec<(ErrCode, Range<usize>)>) {
    let codes = events
        .iter()
        .map(|e| e.errcode.index() + 1)
        .max()
        .unwrap_or(0);
    // `ends[c + 1]` counts code `c`; after the prefix sum `ends[c]` is where
    // code `c` starts and `ends[c + 1]` where it ends.
    let mut ends = vec![0usize; codes + 1];
    for e in events {
        ends[e.errcode.index() + 1] += 1;
    }
    for c in 1..ends.len() {
        ends[c] += ends[c - 1];
    }
    let mut cursor = ends.clone();
    let mut code_events = events.to_vec();
    for e in events {
        let at = &mut cursor[e.errcode.index()];
        code_events[*at] = *e;
        *at += 1;
    }
    let code_slices = ends
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0] < w[1])
        .map(|(c, w)| (ErrCode(c as u16), w[0]..w[1]))
        .collect();
    (code_events, code_slices)
}

/// Merge `batch` (sorted by `(time, first_recid)`) into the sorted `base`,
/// base-first on ties — byte-for-byte what a stable sort of the
/// concatenation produces. Appends without shifting when the batch lands
/// entirely at or past the tail (the common day-over-day case).
fn merge_sorted_events(base: &mut Vec<Event>, batch: &[Event]) {
    let Some(first) = batch.first() else {
        return;
    };
    let tail = base
        .last()
        .is_none_or(|last| (first.time, first.first_recid) >= (last.time, last.first_recid));
    if tail {
        base.extend_from_slice(batch);
        return;
    }
    let old = std::mem::take(base);
    base.reserve(old.len() + batch.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() && j < batch.len() {
        let (Some(a), Some(b)) = (old.get(i), batch.get(j)) else {
            break;
        };
        if (b.time, b.first_recid) < (a.time, a.first_recid) {
            base.push(*b);
            j += 1;
        } else {
            base.push(*a);
            i += 1;
        }
    }
    base.extend_from_slice(old.get(i..).unwrap_or(&[]));
    base.extend_from_slice(batch.get(j..).unwrap_or(&[]));
}

/// Immutable per-run indexes shared by every stage of the pipeline.
///
/// Borrowing (rather than owning) the [`JobLog`] keeps construction cheap
/// and lets callers reuse one log across many contexts (e.g. benchmark
/// ablations re-running the pipeline with different stage sets).
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    jobs: &'a JobLog,
    events: EventStore,
    /// Interned job-dimension columns for the FDA lattice, built lazily on
    /// first use (only the `Fda` stage pays for them).
    fda_dims: OnceLock<JobDims>,
}

impl<'a> AnalysisContext<'a> {
    /// Build the full context for one co-analysis run: extract and index
    /// the fatal event stream of `ras` beside `jobs`.
    pub fn new(ras: &RasLog, jobs: &'a JobLog) -> AnalysisContext<'a> {
        AnalysisContext::from_store(EventStore::from_ras(ras), jobs)
    }

    /// Build a context from an already-extracted event stream, in any order
    /// (see [`EventStore::from_events`]). `span` is the observation window
    /// of the underlying log (not just the fatal subset).
    pub fn from_events(
        events: Vec<Event>,
        span: Option<(Timestamp, Timestamp)>,
        jobs: &'a JobLog,
    ) -> AnalysisContext<'a> {
        AnalysisContext::from_store(EventStore::from_events(events, span), jobs)
    }

    /// Build a context around a resident [`EventStore`]. Nothing is
    /// rebuilt: the store moves in without copying, and the job log brings
    /// its own indexes. [`AnalysisContext::into_store`] moves the store
    /// back out after a run.
    pub fn from_store(events: EventStore, jobs: &'a JobLog) -> AnalysisContext<'a> {
        AnalysisContext {
            jobs,
            events,
            fda_dims: OnceLock::new(),
        }
    }

    /// A context with no RAS events, around a job log. Its callers are the
    /// benchmark's probes (`perfbench`), which time the job side alone:
    /// building a context and its FDA columns. Analyses take the job log
    /// itself and need no context.
    pub fn for_jobs(jobs: &'a JobLog) -> AnalysisContext<'a> {
        AnalysisContext::from_store(EventStore::default(), jobs)
    }

    /// Recover the event store, dropping the FDA columns. Inverse of
    /// [`AnalysisContext::from_store`].
    pub fn into_store(self) -> EventStore {
        self.events
    }

    /// Number of fatal events (the top of the filter funnel).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Fatal events grouped by error code, shards sorted by code
    /// ([`EventStore::code_shards`]).
    pub fn code_shards(&self) -> Vec<(ErrCode, &[Event])> {
        self.events.code_shards()
    }

    /// The observation window of the underlying RAS log, if known.
    pub fn span(&self) -> Option<(Timestamp, Timestamp)> {
        self.events.span()
    }

    /// The job log and every index over it: occupancy, termination order,
    /// job ids (a duplicated id means its last row) and executable groups.
    pub fn jobs(&self) -> &'a JobLog {
        self.jobs
    }

    /// The interned job-dimension columns of the FDA lattice (midplane,
    /// user, project, executable, size — one dense-`u32` column each, plus
    /// the sorted dictionaries behind the ids). Built lazily on first call
    /// and memoized for the context's lifetime, so only the `Fda` stage
    /// pays the columnarization cost.
    pub fn fda_columns(&self) -> &JobDims {
        self.fda_dims
            .get_or_init(|| JobDims::from_jobs(self.jobs.jobs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joblog::{ExecId, ExitStatus, ProjectId, UserId};
    use raslog::{Catalog, RasRecord};

    fn job(job_id: u64, exec: u32, start: i64, end: i64, part: &str) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(1),
            project: ProjectId(1),
            queue_time: Timestamp::from_unix(start - 50),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(end),
            partition: part.parse().unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    fn rec(recid: u64, t: i64, loc: &str, name: &str) -> RasRecord {
        RasRecord::new(
            recid,
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
        )
    }

    #[test]
    fn shards_are_sorted_by_code_and_cover_all_events() {
        let log = RasLog::from_records(vec![
            rec(1, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(2, 200, "R00-M1", "_bgp_err_ddr_controller"),
            rec(3, 300, "R00-M0", "_bgp_err_kernel_panic"),
            rec(4, 400, "R01-M0", "_bgp_warn_ecc_corrected"),
        ]);
        let jobs = JobLog::default();
        let ctx = AnalysisContext::new(&log, &jobs);
        assert_eq!(ctx.event_count(), 3);
        let shards = ctx.code_shards();
        assert!(shards.windows(2).all(|w| w[0].0 < w[1].0));
        let total: usize = shards.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, ctx.event_count());
        assert_eq!(ctx.span(), log.time_span());
    }

    #[test]
    fn duplicate_job_ids_resolve_to_the_last_row() {
        // Job 5 appears twice, on different executables; job 8 twice with
        // the same executable and queue time. Every lookup through the job
        // log answers with the last row of the start-sorted table.
        let jobs = JobLog::from_jobs(vec![
            job(5, 1, 100, 500, "R00-M0"),
            job(5, 2, 300, 900, "R00-M1"),
            job(8, 3, 400, 600, "R01-M0"),
            job(8, 3, 400, 700, "R01-M1"),
            job(6, 3, 400, 800, "R02-M0"),
        ]);
        let last = |id: u64| jobs.jobs().iter().rev().find(|j| j.job_id == id);
        assert_eq!(jobs.job(5).map(|j| j.exec), Some(ExecId(2)));
        assert_eq!(jobs.job(5), last(5));
        assert_eq!(jobs.job(8).map(|j| j.end_time.as_unix()), Some(700));
        assert_eq!(jobs.job(8), last(8));
        // Within a group, queue-time ties order by job id, and rows that
        // tie on both keep their table order.
        let groups: Vec<&[u32]> = jobs.exec_groups().iter().collect();
        assert_eq!(groups.len(), 3);
        let exec3: Vec<(u64, i64)> = groups[2]
            .iter()
            .map(|&row| {
                let j = &jobs.jobs()[row as usize];
                (j.job_id, j.end_time.as_unix())
            })
            .collect();
        assert_eq!(exec3, vec![(6, 800), (8, 600), (8, 700)]);
        // A mark lands on every row of a duplicated id; `job_row` is the
        // last of them.
        let marks = jobs.row_marks(&std::collections::BTreeMap::from([(8, 'b'), (5u64, 'a')]));
        let marked: Vec<(u64, char)> = jobs
            .jobs()
            .iter()
            .zip(&marks)
            .filter_map(|(j, m)| m.map(|m| (j.job_id, m)))
            .collect();
        assert_eq!(marked, vec![(5, 'a'), (5, 'a'), (8, 'b'), (8, 'b')]);
        let row_of_6 = jobs.jobs().iter().position(|j| j.job_id == 6);
        assert_eq!(jobs.job_row(5), Some(1));
        assert_eq!(jobs.job_row(6).map(|r| r as usize), row_of_6);
    }

    /// Build a store by appending `tail` onto `head` and assert every
    /// buffer is identical to indexing the concatenation in one shot.
    fn assert_append_equals_rebuild(head: Vec<RasRecord>, tail: Vec<RasRecord>) -> ContextDelta {
        let mut all = head.clone();
        all.extend(tail.iter().cloned());
        let oneshot = EventStore::from_ras(&RasLog::from_records(all));
        let mut delta_store = EventStore::from_ras(&RasLog::from_records(head));
        let delta = delta_store.append_ras(tail);
        assert_eq!(delta_store.code_events, oneshot.code_events);
        assert_eq!(delta_store.code_slices, oneshot.code_slices);
        assert_eq!(delta_store.span, oneshot.span);
        assert_eq!(delta_store.len(), oneshot.len());
        delta
    }

    #[test]
    fn append_tail_batch_matches_rebuild() {
        let head = vec![
            rec(1, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(2, 200, "R00-M1", "_bgp_err_ddr_controller"),
        ];
        let tail = vec![
            rec(3, 300, "R00-M0", "_bgp_err_kernel_panic"),
            rec(4, 400, "R01-M0", "_bgp_err_torus_sender_fifo"),
        ];
        let delta = assert_append_equals_rebuild(head, tail);
        assert_eq!(delta.ras_appended, 2);
        assert_eq!(delta.events_appended, 2);
        assert_eq!(delta.dirty_codes.len(), 2);
        assert!(delta.span_changed);
    }

    #[test]
    fn append_out_of_order_batch_matches_rebuild() {
        // Batch records land *before* and *between* base records, and repeat
        // a base timestamp — the merge must still equal the one-shot build.
        let head = vec![
            rec(10, 500, "R00-M0", "_bgp_err_kernel_panic"),
            rec(11, 900, "R00-M1", "_bgp_err_kernel_panic"),
        ];
        let tail = vec![
            rec(12, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(13, 500, "R01-M0", "_bgp_err_ddr_controller"),
            rec(14, 700, "R00-M0", "_bgp_err_kernel_panic"),
        ];
        let delta = assert_append_equals_rebuild(head, tail);
        assert!(delta.span_changed);
    }

    #[test]
    fn append_empty_and_nonfatal_batches_are_clean() {
        let head = vec![rec(1, 100, "R00-M0", "_bgp_err_kernel_panic")];
        let mut store = EventStore::from_ras(&RasLog::from_records(head.clone()));
        let delta = store.append_ras(Vec::new());
        assert_eq!(delta, ContextDelta::default());
        // A batch with no FATAL records dirties no shard (but may move the
        // span).
        let delta = assert_append_equals_rebuild(
            head,
            vec![rec(2, 900, "R00-M0", "_bgp_warn_ecc_corrected")],
        );
        assert!(delta.dirty_codes.is_empty());
        assert_eq!(delta.events_appended, 0);
        assert_eq!(delta.ras_appended, 1);
        assert!(delta.span_changed);
    }

    #[test]
    fn from_store_round_trips_through_a_context() {
        let log = RasLog::from_records(vec![
            rec(1, 100, "R00-M0", "_bgp_err_kernel_panic"),
            rec(2, 200, "R00-M1", "_bgp_err_ddr_controller"),
        ]);
        let jobs = JobLog::from_jobs(vec![job(7, 1, 50, 500, "R00-M0")]);
        let store = EventStore::from_ras(&log);
        let ctx = AnalysisContext::from_store(store.clone(), &jobs);
        let direct = AnalysisContext::new(&log, &jobs);
        assert_eq!(ctx.event_count(), direct.event_count());
        assert_eq!(ctx.code_shards(), direct.code_shards());
        assert_eq!(ctx.span(), direct.span());
        assert_eq!(jobs.job(7).map(|j| j.job_id), Some(7));
        let back = ctx.into_store();
        assert_eq!(back.code_events, store.code_events);
        assert_eq!(back.code_slices, store.code_slices);
    }
}
