//! The shared, immutable index layer every pipeline stage reads.
//!
//! Before the stage graph existed, each analysis constructor took `&JobLog`
//! and rebuilt its own lookups from scratch — `by_exec()` hash groupings,
//! linear `by_job_id` scans, ad-hoc per-code event shards. An
//! [`AnalysisContext`] precomputes all of them once per run:
//!
//! * the **raw fatal event stream**, in time order (the filters' input);
//! * **per-code event shards** — one code-sorted event buffer with
//!   `(ErrCode, Range)` slices into it, sorted by [`ErrCode`] so parallel
//!   filtering has a deterministic shard → thread assignment without
//!   duplicating every event;
//! * a **job-id index** (row ids sorted by job id) making job lookup a
//!   binary search instead of a linear scan, and turning an id-keyed map
//!   into per-row marks in one merge ([`AnalysisContext::row_marks`]);
//! * **executable groups** (the paper's "distinct job" notion): one vector
//!   of job-table rows sorted by executable, then submission order, cut by
//!   group offsets ([`ExecGroups`]). Built on first read, so a context whose
//!   stages never walk them (a delta fold that only re-filters) never pays;
//! * a **per-midplane job-termination index** (end-time-sorted ranks) that
//!   the matching sweep walks with monotone cursors instead of re-scanning
//!   a machine-wide termination window per event;
//! * the RAS log's **time span**, for burst-rate denominators.
//!
//! Occupancy and termination queries (`running_at`, `overlapping`,
//! `ended_in_window`) delegate to the [`JobLog`]'s own
//! interval indexes, which are already built once at log construction; the
//! context re-exposes them so stages depend on one type only.

use crate::analysis::fda::JobDims;
use crate::event::Event;
use bgp_model::intern::Interner;
use bgp_model::{Duration, MidplaneId, Timestamp};
use joblog::{JobLog, JobRecord};
use raslog::{ErrCode, RasLog, RasRecord};
use std::collections::BTreeMap;
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
/// independently — the unit of a stage's declared context reads
/// ([`StageId::ctx_reads`](crate::stage::StageId::ctx_reads)) and of a
/// [`ContextDelta`]'s dirty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxIndex {
    /// The raw fatal event stream and its per-code shards.
    Events,
    /// The observation window of the RAS log.
    Span,
    /// The job table and every index over it.
    Jobs,
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
    pub fn dirty(&self) -> Vec<CtxIndex> {
        let mut dirty = Vec::new();
        if self.events_appended > 0 {
            dirty.push(CtxIndex::Events);
        }
        if self.span_changed {
            dirty.push(CtxIndex::Span);
        }
        if self.jobs_appended > 0 {
            dirty.push(CtxIndex::Jobs);
        }
        dirty
    }
}

/// The owned, lifetime-free event-side half of an [`AnalysisContext`]: the
/// raw fatal stream, the per-code shard index, and the observation span.
///
/// A resident analysis keeps an `EventStore` alive across appends and
/// rebuilds only the (cheap) job-side indexes per run: `from_store` /
/// `into_store` move the event buffers in and out of a context without
/// copying them. [`EventStore::append_ras`] merges a batch into the sorted
/// indexes shard by shard — untouched shards are copied wholesale, never
/// re-sorted — and reports which shards went dirty.
#[derive(Debug, Clone, Default)]
pub struct EventStore {
    raw_events: Vec<Event>,
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
    pub fn from_events(
        mut raw_events: Vec<Event>,
        span: Option<(Timestamp, Timestamp)>,
    ) -> EventStore {
        let key = |e: &Event| (e.time, e.first_recid);
        if !raw_events.is_sorted_by_key(key) {
            raw_events.sort_by_key(key);
        }
        // One code-sorted copy of the stream; the stable sort keeps each
        // code's events in time order, matching what per-code accumulation
        // used to produce. Slices (not per-code Vecs) mean the events are
        // stored once, and sorting by code keeps the shard → thread
        // assignment deterministic.
        let (code_events, code_slices) = index_by_code(&raw_events);
        EventStore {
            raw_events,
            code_events,
            code_slices,
            span,
        }
    }

    /// The raw fatal event stream, in `(time, first_recid)` order.
    pub fn raw_events(&self) -> &[Event] {
        &self.raw_events
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
    /// produces, applied once to the raw stream and once per dirty shard.
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

        merge_sorted_events(&mut self.raw_events, &batch_events);

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

/// Job-table rows grouped by executable (the paper's "distinct job"):
/// every row once, sorted by `(exec, queue_time, job_id)` with ties in table
/// order, and one offset per group into that vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecGroups {
    rows: Vec<u32>,
    /// `starts[g]..starts[g + 1]` are group `g`'s rows.
    starts: Vec<u32>,
}

impl ExecGroups {
    /// Group the rows of `jobs`.
    pub fn from_jobs(jobs: &[JobRecord]) -> ExecGroups {
        // Rows by executable: a counting sort on the executables' dense
        // ids, stable, so each group starts out in table order. (About 4x
        // faster at paper scale than one sort of all rows by the full key.)
        let execs: Vec<u64> = jobs.iter().map(|j| u64::from(j.exec.0)).collect();
        let (dict, ids) = Interner::from_column(&execs);
        let mut starts = vec![0u32; dict.len() + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for g in 1..starts.len() {
            starts[g] += starts[g - 1];
        }
        let mut cursor = starts.clone();
        let mut rows = vec![0u32; jobs.len()];
        for (row, &id) in ids.iter().enumerate() {
            let at = &mut cursor[id as usize];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        // Then each group into submission order. Table (start-time) order
        // is nearly that already, and the sort is stable, so rows that tie
        // on queue time and job id keep table order.
        let submitted = |&row: &u32| jobs.get(row as usize).map(|j| (j.queue_time, j.job_id));
        for w in starts.windows(2) {
            if let Some(group) = rows.get_mut(w[0] as usize..w[1] as usize) {
                group.sort_by_key(submitted);
            }
        }
        ExecGroups { rows, starts }
    }

    /// Number of groups (distinct executables).
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True when there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The groups in executable order, each a slice of job-table rows in
    /// submission order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.starts
            .windows(2)
            .map(|w| self.rows.get(w[0] as usize..w[1] as usize).unwrap_or(&[]))
    }
}

/// Immutable per-run indexes shared by every stage of the pipeline.
///
/// Borrowing (rather than owning) the [`JobLog`] keeps construction cheap
/// and lets callers reuse one log across many contexts (e.g. benchmark
/// ablations re-running the pipeline with different stage sets).
#[derive(Debug, Clone)]
pub struct AnalysisContext<'a> {
    jobs: &'a JobLog,
    raw_events: Vec<Event>,
    /// All raw events, stably sorted by error code (time order within a
    /// code is preserved). `code_slices` carves this single buffer into
    /// per-code shards, so no event is ever stored twice.
    code_events: Vec<Event>,
    code_slices: Vec<(ErrCode, Range<usize>)>,
    /// `(job_id, row)` for every row of the job table, sorted by job id,
    /// so a duplicated id's rows stay in table order.
    job_index: Vec<(u64, u32)>,
    /// Job-table rows grouped by executable, built on first read.
    exec_groups: OnceLock<ExecGroups>,
    span: Option<(Timestamp, Timestamp)>,
    /// Interned job-dimension columns for the FDA lattice, built lazily on
    /// first use (only the `Fda` stage pays for them).
    fda_dims: OnceLock<JobDims>,
    #[cfg(test)]
    reads: ReadLog,
}

/// The [`CtxIndex`]es read through a context's accessors, as a bitmask —
/// recorded in test builds only, so the stage-graph proptest can compare
/// each stage's actual reads with its declared `ctx_reads`.
#[cfg(test)]
#[derive(Debug, Default)]
struct ReadLog(std::sync::atomic::AtomicU8);

#[cfg(test)]
impl Clone for ReadLog {
    fn clone(&self) -> ReadLog {
        ReadLog::default()
    }
}

impl<'a> AnalysisContext<'a> {
    /// Build the full context for one co-analysis run: extract the fatal
    /// event stream from `ras` and index `jobs`.
    pub fn new(ras: &RasLog, jobs: &'a JobLog) -> AnalysisContext<'a> {
        AnalysisContext::from_events(Event::from_fatal_records(ras), ras.time_span(), jobs)
    }

    /// Build a context from an already-extracted event stream, in any order
    /// (see [`EventStore::from_events`]). `span` is the observation window
    /// of the underlying log (not just the fatal subset).
    pub fn from_events(
        raw_events: Vec<Event>,
        span: Option<(Timestamp, Timestamp)>,
        jobs: &'a JobLog,
    ) -> AnalysisContext<'a> {
        AnalysisContext::from_store(EventStore::from_events(raw_events, span), jobs)
    }

    /// Build a context around a resident [`EventStore`], rebuilding only the
    /// job-side indexes (job-id map, exec groups; the termination ranks are
    /// the job log's own). The event buffers move in without copying;
    /// [`AnalysisContext::into_store`] moves them back out after a run.
    pub fn from_store(store: EventStore, jobs: &'a JobLog) -> AnalysisContext<'a> {
        let EventStore {
            raw_events,
            code_events,
            code_slices,
            span,
        } = store;

        // Rows are distinct, so the unstable sort of `(id, row)` pairs is
        // the stable sort by id.
        let mut job_index: Vec<(u64, u32)> = jobs
            .jobs()
            .iter()
            .enumerate()
            .map(|(i, j)| (j.job_id, i as u32))
            .collect();
        job_index.sort_unstable();

        AnalysisContext {
            jobs,
            raw_events,
            code_events,
            code_slices,
            job_index,
            exec_groups: OnceLock::new(),
            span,
            fda_dims: OnceLock::new(),
            #[cfg(test)]
            reads: ReadLog::default(),
        }
    }

    /// Record a read of `index` (test builds only; free otherwise).
    #[inline]
    fn note(&self, index: CtxIndex) {
        #[cfg(test)]
        self.reads
            .0
            .fetch_or(1 << index as u8, std::sync::atomic::Ordering::Relaxed);
        #[cfg(not(test))]
        let _ = index;
    }

    /// Take (and clear) the indexes read since the last call.
    #[cfg(test)]
    pub(crate) fn take_observed_reads(&self) -> Vec<CtxIndex> {
        let mask = self.reads.0.swap(0, std::sync::atomic::Ordering::Relaxed);
        [CtxIndex::Events, CtxIndex::Span, CtxIndex::Jobs]
            .into_iter()
            .filter(|&i| mask & (1 << i as u8) != 0)
            .collect()
    }

    /// A context with no RAS events — job-side indexes only. Convenient for
    /// unit tests exercising a single stage against a hand-built job log.
    pub fn for_jobs(jobs: &'a JobLog) -> AnalysisContext<'a> {
        AnalysisContext::from_events(Vec::new(), None, jobs)
    }

    /// Recover the owned event-side indexes, dropping the (cheaply rebuilt)
    /// job-side ones. Inverse of [`AnalysisContext::from_store`].
    pub fn into_store(self) -> EventStore {
        EventStore {
            raw_events: self.raw_events,
            code_events: self.code_events,
            code_slices: self.code_slices,
            span: self.span,
        }
    }

    /// The raw fatal event stream, in time order.
    pub fn raw_events(&self) -> &[Event] {
        self.note(CtxIndex::Events);
        &self.raw_events
    }

    /// Raw fatal events grouped by error code, shards sorted by code.
    /// Each shard borrows a slice of the single code-sorted buffer.
    pub fn code_shards(&self) -> Vec<(ErrCode, &[Event])> {
        self.note(CtxIndex::Events);
        self.code_slices
            .iter()
            .filter_map(|(code, r)| self.code_events.get(r.clone()).map(|s| (*code, s)))
            .collect()
    }

    /// The interned job-dimension columns of the FDA lattice (midplane,
    /// user, project, executable, size — one dense-`u32` column each, plus
    /// the sorted dictionaries behind the ids). Built lazily on first call
    /// and memoized for the context's lifetime, so only the `Fda` stage
    /// pays the columnarization cost.
    pub fn fda_columns(&self) -> &JobDims {
        self.note(CtxIndex::Jobs);
        self.fda_dims
            .get_or_init(|| JobDims::from_jobs(self.jobs.jobs()))
    }

    /// The job at machine-wide termination rank `rank` (a position in
    /// [`JobLog::by_end_time`]). Rank order is end-time order, so a
    /// time-sorted event sweep can walk it with monotone cursors.
    pub(crate) fn job_by_end_rank(&self, rank: u32) -> Option<&'a JobRecord> {
        self.note(CtxIndex::Jobs);
        self.jobs
            .by_end_time()
            .get(rank as usize)
            .and_then(|&i| self.jobs.jobs().get(i as usize))
    }

    /// The observation window of the underlying RAS log, if known.
    pub fn span(&self) -> Option<(Timestamp, Timestamp)> {
        self.note(CtxIndex::Span);
        self.span
    }

    /// All jobs, sorted by start time.
    pub fn job_records(&self) -> &'a [JobRecord] {
        self.note(CtxIndex::Jobs);
        self.jobs.jobs()
    }

    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        self.note(CtxIndex::Jobs);
        self.jobs.len()
    }

    /// Look up a job by id — a binary search, unlike [`JobLog::by_job_id`]'s
    /// scan. A duplicated id resolves to its *last* row in
    /// [`AnalysisContext::job_records`], where `by_job_id` returns the first.
    /// Every stage resolves ids by this one rule.
    pub fn job(&self, job_id: u64) -> Option<&'a JobRecord> {
        let row = self.job_row(job_id)?;
        self.jobs.jobs().get(row as usize)
    }

    /// The row (in [`AnalysisContext::job_records`]) of `job_id` — the row
    /// [`AnalysisContext::job`] returns.
    pub fn job_row(&self, job_id: u64) -> Option<u32> {
        self.note(CtxIndex::Jobs);
        let end = self.job_index.partition_point(|&(id, _)| id <= job_id);
        let &(_, row) = self
            .job_index
            .get(end.checked_sub(1)?)
            .filter(|&&(id, _)| id == job_id)?;
        Some(row)
    }

    /// Per row of [`AnalysisContext::job_records`], the value `by_id` holds
    /// for the row's job id, or `None`.
    ///
    /// One merge of the map's ids (ascending by construction) against the
    /// job-id index marks *every* row that carries a listed id, duplicated
    /// ids included — what a per-row probe of the map would answer.
    pub fn row_marks<T: Copy>(&self, by_id: &BTreeMap<u64, T>) -> Vec<Option<T>> {
        self.note(CtxIndex::Jobs);
        let mut marks = vec![None; self.jobs.len()];
        let mut rest = self.job_index.as_slice();
        for (&job_id, &value) in by_id {
            rest = rest
                .get(rest.partition_point(|&(id, _)| id < job_id)..)
                .unwrap_or(&[]);
            let n = rest.partition_point(|&(id, _)| id == job_id);
            for &(_, row) in rest.get(..n).unwrap_or(&[]) {
                if let Some(mark) = marks.get_mut(row as usize) {
                    *mark = Some(value);
                }
            }
        }
        marks
    }

    /// Duration of the longest job in the log — the lookback bound for
    /// overlap scans on the start-sorted job table.
    pub(crate) fn max_job_duration(&self) -> Duration {
        self.note(CtxIndex::Jobs);
        self.jobs.max_duration()
    }

    /// Job-table rows grouped by executable, groups sorted by
    /// [`ExecId`](joblog::ExecId) and each group in submission (queue-time)
    /// order. Built on first call and kept for the context's lifetime.
    pub fn exec_groups(&self) -> &ExecGroups {
        self.note(CtxIndex::Jobs);
        self.exec_groups
            .get_or_init(|| ExecGroups::from_jobs(self.jobs.jobs()))
    }

    /// Busy seconds per midplane from the jobs of at least `min_midplanes`
    /// midplanes ([`JobLog::midplane_busy_series`]).
    pub fn midplane_busy_series(&self, min_midplanes: u32) -> Vec<i64> {
        self.note(CtxIndex::Jobs);
        self.jobs.midplane_busy_series(min_midplanes)
    }

    /// Number of distinct executables.
    pub fn distinct_execs(&self) -> usize {
        self.exec_groups().len()
    }

    /// Jobs running at instant `t` on midplane `m`.
    pub fn running_at(&self, m: MidplaneId, t: Timestamp) -> Vec<&'a JobRecord> {
        self.note(CtxIndex::Jobs);
        self.jobs.running_at(m, t)
    }

    /// Jobs on midplane `m` whose execution interval overlaps `[t0, t1)`.
    pub fn overlapping(&self, m: MidplaneId, t0: Timestamp, t1: Timestamp) -> Vec<&'a JobRecord> {
        self.note(CtxIndex::Jobs);
        self.jobs.overlapping(m, t0, t1)
    }

    /// Visit jobs on midplane `m` overlapping `[t0, t1)` without allocating
    /// (descending start-time order).
    pub(crate) fn for_each_overlapping<F: FnMut(&'a JobRecord)>(
        &self,
        m: MidplaneId,
        t0: Timestamp,
        t1: Timestamp,
        f: F,
    ) {
        self.note(CtxIndex::Jobs);
        self.jobs.for_each_overlapping(m, t0, t1, f);
    }

    /// Jobs anywhere on the machine with `t0 <= end_time < t1`.
    pub fn ended_in_window(&self, t0: Timestamp, t1: Timestamp) -> Vec<&'a JobRecord> {
        self.note(CtxIndex::Jobs);
        self.jobs.ended_in_window(t0, t1)
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
        assert_eq!(ctx.raw_events().len(), 3);
        let shards = ctx.code_shards();
        assert!(shards.windows(2).all(|w| w[0].0 < w[1].0));
        let total: usize = shards.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, ctx.raw_events().len());
        assert_eq!(ctx.span(), log.time_span());
    }

    #[test]
    fn job_lookup_matches_linear_scan() {
        let jobs = JobLog::from_jobs(vec![
            job(7, 1, 100, 500, "R00-M0"),
            job(3, 1, 600, 700, "R00-M1"),
            job(9, 2, 50, 5000, "R01-M0"),
        ]);
        let ctx = AnalysisContext::for_jobs(&jobs);
        for id in [3u64, 7, 9] {
            assert_eq!(
                ctx.job(id).map(|j| j.job_id),
                jobs.by_job_id(id).map(|j| j.job_id)
            );
        }
        assert!(ctx.job(42).is_none());
        assert_eq!(ctx.job_count(), 3);
        assert_eq!(ctx.job_records().len(), 3);
    }

    #[test]
    fn duplicate_job_ids_resolve_to_the_last_row() {
        // Job 5 appears twice, on different executables; job 8 twice with
        // the same executable and queue time. `ctx.job` answers with the
        // last row of the start-sorted table, `JobLog::by_job_id` with the
        // first.
        let jobs = JobLog::from_jobs(vec![
            job(5, 1, 100, 500, "R00-M0"),
            job(5, 2, 300, 900, "R00-M1"),
            job(8, 3, 400, 600, "R01-M0"),
            job(8, 3, 400, 700, "R01-M1"),
            job(6, 3, 400, 800, "R02-M0"),
        ]);
        let ctx = AnalysisContext::for_jobs(&jobs);
        let last = |id: u64| jobs.jobs().iter().rev().find(|j| j.job_id == id);
        assert_eq!(ctx.job(5).map(|j| j.exec), Some(ExecId(2)));
        assert_eq!(ctx.job(5), last(5));
        assert_eq!(jobs.by_job_id(5).map(|j| j.exec), Some(ExecId(1)));
        assert_eq!(ctx.job(8).map(|j| j.end_time.as_unix()), Some(700));
        assert_eq!(jobs.by_job_id(8).map(|j| j.end_time.as_unix()), Some(600));
        // Within a group, queue-time ties order by job id, and rows that
        // tie on both keep their table order.
        let groups: Vec<&[u32]> = ctx.exec_groups().iter().collect();
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
        let marks = ctx.row_marks(&BTreeMap::from([(8, 'b'), (5u64, 'a')]));
        let marked: Vec<(u64, char)> = jobs
            .jobs()
            .iter()
            .zip(&marks)
            .filter_map(|(j, m)| m.map(|m| (j.job_id, m)))
            .collect();
        assert_eq!(marked, vec![(5, 'a'), (5, 'a'), (8, 'b'), (8, 'b')]);
        let row_of_6 = jobs.jobs().iter().position(|j| j.job_id == 6);
        assert_eq!(ctx.job_row(5), Some(1));
        assert_eq!(ctx.job_row(6).map(|r| r as usize), row_of_6);
    }

    #[test]
    fn exec_groups_sorted_and_in_submission_order() {
        let jobs = JobLog::from_jobs(vec![
            job(1, 10, 100, 500, "R00-M0"),
            job(2, 10, 600, 700, "R00-M0"),
            job(3, 5, 200, 900, "R00-M1"),
        ]);
        let ctx = AnalysisContext::for_jobs(&jobs);
        let groups: Vec<Vec<(ExecId, u64)>> = ctx
            .exec_groups()
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&row| {
                        (
                            jobs.jobs()[row as usize].exec,
                            jobs.jobs()[row as usize].job_id,
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            groups,
            vec![vec![(ExecId(5), 3)], vec![(ExecId(10), 1), (ExecId(10), 2)]]
        );
        assert_eq!(ctx.distinct_execs(), 2);
        assert!(AnalysisContext::for_jobs(&JobLog::default())
            .exec_groups()
            .is_empty());
    }

    #[test]
    fn exec_groups_equal_a_stable_sort_of_the_records() {
        // Negative and tied queue times, duplicated ids, `u32::MAX` execs.
        let mut rows = Vec::new();
        for i in 0..60u64 {
            let mut j = job(
                i % 7,
                [0, 3, u32::MAX][i as usize % 3],
                10 * i as i64,
                900,
                "R00-M0",
            );
            j.queue_time = Timestamp::from_unix([-5, 0, 40][i as usize % 3] - (i % 2) as i64);
            rows.push(j);
        }
        let jobs = JobLog::from_jobs(rows);
        let mut want: Vec<u32> = (0..jobs.len() as u32).collect();
        want.sort_by_key(|&r| {
            let j = &jobs.jobs()[r as usize];
            (j.exec, j.queue_time, j.job_id)
        });
        let groups = ExecGroups::from_jobs(jobs.jobs());
        assert_eq!(groups.iter().flatten().copied().collect::<Vec<_>>(), want);
        assert_eq!(groups.len(), 3);
    }

    /// Build a store by appending `tail` onto `head` and assert every
    /// buffer is identical to indexing the concatenation in one shot.
    fn assert_append_equals_rebuild(head: Vec<RasRecord>, tail: Vec<RasRecord>) -> ContextDelta {
        let mut all = head.clone();
        all.extend(tail.iter().cloned());
        let oneshot = EventStore::from_ras(&RasLog::from_records(all));
        let mut delta_store = EventStore::from_ras(&RasLog::from_records(head));
        let delta = delta_store.append_ras(tail);
        assert_eq!(delta_store.raw_events, oneshot.raw_events);
        assert_eq!(delta_store.code_events, oneshot.code_events);
        assert_eq!(delta_store.code_slices, oneshot.code_slices);
        assert_eq!(delta_store.span, oneshot.span);
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
        assert_eq!(ctx.raw_events(), direct.raw_events());
        assert_eq!(ctx.code_shards(), direct.code_shards());
        assert_eq!(ctx.span(), direct.span());
        assert_eq!(ctx.job(7).map(|j| j.job_id), Some(7));
        let back = ctx.into_store();
        assert_eq!(back.raw_events, store.raw_events);
        assert_eq!(back.code_slices, store.code_slices);
    }

    #[test]
    fn occupancy_queries_delegate_to_the_job_log() {
        let jobs = JobLog::from_jobs(vec![job(1, 1, 100, 500, "R00-M0")]);
        let ctx = AnalysisContext::for_jobs(&jobs);
        let m0: MidplaneId = "R00-M0".parse().unwrap();
        assert_eq!(ctx.running_at(m0, Timestamp::from_unix(300)).len(), 1);
        assert_eq!(
            ctx.overlapping(m0, Timestamp::from_unix(0), Timestamp::from_unix(1000))
                .len(),
            1
        );
        assert_eq!(
            ctx.ended_in_window(Timestamp::from_unix(0), Timestamp::from_unix(1000))
                .len(),
            1
        );
    }
}
