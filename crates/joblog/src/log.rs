//! The indexed in-memory job log container.

use crate::record::JobRecord;
use bgp_model::intern::Interner;
use bgp_model::{topology, Duration, MidplaneId, Timestamp};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// An immutable job log indexed for co-analysis queries.
///
/// Jobs are stored sorted by `start_time`. The log owns every index over
/// that table:
///
/// * per-midplane posting lists (job indices sorted by start time), for
///   *occupancy* queries — which jobs ran at time t / window w on midplane m;
/// * an end-time-sorted permutation, for *termination* queries — which jobs
///   ended inside a window (the interruption-matching probe);
/// * a job-id index, for id lookups, where a duplicated id resolves to its
///   *last* row;
/// * the executable groups (the paper's "distinct job"), built on first
///   read ([`ExecGroups`]).
///
/// Occupancy lookups bound their scan with the maximum job duration, so a
/// query is `O(log n + jobs-in-(t − max_dur, t])` rather than `O(n)`.
#[derive(Debug, Clone)]
pub struct JobLog {
    jobs: Vec<JobRecord>,
    by_midplane: Vec<Vec<u32>>,
    by_end_time: Vec<u32>,
    /// `(job_id, row)` for every row, sorted, so a duplicated id's rows
    /// stay in table order.
    by_job_id: Vec<(u64, u32)>,
    max_duration: Duration,
    exec_groups: OnceLock<ExecGroups>,
}

impl Default for JobLog {
    /// An empty log with a fully-built (empty) midplane index.
    fn default() -> JobLog {
        JobLog::from_jobs(Vec::new())
    }
}

impl JobLog {
    /// Build from job records (any order; sorted internally).
    pub fn from_jobs(mut jobs: Vec<JobRecord>) -> JobLog {
        jobs.sort_by_key(|j| (j.start_time, j.job_id));
        let mut by_midplane = vec![Vec::new(); usize::from(topology::NUM_MIDPLANES)];
        let mut max_duration = Duration::ZERO;
        for (i, j) in jobs.iter().enumerate() {
            for m in j.partition.midplanes() {
                by_midplane[m.index()].push(i as u32);
            }
            max_duration = max_duration.max(j.runtime());
        }
        let mut by_end_time: Vec<u32> = (0..jobs.len() as u32).collect();
        by_end_time.sort_by_key(|&i| (jobs[i as usize].end_time, jobs[i as usize].job_id));
        // Rows are distinct, so the unstable sort of `(id, row)` pairs is
        // the stable sort by id.
        let mut by_job_id: Vec<(u64, u32)> = id_pairs(&jobs, 0);
        by_job_id.sort_unstable();
        JobLog {
            jobs,
            by_midplane,
            by_end_time,
            by_job_id,
            max_duration,
            exec_groups: OnceLock::new(),
        }
    }

    /// Merge `batch` rows (any order) into the log's sorted storage and
    /// indexes.
    ///
    /// Contract: the log afterwards equals [`JobLog::from_jobs`] over the
    /// concatenation of everything ever inserted — same record order, same
    /// posting lists, termination permutation, job-id index and executable
    /// groups. Day-over-day appends (every new row starts at or after the
    /// current tail) extend the indexes in place; anything else falls back
    /// to a full rebuild. The return value reports which path ran (`true` =
    /// in-place).
    pub fn append(&mut self, mut batch: Vec<JobRecord>) -> bool {
        if batch.is_empty() {
            return true;
        }
        batch.sort_by_key(|j| (j.start_time, j.job_id));
        let tail = match (self.jobs.last(), batch.first()) {
            (Some(last), Some(first)) => {
                (first.start_time, first.job_id) >= (last.start_time, last.job_id)
            }
            _ => true,
        };
        if !tail {
            let mut all = std::mem::take(&mut self.jobs);
            all.extend(batch);
            *self = JobLog::from_jobs(all);
            return false;
        }
        // In-place tail extension. New indices are all larger than old
        // ones, so pushing them at the end of each posting list and
        // merging the termination permutation and the job-id index
        // base-first reproduces what the sorts in `from_jobs` would have
        // built.
        let base = self.jobs.len() as u32;
        let mut new_end: Vec<u32> = (0..batch.len() as u32).map(|k| base + k).collect();
        new_end.sort_by_key(|&i| {
            batch
                .get((i - base) as usize)
                .map(|j| (j.end_time, j.job_id))
        });
        let mut new_ids = id_pairs(&batch, base);
        new_ids.sort_unstable();
        for (k, j) in batch.iter().enumerate() {
            for m in j.partition.midplanes() {
                if let Some(p) = self.by_midplane.get_mut(m.index()) {
                    p.push(base + k as u32);
                }
            }
            self.max_duration = self.max_duration.max(j.runtime());
        }
        self.jobs.extend(batch);
        let jobs = &self.jobs;
        let end_key = |i: &u32| jobs.get(*i as usize).map(|j| (j.end_time, j.job_id));
        self.by_end_time = merge_by_key(&self.by_end_time, &new_end, end_key);
        self.by_job_id = merge_by_key(&self.by_job_id, &new_ids, |&pair| pair);
        self.exec_groups = OnceLock::new();
        true
    }

    /// All jobs, sorted by start time.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// The machine-wide termination order: indices into [`JobLog::jobs`]
    /// sorted by `(end_time, job_id)`. A position in this permutation is a
    /// job's termination *rank*; [`JobLog::append`] keeps it current.
    pub fn by_end_time(&self) -> &[u32] {
        &self.by_end_time
    }

    /// The job at machine-wide termination rank `rank` (a position in
    /// [`JobLog::by_end_time`]). Rank order is end-time order, so a
    /// time-sorted event sweep can walk it with monotone cursors.
    pub fn job_by_end_rank(&self, rank: u32) -> Option<&JobRecord> {
        self.by_end_time
            .get(rank as usize)
            .and_then(|&i| self.jobs.get(i as usize))
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The longest runtime in the log.
    pub fn max_duration(&self) -> Duration {
        self.max_duration
    }

    /// Per-midplane posting list: indices into [`JobLog::jobs`] of the jobs
    /// whose partition covers `m`, in `(start_time, job_id)` order. This is
    /// the raw occupancy index behind [`JobLog::overlapping`]; sweeps that
    /// maintain their own incremental active set walk it directly.
    pub fn midplane_postings(&self, m: MidplaneId) -> &[u32] {
        self.by_midplane.get(m.index()).map_or(&[], Vec::as_slice)
    }

    /// Jobs running at instant `t` on midplane `m`.
    pub fn running_at(&self, m: MidplaneId, t: Timestamp) -> Vec<&JobRecord> {
        self.overlapping(m, t, t + Duration::seconds(1))
    }

    /// Jobs on midplane `m` whose execution interval overlaps `[t0, t1)`.
    pub fn overlapping(&self, m: MidplaneId, t0: Timestamp, t1: Timestamp) -> Vec<&JobRecord> {
        let mut out = Vec::new();
        self.for_each_overlapping(m, t0, t1, |j| out.push(j));
        out.reverse();
        out
    }

    /// Visit jobs on midplane `m` overlapping `[t0, t1)` without allocating,
    /// in *descending* start-time order (the index scan order). Hot loops
    /// (the matching sweep's occupancy count, the root-cause rule-2 probe)
    /// use this to avoid building a `Vec` per query; for early exits, note
    /// every overlapping job is visited — collect-then-test instead when
    /// only existence matters and the window is wide.
    pub fn for_each_overlapping<'a, F: FnMut(&'a JobRecord)>(
        &'a self,
        m: MidplaneId,
        t0: Timestamp,
        t1: Timestamp,
        mut f: F,
    ) {
        let Some(posting) = self.by_midplane.get(m.index()) else {
            return;
        };
        // Candidates must have start < t1 and start > t0 − max_duration.
        let hi = posting
            .partition_point(|&i| self.jobs.get(i as usize).is_some_and(|j| j.start_time < t1));
        let cutoff = t0 - self.max_duration;
        for &i in posting.get(..hi).unwrap_or(&[]).iter().rev() {
            let Some(j) = self.jobs.get(i as usize) else {
                continue;
            };
            if j.start_time < cutoff {
                break;
            }
            if j.overlaps(t0, t1) {
                f(j);
            }
        }
    }

    /// Jobs (anywhere on the machine) with `t0 <= end_time < t1`, in end-time
    /// order.
    pub fn ended_in_window(&self, t0: Timestamp, t1: Timestamp) -> Vec<&JobRecord> {
        let lo = self
            .by_end_time
            .partition_point(|&i| self.jobs[i as usize].end_time < t0);
        let hi = self
            .by_end_time
            .partition_point(|&i| self.jobs[i as usize].end_time < t1);
        self.by_end_time[lo..hi]
            .iter()
            .map(|&i| &self.jobs[i as usize])
            .collect()
    }

    /// Job rows grouped by executable, groups sorted by
    /// [`ExecId`](crate::ExecId) and each group in submission (queue-time)
    /// order. Built on first call; [`JobLog::append`] drops it.
    pub fn exec_groups(&self) -> &ExecGroups {
        self.exec_groups
            .get_or_init(|| ExecGroups::from_jobs(&self.jobs))
    }

    /// Number of distinct executables.
    pub fn distinct_execs(&self) -> usize {
        self.exec_groups().len()
    }

    /// Busy seconds per midplane (indexed by [`MidplaneId::index`]) from the
    /// jobs of at least `min_midplanes` midplanes: one pass over the table,
    /// each job's runtime going to every midplane of its partition. At `0`
    /// it is the "workload" series of Figure 4b, at the wide-job threshold
    /// the "wide-job workload" series of Figure 4c.
    pub fn midplane_busy_series(&self, min_midplanes: u32) -> Vec<i64> {
        let mut busy = vec![0i64; usize::from(topology::NUM_MIDPLANES)];
        for j in self.jobs.iter() {
            if j.size_midplanes() >= min_midplanes {
                let secs = j.runtime().as_secs();
                for m in j.partition.midplanes() {
                    busy[m.index()] += secs;
                }
            }
        }
        busy
    }

    /// A new log with only the jobs satisfying `pred`.
    pub fn filtered<F: FnMut(&JobRecord) -> bool>(&self, mut pred: F) -> JobLog {
        JobLog::from_jobs(self.jobs.iter().filter(|j| pred(j)).copied().collect())
    }

    /// Look up a job by id — a binary search of the job-id index. A
    /// duplicated id resolves to its *last* row in [`JobLog::jobs`]; every
    /// id lookup in the workspace goes through this one rule.
    pub fn job(&self, job_id: u64) -> Option<&JobRecord> {
        self.jobs.get(self.job_row(job_id)? as usize)
    }

    /// The row (in [`JobLog::jobs`]) of `job_id` — the row [`JobLog::job`]
    /// returns.
    pub fn job_row(&self, job_id: u64) -> Option<u32> {
        let end = self.by_job_id.partition_point(|&(id, _)| id <= job_id);
        let &(_, row) = self
            .by_job_id
            .get(end.checked_sub(1)?)
            .filter(|&&(id, _)| id == job_id)?;
        Some(row)
    }

    /// Per row of [`JobLog::jobs`], the value `by_id` holds for the row's
    /// job id, or `None`.
    ///
    /// One merge of the map's ids (ascending by construction) against the
    /// job-id index marks *every* row that carries a listed id, duplicated
    /// ids included — what a per-row probe of the map would answer.
    pub fn row_marks<T: Copy>(&self, by_id: &BTreeMap<u64, T>) -> Vec<Option<T>> {
        let mut marks = vec![None; self.jobs.len()];
        let mut rest = self.by_job_id.as_slice();
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
}

/// `(job_id, row)` for each of `jobs`, rows numbered from `base`.
fn id_pairs(jobs: &[JobRecord], base: u32) -> Vec<(u64, u32)> {
    jobs.iter()
        .zip(base..)
        .map(|(j, row)| (j.job_id, row))
        .collect()
}

/// Merge two lists each sorted by `key`, `old` first on ties — what a
/// stable sort of `old` followed by `new` gives.
fn merge_by_key<T: Copy, K: Ord>(old: &[T], new: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut merged = Vec::with_capacity(old.len() + new.len());
    let (mut a, mut b) = (0usize, 0usize);
    while let (Some(o), Some(n)) = (old.get(a), new.get(b)) {
        if key(n) < key(o) {
            merged.push(*n);
            b += 1;
        } else {
            merged.push(*o);
            a += 1;
        }
    }
    merged.extend_from_slice(old.get(a..).unwrap_or(&[]));
    merged.extend_from_slice(new.get(b..).unwrap_or(&[]));
    merged
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
    fn from_jobs(jobs: &[JobRecord]) -> ExecGroups {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ExecId, ExitStatus, ProjectId, UserId};

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

    fn sample() -> JobLog {
        JobLog::from_jobs(vec![
            job(1, 10, 100, 500, "R00-M0"),
            job(2, 10, 600, 700, "R00-M0"),
            job(3, 11, 200, 900, "R00-M1"),
            job(4, 12, 50, 5000, "R10-R11"),
        ])
    }

    #[test]
    fn occupancy_queries() {
        let log = sample();
        let m0: MidplaneId = "R00-M0".parse().unwrap();
        let hits = log.running_at(m0, Timestamp::from_unix(300));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].job_id, 1);
        // Instant between jobs 1 and 2.
        assert!(log.running_at(m0, Timestamp::from_unix(550)).is_empty());
        // End-exclusive.
        assert!(log.running_at(m0, Timestamp::from_unix(500)).is_empty());
        // Window overlapping both.
        let hits = log.overlapping(m0, Timestamp::from_unix(400), Timestamp::from_unix(650));
        assert_eq!(
            hits.iter().map(|j| j.job_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // The wide job occupies R10..R11 midplanes.
        let m20: MidplaneId = "R10-M0".parse().unwrap();
        assert_eq!(log.running_at(m20, Timestamp::from_unix(1000)).len(), 1);
    }

    #[test]
    fn termination_queries() {
        let log = sample();
        let ended = log.ended_in_window(Timestamp::from_unix(500), Timestamp::from_unix(901));
        assert_eq!(
            ended.iter().map(|j| j.job_id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(log
            .ended_in_window(Timestamp::from_unix(0), Timestamp::from_unix(100))
            .is_empty());
    }

    #[test]
    fn exec_grouping() {
        let log = sample();
        let groups: Vec<Vec<(ExecId, u64)>> = log
            .exec_groups()
            .iter()
            .map(|g| {
                g.iter()
                    .map(|&row| (log.jobs[row as usize].exec, log.jobs[row as usize].job_id))
                    .collect()
            })
            .collect();
        // Groups in executable order, each in submission order.
        assert_eq!(
            groups,
            vec![
                vec![(ExecId(10), 1), (ExecId(10), 2)],
                vec![(ExecId(11), 3)],
                vec![(ExecId(12), 4)],
            ]
        );
        assert_eq!(log.distinct_execs(), 3);
        assert!(JobLog::default().exec_groups().is_empty());
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
        let log = JobLog::from_jobs(rows);
        let mut want: Vec<u32> = (0..log.len() as u32).collect();
        want.sort_by_key(|&r| {
            let j = &log.jobs[r as usize];
            (j.exec, j.queue_time, j.job_id)
        });
        let groups = log.exec_groups();
        assert_eq!(groups.iter().flatten().copied().collect::<Vec<_>>(), want);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn busy_seconds() {
        let log = sample();
        let m0: MidplaneId = "R00-M0".parse().unwrap();
        let m20: MidplaneId = "R10-M0".parse().unwrap();
        let all = log.midplane_busy_series(0);
        assert_eq!(all[m0.index()], 400 + 100);
        assert_eq!(all[m20.index()], 4950);
        // Only the 4-midplane job counts at min size 4.
        let wide = log.midplane_busy_series(4);
        assert_eq!(wide[m20.index()], 4950);
        assert_eq!(wide[m0.index()], 0);
        // Every midplane's sum equals its postings' runtimes.
        for (m, postings) in log.by_midplane.iter().enumerate() {
            let secs = |min: u32| -> i64 {
                postings
                    .iter()
                    .map(|&i| &log.jobs[i as usize])
                    .filter(|j| j.size_midplanes() >= min)
                    .map(|j| j.runtime().as_secs())
                    .sum()
            };
            assert_eq!((all[m], wide[m]), (secs(0), secs(4)));
        }
    }

    #[test]
    fn midplane_postings_are_start_sorted() {
        let log = sample();
        let m0: MidplaneId = "R00-M0".parse().unwrap();
        let posting = log.midplane_postings(m0);
        assert_eq!(posting.len(), 2);
        let starts: Vec<_> = posting
            .iter()
            .map(|&i| log.jobs()[i as usize].start_time)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        let m_empty: MidplaneId = "R40-M1".parse().unwrap();
        assert!(log.midplane_postings(m_empty).is_empty());
    }

    #[test]
    fn filtering_and_lookup() {
        let log = sample();
        assert_eq!(log.filtered(|j| j.exec == ExecId(10)).len(), 2);
        assert_eq!(log.job(3).unwrap().exec, ExecId(11));
        assert!(log.job(99).is_none());
        assert!(log.job_row(0).is_none());
        // A duplicated id resolves to its last row, in lookup and row alike.
        let dup = JobLog::from_jobs(vec![
            job(5, 1, 100, 500, "R00-M0"),
            job(5, 2, 300, 900, "R00-M1"),
            job(6, 3, 200, 800, "R01-M0"),
        ]);
        assert_eq!(dup.job(5).map(|j| j.exec), Some(ExecId(2)));
        assert_eq!(dup.job_row(5), Some(2));
        assert_eq!(dup.job_row(6), Some(1));
        assert_eq!(
            dup.row_marks(&BTreeMap::from([(5u64, 'a')])),
            vec![Some('a'), None, Some('a')]
        );
        assert_eq!(log.max_duration(), Duration::seconds(4950));
        assert!(!log.is_empty());
        assert!(JobLog::default().is_empty());
    }

    /// Every index of `a` equals `b` (the append-vs-rebuild oracle).
    fn assert_logs_identical(a: &JobLog, b: &JobLog) {
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.by_midplane, b.by_midplane);
        assert_eq!(a.by_end_time, b.by_end_time);
        assert_eq!(a.by_job_id, b.by_job_id);
        assert_eq!(a.max_duration, b.max_duration);
        assert_eq!(a.exec_groups(), b.exec_groups());
    }

    #[test]
    fn append_tail_batch_is_in_place_and_matches_rebuild() {
        let head = vec![
            job(1, 10, 100, 500, "R00-M0"),
            job(2, 10, 600, 700, "R00-M0"),
        ];
        let tail = vec![
            job(4, 12, 900, 950, "R00-M0"),
            job(3, 11, 800, 5000, "R00-M1"),
        ];
        let mut log = JobLog::from_jobs(head.clone());
        // Groups read before the append must not survive it.
        assert_eq!(log.distinct_execs(), 1);
        assert!(log.append(tail.clone()));
        let mut all = head;
        all.extend(tail);
        assert_logs_identical(&log, &JobLog::from_jobs(all));
        assert_eq!(log.max_duration(), Duration::seconds(4200));
    }

    #[test]
    fn append_out_of_order_batch_rebuilds_and_matches() {
        let head = vec![job(1, 10, 500, 900, "R00-M0")];
        // Starts before the tail → must take (and report) the rebuild path.
        let tail = vec![job(2, 11, 100, 200, "R00-M1")];
        let mut log = JobLog::from_jobs(head.clone());
        assert!(!log.append(tail.clone()));
        let mut all = head;
        all.extend(tail);
        assert_logs_identical(&log, &JobLog::from_jobs(all));
    }

    #[test]
    fn append_empty_and_onto_empty() {
        let mut log = JobLog::default();
        assert!(log.append(Vec::new()));
        assert!(log.is_empty());
        assert!(log.append(vec![job(1, 1, 100, 200, "R00-M0")]));
        assert_logs_identical(
            &log,
            &JobLog::from_jobs(vec![job(1, 1, 100, 200, "R00-M0")]),
        );
    }

    proptest::proptest! {
        /// Appending any suffix of a random job stream must leave every
        /// index byte-identical to rebuilding from the whole stream —
        /// including duplicate ids, shared timestamps, and batches that
        /// land before the base's tail.
        #[test]
        fn append_matches_rebuild_at_any_split(
            jobs_spec in proptest::collection::vec(
                (0u8..10, 1i64..50_000, 1i64..30_000, 0u64..12), 1..40),
            split_frac in 0usize..41,
        ) {
            let all: Vec<JobRecord> = jobs_spec
                .iter()
                .map(|&(mp, start, run, id)| JobRecord {
                    job_id: id,
                    exec: crate::record::ExecId(id as u32 % 5),
                    user: crate::record::UserId(0),
                    project: crate::record::ProjectId(0),
                    queue_time: Timestamp::from_unix(start - 1),
                    start_time: Timestamp::from_unix(start),
                    end_time: Timestamp::from_unix(start + run),
                    partition: bgp_model::Partition::contiguous(mp, 2).unwrap(),
                    exit: crate::record::ExitStatus::Completed,
                })
                .collect();
            let split = split_frac.min(all.len());
            let head = all.get(..split).unwrap_or(&[]).to_vec();
            let tail = all.get(split..).unwrap_or(&[]).to_vec();
            let mut log = JobLog::from_jobs(head);
            log.exec_groups();
            log.append(tail);
            let rebuilt = JobLog::from_jobs(all);
            proptest::prop_assert_eq!(&log.jobs, &rebuilt.jobs);
            proptest::prop_assert_eq!(&log.by_midplane, &rebuilt.by_midplane);
            proptest::prop_assert_eq!(&log.by_end_time, &rebuilt.by_end_time);
            proptest::prop_assert_eq!(&log.by_job_id, &rebuilt.by_job_id);
            proptest::prop_assert_eq!(log.max_duration, rebuilt.max_duration);
            proptest::prop_assert_eq!(log.exec_groups(), rebuilt.exec_groups());
        }

        /// The interval index must agree exactly with a brute-force scan.
        #[test]
        fn overlapping_matches_brute_force(
            jobs_spec in proptest::collection::vec(
                (0u8..10, 1i64..50_000, 1i64..30_000), 1..40),
            probe_mp in 0u8..10,
            t0 in 0i64..80_000,
            len in 1i64..20_000,
        ) {
            let jobs_vec: Vec<JobRecord> = jobs_spec
                .iter()
                .enumerate()
                .map(|(i, &(mp, start, run))| JobRecord {
                    job_id: i as u64,
                    exec: crate::record::ExecId(i as u32),
                    user: crate::record::UserId(0),
                    project: crate::record::ProjectId(0),
                    queue_time: Timestamp::from_unix(start - 1),
                    start_time: Timestamp::from_unix(start),
                    end_time: Timestamp::from_unix(start + run),
                    partition: bgp_model::Partition::contiguous(mp, 2).unwrap(),
                    exit: crate::record::ExitStatus::Completed,
                })
                .collect();
            let log = JobLog::from_jobs(jobs_vec.clone());
            let m = bgp_model::MidplaneId::from_index(probe_mp).unwrap();
            let (a, b) = (Timestamp::from_unix(t0), Timestamp::from_unix(t0 + len));
            let mut fast: Vec<u64> =
                log.overlapping(m, a, b).iter().map(|j| j.job_id).collect();
            fast.sort_unstable();
            let mut brute: Vec<u64> = jobs_vec
                .iter()
                .filter(|j| j.partition.contains(m) && j.overlaps(a, b))
                .map(|j| j.job_id)
                .collect();
            brute.sort_unstable();
            proptest::prop_assert_eq!(fast, brute);
        }
    }

    #[test]
    fn overlap_scan_bounded_by_max_duration() {
        // A long job far in the past must still be found (the cutoff uses
        // max_duration), and short stale jobs must not be.
        let log = JobLog::from_jobs(vec![
            job(1, 1, 0, 1_000_000, "R00-M0"),
            job(2, 2, 10, 20, "R00-M0"),
        ]);
        let m0: MidplaneId = "R00-M0".parse().unwrap();
        let hits = log.running_at(m0, Timestamp::from_unix(500_000));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].job_id, 1);
    }
}
