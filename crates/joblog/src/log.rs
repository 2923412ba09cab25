//! The indexed in-memory job log container.

use crate::record::{ExecId, JobRecord};
use bgp_model::{topology, Duration, MidplaneId, Timestamp};
use std::collections::HashMap;

/// An immutable job log indexed for co-analysis queries.
///
/// Jobs are stored sorted by `start_time`. Two indices are maintained:
///
/// * per-midplane posting lists (job indices sorted by start time), for
///   *occupancy* queries — which jobs ran at time t / window w on midplane m;
/// * an end-time-sorted permutation, for *termination* queries — which jobs
///   ended inside a window (the interruption-matching probe).
///
/// Occupancy lookups bound their scan with the maximum job duration, so a
/// query is `O(log n + jobs-in-(t − max_dur, t])` rather than `O(n)`.
#[derive(Debug, Clone)]
pub struct JobLog {
    jobs: Vec<JobRecord>,
    by_midplane: Vec<Vec<u32>>,
    by_end_time: Vec<u32>,
    max_duration: Duration,
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
        JobLog {
            jobs,
            by_midplane,
            by_end_time,
            max_duration,
        }
    }

    /// Merge `batch` rows (any order) into the log's sorted storage and
    /// indexes.
    ///
    /// Contract: the log afterwards equals [`JobLog::from_jobs`] over the
    /// concatenation of everything ever inserted — same record order, same
    /// posting lists, same termination permutation. Day-over-day appends
    /// (every new row starts at or after the current tail) extend the
    /// indexes in place; anything else falls back to a full rebuild. The
    /// return value reports which path ran (`true` = in-place).
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
        // merging the termination permutation base-first reproduces what
        // the stable sorts in `from_jobs` would have built.
        let base = self.jobs.len() as u32;
        let mut new_end: Vec<u32> = (0..batch.len() as u32).map(|k| base + k).collect();
        new_end.sort_by_key(|&i| {
            batch
                .get((i - base) as usize)
                .map(|j| (j.end_time, j.job_id))
        });
        for (k, j) in batch.iter().enumerate() {
            for m in j.partition.midplanes() {
                if let Some(p) = self.by_midplane.get_mut(m.index()) {
                    p.push(base + k as u32);
                }
            }
            self.max_duration = self.max_duration.max(j.runtime());
        }
        self.jobs.extend(batch);
        let old_end = std::mem::take(&mut self.by_end_time);
        let mut merged = Vec::with_capacity(old_end.len() + new_end.len());
        let key = |i: u32| self.jobs.get(i as usize).map(|j| (j.end_time, j.job_id));
        let (mut a, mut b) = (0usize, 0usize);
        while a < old_end.len() && b < new_end.len() {
            let (Some(&oi), Some(&ni)) = (old_end.get(a), new_end.get(b)) else {
                break;
            };
            if key(ni) < key(oi) {
                merged.push(ni);
                b += 1;
            } else {
                merged.push(oi);
                a += 1;
            }
        }
        merged.extend_from_slice(old_end.get(a..).unwrap_or(&[]));
        merged.extend_from_slice(new_end.get(b..).unwrap_or(&[]));
        self.by_end_time = merged;
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

    /// Group job indices by executable, each group in submission
    /// (queue-time) order. This is the paper's "distinct job" notion.
    pub fn by_exec(&self) -> HashMap<ExecId, Vec<&JobRecord>> {
        let mut out: HashMap<ExecId, Vec<&JobRecord>> = HashMap::new();
        for j in &self.jobs {
            out.entry(j.exec).or_default().push(j);
        }
        for group in out.values_mut() {
            group.sort_by_key(|j| (j.queue_time, j.job_id));
        }
        out
    }

    /// Number of distinct executables.
    pub fn distinct_execs(&self) -> usize {
        let mut execs: Vec<ExecId> = self.jobs.iter().map(|j| j.exec).collect();
        execs.sort_unstable();
        execs.dedup();
        execs.len()
    }

    /// Number of executables submitted more than once.
    pub fn resubmitted_execs(&self) -> usize {
        self.by_exec().values().filter(|g| g.len() > 1).count()
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

    /// Look up a job by id: the first row carrying it (linear scan; not on
    /// any hot path). The co-analysis resolves ids through its context's
    /// job-id index instead, where a duplicated id means its *last* row.
    pub fn by_job_id(&self, job_id: u64) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.job_id == job_id)
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
        let groups = log.by_exec();
        assert_eq!(groups[&ExecId(10)].len(), 2);
        // Submission order within the group.
        assert_eq!(groups[&ExecId(10)][0].job_id, 1);
        assert_eq!(log.distinct_execs(), 3);
        assert_eq!(log.resubmitted_execs(), 1);
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
        assert_eq!(log.by_job_id(3).unwrap().exec, ExecId(11));
        assert!(log.by_job_id(99).is_none());
        assert_eq!(log.max_duration(), Duration::seconds(4950));
        assert!(!log.is_empty());
        assert!(JobLog::default().is_empty());
    }

    /// Every index of `a` equals `b` (the append-vs-rebuild oracle).
    fn assert_logs_identical(a: &JobLog, b: &JobLog) {
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.by_midplane, b.by_midplane);
        assert_eq!(a.by_end_time, b.by_end_time);
        assert_eq!(a.max_duration, b.max_duration);
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
                .enumerate()
                .map(|(i, &(mp, start, run, id))| JobRecord {
                    job_id: id,
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
            let split = split_frac.min(all.len());
            let head = all.get(..split).unwrap_or(&[]).to_vec();
            let tail = all.get(split..).unwrap_or(&[]).to_vec();
            let mut log = JobLog::from_jobs(head);
            log.append(tail);
            let rebuilt = JobLog::from_jobs(all);
            proptest::prop_assert_eq!(&log.jobs, &rebuilt.jobs);
            proptest::prop_assert_eq!(&log.by_midplane, &rebuilt.by_midplane);
            proptest::prop_assert_eq!(&log.by_end_time, &rebuilt.by_end_time);
            proptest::prop_assert_eq!(log.max_duration, rebuilt.max_duration);
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
