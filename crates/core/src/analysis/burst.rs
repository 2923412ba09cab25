//! Burstiness of job interruptions (Section VI-A: Figure 5,
//! Observation 6).

use bgp_model::{Duration, Timestamp};
use joblog::JobLog;
use joblog::JobRecord;
use std::collections::BTreeMap;

/// Burst statistics over the interrupted-job population.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstAnalysis {
    /// Interruptions per day over the study window (Figure 5's series),
    /// indexed by day offset from the window start.
    pub per_day: Vec<u32>,
    /// Interrupted jobs as a fraction of all jobs (paper: 0.45 %).
    pub interrupted_job_fraction: f64,
    /// Interrupted distinct executables as a fraction of all distinct
    /// executables (paper: 1.73 %).
    pub interrupted_exec_fraction: f64,
    /// Number of interruptions that hit the same executable within
    /// `quick_window` of its previous interruption (paper: 33 within
    /// 1,000 s).
    pub quick_reinterruptions: usize,
    /// The window used for `quick_reinterruptions`.
    pub quick_window_secs: i64,
    /// The longest run of consecutive interruptions of one executable.
    pub max_consecutive_one_exec: usize,
}

impl BurstAnalysis {
    /// Analyze the interrupted jobs (`victims`, resolved job records)
    /// against the indexed job log and window (the `Burst` stage).
    pub fn new(
        victims: &[&JobRecord],
        jobs: &JobLog,
        window: (Timestamp, Timestamp),
        quick_window: Duration,
    ) -> BurstAnalysis {
        let days = ((window.1 - window.0).as_secs() / 86_400).max(1) as usize;
        let mut per_day = vec![0u32; days];
        for j in victims {
            let d = j.end_time.days_since(window.0);
            if (0..days as i64).contains(&d) {
                per_day[d as usize] += 1;
            }
        }

        // Group interruptions per executable, in time order.
        let mut per_exec: BTreeMap<joblog::ExecId, Vec<Timestamp>> = BTreeMap::new();
        for j in victims {
            per_exec.entry(j.exec).or_default().push(j.end_time);
        }
        let mut quick = 0usize;
        for times in per_exec.values_mut() {
            times.sort();
            quick += times
                .windows(2)
                .filter(|w| w[1] - w[0] <= quick_window)
                .count();
        }

        // Longest consecutive-interruption run per executable: consecutive
        // submissions of the executable that all got interrupted. Every row
        // carrying a victim's id counts as interrupted.
        let interrupted_ids: BTreeMap<u64, ()> = victims.iter().map(|j| (j.job_id, ())).collect();
        let interrupted = jobs.row_marks(&interrupted_ids);
        let mut max_run = 0usize;
        for group in jobs.exec_groups().iter() {
            let mut run = 0usize;
            for &row in group {
                if interrupted.get(row as usize).is_some_and(Option::is_some) {
                    run += 1;
                    max_run = max_run.max(run);
                } else {
                    run = 0;
                }
            }
        }

        let interrupted_execs = per_exec.len();
        BurstAnalysis {
            per_day,
            interrupted_job_fraction: if jobs.is_empty() {
                0.0
            } else {
                victims.len() as f64 / jobs.len() as f64
            },
            interrupted_exec_fraction: if jobs.distinct_execs() == 0 {
                0.0
            } else {
                interrupted_execs as f64 / jobs.distinct_execs() as f64
            },
            quick_reinterruptions: quick,
            quick_window_secs: quick_window.as_secs(),
            max_consecutive_one_exec: max_run,
        }
    }

    /// A burstiness index: the fraction of interruption-days among days with
    /// ≥ 1 interruption that have ≥ 3 — rare-but-bursty shows up as a
    /// non-trivial value here while the mean per-day count stays low.
    pub fn burst_day_fraction(&self) -> f64 {
        let active: Vec<u32> = self.per_day.iter().copied().filter(|&c| c > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().filter(|&&c| c >= 3).count() as f64 / active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joblog::{ExecId, ExitStatus, JobLog, ProjectId, UserId};

    fn job(job_id: u64, exec: u32, end: i64) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(end - 100),
            start_time: Timestamp::from_unix(end - 90),
            end_time: Timestamp::from_unix(end),
            partition: "R00-M0".parse().unwrap(),
            exit: ExitStatus::Failed(1),
        }
    }

    #[test]
    fn per_day_and_fractions() {
        let all: Vec<JobRecord> = (0..10)
            .map(|i| job(i, i as u32, 1_000 + i as i64))
            .collect();
        let log = JobLog::from_jobs(all);
        let victims: Vec<&JobRecord> = log.jobs().iter().take(2).collect();
        let b = BurstAnalysis::new(
            &victims,
            &log,
            (Timestamp::from_unix(0), Timestamp::from_unix(3 * 86_400)),
            Duration::seconds(1_000),
        );
        assert_eq!(b.per_day.len(), 3);
        assert_eq!(b.per_day[0], 2);
        assert!((b.interrupted_job_fraction - 0.2).abs() < 1e-12);
        assert!((b.interrupted_exec_fraction - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quick_reinterruptions_and_runs() {
        // Exec 5 interrupted three times in a row, 400 s apart.
        let mut all = vec![
            job(1, 5, 1_000),
            job(2, 5, 1_400),
            job(3, 5, 1_800),
            job(4, 5, 90_000), // later, clean
            job(5, 6, 50_000),
        ];
        all[3].exit = ExitStatus::Completed;
        let log = JobLog::from_jobs(all);
        let victims: Vec<&JobRecord> = log
            .jobs()
            .iter()
            .filter(|j| matches!(j.exit, ExitStatus::Failed(_)))
            .collect();
        let b = BurstAnalysis::new(
            &victims,
            &log,
            (Timestamp::from_unix(0), Timestamp::from_unix(2 * 86_400)),
            Duration::seconds(1_000),
        );
        assert_eq!(b.quick_reinterruptions, 2);
        assert_eq!(b.max_consecutive_one_exec, 3);
    }

    #[test]
    fn burst_day_fraction_detects_bursts() {
        let b = BurstAnalysis {
            per_day: vec![0, 5, 0, 0, 1, 0, 4],
            interrupted_job_fraction: 0.0,
            interrupted_exec_fraction: 0.0,
            quick_reinterruptions: 0,
            quick_window_secs: 1_000,
            max_consecutive_one_exec: 0,
        };
        assert!((b.burst_day_fraction() - 2.0 / 3.0).abs() < 1e-12);
        let empty = BurstAnalysis {
            per_day: vec![0, 0],
            ..b
        };
        assert_eq!(empty.burst_day_fraction(), 0.0);
    }
}
