//! Job-interruption rates by cause (Section VI-B: Table V, Figure 6,
//! Observation 7).

use crate::classify::root_cause::{RootCause, RootCauseSummary};
use crate::event::Event;
use crate::matching::Matching;
use bgp_stats::{compare_models, Ecdf, FitComparison, StatsError};
use joblog::JobLog;

/// Interarrival fits of job interruptions, split by root cause.
#[derive(Debug, Clone, PartialEq)]
pub struct InterruptionStats {
    /// Interruptions attributed to system failures.
    pub system: CauseStats,
    /// Interruptions attributed to application errors.
    pub application: CauseStats,
}

/// One cause category's interruption statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseStats {
    /// Number of interruptions.
    pub count: usize,
    /// Interruption interarrival sample (seconds).
    pub interarrivals: Vec<f64>,
    /// Model fits (Weibull vs. exponential + LRT), when the sample is big
    /// enough.
    pub fits: Option<FitComparison>,
}

impl CauseStats {
    fn from_times(mut times: Vec<i64>) -> CauseStats {
        times.sort_unstable();
        let interarrivals: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .filter(|&dt| dt > 0.0)
            .collect();
        let fits = compare_models(&interarrivals).ok();
        CauseStats {
            count: times.len(),
            interarrivals,
            fits,
        }
    }

    /// Mean time to interruption from the Weibull fit (Table V "Mean").
    pub fn mtti(&self) -> Option<f64> {
        self.fits.as_ref().map(|f| f.weibull.mean())
    }

    /// Figure 6 series: `(x, empirical, weibull, exponential)`.
    pub fn cdf_series(&self, points: usize) -> Result<Vec<(f64, f64, f64, f64)>, StatsError> {
        let fits = self.fits.as_ref().ok_or(StatsError::NotEnoughData {
            needed: 2,
            got: self.interarrivals.len(),
        })?;
        let ecdf = Ecdf::new(&self.interarrivals)?;
        Ok(ecdf
            .log_spaced(points)?
            .into_iter()
            .map(|(x, emp)| (x, emp, fits.weibull.cdf(x), fits.exponential.cdf(x)))
            .collect())
    }
}

impl InterruptionStats {
    /// Split interruptions by the root cause of their events and fit each
    /// stream (the `Interruption` stage).
    pub fn new(
        events: &[Event],
        matching: &Matching,
        root_cause: &RootCauseSummary,
        jobs: &JobLog,
    ) -> InterruptionStats {
        let mut sys_times = Vec::new();
        let mut app_times = Vec::new();
        for (&job_id, &event_idx) in &matching.job_to_event {
            let Some(job) = jobs.job(job_id) else {
                continue;
            };
            let code = events[event_idx].errcode;
            match root_cause.cause(code) {
                Some(RootCause::ApplicationError) => app_times.push(job.end_time.as_unix()),
                _ => sys_times.push(job.end_time.as_unix()),
            }
        }
        InterruptionStats {
            system: CauseStats::from_times(sys_times),
            application: CauseStats::from_times(app_times),
        }
    }

    /// Total interruptions.
    pub fn total(&self) -> usize {
        self.system.count + self.application.count
    }

    /// MTTI(system) / MTBF ratio against a supplied failure MTBF
    /// (Observation 7: 4.07 on Intrepid, against the pre-job-filter MTBF).
    pub fn mtti_over_mtbf(&self, mtbf: f64) -> Option<f64> {
        self.system.mtti().map(|mtti| mtti / mtbf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::root_cause::{RootCauseRule, RootCauseSummary};
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
    use raslog::Catalog;

    fn ev(t: i64, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            "R00-M0".parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    fn job(job_id: u64, end: i64) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(job_id as u32),
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
    fn splits_by_cause() {
        let cat = Catalog::standard();
        let sys_code = cat.lookup("_bgp_err_ddr_controller").unwrap();
        let app_code = cat.lookup("_bgp_err_app_out_of_memory").unwrap();
        let mut events = Vec::new();
        let mut jobs_vec = Vec::new();
        let mut matching = Matching::default();
        // 30 alternating interruptions.
        for i in 0..30i64 {
            let t = 1_000 + i * 7_919 + i * i * 37; // irregular spacing
            let name = if i % 2 == 0 {
                "_bgp_err_ddr_controller"
            } else {
                "_bgp_err_app_out_of_memory"
            };
            events.push(ev(t, name));
            jobs_vec.push(job(i as u64, t));
            matching.job_to_event.insert(i as u64, i as usize);
        }
        let jobs = JobLog::from_jobs(jobs_vec);
        let mut rc = RootCauseSummary::default();
        rc.per_code.insert(
            sys_code,
            (RootCause::SystemFailure, RootCauseRule::StickyLocation),
        );
        rc.per_code.insert(
            app_code,
            (
                RootCause::ApplicationError,
                RootCauseRule::FollowsExecutable,
            ),
        );
        let stats = InterruptionStats::new(&events, &matching, &rc, &jobs);
        assert_eq!(stats.system.count, 15);
        assert_eq!(stats.application.count, 15);
        assert_eq!(stats.total(), 30);
        // Interarrivals within each category are ~2×7919.
        assert!(stats.system.fits.is_some());
        let mtti = stats.system.mtti().unwrap();
        assert!(mtti > 10_000.0 && mtti < 30_000.0, "mtti {mtti}");
        let ratio = stats.mtti_over_mtbf(4_000.0).unwrap();
        assert!(ratio > 2.0);
        let series = stats.application.cdf_series(10).unwrap();
        assert_eq!(series.len(), 10);
    }

    #[test]
    fn unclassified_codes_default_to_system() {
        let events = vec![
            ev(100, "_bgp_err_kernel_panic"),
            ev(9_000, "_bgp_err_kernel_panic"),
        ];
        let jobs = JobLog::from_jobs(vec![job(1, 100), job(2, 9_000)]);
        let mut matching = Matching::default();
        matching.job_to_event.insert(1, 0);
        matching.job_to_event.insert(2, 1);
        let stats = InterruptionStats::new(&events, &matching, &RootCauseSummary::default(), &jobs);
        assert_eq!(stats.system.count, 2);
        assert_eq!(stats.application.count, 0);
        assert!(stats.application.fits.is_none());
        assert!(stats.application.mtti().is_none());
        assert!(stats.application.cdf_series(5).is_err());
    }
}
