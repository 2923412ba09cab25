//! Midplane-level failure characteristics (Section V-B: Figure 4,
//! Observation 5).
//!
//! Three series over the 80 midplanes — fatal-event counts, total workload,
//! and wide-job workload — plus the Pearson correlations that make
//! Observation 5 quantitative: failure counts track *wide-job* workload,
//! not total workload.

use crate::event::Event;
use bgp_model::{topology::NUM_MIDPLANES, MidplaneId};
use bgp_stats::pearson::pearson;
use joblog::JobLog;

/// Per-midplane profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MidplaneProfile {
    /// Fatal events per midplane (Figure 4a).
    pub fatal_counts: Vec<u32>,
    /// Busy midplane-seconds per midplane (Figure 4b).
    pub workload_secs: Vec<i64>,
    /// Busy midplane-seconds from jobs ≥ `wide_threshold` midplanes
    /// (Figure 4c).
    pub wide_workload_secs: Vec<i64>,
    /// The wide-job threshold used (the paper uses ≥ 32 midplanes).
    pub wide_threshold: u32,
}

impl MidplaneProfile {
    /// Build the three series (the `Midplane` stage; `events` is the fully
    /// filtered stream).
    pub fn new(events: &[Event], jobs: &JobLog, wide_threshold: u32) -> MidplaneProfile {
        let n = usize::from(NUM_MIDPLANES);
        let mut fatal_counts = vec![0u32; n];
        for e in events {
            fatal_counts[e.midplane().index()] += 1;
        }
        MidplaneProfile {
            fatal_counts,
            workload_secs: jobs.midplane_busy_series(0),
            wide_workload_secs: jobs.midplane_busy_series(wide_threshold),
            wide_threshold,
        }
    }

    /// Pearson correlation of fatal counts with total workload.
    pub fn corr_with_workload(&self) -> Option<f64> {
        let counts: Vec<f64> = self.fatal_counts.iter().map(|&c| f64::from(c)).collect();
        let load: Vec<f64> = self.workload_secs.iter().map(|&s| s as f64).collect();
        pearson(&counts, &load).ok()
    }

    /// Pearson correlation of fatal counts with wide-job workload.
    pub fn corr_with_wide_workload(&self) -> Option<f64> {
        let counts: Vec<f64> = self.fatal_counts.iter().map(|&c| f64::from(c)).collect();
        let load: Vec<f64> = self.wide_workload_secs.iter().map(|&s| s as f64).collect();
        pearson(&counts, &load).ok()
    }

    /// The `k` midplanes with the most fatal events, most-failing first.
    pub fn top_failing(&self, k: usize) -> Vec<(MidplaneId, u32)> {
        let mut idx: Vec<usize> = (0..self.fatal_counts.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.fatal_counts[i]));
        idx.into_iter()
            .take(k)
            .filter_map(|i| {
                let m = MidplaneId::from_index(i as u8).ok()?;
                Some((m, self.fatal_counts[i]))
            })
            .collect()
    }

    /// Total fatal events in the middle band (indices 32–63) vs. outside —
    /// the visual claim of Figure 4a.
    pub fn middle_band_share(&self) -> f64 {
        let total: u32 = self.fatal_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let middle: u32 = self.fatal_counts[32..64].iter().sum();
        f64::from(middle) / f64::from(total)
    }
}

/// Midplane-level interarrival fits (Section V-B's "Weibull distribution
/// still fits midplane-level failure interarrival distribution well").
///
/// Returns, for every midplane with at least `min_events` events, the
/// Weibull-vs-exponential comparison of its own interarrival stream.
pub fn per_midplane_fits(
    events: &[Event],
    min_events: usize,
) -> Vec<(MidplaneId, bgp_stats::FitComparison)> {
    let mut per: Vec<Vec<i64>> = vec![Vec::new(); usize::from(NUM_MIDPLANES)];
    for e in events {
        per[e.midplane().index()].push(e.time.as_unix());
    }
    let mut out = Vec::new();
    for (i, times) in per.iter_mut().enumerate() {
        if times.len() < min_events {
            continue;
        }
        times.sort_unstable();
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .filter(|&g| g > 0.0)
            .collect();
        if let (Ok(cmp), Ok(m)) = (
            bgp_stats::compare_models(&gaps),
            MidplaneId::from_index(i as u8),
        ) {
            out.push((m, cmp));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
    use raslog::Catalog;

    fn ev(t: i64, loc: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap(),
            1,
            t as u64,
        )
    }

    fn job(job_id: u64, start: i64, end: i64, part: &str) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(1),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(start),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(end),
            partition: part.parse().unwrap(),
            exit: ExitStatus::Completed,
        }
    }

    #[test]
    fn series_and_correlations() {
        // Events spread over the middle band where the wide job runs, plus a
        // few on one of its midplanes.
        let mut events: Vec<Event> = (0..16u8)
            .map(|i| {
                let m = bgp_model::MidplaneId::from_index(32 + i).unwrap();
                ev(i64::from(i) * 1_000, &m.to_string())
            })
            .collect();
        events.push(ev(90_000, "R20-M0"));
        events.push(ev(91_000, "R20-M0"));
        events.push(ev(92_000, "R20-M0"));
        events.push(ev(93_000, "R20-M0"));
        let jobs = JobLog::from_jobs(vec![
            // Wide job on midplane indices 32..64 (racks R20..R37, 32
            // midplanes).
            job(1, 0, 100_000, "R20-R37"),
            // Narrow job with huge runtime at the head.
            job(2, 0, 500_000, "R00-M0"),
        ]);
        let p = MidplaneProfile::new(&events, &jobs, 32);
        assert_eq!(p.fatal_counts.iter().sum::<u32>(), 20);
        assert_eq!(p.fatal_counts[32], 5); // R20-M0 is index 32
        assert_eq!(p.workload_secs[0], 500_000);
        assert_eq!(p.wide_workload_secs[0], 0);
        assert_eq!(p.wide_workload_secs[32], 100_000);
        // Counts follow the wide workload, not the total workload.
        let cw = p.corr_with_wide_workload().unwrap();
        let ct = p.corr_with_workload().unwrap();
        assert!(cw > ct, "wide {cw} vs total {ct}");
        assert!(cw > 0.3, "cw {cw}");
        assert!(p.middle_band_share() > 0.9);
        let top = p.top_failing(1);
        assert_eq!(top[0].0.index(), 32);
        assert_eq!(top[0].1, 5);
    }

    #[test]
    fn empty_inputs() {
        let empty = JobLog::default();
        let p = MidplaneProfile::new(&[], &empty, 32);
        assert_eq!(p.middle_band_share(), 0.0);
        // Zero-variance series make correlation undefined.
        assert!(p.corr_with_workload().is_none());
    }
}
