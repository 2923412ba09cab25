//! Outage-episode reconstruction: how long did broken hardware stay in
//! service, and what did that cost?
//!
//! The Schroeder–Gibson lineage the paper builds on measures time-to-repair
//! from administrator databases; pure log co-analysis has to *infer* it. An
//! **outage episode** at a midplane is reconstructed as:
//!
//! * it opens with an interrupting event of a code at a midplane;
//! * it is extended by further interruptions of the same code there with no
//!   clean run in between (the job-related-redundancy chain);
//! * it closes when a job runs to completion on that midplane (evidence of
//!   repair), or at the log's end (right-censored).
//!
//! The estimated outage duration is *last chain event − first event*, a
//! lower bound on the true broken interval; the jobs killed during the
//! episode are its cost. The simulator's ground truth lets tests check the
//! estimates actually track real repair times.

use crate::event::Event;
use crate::matching::Matching;
use bgp_model::{MidplaneId, Timestamp};
use joblog::JobLog;
use raslog::ErrCode;
use std::collections::BTreeMap;

/// One reconstructed outage episode.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageEpisode {
    /// The error code reported throughout the episode.
    pub errcode: ErrCode,
    /// The afflicted midplane.
    pub midplane: MidplaneId,
    /// Time of the first interrupting event.
    pub start: Timestamp,
    /// Time of the last chained interrupting event.
    pub last_event: Timestamp,
    /// When a clean run first completed there afterwards (None if the log
    /// ends first — right-censored).
    pub cleared_by: Option<Timestamp>,
    /// Jobs interrupted during the episode.
    pub victims: usize,
}

impl OutageEpisode {
    /// Lower-bound outage duration in seconds (last event − first event).
    pub fn min_duration_secs(&self) -> i64 {
        (self.last_event - self.start).as_secs()
    }

    /// Upper-bound outage duration: until the clearing job's completion
    /// (None when censored).
    pub fn max_duration_secs(&self) -> Option<i64> {
        self.cleared_by.map(|t| (t - self.start).as_secs())
    }
}

/// Reconstruct outage episodes from the filtered events and their matching.
///
/// Only *chains* qualify (≥ 2 interruptions of the same code at the same
/// midplane with no clean run between): a single interruption gives no
/// evidence that the hardware stayed broken.
pub fn reconstruct_outages(
    events: &[Event],
    matching: &Matching,
    jobs: &JobLog,
) -> Vec<OutageEpisode> {
    assert_eq!(events.len(), matching.per_event.len());
    // Gather interrupting events per (code, midplane) in time order (events
    // are already time-sorted).
    let mut streams: BTreeMap<(ErrCode, u8), Vec<(Timestamp, usize)>> = BTreeMap::new();
    for (e, m) in events.iter().zip(&matching.per_event) {
        if m.victims.is_empty() {
            continue;
        }
        streams
            .entry((e.errcode, e.midplane().index() as u8))
            .or_default()
            .push((e.time, m.victims.len()));
    }

    let mut episodes = Vec::new();
    for ((code, mp_idx), hits) in streams {
        let Ok(mp) = MidplaneId::from_index(mp_idx) else {
            continue;
        };
        let clean_between = |a: Timestamp, b: Timestamp| {
            jobs.overlapping(mp, a, b).iter().any(|j| {
                j.start_time > a && j.end_time < b && !matching.job_to_event.contains_key(&j.job_id)
            })
        };
        let mut i = 0usize;
        while i < hits.len() {
            let (start, mut victims) = hits[i];
            let mut last_event = start;
            let mut j = i + 1;
            while j < hits.len() && !clean_between(last_event, hits[j].0) {
                last_event = hits[j].0;
                victims += hits[j].1;
                j += 1;
            }
            if j > i + 1 {
                // A chain: find the clearing completion after the last event.
                let horizon = last_event + bgp_model::Duration::days(30);
                let cleared_by = jobs
                    .overlapping(mp, last_event, horizon)
                    .iter()
                    .filter(|jb| {
                        jb.start_time > last_event
                            && !matching.job_to_event.contains_key(&jb.job_id)
                    })
                    .map(|jb| jb.end_time)
                    .min();
                episodes.push(OutageEpisode {
                    errcode: code,
                    midplane: mp,
                    start,
                    last_event,
                    cleared_by,
                    victims,
                });
            }
            i = j;
        }
    }
    episodes.sort_by_key(|e| (e.start, e.midplane.index()));
    episodes
}

/// Summary statistics over reconstructed episodes.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageSummary {
    /// Number of episodes (chains of ≥ 2 interruptions).
    pub episodes: usize,
    /// Median lower-bound duration, seconds.
    pub median_min_duration_secs: Option<i64>,
    /// Total jobs killed inside episodes.
    pub total_victims: usize,
    /// Episodes never observed to clear (right-censored).
    pub censored: usize,
}

/// Summarize a set of episodes.
pub fn summarize(episodes: &[OutageEpisode]) -> OutageSummary {
    let mut durations: Vec<i64> = episodes.iter().map(|e| e.min_duration_secs()).collect();
    durations.sort_unstable();
    OutageSummary {
        episodes: episodes.len(),
        median_min_duration_secs: (!durations.is_empty()).then(|| durations[durations.len() / 2]),
        total_victims: episodes.iter().map(|e| e.victims).sum(),
        censored: episodes.iter().filter(|e| e.cleared_by.is_none()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::Matcher;
    use joblog::{ExecId, ExitStatus, JobRecord, ProjectId, UserId};
    use raslog::Catalog;

    fn ev(t: i64, loc: &str, name: &str) -> Event {
        Event::synthetic(
            Timestamp::from_unix(t),
            loc.parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
            1,
            t as u64,
        )
    }

    fn job(job_id: u64, start: i64, end: i64, part: &str, failed: bool) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(job_id as u32),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(start - 10),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(end),
            partition: part.parse().unwrap(),
            exit: if failed {
                ExitStatus::Failed(143)
            } else {
                ExitStatus::Completed
            },
        }
    }

    #[test]
    fn chain_becomes_episode_with_clearing_time() {
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 1_000, "R00-M0", true),
            job(2, 1_200, 2_200, "R00-M0", true),
            job(3, 2_400, 3_400, "R00-M0", true),
            job(4, 4_000, 6_000, "R00-M0", false), // repair evidence
        ]);
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(2_200, "R00-M0", "_bgp_err_ddr_controller"),
            ev(3_400, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        let episodes = reconstruct_outages(&events, &matching, &jobs);
        assert_eq!(episodes.len(), 1);
        let e = &episodes[0];
        assert_eq!(e.victims, 3);
        assert_eq!(e.min_duration_secs(), 2_400);
        assert_eq!(e.cleared_by, Some(Timestamp::from_unix(6_000)));
        assert_eq!(e.max_duration_secs(), Some(5_000));
        let s = summarize(&episodes);
        assert_eq!(s.episodes, 1);
        assert_eq!(s.total_victims, 3);
        assert_eq!(s.censored, 0);
        assert_eq!(s.median_min_duration_secs, Some(2_400));
    }

    #[test]
    fn single_interruption_is_not_an_episode() {
        let jobs = JobLog::from_jobs(vec![job(1, 0, 1_000, "R00-M0", true)]);
        let events = vec![ev(1_000, "R00-M0", "_bgp_err_ddr_controller")];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        assert!(reconstruct_outages(&events, &matching, &jobs).is_empty());
        let s = summarize(&[]);
        assert_eq!(s.episodes, 0);
        assert_eq!(s.median_min_duration_secs, None);
    }

    #[test]
    fn clean_run_splits_episodes() {
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 1_000, "R00-M0", true),
            job(2, 1_200, 2_200, "R00-M0", true),
            job(3, 3_000, 4_000, "R00-M0", false), // clears first episode
            job(4, 5_000, 6_000, "R00-M0", true),  // a fresh fault, alone
        ]);
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(2_200, "R00-M0", "_bgp_err_ddr_controller"),
            ev(6_000, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        let episodes = reconstruct_outages(&events, &matching, &jobs);
        // One two-event episode; the trailing singleton does not qualify.
        assert_eq!(episodes.len(), 1);
        assert_eq!(episodes[0].victims, 2);
    }

    #[test]
    fn censored_when_no_clean_run_follows() {
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 1_000, "R00-M0", true),
            job(2, 1_200, 2_200, "R00-M0", true),
        ]);
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(2_200, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let ctx = crate::context::AnalysisContext::for_jobs(&jobs);
        let matching = Matcher::default().run(&events, &ctx);
        let episodes = reconstruct_outages(&events, &matching, &jobs);
        assert_eq!(episodes.len(), 1);
        assert_eq!(episodes[0].cleared_by, None);
        assert_eq!(summarize(&episodes).censored, 1);
    }

    #[test]
    fn estimates_track_ground_truth_repairs() {
        // On a real simulated run, reconstructed lower-bound durations must
        // sit below the true broken intervals, and most episodes should
        // correspond to persistent faults.
        use bgp_sim::{SimConfig, Simulation};
        let mut cfg = SimConfig::small_test(61);
        cfg.days = 30;
        cfg.num_execs = 1_200;
        let out = Simulation::new(cfg).expect("valid config").run();
        let r = crate::pipeline::CoAnalysis::default().run(&out.ras, &out.jobs);
        let episodes = reconstruct_outages(&r.events, &r.matching, &out.jobs);
        if episodes.is_empty() {
            // Tiny windows can lack chains; that is itself informative but
            // makes the rest unverifiable.
            return;
        }
        for e in &episodes {
            assert!(e.min_duration_secs() >= 0);
            if let Some(max) = e.max_duration_secs() {
                assert!(max >= e.min_duration_secs());
            }
            assert!(e.victims >= 2);
        }
        // Each episode should coincide with at least one true persistent
        // fault at that midplane.
        let matched = episodes
            .iter()
            .filter(|e| {
                out.truth.faults.iter().any(|f| {
                    f.persistent
                        && f.location.midplane().map(|m| m.index()) == Some(e.midplane.index())
                })
            })
            .count();
        assert!(
            matched * 2 >= episodes.len(),
            "only {matched} of {} episodes align with persistent faults",
            episodes.len()
        );
    }
}
