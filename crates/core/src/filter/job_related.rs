//! Job-related filtering — the paper's contribution (Section IV-C).
//!
//! Temporal-spatial filtering cannot remove redundancy whose spacing is set
//! by the *scheduler* and the *users*, not by the reporting subsystem:
//!
//! * a persistent fault keeps its midplane broken, the scheduler keeps
//!   assigning new jobs there, and every doomed job re-reports the same
//!   code — minutes or hours apart;
//! * a user keeps resubmitting a buggy executable, and every run re-reports
//!   the same application error — possibly at a *different* location.
//!
//! The rules, from the paper:
//!
//! 1. If another job is interrupted by the same code at the same location
//!    and **no job executed successfully there in between**, the later event
//!    is redundant. The relation is transitive.
//! 2. For application errors (same-executable resubmissions): the event is
//!    redundant if a job with the same execution file was interrupted by the
//!    same code before, regardless of location.

use crate::context::AnalysisContext;
use crate::event::Event;
use crate::matching::Matching;
use joblog::ExecId;
use raslog::ErrCode;
use std::collections::BTreeMap;

/// Result of job-related filtering.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRelatedOutcome {
    /// Per input event: is it job-related redundant?
    pub redundant: Vec<bool>,
    /// Per input event: the index of its root event (itself if kept).
    pub root: Vec<usize>,
    /// The surviving events, with redundant ones merged into their roots.
    pub events: Vec<Event>,
}

impl JobRelatedOutcome {
    /// Number of events removed.
    pub fn removed(&self) -> usize {
        self.redundant.iter().filter(|&&r| r).count()
    }
}

/// The job-related filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobRelatedFilter;

impl JobRelatedFilter {
    /// Apply to a time-sorted event stream with its job matching (the
    /// `JobRelated` stage).
    ///
    /// "Executed successfully in between" is decided from the co-analysis
    /// itself: a job on the same midplane, wholly inside the gap, that no
    /// fatal event interrupted.
    ///
    /// Contract: `events` is time-sorted and parallel to
    /// `matching.per_event`; the outcome's kept stream is a subsequence of
    /// the input.
    pub fn apply(
        &self,
        events: &[Event],
        matching: &Matching,
        ctx: &AnalysisContext<'_>,
    ) -> JobRelatedOutcome {
        assert_eq!(events.len(), matching.per_event.len());
        let mut redundant = vec![false; events.len()];
        let mut root: Vec<usize> = (0..events.len()).collect();

        // Rule 1: same (code, midplane) chains with no clean run between.
        let mut last_at: BTreeMap<(ErrCode, u8), usize> = BTreeMap::new();
        // Rule 2: earliest interrupting event per (code, victim executable).
        let mut seen_exec: BTreeMap<(ErrCode, ExecId), usize> = BTreeMap::new();

        for (i, e) in events.iter().enumerate() {
            let victims = &matching.per_event[i].victims;
            if victims.is_empty() {
                continue; // only interrupting events participate
            }
            let mp = e.midplane();
            let key = (e.errcode, mp.index() as u8);

            // --- Rule 1 ---
            if let Some(&j) = last_at.get(&key) {
                let clean_run_between = ctx
                    .jobs()
                    .overlapping(mp, events[j].time, e.time)
                    .iter()
                    .any(|job| {
                        job.start_time > events[j].time
                            && job.end_time < e.time
                            && !matching.job_to_event.contains_key(&job.job_id)
                    });
                if !clean_run_between {
                    redundant[i] = true;
                    root[i] = root[j]; // transitive
                }
            }

            // --- Rule 2 (application resubmissions) ---
            if !redundant[i] {
                for &job_id in victims {
                    let Some(job) = ctx.jobs().job(job_id) else {
                        continue;
                    };
                    if let Some(&j) = seen_exec.get(&(e.errcode, job.exec)) {
                        if j != i {
                            redundant[i] = true;
                            root[i] = root[j];
                            break;
                        }
                    }
                }
            }

            // Update indices (an event remains the chain head for later
            // comparisons even if itself redundant — the chain is rooted at
            // its first event via `root`).
            last_at.insert(key, i);
            for &job_id in victims {
                if let Some(job) = ctx.jobs().job(job_id) {
                    seen_exec.entry((e.errcode, job.exec)).or_insert(i);
                }
            }
        }

        // Merge redundant events into their roots.
        let mut events_out: Vec<Event> = Vec::with_capacity(events.len());
        let mut out_index: Vec<usize> = vec![usize::MAX; events.len()];
        for (i, e) in events.iter().enumerate() {
            if redundant[i] {
                events_out[out_index[root[i]]].absorb(e);
            } else {
                out_index[i] = events_out.len();
                events_out.push(*e);
            }
        }
        JobRelatedOutcome {
            redundant,
            root,
            events: events_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::Matcher;
    use bgp_model::Timestamp;
    use joblog::{ExitStatus, JobLog, JobRecord, ProjectId, UserId};
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

    fn job(job_id: u64, exec: u32, start: i64, end: i64, part: &str, failed: bool) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(exec),
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

    fn run(events: Vec<Event>, jobs: Vec<JobRecord>) -> (JobRelatedOutcome, Vec<Event>) {
        let log = JobLog::from_jobs(jobs);
        let ctx = AnalysisContext::for_jobs(&log);
        let matching = Matcher::default().run(&events, &ctx);
        let out = JobRelatedFilter.apply(&events, &matching, &ctx);
        (out, events)
    }

    #[test]
    fn broken_midplane_chain_collapses() {
        // Three consecutive jobs on R00-M0, all killed by the same code,
        // with no clean run between → one event.
        let jobs = vec![
            job(1, 10, 0, 1_000, "R00-M0", true),
            job(2, 11, 1_200, 2_200, "R00-M0", true),
            job(3, 12, 2_400, 3_400, "R00-M0", true),
        ];
        let events = vec![
            ev(1_000, "R00-M0-N00-J00", "_bgp_err_ddr_controller"),
            ev(2_200, "R00-M0-N00-J00", "_bgp_err_ddr_controller"),
            ev(3_400, "R00-M0-N00-J00", "_bgp_err_ddr_controller"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, true, true]);
        assert_eq!(out.root, vec![0, 0, 0], "transitivity");
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].merged, 3);
        assert_eq!(out.removed(), 2);
    }

    #[test]
    fn clean_run_breaks_the_chain() {
        // A successful job between two interruptions → repaired; the second
        // event is a fresh failure.
        let jobs = vec![
            job(1, 10, 0, 1_000, "R00-M0", true),
            job(2, 11, 1_200, 2_200, "R00-M0", false), // clean
            job(3, 12, 2_400, 3_400, "R00-M0", true),
        ];
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(3_400, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, false]);
        assert_eq!(out.events.len(), 2);
    }

    #[test]
    fn resubmitted_buggy_exec_redundant_across_locations() {
        // Same executable interrupted by the same app code on different
        // midplanes → rule 2 removes the repeats.
        let jobs = vec![
            job(1, 77, 0, 1_000, "R00-M0", true),
            job(2, 77, 2_000, 3_000, "R05-M1", true),
            job(3, 77, 4_000, 5_000, "R11-M0", true),
        ];
        let events = vec![
            ev(1_000, "R00-M0-I0", "_bgp_err_fs_operation_error"),
            ev(3_000, "R05-M1-I3", "_bgp_err_fs_operation_error"),
            ev(5_000, "R11-M0-I1", "_bgp_err_fs_operation_error"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, true, true]);
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].merged, 3);
    }

    #[test]
    fn different_codes_not_chained() {
        let jobs = vec![
            job(1, 10, 0, 1_000, "R00-M0", true),
            job(2, 11, 1_200, 2_200, "R00-M0", true),
        ];
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
            ev(2_200, "R00-M0", "_bgp_err_kernel_panic"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, false]);
    }

    #[test]
    fn non_interrupting_events_untouched() {
        // Idle-location repeats are NOT job-related redundancy (there is no
        // job signal); they stay.
        let jobs = vec![job(1, 10, 0, 1_000, "R30-M0", false)];
        let events = vec![
            ev(5_000, "R00-M0", "_bgp_err_diag_netbist"),
            ev(90_000, "R00-M0", "_bgp_err_diag_netbist"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, false]);
        assert_eq!(out.events.len(), 2);
    }

    #[test]
    fn different_execs_same_code_not_rule2() {
        // Two different executables hit by the same app code at different
        // locations: not resubmission redundancy.
        let jobs = vec![
            job(1, 70, 0, 1_000, "R00-M0", true),
            job(2, 71, 2_000, 3_000, "R05-M1", true),
        ];
        let events = vec![
            ev(1_000, "R00-M0-I0", "_bgp_err_app_out_of_memory"),
            ev(3_000, "R05-M1-I3", "_bgp_err_app_out_of_memory"),
        ];
        let (out, _) = run(events, jobs);
        assert_eq!(out.redundant, vec![false, false]);
    }
}
