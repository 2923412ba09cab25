//! Matching fatal events to job terminations (Section IV of the paper).
//!
//! Both logs carry time and location: a job is *interrupted by* a fatal
//! event when it ends within a small window of the event's time and the
//! event's location falls on the job's partition. Every event is also
//! classified into the paper's three cases:
//!
//! * **case 1** — the event interrupted one or more jobs;
//! * **case 2** — no job was running at the event's location (idle);
//! * **case 3** — jobs were running there, but none was interrupted.
//!
//! The kernel is a *sweep*: the event stream is time-sorted, so a
//! machine-wide cursor into the [`AnalysisContext`]'s termination rank
//! order advances monotonically instead of re-filtering an end-time window
//! per event, and a machine-wide occupancy active set is maintained
//! incrementally from the start-sorted job table instead of re-probing the
//! interval index per event. Partitions are bitmasks, so restricting
//! either machine-wide structure to an event's footprint costs one mask
//! intersection per candidate — Blue Gene/P partitions are exclusive, so
//! the active set never exceeds one job per midplane. The sweep is serial:
//! it sees the few hundred events the filters leave, and the stage
//! executor already runs it beside the other stages on its workers.

use crate::context::AnalysisContext;
use crate::event::Event;
use bgp_model::{Duration, Timestamp};
use joblog::{JobLog, JobRecord};
use std::collections::BTreeMap;

/// The paper's three event-vs-jobs cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCase {
    /// Interrupted at least one job.
    Interrupted,
    /// Nothing was running at that location.
    IdleLocation,
    /// Jobs ran on through it.
    NotInterrupted,
}

/// Per-event match result.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMatch {
    /// Jobs whose termination this event explains (job ids).
    pub victims: Vec<u64>,
    /// Number of jobs running at the event's location at event time.
    pub running: usize,
    /// The case classification.
    pub case: EventCase,
}

/// The full matching between an event stream and a job log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matching {
    /// Parallel to the event stream.
    pub per_event: Vec<EventMatch>,
    /// job id → index of the event that interrupted it. A job ending near
    /// two events is attributed to the closest-in-time one.
    pub job_to_event: BTreeMap<u64, usize>,
}

/// The matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Matcher {
    /// A job counts as interrupted by an event if it ends within this much
    /// of the event time (either side: clocks skew, and the kill is reported
    /// from several components at slightly different times).
    pub window: Duration,
    /// Require a non-zero exit code before blaming a fatal event for a job's
    /// termination. A job that exited 0 completed on its own; attributing it
    /// to a coincidentally-timed fatal event would poison the per-code case
    /// statistics.
    pub require_failed_exit: bool,
}

impl Default for Matcher {
    /// 30 s: wide enough for multi-component reporting skew, narrow enough
    /// that a coincidental normal completion near a fatal event rarely gets
    /// blamed on it.
    fn default() -> Self {
        Matcher {
            window: Duration::seconds(30),
            require_failed_exit: true,
        }
    }
}

/// When the sweep time jumps far enough that more than this many pending
/// ranks would be replayed to advance the termination cursor
/// incrementally, re-anchor it by binary search instead. Sparse event
/// streams (hundreds of events over months of jobs) would otherwise pay
/// for every termination between events; dense streams stay on the
/// amortized-O(1) incremental path.
const TERM_REANCHOR_GAP: usize = 64;

/// Same policy for the occupancy active set. Its re-anchor replays a
/// `max_duration`-bounded backward scan (typically a few hundred records),
/// so the break-even gap is larger than the termination cursor's.
const OCC_REANCHOR_GAP: usize = 512;

/// Sweep state: a machine-wide occupancy active set and a
/// machine-wide termination-window cursor, plus reusable scratch, so the
/// per-event loop allocates nothing but each event's `victims` vector.
///
/// Both structures are global rather than per-midplane: partitions are
/// bitmasks, so restricting a machine-wide candidate to an event's
/// footprint is one mask intersection — far cheaper than walking 80
/// per-midplane indexes when an event's footprint is wide.
struct SweepState {
    /// Next record (in the job table's start order) not yet admitted to
    /// `active`.
    occ_pos: usize,
    /// `(end_time, job_id, partition mask)` of every job overlapping the
    /// sweep's current `[t, t + 1 s)` instant, machine-wide. Blue Gene/P
    /// partitions are exclusive, so this holds at most one job per
    /// midplane — it fits in cache.
    active: Vec<(Timestamp, u64, u128)>,
    occ_anchored: bool,
    /// Termination ranks `lo..hi` bracket the end times inside the current
    /// `[t − w, t + w)` window, in the machine-wide `(end_time, job_id)`
    /// rank order.
    term_lo: usize,
    term_hi: usize,
    term_anchored: bool,
    /// Job ids running on the footprint (deduped by sort).
    running_ids: Vec<u64>,
    /// Previous event time — a regression (unsorted input) re-anchors
    /// everything, so the sweep stays exact for arbitrary event order.
    prev_time: Option<Timestamp>,
}

impl SweepState {
    fn new() -> SweepState {
        SweepState {
            occ_pos: 0,
            active: Vec::new(),
            occ_anchored: false,
            term_lo: 0,
            term_hi: 0,
            term_anchored: false,
            running_ids: Vec::new(),
            prev_time: None,
        }
    }

    fn reset(&mut self) {
        self.occ_pos = 0;
        self.active.clear();
        self.occ_anchored = false;
        self.term_lo = 0;
        self.term_hi = 0;
        self.term_anchored = false;
    }
}

/// End time of the job at machine-wide termination rank `rank`.
fn rank_end(jobs: &JobLog, rank: usize) -> Option<Timestamp> {
    u32::try_from(rank)
        .ok()
        .and_then(|r| jobs.job_by_end_rank(r))
        .map(|j| j.end_time)
}

/// First termination rank whose end time is ≥ `t` (binary search over the
/// machine-wide `(end_time, job_id)` rank order).
fn rank_lower_bound(jobs: &JobLog, t: Timestamp) -> usize {
    let (mut lo, mut hi) = (0usize, jobs.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if rank_end(jobs, mid).is_some_and(|end| end < t) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Advance one termination bound to the first rank with end time ≥ `t`:
/// incrementally when the jump is small, by binary search when it is not
/// (both land on the same partition point of the end-sorted rank order).
fn advance_term_bound(jobs: &JobLog, bound: &mut usize, t: Timestamp) {
    if rank_end(jobs, bound.saturating_add(TERM_REANCHOR_GAP)).is_some_and(|end| end < t) {
        *bound = rank_lower_bound(jobs, t);
    } else {
        while rank_end(jobs, *bound).is_some_and(|end| end < t) {
            *bound += 1;
        }
    }
}

impl Matcher {
    /// Match a time-sorted event stream against the indexed job log (the
    /// `Matching` stage).
    ///
    /// Contract: returns `per_event` exactly parallel to `events` (same
    /// length, same order); every match points at a job in `ctx`.
    pub fn run(&self, events: &[Event], ctx: &AnalysisContext<'_>) -> Matching {
        let jobs = ctx.jobs();
        let mut per_event = self.sweep(events, jobs);

        // Job id → (event index, |end − event time|), best so far.
        // Iterating in event order with a strict `<` on the distance makes
        // the earlier event win a tie.
        let mut best: BTreeMap<u64, (usize, i64)> = BTreeMap::new();
        for (i, (e, m)) in events.iter().zip(&per_event).enumerate() {
            for &job_id in &m.victims {
                let Some(end) = jobs.job(job_id).map(|j| j.end_time) else {
                    continue; // victim ids come from this log; nothing to rank otherwise
                };
                let dist = (end - e.time).abs().as_secs();
                match best.get(&job_id) {
                    Some(&(_, d)) if d <= dist => {}
                    _ => {
                        best.insert(job_id, (i, dist));
                    }
                }
            }
        }

        // Keep only the best attribution per job, and drop victims that a
        // closer event claimed.
        let job_to_event: BTreeMap<u64, usize> =
            best.into_iter().map(|(j, (i, _))| (j, i)).collect();
        for (i, m) in per_event.iter_mut().enumerate() {
            m.victims.retain(|j| job_to_event.get(j) == Some(&i));
            if m.victims.is_empty() && m.case == EventCase::Interrupted {
                m.case = if m.running == 0 {
                    EventCase::IdleLocation
                } else {
                    EventCase::NotInterrupted
                };
            }
        }
        Matching {
            per_event,
            job_to_event,
        }
    }

    /// The per-event sweep over the time-sorted event stream. Victims here
    /// are *pre-reduction*: every job ending in the window on the footprint
    /// (exit-filtered), before best-attribution pruning.
    fn sweep(&self, events: &[Event], jobs: &JobLog) -> Vec<EventMatch> {
        let mut state = SweepState::new();
        let records = jobs.jobs();
        let max_duration = jobs.max_duration();
        let mut per_event = Vec::with_capacity(events.len());
        for e in events {
            // Cursors only ever advance; if the stream is not time-sorted
            // after all, drop back to binary-search anchoring rather than
            // silently missing earlier jobs.
            if state.prev_time.is_some_and(|p| e.time < p) {
                state.reset();
            }
            state.prev_time = Some(e.time);
            let footprint = e.footprint.mask();

            // Jobs running anywhere on the event's footprint at event time,
            // deduped by job id. "Running at t" means overlapping
            // [t, t + 1 s): a job is admitted to the machine-wide active
            // set once its start time drops below t + 1 s and expired once
            // its end time is no longer after t — exactly the `overlapping`
            // predicate, paid incrementally as the sweep time advances.
            // Re-anchor on first touch, and whenever the time jump has
            // queued more than `OCC_REANCHOR_GAP` admissions (replaying
            // them one by one would cost more than rebuilding the set).
            let t1 = e.time + Duration::seconds(1);
            let far_jump = records
                .get(state.occ_pos.saturating_add(OCC_REANCHOR_GAP))
                .is_some_and(|j| j.start_time < t1);
            if !state.occ_anchored || far_jump {
                state.occ_pos = records.partition_point(|j| j.start_time < t1);
                state.active.clear();
                // Backward scan bounded by the longest job: anything
                // starting before `t − max_duration` has already ended.
                let cutoff = e.time - max_duration;
                for j in records.get(..state.occ_pos).unwrap_or(&[]).iter().rev() {
                    if j.start_time < cutoff {
                        break;
                    }
                    if j.overlaps(e.time, t1) {
                        state
                            .active
                            .push((j.end_time, j.job_id, j.partition.mask()));
                    }
                }
                state.occ_anchored = true;
            } else {
                while let Some(j) = records.get(state.occ_pos) {
                    if j.start_time >= t1 {
                        break;
                    }
                    if j.end_time > e.time {
                        state
                            .active
                            .push((j.end_time, j.job_id, j.partition.mask()));
                    }
                    state.occ_pos += 1;
                }
                state.active.retain(|&(end, _, _)| end > e.time);
            }
            state.running_ids.clear();
            for &(_, id, mask) in &state.active {
                if mask & footprint != 0 {
                    state.running_ids.push(id);
                }
            }
            state.running_ids.sort_unstable();
            state.running_ids.dedup();
            let running = state.running_ids.len();

            // Candidate terminations: the machine-wide (end_time, job_id)
            // rank order restricted to the window, filtered to jobs whose
            // partition touches the footprint — the same set, in the same
            // rank order, as the old per-midplane rank-list union.
            let (t0, t1) = (e.time - self.window, e.time + self.window);
            if !state.term_anchored {
                state.term_lo = rank_lower_bound(jobs, t0);
                state.term_hi = rank_lower_bound(jobs, t1);
                state.term_anchored = true;
            } else {
                advance_term_bound(jobs, &mut state.term_lo, t0);
                advance_term_bound(jobs, &mut state.term_hi, t1);
            }
            let victims: Vec<u64> = (state.term_lo..state.term_hi)
                .filter_map(|r| u32::try_from(r).ok().and_then(|r| jobs.job_by_end_rank(r)))
                .filter(|j| j.partition.mask() & footprint != 0)
                .filter(|j| !self.require_failed_exit || !j.exit.is_success())
                .map(|j| j.job_id)
                .collect();

            let case = if !victims.is_empty() {
                EventCase::Interrupted
            } else if running == 0 {
                EventCase::IdleLocation
            } else {
                EventCase::NotInterrupted
            };
            per_event.push(EventMatch {
                victims,
                running,
                case,
            });
        }
        per_event
    }
}

impl Matching {
    /// Total interrupted jobs.
    pub fn interrupted_jobs(&self) -> usize {
        self.job_to_event.len()
    }

    /// Count of events per case.
    pub fn case_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for m in &self.per_event {
            match m.case {
                EventCase::Interrupted => c.0 += 1,
                EventCase::IdleLocation => c.1 += 1,
                EventCase::NotInterrupted => c.2 += 1,
            }
        }
        c
    }

    /// The interrupted [`JobRecord`]s, resolved through the job log's job-id
    /// index ([`JobLog::job`]), in `(end_time, job_id)` order.
    pub fn interrupted_records<'a>(&self, ctx: &AnalysisContext<'a>) -> Vec<&'a JobRecord> {
        let mut out: Vec<&JobRecord> = self
            .job_to_event
            .keys()
            .filter_map(|&id| ctx.jobs().job(id))
            .collect();
        out.sort_by_key(|j| (j.end_time, j.job_id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, ProjectId, UserId};
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

    fn matched(events: &[Event], jobs: &JobLog) -> Matching {
        let ctx = AnalysisContext::for_jobs(jobs);
        Matcher::default().run(events, &ctx)
    }

    fn job(job_id: u64, start: i64, end: i64, part: &str, failed: bool) -> joblog::JobRecord {
        joblog::JobRecord {
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
    fn interruption_matched_by_time_and_location() {
        let jobs = JobLog::from_jobs(vec![job(1, 0, 5_000, "R00-M0", true)]);
        let events = vec![ev(5_010, "R00-M0-N01-J05", "_bgp_err_kernel_panic")];
        let m = matched(&events, &jobs);
        assert_eq!(m.per_event[0].victims, vec![1]);
        assert_eq!(m.per_event[0].case, EventCase::Interrupted);
        assert_eq!(m.job_to_event[&1], 0);
        assert_eq!(m.interrupted_jobs(), 1);
        assert_eq!(
            m.interrupted_records(&AnalysisContext::for_jobs(&jobs))[0].job_id,
            1
        );
    }

    #[test]
    fn wrong_location_is_not_a_victim() {
        let jobs = JobLog::from_jobs(vec![job(1, 0, 5_000, "R00-M0", true)]);
        let events = vec![ev(5_010, "R20-M1", "_bgp_err_kernel_panic")];
        let m = matched(&events, &jobs);
        assert!(m.per_event[0].victims.is_empty());
        assert_eq!(m.per_event[0].case, EventCase::IdleLocation);
    }

    #[test]
    fn case3_when_job_runs_through() {
        // Job runs across the event time but does not end near it.
        let jobs = JobLog::from_jobs(vec![job(1, 0, 50_000, "R00-M0", false)]);
        let events = vec![ev(20_000, "R00-M0", "BULK_POWER_FATAL")];
        let m = matched(&events, &jobs);
        assert_eq!(m.per_event[0].case, EventCase::NotInterrupted);
        assert_eq!(m.per_event[0].running, 1);
    }

    #[test]
    fn outside_window_not_matched() {
        let jobs = JobLog::from_jobs(vec![job(1, 0, 5_000, "R00-M0", true)]);
        let events = vec![ev(5_000 + 1_000, "R00-M0", "_bgp_err_kernel_panic")];
        let m = matched(&events, &jobs);
        assert!(m.per_event[0].victims.is_empty());
    }

    #[test]
    fn closest_event_wins_attribution() {
        let jobs = JobLog::from_jobs(vec![job(1, 0, 5_000, "R00-M0", true)]);
        let events = vec![
            ev(4_950, "R00-M0", "_bgp_err_kernel_panic"),
            ev(5_005, "R00-M0", "_bgp_err_ddr_controller"),
        ];
        let m = matched(&events, &jobs);
        assert_eq!(m.job_to_event[&1], 1, "closer event should win");
        assert!(m.per_event[0].victims.is_empty());
        assert_eq!(m.per_event[1].victims, vec![1]);
        // The losing event is re-cased; nothing else runs there, and the job
        // (which ends within the window) no longer counts as its victim.
        assert_ne!(m.per_event[0].case, EventCase::Interrupted);
    }

    #[test]
    fn one_event_many_victims() {
        // An fs-wide event killing two jobs at different locations — but the
        // event location only covers job 1; only covered jobs match.
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 5_000, "R00-M0", true),
            job(2, 0, 5_001, "R00-M1", true),
        ]);
        let events = vec![ev(5_000, "R00", "_bgp_err_fs_config")];
        let m = matched(&events, &jobs);
        // Rack-scoped location covers both midplanes.
        assert_eq!(m.per_event[0].victims.len(), 2);
        assert_eq!(m.interrupted_jobs(), 2);
    }

    #[test]
    fn case_counts() {
        let jobs = JobLog::from_jobs(vec![
            job(1, 0, 5_000, "R00-M0", true),
            job(2, 0, 50_000, "R01-M0", false),
        ]);
        let events = vec![
            ev(5_010, "R00-M0", "_bgp_err_kernel_panic"),  // case 1
            ev(20_000, "R01-M0", "BULK_POWER_FATAL"),      // case 3
            ev(20_000, "R30-M0", "_bgp_err_diag_netbist"), // case 2
        ];
        let m = matched(&events, &jobs);
        assert_eq!(m.case_counts(), (1, 1, 1));
    }
}
