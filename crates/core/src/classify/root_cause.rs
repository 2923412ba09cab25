//! Root-cause separation: system failures vs. application errors
//! (Section IV-B).
//!
//! The COMPONENT field can't do it (75 % of fatal events say KERNEL, none
//! say APPLICATION), so the paper uses job behaviour:
//!
//! 1. codes never seen under a running job → **system failure** (hardware
//!    fails just as happily when idle);
//! 2. the same code interrupting *different executables* at the *same
//!    location* consecutively → **system failure** (the scheduler keeps
//!    feeding jobs to broken hardware);
//! 3. the same code following *one executable* across *different locations*,
//!    while the old location stops producing it → **application error**
//!    (the bug travels with the code, not the hardware — Figure 2);
//! 4. anything still unlabeled → assign the label of the labeled code whose
//!    occurrence profile it best **Pearson-correlates** with.

use crate::event::Event;
use crate::matching::Matching;
use joblog::JobLog;
use raslog::ErrCode;
use std::collections::BTreeMap;

/// The root-cause verdict for a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// Hardware / system software.
    SystemFailure,
    /// User code or operation.
    ApplicationError,
}

/// Which rule produced a verdict (for reporting and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootCauseRule {
    /// Rule 1: only ever fired on idle hardware.
    IdleOnly,
    /// Rule 2: interrupted multiple executables at one location.
    StickyLocation,
    /// Rule 3: followed one executable across locations.
    FollowsExecutable,
    /// Rule 4: Pearson-correlation fallback.
    CorrelationFallback,
}

/// Classification output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RootCauseSummary {
    /// Verdict and the rule that decided it, per code.
    pub per_code: BTreeMap<ErrCode, (RootCause, RootCauseRule)>,
}

impl RootCauseSummary {
    /// The verdict for a code, if classified.
    pub fn cause(&self, code: ErrCode) -> Option<RootCause> {
        self.per_code.get(&code).map(|&(c, _)| c)
    }

    /// Number of codes with each verdict: `(system, application)`.
    pub fn counts(&self) -> (usize, usize) {
        let sys = self
            .per_code
            .values()
            .filter(|(c, _)| *c == RootCause::SystemFailure)
            .count();
        (sys, self.per_code.len() - sys)
    }

    /// Fraction of *events* attributed to application errors
    /// (Observation 2: 17.73 % on Intrepid).
    pub fn app_event_fraction(&self, events: &[Event]) -> f64 {
        if events.is_empty() {
            return 0.0;
        }
        let app = events
            .iter()
            .filter(|e| self.cause(e.errcode) == Some(RootCause::ApplicationError))
            .count();
        app as f64 / events.len() as f64
    }
}

/// One interruption attributed to a code: (midplane index, executable,
/// event time).
type Hit = (u8, joblog::ExecId, bgp_model::Timestamp);

/// Classify every code in the event stream (the `RootCause` stage).
///
/// Daily occurrence profiles for the correlation fallback are built from
/// the event stream itself.
///
/// Contract: input events may arrive in any order; returns one verdict per
/// distinct code in the stream, and never invents codes absent from it.
pub fn classify_root_cause(
    events: &[Event],
    matching: &Matching,
    jobs: &JobLog,
) -> RootCauseSummary {
    assert_eq!(events.len(), matching.per_event.len());
    let mut summary = RootCauseSummary::default();

    // Gather per-code evidence: every distinct code (even victimless ones)
    // and its interruption hits, grouped by code via one stable sort
    // instead of a hash map of per-code vectors.
    let mut codes: Vec<ErrCode> = events.iter().map(|e| e.errcode).collect();
    codes.sort_unstable();
    codes.dedup();
    let mut hits: Vec<(ErrCode, Hit)> = Vec::new();
    for (e, m) in events.iter().zip(&matching.per_event) {
        for &job_id in &m.victims {
            if let Some(job) = jobs.job(job_id) {
                hits.push((
                    e.errcode,
                    (
                        job.partition.first().map_or(0, |m| m.index()) as u8,
                        job.exec,
                        e.time,
                    ),
                ));
            }
        }
    }
    hits.sort_by_key(|&(code, _)| code); // stable: keeps event order per code

    // Rules 1–3 per code over its slice of the hit list (codes and hits
    // are both sorted), one grouping scratch reused across codes.
    let mut scratch = RuleScratch::default();
    let mut lo = 0usize;
    for &code in &codes {
        let start = lo
            + hits
                .get(lo..)
                .map_or(0, |rest| rest.partition_point(|&(c, _)| c < code));
        let end = start
            + hits
                .get(start..)
                .map_or(0, |rest| rest.partition_point(|&(c, _)| c <= code));
        let code_hits = hits.get(start..end).unwrap_or(&[]);
        if let Some(v) = classify_one(code_hits, matching, jobs, &mut scratch) {
            summary.per_code.insert(code, v);
        }
        lo = end;
    }

    // Rule 4: Pearson fallback over daily occurrence profiles. Each
    // unlabeled code's decision reads only the rule-1–3 labeled set.
    let unlabeled: Vec<ErrCode> = codes
        .iter()
        .filter(|c| !summary.per_code.contains_key(c))
        .copied()
        .collect();
    if !unlabeled.is_empty() {
        let profiles = daily_profiles(events);
        // Center every usable profile once: each pairwise Pearson then
        // costs a single dot product instead of two full passes (means and
        // moments) over both vectors. Profiles `pearson` would reject
        // (too short, NaN, zero variance) are not centered at all, so
        // pairs involving them are skipped exactly where the `pearson`
        // errors used to be — the surviving correlations are bit-identical.
        let centered: BTreeMap<ErrCode, Centered> = profiles
            .iter()
            .filter_map(|(&c, v)| center(v).map(|cen| (c, cen)))
            .collect();
        let labeled_profiles: Vec<(RootCause, &Centered)> = summary
            .per_code
            .iter()
            .filter_map(|(other, &(cause, _))| centered.get(other).map(|q| (cause, q)))
            .collect();
        for code in unlabeled {
            let mut best: Option<(f64, RootCause)> = None;
            if let Some(p) = centered.get(&code) {
                for &(cause, q) in &labeled_profiles {
                    let mut sxy = 0.0;
                    for (dx, dy) in p.dxs.iter().zip(&q.dxs) {
                        sxy += dx * dy;
                    }
                    let r = (sxy / (p.norm * q.norm)).clamp(-1.0, 1.0);
                    if best.is_none_or(|(b, _)| r > b) {
                        best = Some((r, cause));
                    }
                }
            }
            // With no usable correlation, fall back to the pessimistic
            // default: treat it as a system failure (an administrator can
            // act on that; blaming a user needs positive evidence).
            let cause = best.map_or(RootCause::SystemFailure, |(_, c)| c);
            summary
                .per_code
                .insert(code, (cause, RootCauseRule::CorrelationFallback));
        }
    }
    summary
}

/// Reusable grouping buffers for the rule-2/rule-3 scans — one allocation
/// per classification instead of two hash maps of vectors per code.
#[derive(Default)]
struct RuleScratch {
    /// Hits keyed for rule 2: sorted by (midplane, time).
    by_location: Vec<Hit>,
    /// Hits keyed for rule 3: (exec, midplane, time), sorted by (exec, time).
    by_exec: Vec<(joblog::ExecId, u8, bgp_model::Timestamp)>,
}

/// Rules 1–3 for one code; `None` defers to the correlation fallback.
fn classify_one(
    code_hits: &[(ErrCode, Hit)],
    matching: &Matching,
    jobs: &JobLog,
    scratch: &mut RuleScratch,
) -> Option<(RootCause, RootCauseRule)> {
    // Rule 1: never interrupted anything.
    if code_hits.is_empty() {
        return Some((RootCause::SystemFailure, RootCauseRule::IdleOnly));
    }
    // Rule 2: *consecutive* interruptions of different executables at
    // one location, with no clean run there in between — the scheduler
    // feeding fresh jobs to broken hardware. Without the
    // consecutiveness requirement, two unrelated buggy executables that
    // happen to share a popular midplane would mislabel an application
    // code as a system failure.
    scratch.by_location.clear();
    scratch
        .by_location
        .extend(code_hits.iter().map(|&(_, h)| h));
    scratch.by_location.sort_by_key(|&(mp, _, t)| (mp, t));
    let mut sticky = false;
    'outer: for group in chunk_by_key(&scratch.by_location, |&(mp, _, _)| mp) {
        let Some(&(mp_idx, _, _)) = group.first() else {
            continue;
        };
        let Ok(mp) = bgp_model::MidplaneId::from_index(mp_idx) else {
            continue;
        };
        for pair in group.windows(2) {
            let ((_, exec_a, t_a), (_, exec_b, t_b)) = (pair[0], pair[1]);
            if exec_a == exec_b {
                continue; // same executable: could be its own bug
            }
            let mut clean_between = false;
            jobs.for_each_overlapping(mp, t_a, t_b, |j| {
                clean_between = clean_between
                    || (j.start_time > t_a
                        && j.end_time < t_b
                        && !matching.job_to_event.contains_key(&j.job_id));
            });
            if !clean_between {
                sticky = true;
                break 'outer;
            }
        }
    }
    if sticky {
        return Some((RootCause::SystemFailure, RootCauseRule::StickyLocation));
    }
    // Rule 3 (the paper's Figure 2): the code follows one executable
    // across locations, AND the old location goes quiet — if the code
    // keeps firing at the old location after the executable has moved
    // on, the hardware there is suspect, not the executable.
    scratch.by_exec.clear();
    scratch
        .by_exec
        .extend(code_hits.iter().map(|&(_, (mp, exec, t))| (exec, mp, t)));
    scratch.by_exec.sort_by_key(|&(exec, _, t)| (exec, t));
    for group in chunk_by_key(&scratch.by_exec, |&(exec, _, _)| exec) {
        for w in group.windows(2) {
            let ((_, m1, t1), (_, m2, _t2)) = (w[0], w[1]);
            if m1 == m2 {
                continue;
            }
            // Old location quiet: no interruption of this code at m1
            // after t1 (by anyone).
            let old_location_quiet = !code_hits.iter().any(|&(_, (mp, _, t))| mp == m1 && t > t1);
            if old_location_quiet {
                return Some((
                    RootCause::ApplicationError,
                    RootCauseRule::FollowsExecutable,
                ));
            }
        }
    }
    None // defer to the correlation fallback
}

/// Iterate maximal runs of items sharing a key (the slice must already be
/// sorted/grouped by that key).
fn chunk_by_key<'s, T, K: PartialEq, F: FnMut(&T) -> K + 's>(
    slice: &'s [T],
    mut key: F,
) -> impl Iterator<Item = &'s [T]> {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= slice.len() {
            return None;
        }
        let first = slice.get(start).map(&mut key)?;
        let mut end = start + 1;
        while slice.get(end).is_some_and(|t| key(t) == first) {
            end += 1;
        }
        let out = slice.get(start..end);
        start = end;
        out
    })
}

/// A mean-centered daily profile: `dxs[i] = x[i] − mean` and
/// `norm = sqrt(Σ dxs²)`, the per-vector halves of Pearson's formula.
/// With both sides precomputed, `pearson(p, q)` reduces to
/// `(Σ p.dxs[i]·q.dxs[i]) / (p.norm · q.norm)` — the exact same floating-
/// point operations in the same order, evaluated once per profile instead
/// of once per pair.
struct Centered {
    dxs: Vec<f64>,
    norm: f64,
}

/// Center a profile, or `None` where [`bgp_stats::pearson::pearson`] would
/// reject it (fewer than 2 points, NaN, zero variance) so that skipped
/// pairs coincide exactly with the fallback's former `pearson` errors.
fn center(xs: &[f64]) -> Option<Centered> {
    if xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mut mean = 0.0;
    for &x in xs {
        if x.is_nan() {
            return None;
        }
        mean += x;
    }
    mean /= n;
    let dxs: Vec<f64> = xs.iter().map(|&x| x - mean).collect();
    let mut sxx = 0.0;
    for &d in &dxs {
        sxx += d * d;
    }
    (sxx > 0.0).then(|| Centered {
        dxs,
        norm: sxx.sqrt(),
    })
}

/// Daily occurrence-count vectors per code, over the event stream's span.
///
/// The span bounds are computed over the whole stream (not `first`/`last`),
/// so an unsorted stream cannot index a day outside the vectors; for the
/// pipeline's time-sorted streams the result is unchanged.
fn daily_profiles(events: &[Event]) -> BTreeMap<ErrCode, Vec<f64>> {
    let mut out: BTreeMap<ErrCode, Vec<f64>> = BTreeMap::new();
    let Some(t0) = events.iter().map(|e| e.time).min() else {
        return out;
    };
    let days = events
        .iter()
        .map(|e| e.time.days_since(t0) as usize + 1)
        .max()
        .unwrap_or(1);
    for e in events {
        let day = e.time.days_since(t0) as usize;
        let v = out.entry(e.errcode).or_insert_with(|| vec![0.0; days]);
        v[day] += 1.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::Matcher;
    use bgp_model::Timestamp;
    use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
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

    fn job(job_id: u64, exec: u32, start: i64, end: i64, part: &str) -> JobRecord {
        JobRecord {
            job_id,
            exec: ExecId(exec),
            user: UserId(0),
            project: ProjectId(0),
            queue_time: Timestamp::from_unix(start - 10),
            start_time: Timestamp::from_unix(start),
            end_time: Timestamp::from_unix(end),
            partition: part.parse().unwrap(),
            exit: ExitStatus::Failed(1),
        }
    }

    fn classify(events: Vec<Event>, jobs: Vec<JobRecord>) -> RootCauseSummary {
        let log = JobLog::from_jobs(jobs);
        let matching = Matcher::default().run(&events, &log);
        classify_root_cause(&events, &matching, &log)
    }

    #[test]
    fn idle_only_is_system() {
        let s = classify(
            vec![ev(100, "R00-M0", "_bgp_err_diag_netbist")],
            vec![job(1, 5, 0, 50, "R30-M0")],
        );
        let code = Catalog::standard().lookup("_bgp_err_diag_netbist").unwrap();
        assert_eq!(
            s.per_code[&code],
            (RootCause::SystemFailure, RootCauseRule::IdleOnly)
        );
    }

    #[test]
    fn sticky_location_is_system() {
        // Two different executables die at the same midplane with the same
        // code (the Figure-2 inverse).
        let s = classify(
            vec![
                ev(1_000, "R00-M0", "_bgp_err_ddr_controller"),
                ev(3_000, "R00-M0", "_bgp_err_ddr_controller"),
            ],
            vec![
                job(1, 10, 0, 1_000, "R00-M0"),
                job(2, 11, 2_000, 3_000, "R00-M0"),
            ],
        );
        let code = Catalog::standard()
            .lookup("_bgp_err_ddr_controller")
            .unwrap();
        assert_eq!(
            s.per_code[&code],
            (RootCause::SystemFailure, RootCauseRule::StickyLocation)
        );
    }

    #[test]
    fn follows_executable_is_application() {
        // The same executable dies with the same code at two midplanes
        // (the paper's Figure 2).
        let s = classify(
            vec![
                ev(1_000, "R00-M0", "_bgp_err_app_out_of_memory"),
                ev(3_000, "R07-M1", "_bgp_err_app_out_of_memory"),
            ],
            vec![
                job(1, 42, 0, 1_000, "R00-M0"),
                job(2, 42, 2_000, 3_000, "R07-M1"),
            ],
        );
        let code = Catalog::standard()
            .lookup("_bgp_err_app_out_of_memory")
            .unwrap();
        assert_eq!(
            s.per_code[&code],
            (
                RootCause::ApplicationError,
                RootCauseRule::FollowsExecutable
            )
        );
        let (sys, app) = s.counts();
        assert_eq!((sys, app), (0, 1));
    }

    #[test]
    fn correlation_fallback_assigns_nearest_profile() {
        // `mystery` (a single-victim code with no spatial evidence) co-fires
        // day-by-day with the labeled app code, and anti-correlates with the
        // labeled system code.
        let mut events = Vec::new();
        let mut jobs = Vec::new();
        let day = 86_400;
        // Days 0..6: app code follows exec 42 between two midplanes (labels
        // it via rule 3), and `mystery` fires the same days on a third
        // midplane interrupting always the same exec at the same place.
        for d in 0..6i64 {
            let t = d * day;
            let (mp_a, mp_b) = if d % 2 == 0 {
                ("R00-M0", "R01-M0")
            } else {
                ("R01-M0", "R00-M0")
            };
            events.push(ev(t + 1_000, mp_a, "_bgp_err_app_out_of_memory"));
            jobs.push(job(100 + d as u64, 42, t, t + 1_000, mp_a));
            let _ = mp_b;
            events.push(ev(t + 2_000, "R05-M0", "_bgp_err_mpi_abort"));
            jobs.push(job(200 + d as u64, 77, t + 1_500, t + 2_000, "R05-M0"));
        }
        // Days 6..12: a system code fires alone at one location under two
        // different execs on day 6 (labels it via rule 2).
        for d in 6..12i64 {
            let t = d * day;
            events.push(ev(t + 500, "R20-M0", "_bgp_err_ddr_controller"));
            jobs.push(job(
                300 + d as u64,
                (d % 2) as u32 + 900,
                t,
                t + 500,
                "R20-M0",
            ));
        }
        events.sort_by_key(|e| e.time);
        let s = classify(events, jobs);
        let cat = Catalog::standard();
        let mystery = cat.lookup("_bgp_err_mpi_abort").unwrap();
        let (cause, rule) = s.per_code[&mystery];
        assert_eq!(rule, RootCauseRule::CorrelationFallback);
        assert_eq!(cause, RootCause::ApplicationError);
    }

    #[test]
    fn app_event_fraction() {
        let events = vec![
            ev(1_000, "R00-M0", "_bgp_err_app_out_of_memory"),
            ev(3_000, "R07-M1", "_bgp_err_app_out_of_memory"),
            ev(5_000, "R30-M0", "_bgp_err_diag_netbist"),
        ];
        let jobs = vec![
            job(1, 42, 0, 1_000, "R00-M0"),
            job(2, 42, 2_000, 3_000, "R07-M1"),
        ];
        let log = JobLog::from_jobs(jobs);
        let matching = Matcher::default().run(&events, &log);
        let s = classify_root_cause(&events, &matching, &log);
        assert!((s.app_event_fraction(&events) - 2.0 / 3.0).abs() < 1e-12);
    }
}
