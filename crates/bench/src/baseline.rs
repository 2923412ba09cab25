//! Pre-optimization reference kernels, kept verbatim as test oracles.
//!
//! These are the analysis kernels as they stood before the sweep-line
//! matcher and the classification/ranking rewrites: the per-event
//! machine-wide termination rescan, the hash-map-of-vectors rule grouping,
//! the per-job hash-lookup vulnerability passes, the row-major FDA miner,
//! and the burst analysis's per-row id-set probe. This file exists for
//! `tests/baseline_equivalence.rs`, which runs the pipeline on simulated
//! logs at several executor thread counts and requires each optimized
//! kernel to reproduce its reference here bit for bit.

use bgp_model::intern::Interner;
use bgp_model::{Duration, MidplaneId, Timestamp};
use bgp_stats::hist::{bucket_index, TABLE_VI_TIME_EDGES};
use bgp_stats::infogain::{rank_features, FeatureColumn, FeatureScore};
use bgp_stats::pearson::pearson;
use coanalysis::analysis::fda::{
    FdaAnalysis, FdaDim, FdaItemValue, FdaItemset, FdaParams, JobDims, NUM_DIMS, NUM_JOB_DIMS,
};
use coanalysis::analysis::vulnerability::{
    ResubmissionStats, SizeLengthTable, VulnerabilityAnalysis, SIZE_ROWS,
};
use coanalysis::analysis::BurstAnalysis;
use coanalysis::classify::root_cause::{RootCause, RootCauseRule, RootCauseSummary};
use coanalysis::event::Event;
use coanalysis::matching::{EventCase, EventMatch, Matcher, Matching};
use joblog::{JobLog, JobRecord, ProjectId, UserId};
use raslog::ErrCode;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The pre-sweep matcher: per event, a machine-wide `ended_in_window`
/// scan filtered by footprint overlap, and an `O(n²)` running-job dedup.
pub fn match_events(matcher: &Matcher, events: &[Event], jobs: &JobLog) -> Matching {
    let mut per_event = Vec::with_capacity(events.len());
    // job id → (event index, |end − event time|), best so far.
    let mut best: HashMap<u64, (usize, i64)> = HashMap::new();

    for (i, e) in events.iter().enumerate() {
        // Jobs running anywhere on the event's footprint at event time.
        let mut running = 0usize;
        let mut seen: Vec<u64> = Vec::new();
        for m in e.footprint.midplanes() {
            for j in jobs.running_at(m, e.time) {
                if !seen.contains(&j.job_id) {
                    seen.push(j.job_id);
                    running += 1;
                }
            }
        }
        let ended = jobs.ended_in_window(e.time - matcher.window, e.time + matcher.window);
        let victims: Vec<u64> = ended
            .iter()
            .filter(|j| j.partition.overlaps(e.footprint))
            .filter(|j| !matcher.require_failed_exit || !j.exit.is_success())
            .map(|j| j.job_id)
            .collect();
        for &job_id in &victims {
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

    // Keep only the best attribution per job, and drop victims that a
    // closer event claimed.
    let job_to_event: BTreeMap<u64, usize> = best.into_iter().map(|(j, (i, _))| (j, i)).collect();
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

/// The pre-rewrite root-cause classifier: hash-map-of-vectors evidence
/// grouping, per-code allocation of the rule-2/rule-3 group maps, and an
/// allocating `overlapping` probe in the clean-run check.
pub fn classify_root_cause(
    events: &[Event],
    matching: &Matching,
    jobs: &JobLog,
) -> RootCauseSummary {
    assert_eq!(events.len(), matching.per_event.len());
    let mut summary = RootCauseSummary::default();

    // Gather per-code evidence.
    #[derive(Default)]
    struct Evidence {
        interrupts: bool,
        hits: Vec<(u8, joblog::ExecId, bgp_model::Timestamp)>,
    }
    let mut evidence: HashMap<ErrCode, Evidence> = HashMap::new();
    for (e, m) in events.iter().zip(&matching.per_event) {
        let ev = evidence.entry(e.errcode).or_default();
        for &job_id in &m.victims {
            if let Some(job) = jobs.job(job_id) {
                ev.interrupts = true;
                ev.hits.push((
                    job.partition.first().map_or(0, |m| m.index()) as u8,
                    job.exec,
                    e.time,
                ));
            }
        }
    }

    for (&code, ev) in &evidence {
        // Rule 1.
        if !ev.interrupts {
            summary
                .per_code
                .insert(code, (RootCause::SystemFailure, RootCauseRule::IdleOnly));
            continue;
        }
        // Rule 2: consecutive interruptions of different executables at one
        // location with no clean run in between.
        let mut by_location: HashMap<u8, Vec<(joblog::ExecId, bgp_model::Timestamp)>> =
            HashMap::new();
        for &(mp, exec, t) in &ev.hits {
            by_location.entry(mp).or_default().push((exec, t));
        }
        let mut sticky = false;
        'outer: for (&mp_idx, hits) in by_location.iter_mut() {
            hits.sort_by_key(|&(_, t)| t);
            let Ok(mp) = MidplaneId::from_index(mp_idx) else {
                continue;
            };
            for pair in hits.windows(2) {
                let ((exec_a, t_a), (exec_b, t_b)) = (pair[0], pair[1]);
                if exec_a == exec_b {
                    continue;
                }
                let clean_between = jobs.overlapping(mp, t_a, t_b).iter().any(|j| {
                    j.start_time > t_a
                        && j.end_time < t_b
                        && !matching.job_to_event.contains_key(&j.job_id)
                });
                if !clean_between {
                    sticky = true;
                    break 'outer;
                }
            }
        }
        if sticky {
            summary.per_code.insert(
                code,
                (RootCause::SystemFailure, RootCauseRule::StickyLocation),
            );
            continue;
        }
        // Rule 3: the code follows one executable across locations and the
        // old location goes quiet.
        let mut by_exec: HashMap<joblog::ExecId, Vec<(u8, bgp_model::Timestamp)>> = HashMap::new();
        for &(mp, exec, t) in &ev.hits {
            by_exec.entry(exec).or_default().push((mp, t));
        }
        let mut follows = false;
        'exec_scan: for hits in by_exec.values_mut() {
            hits.sort_by_key(|&(_, t)| t);
            for w in hits.windows(2) {
                let ((m1, t1), (m2, _t2)) = (w[0], w[1]);
                if m1 == m2 {
                    continue;
                }
                let old_location_quiet = !ev.hits.iter().any(|&(mp, _, t)| mp == m1 && t > t1);
                if old_location_quiet {
                    follows = true;
                    break 'exec_scan;
                }
            }
        }
        if follows {
            summary.per_code.insert(
                code,
                (
                    RootCause::ApplicationError,
                    RootCauseRule::FollowsExecutable,
                ),
            );
            continue;
        }
    }

    // Rule 4: Pearson fallback over daily occurrence profiles.
    let unlabeled: Vec<ErrCode> = evidence
        .keys()
        .filter(|c| !summary.per_code.contains_key(c))
        .copied()
        .collect();
    if !unlabeled.is_empty() {
        let profiles = daily_profiles(events);
        let mut labeled: Vec<(ErrCode, RootCause)> = summary
            .per_code
            .iter()
            .map(|(&c, &(cause, _))| (c, cause))
            .collect();
        labeled.sort_by_key(|&(c, _)| c);
        for code in unlabeled {
            let mut best: Option<(f64, RootCause)> = None;
            if let Some(p) = profiles.get(&code) {
                for &(other, cause) in &labeled {
                    if let Some(q) = profiles.get(&other) {
                        if let Ok(r) = pearson(p, q) {
                            if best.is_none_or(|(b, _)| r > b) {
                                best = Some((r, cause));
                            }
                        }
                    }
                }
            }
            let cause = best.map_or(RootCause::SystemFailure, |(_, c)| c);
            summary
                .per_code
                .insert(code, (cause, RootCauseRule::CorrelationFallback));
        }
    }
    summary
}

fn daily_profiles(events: &[Event]) -> HashMap<ErrCode, Vec<f64>> {
    let mut out: HashMap<ErrCode, Vec<f64>> = HashMap::new();
    let Some(first) = events.first() else {
        return out;
    };
    let t0 = first.time;
    let days = events
        .last()
        .map(|e| e.time.days_since(t0) as usize + 1)
        .unwrap_or(1);
    for e in events {
        let day = e.time.days_since(t0) as usize;
        let v = out.entry(e.errcode).or_insert_with(|| vec![0.0; days]);
        v[day] += 1.0;
    }
    out
}

/// The pre-rewrite vulnerability analysis: one `HashMap` lookup per job
/// per pass, owned `FeatureColumn` allocations, and strictly serial
/// per-category / per-feature ranking.
pub fn vulnerability(
    events: &[Event],
    matching: &Matching,
    root_cause: &RootCauseSummary,
    jobs: &JobLog,
    fatal_counts_per_midplane: &[u32],
) -> VulnerabilityAnalysis {
    let causes = job_causes(events, matching, root_cause);
    let table = build_table(jobs, &causes);
    let resubmission = build_resubmission(jobs, &causes);
    let (suspicious_users, suspicious_projects) = suspicious_sets(jobs, &causes);
    let unreliable_midplanes = top_failing(fatal_counts_per_midplane, 12);

    let ranking_system = rank(
        jobs,
        &causes,
        RootCause::SystemFailure,
        &suspicious_users.0,
        &suspicious_projects.0,
        &unreliable_midplanes,
    );
    let ranking_application = rank(
        jobs,
        &causes,
        RootCause::ApplicationError,
        &suspicious_users.0,
        &suspicious_projects.0,
        &unreliable_midplanes,
    );

    let app_jobs: Vec<&JobRecord> = causes
        .iter()
        .filter(|&(_, &c)| c == RootCause::ApplicationError)
        .filter_map(|(&id, _)| jobs.job(id))
        .collect();
    let app_interruptions_first_hour = if app_jobs.is_empty() {
        0.0
    } else {
        app_jobs
            .iter()
            .filter(|j| j.runtime().as_secs() < 3_600)
            .count() as f64
            / app_jobs.len() as f64
    };

    let uncovered_by_history_k2 = history_uncovered(jobs, &causes, 2);

    VulnerabilityAnalysis {
        table,
        resubmission,
        ranking_system,
        ranking_application,
        suspicious_users,
        suspicious_projects,
        unreliable_midplanes,
        app_interruptions_first_hour,
        uncovered_by_history_k2,
    }
}

fn job_causes(
    events: &[Event],
    matching: &Matching,
    root_cause: &RootCauseSummary,
) -> HashMap<u64, RootCause> {
    matching
        .job_to_event
        .iter()
        .map(|(&job_id, &idx)| {
            let cause = events
                .get(idx)
                .and_then(|e| root_cause.cause(e.errcode))
                .unwrap_or(RootCause::SystemFailure);
            (job_id, cause)
        })
        .collect()
}

fn size_row(size: u32) -> Option<usize> {
    SIZE_ROWS.iter().position(|&s| s == size)
}

fn time_col(runtime_secs: i64) -> usize {
    bucket_index(&TABLE_VI_TIME_EDGES, runtime_secs as f64).unwrap_or(0)
}

fn build_table(jobs: &JobLog, causes: &HashMap<u64, RootCause>) -> SizeLengthTable {
    let mut interrupted = [[0u32; 4]; 9];
    let mut total = [[0u32; 4]; 9];
    for j in jobs.jobs() {
        match causes.get(&j.job_id) {
            Some(RootCause::ApplicationError) => continue,
            Some(RootCause::SystemFailure) => {
                if let Some(r) = size_row(j.size_midplanes()) {
                    let c = time_col(j.runtime().as_secs());
                    interrupted[r][c] += 1;
                    total[r][c] += 1;
                }
            }
            None => {
                if let Some(r) = size_row(j.size_midplanes()) {
                    let c = time_col(j.runtime().as_secs());
                    total[r][c] += 1;
                }
            }
        }
    }
    SizeLengthTable { interrupted, total }
}

fn build_resubmission(jobs: &JobLog, causes: &HashMap<u64, RootCause>) -> ResubmissionStats {
    let mut system = [(0u32, 0u32); 3];
    let mut application = [(0u32, 0u32); 3];
    for group in jobs.exec_groups().iter() {
        for (cat, counts) in [
            (RootCause::SystemFailure, &mut system),
            (RootCause::ApplicationError, &mut application),
        ] {
            let mut run = 0usize;
            for j in group_records(jobs, group) {
                let interrupted = causes.get(&j.job_id) == Some(&cat);
                if (1..=3).contains(&run) {
                    counts[run - 1].0 += 1;
                    if interrupted {
                        counts[run - 1].1 += 1;
                    }
                }
                run = if interrupted { run + 1 } else { 0 };
            }
        }
    }
    ResubmissionStats {
        system,
        application,
    }
}

fn suspicious_sets(
    jobs: &JobLog,
    causes: &HashMap<u64, RootCause>,
) -> ((Vec<UserId>, f64), (Vec<ProjectId>, f64)) {
    let mut by_user: HashMap<UserId, u32> = HashMap::new();
    let mut by_project: HashMap<ProjectId, u32> = HashMap::new();
    let total = causes.len() as f64;
    for (&job_id, _) in causes.iter() {
        if let Some(j) = jobs.job(job_id) {
            *by_user.entry(j.user).or_insert(0) += 1;
            *by_project.entry(j.project).or_insert(0) += 1;
        }
    }
    fn cover<K: Copy + Ord>(counts: &HashMap<K, u32>, total: f64, target: f64) -> (Vec<K>, f64) {
        let mut pairs: Vec<(K, u32)> = counts.iter().map(|(&k, &c)| (k, c)).collect();
        pairs.sort_by_key(|&(k, c)| (std::cmp::Reverse(c), k));
        let mut acc = 0u32;
        let mut out = Vec::new();
        for (k, c) in pairs {
            if total > 0.0 && f64::from(acc) / total >= target {
                break;
            }
            out.push(k);
            acc += c;
        }
        let share = if total > 0.0 {
            f64::from(acc) / total
        } else {
            0.0
        };
        (out, share)
    }
    let users = cover(&by_user, total, 0.5);
    let projects = cover(&by_project, total, 0.74);
    (users, projects)
}

fn top_failing(fatal_counts: &[u32], k: usize) -> Vec<MidplaneId> {
    let mut idx: Vec<usize> = (0..fatal_counts.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(fatal_counts.get(i).copied().unwrap_or(0)));
    idx.into_iter()
        .take(k)
        .filter_map(|i| MidplaneId::from_index(i as u8).ok())
        .collect()
}

fn rank(
    jobs: &JobLog,
    causes: &HashMap<u64, RootCause>,
    category: RootCause,
    suspicious_users: &[UserId],
    suspicious_projects: &[ProjectId],
    unreliable: &[MidplaneId],
) -> Vec<(String, FeatureScore)> {
    let sus_users: HashSet<UserId> = suspicious_users.iter().copied().collect();
    let sus_projects: HashSet<ProjectId> = suspicious_projects.iter().copied().collect();
    let unreliable: HashSet<MidplaneId> = unreliable.iter().copied().collect();

    let mut user_f = Vec::new();
    let mut project_f = Vec::new();
    let mut size_f = Vec::new();
    let mut time_f = Vec::new();
    let mut loc_f = Vec::new();
    let mut labels = Vec::new();
    for j in jobs.jobs() {
        match causes.get(&j.job_id) {
            Some(&c) if c != category => continue,
            other => labels.push(usize::from(other == Some(&category))),
        }
        user_f.push(usize::from(sus_users.contains(&j.user)));
        project_f.push(usize::from(sus_projects.contains(&j.project)));
        size_f.push(size_row(j.size_midplanes()).unwrap_or(0));
        time_f.push(time_col(j.runtime().as_secs()));
        loc_f.push(usize::from(
            j.partition.midplanes().any(|m| unreliable.contains(&m)),
        ));
    }
    let features = vec![
        FeatureColumn {
            name: "user".into(),
            values: user_f,
            cardinality: 2,
        },
        FeatureColumn {
            name: "project".into(),
            values: project_f,
            cardinality: 2,
        },
        FeatureColumn {
            name: "size".into(),
            values: size_f,
            cardinality: 9,
        },
        FeatureColumn {
            name: "execution time".into(),
            values: time_f,
            cardinality: 4,
        },
        FeatureColumn {
            name: "location".into(),
            values: loc_f,
            cardinality: 2,
        },
    ];
    rank_features(&features, &labels, 2).unwrap_or_default()
}

/// The naive row-major FDA miner: per lattice level, one pass over *every*
/// job row enumerating each row's item subsets and probing a candidate
/// hash map — no interleaved column scans, no postings lists.
/// Bit-identical output to the postings-list [`FdaAnalysis::compute`] kernel
/// (same candidate generation, support thresholds, lift arithmetic, and
/// ranking), which is exactly what `matches_baseline` asserts.
pub fn fda(
    events: &[Event],
    matching: &Matching,
    dims: &JobDims,
    jobs: &JobLog,
    params: &FdaParams,
) -> FdaAnalysis {
    type Item = (u8, u32);
    let n = dims.rows();

    // Errcode column: same join as the optimized kernel (victims are
    // event-ordered, dedup keeps the lowest (row, code) pair).
    let mut attributed: Vec<(u32, u16)> = Vec::new();
    for (i, em) in matching.per_event.iter().enumerate() {
        let code = events.get(i).map_or(0, |e| e.errcode.0);
        for &job_id in &em.victims {
            if let Some(row) = jobs.job_row(job_id) {
                attributed.push((row, code));
            }
        }
    }
    attributed.sort_unstable();
    attributed.dedup_by_key(|p| p.0);
    let errdict = Interner::from_values(attributed.iter().map(|&(_, c)| c));
    let mut errcol = vec![0u32; n];
    for &(row, code) in &attributed {
        errcol[row as usize] = errdict.id(code).unwrap_or(0) + 1;
    }
    let n_fatal = attributed.len();
    let min_support = params.min_support(n_fatal);
    let max_level = params.max_level.min(NUM_DIMS);

    let mut analysis = FdaAnalysis {
        n_jobs: n,
        n_fatal,
        min_support,
        max_level,
        ranked: Vec::new(),
    };
    if n == 0 || n_fatal == 0 || max_level == 0 {
        return analysis;
    }

    let row_items = |row: usize| -> [Item; NUM_DIMS] {
        let mut items = [(0u8, errcol[row]); NUM_DIMS];
        for d in 0..NUM_JOB_DIMS {
            items[d + 1] = (d as u8 + 1, dims.job_col(d)[row]);
        }
        items
    };

    // Level 1: row-major count of every single item, fatal + total
    // together.
    let mut counts: HashMap<Vec<Item>, (u32, u32)> = HashMap::new();
    for (row, &ec) in errcol.iter().enumerate() {
        let fatal_row = ec != 0;
        for &it in &row_items(row) {
            let e = counts.entry(vec![it]).or_insert((0, 0));
            e.1 += 1;
            if fatal_row {
                e.0 += 1;
            }
        }
    }
    let mut frequent: Vec<Vec<Item>> = counts
        .iter()
        .filter(|&(_, &(f, _))| f >= min_support)
        .map(|(k, _)| k.clone())
        .collect();
    frequent.sort();

    let mut mined: Vec<(Vec<Item>, u32, u32, f64)> = Vec::new();
    let mut level = 1usize;
    loop {
        for items in &frequent {
            let &(fatal, total) = counts.get(items).unwrap_or(&(0, 0));
            let lift = (f64::from(fatal) * n as f64) / (f64::from(total.max(1)) * n_fatal as f64);
            if lift >= params.min_lift {
                mined.push((items.clone(), fatal, total, lift));
            }
        }
        level += 1;
        if level > max_level || frequent.is_empty() {
            break;
        }
        let candidates = fda_candidates(&frequent);
        if candidates.is_empty() {
            break;
        }
        counts = candidates
            .iter()
            .map(|c| (c.clone(), (0u32, 0u32)))
            .collect();
        let mut scratch: Vec<Item> = Vec::with_capacity(level);
        for (row, &ec) in errcol.iter().enumerate() {
            let items = row_items(row);
            let fatal_row = ec != 0;
            // Every `level`-subset of the row's 6 items, via bitmask.
            for mask in 1u32..(1 << NUM_DIMS) {
                if mask.count_ones() as usize != level {
                    continue;
                }
                scratch.clear();
                for (d, &it) in items.iter().enumerate() {
                    if mask & (1 << d) != 0 {
                        scratch.push(it);
                    }
                }
                if let Some(e) = counts.get_mut(scratch.as_slice()) {
                    e.1 += 1;
                    if fatal_row {
                        e.0 += 1;
                    }
                }
            }
        }
        frequent = candidates
            .into_iter()
            .filter(|c| counts.get(c).is_some_and(|&(f, _)| f >= min_support))
            .collect();
    }

    mined.sort_by(|a, b| {
        b.3.total_cmp(&a.3)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.0.cmp(&b.0))
    });
    analysis.ranked = mined
        .into_iter()
        .map(|(items, fatal, total, lift)| FdaItemset {
            items: items
                .iter()
                .map(|&(d, id)| FdaItemValue {
                    dim: FdaDim::ALL[d as usize],
                    value: if d == 0 {
                        match id.checked_sub(1).and_then(|i| errdict.value(i)) {
                            Some(code) => ErrCode(code).to_string(),
                            None => "-".to_string(),
                        }
                    } else {
                        dims.job_name(d as usize - 1, id)
                    },
                })
                .collect(),
            fatal_support: fatal,
            total_support: total,
            lift,
        })
        .collect();
    analysis
}

/// Apriori join + downward closure over lex-sorted frequent itemsets —
/// the same candidate semantics as the optimized kernel.
fn fda_candidates(frequent: &[Vec<(u8, u32)>]) -> Vec<Vec<(u8, u32)>> {
    let k = frequent.first().map_or(0, Vec::len);
    let mut out = Vec::new();
    let mut i = 0;
    while i < frequent.len() {
        let prefix = &frequent[i][..k.saturating_sub(1)];
        let mut j = i;
        while j < frequent.len() && &frequent[j][..k.saturating_sub(1)] == prefix {
            j += 1;
        }
        for a in i..j {
            for b in (a + 1)..j {
                let (Some(&la), Some(&lb)) = (frequent[a].last(), frequent[b].last()) else {
                    continue;
                };
                if la.0 >= lb.0 {
                    continue;
                }
                let mut cand = frequent[a].clone();
                cand.push(lb);
                let closed = (0..k.saturating_sub(1)).all(|drop| {
                    let sub: Vec<(u8, u32)> = cand
                        .iter()
                        .enumerate()
                        .filter_map(|(p, &it)| (p != drop).then_some(it))
                        .collect();
                    frequent.binary_search(&sub).is_ok()
                });
                if closed {
                    out.push(cand);
                }
            }
        }
        i = j;
    }
    out
}

fn history_uncovered(jobs: &JobLog, causes: &HashMap<u64, RootCause>, k: usize) -> f64 {
    let mut covered = 0usize;
    let mut total = 0usize;
    for group in jobs.exec_groups().iter() {
        let mut run = 0usize;
        for j in group_records(jobs, group) {
            let interrupted = causes.contains_key(&j.job_id);
            if interrupted {
                total += 1;
                if run >= k {
                    covered += 1;
                }
                run += 1;
            } else {
                run = 0;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

/// The records of one executable group, in group (submission) order.
fn group_records<'a>(
    jobs: &'a JobLog,
    group: &'a [u32],
) -> impl Iterator<Item = &'a JobRecord> + 'a {
    let records = jobs.jobs();
    group
        .iter()
        .filter_map(move |&row| records.get(row as usize))
}

/// The pre-mark burst analysis: the victims' ids in a `BTreeSet`, probed
/// once per job row on the executable walk.
pub fn burst(
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

    let interrupted_ids: BTreeSet<u64> = victims.iter().map(|j| j.job_id).collect();
    let mut max_run = 0usize;
    for group in jobs.exec_groups().iter() {
        let mut run = 0usize;
        for j in group_records(jobs, group) {
            if interrupted_ids.contains(&j.job_id) {
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
