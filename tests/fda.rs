//! Cross-validation of the FDA lattice miner: a brute-force lattice
//! enumerator (no Apriori, no interning tricks) must agree
//! with [`FdaAnalysis::compute`] exactly — same supports, same lifts,
//! same ranking — on random small tables and on one dense lattice of
//! hundreds of itemsets; and the empty/degenerate tables must come back
//! well-formed.
//!
//! Support monotonicity makes the brute force exact: an itemset has
//! fatal support ≥ the minimum iff all its subsets do, so "every itemset
//! of size ≤ max_level with enough fatal support" is precisely the set
//! Apriori discovers.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_model::{Location, Partition, Timestamp};
use bgp_coanalysis::coanalysis::analysis::fda::{
    FdaAnalysis, FdaDim, FdaItemValue, FdaItemset, FdaParams, JobDims, NUM_DIMS, NUM_JOB_DIMS,
};
use bgp_coanalysis::coanalysis::matching::{EventCase, EventMatch, Matching};
use bgp_coanalysis::coanalysis::Event;
use bgp_coanalysis::joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
use bgp_coanalysis::raslog::{Catalog, ErrCode};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

fn job(job_id: u64, user: u32, project: u32, exec: u32, mp: u8, width: u32) -> JobRecord {
    JobRecord {
        job_id,
        exec: ExecId(exec),
        user: UserId(user),
        project: ProjectId(project),
        queue_time: Timestamp::from_unix(0),
        start_time: Timestamp::from_unix(10),
        end_time: Timestamp::from_unix(1_000),
        partition: Partition::contiguous(mp, width).expect("valid partition"),
        exit: ExitStatus::Completed,
    }
}

/// Three real catalog codes for the errcode dimension.
fn codes() -> [ErrCode; 3] {
    let cat = Catalog::standard();
    [
        cat.lookup("_bgp_err_kernel_panic").unwrap(),
        cat.lookup("BULK_POWER_FATAL").unwrap(),
        cat.lookup("_bgp_err_diag_netbist").unwrap(),
    ]
}

/// One event per (code, victim-set) pair; locations are irrelevant to the
/// miner, which only reads the errcode column off the event stream.
fn fixture(jobs: &[JobRecord], victims_per_event: &[(usize, Vec<u64>)]) -> (Vec<Event>, Matching) {
    let loc: Location = "R00-M0-N00-J00".parse().expect("valid location");
    let all = codes();
    let mut events = Vec::new();
    let mut per_event = Vec::new();
    for (i, (code_idx, victims)) in victims_per_event.iter().enumerate() {
        events.push(Event::synthetic(
            Timestamp::from_unix(100 + i as i64),
            loc,
            all[code_idx % all.len()],
            1,
            i as u64,
        ));
        per_event.push(EventMatch {
            victims: victims.clone(),
            running: victims.len(),
            case: if victims.is_empty() {
                EventCase::IdleLocation
            } else {
                EventCase::Interrupted
            },
        });
    }
    let _ = jobs;
    (
        events,
        Matching {
            per_event,
            job_to_event: BTreeMap::new(),
        },
    )
}

/// An oracle item: `(dim, raw key)`, plus the `(items, fatal, total,
/// lift)` row shape the oracle ranks.
type RawItem = (u8, u64);
type MinedRow = (Vec<RawItem>, u32, u32, f64);

/// The oracle: enumerate every itemset of size ≤ max_level outright.
/// Items are `(dim, key)` with the raw errcode as the dim-0 key — the
/// interner maps values to ids monotonically, so lex order over keys is
/// lex order over ids and the tie-break ranking agrees with the miner's.
fn brute_force(
    events: &[Event],
    matching: &Matching,
    dims: &JobDims,
    jobs: &JobLog,
    params: &FdaParams,
) -> FdaAnalysis {
    let n = dims.rows();
    let mut attributed: Vec<(u32, u16)> = Vec::new();
    for (i, em) in matching.per_event.iter().enumerate() {
        let code = events[i].errcode.0;
        for &job_id in &em.victims {
            if let Some(row) = jobs.job_row(job_id) {
                attributed.push((row, code));
            }
        }
    }
    attributed.sort_unstable();
    attributed.dedup_by_key(|p| p.0);
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

    let code_of: HashMap<u32, u16> = attributed.iter().copied().collect();
    let row_items = |row: u32| -> Vec<(u8, u64)> {
        let mut v = Vec::new();
        if let Some(&c) = code_of.get(&row) {
            v.push((0u8, u64::from(c)));
        }
        for d in 0..NUM_JOB_DIMS {
            v.push((d as u8 + 1, u64::from(dims.job_col(d)[row as usize])));
        }
        v
    };

    // Fatal support: every subset of every fatal row's items (fatal rows
    // carry all six dims, so masks run over exactly NUM_DIMS bits).
    let mut fatal_counts: HashMap<Vec<(u8, u64)>, u32> = HashMap::new();
    for &(row, _) in &attributed {
        let items = row_items(row);
        assert_eq!(items.len(), NUM_DIMS);
        for mask in 1u32..(1 << NUM_DIMS) {
            if mask.count_ones() as usize > max_level {
                continue;
            }
            let sub: Vec<(u8, u64)> = (0..NUM_DIMS)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| items[b])
                .collect();
            *fatal_counts.entry(sub).or_insert(0) += 1;
        }
    }

    // Total support by rescanning every row; lift with the exact same
    // float expression as the miner so equality is bitwise.
    let mut mined: Vec<MinedRow> = Vec::new();
    for (items, &fatal) in &fatal_counts {
        if fatal < min_support {
            continue;
        }
        let mut total = 0u32;
        for row in 0..n as u32 {
            let ri = row_items(row);
            if items.iter().all(|it| ri.contains(it)) {
                total += 1;
            }
        }
        let lift = (f64::from(fatal) * n as f64) / (f64::from(total.max(1)) * n_fatal as f64);
        if lift >= params.min_lift {
            mined.push((items.clone(), fatal, total, lift));
        }
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
                .map(|&(d, key)| FdaItemValue {
                    dim: FdaDim::ALL[d as usize],
                    value: if d == 0 {
                        ErrCode(key as u16).to_string()
                    } else {
                        dims.job_name(d as usize - 1, key as u32)
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

/// A deterministic table with a dense lattice: ~37 frequent singletons fan
/// out to hundreds of cross-dimension pair candidates over 1200 fatal rows.
fn large_fixture() -> (Vec<JobRecord>, Vec<Event>, Matching) {
    let n = 3_000u64;
    let jobs: Vec<JobRecord> = (0..n)
        .map(|i| {
            job(
                i,
                (i % 7) as u32,
                ((i / 7) % 5) as u32,
                (i % 11) as u32,
                (i % 8) as u8,
                1 + (i % 3) as u32,
            )
        })
        .collect();
    // 60 events, 20 victims each: rows 0..1200 are fatal.
    let victims: Vec<(usize, Vec<u64>)> = (0..60)
        .map(|e| (e % 3, (e as u64 * 20..e as u64 * 20 + 20).collect()))
        .collect();
    let (events, matching) = fixture(&jobs, &victims);
    (jobs, events, matching)
}

#[test]
fn dense_lattice_matches_brute_force() {
    let (jobs, events, matching) = large_fixture();
    let log = JobLog::from_jobs(jobs.clone());
    let dims = JobDims::from_jobs(log.jobs());
    let params = FdaParams {
        min_support_frac: 0.0,
        min_support_floor: 1,
        min_lift: 0.0,
        max_level: 3,
    };
    let mined = FdaAnalysis::compute(&events, &matching, &dims, &log, &params);
    assert!(
        mined.ranked.len() > 100,
        "expected a dense lattice, got {} itemsets",
        mined.ranked.len()
    );
    assert_eq!(mined, brute_force(&events, &matching, &dims, &log, &params));
}

#[test]
fn empty_table_and_no_fatal_rows_are_well_formed() {
    let params = FdaParams::default();
    // No jobs at all.
    let log = JobLog::default();
    let dims = JobDims::from_jobs(log.jobs());
    let r = FdaAnalysis::compute(&[], &Matching::default(), &dims, &log, &params);
    assert_eq!(r.n_jobs, 0);
    assert_eq!(r.n_fatal, 0);
    assert!(r.ranked.is_empty());
    assert!(r.to_string().contains("0 over-represented"));
    // Jobs but no interruptions: nothing is over-represented.
    let jobs: Vec<JobRecord> = (0..10).map(|i| job(i, 0, 0, 0, 0, 1)).collect();
    let log = JobLog::from_jobs(jobs.clone());
    let dims = JobDims::from_jobs(log.jobs());
    let (events, matching) = fixture(&jobs, &[(0, Vec::new())]);
    let r = FdaAnalysis::compute(&events, &matching, &dims, &log, &params);
    assert_eq!(r.n_jobs, 10);
    assert_eq!(r.n_fatal, 0);
    assert!(r.ranked.is_empty());
    // Victims referencing unknown job ids are ignored, not miscounted.
    let (events, matching) = fixture(&jobs, &[(0, vec![999_999])]);
    let r = FdaAnalysis::compute(&events, &matching, &dims, &log, &params);
    assert_eq!(r.n_fatal, 0);
}

#[test]
fn single_dimension_table_mines_only_singletons() {
    // Every job dim constant: the only discriminating dimension is the
    // error code, and max_level 1 caps the lattice at singletons anyway.
    let jobs: Vec<JobRecord> = (0..20).map(|i| job(i, 1, 1, 1, 0, 1)).collect();
    let log = JobLog::from_jobs(jobs.clone());
    let dims = JobDims::from_jobs(log.jobs());
    for d in 0..NUM_JOB_DIMS {
        assert_eq!(dims.job_dict_len(d), 1, "dim {d} should be constant");
    }
    let (events, matching) = fixture(&jobs, &[(0, vec![0, 1, 2]), (1, vec![3, 4])]);
    let params = FdaParams {
        min_support_frac: 0.0,
        min_support_floor: 1,
        min_lift: 0.0,
        max_level: 1,
    };
    let r = FdaAnalysis::compute(&events, &matching, &dims, &log, &params);
    assert_eq!(r.n_fatal, 5);
    assert!(r.ranked.iter().all(|s| s.items.len() == 1));
    // The constant job dims have lift exactly 1 (5/5 over 20/20); the two
    // codes are over-represented (total == fatal, lift = 20/5, 20/2... ).
    let code_sets: Vec<&FdaItemset> = r
        .ranked
        .iter()
        .filter(|s| s.items[0].dim == FdaDim::ErrCode)
        .collect();
    assert_eq!(code_sets.len(), 2);
    assert!(code_sets.iter().all(|s| s.total_support == s.fatal_support));
    assert_eq!(r, brute_force(&events, &matching, &dims, &log, &params));
}

/// Strategy for one random small table plus miner params. The min-lift
/// index selects from [`LIFTS`] inside the test body.
#[allow(clippy::type_complexity)]
fn table_strategy() -> impl Strategy<
    Value = (
        Vec<(u32, u32, u32, u8, u32)>,
        Vec<(usize, Vec<u64>)>,
        u32,
        usize,
        usize,
    ),
> {
    (
        collection::vec((0u32..3, 0u32..3, 0u32..4, 0u8..4, 1u32..3), 1..32),
        collection::vec((0usize..3, collection::vec(0u64..32, 0..8)), 0..6),
        1u32..4,   // min_support_floor
        0usize..3, // index into LIFTS
        1usize..5, // max_level
    )
}

/// Reported-lift thresholds the proptest samples.
const LIFTS: [f64; 3] = [0.0, 1.0, 2.0];

proptest! {
    /// The Apriori miner and the exhaustive enumerator agree on support,
    /// lift, and ranking — exactly — for random small tables.
    #[test]
    fn miner_matches_brute_force(input in table_strategy()) {
        let (specs, victims, floor, lift_idx, max_level) = input;
        let min_lift = LIFTS[lift_idx];
        let jobs: Vec<JobRecord> = specs
            .iter()
            .enumerate()
            .map(|(i, &(u, p, e, m, w))| job(i as u64, u, p, e, m, w))
            .collect();
        let log = JobLog::from_jobs(jobs.clone());
        let dims = JobDims::from_jobs(log.jobs());
        let (events, matching) = fixture(&jobs, &victims);
        let params = FdaParams {
            min_support_frac: 0.0,
            min_support_floor: floor,
            min_lift,
            max_level,
        };
        let mined = FdaAnalysis::compute(&events, &matching, &dims, &log, &params);
        prop_assert_eq!(mined, brute_force(&events, &matching, &dims, &log, &params));
    }
}
