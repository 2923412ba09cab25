//! Golden equivalence of the pipeline across thread counts.
//!
//! `CoAnalysisConfig::threads` sizes the stage executor, which runs
//! independent stages side by side, and the number of per-code chunks the
//! temporal/spatial filters split into; every other stage body is serial.
//! Its contract is *bit-identical products at any thread count*. These
//! tests pin it two ways:
//!
//! * a large synthetic fleet (many codes, so the temporal/spatial stage
//!   really splits into one chunk per thread) run through the whole stage
//!   graph at threads ∈ {1, 2, 7, 16};
//! * property tests that check the matcher against a brute-force oracle on
//!   small random — including unsorted — event/job streams, and the whole
//!   stage graph's thread-count invariance on the same streams.

use bgp_coanalysis::bgp_model::{Location, MidplaneId, Partition, Timestamp};
use bgp_coanalysis::coanalysis::matching::{EventCase, Matcher, Matching};
use bgp_coanalysis::coanalysis::{
    AnalysisContext, AnalysisProducts, AnalysisSet, CoAnalysis, CoAnalysisConfig, Event,
};
use bgp_coanalysis::joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
use bgp_coanalysis::raslog::{Catalog, ErrCode};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Thread counts exercised against the single-threaded golden run.
const THREADS: [usize; 3] = [2, 7, 16];

/// Deterministic split-free PRNG (an LCG) so the large fleet is identical
/// on every run without depending on a random-number crate.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn job(job_id: u64, start: i64, end: i64, part: Partition, failed: bool) -> JobRecord {
    JobRecord {
        job_id,
        exec: ExecId((job_id % 23) as u32),
        user: UserId((job_id % 11) as u32),
        project: ProjectId((job_id % 5) as u32),
        queue_time: Timestamp::from_unix(start - 30),
        start_time: Timestamp::from_unix(start),
        end_time: Timestamp::from_unix(end),
        partition: part,
        exit: if failed {
            ExitStatus::Failed(143)
        } else {
            ExitStatus::Completed
        },
    }
}

/// A synthetic fleet: events spread over every catalog code, so the
/// temporal/spatial stage has many code shards to split across threads,
/// against enough jobs that matching attributes thousands of them.
fn synth_fleet(n_events: usize, n_jobs: usize, seed: u64) -> (Vec<Event>, JobLog) {
    let mut rng = seed;
    let codes: Vec<ErrCode> = Catalog::standard().codes().collect();
    let mut jobs = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        let start = (i as i64) * 37 + (lcg(&mut rng) % 29) as i64;
        let dur = 60 + (lcg(&mut rng) % 20_000) as i64;
        let base = MidplaneId::from_index_wrapping((lcg(&mut rng) % 80) as u8);
        let part = if lcg(&mut rng).is_multiple_of(3) {
            // A whole rack (both midplanes), like a 1024-node partition.
            Partition::from_midplanes(base.rack().midplanes())
        } else {
            Partition::from_midplanes([base])
        };
        jobs.push(job(
            i as u64,
            start,
            start + dur,
            part,
            lcg(&mut rng) % 5 < 2,
        ));
    }
    let horizon = (n_jobs as i64) * 37;
    let mut events = Vec::with_capacity(n_events);
    let mut t = 0i64;
    for i in 0..n_events {
        t += (lcg(&mut rng) % (2 * (horizon as u64) / (n_events as u64))) as i64;
        let m = MidplaneId::from_index_wrapping((lcg(&mut rng) % 80) as u8);
        let loc = if lcg(&mut rng).is_multiple_of(4) {
            Location::Rack(m.rack())
        } else {
            Location::Midplane(m)
        };
        let code = codes[(lcg(&mut rng) as usize) % codes.len()];
        events.push(Event::synthetic(
            Timestamp::from_unix(t),
            loc,
            code,
            1,
            i as u64,
        ));
    }
    (events, JobLog::from_jobs(jobs))
}

/// Every stage's product for `events` (in any order) over `jobs`, run by
/// the stage executor on `threads` workers.
fn products(events: &[Event], jobs: &JobLog, threads: usize) -> AnalysisProducts {
    let times = || events.iter().map(|e| e.time);
    let span = times().min().zip(times().max());
    let ctx = AnalysisContext::from_events(events.to_vec(), span, jobs);
    CoAnalysis::with_config(CoAnalysisConfig {
        threads,
        ..CoAnalysisConfig::default()
    })
    .run_on(&ctx, AnalysisSet::all())
}

#[test]
fn kernels_bit_identical_across_thread_counts() {
    let (events, jobs) = synth_fleet(36_000, 6_000, 0xC0FFEE);
    let p1 = products(&events, &jobs, 1);

    // The fleet must actually produce interesting output, or "equal" proves
    // nothing.
    let m1 = p1.matching.as_ref().expect("the full set runs matching");
    assert!(m1.interrupted_jobs() > 0);
    assert!(m1
        .per_event
        .iter()
        .any(|m| m.case == EventCase::Interrupted));
    let rc1 = p1.root_cause.as_ref().expect("the full set classifies");
    assert!(rc1.per_code.len() > 16, "too few codes to split per thread");

    for t in THREADS {
        assert_eq!(p1, products(&events, &jobs, t), "diverged at {t} threads");
    }
}

/// Brute-force reimplementation of the matcher's documented semantics:
/// per-event window/footprint scan, then best-attribution-per-job pruning
/// with the earlier event winning distance ties.
fn oracle(events: &[Event], jobs: &JobLog, matcher: &Matcher) -> Matching {
    let window = matcher.window;
    let one = bgp_coanalysis::bgp_model::Duration::seconds(1);
    // Pre-reduction victims per event, in machine-wide (end_time, job_id)
    // order; running = distinct job ids overlapping [t, t + 1 s) on the
    // footprint.
    let mut pre: Vec<Vec<&JobRecord>> = Vec::new();
    let mut running: Vec<usize> = Vec::new();
    for e in events {
        let mut ended: Vec<&JobRecord> = jobs
            .jobs()
            .iter()
            .filter(|j| e.time - window <= j.end_time && j.end_time < e.time + window)
            .filter(|j| j.partition.overlaps(e.footprint))
            .filter(|j| !matcher.require_failed_exit || !j.exit.is_success())
            .collect();
        ended.sort_by_key(|j| (j.end_time, j.job_id));
        pre.push(ended);
        let mut ids: Vec<u64> = jobs
            .jobs()
            .iter()
            .filter(|j| j.overlaps(e.time, e.time + one))
            .filter(|j| j.partition.overlaps(e.footprint))
            .map(|j| j.job_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        running.push(ids.len());
    }
    // Attribution distance uses the id-indexed job table (last record wins
    // for a duplicated id), exactly like the kernel's O(1) id lookup.
    let by_id: HashMap<u64, &JobRecord> = jobs.jobs().iter().map(|j| (j.job_id, j)).collect();
    let mut best: HashMap<u64, (usize, i64)> = HashMap::new();
    for (i, (e, ended)) in events.iter().zip(&pre).enumerate() {
        for j in ended {
            let Some(rec) = by_id.get(&j.job_id) else {
                continue;
            };
            let dist = (rec.end_time - e.time).abs().as_secs();
            match best.get(&j.job_id) {
                Some(&(_, d)) if d <= dist => {}
                _ => {
                    best.insert(j.job_id, (i, dist));
                }
            }
        }
    }
    let job_to_event: BTreeMap<u64, usize> = best.into_iter().map(|(j, (i, _))| (j, i)).collect();
    let per_event = events
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let victims: Vec<u64> = pre[i]
                .iter()
                .map(|j| j.job_id)
                .filter(|id| job_to_event.get(id) == Some(&i))
                .collect();
            let case = if !victims.is_empty() {
                EventCase::Interrupted
            } else if running[i] == 0 {
                EventCase::IdleLocation
            } else {
                EventCase::NotInterrupted
            };
            bgp_coanalysis::coanalysis::matching::EventMatch {
                victims,
                running: running[i],
                case,
            }
        })
        .collect();
    Matching {
        per_event,
        job_to_event,
    }
}

fn arb_partition() -> impl Strategy<Value = Partition> {
    collection::vec(0u8..80, 1..4)
        .prop_map(|v| Partition::from_midplanes(v.into_iter().map(MidplaneId::from_index_wrapping)))
}

/// Job ids drawn from a small pool so duplicates are common — the kernel
/// must dedup running ids and attribute duplicated ids like the oracle.
fn arb_jobs() -> impl Strategy<Value = Vec<JobRecord>> {
    collection::vec(
        (1u64..40, -200i64..3000, 0i64..500, arb_partition(), 0u8..2),
        0..50,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(id, start, dur, part, failed)| job(id, start, start + dur, part, failed == 1))
            .collect()
    })
}

/// Event times are *not* sorted: the sweep must reset its cursors on a
/// time regression and still agree with the order-insensitive oracle.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    let codes: Vec<ErrCode> = Catalog::standard().codes().take(8).collect();
    collection::vec((-300i64..3500, 0u8..80, 0usize..8, 0u8..2), 0..40).prop_map(move |specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (t, m, c, rack))| {
                let m = MidplaneId::from_index_wrapping(m);
                let loc = if rack == 1 {
                    Location::Rack(m.rack())
                } else {
                    Location::Midplane(m)
                };
                Event::synthetic(Timestamp::from_unix(t), loc, codes[c], 1, i as u64)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn matcher_agrees_with_bruteforce_oracle(
        jobs in arb_jobs(),
        events in arb_events(),
    ) {
        let jobs = JobLog::from_jobs(jobs);
        let ctx = AnalysisContext::from_events(events.clone(), None, &jobs);
        let matcher = Matcher::default();
        let got = matcher.run(&events, &ctx);
        let want = oracle(&events, &jobs, &matcher);
        prop_assert_eq!(&got.per_event, &want.per_event);
        prop_assert_eq!(&got.job_to_event, &want.job_to_event);
    }

    #[test]
    fn kernels_thread_invariant_on_random_streams(
        jobs in arb_jobs(),
        events in arb_events(),
    ) {
        let jobs = JobLog::from_jobs(jobs);
        prop_assert_eq!(products(&events, &jobs, 1), products(&events, &jobs, 4));
    }
}
