//! Optimized kernel ≡ frozen pre-optimization kernel.
//!
//! The sweep-line matcher, the sort-grouped root-cause classifier, the
//! contingency-count vulnerability ranking, the postings-list FDA miner
//! and the row-mark burst walk each replaced a simpler kernel that is kept
//! verbatim in `bgp_bench::baseline`. These tests run the whole pipeline
//! on simulated logs at several seeds and executor thread counts, then feed
//! each kernel pair the pipeline's own intermediate products and require
//! bit-for-bit equal output.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::expect_used, missing_docs)]

use bgp_bench::baseline;
use bgp_model::{Duration, Partition, Timestamp};
use bgp_sim::{SimConfig, SimOutput, Simulation};
use coanalysis::analysis::{BurstAnalysis, VulnerabilityAnalysis};
use coanalysis::classify::classify_root_cause;
use coanalysis::matching::Matcher;
use coanalysis::{AnalysisContext, AnalysisSet, CoAnalysis, CoAnalysisConfig, FdaAnalysis};
use joblog::{ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};

/// Thread counts the pipeline runs at.
const THREADS: [usize; 2] = [1, 4];

/// The matcher is also checked at every window from 1 s to this.
const WINDOW_SWEEP_SECS: i64 = 120;

/// Run the pipeline once at `threads`, then check every optimized kernel
/// against its baseline on the pipeline's events, matching, root-cause
/// summary, midplane FATAL counts and interned FDA columns.
fn check_kernels(out: &SimOutput, threads: usize, label: &str) {
    let pipeline = CoAnalysis::with_config(CoAnalysisConfig {
        threads,
        ..CoAnalysisConfig::default()
    });
    let ctx = AnalysisContext::new(&out.ras, &out.jobs);
    let r = pipeline
        .run_on(&ctx, AnalysisSet::all())
        .into_result()
        .expect("the full set fills every product");
    let events = &r.events;

    // The comparisons below are only meaningful on non-trivial inputs.
    assert!(!events.is_empty(), "{label}: no filtered events");

    let matcher = pipeline.config.matcher;
    let matching = matcher.run(events, &out.jobs);
    assert_eq!(
        matching,
        baseline::match_events(&matcher, events, &out.jobs),
        "{label}: matching diverged from its baseline"
    );
    assert!(
        matching.interrupted_jobs() > 0,
        "{label}: no matched interruptions"
    );
    assert_eq!(r.matching, matching, "{label}: the Matching stage diverged");
    // Job ends rarely sit exactly on the default window's edges, so sweep
    // the window until some land on an event's `t - w` (included) or
    // `t + w` (excluded).
    for secs in 1..=WINDOW_SWEEP_SECS {
        let m = Matcher {
            window: Duration::seconds(secs),
            ..matcher
        };
        assert_eq!(
            m.run(events, &out.jobs),
            baseline::match_events(&m, events, &out.jobs),
            "{label}: matching with a {secs} s window diverged from its baseline"
        );
    }

    let root_cause = classify_root_cause(events, &matching, &out.jobs);
    assert_eq!(
        root_cause,
        baseline::classify_root_cause(events, &matching, &out.jobs),
        "{label}: root-cause classification diverged from its baseline"
    );
    assert_eq!(
        r.root_cause, root_cause,
        "{label}: the RootCause stage diverged"
    );

    let fatal_counts = r.midplane.fatal_counts.as_slice();
    assert_eq!(
        VulnerabilityAnalysis::new(events, &matching, &root_cause, &out.jobs, fatal_counts),
        baseline::vulnerability(events, &matching, &root_cause, &out.jobs, fatal_counts),
        "{label}: vulnerability ranking diverged from its baseline"
    );

    let params = pipeline.config.fda;
    let dims = ctx.fda_columns();
    let fda = FdaAnalysis::compute(events, &matching, dims, &out.jobs, &params);
    assert_eq!(
        fda,
        baseline::fda(events, &matching, dims, &out.jobs, &params),
        "{label}: FDA diverged from its baseline"
    );
    assert_eq!(r.fda, fda, "{label}: the Fda stage diverged");

    let victims = matching.interrupted_records(&out.jobs);
    let window = ctx.span().expect("a simulated log has a span");
    let quick = pipeline.config.quick_window;
    let burst = BurstAnalysis::new(&victims, &out.jobs, window, quick);
    assert_eq!(
        burst,
        baseline::burst(&victims, &out.jobs, window, quick),
        "{label}: burst analysis diverged from its baseline"
    );
    assert_eq!(r.burst, burst, "{label}: the Burst stage diverged");
}

/// A hand-built log where the id and submission orders disagree with the
/// table (start-time) order: ids repeat within and across executables, and
/// queue times interleave across executables and tie within one.
#[test]
fn burst_matches_baseline_on_duplicated_ids_and_interleaved_queue_times() {
    let job = |job_id: u64, exec: u32, queued: i64, start: i64| JobRecord {
        job_id,
        exec: ExecId(exec),
        user: UserId(exec % 3),
        project: ProjectId(exec % 2),
        queue_time: Timestamp::from_unix(queued),
        start_time: Timestamp::from_unix(start),
        end_time: Timestamp::from_unix(start + 500),
        partition: Partition::contiguous(0, 1).expect("valid partition"),
        exit: ExitStatus::Completed,
    };
    let mut rows = Vec::new();
    for i in 0..48u64 {
        let exec = (i % 4) as u32;
        // Queue order runs backwards against start order, with ties.
        rows.push(job(
            i % 17,
            exec,
            10_000 - 100 * (i / 2) as i64,
            1_000 * i as i64,
        ));
    }
    let jobs = JobLog::from_jobs(rows);
    let window = (Timestamp::from_unix(0), Timestamp::from_unix(3 * 86_400));
    let quick = Duration::seconds(5_000);
    for victim_ids in [vec![], vec![3], vec![0, 3, 4, 16], (0..17).collect()] {
        let mut victims: Vec<&JobRecord> =
            victim_ids.iter().filter_map(|&id| jobs.job(id)).collect();
        victims.sort_by_key(|j| (j.end_time, j.job_id));
        assert_eq!(
            BurstAnalysis::new(&victims, &jobs, window, quick),
            baseline::burst(&victims, &jobs, window, quick),
            "victims {victim_ids:?}"
        );
    }
}

/// Simulate the small-test preset at `seed` and check every kernel pair at
/// every thread count.
fn check_seed(seed: u64) {
    let out = Simulation::new(SimConfig::small_test(seed))
        .expect("the small-test preset is a valid config")
        .run();
    for threads in THREADS {
        check_kernels(&out, threads, &format!("seed {seed}, {threads} threads"));
    }
}

// Seed 42 is the default seed of the `experiments` harness.
#[test]
fn kernels_match_baseline_seed_42() {
    check_seed(42);
}

#[test]
fn kernels_match_baseline_seed_1() {
    check_seed(1);
}

#[test]
fn kernels_match_baseline_seed_7() {
    check_seed(7);
}
