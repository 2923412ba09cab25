//! Optimized kernel ≡ frozen pre-optimization kernel.
//!
//! The sweep-line matcher, the parallel root-cause classifier, the parallel
//! vulnerability ranking and the column-sharded FDA miner each replaced a
//! simpler kernel that is kept verbatim in `bgp_bench::baseline`. These
//! tests run the whole pipeline on simulated logs, then feed each kernel
//! pair the pipeline's own intermediate products and require bit-for-bit
//! equal output, for several simulation seeds and thread counts.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::expect_used, missing_docs)]

use bgp_bench::baseline;
use bgp_model::Duration;
use bgp_sim::{SimConfig, SimOutput, Simulation};
use coanalysis::analysis::VulnerabilityAnalysis;
use coanalysis::classify::classify_root_cause_with_threads;
use coanalysis::matching::Matcher;
use coanalysis::{AnalysisContext, AnalysisSet, CoAnalysis, CoAnalysisConfig, FdaAnalysis};

/// Thread counts the optimized kernels run at.
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
    let matching = matcher.run_with_threads(events, &ctx, threads);
    assert_eq!(
        matching,
        baseline::match_events(&matcher, events, &ctx),
        "{label}: matching diverged from its baseline"
    );
    assert!(
        matching.interrupted_jobs() > 0,
        "{label}: no matched interruptions"
    );
    // Job ends rarely sit exactly on the default window's edges, so sweep
    // the window until some land on an event's `t - w` (included) or
    // `t + w` (excluded).
    for secs in 1..=WINDOW_SWEEP_SECS {
        let m = Matcher {
            window: Duration::seconds(secs),
            ..matcher
        };
        assert_eq!(
            m.run_with_threads(events, &ctx, threads),
            baseline::match_events(&m, events, &ctx),
            "{label}: matching with a {secs} s window diverged from its baseline"
        );
    }

    let root_cause = classify_root_cause_with_threads(events, &matching, &ctx, threads);
    assert_eq!(
        root_cause,
        baseline::classify_root_cause(events, &matching, &ctx),
        "{label}: root-cause classification diverged from its baseline"
    );

    let fatal_counts = r.midplane.fatal_counts.as_slice();
    assert_eq!(
        VulnerabilityAnalysis::new_with_threads(
            events,
            &matching,
            &root_cause,
            &ctx,
            fatal_counts,
            threads,
        ),
        baseline::vulnerability(events, &matching, &root_cause, &ctx, fatal_counts),
        "{label}: vulnerability ranking diverged from its baseline"
    );

    let dims = ctx.fda_columns();
    let params = pipeline.config.fda;
    assert_eq!(
        FdaAnalysis::compute(events, &matching, dims, &params, threads),
        baseline::fda(events, &matching, dims, &params),
        "{label}: FDA diverged from its baseline"
    );
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
