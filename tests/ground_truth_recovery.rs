//! Does the co-analysis recover what the simulator actually did?
//!
//! The paper validated against administrator judgment; we can validate
//! against ground truth. These are the repository's core correctness claims
//! for the methodology.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_sim::{FaultNature, SimConfig, SimOutput, Simulation};
use bgp_coanalysis::coanalysis::classify::RootCause;
use bgp_coanalysis::coanalysis::{CoAnalysis, CoAnalysisResult};
use std::sync::OnceLock;

fn runs() -> &'static Vec<(SimOutput, CoAnalysisResult)> {
    static RUNS: OnceLock<Vec<(SimOutput, CoAnalysisResult)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        (0..3u64)
            .map(|seed| {
                let mut cfg = SimConfig::small_test(100 + seed);
                cfg.days = 20;
                cfg.num_execs = 800;
                let out = Simulation::new(cfg).expect("valid config").run();
                let result = CoAnalysis::default().run(&out.ras, &out.jobs);
                (out, result)
            })
            .collect()
    })
}

#[test]
fn interruption_matching_has_high_recall_and_precision() {
    let mut tp = 0usize;
    let mut found = 0usize;
    let mut truth_total = 0usize;
    for (out, result) in runs() {
        truth_total += out.truth.job_cause.len();
        found += result.matching.job_to_event.len();
        tp += result
            .matching
            .job_to_event
            .keys()
            .filter(|id| out.truth.job_cause.contains_key(id))
            .count();
    }
    assert!(truth_total > 30, "not enough true interruptions to judge");
    let recall = tp as f64 / truth_total as f64;
    let precision = tp as f64 / found as f64;
    assert!(recall > 0.85, "recall {recall:.3}");
    assert!(precision > 0.95, "precision {precision:.3}");
}

#[test]
fn root_cause_classification_is_mostly_correct() {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (out, result) in runs() {
        for (&code, &nature) in &out.truth.code_nature {
            let Some(classified) = result.root_cause.cause(code) else {
                continue;
            };
            let expected = match nature {
                FaultNature::ApplicationError => RootCause::ApplicationError,
                // Transients and system failures are both "the system's
                // side" for root-cause purposes.
                FaultNature::SystemFailure | FaultNature::Transient => RootCause::SystemFailure,
            };
            total += 1;
            if classified == expected {
                correct += 1;
            }
        }
    }
    assert!(total > 50, "not enough classified codes: {total}");
    let accuracy = correct as f64 / total as f64;
    assert!(accuracy > 0.8, "accuracy {accuracy:.3} ({correct}/{total})");
}

#[test]
fn impact_classification_finds_the_transient_codes() {
    use bgp_coanalysis::coanalysis::classify::CodeImpact;
    use bgp_coanalysis::raslog::Catalog;
    // Across the runs, the two fatal-labeled transient codes must never be
    // classified as interruption-related (NonFatal or, at worst,
    // undetermined-idle when they never fired under a job).
    let cat = Catalog::standard();
    for name in ["BULK_POWER_FATAL", "_bgp_err_torus_fatal_sum"] {
        let code = cat.lookup(name).unwrap();
        let mut nonfatal_seen = false;
        for (_, result) in runs() {
            match result.impact.per_code.get(&code) {
                Some(CodeImpact::NonFatal) => nonfatal_seen = true,
                Some(CodeImpact::InterruptionRelated) => {
                    panic!("{name} misclassified as interruption-related")
                }
                _ => {}
            }
        }
        assert!(
            nonfatal_seen,
            "{name} never recognized as non-fatal across three runs"
        );
    }
}

#[test]
fn job_related_filter_tracks_true_chains() {
    let mut flagged = 0usize;
    let mut chains = 0usize;
    for (out, result) in runs() {
        flagged += result.job_redundant.iter().filter(|&&f| f).count();
        chains += out.truth.chain_faults();
    }
    assert!(chains > 3, "not enough chain faults to judge: {chains}");
    // The filter also removes buggy-resubmission repeats, so flagged >=
    // chain count is expected; it must find at least half the true chains
    // and not balloon past a few times their number.
    assert!(
        flagged * 2 >= chains,
        "flagged {flagged} vs true chains {chains}"
    );
    assert!(
        flagged <= chains * 5 + 20,
        "flagged {flagged} vs true chains {chains}"
    );
}

#[test]
fn idle_fatal_events_match_truth_fraction() {
    for (out, result) in runs() {
        let truth_idle = out.truth.faults.iter().filter(|f| f.idle_location).count() as f64
            / out.truth.faults.len().max(1) as f64;
        let analysis_idle = result.idle_event_fraction();
        assert!(
            (truth_idle - analysis_idle).abs() < 0.25,
            "idle fraction: truth {truth_idle:.2} vs analysis {analysis_idle:.2}"
        );
    }
}
