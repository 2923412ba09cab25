//! Integration tests for the Section VII recommendations implemented on top
//! of the core methodology: warning policies, precursor prediction,
//! checkpoint replay, outage reconstruction, and the online analyzer.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_sim::{SimConfig, SimOutput, Simulation};
use bgp_coanalysis::coanalysis::analysis::checkpoint::standard_study;
use bgp_coanalysis::coanalysis::analysis::repair::{reconstruct_outages, summarize};
use bgp_coanalysis::coanalysis::classify::RootCause;
use bgp_coanalysis::coanalysis::predict::{evaluate_policies, PrecursorPredictor};
use bgp_coanalysis::coanalysis::stream::OnlineAnalyzer;
use bgp_coanalysis::coanalysis::{CoAnalysis, CoAnalysisResult};
use std::sync::OnceLock;

fn run() -> &'static (SimOutput, CoAnalysisResult) {
    static RUN: OnceLock<(SimOutput, CoAnalysisResult)> = OnceLock::new();
    RUN.get_or_init(|| {
        let mut cfg = SimConfig::small_test(77);
        cfg.days = 45;
        cfg.num_execs = 1_800;
        let out = Simulation::new(cfg).expect("valid config").run();
        let result = CoAnalysis::default().run(&out.ras, &out.jobs);
        (out, result)
    })
}

#[test]
fn warning_policies_strictly_improve_precision_without_losing_recall() {
    let (_, r) = run();
    let scores = evaluate_policies(&r.events, &r.matching, &r.impact);
    assert_eq!(scores.len(), 3);
    for w in scores.windows(2) {
        assert!(
            w[1].warnings <= w[0].warnings,
            "policies must be increasingly selective"
        );
        assert!(w[1].precision() >= w[0].precision());
    }
    let best = scores.last().unwrap();
    assert_eq!(best.recall(), 1.0, "location filter must not lose events");
    assert!(best.precision() > 0.9, "precision {}", best.precision());
}

#[test]
fn precursor_predictor_gives_positive_lead_time() {
    let (out, r) = run();
    let score = PrecursorPredictor::default().evaluate(&out.ras, &r.events, &r.matching);
    assert!(score.alerts > 0);
    assert!(score.precision() > 0.2, "precision {}", score.precision());
    if let Some(lead) = score.median_lead_secs {
        assert!(lead > 0);
        assert!(lead < 8 * 3600, "lead {lead} exceeds the horizon");
    }
}

#[test]
fn informed_checkpointing_beats_naive_policies() {
    let (out, r) = run();
    let causes: std::collections::BTreeMap<u64, RootCause> = r
        .matching
        .job_to_event
        .iter()
        .map(|(&job_id, &idx)| {
            (
                job_id,
                r.root_cause
                    .cause(r.events[idx].errcode)
                    .unwrap_or(RootCause::SystemFailure),
            )
        })
        .collect();
    let mtti = r.interruption.system.mtti().unwrap_or(100_000.0);
    let ctx = bgp_coanalysis::coanalysis::AnalysisContext::for_jobs(&out.jobs);
    let outcomes = standard_study(&ctx, &causes, mtti, 300.0, 32);
    assert_eq!(outcomes.len(), 3);
    let naked = outcomes[0].total_cost();
    let informed = outcomes[2].total_cost();
    assert!(
        informed < naked,
        "informed {informed} should beat naked {naked}"
    );
    // The informed policy checkpoints far fewer jobs than blanket periodic.
    assert!(outcomes[2].jobs_checkpointing < outcomes[1].jobs_checkpointing / 2);
}

#[test]
fn outage_reconstruction_is_internally_consistent() {
    let (out, r) = run();
    let episodes = reconstruct_outages(&r.events, &r.matching, &out.jobs);
    let s = summarize(&episodes);
    assert_eq!(s.episodes, episodes.len());
    for e in &episodes {
        assert!(e.victims >= 2);
        assert!(e.min_duration_secs() >= 0);
        if let Some(max) = e.max_duration_secs() {
            assert!(max >= e.min_duration_secs());
        }
    }
    assert_eq!(
        s.total_victims,
        episodes.iter().map(|e| e.victims).sum::<usize>()
    );
}

#[test]
fn online_analyzer_matches_batch_on_the_same_stream() {
    let (out, r) = run();
    let mut online = OnlineAnalyzer::new().with_impact(r.impact.clone());
    for rec in out.ras.records() {
        online.push(rec);
    }
    // Temporal+spatial equivalence (causal/job-related need hindsight).
    assert_eq!(
        online.events_out() as usize,
        r.filter_stats.after_spatial,
        "online events must equal the batch temporal+spatial count"
    );
    // The learned impact map silences at least the transient codes.
    assert!(online.warnings() <= online.events_out());
}

#[test]
fn fault_aware_rerun_reduces_interruptions_same_seed() {
    let (out, _) = run();
    let mut cfg = out.config.clone();
    cfg.fault_aware_scheduler = true;
    let aware = Simulation::new(cfg).expect("valid config").run();
    assert!(aware.truth.chain_faults() <= out.truth.chain_faults());
    assert!(aware.truth.total_interruptions() <= out.truth.total_interruptions());
}
