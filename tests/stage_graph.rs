//! Golden equivalence of the stage-graph pipeline with the legacy
//! monolithic sequence, plus the `AnalysisSet` subset law.
//!
//! The refactor's promise is *structural*, not behavioral: running the
//! stage graph over a shared `AnalysisContext` must reproduce exactly
//! what the old hand-wired `CoAnalysis::run` computed. This test re-wires
//! the legacy sequence by hand from the public stage building blocks and
//! compares every `CoAnalysisResult` field on five simulation seeds; a
//! proptest then checks that *any* of the 8192 subsets of the 13 stages
//! agrees with the full run on every product it emits.

#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_sim::{SimConfig, SimOutput, Simulation};
use bgp_coanalysis::coanalysis::analysis::failure_stats::TableIv;
use bgp_coanalysis::coanalysis::analysis::fda::JobDims;
use bgp_coanalysis::coanalysis::analysis::{
    BurstAnalysis, FdaAnalysis, InterruptionStats, MidplaneProfile, PropagationAnalysis,
    VulnerabilityAnalysis,
};
use bgp_coanalysis::coanalysis::classify::{classify_impact, classify_root_cause};
use bgp_coanalysis::coanalysis::event::Event;
use bgp_coanalysis::coanalysis::filter::{FilterStats, JobRelatedFilter};
use bgp_coanalysis::coanalysis::{
    AnalysisSet, CoAnalysis, CoAnalysisConfig, CoAnalysisResult, StageId,
};
use proptest::proptest;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The legacy monolithic pipeline, re-wired by hand from the public stage
/// building blocks, exactly as `CoAnalysis::run` was before the stage
/// graph. It hands each analysis the job log directly, so no part of it
/// runs through the context layer it checks.
fn legacy_run(out: &SimOutput, cfg: &CoAnalysisConfig) -> CoAnalysisResult {
    let jobs = &out.jobs;
    let raw: Vec<Event> = Event::from_fatal_records(&out.ras);

    // Temporal + spatial per error-code shard, sequentially, in sorted
    // code order.
    let mut shards: BTreeMap<_, Vec<Event>> = BTreeMap::new();
    for e in &raw {
        shards.entry(e.errcode).or_default().push(*e);
    }
    let mut after_temporal = 0usize;
    let mut after_spatial: Vec<Event> = Vec::new();
    for shard in shards.values() {
        let t = cfg.temporal.apply(shard);
        after_temporal += t.len();
        after_spatial.extend(cfg.spatial.apply(&t));
    }
    after_spatial.sort_by_key(|e| (e.time, e.first_recid));

    let (events, causal_rules) = cfg.causal.filter(&after_spatial);
    let matching = cfg.matcher.run(&events, jobs);
    let outcome = JobRelatedFilter.apply(&events, &matching, jobs);

    let filter_stats = FilterStats {
        raw_fatal: raw.len(),
        after_temporal,
        after_spatial: after_spatial.len(),
        after_causal: events.len(),
        after_job_related: outcome.events.len(),
    };

    let impact = classify_impact(&events, &matching);
    let root_cause = classify_root_cause(&events, &matching, jobs);

    let table_iv = TableIv::new(&events, &outcome.events).ok();
    let midplane = MidplaneProfile::new(&outcome.events, jobs, cfg.wide_threshold);
    let victims = matching.interrupted_records(jobs);
    let window = out.ras.time_span().unwrap_or((
        bgp_coanalysis::bgp_model::Timestamp::EPOCH,
        bgp_coanalysis::bgp_model::Timestamp::EPOCH,
    ));
    let burst = BurstAnalysis::new(&victims, jobs, window, cfg.quick_window);
    let interruption = InterruptionStats::new(&events, &matching, &root_cause, jobs);
    let propagation = PropagationAnalysis::new(&events, &matching, jobs, &outcome.redundant);
    let vulnerability = VulnerabilityAnalysis::new(
        &events,
        &matching,
        &root_cause,
        jobs,
        &midplane.fatal_counts,
    );
    let dims = JobDims::from_jobs(jobs.jobs());
    let fda = FdaAnalysis::compute(&events, &matching, &dims, jobs, &cfg.fda);

    CoAnalysisResult {
        events,
        causal_rules,
        matching,
        job_redundant: outcome.redundant,
        events_final: outcome.events,
        filter_stats,
        impact,
        root_cause,
        table_iv,
        midplane,
        burst,
        interruption,
        propagation,
        vulnerability,
        fda,
    }
}

fn assert_results_equal(legacy: &CoAnalysisResult, graph: &CoAnalysisResult, seed: u64) {
    assert_eq!(legacy.events, graph.events, "events differ (seed {seed})");
    assert_eq!(
        legacy.causal_rules, graph.causal_rules,
        "causal rules differ (seed {seed})"
    );
    assert_eq!(
        legacy.matching, graph.matching,
        "matching differs (seed {seed})"
    );
    assert_eq!(
        legacy.job_redundant, graph.job_redundant,
        "redundancy flags differ (seed {seed})"
    );
    assert_eq!(
        legacy.events_final, graph.events_final,
        "final events differ (seed {seed})"
    );
    assert_eq!(
        legacy.filter_stats, graph.filter_stats,
        "filter stats differ (seed {seed})"
    );
    assert_eq!(legacy.impact, graph.impact, "impact differs (seed {seed})");
    assert_eq!(
        legacy.root_cause, graph.root_cause,
        "root cause differs (seed {seed})"
    );
    assert_eq!(
        legacy.table_iv, graph.table_iv,
        "table IV differs (seed {seed})"
    );
    assert_eq!(
        legacy.midplane, graph.midplane,
        "midplane profile differs (seed {seed})"
    );
    assert_eq!(legacy.burst, graph.burst, "burst differs (seed {seed})");
    assert_eq!(
        legacy.interruption, graph.interruption,
        "interruption differs (seed {seed})"
    );
    assert_eq!(
        legacy.propagation, graph.propagation,
        "propagation differs (seed {seed})"
    );
    assert_eq!(
        legacy.vulnerability, graph.vulnerability,
        "vulnerability differs (seed {seed})"
    );
    assert_eq!(legacy.fda, graph.fda, "fda differs (seed {seed})");
}

#[test]
fn stage_graph_reproduces_legacy_pipeline() {
    for seed in 1..=5u64 {
        let out = Simulation::new(SimConfig::small_test(seed))
            .expect("valid config")
            .run();
        let cfg = CoAnalysisConfig::default();
        let legacy = legacy_run(&out, &cfg);
        let graph = CoAnalysis::with_config(cfg).run(&out.ras, &out.jobs);
        assert_results_equal(&legacy, &graph, seed);
    }
}

/// Shared fixture for the subset proptest: one simulation plus its full
/// stage-graph run.
fn fixture() -> &'static (SimOutput, CoAnalysisResult) {
    static FIXTURE: OnceLock<(SimOutput, CoAnalysisResult)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = Simulation::new(SimConfig::small_test(11))
            .expect("valid config")
            .run();
        let full = CoAnalysis::default().run(&out.ras, &out.jobs);
        (out, full)
    })
}

proptest! {
    /// Any of the 2^13 stage subsets agrees with the full run on every
    /// product it emits — and emits exactly the closure's products.
    #[test]
    fn any_subset_agrees_with_full_run(bits in 0u16..(1 << StageId::ALL.len())) {
        let (out, full) = fixture();
        let set = AnalysisSet::of(
            &StageId::ALL
                .iter()
                .enumerate()
                .filter(|&(i, _)| bits & (1 << i) != 0)
                .map(|(_, &id)| id)
                .collect::<Vec<_>>(),
        );
        let closed = set.closure();
        let r = CoAnalysis::default().run_selected(&out.ras, &out.jobs, set);

        // Presence: a product is Some exactly when its stage is in the
        // closure.
        assert_eq!(r.events.is_some(), closed.contains(StageId::Causal));
        assert_eq!(r.causal_rules.is_some(), closed.contains(StageId::Causal));
        assert_eq!(r.matching.is_some(), closed.contains(StageId::Matching));
        assert_eq!(r.job_redundant.is_some(), closed.contains(StageId::JobRelated));
        assert_eq!(r.events_final.is_some(), closed.contains(StageId::JobRelated));
        assert_eq!(r.filter_stats.is_some(), closed.contains(StageId::JobRelated));
        assert_eq!(r.impact.is_some(), closed.contains(StageId::Impact));
        assert_eq!(r.root_cause.is_some(), closed.contains(StageId::RootCause));
        assert_eq!(r.table_iv.is_some(), closed.contains(StageId::TableIv));
        assert_eq!(r.midplane.is_some(), closed.contains(StageId::Midplane));
        assert_eq!(r.burst.is_some(), closed.contains(StageId::Burst));
        assert_eq!(r.interruption.is_some(), closed.contains(StageId::Interruption));
        assert_eq!(r.propagation.is_some(), closed.contains(StageId::Propagation));
        assert_eq!(r.vulnerability.is_some(), closed.contains(StageId::Vulnerability));
        assert_eq!(r.fda.is_some(), closed.contains(StageId::Fda));

        // Agreement: every emitted product equals the full run's.
        if let Some(v) = &r.events { assert_eq!(v, &full.events); }
        if let Some(v) = &r.causal_rules { assert_eq!(v, &full.causal_rules); }
        if let Some(v) = &r.matching { assert_eq!(v, &full.matching); }
        if let Some(v) = &r.job_redundant { assert_eq!(v, &full.job_redundant); }
        if let Some(v) = &r.events_final { assert_eq!(v, &full.events_final); }
        if let Some(v) = &r.filter_stats { assert_eq!(v, &full.filter_stats); }
        if let Some(v) = &r.impact { assert_eq!(v, &full.impact); }
        if let Some(v) = &r.root_cause { assert_eq!(v, &full.root_cause); }
        if let Some(v) = &r.table_iv { assert_eq!(v, &full.table_iv); }
        if let Some(v) = &r.midplane { assert_eq!(v, &full.midplane); }
        if let Some(v) = &r.burst { assert_eq!(v, &full.burst); }
        if let Some(v) = &r.interruption { assert_eq!(v, &full.interruption); }
        if let Some(v) = &r.propagation { assert_eq!(v, &full.propagation); }
        if let Some(v) = &r.vulnerability { assert_eq!(v, &full.vulnerability); }
        if let Some(v) = &r.fda { assert_eq!(v, &full.fda); }
    }
}
