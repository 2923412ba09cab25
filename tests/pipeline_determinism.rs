//! Determinism and parallel/sequential equivalence of the full stack.

use bgp_coanalysis::bgp_serve::render_report;
use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::{
    load, AnalysisContext, AnalysisSet, CoAnalysis, CoAnalysisConfig, Event, LoadOptions,
};
use bgp_coanalysis::joblog::{self, JobRecord};
use bgp_coanalysis::raslog::{self, RasRecord};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::path::Path;

#[test]
fn same_seed_same_everything() {
    let a = Simulation::new(SimConfig::small_test(55))
        .expect("valid config")
        .run();
    let b = Simulation::new(SimConfig::small_test(55))
        .expect("valid config")
        .run();
    assert_eq!(a.ras.records(), b.ras.records());
    assert_eq!(a.jobs.jobs(), b.jobs.jobs());
    assert_eq!(a.truth.faults, b.truth.faults);

    let ra = CoAnalysis::default().run(&a.ras, &a.jobs);
    let rb = CoAnalysis::default().run(&b.ras, &b.jobs);
    assert_eq!(ra.events, rb.events);
    assert_eq!(ra.events_final, rb.events_final);
    assert_eq!(ra.matching.job_to_event, rb.matching.job_to_event);
    assert_eq!(
        format!("{}", ra.observations()),
        format!("{}", rb.observations())
    );
}

#[test]
fn parallel_filtering_equals_sequential() {
    let out = Simulation::new(SimConfig::small_test(56))
        .expect("valid config")
        .run();
    let par = CoAnalysis::default().run(&out.ras, &out.jobs);
    let seq = CoAnalysis::with_config(CoAnalysisConfig::sequential()).run(&out.ras, &out.jobs);
    assert_eq!(par.events, seq.events);
    assert_eq!(par.events_final, seq.events_final);
    assert_eq!(par.filter_stats, seq.filter_stats);
    assert_eq!(par.matching, seq.matching);
    assert_eq!(par.impact.per_code, seq.impact.per_code);
}

#[test]
fn different_seeds_differ() {
    let a = Simulation::new(SimConfig::small_test(57))
        .expect("valid config")
        .run();
    let b = Simulation::new(SimConfig::small_test(58))
        .expect("valid config")
        .run();
    assert_ne!(a.ras.len(), b.ras.len());
}

#[test]
fn merged_record_counts_conserved_through_filters() {
    let out = Simulation::new(SimConfig::small_test(59))
        .expect("valid config")
        .run();
    let r = CoAnalysis::default().run(&out.ras, &out.jobs);
    let total_final: u32 = r.events_final.iter().map(|e| e.merged).sum();
    let total_mid: u32 = r.events.iter().map(|e| e.merged).sum();
    assert_eq!(total_final as usize, r.filter_stats.raw_fatal);
    assert_eq!(total_mid as usize, r.filter_stats.raw_fatal);
}

/// Fisher–Yates over a seeded stream.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The two logs as text lines, in the given record order.
fn log_lines(ras: &[RasRecord], jobs: &[JobRecord]) -> (Vec<String>, Vec<String>) {
    (
        ras.iter().map(raslog::format_record).collect(),
        jobs.iter().map(joblog::format_record).collect(),
    )
}

/// Write the two logs, load them through `load_pair` at `threads`, and
/// render the full report.
#[expect(
    clippy::expect_used,
    reason = "a failed write or load is a test failure"
)]
fn report_of(dir: &Path, (ras, jobs): &(Vec<String>, Vec<String>), threads: usize) -> String {
    let (ras_path, jobs_path) = (dir.join("ras.log"), dir.join("jobs.log"));
    std::fs::write(&ras_path, ras.join("\n") + "\n").expect("write RAS log");
    std::fs::write(&jobs_path, jobs.join("\n") + "\n").expect("write job log");
    let opts = LoadOptions {
        threads,
        ..LoadOptions::default()
    };
    let (ras, jobs) = load::load_pair(&ras_path, &jobs_path, &opts).expect("logs load");
    render_report(&CoAnalysis::default().run(&ras.log, &jobs.log))
}

#[test]
fn report_is_invariant_to_line_order() {
    // Records may arrive in any order; the loader's `(time, recid)` and
    // `(start, job_id)` sorts must make the report a function of the
    // record set, not of the line order. (Reorders within one second are a
    // dirty copy in `tests/report_paths.rs`.)
    let out = Simulation::new(SimConfig::small_test(60))
        .expect("valid config")
        .run();
    let (mut ras, mut jobs) = (out.ras.records().to_vec(), out.jobs.jobs().to_vec());
    let dir = std::env::temp_dir().join(format!("bgp-line-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let expected = report_of(&dir, &log_lines(&ras, &jobs), 1);
    let mut rng = SmallRng::seed_from_u64(61);
    shuffle(&mut ras, &mut rng);
    shuffle(&mut jobs, &mut rng);
    let shuffled = log_lines(&ras, &jobs);
    for threads in [1, 4] {
        assert!(
            report_of(&dir, &shuffled, threads) == expected,
            "shuffled logs at {threads} threads changed the report"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn event_stream_order_does_not_change_the_products() {
    // A context built from a reversed or shuffled copy of the fatal event
    // stream must hold the stream in `(time, first_recid)` order, and so
    // yield the products of the sorted stream.
    let out = Simulation::new(SimConfig::small_test(62))
        .expect("valid config")
        .run();
    let sorted = Event::from_fatal_records(&out.ras);
    let products = |events: Vec<Event>| {
        let ctx = AnalysisContext::from_events(events, out.ras.time_span(), &out.jobs);
        CoAnalysis::default().run_on(&ctx, AnalysisSet::all())
    };
    let expected = products(sorted.clone());
    let mut reversed = sorted.clone();
    reversed.reverse();
    let mut shuffled = sorted;
    shuffle(&mut shuffled, &mut SmallRng::seed_from_u64(63));
    for (name, events) in [("reversed", reversed), ("shuffled", shuffled)] {
        assert!(
            products(events) == expected,
            "a {name} event stream changed the products"
        );
    }
}

#[test]
fn every_interrupted_job_is_attributed_exactly_once() {
    // The attribution law: `job_to_event` and the per-event victim lists
    // are two views of one relation. Each attributed job is a victim of
    // exactly the event it maps to, no victim is unattributed, and the
    // interruption statistics count each such job once.
    for seed in [62, 63] {
        let out = Simulation::new(SimConfig::small_test(seed))
            .expect("valid config")
            .run();
        for threads in [1, 4] {
            let cfg = CoAnalysisConfig {
                threads,
                ..CoAnalysisConfig::default()
            };
            let r = CoAnalysis::with_config(cfg).run(&out.ras, &out.jobs);
            let m = &r.matching;
            assert!(
                !m.job_to_event.is_empty(),
                "seed {seed}: no interruptions, the law would be vacuous"
            );
            for (&job_id, &idx) in &m.job_to_event {
                let holders: Vec<usize> = m
                    .per_event
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.victims.contains(&job_id))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    holders,
                    vec![idx],
                    "seed {seed}, {threads} threads: job {job_id}"
                );
            }
            let victims: usize = m.per_event.iter().map(|e| e.victims.len()).sum();
            assert_eq!(
                victims,
                m.job_to_event.len(),
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                r.interruption.total(),
                m.job_to_event.len(),
                "seed {seed}, {threads} threads"
            );
        }
    }
}
