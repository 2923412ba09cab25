//! The delta-ingestion gate: folding batches through `DeltaSession::append`
//! must be **bit-identical** to a cold full run over the concatenated
//! input — every tick of a time split, the loader's projected base, empty,
//! job-only and span-only batches, plus proptests over random (empty /
//! duplicate / out-of-order) splits of a record stream. Folds of a
//! simulated site's files are in `tests/report_paths.rs`.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, missing_docs)]

use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::{
    load, AppendBatch, CoAnalysis, CoAnalysisConfig, CoAnalysisResult, DeltaSession, LoadOptions,
    StageId,
};
use bgp_coanalysis::joblog::{self, ExecId, ExitStatus, JobLog, JobRecord, ProjectId, UserId};
use bgp_coanalysis::raslog::{self, Catalog, RasLog, RasRecord, Severity};
use bgp_model::Timestamp;

/// Full cold run over the concatenation — the oracle every delta run is
/// compared against.
fn oracle(cfg: CoAnalysisConfig, ras: Vec<RasRecord>, jobs: Vec<JobRecord>) -> CoAnalysisResult {
    CoAnalysis::with_config(cfg).run(&RasLog::from_records(ras), &JobLog::from_jobs(jobs))
}

fn assert_results_identical(delta: &CoAnalysisResult, full: &CoAnalysisResult) {
    // Field-by-field first, so a mismatch names the product that diverged…
    assert_eq!(delta.events, full.events);
    assert_eq!(delta.filter_stats, full.filter_stats);
    assert_eq!(delta.matching, full.matching);
    assert_eq!(delta.events_final, full.events_final);
    assert_eq!(delta.root_cause, full.root_cause);
    assert_eq!(
        delta.observations().to_string(),
        full.observations().to_string()
    );
    // …then the whole report at once.
    assert_eq!(delta, full);
}

/// Split a simulated site's logs at `frac` of the observation window — a
/// "day boundary": RAS records by event time, job rows by start time.
#[allow(clippy::type_complexity)]
fn split_sim(
    seed: u64,
    frac: f64,
) -> (
    (Vec<RasRecord>, Vec<JobRecord>),
    (Vec<RasRecord>, Vec<JobRecord>),
) {
    let out = Simulation::new(SimConfig::small_test(seed))
        .expect("valid config")
        .run();
    let records = out.ras.records();
    let (Some(first), Some(last)) = (records.first(), records.last()) else {
        panic!("simulation produced no records");
    };
    let span = (last.event_time - first.event_time).as_secs();
    let cut = first.event_time + bgp_model::Duration::seconds((span as f64 * frac) as i64);
    let (head, tail): (Vec<RasRecord>, Vec<RasRecord>) =
        records.iter().cloned().partition(|r| r.event_time < cut);
    let (jhead, jtail): (Vec<JobRecord>, Vec<JobRecord>) = out
        .jobs
        .jobs()
        .iter()
        .copied()
        .partition(|j| j.start_time < cut);
    ((head, jhead), (tail, jtail))
}

/// The loader path of `coctl analyze --append`: the base pair comes from
/// `load_pair`, which keeps only the FATAL records, and each appended day
/// from the full `load_ras`. Day 2 here ends on a non-FATAL record days
/// after its last FATAL one, so the observation window (Figure 5's per-day
/// series) reaches past every record the base projection kept: the fold
/// must still equal a one-shot run over the concatenation.
#[test]
fn loaded_fold_keeps_the_span_of_projected_away_records() {
    let cfg = CoAnalysisConfig::default();
    let ((ras1, jobs1), (mut ras2, jobs2)) = split_sim(41, 0.7);
    let mut late = *ras2.last().expect("tail day has records");
    late.recid += 1;
    late.severity = Severity::Info;
    late.event_time += bgp_model::Duration::days(3);
    ras2.push(late);

    let dir = std::env::temp_dir().join(format!("delta-eq-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write_ras = |name: &str, records: &[RasRecord]| {
        let path = dir.join(name);
        raslog::write_log(&mut std::fs::File::create(&path).unwrap(), records).unwrap();
        path
    };
    let write_jobs = |name: &str, jobs: &[JobRecord]| {
        let path = dir.join(name);
        joblog::write_log(&mut std::fs::File::create(&path).unwrap(), jobs).unwrap();
        path
    };
    let all_ras: Vec<RasRecord> = ras1.iter().chain(&ras2).copied().collect();
    let all_jobs: Vec<JobRecord> = jobs1.iter().chain(&jobs2).copied().collect();
    let opts = LoadOptions::default();

    let (base, base_jobs) = load::load_pair(
        &write_ras("day1-ras.log", &ras1),
        &write_jobs("day1-jobs.log", &jobs1),
        &opts,
    )
    .unwrap();
    let day2 = load::load_ras(&write_ras("day2-ras.log", &ras2), &opts).unwrap();
    let (mut session, _) = DeltaSession::new(cfg, &base.log, base_jobs.log);
    let (folded, _) = session.append(AppendBatch {
        ras: day2.log.records().to_vec(),
        jobs: jobs2,
    });

    let (all, all_job_log) = load::load_pair(
        &write_ras("all-ras.log", &all_ras),
        &write_jobs("all-jobs.log", &all_jobs),
        &opts,
    )
    .unwrap();
    let one_shot = CoAnalysis::with_config(cfg).run(&all.log, &all_job_log.log);
    assert_results_identical(&folded, &one_shot);
    assert_results_identical(&one_shot, &oracle(cfg, all_ras, all_jobs));
    // The late record matters: a window that ends at the last FATAL record
    // gives a shorter per-day series.
    let fatal_window = CoAnalysis::with_config(cfg).run(&all.log.fatal_only(), &all_job_log.log);
    assert!(fatal_window.burst.per_day.len() < one_shot.burst.per_day.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_batch_reruns_nothing_and_changes_nothing() {
    let cfg = CoAnalysisConfig::default();
    let ((ras1, jobs1), _) = split_sim(43, 0.5);
    let (mut session, base) =
        DeltaSession::new(cfg, &RasLog::from_records(ras1), JobLog::from_jobs(jobs1));
    let (again, report) = session.append(AppendBatch::default());
    assert!(
        report.reran.is_empty(),
        "clean append re-ran {:?}",
        report.reran.stages()
    );
    assert!(report.changed.is_empty());
    assert_results_identical(&again, &base);
}

#[test]
fn job_only_batch_skips_the_filter_stack() {
    let cfg = CoAnalysisConfig::default();
    let ((ras1, jobs1), (_, jobs2)) = split_sim(44, 0.6);
    assert!(!jobs2.is_empty());
    let mut all_jobs = jobs1.clone();
    all_jobs.extend(jobs2.iter().copied());
    let full = oracle(cfg, ras1.clone(), all_jobs);

    let (mut session, _) =
        DeltaSession::new(cfg, &RasLog::from_records(ras1), JobLog::from_jobs(jobs1));
    let (result, report) = session.append(AppendBatch {
        ras: Vec::new(),
        jobs: jobs2,
    });
    assert_results_identical(&result, &full);
    // No RAS side change: the temporal/spatial and causal filters read only
    // event-side inputs, so they must have been served from cache.
    assert!(!report.reran.contains(StageId::TemporalSpatial));
    assert!(!report.reran.contains(StageId::Causal));
    assert!(report.reran.contains(StageId::Matching));
}

/// A batch of only non-FATAL records past the log's end moves the span and
/// nothing else, so the only dirty context part is `Span`: Burst, whose
/// window reads it, must re-run, and the fold must equal the one-shot run.
#[test]
fn span_only_batch_reruns_burst() {
    let cfg = CoAnalysisConfig::default();
    let out = Simulation::new(SimConfig::small_test(44))
        .expect("valid config")
        .run();
    let (ras, jobs) = (out.ras.records().to_vec(), out.jobs.jobs().to_vec());
    let (last, info) = (
        ras[ras.len() - 1],
        *ras.iter().find(|r| !r.is_fatal()).unwrap(),
    );
    let tail: Vec<RasRecord> = (1..=3)
        .map(|day| RasRecord {
            recid: last.recid + day,
            event_time: last.event_time + bgp_model::Duration::seconds(day as i64 * 86_400),
            ..info
        })
        .collect();
    let mut all = ras.clone();
    all.extend(tail.iter().copied());
    let full = oracle(cfg, all, jobs.clone());

    let (mut session, _) =
        DeltaSession::new(cfg, &RasLog::from_records(ras), JobLog::from_jobs(jobs));
    let (result, report) = session.append(AppendBatch {
        ras: tail,
        jobs: Vec::new(),
    });
    assert_results_identical(&result, &full);
    assert!(report.reran.contains(StageId::Burst));
    assert!(!report.reran.contains(StageId::TemporalSpatial));
}

/// The products of `delta` that differ from `full`, by field name.
fn stale_products(delta: &CoAnalysisResult, full: &CoAnalysisResult) -> Vec<&'static str> {
    let mut stale = Vec::new();
    macro_rules! compare {
        ($($field:ident),*) => {
            $(if delta.$field != full.$field {
                stale.push(stringify!($field));
            })*
        };
    }
    compare!(
        events,
        causal_rules,
        matching,
        job_redundant,
        events_final,
        filter_stats,
        impact,
        root_cause,
        table_iv,
        midplane,
        burst,
        interruption,
        propagation,
        vulnerability,
        fda
    );
    stale
}

/// Live-daemon shape: the full job log up front, then the RAS log in 40
/// equal time slices. Every fold — not just the last — must equal a
/// one-shot run over the prefix, so a stage served from cache while one of
/// its direct inputs changed shows up at the tick it happens.
#[test]
fn every_tick_of_a_time_split_matches_one_shot() {
    const TICKS: i64 = 40;
    let cfg = CoAnalysisConfig::default();
    for seed in [1, 4, 5] {
        let out = Simulation::new(SimConfig::small_test(seed))
            .expect("valid config")
            .run();
        let records = out.ras.records();
        let (Some(first), Some(last)) = (records.first(), records.last()) else {
            panic!("simulation produced no records");
        };
        let t0 = first.event_time;
        let span = (last.event_time - t0).as_secs() + 1;
        let tick_of = |r: &RasRecord| ((r.event_time - t0).as_secs() * TICKS / span) as usize;
        let mut slices: Vec<Vec<RasRecord>> = vec![Vec::new(); TICKS as usize];
        for r in records {
            slices[tick_of(r)].push(*r);
        }

        let mut prefix = slices[0].clone();
        let (mut session, primed) =
            DeltaSession::new(cfg, &RasLog::from_records(prefix.clone()), out.jobs.clone());
        let oracle = |prefix: &[RasRecord]| {
            CoAnalysis::with_config(cfg).run(&RasLog::from_records(prefix.to_vec()), &out.jobs)
        };
        let stale = stale_products(&primed, &oracle(&prefix));
        assert!(
            stale.is_empty(),
            "seed {seed}: priming pass differs in {stale:?}"
        );
        for (tick, slice) in slices.into_iter().enumerate().skip(1) {
            prefix.extend(slice.iter().cloned());
            let (folded, _) = session.append(AppendBatch {
                ras: slice,
                jobs: Vec::new(),
            });
            let stale = stale_products(&folded, &oracle(&prefix));
            assert!(
                stale.is_empty(),
                "seed {seed}: fold {tick} of {TICKS} served stale {stale:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Proptests: adversarial splits of a small synthetic stream.
// ---------------------------------------------------------------------------

/// Palette-built record: `pick` chooses location/code, `t` the second.
fn palette_record(recid: u64, t: i64, pick: usize) -> RasRecord {
    let locs = ["R00-M0", "R00-M1", "R01-M0", "R10-M0"];
    let codes = [
        "_bgp_err_kernel_panic",
        "_bgp_err_ddr_controller",
        "_bgp_err_torus_sender_fifo",
        "_bgp_warn_ecc_corrected", // non-fatal: exercises span-only appends
    ];
    let loc = locs.get(pick % locs.len()).unwrap_or(&locs[0]);
    let code = codes
        .get((pick / locs.len()) % codes.len())
        .unwrap_or(&codes[0]);
    RasRecord::new(
        recid,
        Timestamp::from_unix(t),
        loc.parse().expect("palette location parses"),
        Catalog::standard()
            .lookup(code)
            .expect("palette code exists"),
    )
}

fn palette_job(job_id: u64, exec: u32, start: i64, run: i64, mp: u8) -> JobRecord {
    JobRecord {
        job_id,
        exec: ExecId(exec),
        user: UserId(1),
        project: ProjectId(1),
        queue_time: Timestamp::from_unix(start - 10),
        start_time: Timestamp::from_unix(start),
        end_time: Timestamp::from_unix(start + run),
        partition: bgp_model::Partition::contiguous(mp, 2).expect("small contiguous partition"),
        exit: ExitStatus::Completed,
    }
}

proptest::proptest! {
    /// Any interleaved assignment of a random stream into base/batch —
    /// including duplicated records, repeated timestamps, batches that
    /// land entirely before the base, and batches of nothing — must leave
    /// the delta report byte-identical to the one-shot oracle.
    #[test]
    fn random_split_point_is_bit_identical(
        recs in proptest::collection::vec((0i64..5_000, 0usize..16, 0usize..3), 0..60),
        jobs in proptest::collection::vec((0u8..6, 0i64..5_000, 1i64..2_000, 0usize..2), 0..30),
    ) {
        // side: 0 = base only, 1 = batch only, 2 = both (a duplicate).
        let mut base_ras = Vec::new();
        let mut batch_ras = Vec::new();
        for (i, &(t, pick, side)) in recs.iter().enumerate() {
            let r = palette_record(i as u64, t, pick);
            if side != 1 {
                base_ras.push(r);
            }
            if side != 0 {
                batch_ras.push(r);
            }
        }
        let mut base_jobs = Vec::new();
        let mut batch_jobs = Vec::new();
        for (i, &(mp, start, run, side)) in jobs.iter().enumerate() {
            let j = palette_job(i as u64, i as u32 % 5, start, run, mp);
            if side == 0 {
                base_jobs.push(j);
            } else {
                batch_jobs.push(j);
            }
        }
        let mut all_ras = base_ras.clone();
        all_ras.extend(batch_ras.iter().cloned());
        let mut all_jobs = base_jobs.clone();
        all_jobs.extend(batch_jobs.iter().copied());

        let cfg = CoAnalysisConfig::default();
        let full = oracle(cfg, all_ras, all_jobs);
        let (mut session, _) = DeltaSession::new(
            cfg,
            &RasLog::from_records(base_ras),
            JobLog::from_jobs(base_jobs),
        );
        let (result, _) = session.append(AppendBatch { ras: batch_ras, jobs: batch_jobs });
        proptest::prop_assert_eq!(&result, &full);
    }
}
