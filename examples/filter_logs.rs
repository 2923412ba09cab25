//! File-based workflow: write the simulated logs to disk in their native
//! text formats, read them back with the parallel byte parsers (caching the
//! parsed form as `.bgpsnap` snapshots), run the filter stack, and write a
//! cleaned RAS log — the tool a site operator would run on real logs.
//!
//! ```text
//! cargo run --release --example filter_logs [output-dir]
//! ```

use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::{load, AnalysisSet, CoAnalysis, LoadOptions, StageId};
use bgp_coanalysis::joblog;
use bgp_coanalysis::raslog;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("bgp-coanalysis-demo"));
    std::fs::create_dir_all(&dir)?;

    // --- produce the "site logs" (stand-in for real CMCS/Cobalt dumps) ---
    let out = Simulation::new(SimConfig::small_test(3))?.run();
    let ras_path = dir.join("intrepid-ras.log");
    let job_path = dir.join("intrepid-jobs.log");
    {
        let mut w = BufWriter::new(File::create(&ras_path)?);
        raslog::write_log(&mut w, out.ras.records())?;
        let mut w = BufWriter::new(File::create(&job_path)?);
        joblog::write_log(&mut w, out.jobs.jobs())?;
    }
    println!(
        "wrote {} ({} records) and {} ({} jobs)",
        ras_path.display(),
        out.ras.len(),
        job_path.display(),
        out.jobs.len()
    );

    // --- read both back concurrently through the tolerant byte parsers,
    //     caching the parsed form as .bgpsnap snapshots for re-runs; the
    //     co-analysis load keeps only the FATAL records it analyzes ---
    let opts = LoadOptions {
        snapshot_dir: Some(dir.join("snapshots")),
        ..LoadOptions::default()
    };
    let (loaded_ras, loaded_jobs) = load::load_pair(&ras_path, &job_path, &opts)?;
    println!(
        "parsed back {} RAS records, kept {} FATAL ({} bad lines, snapshot {}), \
         {} jobs ({} bad lines, snapshot {})",
        loaded_ras.parsed,
        loaded_ras.log.len(),
        loaded_ras.parse_errors.len(),
        loaded_ras.snapshot,
        loaded_jobs.log.len(),
        loaded_jobs.parse_errors.len(),
        loaded_jobs.snapshot
    );
    assert_eq!(loaded_ras.parsed, out.ras.len(), "lossless round trip");
    assert_eq!(loaded_ras.log.len(), out.ras.fatal().count());
    assert_eq!(loaded_jobs.log.len(), out.jobs.len());

    let ras = loaded_ras.log;
    let jobs = loaded_jobs.log;

    // --- run just the filter stack via the stage graph ---
    let result =
        CoAnalysis::default().run_selected(&ras, &jobs, AnalysisSet::of(&[StageId::JobRelated]));
    let s = result.filter_stats.unwrap_or_default();
    let events_final = result.events_final.unwrap_or_default();
    println!(
        "\nfilter stack: {} FATAL -> {} temporal -> {} spatial -> {} causal -> {} job-related",
        s.raw_fatal, s.after_temporal, s.after_spatial, s.after_causal, s.after_job_related
    );
    println!(
        "learned {} causal rules; {} events flagged as job-related redundancy",
        result.causal_rules.as_deref().unwrap_or_default().len(),
        result
            .job_redundant
            .iter()
            .flatten()
            .filter(|&&f| f)
            .count()
    );

    // --- write the cleaned event log: one representative record per event ---
    let clean_path = dir.join("intrepid-ras.filtered.log");
    {
        let mut w = BufWriter::new(File::create(&clean_path)?);
        writeln!(
            w,
            "# independent fatal events after temporal+spatial+causal+job-related filtering"
        )?;
        writeln!(
            w,
            "# columns: <merged record count> <representative record>"
        )?;
        let by_recid: std::collections::HashMap<u64, &raslog::RasRecord> =
            ras.records().iter().map(|r| (r.recid, r)).collect();
        for e in &events_final {
            if let Some(r) = by_recid.get(&e.first_recid) {
                writeln!(w, "{:>6}x {}", e.merged, raslog::format_record(r))?;
            }
        }
    }
    println!(
        "cleaned event log written to {} ({} events standing for {} records)",
        clean_path.display(),
        events_final.len(),
        s.raw_fatal
    );
    Ok(())
}
