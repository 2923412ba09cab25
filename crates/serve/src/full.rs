//! Continuous **full** co-analysis: fold live ingest through the
//! incremental stage graph and serve the complete report at `/analysis`.
//!
//! The online analyzer answers "what independent events are happening?"
//! with dedup counters; this module answers "what does the *whole*
//! co-analysis say right now?". A `Fold` owns a [`DeltaSession`] primed
//! on an empty RAS base plus the `--jobs` log; the daemon's one analysis
//! worker hands it each ingest batch, and [`DeltaSession::append`] re-runs
//! only the stages whose inputs changed — so the published report is
//! bit-identical to a one-shot batch run over everything ingested so far
//! (the delta-equivalence gate). [`FullAnalysis`] is the published side:
//! the latest report behind a short-lived mutex.

use crate::error::ServeError;
use coanalysis::{AppendBatch, CoAnalysisConfig, CoAnalysisResult, DeltaSession, LoadOptions};
use raslog::{RasLog, RasRecord};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// What `/analysis` serves: the latest complete report plus fold counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisSnapshot {
    /// Ingest batches folded so far (0 means only the primed base).
    pub batches: u64,
    /// RAS records folded through the session (the base starts empty).
    pub records: u64,
    /// Stages the last fold re-ran (0..=[`StageId::ALL.len()`]).
    ///
    /// [`StageId::ALL.len()`]: coanalysis::StageId::ALL
    pub last_reran: usize,
    /// Stages whose output actually changed on the last fold.
    pub last_changed: usize,
    /// The full report, formatted exactly like `coctl analyze` prints it.
    pub report: String,
}

impl AnalysisSnapshot {
    /// The `/analysis` response body: two comment lines of fold state, then
    /// the report verbatim.
    pub fn render(&self) -> String {
        format!(
            "# full analysis: {} batches ({} records) folded incrementally\n\
             # last batch: re-ran {}/{} stages, {} changed\n\
             {}",
            self.batches,
            self.records,
            self.last_reran,
            coanalysis::StageId::ALL.len(),
            self.last_changed,
            self.report
        )
    }
}

/// Format a result the way `coctl analyze --fda` prints it to stdout, so
/// the served report can be diffed against an offline run of the same
/// records: [`render_summary`] plus the dimensional root-cause (FDA) table.
/// The table rides along because the online report is exactly where "which
/// user × executable × midplane combination is failing right now?" matters.
pub fn render_report(r: &CoAnalysisResult) -> String {
    format!("{}{}\n", render_summary(r), r.fda)
}

/// Format a result the way plain `coctl analyze` prints it: the filtering
/// funnel, the interruption count, and the observations.
pub fn render_summary(r: &CoAnalysisResult) -> String {
    let s = &r.filter_stats;
    format!(
        "filtering: {} FATAL -> {} events (-{:.2}%), job-related -> {} (-{:.2}%)\n\
         interruptions: {} jobs ({} system / {} application by cause)\n\
         \n\
         {}\n",
        s.raw_fatal,
        s.after_causal,
        100.0 * s.ts_causal_compression(),
        s.after_job_related,
        100.0 * s.job_related_compression(),
        r.matching.interrupted_jobs(),
        r.interruption.system.count,
        r.interruption.application.count,
        r.observations(),
    )
}

/// The latest full report, as published by the analysis worker.
#[derive(Debug)]
pub struct FullAnalysis {
    latest: Mutex<Arc<AnalysisSnapshot>>,
}

impl FullAnalysis {
    /// The latest published snapshot (cheap: clones an `Arc`).
    pub fn snapshot(&self) -> Arc<AnalysisSnapshot> {
        Arc::clone(&self.latest.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, snap: AnalysisSnapshot) {
        *self.latest.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(snap);
    }
}

/// The incremental session the analysis worker owns, plus where it
/// publishes.
#[derive(Debug)]
pub(crate) struct Fold {
    session: DeltaSession,
    published: Arc<FullAnalysis>,
    batches: u64,
    records: u64,
}

impl Fold {
    /// Load the job log and prime a [`DeltaSession`] on it (with an empty
    /// RAS base). A bad job log is a startup error.
    pub(crate) fn start(config: CoAnalysisConfig, jobs_path: &Path) -> Result<Fold, ServeError> {
        let loaded = coanalysis::load::load_jobs(jobs_path, &LoadOptions::default())
            .map_err(|e| ServeError::Config(format!("--jobs {}: {e}", jobs_path.display())))?;
        let (session, base) =
            DeltaSession::new(config, &RasLog::from_records(Vec::new()), loaded.log);
        let published = Arc::new(FullAnalysis {
            latest: Mutex::new(Arc::new(AnalysisSnapshot {
                batches: 0,
                records: 0,
                last_reran: coanalysis::StageId::ALL.len(),
                last_changed: coanalysis::StageId::ALL.len(),
                report: render_report(&base),
            })),
        });
        Ok(Fold {
            session,
            published,
            batches: 0,
            records: 0,
        })
    }

    /// Where this fold publishes.
    pub(crate) fn published(&self) -> &Arc<FullAnalysis> {
        &self.published
    }

    /// Fold one ingest batch and publish the new report. Batch boundaries
    /// follow arrival timing, which is safe precisely because
    /// `DeltaSession::append` is bit-identical to the one-shot run however
    /// the stream is split.
    pub(crate) fn fold(&mut self, ras: Vec<RasRecord>) {
        self.batches += 1;
        self.records += ras.len() as u64;
        let (result, report) = self.session.append(AppendBatch {
            ras,
            jobs: Vec::new(),
        });
        self.published.publish(AnalysisSnapshot {
            batches: self.batches,
            records: self.records,
            last_reran: report.reran.stages().len(),
            last_changed: report.changed.stages().len(),
            report: render_report(&result),
        });
    }
}
