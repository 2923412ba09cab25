//! Continuous **full** co-analysis: fold live ingest through the
//! incremental stage graph and serve the complete report at `/analysis`.
//!
//! The shard pool answers "what independent events are happening?" with
//! online dedup counters; this module answers "what does the *whole*
//! co-analysis say right now?". A single worker thread owns a
//! [`DeltaSession`] primed on an empty RAS base plus the `--jobs` log, and
//! folds batches of ingested records through
//! [`DeltaSession::append`] — so each fold re-runs only the stages whose
//! inputs changed, and the published report is bit-identical to a one-shot
//! batch run over everything ingested so far (the delta-equivalence gate).
//!
//! Concurrency shape mirrors the shard pool: a bounded queue between the
//! ingest sources and the worker (a full queue counts a backpressure stall
//! and then blocks — records are never dropped), the latest report behind a
//! short-lived mutex, and a close/join drain on shutdown.

use crate::error::ServeError;
use crate::metrics::ServeMetrics;
use coanalysis::{AppendBatch, CoAnalysisConfig, CoAnalysisResult, DeltaSession, LoadOptions};
use raslog::{RasLog, RasRecord};
use std::path::Path;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

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
/// records. The dimensional root-cause (FDA) table rides along: the online
/// report is exactly where "which user × executable × midplane combination
/// is failing right now?" matters.
pub fn render_report(r: &CoAnalysisResult) -> String {
    let s = &r.filter_stats;
    format!(
        "filtering: {} FATAL -> {} events (-{:.2}%), job-related -> {} (-{:.2}%)\n\
         interruptions: {} jobs ({} system / {} application by cause)\n\
         \n\
         {}\n\
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
        r.fda
    )
}

/// The continuous-analysis worker: a bounded queue in, the latest full
/// report out.
#[derive(Debug)]
pub struct FullAnalysis {
    /// `None` once closed; dropping the sender lets the worker drain.
    sender: Mutex<Option<SyncSender<RasRecord>>>,
    latest: Arc<Mutex<Arc<AnalysisSnapshot>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

fn lock_latest(latest: &Mutex<Arc<AnalysisSnapshot>>) -> Arc<AnalysisSnapshot> {
    Arc::clone(&latest.lock().unwrap_or_else(PoisonError::into_inner))
}

impl FullAnalysis {
    /// Load the job log, prime a [`DeltaSession`] on it (with an empty RAS
    /// base), and start the worker thread.
    pub fn start(
        config: CoAnalysisConfig,
        jobs_path: &Path,
        queue_capacity: usize,
    ) -> Result<FullAnalysis, ServeError> {
        let loaded = coanalysis::load::load_jobs(jobs_path, &LoadOptions::default())
            .map_err(|e| ServeError::Config(format!("--jobs {}: {e}", jobs_path.display())))?;
        let (session, base) =
            DeltaSession::new(config, &RasLog::from_records(Vec::new()), loaded.log);
        let latest = Arc::new(Mutex::new(Arc::new(AnalysisSnapshot {
            batches: 0,
            records: 0,
            last_reran: coanalysis::StageId::ALL.len(),
            last_changed: coanalysis::StageId::ALL.len(),
            report: render_report(&base),
        })));
        let (tx, rx) = sync_channel::<RasRecord>(queue_capacity.max(1));
        let worker_latest = Arc::clone(&latest);
        let handle = std::thread::Builder::new()
            .name("bgp-serve-full".to_owned())
            .spawn(move || worker_loop(&rx, session, &worker_latest))
            .map_err(ServeError::Spawn)?;
        Ok(FullAnalysis {
            sender: Mutex::new(Some(tx)),
            latest,
            worker: Mutex::new(Some(handle)),
        })
    }

    /// The latest published snapshot (cheap: clones an `Arc`).
    pub fn snapshot(&self) -> Arc<AnalysisSnapshot> {
        lock_latest(&self.latest)
    }

    /// Queue one ingested record for the next fold.
    ///
    /// Bounded-queue semantics match
    /// [`ShardPool::push`](crate::shard::ShardPool::push): a full queue
    /// counts one backpressure stall and then blocks. After
    /// [`FullAnalysis::close`] the record is silently ignored — the daemon
    /// is draining.
    pub fn offer(&self, rec: RasRecord, metrics: &ServeMetrics) {
        let sender = {
            let guard = self.sender.lock().unwrap_or_else(PoisonError::into_inner);
            guard.as_ref().cloned()
        };
        let Some(sender) = sender else { return };
        match sender.try_send(rec) {
            Ok(()) => {}
            Err(TrySendError::Full(rec)) => {
                metrics.backpressure_stalls.inc();
                let _ = sender.send(rec);
            }
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    /// Stop accepting records. Queued records are still folded.
    pub fn close(&self) {
        let mut guard = self.sender.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = None;
    }

    /// Wait for the worker to fold everything queued and exit. Call after
    /// [`FullAnalysis::close`]; afterwards [`FullAnalysis::snapshot`]
    /// covers every record ever offered.
    pub fn join(&self) {
        let handle = {
            let mut guard = self.worker.lock().unwrap_or_else(PoisonError::into_inner);
            guard.take()
        };
        if let Some(h) = handle {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Drain the queue in batches: block for one record, sweep up everything
/// else already queued, fold the batch, publish. Batch boundaries follow
/// arrival timing, which is safe precisely because `DeltaSession::append`
/// is bit-identical to the one-shot run however the stream is split.
fn worker_loop(
    rx: &Receiver<RasRecord>,
    mut session: DeltaSession,
    latest: &Mutex<Arc<AnalysisSnapshot>>,
) {
    let mut batches = 0u64;
    let mut records = 0u64;
    while let Ok(first) = rx.recv() {
        let mut ras = vec![first];
        while let Ok(more) = rx.try_recv() {
            ras.push(more);
        }
        batches += 1;
        records += ras.len() as u64;
        let (result, report) = session.append(AppendBatch {
            ras,
            jobs: Vec::new(),
        });
        let snap = Arc::new(AnalysisSnapshot {
            batches,
            records,
            last_reran: report.reran.stages().len(),
            last_changed: report.changed.stages().len(),
            report: render_report(&result),
        });
        let mut guard = latest.lock().unwrap_or_else(PoisonError::into_inner);
        *guard = snap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coanalysis::CoAnalysis;
    use raslog::Catalog;
    use std::io::Write;

    fn rec(recid: u64, t: i64, name: &str, loc: &str) -> RasRecord {
        RasRecord::new(
            recid,
            bgp_model::Timestamp::from_unix(t),
            loc.parse().expect("location parses"),
            Catalog::standard().lookup(name).expect("known code"),
        )
    }

    #[test]
    fn folded_report_matches_one_shot_run() {
        let out = bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(17))
            .expect("valid config")
            .run();
        let dir = std::env::temp_dir().join(format!("bgp-serve-full-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let jobs_path = dir.join("jobs.log");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&jobs_path).expect("create"));
        joblog::write_log(&mut w, out.jobs.jobs()).expect("write jobs");
        w.flush().expect("flush");
        drop(w);

        let full = FullAnalysis::start(CoAnalysisConfig::default(), &jobs_path, 64)
            .expect("worker starts");
        let registry = crate::metrics::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        for r in out.ras.records() {
            full.offer(*r, &metrics);
        }
        full.close();
        full.join();
        let snap = full.snapshot();
        assert_eq!(snap.records, out.ras.records().len() as u64);
        assert!(snap.batches >= 1);
        let oracle = CoAnalysis::default().run(&out.ras, &out.jobs);
        assert_eq!(snap.report, render_report(&oracle));
        assert!(snap.render().starts_with("# full analysis:"));
        let _ = std::fs::remove_file(&jobs_path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn offers_after_close_are_ignored() {
        let dir = std::env::temp_dir().join(format!("bgp-serve-full2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let jobs_path = dir.join("jobs.log");
        std::fs::write(&jobs_path, "").expect("write empty jobs");
        let full =
            FullAnalysis::start(CoAnalysisConfig::default(), &jobs_path, 4).expect("worker starts");
        full.close();
        full.join();
        let registry = crate::metrics::Registry::new();
        let metrics = ServeMetrics::register(&registry);
        full.offer(
            rec(1, 100, "_bgp_err_kernel_panic", "R00-M0-N00-J00"),
            &metrics,
        );
        assert_eq!(full.snapshot().batches, 0);
        let _ = std::fs::remove_file(&jobs_path);
        let _ = std::fs::remove_dir(&dir);
    }
}
