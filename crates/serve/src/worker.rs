//! The daemon's one analysis worker: one bounded queue feeds one thread,
//! which owns the daemon's single [`OnlineAnalyzer`] and, with
//! `--full-analysis`, its [`Fold`].
//!
//! The worker drains the queue in batches: it blocks for one record, then
//! sweeps up everything already queued. Each record goes through the
//! analyzer (new events land in the `/events` ring); the batch is then
//! folded, and only then published, in this order:
//!
//! 1. the batch's deltas are added to the six stream counters in
//!    [`ServeMetrics`];
//! 2. the analyzer's [`StreamCounters`] snapshot is stored, which is what
//!    [`Worker::counters`] (and so `/summary` and the final summary) reads.
//!
//! A reader that sees `records_in == n` therefore also sees `/metrics` and
//! `/analysis` covering those `n` records.
//!
//! Backpressure is explicit: the queue is bounded, and a full queue first
//! counts a stall and then blocks the ingest source (records are never
//! silently dropped — drop accounting lives at the protocol layer, where
//! malformed and oversized lines are rejected). Closing refuses further
//! records and queues a close message behind the ones already queued; the
//! worker drains them all before it ends on that message, which is what
//! makes graceful shutdown lossless. No lock guards the queue: the sender
//! is shared as is, the closed state is an atomic flag, and the thread's
//! handle goes to whoever joins it.

use crate::error::ServeError;
use crate::full::Fold;
use crate::locked::Locked;
use crate::metrics::ServeMetrics;
use crate::ring::{EventEntry, EventRing};
use coanalysis::stream::{OnlineAnalyzer, StreamCounters, StreamDecision};
use raslog::{Catalog, RasRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What the queue carries.
#[derive(Debug)]
enum Msg {
    Record(RasRecord),
    /// Sent once, by [`Worker::close`]: the worker ends after it.
    Close,
}

/// The queue and its worker. Shareable across ingest sources via `Arc`.
#[derive(Debug)]
pub(crate) struct Worker {
    sender: SyncSender<Msg>,
    /// Set by [`Worker::close`]; [`Worker::push`] refuses records after it.
    closed: AtomicBool,
    /// The analyzer's counters as of the last published batch.
    counters: Arc<Locked<StreamCounters>>,
}

impl Worker {
    /// Spawn the worker thread and return the running queue, with the
    /// thread's handle: joining it after [`Worker::close`] waits for the
    /// worker to drain, fold and publish everything queued, after which
    /// [`Worker::counters`] covers every record [`Worker::push`] accepted.
    pub(crate) fn start(
        analyzer: OnlineAnalyzer,
        fold: Option<Fold>,
        queue_capacity: usize,
        metrics: &Arc<ServeMetrics>,
        ring: &Arc<EventRing>,
    ) -> Result<(Worker, JoinHandle<()>), ServeError> {
        let (tx, rx) = sync_channel(queue_capacity.max(1));
        let counters = Arc::new(Locked::new(StreamCounters::default()));
        let published = Arc::clone(&counters);
        let metrics = Arc::clone(metrics);
        let ring = Arc::clone(ring);
        let handle = std::thread::Builder::new()
            .name("bgp-serve-worker".to_owned())
            .spawn(move || run(&rx, analyzer, fold, &metrics, &ring, &published))
            .map_err(ServeError::Spawn)?;
        let worker = Worker {
            sender: tx,
            closed: AtomicBool::new(false),
            counters,
        };
        Ok((worker, handle))
    }

    /// Queue one record.
    ///
    /// Bounded-queue semantics: a full queue counts one backpressure stall
    /// on `metrics` and then blocks until the worker catches up — the record
    /// is never dropped. Returns [`ServeError::QueueClosed`] after
    /// [`Worker::close`], so a source stops.
    pub(crate) fn push(&self, rec: RasRecord, metrics: &ServeMetrics) -> Result<(), ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::QueueClosed);
        }
        metrics.queue_depth.add(1);
        let sent = match self.sender.try_send(Msg::Record(rec)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(msg)) => {
                metrics.backpressure_stalls.inc();
                self.sender.send(msg).map_err(|_| ServeError::QueueClosed)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::QueueClosed),
        };
        if sent.is_err() {
            metrics.queue_depth.add(-1);
        }
        sent
    }

    /// The stream counters as of the last published batch.
    pub(crate) fn counters(&self) -> StreamCounters {
        self.counters.with(|c| *c)
    }

    /// Stop accepting records. Queued records are still drained. Call it
    /// once no source pushes any more (the server joins every source
    /// first): a push racing it could queue a record behind the close
    /// message, which the worker may never read.
    pub(crate) fn close(&self) {
        if !self.closed.swap(true, Ordering::SeqCst) {
            // Blocks while the queue is full; the worker is draining it. An
            // error means the worker is gone, which is what close asks.
            let _ = self.sender.send(Msg::Close);
        }
    }
}

/// The worker loop: drain a batch, analyze it, fold it, publish it.
fn run(
    rx: &Receiver<Msg>,
    mut analyzer: OnlineAnalyzer,
    mut fold: Option<Fold>,
    metrics: &ServeMetrics,
    ring: &EventRing,
    published: &Locked<StreamCounters>,
) {
    let mut open = true;
    while open {
        let Ok(first) = rx.recv() else { return };
        let mut batch = Vec::new();
        for msg in std::iter::once(first).chain(rx.try_iter()) {
            match msg {
                Msg::Record(rec) => batch.push(rec),
                // This batch is the last one.
                Msg::Close => open = false,
            }
        }
        if batch.is_empty() {
            continue;
        }
        metrics.queue_depth.add(-(batch.len() as i64));
        let before = analyzer.counters();
        for rec in &batch {
            if let StreamDecision::NewEvent { warn } = analyzer.push(rec) {
                ring.push(EventEntry {
                    recid: rec.recid,
                    time: rec.event_time,
                    location: rec.location.to_string(),
                    code: Catalog::standard().info(rec.errcode).name.to_owned(),
                    warn,
                });
            }
        }
        if let Some(fold) = &mut fold {
            fold.fold(batch);
        }
        let after = analyzer.counters();
        metrics.records_in.add(after.records_in - before.records_in);
        metrics.fatal_in.add(after.fatal_in - before.fatal_in);
        metrics
            .merged_temporal
            .add(after.merged_temporal - before.merged_temporal);
        metrics
            .merged_spatial
            .add(after.merged_spatial - before.merged_spatial);
        metrics.events_out.add(after.events_out - before.events_out);
        metrics.warnings.add(after.warnings - before.warnings);
        published.with(move |c| *c = after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::{render_report, FullAnalysis};
    use crate::metrics::Registry;
    use bgp_model::Timestamp;
    use coanalysis::{CoAnalysis, CoAnalysisConfig};
    use std::io::Write;

    /// A running worker, and a drain that closes it and joins its thread.
    fn fixture(
        fold: Option<Fold>,
        cap: usize,
    ) -> (
        Worker,
        impl FnOnce(&Worker),
        Arc<ServeMetrics>,
        Arc<EventRing>,
    ) {
        let registry = Registry::new();
        let metrics = Arc::new(ServeMetrics::register(&registry));
        let ring = Arc::new(EventRing::new(64));
        let (worker, handle) =
            Worker::start(OnlineAnalyzer::new(), fold, cap, &metrics, &ring).expect("starts");
        let drain = move |worker: &Worker| {
            worker.close();
            handle.join().expect("the worker loop does not panic");
        };
        (worker, drain, metrics, ring)
    }

    fn rec(recid: u64, t: i64, name: &str) -> RasRecord {
        RasRecord::new(
            recid,
            Timestamp::from_unix(t),
            "R00-M0-N00-J00".parse().unwrap(),
            Catalog::standard().lookup(name).unwrap(),
        )
    }

    /// A fold primed on `jobs`, written to a fresh file under `tag`.
    fn fold_on(tag: &str, jobs: &[joblog::JobRecord]) -> (Fold, Arc<FullAnalysis>) {
        let dir = std::env::temp_dir().join(format!("bgp-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("jobs.log");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
        joblog::write_log(&mut w, jobs).expect("write jobs");
        w.flush().expect("flush");
        drop(w);
        let fold = Fold::start(CoAnalysisConfig::default(), &path).expect("fold starts");
        let _ = std::fs::remove_dir_all(&dir);
        let published = Arc::clone(fold.published());
        (fold, published)
    }

    #[test]
    fn worker_matches_a_direct_analyzer_and_drains_on_close() {
        let (worker, drain, metrics, ring) = fixture(None, 8);
        let mut direct = OnlineAnalyzer::new();
        let names = [
            "_bgp_err_kernel_panic",
            "_bgp_err_ddr_controller",
            "BULK_POWER_FATAL",
            "_bgp_warn_ecc_corrected",
        ];
        let records: Vec<RasRecord> = (0..500)
            .map(|i| rec(i, i as i64 * 120, names[i as usize % names.len()]))
            .collect();
        for r in &records {
            direct.push(r);
            worker.push(*r, &metrics).expect("worker accepts");
        }
        drain(&worker);
        assert!(worker.push(records[0], &metrics).is_err());
        let want = direct.counters();
        assert_eq!(worker.counters(), want);
        // The Prometheus counters agree with the published snapshot.
        assert_eq!(metrics.records_in.get(), want.records_in);
        assert_eq!(metrics.fatal_in.get(), want.fatal_in);
        assert_eq!(metrics.merged_temporal.get(), want.merged_temporal);
        assert_eq!(metrics.merged_spatial.get(), want.merged_spatial);
        assert_eq!(metrics.events_out.get(), want.events_out);
        assert_eq!(metrics.warnings.get(), want.warnings);
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(ring.total_pushed(), want.events_out);
    }

    #[test]
    fn full_queue_counts_backpressure_but_loses_nothing() {
        // Tiny queue, back-to-back pushes: the pusher must stall, the stall
        // must be counted, and every record must still arrive.
        let (worker, drain, metrics, _ring) = fixture(None, 2);
        for i in 0..200 {
            worker
                .push(rec(i, i as i64 * 7_000, "_bgp_err_kernel_panic"), &metrics)
                .expect("push succeeds");
        }
        drain(&worker);
        assert_eq!(worker.counters().records_in, 200);
        assert!(
            metrics.backpressure_stalls.get() > 0,
            "a 2-slot queue fed 200 records back-to-back must stall"
        );
        assert_eq!(metrics.queue_depth.get(), 0);
    }

    #[test]
    fn folded_report_matches_one_shot_run() {
        let out = bgp_sim::Simulation::new(bgp_sim::SimConfig::small_test(17))
            .expect("valid config")
            .run();
        let (fold, full) = fold_on("fold", out.jobs.jobs());
        let (worker, drain, metrics, _ring) = fixture(Some(fold), 64);
        for r in out.ras.records() {
            worker.push(*r, &metrics).expect("worker accepts");
        }
        drain(&worker);
        let snap = full.snapshot();
        assert_eq!(snap.records, out.ras.records().len() as u64);
        assert_eq!(snap.records, worker.counters().records_in);
        assert!(snap.batches >= 1);
        let oracle = CoAnalysis::default().run(&out.ras, &out.jobs);
        assert_eq!(snap.report, render_report(&oracle));
        assert!(snap.render().starts_with("# full analysis:"));
    }

    #[test]
    fn nothing_is_folded_after_close() {
        let (fold, full) = fold_on("closed", &[]);
        let (worker, drain, metrics, _ring) = fixture(Some(fold), 4);
        drain(&worker);
        assert!(worker
            .push(rec(1, 100, "_bgp_err_kernel_panic"), &metrics)
            .is_err());
        assert_eq!(full.snapshot().batches, 0);
        assert_eq!(worker.counters().records_in, 0);
        assert_eq!(metrics.queue_depth.get(), 0);
    }
}
