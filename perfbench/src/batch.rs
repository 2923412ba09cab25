//! `cold-paper` and `warm-paper`: log bytes on disk to the rendered report,
//! the way `coctl analyze --fda` runs it.
//!
//! The untraced iteration calls exactly what the CLI calls:
//! `load_pair` → `CoAnalysis::run` → `render_report`. The traced iteration
//! composes the same layers by hand — read, hash, decode, index on one
//! thread per log (as `load_pair` does), then context, interning, the stage
//! wave and render — with a span around each call, and must render the
//! same bytes.

use crate::site::{Site, Workload};
use crate::stats::{median, secs};
use crate::trace::{StageSpans, Tracer};
use bgp_model::bytes::content_hash_64;
use bgp_model::mmap::MappedFile;
use coanalysis::{
    AnalysisContext, AnalysisSet, CoAnalysis, CoAnalysisConfig, LoadOptions, SnapshotStatus,
};
use joblog::JobLog;
use raslog::RasLog;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Timed iterations never fall below this count, however long each takes.
pub const MIN_ITERATIONS: usize = 3;

/// Repetitions of each isolated layer probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Untraced iterations: wall clock per iteration and the `load_pair` share.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds per timed iteration (the warm-up iteration excluded).
    pub iter_s: Vec<f64>,
    /// Milliseconds inside `load_pair` per timed iteration.
    pub load_ms: Vec<f64>,
    /// Iterations run, the warm-up included.
    pub attempted: u64,
    /// Iterations whose report or snapshot status was wrong.
    pub failed: u64,
}

/// The load options of `workload`'s untraced path.
pub fn load_options(site: &Site, workload: Workload) -> LoadOptions {
    LoadOptions {
        snapshot_dir: (workload == Workload::Warm).then(|| site.snap_dir.clone()),
        ..LoadOptions::default()
    }
}

impl Timed {
    /// Run one untraced iteration — exactly what `coctl analyze --fda`
    /// does — and check its report (and, warm, its snapshot status). A
    /// warm-up iteration is counted but not timed.
    pub fn step(&mut self, site: &Site, workload: Workload, opts: &LoadOptions, warm_up: bool) {
        let t = Instant::now();
        let loaded = coanalysis::load_pair(&site.ras_path, &site.jobs_path, opts);
        let load_ms = secs(t) * 1e3;
        let ok = loaded.is_ok_and(|(ras, jobs)| {
            let report = bgp_serve::render_report(&CoAnalysis::default().run(&ras.log, &jobs.log));
            let elapsed = secs(t);
            if !warm_up {
                self.iter_s.push(elapsed);
                self.load_ms.push(load_ms);
            }
            let status_ok = workload != Workload::Warm
                || (ras.snapshot == SnapshotStatus::Loaded
                    && jobs.snapshot == SnapshotStatus::Loaded);
            status_ok && report == site.reference
        });
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Run untraced iterations for `seconds` after one untimed warm-up.
pub fn run_timed(site: &Site, workload: Workload, seconds: f64) -> Timed {
    let opts = load_options(site, workload);
    let mut out = Timed::default();
    out.step(site, workload, &opts, true);
    let t = Instant::now();
    while secs(t) < seconds || out.iter_s.len() < MIN_ITERATIONS {
        out.step(site, workload, &opts, false);
    }
    out
}

/// Which decoder a traced load uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// Parse the text (`bgp_ports::bgp::decode_*`).
    Parse,
    /// Decode the primed `.bgpsnap` (`*::snapshot::decode_snapshot`).
    Snapshot,
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Counts from the parse layer of one traced load.
#[derive(Debug, Default, Clone, Copy)]
pub struct ParseCounts {
    /// RAS records decoded.
    pub ras_records: usize,
    /// Malformed-line diagnostics.
    pub ras_diagnostics: usize,
}

/// One log's side of a traced load: read → hash → decode → index, each in
/// its own span under `parent`. `side` is `ras` or `jobs`.
#[allow(clippy::too_many_arguments)]
fn traced_side<R>(
    tracer: &Tracer,
    parent: usize,
    iter: usize,
    side: &str,
    path: &Path,
    snap_dir: &Path,
    decode: Decode,
    parse: impl Fn(&[u8], usize) -> bgp_ports::SourceBatch<R>,
    decode_snapshot: impl Fn(&[u8], u64) -> Result<Vec<R>, bgp_model::snapshot::SnapshotError>,
) -> Result<(Vec<R>, usize), String> {
    let name = |layer: &str| format!("{layer}.{side}");
    let data = tracer
        .span(&name("read"), Some(parent), iter, || MappedFile::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let hash = tracer.span(&name("hash"), Some(parent), iter, || {
        content_hash_64(data.bytes())
    });
    match decode {
        Decode::Parse => {
            let batch = tracer.span(&name("parse"), Some(parent), iter, || {
                parse(data.bytes(), threads())
            });
            Ok((batch.records, batch.diagnostics.len()))
        }
        Decode::Snapshot => {
            let snap_path = coanalysis::load::snapshot_file(snap_dir, path);
            let bytes = tracer
                .span(&name("read"), Some(parent), iter, || {
                    std::fs::read(&snap_path)
                })
                .map_err(|e| format!("{}: {e}", snap_path.display()))?;
            let records = tracer
                .span(
                    &format!("snapshot.{side}_decode"),
                    Some(parent),
                    iter,
                    || decode_snapshot(&bytes, hash),
                )
                .map_err(|e| format!("{}: {e}", snap_path.display()))?;
            Ok((records, 0))
        }
    }
}

/// What one traced iteration produced.
pub struct Composed {
    /// The rendered report.
    pub report: String,
    /// The loaded logs (for the isolated stage probes).
    pub logs: (RasLog, JobLog),
    /// Parse-layer counts (zero on a snapshot load).
    pub counts: ParseCounts,
}

/// One traced iteration, composed layer by layer under a `root` span.
pub fn composed_iteration(
    tracer: &Tracer,
    iter: usize,
    ras_path: &Path,
    jobs_path: &Path,
    snap_dir: &Path,
    decode: Decode,
) -> Result<Composed, String> {
    let root = tracer.open("root", None, iter);
    let load = tracer.open("load", Some(root), iter);
    let (ras, jobs) = std::thread::scope(|s| {
        let ras = s.spawn(|| {
            let (records, diagnostics) = traced_side(
                tracer,
                load,
                iter,
                "ras",
                ras_path,
                snap_dir,
                decode,
                bgp_ports::bgp::decode_ras,
                |b, h| raslog::snapshot::decode_snapshot(b, Some(h)),
            )?;
            let n = records.len();
            let log = tracer.span("index.ras", Some(load), iter, || {
                RasLog::from_records(records)
            });
            Ok::<_, String>((log, n, diagnostics))
        });
        let jobs = s.spawn(|| {
            let (records, _) = traced_side(
                tracer,
                load,
                iter,
                "jobs",
                jobs_path,
                snap_dir,
                decode,
                bgp_ports::bgp::decode_jobs,
                |b, h| joblog::snapshot::decode_snapshot(b, Some(h)),
            )?;
            Ok::<_, String>(tracer.span("index.jobs", Some(load), iter, || {
                JobLog::from_jobs(records)
            }))
        });
        (
            ras.join()
                .unwrap_or_else(|_| Err("RAS load thread panicked".to_owned())),
            jobs.join()
                .unwrap_or_else(|_| Err("job load thread panicked".to_owned())),
        )
    });
    tracer.close(load);
    let (ras, n, diagnostics) = ras?;
    let jobs = jobs?;
    let ctx = tracer.span("context.build", Some(root), iter, || {
        AnalysisContext::new(&ras, &jobs)
    });
    tracer.span("context.fda_columns", Some(root), iter, || {
        std::hint::black_box(ctx.fda_columns());
    });
    let wave = tracer.open("stage.wave", Some(root), iter);
    let products = CoAnalysis::default().run_on_observed(
        &ctx,
        AnalysisSet::all(),
        &StageSpans::new(tracer, wave, iter),
    );
    tracer.close(wave);
    let result = products
        .into_result()
        .ok_or("the full stage set left a product empty")?;
    let report = tracer.span("render.report", Some(root), iter, || {
        bgp_serve::render_report(&result)
    });
    tracer.close(root);
    drop(ctx);
    let counts = if decode == Decode::Parse {
        ParseCounts {
            ras_records: n,
            ras_diagnostics: diagnostics,
        }
    } else {
        ParseCounts::default()
    };
    Ok(Composed {
        report,
        logs: (ras, jobs),
        counts,
    })
}

/// Per stage, the median wall clock of the sequential executor
/// (`CoAnalysisConfig::sequential()`), interning done beforehand:
/// `stage.<id>_seq_ms`.
pub fn sequential_stages(ras: &RasLog, jobs: &JobLog) -> BTreeMap<String, f64> {
    let tracer = Tracer::new();
    let seq = CoAnalysis::with_config(CoAnalysisConfig::sequential());
    for rep in 0..PROBE_REPS {
        let ctx = AnalysisContext::new(ras, jobs);
        std::hint::black_box(ctx.fda_columns());
        let parent = tracer.open("seq", None, rep);
        std::hint::black_box(seq.run_on_observed(
            &ctx,
            AnalysisSet::all(),
            &StageSpans::new(&tracer, parent, rep),
        ));
        tracer.close(parent);
    }
    crate::trace::per_iteration_ms(&tracer.spans())
        .into_iter()
        .filter(|(name, _)| name.starts_with("stage."))
        .map(|(name, ms)| (format!("{name}_seq_ms"), median(&ms)))
        .collect()
}

/// Median milliseconds of `f` over the probe repetitions.
pub fn probe_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let ms: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t) * 1e3
        })
        .collect();
    median(&ms)
}

/// Off-path probe for a workload that parses: decode the snapshot
/// encoding of the loaded records, as `warm-paper` does.
pub fn snapshot_decode_probe(ras: &RasLog, jobs: &JobLog) -> (f64, f64) {
    let ras_snap = raslog::snapshot::encode_snapshot(ras.records(), 1);
    let jobs_snap = joblog::snapshot::encode_snapshot(jobs.jobs(), 1);
    (
        probe_ms(|| raslog::snapshot::decode_snapshot(&ras_snap, Some(1))),
        probe_ms(|| joblog::snapshot::decode_snapshot(&jobs_snap, Some(1))),
    )
}

/// Off-path probe for a workload that skips parsing: parse the text once
/// per log, as `cold-paper` does. Returns (ras ms, jobs ms, counts).
pub fn parse_probe(ras_path: &Path, jobs_path: &Path) -> Result<(f64, f64, ParseCounts), String> {
    let ras = std::fs::read(ras_path).map_err(|e| format!("{}: {e}", ras_path.display()))?;
    let jobs = std::fs::read(jobs_path).map_err(|e| format!("{}: {e}", jobs_path.display()))?;
    let t = Instant::now();
    let batch = bgp_ports::bgp::decode_ras(&ras, threads());
    let ras_ms = secs(t) * 1e3;
    let t = Instant::now();
    std::hint::black_box(bgp_ports::bgp::decode_jobs(&jobs, threads()));
    let jobs_ms = secs(t) * 1e3;
    let counts = ParseCounts {
        ras_records: batch.records.len(),
        ras_diagnostics: batch.diagnostics.len(),
    };
    Ok((ras_ms, jobs_ms, counts))
}
