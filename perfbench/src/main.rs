//! End-to-end and per-layer benchmark of the co-analysis system.
//!
//! ```text
//! perfbench --workload cold-paper|warm-paper|live-fold --seed N --seconds S --trace 0|1
//!           [--scale paper|small]
//! ```
//!
//! Each run simulates one Intrepid site from `--seed`, writes its logs
//! under `.bench_out/` in the working directory, measures the workload for
//! about `--seconds`, checks every report it produces against a one-shot
//! reference, and prints as its last stdout line
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it describes the host and the input. See
//! `README.md` beside this file for what each workload and metric is.

mod batch;
mod live;
mod site;
mod stats;
mod trace;

use batch::{Decode, ParseCounts};
use site::{Scale, Site, Workload};
use stats::{median, peak_rss_mb, reset_peak_rss, tail};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{per_iteration_ms, Tracer};

/// End-to-end metrics, printed with `--trace 0`. Publish lag exists only
/// where input arrives over time, so only `live-fold` prints it.
fn end_to_end(workload: Workload) -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("setup_s", "s"),
        ("analyze_s", "s"),
        ("analyze_tail_s", "s"),
    ];
    if workload == Workload::Live {
        v.extend([("publish_lag_p50_ms", "ms"), ("publish_lag_tail_ms", "ms")]);
    }
    v.push(("peak_rss_mb", "MB"));
    v.into_iter().map(|(n, u)| (n.to_owned(), u)).collect()
}

/// Live-fold ticks the batch workloads' traced runs replay to measure the
/// ingest, fold and daemon layers they do not exercise themselves.
const PROBE_TICKS: usize = 20;

/// Per-layer metric names and units, printed with `--trace 1` (the stage
/// metrics are added per `StageId`).
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("read.ras_ms", "ms"),
        ("read.jobs_ms", "ms"),
        ("hash.ras_ms", "ms"),
        ("hash.jobs_ms", "ms"),
        ("parse.ras_ms", "ms"),
        ("parse.jobs_ms", "ms"),
        ("parse.ras_records", "count"),
        ("parse.ras_diagnostics", "count"),
        ("snapshot.ras_decode_ms", "ms"),
        ("snapshot.jobs_decode_ms", "ms"),
        ("index.ras_ms", "ms"),
        ("index.jobs_ms", "ms"),
        ("load.pair_ms", "ms"),
        ("load.overlap", "ratio"),
        ("context.build_ms", "ms"),
        ("context.fda_columns_ms", "ms"),
        ("stage.wave_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for id in coanalysis::StageId::ALL {
        v.push((format!("stage.{}_ms", id.name()), "ms"));
    }
    for id in coanalysis::StageId::ALL {
        v.push((format!("stage.{}_seq_ms", id.name()), "ms"));
    }
    v.extend(
        [
            ("render.report_ms", "ms"),
            ("ingest.frame_ms_per_mb", "ms/MB"),
            ("ingest.decode_ms_per_mb", "ms/MB"),
            ("delta.fold_ms_p50", "ms"),
            ("delta.fold_ms_tail", "ms"),
            ("delta.append_ras_ms", "ms"),
            ("delta.stale_folds", "count"),
            ("delta.reran_stages", "count"),
            ("delta.changed_stages", "count"),
            ("delta.useful_ratio", "ratio"),
            ("serve.batches", "count"),
            ("serve.records_per_batch", "count"),
            ("serve.backpressure_stalls", "count"),
            ("serve.rejected", "count"),
            ("serve.final_stale", "count"),
            ("live.generator_late_ms_max", "ms"),
            ("live.backlog_max_records", "count"),
            ("trace.coverage", "ratio"),
            ("trace.overhead_ms", "ms"),
            ("error_rate", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    v
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::Paper);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                });
            }
            "--scale" => {
                scale = match value.as_str() {
                    "paper" => Scale::Paper,
                    "small" => Scale::Small,
                    _ => return Err(format!("bad --scale {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// A run's outcome before printing.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Host and input descriptor fields: key and JSON value.
    descriptor: Vec<(&'static str, String)>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn describe(&mut self, key: &'static str, value: impl ToString) {
        self.descriptor.push((key, value.to_string()));
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Untraced batch run: the end-to-end metrics of `cold-paper` and
/// `warm-paper`.
fn batch_end_to_end(site: &Site, workload: Workload, seconds: f64, out: &mut Outcome) {
    let timed = batch::run_timed(site, workload, seconds);
    out.count(timed.attempted, timed.failed);
    let (p50, p_tail) = (median(&timed.iter_s), tail(&timed.iter_s));
    out.set("analyze_s", p50);
    out.set("analyze_tail_s", p_tail);
    out.describe("samples", timed.iter_s.len());
}

/// Untraced live run: the end-to-end metrics of `live-fold`. An iteration
/// is a tick; `analyze_s` runs from its last byte on the socket to the
/// report covering it, publish lag from its due time.
fn live_end_to_end(site: &Site, out: &mut Outcome) -> Result<live::Replay, String> {
    let r = live::replay(site, site.window.ticks.len(), &site.reference)?;
    out.count(r.attempted, r.failed(true));
    if let Some(e) = &r.error {
        out.notes.push(e.clone());
    }
    if r.final_stale {
        out.notes
            .push("final /analysis report differs from the one-shot reference".to_owned());
    }
    out.set("analyze_s", median(&r.publish_s));
    out.set("analyze_tail_s", tail(&r.publish_s));
    out.set("publish_lag_p50_ms", median(&r.lag_ms));
    out.set("publish_lag_tail_ms", tail(&r.lag_ms));
    out.describe("samples", r.lag_ms.len());
    Ok(r)
}

/// Copy the daemon-side counters of a replay into per-layer metrics.
fn replay_layers(r: &live::Replay, out: &mut Outcome) {
    out.set("serve.batches", r.batches as f64);
    out.set(
        "serve.records_per_batch",
        if r.batches > 0 {
            r.folded as f64 / r.batches as f64
        } else {
            0.0
        },
    );
    out.set("serve.backpressure_stalls", r.stalls as f64);
    out.set("serve.rejected", r.rejected as f64);
    out.set("serve.final_stale", f64::from(u8::from(r.final_stale)));
    out.set("live.generator_late_ms_max", r.late_ms_max);
    out.set("live.backlog_max_records", r.backlog_max as f64);
}

/// Copy the outside-the-daemon fold measurements into per-layer metrics.
fn fold_layers(f: &live::Folds, out: &mut Outcome) {
    out.set("ingest.frame_ms_per_mb", f.frame_ms_per_mb);
    out.set("ingest.decode_ms_per_mb", f.decode_ms_per_mb);
    out.set("delta.fold_ms_p50", median(&f.fold_ms));
    out.set("delta.fold_ms_tail", tail(&f.fold_ms));
    out.set("delta.append_ras_ms", median(&f.append_ras_ms));
    let folds = f.folds.max(1) as f64;
    out.set("delta.stale_folds", f.stale_folds as f64);
    out.set("delta.reran_stages", f.reran as f64 / folds);
    out.set("delta.changed_stages", f.changed as f64 / folds);
    out.set(
        "delta.useful_ratio",
        if f.reran > 0 {
            f.changed as f64 / f.reran as f64
        } else {
            0.0
        },
    );
    out.notes.push(format!(
        "delta: {} folds re-ran {} stages, {} of which changed (useful_ratio = changed / re-ran)",
        f.folds, f.reran, f.changed
    ));
}

/// Medians of the named layer spans and every stage span of a batch
/// composition (`root` = one iteration), plus `load.overlap`.
fn batch_layers(tracer: &Tracer, out: &mut Outcome, names: &[&str]) {
    let spans = tracer.spans();
    for (span, ms) in &per_iteration_ms(&spans) {
        if names.contains(&span.as_str()) || span.starts_with("stage.") {
            out.set(&format!("{span}_ms"), median(ms));
        }
    }
    out.set("load.overlap", load_overlap(&spans));
}

/// Median over loads of serial RAS + job load time (the `load` span's
/// children) over the pair's wall clock.
fn load_overlap(spans: &[trace::Span]) -> f64 {
    let overlap: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "load")
        .map(|(i, s)| {
            let serial: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(trace::Span::ms)
                .sum();
            serial / s.ms()
        })
        .collect();
    median(&overlap)
}

const LOAD_LAYERS: &[&str] = &[
    "read.ras",
    "read.jobs",
    "hash.ras",
    "hash.jobs",
    "parse.ras",
    "parse.jobs",
    "snapshot.ras_decode",
    "snapshot.jobs_decode",
    "index.ras",
    "index.jobs",
];

fn set_parse_counts(c: ParseCounts, out: &mut Outcome) {
    out.set("parse.ras_records", c.ras_records as f64);
    out.set("parse.ras_diagnostics", c.ras_diagnostics as f64);
}

/// Traced batch run: untraced iterations (for the overhead and
/// `load.pair_ms`) alternating with iterations composed layer by layer
/// under spans, then the isolated probes for the layers this workload does
/// not run.
fn batch_traced(
    site: &Site,
    workload: Workload,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let opts = batch::load_options(site, workload);
    let mut timed = batch::Timed::default();
    timed.step(site, workload, &opts, true);
    let decode = if workload == Workload::Warm {
        Decode::Snapshot
    } else {
        Decode::Parse
    };
    let t = Instant::now();
    let mut last = None;
    let mut iter = 0;
    while stats::secs(t) < seconds || iter < batch::MIN_ITERATIONS {
        // Free the previous traced iteration's logs first, so both paths
        // start from the same heap.
        drop(last.take());
        timed.step(site, workload, &opts, false);
        let c = batch::composed_iteration(
            tracer,
            iter,
            &site.ras_path,
            &site.jobs_path,
            &site.snap_dir,
            decode,
        )?;
        out.count(1, u64::from(c.report != site.reference));
        if c.report != site.reference {
            out.notes.push(format!(
                "traced iteration {iter}: report differs from the untraced path"
            ));
        }
        last = Some(c);
        iter += 1;
    }
    out.count(timed.attempted, timed.failed);
    out.set("load.pair_ms", median(&timed.load_ms));
    let last = last.ok_or("no traced iteration ran")?;
    let mut names: Vec<&str> = LOAD_LAYERS.to_vec();
    names.extend(["context.build", "context.fda_columns", "render.report"]);
    batch_layers(tracer, out, &names);
    let roots: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "root")
        .map(trace::Span::ms)
        .collect();
    out.set("trace.coverage", trace::coverage(&tracer.spans(), "root"));
    out.set(
        "trace.overhead_ms",
        median(&roots) - median(&timed.iter_s) * 1e3,
    );
    out.describe("traced_samples", roots.len());
    let (ras, jobs) = &last.logs;
    out.metrics.extend(batch::sequential_stages(ras, jobs));
    if workload == Workload::Warm {
        let (ras_ms, jobs_ms, counts) = batch::parse_probe(&site.ras_path, &site.jobs_path)?;
        out.set("parse.ras_ms", ras_ms);
        out.set("parse.jobs_ms", jobs_ms);
        set_parse_counts(counts, out);
        out.notes.push("off-path probes: parse.*".to_owned());
    } else {
        set_parse_counts(last.counts, out);
        let (ras_ms, jobs_ms) = batch::snapshot_decode_probe(ras, jobs);
        out.set("snapshot.ras_decode_ms", ras_ms);
        out.set("snapshot.jobs_decode_ms", jobs_ms);
        out.notes.push("off-path probes: snapshot.*".to_owned());
    }
    drop(last);
    let reference = site.window.reference(PROBE_TICKS, &site.jobs);
    let r = live::replay(site, PROBE_TICKS, &reference)?;
    out.count(r.attempted, r.failed(false));
    if let Some(e) = &r.error {
        out.notes.push(format!("probe replay: {e}"));
    }
    replay_layers(&r, out);
    let folds = live::fold_ticks(site, PROBE_TICKS, &Tracer::new())?;
    fold_layers(&folds, out);
    out.notes.push(format!(
        "off-path probes: ingest.*, delta.*, serve.*, live.* over the first {PROBE_TICKS} live-fold ticks"
    ));
    Ok(())
}

/// Traced live run: the untraced replay (daemon counters and the overhead
/// baseline), the same ticks folded outside the daemon under spans, then
/// the isolated probes for the load layers over the window's text.
fn live_traced(site: &Site, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut untraced = Outcome::default();
    let r = live_end_to_end(site, &mut untraced)?;
    out.count(untraced.attempted, untraced.failed);
    out.notes.extend(untraced.notes);
    replay_layers(&r, out);
    let ticks = site.window.ticks.len();
    let folds = live::fold_ticks(site, ticks, tracer)?;
    out.count(folds.folds as u64, folds.stale_folds as u64);
    fold_layers(&folds, out);
    let spans = tracer.spans();
    let per = per_iteration_ms(&spans);
    for (span, ms) in &per {
        if span.starts_with("stage.") || span == "render.report" {
            out.set(&format!("{span}_ms"), median(ms));
        }
    }
    out.set("stage.wave_ms", median(&folds.wave_ms));
    for id in coanalysis::StageId::ALL {
        let name = format!("stage.{}_ms", id.name());
        if !out.metrics.contains_key(&name) {
            out.notes
                .push(format!("{name}: the stage never re-ran in a fold"));
            out.set(&name, 0.0);
        }
    }
    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "root")
        .map(trace::Span::ms)
        .collect();
    out.set("trace.coverage", trace::coverage(&spans, "root"));
    out.set(
        "trace.overhead_ms",
        median(&roots) - median(&r.publish_s) * 1e3,
    );
    out.describe("traced_samples", roots.len());

    // The per-fold job-side rebuild: the context's job indexes and the
    // interned FDA columns are rebuilt from the job log on every fold.
    out.set(
        "context.build_ms",
        batch::probe_ms(|| coanalysis::AnalysisContext::for_jobs(&site.jobs)),
    );
    out.set(
        "context.fda_columns_ms",
        batch::probe_ms(|| {
            let ctx = coanalysis::AnalysisContext::for_jobs(&site.jobs);
            std::hint::black_box(ctx.fda_columns());
        }) - out.metrics.get("context.build_ms").copied().unwrap_or(0.0),
    );

    // Load layers over the window's text, cold then warm.
    let probe = Tracer::new();
    let cold = batch::composed_iteration(
        &probe,
        0,
        &site.ras_path,
        &site.jobs_path,
        &site.snap_dir,
        Decode::Parse,
    )?;
    set_parse_counts(cold.counts, out);
    let opts = coanalysis::LoadOptions {
        snapshot_dir: Some(site.snap_dir.clone()),
        ..coanalysis::LoadOptions::default()
    };
    coanalysis::load_pair(&site.ras_path, &site.jobs_path, &opts).map_err(|e| e.to_string())?;
    batch::composed_iteration(
        &probe,
        1,
        &site.ras_path,
        &site.jobs_path,
        &site.snap_dir,
        Decode::Snapshot,
    )?;
    let spans = probe.spans();
    let per = per_iteration_ms(&spans);
    for name in LOAD_LAYERS {
        // Iteration 0 parsed and iteration 1 decoded the snapshot; report
        // the read, hash and index layers of the parsing load.
        if let Some(ms) = per.get(*name).and_then(|v| v.first()) {
            out.set(&format!("{name}_ms"), *ms);
        }
    }
    out.set("load.overlap", load_overlap(&spans));
    out.set(
        "load.pair_ms",
        batch::probe_ms(|| {
            coanalysis::load_pair(
                &site.ras_path,
                &site.jobs_path,
                &coanalysis::LoadOptions::default(),
            )
        }),
    );
    let (ras, jobs) = &cold.logs;
    out.metrics.extend(batch::sequential_stages(ras, jobs));
    out.notes.push(
        "off-path probes: read.*, hash.*, parse.*, snapshot.*, index.*, load.*, stage.*_seq over the window's text; \
         context.* time the per-fold job-side rebuild"
            .to_owned(),
    );
    Ok(())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    // Only live-fold replays its whole window; a traced batch run replays
    // the first `PROBE_TICKS` ticks as a probe, an untraced one none.
    let ticks = match (args.workload, args.trace) {
        (Workload::Live, _) => {
            usize::try_from(args.seconds * 1000 / site::TICK_MS).unwrap_or(usize::MAX)
        }
        (_, true) => PROBE_TICKS,
        (_, false) => 0,
    };
    let site = site::setup(args.workload, args.scale, args.seed, ticks, work)?;
    let rss_reset = reset_peak_rss();
    let mut out = Outcome::default();
    out.set("setup_s", site.setup_s);
    let seconds = args.seconds as f64;
    let tracer = Tracer::new();
    match (args.workload, args.trace) {
        (Workload::Live, false) => {
            live_end_to_end(&site, &mut out)?;
        }
        (w, false) => batch_end_to_end(&site, w, seconds, &mut out),
        (Workload::Live, true) => live_traced(&site, &tracer, &mut out)?,
        (w, true) => batch_traced(&site, w, seconds, &tracer, &mut out)?,
    }
    out.set("peak_rss_mb", peak_rss_mb());
    if args.trace {
        let file = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_json(&file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        out.notes
            .push(format!("spans written to {}", file.display()));
    }
    let i = &site.inputs;
    out.describe("workload", json_str(args.workload.name()));
    out.describe("seed", args.seed);
    out.describe("seconds", args.seconds);
    out.describe("trace", u8::from(args.trace));
    out.describe("cpu_model", json_str(&cpu_model()));
    out.describe("available_parallelism", threads());
    out.describe("load_threads", threads());
    out.describe(
        "pipeline_threads",
        coanalysis::CoAnalysisConfig::default().threads,
    );
    out.describe("setup_reps", site::SETUP_REPS);
    out.describe("ras_records", i.ras_records);
    out.describe("ras_bytes", i.ras_bytes);
    out.describe("jobs", i.jobs);
    out.describe("jobs_bytes", i.jobs_bytes);
    out.describe(
        "funnel",
        format!(
            "{{\"raw_fatal\": {}, \"after_causal\": {}, \"after_job_related\": {}}}",
            i.funnel.0, i.funnel.1, i.funnel.2
        ),
    );
    out.describe("live_ticks", site.window.ticks.len());
    out.describe("live_tick_ms", site::TICK_MS);
    out.describe("peak_rss_excludes_setup", rss_reset);
    out.set(
        "error_rate",
        if out.attempted > 0 {
            out.failed as f64 / out.attempted as f64
        } else {
            1.0
        },
    );
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_out").join(format!(
        "work-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let mut out = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        end_to_end(args.workload)
    };
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in &names {
        let Some(value) = out.metrics.get(name).copied().filter(|v| v.is_finite()) else {
            eprintln!("perfbench: metric {name} was not measured");
            std::process::exit(1);
        };
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    let notes = out
        .notes
        .iter()
        .map(|n| json_str(n))
        .collect::<Vec<_>>()
        .join(", ");
    out.describe("notes", format!("[{notes}]"));
    let descriptor: Vec<String> = out
        .descriptor
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"descriptor\": {{{}}}}}", descriptor.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
