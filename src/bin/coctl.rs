//! `coctl` — co-analysis control: the operator-facing CLI.
//!
//! ```text
//! coctl simulate --days 30 --seed 7 --out DIR     # produce synthetic site logs
//! coctl summary RAS.log                           # profile a RAS log
//! coctl analyze RAS.log JOBS.log                  # full co-analysis -> observations
//! coctl filter RAS.log JOBS.log -o CLEAN.log      # write the deduplicated event log
//! coctl outages RAS.log JOBS.log                  # reconstructed outage episodes
//! coctl serve --ingest ADDR --http ADDR           # streaming daemon (alias of coserved)
//! ```
//!
//! Log-reading subcommands accept `--snapshot DIR`: parsed logs are cached
//! there as `.bgpsnap` files and transparently reused on re-runs (stale or
//! corrupt snapshots fall back to re-parsing and are rewritten).
//!
//! `analyze`, `filter` and `outages` also accept `--temporal-secs S`,
//! `--spatial-secs S` and `--threads N`, parsed by the function `coserved`
//! uses ([`bgp_serve::config::analysis_flag`]), so both binaries take the same
//! names, defaults and messages. A flag a subcommand does not take is a
//! usage error, never a path.
//!
//! Log-reading subcommands also accept `--format {bgp,bgq,syslog,cassette}`
//! to select the source adapter (default `bgp`); only the BG/P format is
//! snapshot-cached. BG/P inputs are streamed: each worker reads its share
//! of the file through one fixed window, so memory does not grow with the
//! log; a pipe is read on one worker. A log that shrinks while it is read
//! is an I/O error.
//!
//! `analyze --append FILE` folds extra log files into an already-analyzed
//! base through the incremental stage graph: only stages whose inputs
//! changed are re-run, and the printed report is bit-identical to a
//! one-shot run over the concatenated logs.
//!
//! Exit codes: 0 success, 1 usage error, 2 I/O or parse failure,
//! 3 unknown subcommand or unknown `--format` value.

use bgp_coanalysis::bgp_serve::config::analysis_flag;
use bgp_coanalysis::bgp_serve::{self, ServeConfig, ServeError, StageTimer};
use bgp_coanalysis::bgp_sim::{SimConfig, Simulation};
use bgp_coanalysis::coanalysis::analysis::repair::{reconstruct_outages, summarize};
use bgp_coanalysis::coanalysis::{load, AnalysisSet, CoAnalysis, Event, StageId, StageObserver};
use bgp_coanalysis::coanalysis::{AnalysisContext, AppendBatch, CoAnalysisConfig};
use bgp_coanalysis::coanalysis::{CoAnalysisResult, DeltaSession};
use bgp_coanalysis::coanalysis::{LoadOptions, SnapshotStatus};
use bgp_coanalysis::joblog::{self, JobLog};
use bgp_coanalysis::raslog::{self, LogSummary, RasLog};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage("missing subcommand");
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "simulate" => cmd_simulate(rest),
        "summary" => cmd_summary(rest),
        "analyze" => cmd_analyze(rest),
        "filter" => cmd_filter(rest),
        "outages" => cmd_outages(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => return usage(""),
        other => {
            // Distinct exit code so scripts can tell a typo'd subcommand
            // from an ordinary usage error.
            let _ = usage(&format!("unknown subcommand {other:?}"));
            return ExitCode::from(3);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => usage(&msg),
        Err(CliError::Io(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::UnknownFormat(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}

enum CliError {
    Usage(String),
    Io(String),
    /// Unknown `--format` value: exit 3, like an unknown subcommand, so
    /// scripts probing adapter support can tell it from a usage error.
    UnknownFormat(String),
}

/// Errors of the analysis flags: an unknown `--format` exits 3.
impl From<ServeError> for CliError {
    fn from(e: ServeError) -> CliError {
        match e {
            ServeError::Config(msg) => CliError::Usage(msg),
            ServeError::Format(f) => CliError::UnknownFormat(f.to_string()),
            other @ (ServeError::Bind { .. }
            | ServeError::Impact { .. }
            | ServeError::Io(_)
            | ServeError::Spawn(_)
            | ServeError::QueueClosed) => CliError::Io(other.to_string()),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e.to_string())
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "coctl — RAS/job-log co-analysis for Blue Gene/P-style systems\n\
         \n\
         usage:\n\
         \x20 coctl simulate [--days N] [--seed S] [--out DIR]\n\
         \x20 coctl summary RAS.log [--snapshot DIR] [--format F]\n\
         \x20 coctl analyze RAS.log JOBS.log [--snapshot DIR] [--format F] [WINDOWS]\n\
         \x20 \x20 \x20 \x20 \x20 \x20 \x20 [--threads N] [--timings] [--impact-out FILE] [--fda]\n\
         \x20 \x20 \x20 \x20 \x20 \x20 \x20 [--append RAS2.log]... [--append-jobs JOBS2.log]...\n\
         \x20 coctl filter RAS.log JOBS.log -o CLEAN.log [--snapshot DIR] [--format F]\n\
         \x20 \x20 \x20 \x20 \x20 \x20 \x20 [WINDOWS] [--threads N]\n\
         \x20 coctl outages RAS.log JOBS.log [--snapshot DIR] [--format F] [WINDOWS]\n\
         \x20 \x20 \x20 \x20 \x20 \x20 \x20 [--threads N]\n\
         \x20 coctl serve [--ingest ADDR] [--http ADDR] [--impact FILE] ...\n\
         \n\
         --format F selects the log source adapter: bgp (default), bgq,\n\
         syslog, or cassette (.bgpcas recording, replayed deterministically).\n\
         --snapshot DIR caches parsed logs as .bgpsnap files in DIR and\n\
         reuses them on re-runs (stale snapshots are re-parsed and rewritten).\n\
         BG/P input files are streamed through a fixed window per worker,\n\
         so memory does not grow with the log (a pipe is read on one\n\
         worker); a log that shrinks while coctl reads it is an I/O error.\n\
         analyze --append folds each extra file into the base analysis\n\
         incrementally; the report matches a one-shot run over the\n\
         concatenation bit for bit. With --timings, per-stage wall clock\n\
         goes to stderr for each fold (only dirty stages appear).\n\
         WINDOWS is [--temporal-secs S] [--spatial-secs S], the temporal and\n\
         spatial dedup windows (default 300 each). coserved takes them and\n\
         --threads N (which sizes the stage executor; loading uses every CPU)\n\
         under the same names and defaults. Verdicts from --impact-out mean\n\
         the same events to coserved --impact only if both use the same windows.\n\
         analyze --fda appends the dimensional root-cause table: frequent\n\
         (errcode, midplane, user, project, executable, size) combinations\n\
         ranked by lift over the interruption base rate.\n\
         serve runs the streaming daemon (see `coserved --help` for its flags)."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse a log-reading subcommand's arguments: `--snapshot DIR`, the
/// analysis flags `coserved` shares ([`bgp_serve::config::analysis_flag`]: only
/// `--format` when `analysis` is `None`), then the flags `own` takes (it
/// returns `Ok(false)` for one it does not know). Any other `--` token is
/// an unknown flag; the rest are positional, in order.
fn parse_args<'a>(
    args: &'a [String],
    mut analysis: Option<&mut CoAnalysisConfig>,
    mut own: impl FnMut(&str, &mut std::slice::Iter<'a, String>) -> Result<bool, CliError>,
) -> Result<(Vec<&'a String>, LoadOptions), CliError> {
    let mut positional = Vec::new();
    let mut opts = LoadOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--snapshot" {
            let dir = it
                .next()
                .ok_or_else(|| CliError::Usage("--snapshot needs a directory".into()))?;
            opts.snapshot_dir = Some(PathBuf::from(dir));
        } else if !analysis_flag(a, &mut it, analysis.as_deref_mut(), &mut opts.format)?
            && !own(a, &mut it)?
        {
            if a.starts_with("--") {
                return Err(CliError::Usage(format!("unknown flag {a:?}")));
            }
            positional.push(a);
        }
    }
    Ok((positional, opts))
}

fn report_load(path: &str, what: &str, n_errors: usize, status: &SnapshotStatus) {
    if n_errors > 0 {
        eprintln!("note: skipped {n_errors} malformed {what} lines in {path}");
    }
    if *status != SnapshotStatus::Disabled {
        eprintln!("note: {path}: snapshot {status}");
    }
}

fn load_ras(path: &str, opts: &LoadOptions) -> Result<RasLog, CliError> {
    let loaded = load::load_ras(Path::new(path), opts).map_err(|e| CliError::Io(e.to_string()))?;
    report_load(path, "RAS", loaded.parse_errors.len(), &loaded.snapshot);
    if loaded.log.is_empty() {
        return Err(CliError::Io(format!("{path}: no parsable RAS records")));
    }
    Ok(loaded.log)
}

/// Load both logs concurrently (two scoped threads) — every co-analysis
/// subcommand needs both, and neither depends on the other. The RAS log
/// comes back projected to its FATAL records (see [`load::load_pair`]), so
/// "no parsable records" asks how many parsed, not how many were kept: a
/// log without FATAL records is a valid, uneventful input.
fn load_both(
    ras_path: &str,
    jobs_path: &str,
    opts: &LoadOptions,
) -> Result<(RasLog, JobLog), CliError> {
    let (ras, jobs) = load::load_pair(Path::new(ras_path), Path::new(jobs_path), opts)
        .map_err(|e| CliError::Io(e.to_string()))?;
    report_load(ras_path, "RAS", ras.parse_errors.len(), &ras.snapshot);
    report_load(jobs_path, "job", jobs.parse_errors.len(), &jobs.snapshot);
    if ras.parsed == 0 {
        return Err(CliError::Io(format!("{ras_path}: no parsable RAS records")));
    }
    if jobs.log.is_empty() {
        return Err(CliError::Io(format!(
            "{jobs_path}: no parsable job records"
        )));
    }
    Ok((ras.log, jobs.log))
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let mut days = 30u32;
    let mut seed = 7u64;
    let mut out = PathBuf::from("site-logs");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--days" => {
                days = next_parsed(&mut it, "--days")?;
            }
            "--seed" => {
                seed = next_parsed(&mut it, "--seed")?;
            }
            "--out" => {
                out = PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--out needs a path".into()))?,
                );
            }
            other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
        }
    }
    let mut cfg = SimConfig::intrepid_2009(seed);
    cfg.days = days;
    cfg.num_execs = (9_664u64 * u64::from(days) / 237).max(50) as u32;
    cfg.noise_scale = 0.05; // keep the files shippable
    eprintln!("simulating {days} days (seed {seed})...");
    let sim = Simulation::new(cfg)
        .map_err(|e| CliError::Usage(e.to_string()))?
        .run();
    std::fs::create_dir_all(&out)?;
    let ras_path = out.join("ras.log");
    let jobs_path = out.join("jobs.log");
    let mut w = BufWriter::new(File::create(&ras_path)?);
    raslog::write_log(&mut w, sim.ras.records())?;
    let mut w = BufWriter::new(File::create(&jobs_path)?);
    joblog::write_log(&mut w, sim.jobs.jobs())?;
    println!(
        "wrote {} ({} records) and {} ({} jobs)",
        ras_path.display(),
        sim.ras.len(),
        jobs_path.display(),
        sim.jobs.len()
    );
    Ok(())
}

fn next_parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, CliError> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CliError::Usage(format!("{flag} needs a valid value")))
}

fn cmd_summary(args: &[String]) -> Result<(), CliError> {
    let (positional, opts) = parse_args(args, None, |_, _| Ok(false))?;
    let [path] = positional[..] else {
        return Err(CliError::Usage("summary needs exactly one RAS log".into()));
    };
    let ras = load_ras(path, &opts)?;
    let s = LogSummary::of(&ras, 5);
    println!("{s}");
    println!("top FATAL codes:");
    let cat = raslog::Catalog::standard();
    for (code, n) in &s.top_fatal_codes {
        println!("  {:<34} {n}", cat.info(*code).name);
    }
    println!("noisiest midplanes:");
    for (m, n) in &s.noisiest_midplanes {
        println!("  {m}  {n} records");
    }
    Ok(())
}

/// One `--append`/`--append-jobs` occurrence, kept in flag order so
/// batches fold in the sequence the operator wrote them.
enum AppendSpec {
    Ras(String),
    Jobs(String),
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let mut config = CoAnalysisConfig::default();
    let (mut timings, mut fda) = (false, false);
    let mut impact_out: Option<PathBuf> = None;
    let mut appends: Vec<AppendSpec> = Vec::new();
    let (positional, opts) = parse_args(args, Some(&mut config), |a, it| {
        let mut path = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{a} needs {what}")))
        };
        match a {
            "--timings" => timings = true,
            "--fda" => fda = true,
            "--append" => appends.push(AppendSpec::Ras(path("a RAS log path")?)),
            "--append-jobs" => appends.push(AppendSpec::Jobs(path("a job log path")?)),
            "--impact-out" => impact_out = Some(PathBuf::from(path("a path")?)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [ras_path, jobs_path] = positional[..] else {
        return Err(CliError::Usage(
            "analyze needs RAS.log and JOBS.log (+ optional --timings, --threads N, \
             --impact-out FILE, --fda)"
                .into(),
        ));
    };
    let (ras, jobs) = load_both(ras_path, jobs_path, &opts)?;
    let pipeline = CoAnalysis::with_config(config);
    let registry = bgp_serve::Registry::new();
    let r = if !appends.is_empty() {
        analyze_with_appends(pipeline.config, &ras, jobs, &appends, &opts, timings)?
    } else if timings {
        // Observed run: same products, plus per-stage wall-clock published
        // into the same registry kind the daemon serves at /metrics.
        let timer = StageTimer::new(&registry);
        let ctx = AnalysisContext::new(&ras, &jobs);
        pipeline
            .run_on_observed(&ctx, AnalysisSet::all(), &timer)
            .into_result()
            .ok_or_else(|| CliError::Io("full analysis set left a product empty".into()))
            .inspect(|_| print!("{}", timer.report()))?
    } else {
        pipeline.run(&ras, &jobs)
    };
    if let Some(path) = impact_out {
        let mut w = BufWriter::new(File::create(&path)?);
        bgp_serve::write_impact(&mut w, &r.impact)?;
        w.flush()?;
        println!(
            "wrote {} impact verdicts to {} (load with coserved --impact)",
            r.impact.per_code.len(),
            path.display()
        );
    }
    let render = if fda {
        bgp_serve::render_report
    } else {
        bgp_serve::render_summary
    };
    print!("{}", render(&r));
    Ok(())
}

/// Prime a [`DeltaSession`] on the base pair, then fold each `--append`
/// file through it in flag order. Only dirty stages re-run per batch; the
/// final report is bit-identical to a one-shot run over the concatenation
/// (the `delta_equivalence` suite and the CI smoke both enforce this).
///
/// With `timings`, each fold gets a fresh [`StageTimer`] and its per-stage
/// wall clock goes to stderr (stdout stays byte-comparable with a one-shot
/// run); only the stages the delta actually re-ran appear.
///
/// Unlike the base pair, append files may be empty — an uneventful day is
/// a legitimate increment and re-runs nothing.
fn analyze_with_appends(
    config: CoAnalysisConfig,
    ras: &RasLog,
    jobs: JobLog,
    appends: &[AppendSpec],
    opts: &LoadOptions,
    timings: bool,
) -> Result<CoAnalysisResult, CliError> {
    let (mut session, base) = DeltaSession::new(config, ras, jobs);
    let mut last = base;
    for (fold, spec) in appends.iter().enumerate() {
        let (path, batch) = match spec {
            AppendSpec::Ras(path) => {
                let loaded = load::load_ras(Path::new(path), opts)
                    .map_err(|e| CliError::Io(e.to_string()))?;
                report_load(path, "RAS", loaded.parse_errors.len(), &loaded.snapshot);
                let batch = AppendBatch {
                    ras: loaded.log.records().to_vec(),
                    jobs: Vec::new(),
                };
                (path, batch)
            }
            AppendSpec::Jobs(path) => {
                let loaded = load::load_jobs(Path::new(path), opts)
                    .map_err(|e| CliError::Io(e.to_string()))?;
                report_load(path, "job", loaded.parse_errors.len(), &loaded.snapshot);
                let batch = AppendBatch {
                    ras: Vec::new(),
                    jobs: loaded.log.jobs().to_vec(),
                };
                (path, batch)
            }
        };
        let (n_ras, n_jobs) = (batch.ras.len(), batch.jobs.len());
        let registry = bgp_serve::Registry::new();
        let timer = timings.then(|| StageTimer::new(&registry));
        let (result, report) =
            session.append_with_observer(batch, timer.as_ref().map(|t| t as &dyn StageObserver));
        // Stderr, so stdout stays byte-comparable with a one-shot run.
        eprintln!(
            "note: {path}: +{n_ras} RAS records, +{n_jobs} job rows; \
             re-ran {} of {} stages, {} changed",
            report.reran.stages().len(),
            StageId::ALL.len(),
            report.changed.stages().len()
        );
        if let Some(timer) = &timer {
            eprint!("fold {} {}", fold + 1, timer.report());
        }
        last = result;
    }
    Ok(last)
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let cfg = ServeConfig::from_args(args).map_err(|e| CliError::Usage(e.to_string()))?;
    bgp_serve::run(&cfg, &mut std::io::stdout()).map_err(|e| match e {
        ServeError::Config(_) | ServeError::Format(_) => CliError::Usage(e.to_string()),
        other @ (ServeError::Bind { .. }
        | ServeError::Impact { .. }
        | ServeError::Io(_)
        | ServeError::Spawn(_)
        | ServeError::QueueClosed) => CliError::Io(other.to_string()),
    })?;
    Ok(())
}

fn cmd_filter(args: &[String]) -> Result<(), CliError> {
    let mut config = CoAnalysisConfig::default();
    let mut out: Option<PathBuf> = None;
    let (positional, opts) = parse_args(args, Some(&mut config), |a, it| {
        if a != "-o" && a != "--out" {
            return Ok(false);
        }
        let path = it
            .next()
            .ok_or_else(|| CliError::Usage("-o needs a path".into()))?;
        out = Some(PathBuf::from(path));
        Ok(true)
    })?;
    let [ras_path, jobs_path] = positional[..] else {
        return Err(CliError::Usage(
            "filter needs RAS.log and JOBS.log (+ -o OUT)".into(),
        ));
    };
    let out = out.ok_or_else(|| CliError::Usage("filter needs -o OUT".into()))?;
    let (ras, jobs) = load_both(ras_path, jobs_path, &opts)?;
    // Only the filter stack is needed here — skip classification and
    // characterization entirely.
    let r = CoAnalysis::with_config(config).run_selected(
        &ras,
        &jobs,
        AnalysisSet::of(&[StageId::JobRelated]),
    );
    let events_final = r.events_final.unwrap_or_default();
    let raw_fatal = r.filter_stats.map_or(0, |s| s.raw_fatal);
    write_clean_log(&out, &ras, &events_final)?;
    println!(
        "{}: {} independent events standing for {} FATAL records",
        out.display(),
        events_final.len(),
        raw_fatal
    );
    Ok(())
}

fn write_clean_log(path: &Path, ras: &RasLog, events_final: &[Event]) -> Result<(), CliError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# independent fatal events (temporal+spatial+causal+job-related filtered)"
    )?;
    let by_recid: std::collections::HashMap<u64, &raslog::RasRecord> =
        ras.records().iter().map(|rec| (rec.recid, rec)).collect();
    for e in events_final {
        if let Some(rec) = by_recid.get(&e.first_recid) {
            writeln!(w, "{:>6}x {}", e.merged, raslog::format_record(rec))?;
        }
    }
    Ok(())
}

fn cmd_outages(args: &[String]) -> Result<(), CliError> {
    let mut config = CoAnalysisConfig::default();
    let (positional, opts) = parse_args(args, Some(&mut config), |_, _| Ok(false))?;
    let [ras_path, jobs_path] = positional[..] else {
        return Err(CliError::Usage("outages needs RAS.log and JOBS.log".into()));
    };
    let (ras, jobs) = load_both(ras_path, jobs_path, &opts)?;
    // Outage reconstruction only needs filtering + matching.
    let r = CoAnalysis::with_config(config).run_selected(
        &ras,
        &jobs,
        AnalysisSet::of(&[StageId::Matching]),
    );
    let events = r.events.unwrap_or_default();
    let matching = r.matching.unwrap_or_default();
    let episodes = reconstruct_outages(&events, &matching, &jobs);
    let cat = raslog::Catalog::standard();
    println!("reconstructed outage episodes (chains of >= 2 interruptions):");
    for e in &episodes {
        println!(
            "  {}  {:<30} {}  >= {:>6} s  {} victims{}",
            e.midplane,
            cat.info(e.errcode).name,
            e.start,
            e.min_duration_secs(),
            e.victims,
            if e.cleared_by.is_none() {
                "  (never seen to clear)"
            } else {
                ""
            }
        );
    }
    let s = summarize(&episodes);
    println!(
        "\n{} episodes, median lower-bound duration {:?} s, {} victims total, {} censored",
        s.episodes, s.median_min_duration_secs, s.total_victims, s.censored
    );
    Ok(())
}
