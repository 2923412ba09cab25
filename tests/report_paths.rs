//! One table of the paths from log bytes to the co-analysis report.
//!
//! The site is what `coctl simulate --days 15 --seed 5` writes. The oracle
//! is the report `coctl analyze --fda` printed on it, committed as
//! `tests/fixtures/analyze-fda-15d-seed5.txt`: every row must print it
//! byte for byte, on the clean site and on every dirty copy of it ([`Dirt`]
//! keeps every record). Every row also accounts for each line it read: a
//! log's non-blank lines are its records plus its diagnostics (the BG/P
//! batch parser reports a `#` line as a diagnostic; the daemon skips it).

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_model::bytes::map_chunks_parallel;
use bgp_coanalysis::bgp_ports::cassette::{Recorder, StreamKind};
use bgp_coanalysis::bgp_ports::LogFormat;
use bgp_coanalysis::bgp_serve::{render_report, ServeConfig, Server};
use bgp_coanalysis::coanalysis::load::{self, LoadedJobs, LoadedRas};
use bgp_coanalysis::coanalysis::{AppendBatch, CoAnalysis, CoAnalysisConfig, DeltaSession};
use bgp_coanalysis::coanalysis::{LoadOptions, SnapshotStatus, StageId};
use bgp_coanalysis::raslog::{Catalog, ErrCode, LogSummary, RasLog};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("fixtures/analyze-fda-15d-seed5.txt");

/// How a copy of the site is dirtied. None drops or changes a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirt {
    /// The logs as simulated.
    Clean,
    /// `\r\n` line ends, and none after the last line.
    CrlfNoFinalNewline,
    /// `\r\r\n` line ends, with a CR-only line after every 100th line.
    CrCrLf,
    /// Blank, CR-only, `#` and garbage lines inserted at seeded places, and
    /// the heads of seeded RAS lines rewritten ([`rewrite_heads`]).
    Junk,
    /// The lines of each second in a seeded order, recids kept.
    SameSecondReorder,
}

const DIRTS: [Dirt; 5] = [
    Dirt::Clean,
    Dirt::CrlfNoFinalNewline,
    Dirt::CrCrLf,
    Dirt::Junk,
    Dirt::SameSecondReorder,
];

/// Dirty `log`, whose lines each end `\n` and carry their time in field
/// `time_field` (`|`-separated).
fn dirty(dirt: Dirt, log: &[u8], time_field: usize, rng: &mut SmallRng) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = log.split(|&b| b == b'\n').collect();
    lines.pop(); // the nothing after the last `\n`
    let end: &[u8] = match dirt {
        Dirt::Clean => b"\n",
        Dirt::CrlfNoFinalNewline => return lines.join(&b"\r\n"[..]),
        Dirt::CrCrLf => {
            for i in (1..=lines.len() / 100).rev() {
                lines.insert(100 * i, b"");
            }
            b"\r\r\n"
        }
        Dirt::Junk => {
            let junk: [&[u8]; 5] = [b"", b"\r", b"# a comment", b"garbage", b"1|2|3|4"];
            for i in (0..lines.len()).rev() {
                if rng.random_range(0..100) == 0 {
                    lines.insert(i, junk[rng.random_range(0..junk.len())]);
                }
            }
            b"\n"
        }
        Dirt::SameSecondReorder => {
            let same_second = |a: &&[u8], b: &&[u8]| field(a, time_field) == field(b, time_field);
            for run in lines.chunk_by_mut(same_second) {
                for i in (1..run.len()).rev() {
                    run.swap(i, rng.random_range(0..=i));
                }
            }
            b"\n"
        }
    };
    [lines.join(end), end.to_vec()].concat()
}

/// `log` (RAS) with the head of about one line in 50 rewritten, at seeded
/// lines, into a form only the parser's split path reads: another code's
/// MSG_ID, `WARN` for `WARNING`, a space-padded ERRCODE or a lowercase
/// COMPONENT. Each line still parses to its record. The other MSG_ID is
/// one whose head is as long as the line's own where there is one, so a
/// probe that trusted MSG_ID would read a well-formed wrong record.
fn rewrite_heads(log: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let catalog = Catalog::standard();
    let head_len = |c: ErrCode| {
        let info = catalog.info(c);
        let (msg_id, component) = (info.msg_id.as_str(), info.component.as_str());
        let fields = [
            msg_id,
            component,
            info.subcomponent,
            info.name,
            info.severity.as_str(),
        ];
        fields.map(str::len).iter().sum::<usize>()
    };
    let decoy = |c: ErrCode| {
        let others: Vec<ErrCode> = catalog.codes().filter(|&o| o != c).collect();
        let same = others.iter().find(|&&o| head_len(o) == head_len(c));
        &catalog.info(*same.unwrap_or(&others[0])).msg_id
    };
    let mut out = Vec::with_capacity(log.len() + log.len() / 20);
    for line in log.split_inclusive(|&b| b == b'\n') {
        if rng.random_range(0..50) != 0 {
            out.extend_from_slice(line);
            continue;
        }
        let text = std::str::from_utf8(line).unwrap();
        let mut fields: Vec<String> = text.splitn(9, '|').map(str::to_owned).collect();
        let code = catalog.lookup(&fields[4]).unwrap();
        match rng.random_range(0..4) {
            0 => fields[1] = decoy(code).clone(),
            1 if fields[5] == "WARNING" => fields[5] = "WARN".to_owned(),
            2 => fields[4] = format!(" {} ", fields[4]),
            _ => fields[2] = fields[2].to_lowercase(),
        }
        out.extend_from_slice(fields.join("|").as_bytes());
    }
    out
}

/// Field `i` of a `|`-separated line.
fn field(line: &[u8], i: usize) -> Option<&[u8]> {
    line.split(|&b| b == b'|').nth(i)
}

/// The FATAL lines of a RAS log, in order.
fn fatal_lines(log: &[u8]) -> Vec<&[u8]> {
    let lines = log.split(|&b| b == b'\n');
    lines.filter(|l| field(l, 5) == Some(b"FATAL")).collect()
}

/// The non-blank lines of `text`, and how many of them are `#` lines, by
/// the readers' rule: a line ends at `\n` and loses its trailing `\r` run.
fn count_lines(text: &[u8]) -> (usize, usize) {
    let mut counts = (0, 0);
    for line in text.split(|&b| b == b'\n') {
        if line.iter().any(|&b| b != b'\r') {
            counts.0 += 1;
            counts.1 += usize::from(line[0] == b'#');
        }
    }
    counts
}

/// One copy of the site on disk, with the lines each log holds.
#[derive(Debug)]
struct SiteCopy {
    dirt: Dirt,
    ras: PathBuf,
    jobs: PathBuf,
    ras_lines: (usize, usize),
    jobs_lines: (usize, usize),
}

impl SiteCopy {
    /// The batch readers' line law for a load of this copy's two logs: each
    /// holds the clean site's records, and every non-blank line parsed is a
    /// record or a diagnostic (a snapshot hit parses no line).
    fn assert_lines(&self, step: &str, ras: &LoadedRas, jobs: &LoadedJobs) {
        let what = format!("{:?}, {step}", self.dirt);
        assert_eq!((ras.parsed, jobs.log.len()), site().records, "{what}");
        if ras.snapshot != SnapshotStatus::Loaded {
            let read = ras.parsed + ras.parse_errors.len();
            assert_eq!(read, self.ras_lines.0, "{what}: RAS lines");
        }
        if jobs.snapshot != SnapshotStatus::Loaded {
            let read = jobs.log.len() + jobs.parse_errors.len();
            assert_eq!(read, self.jobs_lines.0, "{what}: job lines");
        }
    }

    /// A fresh directory beside the copy's logs for one row's files.
    fn workdir(&self, row: &str) -> PathBuf {
        fresh_dir(&self.ras.with_file_name(row))
    }
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    dir.to_owned()
}

/// The site's copies, made once per test binary run; its RAS and job
/// record counts; the clean RAS log's summary, loaded without a cache.
struct Site {
    copies: Vec<SiteCopy>,
    records: (usize, usize),
    summary: String,
}

fn site() -> &'static Site {
    static SITE: OnceLock<Site> = OnceLock::new();
    SITE.get_or_init(|| {
        let root = fresh_dir(&std::env::temp_dir().join("report-paths"));
        let out = Command::new(env!("CARGO_BIN_EXE_coctl"))
            .args(["simulate", "--days", "15", "--seed", "5", "--out"])
            .arg(root.join("site"))
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let ras = std::fs::read(root.join("site/ras.log")).unwrap();
        let jobs = std::fs::read(root.join("site/jobs.log")).unwrap();
        let copies = map_chunks_parallel(&DIRTS, |&dirt| {
            let mut rng = SmallRng::seed_from_u64(dirt as u64);
            let ras = if dirt == Dirt::Junk {
                Cow::Owned(rewrite_heads(&ras, &mut rng))
            } else {
                Cow::Borrowed(&ras[..])
            };
            let ras_text = dirty(dirt, &ras, 6, &mut rng);
            let jobs_text = dirty(dirt, &jobs, 5, &mut rng);
            if dirt == Dirt::SameSecondReorder {
                assert_ne!(
                    fatal_lines(&ras_text),
                    fatal_lines(&ras),
                    "no FATAL tie moved"
                );
                assert_ne!(jobs_text, jobs, "no job tie moved");
            }
            let dir = fresh_dir(&root.join(format!("{dirt:?}")));
            let (ras, jobs) = (dir.join("ras.log"), dir.join("jobs.log"));
            std::fs::write(&ras, &ras_text).unwrap();
            std::fs::write(&jobs, &jobs_text).unwrap();
            let ras_lines = count_lines(&ras_text);
            let jobs_lines = count_lines(&jobs_text);
            SiteCopy {
                dirt,
                ras,
                jobs,
                ras_lines,
                jobs_lines,
            }
        });
        let records = (copies[0].ras_lines.0, copies[0].jobs_lines.0);
        let full = load::load_ras(&copies[0].ras, &LoadOptions::default());
        let summary = summary(&full.unwrap().log);
        Site {
            copies,
            records,
            summary,
        }
    })
}

fn summary(log: &RasLog) -> String {
    format!("{:?}", LogSummary::of(log, 5))
}

/// Run `row` on every copy of the site: it returns the reports it printed,
/// each labelled with its step, and every one must be the golden.
fn on_every_copy(name: &str, row: fn(&SiteCopy) -> Vec<(String, String)>) {
    for copy in &site().copies {
        for (step, report) in row(copy) {
            let dirt = copy.dirt;
            assert!(report == GOLDEN, "{name}, {step}, {dirt:?}\n{report}");
        }
    }
}

/// The report `coctl analyze --fda` prints, at `threads` stage-executor
/// threads or the default.
fn analyze(ras: &LoadedRas, jobs: &LoadedJobs, threads: Option<usize>) -> String {
    let mut cfg = CoAnalysisConfig::default();
    cfg.threads = threads.unwrap_or(cfg.threads);
    render_report(&CoAnalysis::with_config(cfg).run(&ras.log, &jobs.log))
}

/// Load options: `threads` load threads (0: one per CPU), a snapshot
/// cache directory, a source format.
fn opts(threads: usize, snapshot_dir: Option<PathBuf>, format: LogFormat) -> LoadOptions {
    LoadOptions {
        threads,
        snapshot_dir,
        format,
    }
}

/// Cut the file at `log` at `pieces - 1` seeded line boundaries: each just
/// after the first `\n` from a seeded byte on, or at the end.
fn cut(log: &Path, pieces: usize, rng: &mut SmallRng) -> Vec<Vec<u8>> {
    let text = std::fs::read(log).unwrap();
    let mut cuts = vec![0, text.len()];
    for _ in 1..pieces {
        let at = rng.random_range(0..text.len());
        let line_end = text[at..].iter().position(|&b| b == b'\n');
        cuts.push(line_end.map_or(text.len(), |end| at + end + 1));
    }
    cuts.sort_unstable();
    cuts.windows(2).map(|w| text[w[0]..w[1]].to_vec()).collect()
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

/// `load_pair`, the co-analysis load, at 1, 2 and 4 load threads, each
/// analyzed at 1 or 4 stage-executor threads.
#[test]
fn row_load_pair() {
    on_every_copy("load_pair", |copy| {
        let mut reports = Vec::new();
        for (load_threads, exec_threads) in [(1, 1), (2, 4), (4, 1)] {
            let opts = opts(load_threads, None, LogFormat::Bgp);
            let (ras, jobs) = load::load_pair(&copy.ras, &copy.jobs, &opts).unwrap();
            let step = format!("{load_threads} load / {exec_threads} executor threads");
            copy.assert_lines(&step, &ras, &jobs);
            reports.push((step, analyze(&ras, &jobs, Some(exec_threads))));
        }
        reports
    });
}

/// The `.bgpsnap` cache, read by `load_pair` as `coctl analyze` reads it
/// and by `load_ras` as `coctl summary` (and each appended file) does: on
/// every copy a write and a load; on the clean site also a full load, the
/// section of every record corrupted (a `load_pair` hit, a `load_ras`
/// rewrite) and then the FATAL section (a `load_pair` rewrite). Each
/// rewrite restores the file byte for byte; a hit writes nothing; a stray
/// `.bgpsnap.fatal`, which older builds wrote, is never touched; every full
/// load's summary, cached or rewritten, is the clean site's uncached one.
#[test]
fn row_snapshot_cache() {
    on_every_copy("snapshot cache", |copy| {
        let cache = copy.workdir("cache");
        let snap = cache.join("ras.log.bgpsnap");
        let stray = cache.join("ras.log.bgpsnap.fatal");
        std::fs::write(&stray, "junk\n").unwrap();
        let file = || std::fs::read(&snap).unwrap();
        let stray_kept = || assert_eq!(std::fs::read(&stray).unwrap(), b"junk\n");
        let cached = opts(0, Some(cache.clone()), LogFormat::Bgp);
        let load = |step: &str, full: bool, want: &str| {
            let (ras, jobs) = if full {
                let ras = load::load_ras(&copy.ras, &cached).unwrap();
                assert_eq!(summary(&ras.log), site().summary, "{:?} {step}", copy.dirt);
                (ras, load::load_jobs(&copy.jobs, &cached).unwrap())
            } else {
                load::load_pair(&copy.ras, &copy.jobs, &cached).unwrap()
            };
            let status = ras.snapshot.to_string();
            assert!(status.starts_with(want), "{:?} {step}: {status}", copy.dirt);
            copy.assert_lines(step, &ras, &jobs);
            (step.to_owned(), analyze(&ras, &jobs, None))
        };
        let mut reports = vec![load("cache write", false, "written")];
        // The two snapshots and the stray file, nothing else.
        assert!(cache.join("jobs.log.bgpsnap").exists() && snap.exists());
        assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 3);
        reports.push(load("cache load", false, "loaded"));
        stray_kept();
        // The damage below is to the snapshot, and each rewrite parses the
        // text the write parsed: the clean site is enough.
        if copy.dirt != Dirt::Clean {
            return reports;
        }
        reports.push(load("full load", true, "loaded"));
        let good = file();
        let poke = |at: usize| {
            let mut bytes = good.clone();
            bytes[at] ^= 0xff;
            std::fs::write(&snap, &bytes).unwrap();
            bytes
        };
        // The last byte is a severity in the section of every record.
        let poked = poke(good.len() - 1);
        reports.push(load("all-record section bad", false, "loaded"));
        assert!(file() == poked, "a hit wrote the snapshot");
        reports.push(load("full, all-record bad", true, "rewritten"));
        assert!(file() == good, "not rewritten from the source");
        // The FATAL section follows the 56-byte front, 23 bytes a record;
        // its record count is the `u64` at byte 32.
        let fatal = u64::from_le_bytes(good[32..40].try_into().unwrap()) as usize;
        poke(56 + 23 * fatal - 1);
        reports.push(load("FATAL section corrupt", false, "rewritten"));
        assert!(file() == good, "not rewritten from the source");
        stray_kept();
        reports
    });
}

/// One cassette of the RAS log, cut at seeded chunk boundaries, with three
/// garbage lines longer than the daemon's line limit inserted: read through
/// `--format cassette`, and replayed through the daemon's framer, decoder
/// and `--full-analysis` fold, whose final `/analysis` report must be the
/// golden too. The daemon's law: its lines are the records it analyzed plus
/// the lines it rejected as malformed or oversized, `#` lines skipped.
#[test]
fn row_cassette_and_daemon() {
    on_every_copy("cassette", |copy| {
        let mut rng = SmallRng::seed_from_u64(11);
        let long = [[b'x'; 1024].as_slice(), b"\n"].concat();
        let stream = cut(&copy.ras, 4, &mut rng).join(&long[..]);
        let (lines, comments) = count_lines(&stream);
        let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let size = rng.random_range(1..=8192usize).min(rest.len());
            rec.push(1_000, &rest[..size]);
            rest = &rest[size..];
        }
        let cassette = copy.workdir("cassette").join("ras.bgpcas");
        std::fs::write(&cassette, rec.finish().encode()).unwrap();
        let records = site().records.0;
        let opts = opts(0, None, LogFormat::Cassette);
        let (ras, jobs) = load::load_pair(&cassette, &copy.jobs, &opts).unwrap();
        let read = (ras.parsed, ras.parse_errors.len());
        assert_eq!(read, (records, lines - records), "{:?}", copy.dirt);
        let batch = analyze(&ras, &jobs, None);

        let fixed = "--ingest 127.0.0.1:0 --http 127.0.0.1:0 --max-line 512 --full-analysis";
        let mut args: Vec<String> = fixed.split(' ').map(str::to_owned).collect();
        args.extend(["--replay".to_owned(), cassette.display().to_string()]);
        args.extend(["--jobs".to_owned(), copy.jobs.display().to_string()]);
        let server = Server::start(&ServeConfig::from_args(&args).unwrap()).unwrap();
        let served = server.full_analysis().expect("--full-analysis").clone();
        let done = server.wait();
        let c = &done.counters;
        assert!(c.is_consistent(), "{c:?}");
        assert_eq!((c.records_in, done.rejected_oversized), (records as u64, 3));
        let rejected = done.rejected_malformed + done.rejected_oversized;
        let read = (c.records_in + rejected) as usize;
        assert_eq!(read, lines - comments, "{:?}", copy.dirt);
        let served = served.snapshot();
        assert_eq!(served.records, c.records_in);
        assert!(served.render().ends_with(&served.report));
        let daemon = ("daemon".to_owned(), served.report.clone());
        vec![("--format cassette".to_owned(), batch), daemon]
    });
}

/// The `coctl` binary's `analyze --append`, which folds each appended file
/// into the analysis of the base through a `DeltaSession`: both logs cut
/// into three pieces at seeded line boundaries, the first pair the base
/// (`load_pair`), the other four files folded in a seeded order (`load_ras`,
/// `load_jobs`), with `--timings` on and the default windows and one
/// executor thread spelt out. Stdout is the report; each fold's note and
/// stage timings go to stderr, with each file's skipped lines.
#[test]
fn row_coctl_append() {
    on_every_copy("coctl --append", |copy| {
        let dir = copy.workdir("coctl");
        let mut rng = SmallRng::seed_from_u64(7);
        let mut files = Vec::new();
        for (log, name) in [(&copy.ras, "ras"), (&copy.jobs, "jobs")] {
            for (i, text) in cut(log, 3, &mut rng).into_iter().enumerate() {
                files.push(dir.join(format!("{name}-{i}.log")));
                std::fs::write(&files[files.len() - 1], text).unwrap();
            }
        }
        let mut appends = [
            ("--append", 1),
            ("--append", 2),
            ("--append-jobs", 4),
            ("--append-jobs", 5),
        ];
        for i in (1..appends.len()).rev() {
            appends.swap(i, rng.random_range(0..=i));
        }
        let flags = "--fda --timings --temporal-secs 300 --spatial-secs 300 --threads 1";
        let mut coctl = Command::new(env!("CARGO_BIN_EXE_coctl"));
        coctl
            .arg("analyze")
            .args([&files[0], &files[3]])
            .args(flags.split(' '));
        for (flag, file) in appends {
            coctl.arg(flag).arg(&files[file]);
        }
        let out = coctl.output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{err}");
        assert_eq!(err.matches("re-ran").count(), 4, "{err}");
        assert!(err.contains("fold 4 stage timings:"), "{err}");
        // `note: skipped N malformed {RAS,job} lines in PATH`, per file.
        let skipped = |what: &str| -> usize {
            let what = format!(" malformed {what} lines");
            let notes = err.lines();
            let notes = notes.filter_map(|l| l.strip_prefix("note: skipped ")?.split_once(&what));
            notes.map(|(n, _)| n.parse::<usize>().unwrap()).sum()
        };
        let records = site().records;
        let read = (records.0 + skipped("RAS"), records.1 + skipped("job"));
        let lines = (copy.ras_lines.0, copy.jobs_lines.0);
        assert_eq!(read, lines, "{:?}", copy.dirt);
        let stdout = String::from_utf8(out.stdout).unwrap();
        vec![("four folds".to_owned(), stdout)]
    });
}

/// The committed two-day split (`tests/fixtures/append_split/`, one site
/// cut at its day boundary) folds to the one-shot report of the whole:
/// forward as one batch of both logs, and reversed as a RAS batch then a
/// job batch, which lands before the resident tail, so the job log takes
/// its rebuild path and the event store its out-of-order merge.
#[test]
fn committed_append_split_folds_to_the_one_shot_report() {
    let fx = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/append_split");
    let dir = fresh_dir(&std::env::temp_dir().join("report-paths-append-split"));
    let path = |day: &str, log: &str| fx.join(format!("{day}-{log}.log"));
    for log in ["ras", "jobs"] {
        let read = |day| std::fs::read(path(day, log)).unwrap();
        std::fs::write(dir.join(log), [read("day1"), read("day2")].concat()).unwrap();
    }
    let opts = LoadOptions::default();
    let (ras, jobs) = load::load_pair(&dir.join("ras"), &dir.join("jobs"), &opts).unwrap();
    let (one_shot, job_rows) = (analyze(&ras, &jobs, None), jobs.log.len());
    for (base, tail) in [("day1", "day2"), ("day2", "day1")] {
        let (ras, jobs) = load::load_pair(&path(base, "ras"), &path(base, "jobs"), &opts).unwrap();
        let cfg = CoAnalysisConfig::default();
        let (mut session, _) = DeltaSession::new(cfg, &ras.log, jobs.log);
        let ras = load::load_ras(&path(tail, "ras"), &opts).unwrap();
        let jobs = load::load_jobs(&path(tail, "jobs"), &opts).unwrap();
        let (ras, jobs) = (ras.log.records().to_vec(), jobs.log.jobs().to_vec());
        let (folded, report) = if base == "day1" {
            let (folded, report) = session.append(AppendBatch { ras, jobs });
            // A batch of both logs dirties the whole graph's inputs.
            assert!(report.reran.contains(StageId::TemporalSpatial));
            (folded, report)
        } else {
            session.append(AppendBatch { ras, jobs: vec![] });
            let (folded, report) = session.append(AppendBatch { ras: vec![], jobs });
            // No RAS change: the filters read only event-side inputs.
            assert!(!report.reran.contains(StageId::TemporalSpatial));
            (folded, report)
        };
        assert!(report.reran.contains(StageId::Matching) && !report.changed.is_empty());
        assert!(render_report(&folded) == one_shot, "{base} + {tail}");
        let (events, rows) = session.ingested();
        assert!(
            events > 0 && rows == job_rows,
            "{events} events, {rows} job rows"
        );
    }
}
