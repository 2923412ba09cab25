//! End-to-end tests of the `coctl` binary: real process invocations over
//! real files in a temp directory.

// Integration-test helpers follow the test-code panic policy: a broken
// fixture should fail the test loudly, not thread Results around.
#![allow(clippy::unwrap_used, clippy::expect_used, missing_docs)]

use bgp_coanalysis::bgp_serve::render_report;
use bgp_coanalysis::coanalysis::{load, CoAnalysis, LoadOptions, StageId};
use std::path::PathBuf;
use std::process::Command;

fn coctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coctl"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coctl-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulate once per test binary run; several tests share the files.
fn site_logs() -> &'static PathBuf {
    use std::sync::OnceLock;
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = workdir("shared");
        let status = coctl()
            .args(["simulate", "--days", "15", "--seed", "5", "--out"])
            .arg(&dir)
            .status()
            .expect("coctl runs");
        assert!(status.success());
        assert!(dir.join("ras.log").exists());
        assert!(dir.join("jobs.log").exists());
        dir
    })
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = coctl().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_subcommand_exits_with_distinct_code_and_lists_serve() {
    let out = coctl().arg("frobnicate").output().unwrap();
    // 3, not the generic usage error 1: scripts can tell a typo'd
    // subcommand from bad flags.
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("coctl serve"), "usage must list serve: {err}");
}

#[test]
fn missing_subcommand_usage_lists_serve() {
    let out = coctl().output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"));
    assert!(err.contains("coctl serve"), "usage must list serve: {err}");
}

#[test]
fn serve_with_bad_flags_is_a_usage_error() {
    let out = coctl().args(["serve", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    let out = coctl().args(["serve", "--ring", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ring"));
}

#[test]
fn coserved_help_and_bad_flags() {
    let coserved = || Command::new(env!("CARGO_BIN_EXE_coserved"));
    let out = coserved().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ingest") && err.contains("/metrics"));
    let out = coserved().args(["--queue-cap", "zero"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue-cap"));
}

/// The exact profile of the shared site (`simulate --days 15 --seed 5`):
/// `summary` is a full load, so it counts every record, not just the FATAL
/// ones the co-analysis load keeps.
const SITE_PROFILE: &str = "32139 records over 15 days\n\
                            severity: INFO=22223 WARNING=4087 ERROR=393 FATAL=5436\n";

#[test]
fn summary_profiles_the_ras_log() {
    let dir = site_logs();
    let summary = |snapshot: Option<&PathBuf>| {
        let mut cmd = coctl();
        cmd.arg("summary").arg(dir.join("ras.log"));
        if let Some(cache) = snapshot {
            cmd.arg("--snapshot").arg(cache);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let out = summary(None);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with(SITE_PROFILE), "{text}");
    assert!(text.contains("top FATAL codes:"));

    // A projected co-analysis load writes the snapshot cache; a full load
    // reading it back still sees every record.
    let cache = workdir("summary-after-analyze");
    let analyze = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("--snapshot")
        .arg(&cache)
        .output()
        .unwrap();
    assert!(analyze.status.success());
    assert!(String::from_utf8_lossy(&analyze.stderr).contains("ras.log: snapshot written"));
    let cached = summary(Some(&cache));
    assert!(String::from_utf8_lossy(&cached.stderr).contains("snapshot loaded"));
    assert_eq!(cached.stdout, out.stdout);
}

#[test]
fn analyze_on_a_log_without_fatal_records_prints_the_empty_funnel() {
    let dir = site_logs();
    let work = workdir("no-fatal");
    let text = std::fs::read_to_string(dir.join("ras.log")).unwrap();
    let quiet: String = text
        .lines()
        .filter(|l| !l.contains("|FATAL|"))
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        quiet.lines().count() > 1000,
        "the log keeps its other records"
    );
    let ras = work.join("ras.log");
    std::fs::write(&ras, quiet).unwrap();
    let out = coctl()
        .arg("analyze")
        .arg(&ras)
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        report.starts_with(
            "filtering: 0 FATAL -> 0 events (-0.00%), job-related -> 0 (-0.00%)\n\
             interruptions: 0 jobs (0 system / 0 application by cause)\n"
        ),
        "{report}"
    );
    // A log with no parsable record at all is still refused.
    std::fs::write(&ras, "garbage\n\nmore garbage\n").unwrap();
    let out = coctl()
        .arg("analyze")
        .arg(&ras)
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no parsable RAS records"));
}

#[test]
fn analyze_prints_the_observations() {
    let dir = site_logs();
    let out = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Obs 12"));
    assert!(text.contains("filtering:"));
}

#[test]
fn analyze_timings_and_impact_out() {
    let dir = site_logs();
    let impact = dir.join("impact.txt");
    let out = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("--timings")
        .arg("--impact-out")
        .arg(&impact)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // A per-stage wall-time block naming every stage comes first...
    let (block, rest) = text
        .strip_prefix("stage timings:\n")
        .and_then(|t| t.split_once("wrote "))
        .expect("timings block, then the impact-out line");
    let timed: Vec<&str> = block
        .lines()
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    let all: Vec<&str> = StageId::ALL.iter().map(|id| id.name()).collect();
    assert_eq!(timed, all);
    // ...then, past the impact-out line, the observed run prints exactly
    // what an untimed run prints.
    let (wrote, report) = rest.split_once('\n').unwrap();
    assert!(wrote.contains("impact verdicts to"), "{wrote}");
    let plain = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(plain.status.success());
    assert_eq!(report, String::from_utf8_lossy(&plain.stdout));
    // The impact file round-trips through the serve-side parser.
    let written = std::fs::read_to_string(&impact).unwrap();
    assert!(written.starts_with("# bgp-impact v1"));
    let parsed = bgp_coanalysis::bgp_serve::parse_impact(&written, "impact.txt").unwrap();
    assert!(!parsed.per_code.is_empty());
}

#[test]
fn analyze_append_is_byte_identical_to_one_shot() {
    // Split the shared site at a line boundary into "day 1" and "day 2",
    // then check `analyze BASE --append DAY2` prints byte-for-byte what a
    // one-shot run over the whole logs prints. The one-shot run reads its
    // inputs buffered (`--no-mmap`) and the folded run maps them (`--mmap`,
    // the default spelled out), so the two load paths also meet here.
    let dir = site_logs();
    let split_dir = workdir("append-split");
    let split = |name: &str, frac_num: usize, frac_den: usize| -> (PathBuf, PathBuf) {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines.len() * frac_num / frac_den;
        let head = split_dir.join(format!("day1-{name}"));
        let tail = split_dir.join(format!("day2-{name}"));
        std::fs::write(&head, lines[..cut].join("\n") + "\n").unwrap();
        std::fs::write(&tail, lines[cut..].join("\n") + "\n").unwrap();
        (head, tail)
    };
    let (ras1, ras2) = split("ras.log", 7, 10);
    let (jobs1, jobs2) = split("jobs.log", 7, 10);

    let full = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("--no-mmap")
        .output()
        .unwrap();
    assert!(full.status.success());

    let delta = coctl()
        .arg("analyze")
        .args([&ras1, &jobs1])
        .arg("--append")
        .arg(&ras2)
        .arg("--append-jobs")
        .arg(&jobs2)
        .arg("--mmap")
        .output()
        .unwrap();
    assert!(
        delta.status.success(),
        "{}",
        String::from_utf8_lossy(&delta.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&delta.stdout),
        String::from_utf8_lossy(&full.stdout),
        "incremental report must match the one-shot run byte for byte"
    );
    // The per-batch fold notes go to stderr, keeping stdout comparable.
    let err = String::from_utf8_lossy(&delta.stderr);
    assert!(err.contains("re-ran"), "{err}");

    // --timings composes with --append: each fold reports the wall clock
    // of the stages it actually re-ran, on stderr, and stdout stays
    // byte-identical to the one-shot run.
    let timed = coctl()
        .arg("analyze")
        .args([&ras1, &jobs1])
        .arg("--append")
        .arg(&ras2)
        .arg("--timings")
        .output()
        .unwrap();
    assert!(
        timed.status.success(),
        "{}",
        String::from_utf8_lossy(&timed.stderr)
    );
    let err = String::from_utf8_lossy(&timed.stderr);
    assert!(err.contains("fold 1 stage timings:"), "{err}");
}

#[test]
fn analyze_append_with_a_late_non_fatal_record_matches_one_shot() {
    // The base pair loads projected to its FATAL records; the appended day
    // loads in full and ends on a non-FATAL record a day past every other
    // record, which moves the end of the observation window.
    let dir = site_logs();
    let work = workdir("append-late");
    let text = std::fs::read_to_string(dir.join("ras.log")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines.len() * 7 / 10;
    let last = lines.last().unwrap();
    let last_fatal = lines.iter().rev().find(|l| l.contains("|FATAL|")).unwrap();
    assert_ne!(last, last_fatal);
    // `..|SEVERITY|YYYY-MM-DD-hh.mm.ss|..`: one day past the last record.
    let mut late: Vec<String> = last.split('|').map(str::to_owned).collect();
    late[0] = "999999".to_owned();
    late[5] = "INFO".to_owned();
    let day: u32 = late[6][8..10].parse().unwrap();
    late[6].replace_range(8..10, &format!("{:02}", day + 1));
    let late = late.join("|");
    let day1 = work.join("day1-ras.log");
    let day2 = work.join("day2-ras.log");
    let whole = work.join("ras.log");
    std::fs::write(&day1, lines[..cut].join("\n") + "\n").unwrap();
    let tail = lines[cut..].join("\n") + "\n" + &late + "\n";
    std::fs::write(&day2, &tail).unwrap();
    std::fs::write(&whole, lines[..cut].join("\n") + "\n" + &tail).unwrap();

    let one_shot = coctl()
        .arg("analyze")
        .arg(&whole)
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(one_shot.status.success());
    let folded = coctl()
        .arg("analyze")
        .arg(&day1)
        .arg(dir.join("jobs.log"))
        .arg("--append")
        .arg(&day2)
        .output()
        .unwrap();
    assert!(
        folded.status.success(),
        "{}",
        String::from_utf8_lossy(&folded.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&folded.stdout),
        String::from_utf8_lossy(&one_shot.stdout)
    );
}

#[test]
fn analyze_fda_appends_the_dimensional_table() {
    let dir = site_logs();
    let plain = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(plain.status.success());
    let fda = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("--fda")
        .output()
        .unwrap();
    assert!(
        fda.status.success(),
        "{}",
        String::from_utf8_lossy(&fda.stderr)
    );
    let plain_text = String::from_utf8_lossy(&plain.stdout);
    let text = String::from_utf8_lossy(&fda.stdout);
    // The flag strictly appends: the observation report is unchanged.
    assert!(text.starts_with(plain_text.as_ref()), "--fda must append");
    assert!(!plain_text.contains("Dimensional root cause"));
    assert!(text.contains("Dimensional root cause (FDA)"), "{text}");
}

#[test]
fn analyze_fda_prints_the_served_report() {
    // `coctl analyze --fda` and the daemon's `/analysis` body share one
    // formatter: stdout is exactly `render_report` of a library run on the
    // same logs.
    let dir = site_logs();
    let out = coctl()
        .arg("analyze")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("--fda")
        .output()
        .unwrap();
    assert!(out.status.success());
    let (ras, jobs) = load::load_pair(
        &dir.join("ras.log"),
        &dir.join("jobs.log"),
        &LoadOptions::default(),
    )
    .unwrap();
    let expected = render_report(&CoAnalysis::default().run(&ras.log, &jobs.log));
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn filter_writes_a_clean_log() {
    let dir = site_logs();
    let clean = dir.join("clean.log");
    let out = coctl()
        .arg("filter")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .arg("-o")
        .arg(&clean)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&clean).unwrap();
    assert!(text.starts_with("# independent fatal events"));
    // The clean log is radically smaller than the input.
    let raw_lines = std::fs::read_to_string(dir.join("ras.log"))
        .unwrap()
        .lines()
        .count();
    assert!(text.lines().count() * 10 < raw_lines);
}

#[test]
fn outages_reports_episodes_or_none() {
    let dir = site_logs();
    let out = coctl()
        .arg("outages")
        .arg(dir.join("ras.log"))
        .arg(dir.join("jobs.log"))
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("episodes"));
}

#[test]
fn snapshot_flag_writes_then_reuses_the_cache() {
    let dir = site_logs();
    let cache = workdir("snap-reuse");
    let run = || {
        coctl()
            .arg("summary")
            .arg(dir.join("ras.log"))
            .arg("--snapshot")
            .arg(&cache)
            .output()
            .unwrap()
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(String::from_utf8_lossy(&first.stderr).contains("snapshot written"));
    assert!(cache.join("ras.log.bgpsnap").exists());
    // Second run loads the snapshot instead of re-parsing, and the report
    // is byte-for-byte the same either way.
    let second = run();
    assert!(second.status.success());
    assert!(String::from_utf8_lossy(&second.stderr).contains("snapshot loaded"));
    assert_eq!(first.stdout, second.stdout);
}

#[test]
fn corrupt_snapshot_falls_back_to_reparsing() {
    let dir = site_logs();
    let cache = workdir("snap-corrupt");
    let run = |sub: &str| {
        coctl()
            .arg(sub)
            .arg(dir.join("ras.log"))
            .arg(dir.join("jobs.log"))
            .arg("--snapshot")
            .arg(&cache)
            .output()
            .unwrap()
    };
    let first = run("analyze");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    // Flip a payload byte in both RAS snapshots — `analyze` reads the FATAL
    // one first, then falls back to the full one: the next run must detect
    // the damage, re-parse the source, rewrite the cache, and still succeed.
    for name in ["ras.log.bgpsnap.fatal", "ras.log.bgpsnap"] {
        let snap = cache.join(name);
        let mut bytes = std::fs::read(&snap).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
    }
    let second = run("analyze");
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let notes = String::from_utf8_lossy(&second.stderr);
    assert!(notes.contains("rewritten"), "stderr: {notes}");
    assert_eq!(first.stdout, second.stdout);
}

#[test]
fn snapshot_flag_without_directory_is_a_usage_error() {
    let out = coctl()
        .args(["summary", "ras.log", "--snapshot"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--snapshot needs a directory"));
}

#[test]
fn unknown_format_exits_with_distinct_code_and_lists_formats() {
    let out = coctl()
        .args(["summary", "ras.log", "--format", "bgl"])
        .output()
        .unwrap();
    // Exit 3, same convention as an unknown subcommand: "this coctl does not
    // support that adapter" is not a generic usage error.
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown log format"), "stderr: {err}");
    for name in ["bgp", "bgq", "syslog", "cassette"] {
        assert!(err.contains(name), "must list {name}: {err}");
    }
    let out = coctl()
        .args(["summary", "ras.log", "--format"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format needs a format name"));
}

#[test]
fn syslog_format_summarizes_a_messages_file() {
    let dir = workdir("syslog-fmt");
    let messages = dir.join("messages");
    let mut text = String::new();
    for i in 0..50 {
        text.push_str(&format!(
            "<{}>Mar {:2} 12:{:02}:00 node{} kernel: event {i}\n",
            if i % 7 == 0 { 2 } else { 13 },
            1 + i % 27,
            i % 60,
            i % 5
        ));
    }
    std::fs::write(&messages, text).unwrap();
    let out = coctl()
        .arg("summary")
        .arg(&messages)
        .args(["--format", "syslog"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("records over"), "stdout: {text}");
}

#[test]
fn cassette_replay_analyzes_identically_to_the_source_log() {
    use bgp_coanalysis::bgp_ports::cassette::{Recorder, StreamKind};
    use bgp_coanalysis::bgp_ports::LogFormat;
    let dir = site_logs();
    let cas_path = dir.join("ras.bgpcas");
    // Record the simulated RAS log into a cassette in awkward 4 KiB chunks.
    let bytes = std::fs::read(dir.join("ras.log")).unwrap();
    let mut rec = Recorder::new(LogFormat::Bgp, StreamKind::Ras).unwrap();
    for chunk in bytes.chunks(4096) {
        rec.push(1_000_000, chunk);
    }
    std::fs::write(&cas_path, rec.finish().encode()).unwrap();
    let analyze = |ras: &PathBuf, format: &str| {
        coctl()
            .arg("analyze")
            .arg(ras)
            .arg(dir.join("jobs.log"))
            .args(["--format", format])
            .output()
            .unwrap()
    };
    let direct = analyze(&dir.join("ras.log"), "bgp");
    assert!(direct.status.success());
    let replayed = analyze(&cas_path, "cassette");
    assert!(
        replayed.status.success(),
        "{}",
        String::from_utf8_lossy(&replayed.stderr)
    );
    // The replay is byte-identical analysis input, so the full observation
    // report matches byte for byte.
    assert_eq!(direct.stdout, replayed.stdout);
    // A truncated cassette is an I/O-class failure, not a silent empty log.
    let cas = std::fs::read(&cas_path).unwrap();
    std::fs::write(&cas_path, &cas[..cas.len() / 2]).unwrap();
    let bad = analyze(&cas_path, "cassette");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn missing_file_exits_with_io_error_code() {
    let out = coctl()
        .args(["summary", "/nonexistent/ras.log"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}
