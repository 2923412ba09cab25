//! Set-up: one simulated Intrepid site per run, its logs written to disk,
//! the reference report, and the live-fold replay window.

use crate::stats::{median, secs};
use bgp_sim::{SimConfig, Simulation};
use coanalysis::{CoAnalysis, LoadOptions, SnapshotStatus};
use raslog::{RasLog, RasRecord};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 2;

/// Wall-clock length of one live-fold tick.
pub const TICK_MS: u64 = 100;

/// Which benchmark workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Text logs on disk, no snapshot cache: parse and load dominate.
    Cold,
    /// The same logs with the `.bgpsnap` cache primed: parsing is skipped.
    Warm,
    /// Open-loop replay into the live daemon's incremental fold.
    Live,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-paper" => Some(Workload::Cold),
            "warm-paper" => Some(Workload::Warm),
            "live-fold" => Some(Workload::Live),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-paper",
            Workload::Warm => "warm-paper",
            Workload::Live => "live-fold",
        }
    }
}

/// Site size: the paper's 237-day window, or the test preset for the
/// benchmark's self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `SimConfig::intrepid_2009`.
    Paper,
    /// `SimConfig::small_test`.
    Small,
}

impl Scale {
    fn config(self, seed: u64) -> SimConfig {
        match self {
            Scale::Paper => SimConfig::intrepid_2009(seed),
            Scale::Small => SimConfig::small_test(seed),
        }
    }

    /// Simulated time one live-fold tick carries, and where the replay
    /// window starts, in days after the site's first day.
    fn window_shape(self) -> (i64, i64) {
        match self {
            // 6 h per 100 ms tick: ~2.2 k records a tick on average (~22 k
            // records/s), under a third of the rate at which the fold
            // saturates on a 2-vCPU host, with storms arriving as bursts.
            Scale::Paper => (6 * 3600, 30),
            Scale::Small => (6 * 3600, 1),
        }
    }
}

/// The live-fold replay: a contiguous window of the RAS text cut into
/// ticks, each carrying a fixed slice of simulated time.
#[derive(Debug)]
pub struct Window {
    /// The window's records, in log order.
    pub records: Vec<RasRecord>,
    /// Per tick, the range of `records` it carries.
    pub ticks: Vec<std::ops::Range<usize>>,
    /// Per tick, its records as BG/P text lines.
    pub text: Vec<Vec<u8>>,
}

impl Window {
    /// The one-shot reference report over the first `ticks` ticks.
    pub fn reference(&self, ticks: usize, jobs: &joblog::JobLog) -> String {
        let ticks = ticks.min(self.ticks.len());
        let end = self
            .ticks
            .get(..ticks)
            .and_then(|t| t.last())
            .map_or(0, |r| r.end);
        let ras = RasLog::from_records(self.records[..end].to_vec());
        bgp_serve::render_report(&CoAnalysis::default().run(&ras, jobs))
    }

    /// Bytes of text in the first `ticks` ticks.
    pub fn bytes(&self, ticks: usize) -> usize {
        self.text.iter().take(ticks).map(Vec::len).sum()
    }
}

/// Input descriptor: what was measured, so a different input cannot pass
/// for a speed change.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// RAS records in the site's log.
    pub ras_records: usize,
    /// Bytes of the RAS text on disk (the full log, or the live window).
    pub ras_bytes: u64,
    /// Job records.
    pub jobs: usize,
    /// Bytes of the job text on disk.
    pub jobs_bytes: u64,
    /// The filter funnel of the reference run: raw FATAL records, events
    /// after the temporal, spatial and causal filters, after job-related
    /// filtering.
    pub funnel: (usize, usize, usize),
}

/// Everything a run measures against.
#[derive(Debug)]
pub struct Site {
    /// RAS text on disk: the full log, or the live window's text.
    pub ras_path: PathBuf,
    /// Job text on disk.
    pub jobs_path: PathBuf,
    /// `.bgpsnap` directory (primed for `warm-paper`).
    pub snap_dir: PathBuf,
    /// `render_report` of a one-shot run over the in-memory sim output (for
    /// live-fold: over the replay window).
    pub reference: String,
    /// The live replay window (also the source of the fold probes).
    pub window: Window,
    /// The job log, kept in memory for the window references.
    pub jobs: joblog::JobLog,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Input descriptor.
    pub inputs: Inputs,
}

fn write_text(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<u64, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    write(&mut w)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Cut up to `ticks` ticks, as many as fit before the site's last day.
fn cut_window(ras: &RasLog, cfg: &SimConfig, scale: Scale, ticks: usize) -> Window {
    let (slice_secs, offset_days) = scale.window_shape();
    let start = cfg.start.as_unix() + offset_days * 86_400;
    let room = (cfg.end().as_unix() - start).max(0) / slice_secs;
    let n = i64::try_from(ticks).unwrap_or(i64::MAX).min(room);
    let records = ras.records();
    let at = |t: i64| records.partition_point(|r| r.event_time.as_unix() < t);
    let first = at(start);
    let bounds: Vec<usize> = (0..=n).map(|k| at(start + k * slice_secs)).collect();
    let window: Vec<RasRecord> = records[first..bounds[n as usize]].to_vec();
    let ticks: Vec<std::ops::Range<usize>> = bounds
        .windows(2)
        .map(|w| (w[0] - first)..(w[1] - first))
        .collect();
    let text = ticks
        .iter()
        .map(|r| {
            let mut buf = Vec::new();
            for rec in &window[r.clone()] {
                buf.extend_from_slice(raslog::format_record(rec).as_bytes());
                buf.push(b'\n');
            }
            buf
        })
        .collect();
    Window {
        records: window,
        ticks,
        text,
    }
}

/// Simulate the site and write its logs, `SETUP_REPS` times; keep the last,
/// with a live-fold window of up to `ticks` ticks.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    ticks: usize,
    dir: &Path,
) -> Result<Site, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ras_path = dir.join(if workload == Workload::Live {
        "window.log"
    } else {
        "ras.log"
    });
    let jobs_path = dir.join("jobs.log");
    let snap_dir = dir.join("snap");
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let _ = std::fs::remove_dir_all(&snap_dir);
        let t = Instant::now();
        let cfg = scale.config(seed);
        let sim = Simulation::new(cfg.clone())
            .map_err(|e| format!("simulation: {e}"))?
            .run();
        let jobs_bytes = write_text(&jobs_path, |w| joblog::write_log(w, sim.jobs.jobs()))?;
        let (window, ras_bytes) = if workload == Workload::Live {
            let window = cut_window(&sim.ras, &cfg, scale, ticks);
            let bytes = write_text(&ras_path, |w| {
                window.text.iter().try_for_each(|t| w.write_all(t))
            })?;
            (Some(window), bytes)
        } else {
            (
                None,
                write_text(&ras_path, |w| raslog::write_log(w, sim.ras.records()))?,
            )
        };
        if workload == Workload::Warm {
            let opts = LoadOptions {
                snapshot_dir: Some(snap_dir.clone()),
                ..LoadOptions::default()
            };
            let (ras, jobs) =
                coanalysis::load_pair(&ras_path, &jobs_path, &opts).map_err(|e| e.to_string())?;
            if ras.snapshot != SnapshotStatus::Written || jobs.snapshot != SnapshotStatus::Written {
                return Err(format!(
                    "priming the snapshot cache: {} / {}",
                    ras.snapshot, jobs.snapshot
                ));
            }
        }
        times.push(secs(t));
        last = Some((sim, cfg, window, ras_bytes, jobs_bytes));
    }
    let (sim, cfg, window, ras_bytes, jobs_bytes) = last.ok_or("no set-up ran")?;
    let window = window.unwrap_or_else(|| cut_window(&sim.ras, &cfg, scale, ticks));
    let (reference, funnel) = if workload == Workload::Live {
        let ras = RasLog::from_records(window.records.clone());
        let r = CoAnalysis::default().run(&ras, &sim.jobs);
        (bgp_serve::render_report(&r), r.filter_stats)
    } else {
        let r = CoAnalysis::default().run(&sim.ras, &sim.jobs);
        (bgp_serve::render_report(&r), r.filter_stats)
    };
    let inputs = Inputs {
        ras_records: if workload == Workload::Live {
            window.records.len()
        } else {
            sim.ras.len()
        },
        ras_bytes,
        jobs: sim.jobs.len(),
        jobs_bytes,
        funnel: (
            funnel.raw_fatal,
            funnel.after_causal,
            funnel.after_job_related,
        ),
    };
    Ok(Site {
        ras_path,
        jobs_path,
        snap_dir,
        reference,
        window,
        jobs: sim.jobs,
        setup_s: median(&times),
        inputs,
    })
}
