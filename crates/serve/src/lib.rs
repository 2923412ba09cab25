//! `bgp-serve`: a long-running co-analysis daemon over `std::net`.
//!
//! The batch pipeline in [`coanalysis`] answers "what happened in this
//! log?"; this crate answers "what is happening right now?". A daemon
//! ([`Server`]) ingests RAS records over a line-delimited TCP protocol
//! and/or by tailing a log file, queues them for one analysis worker that
//! owns the daemon's single
//! [`OnlineAnalyzer`](coanalysis::stream::OnlineAnalyzer) (and, with
//! `--full-analysis`, its incremental fold), and serves live results over a
//! hand-rolled HTTP/1.1 front-end: `/healthz`, `/metrics` (Prometheus
//! text), `/events` (JSON ring of recent independent events), `/summary`
//! (stream counters), and `/shutdown` (graceful drain).
//!
//! Module map:
//!
//! * [`protocol`] — newline framing with length limits;
//! * [`source`] — the TCP ingest listener and the optional file tailer;
//! * `worker` — the one bounded ingest queue and the analysis thread behind
//!   it, which analyzes, folds and publishes once per batch;
//! * [`ring`] — the recent-events ring served at `/events`;
//! * [`metrics`] — counters/gauges/histograms + Prometheus rendering;
//! * [`http`] — the minimal HTTP front-end;
//! * [`locked`] — [`Locked`], the one way state is shared between threads;
//! * [`full`] — `--full-analysis`: the complete co-analysis report served
//!   at `/analysis`, folded incrementally per ingest batch through a
//!   [`DeltaSession`](coanalysis::DeltaSession);
//! * `recorder` — `--record`: capturing live ingest chunks as a cassette;
//! * `replay` — `--replay`: deterministic cassette playback through the
//!   ingest path, ending in a graceful one-shot drain;
//! * [`server`] — assembly, two-phase graceful shutdown, final summary;
//! * [`timing`] — [`StageTimer`], wiring the same metrics registry into the
//!   batch pipeline via [`CoAnalysis::run_on_observed`](coanalysis::CoAnalysis::run_on_observed);
//! * [`config`] — flag parsing, the analysis flags `coctl` shares, and the
//!   on-disk impact-verdict format;
//! * [`error`] — the typed error for everything above.
//!
//! Everything here is dependency-free by design: `std::net`, `std::sync`,
//! and the workspace crates. No async runtime, no web framework.

pub mod config;
pub mod error;
pub mod full;
pub mod http;
pub mod locked;
pub mod metrics;
pub mod protocol;
pub(crate) mod recorder;
pub(crate) mod replay;
pub mod ring;
pub mod server;
pub mod source;
pub mod timing;
pub(crate) mod worker;

pub use config::{parse_impact, read_impact_file, write_impact, ServeConfig, IMPACT_HEADER};
pub use error::ServeError;
pub use full::{render_report, render_summary, AnalysisSnapshot, FullAnalysis};
pub use locked::Locked;
pub use metrics::{Counter, Gauge, Histogram, Registry, ServeMetrics};
pub use protocol::LineFramer;
pub use ring::{EventEntry, EventRing};
pub use server::{run, FinalSummary, Server, Shutdown};
pub use timing::StageTimer;
