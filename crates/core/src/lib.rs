//! # `coanalysis` — co-analysis of RAS logs and job logs
//!
//! This crate is the paper's contribution: given a Blue Gene/P RAS log and
//! the matching Cobalt job log, it
//!
//! 1. **filters** the FATAL record stream down to independent events —
//!    temporal + spatial filtering \[12\]\[9\], causality-related filtering
//!    \[7\], and the paper's new **job-related filtering** (Section IV-C);
//! 2. **matches** fatal events to job terminations by time × location
//!    (Section IV);
//! 3. **classifies** every error code: does it really interrupt jobs
//!    (Section IV-A), and is it a system failure or an application error
//!    (Section IV-B, with the Pearson-correlation fallback);
//! 4. **characterizes** failures and job interruptions: Weibull vs.
//!    exponential interarrival fits with a likelihood-ratio test (Tables IV
//!    and V, Figures 3 and 6), per-midplane failure/workload profiles
//!    (Figure 4), burstiness (Figure 5), propagation (Observation 8), and
//!    job vulnerability (Table VI, Figure 7, information-gain-ratio feature
//!    ranking).
//!
//! The twelve observations of the paper are computed as a single
//! [`report::Observations`] value by [`pipeline::CoAnalysis::run`].
//!
//! ```no_run
//! use bgp_sim::{SimConfig, Simulation};
//! use coanalysis::pipeline::CoAnalysis;
//!
//! let out = Simulation::new(SimConfig::small_test(7)).expect("valid config").run();
//! let result = CoAnalysis::default().run(&out.ras, &out.jobs);
//! println!("{}", result.observations());
//! ```

// No `HashMap`/`HashSet` here: every key order is fixed by construction
// (see the root `clippy.toml`).
#![deny(clippy::disallowed_types)]

pub mod analysis;
pub mod classify;
pub mod context;
pub mod event;
pub mod filter;
pub mod load;
pub mod matching;
pub mod pipeline;
pub mod predict;
pub mod report;
pub mod stage;
pub mod stream;

pub use analysis::{FdaAnalysis, FdaParams};
pub use context::{AnalysisContext, AppendBatch, ContextDelta, CtxIndex, EventStore};
pub use event::Event;
pub use load::{
    load_jobs, load_pair, load_ras, LoadError, LoadOptions, LoadedJobs, LoadedRas, LogFormat,
    SnapshotStatus, SourceDiagnostic,
};
pub use pipeline::{CoAnalysis, CoAnalysisConfig, CoAnalysisResult, DeltaSession};
pub use stage::{AnalysisProducts, AnalysisSet, DeltaReport, StageCache, StageId, StageObserver};
pub use stream::StreamCounters;
