//! # `joblog` — the Cobalt job log substrate
//!
//! Intrepid's jobs are scheduled by Cobalt; its accounting log records, per
//! job: submission/queue/start/end times, the allocated partition, the
//! executable, user, and project (Table III of the paper). Co-analysis joins
//! this log with the RAS log on **time × location**.
//!
//! The crate provides:
//!
//! * [`JobRecord`] — one job, with derived quantities (size class, runtime,
//!   Table VI runtime bucket).
//! * [`JobLog`] — a container indexed for the two queries co-analysis runs
//!   millions of times: *which jobs were running at time t on midplane m* and
//!   *which jobs ended near time t*. It owns every other index over the job
//!   table too: job-id lookup (a duplicated id means its last row) and
//!   distinct-job grouping by executable ([`ExecGroups`]), which underpins
//!   the paper's resubmission analysis (Figure 7) and job-related
//!   filtering.

pub mod ingest;
pub mod log;
pub mod metrics;
pub mod parse;
pub mod record;
pub mod snapshot;
pub mod write;

pub use ingest::parse_log_bytes;
pub use log::{ExecGroups, JobLog};
pub use parse::{parse_line, parse_line_bytes, JobParseError, JobParseErrorKind, JobReader};
pub use record::{ExecId, ExitStatus, JobRecord, ProjectId, UserId};
pub use write::{format_record, write_log};
