//! # `raslog` — the Blue Gene/P RAS log substrate
//!
//! The Core Monitoring and Control System (CMCS) of a Blue Gene/P reports
//! every hardware/software event as a *RAS record* (Table II of the paper):
//! RECID, MSG_ID, COMPONENT, SUBCOMPONENT, ERRCODE, SEVERITY, EVENT_TIME,
//! LOCATION, MESSAGE. This crate models those records, the error-code
//! catalogue behind them, a line-oriented serialization, and an indexed
//! in-memory log container.
//!
//! Performance notes (these records number in the millions):
//!
//! * [`RasRecord`] is a compact fixed-size value type (≤ 32 bytes): the
//!   error code is a [`ErrCode`] index into the shared [`Catalog`], and the
//!   free-text MESSAGE is *not stored* — it is materialized from the
//!   catalogue template only when writing.
//! * [`RasLog`] keeps records sorted by `(event_time, recid)`, so a time
//!   window is a binary search; it sorts only input that is out of order.
//! * [`parse::RasLineParser`] (behind [`parse_line_bytes`]) first probes a
//!   line's head: RECID, then the catalogue's whole
//!   `|MSG_ID|COMPONENT|SUBCOMPONENT|ERRCODE|SEVERITY|` text for one code,
//!   found by one table probe and compared a word at a time, then a
//!   canonical time and location; the line is never split and MESSAGE
//!   never read. Any other line is split, and each parsed field goes
//!   through a byte-level fast path for its canonical form or else the
//!   general parser, with identical results. A worker's parser keeps a
//!   memo of the last day it read.
//! * [`ingest`] parses a whole in-memory log on newline-aligned byte chunks
//!   across scoped threads, bit-identical to [`RasReader`]; [`snapshot`]
//!   caches the parsed columns on disk (`.bgpsnap`) so re-runs skip parsing
//!   entirely.

pub mod catalog;
pub mod component;
pub mod ingest;
pub mod log;
pub mod parse;
pub mod record;
pub mod severity;
pub mod snapshot;
pub mod summary;
pub mod write;

pub use catalog::{Catalog, CodeInfo, ErrCode};
pub use component::Component;
pub use ingest::{parse_log_bytes, parse_log_bytes_where};
pub use log::{Projection, RasLog};
pub use parse::{parse_line, parse_line_bytes, RasParseError, RasReader};
pub use record::RasRecord;
pub use severity::Severity;
pub use summary::LogSummary;
pub use write::{format_record, write_log};
