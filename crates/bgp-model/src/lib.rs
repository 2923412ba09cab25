//! # `bgp_model` — Blue Gene/P machine model
//!
//! This crate is the hardware substrate shared by every other crate in the
//! workspace: it knows what an Intrepid-class Blue Gene/P *is* — racks,
//! midplanes, node cards, compute nodes, I/O nodes, link and service cards —
//! and how the RAS subsystem and the Cobalt scheduler name pieces of it.
//!
//! The main exports are:
//!
//! * [`Location`] — a parsed, strongly typed BG/P location code
//!   (`R23-M1-N04-J12` and friends) with containment and projection queries.
//! * [`Machine`] — the machine geometry (Intrepid is 40 racks in 5 rows of 8,
//!   i.e. 80 midplanes / 40,960 compute nodes / 163,840 cores).
//! * [`Partition`] — a set of midplanes a job can be scheduled on, with the
//!   BG/P legal-size rule ({1, 2, 4, 8, 16, 32, 48, 64, 80} midplanes).
//! * [`Timestamp`] / [`Duration`] — the time axis used by both logs, with
//!   BG/P-style `YYYY-MM-DD-HH.MM.SS` formatting.
//! * [`torus`] — 3-D torus coordinates of midplanes and partition torus
//!   dimensions.
//! * [`text`] — the digit and line writers behind the log text.
//!   [`Location`], [`Partition`] and [`Timestamp`] each write their text
//!   through one byte encoder, which their `Display` calls too.
//!
//! ## Location grammar
//!
//! Real CMCS location strings have several historical quirks (the paper's
//! Table II shows `R-04-M0-S`). We use a regularized grammar, documented in
//! [`location`], that preserves the information content: rack row/column,
//! midplane, node card, node slot, and the card type.

// No `HashMap`/`HashSet` here: the workspace lint table allows them, and
// this crate keeps the root `clippy.toml` ban.
#![deny(clippy::disallowed_types)]

pub mod bytes;
pub mod error;
pub mod intern;
pub mod json;
pub mod location;
pub mod mmap;
pub mod partition;
pub mod snapshot;
pub mod text;
pub mod time;
pub mod topology;
pub mod torus;

pub use error::ModelError;
pub use location::{ComputeNodeId, IoNodeId, LinkCardId, Location, MidplaneId, NodeCardId, RackId};
pub use partition::{Partition, PartitionSize};
pub use time::{Duration, Timestamp};
pub use topology::Machine;
