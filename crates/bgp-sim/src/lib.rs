//! # `bgp_sim` — a discrete-event simulator of the Intrepid Blue Gene/P
//!
//! The paper analyzes 237 days of real Intrepid logs; those logs are not
//! redistributable with this repository, so this crate builds the closest
//! synthetic equivalent: a discrete-event simulation of the whole machine —
//! Cobalt-like scheduling, a calibrated workload, hardware/software fault
//! processes, and CMCS-style RAS emission with realistic redundancy — that
//! produces a **paired RAS log and job log in the paper's schemas**, plus the
//! ground truth the paper could only approximate by asking administrators.
//!
//! The generative model is built so the phenomena the paper reports *emerge*
//! rather than being painted on:
//!
//! * **Job-related redundancy** emerges because the scheduler has no fault
//!   knowledge: it keeps placing queued jobs onto a midplane whose persistent
//!   fault has not been repaired, and each doomed job re-reports the same
//!   error code (Observation 3, Figure 7 category 1).
//! * **Decreasing-hazard interarrivals** (Weibull shape < 1, Tables IV/V)
//!   come from the bursty root-fault renewal process plus those chains.
//! * **The wide-job/failure-rate correlation** (Figure 4, Observation 5)
//!   comes from fault intensity coupling to wide-job occupancy, while
//!   placement policy routes wide jobs to the middle midplanes.
//! * **Early application errors** (Observation 11) come from buggy
//!   executables whose failures are drawn from a short-time distribution,
//!   and the **monotone resubmission risk** (Figure 7 category 2) from a
//!   selection effect: easy bugs get fixed, hard bugs keep coming back.
//!
//! Entry point: [`Simulation::run`], returning a [`SimOutput`] with the
//! [`raslog::RasLog`], the [`joblog::JobLog`], and the [`truth::GroundTruth`].
//!
//! ```
//! use bgp_sim::{SimConfig, Simulation};
//!
//! let cfg = SimConfig::small_test(42);
//! let out = Simulation::new(cfg).expect("valid config").run();
//! assert!(out.jobs.len() > 100);
//! assert!(out.ras.fatal().count() > 50);
//! ```

// `!(x > 0.0)` is the NaN-rejecting validation idiom (true for NaN where
// `x <= 0.0` is not).
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod config;
pub mod emission;
pub mod engine;
pub mod error;
pub mod faults;
pub mod scheduler;
pub mod truth;
pub mod workload;

pub use config::SimConfig;
pub use engine::{SimOutput, Simulation};
pub use error::SimError;
pub use truth::{FaultId, FaultNature, GroundTruth, TrueFault};
