//! # `bgp_stats` — statistics substrate for log co-analysis
//!
//! Everything the paper's evaluation needs, implemented from scratch (no
//! external statistics crates):
//!
//! * [`weibull`] / [`exponential`] — the two interarrival models the paper
//!   fits (Section V), with maximum-likelihood estimation exactly as in
//!   Schroeder & Gibson \[8\].
//! * [`lrt`] — the likelihood-ratio test the paper uses to show Weibull beats
//!   exponential (exponential is the `shape = 1` submodel of Weibull, so the
//!   LRT statistic is asymptotically χ²₁).
//! * [`ecdf`] — empirical CDFs for Figures 3 and 6.
//! * [`ks`] — Kolmogorov–Smirnov distance as a secondary goodness-of-fit
//!   check.
//! * [`pearson`] — Pearson's correlation coefficient, used by the paper's
//!   root-cause classifier to label leftover fatal types (Section IV-B) and
//!   by the Figure 4 workload/failure-rate comparison.
//! * [`infogain`] — information-gain-ratio feature ranking \[26\], used for
//!   the job-vulnerability study (Section VI-D).
//! * [`special`] — log-gamma and regularized incomplete gamma, needed for
//!   Weibull moments and χ² tail probabilities.
//! * [`summary`], [`hist`] — descriptive statistics and binning helpers.
//! * [`sample`] — seeded samplers (Weibull, exponential, log-normal, Zipf,
//!   categorical, Poisson) used by the simulator.

// `!(x > 0.0)` is the NaN-rejecting validation idiom used throughout this
// crate: it is true for NaN where `x <= 0.0` is not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod ecdf;
pub mod exponential;
pub mod hist;
pub mod infogain;
pub mod ks;
pub mod linreg;
pub mod lrt;
pub mod pearson;
pub mod sample;
pub mod special;
pub mod summary;
pub mod weibull;

pub use ecdf::Ecdf;
pub use exponential::Exponential;
pub use lrt::{compare_models, FitComparison};
pub use weibull::Weibull;

/// Errors from statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input sample was empty or too small for the requested estimate.
    NotEnoughData {
        /// Number of observations required.
        needed: usize,
        /// Number of observations supplied.
        got: usize,
    },
    /// The input contained a value outside the distribution's support
    /// (e.g. a non-positive interarrival time for Weibull fitting).
    InvalidSample(
        /// The offending value.
        f64,
    ),
    /// An iterative estimator failed to converge.
    NoConvergence {
        /// Which estimator.
        what: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A distribution parameter was invalid (non-positive shape/scale/rate).
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            StatsError::InvalidSample(v) => write!(f, "invalid sample value {v}"),
            StatsError::NoConvergence { what, iterations } => {
                write!(f, "{what} failed to converge after {iterations} iterations")
            }
            StatsError::BadParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
        }
    }
}

impl std::error::Error for StatsError {}
