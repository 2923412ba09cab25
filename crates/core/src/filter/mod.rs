//! The filtering stack: temporal → spatial → causality-related →
//! job-related.
//!
//! The first three stages are prior art the paper builds on
//! (\[12\], \[9\], \[7\]); the job-related stage is the paper's contribution.
//! Each stage consumes and produces a time-sorted `Vec<Event>`, with merged
//! record counts preserved so compression ratios can be reported exactly
//! (the paper: 33,370 → 549 → 477).

pub mod causal;
pub mod dedup;
pub mod job_related;
mod proptests;
pub mod spatial;
pub mod temporal;

pub use causal::{CausalFilter, CausalRule};
pub use dedup::{DedupDecision, DedupWindow};
pub use job_related::JobRelatedFilter;
pub use spatial::SpatialFilter;
pub use temporal::TemporalFilter;

/// Record/event counts through the filtering stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Raw FATAL records.
    pub raw_fatal: usize,
    /// Events after temporal filtering.
    pub after_temporal: usize,
    /// Events after spatial filtering.
    pub after_spatial: usize,
    /// Events after causality-related filtering.
    pub after_causal: usize,
    /// Events after job-related filtering.
    pub after_job_related: usize,
}

impl FilterStats {
    /// Compression achieved by temporal+spatial+causal filtering, as a
    /// fraction of raw FATAL records removed (the paper reports 98.35 %).
    pub fn ts_causal_compression(&self) -> f64 {
        if self.raw_fatal == 0 {
            return 0.0;
        }
        1.0 - self.after_causal as f64 / self.raw_fatal as f64
    }

    /// Additional compression achieved by job-related filtering, relative to
    /// the causally-filtered stream (the paper reports 13.1 %).
    pub fn job_related_compression(&self) -> f64 {
        if self.after_causal == 0 {
            return 0.0;
        }
        1.0 - self.after_job_related as f64 / self.after_causal as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratios() {
        let s = FilterStats {
            raw_fatal: 33_370,
            after_temporal: 5_000,
            after_spatial: 700,
            after_causal: 549,
            after_job_related: 477,
        };
        assert!((s.ts_causal_compression() - 0.98355).abs() < 1e-3);
        assert!((s.job_related_compression() - 0.1311).abs() < 1e-3);
        let empty = FilterStats::default();
        assert_eq!(empty.ts_causal_compression(), 0.0);
        assert_eq!(empty.job_related_compression(), 0.0);
    }
}
