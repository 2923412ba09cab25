//! Per-error-code classification: impact (does it really interrupt jobs?)
//! and root cause (system failure vs. application error).

pub mod interruption_related;
pub mod root_cause;

pub use interruption_related::{classify_impact, CodeImpact, ImpactSummary};
pub use root_cause::{classify_root_cause, RootCause, RootCauseSummary};
