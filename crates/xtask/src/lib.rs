//! # `xtask` — the workspace's static-analysis harness
//!
//! Invoked as `cargo xtask lint` (the alias lives in `.cargo/config.toml`),
//! this crate enforces the *domain* invariants that `rustc` and `clippy`
//! cannot see:
//!
//! * **Determinism** — `crates/core` and `crates/stats` may not read ambient
//!   clocks or entropy; the paper's co-analysis must be a pure function of
//!   its input logs and explicit seeds.
//! * **Cross-crate consistency** — every ERRCODE the classifier mentions
//!   must exist in `raslog`'s catalog.
//! * **Totality over severities** — no wildcard `match` over `Severity`.
//! * **No panic paths** — library code returns typed errors; `unwrap`,
//!   `expect`, and `panic!` are confined to test code.
//! * **Structural hygiene** — crate roots carry `#![forbid(unsafe_code)]`
//!   and `#![warn(missing_docs)]`; public pipeline stages document their
//!   input/output contract; `Cargo.lock` carries no duplicate majors.
//!
//! A finding is suppressed — visibly, greppably — with a justification
//! comment on or directly above the offending line:
//!
//! ```text
//! // xtask-allow(no-panic): mutex poisoning is unrecoverable here by design
//! let guard = lock.lock().unwrap();
//! ```
//!
//! See `DESIGN.md` § "Static analysis & invariants" for the full catalog and
//! the policy for adding rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hashmodel;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod workspace;

pub use rules::{Finding, RuleInfo, RULES};
pub use source::SourceFile;
