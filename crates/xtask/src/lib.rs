//! # `xtask` — the workspace's static-analysis harness
//!
//! Invoked as `cargo xtask lint` (the alias lives in `.cargo/config.toml`),
//! this crate enforces the *domain* invariants that `rustc` and `clippy`
//! cannot see:
//!
//! * **Cross-crate consistency** — every ERRCODE the classifier mentions
//!   must exist in `raslog`'s catalog; snapshot layout fingerprints track
//!   the record structs.
//! * **Totality over severities** — no wildcard `match` over `Severity`.
//! * **Structure** — pipeline stages document their input/output contract;
//!   raw parser entry points stay behind the BG/P adapter; every SWAR scan
//!   keeps a tested scalar twin.
//! * **Concurrency** — parallel kernels never let hash order reach a
//!   result, and the serve daemon never holds a lock across blocking I/O.
//!
//! What the compiler can check, it checks instead: ambient clocks are
//! clippy `disallowed-methods` (root `clippy.toml`), and `unsafe_code`,
//! `missing_docs` and duplicate dependency versions are set in the
//! `[lints]` tables of the manifests. A false positive in a rule here is
//! fixed in the rule or in the code; there is no suppression comment.
//!
//! See `DESIGN.md` § "Static analysis & invariants" for the full catalog and
//! the policy for adding rules.

pub mod hashmodel;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod workspace;

pub use rules::{Finding, RuleInfo, RULES};
pub use source::SourceFile;
