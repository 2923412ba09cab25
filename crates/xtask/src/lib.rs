//! # `xtask` — the workspace's static-analysis harness
//!
//! Invoked as `cargo xtask lint` (the alias lives in `.cargo/config.toml`),
//! this crate enforces the two *domain* invariants that neither `rustc`,
//! `clippy` nor an ordinary test can hold:
//!
//! * **Structure** — pipeline stages document their input/output contract
//!   (`stage-contract`).
//! * **Concurrency** — the serve daemon never holds a lock across blocking
//!   I/O (`serve-concurrency`).
//!
//! What the compiler can check, it checks instead. The root `clippy.toml`
//! bans ambient clocks, the raw `raslog`/`joblog` parser entry points
//! outside their sanctioned call sites, unbounded queues and threads forked
//! outside the two fork-join helpers (`disallowed-methods`), and hash
//! containers in `coanalysis`, whose key order must be fixed by
//! construction (`disallowed-types`). The `[lints]` tables of the manifests
//! set `unsafe_code`, `missing_docs`, duplicate dependency versions and
//! `wildcard_enum_match_arm`. What a test can check, a test checks: the
//! snapshot and cassette layouts are golden bytes
//! (`tests/snapshot_golden.rs`), and every code name the simulator and the
//! predictor use resolves in the catalog (unit tests beside each table). A
//! false positive in a rule here is fixed in the rule or in the code; there
//! is no suppression comment.
//!
//! See `DESIGN.md` § "Static analysis & invariants" for the full catalog and
//! the policy for adding rules.

pub mod rules;
pub mod source;
pub mod syntax;
pub mod workspace;

pub use rules::{Finding, RuleInfo, RULES};
pub use source::SourceFile;
