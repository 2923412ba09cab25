//! # `bgp-bench` — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation from a
//! simulated Intrepid (see `DESIGN.md` §3 for the experiment index), and
//! keeps the frozen pre-optimization kernels ([`baseline`]) that
//! `tests/baseline_equivalence.rs` holds the optimized kernels to. Timing
//! lives in `perfbench/`, not here.
//!
//! The heavy lifting lives in [`Experiments`]: it runs the simulator once,
//! runs the co-analysis pipeline once, and each `table_*` / `fig_*` method
//! renders one deliverable as text (and optionally as JSON series for
//! plotting).

pub mod baseline;
pub mod experiments;
pub mod json;
pub mod render;

pub use experiments::{Experiments, Scale};
