//! # `bgp-coanalysis` — facade crate
//!
//! Re-exports the whole workspace behind one dependency, so examples and
//! downstream users can write `use bgp_coanalysis::coanalysis::...`.
//!
//! See the [README](https://example.org/bgp-coanalysis) for a tour, and
//! `DESIGN.md` for the system inventory.

pub use bgp_model;
pub use bgp_ports;
pub use bgp_serve;
pub use bgp_sim;
pub use bgp_stats;
pub use coanalysis;
pub use joblog;
pub use raslog;
