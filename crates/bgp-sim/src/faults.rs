//! The fault model: which error codes exist in which behavioural groups,
//! how root faults choose codes and locations, and which codes travel
//! together (causal companions).
//!
//! This module holds the **ground-truth semantics** of the synthetic error
//! codes — what the analysis side has to rediscover. The group sizes mirror
//! the paper's Section IV findings: 8 application-error types, 2
//! fatal-labeled-but-transient types, 23 interruption-capable system types
//! observed on busy hardware, and a 49-type long tail that only ever fires on
//! idle hardware.

use crate::truth::FaultNature;
use rand::{Rng, RngExt};
use raslog::{Catalog, ErrCode};
use std::collections::HashMap;

/// The 8 application-error codes (reported from KERNEL, like the real log).
pub const APP_ERROR_CODES: [&str; 8] = [
    "_bgp_err_app_invalid_mem_addr",
    "_bgp_err_app_out_of_memory",
    "_bgp_err_fs_operation_error",
    "_bgp_err_collective_op_error",
    "CiodHungProxy",
    "bg_code_script_error",
    "_bgp_err_app_alignment_trap",
    "_bgp_err_mpi_abort",
];

/// The application-error codes that propagate through the shared file system
/// to co-running jobs (the paper's two spatially-propagating types).
pub const FS_PROPAGATING_CODES: [&str; 2] = ["CiodHungProxy", "bg_code_script_error"];

/// The 2 fatal-labeled transient codes (Observation 1).
pub const TRANSIENT_CODES: [&str; 2] = ["BULK_POWER_FATAL", "_bgp_err_torus_fatal_sum"];

/// The 23 interruption-capable system-failure codes with their relative
/// occurrence weights. The first four are the paper's named
/// repeat-interrupter types (L1 parity, DDR controller, fs configuration,
/// link card) and are the persistent-capable ones; L1 parity is the most
/// common, matching the paper's "28 jobs in 92 hours" chain.
pub const SYSTEM_BUSY_CODES: [(&str, f64); 23] = [
    ("_bgp_err_cns_ras_storm_fatal", 10.0),
    ("_bgp_err_ddr_controller", 6.0),
    ("_bgp_err_fs_config", 5.0),
    ("_bgp_err_linkcard_failure", 4.0),
    ("_bgp_err_kernel_panic", 6.0),
    ("_bgp_err_torus_sender_fifo", 3.0),
    ("_bgp_err_torus_receiver_parity", 3.0),
    ("_bgp_err_collective_net_hw", 2.5),
    ("_bgp_err_ionode_crash", 4.0),
    ("_bgp_err_gpfs_mount_failure", 3.0),
    ("_bgp_err_node_ecc_uncorrectable", 3.0),
    ("_bgp_err_l2_cache_failure", 1.5),
    ("_bgp_err_l3_edram_failure", 1.5),
    ("_bgp_err_fpu_unavailable", 1.0),
    ("_bgp_err_nodecard_power", 2.0),
    ("_bgp_err_servicecard_comm", 1.5),
    ("DetectedClockCardErrors", 1.5),
    ("_bgp_err_mmcs_boot_failure", 2.0),
    ("_bgp_err_mmcs_db_connection", 1.0),
    ("_bgp_err_mc_timeout", 1.0),
    ("_bgp_err_baremetal_svc", 0.8),
    ("_bgp_err_io_collective_sync", 1.2),
    ("_bgp_err_eth_10g_link_down", 1.5),
];

/// Codes whose faults leave the midplane broken until repair (when the
/// persistence coin lands heads): the paper's four repeat-interrupter types.
pub const PERSISTENT_CAPABLE_CODES: [&str; 4] = [
    "_bgp_err_cns_ras_storm_fatal",
    "_bgp_err_ddr_controller",
    "_bgp_err_fs_config",
    "_bgp_err_linkcard_failure",
];

/// Causal companion codes: when the key fires, the companions are emitted in
/// the same storm (different ERRCODE, so temporal-spatial filtering cannot
/// collapse them — that is the causality-related filter's job).
pub const COMPANIONS: [(&str, &str); 6] = [
    ("_bgp_err_cns_ras_storm_fatal", "_bgp_err_kernel_panic"),
    ("_bgp_err_ddr_controller", "_bgp_err_node_ecc_uncorrectable"),
    ("_bgp_err_ionode_crash", "_bgp_err_gpfs_mount_failure"),
    ("_bgp_err_ionode_crash", "_bgp_err_eth_10g_link_down"),
    ("_bgp_err_linkcard_failure", "_bgp_err_torus_sender_fifo"),
    ("_bgp_err_fs_config", "_bgp_err_gpfs_mount_failure"),
];

/// The resolved fault model (names resolved to catalogue codes once).
#[derive(Debug, Clone)]
pub struct FaultModel {
    /// Application-error codes, parallel to a weight vector.
    pub app_codes: Vec<ErrCode>,
    /// Weights for choosing an app code for a buggy executable.
    pub app_weights: Vec<f64>,
    /// Codes that propagate via the shared file system.
    pub fs_propagating: Vec<ErrCode>,
    /// Transient FATAL codes.
    pub transient_codes: Vec<ErrCode>,
    /// Interruption-capable system codes.
    pub system_codes: Vec<ErrCode>,
    /// Weights, parallel to `system_codes`.
    pub system_weights: Vec<f64>,
    /// Persistent-capable subset of `system_codes`.
    pub persistent_capable: Vec<ErrCode>,
    /// The 49-type idle-only long tail.
    pub idle_codes: Vec<ErrCode>,
    /// Companion map for causal storms.
    pub companions: HashMap<ErrCode, Vec<ErrCode>>,
}

impl FaultModel {
    /// Resolve the standard model against [`Catalog::standard`].
    pub fn standard() -> FaultModel {
        let cat = Catalog::standard();
        #[expect(
            clippy::panic,
            reason = "the `every_table_name_is_a_catalog_code` unit test resolves every name in the static tables; dropping entries would desynchronise the parallel weight arrays"
        )]
        let resolve = |name: &str| {
            cat.lookup(name)
                .unwrap_or_else(|| panic!("fault model references unknown code {name}"))
        };
        let app_codes: Vec<ErrCode> = APP_ERROR_CODES.iter().map(|n| resolve(n)).collect();
        // Invalid memory access and OOM dominate real application aborts;
        // the fs-wide types are rarer.
        let app_weights = vec![3.0, 2.5, 1.5, 1.0, 0.8, 0.7, 1.0, 2.0];
        let system_codes: Vec<ErrCode> =
            SYSTEM_BUSY_CODES.iter().map(|&(n, _)| resolve(n)).collect();
        let system_weights: Vec<f64> = SYSTEM_BUSY_CODES.iter().map(|&(_, w)| w).collect();
        // The idle-only tail is everything FATAL that is in no other group.
        let mut other: Vec<ErrCode> = app_codes.clone();
        other.extend(TRANSIENT_CODES.iter().map(|n| resolve(n)));
        other.extend(system_codes.iter().copied());
        let idle_codes: Vec<ErrCode> = cat.fatal_codes().filter(|c| !other.contains(c)).collect();
        let mut companions: HashMap<ErrCode, Vec<ErrCode>> = HashMap::new();
        for (key, companion) in COMPANIONS {
            companions
                .entry(resolve(key))
                .or_default()
                .push(resolve(companion));
        }
        FaultModel {
            app_codes,
            app_weights,
            fs_propagating: FS_PROPAGATING_CODES.iter().map(|n| resolve(n)).collect(),
            transient_codes: TRANSIENT_CODES.iter().map(|n| resolve(n)).collect(),
            system_codes,
            system_weights,
            persistent_capable: PERSISTENT_CAPABLE_CODES
                .iter()
                .map(|n| resolve(n))
                .collect(),
            idle_codes,
            companions,
        }
    }

    /// Sample an application-error code for a buggy executable.
    pub fn sample_app_code<R: Rng>(&self, rng: &mut R) -> ErrCode {
        self.app_codes[bgp_stats::sample::categorical(rng, &self.app_weights)]
    }

    /// Sample a busy-location system code.
    pub fn sample_system_code<R: Rng>(&self, rng: &mut R) -> ErrCode {
        self.system_codes[bgp_stats::sample::categorical(rng, &self.system_weights)]
    }

    /// Sample an idle-location code: mostly the long tail, sometimes a
    /// regular system code striking unoccupied hardware (so that system
    /// codes exhibit the paper's case-2 "fired with nobody there" pattern).
    pub fn sample_idle_code<R: Rng>(&self, rng: &mut R) -> ErrCode {
        if rng.random::<f64>() < 0.7 {
            self.idle_codes[rng.random_range(0..self.idle_codes.len())]
        } else {
            self.sample_system_code(rng)
        }
    }

    /// Sample a transient code.
    pub fn sample_transient_code<R: Rng>(&self, rng: &mut R) -> ErrCode {
        self.transient_codes[rng.random_range(0..self.transient_codes.len())]
    }

    /// Can this code leave hardware broken until repair?
    pub fn is_persistent_capable(&self, code: ErrCode) -> bool {
        self.persistent_capable.contains(&code)
    }

    /// Does this code propagate through the shared file system?
    pub fn is_fs_propagating(&self, code: ErrCode) -> bool {
        self.fs_propagating.contains(&code)
    }

    /// The true nature of a code under this model.
    pub fn nature_of(&self, code: ErrCode) -> FaultNature {
        if self.app_codes.contains(&code) {
            FaultNature::ApplicationError
        } else if self.transient_codes.contains(&code) {
            FaultNature::Transient
        } else {
            FaultNature::SystemFailure
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn every_table_name_is_a_catalog_code() {
        let names = APP_ERROR_CODES
            .iter()
            .chain(&FS_PROPAGATING_CODES)
            .chain(&TRANSIENT_CODES)
            .chain(SYSTEM_BUSY_CODES.iter().map(|(n, _)| n))
            .chain(&PERSISTENT_CAPABLE_CODES)
            .chain(COMPANIONS.iter().flat_map(|(k, c)| [k, c]));
        for name in names {
            assert!(
                Catalog::standard().lookup(name).is_some(),
                "fault table names `{name}`, which is not in raslog's catalog"
            );
        }
    }

    #[test]
    fn group_sizes_match_paper() {
        let m = FaultModel::standard();
        assert_eq!(m.app_codes.len(), 8);
        assert_eq!(m.transient_codes.len(), 2);
        assert_eq!(m.system_codes.len(), 23);
        assert_eq!(m.idle_codes.len(), 49);
        assert_eq!(
            m.app_codes.len() + m.transient_codes.len() + m.system_codes.len() + m.idle_codes.len(),
            82
        );
        assert_eq!(m.app_weights.len(), m.app_codes.len());
        assert_eq!(m.system_weights.len(), m.system_codes.len());
    }

    #[test]
    fn groups_are_disjoint() {
        let m = FaultModel::standard();
        let mut all: Vec<ErrCode> = m
            .app_codes
            .iter()
            .chain(&m.transient_codes)
            .chain(&m.system_codes)
            .chain(&m.idle_codes)
            .copied()
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "code groups overlap");
    }

    #[test]
    fn natures() {
        let m = FaultModel::standard();
        let cat = Catalog::standard();
        assert_eq!(
            m.nature_of(cat.lookup("CiodHungProxy").unwrap()),
            FaultNature::ApplicationError
        );
        assert_eq!(
            m.nature_of(cat.lookup("BULK_POWER_FATAL").unwrap()),
            FaultNature::Transient
        );
        assert_eq!(
            m.nature_of(cat.lookup("_bgp_err_ddr_controller").unwrap()),
            FaultNature::SystemFailure
        );
        assert_eq!(
            m.nature_of(cat.lookup("_bgp_err_diag_netbist").unwrap()),
            FaultNature::SystemFailure
        );
    }

    #[test]
    fn persistence_and_propagation_flags() {
        let m = FaultModel::standard();
        let cat = Catalog::standard();
        assert!(m.is_persistent_capable(cat.lookup("_bgp_err_cns_ras_storm_fatal").unwrap()));
        assert!(!m.is_persistent_capable(cat.lookup("_bgp_err_kernel_panic").unwrap()));
        assert!(m.is_fs_propagating(cat.lookup("CiodHungProxy").unwrap()));
        assert!(!m.is_fs_propagating(cat.lookup("_bgp_err_mpi_abort").unwrap()));
    }

    #[test]
    fn sampling_respects_groups() {
        let m = FaultModel::standard();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            assert!(m.app_codes.contains(&m.sample_app_code(&mut rng)));
            assert!(m.system_codes.contains(&m.sample_system_code(&mut rng)));
            assert!(m
                .transient_codes
                .contains(&m.sample_transient_code(&mut rng)));
            let idle = m.sample_idle_code(&mut rng);
            assert!(
                m.idle_codes.contains(&idle) || m.system_codes.contains(&idle),
                "idle sample from wrong group"
            );
        }
    }

    #[test]
    fn companion_map_resolves() {
        let m = FaultModel::standard();
        let cat = Catalog::standard();
        let l1 = cat.lookup("_bgp_err_cns_ras_storm_fatal").unwrap();
        assert!(!m.companions[&l1].is_empty());
        let io = cat.lookup("_bgp_err_ionode_crash").unwrap();
        assert_eq!(m.companions[&io].len(), 2);
    }
}
