//! RAS emission: turning true events into realistic record storms, plus the
//! background (non-FATAL) record volume.
//!
//! Real CMCS logs are massively redundant — the paper compresses 33,370
//! FATAL records into 549 events (98.35 %). The redundancy has three shapes,
//! all reproduced here:
//!
//! * **temporal**: the same condition re-reported from the same place every
//!   few seconds until the condition clears;
//! * **spatial**: a parallel job's interrupt is reported from *every*
//!   midplane of its partition, and node-level faults from several node
//!   cards;
//! * **causal**: companion error codes fired by the same root cause within
//!   seconds (a different ERRCODE, so temporal-spatial filtering cannot
//!   merge them — the paper needs causality-related filtering \[7\]).

use crate::faults::FaultModel;
use bgp_model::{
    ComputeNodeId, IoNodeId, LinkCardId, Location, MidplaneId, NodeCardId, Partition, Timestamp,
};
use bgp_stats::sample::{exponential, poisson};
use rand::{Rng, RngExt};
use raslog::{Catalog, Component, ErrCode, RasRecord};

/// The non-FATAL CRC-retry code a link card's torus neighbour echoes.
const LINK_ECHO_CODE: &str = "_bgp_err_link_crc_retry";

/// The correctable-error precursor codes that crowd ahead of a failure.
const ECC_CORRECTED_CODE: &str = "_bgp_warn_ecc_corrected";
const SYMBOL_ERROR_CODE: &str = "_bgp_warn_single_symbol_error";

/// The INFO codes of a partition boot before each job.
const PARTITION_BOOT_CODE: &str = "_bgp_info_partition_boot";
const BOOT_PROGRESS_CODE: &str = "_bgp_info_boot_progress";

/// Ambient background codes with their relative rates.
const AMBIENT_WEIGHTS: [(&str, f64); 12] = [
    ("_bgp_warn_ecc_corrected", 30.0),
    ("_bgp_warn_single_symbol_error", 12.0),
    ("_bgp_warn_torus_retransmit", 10.0),
    ("_bgp_warn_temp_high", 3.0),
    ("_bgp_err_redundant_psu_loss", 0.5),
    ("_bgp_err_link_crc_retry", 4.0),
    ("_bgp_err_io_retry_exhausted", 1.0),
    ("_bgp_warn_fan_speed", 2.0),
    ("_bgp_info_env_poll", 8.0),
    ("_bgp_err_spare_bit_steer", 0.5),
    ("_bgp_info_recovery_progress", 1.0),
    ("_bgp_info_job_start", 6.0),
];

/// Storm-shape parameters (taken from [`crate::SimConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct StormShape {
    /// Mean temporal duplicates per true event.
    pub temporal_mean: f64,
    /// Mean distinct reporting locations per true event.
    pub spatial_mean: f64,
}

/// Pick a plausible detailed location for a record of `code` within
/// midplane `m`: node-level for kernel codes, card-level for card codes,
/// I/O-node-level for CIOD codes, etc.
pub fn detail_location<R: Rng>(rng: &mut R, m: MidplaneId, code: ErrCode) -> Location {
    let info = Catalog::standard().info(code);
    match info.component {
        Component::Card => match info.subcomponent {
            "PALOMINO_B" => Location::BulkPower(m.rack()),
            "PALOMINO_L" => Location::LinkCard(LinkCardId::new_wrapping(m, rng.random_range(0..4))),
            "PALOMINO_N" => {
                let card = NodeCardId::new_wrapping(m, rng.random_range(0..16));
                Location::NodeCard(card)
            }
            _ => Location::ServiceCard(m),
        },
        Component::Kernel if info.subcomponent == "CIOD" => {
            Location::IoNode(IoNodeId::new_wrapping(m, rng.random_range(0..8)))
        }
        Component::Kernel | Component::Diags => {
            let card = NodeCardId::new_wrapping(m, rng.random_range(0..16));
            let node = ComputeNodeId::new_wrapping(card, rng.random_range(0..32));
            Location::ComputeNode(node)
        }
        // Control-system codes report at midplane granularity.
        Component::Application | Component::Mc | Component::Mmcs | Component::Baremetal => {
            Location::Midplane(m)
        }
    }
}

/// Emit the storm of records for one true event.
///
/// `partition` is the interrupted job's allocation, if any: each of its
/// midplanes re-reports the event (parallel-job fan-out). Records are pushed
/// with `recid = 0`; the engine assigns final RECIDs after the global sort.
#[allow(clippy::too_many_arguments)] // a storm genuinely has this many axes
pub fn emit_storm<R: Rng>(
    out: &mut Vec<RasRecord>,
    rng: &mut R,
    shape: StormShape,
    faults: &FaultModel,
    time: Timestamp,
    code: ErrCode,
    epicenter: MidplaneId,
    partition: Option<Partition>,
) {
    emit_code_storm(out, rng, shape, time, code, epicenter, partition);
    // Link cards carry the inter-midplane torus cabling: a failing link is
    // seen from both ends, so a torus neighbour logs a few (non-FATAL)
    // CRC-retry records too.
    if Catalog::standard().info(code).subcomponent == "PALOMINO_L" {
        let neighbors = bgp_model::torus::midplane_neighbors(epicenter);
        let echo = Catalog::standard().lookup(LINK_ECHO_CODE);
        if let (false, Some(echo)) = (neighbors.is_empty(), echo) {
            let other = neighbors[rng.random_range(0..neighbors.len())];
            let reduced = StormShape {
                temporal_mean: 2.0,
                spatial_mean: 1.0,
            };
            let lag = bgp_model::Duration::seconds(rng.random_range(2..20));
            emit_code_storm(out, rng, reduced, time + lag, echo, other, None);
        }
    }
    // Causal companions: a reduced storm of each companion code at the same
    // epicenter, a few seconds later.
    if let Some(companions) = faults.companions.get(&code) {
        let reduced = StormShape {
            temporal_mean: (shape.temporal_mean / 2.0).max(1.0),
            spatial_mean: (shape.spatial_mean / 2.0).max(1.0),
        };
        for &companion in companions {
            let lag = bgp_model::Duration::seconds(rng.random_range(1..30));
            emit_code_storm(out, rng, reduced, time + lag, companion, epicenter, None);
        }
    }
}

/// The single-code part of a storm.
fn emit_code_storm<R: Rng>(
    out: &mut Vec<RasRecord>,
    rng: &mut R,
    shape: StormShape,
    time: Timestamp,
    code: ErrCode,
    epicenter: MidplaneId,
    partition: Option<Partition>,
) {
    // Reporting locations: detail locations inside the epicenter midplane...
    let n_loc = (1 + poisson(rng, (shape.spatial_mean - 1.0).max(0.0)) as usize).min(16);
    let mut locations: Vec<Location> = (0..n_loc)
        .map(|_| detail_location(rng, epicenter, code))
        .collect();
    // ...plus one report from every midplane of the interrupted partition
    // (capped: even an 80-midplane job doesn't report from everywhere).
    if let Some(p) = partition {
        for m in p.midplanes().take(32) {
            if m != epicenter {
                locations.push(detail_location(rng, m, code));
            }
        }
    }
    for loc in locations {
        // Temporal repeats at this location, spread over ~a minute so a
        // sensible temporal-filter threshold collapses them.
        let n_t = (1 + poisson(rng, (shape.temporal_mean - 1.0).max(0.0)) as usize).min(60);
        let mut t = time;
        for _ in 0..n_t {
            out.push(RasRecord::new(0, t, loc, code));
            t += bgp_model::Duration::seconds(1 + exponential(rng, 1.0 / 12.0) as i64);
        }
    }
}

/// Emit the precursor signature of a failing hardware component: a burst of
/// correctable-ECC / single-symbol WARNING records at the midplane over the
/// hours before the fatal fault. Timestamps are *before* `fault_time` —
/// records are globally sorted after the run, so retroactive emission is
/// fine.
pub fn emit_precursors<R: Rng>(
    out: &mut Vec<RasRecord>,
    rng: &mut R,
    fault_time: Timestamp,
    midplane: MidplaneId,
    mean_count: f64,
) {
    if mean_count <= 0.0 {
        return;
    }
    let cat = Catalog::standard();
    let (Some(ecc), Some(symbol)) = (
        cat.lookup(ECC_CORRECTED_CODE),
        cat.lookup(SYMBOL_ERROR_CODE),
    ) else {
        return; // unreachable: `every_code_name_is_a_catalog_code` resolves both
    };
    let codes = [ecc, symbol];
    let n = (1 + poisson(rng, (mean_count - 1.0).max(0.0))) as usize;
    // Correctable-error rate accelerates toward the failure: draw lead
    // times from an exponential so most precursors crowd the final hour,
    // with a tail reaching back ~6 hours.
    for _ in 0..n.min(200) {
        let lead = 60.0 + exponential(rng, 1.0 / 4_000.0);
        let t = fault_time - bgp_model::Duration::seconds(lead.min(6.0 * 3600.0) as i64);
        let code = codes[rng.random_range(0..codes.len())];
        out.push(RasRecord::new(
            0,
            t,
            detail_location(rng, midplane, code),
            code,
        ));
    }
}

/// Generate the background record volume for the whole run: partition-boot
/// INFO records for every job start ("reboot before execution") and a
/// Poisson stream of warnings/infos across the machine.
///
/// `job_boots` is `(start_time, partition)` per job. `window` is the whole
/// simulated interval. At `noise_scale = 1.0` this produces on the order of
/// the paper's two million records over 237 days.
pub fn emit_background<R: Rng>(
    out: &mut Vec<RasRecord>,
    rng: &mut R,
    job_boots: &[(Timestamp, Partition)],
    window: (Timestamp, Timestamp),
    noise_scale: f64,
) {
    let cat = Catalog::standard();
    let (Some(boot_code), Some(progress_code)) = (
        cat.lookup(PARTITION_BOOT_CODE),
        cat.lookup(BOOT_PROGRESS_CODE),
    ) else {
        return; // unreachable: `every_code_name_is_a_catalog_code` resolves both
    };
    // Reboot-before-execution: every midplane of the partition boots and
    // reports, shortly before the job's start.
    for &(start, partition) in job_boots {
        for m in partition.midplanes() {
            let lead = rng.random_range(5..90);
            out.push(RasRecord::new(
                0,
                start - bgp_model::Duration::seconds(lead),
                Location::Midplane(m),
                boot_code,
            ));
            out.push(RasRecord::new(
                0,
                start - bgp_model::Duration::seconds(lead / 2),
                detail_location(rng, m, progress_code),
                progress_code,
            ));
        }
    }
    // Ambient noise: correctable ECC, environmental polls, fan warnings...
    // Names zip with their weights so a missing catalog entry (impossible —
    // `every_code_name_is_a_catalog_code` resolves every name) drops the
    // pair, never desynchronising code from weight.
    let (ambient, weights): (Vec<ErrCode>, Vec<f64>) = AMBIENT_WEIGHTS
        .iter()
        .filter_map(|&(n, w)| cat.lookup(n).map(|c| (c, w)))
        .unzip();
    if ambient.is_empty() {
        return;
    }
    // Full scale ≈ 1.6 M ambient records over the paper's 237-day window.
    let rate = 0.08 * noise_scale;
    let mut t = window.0;
    loop {
        t += bgp_model::Duration::seconds((exponential(rng, rate) as i64).max(1));
        if t >= window.1 {
            break;
        }
        let code = ambient[bgp_stats::sample::categorical(rng, &weights)];
        let m = MidplaneId::from_index_wrapping(rng.random_range(0..80));
        out.push(RasRecord::new(0, t, detail_location(rng, m, code), code));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mp(s: &str) -> MidplaneId {
        s.parse().unwrap()
    }

    fn shape() -> StormShape {
        StormShape {
            temporal_mean: 7.0,
            spatial_mean: 8.0,
        }
    }

    #[test]
    fn every_code_name_is_a_catalog_code() {
        // The emitters skip a name the catalog lacks, so a typo here would
        // silently thin the simulated log instead of failing.
        let names = [
            LINK_ECHO_CODE,
            ECC_CORRECTED_CODE,
            SYMBOL_ERROR_CODE,
            PARTITION_BOOT_CODE,
            BOOT_PROGRESS_CODE,
        ]
        .into_iter()
        .chain(AMBIENT_WEIGHTS.iter().map(|&(n, _)| n));
        for name in names {
            assert!(
                Catalog::standard().lookup(name).is_some(),
                "emission names `{name}`, which is not in raslog's catalog"
            );
        }
    }

    #[test]
    fn storm_has_redundancy() {
        let mut rng = SmallRng::seed_from_u64(1);
        let faults = FaultModel::standard();
        let code = Catalog::standard().lookup("_bgp_err_kernel_panic").unwrap();
        let mut out = Vec::new();
        emit_storm(
            &mut out,
            &mut rng,
            shape(),
            &faults,
            Timestamp::from_unix(10_000),
            code,
            mp("R10-M0"),
            None,
        );
        assert!(out.len() > 10, "storm too small: {}", out.len());
        // All records near the event time, at the epicenter midplane.
        for r in &out {
            assert!(r.event_time >= Timestamp::from_unix(10_000));
            assert!(r.event_time < Timestamp::from_unix(10_000 + 3600));
            assert_eq!(r.location.midplane(), Some(mp("R10-M0")));
        }
    }

    #[test]
    fn interrupted_partition_fans_out() {
        let mut rng = SmallRng::seed_from_u64(2);
        let faults = FaultModel::standard();
        let code = Catalog::standard()
            .lookup("_bgp_err_ddr_controller")
            .unwrap();
        let p = Partition::contiguous(32, 8).unwrap();
        let mut out = Vec::new();
        emit_storm(
            &mut out,
            &mut rng,
            shape(),
            &faults,
            Timestamp::from_unix(0),
            code,
            mp("R16-M0"), // index 32
            Some(p),
        );
        let midplanes: std::collections::HashSet<_> = out
            .iter()
            .filter(|r| r.errcode == code)
            .filter_map(|r| r.location.midplane())
            .collect();
        assert!(
            midplanes.len() >= 8,
            "expected fan-out across the partition, got {}",
            midplanes.len()
        );
    }

    #[test]
    fn companions_emitted_for_mapped_codes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let faults = FaultModel::standard();
        let cat = Catalog::standard();
        let l1 = cat.lookup("_bgp_err_cns_ras_storm_fatal").unwrap();
        let panic = cat.lookup("_bgp_err_kernel_panic").unwrap();
        let mut out = Vec::new();
        emit_storm(
            &mut out,
            &mut rng,
            shape(),
            &faults,
            Timestamp::from_unix(0),
            l1,
            mp("R00-M0"),
            None,
        );
        assert!(out.iter().any(|r| r.errcode == panic), "companion missing");
        assert!(out.iter().any(|r| r.errcode == l1));
    }

    #[test]
    fn link_card_faults_echo_on_a_torus_neighbor() {
        let mut rng = SmallRng::seed_from_u64(8);
        let faults = FaultModel::standard();
        let cat = Catalog::standard();
        let link = cat.lookup("_bgp_err_linkcard_failure").unwrap();
        let crc = cat.lookup("_bgp_err_link_crc_retry").unwrap();
        let epicenter = mp("R10-M0");
        let mut out = Vec::new();
        emit_storm(
            &mut out,
            &mut rng,
            shape(),
            &faults,
            Timestamp::from_unix(0),
            link,
            epicenter,
            None,
        );
        let echo: Vec<_> = out.iter().filter(|r| r.errcode == crc).collect();
        assert!(!echo.is_empty(), "no neighbour echo");
        // The echo is non-FATAL and lands on a torus neighbour, not the
        // epicenter.
        let neighbors = bgp_model::torus::midplane_neighbors(epicenter);
        for r in echo {
            assert!(!r.is_fatal());
            let m = r.location.midplane().unwrap();
            assert!(neighbors.contains(&m), "echo at non-neighbour {m}");
        }
    }

    #[test]
    fn detail_locations_match_component() {
        let mut rng = SmallRng::seed_from_u64(4);
        let cat = Catalog::standard();
        let m = mp("R05-M1");
        // Card / bulk power codes land on card locations.
        let bulk = cat.lookup("BULK_POWER_FATAL").unwrap();
        assert!(matches!(
            detail_location(&mut rng, m, bulk),
            Location::BulkPower(_)
        ));
        let link = cat.lookup("_bgp_err_linkcard_failure").unwrap();
        assert!(matches!(
            detail_location(&mut rng, m, link),
            Location::LinkCard(_)
        ));
        // CIOD codes land on I/O nodes.
        let ciod = cat.lookup("CiodHungProxy").unwrap();
        assert!(matches!(
            detail_location(&mut rng, m, ciod),
            Location::IoNode(_)
        ));
        // Kernel codes land on compute nodes.
        let panic = cat.lookup("_bgp_err_kernel_panic").unwrap();
        assert!(matches!(
            detail_location(&mut rng, m, panic),
            Location::ComputeNode(_)
        ));
        // Control system codes at midplane granularity.
        let mmcs = cat.lookup("_bgp_err_mmcs_boot_failure").unwrap();
        assert!(matches!(
            detail_location(&mut rng, m, mmcs),
            Location::Midplane(_)
        ));
        // All detail locations stay within the midplane (or its rack).
        for code in cat.codes() {
            let loc = detail_location(&mut rng, m, code);
            assert_eq!(loc.rack(), m.rack());
        }
    }

    #[test]
    fn background_volume_scales() {
        let mut rng = SmallRng::seed_from_u64(5);
        let window = (Timestamp::from_unix(0), Timestamp::from_unix(200_000));
        let boots = vec![(
            Timestamp::from_unix(1_000),
            Partition::contiguous(0, 4).unwrap(),
        )];
        let mut small = Vec::new();
        emit_background(&mut small, &mut rng, &boots, window, 0.01);
        let mut big = Vec::new();
        emit_background(&mut big, &mut rng, &boots, window, 0.5);
        assert!(big.len() > small.len() * 5);
        // Boot records present regardless of scale: 2 per midplane.
        let boot_code = Catalog::standard()
            .lookup("_bgp_info_partition_boot")
            .unwrap();
        assert_eq!(small.iter().filter(|r| r.errcode == boot_code).count(), 4);
        // Nothing fatal in the background.
        assert!(small.iter().all(|r| !r.is_fatal()));
        assert!(big.iter().all(|r| !r.is_fatal()));
    }
}
