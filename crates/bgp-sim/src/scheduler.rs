//! A Cobalt-like partition scheduler.
//!
//! Reproduces the placement behaviour the paper attributes to Intrepid
//! (Section V-B): narrow jobs are steered to the edge midplanes (racks R0x
//! heads and the R32–R39 tail, i.e. midplane indices 0–3 and 64–79), wide
//! jobs (≥ 32 midplanes) to the reserved middle band (indices 32–63), and a
//! resubmitted job returns to its previous partition when possible (the
//! paper observed 57.4 %).
//!
//! Crucially, the scheduler has **no fault knowledge**: a midplane left
//! broken by an unrepaired persistent fault is still allocatable. That is
//! the mechanism behind job-related redundancy (Observation 3).

use bgp_model::{topology::NUM_MIDPLANES, MidplaneId, Partition};
use joblog::ExecId;
use rand::{Rng, RngExt};
use std::collections::HashMap;

/// Occupancy state of one midplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Available for placement.
    Free,
    /// Running the given job.
    Busy(u64),
    /// Drained for maintenance.
    Maintenance,
}

/// The scheduler: machine occupancy plus placement policy.
#[derive(Debug, Clone)]
pub struct Scheduler {
    slots: [SlotState; NUM_MIDPLANES as usize],
    /// Last partition each executable ran on (for the same-partition
    /// resubmission preference).
    last_partition: HashMap<ExecId, Partition>,
    /// Precomputed anchor preference regions per size class (outer order =
    /// preference, inner = interchangeable anchors within one region).
    anchors: HashMap<u32, Vec<Vec<u8>>>,
}

impl Scheduler {
    /// A scheduler for an empty Intrepid.
    pub fn new() -> Scheduler {
        let mut anchors = HashMap::new();
        for &size in &crate::workload::JOB_SIZES {
            anchors.insert(size, anchor_preference(size));
        }
        Scheduler {
            slots: [SlotState::Free; NUM_MIDPLANES as usize],
            last_partition: HashMap::new(),
            anchors,
        }
    }

    /// Occupancy of one midplane.
    pub fn slot(&self, m: MidplaneId) -> SlotState {
        self.slots[m.index()]
    }

    /// Try to find a partition of `size` midplanes for `exec`.
    ///
    /// With probability `same_partition_prob`, a resubmission first tries the
    /// executable's previous partition (if wholly free). Otherwise anchors
    /// are scanned in policy preference order.
    pub fn find_partition<R: Rng>(
        &self,
        size: u32,
        exec: ExecId,
        same_partition_prob: f64,
        rng: &mut R,
    ) -> Option<Partition> {
        self.find_partition_avoiding(size, exec, same_partition_prob, rng, Partition::empty())
    }

    /// [`Scheduler::find_partition`] with a set of midplanes to avoid — the
    /// fault-aware variant (the paper's Section VII: a scheduler subscribed
    /// to failure information can stop feeding jobs to broken hardware).
    pub fn find_partition_avoiding<R: Rng>(
        &self,
        size: u32,
        exec: ExecId,
        same_partition_prob: f64,
        rng: &mut R,
        avoid: Partition,
    ) -> Option<Partition> {
        let usable = |p: Partition| self.all_free(p) && !p.overlaps(avoid);
        if let Some(&prev) = self.last_partition.get(&exec) {
            if prev.len() == size && rng.random::<f64>() < same_partition_prob && usable(prev) {
                return Some(prev);
            }
        }
        // Regions are scanned in preference order; anchors *within* a
        // region are interchangeable, so scanning starts at a random
        // rotation — placements spread across the preferred region instead
        // of hammering its first anchor (Cobalt balances similarly).
        for region in &self.anchors[&size] {
            let n = region.len();
            let rot = if n > 1 { rng.random_range(0..n) } else { 0 };
            for k in 0..n {
                let anchor = region[(k + rot) % n];
                let Ok(p) = Partition::contiguous(anchor, size) else {
                    continue; // anchor table entries are in range; skip rather than die
                };
                if usable(p) {
                    return Some(p);
                }
            }
        }
        None
    }

    fn all_free(&self, p: Partition) -> bool {
        p.midplanes()
            .all(|m| self.slots[m.index()] == SlotState::Free)
    }

    /// Mark a partition as running `job_id` and remember it for `exec`.
    pub fn place(&mut self, p: Partition, job_id: u64, exec: ExecId) {
        for m in p.midplanes() {
            debug_assert_eq!(self.slots[m.index()], SlotState::Free);
            self.slots[m.index()] = SlotState::Busy(job_id);
        }
        self.last_partition.insert(exec, p);
    }

    /// Release a partition (job ended).
    pub fn release(&mut self, p: Partition) {
        for m in p.midplanes() {
            self.slots[m.index()] = SlotState::Free;
        }
    }

    /// Drain a set of midplanes for maintenance. Busy midplanes are left
    /// running (real drains wait for jobs; we simply skip them).
    pub fn begin_maintenance(&mut self, midplanes: impl Iterator<Item = MidplaneId>) {
        for m in midplanes {
            if self.slots[m.index()] == SlotState::Free {
                self.slots[m.index()] = SlotState::Maintenance;
            }
        }
    }

    /// Return all maintenance midplanes to service.
    pub fn end_maintenance(&mut self) {
        for s in &mut self.slots {
            if *s == SlotState::Maintenance {
                *s = SlotState::Free;
            }
        }
    }

    /// Midplanes currently idle (free or drained) — fault targets with no
    /// job to interrupt.
    pub fn idle_midplanes(&self) -> Vec<MidplaneId> {
        (0..NUM_MIDPLANES)
            .filter(|&i| !matches!(self.slots[i as usize], SlotState::Busy(_)))
            .map(MidplaneId::from_index_wrapping)
            .collect()
    }

    /// `(midplane, job_id)` pairs currently busy.
    pub fn busy_midplanes(&self) -> Vec<(MidplaneId, u64)> {
        (0..NUM_MIDPLANES)
            .filter_map(|i| match self.slots[i as usize] {
                SlotState::Busy(j) => Some((MidplaneId::from_index_wrapping(i), j)),
                SlotState::Free | SlotState::Maintenance => None,
            })
            .collect()
    }

    /// Fraction of midplanes busy.
    pub fn utilization(&self) -> f64 {
        let busy = self
            .slots
            .iter()
            .filter(|s| matches!(s, SlotState::Busy(_)))
            .count();
        busy as f64 / f64::from(NUM_MIDPLANES)
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// The placement-policy anchor regions for a given size, in preference
/// order.
///
/// * narrow (1–2): tail edge (64–79), head edge (0–3), then inward;
/// * small/medium (4–16): tail edge, head block (0–31), then the middle;
/// * wide (≥ 32): the middle band (32–63) first, then whatever fits.
fn anchor_preference(size: u32) -> Vec<Vec<u8>> {
    let n = u32::from(NUM_MIDPLANES);
    let step = match size {
        1 => 1u32,
        2 => 2,
        4 | 8 | 16 => size,
        _ => 8,
    };
    let fits = |a: u32| a + size <= n;
    let range = |lo: u32, hi: u32| -> Vec<u8> {
        let mut out = Vec::new();
        let mut a = lo.div_ceil(step) * step;
        while a < hi {
            if fits(a) && a + size <= hi {
                out.push(a as u8);
            }
            a += step;
        }
        out
    };
    let regions: Vec<Vec<u8>> = match size {
        1 | 2 => vec![range(64, 80), range(0, 4), range(4, 32), range(32, 64)],
        4 | 8 | 16 => vec![range(64, 80), range(0, 32), range(32, 64)],
        32 => vec![range(32, 80), range(0, 32)],
        48 => vec![vec![24, 32], range(0, 80)],
        64 => vec![vec![8, 16, 0]],
        80 => vec![vec![0]],
        _ => vec![range(0, 80)],
    };
    regions.into_iter().filter(|r| !r.is_empty()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(3)
    }

    #[test]
    fn narrow_jobs_prefer_tail_edge() {
        let s = Scheduler::new();
        let p = s.find_partition(1, ExecId(1), 0.0, &mut rng()).unwrap();
        assert!(p.first().unwrap().index() >= 64, "placed at {p}");
        let p = s.find_partition(2, ExecId(1), 0.0, &mut rng()).unwrap();
        assert!(p.first().unwrap().index() >= 64);
    }

    #[test]
    fn wide_jobs_prefer_middle_band() {
        let s = Scheduler::new();
        let p = s.find_partition(32, ExecId(1), 0.0, &mut rng()).unwrap();
        let lo = p.first().unwrap().index();
        assert!((32..64).contains(&lo), "32-midplane job anchored at {lo}");
        let p = s.find_partition(80, ExecId(1), 0.0, &mut rng()).unwrap();
        assert_eq!(p.len(), 80);
    }

    #[test]
    fn placement_excludes_busy_and_maintenance() {
        let mut s = Scheduler::new();
        // Fill the whole tail edge and head edge.
        let tail = Partition::contiguous(64, 16).unwrap();
        s.place(tail, 1, ExecId(9));
        let head = Partition::contiguous(0, 4).unwrap();
        s.place(head, 2, ExecId(8));
        let p = s.find_partition(1, ExecId(3), 0.0, &mut rng()).unwrap();
        let idx = p.first().unwrap().index();
        assert!((4..64).contains(&idx), "fell back inward, got {idx}");
        // Draining the rest of the head block forces further inward.
        s.begin_maintenance(Partition::contiguous(4, 28).unwrap().midplanes());
        let p = s.find_partition(1, ExecId(3), 0.0, &mut rng()).unwrap();
        assert!(p.first().unwrap().index() >= 32);
        s.end_maintenance();
        let p = s.find_partition(1, ExecId(3), 0.0, &mut rng()).unwrap();
        assert!((4..32).contains(&p.first().unwrap().index()));
    }

    #[test]
    fn release_frees_slots() {
        let mut s = Scheduler::new();
        let p = s.find_partition(4, ExecId(1), 0.0, &mut rng()).unwrap();
        s.place(p, 7, ExecId(1));
        assert!((s.utilization() - 4.0 / 80.0).abs() < 1e-12);
        assert_eq!(s.busy_midplanes().len(), 4);
        s.release(p);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.idle_midplanes().len(), 80);
    }

    #[test]
    fn same_partition_preference() {
        let mut s = Scheduler::new();
        let mut r = rng();
        let p1 = s.find_partition(2, ExecId(5), 0.0, &mut r).unwrap();
        s.place(p1, 1, ExecId(5));
        s.release(p1);
        // With probability 1 the resubmission reuses the exact partition.
        let p2 = s.find_partition(2, ExecId(5), 1.0, &mut r).unwrap();
        assert_eq!(p1, p2);
        // With probability 0 it still finds *a* partition (possibly the same
        // one, since preference order is deterministic) — just must be valid.
        let p3 = s.find_partition(2, ExecId(5), 0.0, &mut r).unwrap();
        assert_eq!(p3.len(), 2);
        // If the previous partition is busy, preference cannot apply.
        s.place(p1, 2, ExecId(6));
        let p4 = s.find_partition(2, ExecId(5), 1.0, &mut r).unwrap();
        assert_ne!(p4, p1);
    }

    #[test]
    fn machine_full_returns_none() {
        let mut s = Scheduler::new();
        s.place(Partition::contiguous(0, 80).unwrap(), 1, ExecId(1));
        assert!(s.find_partition(1, ExecId(2), 0.0, &mut rng()).is_none());
        assert!(s.busy_midplanes().len() == 80);
        assert!(s.idle_midplanes().is_empty());
    }

    #[test]
    fn anchor_tables_are_valid() {
        for &size in &crate::workload::JOB_SIZES {
            let regions = anchor_preference(size);
            assert!(!regions.is_empty(), "no anchors for {size}");
            for region in &regions {
                assert!(!region.is_empty());
                for &a in region {
                    assert!(
                        u32::from(a) + size <= 80,
                        "anchor {a} overflows for size {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_size_placeable_on_empty_machine() {
        let s = Scheduler::new();
        let mut r = rng();
        for &size in &crate::workload::JOB_SIZES {
            let p = s.find_partition(size, ExecId(0), 0.0, &mut r);
            assert!(p.is_some(), "size {size} unplaceable on empty machine");
            assert_eq!(p.unwrap().len(), size);
        }
    }
}
