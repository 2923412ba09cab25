//! Job partitions: sets of midplanes with the BG/P legal-size rule.
//!
//! Intrepid schedules jobs onto *partitions*: a distinct set of compute and
//! I/O nodes plus the associated torus wiring. The midplane is the minimum
//! partition; adjacent midplanes can be joined into larger ones. Legal job
//! sizes on Intrepid are 1, 2, 4, 8, 16, 32, 48, 64, or 80 midplanes
//! (Table VI of the paper).
//!
//! [`Partition`] is a bitmask over the 80 midplane indices — 16 bytes, copy,
//! set-algebra in a few instructions, which matters because interruption
//! matching tests millions of (event, job) pairs for location overlap.

use crate::error::ModelError;
use crate::location::{Location, MidplaneId, RackId};
use crate::text;
use crate::topology::NUM_MIDPLANES;
use std::fmt;
use std::str::FromStr;

/// The legal partition sizes (in midplanes) on Intrepid.
pub const LEGAL_SIZES: [u32; 9] = [1, 2, 4, 8, 16, 32, 48, 64, 80];

/// A validated legal partition size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionSize(u32);

impl PartitionSize {
    /// Validate a midplane count against [`LEGAL_SIZES`].
    pub fn new(midplanes: u32) -> Result<PartitionSize, ModelError> {
        if LEGAL_SIZES.contains(&midplanes) {
            Ok(PartitionSize(midplanes))
        } else {
            Err(ModelError::IllegalPartitionSize(midplanes))
        }
    }

    /// The size in midplanes.
    pub fn midplanes(self) -> u32 {
        self.0
    }

    /// The size in compute nodes.
    pub fn nodes(self) -> u32 {
        self.0 * u32::from(crate::topology::NODES_PER_MIDPLANE)
    }

    /// All legal sizes, ascending.
    pub fn all() -> impl Iterator<Item = PartitionSize> {
        LEGAL_SIZES.into_iter().map(PartitionSize)
    }

    /// Is this a "wide" job in the paper's sense (≥ 32 midplanes)?
    pub fn is_wide(self) -> bool {
        self.0 >= 32
    }
}

impl fmt::Display for PartitionSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} midplanes", self.0)
    }
}

/// A set of midplanes allocated to a job.
///
/// Invariants: non-empty whenever produced by a constructor other than
/// [`Partition::empty`]; only bits `0..NUM_MIDPLANES` may be set.
///
/// ```
/// use bgp_model::{Location, Partition};
///
/// // Racks R10..R11 — the job-log location form the paper's Table III shows.
/// let p: Partition = "R10-R11".parse().unwrap();
/// assert_eq!(p.len(), 4);
/// let node: Location = "R10-M1-N04-J12".parse().unwrap();
/// assert!(p.covers_location(node));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partition {
    mask: u128,
}

impl Partition {
    /// The mask with every populated-machine bit allowed.
    const FULL_MASK: u128 = (1u128 << NUM_MIDPLANES) - 1;

    /// The empty partition (no midplanes). Useful as an accumulator identity.
    pub fn empty() -> Partition {
        Partition { mask: 0 }
    }

    /// A partition consisting of a single midplane.
    pub fn single(m: MidplaneId) -> Partition {
        Partition {
            mask: 1u128 << m.index(),
        }
    }

    /// A partition of `count` consecutive midplanes starting at index
    /// `start` (in [`MidplaneId`] index order).
    ///
    /// Returns an error if the range exceeds the machine.
    pub fn contiguous(start: u8, count: u32) -> Result<Partition, ModelError> {
        let end = u32::from(start) + count;
        if count == 0 || end > u32::from(NUM_MIDPLANES) {
            return Err(ModelError::OutOfRange {
                what: "midplane range end",
                value: end,
                bound: u32::from(NUM_MIDPLANES) + 1,
            });
        }
        let mask = if count == 128 {
            u128::MAX
        } else {
            ((1u128 << count) - 1) << start
        };
        Ok(Partition { mask })
    }

    /// Build from an iterator of midplanes.
    pub fn from_midplanes<I: IntoIterator<Item = MidplaneId>>(iter: I) -> Partition {
        let mut mask = 0u128;
        for m in iter {
            mask |= 1u128 << m.index();
        }
        Partition { mask }
    }

    /// Number of midplanes in the partition.
    pub fn len(self) -> u32 {
        self.mask.count_ones()
    }

    /// Is the partition empty?
    pub fn is_empty(self) -> bool {
        self.mask == 0
    }

    /// Does the partition include midplane `m`?
    pub fn contains(self, m: MidplaneId) -> bool {
        self.mask & (1u128 << m.index()) != 0
    }

    /// Do two partitions share any midplane?
    pub fn overlaps(self, other: Partition) -> bool {
        self.mask & other.mask != 0
    }

    /// Does a RAS location fall on hardware belonging to this partition?
    ///
    /// Midplane-scoped locations match if their midplane is in the partition;
    /// rack-scoped locations (rack, bulk power, clock card) match if *either*
    /// midplane of the rack is in the partition.
    pub fn covers_location(self, loc: Location) -> bool {
        loc.touched_midplanes().any(|m| self.contains(m))
    }

    /// Set union.
    pub fn union(self, other: Partition) -> Partition {
        Partition {
            mask: self.mask | other.mask,
        }
    }

    /// Set intersection.
    pub fn intersection(self, other: Partition) -> Partition {
        Partition {
            mask: self.mask & other.mask,
        }
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(self, other: Partition) -> Partition {
        Partition {
            mask: self.mask & !other.mask,
        }
    }

    /// Iterate over the midplanes of the partition in index order.
    pub fn midplanes(self) -> impl Iterator<Item = MidplaneId> {
        // Visit the set bits only: most partitions hold a few of the 80.
        let mut mask = self.mask;
        std::iter::from_fn(move || {
            // Lowest set bit; an empty mask gives 128, which is no midplane.
            let i = mask.trailing_zeros() as u8;
            mask &= mask.wrapping_sub(1);
            MidplaneId::from_index(i).ok()
        })
    }

    /// The lowest-index midplane, if any. This is the partition's "anchor"
    /// used for display and placement bookkeeping.
    pub fn first(self) -> Option<MidplaneId> {
        if self.mask == 0 {
            None
        } else {
            MidplaneId::from_index(self.mask.trailing_zeros() as u8).ok()
        }
    }

    /// Is the partition a contiguous run of midplane indices?
    pub fn is_contiguous(self) -> bool {
        if self.mask == 0 {
            return false;
        }
        let shifted = self.mask >> self.mask.trailing_zeros();
        (shifted + 1).is_power_of_two()
    }

    /// The raw bitmask (bit *i* = midplane index *i*).
    pub fn mask(self) -> u128 {
        self.mask
    }

    /// Rebuild from a raw mask, rejecting bits beyond the machine.
    pub fn from_mask(mask: u128) -> Result<Partition, ModelError> {
        if mask & !Self::FULL_MASK != 0 {
            return Err(ModelError::OutOfRange {
                what: "partition mask bit",
                value: 128 - mask.leading_zeros() - 1,
                bound: u32::from(NUM_MIDPLANES),
            });
        }
        Ok(Partition { mask })
    }
}

impl Partition {
    /// Append the Cobalt-style location string, the one definition of the
    /// job log's location text:
    ///
    /// * a single midplane is written as `R23-M1`;
    /// * a contiguous whole-rack range is written as `R10-R13` (the job-log
    ///   form the paper's Table III shows: `R10-R11`);
    /// * anything else is a comma-separated midplane list, and the empty
    ///   partition is `<empty>`.
    pub fn encode(self, out: &mut Vec<u8>) {
        if self.is_empty() {
            return out.extend_from_slice(b"<empty>");
        }
        let n = self.len();
        if n == 1 {
            if let Some(only) = self.first() {
                return only.encode(out);
            }
        }
        if self.is_contiguous() && n.is_multiple_of(2) {
            let lo = self.mask.trailing_zeros() as u8;
            let hi = (127 - self.mask.leading_zeros()) as u8;
            if lo.is_multiple_of(2) {
                if let (Ok(first), Ok(last)) =
                    (MidplaneId::from_index(lo), MidplaneId::from_index(hi))
                {
                    first.rack().encode(out);
                    out.push(b'-');
                    return last.rack().encode(out);
                }
            }
        }
        for (i, m) in self.midplanes().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            m.encode(out);
        }
    }
}

impl fmt::Display for Partition {
    /// The text [`Partition::encode`] writes.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

impl Partition {
    /// Byte-level fast path for the two forms a job log writes most: a
    /// single midplane `Rxx-My` and a whole-rack range `Rxx-Ryy`.
    ///
    /// Returns `Some` only where `from_str` returns the same partition.
    /// `None` means "not canonical, ask `from_str`", never "invalid":
    /// padding, lists, the dashed `R-23` rack, a reversed range and
    /// out-of-range racks all decline here, and `from_str` decides.
    pub fn parse_canonical(b: &[u8]) -> Option<Partition> {
        fn rack(row: u8, col: u8) -> Option<RackId> {
            if !(row.is_ascii_digit() && col.is_ascii_digit()) {
                return None;
            }
            RackId::new(row - b'0', col - b'0').ok()
        }
        match *b {
            [b'R', _, _, b'-', b'M', _] => {
                let Location::Midplane(m) = Location::parse_canonical(b)? else {
                    return None;
                };
                Some(Partition::single(m))
            }
            [b'R', r0, c0, b'-', b'R', r1, c1] => {
                let (lo, hi) = (rack(r0, c0)?, rack(r1, c1)?);
                let count = hi.index().checked_sub(lo.index())? + 1;
                Partition::contiguous((lo.index() * 2) as u8, (count * 2) as u32).ok()
            }
            _ => None,
        }
    }
}

impl FromStr for Partition {
    type Err = ModelError;

    /// Parse the three display forms: `R23-M1`, `R10-R13`, and
    /// comma-separated midplane lists.
    fn from_str(s: &str) -> Result<Partition, ModelError> {
        let err = |reason: &'static str| ModelError::InvalidLocation {
            input: s.to_owned(),
            reason,
        };
        if s == "<empty>" {
            return Ok(Partition::empty());
        }
        if s.contains(',') {
            let mut p = Partition::empty();
            for part in s.split(',') {
                let m: MidplaneId = part.trim().parse()?;
                p = p.union(Partition::single(m));
            }
            return Ok(p);
        }
        // Try a rack range `Rxy-Rzw`.
        if let Some((a, b)) = s.split_once('-') {
            if b.starts_with('R') {
                let lo: RackId = a.parse()?;
                let hi: RackId = b.parse()?;
                if hi.index() < lo.index() {
                    return Err(err("rack range is reversed"));
                }
                let start = (lo.index() * 2) as u8;
                let count = ((hi.index() - lo.index() + 1) * 2) as u32;
                return Partition::contiguous(start, count);
            }
        }
        // Otherwise a single midplane.
        let m: MidplaneId = s.parse()?;
        Ok(Partition::single(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mp(s: &str) -> MidplaneId {
        s.parse().unwrap()
    }

    #[test]
    fn legal_sizes() {
        for n in LEGAL_SIZES {
            assert!(PartitionSize::new(n).is_ok());
        }
        for n in [0, 3, 5, 17, 40, 81, 128] {
            assert!(PartitionSize::new(n).is_err());
        }
        assert_eq!(PartitionSize::new(1).unwrap().nodes(), 512);
        assert_eq!(PartitionSize::new(80).unwrap().nodes(), 40_960);
        assert!(PartitionSize::new(32).unwrap().is_wide());
        assert!(!PartitionSize::new(16).unwrap().is_wide());
        assert_eq!(PartitionSize::all().count(), 9);
    }

    #[test]
    fn set_algebra() {
        let a = Partition::contiguous(0, 4).unwrap();
        let b = Partition::contiguous(2, 4).unwrap();
        assert!(a.overlaps(b));
        assert_eq!(a.intersection(b).len(), 2);
        assert_eq!(a.union(b).len(), 6);
        assert_eq!(a.difference(b).len(), 2);
        assert!(!a.difference(b).overlaps(b));
        let c = Partition::contiguous(10, 2).unwrap();
        assert!(!a.overlaps(c));
        assert!(a.union(c).contains(mp("R05-M0"))); // index 10
    }

    #[test]
    fn contiguity() {
        assert!(Partition::contiguous(4, 8).unwrap().is_contiguous());
        assert!(!Partition::empty().is_contiguous());
        let gap = Partition::single(mp("R00-M0")).union(Partition::single(mp("R01-M0")));
        assert!(!gap.is_contiguous());
    }

    #[test]
    fn covers_location() {
        let p = Partition::contiguous(2, 2).unwrap(); // R01-M0, R01-M1
        let node: Location = "R01-M0-N04-J12".parse().unwrap();
        let io: Location = "R01-M1-I3".parse().unwrap();
        let bulk: Location = "R01-B".parse().unwrap();
        let other: Location = "R02-M0".parse().unwrap();
        let other_bulk: Location = "R02-B".parse().unwrap();
        assert!(p.covers_location(node));
        assert!(p.covers_location(io));
        assert!(p.covers_location(bulk)); // rack-scoped touches both midplanes
        assert!(!p.covers_location(other));
        assert!(!p.covers_location(other_bulk));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Partition::single(mp("R23-M1")).to_string(), "R23-M1");
        // Whole racks R10..R11 = midplane indices 16..20.
        let p = Partition::contiguous(16, 4).unwrap();
        assert_eq!(p.to_string(), "R10-R11");
        // A non-rack-aligned contiguous pair prints as a list.
        let p = Partition::contiguous(1, 2).unwrap();
        assert_eq!(p.to_string(), "R00-M1,R01-M0");
        assert_eq!(Partition::empty().to_string(), "<empty>");
    }

    #[test]
    fn parse_forms() {
        let p: Partition = "R10-R11".parse().unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_string(), "R10-R11");
        let p: Partition = "R23-M1".parse().unwrap();
        assert_eq!(p, Partition::single(mp("R23-M1")));
        let p: Partition = "R00-M1,R01-M0".parse().unwrap();
        assert_eq!(p.len(), 2);
        let p: Partition = "<empty>".parse().unwrap();
        assert!(p.is_empty());
        assert!("R11-R10".parse::<Partition>().is_err());
    }

    #[test]
    fn canonical_fast_path_agrees_with_from_str() {
        let mut forms = vec![
            "R11-R10".to_owned(),
            "R10-R11 ".to_owned(),
            "R-10-M1".to_owned(),
            "R1a-R11".to_owned(),
            "R10-M2".to_owned(),
            "R50-R51".to_owned(),
            "R00-M0,R00-M1".to_owned(),
            "R10".to_owned(),
        ];
        for row in 0..6 {
            for col in 0..9 {
                forms.push(format!("R{row}{col}-M0"));
                forms.push(format!("R{row}{col}-M1"));
                forms.push(format!("R00-R{row}{col}"));
                forms.push(format!("R{row}{col}-R47"));
            }
        }
        for form in forms {
            let general = form.parse::<Partition>().ok();
            if let Some(fast) = Partition::parse_canonical(form.as_bytes()) {
                assert_eq!(Some(fast), general, "{form}");
            }
        }
        assert!(Partition::parse_canonical(b"R10-R11").is_some());
        assert!(Partition::parse_canonical(b"R23-M1").is_some());
        assert!(Partition::parse_canonical(b"R11-R10").is_none());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(Partition::contiguous(79, 2).is_err());
        assert!(Partition::contiguous(0, 0).is_err());
        assert!(Partition::contiguous(0, 80).is_ok());
        assert!(Partition::from_mask(1u128 << 80).is_err());
        assert!(Partition::from_mask((1u128 << 80) - 1).is_ok());
    }

    #[test]
    fn first_and_iteration() {
        let p = Partition::contiguous(6, 4).unwrap();
        assert_eq!(p.first().unwrap().index(), 6);
        let idxs: Vec<usize> = p.midplanes().map(|m| m.index()).collect();
        assert_eq!(idxs, vec![6, 7, 8, 9]);
        assert_eq!(Partition::empty().first(), None);
        assert_eq!(Partition::empty().midplanes().count(), 0);
        let full: Vec<usize> = Partition::from_mask((1u128 << 80) - 1)
            .unwrap()
            .midplanes()
            .map(|m| m.index())
            .collect();
        assert_eq!(full, (0..80).collect::<Vec<_>>());
        let ends = Partition::from_mask(1 | 1u128 << 79).unwrap();
        let idxs: Vec<usize> = ends.midplanes().map(|m| m.index()).collect();
        assert_eq!(idxs, vec![0, 79]);
    }

    fn arb_partition() -> impl Strategy<Value = Partition> {
        proptest::collection::vec(0u8..NUM_MIDPLANES, 1..16).prop_map(|idxs| {
            Partition::from_midplanes(idxs.into_iter().map(|i| MidplaneId::from_index(i).unwrap()))
        })
    }

    proptest! {
        #[test]
        fn midplanes_are_the_contained_ones(p in arb_partition()) {
            let want: Vec<MidplaneId> = MidplaneId::all().filter(|&m| p.contains(m)).collect();
            prop_assert_eq!(p.midplanes().collect::<Vec<_>>(), want);
        }

        #[test]
        fn display_parse_round_trip(p in arb_partition()) {
            let s = p.to_string();
            let back: Partition = s.parse().unwrap();
            prop_assert_eq!(p, back);
        }

        #[test]
        fn union_intersection_laws(a in arb_partition(), b in arb_partition()) {
            prop_assert_eq!(a.union(b), b.union(a));
            prop_assert_eq!(a.intersection(b), b.intersection(a));
            prop_assert_eq!(a.union(b).len() + a.intersection(b).len(), a.len() + b.len());
            prop_assert_eq!(a.difference(b).union(a.intersection(b)), a);
            prop_assert_eq!(a.overlaps(b), !a.intersection(b).is_empty());
        }

        #[test]
        fn covers_iff_contains_touched(p in arb_partition(), idx in 0u8..NUM_MIDPLANES) {
            let m = MidplaneId::from_index(idx).unwrap();
            prop_assert_eq!(p.covers_location(Location::Midplane(m)), p.contains(m));
        }
    }
}
