//! BG/P location codes: identifiers and the location grammar.
//!
//! The CMCS names every field-replaceable unit with a *location code*. This
//! module provides a regularized grammar that covers every location kind seen
//! in RAS analysis:
//!
//! | Kind | Syntax | Example |
//! |---|---|---|
//! | Rack | `R<row><col>` | `R23` |
//! | Midplane | `R<row><col>-M<m>` | `R23-M1` |
//! | Node card | `R..-M.-N<cc>` | `R23-M1-N04` |
//! | Compute node | `R..-M.-N..-J<jj>` | `R23-M1-N04-J12` |
//! | I/O node | `R..-M.-I<i>` | `R23-M1-I3` |
//! | Link card | `R..-M.-L<l>` | `R23-M1-L2` |
//! | Service card | `R..-M.-S` | `R23-M1-S` |
//! | Bulk power | `R..-B` | `R23-B` |
//! | Clock card | `R..-K` | `R23-K` |
//!
//! Real CMCS output has small historical irregularities (the paper's Table II
//! shows `R-04-M0-S`); the parser also accepts that dashed rack form.
//!
//! Identifiers are dense small integers so they can be used directly as array
//! indices in per-midplane or per-node aggregations (see
//! [`MidplaneId::index`]).

use crate::error::ModelError;
use crate::text;
use crate::topology;
use std::fmt;
use std::str::FromStr;

/// A rack, identified by row (0–4 on Intrepid) and column (0–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId {
    row: u8,
    col: u8,
}

impl RackId {
    /// Create a rack id from row and column, validating against the Intrepid
    /// geometry (5 rows × 8 columns).
    pub fn new(row: u8, col: u8) -> Result<RackId, ModelError> {
        if row >= topology::NUM_ROWS {
            return Err(ModelError::OutOfRange {
                what: "rack row",
                value: u32::from(row),
                bound: u32::from(topology::NUM_ROWS),
            });
        }
        if col >= topology::RACKS_PER_ROW {
            return Err(ModelError::OutOfRange {
                what: "rack column",
                value: u32::from(col),
                bound: u32::from(topology::RACKS_PER_ROW),
            });
        }
        Ok(RackId { row, col })
    }

    /// Create from a dense index in `0..NUM_RACKS` (row-major).
    pub fn from_index(idx: u8) -> Result<RackId, ModelError> {
        if idx >= topology::NUM_RACKS {
            return Err(ModelError::OutOfRange {
                what: "rack index",
                value: u32::from(idx),
                bound: u32::from(topology::NUM_RACKS),
            });
        }
        Ok(RackId {
            row: idx / topology::RACKS_PER_ROW,
            col: idx % topology::RACKS_PER_ROW,
        })
    }

    /// Total variant of [`RackId::from_index`]: reduces `idx` modulo
    /// `NUM_RACKS` first. For callers whose index is already bounded by
    /// construction (dense loops, bounded RNG draws), where the fallible
    /// constructor would only add an unreachable error path.
    pub fn from_index_wrapping(idx: u8) -> RackId {
        let idx = idx % topology::NUM_RACKS;
        RackId {
            row: idx / topology::RACKS_PER_ROW,
            col: idx % topology::RACKS_PER_ROW,
        }
    }

    /// Dense index in `0..NUM_RACKS` (row-major: `R00`=0, `R01`=1, … `R47`=39).
    pub fn index(self) -> usize {
        usize::from(self.row) * usize::from(topology::RACKS_PER_ROW) + usize::from(self.col)
    }

    /// The rack row (the digit after `R`).
    pub fn row(self) -> u8 {
        self.row
    }

    /// The rack column (the second digit).
    pub fn col(self) -> u8 {
        self.col
    }

    /// The two midplanes housed in this rack.
    pub fn midplanes(self) -> [MidplaneId; 2] {
        [
            MidplaneId { rack: self, m: 0 },
            MidplaneId { rack: self, m: 1 },
        ]
    }
}

impl RackId {
    /// Append the rack's text, `R<row><col>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        out.push(b'R');
        text::push_u64(out, u64::from(self.row), 0);
        text::push_u64(out, u64::from(self.col), 0);
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

macro_rules! impl_fromstr_via_location {
    ($ty:ty, $variant:ident, $expected:literal) => {
        impl FromStr for $ty {
            type Err = ModelError;
            fn from_str(s: &str) -> Result<Self, ModelError> {
                match s.parse::<Location>()? {
                    Location::$variant(x) => Ok(x),
                    _ => Err(ModelError::InvalidLocation {
                        input: s.to_owned(),
                        reason: concat!("not a ", $expected, " location"),
                    }),
                }
            }
        }
    };
}

/// A midplane: half a rack, 512 compute nodes. The unit of job scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MidplaneId {
    rack: RackId,
    m: u8,
}

impl MidplaneId {
    /// Create from a rack and midplane number (0 = bottom, 1 = top).
    pub fn new(rack: RackId, m: u8) -> Result<MidplaneId, ModelError> {
        if m >= topology::MIDPLANES_PER_RACK {
            return Err(ModelError::OutOfRange {
                what: "midplane",
                value: u32::from(m),
                bound: u32::from(topology::MIDPLANES_PER_RACK),
            });
        }
        Ok(MidplaneId { rack, m })
    }

    /// Create from a dense index in `0..NUM_MIDPLANES`.
    ///
    /// Index order is rack-major: `R00-M0`=0, `R00-M1`=1, `R01-M0`=2, …
    pub fn from_index(idx: u8) -> Result<MidplaneId, ModelError> {
        if idx >= topology::NUM_MIDPLANES {
            return Err(ModelError::OutOfRange {
                what: "midplane index",
                value: u32::from(idx),
                bound: u32::from(topology::NUM_MIDPLANES),
            });
        }
        Ok(MidplaneId {
            rack: RackId::from_index(idx / topology::MIDPLANES_PER_RACK)?,
            m: idx % topology::MIDPLANES_PER_RACK,
        })
    }

    /// Total variant of [`MidplaneId::from_index`]: reduces `idx` modulo
    /// `NUM_MIDPLANES` first. For callers whose index is already bounded by
    /// construction (dense loops, bounded RNG draws), where the fallible
    /// constructor would only add an unreachable error path.
    pub fn from_index_wrapping(idx: u8) -> MidplaneId {
        let idx = idx % topology::NUM_MIDPLANES;
        MidplaneId {
            rack: RackId::from_index_wrapping(idx / topology::MIDPLANES_PER_RACK),
            m: idx % topology::MIDPLANES_PER_RACK,
        }
    }

    /// Dense index in `0..NUM_MIDPLANES` (see [`MidplaneId::from_index`]).
    pub fn index(self) -> usize {
        self.rack.index() * usize::from(topology::MIDPLANES_PER_RACK) + usize::from(self.m)
    }

    /// The rack housing this midplane.
    pub fn rack(self) -> RackId {
        self.rack
    }

    /// Midplane number within the rack (0 or 1).
    pub fn m(self) -> u8 {
        self.m
    }

    /// Iterate over all midplanes of the machine in index order.
    pub fn all() -> impl Iterator<Item = MidplaneId> {
        (0..topology::NUM_MIDPLANES).filter_map(|i| MidplaneId::from_index(i).ok())
    }
}

impl MidplaneId {
    /// Append the midplane's text, `<rack>-M<m>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        self.rack.encode(out);
        out.extend_from_slice(b"-M");
        text::push_u64(out, u64::from(self.m), 0);
    }
}

impl fmt::Display for MidplaneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

/// A node card: 32 compute nodes; 16 per midplane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeCardId {
    midplane: MidplaneId,
    card: u8,
}

impl NodeCardId {
    /// Create from a midplane and card number (0–15).
    pub fn new(midplane: MidplaneId, card: u8) -> Result<NodeCardId, ModelError> {
        if card >= topology::NODE_CARDS_PER_MIDPLANE {
            return Err(ModelError::OutOfRange {
                what: "node card",
                value: u32::from(card),
                bound: u32::from(topology::NODE_CARDS_PER_MIDPLANE),
            });
        }
        Ok(NodeCardId { midplane, card })
    }

    /// Total variant of [`NodeCardId::new`]: reduces `card` modulo the
    /// cards-per-midplane count first. For callers whose card number is
    /// already bounded by construction.
    pub fn new_wrapping(midplane: MidplaneId, card: u8) -> NodeCardId {
        NodeCardId {
            midplane,
            card: card % topology::NODE_CARDS_PER_MIDPLANE,
        }
    }

    /// The midplane housing this node card.
    pub fn midplane(self) -> MidplaneId {
        self.midplane
    }

    /// Card number within the midplane (0–15).
    pub fn card(self) -> u8 {
        self.card
    }
}

impl NodeCardId {
    /// Append the node card's text, `<midplane>-N<cc>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        self.midplane.encode(out);
        out.extend_from_slice(b"-N");
        text::push_two_digits(out, u64::from(self.card));
    }
}

impl fmt::Display for NodeCardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

/// A single compute node (one quad-core PowerPC 450).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComputeNodeId {
    node_card: NodeCardId,
    j: u8,
}

impl ComputeNodeId {
    /// Create from a node card and node slot (J00–J31).
    pub fn new(node_card: NodeCardId, j: u8) -> Result<ComputeNodeId, ModelError> {
        if j >= topology::NODES_PER_NODE_CARD {
            return Err(ModelError::OutOfRange {
                what: "node slot",
                value: u32::from(j),
                bound: u32::from(topology::NODES_PER_NODE_CARD),
            });
        }
        Ok(ComputeNodeId { node_card, j })
    }

    /// Total variant of [`ComputeNodeId::new`]: reduces `j` modulo the
    /// slots-per-card count first. For callers whose slot number is already
    /// bounded by construction.
    pub fn new_wrapping(node_card: NodeCardId, j: u8) -> ComputeNodeId {
        ComputeNodeId {
            node_card,
            j: j % topology::NODES_PER_NODE_CARD,
        }
    }

    /// The node card housing this node.
    pub fn node_card(self) -> NodeCardId {
        self.node_card
    }

    /// Slot number on the node card (0–31).
    pub fn j(self) -> u8 {
        self.j
    }
}

impl ComputeNodeId {
    /// Append the node's text, `<node card>-J<jj>`.
    pub(crate) fn encode(self, out: &mut Vec<u8>) {
        self.node_card.encode(out);
        out.extend_from_slice(b"-J");
        text::push_two_digits(out, u64::from(self.j));
    }
}

impl fmt::Display for ComputeNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

/// Defines a card numbered within its midplane, below a per-midplane
/// count, with the same checked constructors as [`NodeCardId`].
macro_rules! midplane_card_id {
    ($(#[$doc:meta])* $ty:ident, $what:literal, $per_midplane:expr, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $ty {
            midplane: MidplaneId,
            index: u8,
        }

        impl $ty {
            #[doc = concat!("Create from a midplane and ", $what, " index, rejecting an index")]
            #[doc = "at or past the per-midplane count."]
            pub fn new(midplane: MidplaneId, index: u8) -> Result<$ty, ModelError> {
                if index >= $per_midplane {
                    return Err(ModelError::OutOfRange {
                        what: $what,
                        value: u32::from(index),
                        bound: u32::from($per_midplane),
                    });
                }
                Ok($ty { midplane, index })
            }

            #[doc = concat!("Total variant of [`", stringify!($ty), "::new`]: reduces `index`")]
            #[doc = "modulo the per-midplane count first. For callers whose index is"]
            #[doc = "already bounded by construction."]
            pub fn new_wrapping(midplane: MidplaneId, index: u8) -> $ty {
                $ty {
                    midplane,
                    index: index % $per_midplane,
                }
            }

            #[doc = concat!("The midplane housing this ", $what, ".")]
            pub fn midplane(self) -> MidplaneId {
                self.midplane
            }

            #[doc = concat!("The ", $what, "'s index within its midplane.")]
            pub fn index(self) -> u8 {
                self.index
            }

            #[doc = concat!("Append the ", $what, "'s text, `<midplane>-", $tag, "<i>`.")]
            pub(crate) fn encode(self, out: &mut Vec<u8>) {
                self.midplane.encode(out);
                out.extend_from_slice(concat!("-", $tag).as_bytes());
                text::push_u64(out, u64::from(self.index), 0);
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                text::fmt_with(f, |out| self.encode(out))
            }
        }
    };
}

midplane_card_id!(
    /// An I/O node. Intrepid runs 64 compute nodes per I/O node, i.e. 8 I/O
    /// nodes per midplane (indices 0–7).
    IoNodeId,
    "I/O node",
    topology::IO_NODES_PER_MIDPLANE,
    "I"
);
midplane_card_id!(
    /// A link card (inter-midplane torus cabling); 4 per midplane (indices
    /// 0–3).
    LinkCardId,
    "link card",
    topology::LINK_CARDS_PER_MIDPLANE,
    "L"
);

/// Any location a RAS record can refer to.
///
/// Ordered so that coarser locations sort before finer ones within the same
/// hardware (the derived order is sufficient for deterministic sorting; it is
/// not a containment order — use [`Location::contains`] for that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// A whole rack.
    Rack(RackId),
    /// A midplane.
    Midplane(MidplaneId),
    /// A node card within a midplane.
    NodeCard(NodeCardId),
    /// A single compute node.
    ComputeNode(ComputeNodeId),
    /// An I/O node.
    IoNode(IoNodeId),
    /// A link card.
    LinkCard(LinkCardId),
    /// The midplane's service card.
    ServiceCard(
        /// Midplane housing the service card.
        MidplaneId,
    ),
    /// The rack's bulk power assembly.
    BulkPower(
        /// The rack.
        RackId,
    ),
    /// The rack's clock card.
    ClockCard(
        /// The rack.
        RackId,
    ),
}

impl Location {
    /// The rack this location lives in.
    pub fn rack(self) -> RackId {
        match self {
            Location::Rack(r) | Location::BulkPower(r) | Location::ClockCard(r) => r,
            Location::Midplane(m) | Location::ServiceCard(m) => m.rack(),
            Location::IoNode(io) => io.midplane().rack(),
            Location::LinkCard(lc) => lc.midplane().rack(),
            Location::NodeCard(nc) => nc.midplane().rack(),
            Location::ComputeNode(cn) => cn.node_card().midplane().rack(),
        }
    }

    /// The midplane this location lives in, if it is midplane-scoped.
    ///
    /// Rack-scoped locations (rack, bulk power, clock card) return `None`.
    pub fn midplane(self) -> Option<MidplaneId> {
        match self {
            Location::Rack(_) | Location::BulkPower(_) | Location::ClockCard(_) => None,
            Location::Midplane(m) | Location::ServiceCard(m) => Some(m),
            Location::IoNode(io) => Some(io.midplane()),
            Location::LinkCard(lc) => Some(lc.midplane()),
            Location::NodeCard(nc) => Some(nc.midplane()),
            Location::ComputeNode(cn) => Some(cn.node_card().midplane()),
        }
    }

    /// All midplanes this location *touches*: a midplane-scoped location
    /// touches its midplane; a rack-scoped location touches both midplanes of
    /// the rack (a failed bulk power module or clock card affects the whole
    /// rack). Returned by value — at most two midplanes, no allocation.
    pub fn touched_midplanes(self) -> impl ExactSizeIterator<Item = MidplaneId> {
        let (pair, n) = match self.midplane() {
            Some(m) => ([m, m], 1),
            None => (self.rack().midplanes(), 2),
        };
        pair.into_iter().take(n)
    }

    /// Fast path for [`Location::from_str`] over the canonical shapes that
    /// [`Display`](fmt::Display) writes: `Rdd`, `Rdd-B`, `Rdd-K`, `Rdd-Md`,
    /// `Rdd-Md-S`, `Rdd-Md-Id`, `Rdd-Md-Ld`, `Rdd-Md-Ndd` and
    /// `Rdd-Md-Ndd-Jdd`, on raw bytes.
    ///
    /// Returns `Some` only where `from_str` returns the same location.
    /// `None` means "not canonical, ask `from_str`", never "invalid": the
    /// dashed `R-23` rack, padding, a one-digit `N7`, a three-digit `J031`
    /// and out-of-range indices all decline here, and `from_str` decides.
    pub fn parse_canonical(b: &[u8]) -> Option<Location> {
        fn digit(b: u8) -> Option<u8> {
            b.is_ascii_digit().then(|| b - b'0')
        }
        let [b'R', row, col, tail @ ..] = b else {
            return None;
        };
        let rack = RackId::new(digit(*row)?, digit(*col)?).ok()?;
        let (midplane, tail) = match tail {
            [] => return Some(Location::Rack(rack)),
            b"-B" => return Some(Location::BulkPower(rack)),
            b"-K" => return Some(Location::ClockCard(rack)),
            [b'-', b'M', m, tail @ ..] => (MidplaneId::new(rack, digit(*m)?).ok()?, tail),
            _ => return None,
        };
        let loc = match *tail {
            [] => Location::Midplane(midplane),
            [b'-', b'S'] => Location::ServiceCard(midplane),
            [b'-', b'I', i] => Location::IoNode(IoNodeId::new(midplane, digit(i)?).ok()?),
            [b'-', b'L', l] => Location::LinkCard(LinkCardId::new(midplane, digit(l)?).ok()?),
            [b'-', b'N', c1, c0, ref node @ ..] => {
                let nc = NodeCardId::new(midplane, digit(c1)? * 10 + digit(c0)?).ok()?;
                match *node {
                    [] => Location::NodeCard(nc),
                    [b'-', b'J', j1, j0] => Location::ComputeNode(
                        ComputeNodeId::new(nc, digit(j1)? * 10 + digit(j0)?).ok()?,
                    ),
                    _ => return None,
                }
            }
            _ => return None,
        };
        Some(loc)
    }

    /// Does this location (as a region of hardware) contain `other`?
    ///
    /// Reflexive: every location contains itself. A rack contains everything
    /// in it; a midplane contains its node cards, nodes, I/O nodes, link and
    /// service cards; a node card contains its nodes. Peer cards (service,
    /// link, bulk power, clock) contain only themselves.
    pub fn contains(self, other: Location) -> bool {
        if self == other {
            return true;
        }
        match self {
            Location::Rack(r) => other.rack() == r,
            Location::Midplane(m) => other.midplane() == Some(m),
            Location::NodeCard(nc) => match other {
                Location::ComputeNode(cn) => cn.node_card() == nc,
                Location::Rack(_)
                | Location::Midplane(_)
                | Location::NodeCard(_)
                | Location::IoNode(_)
                | Location::LinkCard(_)
                | Location::ServiceCard(_)
                | Location::BulkPower(_)
                | Location::ClockCard(_) => false,
            },
            Location::ComputeNode(_)
            | Location::IoNode(_)
            | Location::LinkCard(_)
            | Location::ServiceCard(_)
            | Location::BulkPower(_)
            | Location::ClockCard(_) => false,
        }
    }

    /// Granularity rank, coarse → fine (rack = 0, midplane = 1, card = 2,
    /// node = 3). Useful for sorting diagnostics.
    pub fn granularity(self) -> u8 {
        match self {
            Location::Rack(_) | Location::BulkPower(_) | Location::ClockCard(_) => 0,
            Location::Midplane(m) => {
                let _ = m;
                1
            }
            Location::ServiceCard(_)
            | Location::LinkCard(_)
            | Location::IoNode(_)
            | Location::NodeCard(_) => 2,
            Location::ComputeNode(_) => 3,
        }
    }

    /// A `u32` naming this location: the variant in the top byte, the
    /// hardware indices below it, so distinct locations give distinct keys.
    /// One integer compare instead of the derived [`Ord`]'s walk over the
    /// variant and its fields — for maps keyed by location identity. The
    /// key order is not the `Ord` order.
    pub fn packed(self) -> u32 {
        let card = |nc: NodeCardId| {
            nc.midplane().index() as u32 * u32::from(topology::NODE_CARDS_PER_MIDPLANE)
                + u32::from(nc.card())
        };
        // I/O nodes and link cards both index below `IO_NODES_PER_MIDPLANE`.
        let port = |m: MidplaneId, index: u8| {
            m.index() as u32 * u32::from(topology::IO_NODES_PER_MIDPLANE) + u32::from(index)
        };
        let (variant, index) = match self {
            Location::Rack(r) => (0, r.index() as u32),
            Location::Midplane(m) => (1, m.index() as u32),
            Location::NodeCard(nc) => (2, card(nc)),
            Location::ComputeNode(cn) => (
                3,
                card(cn.node_card()) * u32::from(topology::NODES_PER_NODE_CARD) + u32::from(cn.j()),
            ),
            Location::IoNode(io) => (4, port(io.midplane(), io.index())),
            Location::LinkCard(lc) => (5, port(lc.midplane(), lc.index())),
            Location::ServiceCard(m) => (6, m.index() as u32),
            Location::BulkPower(r) => (7, r.index() as u32),
            Location::ClockCard(r) => (8, r.index() as u32),
        };
        variant << 24 | index
    }
}

impl Location {
    /// Append the location's text, in the grammar of the module table: the
    /// one definition of it, which `Display` and the RAS log writer share.
    pub fn encode(self, out: &mut Vec<u8>) {
        match self {
            Location::Rack(r) => r.encode(out),
            Location::Midplane(m) => m.encode(out),
            Location::NodeCard(nc) => nc.encode(out),
            Location::ComputeNode(cn) => cn.encode(out),
            Location::IoNode(io) => io.encode(out),
            Location::LinkCard(lc) => lc.encode(out),
            Location::ServiceCard(m) => {
                m.encode(out);
                out.extend_from_slice(b"-S");
            }
            Location::BulkPower(r) => {
                r.encode(out);
                out.extend_from_slice(b"-B");
            }
            Location::ClockCard(r) => {
                r.encode(out);
                out.extend_from_slice(b"-K");
            }
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text::fmt_with(f, |out| self.encode(out))
    }
}

impl FromStr for Location {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Location, ModelError> {
        let err = |reason: &'static str| ModelError::InvalidLocation {
            input: s.to_owned(),
            reason,
        };
        let mut parts = s.split('-');
        let rack_part = parts.next().ok_or_else(|| err("empty string"))?;

        // Accept both `R23` and the historical dashed form `R-23`.
        let digits: &str = if rack_part == "R" {
            parts.next().ok_or_else(|| err("missing rack digits"))?
        } else {
            rack_part
                .strip_prefix('R')
                .ok_or_else(|| err("does not start with 'R'"))?
        };
        if digits.len() != 2 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err("rack must be two digits"));
        }
        let row = digits.as_bytes()[0] - b'0';
        let col = digits.as_bytes()[1] - b'0';
        let rack = RackId::new(row, col)?;

        let Some(second) = parts.next() else {
            return Ok(Location::Rack(rack));
        };

        // Rack-scoped cards.
        match second {
            "B" => {
                return if parts.next().is_none() {
                    Ok(Location::BulkPower(rack))
                } else {
                    Err(err("trailing components after bulk power"))
                }
            }
            "K" => {
                return if parts.next().is_none() {
                    Ok(Location::ClockCard(rack))
                } else {
                    Err(err("trailing components after clock card"))
                }
            }
            _ => {}
        }

        let m = second
            .strip_prefix('M')
            .ok_or_else(|| err("expected M, B, or K after rack"))?;
        let m: u8 = m.parse().map_err(|_| err("midplane must be a number"))?;
        let midplane = MidplaneId::new(rack, m)?;

        let Some(third) = parts.next() else {
            return Ok(Location::Midplane(midplane));
        };

        let loc = match third.as_bytes().first() {
            Some(b'S') if third == "S" => Location::ServiceCard(midplane),
            Some(b'N') => {
                let card: u8 = third[1..]
                    .parse()
                    .map_err(|_| err("node card must be a number"))?;
                let nc = NodeCardId::new(midplane, card)?;
                match parts.next() {
                    None => Location::NodeCard(nc),
                    Some(jpart) => {
                        let j: u8 = jpart
                            .strip_prefix('J')
                            .ok_or_else(|| err("expected J after node card"))?
                            .parse()
                            .map_err(|_| err("node slot must be a number"))?;
                        if parts.next().is_some() {
                            return Err(err("trailing components after node slot"));
                        }
                        return Ok(Location::ComputeNode(ComputeNodeId::new(nc, j)?));
                    }
                }
            }
            Some(b'I') => {
                let index: u8 = third[1..]
                    .parse()
                    .map_err(|_| err("I/O node must be a number"))?;
                Location::IoNode(IoNodeId::new(midplane, index)?)
            }
            Some(b'L') => {
                let index: u8 = third[1..]
                    .parse()
                    .map_err(|_| err("link card must be a number"))?;
                Location::LinkCard(LinkCardId::new(midplane, index)?)
            }
            _ => return Err(err("unrecognized component after midplane")),
        };
        if parts.next().is_some() {
            return Err(err("trailing components"));
        }
        Ok(loc)
    }
}

impl_fromstr_via_location!(RackId, Rack, "rack");
impl_fromstr_via_location!(MidplaneId, Midplane, "midplane");
impl_fromstr_via_location!(NodeCardId, NodeCard, "node card");
impl_fromstr_via_location!(ComputeNodeId, ComputeNode, "compute node");
impl_fromstr_via_location!(IoNodeId, IoNode, "I/O node");
impl_fromstr_via_location!(LinkCardId, LinkCard, "link card");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mp(s: &str) -> MidplaneId {
        s.parse().unwrap()
    }

    #[test]
    fn rack_index_round_trip() {
        for i in 0..topology::NUM_RACKS {
            let r = RackId::from_index(i).unwrap();
            assert_eq!(r.index(), usize::from(i));
        }
        assert!(RackId::from_index(topology::NUM_RACKS).is_err());
        assert!(RackId::new(5, 0).is_err());
        assert!(RackId::new(0, 8).is_err());
    }

    #[test]
    fn midplane_index_round_trip() {
        for i in 0..topology::NUM_MIDPLANES {
            let m = MidplaneId::from_index(i).unwrap();
            assert_eq!(m.index(), usize::from(i));
        }
        assert!(MidplaneId::from_index(topology::NUM_MIDPLANES).is_err());
        assert_eq!(
            MidplaneId::all().count(),
            usize::from(topology::NUM_MIDPLANES)
        );
    }

    #[test]
    fn packed_keys_are_distinct() {
        let mut all = Vec::new();
        for r in 0..topology::NUM_RACKS {
            let r = RackId::from_index(r).unwrap();
            all.extend([
                Location::Rack(r),
                Location::BulkPower(r),
                Location::ClockCard(r),
            ]);
        }
        for m in MidplaneId::all() {
            all.extend([Location::Midplane(m), Location::ServiceCard(m)]);
            for index in 0..topology::IO_NODES_PER_MIDPLANE {
                all.push(Location::IoNode(IoNodeId::new(m, index).unwrap()));
            }
            for index in 0..topology::LINK_CARDS_PER_MIDPLANE {
                all.push(Location::LinkCard(LinkCardId::new(m, index).unwrap()));
            }
            for c in 0..topology::NODE_CARDS_PER_MIDPLANE {
                let nc = NodeCardId::new(m, c).unwrap();
                all.push(Location::NodeCard(nc));
                for j in 0..topology::NODES_PER_NODE_CARD {
                    all.push(Location::ComputeNode(ComputeNodeId::new(nc, j).unwrap()));
                }
            }
        }
        let mut keys: Vec<u32> = all.iter().map(|l| l.packed()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), all.len());
    }

    #[test]
    fn display_forms() {
        assert_eq!(mp("R23-M1").to_string(), "R23-M1");
        let loc: Location = "R23-M1-N04-J12".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-M1-N04-J12");
        let loc: Location = "R23-M1-I3".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-M1-I3");
        let loc: Location = "R23-M1-L2".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-M1-L2");
        let loc: Location = "R23-M1-S".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-M1-S");
        let loc: Location = "R23-B".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-B");
        let loc: Location = "R23-K".parse().unwrap();
        assert_eq!(loc.to_string(), "R23-K");
    }

    #[test]
    fn historical_dashed_rack_form() {
        // The paper's Table II shows "R-04-M0-S".
        let loc: Location = "R-04-M0-S".parse().unwrap();
        assert_eq!(loc, Location::ServiceCard(mp("R04-M0")));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "R",
            "R2",
            "R234",
            "Q23",
            "R23-X1",
            "R23-M2",         // midplane out of range
            "R53-M0",         // row out of range
            "R23-M1-N16",     // node card out of range
            "R23-M1-N04-J32", // slot out of range
            "R23-M1-I8",      // I/O node out of range
            "R23-M1-L4",      // link card out of range
            "R23-M1-N04-J12-X",
            "R23-B-M0",
            "R23-M1-S-X",
            "R23-M1-Nxx",
        ] {
            assert!(bad.parse::<Location>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn containment() {
        let rack: Location = "R23".parse().unwrap();
        let mid: Location = "R23-M1".parse().unwrap();
        let card: Location = "R23-M1-N04".parse().unwrap();
        let node: Location = "R23-M1-N04-J12".parse().unwrap();
        let io: Location = "R23-M1-I3".parse().unwrap();
        let other_mid: Location = "R23-M0".parse().unwrap();
        let other_rack: Location = "R24".parse().unwrap();

        assert!(rack.contains(mid));
        assert!(rack.contains(node));
        assert!(rack.contains(io));
        assert!(mid.contains(card));
        assert!(mid.contains(node));
        assert!(mid.contains(io));
        assert!(card.contains(node));
        assert!(!card.contains(io));
        assert!(!mid.contains(rack));
        assert!(!other_mid.contains(node));
        assert!(!other_rack.contains(node));
        // Reflexivity.
        for l in [rack, mid, card, node, io] {
            assert!(l.contains(l));
        }
    }

    #[test]
    fn midplane_projection() {
        let node: Location = "R23-M1-N04-J12".parse().unwrap();
        assert_eq!(node.midplane(), Some(mp("R23-M1")));
        let bulk: Location = "R23-B".parse().unwrap();
        assert_eq!(bulk.midplane(), None);
        let touched = |l: Location| l.touched_midplanes().collect::<Vec<_>>();
        assert_eq!(touched(bulk), vec![mp("R23-M0"), mp("R23-M1")]);
        assert_eq!(touched(node), vec![mp("R23-M1")]);
        assert_eq!(bulk.touched_midplanes().len(), 2);
    }

    #[test]
    fn canonical_fast_path_declines_what_it_cannot_vouch_for() {
        for s in ["R23", "R23-B", "R23-K", "R23-M1", "R23-M1-S", "R23-M1-I7"] {
            assert_eq!(Location::parse_canonical(s.as_bytes()), s.parse().ok());
        }
        for s in [
            "R23-M1-L3",
            "R23-M1-N15",
            "R23-M1-N04-J31",
            "R47-M0-N00-J00",
        ] {
            assert_eq!(Location::parse_canonical(s.as_bytes()), s.parse().ok());
        }
        for s in [
            "R-23",            // dashed rack: from_str accepts it
            "R-04-M0-S",       //
            "R23-M1-N7",       // one-digit node card: from_str accepts it
            "R23-M1-N04-J031", // three-digit slot: from_str accepts it
            "R23-M01",         // two-digit midplane: from_str accepts it
            " R23",            // padding
            "R23-M1-I8",       // out of range: from_str reports it
            "R23-M1-L4",
            "R53-M0",
            "R23-M1-N16",
            "R23-M1-N04-J32",
            "",
        ] {
            assert_eq!(Location::parse_canonical(s.as_bytes()), None, "{s:?}");
        }
    }

    #[test]
    fn granularity_ordering() {
        let rack: Location = "R23".parse().unwrap();
        let mid: Location = "R23-M1".parse().unwrap();
        let card: Location = "R23-M1-N04".parse().unwrap();
        let node: Location = "R23-M1-N04-J12".parse().unwrap();
        assert!(rack.granularity() < mid.granularity());
        assert!(mid.granularity() < card.granularity());
        assert!(card.granularity() < node.granularity());
    }

    #[test]
    fn typed_fromstr() {
        let r: RackId = "R23".parse().unwrap();
        assert_eq!(r.to_string(), "R23");
        assert!("R23-M1".parse::<RackId>().is_err());
        let m: MidplaneId = "R23-M1".parse().unwrap();
        assert_eq!(m.to_string(), "R23-M1");
        let n: ComputeNodeId = "R23-M1-N04-J12".parse().unwrap();
        assert_eq!(n.to_string(), "R23-M1-N04-J12");
        let io: IoNodeId = "R23-M1-I3".parse().unwrap();
        assert_eq!(io.to_string(), "R23-M1-I3");
        let lc: LinkCardId = "R23-M1-L2".parse().unwrap();
        assert_eq!(lc.to_string(), "R23-M1-L2");
        assert!("R23-M1-I3".parse::<LinkCardId>().is_err());
    }

    #[test]
    fn io_node_and_link_card_ids_check_their_index() {
        let m = mp("R23-M1");
        assert_eq!(IoNodeId::new(m, 7).unwrap().index(), 7);
        assert!(IoNodeId::new(m, topology::IO_NODES_PER_MIDPLANE).is_err());
        assert_eq!(IoNodeId::new_wrapping(m, 9), IoNodeId::new(m, 1).unwrap());
        assert_eq!(LinkCardId::new(m, 3).unwrap().midplane(), m);
        assert!(LinkCardId::new(m, topology::LINK_CARDS_PER_MIDPLANE).is_err());
        assert_eq!(
            LinkCardId::new_wrapping(m, 6),
            LinkCardId::new(m, 2).unwrap()
        );
        // Whatever index a caller passes, the location writes text its own
        // parser reads back.
        for i in 0..=u8::MAX {
            for loc in [
                Location::IoNode(IoNodeId::new_wrapping(m, i)),
                Location::LinkCard(LinkCardId::new_wrapping(m, i)),
            ] {
                assert_eq!(loc.to_string().parse::<Location>().unwrap(), loc);
                assert_eq!(
                    Location::parse_canonical(loc.to_string().as_bytes()),
                    Some(loc)
                );
            }
        }
    }

    /// Strategy generating arbitrary valid locations.
    fn arb_location() -> impl Strategy<Value = Location> {
        let rack = (0u8..topology::NUM_ROWS, 0u8..topology::RACKS_PER_ROW)
            .prop_map(|(r, c)| RackId::new(r, c).unwrap());
        let midplane = (rack.clone(), 0u8..topology::MIDPLANES_PER_RACK)
            .prop_map(|(r, m)| MidplaneId::new(r, m).unwrap());
        prop_oneof![
            rack.clone().prop_map(Location::Rack),
            rack.clone().prop_map(Location::BulkPower),
            rack.prop_map(Location::ClockCard),
            midplane.clone().prop_map(Location::Midplane),
            midplane.clone().prop_map(Location::ServiceCard),
            (midplane.clone(), 0u8..topology::IO_NODES_PER_MIDPLANE)
                .prop_map(|(m, i)| Location::IoNode(IoNodeId::new(m, i).unwrap())),
            (midplane.clone(), 0u8..topology::LINK_CARDS_PER_MIDPLANE)
                .prop_map(|(m, i)| Location::LinkCard(LinkCardId::new(m, i).unwrap())),
            (midplane.clone(), 0u8..topology::NODE_CARDS_PER_MIDPLANE)
                .prop_map(|(m, c)| Location::NodeCard(NodeCardId::new(m, c).unwrap())),
            (
                midplane,
                0u8..topology::NODE_CARDS_PER_MIDPLANE,
                0u8..topology::NODES_PER_NODE_CARD
            )
                .prop_map(|(m, c, j)| {
                    Location::ComputeNode(
                        ComputeNodeId::new(NodeCardId::new(m, c).unwrap(), j).unwrap(),
                    )
                }),
        ]
    }

    proptest! {
        #[test]
        fn location_display_parse_round_trip(loc in arb_location()) {
            let s = loc.to_string();
            let back: Location = s.parse().unwrap();
            prop_assert_eq!(loc, back);
            prop_assert_eq!(Location::parse_canonical(s.as_bytes()), Some(loc));
        }

        #[test]
        fn containment_is_consistent_with_midplane(loc in arb_location(), other in arb_location()) {
            if loc.contains(other) {
                // Containment implies same rack.
                prop_assert_eq!(loc.rack(), other.rack());
                // And if the container is midplane-scoped, same midplane.
                if let Some(m) = loc.midplane() {
                    prop_assert_eq!(other.midplane(), Some(m));
                }
            }
        }
    }
}
