//! The wire messages of both sleeping MST algorithms, with CONGEST bit
//! accounting.
//!
//! Field sizes: a fragment id is an external node id in `[1, N]`
//! (`⌈log N⌉` bits), a level is in `[0, n)` (`⌈log n⌉` bits), an edge
//! weight is drawn from a `poly(n)` space (`O(log n)` bits), and a color
//! needs 3 bits. Every variant is therefore `O(log n)` bits, which the
//! test suite asserts against the simulator's configurable limit.

use netsim::{bits_for_value, Payload};

/// Direction of a valid MOE relative to a fragment (deterministic
/// algorithm): `Out` is the fragment's own chosen MOE, `In` is another
/// fragment's MOE arriving here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// The fragment's own outgoing MOE.
    Out,
    /// An incoming MOE selected as valid by this fragment.
    In,
}

/// The five-color palette of `Fast-Awake-Coloring`, ordered by priority
/// (`Blue` highest, as in the paper: Blue > Red > Orange > Black > Green).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Color {
    /// Highest priority; blue fragments are the ones that merge away.
    Blue,
    /// Second priority.
    Red,
    /// Third priority.
    Orange,
    /// Fourth priority.
    Black,
    /// Lowest priority; never needed unless a fragment has four distinctly
    /// colored neighbors.
    Green,
}

impl Color {
    /// All colors in priority order.
    pub const PALETTE: [Color; 5] = [
        Color::Blue,
        Color::Red,
        Color::Orange,
        Color::Black,
        Color::Green,
    ];

    /// This color's bit in a 5-bit color mask: bit `i` stands for
    /// `PALETTE[i]`.
    pub const fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The highest-priority color whose [`Color::bit`] is clear in
    /// `used`.
    ///
    /// # Panics
    ///
    /// Panics if all five colors are used — impossible while the fragment
    /// graph has maximum degree 4.
    pub fn pick(used: u8) -> Color {
        *Self::PALETTE
            .iter()
            .find(|c| used & c.bit() == 0)
            .expect("degree-4 graph cannot exhaust a 5-color palette")
    }
}

/// The NBR-INFO payload: the (at most four) neighbor fragments of a
/// fragment in the pruned supergraph `G'`, each tagged with the MOE
/// direction that created the adjacency.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NbrSet {
    entries: Vec<(u64, Dir)>,
}

impl NbrSet {
    /// Maximum entries a fragment can accumulate (3 valid incoming MOEs
    /// plus 1 valid outgoing).
    pub const MAX: usize = 4;

    /// Creates an empty set.
    pub fn new() -> Self {
        NbrSet::default()
    }

    /// Inserts an entry, keeping the set sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if the insertion would exceed [`NbrSet::MAX`] distinct
    /// entries — that would mean the MOE pruning invariant was violated.
    pub fn insert(&mut self, frag: u64, dir: Dir) {
        if let Err(pos) = self.entries.binary_search(&(frag, dir)) {
            self.entries.insert(pos, (frag, dir));
            assert!(
                self.entries.len() <= Self::MAX,
                "NBR-INFO exceeded {} entries: {:?}",
                Self::MAX,
                self.entries
            );
        }
    }

    /// Merges another set into this one.
    pub fn union(&mut self, other: &NbrSet) {
        for &(f, d) in &other.entries {
            self.insert(f, d);
        }
    }

    /// All entries, sorted by `(fragment, direction)`.
    pub fn entries(&self) -> &[(u64, Dir)] {
        &self.entries
    }

    /// Removes every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `true` if the fragment has no `G'` neighbors (a *singleton* in the
    /// paper's terminology).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if `(frag, dir)` is present.
    pub fn contains(&self, frag: u64, dir: Dir) -> bool {
        self.entries.binary_search(&(frag, dir)).is_ok()
    }

    /// `true` if `frag` is present with either direction.
    pub fn contains_fragment(&self, frag: u64) -> bool {
        self.entries.iter().any(|&(f, _)| f == frag)
    }

    fn bit_size(&self) -> usize {
        // 3 bits length + per entry: fragment id + 1 direction bit.
        3 + self
            .entries
            .iter()
            .map(|&(f, _)| bits_for_value(f) + 1)
            .sum::<usize>()
    }
}

/// Every message either sleeping algorithm sends. One shared enum keeps
/// the simulator monomorphic per run while both algorithms reuse the
/// toolbox block implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstMsg {
    /// `Transmit-Adjacent` payload: the sender's fragment id and level.
    /// `attach == true` additionally announces "my fragment merges into
    /// yours over this edge; you gain me as a child" (sent by `u_T` toward
    /// `u_H` in `Merging-Fragments`).
    FragInfo {
        /// Sender's fragment id.
        frag: u64,
        /// Sender's level (distance from its fragment root).
        level: u64,
        /// Attachment announcement for the receiving endpoint.
        attach: bool,
    },
    /// `Upcast-Min` of the fragment's minimum outgoing edge weight
    /// (`None` = no outgoing edge seen in this subtree).
    UpMoe(Option<u64>),
    /// `Fragment-Broadcast` of the fragment MOE; `None` means the fragment
    /// has no outgoing edge — the algorithm is done.
    DownMoe(Option<u64>),
    /// `Fragment-Broadcast` of the root's coin flip (randomized step (i)).
    DownCoin(bool),
    /// `Transmit-Adjacent` of the fragment coin; `over_moe` marks the
    /// sender's fragment MOE edge.
    SideCoin {
        /// The sender fragment's coin.
        heads: bool,
        /// `true` iff this edge is the sender fragment's MOE.
        over_moe: bool,
    },
    /// `Upcast-Min` of MOE validity from `u_T` to the root.
    UpValid(Option<bool>),
    /// `Fragment-Broadcast`: does this fragment merge this phase?
    DownMerging(bool),
    /// `Merging-Fragments` sweep value: the sender's NEW-LEVEL-NUM and
    /// NEW-FRAGMENT-ID.
    MergeVals {
        /// Sender's new level.
        level: u64,
        /// Sender's new fragment id.
        frag: u64,
    },
    /// `Transmit-Adjacent`: marks the sender fragment's MOE edge
    /// (deterministic step (i), used to discover incoming MOEs).
    SideMoeFlag {
        /// `true` iff this edge is the sender fragment's MOE.
        over_moe: bool,
    },
    /// Upward sweep: number of incoming-MOE edges in the sender's subtree.
    UpCount(u64),
    /// Downward sweep: number of validity tokens granted to the receiving
    /// subtree.
    DownTokens(u64),
    /// `Transmit-Adjacent`: tells the MOE's source fragment whether the
    /// target fragment selected it as valid.
    SideValid {
        /// The selection verdict.
        valid: bool,
    },
    /// Upward union of NBR-INFO entries.
    UpNbrs(NbrSet),
    /// `Fragment-Broadcast` of the final NBR-INFO.
    DownNbrs(NbrSet),
    /// `Fast-Awake-Coloring`: a freshly colored fragment announces its
    /// color across a `G'` edge.
    SideColor(Color),
    /// Upward forwarding of a neighbor's announced color.
    UpColor(Option<Color>),
    /// `Fragment-Broadcast` of a neighbor fragment's color (paired with
    /// the stage's fragment id, which is implicit in the round number).
    DownColor(Color),
    /// Cole–Vishkin mode: a fragment's current numeric color, announced
    /// across a `G'` edge.
    SideColorWord(u64),
    /// Cole–Vishkin mode: upcast of the parent fragment's current color
    /// (from `u_T` to the root).
    UpColorWord(Option<u64>),
    /// Cole–Vishkin mode: broadcast of the parent fragment's current
    /// color, from which every node derives the next CV color locally.
    DownColorWord(u64),
    /// Cole–Vishkin mode: does this fragment have a CV parent? (`u_T`
    /// upcasts its local verdict.)
    UpHasParent(Option<bool>),
    /// Cole–Vishkin mode: fragment-wide broadcast of the CV-parent flag.
    DownHasParent(bool),
    /// Cole–Vishkin mode: upcast union of small color bitmasks (neighbor
    /// CV classes, or neighbor final colors in the recolor stages).
    UpMask(u8),
    /// Cole–Vishkin mode: broadcast of an aggregated color bitmask.
    DownMask(u8),
}

impl Payload for MstMsg {
    fn bit_size(&self) -> usize {
        const TAG: usize = 5; // 17 variants fit in 5 tag bits
        TAG + match self {
            MstMsg::FragInfo { frag, level, .. } => {
                bits_for_value(*frag) + bits_for_value(*level) + 1
            }
            MstMsg::UpMoe(w) | MstMsg::DownMoe(w) => 1 + w.map_or(0, bits_for_value),
            MstMsg::DownCoin(_) => 1,
            MstMsg::SideCoin { .. } => 2,
            MstMsg::UpValid(v) => 1 + usize::from(v.is_some()),
            MstMsg::DownMerging(_) => 1,
            MstMsg::MergeVals { level, frag } => bits_for_value(*level) + bits_for_value(*frag),
            MstMsg::SideMoeFlag { .. } => 1,
            MstMsg::UpCount(c) => bits_for_value(*c),
            MstMsg::DownTokens(t) => bits_for_value(*t),
            MstMsg::SideValid { .. } => 1,
            MstMsg::UpNbrs(s) | MstMsg::DownNbrs(s) => s.bit_size(),
            MstMsg::SideColor(_) | MstMsg::DownColor(_) => 3,
            MstMsg::UpColor(c) => 1 + if c.is_some() { 3 } else { 0 },
            MstMsg::SideColorWord(w) | MstMsg::DownColorWord(w) => bits_for_value(*w),
            MstMsg::UpColorWord(w) => 1 + w.map_or(0, bits_for_value),
            MstMsg::UpHasParent(f) => 1 + usize::from(f.is_some()),
            MstMsg::DownHasParent(_) => 1,
            MstMsg::UpMask(_) | MstMsg::DownMask(_) => 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(colors: &[Color]) -> u8 {
        colors.iter().fold(0, |m, c| m | c.bit())
    }

    #[test]
    fn color_pick_follows_priority() {
        assert_eq!(Color::pick(0), Color::Blue);
        assert_eq!(Color::pick(mask(&[Color::Blue])), Color::Red);
        assert_eq!(Color::pick(mask(&[Color::Red, Color::Blue])), Color::Orange);
        assert_eq!(
            Color::pick(mask(&[
                Color::Blue,
                Color::Red,
                Color::Orange,
                Color::Black
            ])),
            Color::Green
        );
    }

    #[test]
    fn color_pick_agrees_with_a_slice_pick_on_every_mask() {
        for (i, c) in Color::PALETTE.iter().enumerate() {
            assert_eq!(c.bit(), 1 << i, "{c:?}");
        }
        // The pick over a list of used colors, as the palette defines it.
        let slice_pick =
            |used: &[Color]| Color::PALETTE.iter().copied().find(|c| !used.contains(c));
        for m in 0u8..32 {
            let used: Vec<Color> = Color::PALETTE
                .iter()
                .copied()
                .filter(|c| m & c.bit() != 0)
                .collect();
            assert_eq!(mask(&used), m);
            let expect = slice_pick(&used);
            if m == 0b1_1111 {
                assert_eq!(expect, None);
            } else {
                assert_eq!(Some(Color::pick(m)), expect, "mask {m:05b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "5-color palette")]
    fn color_pick_panics_when_exhausted() {
        Color::pick(mask(&Color::PALETTE));
    }

    #[test]
    fn nbr_set_dedups_and_sorts() {
        let mut s = NbrSet::new();
        s.insert(9, Dir::In);
        s.insert(3, Dir::Out);
        s.insert(9, Dir::In);
        assert_eq!(s.entries(), &[(3, Dir::Out), (9, Dir::In)]);
        assert!(s.contains(9, Dir::In));
        assert!(!s.contains(9, Dir::Out));
        assert!(s.contains_fragment(3));
        assert!(!s.contains_fragment(4));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn nbr_set_union_respects_cap() {
        let mut a = NbrSet::new();
        a.insert(1, Dir::In);
        a.insert(2, Dir::In);
        let mut b = NbrSet::new();
        b.insert(3, Dir::In);
        b.insert(4, Dir::Out);
        a.union(&b);
        assert_eq!(a.entries().len(), 4);
    }

    #[test]
    #[should_panic(expected = "NBR-INFO exceeded")]
    fn nbr_set_overflow_panics() {
        let mut s = NbrSet::new();
        for f in 1..=5 {
            s.insert(f, Dir::In);
        }
    }

    #[test]
    fn message_sizes_are_logarithmic() {
        // For n = 1024, N = 4096, weights < 2^36: every message must fit in
        // a generous c·log n budget (here 8 + 4·36 bits is far above; the
        // real check is the integration test against the simulator limit).
        let msgs = [
            MstMsg::FragInfo {
                frag: 4096,
                level: 1023,
                attach: true,
            },
            MstMsg::UpMoe(Some(1 << 36)),
            MstMsg::DownMoe(None),
            MstMsg::DownCoin(true),
            MstMsg::SideCoin {
                heads: false,
                over_moe: true,
            },
            MstMsg::UpValid(Some(true)),
            MstMsg::DownMerging(false),
            MstMsg::MergeVals {
                level: 1023,
                frag: 4096,
            },
            MstMsg::SideMoeFlag { over_moe: true },
            MstMsg::UpCount(1024),
            MstMsg::DownTokens(3),
            MstMsg::SideValid { valid: true },
            MstMsg::SideColor(Color::Green),
            MstMsg::UpColor(Some(Color::Blue)),
            MstMsg::DownColor(Color::Red),
        ];
        for m in msgs {
            assert!(m.bit_size() <= 64, "{m:?} is {} bits", m.bit_size());
        }
        let mut s = NbrSet::new();
        for f in [4093, 4094, 4095, 4096] {
            s.insert(f, Dir::In);
        }
        let m = MstMsg::UpNbrs(s);
        // 5 tag bits + 3 length bits + 4 entries × (13-bit id + 1 dir bit).
        assert!(
            m.bit_size() <= 5 + 3 + 4 * 14,
            "{m:?} is {} bits",
            m.bit_size()
        );
    }
}
