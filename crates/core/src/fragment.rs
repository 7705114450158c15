//! Per-node fragment bookkeeping shared by both sleeping algorithms.

use std::collections::BTreeSet;

use graphlib::Port;
use netsim::NodeCtx;

use crate::ldt::LdtView;

/// What a node does at one planned wake inside a block: the five named
/// roles of the `Transmission-Schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// `Side-Send-Receive`: simultaneous exchange with all neighbors.
    Side,
    /// `Down-Receive`: listen for the parent's downward message.
    DownReceive,
    /// `Down-Send`: forward downward to children (roots originate here).
    DownSend,
    /// `Up-Receive`: listen for the children's upward messages.
    UpReceive,
    /// `Up-Send`: forward upward to the parent.
    UpSend,
}

/// A node's planned wakes inside one block, in ascending offset order:
/// at most two `(offset, Step)` pairs, held inline so replanning after
/// every wake allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Steps {
    pairs: [(u64, Step); 2],
    len: usize,
}

impl Steps {
    /// No wakes in the block.
    pub fn new() -> Self {
        Steps {
            pairs: [(0, Step::Side); 2],
            len: 0,
        }
    }

    /// Adds a wake, keeping the pairs ordered by offset (a tie keeps
    /// insertion order).
    ///
    /// # Panics
    ///
    /// Panics on a third step: every block shape of the
    /// `Transmission-Schedule` wakes a node at most twice.
    pub fn push(&mut self, offset: u64, step: Step) {
        assert!(self.len < 2, "a block plans at most two wakes per node");
        self.pairs[self.len] = (offset, step);
        self.len += 1;
        if self.len == 2 && self.pairs[1].0 < self.pairs[0].0 {
            self.pairs.swap(0, 1);
        }
    }

    /// The first wake strictly after offset `after` (any wake when
    /// `after` is `None`).
    pub fn first_after(&self, after: Option<u64>) -> Option<(u64, Step)> {
        self.pairs[..self.len]
            .iter()
            .copied()
            .find(|&(off, _)| after.is_none_or(|a| off > a))
    }
}

/// A small map kept as a `Vec` sorted by key: the per-phase tables of a
/// node hold a handful of entries, and [`SortedVecMap::clear`] keeps the
/// storage for the next phase.
#[derive(Debug, Clone)]
pub(crate) struct SortedVecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V: Copy> SortedVecMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SortedVecMap {
            entries: Vec::new(),
        }
    }

    /// Inserts `value` under `key`, overwriting an existing entry.
    pub fn insert(&mut self, key: K, value: V) {
        match self.entries.binary_search_by(|&(k, _)| k.cmp(&key)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (key, value)),
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: K) -> Option<V> {
        self.entries
            .binary_search_by(|&(k, _)| k.cmp(&key))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// All entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.entries.iter().copied()
    }

    /// Removes every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The LDT state of one node plus the per-phase scratch both algorithms
/// need: learned neighbor fragment info, merge staging variables
/// (NEW-LEVEL-NUM / NEW-FRAGMENT-ID of the paper), and the MST output
/// bits.
#[derive(Debug, Clone)]
pub(crate) struct FragmentCore {
    /// Fragment id = external id of the fragment root.
    pub frag: u64,
    /// Hop distance from the fragment root.
    pub level: u64,
    /// Port to parent (`None` at the root).
    pub parent: Option<Port>,
    /// Ports to children.
    pub children: BTreeSet<Port>,
    /// Per-port neighbor `(fragment, level)` learned this phase.
    pub nbr: Vec<Option<(u64, u64)>>,
    /// NEW-LEVEL-NUM and NEW-FRAGMENT-ID, staged during `Merging-Fragments`.
    pub new_vals: Option<(u64, u64)>,
    /// Pending re-orientation: the port that becomes the new parent.
    pub new_parent: Option<Port>,
    /// Ports that become children when the merge is applied (`u_H` side).
    pub pending_children: Vec<Port>,
    /// Output: `mst_ports[p]` is `true` once the edge behind port `p` is
    /// known to be an MST edge.
    pub mst_ports: Vec<bool>,
}

impl FragmentCore {
    /// Initial singleton-fragment state for a node.
    pub fn new(ctx: &NodeCtx) -> Self {
        FragmentCore {
            frag: ctx.external_id,
            level: 0,
            parent: None,
            children: BTreeSet::new(),
            nbr: vec![None; ctx.degree()],
            new_vals: None,
            new_parent: None,
            pending_children: Vec::new(),
            mst_ports: vec![false; ctx.degree()],
        }
    }

    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    pub fn has_children(&self) -> bool {
        !self.children.is_empty()
    }

    /// The node's local MOE candidate: its minimum-weight incident edge
    /// leaving the fragment, as `(weight, port)`. Requires the per-port
    /// neighbor info of the current phase.
    pub fn local_moe(&self, ctx: &NodeCtx) -> Option<(u64, Port)> {
        self.nbr
            .iter()
            .enumerate()
            .filter_map(|(i, info)| {
                let (frag, _) = (*info)?;
                (frag != self.frag).then(|| (ctx.port_weights[i], Port::new(i as u32)))
            })
            .min()
    }

    /// Applies the staged merge: adopts NEW-LEVEL-NUM / NEW-FRAGMENT-ID,
    /// re-orients parent/child pointers, and absorbs pending children.
    pub fn apply_merge(&mut self) {
        if let Some((level, frag)) = self.new_vals.take() {
            self.level = level;
            self.frag = frag;
            if let Some(np) = self.new_parent.take() {
                let old_parent = self.parent;
                self.children.remove(&np);
                self.parent = Some(np);
                if let Some(op) = old_parent {
                    self.children.insert(op);
                }
            }
        }
        self.new_parent = None;
        for p in self.pending_children.drain(..) {
            self.children.insert(p);
        }
    }

    /// Clears the per-phase neighbor table.
    pub fn clear_phase_scratch(&mut self) {
        self.nbr.iter_mut().for_each(|e| *e = None);
    }

    /// Snapshot for invariant checking.
    pub fn ldt_view(&self) -> LdtView {
        LdtView {
            fragment: self.frag,
            level: self.level,
            parent: self.parent,
            children: self.children.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::NodeId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ctx(degree: usize) -> NodeCtx {
        NodeCtx {
            node: NodeId::new(0),
            external_id: 1,
            n: 4,
            max_external_id: 4,
            port_weights: (1..=degree as u64)
                .map(|w| w * 10)
                .collect::<Vec<_>>()
                .into(),
            rng_seed: 0,
        }
    }

    #[test]
    fn steps_order_does_not_depend_on_push_order() {
        let a = (3, Step::DownReceive);
        let b = (9, Step::DownSend);
        let mut ab = Steps::new();
        ab.push(a.0, a.1);
        ab.push(b.0, b.1);
        let mut ba = Steps::new();
        ba.push(b.0, b.1);
        ba.push(a.0, a.1);
        for steps in [ab, ba] {
            assert_eq!(steps.first_after(None), Some(a));
            assert_eq!(steps.first_after(Some(a.0)), Some(b));
            assert_eq!(steps.first_after(Some(b.0)), None);
        }
        assert_eq!(ab, ba);
        assert_eq!(Steps::new().first_after(None), None);
    }

    #[test]
    #[should_panic(expected = "at most two wakes")]
    fn steps_refuse_a_third_wake() {
        let mut steps = Steps::new();
        for off in 0..3 {
            steps.push(off, Step::Side);
        }
    }

    proptest! {
        /// The sorted-`Vec` map agrees with a `BTreeMap` through random
        /// insert / overwrite / get / clear sequences, including the
        /// key-ordered walk.
        #[test]
        fn sorted_vec_map_matches_a_btreemap_model(
            ops in proptest::collection::vec((0u8..4, 0u32..12, any::<u64>()), 0..64)
        ) {
            let mut map = SortedVecMap::new();
            let mut model = BTreeMap::new();
            for (op, key, value) in ops {
                let port = Port::new(key);
                match op {
                    0 | 1 => {
                        map.insert(port, value);
                        model.insert(port, value);
                    }
                    2 => prop_assert_eq!(map.get(port), model.get(&port).copied()),
                    _ => {
                        map.clear();
                        model.clear();
                    }
                }
                let walked: Vec<(Port, u64)> = map.iter().collect();
                let expect: Vec<(Port, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(walked, expect);
            }
        }
    }

    #[test]
    fn local_moe_skips_same_fragment_ports() {
        let c = ctx(3);
        let mut f = FragmentCore::new(&c);
        f.nbr = vec![Some((1, 0)), Some((2, 0)), Some((9, 1))];
        // Port 0 is inside the fragment (frag 1 == ours), ports 1 and 2
        // leave it; port 1 is cheaper (weight 20 < 30).
        assert_eq!(f.local_moe(&c), Some((20, Port::new(1))));
    }

    #[test]
    fn local_moe_none_when_isolated_or_unlearned() {
        let c = ctx(2);
        let f = FragmentCore::new(&c);
        assert_eq!(f.local_moe(&c), None);
    }

    #[test]
    fn apply_merge_reorients_ut() {
        // u_T with old parent on port 0, child on port 1, MOE on port 2.
        let c = ctx(3);
        let mut f = FragmentCore::new(&c);
        f.parent = Some(Port::new(0));
        f.level = 3;
        f.children.insert(Port::new(1));
        f.new_vals = Some((5, 77));
        f.new_parent = Some(Port::new(2));
        f.apply_merge();
        assert_eq!((f.level, f.frag), (5, 77));
        assert_eq!(f.parent, Some(Port::new(2)));
        // Old parent demoted to child; old child kept.
        assert!(f.children.contains(&Port::new(0)));
        assert!(f.children.contains(&Port::new(1)));
        assert!(!f.children.contains(&Port::new(2)));
    }

    #[test]
    fn apply_merge_path_node_demotes_child() {
        // Path node: values arrived from child on port 1.
        let c = ctx(3);
        let mut f = FragmentCore::new(&c);
        f.parent = Some(Port::new(0));
        f.level = 2;
        f.children.insert(Port::new(1));
        f.children.insert(Port::new(2));
        f.new_vals = Some((6, 77));
        f.new_parent = Some(Port::new(1));
        f.apply_merge();
        assert_eq!(f.parent, Some(Port::new(1)));
        let expect: BTreeSet<Port> = [Port::new(0), Port::new(2)].into_iter().collect();
        assert_eq!(f.children, expect);
    }

    #[test]
    fn apply_merge_off_path_keeps_orientation() {
        let c = ctx(2);
        let mut f = FragmentCore::new(&c);
        f.parent = Some(Port::new(0));
        f.level = 4;
        f.new_vals = Some((9, 77));
        f.apply_merge();
        assert_eq!(f.parent, Some(Port::new(0)));
        assert_eq!((f.level, f.frag), (9, 77));
    }

    #[test]
    fn apply_merge_absorbs_pending_children() {
        let c = ctx(2);
        let mut f = FragmentCore::new(&c);
        f.pending_children = vec![Port::new(1)];
        f.apply_merge();
        assert!(f.children.contains(&Port::new(1)));
        assert!(f.pending_children.is_empty());
    }
}
