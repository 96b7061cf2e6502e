//! Dense, id-indexed state storage for the hot path.
//!
//! The simulator's entity ids ([`FlowId`], [`NodeId`], [`LinkId`]) are
//! small contiguous `u32` indices handed out by the topology builder, so
//! per-entity state never needs an ordered tree: a flat index by
//! [`SlabKey::index`] into a packed entry vector gives O(1) access, and
//! iterating the index in order reproduces exactly the ascending-key
//! order a `BTreeMap` would give — which is what keeps report rendering
//! and epoch scans deterministic (DESIGN.md §12).
//!
//! [`DenseMap`] is deliberately map-shaped (`insert`/`get`/`remove`/
//! `iter` and a map-style `Debug`) so converting a `BTreeMap<Id, V>` site
//! is mechanical and the `Debug`-rendered reports used by the
//! byte-identity oracles are unchanged. [`DenseMap::clear`] keeps the
//! backing allocation, so per-epoch state resets stay allocation-free
//! (see `crates/netsim/tests/zero_alloc.rs`).

use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

use crate::ids::{FlowId, LinkId, NodeId};

/// A key type usable as a dense slab index.
///
/// Implementations must be a bijection between keys and small
/// non-negative integers: `from_index(k.index()) == k`, and indices
/// should be contiguous from zero for the slab to stay dense.
pub trait SlabKey: Copy + Eq {
    /// Returns the raw slab index of this key.
    fn index(self) -> usize;
    /// Reconstructs the key from a raw slab index.
    fn from_index(index: usize) -> Self;
}

macro_rules! slab_key {
    ($($ty:ty),*) => {
        $(impl SlabKey for $ty {
            fn index(self) -> usize {
                <$ty>::index(self)
            }
            fn from_index(index: usize) -> Self {
                <$ty>::from_index(index)
            }
        })*
    };
}

slab_key!(FlowId, NodeId, LinkId);

/// A bare slot index, for tables whose slots mean different ids.
impl SlabKey for usize {
    fn index(self) -> usize {
        self
    }
    fn from_index(index: usize) -> Self {
        index
    }
}

/// A map from a [`SlabKey`] to `V`: a `u32` index per key ever seen,
/// pointing into a packed vector of the entries actually present.
///
/// Lookup, insertion and removal are O(1). What grows with the key space
/// is four bytes per key; the values take room only while present, next
/// to each other, so a table that holds a few of many keys (one edge's
/// flows out of the whole network's) costs what its own entries cost.
/// Iteration visits entries in ascending key order (the `BTreeMap`
/// order) and is O(key bound), where the key bound is one past the
/// largest index ever inserted.
pub struct DenseMap<K: SlabKey, V> {
    /// `index[k]` is one more than `k`'s position in `entries`, or 0.
    index: Vec<u32>,
    /// `(key index, value)`, packed, in no particular order.
    entries: Vec<(u32, V)>,
    _key: PhantomData<K>,
}

impl<K: SlabKey, V> DenseMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap::with_capacity(0)
    }

    /// Creates an empty map with room for keys `0..capacity` without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseMap {
            index: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            _key: PhantomData,
        }
    }

    /// Number of entries in the map.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of key index `i` in `entries`, if present.
    #[inline]
    fn position(&self, i: usize) -> Option<usize> {
        (*self.index.get(i)? as usize).checked_sub(1)
    }

    /// Returns a reference to the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key.index()).map(|p| &self.entries[p].1)
    }

    /// Returns a mutable reference to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.position(key.index()).map(|p| &mut self.entries[p].1)
    }

    /// Whether the map holds an entry for `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key.index()).is_some()
    }

    /// Inserts `value` for `key`, returning the previous value if any.
    /// Grows the index if `key` indexes past the current end.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(key.index()) {
            Some(p) => Some(std::mem::replace(&mut self.entries[p].1, value)),
            None => {
                self.push_entry(key.index(), value);
                None
            }
        }
    }

    /// Appends an entry for the absent key index `i`.
    fn push_entry(&mut self, i: usize, value: V) -> &mut V {
        if i >= self.index.len() {
            self.index.resize(i + 1, 0);
        }
        self.entries.push((i as u32, value));
        self.index[i] = u32::try_from(self.entries.len()).expect("fewer than 2^32 entries");
        &mut self.entries.last_mut().expect("just pushed").1
    }

    /// Removes and returns the value for `key`, if present. The entry's
    /// room (and the allocation) is retained for reuse.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let p = self.position(key.index())?;
        self.index[key.index()] = 0;
        let (_, value) = self.entries.swap_remove(p);
        if let Some(&(moved, _)) = self.entries.get(p) {
            self.index[moved as usize] = p as u32 + 1;
        }
        Some(value)
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if absent. The dense replacement for
    /// `entry(key).or_insert_with(default)`.
    pub fn entry_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        match self.position(key.index()) {
            Some(p) => &mut self.entries[p].1,
            None => self.push_entry(key.index(), default()),
        }
    }

    /// Removes every entry, keeping the backing allocations so refilling
    /// up to the previous capacity never allocates.
    pub fn clear(&mut self) {
        self.index.fill(0);
        self.entries.clear();
    }

    /// Keeps only the entries for which `keep` returns true, asking in
    /// ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(K, &mut V) -> bool) {
        for i in 0..self.index.len() {
            if let Some(p) = self.position(i) {
                let key = K::from_index(i);
                if !keep(key, &mut self.entries[p].1) {
                    self.remove(&key);
                }
            }
        }
    }

    /// One past the largest key index ever occupied — the exclusive
    /// bound for an index loop `for i in 0..map.key_bound()`. Such a
    /// loop visits entries in key order without borrowing the map
    /// across iterations (the allocation-free epoch-scan idiom).
    pub fn key_bound(&self) -> usize {
        self.index.len()
    }

    /// Iterates `(key, &value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != 0)
            .map(|(i, &p)| (K::from_index(i), &self.entries[p as usize - 1].1))
    }

    /// Iterates keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates mutable values, in storage order (which depends on the
    /// history of removals): for updates that do not care which entry
    /// comes first.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: SlabKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SlabKey, V: Clone> Clone for DenseMap<K, V> {
    fn clone(&self) -> Self {
        DenseMap {
            index: self.index.clone(),
            entries: self.entries.clone(),
            _key: PhantomData,
        }
    }
}

impl<K: SlabKey, V: PartialEq> PartialEq for DenseMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // Neither the key bound nor the storage order is observable;
        // compare entries in key order.
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: SlabKey + fmt::Debug, V: fmt::Debug> fmt::Debug for DenseMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Map-shaped, in key order: byte-identical to the rendering of
        // the BTreeMap this type replaces, which is what the full-report
        // byte-identity oracles compare.
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: SlabKey, V> Index<&K> for DenseMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for key in DenseMap")
    }
}

impl<K: SlabKey, V> FromIterator<(K, V)> for DenseMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = DenseMap::with_capacity(iter.size_hint().0);
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A sorted set of slab keys: the **active subset** of a [`DenseMap`].
///
/// Per-epoch loops used to walk `0..map.key_bound()` — O(total keys
/// ever) per epoch, which under flow churn means every epoch pays for
/// every flow that ever existed. An `ActiveSet` maintained on
/// start/stop keeps those loops O(active): membership is a sorted
/// `Vec<u32>` of slot indices, so iteration still visits keys in
/// ascending order (the same order as the full scan, preserving
/// report and telemetry byte-identity) and insert/remove are a binary
/// search plus a memmove — fine for the arrival/departure rate, and
/// free of per-epoch allocation.
///
/// Position-indexed access ([`len`](ActiveSet::len)/
/// [`get`](ActiveSet::get)) lets callers loop without borrowing the
/// set, so the body can call `&mut self` methods.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveSet<K: SlabKey> {
    indices: Vec<u32>,
    _key: PhantomData<K>,
}

impl<K: SlabKey> ActiveSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        ActiveSet {
            indices: Vec::new(),
            _key: PhantomData,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The member at sorted position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn get(&self, pos: usize) -> K {
        K::from_index(self.indices[pos] as usize)
    }

    /// Whether `key`'s slot is a member.
    pub fn contains(&self, key: K) -> bool {
        self.indices.binary_search(&(key.index() as u32)).is_ok()
    }

    /// Adds `key`'s slot; returns `true` if it was newly added.
    pub fn insert(&mut self, key: K) -> bool {
        let idx = key.index() as u32;
        match self.indices.binary_search(&idx) {
            Ok(_) => false,
            Err(pos) => {
                self.indices.insert(pos, idx);
                true
            }
        }
    }

    /// Removes `key`'s slot; returns `true` if it was a member.
    pub fn remove(&mut self, key: K) -> bool {
        match self.indices.binary_search(&(key.index() as u32)) {
            Ok(pos) => {
                self.indices.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates members in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = K> + '_ {
        self.indices.iter().map(|&i| K::from_index(i as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: usize) -> FlowId {
        FlowId::from_index(i)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m: DenseMap<FlowId, u32> = DenseMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(f(3), 30), None);
        assert_eq!(m.insert(f(1), 10), None);
        assert_eq!(m.insert(f(3), 31), Some(30));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&f(3)), Some(&31));
        assert_eq!(m.get(&f(0)), None);
        assert_eq!(m.remove(&f(3)), Some(31));
        assert_eq!(m.remove(&f(3)), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&f(1)));
    }

    #[test]
    fn iteration_is_in_key_order() {
        let mut m: DenseMap<FlowId, &str> = DenseMap::new();
        m.insert(f(5), "e");
        m.insert(f(0), "a");
        m.insert(f(2), "c");
        let keys: Vec<usize> = m.keys().map(|k| k.index()).collect();
        assert_eq!(keys, vec![0, 2, 5]);
        let values: Vec<&str> = m.values().copied().collect();
        assert_eq!(values, vec!["a", "c", "e"]);
    }

    #[test]
    fn debug_matches_btreemap_rendering() {
        use std::collections::BTreeMap;
        let mut dense: DenseMap<FlowId, u32> = DenseMap::new();
        let mut tree: BTreeMap<FlowId, u32> = BTreeMap::new();
        for (i, v) in [(4, 44), (1, 11), (9, 99)] {
            dense.insert(f(i), v);
            tree.insert(f(i), v);
        }
        assert_eq!(format!("{dense:?}"), format!("{tree:?}"));
        assert_eq!(format!("{:#?}", dense), format!("{:#?}", tree));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m: DenseMap<FlowId, u64> = DenseMap::new();
        for i in 0..64 {
            m.insert(f(i), i as u64);
        }
        let cap = (m.index.capacity(), m.entries.capacity());
        m.clear();
        assert!(m.is_empty());
        // Both vectors are retained, so refilling grows neither.
        for i in 0..64 {
            m.insert(f(i), i as u64);
        }
        assert_eq!((m.index.capacity(), m.entries.capacity()), cap);
    }

    #[test]
    fn removal_keeps_every_other_entry_reachable() {
        // `remove` fills the hole with the last entry; its index must
        // follow it, wherever the removed key sat.
        let mut m: DenseMap<FlowId, usize> = DenseMap::new();
        for i in [7, 2, 9, 4] {
            m.insert(f(i), i);
        }
        assert_eq!(m.remove(&f(7)), Some(7)); // first in storage
        assert_eq!(m.remove(&f(9)), Some(9)); // last in storage
        assert_eq!(m.insert(f(9), 90), None);
        let pairs: Vec<_> = m.iter().map(|(k, &v)| (k.index(), v)).collect();
        assert_eq!(pairs, vec![(2, 2), (4, 4), (9, 90)]);
        m.retain(|k, _| k.index() != 2);
        assert_eq!(m.get(&f(4)), Some(&4));
        assert_eq!(m.get(&f(9)), Some(&90));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn values_take_room_only_while_present() {
        // One edge's view of a large recycled flow table: a few live
        // keys far apart. The entries stay packed; only the u32 index
        // spans the key space.
        let mut m: DenseMap<FlowId, [u64; 32]> = DenseMap::new();
        for round in 0..100 {
            m.insert(f(4000 + round), [0; 32]);
            m.insert(f(round), [0; 32]);
            m.remove(&f(4000 + round));
            m.remove(&f(round));
        }
        assert!(m.entries.capacity() <= 4, "{}", m.entries.capacity());
        assert_eq!(m.key_bound(), 4100);
    }

    #[test]
    fn entry_or_insert_with_inserts_once() {
        let mut m: DenseMap<NodeId, Vec<u32>> = DenseMap::new();
        m.entry_or_insert_with(NodeId::from_index(2), Vec::new)
            .push(7);
        m.entry_or_insert_with(NodeId::from_index(2), Vec::new)
            .push(8);
        assert_eq!(m.len(), 1);
        assert_eq!(m[&NodeId::from_index(2)], vec![7, 8]);
    }

    #[test]
    fn retain_filters_entries() {
        let mut m: DenseMap<LinkId, u32> = DenseMap::new();
        for i in 0..6 {
            m.insert(LinkId::from_index(i), i as u32);
        }
        m.retain(|k, v| k.index() % 2 == 0 && *v < 4);
        let kept: Vec<u32> = m.values().copied().collect();
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn equality_ignores_trailing_capacity() {
        let mut a: DenseMap<FlowId, u32> = DenseMap::new();
        let mut b: DenseMap<FlowId, u32> = DenseMap::new();
        a.insert(f(1), 1);
        b.insert(f(9), 9);
        b.insert(f(1), 1);
        b.remove(&f(9));
        assert_eq!(a, b);
    }

    #[test]
    fn active_set_stays_sorted_and_deduplicated() {
        let mut s: ActiveSet<FlowId> = ActiveSet::new();
        assert!(s.insert(f(5)));
        assert!(s.insert(f(1)));
        assert!(s.insert(f(3)));
        assert!(!s.insert(f(3)), "double insert is a no-op");
        assert_eq!(s.len(), 3);
        let order: Vec<usize> = s.iter().map(|k| k.index()).collect();
        assert_eq!(order, vec![1, 3, 5], "iteration is in ascending key order");
        assert!(s.contains(f(3)));
        assert!(s.remove(f(3)));
        assert!(!s.remove(f(3)), "double remove is a no-op");
        assert!(!s.contains(f(3)));
        assert_eq!(s.get(0).index(), 1);
        assert_eq!(s.get(1).index(), 5);
    }

    #[test]
    fn active_set_membership_is_by_slot_not_generation() {
        // The set tracks slots; a recycled slot's new occupant replaces
        // the old membership rather than coexisting with it.
        let mut s: ActiveSet<FlowId> = ActiveSet::new();
        s.insert(FlowId::with_generation(2, 1));
        assert!(s.contains(FlowId::with_generation(2, 5)));
        assert!(!s.insert(f(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn active_set_position_loop_matches_full_scan_order() {
        let mut map: DenseMap<FlowId, u32> = DenseMap::new();
        let mut set: ActiveSet<FlowId> = ActiveSet::new();
        for i in [9, 0, 4, 7] {
            map.insert(f(i), i as u32);
            set.insert(f(i));
        }
        map.remove(&f(4));
        set.remove(f(4));
        let scan: Vec<u32> = (0..map.key_bound())
            .filter_map(|i| map.get(&f(i)).copied())
            .collect();
        let mut via_set = Vec::new();
        for pos in 0..set.len() {
            via_set.push(*map.get(&set.get(pos)).unwrap());
        }
        assert_eq!(scan, via_set);
    }
}
