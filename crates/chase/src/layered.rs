//! Persistent layered storage: the idiom `IndexedRelation` uses for rows,
//! applied to what a chase run records.
//!
//! A `Layered` stack holds immutable, `Arc`-shared frozen layers plus one
//! small mutable top layer. `Layered::freeze` publishes the top, first
//! folding in trailing frozen layers that are no larger than the accumulated
//! batch (size-tiered merge), so the stack stays logarithmic and `clone()`
//! costs O(#layers) however much the layers hold. The two things a
//! [`crate::ChaseResult`] carries between runs are built on it: the
//! [`crate::DerivationGraph`] and, when provenance is off, the
//! [`TriggerKeySet`] of retired trigger keys.
//!
//! Layers store their tuples in `Tuples`: one flat term arena with offset
//! ranges and a hash → id index that confirms candidates against the arena,
//! so neither a `Vec` nor a cloned key is allocated per tuple.

use ontorew_model::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// What a layer of a [`Layered`] stack provides.
pub(crate) trait Layer: Clone + Default {
    /// Entries the layer holds — the size the tiered merge compares.
    fn weight(&self) -> usize;
    /// An empty layer that continues this layer's id ranges.
    fn successor(&self) -> Self;
    /// Fold `newer`, the layer stacked directly on top of `self`, into
    /// `self`.
    fn absorb(&mut self, newer: Self);
    /// Build the read-only indexes of a layer about to be published.
    fn seal(&mut self) {}
}

/// A stack of `Arc`-shared frozen layers under one mutable top layer.
#[derive(Clone, Debug, Default)]
pub(crate) struct Layered<L> {
    frozen: Vec<Arc<L>>,
    pub(crate) top: L,
}

impl<L: Layer> Layered<L> {
    /// Publish the top layer as a frozen, shareable one. Trailing frozen
    /// layers no larger than the batch are folded in first, so layer sizes
    /// decrease strictly from oldest to newest and each entry is re-merged
    /// O(log n) times over its life. Clones taken earlier keep their view:
    /// a shared layer is copied before it is merged, never mutated.
    pub(crate) fn freeze(&mut self) {
        if self.top.weight() == 0 {
            return;
        }
        let next = self.top.successor();
        let mut batch = std::mem::replace(&mut self.top, next);
        while self
            .frozen
            .last()
            .is_some_and(|last| last.weight() <= batch.weight())
        {
            let last = self.frozen.pop().expect("just peeked");
            let mut older = Arc::try_unwrap(last).unwrap_or_else(|shared| (*shared).clone());
            older.absorb(batch);
            batch = older;
        }
        batch.seal();
        self.frozen.push(Arc::new(batch));
    }

    /// The frozen layers, newest first.
    pub(crate) fn frozen_newest_first(&self) -> impl Iterator<Item = &L> + Clone {
        self.frozen.iter().rev().map(|layer| &**layer)
    }

    /// Every layer, newest (the top) first.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = &L> + Clone {
        std::iter::once(&self.top).chain(self.frozen_newest_first())
    }

    /// Number of layers (frozen plus a non-empty top).
    pub(crate) fn layer_count(&self) -> usize {
        self.frozen.len() + usize::from(self.top.weight() > 0)
    }

    /// True if every frozen layer of `other` is, by reference, the layer at
    /// the same position of `self`: `self` is `other` plus what was stacked
    /// on top of it, and nothing `other` holds was copied.
    pub(crate) fn shares_layers_with(&self, other: &Layered<L>) -> bool {
        self.frozen.len() >= other.frozen.len()
            && self
                .frozen
                .iter()
                .zip(other.frozen.iter())
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }
}

/// The dedup hash of a tuple under its head.
pub(crate) fn tuple_hash<H: Hash>(head: H, terms: &[Term]) -> u64 {
    let mut hasher = DefaultHasher::new();
    head.hash(&mut hasher);
    terms.hash(&mut hasher);
    hasher.finish()
}

/// A dense, append-only arena of `head(terms…)` tuples with a hash → id
/// index. Ids are positions; a tuple's terms are a range of one shared
/// `Vec<Term>`. As in the instance's segments, the index maps the 64-bit
/// content hash to the first id carrying it and sends the (vanishingly rare)
/// colliding ids to an overflow list; candidates are confirmed against the
/// arena, so collisions cost time, never correctness.
#[derive(Clone, Debug)]
pub(crate) struct Tuples<H> {
    /// Per tuple: its head and the end of its term range (one array, so a
    /// cold lookup touches one line for both).
    entries: Vec<(H, u32)>,
    terms: Vec<Term>,
    index: HashMap<u64, u32>,
    overflow: Vec<(u64, u32)>,
}

impl<H> Default for Tuples<H> {
    fn default() -> Self {
        Tuples {
            entries: Vec::new(),
            terms: Vec::new(),
            index: HashMap::new(),
            overflow: Vec::new(),
        }
    }
}

impl<H: Copy + Eq + Hash> Tuples<H> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn head(&self, id: u32) -> H {
        self.entries[id as usize].0
    }

    pub(crate) fn terms(&self, id: u32) -> &[Term] {
        let start = match id {
            0 => 0,
            _ => self.entries[id as usize - 1].1,
        };
        &self.terms[start as usize..self.entries[id as usize].1 as usize]
    }

    fn holds(&self, id: u32, head: H, terms: &[Term]) -> bool {
        self.head(id) == head && self.terms(id) == terms
    }

    /// The id of the indexed tuple `head(terms)`, if present.
    pub(crate) fn find(&self, hash: u64, head: H, terms: &[Term]) -> Option<u32> {
        let first = *self.index.get(&hash)?;
        if self.holds(first, head, terms) {
            return Some(first);
        }
        self.overflow
            .iter()
            .find(|&&(h, id)| h == hash && self.holds(id, head, terms))
            .map(|&(_, id)| id)
    }

    /// Append a tuple the caller knows is not indexed yet; returns its id.
    /// With `indexed` off the tuple is stored but never found again (a dead
    /// entry that only keeps the id range dense).
    pub(crate) fn push(&mut self, hash: u64, head: H, terms: &[Term], indexed: bool) -> u32 {
        let id = self.entries.len() as u32;
        self.terms.extend_from_slice(terms);
        self.entries.push((head, self.terms.len() as u32));
        if indexed {
            match self.index.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
                Entry::Occupied(_) => self.overflow.push((hash, id)),
            }
        }
        id
    }

    /// Drop tuple `id` from the index (the arena entry stays).
    pub(crate) fn unindex(&mut self, id: u32) {
        let hash = tuple_hash(self.head(id), self.terms(id));
        if let Some(at) = self.overflow.iter().position(|&entry| entry == (hash, id)) {
            self.overflow.swap_remove(at);
        } else if self.index.get(&hash) == Some(&id) {
            // Promote a colliding overflow entry into the freed slot.
            match self.overflow.iter().position(|&(h, _)| h == hash) {
                Some(at) => {
                    let (_, promoted) = self.overflow.swap_remove(at);
                    self.index.insert(hash, promoted);
                }
                None => {
                    self.index.remove(&hash);
                }
            }
        }
    }

    /// Append every tuple of `newer`, indexing those `indexed` accepts.
    pub(crate) fn append(&mut self, newer: &Tuples<H>, mut indexed: impl FnMut(u32) -> bool) {
        self.entries.reserve(newer.len());
        self.terms.reserve(newer.terms.len());
        for id in 0..newer.len() as u32 {
            let (head, terms) = (newer.head(id), newer.terms(id));
            self.push(tuple_hash(head, terms), head, terms, indexed(id));
        }
    }

    /// Rough heap footprint of one stored tuple of `arity` terms.
    pub(crate) fn bytes_per_tuple(arity: usize) -> usize {
        // head + end offset + terms + one index entry (hash, id, bucket slack)
        std::mem::size_of::<H>() + 4 + arity * std::mem::size_of::<Term>() + 24
    }
}

impl Layer for Tuples<usize> {
    fn weight(&self) -> usize {
        self.len()
    }

    fn successor(&self) -> Self {
        Tuples::default()
    }

    fn absorb(&mut self, newer: Self) {
        self.append(&newer, |_| true);
    }
}

/// The retired trigger keys of a chase run that records no derivation graph:
/// the `(rule, frontier image)` pairs that fired or were found satisfied.
/// This is the run's per-key verdict cache and what an incremental
/// continuation seeds from; being `Layered`, a continuation shares its
/// base's keys instead of copying them. (A provenance-tracked run keeps the
/// same verdicts as the key index of its derivation graph instead.)
#[derive(Clone, Debug, Default)]
pub struct TriggerKeySet {
    layers: Layered<Tuples<usize>>,
    len: usize,
}

impl TriggerKeySet {
    /// True if the key `(rule, frontier_image)` was retired.
    pub fn contains(&self, rule: usize, frontier_image: &[Term]) -> bool {
        let hash = tuple_hash(rule, frontier_image);
        self.layers
            .newest_first()
            .any(|layer| layer.find(hash, rule, frontier_image).is_some())
    }

    /// Retire a key; returns `true` if it was new.
    pub fn insert(&mut self, rule: usize, frontier_image: &[Term]) -> bool {
        if self.contains(rule, frontier_image) {
            return false;
        }
        let hash = tuple_hash(rule, frontier_image);
        self.layers.top.push(hash, rule, frontier_image, true);
        self.len += 1;
        true
    }

    /// Number of retired keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no key was retired.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Publish the keys inserted since the last freeze (see
    /// [`Layered::freeze`]); afterwards `clone()` shares every key.
    pub(crate) fn freeze(&mut self) {
        self.layers.freeze();
    }

    /// True if `self` shares every frozen layer of `other` by reference.
    pub fn shares_layers_with(&self, other: &TriggerKeySet) -> bool {
        self.layers.shares_layers_with(&other.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(names: &[&str]) -> Vec<Term> {
        names.iter().map(|n| Term::constant(n)).collect()
    }

    #[test]
    fn tuples_find_what_was_pushed_and_survive_collisions() {
        let mut tuples: Tuples<usize> = Tuples::default();
        // Force a collision: both tuples are filed under hash 7.
        let a = tuples.push(7, 0, &image(&["a"]), true);
        let b = tuples.push(7, 0, &image(&["b"]), true);
        assert_eq!(tuples.find(7, 0, &image(&["a"])), Some(a));
        assert_eq!(tuples.find(7, 0, &image(&["b"])), Some(b));
        assert_eq!(tuples.find(7, 1, &image(&["a"])), None);
        assert_eq!(tuples.find(8, 0, &image(&["a"])), None);
        assert_eq!(tuples.terms(b), &image(&["b"])[..]);
    }

    #[test]
    fn unindexing_promotes_colliding_entries() {
        let mut tuples: Tuples<usize> = Tuples::default();
        let terms = image(&["a"]);
        let hash = tuple_hash(0usize, &terms);
        let owner = tuples.push(hash, 0, &terms, true);
        // A different tuple filed under the same hash lands in the overflow…
        let collider = tuples.push(hash, 1, &terms, true);
        tuples.unindex(owner);
        assert_eq!(tuples.find(hash, 0, &terms), None);
        // …and inherits the slot when its owner leaves the index.
        assert_eq!(tuples.find(hash, 1, &terms), Some(collider));
        assert_eq!(tuples.len(), 2, "the arena keeps dead entries");
        assert_eq!(tuples.terms(owner), &terms[..]);
    }

    #[test]
    fn key_sets_share_frozen_layers_and_stay_logarithmic() {
        let mut keys = TriggerKeySet::default();
        for i in 0..100usize {
            assert!(keys.insert(i % 3, &image(&[&format!("c{i}")])));
            keys.freeze();
        }
        assert_eq!(keys.len(), 100);
        assert!(keys.layers.layer_count() <= 8, "size-tiered merge");
        assert!(!keys.insert(1, &image(&["c1"])), "found across layers");
        let base = keys.clone();
        let mut continued = base.clone();
        continued.insert(0, &image(&["fresh"]));
        assert!(continued.shares_layers_with(&base));
        assert!(!base.contains(0, &image(&["fresh"])));
        assert!(continued.contains(0, &image(&["fresh"])));
    }
}
