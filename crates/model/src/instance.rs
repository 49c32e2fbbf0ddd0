//! Instances (databases): finite sets of ground atoms over a signature.
//!
//! An [`Instance`] stores atoms whose terms are constants or labelled nulls
//! (no variables). It is the representation used by the chase, so its layout
//! is optimised for the chase's two hot operations:
//!
//! * **matching** a partially ground atom against a relation — served by
//!   eager per-column hash indexes over interned term ids
//!   ([`Instance::candidates`] picks the most selective bound column per
//!   segment and probes its posting list instead of scanning the relation);
//! * **inserting** a fact with duplicate detection — served by dense
//!   `Vec`-of-rows storage plus a hash set, both O(1) amortised.
//!
//! Since PR 5 every relation is **segmented and copy-on-write**: rows live
//! in a stack of immutable, `Arc`-shared frozen segments plus one small
//! mutable tail. [`IndexedRelation::freeze`] publishes the tail as a new
//! frozen segment (merging trailing segments LSM-style so the stack stays
//! logarithmic), after which `clone()` shares every frozen segment by
//! reference — cloning a frozen relation is O(#segments), not O(#rows).
//! That is what makes the serving layer's epoch publication and the
//! planner's incremental materializations O(batch) instead of O(store).
//!
//! The same type is the extensional store of the serving layer:
//! `ontorew-storage` evaluates queries over it and persists it. The database
//! the DBMS holds and the instance the chase extends are one set of facts, so
//! a published snapshot is chased, evaluated and checkpointed in place, and a
//! `clone()` of frozen data shares every segment and copies only the tails.

use crate::atom::{Atom, Predicate};
use crate::signature::Signature;
use crate::term::Term;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// One segment of a relation: a dense run of rows with eager per-column hash
/// indexes and tuple-interning duplicate detection.
///
/// Rows live in a dense `Vec` in insertion order (cache-friendly scans), and
/// every column keeps a posting list from term to row ids that is maintained
/// on insert. Because the indexes are always current, lookups need only
/// shared (`&self`) access — which is what lets the homomorphism search and
/// the parallel trigger search probe them without locking.
///
/// Duplicate detection interns whole tuples as `u64` ids: each stored row is
/// represented in the dedup structure by its 64-bit content hash mapping to
/// its interned row id — 12 bytes per row instead of a per-row `Vec<u32>`
/// bucket allocation (let alone a `HashSet<Vec<Term>>`, which would clone
/// every tuple). Rows whose hash collides with an earlier, different row
/// (vanishingly rare for 64-bit hashes) go to a small overflow list that is
/// scanned linearly; candidates are always confirmed against `rows` by
/// equality, so collisions cost time, never correctness.
#[derive(Clone, Debug, Default)]
struct Segment {
    rows: Vec<Vec<Term>>,
    /// `dedup[hash]` = interned id of the first row hashing to `hash`;
    /// candidates are confirmed against `rows` by equality.
    dedup: HashMap<u64, u32>,
    /// Rows whose hash collided with a different, earlier row: `(hash, id)`
    /// pairs, scanned linearly (almost always empty).
    dedup_overflow: Vec<(u64, u32)>,
    /// `indexes[col][term]` = ids of the rows whose column `col` is `term`.
    indexes: Vec<HashMap<Term, Vec<u32>>>,
}

/// The dedup hash of a row.
fn row_hash(row: &[Term]) -> u64 {
    let mut hasher = DefaultHasher::new();
    row.hash(&mut hasher);
    hasher.finish()
}

impl Segment {
    fn with_arity(arity: usize) -> Self {
        Segment {
            rows: Vec::new(),
            dedup: HashMap::new(),
            dedup_overflow: Vec::new(),
            indexes: vec![HashMap::new(); arity],
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn arity(&self) -> usize {
        self.indexes.len()
    }

    /// Insert a row known (by the caller) not to be present in any *other*
    /// segment; returns `true` if it was new *to this segment*.
    fn insert_with_hash(&mut self, row: Vec<Term>, hash: u64) -> bool {
        debug_assert_eq!(row.len(), self.arity(), "row arity mismatch");
        let row_id = self.rows.len() as u32;
        match self.dedup.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(row_id);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                // A row with this hash exists: either it is this row (a
                // duplicate insert) or we hit a 64-bit collision and the new
                // row is interned through the overflow list.
                if self.rows[*e.get() as usize] == row
                    || self.overflow_position(hash, &row).is_some()
                {
                    return false;
                }
                self.dedup_overflow.push((hash, row_id));
            }
        }
        for (col, term) in row.iter().enumerate() {
            self.indexes[col].entry(*term).or_default().push(row_id);
        }
        self.rows.push(row);
        true
    }

    fn contains_hashed(&self, row: &[Term], hash: u64) -> bool {
        self.position_hashed(row, hash).is_some()
    }

    /// The id of the overflow row (same hash, different first-interned row)
    /// equal to `row`, if any.
    fn overflow_position(&self, hash: u64, row: &[Term]) -> Option<u32> {
        self.dedup_overflow
            .iter()
            .find(|&&(h, id)| h == hash && self.rows[id as usize] == row)
            .map(|&(_, id)| id)
    }

    /// Number of rows of this segment whose column `col` equals `value`.
    fn postings_len(&self, col: usize, value: &Term) -> usize {
        self.indexes[col].get(value).map(Vec::len).unwrap_or(0)
    }

    /// The probe for `pattern` against this segment: the posting list of the
    /// most selective ground column, a full scan when no column is ground,
    /// or nothing when some ground column has an empty posting list.
    fn probe(&self, pattern: &[Term]) -> SegmentProbe<'_> {
        debug_assert_eq!(pattern.len(), self.arity(), "pattern arity mismatch");
        let mut best: Option<&[u32]> = None;
        for (col, term) in pattern.iter().enumerate() {
            if term.is_ground() {
                let ids = self.indexes[col]
                    .get(term)
                    .map(|ids| ids.as_slice())
                    .unwrap_or(&[]);
                if ids.is_empty() {
                    return SegmentProbe::Empty;
                }
                if best.is_none_or(|b| ids.len() < b.len()) {
                    best = Some(ids);
                }
            }
        }
        match best {
            Some(ids) => SegmentProbe::Selected {
                rows: &self.rows,
                ids: ids.iter(),
            },
            None => SegmentProbe::All(self.rows.iter()),
        }
    }

    /// A copy of the segment without the rows in `doomed` (ids ascending),
    /// in unchanged order. Copying the dedup and index tables and patching
    /// them — drop the doomed ids, renumber the survivors — costs no hashing
    /// per retained row, which is what makes it several times cheaper than
    /// re-inserting the survivors into a fresh segment.
    fn without(&self, doomed: &[u32]) -> Segment {
        let mut out = self.clone();
        for &id in doomed {
            let row = &self.rows[id as usize];
            let hash = row_hash(row);
            if let Some(at) = out.dedup_overflow.iter().position(|&e| e == (hash, id)) {
                out.dedup_overflow.swap_remove(at);
            } else {
                // The row owns the slot: hand it to a colliding row, if any.
                match out.dedup_overflow.iter().position(|&(h, _)| h == hash) {
                    Some(at) => {
                        let (_, heir) = out.dedup_overflow.swap_remove(at);
                        out.dedup.insert(hash, heir);
                    }
                    None => {
                        out.dedup.remove(&hash);
                    }
                }
            }
            for (col, term) in row.iter().enumerate() {
                let ids = out.indexes[col].get_mut(term).expect("indexed on insert");
                ids.retain(|&other| other != id);
                if ids.is_empty() {
                    out.indexes[col].remove(term);
                }
            }
        }
        let renumber = |id: &mut u32| *id -= doomed.partition_point(|&d| d < *id) as u32;
        out.dedup.values_mut().for_each(renumber);
        out.dedup_overflow
            .iter_mut()
            .for_each(|(_, id)| renumber(id));
        for index in &mut out.indexes {
            index.values_mut().flatten().for_each(renumber);
        }
        let mut id = 0u32;
        out.rows.retain(|_| {
            id += 1;
            doomed.binary_search(&(id - 1)).is_err()
        });
        out
    }

    /// The id of `row` in this segment, if present.
    fn position_hashed(&self, row: &[Term], hash: u64) -> Option<u32> {
        let first = *self.dedup.get(&hash)?;
        if self.rows[first as usize] == row {
            return Some(first);
        }
        self.overflow_position(hash, row)
    }

    /// Merge two segments into one, oldest first (preserving global
    /// insertion order). The inputs hold disjoint row sets (the relation
    /// deduplicates globally on insert), so every row lands in the result.
    fn merged(older: &Segment, newer: Segment) -> Segment {
        let mut out = Segment::with_arity(older.arity());
        out.rows.reserve(older.len() + newer.len());
        for row in older.rows.iter().cloned() {
            let hash = row_hash(&row);
            out.insert_with_hash(row, hash);
        }
        for row in newer.rows {
            let hash = row_hash(&row);
            out.insert_with_hash(row, hash);
        }
        out
    }
}

/// The stored rows of one predicate: a stack of immutable, `Arc`-shared
/// frozen segments plus one mutable tail segment.
///
/// * `insert`/`contains` consult every segment's tuple-interning dedup (the
///   stack is kept logarithmic by the freeze-time merge policy below);
///   inserts always land in the tail.
/// * `clone` shares the frozen segments by reference and deep-copies only
///   the tail — O(#segments) for a frozen relation.
/// * [`IndexedRelation::freeze`] publishes the tail as a frozen segment,
///   first folding in trailing frozen segments that are no larger than the
///   accumulated batch (the classic size-tiered LSM merge), so a row is
///   re-merged O(log n) times over its life and the segment count stays
///   O(log n).
#[derive(Clone, Debug, Default)]
pub struct IndexedRelation {
    frozen: Vec<Arc<Segment>>,
    tail: Segment,
    len: usize,
}

impl IndexedRelation {
    /// An empty relation for predicates of the given arity.
    pub fn with_arity(arity: usize) -> Self {
        IndexedRelation {
            frozen: Vec::new(),
            tail: Segment::with_arity(arity),
            len: 0,
        }
    }

    /// Number of (distinct) rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The arity the relation was created with.
    pub fn arity(&self) -> usize {
        self.tail.arity()
    }

    /// Number of segments (frozen plus a non-empty tail). Kept logarithmic
    /// in the row count by the freeze-time merge policy.
    pub fn segment_count(&self) -> usize {
        self.frozen.len() + usize::from(self.tail.len() > 0)
    }

    /// Insert a row; returns `true` if it was new. All column indexes are
    /// updated eagerly; the row lands in the mutable tail segment.
    ///
    /// # Panics
    /// Panics (in debug builds) if the row arity does not match.
    pub fn insert(&mut self, row: Vec<Term>) -> bool {
        let hash = row_hash(&row);
        self.insert_with_hash(row, hash)
    }

    /// [`IndexedRelation::insert`] with the dedup hash supplied by the
    /// caller; separated out so tests can force hash collisions and exercise
    /// the overflow path.
    fn insert_with_hash(&mut self, row: Vec<Term>, hash: u64) -> bool {
        if self
            .frozen
            .iter()
            .any(|seg| seg.contains_hashed(&row, hash))
        {
            return false;
        }
        let added = self.tail.insert_with_hash(row, hash);
        if added {
            self.len += 1;
        }
        added
    }

    /// True if the relation contains the row.
    pub fn contains(&self, row: &[Term]) -> bool {
        let hash = row_hash(row);
        self.tail.contains_hashed(row, hash)
            || self.frozen.iter().any(|seg| seg.contains_hashed(row, hash))
    }

    /// Remove the given rows; returns how many were present. Segments are
    /// immutable, so every segment holding a doomed row is replaced by a
    /// patched copy (see `Segment::without`), while the segments that hold
    /// none — the large old ones, when recently inserted rows are removed —
    /// stay shared with every clone. Costs one dedup probe per (row,
    /// segment) plus a copy of the segments hit; callers batch removals so
    /// each segment is copied at most once per retraction epoch.
    pub fn remove_rows<'a>(&mut self, doomed: impl IntoIterator<Item = &'a [Term]>) -> usize {
        let doomed: Vec<(&[Term], u64)> =
            doomed.into_iter().map(|row| (row, row_hash(row))).collect();
        // The segment without its doomed rows, or `None` if it holds none.
        let strip = |segment: &Segment| -> Option<Segment> {
            let mut ids: Vec<u32> = doomed
                .iter()
                .filter_map(|(row, hash)| segment.position_hashed(row, *hash))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (!ids.is_empty()).then(|| segment.without(&ids))
        };
        let before = self.len;
        for segment in &mut self.frozen {
            if let Some(stripped) = strip(segment) {
                self.len -= segment.len() - stripped.len();
                *segment = Arc::new(stripped);
            }
        }
        self.frozen.retain(|segment| segment.len() > 0);
        if let Some(stripped) = strip(&self.tail) {
            self.len -= self.tail.len() - stripped.len();
            self.tail = stripped;
        }
        before - self.len
    }

    /// Remove one row; returns `true` if it was present.
    pub fn remove_row(&mut self, row: &[Term]) -> bool {
        self.remove_rows([row]) == 1
    }

    /// Publish the mutable tail as a frozen, shareable segment, after which
    /// `clone()` shares all rows by reference (until the next insert starts
    /// a new tail).
    ///
    /// To keep the segment stack logarithmic, the new segment first absorbs
    /// trailing frozen segments that are no larger than it (size-tiered
    /// merge): frozen segments grow geometrically from oldest to newest, so
    /// each row is re-merged O(log n) times in total. Clones taken before a
    /// freeze keep their own view — merges build new segments and never
    /// mutate shared ones.
    pub fn freeze(&mut self) {
        if self.tail.len() == 0 {
            return;
        }
        let arity = self.arity();
        let mut batch = std::mem::replace(&mut self.tail, Segment::with_arity(arity));
        while let Some(last) = self.frozen.last() {
            if last.len() <= batch.len() {
                let last = self.frozen.pop().expect("just peeked");
                batch = Segment::merged(&last, batch);
            } else {
                break;
            }
        }
        self.frozen.push(Arc::new(batch));
    }

    /// True if `self` and `other` share all frozen segments by reference
    /// (the copy-on-write fast path; used by tests and debug assertions).
    pub fn shares_segments_with(&self, other: &IndexedRelation) -> bool {
        self.frozen.len() == other.frozen.len()
            && self
                .frozen
                .iter()
                .zip(other.frozen.iter())
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// All rows, oldest segment first, in insertion order within a segment.
    /// (Global insertion order is preserved: freezes and merges never
    /// reorder rows across segments.)
    pub fn rows(&self) -> impl Iterator<Item = &Vec<Term>> {
        self.frozen
            .iter()
            .flat_map(|seg| seg.rows.iter())
            .chain(self.tail.rows.iter())
    }

    /// Number of rows whose column `col` equals `value`, summed over all
    /// segments (the per-segment posting lists are internal).
    pub fn postings_len(&self, col: usize, value: &Term) -> usize {
        self.frozen
            .iter()
            .map(|seg| seg.postings_len(col, value))
            .sum::<usize>()
            + self.tail.postings_len(col, value)
    }

    /// The rows that can match `pattern`, a tuple of ground terms and
    /// variables: per segment, probes the posting list of the most selective
    /// ground column, falling back to a segment scan when no column is
    /// ground.
    ///
    /// Every returned row agrees with `pattern` on the chosen column of its
    /// segment; the caller still has to check the remaining positions (and
    /// repeated variables). The returned iterator probes later segments
    /// lazily from the borrowed pattern — no allocation per call, however
    /// many segments back the relation (this is the per-atom hot path of
    /// every join and homomorphism search).
    pub fn candidates<'a>(&'a self, pattern: &'a [Term]) -> Candidates<'a> {
        let indexed = pattern.iter().any(Term::is_ground);
        match self.frozen.split_first() {
            None => Candidates {
                current: self.tail.probe(pattern),
                remaining: &[],
                tail: None,
                pattern,
                scan: false,
                indexed,
            },
            Some((first, rest)) => Candidates {
                current: first.probe(pattern),
                remaining: rest,
                tail: Some(&self.tail),
                pattern,
                scan: false,
                indexed,
            },
        }
    }

    /// Exact number of rows matching `pattern` (ground positions equal,
    /// repeated variables agree). Unlike [`IndexedRelation::candidates`],
    /// which over-approximates per segment by a single column, this filters
    /// every candidate — it is the "cheap exact length" primitive the
    /// variable-at-a-time join planner sizes its supports with.
    pub fn match_count(&self, pattern: &[Term]) -> usize {
        if pattern.iter().all(Term::is_ground) {
            return usize::from(self.contains(pattern));
        }
        self.candidates(pattern)
            .filter(|row| pattern_matches(pattern, row))
            .count()
    }

    /// True if at least one row matches `pattern` — the early-exit existence
    /// probe the generic join uses to semijoin-filter candidate values.
    pub fn contains_match(&self, pattern: &[Term]) -> bool {
        if pattern.iter().all(Term::is_ground) {
            return self.contains(pattern);
        }
        self.candidates(pattern)
            .any(|row| pattern_matches(pattern, row))
    }

    /// The distinct values of column `col` among the rows matching
    /// `pattern`, sorted ascending — a per-atom candidate posting list in
    /// the form [`intersect_sorted`] consumes.
    ///
    /// When `pattern` is unconstrained (no ground column, no repeated
    /// variable), the values are read straight off the per-segment column
    /// indexes — O(distinct values), never touching the rows.
    pub fn matching_values(&self, pattern: &[Term], col: usize) -> Vec<Term> {
        debug_assert!(col < self.arity());
        let mut values: Vec<Term> = if unconstrained_pattern(pattern) {
            self.frozen
                .iter()
                .map(|seg| &seg.indexes[col])
                .chain(std::iter::once(&self.tail.indexes[col]))
                .flat_map(|index| index.keys().copied())
                .collect()
        } else {
            self.candidates(pattern)
                .filter(|row| pattern_matches(pattern, row))
                .map(|row| row[col])
                .collect()
        };
        values.sort_unstable();
        values.dedup();
        values
    }

    /// A cheap upper bound on [`IndexedRelation::match_count`]: the smallest
    /// posting list among the pattern's ground columns (summed over
    /// segments), or the relation size when no column is ground. O(arity ×
    /// segments) hash probes, no row access.
    pub fn match_bound(&self, pattern: &[Term]) -> usize {
        let mut best = self.len;
        for (col, term) in pattern.iter().enumerate() {
            if term.is_ground() {
                best = best.min(self.postings_len(col, term));
                if best == 0 {
                    return 0;
                }
            }
        }
        best
    }

    /// A full scan of the relation presented as a [`Candidates`] iterator
    /// (the index-ablation path of the query evaluator).
    pub fn scan_candidates(&self) -> Candidates<'_> {
        match self.frozen.split_first() {
            None => Candidates {
                current: SegmentProbe::All(self.tail.rows.iter()),
                remaining: &[],
                tail: None,
                pattern: &[],
                scan: true,
                indexed: false,
            },
            Some((first, rest)) => Candidates {
                current: SegmentProbe::All(first.rows.iter()),
                remaining: rest,
                tail: Some(&self.tail),
                pattern: &[],
                scan: true,
                indexed: false,
            },
        }
    }
}

/// True if `row` matches `pattern`: ground positions are equal and repeated
/// variables take equal values. This is the full per-row filter that
/// [`IndexedRelation::candidates`] leaves to its caller, as a standalone
/// predicate (no substitution allocated).
pub fn pattern_matches(pattern: &[Term], row: &[Term]) -> bool {
    debug_assert_eq!(pattern.len(), row.len());
    for (i, term) in pattern.iter().enumerate() {
        if term.is_ground() {
            if *term != row[i] {
                return false;
            }
        } else if let Some(j) = pattern[..i].iter().position(|p| p == term) {
            if row[i] != row[j] {
                return false;
            }
        }
    }
    true
}

/// True if `pattern` constrains nothing: no ground column and no repeated
/// variable — every row of the relation matches.
fn unconstrained_pattern(pattern: &[Term]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(i, term)| !term.is_ground() && !pattern[..i].contains(term))
}

/// Intersect two ascending-sorted, deduplicated term slices into a new
/// sorted vector — the merge step of the variable-at-a-time generic join
/// (per-variable intersection of per-atom candidate value lists).
pub fn intersect_sorted(a: &[Term], b: &[Term]) -> Vec<Term> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The probe of one segment: how [`Candidates`] walks it.
enum SegmentProbe<'a> {
    /// No row of the segment can match (an empty posting list).
    Empty,
    /// Segment scan: no column of the pattern was ground.
    All(std::slice::Iter<'a, Vec<Term>>),
    /// Posting list of the segment's most selective ground column.
    Selected {
        /// The segment's dense row storage.
        rows: &'a [Vec<Term>],
        /// Ids of the candidate rows within `rows`.
        ids: std::slice::Iter<'a, u32>,
    },
}

impl<'a> SegmentProbe<'a> {
    fn next(&mut self) -> Option<&'a Vec<Term>> {
        match self {
            SegmentProbe::Empty => None,
            SegmentProbe::All(rows) => rows.next(),
            SegmentProbe::Selected { rows, ids } => ids.next().map(|&id| &rows[id as usize]),
        }
    }

    fn remaining(&self) -> usize {
        match self {
            SegmentProbe::Empty => 0,
            SegmentProbe::All(rows) => rows.len(),
            SegmentProbe::Selected { ids, .. } => ids.len(),
        }
    }
}

/// Iterator over the candidate rows of an index probe, walking the
/// per-segment probes of a relation (see [`IndexedRelation::candidates`] and
/// [`Instance::candidates`]). Segments after the first are probed lazily
/// from the borrowed pattern when the iterator reaches them, so
/// constructing one never allocates.
pub struct Candidates<'a> {
    current: SegmentProbe<'a>,
    /// Frozen segments not yet probed.
    remaining: &'a [Arc<Segment>],
    /// The tail segment, probed last (`None` once consumed or absent).
    tail: Option<&'a Segment>,
    /// The probe pattern (unused in scan mode).
    pattern: &'a [Term],
    /// True for a full scan: later segments are scanned, not probed.
    scan: bool,
    indexed: bool,
}

impl<'a> Candidates<'a> {
    /// A probe with no candidates (unknown predicate).
    pub fn empty() -> Self {
        Candidates {
            current: SegmentProbe::Empty,
            remaining: &[],
            tail: None,
            pattern: &[],
            scan: false,
            indexed: false,
        }
    }

    /// True if the probe pattern had a ground column, i.e. segments are
    /// served from their posting lists rather than scanned; what the
    /// evaluator's instrumentation counts.
    pub fn used_index(&self) -> bool {
        self.indexed
    }

    fn probe_segment(&self, segment: &'a Segment) -> SegmentProbe<'a> {
        if self.scan {
            SegmentProbe::All(segment.rows.iter())
        } else {
            segment.probe(self.pattern)
        }
    }
}

impl<'a> Iterator for Candidates<'a> {
    type Item = &'a Vec<Term>;

    fn next(&mut self) -> Option<&'a Vec<Term>> {
        loop {
            if let Some(row) = self.current.next() {
                return Some(row);
            }
            if let Some((next, rest)) = self.remaining.split_first() {
                self.current = self.probe_segment(next);
                self.remaining = rest;
                continue;
            }
            match self.tail.take() {
                Some(tail) => self.current = self.probe_segment(tail),
                None => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // `Selected` probes over-count nothing (posting lists are exact for
        // their column) but the caller still filters rows, so only the upper
        // bound is meaningful — and it is only known once every segment has
        // been probed.
        if self.remaining.is_empty() && self.tail.is_none() {
            (0, Some(self.current.remaining()))
        } else {
            (0, None)
        }
    }
}

/// A finite set of ground atoms, grouped by predicate and indexed per column.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Instance {
    relations: BTreeMap<Predicate, IndexedRelation>,
    size: usize,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Build an instance from an iterator of ground atoms.
    ///
    /// # Panics
    /// Panics if some atom contains a variable.
    pub fn from_atoms<I: IntoIterator<Item = Atom>>(atoms: I) -> Self {
        let mut inst = Instance::new();
        for a in atoms {
            inst.insert(a);
        }
        inst
    }

    /// Insert a ground atom; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the atom contains a variable or its arity does not match
    /// its predicate's (checked in release builds too: rows of the wrong
    /// width would corrupt the relation's column indexes).
    pub fn insert(&mut self, atom: Atom) -> bool {
        assert_eq!(
            atom.terms.len(),
            atom.predicate.arity,
            "tuple arity mismatch for {}",
            atom.predicate
        );
        assert!(
            atom.is_ground(),
            "cannot insert non-ground atom {atom} into an instance"
        );
        let added = self
            .relations
            .entry(atom.predicate)
            .or_insert_with(|| IndexedRelation::with_arity(atom.predicate.arity))
            .insert(atom.terms);
        if added {
            self.size += 1;
        }
        added
    }

    /// Insert a fact given by predicate name and constant names.
    pub fn insert_fact(&mut self, predicate: &str, constants: &[&str]) -> bool {
        self.insert(Atom::fact(predicate, constants))
    }

    /// Freeze every relation (see [`IndexedRelation::freeze`]): publish all
    /// mutable tails as `Arc`-shared segments, so the next `clone()` of this
    /// instance is O(#relations + #segments) instead of O(#facts).
    pub fn freeze(&mut self) {
        for rel in self.relations.values_mut() {
            rel.freeze();
        }
    }

    /// Remove a batch of ground atoms; returns how many were present (and
    /// are now gone). Atoms are grouped by predicate so each affected
    /// relation is visited exactly once (segments are immutable; see
    /// [`IndexedRelation::remove_rows`]); relations not named in the batch,
    /// and segments holding none of its rows, are untouched and keep being
    /// shared.
    pub fn remove_atoms<'a, I: IntoIterator<Item = &'a Atom>>(&mut self, atoms: I) -> usize {
        let mut by_predicate: BTreeMap<Predicate, Vec<&'a [Term]>> = BTreeMap::new();
        for atom in atoms {
            by_predicate
                .entry(atom.predicate)
                .or_default()
                .push(&atom.terms);
        }
        let mut removed = 0usize;
        for (predicate, doomed) in by_predicate {
            if let Some(rel) = self.relations.get_mut(&predicate) {
                let dropped = rel.remove_rows(doomed);
                removed += dropped;
                self.size -= dropped;
            }
        }
        removed
    }

    /// Remove one ground atom; returns `true` if it was present. A miss costs
    /// one dedup probe per segment; a hit replaces only the segment holding
    /// the row by a patched copy (O(rows of that segment), see
    /// [`IndexedRelation::remove_rows`]), while every other segment and
    /// relation stays shared with existing clones. Batch removals through
    /// [`Instance::remove_atoms`] so each segment is copied at most once.
    pub fn remove(&mut self, atom: &Atom) -> bool {
        match self.relations.get_mut(&atom.predicate) {
            Some(rel) => {
                let removed = rel.remove_row(&atom.terms);
                if removed {
                    self.size -= 1;
                }
                removed
            }
            None => false,
        }
    }

    /// True if the instance contains the given ground atom.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.contains_tuple(atom.predicate, &atom.terms)
    }

    /// A clone of `instance`. Exists only because the benchmark's pinned API
    /// (`benchmark/src/sut.rs`) calls it through `ontorew-storage`'s store
    /// alias of this type; in-tree code calls `clone()`.
    pub fn from_instance(instance: &Instance) -> Self {
        instance.clone()
    }

    /// The same as [`Instance::contains`]. Exists only because the
    /// benchmark's pinned API (`benchmark/src/sut.rs`) calls it through
    /// `ontorew-storage`'s store alias of this type; in-tree code calls
    /// `contains`.
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        self.contains(atom)
    }

    /// True if the instance contains the tuple under `predicate`.
    pub fn contains_tuple(&self, predicate: Predicate, tuple: &[Term]) -> bool {
        self.relations
            .get(&predicate)
            .map(|r| r.contains(tuple))
            .unwrap_or(false)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.size
    }

    /// True if the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Number of facts for the given predicate.
    pub fn relation_size(&self, predicate: Predicate) -> usize {
        self.relations
            .get(&predicate)
            .map(IndexedRelation::len)
            .unwrap_or(0)
    }

    /// The stored relation of `predicate`, if it has any rows. Grants direct
    /// access to the per-column indexes.
    pub fn relation(&self, predicate: Predicate) -> Option<&IndexedRelation> {
        self.relations.get(&predicate).filter(|r| !r.is_empty())
    }

    /// The predicates that have at least one fact.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.relations
            .iter()
            .filter(|(_, rel)| !rel.is_empty())
            .map(|(p, _)| *p)
    }

    /// The signature induced by the instance.
    pub fn signature(&self) -> Signature {
        self.predicates().collect()
    }

    /// Iterate over the tuples of a predicate (insertion order).
    pub fn tuples(&self, predicate: Predicate) -> impl Iterator<Item = &Vec<Term>> + '_ {
        self.relations
            .get(&predicate)
            .into_iter()
            .flat_map(|rel| rel.rows())
    }

    /// The tuples of `atom.predicate` that can match `atom` (whose terms may
    /// be variables): probes the most selective per-column index of each
    /// segment, falling back to a segment scan only when no term is ground.
    /// The iterator borrows `atom` (later segments are probed lazily).
    pub fn candidates<'a>(&'a self, atom: &'a Atom) -> Candidates<'a> {
        match self.relations.get(&atom.predicate) {
            Some(rel) => rel.candidates(&atom.terms),
            None => Candidates::empty(),
        }
    }

    /// Iterate over every fact as an [`Atom`].
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        self.relations.iter().flat_map(|(p, rel)| {
            rel.rows().map(move |t| Atom {
                predicate: *p,
                terms: t.clone(),
            })
        })
    }

    /// True if `other` is a subset of `self`.
    pub fn contains_instance(&self, other: &Instance) -> bool {
        other.atoms().all(|a| self.contains(&a))
    }

    /// Add every fact of `other` into `self`.
    pub fn extend_from(&mut self, other: &Instance) {
        for (p, rel) in &other.relations {
            let target = self
                .relations
                .entry(*p)
                .or_insert_with(|| IndexedRelation::with_arity(p.arity));
            for row in rel.rows() {
                if target.insert(row.clone()) {
                    self.size += 1;
                }
            }
        }
    }

    /// The set of constants appearing in the instance (the active domain,
    /// excluding labelled nulls).
    pub fn constants(&self) -> BTreeSet<crate::term::Constant> {
        self.relations
            .values()
            .flat_map(|rel| rel.rows())
            .flatten()
            .filter_map(Term::as_constant)
            .collect()
    }

    /// The set of labelled nulls appearing in the instance.
    pub fn nulls(&self) -> BTreeSet<crate::term::Null> {
        self.relations
            .values()
            .flat_map(|rel| rel.rows())
            .flatten()
            .filter_map(Term::as_null)
            .collect()
    }

    /// True if some fact has `term` as an argument. Probes the per-column
    /// indexes — O(#relations × arity × #segments) hash lookups, no row is
    /// read — so a caller can maintain a term set (say, the nulls of a
    /// materialization) across deletions without rescanning the instance.
    pub fn mentions(&self, term: &Term) -> bool {
        self.relations
            .values()
            .any(|rel| (0..rel.arity()).any(|col| rel.postings_len(col, term) > 0))
    }

    /// True if the instance contains no labelled nulls (i.e. it is a plain
    /// database of constants).
    pub fn is_null_free(&self) -> bool {
        self.nulls().is_empty()
    }
}

impl PartialEq for Instance {
    /// Set equality: same facts, regardless of insertion order.
    fn eq(&self, other: &Self) -> bool {
        if self.size != other.size {
            return false;
        }
        self.relations.iter().all(|(p, rel)| {
            rel.is_empty()
                || other
                    .relations
                    .get(p)
                    .is_some_and(|o| rel.len() == o.len() && rel.rows().all(|row| o.contains(row)))
        })
    }
}

impl Eq for Instance {}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance ({} facts):", self.size)?;
        for a in self.atoms() {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

impl FromIterator<Atom> for Instance {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        Instance::from_atoms(iter)
    }
}

impl Extend<Atom> for Instance {
    fn extend<I: IntoIterator<Item = Atom>>(&mut self, iter: I) {
        for a in iter {
            self.insert(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Null;

    #[test]
    fn insert_and_contains() {
        let mut db = Instance::new();
        assert!(db.insert_fact("teaches", &["alice", "db101"]));
        assert!(!db.insert_fact("teaches", &["alice", "db101"]));
        assert!(db.contains(&Atom::fact("teaches", &["alice", "db101"])));
        assert!(!db.contains(&Atom::fact("teaches", &["bob", "db101"])));
        assert_eq!(db.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-ground atom")]
    fn variables_are_rejected() {
        let mut db = Instance::new();
        db.insert(Atom::new("r", vec![Term::variable("X")]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_enforced() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert(Atom {
            predicate: Predicate::new("r", 2),
            terms: vec![Term::constant("a")],
        });
    }

    #[test]
    fn relation_size_and_predicates() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["b", "c"]);
        db.insert_fact("s", &["a"]);
        assert_eq!(db.relation_size(Predicate::new("r", 2)), 2);
        assert_eq!(db.relation_size(Predicate::new("s", 1)), 1);
        assert_eq!(db.relation_size(Predicate::new("t", 1)), 0);
        assert_eq!(db.predicates().count(), 2);
        assert_eq!(db.signature().len(), 2);
    }

    #[test]
    fn match_primitives_agree_with_scans() {
        let mut db = Instance::new();
        for (x, y) in [("a", "b"), ("a", "c"), ("b", "b"), ("c", "a"), ("c", "c")] {
            db.insert_fact("e", &[x, y]);
        }
        // Freeze so both frozen segments and the tail are exercised.
        db.freeze();
        db.insert_fact("e", &["d", "a"]);
        let rel = db.relation(Predicate::new("e", 2)).unwrap();

        let var = Term::variable("X");
        let other = Term::variable("Y");
        let a = Term::constant("a");
        let b = Term::constant("b");

        // match_count: ground, half-ground, repeated-variable patterns.
        assert_eq!(rel.match_count(&[a, b]), 1);
        assert_eq!(rel.match_count(&[a, var]), 2);
        assert_eq!(rel.match_count(&[var, other]), 6);
        assert_eq!(rel.match_count(&[var, var]), 2); // (b,b) and (c,c)
        assert_eq!(rel.match_count(&[b, a]), 0);

        // contains_match mirrors match_count > 0.
        assert!(rel.contains_match(&[a, var]));
        assert!(rel.contains_match(&[var, var]));
        assert!(!rel.contains_match(&[b, a]));

        // matching_values: sorted, deduplicated column projections.
        let firsts = rel.matching_values(&[var, other], 0);
        assert_eq!(firsts.len(), 4);
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rel.matching_values(&[a, var], 1), {
            let mut v = vec![Term::constant("b"), Term::constant("c")];
            v.sort_unstable();
            v
        });
        assert_eq!(rel.matching_values(&[var, var], 0).len(), 2);

        // match_bound is a sound upper bound on match_count.
        for pattern in [
            vec![a, b],
            vec![a, var],
            vec![var, other],
            vec![var, var],
            vec![b, a],
        ] {
            assert!(rel.match_bound(&pattern) >= rel.match_count(&pattern));
        }
        // An absent ground value zeroes the bound immediately.
        assert_eq!(rel.match_bound(&[Term::constant("zz"), a]), 0);
    }

    #[test]
    fn pattern_matching_and_intersection_helpers() {
        let a = Term::constant("a");
        let b = Term::constant("b");
        let c = Term::constant("c");
        let x = Term::variable("X");
        let y = Term::variable("Y");

        assert!(pattern_matches(&[a, x], &[a, b]));
        assert!(!pattern_matches(&[a, x], &[b, b]));
        assert!(pattern_matches(&[x, x], &[c, c]));
        assert!(!pattern_matches(&[x, x], &[a, c]));
        assert!(pattern_matches(&[x, y], &[a, c]));

        assert_eq!(intersect_sorted(&[a, b, c], &[b, c]), vec![b, c]);
        assert_eq!(intersect_sorted(&[a], &[b]), Vec::<Term>::new());
        assert_eq!(intersect_sorted(&[], &[a]), Vec::<Term>::new());
    }

    #[test]
    fn atoms_round_trip() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("s", &["c"]);
        let copy: Instance = db.atoms().collect();
        assert_eq!(db, copy);
    }

    #[test]
    fn containment_and_extension() {
        let mut small = Instance::new();
        small.insert_fact("r", &["a", "b"]);
        let mut big = small.clone();
        big.insert_fact("s", &["c"]);
        assert!(big.contains_instance(&small));
        assert!(!small.contains_instance(&big));
        let mut grown = small.clone();
        grown.extend_from(&big);
        assert_eq!(grown, big);
        assert_eq!(grown.len(), 2);
    }

    #[test]
    fn constants_and_nulls() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert(Atom {
            predicate: Predicate::new("r", 2),
            terms: vec![Term::constant("a"), Term::Null(Null(42))],
        });
        assert_eq!(db.constants().len(), 2);
        assert_eq!(db.nulls().len(), 1);
        assert!(!db.is_null_free());
    }

    #[test]
    fn extend_counts_only_new_facts() {
        let mut a = Instance::new();
        a.insert_fact("r", &["x", "y"]);
        let mut b = Instance::new();
        b.insert_fact("r", &["x", "y"]);
        b.insert_fact("r", &["y", "z"]);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn remove_rebuilds_the_relation_consistently() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["b", "c"]);
        db.insert_fact("r", &["a", "d"]);
        db.insert_fact("s", &["a"]);
        db.freeze();
        assert!(db.remove(&Atom::fact("r", &["a", "b"])));
        assert!(!db.remove(&Atom::fact("r", &["a", "b"])));
        assert_eq!(db.len(), 3);
        assert!(!db.contains(&Atom::fact("r", &["a", "b"])));
        assert!(db.contains(&Atom::fact("r", &["b", "c"])));
        // The patched segment still answers index probes, and its posting
        // lists no longer name the removed row.
        let probe = Atom::new("r", vec![Term::variable("X"), Term::constant("c")]);
        assert_eq!(db.candidates(&probe).count(), 1);
        let r = db.relation(Predicate::new("r", 2)).unwrap();
        assert_eq!(r.postings_len(0, &Term::constant("a")), 1);
        assert_eq!(r.postings_len(1, &Term::constant("b")), 0);
        // Reinsertion after removal works (the dedup state was patched).
        assert!(db.insert_fact("r", &["a", "b"]));
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn remove_atoms_batches_per_relation() {
        let mut db = Instance::new();
        for i in 0..10 {
            db.insert_fact("r", &[&format!("x{i}"), "y"]);
        }
        db.insert_fact("s", &["z"]);
        let batch = [
            Atom::fact("r", &["x1", "y"]),
            Atom::fact("r", &["x2", "y"]),
            Atom::fact("r", &["absent", "y"]),
            Atom::fact("t", &["nope"]),
        ];
        assert_eq!(db.remove_atoms(batch.iter()), 2);
        assert_eq!(db.len(), 9);
        assert_eq!(db.relation_size(Predicate::new("r", 2)), 8);
        assert_eq!(db.relation_size(Predicate::new("s", 1)), 1);
    }

    #[test]
    fn removal_rebuilds_only_the_segments_it_hits() {
        // A large old segment and a small recent one: removing a recent row
        // must leave the old segment shared with the pre-removal clone.
        let mut rel = IndexedRelation::with_arity(1);
        for i in 0..64 {
            rel.insert(vec![Term::constant(&format!("old{i}"))]);
        }
        rel.freeze();
        rel.insert(vec![Term::constant("recent")]);
        rel.freeze();
        assert_eq!(rel.segment_count(), 2);
        let before = rel.clone();
        let recent = [Term::constant("recent")];
        assert_eq!(rel.remove_rows([&recent[..]]), 1);
        assert_eq!(rel.len(), 64);
        assert_eq!(rel.segment_count(), 1, "the emptied segment is dropped");
        assert!(Arc::ptr_eq(&rel.frozen[0], &before.frozen[0]));
        assert!(before.contains(&recent), "clones keep their view");
        // Removing an old row rebuilds that segment (order preserved).
        let old = [Term::constant("old3")];
        assert!(rel.remove_row(&old));
        assert!(!Arc::ptr_eq(&rel.frozen[0], &before.frozen[0]));
        assert_eq!(rel.rows().next().unwrap()[0], Term::constant("old0"));
        assert_eq!(rel.postings_len(0, &old[0]), 0);
        assert_eq!(rel.len(), 63);
    }

    #[test]
    fn removal_matches_a_rebuilt_relation() {
        // Patched segments must answer exactly like a relation built from
        // the surviving rows: same order, same dedup, same posting lists.
        let row = |i: u32| {
            vec![
                Term::constant(&format!("a{}", i % 7)),
                Term::constant(&format!("b{}", i % 5)),
            ]
        };
        let mut rel = IndexedRelation::with_arity(2);
        for i in 0..35 {
            rel.insert(row(i));
            if i == 19 || i == 29 {
                rel.freeze();
            }
        }
        let doomed: Vec<Vec<Term>> = [0, 7, 8, 19, 20, 34, 34].iter().map(|&i| row(i)).collect();
        assert_eq!(rel.remove_rows(doomed.iter().map(Vec::as_slice)), 6);
        let mut expected = IndexedRelation::with_arity(2);
        for i in (0..35).filter(|i| ![0, 7, 8, 19, 20, 34].contains(i)) {
            expected.insert(row(i));
        }
        assert_eq!(rel.len(), expected.len());
        assert!(rel.rows().eq(expected.rows()), "order is preserved");
        for i in 0..35 {
            assert_eq!(rel.contains(&row(i)), expected.contains(&row(i)), "row {i}");
            for col in 0..2 {
                let value = row(i)[col];
                assert_eq!(
                    rel.postings_len(col, &value),
                    expected.postings_len(col, &value)
                );
                let mut pattern = vec![Term::variable("X"), Term::variable("Y")];
                pattern[col] = value;
                assert_eq!(rel.match_count(&pattern), expected.match_count(&pattern));
            }
        }
        // Removed rows can come back; survivors are still duplicates.
        assert!(rel.insert(row(7)));
        assert!(!rel.insert(row(9)));
    }

    #[test]
    fn mentions_probes_every_column() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("s", &["c"]);
        db.freeze();
        db.insert_fact("r", &["d", "e"]);
        for name in ["a", "b", "c", "d", "e"] {
            assert!(db.mentions(&Term::constant(name)), "{name}");
        }
        assert!(!db.mentions(&Term::constant("z")));
        db.remove(&Atom::fact("s", &["c"]));
        assert!(!db.mentions(&Term::constant("c")));
    }

    #[test]
    fn emptied_relations_disappear_from_accessors() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a"]);
        db.insert_fact("s", &["b"]);
        db.freeze();
        assert!(!db.remove(&Atom::fact("zzz", &["a"])), "unknown predicate");
        assert!(db.remove(&Atom::fact("r", &["a"])));
        assert_eq!(db.predicates().count(), 1);
        assert_eq!(db.signature().len(), 1);
        assert!(!db.signature().contains(Predicate::new("r", 1)));
        assert!(db.relation(Predicate::new("r", 1)).is_none());
        let mut copy = Instance::new();
        copy.insert_fact("s", &["b"]);
        assert_eq!(db, copy);
    }

    #[test]
    fn tuples_iteration() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["c", "d"]);
        let p = Predicate::new("r", 2);
        assert_eq!(db.tuples(p).count(), 2);
        assert_eq!(db.tuples(Predicate::new("zzz", 2)).count(), 0);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut a = Instance::new();
        a.insert_fact("r", &["a", "b"]);
        a.insert_fact("r", &["c", "d"]);
        let mut b = Instance::new();
        b.insert_fact("r", &["c", "d"]);
        b.insert_fact("r", &["a", "b"]);
        assert_eq!(a, b);
        b.insert_fact("s", &["x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn candidates_probe_the_most_selective_column() {
        let mut db = Instance::new();
        for i in 0..10 {
            db.insert_fact("edge", &["hub", &format!("n{i}")]);
        }
        db.insert_fact("edge", &["n3", "hub"]);
        // Pattern edge("hub", X): the index on column 0 serves 10 candidates.
        let probe = Atom::new("edge", vec![Term::constant("hub"), Term::variable("X")]);
        assert_eq!(db.candidates(&probe).count(), 10);
        // Pattern edge(X, "hub"): column 1 is more selective (1 candidate).
        let probe = Atom::new("edge", vec![Term::variable("X"), Term::constant("hub")]);
        assert_eq!(db.candidates(&probe).count(), 1);
        // Fully ground pattern that matches nothing: empty, not a scan.
        let probe = Atom::fact("edge", &["nope", "hub"]);
        assert_eq!(db.candidates(&probe).count(), 0);
        // No ground column: full scan.
        let probe = Atom::new("edge", vec![Term::variable("X"), Term::variable("Y")]);
        assert_eq!(db.candidates(&probe).count(), 11);
        // Unknown predicate: empty.
        let probe = Atom::new("zzz", vec![Term::variable("X")]);
        assert_eq!(db.candidates(&probe).count(), 0);
    }

    #[test]
    fn candidates_all_agree_with_pattern_column() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["a", "c"]);
        db.insert_fact("r", &["d", "b"]);
        let probe = Atom::new("r", vec![Term::constant("a"), Term::variable("Y")]);
        for row in db.candidates(&probe) {
            assert_eq!(row[0], Term::constant("a"));
        }
    }

    #[test]
    fn indexed_relation_maintains_postings_on_insert() {
        let mut rel = IndexedRelation::with_arity(2);
        assert!(rel.insert(vec![Term::constant("a"), Term::constant("b")]));
        assert!(!rel.insert(vec![Term::constant("a"), Term::constant("b")]));
        assert!(rel.insert(vec![Term::constant("a"), Term::constant("c")]));
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.postings_len(0, &Term::constant("a")), 2);
        assert_eq!(rel.postings_len(1, &Term::constant("b")), 1);
        assert_eq!(rel.postings_len(1, &Term::constant("zzz")), 0);
        assert!(rel.contains(&[Term::constant("a"), Term::constant("c")]));
        // Postings stay current for inserts after a probe.
        assert!(rel.insert(vec![Term::constant("a"), Term::constant("d")]));
        assert_eq!(rel.postings_len(0, &Term::constant("a")), 3);
    }

    #[test]
    fn forced_hash_collisions_go_through_the_overflow_list() {
        let mut rel = IndexedRelation::with_arity(1);
        let a = vec![Term::constant("a")];
        let b = vec![Term::constant("b")];
        let c = vec![Term::constant("c")];
        // All three rows interned under the same 64-bit id: the first takes
        // the dedup slot, the others go to the overflow list.
        assert!(rel.insert_with_hash(a.clone(), 7));
        assert!(rel.insert_with_hash(b.clone(), 7));
        assert!(rel.insert_with_hash(c.clone(), 7));
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.tail.dedup_overflow.len(), 2);
        // Duplicates of both the slot row and the overflow rows are caught.
        assert!(!rel.insert_with_hash(a.clone(), 7));
        assert!(!rel.insert_with_hash(b.clone(), 7));
        assert!(!rel.insert_with_hash(c.clone(), 7));
        assert_eq!(rel.len(), 3);
        // Per-column postings were still maintained for overflow rows.
        assert_eq!(rel.postings_len(0, &Term::constant("b")), 1);
        // Colliding rows survive a freeze, and the dedup still rejects
        // duplicates afterwards, now through the frozen segment. (Real
        // `contains` calls hash the row themselves, so only the forced-hash
        // entry points are meaningful here.)
        rel.freeze();
        assert!(!rel.insert_with_hash(b, 7));
        assert!(!rel.insert_with_hash(c, 7));
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.rows().count(), 3);
    }

    #[test]
    fn freeze_publishes_the_tail_and_clones_share_segments() {
        let mut rel = IndexedRelation::with_arity(1);
        for i in 0..8 {
            rel.insert(vec![Term::constant(&format!("c{i}"))]);
        }
        assert_eq!(rel.segment_count(), 1, "everything lives in the tail");
        rel.freeze();
        assert_eq!(rel.segment_count(), 1, "one frozen segment, empty tail");
        let copy = rel.clone();
        assert!(copy.shares_segments_with(&rel), "clone shares the segment");
        assert_eq!(copy.len(), 8);
        // Divergence after cloning: inserts land in private tails.
        let mut grown = rel.clone();
        grown.insert(vec![Term::constant("new")]);
        assert_eq!(grown.len(), 9);
        assert_eq!(rel.len(), 8);
        assert!(!rel.contains(&[Term::constant("new")]));
        assert!(grown.shares_segments_with(&rel), "frozen part still shared");
    }

    #[test]
    fn freeze_merges_size_tiered_so_segments_stay_logarithmic() {
        let mut rel = IndexedRelation::with_arity(1);
        // 64 single-row commits: without merging this would be 64 segments.
        for i in 0..64 {
            rel.insert(vec![Term::constant(&format!("c{i}"))]);
            rel.freeze();
        }
        assert_eq!(rel.len(), 64);
        assert!(
            rel.segment_count() <= 8,
            "size-tiered merging keeps the stack logarithmic, got {}",
            rel.segment_count()
        );
        // All rows still reachable through indexes and scans.
        assert_eq!(rel.rows().count(), 64);
        assert_eq!(rel.postings_len(0, &Term::constant("c17")), 1);
        assert_eq!(rel.candidates(&[Term::constant("c17")]).count(), 1);
    }

    #[test]
    fn candidates_chain_across_frozen_segments_and_tail() {
        let mut rel = IndexedRelation::with_arity(2);
        rel.insert(vec![Term::constant("a"), Term::constant("b")]);
        rel.freeze();
        rel.insert(vec![Term::constant("a"), Term::constant("c")]);
        rel.freeze();
        rel.insert(vec![Term::constant("a"), Term::constant("d")]);
        // Index probe on column 0 finds rows in every segment.
        let pattern = vec![Term::constant("a"), Term::variable("Y")];
        let candidates = rel.candidates(&pattern);
        assert!(candidates.used_index());
        assert_eq!(candidates.count(), 3);
        // Unindexed scans also cross segments.
        let pattern = vec![Term::variable("X"), Term::variable("Y")];
        assert_eq!(rel.candidates(&pattern).count(), 3);
        assert_eq!(rel.scan_candidates().count(), 3);
        // Insertion order is preserved across segments.
        let rows: Vec<&Vec<Term>> = rel.rows().collect();
        assert_eq!(rows[0][1], Term::constant("b"));
        assert_eq!(rows[2][1], Term::constant("d"));
    }

    #[test]
    fn duplicates_are_detected_across_segments() {
        let mut rel = IndexedRelation::with_arity(1);
        rel.insert(vec![Term::constant("a")]);
        rel.freeze();
        assert!(!rel.insert(vec![Term::constant("a")]));
        assert!(rel.insert(vec![Term::constant("b")]));
        rel.freeze();
        assert!(!rel.insert(vec![Term::constant("a")]));
        assert!(!rel.insert(vec![Term::constant("b")]));
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn instance_freeze_makes_clones_share_storage() {
        let mut db = Instance::new();
        for i in 0..10 {
            db.insert_fact("r", &[&format!("a{i}"), "b"]);
        }
        db.insert_fact("s", &["c"]);
        db.freeze();
        let copy = db.clone();
        assert_eq!(copy, db);
        for p in db.predicates() {
            assert!(db
                .relation(p)
                .unwrap()
                .shares_segments_with(copy.relation(p).unwrap()));
        }
        // The clone can keep growing without touching the original, and
        // probes see the growth only on the clone.
        let mut grown = copy.clone();
        grown.insert_fact("r", &["new", "b"]);
        assert_eq!(grown.len(), 12);
        assert_eq!(db.len(), 11);
        assert!(!db.contains(&Atom::fact("r", &["new", "b"])));
        let probe = Atom::new("r", vec![Term::variable("X"), Term::constant("b")]);
        assert_eq!(grown.candidates(&probe).count(), 11);
        assert_eq!(db.candidates(&probe).count(), 10);
        let r = Predicate::new("r", 2);
        assert!(grown
            .relation(r)
            .unwrap()
            .shares_segments_with(db.relation(r).unwrap()));
    }

    #[test]
    fn sorted_atoms_round_trip_preserves_equality() {
        let mut db = Instance::new();
        db.insert_fact("r", &["b", "a"]);
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("s", &["c"]);
        let mut atoms: Vec<Atom> = db.atoms().collect();
        atoms.sort();
        assert_eq!(db, Instance::from_atoms(atoms));
    }
}
