//! Worst-case-optimal generic join: variable-at-a-time homomorphism search.
//!
//! The backtracking search of [`crate::homomorphism`] matches one *atom* at a
//! time and therefore materialises every intermediate join result. On cyclic
//! query shapes (triangles, cliques) those intermediates can be much larger
//! than the final answer — the blowup worst-case-optimal join algorithms
//! avoid by resolving one *variable* at a time instead: for each variable,
//! the candidate values are the intersection of the per-atom value sets the
//! relation column indexes already maintain, so no tuple is ever built that
//! disagrees with some atom on an already-resolved variable.
//!
//! The engine here is the classic generic join over the segment indexes of
//! [`IndexedRelation`]:
//!
//! 1. variables are ordered greedily by estimated selectivity (smallest
//!    cheap support bound first, preferring variables connected to what is
//!    already bound);
//! 2. per variable, the cheapest supporting atom contributes a sorted
//!    distinct value list ([`IndexedRelation::matching_values`]); the
//!    second-cheapest is merged with [`intersect_sorted`] when its bound is
//!    comparable, and every other supporting atom filters the survivors
//!    with an existence probe ([`IndexedRelation::contains_match`]), so the
//!    per-variable work stays proportional to the smallest candidate list;
//! 3. each surviving value is written in place into the patterns of the
//!    atoms that mention the variable (at columns computed once per body),
//!    the search recurses, and the columns are restored afterwards — no
//!    pattern is rebuilt per value.
//!
//! There is one search, [`generic_join_visit`]: it hands each complete
//! substitution to a visitor instead of collecting it, so the query
//! evaluator projects answers straight into its answer set while
//! [`generic_join_all`] and the delta variants stay thin collecting
//! wrappers for the chase.
//!
//! Because an atom's pattern is fully ground exactly when its last variable
//! is resolved — and the value lists / probes are exact (ground columns and
//! repeated variables checked) — every produced substitution is witnessed by
//! a real row per atom, and none is produced twice. The result set is
//! therefore identical to [`crate::all_homomorphisms`] (proptested in this
//! module), only the enumeration order differs.
//!
//! [`generic_join_delta`] mirrors [`crate::all_homomorphisms_delta`]'s
//! semi-naive pivot decomposition: per pivot `i`, atoms before `i` draw from
//! `full \ delta`, atom `i` from `delta`, atoms after `i` from `full`; the
//! union over pivots is duplicate-free for exactly the same reason it is in
//! the backtracking engine (the pivot is the first atom mapped into the
//! delta). [`generic_join_delta_pivot`] exposes one pivot's share as a work
//! unit for the parallel chase.

use ontorew_model::instance::{intersect_sorted, pattern_matches};
use ontorew_model::prelude::*;
use ontorew_telemetry::{global_registry, span, Counter, Histogram};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// How a conjunctive body is evaluated: atom-at-a-time backtracking or
/// variable-at-a-time generic join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Atom-at-a-time backtracking over index candidates
    /// ([`crate::all_homomorphisms`]).
    Backtracking,
    /// Variable-at-a-time worst-case-optimal join ([`generic_join_all`]).
    GenericJoin,
}

impl JoinStrategy {
    /// The metrics/provenance label of the strategy.
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::Backtracking => "backtracking",
            JoinStrategy::GenericJoin => "generic_join",
        }
    }
}

impl std::fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

struct JoinMetrics {
    evaluations_backtracking: Arc<Counter>,
    evaluations_generic: Arc<Counter>,
    intersection_size: Arc<Histogram>,
}

fn metrics() -> &'static JoinMetrics {
    static METRICS: OnceLock<JoinMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = global_registry();
        JoinMetrics {
            evaluations_backtracking: registry.counter(
                "join_evaluations_total",
                "Conjunctive join evaluations, by strategy.",
                &[("strategy", "backtracking")],
            ),
            evaluations_generic: registry.counter(
                "join_evaluations_total",
                "Conjunctive join evaluations, by strategy.",
                &[("strategy", "generic_join")],
            ),
            intersection_size: registry.histogram(
                "join_intersection_size",
                "Surviving candidate values per variable resolution of the generic join.",
                &[],
            ),
        }
    })
}

/// Count one backtracking join evaluation (called by the backtracking entry
/// points so `join_evaluations_total` covers both strategies).
pub(crate) fn count_backtracking_evaluation() {
    metrics().evaluations_backtracking.inc();
}

/// Where an atom's matches are drawn from — the generic-join mirror of the
/// backtracking engine's `DeltaSource`.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The atom's predicate has no rows here: the join is empty.
    Absent,
    /// A plain relation (the full instance, or the delta's own relation).
    Rel(&'a IndexedRelation),
    /// `full \ delta`: the full relation minus the rows whose tuple is in
    /// the delta.
    Old {
        rel: &'a IndexedRelation,
        delta: &'a Instance,
        predicate: Predicate,
    },
}

impl<'a> Source<'a> {
    /// Cheap upper bound on the rows matching `pattern` (exact posting-list
    /// lengths; the `Old` exclusion is ignored — an upper bound suffices for
    /// support ordering).
    fn bound(&self, pattern: &[Term]) -> usize {
        match self {
            Source::Absent => 0,
            Source::Rel(rel) | Source::Old { rel, .. } => rel.match_bound(pattern),
        }
    }

    /// Sorted distinct values of `col` among the rows matching `pattern`.
    fn values(&self, pattern: &[Term], col: usize) -> Vec<Term> {
        match self {
            Source::Absent => Vec::new(),
            Source::Rel(rel) => rel.matching_values(pattern, col),
            Source::Old {
                rel,
                delta,
                predicate,
            } => {
                let mut values: Vec<Term> = rel
                    .candidates(pattern)
                    .filter(|row| {
                        pattern_matches(pattern, row) && !delta.contains_tuple(*predicate, row)
                    })
                    .map(|row| row[col])
                    .collect();
                values.sort_unstable();
                values.dedup();
                values
            }
        }
    }

    /// True if some row matches `pattern`.
    fn probe(&self, pattern: &[Term]) -> bool {
        match self {
            Source::Absent => false,
            Source::Rel(rel) => rel.contains_match(pattern),
            Source::Old {
                rel,
                delta,
                predicate,
            } => rel
                .candidates(pattern)
                .any(|row| pattern_matches(pattern, row) && !delta.contains_tuple(*predicate, row)),
        }
    }
}

/// One atom's evolving state during the search: its pattern with the current
/// bindings applied, and the source its matches must come from.
struct AtomState<'a> {
    pattern: Vec<Term>,
    source: Source<'a>,
}

/// The atoms that mention one variable of the order, each with the columns
/// the variable occupies there: where a value is bound in place.
type Supports = Vec<(usize, Vec<usize>)>;

/// Visit every homomorphism from `atoms` into `relations` extending `seed` —
/// the same substitution set as [`crate::all_homomorphisms`] (order may
/// differ), computed variable-at-a-time. `visit` sees each one once, as a
/// borrowed substitution that the search goes on to rebind.
pub fn generic_join_visit(
    atoms: &[Atom],
    relations: &Instance,
    seed: &Substitution,
    visit: &mut dyn FnMut(&Substitution),
) {
    metrics().evaluations_generic.inc();
    let mut eval_span = span("join.eval");
    eval_span.attr("strategy", "generic_join");
    eval_span.attr("atoms", atoms.len());
    let states: Vec<AtomState<'_>> = atoms
        .iter()
        .map(|atom| AtomState {
            pattern: seed.apply_atom(atom).terms,
            source: relations
                .relation(atom.predicate)
                .map(Source::Rel)
                .unwrap_or(Source::Absent),
        })
        .collect();
    let mut answers = 0usize;
    run(states, seed, &mut |sub| {
        answers += 1;
        visit(sub);
    });
    eval_span.attr("answers", answers);
}

/// [`generic_join_visit`], collected: every homomorphism from `atoms` into
/// `relations` extending `seed`.
pub fn generic_join_all(
    atoms: &[Atom],
    relations: &Instance,
    seed: &Substitution,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    generic_join_visit(atoms, relations, seed, &mut |sub| out.push(sub.clone()));
    out
}

/// Find every homomorphism from `atoms` into `full` (extending `seed`) that
/// maps at least one atom into `delta` — the same substitution set as
/// [`crate::all_homomorphisms_delta`], computed variable-at-a-time per
/// pivot.
pub fn generic_join_delta(
    atoms: &[Atom],
    full: &Instance,
    delta: &Instance,
    seed: &Substitution,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    for pivot in 0..atoms.len() {
        out.extend(generic_join_delta_pivot(atoms, full, delta, seed, pivot));
    }
    out
}

/// One pivot's share of [`generic_join_delta`]: the homomorphisms whose
/// first atom mapped into the delta is atom `pivot`. The union over pivots
/// is disjoint — this is the work unit the parallel chase hands to worker
/// threads for generic-join rules.
pub fn generic_join_delta_pivot(
    atoms: &[Atom],
    full: &Instance,
    delta: &Instance,
    seed: &Substitution,
    pivot: usize,
) -> Vec<Substitution> {
    debug_assert!(pivot < atoms.len());
    metrics().evaluations_generic.inc();
    let mut eval_span = span("join.eval");
    eval_span.attr("strategy", "generic_join");
    eval_span.attr("atoms", atoms.len());
    eval_span.attr("pivot", pivot);
    let states: Vec<AtomState<'_>> = atoms
        .iter()
        .enumerate()
        .map(|(i, atom)| AtomState {
            pattern: seed.apply_atom(atom).terms,
            source: if i == pivot {
                delta
                    .relation(atom.predicate)
                    .map(Source::Rel)
                    .unwrap_or(Source::Absent)
            } else if i < pivot {
                match full.relation(atom.predicate) {
                    Some(rel) => Source::Old {
                        rel,
                        delta,
                        predicate: atom.predicate,
                    },
                    None => Source::Absent,
                }
            } else {
                full.relation(atom.predicate)
                    .map(Source::Rel)
                    .unwrap_or(Source::Absent)
            },
        })
        .collect();
    let mut out = Vec::new();
    run(states, seed, &mut |sub| out.push(sub.clone()));
    eval_span.attr("answers", out.len());
    out
}

/// Drive the search: check atoms that are ground at entry, order the
/// variables, and recurse. Visits `seed` once for a satisfied variable-free
/// body (matching [`crate::all_homomorphisms`] on empty atom lists).
fn run(mut states: Vec<AtomState<'_>>, seed: &Substitution, visit: &mut dyn FnMut(&Substitution)) {
    // Atoms ground at entry are membership checks; failing one empties the
    // join, passing ones drop out of the search.
    let mut ok = true;
    states.retain(|state| {
        if state.pattern.iter().all(Term::is_ground) {
            ok &= state.source.probe(&state.pattern);
            false
        } else {
            true
        }
    });
    if !ok {
        return;
    }
    let order = order_variables(&states);
    // Which atoms mention each variable, and at which columns, is fixed by
    // the body: computed once, not per value.
    let supports: Vec<Supports> = order
        .iter()
        .map(|&v| {
            let var = Term::Variable(v);
            states
                .iter()
                .enumerate()
                .filter_map(|(i, state)| {
                    let cols: Vec<usize> = (0..state.pattern.len())
                        .filter(|&c| state.pattern[c] == var)
                        .collect();
                    (!cols.is_empty()).then_some((i, cols))
                })
                .collect()
        })
        .collect();
    let mut current = seed.clone();
    solve(&order, &supports, 0, &mut states, &mut current, visit);
}

/// The selectivity-greedy variable order: repeatedly pick the unresolved
/// variable with the smallest cheap support bound, preferring variables that
/// share an atom with something already bound or ground (so intersections
/// stay constrained), breaking ties by occurrence count (more atoms = more
/// pruning) and first occurrence (determinism).
fn order_variables(states: &[AtomState<'_>]) -> Vec<Variable> {
    let mut remaining: Vec<Variable> = Vec::new();
    for state in states {
        for term in &state.pattern {
            if let Term::Variable(v) = term {
                if !remaining.contains(v) {
                    remaining.push(*v);
                }
            }
        }
    }
    let first_occurrence: Vec<Variable> = remaining.clone();
    let occurrence = |v: Variable| first_occurrence.iter().position(|r| *r == v).unwrap_or(0);
    let mut resolved: BTreeSet<Variable> = BTreeSet::new();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .min_by_key(|&v| {
                let mut min_bound = usize::MAX;
                let mut occurrences = 0usize;
                let mut connected = false;
                for state in states
                    .iter()
                    .filter(|s| s.pattern.contains(&Term::Variable(v)))
                {
                    occurrences += 1;
                    min_bound = min_bound.min(state.source.bound(&state.pattern));
                    connected |= state.pattern.iter().any(|t| match t {
                        Term::Variable(u) => resolved.contains(u),
                        ground => ground.is_ground(),
                    });
                }
                (
                    usize::from(!connected),
                    min_bound,
                    usize::MAX - occurrences,
                    occurrence(v),
                )
            })
            .expect("remaining is non-empty");
        remaining.retain(|v| *v != best);
        resolved.insert(best);
        order.push(best);
    }
    order
}

/// Write `value` into `state`'s pattern at `cols` (a variable's columns).
fn bind_columns(state: &mut AtomState<'_>, cols: &[usize], value: Term) {
    for &c in cols {
        state.pattern[c] = value;
    }
}

/// Resolve variable `order[vi]`: intersect the candidate value lists of the
/// two cheapest supporting atoms, semijoin-filter through the rest, then
/// bind each survivor in place and recurse; at full depth, visit.
fn solve(
    order: &[Variable],
    supports: &[Supports],
    vi: usize,
    states: &mut [AtomState<'_>],
    current: &mut Substitution,
    visit: &mut dyn FnMut(&Substitution),
) {
    if vi == order.len() {
        visit(current);
        return;
    }
    let v = order[vi];
    let level = &supports[vi];
    debug_assert!(!level.is_empty(), "ordered variable occurs in some atom");
    let mut ranked: Vec<usize> = (0..level.len()).collect();
    ranked.sort_by_key(|&s| {
        let state = &states[level[s].0];
        state.source.bound(&state.pattern)
    });

    // The cheapest support enumerates. The second-cheapest is materialised
    // and merged with `intersect_sorted` only when its bound is comparable —
    // a sorted merge touches every value of both lists, so against a much
    // larger (e.g. unconstrained) support, per-survivor existence probes are
    // what keep the per-variable work proportional to the *smallest* list,
    // the property the worst-case-optimality argument rests on.
    let (first_idx, first_cols) = &level[ranked[0]];
    let first = &states[*first_idx];
    let first_bound = first.source.bound(&first.pattern);
    let mut values = first.source.values(&first.pattern, first_cols[0]);
    let mut probe_from = 1;
    if let Some(&second) = ranked.get(1) {
        let (second_idx, second_cols) = &level[second];
        let second = &states[*second_idx];
        if !values.is_empty()
            && second.source.bound(&second.pattern) <= 4 * first_bound.saturating_add(4)
        {
            let other = second.source.values(&second.pattern, second_cols[0]);
            values = intersect_sorted(&values, &other);
            probe_from = 2;
        }
    }
    if ranked.len() > probe_from && !values.is_empty() {
        values.retain(|value| {
            ranked[probe_from..].iter().all(|&s| {
                let (i, cols) = &level[s];
                let state = &mut states[*i];
                bind_columns(state, cols, *value);
                let found = state.source.probe(&state.pattern);
                bind_columns(state, cols, Term::Variable(v));
                found
            })
        });
    }
    metrics().intersection_size.observe(values.len() as u64);
    for &value in &values {
        current.bind(v, value);
        for (i, cols) in level {
            bind_columns(&mut states[*i], cols, value);
        }
        solve(order, supports, vi + 1, states, current, visit);
    }
    // Every value wrote the same columns: restore them once. `current` keeps
    // a stale binding for `v`, which is harmless — the next sibling value
    // overwrites it, and every visit happens at full depth where all
    // variables are freshly bound.
    for (i, cols) in level {
        bind_columns(&mut states[*i], cols, Term::Variable(v));
    }
}

/// True if the variable hypergraph of `atoms` is cyclic (GYO ear-removal
/// test): cyclic bodies — triangles, cliques, feedback shapes — are where
/// the generic join's worst-case-optimality pays; acyclic bodies are served
/// as well or better by the backtracking search's bound-first order.
pub fn is_cyclic(atoms: &[Atom]) -> bool {
    let mut edges: Vec<BTreeSet<Variable>> = atoms
        .iter()
        .map(Atom::variable_set)
        .filter(|vars| !vars.is_empty())
        .collect();
    loop {
        if edges.len() <= 1 {
            return false;
        }
        let mut progress = false;
        // Remove "ear" vertices occurring in exactly one hyperedge.
        let mut counts: std::collections::HashMap<Variable, usize> =
            std::collections::HashMap::new();
        for edge in &edges {
            for v in edge {
                *counts.entry(*v).or_default() += 1;
            }
        }
        for edge in &mut edges {
            let before = edge.len();
            edge.retain(|v| counts[v] > 1);
            progress |= edge.len() != before;
        }
        // Remove hyperedges contained in another hyperedge (duplicates
        // count: of two equal edges only the earlier survives).
        let before = edges.len();
        let mut kept: Vec<BTreeSet<Variable>> = Vec::with_capacity(edges.len());
        'edge: for (i, edge) in edges.iter().enumerate() {
            for (j, other) in edges.iter().enumerate() {
                if j != i && edge.is_subset(other) && (edge != other || j < i) {
                    continue 'edge;
                }
            }
            kept.push(edge.clone());
        }
        edges = kept;
        progress |= edges.len() != before;
        if !progress {
            // A full GYO pass made no reduction: the residue is cyclic.
            return true;
        }
    }
}

/// Total rows below which the generic join's per-variable bookkeeping costs
/// more than the intermediate blowup it prevents (shared by every consumer
/// that picks a strategy without a measured cost model).
pub const GENERIC_JOIN_MIN_FACTS: usize = 128;

/// The default per-body strategy when no measured cost model is in play:
/// generic join for cyclic bodies over enough data, backtracking otherwise.
/// The `crates/plan` cost model refines this choice with real statistics.
pub fn choose_join_strategy(atoms: &[Atom], relations: &Instance) -> JoinStrategy {
    if !is_cyclic(atoms) {
        return JoinStrategy::Backtracking;
    }
    let total: usize = atoms
        .iter()
        .map(|a| relations.relation_size(a.predicate))
        .sum();
    if total >= GENERIC_JOIN_MIN_FACTS {
        JoinStrategy::GenericJoin
    } else {
        JoinStrategy::Backtracking
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homomorphism::{all_homomorphisms, all_homomorphisms_delta};
    use proptest::prelude::*;

    fn v(n: &str) -> Term {
        Term::variable(n)
    }

    fn triangle_atoms() -> Vec<Atom> {
        vec![
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("e", vec![v("Y"), v("Z")]),
            Atom::new("e", vec![v("Z"), v("X")]),
        ]
    }

    fn sorted_keys(subs: &[Substitution]) -> Vec<String> {
        let mut keys: Vec<String> = subs.iter().map(|s| format!("{s:?}")).collect();
        keys.sort();
        keys
    }

    fn assert_same_set(a: &[Substitution], b: &[Substitution]) {
        assert_eq!(sorted_keys(a), sorted_keys(b));
    }

    #[test]
    fn triangle_matches_backtracking() {
        let mut db = Instance::new();
        for (x, y) in [
            ("a", "b"),
            ("b", "c"),
            ("c", "a"),
            ("a", "c"),
            ("c", "d"),
            ("d", "a"),
            ("b", "b"),
        ] {
            db.insert_fact("e", &[x, y]);
        }
        let atoms = triangle_atoms();
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_all(&atoms, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
    }

    #[test]
    fn seed_and_constants_are_respected() {
        let mut db = Instance::new();
        db.insert_fact("e", &["a", "b"]);
        db.insert_fact("e", &["b", "a"]);
        db.insert_fact("p", &["a"]);
        let atoms = vec![
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("p", vec![v("X")]),
        ];
        let mut seed = Substitution::new();
        seed.bind(Variable::new("Y"), Term::constant("b"));
        assert_same_set(
            &generic_join_all(&atoms, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
        let atoms = vec![Atom::new("e", vec![Term::constant("b"), v("Y")])];
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_all(&atoms, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
    }

    #[test]
    fn repeated_variables_and_self_loops() {
        let mut db = Instance::new();
        db.insert_fact("e", &["a", "b"]);
        db.insert_fact("e", &["c", "c"]);
        let atoms = vec![Atom::new("e", vec![v("X"), v("X")])];
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_all(&atoms, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
    }

    #[test]
    fn empty_atoms_return_the_seed() {
        let db = Instance::new();
        let mut seed = Substitution::new();
        seed.bind(Variable::new("X"), Term::constant("a"));
        let out = generic_join_all(&[], &db, &seed);
        assert_eq!(out, vec![seed]);
    }

    #[test]
    fn unknown_predicate_empties_the_join() {
        let mut db = Instance::new();
        db.insert_fact("e", &["a", "b"]);
        let atoms = vec![
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("missing", vec![v("Y")]),
        ];
        assert!(generic_join_all(&atoms, &db, &Substitution::new()).is_empty());
    }

    #[test]
    fn zero_arity_atoms_behave_like_membership() {
        let mut db = Instance::new();
        db.insert(Atom::new("alarm", vec![]));
        db.insert_fact("e", &["a", "b"]);
        let atoms = vec![
            Atom::new("alarm", vec![]),
            Atom::new("e", vec![v("X"), v("Y")]),
        ];
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_all(&atoms, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
        let atoms = vec![Atom::new("quiet", vec![])];
        assert!(generic_join_all(&atoms, &db, &seed).is_empty());
    }

    #[test]
    fn delta_decomposition_matches_backtracking() {
        let mut old = Instance::new();
        old.insert_fact("e", &["a", "b"]);
        old.insert_fact("e", &["b", "c"]);
        old.insert_fact("e", &["c", "a"]);
        let mut delta = Instance::new();
        delta.insert_fact("e", &["c", "b"]);
        delta.insert_fact("e", &["b", "a"]);
        let mut full = old.clone();
        full.extend_from(&delta);
        let atoms = triangle_atoms();
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_delta(&atoms, &full, &delta, &seed),
            &all_homomorphisms_delta(&atoms, &full, &delta, &seed),
        );
        // Pivot shares are disjoint and their union is the whole.
        let mut union = Vec::new();
        for pivot in 0..atoms.len() {
            union.extend(generic_join_delta_pivot(
                &atoms, &full, &delta, &seed, pivot,
            ));
        }
        assert_same_set(
            &union,
            &all_homomorphisms_delta(&atoms, &full, &delta, &seed),
        );
        let keys = sorted_keys(&union);
        for pair in keys.windows(2) {
            assert_ne!(pair[0], pair[1], "duplicate across pivots");
        }
    }

    #[test]
    fn delta_equal_to_full_recovers_all() {
        let mut db = Instance::new();
        db.insert_fact("e", &["a", "b"]);
        db.insert_fact("e", &["b", "a"]);
        let atoms = vec![
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("e", vec![v("Y"), v("X")]),
        ];
        let seed = Substitution::new();
        assert_same_set(
            &generic_join_delta(&atoms, &db, &db, &seed),
            &all_homomorphisms(&atoms, &db, &seed),
        );
        assert!(generic_join_delta(&atoms, &db, &Instance::new(), &seed).is_empty());
        assert!(generic_join_delta(&[], &db, &db, &seed).is_empty());
    }

    #[test]
    fn cyclicity_classifier_is_sane() {
        // Triangle: cyclic.
        assert!(is_cyclic(&triangle_atoms()));
        // Path join: acyclic.
        assert!(!is_cyclic(&[
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("e", vec![v("Y"), v("Z")]),
        ]));
        // Single atom, star, and ground bodies: acyclic.
        assert!(!is_cyclic(&[Atom::new("e", vec![v("X"), v("Y")])]));
        assert!(!is_cyclic(&[
            Atom::new("a", vec![v("X"), v("Y")]),
            Atom::new("b", vec![v("X"), v("Z")]),
            Atom::new("c", vec![v("X"), v("W")]),
        ]));
        assert!(!is_cyclic(&[Atom::new(
            "e",
            vec![Term::constant("a"), Term::constant("b")]
        )]));
        // 4-clique: cyclic.
        let clique: Vec<Atom> = [
            ("X", "Y"),
            ("X", "Z"),
            ("X", "W"),
            ("Y", "Z"),
            ("Y", "W"),
            ("Z", "W"),
        ]
        .iter()
        .map(|(a, b)| Atom::new("e", vec![v(a), v(b)]))
        .collect();
        assert!(is_cyclic(&clique));
        // Acyclic alpha shape: edge + a guard atom covering the join pair.
        assert!(!is_cyclic(&[
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("e", vec![v("Y"), v("Z")]),
            Atom::new("g", vec![v("X"), v("Y"), v("Z")]),
        ]));
    }

    #[test]
    fn strategy_chooser_needs_cyclic_and_big() {
        let mut db = Instance::new();
        for i in 0..200 {
            db.insert_fact("e", &[&format!("n{i}"), &format!("n{}", (i * 7) % 200)]);
        }
        assert_eq!(
            choose_join_strategy(&triangle_atoms(), &db),
            JoinStrategy::GenericJoin
        );
        assert_eq!(
            choose_join_strategy(
                &[
                    Atom::new("e", vec![v("X"), v("Y")]),
                    Atom::new("e", vec![v("Y"), v("Z")]),
                ],
                &db
            ),
            JoinStrategy::Backtracking
        );
        let mut small = Instance::new();
        small.insert_fact("e", &["a", "b"]);
        assert_eq!(
            choose_join_strategy(&triangle_atoms(), &small),
            JoinStrategy::Backtracking
        );
    }

    /// Random-program equivalence: generic join ≡ backtracking on arbitrary
    /// small atom sets and instances, full and delta-restricted.
    fn arb_term(vars: usize, consts: usize) -> impl Strategy<Value = Term> {
        prop_oneof![
            (0..vars).prop_map(|i| Term::variable(&format!("V{i}"))),
            (0..consts).prop_map(|i| Term::constant(&format!("c{i}"))),
        ]
    }

    fn arb_atoms() -> impl Strategy<Value = Vec<Atom>> {
        prop::collection::vec(
            (0..3usize, prop::collection::vec(arb_term(4, 4), 1..=3)),
            1..=4,
        )
        .prop_map(|specs| {
            specs
                .into_iter()
                .map(|(p, terms)| Atom::new(&format!("p{}_{}", p, terms.len()), terms))
                .collect()
        })
    }

    fn arb_instance() -> impl Strategy<Value = (Instance, Instance)> {
        // (old facts, delta facts) over the same predicate pool as arb_atoms.
        let fact = (0..3usize, prop::collection::vec(0..4usize, 1..=3));
        let in_delta = (0..2usize).prop_map(|b| b == 1);
        prop::collection::vec((fact, in_delta), 0..40).prop_map(|facts| {
            let mut old = Instance::new();
            let mut delta = Instance::new();
            for ((p, cols), in_delta) in facts {
                let names: Vec<String> = cols.iter().map(|c| format!("c{c}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let atom = Atom::fact(&format!("p{}_{}", p, cols.len()), &refs);
                if in_delta {
                    delta.insert(atom);
                } else {
                    old.insert(atom);
                }
            }
            (old, delta)
        })
    }

    proptest! {
        #[test]
        fn prop_generic_join_equals_backtracking((old, delta) in arb_instance(), atoms in arb_atoms()) {
            let mut full = old.clone();
            full.extend_from(&delta);
            let seed = Substitution::new();
            let gj = generic_join_all(&atoms, &full, &seed);
            let bt = all_homomorphisms(&atoms, &full, &seed);
            prop_assert_eq!(sorted_keys(&gj), sorted_keys(&bt));
        }

        #[test]
        fn prop_generic_join_delta_equals_backtracking((old, delta) in arb_instance(), atoms in arb_atoms()) {
            let mut full = old.clone();
            full.extend_from(&delta);
            let seed = Substitution::new();
            let gj = generic_join_delta(&atoms, &full, &delta, &seed);
            let bt = all_homomorphisms_delta(&atoms, &full, &delta, &seed);
            prop_assert_eq!(sorted_keys(&gj), sorted_keys(&bt));
        }

        #[test]
        fn prop_frozen_instances_agree((old, delta) in arb_instance(), atoms in arb_atoms()) {
            // Freezing changes the segment layout, not the matches.
            let mut full = old.clone();
            full.extend_from(&delta);
            let mut frozen = full.clone();
            frozen.freeze();
            let seed = Substitution::new();
            prop_assert_eq!(
                sorted_keys(&generic_join_all(&atoms, &frozen, &seed)),
                sorted_keys(&all_homomorphisms(&atoms, &full, &seed))
            );
        }
    }
}
