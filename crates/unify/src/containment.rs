//! Conjunctive-query containment, equivalence and minimization.
//!
//! By the Chandra–Merlin theorem, `q1 ⊑ q2` (every answer of `q1` over any
//! database is an answer of `q2`) holds iff there is a homomorphism from `q2`
//! to `q1` that maps the answer tuple of `q2` onto the answer tuple of `q1`.
//! The canonical database of `q1` is obtained by freezing its variables.
//!
//! Containment is the basis of the subsumption pruning used by the rewriting
//! engine, and minimization (computing a core) keeps rewritings small.

use crate::homomorphism::{find_homomorphism, freeze_atoms, freeze_term};
use ontorew_model::prelude::*;

/// True if `sub ⊑ sup`: every answer of `sub` is an answer of `sup` over every
/// database. Requires the two queries to have the same arity.
pub fn is_contained_in(sub: &ConjunctiveQuery, sup: &ConjunctiveQuery) -> bool {
    if sub.arity() != sup.arity() {
        return false;
    }
    // Freeze `sub` into its canonical database.
    let canonical = freeze_atoms(&sub.body);
    // The homomorphism must map sup's answer variables onto sub's frozen
    // answer variables, position-wise.
    let mut seed = Substitution::new();
    for (sup_v, sub_v) in sup.answer_vars.iter().zip(sub.answer_vars.iter()) {
        let target = freeze_term(Term::Variable(*sub_v));
        match seed.get(*sup_v) {
            Some(existing) if existing != target => return false,
            _ => seed.bind(*sup_v, target),
        }
    }
    find_homomorphism(&sup.body, &canonical, &seed).is_some()
}

/// True if the two queries are equivalent (mutually contained).
pub fn are_equivalent(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    is_contained_in(q1, q2) && is_contained_in(q2, q1)
}

/// Compute a core (minimization) of the query: a subset of its body atoms that
/// is equivalent to the original query and from which no atom can be removed
/// while preserving equivalence.
///
/// The result is unique up to isomorphism; this implementation removes atoms
/// greedily in body order.
pub fn minimize(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut unbounded = usize::MAX;
    minimize_within(q, &mut unbounded)
}

/// [`minimize`] with a shared budget of homomorphism checks: each removal
/// attempt spends two ([`are_equivalent`] is two containment checks), and
/// when the budget runs out the remaining atoms are kept — a sound cut,
/// since any superset of a core is equivalent to the original query.
fn minimize_within(q: &ConjunctiveQuery, budget: &mut usize) -> ConjunctiveQuery {
    let mut body = q.body.clone();
    let mut i = 0;
    while i < body.len() {
        if body.len() == 1 || *budget < 2 {
            break;
        }
        let mut candidate_body = body.clone();
        candidate_body.remove(i);
        // The candidate must still contain every answer variable to be a
        // well-formed query.
        let vars: std::collections::BTreeSet<Variable> =
            ontorew_model::atom::variables_of(&candidate_body)
                .into_iter()
                .collect();
        if q.answer_vars.iter().all(|v| vars.contains(v)) {
            let candidate = ConjunctiveQuery {
                name: q.name,
                answer_vars: q.answer_vars.clone(),
                body: candidate_body.clone(),
            };
            let original = ConjunctiveQuery {
                name: q.name,
                answer_vars: q.answer_vars.clone(),
                body: body.clone(),
            };
            *budget -= 2;
            if are_equivalent(&candidate, &original) {
                body = candidate_body;
                continue; // re-check the same index, which now holds the next atom
            }
        }
        i += 1;
    }
    ConjunctiveQuery {
        name: q.name,
        answer_vars: q.answer_vars.clone(),
        body,
    }
}

/// The predicate-set signature of a body, as a bitset over the interned
/// distinct predicates of the UCQ being pruned (one `u64` word per 64
/// predicates). Two signatures are comparable in O(words).
fn predicate_signature(
    body: &[Atom],
    intern: &mut std::collections::HashMap<Predicate, usize>,
    words: usize,
) -> Vec<u64> {
    let mut sig = vec![0u64; words];
    for atom in body {
        let next = intern.len();
        let bit = *intern.entry(atom.predicate).or_insert(next);
        if bit / 64 >= sig.len() {
            sig.resize(bit / 64 + 1, 0);
        }
        sig[bit / 64] |= 1 << (bit % 64);
    }
    sig
}

/// True if every bit of `a` is set in `b` (predicate-set inclusion).
fn signature_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(w, bits)| bits & !b.get(w).copied().unwrap_or(0) == 0)
}

/// A syntactic α-invariant key of a disjunct: variables renamed to their
/// first-occurrence index across the answer tuple and the body, atoms and
/// constants rendered in place. Two disjuncts with equal keys are the same
/// query up to variable naming (atom order still matters — catching the
/// exact duplicates rewriting saturation produces, for the cost of a single
/// formatting pass).
fn alpha_key(q: &ConjunctiveQuery) -> String {
    use std::fmt::Write as _;
    let mut ids: std::collections::HashMap<Variable, usize> = std::collections::HashMap::new();
    let mut key = String::new();
    let mut id_of = |v: Variable| {
        let next = ids.len();
        *ids.entry(v).or_insert(next)
    };
    for v in &q.answer_vars {
        let _ = write!(key, "?{} ", id_of(*v));
    }
    for atom in &q.body {
        let _ = write!(key, "{}(", atom.predicate.name_str());
        for term in &atom.terms {
            match term.as_variable() {
                Some(v) => {
                    let _ = write!(key, "?{},", id_of(v));
                }
                None => {
                    let _ = write!(key, "{term},");
                }
            }
        }
        key.push_str(") ");
    }
    key
}

/// Homomorphism checks one [`prune_ucq`] call may spend across minimization
/// and subsumption. Rewritings whose disjuncts share one predicate signature
/// (single-relation cyclic queries are the worst case) defeat the signature
/// bucketing and would otherwise pay a full quadratic homomorphism pass;
/// the budget caps prepare time at a constant once the UCQ is wide enough.
/// Cutting is sound: an unpruned (or unminimized) disjunct only makes the
/// UCQ redundant, never wrong.
const PRUNE_HOMOMORPHISM_BUDGET: usize = 10_000;

/// Remove from a UCQ every disjunct that is contained in another disjunct
/// (keeping the subsuming one), and minimize each surviving disjunct.
///
/// The result is logically equivalent to the input UCQ and is the normal form
/// produced by the rewriting engine.
///
/// Three guards keep the pass off the quadratic cliff:
///
/// * exact duplicates (up to α-renaming) are dropped by hashing before any
///   homomorphism runs;
/// * the pairwise containment loop is bucketed by predicate signature: a
///   homomorphism from `sup` into the canonical database of `sub` must map
///   every atom of `sup` onto a `sub` atom with the same predicate, so
///   `sub ⊑ sup` requires `preds(sup) ⊆ preds(sub)` — on hierarchy-shaped
///   rewritings the expensive checks become near-linear;
/// * the homomorphism checks that do run are capped by
///   `PRUNE_HOMOMORPHISM_BUDGET` (10,000), so same-signature rewritings (where the
///   bucketing cannot help) stay affordable at any width.
pub fn prune_ucq(ucq: &UnionOfConjunctiveQueries) -> UnionOfConjunctiveQueries {
    prune_ucq_budgeted(ucq, PRUNE_HOMOMORPHISM_BUDGET).0
}

/// [`prune_ucq`] with an explicit homomorphism-check budget; returns the
/// pruned UCQ and the number of checks actually spent. A result whose spent
/// count equals the budget was (potentially) cut short — still sound, maybe
/// redundant.
pub fn prune_ucq_budgeted(
    ucq: &UnionOfConjunctiveQueries,
    budget: usize,
) -> (UnionOfConjunctiveQueries, usize) {
    let mut remaining = budget;
    let mut seen = std::collections::HashSet::new();
    let deduped: Vec<&ConjunctiveQuery> = ucq
        .disjuncts
        .iter()
        .filter(|q| seen.insert(alpha_key(q)))
        .collect();
    let minimized: Vec<ConjunctiveQuery> = deduped
        .iter()
        .map(|q| minimize_within(q, &mut remaining))
        .collect();
    let mut intern = std::collections::HashMap::new();
    let mut words = 1usize;
    let mut signatures: Vec<Vec<u64>> = Vec::with_capacity(minimized.len());
    for q in &minimized {
        let sig = predicate_signature(&q.body, &mut intern, words);
        words = words.max(sig.len());
        signatures.push(sig);
    }
    let mut keep = vec![true; minimized.len()];
    'outer: for i in 0..minimized.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..minimized.len() {
            if i == j || !keep[j] {
                continue;
            }
            // Drop disjunct j if it is contained in disjunct i (i subsumes
            // j); possible only when i's predicates all occur in j.
            if !signature_subset(&signatures[i], &signatures[j]) {
                continue;
            }
            if remaining == 0 {
                break 'outer;
            }
            remaining -= 1;
            if is_contained_in(&minimized[j], &minimized[i]) {
                // Break ties deterministically: if they are mutually contained
                // keep the one with the smaller index.
                if remaining == 0 {
                    break 'outer;
                }
                remaining -= 1;
                if is_contained_in(&minimized[i], &minimized[j]) && j < i {
                    continue;
                }
                keep[j] = false;
            }
        }
    }
    let survivors: Vec<ConjunctiveQuery> = minimized
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(q, _)| q)
        .collect();
    (
        UnionOfConjunctiveQueries::new(survivors),
        budget - remaining,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::variable(n)
    }

    fn q(answers: &[&str], body: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::new(answers.iter().map(|a| Variable::new(a)).collect(), body)
    }

    #[test]
    fn more_constrained_query_is_contained_in_less_constrained() {
        // q1(X) :- r(X, Y), s(Y)   ⊑   q2(X) :- r(X, Y)
        let q1 = q(
            &["X"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("s", vec![v("Y")]),
            ],
        );
        let q2 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        assert!(is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
        assert!(!are_equivalent(&q1, &q2));
    }

    #[test]
    fn renamed_queries_are_equivalent() {
        let q1 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let q2 = q(&["A"], vec![Atom::new("r", vec![v("A"), v("B")])]);
        assert!(are_equivalent(&q1, &q2));
    }

    #[test]
    fn answer_variable_positions_matter() {
        // q1(X, Y) :- r(X, Y) is not equivalent to q2(X, Y) :- r(Y, X).
        let q1 = q(&["X", "Y"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let q2 = q(&["X", "Y"], vec![Atom::new("r", vec![v("Y"), v("X")])]);
        assert!(!is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
    }

    #[test]
    fn constants_affect_containment() {
        // q1(X) :- r(X, "a")  ⊑  q2(X) :- r(X, Y), but not vice versa.
        let q1 = q(
            &["X"],
            vec![Atom::new("r", vec![v("X"), Term::constant("a")])],
        );
        let q2 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        assert!(is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
    }

    #[test]
    fn different_arities_are_never_contained() {
        let q1 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let q2 = q(&["X", "Y"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        assert!(!is_contained_in(&q1, &q2));
    }

    #[test]
    fn redundant_atom_is_minimized_away() {
        // q(X) :- r(X, Y), r(X, Z)  minimizes to  q(X) :- r(X, Y).
        let query = q(
            &["X"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("r", vec![v("X"), v("Z")]),
            ],
        );
        let m = minimize(&query);
        assert_eq!(m.body.len(), 1);
        assert!(are_equivalent(&m, &query));
    }

    #[test]
    fn non_redundant_atoms_are_kept() {
        let query = q(
            &["X"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("s", vec![v("Y")]),
            ],
        );
        let m = minimize(&query);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn minimize_respects_answer_variables() {
        // q(X, Z) :- r(X, Y), r(X, Z): the atom with Z cannot be dropped even
        // though it is "redundant" modulo renaming, because Z is distinguished.
        let query = q(
            &["X", "Z"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("r", vec![v("X"), v("Z")]),
            ],
        );
        let m = minimize(&query);
        assert!(m
            .body
            .iter()
            .any(|a| a.variable_set().contains(&Variable::new("Z"))));
        assert!(are_equivalent(&m, &query));
    }

    #[test]
    fn boolean_query_containment() {
        let q1 = ConjunctiveQuery::boolean(vec![Atom::new("r", vec![Term::constant("a"), v("X")])]);
        let q2 = ConjunctiveQuery::boolean(vec![Atom::new("r", vec![v("Y"), v("X")])]);
        assert!(is_contained_in(&q1, &q2));
        assert!(!is_contained_in(&q2, &q1));
    }

    #[test]
    fn prune_ucq_drops_subsumed_disjuncts() {
        let specific = q(
            &["X"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("s", vec![v("Y")]),
            ],
        );
        let general = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let ucq = UnionOfConjunctiveQueries::new(vec![specific, general.clone()]);
        let pruned = prune_ucq(&ucq);
        assert_eq!(pruned.len(), 1);
        assert!(are_equivalent(&pruned.disjuncts[0], &general));
    }

    #[test]
    fn prune_ucq_keeps_incomparable_disjuncts() {
        let q1 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let q2 = q(&["X"], vec![Atom::new("s", vec![v("X")])]);
        let pruned = prune_ucq(&UnionOfConjunctiveQueries::new(vec![q1, q2]));
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn prune_ucq_handles_more_than_64_distinct_predicates() {
        // Force multi-word signatures: 70 incomparable single-atom disjuncts
        // plus one subsumed two-atom disjunct referencing the last predicate.
        let mut disjuncts: Vec<ConjunctiveQuery> = (0..70)
            .map(|i| q(&["X"], vec![Atom::new(&format!("p{i}"), vec![v("X")])]))
            .collect();
        disjuncts.push(q(
            &["X"],
            vec![
                Atom::new("p69", vec![v("X")]),
                Atom::new("extra", vec![v("X")]),
            ],
        ));
        let pruned = prune_ucq(&UnionOfConjunctiveQueries::new(disjuncts));
        // The two-atom disjunct is contained in the plain p69 disjunct.
        assert_eq!(pruned.len(), 70);
    }

    #[test]
    fn prune_ucq_deduplicates_equivalent_disjuncts() {
        let q1 = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let q2 = q(&["A"], vec![Atom::new("r", vec![v("A"), v("B")])]);
        let pruned = prune_ucq(&UnionOfConjunctiveQueries::new(vec![q1, q2]));
        assert_eq!(pruned.len(), 1);
    }

    /// A triangle disjunct α-renamed `n` ways: one query up to naming.
    fn renamed_triangles(n: usize) -> UnionOfConjunctiveQueries {
        let disjuncts: Vec<ConjunctiveQuery> = (0..n)
            .map(|i| {
                let (x, y, z) = (format!("X{i}"), format!("Y{i}"), format!("Z{i}"));
                q(
                    &[&x],
                    vec![
                        Atom::new("follows", vec![v(&x), v(&y)]),
                        Atom::new("follows", vec![v(&y), v(&z)]),
                        Atom::new("follows", vec![v(&z), v(&x)]),
                    ],
                )
            })
            .collect();
        UnionOfConjunctiveQueries::new(disjuncts)
    }

    #[test]
    fn alpha_equivalent_duplicates_dedup_without_homomorphisms() {
        // 64 renamings of one triangle query: the hash dedup collapses them
        // before a single (exponential-in-the-worst-case) homomorphism
        // check runs — spent stays 0 even with a zero budget.
        let (pruned, spent) = prune_ucq_budgeted(&renamed_triangles(64), 0);
        assert_eq!(pruned.len(), 1);
        assert_eq!(spent, 0);
    }

    #[test]
    fn exhausted_budget_keeps_disjuncts_soundly() {
        let specific = q(
            &["X"],
            vec![
                Atom::new("r", vec![v("X"), v("Y")]),
                Atom::new("s", vec![v("Y")]),
            ],
        );
        let general = q(&["X"], vec![Atom::new("r", vec![v("X"), v("Y")])]);
        let ucq = UnionOfConjunctiveQueries::new(vec![specific, general]);
        // Budget 0: no pruning happens, both disjuncts survive (redundant
        // but logically equivalent to the pruned form).
        let (unpruned, spent) = prune_ucq_budgeted(&ucq, 0);
        assert_eq!(unpruned.len(), 2);
        assert_eq!(spent, 0);
        // Plenty of budget: the subsumed disjunct is dropped as before.
        let (pruned, spent) = prune_ucq_budgeted(&ucq, 1_000);
        assert_eq!(pruned.len(), 1);
        assert!(spent > 0 && spent < 1_000);
    }

    #[test]
    fn same_signature_ucqs_prepare_within_the_check_budget() {
        // 120 path queries of distinct lengths over one predicate: every
        // disjunct has the same predicate signature, so the bitset
        // bucketing rejects nothing and the quadratic pass (plus unbounded
        // minimization, ~2·Σ lengths checks on its own) would run far past
        // any constant. The budget must cap the work instead.
        let disjuncts: Vec<ConjunctiveQuery> = (1..=120)
            .map(|len| {
                let vars: Vec<String> = (0..=len).map(|i| format!("V{i}")).collect();
                let body: Vec<Atom> = (0..len)
                    .map(|i| Atom::new("follows", vec![v(&vars[i]), v(&vars[i + 1])]))
                    .collect();
                q(&[&vars[0]], body)
            })
            .collect();
        let ucq = UnionOfConjunctiveQueries::new(disjuncts);
        let budget = 500;
        let (pruned, spent) = prune_ucq_budgeted(&ucq, budget);
        assert!(spent <= budget, "budget overrun: {spent} > {budget}");
        assert!(!pruned.disjuncts.is_empty());
        assert!(pruned.len() <= 120);
    }
}
