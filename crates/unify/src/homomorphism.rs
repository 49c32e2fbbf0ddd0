//! Homomorphisms from atom sets into instances.
//!
//! A homomorphism `h` from a set of atoms `A` into an instance `I` maps the
//! variables of `A` to terms of `I` such that `h(a) ∈ I` for every `a ∈ A`,
//! and is the identity on constants. Homomorphism search is the work-horse of
//! chase trigger detection, certain-answer checking and CQ containment.
//!
//! The functions here are thin wrappers over the one backtracking search of
//! [`crate::search`]: they order atoms by relation size and build one
//! [`Substitution`] per match. [`find_homomorphism`] stops at the first
//! match; [`all_homomorphisms_delta`] restricts the search to matches that
//! use at least one atom of a delta instance (the semi-naive decomposition
//! the chase engine is built on). The module also holds the freezing
//! helpers that turn a query body into its canonical instance.

use crate::generic_join::{count_backtracking_evaluation, delta_sources};
use crate::search::Backtrack;
use ontorew_model::atom::variables_of;
use ontorew_model::prelude::*;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// Find one homomorphism from `atoms` into `instance`, extending `seed`
/// (bindings in `seed` are fixed in advance; typically the identity or a
/// partial answer assignment).
pub fn find_homomorphism(
    atoms: &[Atom],
    instance: &Instance,
    seed: &Substitution,
) -> Option<Substitution> {
    // No answer variables: the existential cut stops at the first match.
    let mut found = None;
    seeded_search(atoms, instance, seed, &[])
        .walk(&mut |slots, values| found = Some(extend(seed, slots, values)));
    found
}

/// Find every homomorphism from `atoms` into `instance` extending `seed`.
///
/// The result can be exponentially large; callers that only need existence
/// should use [`find_homomorphism`].
pub fn all_homomorphisms(
    atoms: &[Atom],
    instance: &Instance,
    seed: &Substitution,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    seeded_search(atoms, instance, seed, &variables_of(atoms))
        .run(|slots, values| out.push(extend(seed, slots, values)));
    out
}

/// Find every homomorphism from `atoms` into `full` (extending `seed`) that
/// maps **at least one atom into `delta`**, where `delta ⊆ full`.
///
/// This is the semi-naive decomposition: for each pivot position `i`, atoms
/// before `i` are matched against `full \ delta`, atom `i` against `delta`,
/// and atoms after `i` against `full`. The union over pivots enumerates each
/// qualifying homomorphism exactly once, so a chase round that calls this
/// with the previous round's delta sees every *new* trigger once and no old
/// ones.
///
/// Returns the empty vector when `atoms` is empty (an empty body has no atom
/// in the delta), unlike [`all_homomorphisms`] which returns the seed.
pub fn all_homomorphisms_delta(
    atoms: &[Atom],
    full: &Instance,
    delta: &Instance,
    seed: &Substitution,
) -> Vec<Substitution> {
    count_backtracking_evaluation();
    let sizes = |atom: &Atom| full.relation_size(atom.predicate);
    let (seeded, values): (Vec<Variable>, Vec<Term>) = seed.iter().unzip();
    let answer = variables_of(atoms);
    let mut out = Vec::new();
    for pivot in 0..atoms.len() {
        if delta.relation_size(atoms[pivot].predicate) == 0 {
            continue;
        }
        let sources = delta_sources(atoms, full, delta, pivot);
        let mut search = Backtrack::compile(atoms, sources, &seeded, &answer, &sizes, Some(pivot));
        search.seed(&values);
        search.walk(&mut |slots, values| out.push(extend(seed, slots, values)));
    }
    out
}

/// The search of `atoms` over `instance`, atoms ordered by relation size,
/// extending `seed`, with the existential cut placed for `answer`.
fn seeded_search<'a>(
    atoms: &[Atom],
    instance: &'a Instance,
    seed: &Substitution,
    answer: &[Variable],
) -> Backtrack<'a> {
    let sizes = |atom: &Atom| instance.relation_size(atom.predicate);
    let (seeded, values): (Vec<Variable>, Vec<Term>) = seed.iter().unzip();
    let mut search = Backtrack::new(atoms, instance, &seeded, answer, &sizes);
    search.seed(&values);
    search
}

/// `seed` extended with a match's slot bindings.
fn extend(seed: &Substitution, slots: &[Variable], values: &[Term]) -> Substitution {
    let mut sub = seed.clone();
    for (v, t) in slots.iter().zip(values) {
        sub.bind(*v, *t);
    }
    sub
}

/// Freeze an atom set into an instance by replacing each variable with a
/// distinguished constant (`"__frozen_<name>"`). Constants and nulls are kept.
/// Freezing a query body gives its canonical instance.
pub fn freeze_atoms(atoms: &[Atom]) -> Instance {
    atoms.iter().map(freeze_atom).collect()
}

/// Freeze a single atom (see [`freeze_atoms`]).
pub fn freeze_atom(atom: &Atom) -> Atom {
    Atom {
        predicate: atom.predicate,
        terms: atom.terms.iter().map(|t| freeze_term(*t)).collect(),
    }
}

/// Freeze a term: variables become distinguished constants, ground terms are
/// unchanged.
///
/// The frozen constant for a variable is memoized process-wide, so the
/// containment hot path pays one string formatting + interning per distinct
/// variable instead of one per occurrence.
pub fn freeze_term(term: Term) -> Term {
    match term {
        Term::Variable(v) => Term::Constant(frozen_constant(v)),
        other => other,
    }
}

/// The memoized `__frozen_<name>` constant for a variable.
fn frozen_constant(v: Variable) -> Constant {
    static CACHE: OnceLock<RwLock<HashMap<Symbol, Constant>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(c) = cache.read().expect("frozen cache poisoned").get(&v.0) {
        return *c;
    }
    let c = Constant::new(&format!("__frozen_{}", v.name()));
    cache.write().expect("frozen cache poisoned").insert(v.0, c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::variable(n)
    }

    fn sample_instance() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("teaches", &["alice", "db101"]);
        db.insert_fact("teaches", &["bob", "ai102"]);
        db.insert_fact("course", &["db101"]);
        db.insert_fact("course", &["ai102"]);
        db.insert_fact("attends", &["carol", "db101"]);
        db
    }

    #[test]
    fn single_atom_homomorphism() {
        let db = sample_instance();
        let atoms = vec![Atom::new("teaches", vec![v("X"), v("Y")])];
        let h = find_homomorphism(&atoms, &db, &Substitution::new()).unwrap();
        assert!(db.contains(&h.apply_atom(&atoms[0])));
    }

    #[test]
    fn join_homomorphism() {
        let db = sample_instance();
        // teaches(X, C), attends(S, C): only C = db101 works.
        let atoms = vec![
            Atom::new("teaches", vec![v("X"), v("C")]),
            Atom::new("attends", vec![v("S"), v("C")]),
        ];
        let h = find_homomorphism(&atoms, &db, &Substitution::new()).unwrap();
        assert_eq!(h.apply_term(v("C")), Term::constant("db101"));
        assert_eq!(h.apply_term(v("X")), Term::constant("alice"));
        assert_eq!(h.apply_term(v("S")), Term::constant("carol"));
    }

    #[test]
    fn no_homomorphism_when_join_is_empty() {
        let db = sample_instance();
        let atoms = vec![
            Atom::new("teaches", vec![v("X"), v("C")]),
            Atom::new("attends", vec![v("X"), v("C")]),
        ];
        assert!(find_homomorphism(&atoms, &db, &Substitution::new()).is_none());
    }

    #[test]
    fn constants_in_patterns_constrain_matches() {
        let db = sample_instance();
        let atoms = vec![Atom::new("teaches", vec![Term::constant("bob"), v("C")])];
        let h = find_homomorphism(&atoms, &db, &Substitution::new()).unwrap();
        assert_eq!(h.apply_term(v("C")), Term::constant("ai102"));
        let atoms = vec![Atom::new("teaches", vec![Term::constant("zoe"), v("C")])];
        assert!(find_homomorphism(&atoms, &db, &Substitution::new()).is_none());
    }

    #[test]
    fn repeated_variables_in_pattern() {
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["c", "c"]);
        let atoms = vec![Atom::new("edge", vec![v("X"), v("X")])];
        let h = find_homomorphism(&atoms, &db, &Substitution::new()).unwrap();
        assert_eq!(h.apply_term(v("X")), Term::constant("c"));
    }

    #[test]
    fn seed_bindings_are_respected() {
        let db = sample_instance();
        let atoms = vec![Atom::new("teaches", vec![v("X"), v("C")])];
        let mut seed = Substitution::new();
        seed.bind(Variable::new("X"), Term::constant("bob"));
        let h = find_homomorphism(&atoms, &db, &seed).unwrap();
        assert_eq!(h.apply_term(v("C")), Term::constant("ai102"));
        seed.bind(Variable::new("X"), Term::constant("nobody"));
        assert!(find_homomorphism(&atoms, &db, &seed).is_none());
    }

    #[test]
    fn all_homomorphisms_enumerates_every_match() {
        let db = sample_instance();
        let atoms = vec![Atom::new("teaches", vec![v("X"), v("Y")])];
        let hs = all_homomorphisms(&atoms, &db, &Substitution::new());
        assert_eq!(hs.len(), 2);
    }

    #[test]
    fn homomorphism_into_atoms_freezes_target_variables() {
        // source r(X, Y) maps into target r(Z, Z) (variables frozen), but
        // source r(X, X) does not map into target r(A, B).
        let into = |source: &[Atom], target: &[Atom]| {
            find_homomorphism(source, &freeze_atoms(target), &Substitution::new())
        };
        let source = vec![Atom::new("r", vec![v("X"), v("Y")])];
        let target = vec![Atom::new("r", vec![v("Z"), v("Z")])];
        assert!(into(&source, &target).is_some());
        let source = vec![Atom::new("r", vec![v("X"), v("X")])];
        let target = vec![Atom::new("r", vec![v("A"), v("B")])];
        assert!(into(&source, &target).is_none());
    }

    #[test]
    fn freezing_preserves_ground_terms() {
        let a = Atom::new("r", vec![Term::constant("a"), v("X")]);
        let f = freeze_atom(&a);
        assert_eq!(f.terms[0], Term::constant("a"));
        assert!(f.terms[1].is_constant());
        assert!(f.is_ground());
    }

    #[test]
    fn empty_atom_list_has_trivial_homomorphism() {
        let db = sample_instance();
        let h = find_homomorphism(&[], &db, &Substitution::new()).unwrap();
        assert!(h.is_empty());
    }

    #[test]
    fn delta_homomorphisms_are_exactly_the_new_ones() {
        // full = old ∪ delta; the delta-restricted search must return exactly
        // the homomorphisms of `full` that are not homomorphisms of `old`,
        // each exactly once.
        let mut old = Instance::new();
        old.insert_fact("r", &["a", "b"]);
        old.insert_fact("s", &["b", "c"]);
        let mut delta = Instance::new();
        delta.insert_fact("r", &["d", "b"]);
        delta.insert_fact("s", &["b", "e"]);
        let mut full = old.clone();
        full.extend_from(&delta);

        let atoms = vec![
            Atom::new("r", vec![v("X"), v("Y")]),
            Atom::new("s", vec![v("Y"), v("Z")]),
        ];
        let all_full = all_homomorphisms(&atoms, &full, &Substitution::new());
        let all_old = all_homomorphisms(&atoms, &old, &Substitution::new());
        let new = all_homomorphisms_delta(&atoms, &full, &delta, &Substitution::new());
        assert_eq!(all_full.len(), 4);
        assert_eq!(all_old.len(), 1);
        assert_eq!(new.len(), all_full.len() - all_old.len());
        // No duplicates, and none of the old homomorphisms appears.
        for (i, h) in new.iter().enumerate() {
            assert!(!all_old.contains(h));
            assert!(all_full.contains(h));
            assert!(!new[i + 1..].contains(h));
        }
    }

    #[test]
    fn delta_equal_to_full_recovers_all_homomorphisms() {
        let db = sample_instance();
        let atoms = vec![
            Atom::new("teaches", vec![v("X"), v("C")]),
            Atom::new("attends", vec![v("S"), v("C")]),
        ];
        let all = all_homomorphisms(&atoms, &db, &Substitution::new());
        let delta_all = all_homomorphisms_delta(&atoms, &db, &db, &Substitution::new());
        assert_eq!(all.len(), delta_all.len());
        for h in &delta_all {
            assert!(all.contains(h));
        }
    }

    #[test]
    fn empty_delta_yields_no_homomorphisms() {
        let db = sample_instance();
        let atoms = vec![Atom::new("teaches", vec![v("X"), v("Y")])];
        let new = all_homomorphisms_delta(&atoms, &db, &Instance::new(), &Substitution::new());
        assert!(new.is_empty());
        // Unlike the unrestricted search, an empty atom list has no "new"
        // homomorphism either.
        assert!(all_homomorphisms_delta(&[], &db, &db, &Substitution::new()).is_empty());
    }

    #[test]
    fn freezing_is_memoized_consistently() {
        let a = freeze_term(Term::variable("MemoX"));
        let b = freeze_term(Term::variable("MemoX"));
        assert_eq!(a, b);
        assert_eq!(a, Term::constant("__frozen_MemoX"));
        assert_ne!(a, freeze_term(Term::variable("MemoY")));
    }

    #[test]
    fn zero_arity_atoms_match_only_if_present() {
        let mut db = Instance::new();
        db.insert(Atom::new("alarm", vec![]));
        let none = Substitution::new();
        assert!(find_homomorphism(&[Atom::new("alarm", vec![])], &db, &none).is_some());
        assert!(find_homomorphism(&[Atom::new("quiet", vec![])], &db, &none).is_none());
    }
}
