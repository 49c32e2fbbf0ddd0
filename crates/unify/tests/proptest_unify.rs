//! Property-based tests for unification, homomorphisms and containment.

use ontorew_model::prelude::*;
use ontorew_unify::*;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::sample::select(vec!["X", "Y", "Z", "W"]).prop_map(Term::variable),
        prop::sample::select(vec!["a", "b", "c"]).prop_map(Term::constant),
    ]
}

fn atom_strategy() -> impl Strategy<Value = Atom> {
    (1usize..=3, prop::collection::vec(term_strategy(), 3)).prop_map(|(arity, terms)| {
        Atom::new(
            &format!("rel{arity}"),
            terms.into_iter().take(arity).collect(),
        )
    })
}

fn ground_atom_strategy() -> impl Strategy<Value = Atom> {
    (
        1usize..=3,
        prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 3),
    )
        .prop_map(|(arity, names)| {
            Atom::new(
                &format!("rel{arity}"),
                names.into_iter().take(arity).map(Term::constant).collect(),
            )
        })
}

/// Ground facts tagged with whether they belong to the delta.
fn facts_strategy() -> impl Strategy<Value = Vec<(Atom, bool)>> {
    prop::collection::vec(
        (ground_atom_strategy(), (0..2usize).prop_map(|b| b == 1)),
        0..24,
    )
}

/// A seed binding some of the pattern variables to constants.
fn seed_strategy() -> impl Strategy<Value = Substitution> {
    prop::collection::vec(
        (
            prop::sample::select(vec!["X", "Y", "Z", "W"]),
            prop::sample::select(vec!["a", "b", "c", "d"]),
        ),
        0..3,
    )
    .prop_map(|bindings| {
        bindings
            .into_iter()
            .map(|(v, c)| (Variable::new(v), Term::constant(c)))
            .collect()
    })
}

/// Every homomorphism of `atoms` into `instance` extending `seed`, by nested
/// loops over [`Instance::atoms`]: no index, no atom order, no cut, and no
/// code of the search under test.
fn nested_loop(atoms: &[Atom], instance: &Instance, seed: &Substitution) -> Vec<Substitution> {
    let facts: Vec<Atom> = instance.atoms().collect();
    let mut partial = vec![seed.clone()];
    for atom in atoms {
        let mut next = Vec::new();
        for sub in &partial {
            for fact in facts.iter().filter(|f| f.predicate == atom.predicate) {
                let mut extended = sub.clone();
                let fits = atom
                    .terms
                    .iter()
                    .zip(&fact.terms)
                    .all(|(p, value)| match *p {
                        Term::Variable(x) => match extended.get(x) {
                            Some(bound) => bound == *value,
                            None => {
                                extended.bind(x, *value);
                                true
                            }
                        },
                        ground => ground == *value,
                    });
                if fits {
                    next.push(extended);
                }
            }
        }
        partial = next;
    }
    partial
}

/// The substitutions as a set of printed keys, and whether none came twice.
fn key_set(subs: &[Substitution]) -> (BTreeSet<String>, bool) {
    let keys: BTreeSet<String> = subs.iter().map(|s| format!("{s:?}")).collect();
    let distinct = keys.len() == subs.len();
    (keys, distinct)
}

proptest! {
    /// The one backtracking search finds exactly the nested loop's
    /// homomorphisms, and so does the generic join, under random seeds.
    #[test]
    fn search_matches_the_nested_loop_and_the_generic_join(
        atoms in prop::collection::vec(atom_strategy(), 1..4),
        facts in facts_strategy(),
        seed in seed_strategy(),
    ) {
        let instance: Instance = facts.into_iter().map(|(atom, _)| atom).collect();
        let (reference, _) = key_set(&nested_loop(&atoms, &instance, &seed));
        let (search, distinct) = key_set(&all_homomorphisms(&atoms, &instance, &seed));
        prop_assert!(distinct, "the search repeated a homomorphism");
        prop_assert_eq!(&search, &reference);
        let (generic, _) = key_set(&generic_join_all(&atoms, &instance, &seed));
        prop_assert_eq!(&generic, &reference);
    }

    /// The delta search finds exactly the homomorphisms into `full` that are
    /// not homomorphisms into `full \ delta`, each once.
    #[test]
    fn delta_search_is_the_difference(
        atoms in prop::collection::vec(atom_strategy(), 1..4),
        facts in facts_strategy(),
        seed in seed_strategy(),
    ) {
        let full: Instance = facts.iter().map(|(atom, _)| atom.clone()).collect();
        let delta: Instance = facts
            .iter()
            .filter(|(_, in_delta)| *in_delta)
            .map(|(atom, _)| atom.clone())
            .collect();
        let old: Instance = full.atoms().filter(|atom| !delta.contains(atom)).collect();
        let (all_full, _) = key_set(&nested_loop(&atoms, &full, &seed));
        let (all_old, _) = key_set(&nested_loop(&atoms, &old, &seed));
        let expected: BTreeSet<String> = all_full.difference(&all_old).cloned().collect();
        let (found, distinct) = key_set(&all_homomorphisms_delta(&atoms, &full, &delta, &seed));
        prop_assert!(distinct, "the delta search repeated a homomorphism");
        prop_assert_eq!(found, expected);
    }

    /// An existence check succeeds exactly when the enumeration is
    /// non-empty, and what it finds is one of the enumerated homomorphisms.
    #[test]
    fn existence_agrees_with_enumeration(
        atoms in prop::collection::vec(atom_strategy(), 1..4),
        facts in facts_strategy(),
        seed in seed_strategy(),
    ) {
        let instance: Instance = facts.into_iter().map(|(atom, _)| atom).collect();
        let (all, _) = key_set(&nested_loop(&atoms, &instance, &seed));
        let found = find_homomorphism(&atoms, &instance, &seed);
        prop_assert_eq!(
            found.is_some(),
            !all_homomorphisms(&atoms, &instance, &seed).is_empty()
        );
        match found {
            Some(found) => {
                let key = format!("{:?}", found);
                prop_assert!(all.contains(&key));
            }
            None => prop_assert!(all.is_empty()),
        }
    }

    /// The computed unifier is a unifier, and unifiability agrees with it.
    #[test]
    fn unifier_unifies(a in atom_strategy(), b in atom_strategy()) {
        match unify_atoms(&a, &b) {
            Some(u) => {
                prop_assert!(unifiable(&a, &b));
                prop_assert_eq!(u.apply_atom_deep(&a), u.apply_atom_deep(&b));
            }
            None => prop_assert!(!unifiable(&a, &b)),
        }
    }

    /// An atom always unifies with a freshened copy of itself, and the unifier
    /// maps it onto that copy.
    #[test]
    fn atom_unifies_with_its_renaming(a in atom_strategy()) {
        let (renamed, _) = freshen_variables(std::slice::from_ref(&a));
        let u = unify_atoms(&a, &renamed[0]);
        prop_assert!(u.is_some());
    }

    /// The MGU is most general: for ground instances obtained by any grounding
    /// of both atoms that makes them equal, the grounding factors through the
    /// MGU (checked on the ground case: if a grounding makes both equal, the
    /// MGU exists).
    #[test]
    fn ground_equality_implies_unifiability(
        a in atom_strategy(),
        grounding in prop::collection::vec(prop::sample::select(vec!["a", "b", "c"]), 4),
    ) {
        // Ground `a` with an arbitrary assignment.
        let vars = a.variables();
        let subst = Substitution::from_bindings(
            vars.iter().enumerate().map(|(i, v)| {
                (*v, Term::constant(grounding[i % grounding.len()]))
            }),
        );
        let grounded = subst.apply_atom(&a);
        prop_assert!(unifiable(&a, &grounded));
    }

    /// Homomorphism search agrees with brute-force enumeration of candidate
    /// assignments on small instances.
    #[test]
    fn homomorphism_existence_is_sound(
        pattern in atom_strategy(),
        facts in prop::collection::vec(ground_atom_strategy(), 0..8),
    ) {
        let instance: Instance = facts.into_iter().collect();
        let found = find_homomorphism(std::slice::from_ref(&pattern), &instance, &Substitution::new());
        match found {
            Some(h) => {
                let image = h.apply_atom(&pattern);
                prop_assert!(image.is_ground());
                prop_assert!(instance.contains(&image));
            }
            None => {
                // Brute force: no stored tuple of the right predicate matches.
                let matches = instance
                    .tuples(pattern.predicate)
                    .any(|tuple| {
                        let mut s = Substitution::new();
                        tuple.iter().zip(pattern.terms.iter()).all(|(value, pat)| match pat {
                            Term::Variable(v) => match s.get(*v) {
                                Some(existing) => existing == *value,
                                None => {
                                    s.bind(*v, *value);
                                    true
                                }
                            },
                            ground => ground == value,
                        })
                    });
                prop_assert!(!matches);
            }
        }
    }

    /// Containment is reflexive and invariant under variable renaming, and
    /// adding atoms to a body only makes the query more specific.
    #[test]
    fn containment_laws(
        atoms in prop::collection::vec(atom_strategy(), 1..4),
        extra in atom_strategy(),
    ) {
        let q = ConjunctiveQuery::boolean(atoms.clone());
        prop_assert!(is_contained_in(&q, &q));
        prop_assert!(is_contained_in(&q.freshen(), &q));
        let mut bigger_body = atoms;
        bigger_body.push(extra);
        let bigger = ConjunctiveQuery::boolean(bigger_body);
        prop_assert!(is_contained_in(&bigger, &q));
    }

    /// Minimization is idempotent.
    #[test]
    fn minimization_is_idempotent(atoms in prop::collection::vec(atom_strategy(), 1..4)) {
        let q = ConjunctiveQuery::boolean(atoms);
        let once = minimize(&q);
        let twice = minimize(&once);
        prop_assert_eq!(once.body.len(), twice.body.len());
        prop_assert!(are_equivalent(&once, &twice));
    }

    /// Pruning a UCQ never changes the set of certain answers it captures:
    /// every pruned disjunct is contained in some surviving disjunct.
    #[test]
    fn ucq_pruning_is_lossless(disjuncts in prop::collection::vec(
        prop::collection::vec(atom_strategy(), 1..3), 1..4)
    ) {
        let ucq = UnionOfConjunctiveQueries::new(
            disjuncts.iter().cloned().map(ConjunctiveQuery::boolean).collect(),
        );
        let pruned = prune_ucq(&ucq);
        prop_assert!(pruned.len() <= ucq.len());
        for original in ucq.iter() {
            prop_assert!(
                pruned.iter().any(|kept| is_contained_in(original, kept)),
                "disjunct lost by pruning"
            );
        }
    }
}
