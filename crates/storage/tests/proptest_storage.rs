//! Property-based tests for query evaluation over a stored [`Instance`]: the
//! indexed join evaluator must agree with the naive homomorphism-based
//! evaluator on random data.

use ontorew_model::prelude::*;
use ontorew_storage::{evaluate_cq, evaluate_ucq};
use ontorew_unify::all_homomorphisms;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn constant() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(String::from)
}

/// A random instance over the fixed signature edge/2, node/1, label/2.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    prop::collection::vec(
        prop_oneof![
            (constant(), constant()).prop_map(|(x, y)| Atom::fact("edge", &[&x, &y])),
            constant().prop_map(|x| Atom::fact("node", &[&x])),
            (constant(), constant()).prop_map(|(x, y)| Atom::fact("label", &[&x, &y])),
        ],
        0..30,
    )
    .prop_map(Instance::from_atoms)
}

fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    // A pool of query shapes over the same signature, from single-atom scans
    // to triangle-ish joins with constants and repeated variables.
    prop::sample::select(vec![
        "q(X) :- node(X)",
        "q(X, Y) :- edge(X, Y)",
        "q(X) :- edge(X, X)",
        "q(X) :- edge(X, Y), node(Y)",
        "q(X, Z) :- edge(X, Y), edge(Y, Z)",
        "q(X) :- edge(X, Y), label(Y, Z)",
        "q() :- edge(\"a\", X)",
        "q(Y) :- edge(\"a\", Y), node(Y)",
        "q(X) :- edge(X, Y), edge(Y, X)",
    ])
    .prop_map(|text| parse_query(text).expect("query parses"))
}

/// Reference evaluation: enumerate all homomorphisms of the body into the
/// instance and project onto the answer variables.
fn naive_answers(instance: &Instance, query: &ConjunctiveQuery) -> BTreeSet<Vec<Term>> {
    all_homomorphisms(&query.body, instance, &Substitution::new())
        .into_iter()
        .map(|h| {
            query
                .answer_vars
                .iter()
                .map(|v| h.apply_term(Term::Variable(*v)))
                .collect()
        })
        .collect()
}

proptest! {
    /// The indexed evaluator returns exactly the naive answers over every
    /// layout the chase leaves behind: rows only in the mutable tail, rows
    /// only in frozen segments, and frozen segments patched by removals
    /// under a grown tail. The reference evaluates a row-by-row rebuild of
    /// the same facts, which lives in a tail alone.
    #[test]
    fn indexed_join_matches_naive_evaluation(
        instance in instance_strategy(),
        extra in instance_strategy(),
        query in query_strategy(),
    ) {
        let mut frozen = instance.clone();
        frozen.freeze();
        let mut patched = frozen.clone();
        patched.extend_from(&extra);
        let doomed: Vec<Atom> = instance.atoms().step_by(2).collect();
        patched.remove_atoms(&doomed);
        for state in [&instance, &frozen, &patched] {
            let fast: BTreeSet<Vec<Term>> = evaluate_cq(state, &query).iter().cloned().collect();
            let slow = naive_answers(&state.atoms().collect(), &query);
            prop_assert_eq!(fast, slow);
        }
    }

    /// UCQ evaluation equals the union of the disjuncts' answers.
    #[test]
    fn ucq_is_union_of_disjuncts(
        instance in instance_strategy(),
        q1 in query_strategy(),
        q2 in query_strategy(),
    ) {
        prop_assume!(q1.arity() == q2.arity());
        let store = &instance;
        let ucq = UnionOfConjunctiveQueries::new(vec![q1.clone(), q2.clone()]);
        let combined: BTreeSet<Vec<Term>> = evaluate_ucq(store, &ucq).iter().cloned().collect();
        let mut expected: BTreeSet<Vec<Term>> =
            evaluate_cq(store, &q1).iter().cloned().collect();
        expected.extend(evaluate_cq(store, &q2).iter().cloned());
        prop_assert_eq!(combined, expected);
    }

    /// Evaluation is monotone: adding facts never removes answers.
    #[test]
    fn evaluation_is_monotone(
        smaller in instance_strategy(),
        extra in instance_strategy(),
        query in query_strategy(),
    ) {
        let mut bigger = smaller.clone();
        bigger.extend_from(&extra);
        let small: BTreeSet<Vec<Term>> =
            evaluate_cq(&smaller, &query).iter().cloned().collect();
        let big: BTreeSet<Vec<Term>> =
            evaluate_cq(&bigger, &query).iter().cloned().collect();
        prop_assert!(small.is_subset(&big));
    }
}
