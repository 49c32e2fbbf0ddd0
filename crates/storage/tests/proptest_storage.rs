//! Property-based tests for query evaluation over a stored [`Instance`]: the
//! evaluator must agree with the naive homomorphism-based evaluator on random
//! data, whatever join strategy and configuration it runs with.

use ontorew_model::prelude::*;
use ontorew_storage::{
    evaluate_cq, evaluate_cq_instrumented, evaluate_ucq, EvalConfig, JoinStrategy, StoreStatistics,
};
use ontorew_unify::all_homomorphisms;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A stored value: one of five constants, or (more rarely) one of two
/// labelled nulls, as a chased instance holds them.
fn value() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Term::constant),
        prop::sample::select(vec!["a", "b", "c", "d", "e"]).prop_map(Term::constant),
        prop::sample::select(vec![1u64, 2]).prop_map(|n| Term::Null(Null(n))),
    ]
}

fn fact(name: &str, terms: Vec<Term>) -> Atom {
    Atom {
        predicate: Predicate::new(name, terms.len()),
        terms,
    }
}

/// A random instance over the fixed signature edge/2, node/1, label/2.
fn instance_strategy() -> impl Strategy<Value = Instance> {
    prop::collection::vec(
        prop_oneof![
            (value(), value()).prop_map(|(x, y)| fact("edge", vec![x, y])),
            value().prop_map(|x| fact("node", vec![x])),
            (value(), value()).prop_map(|(x, y)| fact("label", vec![x, y])),
        ],
        0..30,
    )
    .prop_map(Instance::from_atoms)
}

fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    // A pool of query shapes over the same signature: single-atom scans,
    // joins with constants and repeated variables, cycles, existential
    // tails after the answer variables, an answer variable the body does
    // not mention, and boolean queries with and without a tail.
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
        "q(X, Y, Z) :- edge(X, Y), edge(Y, Z), edge(Z, X)",
        "q(X) :- node(X), edge(X, Y), edge(Y, Z)",
        "q(X) :- edge(X, Y), label(Y, Z), node(Z)",
        "q(X, W) :- edge(X, Y)",
        "q() :- node(X), edge(X, Y), label(Y, Z)",
    ])
    .prop_map(|text| match text.split_once(", W)") {
        // The parser refuses an answer variable missing from the body (so
        // does `ConjunctiveQuery::new`); a rewriting's grounded disjuncts
        // can still carry one, so it is added after parsing.
        Some((head, body)) => {
            let mut query = parse_query(&format!("{head}){body}")).expect("query parses");
            query.answer_vars.push(Variable::new("W"));
            query
        }
        None => parse_query(text).expect("query parses"),
    })
}

/// Reference evaluation: enumerate all homomorphisms of the body into the
/// instance and project onto the answer variables, dropping tuples that
/// keep a variable (an answer variable the body does not bind).
fn naive_answers(instance: &Instance, query: &ConjunctiveQuery) -> BTreeSet<Vec<Term>> {
    all_homomorphisms(&query.body, instance, &Substitution::new())
        .into_iter()
        .map(|h| {
            query
                .answer_vars
                .iter()
                .map(|v| h.apply_term(Term::Variable(*v)))
                .collect::<Vec<Term>>()
        })
        .filter(|row| row.iter().all(Term::is_ground))
        .collect()
}

proptest! {
    /// The evaluator returns exactly the naive answers over every layout
    /// the chase leaves behind — rows only in the mutable tail, rows only
    /// in frozen segments, and frozen segments patched by removals under a
    /// grown tail — with either join strategy forced and with the strategy
    /// and atom order picked from collected statistics. The reference
    /// evaluates a row-by-row rebuild of the same facts, which lives in a
    /// tail alone.
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
            let slow = naive_answers(&state.atoms().collect(), &query);
            let statistics = StoreStatistics::collect(state);
            let configs = [
                EvalConfig::default(),
                EvalConfig { strategy: Some(JoinStrategy::Backtracking), ..EvalConfig::default() },
                EvalConfig { strategy: Some(JoinStrategy::GenericJoin), ..EvalConfig::default() },
                EvalConfig { statistics: Some(&statistics), ..EvalConfig::default() },
            ];
            for config in &configs {
                let fast: BTreeSet<Vec<Term>> =
                    evaluate_cq_instrumented(state, &query, config).0.iter().cloned().collect();
                prop_assert_eq!(&fast, &slow, "config {:?}", config);
            }
        }
    }

    /// UCQ evaluation equals the union of the disjuncts' answers, and the
    /// union of their naive answers.
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
        prop_assert_eq!(&combined, &expected);
        let mut naive = naive_answers(store, &q1);
        naive.extend(naive_answers(store, &q2));
        prop_assert_eq!(combined, naive);
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
