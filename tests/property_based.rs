//! Property-based tests (proptest) over the core data structures and the
//! reasoning invariants that the paper's results rely on.

use ontorew::chase::{certain_answers, chase, ChaseConfig};
use ontorew::model::prelude::*;
use ontorew::rewrite::{answer_by_rewriting, RewriteConfig};
use ontorew::unify;
use proptest::prelude::*;

/// Strategy: a small vocabulary of variable names.
fn variable_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["X", "Y", "Z", "W", "U", "V"]).prop_map(|s| s.to_string())
}

/// Strategy: a small vocabulary of constant names.
fn constant_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(|s| s.to_string())
}

/// Strategy: a term (variable or constant).
fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        variable_name().prop_map(|n| Term::variable(&n)),
        constant_name().prop_map(|n| Term::constant(&n)),
    ]
}

/// Strategy: an atom over a small signature (predicates p1/1, p2/2, p3/3).
fn atom() -> impl Strategy<Value = Atom> {
    (1usize..=3, prop::collection::vec(term(), 3)).prop_map(|(arity, terms)| {
        Atom::new(
            &format!("p{arity}"),
            terms.into_iter().take(arity).collect(),
        )
    })
}

/// Strategy: a ground atom.
fn ground_atom() -> impl Strategy<Value = Atom> {
    (1usize..=3, prop::collection::vec(constant_name(), 3)).prop_map(|(arity, names)| {
        Atom::new(
            &format!("p{arity}"),
            names
                .into_iter()
                .take(arity)
                .map(|n| Term::constant(&n))
                .collect(),
        )
    })
}

proptest! {
    /// A most general unifier really unifies: applying it to both atoms gives
    /// syntactically equal atoms.
    #[test]
    fn mgu_unifies(a in atom(), b in atom()) {
        if let Some(mgu) = unify::unify_atoms(&a, &b) {
            prop_assert_eq!(mgu.apply_atom_deep(&a), mgu.apply_atom_deep(&b));
        }
    }

    /// Unification is symmetric in *existence*: a unifier for (a, b) exists
    /// iff one exists for (b, a).
    #[test]
    fn unifiability_is_symmetric(a in atom(), b in atom()) {
        prop_assert_eq!(
            unify::unify_atoms(&a, &b).is_some(),
            unify::unify_atoms(&b, &a).is_some()
        );
    }

    /// Substitution composition law: (s1 ∘ s2)(t) = s2(s1(t)) for single-level
    /// substitutions produced from bindings to ground terms.
    #[test]
    fn substitution_composition(
        bindings1 in prop::collection::vec((variable_name(), constant_name()), 0..4),
        bindings2 in prop::collection::vec((variable_name(), constant_name()), 0..4),
        t in term(),
    ) {
        let s1 = Substitution::from_bindings(
            bindings1.into_iter().map(|(v, c)| (Variable::new(&v), Term::constant(&c))),
        );
        let s2 = Substitution::from_bindings(
            bindings2.into_iter().map(|(v, c)| (Variable::new(&v), Term::constant(&c))),
        );
        let composed = s1.compose(&s2);
        prop_assert_eq!(composed.apply_term(t), s2.apply_term(s1.apply_term(t)));
    }

    /// Freezing a query body yields a ground instance of the same size (up to
    /// duplicate atoms).
    #[test]
    fn freezing_grounds_atoms(atoms in prop::collection::vec(atom(), 1..5)) {
        let frozen = unify::freeze_atoms(&atoms);
        prop_assert!(frozen.atoms().all(|a| a.is_ground()));
        prop_assert!(frozen.len() <= atoms.len());
    }

    /// Every query is contained in itself, and containment is reflexive under
    /// variable renaming.
    #[test]
    fn containment_is_reflexive(atoms in prop::collection::vec(atom(), 1..4)) {
        let vars = ontorew_model::atom::variables_of(&atoms);
        let answer = vars.first().copied().into_iter().collect::<Vec<_>>();
        let q = ConjunctiveQuery::new(answer, atoms);
        prop_assert!(unify::is_contained_in(&q, &q));
        prop_assert!(unify::is_contained_in(&q.freshen(), &q));
    }

    /// Minimization preserves equivalence and never grows the body.
    #[test]
    fn minimization_preserves_equivalence(atoms in prop::collection::vec(atom(), 1..4)) {
        let q = ConjunctiveQuery::boolean(atoms);
        let m = unify::minimize(&q);
        prop_assert!(m.body.len() <= q.body.len());
        prop_assert!(unify::are_equivalent(&q, &m));
    }

    /// The instance insert/contains contract: everything inserted is found,
    /// and the size equals the number of distinct atoms.
    #[test]
    fn instance_round_trip(facts in prop::collection::vec(ground_atom(), 0..20)) {
        let instance: Instance = facts.clone().into_iter().collect();
        for f in &facts {
            prop_assert!(instance.contains(f));
        }
        let distinct: std::collections::BTreeSet<_> = facts.into_iter().collect();
        prop_assert_eq!(instance.len(), distinct.len());
    }

    /// The chase of a Datalog (full) program is a model of the program and a
    /// superset of the input.
    #[test]
    fn chase_of_full_programs_is_a_model(facts in prop::collection::vec(ground_atom(), 1..15)) {
        let program = parse_program(
            "[R1] p2(X, Y) -> p1(X).\n\
             [R2] p3(X, Y, Z) -> p2(X, Z).\n\
             [R3] p2(X, Y) -> p2(Y, X).",
        ).unwrap();
        let data: Instance = facts.into_iter().collect();
        let result = chase(&program, &data, &ChaseConfig::default());
        prop_assert!(result.is_universal_model());
        prop_assert!(result.instance.contains_instance(&data));
        prop_assert!(ontorew_chase::is_model(&program, &result.instance));
    }

    /// Parser round-trip: rendering a parsed program and re-parsing it yields
    /// a program of the same shape.
    #[test]
    fn parser_round_trip(n_rules in 1usize..5) {
        // Build a small random-ish but valid program text.
        let mut text = String::new();
        for i in 0..n_rules {
            text.push_str(&format!("[T{i}] p2(X, Y), p1(Y) -> p2(Y, Z{i}).\n"));
        }
        let parsed = parse_program(&text).unwrap();
        let reparsed = parse_program(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed.len(), reparsed.len());
        prop_assert_eq!(parsed.total_atoms(), reparsed.total_atoms());
    }

    /// Rewriting soundness on the linear chain family: for every chain length
    /// and every fact position, the rewriting-based answer equals the
    /// chase-based certain answer.
    #[test]
    fn chain_rewriting_matches_chase(n in 1usize..6, seed_level in 0usize..6) {
        let level = seed_level.min(n);
        let program = ontorew::workloads::chain_program(n);
        let query = parse_query(&format!("q(X) :- p{n}(X)")).unwrap();
        let mut data = Instance::new();
        data.insert_fact(&format!("p{level}"), &["v"]);
        let rewriting = answer_by_rewriting(&program, &query, &data, &RewriteConfig::default());
        let chase_answers = certain_answers(&program, &data, &query, &ChaseConfig::default());
        prop_assert!(rewriting.is_exact());
        prop_assert!(chase_answers.complete);
        prop_assert_eq!(rewriting.answers.len(), chase_answers.answers.len());
    }

    /// SWR membership is invariant under rule reordering (it is a property of
    /// the *set* of TGDs).
    #[test]
    fn swr_is_order_invariant(shuffle_seed in 0u64..32) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let program = ontorew::core::examples::example1();
        let mut rules: Vec<_> = program.rules().to_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        rules.shuffle(&mut rng);
        let shuffled = TgdProgram::from_rules(rules);
        prop_assert_eq!(
            ontorew::core::is_swr(&program),
            ontorew::core::is_swr(&shuffled)
        );
    }
}
