//! Property-based tests for the chase: universal-model properties, variant
//! agreement, and monotonicity of certain answers.

use ontorew_chase::{
    certain_answers, chase, chase_incremental, chase_retract, equivalent_up_to_null_renaming,
    homomorphically_equivalent, is_model, is_weakly_acyclic, ChaseConfig, ChaseStrategy,
    ChaseVariant,
};
use ontorew_model::prelude::*;
use ontorew_workloads::{random_abox, random_program, AboxConfig, RandomProgramConfig};
use proptest::prelude::*;

fn constant() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(String::from)
}

/// Random databases over the signature used by the fixed test programs.
fn database_strategy() -> impl Strategy<Value = Instance> {
    prop::collection::vec(
        prop_oneof![
            (constant(), constant()).prop_map(|(x, y)| Atom::fact("edge", &[&x, &y])),
            constant().prop_map(|x| Atom::fact("person", &[&x])),
            (constant(), constant()).prop_map(|(x, y)| Atom::fact("hasParent", &[&x, &y])),
        ],
        0..15,
    )
    .prop_map(Instance::from_atoms)
}

/// A Datalog (full) program: always terminates.
fn full_program() -> TgdProgram {
    parse_program(
        "[R1] edge(X, Y) -> path(X, Y).\n\
         [R2] path(X, Y), edge(Y, Z) -> path(X, Z).\n\
         [R3] hasParent(X, Y) -> person(X).\n\
         [R4] hasParent(X, Y) -> person(Y).",
    )
    .unwrap()
}

/// A weakly-acyclic existential program: terminates on every database.
fn weakly_acyclic_program() -> TgdProgram {
    parse_program(
        "[R1] person(X) -> hasId(X, I).\n\
         [R2] hasId(X, I) -> identifier(I).",
    )
    .unwrap()
}

proptest! {
    /// The semi-naive (default) and naive chase engines produce the same
    /// instance up to null renaming, the same statistics, and the same
    /// certain answers on random simple programs over random databases.
    ///
    /// Random simple programs can diverge, so both engines run under the
    /// same *round* budget (never the fact budget, whose mid-round cut
    /// depends on firing order): after the same number of breadth-first
    /// rounds, the delta invariant says the fired trigger sets coincide.
    #[test]
    fn semi_naive_chase_matches_naive_chase(
        program_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
        oblivious in prop::sample::select(vec![false, true]),
    ) {
        let program = random_program(&RandomProgramConfig {
            rules: 6,
            predicates: 5,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed: program_seed,
        });
        let db = random_abox(&program, &AboxConfig {
            facts: 10,
            constants: 5,
            seed: data_seed,
        });
        let base = if oblivious {
            ChaseConfig::oblivious(4)
        } else {
            ChaseConfig::restricted(4)
        };
        let semi = chase(&program, &db, &base);
        let naive = chase(&program, &db, &base.with_strategy(ChaseStrategy::Naive));

        prop_assert_eq!(semi.outcome, naive.outcome);
        prop_assert_eq!(semi.rounds, naive.rounds);
        prop_assert_eq!(semi.fired, naive.fired);
        prop_assert!(
            equivalent_up_to_null_renaming(&semi.instance, &naive.instance),
            "instances differ beyond null renaming:\n{:?}\nvs\n{:?}",
            semi.instance,
            naive.instance
        );

        // Certain answers agree for an atomic query over every predicate.
        for predicate in program.predicates() {
            let vars: Vec<Variable> = (0..predicate.arity)
                .map(|i| Variable::new(&format!("X{i}")))
                .collect();
            let body = vec![Atom::from_predicate(
                predicate,
                vars.iter().map(|v| Term::Variable(*v)).collect(),
            )];
            let query = ConjunctiveQuery::new(vars, body);
            let semi_answers = certain_answers(&program, &db, &query, &base);
            let naive_answers = certain_answers(
                &program,
                &db,
                &query,
                &base.with_strategy(ChaseStrategy::Naive),
            );
            prop_assert_eq!(&semi_answers.answers, &naive_answers.answers,
                "certain answers differ for {}", predicate);
            prop_assert_eq!(semi_answers.complete, naive_answers.complete);
        }
    }

    /// The chase of a full program is a model containing the input, and both
    /// chase variants coincide on it (no nulls are ever invented).
    #[test]
    fn full_program_chase_is_a_minimal_model(db in database_strategy()) {
        let program = full_program();
        let restricted = chase(&program, &db, &ChaseConfig::default());
        let oblivious = chase(&program, &db, &ChaseConfig::oblivious(64));
        prop_assert!(restricted.is_universal_model());
        prop_assert!(oblivious.is_universal_model());
        prop_assert!(restricted.instance.contains_instance(&db));
        prop_assert!(is_model(&program, &restricted.instance));
        prop_assert!(restricted.instance.is_null_free());
        prop_assert_eq!(restricted.instance.clone(), oblivious.instance);
    }

    /// On weakly-acyclic programs the chase terminates and produces a model;
    /// the restricted chase never produces more facts than the semi-oblivious
    /// one.
    #[test]
    fn weakly_acyclic_chase_terminates(db in database_strategy()) {
        let program = weakly_acyclic_program();
        prop_assert!(is_weakly_acyclic(&program));
        let restricted = chase(&program, &db, &ChaseConfig::default());
        let oblivious = chase(&program, &db, &ChaseConfig::oblivious(64));
        prop_assert!(restricted.is_universal_model());
        prop_assert!(oblivious.is_universal_model());
        prop_assert!(is_model(&program, &restricted.instance));
        prop_assert!(restricted.instance.len() <= oblivious.instance.len());
    }

    /// Certain answers are monotone in the database.
    #[test]
    fn certain_answers_are_monotone(db in database_strategy(), extra in database_strategy()) {
        let program = full_program();
        let query = parse_query("q(X, Y) :- path(X, Y)").unwrap();
        let small = certain_answers(&program, &db, &query, &ChaseConfig::default());
        let mut bigger = db.clone();
        bigger.extend_from(&extra);
        let large = certain_answers(&program, &bigger, &query, &ChaseConfig::default());
        prop_assert!(small.complete && large.complete);
        for row in small.answers.iter() {
            prop_assert!(large.answers.contains(row));
        }
    }

    /// Null-free facts of the chased instance over the *input* signature that
    /// were not in the input are genuine consequences: re-chasing from the
    /// enlarged database is a fixpoint.
    #[test]
    fn chase_is_idempotent(db in database_strategy()) {
        let program = full_program();
        let first = chase(&program, &db, &ChaseConfig::default());
        let second = chase(&program, &first.instance, &ChaseConfig::default());
        prop_assert_eq!(first.instance, second.instance);
        prop_assert_eq!(second.fired, 0);
    }

    /// Incremental continuation vs scratch chase of the merged database, on
    /// random programs and random (base, delta) splits.
    ///
    /// Under the **semi-oblivious** variant firing is determined per
    /// (rule, frontier image), so whenever both runs reach a fixpoint the
    /// incremental result must equal the scratch result up to null
    /// renaming. Under the **restricted** variant the continuation may keep
    /// extra witnesses (the base fired before the delta could satisfy a
    /// head), but it must still be a model containing the merged database
    /// with identical certain answers for every predicate.
    #[test]
    fn incremental_chase_matches_scratch(
        program_seed in 0u64..500,
        base_seed in 0u64..500,
        delta_seed in 500u64..1_000,
        oblivious in prop::sample::select(vec![false, true]),
    ) {
        let program = random_program(&RandomProgramConfig {
            rules: 5,
            predicates: 5,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed: program_seed,
        });
        let base_db = random_abox(&program, &AboxConfig {
            facts: 8,
            constants: 5,
            seed: base_seed,
        });
        let delta = random_abox(&program, &AboxConfig {
            facts: 4,
            constants: 5,
            seed: delta_seed,
        });
        // Random simple programs can diverge (and the oblivious variant can
        // explode doubly so): tight round and fact budgets keep divergent
        // draws cheap — equivalence is only claimed at fixpoints anyway.
        let config = if oblivious {
            ChaseConfig::oblivious(5).with_max_facts(2_000)
        } else {
            ChaseConfig::restricted(5).with_max_facts(2_000)
        };
        let base = chase(&program, &base_db, &config);
        let mut merged = base_db.clone();
        merged.extend_from(&delta);
        let scratch = chase(&program, &merged, &config);
        let incremental = chase_incremental(&program, &base, &delta, &config);
        // Random simple programs can diverge; equivalence is only claimed
        // at fixpoints.
        prop_assume!(base.is_universal_model());
        prop_assume!(scratch.is_universal_model());
        prop_assume!(incremental.result.is_universal_model());

        prop_assert!(incremental.result.instance.contains_instance(&merged));
        prop_assert!(is_model(&program, &incremental.result.instance));
        // `added` is exactly the difference to the base instance.
        for atom in incremental.added.atoms() {
            prop_assert!(!base.instance.contains(&atom));
            prop_assert!(incremental.result.instance.contains(&atom));
        }
        prop_assert_eq!(
            incremental.result.instance.len(),
            base.instance.len() + incremental.added.len()
        );
        if oblivious {
            prop_assert!(
                equivalent_up_to_null_renaming(&incremental.result.instance, &scratch.instance),
                "oblivious incremental differs beyond null renaming:\n{:?}\nvs\n{:?}",
                incremental.result.instance,
                scratch.instance
            );
        }
        // Certain answers agree for an atomic query over every predicate.
        for predicate in program.predicates() {
            let vars: Vec<Variable> = (0..predicate.arity)
                .map(|i| Variable::new(&format!("X{i}")))
                .collect();
            let body = vec![Atom::from_predicate(
                predicate,
                vars.iter().map(|v| Term::Variable(*v)).collect(),
            )];
            let query = ConjunctiveQuery::new(vars, body);
            let from_scratch = certain_answers(&program, &merged, &query, &config);
            let store = ontorew_storage::RelationalStore::from_instance(
                &incremental.result.instance,
            );
            let from_incremental =
                ontorew_storage::evaluate_cq(&store, &query).without_nulls();
            prop_assert_eq!(
                &from_incremental, &from_scratch.answers,
                "certain answers differ for {}", predicate
            );
        }
    }

    /// `chase_retract` vs a scratch chase of (inputs − removed), on random
    /// programs, random databases, and random removal subsets.
    ///
    /// The promised equivalence depends on the configuration: under the
    /// **semi-oblivious** variant (firing determined per frontier image) and
    /// for **Datalog** programs under either variant (unique minimal model)
    /// the retracted instance must equal the scratch chase up to null
    /// renaming. Under the **restricted** variant with existential rules the
    /// firing *order* is deletion-history dependent, so only homomorphic
    /// equivalence — and therefore identical certain answers, checked for an
    /// atomic query over every predicate — is promised.
    #[test]
    fn retraction_matches_scratch(
        program_seed in 0u64..500,
        data_seed in 0u64..500,
        removal_mask in 0u64..u64::MAX,
        oblivious in prop::sample::select(vec![false, true]),
    ) {
        let program = random_program(&RandomProgramConfig {
            rules: 5,
            predicates: 5,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed: program_seed,
        });
        let db = random_abox(&program, &AboxConfig {
            facts: 10,
            constants: 5,
            seed: data_seed,
        });
        let config = if oblivious {
            ChaseConfig::oblivious(5)
        } else {
            ChaseConfig::restricted(5)
        }
        .with_max_facts(2_000)
        .with_provenance(true);
        let base = chase(&program, &db, &config);
        prop_assume!(base.is_universal_model());

        let atoms: Vec<Atom> = db.atoms().collect();
        let removed = Instance::from_atoms(
            atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| removal_mask >> (i % 64) & 1 == 1)
                .map(|(_, a)| a.clone()),
        );
        let survivors =
            Instance::from_atoms(atoms.iter().filter(|a| !removed.contains(a)).cloned());

        let retracted = chase_retract(&program, &base, &removed, &config);
        let oracle = chase(&program, &survivors, &config);
        prop_assume!(retracted.result.is_universal_model());
        prop_assume!(oracle.is_universal_model());

        prop_assert!(!retracted.scratch);
        prop_assert!(retracted.result.instance.contains_instance(&survivors));
        prop_assert!(is_model(&program, &retracted.result.instance));
        let datalog = program
            .iter()
            .all(|r| r.existential_head_variables().is_empty());
        if oblivious || datalog {
            prop_assert!(
                equivalent_up_to_null_renaming(&retracted.result.instance, &oracle.instance),
                "retraction differs beyond null renaming:\n{:?}\nvs\n{:?}",
                retracted.result.instance,
                oracle.instance
            );
        } else {
            prop_assert!(
                homomorphically_equivalent(&retracted.result.instance, &oracle.instance),
                "retraction not homomorphically equivalent to scratch:\n{:?}\nvs\n{:?}",
                retracted.result.instance,
                oracle.instance
            );
        }
        // Certain answers agree for an atomic query over every predicate.
        for predicate in program.predicates() {
            let vars: Vec<Variable> = (0..predicate.arity)
                .map(|i| Variable::new(&format!("X{i}")))
                .collect();
            let body = vec![Atom::from_predicate(
                predicate,
                vars.iter().map(|v| Term::Variable(*v)).collect(),
            )];
            let query = ConjunctiveQuery::new(vars, body);
            let from_scratch = certain_answers(&program, &survivors, &query, &config);
            let store = ontorew_storage::RelationalStore::from_instance(
                &retracted.result.instance,
            );
            let from_retracted =
                ontorew_storage::evaluate_cq(&store, &query).without_nulls();
            prop_assert_eq!(
                &from_retracted, &from_scratch.answers,
                "certain answers differ for {}", predicate
            );
        }
    }

    /// Random *chains* of 1–6 alternating insert/delete batches replayed
    /// through `chase_incremental` / `chase_retract` vs one scratch
    /// provenance chase of the final base set — the layered graph's
    /// end-to-end contract: overlays, merges and re-elected supports of one
    /// stage are what the next stage walks. Checked at fixpoints, under both
    /// variants: the instances agree (up to null renaming where firing is
    /// history independent, homomorphically otherwise), every live fact has
    /// a `why`, and the graph's live counters match the model and the base
    /// set. Every stage is also checked for **persistence**: continuing from
    /// a state must leave that state's instance, counters and explanations
    /// exactly as they were.
    #[test]
    fn insert_delete_chains_match_scratch_and_leave_their_bases_intact(
        program_seed in 0u64..500,
        data_seed in 0u64..500,
        stages in 1usize..7,
        insert_first in prop::sample::select(vec![false, true]),
        removal_mask in 0u64..u64::MAX,
        oblivious in prop::sample::select(vec![false, true]),
        existential_probability in prop::sample::select(vec![0.0, 0.3]),
    ) {
        let program = random_program(&RandomProgramConfig {
            rules: 5,
            predicates: 5,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability,
            seed: program_seed,
        });
        let mut asserted = random_abox(&program, &AboxConfig {
            facts: 8,
            constants: 5,
            seed: data_seed,
        });
        let config = if oblivious {
            ChaseConfig::oblivious(5)
        } else {
            ChaseConfig::restricted(5)
        }
        .with_max_facts(2_000)
        .with_provenance(true);
        let mut state = chase(&program, &asserted, &config);
        prop_assume!(state.is_universal_model());

        // What a state looks like from outside: model, counters, and the
        // full explanation of every fact.
        let fingerprint = |state: &ontorew_chase::ChaseResult| {
            let graph = state.provenance.as_ref().expect("provenance recorded");
            let mut whys: Vec<String> = state
                .instance
                .atoms()
                .map(|atom| format!("{atom}: {:?}", graph.why(&atom)))
                .collect();
            whys.sort();
            (
                state.instance.clone(),
                graph.node_count(),
                graph.edge_count(),
                graph.base_fact_count(),
                whys,
            )
        };

        for stage in 0..stages {
            let before = fingerprint(&state);
            let insert = (stage % 2 == 0) == insert_first;
            let next = if insert {
                let delta = random_abox(&program, &AboxConfig {
                    facts: 3,
                    constants: 5,
                    seed: data_seed + 1_000 * (stage as u64 + 1),
                });
                asserted.extend_from(&delta);
                chase_incremental(&program, &state, &delta, &config).result
            } else {
                let removed = Instance::from_atoms(
                    asserted
                        .atoms()
                        .enumerate()
                        .filter(|(i, _)| removal_mask >> ((i + 7 * stage) % 64) & 1 == 1)
                        .map(|(_, atom)| atom),
                );
                asserted.remove_atoms(removed.atoms().collect::<Vec<_>>().iter());
                let retracted = chase_retract(&program, &state, &removed, &config);
                prop_assert!(!retracted.scratch);
                prop_assert_eq!(
                    retracted.result.instance.len() + retracted.removed,
                    state.instance.len() + retracted.added.len()
                );
                retracted.result
            };
            prop_assume!(next.is_universal_model());
            // Persistence: the continuation changed nothing its base can
            // see (these graphs are small enough for the freeze-time merge
            // to copy base layers — merging must not write into them).
            prop_assert_eq!(&fingerprint(&state), &before, "stage {} mutated its base", stage);
            state = next;
        }

        let oracle = chase(&program, &asserted, &config);
        prop_assume!(oracle.is_universal_model());
        prop_assert!(state.instance.contains_instance(&asserted));
        prop_assert!(is_model(&program, &state.instance));
        let datalog = program
            .iter()
            .all(|r| r.existential_head_variables().is_empty());
        if datalog || oblivious {
            prop_assert!(
                equivalent_up_to_null_renaming(&state.instance, &oracle.instance),
                "chain differs beyond null renaming:\n{:?}\nvs\n{:?}",
                state.instance,
                oracle.instance
            );
        } else {
            prop_assert!(
                homomorphically_equivalent(&state.instance, &oracle.instance),
                "chain not homomorphically equivalent to scratch:\n{:?}\nvs\n{:?}",
                state.instance,
                oracle.instance
            );
        }
        let graph = state.provenance.as_ref().unwrap();
        prop_assert_eq!(graph.node_count(), state.instance.len());
        prop_assert_eq!(graph.base_fact_count(), asserted.len());
        prop_assert_eq!(graph.base_facts().count(), asserted.len());
        prop_assert_eq!(graph.edges().count(), graph.edge_count());
        for atom in state.instance.atoms() {
            prop_assert!(graph.why(&atom).is_some(), "no why for {}", atom);
        }
        if datalog {
            let fresh = oracle.provenance.as_ref().unwrap();
            prop_assert_eq!(graph.edge_count(), fresh.edge_count());
        }
    }

    /// The trigger budget is respected.
    #[test]
    fn fact_budget_bounds_the_instance(db in database_strategy(), budget in 1usize..10) {
        let program = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        let config = ChaseConfig {
            variant: ChaseVariant::Restricted,
            max_rounds: 1_000,
            max_facts: budget,
            ..ChaseConfig::default()
        };
        let result = chase(&program, &db, &config);
        // The instance may exceed the budget only by the facts of the last
        // fired trigger (at most the largest head size, here 1).
        prop_assert!(result.instance.len() <= budget.max(db.len()) + 2);
    }
}
