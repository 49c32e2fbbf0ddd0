//! Property-based agreement tests for the planner.
//!
//! On weakly-acyclic (and FO-rewritable) workloads *both* strategies are
//! complete, so whatever plan the planner chooses, the answers must be
//! identical to both a forced chase plan and a forced rewriting plan — and
//! every path must report exactness. The materialization the chase plan
//! evaluates over must be the chase of the data up to null renaming.

use ontorew_chase::{chase, equivalent_up_to_null_renaming, ChaseConfig};
use ontorew_model::prelude::*;
use ontorew_plan::{PlanKind, Planner, PlannerConfig};
use proptest::prelude::*;

/// One generated rule of the linear, weakly-acyclic family: subclass edges,
/// role-domain typing, and existential role invention. Role *range* rules
/// are deliberately absent — they would re-introduce the DL-Lite ancestor
/// cycle and break weak acyclicity.
#[derive(Clone, Debug)]
enum RuleSpec {
    /// `c<i>(X) -> c<j>(X)`
    Subclass(usize, usize),
    /// `r<i>(X, Y) -> c<j>(X)`
    RoleDomain(usize, usize),
    /// `c<i>(X) -> r<j>(X, Y)`
    Existential(usize, usize),
}

const CLASSES: usize = 6;
const ROLES: usize = 3;

fn rule_strategy() -> impl Strategy<Value = RuleSpec> {
    prop_oneof![
        (0..CLASSES, 0..CLASSES).prop_map(|(i, j)| RuleSpec::Subclass(i, j)),
        (0..ROLES, 0..CLASSES).prop_map(|(i, j)| RuleSpec::RoleDomain(i, j)),
        (0..CLASSES, 0..ROLES).prop_map(|(i, j)| RuleSpec::Existential(i, j)),
    ]
}

fn program_of(specs: &[RuleSpec]) -> TgdProgram {
    let mut text = String::new();
    for (n, spec) in specs.iter().enumerate() {
        match spec {
            RuleSpec::Subclass(i, j) if i != j => {
                text.push_str(&format!("[S{n}] c{i}(X) -> c{j}(X).\n"));
            }
            RuleSpec::Subclass(..) => {} // c -> c is a tautology; skip
            RuleSpec::RoleDomain(i, j) => {
                text.push_str(&format!("[D{n}] r{i}(X, Y) -> c{j}(X).\n"));
            }
            RuleSpec::Existential(i, j) => {
                text.push_str(&format!("[E{n}] c{i}(X) -> r{j}(X, Y).\n"));
            }
        }
    }
    if text.is_empty() {
        text.push_str("[S0] c1(X) -> c0(X).\n");
    }
    parse_program(&text).expect("generated program parses")
}

/// A random ABox over the generated signature.
fn facts_strategy() -> impl Strategy<Value = Vec<(String, Vec<String>)>> {
    let constants = || prop::sample::select(vec!["a", "b", "c", "d", "e"]);
    let class_fact =
        (0..CLASSES, constants()).prop_map(|(i, x)| (format!("c{i}"), vec![x.to_string()]));
    let role_fact = (0..ROLES, constants(), constants())
        .prop_map(|(i, x, y)| (format!("r{i}"), vec![x.to_string(), y.to_string()]));
    prop::collection::vec(prop_oneof![class_fact, role_fact], 1..12)
}

/// Queries over the signature: a class atom, a role atom, or a join.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    prop_oneof![
        (0..CLASSES).prop_map(|i| parse_query(&format!("q(X) :- c{i}(X)")).unwrap()),
        (0..ROLES).prop_map(|i| parse_query(&format!("q(X, Y) :- r{i}(X, Y)")).unwrap()),
        (0..CLASSES, 0..ROLES)
            .prop_map(|(i, j)| { parse_query(&format!("q(X) :- c{i}(X), r{j}(X, Y)")).unwrap() }),
    ]
}

fn store_of(facts: &[(String, Vec<String>)]) -> Instance {
    let mut store = Instance::new();
    for (p, args) in facts {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        store.insert_fact(p, &refs);
    }
    store
}

proptest! {
    /// The planner-chosen plan, a forced chase and a forced rewriting agree
    /// on every weakly-acyclic workload, and all three claim exactness.
    #[test]
    fn planner_and_forced_strategies_agree(
        specs in prop::collection::vec(rule_strategy(), 1..12),
        facts in facts_strategy(),
        query in query_strategy(),
    ) {
        let program = program_of(&specs);
        let planner = Planner::new(program.clone());
        // The generated family is linear (FO-rewritable) and weakly acyclic.
        prop_assert!(planner.classification().fo_rewritable());
        prop_assert!(planner.classification().chase_terminates());

        let store = store_of(&facts);
        let chosen = planner.prepare(&query).execute(&store);
        let by_chase = planner.prepare_forced(&query, PlanKind::Chase).unwrap().execute(&store);
        let by_rewriting = planner.prepare_forced(&query, PlanKind::Rewrite).unwrap().execute(&store);

        prop_assert!(chosen.is_exact());
        prop_assert!(by_chase.is_exact());
        prop_assert!(by_rewriting.is_exact());
        prop_assert!(
            chosen.answers.iter().eq(by_chase.answers.iter()),
            "chosen {:?} vs chase {:?} on {query}",
            chosen.answers, by_chase.answers
        );
        prop_assert!(
            chosen.answers.iter().eq(by_rewriting.answers.iter()),
            "chosen {:?} vs rewriting {:?} on {query}",
            chosen.answers, by_rewriting.answers
        );
    }

    /// Interleaved commit/query schedules: batches are committed with their
    /// delta edges recorded (as the serving layer does), queries run at
    /// random points in between, and every query's answers must equal a
    /// scratch evaluation of the same store by a fresh planner — whether
    /// the materialization behind it was chased from scratch, found cached,
    /// or composed incrementally over one or many recorded batches.
    #[test]
    fn interleaved_commits_and_queries_match_scratch(
        specs in prop::collection::vec(rule_strategy(), 1..10),
        batches in prop::collection::vec(facts_strategy(), 1..5),
        query_after in prop::collection::vec(prop::sample::select(vec![false, true]), 1..5),
        query in query_strategy(),
    ) {
        let program = program_of(&specs);
        let planner = Planner::new(program.clone());
        let prepared = planner.prepare(&query);
        let mut store = Instance::new();
        let mut version = 0u64;
        // Version 0 starts materialized (the serving layer's epoch 0 state).
        let _ = prepared.execute_versioned(&store, version);
        for (i, batch) in batches.iter().enumerate() {
            let atoms: Vec<Atom> = batch
                .iter()
                .map(|(p, args)| {
                    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                    Atom::fact(p, &refs)
                })
                .collect();
            for atom in &atoms {
                store.insert(atom.clone());
            }
            planner.record_delta(version, version + 1, &atoms, store.len());
            version += 1;
            if *query_after.get(i).unwrap_or(&false) {
                let served = prepared.execute_versioned(&store, version);
                let scratch = Planner::new(program.clone()).prepare(&query).execute(&store);
                prop_assert!(served.is_exact());
                prop_assert!(
                    served.answers.iter().eq(scratch.answers.iter()),
                    "interleaved answers diverge at version {version}: {:?} vs {:?}",
                    served.answers,
                    scratch.answers
                );
            }
        }
        // Final barrier query: always compared, regardless of the schedule.
        let served = prepared.execute_versioned(&store, version);
        let scratch = Planner::new(program.clone()).prepare(&query).execute(&store);
        prop_assert!(served.answers.iter().eq(scratch.answers.iter()));
        // The materialization at the final version (cached by a chase-plan
        // execution, or composed now over the recorded edges — hybrid plans
        // may have answered everything by rewriting) agrees with a
        // reference chase of the accumulated store.
        let (materialization, _cached) = planner.materialize(&store, Some(version));
        let reference = chase(&program, &store, &ChaseConfig::default());
        prop_assert!(materialization.complete);
        // Certain answers of the materialization equal the reference chase
        // (the instances themselves may differ in restricted-chase
        // witnesses, so the comparison is at the answer level).
        let from_cache = ontorew_storage::evaluate_cq(materialization.instance(), &query)
            .without_nulls();
        let from_reference = ontorew_storage::evaluate_cq(
            &reference.instance,
            &query,
        )
        .without_nulls();
        prop_assert_eq!(from_cache, from_reference);
    }

    /// Mixed INSERT/DELETE/QUERY schedules against the scratch-rechase
    /// oracle: batches are committed (or retracted) with their kinded delta
    /// edges recorded exactly as the serving layer does, queries run at
    /// random points in between, and every query's answers must equal a
    /// fresh planner's scratch evaluation of the same store — whether the
    /// materialization behind the versioned path was chased from scratch,
    /// found cached, extended incrementally, or repaired by DRed over the
    /// derivation graph.
    #[test]
    fn interleaved_inserts_deletes_and_queries_match_scratch(
        specs in prop::collection::vec(rule_strategy(), 1..10),
        ops in prop::collection::vec(
            (
                prop::sample::select(vec![false, true]),
                facts_strategy(),
                prop::sample::select(vec![false, true]),
            ),
            1..6,
        ),
        query in query_strategy(),
    ) {
        let program = program_of(&specs);
        // The serving layer's configuration: provenance on, so delete edges
        // can be repaired by DRed instead of forcing a scratch re-chase.
        let planner = Planner::with_config(
            program.clone(),
            PlannerConfig {
                chase: ChaseConfig::default().with_provenance(true),
                ..PlannerConfig::default()
            },
        );
        let prepared = planner.prepare(&query);
        let mut store = Instance::new();
        let mut version = 0u64;
        // Version 0 starts materialized (the serving layer's epoch 0 state).
        let _ = prepared.execute_versioned(&store, version);
        for (is_delete, batch, query_after) in &ops {
            let atoms: Vec<Atom> = batch
                .iter()
                .map(|(p, args)| {
                    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                    Atom::fact(p, &refs)
                })
                .collect();
            if *is_delete {
                // Retract the batch (absent facts are no-ops, like the
                // service); the delete edge is recorded either way.
                for atom in &atoms {
                    store.remove(atom);
                }
                planner.record_retraction(version, version + 1, &atoms, store.len());
            } else {
                for atom in &atoms {
                    store.insert(atom.clone());
                }
                planner.record_delta(version, version + 1, &atoms, store.len());
            }
            version += 1;
            if *query_after {
                let served = prepared.execute_versioned(&store, version);
                let scratch = Planner::new(program.clone()).prepare(&query).execute(&store);
                prop_assert!(served.is_exact());
                prop_assert!(
                    served.answers.iter().eq(scratch.answers.iter()),
                    "mixed-schedule answers diverge at version {version}: {:?} vs {:?}",
                    served.answers,
                    scratch.answers
                );
            }
        }
        // Final barrier: always compared, and the materialization behind the
        // final version must agree with a reference chase of the surviving
        // store at the certain-answer level.
        let served = prepared.execute_versioned(&store, version);
        let scratch = Planner::new(program.clone()).prepare(&query).execute(&store);
        prop_assert!(
            served.answers.iter().eq(scratch.answers.iter()),
            "final answers diverge: {:?} vs {:?}",
            served.answers,
            scratch.answers
        );
        let (materialization, _cached) = planner.materialize(&store, Some(version));
        prop_assert!(materialization.complete);
        let reference = chase(&program, &store, &ChaseConfig::default());
        let from_cache = ontorew_storage::evaluate_cq(materialization.instance(), &query)
            .without_nulls();
        let from_reference = ontorew_storage::evaluate_cq(
            &reference.instance,
            &query,
        )
        .without_nulls();
        prop_assert_eq!(from_cache, from_reference);
    }

    /// The planner's cached materialization is the chase of the data, up to
    /// null renaming.
    #[test]
    fn materialization_is_the_chase_up_to_null_renaming(
        specs in prop::collection::vec(rule_strategy(), 1..10),
        facts in facts_strategy(),
    ) {
        let program = program_of(&specs);
        let planner = Planner::new(program.clone());
        let store = store_of(&facts);
        let (materialization, cached) = planner.materialize(&store, Some(1));
        prop_assert!(!cached);
        prop_assert!(materialization.complete);
        let reference = chase(&program, &store, &ChaseConfig::default());
        prop_assert!(equivalent_up_to_null_renaming(
            materialization.instance(),
            &reference.instance,
        ));
        // And the version cache returns the same artifact.
        let (again, cached) = planner.materialize(&store, Some(1));
        prop_assert!(cached);
        prop_assert!(std::sync::Arc::ptr_eq(&materialization, &again));
    }
}
