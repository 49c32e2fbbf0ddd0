//! Cross-crate integration tests for the workload suites, the extended class
//! landscape, constraint checking and the instrumented evaluator.

use ontorew::core::{classify, ExtendedOntology};
use ontorew::model::{parse_query, Instance};
use ontorew::obda::{
    check_constraints, cross_check, ConstraintSet, Egd, NegativeConstraint, ObdaSystem, Strategy,
};
use ontorew::rewrite::{rewrite, RewriteConfig};
use ontorew::storage::{evaluate_cq_instrumented, EvalConfig, StoreStatistics};
use ontorew::workloads::{
    lubm_style_abox, lubm_style_ontology, lubm_style_queries, sensor_network_abox,
    sensor_network_ontology, sensor_network_queries, supply_chain_abox, supply_chain_ontology,
};

#[test]
fn lubm_suite_is_fo_rewritable_and_both_strategies_agree() {
    let ontology = lubm_style_ontology();
    let report = classify(&ontology);
    assert!(report.linear);
    assert!(report.swr.is_swr);
    assert!(report.fo_rewritable());

    let system = ObdaSystem::new(ontology, lubm_style_abox(80, 8, 16, 5));
    for query in lubm_style_queries() {
        let check = cross_check(&system, &query);
        assert!(check.is_consistent(), "query {query}: {check:?}");
    }
}

#[test]
fn sensor_suite_is_swr_despite_joins() {
    let ontology = sensor_network_ontology();
    let report = classify(&ontology);
    assert!(!report.linear, "the sensor suite has join rules");
    assert!(report.swr.is_swr);
    assert!(report.fo_rewritable());

    let system = ObdaSystem::new(ontology, sensor_network_abox(30, 6, 500, 9));
    for query in sensor_network_queries() {
        let result = system.answer(&query, Strategy::Auto);
        assert!(result.exact, "query {query} should be answered exactly");
        let check = cross_check(&system, &query);
        assert!(check.is_consistent(), "query {query}: {check:?}");
    }
}

#[test]
fn sensor_queries_have_terminating_rewritings() {
    let ontology = sensor_network_ontology();
    for query in sensor_network_queries() {
        let rewriting = rewrite(&ontology, &query, &RewriteConfig::default());
        assert!(rewriting.complete, "rewriting of {query} must terminate");
        assert!(!rewriting.ucq.is_empty());
    }
}

#[test]
fn supply_chain_suite_requires_a_fallback_strategy() {
    let ontology = supply_chain_ontology();
    let report = classify(&ontology);
    assert!(
        !report.fo_rewritable(),
        "the transitive part-of rule must not be certified FO-rewritable: {:?}",
        report.member_classes()
    );

    // The bounded rewriting is sound: everything it finds is also found by
    // the chase (run on the same data).
    let data = supply_chain_abox(60, 2);
    let system = ObdaSystem::new(ontology, data);
    let query = parse_query("q(X) :- component(X)").unwrap();
    let by_rewriting = system.answer(&query, Strategy::Rewriting);
    let by_chase = system.answer(&query, Strategy::Materialization);
    for row in by_rewriting.answers.iter() {
        assert!(
            by_chase.answers.contains(row),
            "unsound rewriting answer {row:?}"
        );
    }
}

#[test]
fn constraint_checking_over_the_lubm_suite() {
    let ontology = lubm_style_ontology();
    let mut data = lubm_style_abox(40, 4, 8, 11);
    let system = ObdaSystem::new(ontology.clone(), data.clone());

    // Students and professors both become persons, but nothing forces an
    // individual into both roles in the generated data.
    let mut constraints = ConstraintSet::new();
    constraints.push_nc(NegativeConstraint::parse("student(X), professor(X)").unwrap());
    constraints.push_egd(Egd::functional("worksFor"));
    let report = check_constraints(&system, &constraints, Strategy::Auto);
    assert!(
        report.is_consistent(),
        "violations: {:?}",
        report.violations
    );

    // Injecting a conflicting assertion is detected through inference
    // (graduateStudent ⊑ student, fullProfessor ⊑ professor).
    data.insert_fact("graduateStudent", &["prof0"]);
    let dirty = ObdaSystem::new(ontology, data);
    let report = check_constraints(&dirty, &constraints, Strategy::Auto);
    assert!(!report.is_consistent());
}

#[test]
fn extended_dl_ontologies_classify_and_answer_end_to_end() {
    let ontology = ExtendedOntology::new()
        .subclass("robot", "device")
        .some_values("robot", "controlledBy", "controller")
        .some_values_domain("maintains", "robot", "technician")
        .role_chain("controlledBy", "locatedIn", "operatesIn")
        .to_tgds();
    let report = classify(&ontology);
    assert!(
        report.fo_rewritable(),
        "classes: {:?}",
        report.member_classes()
    );

    let mut data = Instance::new();
    data.insert_fact("robot", &["r2"]);
    data.insert_fact("maintains", &["mika", "r2"]);
    let system = ObdaSystem::new(ontology, data);
    let technicians = system.answer(
        &parse_query("q(X) :- technician(X)").unwrap(),
        Strategy::Auto,
    );
    assert!(technicians.answers.contains_constants(&["mika"]));
    let devices = system.answer(&parse_query("q(X) :- device(X)").unwrap(), Strategy::Auto);
    assert!(devices.answers.contains_constants(&["r2"]));
}

#[test]
fn instrumented_evaluation_matches_default_evaluation_on_suite_queries() {
    let ontology = sensor_network_ontology();
    let store = sensor_network_abox(25, 5, 400, 13);
    let stats = StoreStatistics::collect(&store);
    for query in sensor_network_queries() {
        let rewriting = rewrite(&ontology, &query, &RewriteConfig::default());
        for disjunct in rewriting.ucq.iter() {
            let baseline = ontorew::storage::evaluate_cq(&store, disjunct);
            for config in [
                EvalConfig {
                    reorder_atoms: false,
                    use_indexes: false,
                    ..EvalConfig::default()
                },
                EvalConfig {
                    statistics: Some(&stats),
                    ..EvalConfig::default()
                },
            ] {
                let (answers, counters) = evaluate_cq_instrumented(&store, disjunct, &config);
                assert_eq!(answers, baseline, "config {config:?} on {disjunct}");
                assert_eq!(counters.atoms, disjunct.len());
            }
        }
    }
}
