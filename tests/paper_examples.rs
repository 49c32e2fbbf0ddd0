//! Integration tests: the paper's examples and figures, end to end.
//!
//! These tests span every crate of the workspace: parse the example programs,
//! build the graphs of Figures 1–3, classify, rewrite, chase and compare the
//! two answering strategies.

use ontorew::core::examples::{example1, example2, example2_query, example3};
use ontorew::core::{
    classify, pnode_graph_to_dot, position_graph_to_dot, FoRewritabilityVerdict, PNodeGraph,
    PNodeGraphConfig, PositionGraph, WrVerdict,
};
use ontorew::prelude::*;
use ontorew::rewrite::rewriting_growth;

#[test]
fn example1_full_pipeline() {
    let program = example1();
    let report = classify(&program);
    assert!(report.simple);
    assert!(report.swr.is_swr);
    assert_eq!(report.wr.verdict, WrVerdict::WeaklyRecursive);
    assert_eq!(
        report.fo_rewritability_verdict(),
        FoRewritabilityVerdict::Rewritable
    );

    // Figure 1: the position graph has no s-edges, so every cycle is harmless.
    let graph = PositionGraph::build(&program);
    assert_eq!(graph.s_edge_count(), 0);
    assert!(graph.has_any_cycle());
    assert!(!graph.has_dangerous_cycle());

    // Theorem 1 in action: the rewriting of a query over the head predicate
    // terminates, and its answers agree with the chase.
    let query = parse_query("ans(X, Z) :- r(X, Z)").unwrap();
    let rewriting = rewrite(&program, &query, &RewriteConfig::default());
    assert!(rewriting.complete);

    let mut data = Instance::new();
    data.insert_fact("v", &["a", "b"]);
    data.insert_fact("q", &["b"]);
    data.insert_fact("t", &["w"]);
    data.insert_fact("r", &["x", "y"]);
    let by_rewriting = evaluate_ucq(&data, &rewriting.ucq);
    let by_chase = certain_answers(&program, &data, &query, &ChaseConfig::default());
    assert!(by_chase.complete);
    let rewriting_rows: Vec<_> = by_rewriting.iter().cloned().collect();
    let chase_rows: Vec<_> = by_chase.answers.iter().cloned().collect();
    assert_eq!(rewriting_rows, chase_rows);
    // r(x, y) is a fact; v(a,b), q(b) derive s(a, _, b) and t(w) holds, so
    // r(a, b) is certain as well.
    assert!(by_chase.answers.contains_constants(&["x", "y"]));
    assert!(by_chase.answers.contains_constants(&["a", "b"]));
}

#[test]
fn example2_full_pipeline() {
    let program = example2();
    let report = classify(&program);
    assert!(!report.simple);
    assert!(!report.swr.is_swr);
    assert_eq!(report.wr.verdict, WrVerdict::NotWeaklyRecursive);
    assert_eq!(
        report.fo_rewritability_verdict(),
        FoRewritabilityVerdict::NotKnownRewritable
    );

    // Figure 2: the position graph alone sees no danger...
    let position_graph = PositionGraph::build(&program);
    assert!(!position_graph.has_dangerous_cycle());
    // ...but Figure 3: the P-node graph detects the d+m+s cycle.
    let pnode_graph = PNodeGraph::build(&program, &PNodeGraphConfig::default());
    assert!(pnode_graph.has_dangerous_cycle());

    // The rewriting of q() :- r("a", x) keeps growing with the depth bound.
    let growth = rewriting_growth(&program, &example2_query(), &[1, 3, 5, 7]);
    assert!(growth.windows(2).all(|w| w[1].1 > w[0].1));
    assert!(growth.iter().all(|(_, _, complete)| !complete));

    // Even though rewriting diverges, the chase terminates here (the program
    // is weakly acyclic), so certain answers are still computable.
    assert!(report.weakly_acyclic);
    let mut data = Instance::new();
    data.insert_fact("s", &["c", "c", "a"]);
    data.insert_fact("t", &["d", "a"]);
    let by_chase = certain_answers(&program, &data, &example2_query(), &ChaseConfig::default());
    assert!(by_chase.complete);
    assert!(by_chase.answers.as_boolean());
}

#[test]
fn example3_full_pipeline() {
    let program = example3();
    let report = classify(&program);
    // Outside every baseline class the paper lists...
    assert!(!report.linear);
    assert!(!report.multilinear);
    assert!(!report.sticky);
    assert!(!report.sticky_join);
    assert!(!report.swr.is_swr);
    // ...but WR, hence FO-rewritable.
    assert_eq!(report.wr.verdict, WrVerdict::WeaklyRecursive);
    assert!(report.fo_rewritable());

    // The rewriting indeed terminates, and it agrees with the chase.
    let query = parse_query("ans(A, B) :- s(A, A, B)").unwrap();
    let rewriting = rewrite(&program, &query, &RewriteConfig::default());
    assert!(rewriting.complete);

    let mut data = Instance::new();
    data.insert_fact("u", &["n"]);
    data.insert_fact("t", &["n", "n", "m"]);
    data.insert_fact("s", &["p", "p", "q"]);
    data.insert_fact("r", &["p", "q"]);
    let by_rewriting = evaluate_ucq(&data, &rewriting.ucq);
    let by_chase = certain_answers(&program, &data, &query, &ChaseConfig::restricted(16));
    let rewriting_rows: Vec<_> = by_rewriting.iter().cloned().collect();
    let chase_rows: Vec<_> = by_chase.answers.iter().cloned().collect();
    assert_eq!(rewriting_rows, chase_rows);
    assert!(by_chase.answers.contains_constants(&["n", "m"]));
    assert!(by_chase.answers.contains_constants(&["p", "q"]));
}

#[test]
fn figures_render_to_dot() {
    let fig1 = position_graph_to_dot(&PositionGraph::build(&example1()), "figure1");
    assert!(fig1.contains("s[2]"));
    let fig2 = position_graph_to_dot(&PositionGraph::build(&example2()), "figure2");
    assert!(fig2.contains("r[2]"));
    let fig3 = pnode_graph_to_dot(
        &PNodeGraph::build(&example2(), &PNodeGraphConfig::default()),
        "figure3",
    );
    assert!(fig3.contains("s(z, z, x1)"));
    assert!(fig3.contains("d,m,s"));
}

#[test]
fn semi_naive_chase_matches_naive_on_the_paper_examples() {
    use ontorew::core::examples::{university_ontology, university_query};
    use ontorew::workloads::university_abox;

    // (program, database) pairs covering Examples 1–3 and the university
    // workload: Datalog joins, existential invention, and repeated variables.
    let mut ex1_data = Instance::new();
    ex1_data.insert_fact("v", &["a", "b"]);
    ex1_data.insert_fact("q", &["b"]);
    ex1_data.insert_fact("t", &["w"]);
    ex1_data.insert_fact("r", &["x", "y"]);
    let mut ex2_data = Instance::new();
    ex2_data.insert_fact("s", &["c", "c", "a"]);
    ex2_data.insert_fact("t", &["d", "a"]);
    let mut ex3_data = Instance::new();
    ex3_data.insert_fact("u", &["n"]);
    ex3_data.insert_fact("t", &["n", "n", "m"]);
    ex3_data.insert_fact("s", &["p", "p", "q"]);
    ex3_data.insert_fact("r", &["p", "q"]);
    let cases = [
        (example1(), ex1_data),
        (example2(), ex2_data),
        (example3(), ex3_data),
        (university_ontology(), university_abox(60, 7, 13, 5)),
    ];

    for (program, data) in &cases {
        let semi = ontorew::chase::chase(program, data, &ChaseConfig::default());
        let naive = ontorew::chase::chase(program, data, &ChaseConfig::naive());
        assert_eq!(semi.outcome, naive.outcome);
        assert_eq!(semi.rounds, naive.rounds);
        assert_eq!(semi.fired, naive.fired);
        assert!(
            equivalent_up_to_null_renaming(&semi.instance, &naive.instance),
            "naive and semi-naive chases diverged on {program}"
        );
    }

    // And the certain answers of the university query agree exactly.
    let (program, data) = &cases[3];
    let query = university_query();
    let semi = certain_answers(program, data, &query, &ChaseConfig::default());
    let naive = certain_answers(program, data, &query, &ChaseConfig::naive());
    assert!(semi.complete && naive.complete);
    assert_eq!(semi.answers, naive.answers);
}

#[test]
fn obda_system_over_the_paper_examples() {
    // Example 2 through the OBDA facade: Auto must fall back to
    // materialization and still produce the certain answer.
    let mut data = Instance::new();
    data.insert_fact("s", &["c", "c", "a"]);
    data.insert_fact("t", &["d", "a"]);
    let system = ObdaSystem::new(example2(), data);
    let result = system.answer(&example2_query(), Strategy::Auto);
    assert_eq!(result.strategy, Strategy::Materialization);
    assert!(result.exact);
    assert!(result.answers.as_boolean());
}
