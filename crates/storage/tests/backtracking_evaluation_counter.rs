//! `join_evaluations_total{strategy="backtracking"}` counts one evaluation
//! per backtracking query evaluation, as the generic-join series does for
//! its strategy. A file of its own: the test runs in its own process, so no
//! other test moves the global counter while it reads it.

use ontorew_model::prelude::*;
use ontorew_storage::evaluate_cq;
use ontorew_telemetry::global_registry;

#[test]
fn backtracking_evaluation_counts_once_per_query() {
    let counter = global_registry().counter(
        "join_evaluations_total",
        "Conjunctive join evaluations, by strategy.",
        &[("strategy", "backtracking")],
    );
    let mut db = Instance::new();
    db.insert_fact("teaches", &["alice", "db101"]);
    db.insert_fact("attends", &["carol", "db101"]);
    let query = parse_query("q(S) :- teaches(T, C), attends(S, C)").expect("query parses");
    let before = counter.get();
    let answers = evaluate_cq(&db, &query);
    assert!(answers.contains_constants(&["carol"]));
    assert_eq!(counter.get() - before, 1);
}
