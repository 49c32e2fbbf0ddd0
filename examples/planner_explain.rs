//! The unified answering API: one `Planner`, a plan per query, uniform
//! provenance.
//!
//! Walks the paper's trichotomy with the planner: Example 1 (SWR and weakly
//! acyclic — hybrid plan), Example 2 (outside WR, weakly acyclic — chase
//! plan), a DL-Lite-style ontology (FO-rewritable only — rewrite plan), and
//! an unclassified program (best-effort plan), printing each plan's
//! `EXPLAIN` dump and executing it.
//!
//! ```text
//! cargo run --example planner_explain
//! ```

use ontorew::prelude::*;

fn show(title: &str, program: TgdProgram, query: &str, load: &[(&str, &[&str])]) {
    let planner = Planner::new(program);
    let query = parse_query(query).expect("query parses");
    let prepared = planner.prepare(&query);
    println!("=== {title} ===");
    print!("{}", prepared.explain());

    let mut store = Instance::new();
    for (predicate, constants) in load {
        store.insert_fact(predicate, constants);
    }
    let execution = prepared.execute(&store);
    println!(
        "executed: strategy={:?} exact={} answers={}",
        execution.provenance.strategy,
        execution.provenance.exact,
        execution.answers.len()
    );
    for row in execution.answers.iter() {
        let cells: Vec<String> = row.iter().map(|t| format!("{t}")).collect();
        println!("  ({})", cells.join(", "));
    }
    println!();
}

fn main() {
    // Example 1: SWR (hence FO-rewritable) and weakly acyclic — both
    // guarantees hold, the plan is hybrid, cost signals pick the pipeline.
    show(
        "Example 1 — hybrid",
        ontorew::core::examples::example1(),
        "ans(X, Z) :- r(X, Z)",
        &[("s", &["a", "b", "c"]), ("t", &["d"])],
    );

    // Example 2: provably outside WR but weakly acyclic — materialization
    // is the only complete strategy.
    show(
        "Example 2 — chase",
        ontorew::core::examples::example2(),
        r#"q() :- r("a", X)"#,
        &[("s", &["c", "c", "a"]), ("t", &["d", "a"])],
    );

    // DL-Lite-style ontology with an infinite ancestor chain: the chase
    // cannot terminate, rewriting is perfect — a pure rewrite plan.
    show(
        "DL-Lite ancestors — rewrite",
        parse_program(
            "[R1] student(X) -> person(X).\n\
             [R2] person(X) -> hasParent(X, Y).\n\
             [R3] hasParent(X, Y) -> person(Y).",
        )
        .expect("ontology parses"),
        "q(X) :- person(X)",
        &[("student", &["sara"]), ("hasParent", &["sara", "ana"])],
    );

    // No guarantee at all: Example 2 plus a rule that breaks weak
    // acyclicity — the planner degrades to a sound best-effort pipeline
    // and says so.
    show(
        "Unclassified — best effort",
        parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).\n\
             [R3] r(X, Y) -> t(Y, Z).",
        )
        .expect("ontology parses"),
        r#"q() :- r("a", X)"#,
        &[("s", &["c", "c", "a"]), ("t", &["d", "a"])],
    );
}
