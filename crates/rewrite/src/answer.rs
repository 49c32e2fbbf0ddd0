//! Query answering by rewriting + evaluation over the stored facts.
//!
//! This is the OBDA answering path the paper advocates: the ontology is
//! compiled away by rewriting the query into a UCQ, which is then evaluated
//! directly over the relational data (in AC0 data complexity). When the
//! rewriting is complete the answers are exactly the certain answers.

use crate::engine::{rewrite, RewriteConfig, Rewriting};
use ontorew_model::prelude::*;
use ontorew_storage::{evaluate_into, evaluate_ucq_into, AnswerSet, AnswerSink, EvalConfig};

/// The result of answering a query by rewriting.
#[derive(Clone, Debug)]
pub struct RewritingAnswers {
    /// The answer tuples (null-free by construction: the store holds only the
    /// source data, not chase-invented nulls).
    pub answers: AnswerSet,
    /// The rewriting that was evaluated.
    pub rewriting: Rewriting,
}

impl RewritingAnswers {
    /// True if the answers are guaranteed to be exactly the certain answers
    /// (the rewriting reached a fixpoint).
    pub fn is_exact(&self) -> bool {
        self.rewriting.complete
    }
}

/// Answer `query` over `store` under the ontology `program` by UCQ rewriting.
pub fn answer_by_rewriting(
    program: &TgdProgram,
    query: &ConjunctiveQuery,
    store: &Instance,
    config: &RewriteConfig,
) -> RewritingAnswers {
    let rewriting = rewrite(program, query, config);
    let answers = evaluate_rewriting(&rewriting, query, store);
    RewritingAnswers { answers, rewriting }
}

/// Evaluate an already-computed rewriting over a store.
pub fn evaluate_rewriting(
    rewriting: &Rewriting,
    original_query: &ConjunctiveQuery,
    store: &Instance,
) -> AnswerSet {
    evaluate_rewriting_configured(rewriting, original_query, store, &EvalConfig::default())
}

/// Like [`evaluate_rewriting`], but with an explicit [`EvalConfig`] applied
/// to every disjunct — the plan executor threads the store statistics
/// through here so each disjunct's join strategy and atom order come from
/// the cost model rather than raw relation sizes.
///
/// Every disjunct writes into one [`AnswerSink`]. A grounded disjunct
/// (one whose answer tuple holds constants) is evaluated with its answer
/// tuple as the template, so the constants are filled in as its rows are
/// projected; one whose answer variable is missing from its body yields
/// nothing (it cannot produce certain answers).
pub fn evaluate_rewriting_configured(
    rewriting: &Rewriting,
    original_query: &ConjunctiveQuery,
    store: &Instance,
    config: &EvalConfig<'_>,
) -> AnswerSet {
    let mut sink = AnswerSink::new(original_query.answer_vars.clone());
    evaluate_ucq_into(store, &rewriting.ucq, config, &mut sink);
    for grounded in &rewriting.grounded {
        evaluate_into(store, &grounded.body, &grounded.answer, config, &mut sink);
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::{parse_program, parse_query};

    fn store() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("student", &["sara"]);
        db.insert_fact("professor", &["alice"]);
        db.insert_fact("teaches", &["alice", "db101"]);
        db.insert_fact("attends", &["sara", "db101"]);
        db
    }

    #[test]
    fn answers_include_ontology_derived_tuples() {
        let p = parse_program(
            "[R1] student(X) -> person(X).\n\
             [R2] professor(X) -> person(X).",
        )
        .unwrap();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let result = answer_by_rewriting(&p, &q, &store(), &RewriteConfig::default());
        assert!(result.is_exact());
        assert_eq!(result.answers.len(), 2);
        assert!(result.answers.contains_constants(&["sara"]));
        assert!(result.answers.contains_constants(&["alice"]));
    }

    #[test]
    fn existential_knowledge_answers_boolean_queries() {
        let p = parse_program("[R1] professor(X) -> teaches(X, C).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("professor", &["bob"]);
        let q = parse_query("q() :- teaches(Y, C)").unwrap();
        let result = answer_by_rewriting(&p, &q, &db, &RewriteConfig::default());
        assert!(result.is_exact());
        assert!(result.answers.as_boolean());
    }

    #[test]
    fn open_variables_do_not_leak_unknown_values() {
        let p = parse_program("[R1] professor(X) -> teaches(X, C).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("professor", &["bob"]);
        let q = parse_query("q(X, C) :- teaches(X, C)").unwrap();
        let result = answer_by_rewriting(&p, &q, &db, &RewriteConfig::default());
        assert!(result.is_exact());
        assert!(result.answers.is_empty());
    }

    #[test]
    fn grounded_disjuncts_contribute_constant_answers() {
        let p = parse_program("[R1] visited(X) -> city(rome).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("visited", &["marco"]);
        let q = parse_query("q(C) :- city(C)").unwrap();
        let result = answer_by_rewriting(&p, &q, &db, &RewriteConfig::default());
        assert!(result.is_exact());
        assert_eq!(result.answers.len(), 1);
        assert!(result.answers.contains_constants(&["rome"]));
    }

    #[test]
    fn rewriting_answers_match_chase_answers() {
        let p = parse_program(
            "[R1] gradStudent(X) -> student(X).\n\
             [R2] student(X) -> person(X).\n\
             [R3] teaches(X, C) -> course(C).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("gradStudent", &["gina"]);
        db.insert_fact("student", &["sara"]);
        db.insert_fact("teaches", &["alice", "db101"]);
        let q = parse_query("q(X) :- person(X)").unwrap();

        let by_rewriting = answer_by_rewriting(&p, &q, &db, &RewriteConfig::default());
        let by_chase =
            ontorew_chase::certain_answers(&p, &db, &q, &ontorew_chase::ChaseConfig::default());
        assert!(by_rewriting.is_exact());
        assert!(by_chase.complete);
        let a: Vec<_> = by_rewriting.answers.iter().cloned().collect();
        let b: Vec<_> = by_chase.answers.iter().cloned().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn deep_join_queries_match_chase_answers() {
        // Regression test: the canonical renaming used to be applied
        // *deeply*, following cyclic rename chains and collapsing distinct
        // variables — on 4-atom join queries whole expansion disjuncts were
        // corrupted and certain answers silently lost (while the rewriting
        // still claimed completeness).
        let p = parse_program(
            "[U5] student(X) -> person(X).\n\
             [U10] attends(S, C) -> student(S).\n\
             [U12] advisedBy(X, Y) -> professor(Y).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("advisedBy", &["gina", "alice"]);
        db.insert_fact("teaches", &["alice", "db101"]);
        db.insert_fact("attends", &["sara", "db101"]);
        let q = parse_query("q(S) :- advisedBy(S, P), teaches(P, C), attends(S2, C), person(S2)")
            .unwrap();
        let by_rewriting = answer_by_rewriting(&p, &q, &db, &RewriteConfig::default());
        let by_chase =
            ontorew_chase::certain_answers(&p, &db, &q, &ontorew_chase::ChaseConfig::default());
        assert!(by_rewriting.is_exact());
        assert!(by_chase.complete);
        assert_eq!(by_rewriting.answers.len(), 1);
        assert!(by_rewriting.answers.contains_constants(&["gina"]));
        let a: Vec<_> = by_rewriting.answers.iter().cloned().collect();
        let b: Vec<_> = by_chase.answers.iter().cloned().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn evaluate_rewriting_reuses_a_precomputed_rewriting() {
        let p = parse_program("[R1] student(X) -> person(X).").unwrap();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let rewriting = rewrite(&p, &q, &RewriteConfig::default());
        let answers = evaluate_rewriting(&rewriting, &q, &store());
        assert_eq!(answers.len(), 1);
        assert!(answers.contains_constants(&["sara"]));
    }
}
