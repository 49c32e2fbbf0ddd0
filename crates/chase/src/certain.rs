//! Certain answers by chase materialization.
//!
//! `cert(q, P, D)` is the set of tuples of constants that belong to `q(B)`
//! for every database `B ⊇ D` satisfying `P` (§3 of the paper). Because the
//! chase of `(P, D)` is a universal model, evaluating `q` over the chased
//! instance and keeping only null-free tuples computes exactly `cert(q, P, D)`
//! — provided the chase terminated. When the chase is cut off by its budget
//! the same procedure still returns a *sound* under-approximation (query
//! evaluation is monotone and the partial chase is contained in the full
//! chase), which the result reports through [`CertainAnswers::complete`].

use crate::engine::{chase, ChaseConfig, ChaseResult};
use ontorew_model::prelude::*;
use ontorew_storage::{evaluate_cq, evaluate_ucq, AnswerSet};

/// The result of a certain-answer computation.
#[derive(Clone, Debug)]
pub struct CertainAnswers {
    /// The null-free answer tuples.
    pub answers: AnswerSet,
    /// True if the chase reached a fixpoint, making `answers` exactly the
    /// certain answers (otherwise they are a sound under-approximation).
    pub complete: bool,
    /// Statistics of the underlying chase run.
    pub chase: ChaseStats,
}

/// Summary statistics of a chase run.
#[derive(Clone, Copy, Debug)]
pub struct ChaseStats {
    /// Facts in the chased instance.
    pub facts: usize,
    /// Labelled nulls invented.
    pub nulls: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Triggers fired.
    pub fired: usize,
}

impl ChaseStats {
    fn from_result(result: &ChaseResult) -> Self {
        ChaseStats {
            facts: result.instance.len(),
            nulls: result.instance.nulls().len(),
            rounds: result.rounds,
            fired: result.fired,
        }
    }
}

/// Compute (a sound approximation of) the certain answers of a CQ by chasing
/// the database and evaluating the query over the chased instance.
pub fn certain_answers(
    program: &TgdProgram,
    database: &Instance,
    query: &ConjunctiveQuery,
    config: &ChaseConfig,
) -> CertainAnswers {
    let result = chase(program, database, config);
    let answers = evaluate_cq(&result.instance, query).without_nulls();
    CertainAnswers {
        answers,
        complete: result.is_universal_model(),
        chase: ChaseStats::from_result(&result),
    }
}

/// Compute (a sound approximation of) the certain answers of a UCQ.
pub fn certain_answers_ucq(
    program: &TgdProgram,
    database: &Instance,
    query: &UnionOfConjunctiveQueries,
    config: &ChaseConfig,
) -> CertainAnswers {
    let result = chase(program, database, config);
    let answers = evaluate_ucq(&result.instance, query).without_nulls();
    CertainAnswers {
        answers,
        complete: result.is_universal_model(),
        chase: ChaseStats::from_result(&result),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::{parse_program, parse_query};

    #[test]
    fn certain_answers_include_derived_facts() {
        let p = parse_program(
            "[R1] professor(X) -> teaches(X, C).\n\
             [R2] teaches(X, C) -> course(C).\n\
             [R3] assistant(X, P) -> teaches(P, C).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("professor", &["alice"]);
        db.insert_fact("teaches", &["bob", "ai102"]);
        let q = parse_query("q(X) :- teaches(X, Y)").unwrap();
        let result = certain_answers(&p, &db, &q, &ChaseConfig::default());
        assert!(result.complete);
        // alice teaches *something* (an invented course), bob teaches ai102.
        assert!(result.answers.contains_constants(&["alice"]));
        assert!(result.answers.contains_constants(&["bob"]));
        assert_eq!(result.answers.len(), 2);
    }

    #[test]
    fn nulls_never_appear_in_answers() {
        let p = parse_program("[R1] professor(X) -> teaches(X, C).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("professor", &["alice"]);
        let q = parse_query("q(X, C) :- teaches(X, C)").unwrap();
        let result = certain_answers(&p, &db, &q, &ChaseConfig::default());
        assert!(result.complete);
        // The only teaches-fact pairs alice with a labelled null, which must
        // not surface as a certain answer.
        assert!(result.answers.is_empty());
        assert_eq!(result.chase.nulls, 1);
    }

    #[test]
    fn boolean_query_over_invented_values() {
        let p = parse_program("[R1] professor(X) -> teaches(X, C).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("professor", &["alice"]);
        let q = parse_query("q() :- teaches(X, C)").unwrap();
        let result = certain_answers(&p, &db, &q, &ChaseConfig::default());
        // The boolean query is certain: in every model alice teaches something.
        assert!(result.answers.as_boolean());
    }

    #[test]
    fn incomplete_chase_is_flagged_and_sound() {
        let p = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("hasParent", &["alice", "bob"]);
        let q = parse_query("q(X) :- person(X)").unwrap();
        let result = certain_answers(&p, &db, &q, &ChaseConfig::restricted(3));
        assert!(!result.complete);
        // Sound: both constants are genuinely certain answers.
        assert!(result.answers.contains_constants(&["alice"]));
        assert!(result.answers.contains_constants(&["bob"]));
    }

    #[test]
    fn ucq_certain_answers() {
        let p = parse_program("[R1] ta(X) -> staff(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("ta", &["carol"]);
        db.insert_fact("prof", &["alice"]);
        let q1 = parse_query("q(X) :- staff(X)").unwrap();
        let q2 = parse_query("q(X) :- prof(X)").unwrap();
        let ucq = UnionOfConjunctiveQueries::new(vec![q1, q2]);
        let result = certain_answers_ucq(&p, &db, &ucq, &ChaseConfig::default());
        assert!(result.complete);
        assert_eq!(result.answers.len(), 2);
    }

    #[test]
    fn stats_reflect_the_run() {
        let p = parse_program("[R1] a(X) -> b(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        let q = parse_query("q(X) :- b(X)").unwrap();
        let result = certain_answers(&p, &db, &q, &ChaseConfig::default());
        assert_eq!(result.chase.fired, 1);
        assert_eq!(result.chase.facts, 2);
        assert_eq!(result.chase.nulls, 0);
        assert!(result.chase.rounds >= 1);
    }
}
