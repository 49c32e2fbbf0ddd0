//! Cross-checking the two answering strategies against each other.
//!
//! When both strategies are complete they must return the same certain
//! answers; when only one is complete, the other must return a subset (both
//! are sound). This module runs the comparison and reports any discrepancy —
//! the integration tests use it as an executable statement of Theorem 1.

use crate::system::{ObdaSystem, Strategy};
use ontorew_model::prelude::*;
use serde::Serialize;
use std::collections::BTreeSet;

/// The outcome of comparing the two strategies on one query.
#[derive(Clone, Debug, Serialize)]
pub struct ConsistencyReport {
    /// Number of answers returned by rewriting.
    pub rewriting_answers: usize,
    /// Number of answers returned by materialization.
    pub materialization_answers: usize,
    /// Whether the rewriting was complete (perfect).
    pub rewriting_exact: bool,
    /// Whether the chase terminated.
    pub materialization_exact: bool,
    /// Answers found by rewriting but not by materialization (rendered).
    pub only_rewriting: Vec<String>,
    /// Answers found by materialization but not by rewriting (rendered).
    pub only_materialization: Vec<String>,
}

impl ConsistencyReport {
    /// True if the observed answer sets are consistent with the completeness
    /// claims of the two strategies:
    /// * both exact ⇒ equal sets;
    /// * only one exact ⇒ the other is a subset of it;
    /// * neither exact ⇒ anything goes (both are sound under-approximations).
    pub fn is_consistent(&self) -> bool {
        match (self.rewriting_exact, self.materialization_exact) {
            (true, true) => self.only_rewriting.is_empty() && self.only_materialization.is_empty(),
            (true, false) => self.only_materialization.is_empty(),
            (false, true) => self.only_rewriting.is_empty(),
            (false, false) => true,
        }
    }
}

/// Compare rewriting-based and materialization-based answering on one query.
pub fn cross_check(system: &ObdaSystem, query: &ConjunctiveQuery) -> ConsistencyReport {
    let by_rewriting = system.answer(query, Strategy::Rewriting);
    let by_chase = system.answer(query, Strategy::Materialization);

    let render = |rows: &ontorew_storage::AnswerSet| -> BTreeSet<String> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect()
    };
    let rewriting_set = render(&by_rewriting.answers);
    let chase_set = render(&by_chase.answers);

    ConsistencyReport {
        rewriting_answers: rewriting_set.len(),
        materialization_answers: chase_set.len(),
        rewriting_exact: by_rewriting.exact,
        materialization_exact: by_chase.exact,
        only_rewriting: rewriting_set.difference(&chase_set).cloned().collect(),
        only_materialization: chase_set.difference(&rewriting_set).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_core::examples::{university_ontology, university_query};
    use ontorew_model::parse_query;
    use ontorew_workloads::university_abox;

    #[test]
    fn university_workload_is_consistent() {
        let system = ObdaSystem::new(university_ontology(), university_abox(60, 6, 12, 11));
        let report = cross_check(&system, &university_query());
        assert!(report.is_consistent(), "report: {report:?}");
        assert_eq!(report.rewriting_answers, report.materialization_answers);
    }

    #[test]
    fn multiple_queries_stay_consistent() {
        let system = ObdaSystem::new(university_ontology(), university_abox(40, 4, 8, 5));
        for q in [
            "q(X) :- person(X)",
            "q(X) :- employee(X)",
            "q(X) :- course(X)",
            "q(X, Y) :- advisedBy(X, Y)",
            "q(P) :- professor(P), teaches(P, C), attends(S, C)",
        ] {
            let query = parse_query(q).unwrap();
            let report = cross_check(&system, &query);
            assert!(report.is_consistent(), "query {q}: {report:?}");
        }
    }

    #[test]
    fn incomplete_rewriting_is_still_sound() {
        // Example 2: rewriting does not terminate, so it is truncated; its
        // answers must be a subset of the (terminating) chase's answers.
        let mut data = ontorew_model::Instance::new();
        data.insert_fact("s", &["c", "c", "a"]);
        data.insert_fact("t", &["d", "a"]);
        let system = ObdaSystem::new(ontorew_core::examples::example2(), data)
            .with_rewrite_config(ontorew_rewrite::RewriteConfig::with_depth(3));
        let report = cross_check(&system, &ontorew_core::examples::example2_query());
        assert!(!report.rewriting_exact);
        assert!(report.materialization_exact);
        assert!(report.is_consistent(), "report: {report:?}");
    }
}
