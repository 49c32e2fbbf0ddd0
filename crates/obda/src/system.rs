//! The OBDA system facade.
//!
//! An [`ObdaSystem`] bundles the three layers of §1 of the paper — ontology
//! (TGDs), mappings, and the extensional data source — and answers
//! conjunctive queries by delegating to the classification-driven planner of
//! `ontorew-plan`: [`ObdaSystem::answer`] prepares a [`PreparedQuery`] whose
//! plan the trichotomy picks (rewriting where FO-rewritability holds,
//! materialization where the chase terminates, best-effort otherwise) and
//! executes it over the retrieved ABox.
//!
//! [`Strategy`] survives as a **deprecated forced-plan override**: `Auto`
//! is the planner's choice, while `Rewriting`/`Materialization` force the
//! corresponding plan kind through [`ontorew_plan::Planner::prepare_forced`]
//! (useful for cross-checks and ablation experiments, and honest about the
//! weaker guarantees a forced plan may carry). New code should use
//! [`ObdaSystem::planner`] and the `ontorew-plan` API directly.

use crate::mapping::MappingSet;
use ontorew_chase::ChaseConfig;
use ontorew_core::ClassificationReport;
use ontorew_model::prelude::*;
use ontorew_plan::{Execution, PlanKind, Planner, PlannerConfig, PreparedQuery, StrategyTaken};
use ontorew_rewrite::RewriteConfig;
use ontorew_storage::AnswerSet;

/// The query answering strategy override.
///
/// **Deprecated** in favor of the planner (`ontorew-plan`), which chooses
/// the strategy from the classification report and per-query cost signals.
/// `Auto` simply delegates to the planner; the other two variants force a
/// plan kind and are kept for cross-checking experiments and backward
/// compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Force a `RewriteThenEvaluate` plan (UCQ rewriting over the source).
    Rewriting,
    /// Force a `ChaseThenEvaluate` plan (materialization, then evaluation).
    Materialization,
    /// Let the planner choose from the classification report (the default
    /// and the recommended mode).
    Auto,
}

/// The result of answering a query through the OBDA system.
#[derive(Clone, Debug)]
pub struct ObdaAnswers {
    /// The certain answers found.
    pub answers: AnswerSet,
    /// Which concrete strategy produced them.
    pub strategy: Strategy,
    /// True if the strategy was complete (perfect rewriting or terminated
    /// chase); false means the answers are a sound under-approximation.
    pub exact: bool,
    /// The full provenance report of the underlying plan execution.
    pub provenance: ontorew_plan::Provenance,
}

/// An ontology-based data access system: ontology + mappings + source data.
#[derive(Clone, Debug)]
pub struct ObdaSystem {
    mappings: MappingSet,
    source: Instance,
    planner: Planner,
}

impl ObdaSystem {
    /// Build a system whose source already speaks the ontology vocabulary
    /// (identity mappings).
    pub fn new(ontology: TgdProgram, data: Instance) -> Self {
        let mappings = MappingSet::identity_for(&data.signature());
        ObdaSystem::with_mappings(ontology, mappings, data)
    }

    /// Build a system with explicit mappings over an arbitrary source store.
    pub fn with_mappings(ontology: TgdProgram, mappings: MappingSet, source: Instance) -> Self {
        ObdaSystem {
            mappings,
            source,
            planner: Planner::new(ontology),
        }
    }

    /// Override the rewriting configuration (depth/size budgets). Rebuilds
    /// the planner, so call this before answering queries.
    pub fn with_rewrite_config(mut self, config: RewriteConfig) -> Self {
        let planner_config = PlannerConfig {
            rewrite: Some(config),
            chase: *self.planner.chase_config(),
            ..PlannerConfig::default()
        };
        self.planner = Planner::with_config(self.planner.program().clone(), planner_config);
        self
    }

    /// Override the chase configuration (round/fact budgets). Rebuilds the
    /// planner, so call this before answering queries.
    pub fn with_chase_config(mut self, config: ChaseConfig) -> Self {
        let planner_config = PlannerConfig {
            rewrite: Some(*self.planner.rewrite_config()),
            chase: config,
            ..PlannerConfig::default()
        };
        self.planner = Planner::with_config(self.planner.program().clone(), planner_config);
        self
    }

    /// The ontology.
    pub fn ontology(&self) -> &TgdProgram {
        self.planner.program()
    }

    /// The planner this system delegates to (classification, plan
    /// compilation, materialization cache).
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The classification report of the ontology (computed at construction).
    pub fn classification(&self) -> &ClassificationReport {
        self.planner.classification()
    }

    /// The retrieved ABox: the ontology-level facts obtained by applying the
    /// mappings to the source.
    pub fn retrieved_abox(&self) -> Instance {
        self.mappings.apply(&self.source)
    }

    /// Compile `query` into a prepared plan against this system's ontology
    /// (the planner chooses the kind; see [`ObdaSystem::answer`] for forced
    /// overrides).
    pub fn prepare(&self, query: &ConjunctiveQuery) -> PreparedQuery {
        self.planner.prepare(query)
    }

    /// Answer a conjunctive query. `Strategy::Auto` delegates the choice to
    /// the planner; the other variants force a plan kind.
    pub fn answer(&self, query: &ConjunctiveQuery, strategy: Strategy) -> ObdaAnswers {
        // Forcing a strategy on an unclassifiable program is a structured
        // planner error; this legacy shim falls back to the planner's own
        // choice rather than surfacing it through the pre-planner API.
        let prepared = match strategy {
            Strategy::Auto => self.planner.prepare(query),
            Strategy::Rewriting => self
                .planner
                .prepare_forced(query, PlanKind::Rewrite)
                .unwrap_or_else(|_| self.planner.prepare(query)),
            Strategy::Materialization => self
                .planner
                .prepare_forced(query, PlanKind::Chase)
                .unwrap_or_else(|_| self.planner.prepare(query)),
        };
        let execution = self.execute(&prepared);
        let strategy = match execution.provenance.strategy {
            StrategyTaken::Rewriting | StrategyTaken::Combined => Strategy::Rewriting,
            StrategyTaken::Materialization | StrategyTaken::GoalDriven => Strategy::Materialization,
        };
        ObdaAnswers {
            answers: execution.answers,
            strategy,
            exact: execution.provenance.exact,
            provenance: execution.provenance,
        }
    }

    /// Execute an already-prepared query over the retrieved ABox. The source
    /// of an `ObdaSystem` is fixed at construction, so materializations are
    /// cached under one stable version token.
    pub fn execute(&self, prepared: &PreparedQuery) -> Execution {
        // Rewritings are evaluated over the retrieved ABox (ontology
        // vocabulary); with identity mappings this is the source itself.
        prepared.execute_versioned(&self.retrieved_abox(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use ontorew_core::examples::{university_ontology, university_query};
    use ontorew_model::{parse_program, parse_query};

    fn university_system() -> ObdaSystem {
        let data = ontorew_workloads::university_abox(50, 5, 10, 3);
        ObdaSystem::new(university_ontology(), data)
    }

    #[test]
    fn auto_strategy_picks_rewriting_for_fo_rewritable_ontologies() {
        let system = university_system();
        assert!(system.classification().fo_rewritable());
        let result = system.answer(&university_query(), Strategy::Auto);
        assert_eq!(result.strategy, Strategy::Rewriting);
        assert!(result.exact);
        assert!(!result.answers.is_empty());
    }

    #[test]
    fn rewriting_and_materialization_agree_when_both_are_complete() {
        // A weakly-acyclic, FO-rewritable ontology: both strategies are exact
        // and must return the same certain answers.
        let ontology = parse_program(
            "[R1] gradStudent(X) -> student(X).\n\
             [R2] student(X) -> person(X).\n\
             [R3] teaches(X, C) -> course(C).",
        )
        .unwrap();
        let mut data = Instance::new();
        data.insert_fact("gradStudent", &["gina"]);
        data.insert_fact("student", &["sara"]);
        data.insert_fact("teaches", &["alice", "db101"]);
        let system = ObdaSystem::new(ontology, data);
        let q = parse_query("q(X) :- person(X)").unwrap();
        let by_rewriting = system.answer(&q, Strategy::Rewriting);
        let by_chase = system.answer(&q, Strategy::Materialization);
        assert!(by_rewriting.exact && by_chase.exact);
        let a: Vec<_> = by_rewriting.answers.iter().cloned().collect();
        let b: Vec<_> = by_chase.answers.iter().cloned().collect();
        assert_eq!(a, b);
        // gina (via gradStudent -> student -> person) and sara.
        assert_eq!(by_rewriting.answers.len(), 2);
    }

    #[test]
    fn answers_reflect_existential_knowledge() {
        let system = university_system();
        // Every professor teaches something (U7), so professors are certain
        // answers to "who teaches a course someone might attend" only when a
        // student actually attends; instead ask who teaches anything at all.
        let q = parse_query("q(X) :- teaches(X, C)").unwrap();
        let result = system.answer(&q, Strategy::Rewriting);
        assert!(result.exact);
        // All 5 professors teach (either explicitly or by U7).
        assert!(result.answers.len() >= 5);
    }

    #[test]
    fn non_identity_mappings_bridge_a_legacy_schema() {
        let ontology = parse_program("[R1] worksIn(X, D) -> department(D).").unwrap();
        let mut source = Instance::new();
        source.insert_fact("emp", &["e1", "alice", "cs", "100"]);
        source.insert_fact("emp", &["e2", "bob", "math", "90"]);
        let mut mappings = MappingSet::new();
        mappings.push(Mapping::new(
            Predicate::new("emp", 4),
            Predicate::new("worksIn", 2),
            vec![0, 2],
        ));
        let system = ObdaSystem::with_mappings(ontology, mappings, source);
        assert_eq!(system.retrieved_abox().len(), 2);
        let q = parse_query("q(D) :- department(D)").unwrap();
        let result = system.answer(&q, Strategy::Auto);
        assert!(result.exact);
        assert_eq!(result.answers.len(), 2);
        assert!(result.answers.contains_constants(&["cs"]));
    }

    #[test]
    fn auto_falls_back_to_materialization_for_non_rewritable_ontologies() {
        // Example 2 of the paper: not FO-rewritable, but weakly acyclic, so
        // the planner compiles a chase plan.
        let ontology = ontorew_core::examples::example2();
        let mut data = Instance::new();
        data.insert_fact("s", &["c", "c", "a"]);
        data.insert_fact("t", &["d", "a"]);
        let system = ObdaSystem::new(ontology, data);
        assert!(!system.classification().fo_rewritable());
        assert!(system.classification().chase_terminates());
        let q = ontorew_core::examples::example2_query();
        let result = system.answer(&q, Strategy::Auto);
        assert_eq!(result.strategy, Strategy::Materialization);
        assert_eq!(result.provenance.plan, PlanKind::Chase);
        assert!(result.exact);
        assert!(result.answers.as_boolean());
    }

    #[test]
    fn empty_data_yields_empty_answers() {
        let system = ObdaSystem::new(university_ontology(), Instance::new());
        let result = system.answer(&university_query(), Strategy::Auto);
        assert!(result.answers.is_empty());
        assert!(result.exact);
    }

    #[test]
    fn answers_carry_the_plan_provenance() {
        let system = university_system();
        let result = system.answer(&university_query(), Strategy::Auto);
        // The university ontology is FO-rewritable *and* weakly acyclic:
        // the planner compiles a hybrid plan, and the narrow fan-out makes
        // the executor evaluate the rewriting.
        assert_eq!(result.provenance.plan, PlanKind::Hybrid);
        assert_eq!(result.provenance.strategy, StrategyTaken::Rewriting);
        assert!(result.provenance.reason.contains("hybrid chose rewriting"));
        assert!(result.provenance.rewriting_complete.unwrap());
    }

    #[test]
    fn prepared_queries_can_be_executed_directly() {
        let system = university_system();
        let prepared = system.prepare(&university_query());
        let execution = system.execute(&prepared);
        let direct = system.answer(&university_query(), Strategy::Auto);
        assert_eq!(
            execution.answers.iter().collect::<Vec<_>>(),
            direct.answers.iter().collect::<Vec<_>>()
        );
    }
}
