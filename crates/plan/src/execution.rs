//! The result of executing a prepared query: answers plus a uniform
//! provenance report.
//!
//! Every answering surface in the workspace used to report completeness in
//! its own vocabulary (`Rewriting::complete`, `CertainAnswers::complete`,
//! `ObdaAnswers::exact`, `QueryResponse::exact`). The [`Provenance`] struct
//! is the single replacement: which plan was prepared, which strategy
//! actually ran, whether the answers are exactly the certain answers, *why*
//! (the trichotomy reason), and where the time went.

use crate::plan::PlanKind;
use ontorew_storage::AnswerSet;
use serde::Serialize;

/// The pipeline that actually produced the answers (for a [`Hybrid`] plan
/// this records the executor's choice, not the plan kind).
///
/// [`Hybrid`]: crate::plan::QueryPlan::Hybrid
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum StrategyTaken {
    /// The UCQ rewriting was evaluated over the source data.
    Rewriting,
    /// The query was evaluated over a chase materialization.
    Materialization,
    /// The query was evaluated over a magic-restricted chase that derived
    /// only the goal-relevant slice of the universal model.
    GoalDriven,
    /// Best-effort: the bounded rewriting's answers were unioned with a
    /// bounded chase's answers (both sound).
    Combined,
}

impl std::fmt::Display for StrategyTaken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StrategyTaken::Rewriting => "rewriting",
            StrategyTaken::Materialization => "materialization",
            StrategyTaken::GoalDriven => "goal-driven",
            StrategyTaken::Combined => "combined",
        })
    }
}

/// How a chase materialization was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum MaterializationMode {
    /// The whole store was chased from scratch.
    Scratch,
    /// A cached ancestor materialization was extended by an incremental
    /// chase over a recorded insert delta instead of re-chasing the store.
    Incremental {
        /// The data version of the ancestor materialization that was
        /// extended.
        from: u64,
        /// Number of genuinely new facts the incremental chase was seeded
        /// with (the composed batches, deduplicated and with already-chased
        /// facts removed).
        delta_facts: usize,
    },
    /// A cached ancestor materialization was brought forward through a
    /// lineage containing at least one **delete** edge: insert batches ran
    /// the incremental chase, delete batches ran DRed (delete-and-rederive
    /// over the derivation graph) instead of re-chasing the store.
    Dred {
        /// The data version of the ancestor materialization the lineage
        /// was replayed from.
        from: u64,
        /// Genuinely new facts the insert batches seeded.
        delta_facts: usize,
        /// Facts dropped from the materialized model across the delete
        /// batches (withdrawn assertions plus cascaded derivations, minus
        /// everything rederived).
        removed_facts: usize,
    },
}

impl std::fmt::Display for MaterializationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaterializationMode::Scratch => f.write_str("scratch"),
            MaterializationMode::Incremental { from, delta_facts } => {
                write!(f, "incremental(from={from}, delta_facts={delta_facts})")
            }
            MaterializationMode::Dred {
                from,
                delta_facts,
                removed_facts,
            } => {
                write!(
                    f,
                    "dred(from={from}, delta_facts={delta_facts}, removed_facts={removed_facts})"
                )
            }
        }
    }
}

/// Summary of the chase run behind a materialization-based execution.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ChaseSummary {
    /// Facts in the materialized instance.
    pub facts: usize,
    /// Labelled nulls invented.
    pub nulls: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// True if the chase reached a fixpoint (universal model).
    pub complete: bool,
}

/// Summary of a goal-driven (magic-restricted) execution: how much of the
/// program was relevant and how much of the model the restriction skipped.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct GoalDrivenSummary {
    /// Rules of the original program in the query's relevance slice.
    pub relevant_rules: usize,
    /// Adorned guarded copies the magic rewrite emitted.
    pub adorned_rules: usize,
    /// Facts the restricted chase added to the seeded store (the goal-
    /// relevant slice it derived; neither the store nor the demand seeds).
    pub facts_derived: usize,
    /// Estimated facts a full-model materialization would hold — the cached
    /// full materialization's size when one exists for this data version,
    /// otherwise a store-size heuristic.
    pub full_model_estimate: usize,
}

/// The cost model's view of the executed query against what actually
/// happened: the per-strategy cost estimates, the join strategy those
/// estimates prefer for the query body, and the estimated vs. actual answer
/// cardinality — so `EXPLAIN` (and anything consuming serialized provenance)
/// exposes misestimates instead of hiding them.
#[derive(Clone, Debug, Serialize)]
pub struct CardinalityEstimate {
    /// The join strategy the cost model prefers for the query body
    /// (`"backtracking"` or `"generic_join"`).
    pub strategy: String,
    /// Estimated satisfying assignments of the query body.
    pub estimated_rows: u64,
    /// Answer tuples the execution actually produced.
    pub actual_rows: usize,
    /// Simulated cost (rows touched) of the backtracking join.
    pub backtracking_cost: f64,
    /// Simulated cost of the generic join (infinite for acyclic bodies).
    pub generic_join_cost: f64,
}

/// Where the execution's time went, microseconds.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Timings {
    /// Time spent materializing the chase *in this execution* (0 when the
    /// materialization came from the planner's per-version cache).
    pub materialize_us: u64,
    /// Time spent evaluating queries over the store(s).
    pub evaluate_us: u64,
    /// End-to-end execution time.
    pub total_us: u64,
}

/// The uniform provenance report carried by every [`Execution`].
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// The plan that was prepared for the query.
    pub plan: PlanKind,
    /// The strategy that actually ran.
    pub strategy: StrategyTaken,
    /// True when the answers are guaranteed to be *exactly* the certain
    /// answers; false means a sound under-approximation.
    pub exact: bool,
    /// Why: the trichotomy reason from the classification report, plus any
    /// runtime decision (hybrid choice, budget cut, chase fixpoint).
    pub reason: String,
    /// Disjuncts of the evaluated rewriting, when one was evaluated.
    pub rewriting_disjuncts: Option<usize>,
    /// Whether that rewriting was complete (a perfect rewriting).
    pub rewriting_complete: Option<bool>,
    /// The chase behind the materialization, when one was evaluated.
    pub chase: Option<ChaseSummary>,
    /// Whether the materialization came from the planner's per-version
    /// cache (None when no materialization was involved).
    pub materialization_cached: Option<bool>,
    /// How the materialization was obtained — chased from scratch, or an
    /// incremental extension of a cached ancestor version (None when no
    /// materialization was involved).
    pub materialization: Option<MaterializationMode>,
    /// The goal-driven (magic-restricted) run, when one was executed.
    pub goal_driven: Option<GoalDrivenSummary>,
    /// Estimated vs. actual cardinality of this execution, when statistics
    /// were available to the cost model (None on stores too large to scan).
    pub cardinality: Option<CardinalityEstimate>,
    /// Timing breakdown.
    pub timings: Timings,
}

/// The answers of one plan execution, with full provenance.
#[derive(Clone, Debug)]
pub struct Execution {
    /// The certain answers (or a sound under-approximation of them — see
    /// [`Provenance::exact`]).
    pub answers: AnswerSet,
    /// How the answers were produced and what they guarantee.
    pub provenance: Provenance,
}

impl Execution {
    /// True when the answers are exactly the certain answers.
    pub fn is_exact(&self) -> bool {
        self.provenance.exact
    }
}
