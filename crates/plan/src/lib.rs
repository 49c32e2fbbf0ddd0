//! # ontorew-plan
//!
//! The classification-driven query planner — the single way to answer
//! queries in the `ontorew` workspace.
//!
//! The paper's central result is a trichotomy: classify the dependency set,
//! and the class tells you which answering strategy is sound, complete and
//! terminating. Weakly recursive (or otherwise FO-rewritable) programs
//! compile the ontology into the query (UCQ rewriting, AC0 data
//! complexity); weakly acyclic programs materialize a terminating chase;
//! everything else gets a sound, budget-bounded approximation. This crate
//! makes that trichotomy the shape of the public API:
//!
//! * [`Planner::new`] runs the full classification **once** per program;
//! * [`Planner::prepare`] compiles a query into a [`PreparedQuery`] holding
//!   an explicit, inspectable [`QueryPlan`] (`RewriteThenEvaluate`,
//!   `ChaseThenEvaluate`, `Hybrid`, or `BestEffort`) chosen from the
//!   classification report plus per-query cost signals (rewriting fan-out
//!   under the size-aware budget, program size, store size);
//! * [`PreparedQuery::execute`] returns an [`Execution`]: the answers plus a
//!   uniform [`Provenance`] report (strategy taken, exactness guarantee with
//!   the *reason* from the trichotomy, timings, cache provenance).
//!
//! Every other answering surface — `ontorew_obda::ObdaSystem`,
//! `ontorew_serve::QueryService`, the TCP protocol — is a thin shim over
//! this crate; strategy choice happens here and nowhere else.
//!
//! ```
//! use ontorew_model::{parse_program, parse_query, Instance};
//! use ontorew_plan::{PlanKind, Planner, StrategyTaken};
//!
//! // Example 2 of the paper: not FO-rewritable, but weakly acyclic — the
//! // planner picks chase materialization, and says why.
//! let program = parse_program(
//!     "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
//!      [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).",
//! )
//! .unwrap();
//! let planner = Planner::new(program);
//! let prepared = planner.prepare(&parse_query(r#"q() :- r("a", X)"#).unwrap());
//! assert_eq!(prepared.plan().kind(), PlanKind::Chase);
//!
//! let mut store = Instance::new();
//! store.insert_fact("s", &["c", "c", "a"]);
//! store.insert_fact("t", &["d", "a"]);
//! let execution = prepared.execute(&store);
//! assert!(execution.is_exact());
//! assert_eq!(execution.provenance.strategy, StrategyTaken::Materialization);
//! assert!(execution.answers.as_boolean());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod execution;
pub mod plan;
pub mod planner;

pub use execution::{
    ChaseSummary, Execution, GoalDrivenSummary, MaterializationMode, Provenance, StrategyTaken,
    Timings,
};
pub use plan::{MaterializationGuarantee, PlanKind, QueryPlan};
pub use planner::{Materialization, Planner, PlannerConfig, PlannerError, PreparedQuery};

// The goal-driven (magic-sets) surface: the planner compiles the adorned
// program itself, but callers inspecting a `QueryPlan::GoalDriven` need the
// types.
pub use ontorew_magic::{
    rewrite_goal_driven, rewrite_goal_driven_with, Adornment, Inadmissible, MagicProgram,
    SipSelectivity, StructuralSipSelectivity, MAGIC_PREFIX,
};

// The chase-side surface the serving layer needs to configure provenance
// tracking and walk derivation graphs without depending on `ontorew-chase`
// directly: every materialization-facing concept flows through the planner.
pub use ontorew_chase::{
    explain_absent, ChaseConfig, DerivationGraph, WhyNot, WhyNotCandidate, WhyStep,
};
