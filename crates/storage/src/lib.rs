//! # ontorew-storage
//!
//! The relational substrate of the OBDA stack over `ontorew-model`'s
//! [`Instance`] — the one fact container, whose relations carry eager
//! per-column hash indexes in copy-on-write segments: a conjunctive-query
//! and UCQ evaluator (each query compiled to a slot frame and searched by
//! index-nested loops with an existential cut, or by the generic join, all
//! disjuncts of a union writing into one answer sink on the calling
//! thread), the statistics and cost model that pick a join strategy,
//! durable persistence (WAL, segments, recovery), and a SQL renderer for
//! rewritings. The stored database and the instance the chase extends are
//! the same value.
//!
//! The paper assumes the extensional data lives in a standard relational
//! DBMS; this crate is the simulation of that DBMS (see DESIGN.md §1 for the
//! substitution rationale). The query answering path exercised by the
//! benchmarks — UCQ rewriting evaluated over indexed relations — matches the
//! deployment the paper targets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod eval;
pub mod persist;
pub mod sql;
pub mod stats;

// Store-level checks of `Instance` as the extensional database.
#[cfg(test)]
#[path = "store_tests/database.rs"]
mod database;
#[cfg(test)]
#[path = "store_tests/relation.rs"]
mod relation;

pub use cost::{estimate_join_cost, JoinCost};
pub use eval::{
    evaluate_boolean, evaluate_cq, evaluate_cq_instrumented, evaluate_into, evaluate_ucq,
    evaluate_ucq_configured, evaluate_ucq_into, AnswerSet, AnswerSink, EvalConfig, EvalStats,
};
pub use ontorew_unify::JoinStrategy;
pub use persist::{FsyncPolicy, TenantStorage};
pub use sql::{cq_to_sql, ucq_to_sql};
pub use stats::{ColumnStats, RelationStats, StoreStatistics};

use ontorew_model::instance::Instance;

/// The extensional store: an [`Instance`]. Only a name, kept because the
/// benchmark's pinned API (`benchmark/src/sut.rs`) calls
/// `RelationalStore::{new, from_instance, freeze, contains_atom, clone}`;
/// in-tree code names `Instance`.
pub type RelationalStore = Instance;
