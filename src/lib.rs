//! # ontorew
//!
//! Umbrella crate for the `ontorew` workspace — a from-scratch Rust
//! reproduction of *"Query Answering over Ontologies Specified via Database
//! Dependencies"* (Civili, SIGMOD 2014 PhD Symposium).
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports them so applications can depend on a single package:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `ontorew-model` | terms, atoms, TGDs, queries, instances, parser |
//! | [`unify`] | `ontorew-unify` | MGUs, homomorphisms, CQ containment, piece unification |
//! | [`storage`] | `ontorew-storage` | indexed relational store, CQ/UCQ evaluation, SQL rendering |
//! | [`chase`] | `ontorew-chase` | oblivious/restricted chase, weak acyclicity, certain answers |
//! | [`magic`] | `ontorew-magic` | magic-sets/SIP adornment for goal-driven chase evaluation |
//! | [`rewrite`] | `ontorew-rewrite` | UCQ rewriting engine, answering by rewriting, query patterns |
//! | [`core`] | `ontorew-core` | position graph, SWR, P-node graph, WR, baseline classes, classifier |
//! | [`plan`] | `ontorew-plan` | classification-driven planner: `Planner`, `PreparedQuery`, plan provenance |
//! | [`obda`] | `ontorew-obda` | ontology + mappings + source facade (a shim over the planner) |
//! | [`workloads`] | `ontorew-workloads` | synthetic ontology and data generators |
//! | [`serve`] | `ontorew-serve` | concurrent multi-tenant query service: prepared-plan cache, snapshot stores, TCP server |
//!
//! ```
//! // Example 3 of the paper: outside every previously known FO-rewritable
//! // class, yet Weakly Recursive, hence FO-rewritable.
//! let report = ontorew::core::classify(&ontorew::core::examples::example3());
//! assert!(!report.swr.is_swr);
//! assert_eq!(report.wr.is_wr(), Some(true));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ontorew_chase as chase;
pub use ontorew_core as core;
pub use ontorew_magic as magic;
pub use ontorew_model as model;
pub use ontorew_obda as obda;
pub use ontorew_plan as plan;
pub use ontorew_rewrite as rewrite;
pub use ontorew_serve as serve;
pub use ontorew_storage as storage;
pub use ontorew_unify as unify;
pub use ontorew_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use ontorew_chase::{
        certain_answers, chase, equivalent_up_to_null_renaming, ChaseConfig, ChaseStrategy,
    };
    pub use ontorew_core::{classify, is_swr, is_wr, PNodeGraph, PNodeGraphConfig, PositionGraph};
    pub use ontorew_model::prelude::*;
    pub use ontorew_obda::{ObdaSystem, Strategy};
    pub use ontorew_plan::{
        Execution, PlanKind, Planner, PlannerConfig, PreparedQuery, QueryPlan, StrategyTaken,
    };
    pub use ontorew_rewrite::{answer_by_rewriting, rewrite, RewriteConfig};
    pub use ontorew_serve::{QueryService, ServeClient, ServiceConfig, TenantRegistry};
    pub use ontorew_storage::{evaluate_cq, evaluate_ucq};
}
