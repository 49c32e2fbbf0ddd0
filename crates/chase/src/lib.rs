//! # ontorew-chase
//!
//! The chase procedure for TGD programs and the certain-answer semantics it
//! induces (§3 of the paper):
//!
//! * [`trigger`] — rule-body matches on an instance and their firing,
//!   including the delta-restricted search of the semi-naive engine;
//! * [`engine`] — the semi-oblivious and restricted chase under a budget,
//!   with semi-naive (delta-driven, index-backed) and naive strategies;
//! * [`termination`] — weak acyclicity, the classical chase-termination test;
//! * [`certain`] — certain answers by chase materialization (the ground truth
//!   the rewriting engine is validated against);
//! * [`equiv`] — comparing chased instances up to null renaming (used by the
//!   naive-vs-semi-naive equivalence tests);
//! * [`layered`] — the persistent layer stack (frozen `Arc`-shared layers
//!   under a mutable top, size-tiered merge) the derivation graph and the
//!   retired-key set are built on;
//! * [`provenance`] — stable fact ids and the layered, indexed derivation
//!   graph recorded behind [`ChaseConfig::track_provenance`], with the
//!   `WHY` / `WHY NOT` explanation walks;
//! * [`retract`] — incremental deletion by delete-and-rederive (DRed) over
//!   the derivation graph.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod certain;
pub mod engine;
pub mod equiv;
pub mod layered;
pub mod provenance;
pub mod retract;
pub mod termination;
pub mod trigger;

pub use certain::{certain_answers, certain_answers_ucq, CertainAnswers, ChaseStats};
pub use engine::{
    chase, chase_incremental, is_model, ChaseConfig, ChaseOutcome, ChaseResult, ChaseStrategy,
    ChaseVariant, IncrementalChase,
};
pub use equiv::{equivalent_up_to_null_renaming, homomorphically_equivalent};
pub use layered::TriggerKeySet;
pub use provenance::{
    explain_absent, DerivationEdge, DerivationGraph, EdgeId, FactId, WhyNot, WhyNotCandidate,
    WhyStep,
};
pub use retract::{chase_retract, RetractedChase};
pub use termination::{is_weakly_acyclic, DependencyGraph, DependencyPosition};
pub use trigger::{
    find_rule_triggers, find_rule_triggers_delta_with, find_rule_triggers_with, find_triggers,
    RulePlan, Trigger, TriggerKey,
};
