//! # ontorew-unify
//!
//! Unification machinery for TGD reasoning:
//!
//! * [`mgu`] — most general unifiers over function-free atoms;
//! * [`homomorphism`] — atom-at-a-time backtracking homomorphism search
//!   from atom sets into instances (the work-horse of chase triggers and
//!   certain-answer checks);
//! * [`generic_join`] — variable-at-a-time worst-case-optimal join over the
//!   instance segment indexes, equivalent to the backtracking search but
//!   immune to intermediate blowup on cyclic bodies;
//! * [`containment`] — conjunctive-query containment, equivalence and
//!   minimization (Chandra–Merlin);
//! * [`piece`] — piece unification between queries and TGD heads, the
//!   admissibility condition behind every rewriting step the paper's graphs
//!   approximate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod containment;
pub mod generic_join;
pub mod homomorphism;
pub mod mgu;
pub mod piece;

pub use containment::{are_equivalent, is_contained_in, minimize, prune_ucq, prune_ucq_budgeted};
pub use generic_join::{
    choose_join_strategy, generic_join_all, generic_join_delta, generic_join_delta_pivot,
    generic_join_visit, is_cyclic, JoinStrategy, GENERIC_JOIN_MIN_FACTS,
};
pub use homomorphism::{
    all_homomorphisms, all_homomorphisms_delta, all_homomorphisms_delta_chunk, find_homomorphism,
    find_homomorphism_into_atoms, find_homomorphism_ordered, freeze_atom, freeze_atoms,
    freeze_term, freezing_substitution, has_homomorphism, plan_match_order,
};
pub use mgu::{
    extend_unifier, unifiable, unify_all_with, unify_atom_lists, unify_atoms, unify_term_lists,
};
pub use piece::{piece_unifiers, PieceUnifier};
