//! # ontorew-workloads
//!
//! Synthetic TGD ontologies and data generators for the tests and the
//! benchmark.
//!
//! The paper reports no datasets of its own (it is a PhD-symposium paper), so
//! the tests and the benchmark run on parameterised synthetic families that
//! exercise the relevant structure: linear chains and class hierarchies (the
//! DL-Lite-style workloads §1 motivates), star-shaped join rules,
//! sticky/non-sticky families, and random TGD sets. Every generator is
//! seeded, so runs are reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod abox;
pub mod generators;
pub mod suites;

pub use abox::{random_abox, university_abox, AboxConfig};
pub use generators::{
    chain_program, hierarchy_program, random_program, star_program, sticky_family_program,
    RandomProgramConfig,
};
pub use suites::{
    lubm_style_abox, lubm_style_ontology, lubm_style_queries, registrar_abox, registrar_ontology,
    registrar_queries, sensor_network_abox, sensor_network_ontology, sensor_network_queries,
    social_graph_abox, social_graph_ontology, social_graph_queries, supply_chain_abox,
    supply_chain_ontology,
};
