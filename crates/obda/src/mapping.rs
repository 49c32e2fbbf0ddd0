//! Mappings between source relations and ontology predicates.
//!
//! §1 of the paper describes the OBDA architecture as three layers: the
//! ontology (intensional), the data sources (extensional) and, between them,
//! *mapping assertions* relating the two. This module implements the
//! GAV-style (global-as-view) mappings that cover the common case: each
//! mapping populates one ontology predicate by projecting/permuting the
//! columns of one source relation.

use ontorew_model::prelude::*;
use serde::{Deserialize, Serialize};

/// A GAV mapping assertion: `target(x_{p_1}, ..., x_{p_k}) :- source(x_1, ..., x_n)`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// The source relation (in the data layer).
    pub source: Predicate,
    /// The ontology predicate being populated.
    pub target: Predicate,
    /// For each argument of `target`, the 0-based source column it comes from.
    pub projection: Vec<usize>,
}

impl Mapping {
    /// Build a mapping, validating arities and column indices.
    pub fn new(source: Predicate, target: Predicate, projection: Vec<usize>) -> Self {
        assert_eq!(
            projection.len(),
            target.arity,
            "projection length must match the target arity"
        );
        assert!(
            projection.iter().all(|c| *c < source.arity),
            "projection column out of range for {source}"
        );
        Mapping {
            source,
            target,
            projection,
        }
    }

    /// The identity mapping `p -> p` (same name, same columns).
    pub fn identity(predicate: Predicate) -> Self {
        Mapping {
            source: predicate,
            target: predicate,
            projection: (0..predicate.arity).collect(),
        }
    }

    /// Apply the mapping to one source tuple.
    pub fn apply_tuple(&self, tuple: &[Term]) -> Atom {
        Atom::from_predicate(
            self.target,
            self.projection.iter().map(|c| tuple[*c]).collect(),
        )
    }
}

/// A set of mapping assertions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingSet {
    /// The mapping assertions.
    pub mappings: Vec<Mapping>,
}

impl MappingSet {
    /// An empty mapping set.
    pub fn new() -> Self {
        MappingSet::default()
    }

    /// The identity mapping set over every predicate of `signature` — used
    /// when the source already speaks the ontology vocabulary.
    pub fn identity_for(signature: &Signature) -> Self {
        MappingSet {
            mappings: signature.predicates().map(Mapping::identity).collect(),
        }
    }

    /// Add a mapping.
    pub fn push(&mut self, mapping: Mapping) {
        self.mappings.push(mapping);
    }

    /// Number of mapping assertions.
    pub fn len(&self) -> usize {
        self.mappings.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Materialise the virtual ontology-level database (the "retrieved ABox"):
    /// apply every mapping to every tuple of its source relation.
    pub fn apply(&self, source: &Instance) -> Instance {
        let mut out = Instance::new();
        for mapping in &self.mappings {
            if let Some(relation) = source.relation(mapping.source) {
                for tuple in relation.rows() {
                    out.insert(mapping.apply_tuple(tuple));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_store() -> Instance {
        let mut db = Instance::new();
        // A wide legacy relation: emp(id, name, dept, salary)
        db.insert_fact("emp", &["e1", "alice", "cs", "100"]);
        db.insert_fact("emp", &["e2", "bob", "math", "90"]);
        db
    }

    #[test]
    fn projection_mapping_extracts_columns() {
        let m = Mapping::new(
            Predicate::new("emp", 4),
            Predicate::new("worksIn", 2),
            vec![0, 2],
        );
        let mut set = MappingSet::new();
        set.push(m);
        let abox = set.apply(&source_store());
        assert_eq!(abox.len(), 2);
        assert!(abox.contains(&Atom::fact("worksIn", &["e1", "cs"])));
    }

    #[test]
    fn identity_mappings_copy_relations() {
        let store = source_store();
        let set = MappingSet::identity_for(&store.signature());
        let abox = set.apply(&store);
        assert_eq!(abox, store);
    }

    #[test]
    fn column_permutation_is_supported() {
        let m = Mapping::new(
            Predicate::new("emp", 4),
            Predicate::new("employs", 2),
            vec![2, 0],
        );
        let abox = MappingSet { mappings: vec![m] }.apply(&source_store());
        assert!(abox.contains(&Atom::fact("employs", &["cs", "e1"])));
    }

    #[test]
    #[should_panic(expected = "projection length")]
    fn arity_mismatch_is_rejected() {
        Mapping::new(
            Predicate::new("emp", 4),
            Predicate::new("worksIn", 2),
            vec![0],
        );
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn out_of_range_column_is_rejected() {
        Mapping::new(
            Predicate::new("emp", 4),
            Predicate::new("worksIn", 2),
            vec![0, 9],
        );
    }

    #[test]
    fn missing_source_relations_are_silently_empty() {
        let set = MappingSet {
            mappings: vec![Mapping::identity(Predicate::new("absent", 1))],
        };
        assert!(set.apply(&source_store()).is_empty());
    }
}
