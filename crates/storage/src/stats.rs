//! Relation statistics used by the join planner.
//!
//! The statistics are deliberately simple — per-relation cardinalities and
//! per-column distinct counts — which is all the greedy index-nested-loop
//! planner of [`crate::eval`] needs to order atoms by estimated selectivity.
//! Collecting them is a single pass over the store; OBDA benchmarks collect
//! them once per database and reuse them across every rewritten disjunct.

use ontorew_model::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Per-column statistics of one relation.
#[derive(Clone, Debug, Default)]
pub struct ColumnStats {
    /// Number of distinct values in the column.
    pub distinct: usize,
}

/// Per-relation statistics.
#[derive(Clone, Debug, Default)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// Statistics for each column.
    pub columns: Vec<ColumnStats>,
}

impl RelationStats {
    /// The estimated number of tuples matching an equality selection on
    /// `column` (cardinality / distinct, at least 1 when the relation is
    /// non-empty).
    pub fn selection_estimate(&self, column: usize) -> usize {
        if self.cardinality == 0 {
            return 0;
        }
        let distinct = self
            .columns
            .get(column)
            .map(|c| c.distinct.max(1))
            .unwrap_or(1);
        (self.cardinality / distinct).max(1)
    }
}

/// Statistics for every relation of a store.
#[derive(Clone, Debug, Default)]
pub struct StoreStatistics {
    relations: BTreeMap<Predicate, RelationStats>,
}

impl StoreStatistics {
    /// Collect statistics with a single scan of every relation.
    pub fn collect(store: &Instance) -> Self {
        let mut relations = BTreeMap::new();
        for predicate in store.predicates() {
            let relation = match store.relation(predicate) {
                Some(r) => r,
                None => continue,
            };
            let mut distinct: Vec<BTreeSet<Term>> = vec![BTreeSet::new(); predicate.arity];
            let mut cardinality = 0usize;
            for row in relation.rows() {
                cardinality += 1;
                for (i, t) in row.iter().enumerate() {
                    if let Some(set) = distinct.get_mut(i) {
                        set.insert(*t);
                    }
                }
            }
            relations.insert(
                predicate,
                RelationStats {
                    cardinality,
                    columns: distinct
                        .into_iter()
                        .map(|set| ColumnStats {
                            distinct: set.len(),
                        })
                        .collect(),
                },
            );
        }
        StoreStatistics { relations }
    }

    /// Statistics for one relation, if it exists.
    pub fn relation(&self, predicate: Predicate) -> Option<&RelationStats> {
        self.relations.get(&predicate)
    }

    /// The cardinality of a relation (0 if absent).
    pub fn cardinality(&self, predicate: Predicate) -> usize {
        self.relations
            .get(&predicate)
            .map(|r| r.cardinality)
            .unwrap_or(0)
    }

    /// Estimate the number of rows of `atom`'s relation that match the
    /// atom's ground terms, assuming independent uniform columns.
    pub fn estimated_matches(&self, atom: &Atom) -> usize {
        let stats = match self.relations.get(&atom.predicate) {
            Some(s) => s,
            None => return 0,
        };
        let mut estimate = stats.cardinality as f64;
        if estimate == 0.0 {
            return 0;
        }
        for (i, term) in atom.terms.iter().enumerate() {
            if term.is_ground() {
                let distinct = stats.columns.get(i).map(|c| c.distinct.max(1)).unwrap_or(1) as f64;
                estimate /= distinct;
            }
        }
        estimate.max(1.0) as usize
    }

    /// Number of relations covered by the statistics.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if no relation has statistics.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("teaches", &["alice", "db101"]);
        db.insert_fact("teaches", &["alice", "ml103"]);
        db.insert_fact("teaches", &["bob", "ai102"]);
        db.insert_fact("course", &["db101"]);
        db.insert_fact("course", &["ai102"]);
        db.insert_fact("course", &["ml103"]);
        db
    }

    #[test]
    fn cardinalities_and_distinct_counts() {
        let stats = StoreStatistics::collect(&store());
        assert_eq!(stats.len(), 2);
        let teaches = stats.relation(Predicate::new("teaches", 2)).unwrap();
        assert_eq!(teaches.cardinality, 3);
        assert_eq!(teaches.columns[0].distinct, 2); // alice, bob
        assert_eq!(teaches.columns[1].distinct, 3);
        assert_eq!(stats.cardinality(Predicate::new("course", 1)), 3);
        assert_eq!(stats.cardinality(Predicate::new("missing", 1)), 0);
    }

    #[test]
    fn selection_estimates_divide_by_distinct_values() {
        let stats = StoreStatistics::collect(&store());
        let teaches = stats.relation(Predicate::new("teaches", 2)).unwrap();
        // 3 tuples / 2 distinct teachers = 1 (integer floor, min 1).
        assert_eq!(teaches.selection_estimate(0), 1);
        assert_eq!(teaches.selection_estimate(1), 1);
    }

    #[test]
    fn estimated_matches_accounts_for_ground_terms() {
        let stats = StoreStatistics::collect(&store());
        let unbound = Atom::new("teaches", vec![Term::variable("X"), Term::variable("Y")]);
        let bound = Atom::new(
            "teaches",
            vec![Term::constant("alice"), Term::variable("Y")],
        );
        assert_eq!(stats.estimated_matches(&unbound), 3);
        assert!(stats.estimated_matches(&bound) <= stats.estimated_matches(&unbound));
        let missing = Atom::new("nope", vec![Term::variable("X")]);
        assert_eq!(stats.estimated_matches(&missing), 0);
    }

    #[test]
    fn empty_store_has_empty_statistics() {
        let stats = StoreStatistics::collect(&Instance::new());
        assert!(stats.is_empty());
    }
}
