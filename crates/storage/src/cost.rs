//! A measured cost model for join-strategy selection.
//!
//! [`estimate_join_cost`] simulates both join engines over the statistics of
//! [`crate::stats::StoreStatistics`] — per-relation cardinalities and
//! per-column distinct counts, under the textbook uniformity/independence
//! assumptions — and returns the estimated work (rows touched) of each:
//!
//! * **backtracking** replays the greedy atom order of [`crate::eval`]
//!   (bound variables first, then ground terms, then smallest estimate) and
//!   charges, per atom, the rows fetched through the most selective bound
//!   column for every row of the growing intermediate result — so cyclic
//!   bodies over skewed data show their intermediate blowup in the estimate;
//! * **generic join** replays the variable-at-a-time engine of
//!   `ontorew_unify::generic_join`: per variable, the cheapest supporting
//!   atom's candidate list is enumerated and every other support charges one
//!   existence probe per candidate, so the per-variable work is proportional
//!   to the smallest list — the worst-case-optimality property, visible in
//!   the estimate as well.
//!
//! The model replaces the raw `choose_join_strategy` size threshold wherever
//! statistics are available (the plan layer collects and caches them per
//! data version), and its per-strategy numbers are surfaced through
//! `EXPLAIN` together with the actual answer cardinality, so misestimates
//! are observable rather than silent.

use crate::stats::StoreStatistics;
use ontorew_model::prelude::*;
use ontorew_unify::{is_cyclic, join_order, JoinStrategy};
use std::collections::BTreeSet;

/// Fixed bookkeeping charge of a generic-join evaluation (pattern states,
/// variable ordering): keeps tiny inputs on the backtracking engine, like
/// `GENERIC_JOIN_MIN_FACTS` does for the statistics-free chooser.
const GENERIC_JOIN_SETUP_COST: f64 = 64.0;

/// The estimated work of evaluating one conjunctive body under each join
/// strategy, in abstract row-touch units, plus the estimated number of
/// satisfying assignments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinCost {
    /// Estimated rows touched by the atom-at-a-time backtracking join.
    pub backtracking: f64,
    /// Estimated rows touched by the variable-at-a-time generic join;
    /// infinite for acyclic bodies, where the generic join is never chosen
    /// (the backtracking bound-first order serves them as well or better).
    pub generic_join: f64,
    /// Estimated number of satisfying assignments of the body.
    pub estimated_rows: f64,
}

impl JoinCost {
    /// The strategy the model prefers: the cheaper simulated engine.
    pub fn strategy(&self) -> JoinStrategy {
        if self.generic_join < self.backtracking {
            JoinStrategy::GenericJoin
        } else {
            JoinStrategy::Backtracking
        }
    }

    /// The cost of the preferred strategy.
    pub fn cheapest(&self) -> f64 {
        self.backtracking.min(self.generic_join)
    }
}

/// Estimate the cost of joining `atoms` under both strategies.
pub fn estimate_join_cost(statistics: &StoreStatistics, atoms: &[Atom]) -> JoinCost {
    let (backtracking, estimated_rows) = backtracking_cost(statistics, atoms);
    let generic_join = if is_cyclic(atoms) {
        generic_join_cost(statistics, atoms)
    } else {
        f64::INFINITY
    };
    JoinCost {
        backtracking,
        generic_join,
        estimated_rows,
    }
}

/// The distinct count of `column` in `atom`'s relation (1 when unknown, so
/// divisions are no-ops rather than infinities).
fn distinct(statistics: &StoreStatistics, atom: &Atom, column: usize) -> f64 {
    statistics
        .relation(atom.predicate)
        .and_then(|r| r.columns.get(column))
        .map(|c| c.distinct.max(1))
        .unwrap_or(1) as f64
}

/// Simulate the greedy index-nested-loop join: returns (cost, estimated
/// satisfying assignments).
fn backtracking_cost(statistics: &StoreStatistics, atoms: &[Atom]) -> (f64, f64) {
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut prefix = 1.0f64;
    let mut cost = 0.0f64;
    // The evaluator's own order (`join_order` with statistics).
    let estimate = |atom: &Atom| statistics.estimated_matches(atom);
    for i in join_order(atoms, &[], &estimate, None) {
        let atom = &atoms[i];
        let cardinality = statistics.cardinality(atom.predicate) as f64;
        if cardinality == 0.0 {
            // Missing relation: the join dies after touching the prefix.
            return (cost + prefix.max(1.0), 0.0);
        }
        // Rows fetched per intermediate row: the evaluator probes the most
        // selective constrained column's hash index; rows that survive all
        // constrained columns extend the intermediate result.
        let mut fetched = cardinality;
        let mut matches = cardinality;
        for (i, term) in atom.terms.iter().enumerate() {
            let constrained = match term {
                Term::Variable(v) => bound.contains(v),
                ground => ground.is_ground(),
            };
            if constrained {
                let d = distinct(statistics, atom, i);
                fetched = fetched.min(cardinality / d);
                matches /= d;
            }
        }
        cost += prefix * fetched.max(1.0);
        prefix *= matches;
        bound.extend(atom.variable_set());
    }
    (cost, prefix)
}

/// Simulate the variable-at-a-time generic join: greedy selectivity order,
/// cheapest-support enumeration, one probe per candidate for every other
/// support.
fn generic_join_cost(statistics: &StoreStatistics, atoms: &[Atom]) -> f64 {
    let mut unresolved: Vec<Variable> = Vec::new();
    for atom in atoms {
        for term in &atom.terms {
            if let Term::Variable(v) = term {
                if !unresolved.contains(v) {
                    unresolved.push(*v);
                }
            }
        }
    }
    let mut resolved: BTreeSet<Variable> = BTreeSet::new();
    let mut prefix = 1.0f64;
    let mut cost = GENERIC_JOIN_SETUP_COST;
    while !unresolved.is_empty() {
        // Per unresolved variable: the expected candidate-list length each
        // supporting atom offers under the current (estimated) bindings.
        let estimates = |v: Variable| -> (Vec<f64>, f64, bool) {
            let mut ests: Vec<f64> = Vec::new();
            let mut domain = 1.0f64;
            let mut connected = false;
            for atom in atoms {
                let col = match atom
                    .terms
                    .iter()
                    .position(|t| matches!(t, Term::Variable(u) if *u == v))
                {
                    Some(c) => c,
                    None => continue,
                };
                let cardinality = statistics.cardinality(atom.predicate) as f64;
                if cardinality == 0.0 {
                    ests.push(0.0);
                    continue;
                }
                // Rows of the atom surviving the already-resolved columns…
                let mut matches = cardinality;
                for (i, term) in atom.terms.iter().enumerate() {
                    let constrained = match term {
                        Term::Variable(u) => resolved.contains(u),
                        ground => ground.is_ground(),
                    };
                    if constrained {
                        matches /= distinct(statistics, atom, i);
                        connected = true;
                    }
                }
                // …cap the distinct values of v's column among them.
                let d = distinct(statistics, atom, col);
                domain = domain.max(d);
                ests.push(d.min(matches.max(0.0)));
            }
            ests.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
            (ests, domain, connected)
        };
        // Greedy order mirroring `order_variables`: connected variables
        // first, then the smallest cheapest-support estimate.
        let (vi, _) = unresolved
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (ea, _, ca) = estimates(**a);
                let (eb, _, cb) = estimates(**b);
                (u8::from(!ca), ea.first().copied().unwrap_or(0.0))
                    .partial_cmp(&(u8::from(!cb), eb.first().copied().unwrap_or(0.0)))
                    .expect("estimates are finite")
            })
            .expect("unresolved is non-empty");
        let v = unresolved.remove(vi);
        let (ests, domain, _) = estimates(v);
        let candidates = ests.first().copied().unwrap_or(0.0);
        // Enumerate the cheapest list, probe it through every other support;
        // survivors are the candidates thinned by each other support's
        // chance of containing the value.
        let probes = candidates * ests.len().saturating_sub(1) as f64;
        cost += prefix * (candidates + probes).max(1.0);
        let mut survivors = candidates;
        for est in ests.iter().skip(1) {
            survivors *= (est / domain).min(1.0);
        }
        prefix *= survivors;
        resolved.insert(v);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::variable(n)
    }

    /// A follower graph where a few hubs concentrate the in-degree: the
    /// shape where atom-at-a-time joins enumerate a quadratic number of
    /// two-paths while the generic join stays near-linear.
    fn hub_store(users: usize, hubs: usize) -> Instance {
        let mut db = Instance::new();
        for u in 0..users {
            for h in 0..hubs {
                db.insert_fact("follows", &[&format!("u{u}"), &format!("h{h}")]);
            }
        }
        for a in 0..hubs {
            for b in 0..hubs {
                if a != b {
                    db.insert_fact("follows", &[&format!("h{a}"), &format!("h{b}")]);
                }
            }
        }
        db
    }

    fn triangle() -> Vec<Atom> {
        vec![
            Atom::new("follows", vec![v("X"), v("Y")]),
            Atom::new("follows", vec![v("Y"), v("Z")]),
            Atom::new("follows", vec![v("Z"), v("X")]),
        ]
    }

    #[test]
    fn cyclic_bodies_over_skewed_data_prefer_the_generic_join() {
        let db = hub_store(400, 8);
        let stats = StoreStatistics::collect(&db);
        let cost = estimate_join_cost(&stats, &triangle());
        assert!(cost.generic_join.is_finite());
        assert!(
            cost.generic_join < cost.backtracking,
            "generic {} vs backtracking {}",
            cost.generic_join,
            cost.backtracking
        );
        assert_eq!(cost.strategy(), JoinStrategy::GenericJoin);
        assert!(cost.estimated_rows > 0.0);
    }

    #[test]
    fn acyclic_bodies_always_cost_out_to_backtracking() {
        let db = hub_store(100, 4);
        let stats = StoreStatistics::collect(&db);
        let path = vec![
            Atom::new("follows", vec![v("X"), v("Y")]),
            Atom::new("follows", vec![v("Y"), v("Z")]),
        ];
        let cost = estimate_join_cost(&stats, &path);
        assert!(cost.generic_join.is_infinite());
        assert_eq!(cost.strategy(), JoinStrategy::Backtracking);
        assert_eq!(cost.cheapest(), cost.backtracking);
    }

    #[test]
    fn tiny_cyclic_inputs_stay_on_backtracking() {
        let mut db = Instance::new();
        db.insert_fact("follows", &["a", "b"]);
        db.insert_fact("follows", &["b", "c"]);
        db.insert_fact("follows", &["c", "a"]);
        let stats = StoreStatistics::collect(&db);
        let cost = estimate_join_cost(&stats, &triangle());
        // The setup charge dominates three facts.
        assert_eq!(cost.strategy(), JoinStrategy::Backtracking);
    }

    #[test]
    fn missing_relations_estimate_zero_rows() {
        let stats = StoreStatistics::collect(&Instance::new());
        let cost = estimate_join_cost(&stats, &triangle());
        assert_eq!(cost.estimated_rows, 0.0);
        assert!(cost.backtracking >= 1.0);
    }

    #[test]
    fn selective_constants_shrink_the_estimate() {
        let db = hub_store(200, 6);
        let stats = StoreStatistics::collect(&db);
        let open = vec![Atom::new("follows", vec![v("X"), v("Y")])];
        let pinned = vec![Atom::new("follows", vec![Term::constant("u0"), v("Y")])];
        let open_cost = estimate_join_cost(&stats, &open);
        let pinned_cost = estimate_join_cost(&stats, &pinned);
        assert!(pinned_cost.estimated_rows < open_cost.estimated_rows);
        assert!(pinned_cost.backtracking < open_cost.backtracking);
    }
}
