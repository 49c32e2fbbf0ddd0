//! Query patterns and approximation for non-FO-rewritable programs.
//!
//! §7 of the paper observes that for an arbitrary TGD set we may end up in one
//! of three situations: (i) the set is (provably) WR, (ii) we cannot tell,
//! (iii) the set is not WR. For (ii) and (iii) it points to approximation
//! techniques based on *query patterns* (Civili & Rosati, RR 2012).
//!
//! A **query pattern** abstracts a conjunctive query the same way the
//! position graph abstracts atoms: each atom is reduced to its predicate plus,
//! per argument position, whether the position holds a *bound* term (an answer
//! variable, a constant, or a join variable shared with another atom) or a
//! *free* term (an existential variable local to the atom). The set of
//! patterns reachable during rewriting is finite, so tracking pattern
//! recurrence gives both
//!
//! * a cheap divergence heuristic ([`PatternAnalysis::recurrent_patterns`] —
//!   a pattern produced at ever increasing depths signals an unbounded chain
//!   like the one of the paper's Example 2), and
//! * a sound bounded approximation ([`approximate_rewrite`]) whose coverage
//!   can be cross-checked against the chase.

use crate::engine::{rewrite, RewriteConfig, Rewriting};
use crate::rq::RQuery;
use crate::step::{factorizations, rewrite_with_rule};
use ontorew_model::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Whether an argument position of a pattern atom is bound or free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArgKind {
    /// Answer variable, constant, or variable shared with another atom.
    Bound,
    /// Existential variable local to its atom.
    Free,
}

/// The pattern of a single atom: its predicate plus the bound/free shape of
/// its argument positions.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomPattern {
    /// The predicate of the atom.
    pub predicate: Predicate,
    /// Bound/free classification of each argument position.
    pub args: Vec<ArgKind>,
}

/// The pattern of a conjunctive query: the multiset (stored sorted) of its
/// atom patterns.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryPattern {
    /// Sorted atom patterns.
    pub atoms: Vec<AtomPattern>,
}

impl QueryPattern {
    /// Extract the pattern of an internal rewriting query.
    pub fn of_rquery(query: &RQuery) -> Self {
        let answer_vars: BTreeSet<Variable> = query
            .answer
            .iter()
            .filter_map(|t| t.as_variable())
            .collect();
        // Count occurrences of each variable across atoms.
        let mut atom_count: BTreeMap<Variable, usize> = BTreeMap::new();
        for atom in &query.body {
            for v in atom.variable_set() {
                *atom_count.entry(v).or_insert(0) += 1;
            }
        }
        let mut atoms: Vec<AtomPattern> = query
            .body
            .iter()
            .map(|atom| AtomPattern {
                predicate: atom.predicate,
                args: atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Variable(v) => {
                            let shared_across_atoms = atom_count.get(v).copied().unwrap_or(0) > 1;
                            let repeated_within_atom = atom.occurrences_of(*v) > 1;
                            if answer_vars.contains(v)
                                || shared_across_atoms
                                || repeated_within_atom
                            {
                                ArgKind::Bound
                            } else {
                                ArgKind::Free
                            }
                        }
                        _ => ArgKind::Bound,
                    })
                    .collect(),
            })
            .collect();
        atoms.sort();
        QueryPattern { atoms }
    }

    /// Extract the pattern of a public conjunctive query.
    pub fn of_cq(query: &ConjunctiveQuery) -> Self {
        QueryPattern::of_rquery(&RQuery::from_cq(query))
    }

    /// Number of atom patterns.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True if the pattern has no atoms (cannot happen for well-formed CQs).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// Result of tracking query patterns during a (depth-bounded) rewriting.
#[derive(Clone, Debug)]
pub struct PatternAnalysis {
    /// Every query pattern observed, with the depths at which a *new*
    /// (canonically distinct) query with that pattern was generated.
    pub observed: BTreeMap<QueryPattern, Vec<usize>>,
    /// Every atom pattern observed, with the depths at which it appeared in a
    /// newly generated query.
    pub atom_observed: BTreeMap<AtomPattern, Vec<usize>>,
    /// Depth bound used for the exploration.
    pub depth: usize,
    /// Whether the exploration saturated before the depth bound.
    pub saturated: bool,
}

impl PatternAnalysis {
    /// Atom patterns that keep being regenerated at three or more different
    /// depths — the signature of an unbounded chain (cf. Example 2 of the
    /// paper, where the `s(bound, bound, bound)` and `r(bound, free)` shapes
    /// reappear at every other level).
    pub fn recurrent_patterns(&self) -> Vec<&AtomPattern> {
        self.atom_observed
            .iter()
            .filter(|(_, depths)| {
                let distinct: BTreeSet<usize> = depths.iter().copied().collect();
                distinct.len() >= 3
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// A heuristic verdict: `true` when the exploration saturated and no
    /// pattern is recurrent — evidence (not proof) that the rewriting of this
    /// query is finite.
    pub fn looks_fo_rewritable(&self) -> bool {
        self.saturated && self.recurrent_patterns().is_empty()
    }
}

/// Explore the rewriting space of `query` under `program` up to `depth`,
/// recording the query patterns generated at each depth.
pub fn analyze_patterns(
    program: &TgdProgram,
    query: &ConjunctiveQuery,
    depth: usize,
) -> PatternAnalysis {
    let mut observed: BTreeMap<QueryPattern, Vec<usize>> = BTreeMap::new();
    let mut atom_observed: BTreeMap<AtomPattern, Vec<usize>> = BTreeMap::new();
    let record = |q: &RQuery,
                  d: usize,
                  observed: &mut BTreeMap<QueryPattern, Vec<usize>>,
                  atom_observed: &mut BTreeMap<AtomPattern, Vec<usize>>| {
        let pattern = QueryPattern::of_rquery(q);
        for atom_pattern in &pattern.atoms {
            atom_observed
                .entry(atom_pattern.clone())
                .or_default()
                .push(d);
        }
        observed.entry(pattern).or_default().push(d);
    };
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut queue: VecDeque<(RQuery, usize)> = VecDeque::new();
    let start = RQuery::from_cq(query).canonical();
    record(&start, 0, &mut observed, &mut atom_observed);
    seen.insert(start.canonical_key(), 0);
    queue.push_back((start, 0));
    let mut saturated = true;

    while let Some((current, d)) = queue.pop_front() {
        if d >= depth {
            saturated = false;
            continue;
        }
        let mut produced: Vec<RQuery> = Vec::new();
        for (rule_index, rule) in program.iter().enumerate() {
            for step in rewrite_with_rule(&current, rule, rule_index) {
                produced.push(step.query);
            }
        }
        for f in factorizations(&current) {
            produced.push(f);
        }
        for p in produced {
            let canonical = p.canonical();
            let key = canonical.canonical_key();
            if seen.contains_key(&key) {
                continue;
            }
            seen.insert(key, d + 1);
            record(&canonical, d + 1, &mut observed, &mut atom_observed);
            queue.push_back((canonical, d + 1));
        }
    }

    PatternAnalysis {
        observed,
        atom_observed,
        depth,
        saturated,
    }
}

/// A sound, depth-bounded approximation of the perfect rewriting, together
/// with the pattern analysis that justifies (or disclaims) its completeness.
#[derive(Clone, Debug)]
pub struct ApproximateRewriting {
    /// The (possibly partial) rewriting.
    pub rewriting: Rewriting,
    /// The pattern analysis of the same exploration depth.
    pub analysis: PatternAnalysis,
}

impl ApproximateRewriting {
    /// True if the approximation is in fact exact.
    pub fn is_exact(&self) -> bool {
        self.rewriting.complete
    }
}

/// Compute a sound approximation of the rewriting of `query` under `program`
/// with the given depth bound (cf. §7 of the paper: what to do when the set is
/// not, or not known to be, WR).
pub fn approximate_rewrite(
    program: &TgdProgram,
    query: &ConjunctiveQuery,
    depth: usize,
) -> ApproximateRewriting {
    let rewriting = rewrite(program, query, &RewriteConfig::with_depth(depth));
    let analysis = analyze_patterns(program, query, depth);
    ApproximateRewriting {
        rewriting,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::{parse_program, parse_query};

    #[test]
    fn pattern_extraction_classifies_positions() {
        let q = parse_query("q(X) :- r(X, Y), s(Y, Z)").unwrap();
        let p = QueryPattern::of_cq(&q);
        assert_eq!(p.len(), 2);
        // r(X, Y): X answer -> Bound, Y shared join -> Bound.
        // s(Y, Z): Y Bound, Z local existential -> Free.
        let r_pattern = p
            .atoms
            .iter()
            .find(|a| a.predicate == Predicate::new("r", 2))
            .unwrap();
        assert_eq!(r_pattern.args, vec![ArgKind::Bound, ArgKind::Bound]);
        let s_pattern = p
            .atoms
            .iter()
            .find(|a| a.predicate == Predicate::new("s", 2))
            .unwrap();
        assert_eq!(s_pattern.args, vec![ArgKind::Bound, ArgKind::Free]);
    }

    #[test]
    fn constants_count_as_bound() {
        let q = parse_query(r#"q() :- r("a", X)"#).unwrap();
        let p = QueryPattern::of_cq(&q);
        assert_eq!(p.atoms[0].args, vec![ArgKind::Bound, ArgKind::Free]);
    }

    #[test]
    fn repeated_variable_in_one_atom_is_bound() {
        let q = parse_query("q() :- t(Z, Z, W)").unwrap();
        let p = QueryPattern::of_cq(&q);
        assert_eq!(
            p.atoms[0].args,
            vec![ArgKind::Bound, ArgKind::Bound, ArgKind::Free]
        );
    }

    #[test]
    fn fo_rewritable_program_looks_fo_rewritable() {
        let p = parse_program(
            "[R1] student(X) -> person(X).\n\
             [R2] professor(X) -> person(X).",
        )
        .unwrap();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let analysis = analyze_patterns(&p, &q, 10);
        assert!(analysis.saturated);
        assert!(analysis.looks_fo_rewritable());
    }

    #[test]
    fn example2_shows_recurrent_patterns() {
        let p = parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).",
        )
        .unwrap();
        let q = parse_query(r#"q() :- r("a", X)"#).unwrap();
        let analysis = analyze_patterns(&p, &q, 8);
        assert!(!analysis.saturated);
        assert!(!analysis.recurrent_patterns().is_empty());
        assert!(!analysis.looks_fo_rewritable());
    }

    #[test]
    fn approximate_rewriting_is_exact_on_terminating_inputs() {
        let p = parse_program("[R1] student(X) -> person(X).").unwrap();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let approx = approximate_rewrite(&p, &q, 10);
        assert!(approx.is_exact());
        assert_eq!(approx.rewriting.ucq.len(), 2);
    }

    #[test]
    fn approximate_rewriting_is_sound_on_diverging_inputs() {
        let p = parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).",
        )
        .unwrap();
        let q = parse_query(r#"q() :- r("a", X)"#).unwrap();
        let approx = approximate_rewrite(&p, &q, 4);
        assert!(!approx.is_exact());
        // Soundness check against the chase on a database where the answer is
        // derivable within the bound.
        let mut db = Instance::new();
        db.insert_fact("s", &["c", "c", "a"]);
        let answers = crate::answer::evaluate_rewriting(&approx.rewriting, &q, &db);
        assert!(answers.as_boolean());
        let certain =
            ontorew_chase::certain_answers(&p, &db, &q, &ontorew_chase::ChaseConfig::default());
        assert!(certain.answers.as_boolean());
    }

    #[test]
    fn pattern_space_is_finite_even_when_queries_diverge() {
        let p = parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).",
        )
        .unwrap();
        let q = parse_query(r#"q() :- r("a", X)"#).unwrap();
        let shallow = analyze_patterns(&p, &q, 4);
        let deep = analyze_patterns(&p, &q, 7);
        // Queries keep growing but patterns do not explode the same way: the
        // number of *distinct* patterns grows much more slowly than the number
        // of distinct queries.
        assert!(deep.observed.len() >= shallow.observed.len());
        assert!(deep.observed.len() < 200);
    }
}
