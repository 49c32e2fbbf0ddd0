//! The backtracking homomorphism search: one atom at a time, compiled once
//! per call.
//!
//! Every atom-at-a-time search of the workspace runs here: the query
//! evaluator's, the chase's trigger search and head-satisfaction check,
//! CQ containment, DRed's rederive check and instance equivalence. A search
//! is compiled from the atoms, the seed (the variables bound before it
//! starts) and one source per atom, then walked without allocating per
//! row:
//!
//! * **Atom order.** Atoms are ordered greedily so that each shares as many
//!   variables as possible with the seed and the atoms before it, then by
//!   ground terms, then by fewest estimated rows. The caller supplies the
//!   estimate: relation sizes, or the evaluator's statistics. A delta
//!   search puts its pivot first.
//! * **Slot frame.** Every variable gets a dense slot in one frame of terms;
//!   seed variables are slots bound above level 0, and a compiled search
//!   can be reseeded and run again (the chase checks each rule head this
//!   way, once per trigger). Because the order is fixed, each other slot is
//!   bound at exactly one level: its first occurrence binds it, every later
//!   occurrence checks against it. A level therefore only overwrites its
//!   own slots, and nothing has to be undone when the search backtracks.
//! * **Probe patterns.** Each level keeps its probe pattern in a buffer:
//!   constants of the atom stay put, and the columns of slots bound above
//!   (seed slots included) are rewritten from the frame on entry.
//!   The pattern picks the access path (the most selective bound column's
//!   hash index, or a scan), so the search only needs shared access to the
//!   instance.
//! * **Existential cut.** Let *k* be the first level after which every
//!   answer variable is bound. Below it, the search only has to show that a
//!   match exists: it stops after the first complete match and returns to
//!   level *k*. With every body variable as the answer nothing is cut (each
//!   homomorphism is visited); with no answer variables the search stops at
//!   its first match, which is how existence checks end early.
//!
//! A complete match is handed to a visitor as the frame (slot variables and
//! their values), the way [`crate::generic_join_visit`] hands over its
//! substitutions. The collecting wrappers of [`crate::homomorphism`] build
//! one [`Substitution`] per match from it; the query evaluator projects it
//! straight into its answer sink.

use crate::generic_join::{count_backtracking_evaluation, Source};
use ontorew_model::prelude::*;
use std::collections::BTreeSet;

/// What a search walked: the rows fetched from sources (the existential cut
/// stops fetching below its level once a match is found) and the complete
/// matches handed to the visitor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Rows fetched from the sources, via an index probe or a scan.
    pub rows_fetched: usize,
    /// Complete matches handed to the visitor.
    pub emitted: usize,
}

/// A conjunctive body compiled for the backtracking search: one level per
/// atom in join order, and the slot frame it binds.
pub struct Backtrack<'a> {
    levels: Vec<Level<'a>>,
    /// The variable of each slot; the seed variables come first.
    slots: Vec<Variable>,
    /// The value of each slot: a seed value, a row's value once bound, and
    /// the slot's own variable before that.
    frame: Vec<Term>,
}

impl<'a> Backtrack<'a> {
    /// Compile a search of `atoms` over `relations` whose variables
    /// `seeded` are bound before it starts ([`Backtrack::seed`] gives their
    /// values). The existential cut is placed for `answer`; `estimate`
    /// sizes each atom for the join order.
    pub fn new(
        atoms: &[Atom],
        relations: &'a Instance,
        seeded: &[Variable],
        answer: &[Variable],
        estimate: &dyn Fn(&Atom) -> usize,
    ) -> Self {
        let sources = atoms
            .iter()
            .map(|atom| Source::of(relations.relation(atom.predicate)))
            .collect();
        Self::compile(atoms, sources, seeded, answer, estimate, None)
    }

    /// Compile with an explicit source per atom, and optionally the atom
    /// that must come first (the pivot of a delta search).
    pub(crate) fn compile(
        atoms: &[Atom],
        sources: Vec<Source<'a>>,
        seeded: &[Variable],
        answer: &[Variable],
        estimate: &dyn Fn(&Atom) -> usize,
        first: Option<usize>,
    ) -> Self {
        debug_assert_eq!(atoms.len(), sources.len());
        let mut slots: Vec<Variable> = seeded.to_vec();
        let mut frame: Vec<Term> = seeded.iter().map(|v| Term::Variable(*v)).collect();
        let slot_of = |slots: &[Variable], v: Variable| slots.iter().position(|s| *s == v);
        let order = join_order(atoms, seeded, estimate, first);
        let mut levels = Vec::with_capacity(order.len());
        for i in order {
            let atom = &atoms[i];
            // The cut: once every answer variable is bound above this level,
            // one complete match is enough.
            let existential = answer.iter().all(|v| slots.contains(v));
            let bound_above = slots.len();
            let mut inputs = Vec::new();
            let mut columns = Vec::with_capacity(atom.terms.len());
            for (col, term) in atom.terms.iter().enumerate() {
                let column = match *term {
                    Term::Variable(v) => match slot_of(&slots, v) {
                        Some(slot) if slot < bound_above => {
                            inputs.push((col, slot));
                            Column::Fixed
                        }
                        Some(slot) => Column::Repeat(slot),
                        None => {
                            slots.push(v);
                            frame.push(*term);
                            Column::Bind(slots.len() - 1)
                        }
                    },
                    _ => Column::Fixed,
                };
                columns.push(column);
            }
            levels.push(Level {
                source: sources[i],
                pattern: atom.terms.clone(),
                inputs,
                columns,
                existential,
            });
        }
        Backtrack {
            levels,
            slots,
            frame,
        }
    }

    /// Bind the seed variables, in the order given at compile time, to
    /// `values`. Every run after it extends this seed.
    pub fn seed(&mut self, values: &[Term]) {
        self.frame[..values.len()].copy_from_slice(values);
    }

    /// The slot of `v`, if the seed or some atom binds it.
    pub fn slot(&self, v: Variable) -> Option<usize> {
        self.slots.iter().position(|s| *s == v)
    }

    /// `atoms` with each variable replaced by its value in the frame: after
    /// a run that found a match and stopped at it (no answer variables),
    /// the image of `atoms` under that match.
    pub fn image(&self, atoms: &[Atom]) -> Vec<Atom> {
        atoms
            .iter()
            .map(|atom| Atom {
                predicate: atom.predicate,
                terms: atom
                    .terms
                    .iter()
                    .map(|t| match t.as_variable().and_then(|v| self.slot(v)) {
                        Some(slot) => self.frame[slot],
                        None => *t,
                    })
                    .collect(),
            })
            .collect()
    }

    /// Enumerate the matches, handing each to `visit` as the slot variables
    /// and their values. Counted as one backtracking evaluation in
    /// `join_evaluations_total`.
    pub fn run(&mut self, mut visit: impl FnMut(&[Variable], &[Term])) -> SearchCounts {
        count_backtracking_evaluation();
        self.walk(&mut visit)
    }

    /// True if some match extends the seed. Not counted as an evaluation;
    /// compiled without answer variables, the search stops at the first
    /// match and leaves it in the frame (see [`Backtrack::image`]).
    pub fn exists(&mut self) -> bool {
        self.walk(&mut |_: &[Variable], _: &[Term]| {}).emitted > 0
    }

    /// [`Backtrack::run`] without counting an evaluation: existence checks
    /// and the pivots of one delta enumeration.
    pub(crate) fn walk<F: FnMut(&[Variable], &[Term])>(&mut self, visit: &mut F) -> SearchCounts {
        let mut counts = SearchCounts::default();
        search(
            &mut self.levels,
            &self.slots,
            &mut self.frame,
            &mut counts,
            visit,
        );
        counts
    }
}

/// The greedy join order of the search, as indices into `atoms`:
/// repeatedly pick the atom maximising (variables bound so far, ground
/// terms, -estimated rows), the last such atom on ties. `bound` holds the
/// variables bound before the search starts; `first`, when given, goes
/// first whatever its score. The storage crate's cost model walks the same
/// order.
pub fn join_order(
    atoms: &[Atom],
    bound: &[Variable],
    estimate: &dyn Fn(&Atom) -> usize,
    first: Option<usize>,
) -> Vec<usize> {
    let vars: Vec<Vec<Variable>> = atoms.iter().map(Atom::variables).collect();
    let mut bound: BTreeSet<Variable> = bound.iter().copied().collect();
    let mut order = Vec::with_capacity(atoms.len());
    if let Some(pivot) = first {
        bound.extend(&vars[pivot]);
        order.push(pivot);
    }
    let mut remaining: Vec<(usize, i64)> = (0..atoms.len())
        .filter(|&i| Some(i) != first)
        .map(|i| {
            let ground = atoms[i].terms.iter().filter(|t| t.is_ground()).count() as i64;
            let size = estimate(&atoms[i]).min(9_999) as i64;
            (i, ground * 10_000 - size)
        })
        .collect();
    while !remaining.is_empty() {
        let (best, _) = remaining
            .iter()
            .enumerate()
            .map(|(k, &(i, base))| {
                let bound_vars = vars[i].iter().filter(|v| bound.contains(v)).count() as i64;
                (k, bound_vars * 1_000_000 + base)
            })
            .max_by_key(|(_, score)| *score)
            .expect("remaining is non-empty");
        let (i, _) = remaining.remove(best);
        bound.extend(&vars[i]);
        order.push(i);
    }
    order
}

/// What one column of a compiled atom asks of a row.
#[derive(Clone, Copy, Debug)]
enum Column {
    /// The probe pattern holds a ground term here (a constant of the atom or
    /// the value of a slot bound above) and the row must equal it.
    Fixed,
    /// The first occurrence of a slot: the row's value binds it.
    Bind(usize),
    /// A later occurrence of a slot bound in this same atom: the row must
    /// repeat the value.
    Repeat(usize),
}

/// One atom of the ordered body, compiled against the slot frame.
struct Level<'a> {
    source: Source<'a>,
    /// The probe pattern: constants, the values of slots bound above
    /// (rewritten on entry), and variables for the slots bound here.
    pattern: Vec<Term>,
    /// `(column, slot)` for each slot bound above: a seed slot or one bound
    /// at an earlier level.
    inputs: Vec<(usize, usize)>,
    columns: Vec<Column>,
    /// True at and below the existential cut: every answer slot is bound
    /// above, so one complete match is enough.
    existential: bool,
}

impl Level<'_> {
    /// Match `row` against the level, binding its slots into `frame`.
    fn matches(&self, row: &[Term], frame: &mut [Term]) -> bool {
        for (col, column) in self.columns.iter().enumerate() {
            match *column {
                Column::Fixed => {
                    if row[col] != self.pattern[col] {
                        return false;
                    }
                }
                Column::Bind(slot) => frame[slot] = row[col],
                Column::Repeat(slot) => {
                    if row[col] != frame[slot] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The search below `levels`. Returns true if some complete match was found
/// below this point, which is what lets an existential level stop after its
/// first one.
fn search<F: FnMut(&[Variable], &[Term])>(
    levels: &mut [Level<'_>],
    slots: &[Variable],
    frame: &mut [Term],
    counts: &mut SearchCounts,
    visit: &mut F,
) -> bool {
    let Some((level, deeper)) = levels.split_first_mut() else {
        counts.emitted += 1;
        visit(slots, frame);
        return true;
    };
    for &(col, slot) in &level.inputs {
        level.pattern[col] = frame[slot];
    }
    let level = &*level;
    let (relation, excluded) = match level.source {
        Source::Absent => return false,
        Source::Rel(relation) => (relation, None),
        Source::Old {
            rel,
            delta,
            predicate,
        } => (rel, Some((delta, predicate))),
    };
    let mut found = false;
    for row in relation.candidates(&level.pattern) {
        counts.rows_fetched += 1;
        if level.matches(row, frame)
            && excluded.is_none_or(|(delta, predicate)| !delta.contains_tuple(predicate, row))
            && search(deeper, slots, frame, counts, visit)
        {
            found = true;
            if level.existential {
                break;
            }
        }
    }
    found
}
