//! Triggers: matches of rule bodies into an instance.

use ontorew_model::prelude::*;
use ontorew_unify::{
    all_homomorphisms, all_homomorphisms_delta, all_homomorphisms_delta_chunk, find_homomorphism,
    find_homomorphism_ordered, generic_join_all, generic_join_delta, generic_join_delta_pivot,
    is_cyclic, plan_match_order, JoinStrategy, GENERIC_JOIN_MIN_FACTS,
};
use std::collections::BTreeSet;

/// Per-rule metadata the chase needs for every trigger, computed once per
/// chase run instead of once per trigger: the frontier, the existential head
/// variables, the set of body predicates (used to skip rules whose body
/// cannot touch a round's delta), and the pre-planned match order of the
/// head atoms for the restricted chase's satisfaction check.
#[derive(Clone, Debug)]
pub struct RulePlan {
    /// The rule's frontier (distinguished variables), in head order.
    pub frontier: Vec<Variable>,
    /// The rule's existential head variables.
    pub existentials: Vec<Variable>,
    /// The predicates occurring in the rule body.
    pub body_predicates: BTreeSet<Predicate>,
    /// The head atoms in the greedy match order the satisfaction check uses,
    /// planned once per rule (the seed domain — the frontier — is the same
    /// for every trigger of the rule, so the order never changes).
    pub head_order: Vec<Atom>,
    /// True if the body's variable hypergraph is cyclic (GYO test) — the
    /// shapes on which the worst-case-optimal generic join beats the
    /// backtracking trigger search.
    pub cyclic: bool,
}

impl RulePlan {
    /// Precompute the plan of one rule.
    pub fn new(rule: &Tgd) -> Self {
        let frontier = rule.frontier();
        let head_order = plan_match_order(&rule.head, frontier.iter().copied());
        RulePlan {
            frontier,
            existentials: rule.existential_head_variables(),
            body_predicates: predicates_of(&rule.body),
            head_order,
            cyclic: is_cyclic(&rule.body),
        }
    }

    /// True if some body predicate has at least one fact in `delta` — i.e.
    /// the rule can have a trigger that uses the delta.
    pub fn body_touches(&self, delta: &Instance) -> bool {
        self.body_predicates
            .iter()
            .any(|p| delta.relation_size(*p) > 0)
    }

    /// The per-rule join strategy on `instance`: generic join when the body
    /// is cyclic and the touched relations hold enough facts for the
    /// variable-at-a-time overhead to pay, backtracking otherwise. Evaluated
    /// per round — a rule can graduate to the generic join as the chase
    /// grows the instance.
    pub fn join_strategy(&self, instance: &Instance) -> JoinStrategy {
        if !self.cyclic {
            return JoinStrategy::Backtracking;
        }
        let total: usize = self
            .body_predicates
            .iter()
            .map(|p| instance.relation_size(*p))
            .sum();
        if total >= GENERIC_JOIN_MIN_FACTS {
            JoinStrategy::GenericJoin
        } else {
            JoinStrategy::Backtracking
        }
    }
}

/// A trigger for a TGD on an instance: a homomorphism from the rule body into
/// the instance.
#[derive(Clone, Debug)]
pub struct Trigger {
    /// Index of the rule in the program.
    pub rule_index: usize,
    /// The homomorphism from the rule body into the instance, restricted to
    /// the body variables.
    pub homomorphism: Substitution,
}

impl Trigger {
    /// A canonical key identifying the trigger: the rule index together with
    /// the image of the rule's *frontier* under the homomorphism.
    ///
    /// Two triggers with the same key generate head atoms that are identical
    /// up to the renaming of invented nulls, so the oblivious chase fires each
    /// key at most once (this is the "semi-oblivious"/skolem chase policy,
    /// which produces the same certain answers as the fully oblivious chase).
    pub fn key(&self, rule: &Tgd) -> TriggerKey {
        self.key_with(&rule.frontier())
    }

    /// [`Trigger::key`] with a precomputed frontier (see [`RulePlan`]).
    pub fn key_with(&self, frontier: &[Variable]) -> TriggerKey {
        let frontier_image: Vec<Term> = frontier
            .iter()
            .map(|v| self.homomorphism.apply_term(Term::Variable(*v)))
            .collect();
        TriggerKey {
            rule_index: self.rule_index,
            frontier_image,
        }
    }

    /// True if the trigger is *active* on `instance` for the restricted
    /// (standard) chase: the homomorphism of the body cannot be extended to a
    /// homomorphism of the head into `instance`.
    pub fn is_active(&self, rule: &Tgd, instance: &Instance) -> bool {
        self.is_active_with(&rule.head, &rule.frontier(), instance)
    }

    /// [`Trigger::is_active`] with a precomputed frontier (see [`RulePlan`]).
    pub fn is_active_with(
        &self,
        head: &[Atom],
        frontier: &[Variable],
        instance: &Instance,
    ) -> bool {
        let seed = self.homomorphism.restrict(frontier);
        find_homomorphism(head, instance, &seed).is_none()
    }

    /// The satisfaction check of the restricted chase with the whole
    /// [`RulePlan`]: reuses the rule's pre-planned head match order, so each
    /// check is a plain backtracking search with no per-trigger planning.
    pub fn is_active_planned(&self, plan: &RulePlan, instance: &Instance) -> bool {
        let seed = self.homomorphism.restrict(&plan.frontier);
        find_homomorphism_ordered(&plan.head_order, instance, &seed).is_none()
    }

    /// The satisfying head image of a non-active trigger: when the head can
    /// already be mapped into `instance` (the trigger is *satisfied*, not
    /// active), returns the image atoms of that homomorphism — the existing
    /// facts that witness satisfaction. Returns `None` for an active trigger.
    /// Provenance tracking records these as *witness edges*: the alternative
    /// derivations the restricted chase skipped, which deletion must consult.
    pub fn satisfying_image(&self, plan: &RulePlan, instance: &Instance) -> Option<Vec<Atom>> {
        let seed = self.homomorphism.restrict(&plan.frontier);
        find_homomorphism_ordered(&plan.head_order, instance, &seed)
            .map(|sub| sub.apply_atoms(&plan.head_order))
    }

    /// The head atoms generated by firing this trigger: frontier variables are
    /// replaced by their image, every existential head variable by a fresh
    /// labelled null.
    pub fn fire(&self, rule: &Tgd) -> Vec<Atom> {
        self.fire_with(&rule.head, &rule.existential_head_variables())
    }

    /// [`Trigger::fire`] with precomputed existential head variables (see
    /// [`RulePlan`]).
    pub fn fire_with(&self, head: &[Atom], existentials: &[Variable]) -> Vec<Atom> {
        let mut assignment = self.homomorphism.clone();
        for z in existentials {
            assignment.bind(*z, Term::fresh_null());
        }
        assignment.apply_atoms(head)
    }
}

/// Canonical identity of a trigger (see [`Trigger::key`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TriggerKey {
    /// Index of the rule in the program.
    pub rule_index: usize,
    /// Image of the rule frontier under the trigger homomorphism.
    pub frontier_image: Vec<Term>,
}

/// Enumerate every trigger of `program` on `instance`.
pub fn find_triggers(program: &TgdProgram, instance: &Instance) -> Vec<Trigger> {
    let mut triggers = Vec::new();
    for (rule_index, rule) in program.iter().enumerate() {
        for homomorphism in all_homomorphisms(&rule.body, instance, &Substitution::new()) {
            triggers.push(Trigger {
                rule_index,
                homomorphism,
            });
        }
    }
    triggers
}

/// Enumerate the triggers of a single rule on `instance`.
pub fn find_rule_triggers(rule_index: usize, rule: &Tgd, instance: &Instance) -> Vec<Trigger> {
    find_rule_triggers_with(rule_index, rule, instance, JoinStrategy::Backtracking)
}

/// [`find_rule_triggers`] with an explicit join strategy (see
/// [`RulePlan::join_strategy`]). Both strategies enumerate exactly the same
/// triggers; only the search order and cost differ.
pub fn find_rule_triggers_with(
    rule_index: usize,
    rule: &Tgd,
    instance: &Instance,
    strategy: JoinStrategy,
) -> Vec<Trigger> {
    let homomorphisms = match strategy {
        JoinStrategy::Backtracking => all_homomorphisms(&rule.body, instance, &Substitution::new()),
        JoinStrategy::GenericJoin => generic_join_all(&rule.body, instance, &Substitution::new()),
    };
    homomorphisms
        .into_iter()
        .map(|homomorphism| Trigger {
            rule_index,
            homomorphism,
        })
        .collect()
}

/// Enumerate the triggers of a single rule whose body uses **at least one
/// fact of `delta`** (where `delta ⊆ full`): exactly the triggers that did
/// not exist on `full \ delta`. This is the semi-naive work-horse — a chase
/// round passes the previous round's newly derived facts as `delta` and
/// never re-enumerates old triggers.
pub fn find_rule_triggers_delta(
    rule_index: usize,
    rule: &Tgd,
    full: &Instance,
    delta: &Instance,
) -> Vec<Trigger> {
    find_rule_triggers_delta_with(rule_index, rule, full, delta, JoinStrategy::Backtracking)
}

/// [`find_rule_triggers_delta`] with an explicit join strategy (see
/// [`RulePlan::join_strategy`]). Both strategies enumerate exactly the same
/// delta triggers.
pub fn find_rule_triggers_delta_with(
    rule_index: usize,
    rule: &Tgd,
    full: &Instance,
    delta: &Instance,
    strategy: JoinStrategy,
) -> Vec<Trigger> {
    let homomorphisms = match strategy {
        JoinStrategy::Backtracking => {
            all_homomorphisms_delta(&rule.body, full, delta, &Substitution::new())
        }
        JoinStrategy::GenericJoin => {
            generic_join_delta(&rule.body, full, delta, &Substitution::new())
        }
    };
    homomorphisms
        .into_iter()
        .map(|homomorphism| Trigger {
            rule_index,
            homomorphism,
        })
        .collect()
}

/// One pivot's share of the generic-join delta trigger search (see
/// [`ontorew_unify::generic_join_delta_pivot`]): the parallel engine's work
/// unit for cyclic rules, where intra-pivot chunking is not available but
/// the per-pivot searches are already independent.
pub fn find_rule_triggers_delta_pivot_generic(
    rule_index: usize,
    rule: &Tgd,
    full: &Instance,
    delta: &Instance,
    pivot: usize,
) -> Vec<Trigger> {
    generic_join_delta_pivot(&rule.body, full, delta, &Substitution::new(), pivot)
        .into_iter()
        .map(|homomorphism| Trigger {
            rule_index,
            homomorphism,
        })
        .collect()
}

/// One slice of [`find_rule_triggers_delta`]'s work: the triggers whose
/// pivot is body atom `pivot` and whose pivot match falls in the `chunk`-th
/// residue class of the pivot's delta candidates (see
/// [`ontorew_unify::all_homomorphisms_delta_chunk`]). The union over all
/// `(pivot, chunk)` pairs is exactly the rule's delta triggers, each
/// produced once — how the parallel engine splits a single rule's trigger
/// search across threads.
pub fn find_rule_triggers_delta_chunk(
    rule_index: usize,
    rule: &Tgd,
    full: &Instance,
    delta: &Instance,
    pivot: usize,
    chunk: usize,
    chunk_count: usize,
) -> Vec<Trigger> {
    all_homomorphisms_delta_chunk(
        &rule.body,
        full,
        delta,
        &Substitution::new(),
        pivot,
        chunk,
        chunk_count,
    )
    .into_iter()
    .map(|homomorphism| Trigger {
        rule_index,
        homomorphism,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::parse_program;

    fn program() -> TgdProgram {
        parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap()
    }

    fn db() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("hasParent", &["bob", "carol"]);
        db
    }

    #[test]
    fn triggers_are_found_for_every_body_match() {
        let triggers = find_triggers(&program(), &db());
        // R1 matches person(alice); R2 matches hasParent(bob, carol).
        assert_eq!(triggers.len(), 2);
        let rules: Vec<usize> = triggers.iter().map(|t| t.rule_index).collect();
        assert!(rules.contains(&0));
        assert!(rules.contains(&1));
    }

    #[test]
    fn firing_invents_nulls_for_existentials() {
        let p = program();
        let triggers = find_triggers(&p, &db());
        let t = triggers.iter().find(|t| t.rule_index == 0).unwrap();
        let produced = t.fire(&p.rules()[0]);
        assert_eq!(produced.len(), 1);
        assert_eq!(produced[0].predicate, Predicate::new("hasParent", 2));
        assert_eq!(produced[0].terms[0], Term::constant("alice"));
        assert!(produced[0].terms[1].is_null());
    }

    #[test]
    fn firing_full_rules_uses_only_the_homomorphism() {
        let p = program();
        let triggers = find_triggers(&p, &db());
        let t = triggers.iter().find(|t| t.rule_index == 1).unwrap();
        let produced = t.fire(&p.rules()[1]);
        assert_eq!(produced, vec![Atom::fact("person", &["carol"])]);
    }

    #[test]
    fn restricted_activity_check() {
        let p = program();
        let mut instance = db();
        let triggers = find_triggers(&p, &instance);
        let r1_trigger = triggers.iter().find(|t| t.rule_index == 0).unwrap().clone();
        // No parent of alice yet: the trigger is active.
        assert!(r1_trigger.is_active(&p.rules()[0], &instance));
        // Once alice has some parent, the trigger is no longer active.
        instance.insert_fact("hasParent", &["alice", "zoe"]);
        assert!(!r1_trigger.is_active(&p.rules()[0], &instance));
    }

    #[test]
    fn satisfying_image_returns_the_witness_facts() {
        let p = program();
        let mut instance = db();
        let plan = RulePlan::new(&p.rules()[0]);
        let triggers = find_triggers(&p, &instance);
        let r1_trigger = triggers.iter().find(|t| t.rule_index == 0).unwrap().clone();
        // Active trigger: no satisfying image.
        assert!(r1_trigger.satisfying_image(&plan, &instance).is_none());
        // Satisfied trigger: the image is the existing witness fact.
        instance.insert_fact("hasParent", &["alice", "zoe"]);
        let image = r1_trigger.satisfying_image(&plan, &instance).unwrap();
        assert_eq!(image, vec![Atom::fact("hasParent", &["alice", "zoe"])]);
    }

    #[test]
    fn trigger_keys_identify_frontier_images() {
        let p = program();
        let triggers = find_triggers(&p, &db());
        let t = triggers.iter().find(|t| t.rule_index == 0).unwrap();
        let key = t.key(&p.rules()[0]);
        assert_eq!(key.rule_index, 0);
        assert_eq!(key.frontier_image, vec![Term::constant("alice")]);
    }

    #[test]
    fn rule_triggers_match_global_triggers() {
        let p = program();
        let instance = db();
        let all = find_triggers(&p, &instance);
        let per_rule: usize = p
            .iter()
            .enumerate()
            .map(|(i, r)| find_rule_triggers(i, r, &instance).len())
            .sum();
        assert_eq!(all.len(), per_rule);
    }
}
