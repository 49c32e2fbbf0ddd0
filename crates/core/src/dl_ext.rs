//! Beyond DL-Lite: richer Description Logic axioms as TGDs.
//!
//! §6 of the paper closes with the observation that the WR class "allows for
//! the identification of new FO-rewritable Description Logic languages" —
//! languages whose axioms fall outside DL-Lite (and outside Linear TGDs) but
//! whose TGD translations are still classified as SWR or WR, hence still
//! admit AC0 query answering by rewriting.
//!
//! This module provides that experimental bridge. On top of the DL-Lite
//! constructs of [`crate::dl_lite`] it adds:
//!
//! * **qualified existential restrictions** on both sides of an inclusion
//!   (`A ⊑ ∃R.B`, `∃R.B ⊑ A`) — the right-hand form needs a two-atom head,
//!   the left-hand form a two-atom body, so neither is expressible in
//!   DL-Lite_R nor by a Linear TGD;
//! * **role chains** (`R ∘ S ⊑ T`), the RIA construct of more expressive DLs;
//! * **symmetric** and **transitive** role declarations.
//!
//! Each axiom translates to one TGD; [`ExtendedOntology::classify`] then runs
//! the full classification report, so a modeller can see which combinations
//! of these constructs keep FO-rewritability (e.g. qualified existentials
//! usually do; transitivity never does).

use crate::classify::{classify, ClassificationReport};
use crate::dl_lite::Role;
use ontorew_model::prelude::*;

/// A (possibly qualified) concept of the extended language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendedConcept {
    /// An atomic concept (unary predicate).
    Atomic(String),
    /// `∃R.C`: things with an `R`-successor in `C`. Use
    /// [`ExtendedConcept::exists`] for the unqualified form `∃R` (i.e.
    /// `∃R.⊤`).
    QualifiedExists(Role, Box<ExtendedConcept>),
    /// `⊤`, the universal concept (only meaningful as a qualifier).
    Top,
}

impl ExtendedConcept {
    /// An atomic concept.
    pub fn atomic(name: &str) -> Self {
        ExtendedConcept::Atomic(name.into())
    }

    /// The unqualified existential `∃R`.
    pub fn exists(role: &str) -> Self {
        ExtendedConcept::QualifiedExists(Role::Atomic(role.into()), Box::new(ExtendedConcept::Top))
    }

    /// The qualified existential `∃R.C` over an atomic filler.
    pub fn some(role: &str, filler: &str) -> Self {
        ExtendedConcept::QualifiedExists(
            Role::Atomic(role.into()),
            Box::new(ExtendedConcept::Atomic(filler.into())),
        )
    }

    /// The qualified existential over an inverse role, `∃R⁻.C`.
    pub fn some_inverse(role: &str, filler: &str) -> Self {
        ExtendedConcept::QualifiedExists(
            Role::Inverse(role.into()),
            Box::new(ExtendedConcept::Atomic(filler.into())),
        )
    }
}

/// An axiom of the extended language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendedAxiom {
    /// Concept inclusion `C ⊑ D`.
    ConceptInclusion(ExtendedConcept, ExtendedConcept),
    /// Role inclusion `R ⊑ S`.
    RoleInclusion(Role, Role),
    /// Role chain `R1 ∘ R2 ⊑ S`.
    RoleChain(Role, Role, Role),
    /// `R` is symmetric (`R ⊑ R⁻`).
    SymmetricRole(String),
    /// `R` is transitive (`R ∘ R ⊑ R`).
    TransitiveRole(String),
}

/// A TBox in the extended language.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtendedOntology {
    /// The axioms.
    pub axioms: Vec<ExtendedAxiom>,
}

impl ExtendedOntology {
    /// An empty ontology.
    pub fn new() -> Self {
        ExtendedOntology::default()
    }

    /// Add a concept inclusion `sub ⊑ sup`.
    pub fn include(mut self, sub: ExtendedConcept, sup: ExtendedConcept) -> Self {
        self.axioms.push(ExtendedAxiom::ConceptInclusion(sub, sup));
        self
    }

    /// Add `A ⊑ B` for atomic concepts.
    pub fn subclass(self, sub: &str, sup: &str) -> Self {
        self.include(ExtendedConcept::atomic(sub), ExtendedConcept::atomic(sup))
    }

    /// Add `A ⊑ ∃R.B` (qualified mandatory participation).
    pub fn some_values(self, sub: &str, role: &str, filler: &str) -> Self {
        self.include(
            ExtendedConcept::atomic(sub),
            ExtendedConcept::some(role, filler),
        )
    }

    /// Add `∃R.B ⊑ A` (qualified domain restriction).
    pub fn some_values_domain(self, role: &str, filler: &str, sup: &str) -> Self {
        self.include(
            ExtendedConcept::some(role, filler),
            ExtendedConcept::atomic(sup),
        )
    }

    /// Add a role inclusion `R ⊑ S`.
    pub fn subrole(mut self, sub: &str, sup: &str) -> Self {
        self.axioms.push(ExtendedAxiom::RoleInclusion(
            Role::Atomic(sub.into()),
            Role::Atomic(sup.into()),
        ));
        self
    }

    /// Add a role chain `R ∘ S ⊑ T`.
    pub fn role_chain(mut self, first: &str, second: &str, sup: &str) -> Self {
        self.axioms.push(ExtendedAxiom::RoleChain(
            Role::Atomic(first.into()),
            Role::Atomic(second.into()),
            Role::Atomic(sup.into()),
        ));
        self
    }

    /// Declare `R` symmetric.
    pub fn symmetric(mut self, role: &str) -> Self {
        self.axioms.push(ExtendedAxiom::SymmetricRole(role.into()));
        self
    }

    /// Declare `R` transitive.
    pub fn transitive(mut self, role: &str) -> Self {
        self.axioms.push(ExtendedAxiom::TransitiveRole(role.into()));
        self
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.axioms.len()
    }

    /// True if there are no axioms.
    pub fn is_empty(&self) -> bool {
        self.axioms.is_empty()
    }

    /// Translate the TBox into TGDs (one rule per axiom).
    pub fn to_tgds(&self) -> TgdProgram {
        let x = || Term::variable("X");
        let y = || Term::variable("Y");
        let z = || Term::variable("Z");
        let role_atom = |r: &Role, first: Term, second: Term| -> Atom {
            match r {
                Role::Atomic(name) => Atom::new(name, vec![first, second]),
                Role::Inverse(name) => Atom::new(name, vec![second, first]),
            }
        };

        // Atoms describing membership of `var` in a concept, on the body side
        // (auxiliary variable: Y, an existential body variable) and on the
        // head side (auxiliary variable: Z, an existential head variable).
        let concept_atoms = |c: &ExtendedConcept, var: Term, aux: Term| -> Vec<Atom> {
            match c {
                ExtendedConcept::Atomic(a) => vec![Atom::new(a, vec![var])],
                ExtendedConcept::Top => vec![],
                ExtendedConcept::QualifiedExists(role, filler) => {
                    let mut atoms = vec![role_atom(role, var, aux)];
                    match filler.as_ref() {
                        ExtendedConcept::Top => {}
                        ExtendedConcept::Atomic(b) => atoms.push(Atom::new(b, vec![aux])),
                        nested @ ExtendedConcept::QualifiedExists(..) => {
                            // One level of nesting is supported by reusing the
                            // same auxiliary variable chain (W).
                            let w = Term::variable("W");
                            atoms.extend(concept_atoms_inner(nested, aux, w, &role_atom));
                        }
                    }
                    atoms
                }
            }
        };

        let mut rules = Vec::with_capacity(self.axioms.len());
        for (i, axiom) in self.axioms.iter().enumerate() {
            let label = format!("DX{i}");
            let rule = match axiom {
                ExtendedAxiom::ConceptInclusion(sub, sup) => {
                    let body = concept_atoms(sub, x(), y());
                    let head = concept_atoms(sup, x(), z());
                    if body.is_empty() || head.is_empty() {
                        // ⊤ on its own carries no information; skip.
                        continue;
                    }
                    Tgd::labelled(&label, body, head)
                }
                ExtendedAxiom::RoleInclusion(sub, sup) => Tgd::labelled(
                    &label,
                    vec![role_atom(sub, x(), y())],
                    vec![role_atom(sup, x(), y())],
                ),
                ExtendedAxiom::RoleChain(first, second, sup) => Tgd::labelled(
                    &label,
                    vec![role_atom(first, x(), y()), role_atom(second, y(), z())],
                    vec![role_atom(sup, x(), z())],
                ),
                ExtendedAxiom::SymmetricRole(role) => Tgd::labelled(
                    &label,
                    vec![Atom::new(role, vec![x(), y()])],
                    vec![Atom::new(role, vec![y(), x()])],
                ),
                ExtendedAxiom::TransitiveRole(role) => Tgd::labelled(
                    &label,
                    vec![
                        Atom::new(role, vec![x(), y()]),
                        Atom::new(role, vec![y(), z()]),
                    ],
                    vec![Atom::new(role, vec![x(), z()])],
                ),
            };
            rules.push(rule);
        }
        TgdProgram::from_rules(rules)
    }

    /// Translate and classify in one step.
    pub fn classify(&self) -> ClassificationReport {
        classify(&self.to_tgds())
    }
}

// Helper for one level of nested qualified existentials (kept outside the
// closure to avoid a recursive closure).
fn concept_atoms_inner(
    c: &ExtendedConcept,
    var: Term,
    aux: Term,
    role_atom: &dyn Fn(&Role, Term, Term) -> Atom,
) -> Vec<Atom> {
    match c {
        ExtendedConcept::Atomic(a) => vec![Atom::new(a, vec![var])],
        ExtendedConcept::Top => vec![],
        ExtendedConcept::QualifiedExists(role, filler) => {
            let mut atoms = vec![role_atom(role, var, aux)];
            match filler.as_ref() {
                ExtendedConcept::Top => {}
                ExtendedConcept::Atomic(b) => atoms.push(Atom::new(b, vec![aux])),
                ExtendedConcept::QualifiedExists(..) => {
                    // Deeper nesting is flattened away: the filler is treated
                    // as ⊤. Documented limitation — introduce a fresh atomic
                    // concept to model deeper qualifications exactly.
                }
            }
            atoms
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example: a research-group ontology that uses qualified
    /// existentials and a role chain — none of it expressible in DL-Lite_R —
    /// yet whose translation is FO-rewritable.
    fn research_group() -> ExtendedOntology {
        ExtendedOntology::new()
            .subclass("phdStudent", "researcher")
            // Every researcher is a member of some group (unqualified).
            .include(
                ExtendedConcept::atomic("researcher"),
                ExtendedConcept::exists("memberOf"),
            )
            // Every PhD student has an advisor who is a professor (qualified).
            .some_values("phdStudent", "advisedBy", "professor")
            // Anyone supervising a PhD student is a supervisor (qualified LHS).
            .some_values_domain("advises", "phdStudent", "supervisor")
            .subrole("advises", "knows")
    }

    #[test]
    fn translation_produces_one_rule_per_informative_axiom() {
        let onto = research_group();
        let program = onto.to_tgds();
        assert_eq!(program.len(), onto.len());
    }

    #[test]
    fn qualified_existential_head_has_two_atoms() {
        let program = ExtendedOntology::new()
            .some_values("phdStudent", "advisedBy", "professor")
            .to_tgds();
        let rule = &program.rules()[0];
        assert_eq!(rule.head.len(), 2);
        assert_eq!(rule.existential_head_variables().len(), 1);
        // The invented advisor is shared between the role atom and the
        // professor atom, so splitting the head would change the semantics.
        assert_eq!(rule.split_head().len(), 1);
    }

    #[test]
    fn qualified_existential_body_is_not_linear_but_still_fo_rewritable() {
        let onto = ExtendedOntology::new()
            .some_values_domain("advises", "phdStudent", "supervisor")
            .subclass("supervisor", "staff");
        let report = onto.classify();
        assert!(!report.linear);
        assert!(report.fo_rewritable(), "report: {report:?}");
    }

    #[test]
    fn research_group_is_a_new_fo_rewritable_dl() {
        // Outside DL-Lite (qualified existentials), outside Linear, yet the
        // graph-based analysis certifies FO-rewritability — the §6 claim.
        let report = research_group().classify();
        assert!(!report.linear);
        assert!(report.fo_rewritable(), "report: {report:?}");
    }

    #[test]
    fn transitive_roles_are_not_fo_rewritable() {
        let report = ExtendedOntology::new()
            .transitive("partOf")
            .subclass("wheel", "component")
            .classify();
        // Transitivity is the textbook non-FO-rewritable construct: the
        // classifier must not certify it.
        assert!(!report.fo_rewritable(), "report: {report:?}");
    }

    #[test]
    fn symmetric_roles_are_fo_rewritable() {
        let report = ExtendedOntology::new()
            .symmetric("marriedTo")
            .subclass("spouse", "person")
            .classify();
        assert!(report.fo_rewritable(), "report: {report:?}");
    }

    #[test]
    fn role_chains_translate_to_join_bodies() {
        let program = ExtendedOntology::new()
            .role_chain("hasParent", "hasBrother", "hasUncle")
            .to_tgds();
        let rule = &program.rules()[0];
        assert_eq!(rule.body.len(), 2);
        assert_eq!(rule.head.len(), 1);
        assert!(rule.is_full());
    }

    #[test]
    fn answering_over_the_research_group_ontology() {
        use ontorew_model::parse_query;
        let program = research_group().to_tgds();
        let query = parse_query("q(X) :- knows(X, Y)").unwrap();
        let rewriting =
            ontorew_rewrite::rewrite(&program, &query, &ontorew_rewrite::RewriteConfig::default());
        // The ontology has a rule whose head atoms share an existential
        // variable (advisedBy(X, Z), professor(Z)); the engine reports such
        // rewritings as incomplete because joins across the two head atoms
        // cannot be resolved by single-head piece steps. The UCQ is still a
        // sound under-approximation, which is all this test needs.
        assert!(!rewriting.complete);

        let mut data = Instance::new();
        data.insert_fact("advises", &["rossi", "dana"]);
        let answers = ontorew_storage::evaluate_ucq(&data, &rewriting.ucq);
        // rossi knows dana because advises ⊑ knows.
        assert!(answers.contains_constants(&["rossi"]));
    }

    #[test]
    fn top_only_axioms_are_dropped() {
        let onto = ExtendedOntology::new().include(ExtendedConcept::Top, ExtendedConcept::Top);
        assert_eq!(onto.len(), 1);
        assert!(onto.to_tgds().is_empty());
    }

    #[test]
    fn nested_qualified_existentials_translate_one_level() {
        // student ⊑ ∃attends.(∃taughtBy.professor): the nested level is kept.
        let onto = ExtendedOntology::new().include(
            ExtendedConcept::atomic("student"),
            ExtendedConcept::QualifiedExists(
                Role::Atomic("attends".into()),
                Box::new(ExtendedConcept::some("taughtBy", "professor")),
            ),
        );
        let program = onto.to_tgds();
        let rule = &program.rules()[0];
        // attends(X, Z), taughtBy(Z, W), professor(W)
        assert_eq!(rule.head.len(), 3);
        assert_eq!(rule.existential_head_variables().len(), 2);
    }
}
