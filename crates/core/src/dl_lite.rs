//! DL-Lite style ontologies as TGDs.
//!
//! §1 of the paper positions TGD-based languages against the *DL-Lite* family
//! of lightweight Description Logics, and §6 reports that the WR class "allows
//! for the identification of new FO-rewritable Description Logic languages".
//! This module provides the bridge used by the examples and experiments: a
//! small abstract syntax for DL-Lite_R-style axioms (concept and role
//! inclusions over atomic concepts, atomic roles, inverse roles and
//! existential restrictions) and its standard translation into TGDs.
//!
//! The translation always produces *simple* TGDs with at most two variables,
//! so every translated ontology is Linear — and therefore SWR and WR, which
//! is exactly the subsumption the paper claims for the DL-Lite fragment.

use crate::classify::{classify, ClassificationReport};
use ontorew_model::prelude::*;

/// A basic concept of DL-Lite: an atomic concept `A`, an unqualified
/// existential restriction `∃R` or `∃R⁻`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Concept {
    /// An atomic concept (unary predicate).
    Atomic(String),
    /// `∃R`: things with some `R`-successor.
    Exists(String),
    /// `∃R⁻`: things with some `R`-predecessor.
    ExistsInverse(String),
}

/// A basic role: an atomic role `R` or its inverse `R⁻`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Role {
    /// An atomic role (binary predicate).
    Atomic(String),
    /// The inverse of an atomic role.
    Inverse(String),
}

/// A DL-Lite axiom (only the positive inclusions, which are what TGDs can
/// express; negative inclusions/disjointness are denial constraints and out of
/// scope for query answering by rewriting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlLiteAxiom {
    /// Concept inclusion `C1 ⊑ C2`.
    ConceptInclusion(Concept, Concept),
    /// Role inclusion `R1 ⊑ R2`.
    RoleInclusion(Role, Role),
}

/// A DL-Lite TBox: a finite set of positive inclusion axioms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DlLiteOntology {
    /// The axioms.
    pub axioms: Vec<DlLiteAxiom>,
}

impl DlLiteOntology {
    /// An empty ontology.
    pub fn new() -> Self {
        DlLiteOntology::default()
    }

    /// Add `A ⊑ B` for atomic concepts.
    pub fn subclass(mut self, sub: &str, sup: &str) -> Self {
        self.axioms.push(DlLiteAxiom::ConceptInclusion(
            Concept::Atomic(sub.into()),
            Concept::Atomic(sup.into()),
        ));
        self
    }

    /// Add `A ⊑ ∃R` (every `A` has an `R`-successor).
    pub fn mandatory_role(mut self, sub: &str, role: &str) -> Self {
        self.axioms.push(DlLiteAxiom::ConceptInclusion(
            Concept::Atomic(sub.into()),
            Concept::Exists(role.into()),
        ));
        self
    }

    /// Add `∃R ⊑ A` (domain typing) .
    pub fn domain(mut self, role: &str, concept: &str) -> Self {
        self.axioms.push(DlLiteAxiom::ConceptInclusion(
            Concept::Exists(role.into()),
            Concept::Atomic(concept.into()),
        ));
        self
    }

    /// Add `∃R⁻ ⊑ A` (range typing).
    pub fn range(mut self, role: &str, concept: &str) -> Self {
        self.axioms.push(DlLiteAxiom::ConceptInclusion(
            Concept::ExistsInverse(role.into()),
            Concept::Atomic(concept.into()),
        ));
        self
    }

    /// Add a role inclusion `R ⊑ S`.
    pub fn subrole(mut self, sub: &str, sup: &str) -> Self {
        self.axioms.push(DlLiteAxiom::RoleInclusion(
            Role::Atomic(sub.into()),
            Role::Atomic(sup.into()),
        ));
        self
    }

    /// Add an inverse-role inclusion `R⁻ ⊑ S`.
    pub fn inverse_subrole(mut self, sub: &str, sup: &str) -> Self {
        self.axioms.push(DlLiteAxiom::RoleInclusion(
            Role::Inverse(sub.into()),
            Role::Atomic(sup.into()),
        ));
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

    /// Translate the TBox into an equivalent set of TGDs.
    pub fn to_tgds(&self) -> TgdProgram {
        let x = || Term::variable("X");
        let y = || Term::variable("Y");
        let z = || Term::variable("Z");

        // Body atom for a basic concept over variable X (Y is the auxiliary
        // variable for existentials on the body side, where it is a normal
        // existential body variable).
        let concept_body = |c: &Concept| -> Atom {
            match c {
                Concept::Atomic(a) => Atom::new(a, vec![x()]),
                Concept::Exists(r) => Atom::new(r, vec![x(), y()]),
                Concept::ExistsInverse(r) => Atom::new(r, vec![y(), x()]),
            }
        };
        // Head atom for a basic concept over variable X (Z is the auxiliary
        // variable, which becomes an existential head variable).
        let concept_head = |c: &Concept| -> Atom {
            match c {
                Concept::Atomic(a) => Atom::new(a, vec![x()]),
                Concept::Exists(r) => Atom::new(r, vec![x(), z()]),
                Concept::ExistsInverse(r) => Atom::new(r, vec![z(), x()]),
            }
        };
        let role_atom = |r: &Role, first: Term, second: Term| -> Atom {
            match r {
                Role::Atomic(name) => Atom::new(name, vec![first, second]),
                Role::Inverse(name) => Atom::new(name, vec![second, first]),
            }
        };

        let mut rules = Vec::with_capacity(self.axioms.len());
        for (i, axiom) in self.axioms.iter().enumerate() {
            let rule = match axiom {
                DlLiteAxiom::ConceptInclusion(sub, sup) => Tgd::labelled(
                    &format!("DL{i}"),
                    vec![concept_body(sub)],
                    vec![concept_head(sup)],
                ),
                DlLiteAxiom::RoleInclusion(sub, sup) => Tgd::labelled(
                    &format!("DL{i}"),
                    vec![role_atom(sub, x(), y())],
                    vec![role_atom(sup, x(), y())],
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swr::is_swr;
    use crate::wr::{is_wr, WrVerdict};

    fn sample() -> DlLiteOntology {
        DlLiteOntology::new()
            .subclass("professor", "faculty")
            .subclass("faculty", "employee")
            .mandatory_role("professor", "teaches")
            .domain("teaches", "faculty")
            .range("teaches", "course")
            .subrole("lectures", "teaches")
            .inverse_subrole("taughtBy", "teaches")
    }

    #[test]
    fn translation_produces_one_simple_tgd_per_axiom() {
        let ontology = sample();
        let program = ontology.to_tgds();
        assert_eq!(program.len(), ontology.len());
        assert!(program.is_simple());
        assert!(program.iter().all(|r| r.body.len() == 1));
    }

    #[test]
    fn existential_axioms_translate_to_existential_heads() {
        let program = DlLiteOntology::new()
            .mandatory_role("professor", "teaches")
            .to_tgds();
        let rule = &program.rules()[0];
        assert_eq!(rule.existential_head_variables().len(), 1);
    }

    #[test]
    fn inverse_roles_swap_argument_positions() {
        let program = DlLiteOntology::new()
            .range("teaches", "course")
            .inverse_subrole("taughtBy", "teaches")
            .to_tgds();
        // range: teaches(Y, X) -> course(X)
        let range_rule = &program.rules()[0];
        assert_eq!(range_rule.body[0].terms[1], Term::variable("X"));
        assert_eq!(range_rule.head[0].terms[0], Term::variable("X"));
        // inverse subrole: taughtBy(Y, X) -> teaches(X, Y)
        let inv_rule = &program.rules()[1];
        assert_eq!(inv_rule.body[0].predicate.name_str(), "taughtBy");
        assert_eq!(inv_rule.head[0].terms[0], inv_rule.body[0].terms[1]);
    }

    #[test]
    fn dl_lite_ontologies_are_linear_swr_and_wr() {
        let report = sample().classify();
        assert!(report.linear);
        assert!(report.swr.is_swr);
        assert_eq!(report.wr.verdict, WrVerdict::WeaklyRecursive);
        assert!(report.fo_rewritable());
        let program = sample().to_tgds();
        assert!(is_swr(&program));
        assert_eq!(is_wr(&program), Some(true));
    }

    #[test]
    fn rewriting_over_a_translated_tbox_terminates_and_answers() {
        let program = sample().to_tgds();
        let query = ontorew_model::parse_query("q(X) :- employee(X)").unwrap();
        let rewriting =
            ontorew_rewrite::rewrite(&program, &query, &ontorew_rewrite::RewriteConfig::default());
        assert!(rewriting.complete);
        // employee ∨ faculty ∨ professor ∨ ∃teaches-domain chains.
        assert!(rewriting.ucq.len() >= 3);

        let mut data = Instance::new();
        data.insert_fact("professor", &["ada"]);
        data.insert_fact("lectures", &["grace", "db201"]);
        let answers = ontorew_storage::evaluate_ucq(&data, &rewriting.ucq);
        // ada via professor ⊑ faculty ⊑ employee; grace via lectures ⊑ teaches,
        // ∃teaches ⊑ faculty ⊑ employee.
        assert!(answers.contains_constants(&["ada"]));
        assert!(answers.contains_constants(&["grace"]));
    }

    #[test]
    fn empty_ontology_translates_to_empty_program() {
        let ontology = DlLiteOntology::new();
        assert!(ontology.is_empty());
        assert!(ontology.to_tgds().is_empty());
    }
}
