//! The knowledge-based programs `P0` and `P1` (Sections 6 and 7), by name.
//!
//! A knowledge-based program is an ordered list of rules per agent, each
//! a test on the agent's *knowledge* guarding an action. A concrete
//! protocol *implements* it in a context `γ` if, in the system that the
//! protocol generates in `γ`, the first rule whose guard holds gives the
//! protocol's action at every reachable local state. The rules are
//! formulas, stated once in `eba-epistemic`'s `kbp::rules`, which also
//! evaluates them over exhaustively generated systems.

/// The knowledge-based programs studied in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum KnowledgeBasedProgram {
    /// `P0` (Section 6): the 0-chain program. Correct in every EBA context
    /// (Prop 6.1); optimal wherever the safety condition of Def 6.2 holds
    /// (Thm 6.3), in particular in `γ_min,n,t` and `γ_basic,n,t`
    /// (Prop 6.4).
    P0,
    /// `P1` (Section 7): `P0` plus two common-knowledge rules. Equivalent
    /// to `P0` in the limited-information contexts; correct (Prop 7.3) and
    /// optimal (Cor 7.8) for the full-information context `γ_fip,n,t`.
    P1,
}

impl KnowledgeBasedProgram {
    /// The program's name (`"P0"` or `"P1"`).
    pub fn name(self) -> &'static str {
        match self {
            KnowledgeBasedProgram::P0 => "P0",
            KnowledgeBasedProgram::P1 => "P1",
        }
    }
}
