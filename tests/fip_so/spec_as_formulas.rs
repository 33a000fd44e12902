//! The Section 5 EBA specification, expressed in the epistemic-temporal
//! logic and model-checked as *validities* over the complete systems of
//! all three contexts — the formula-level counterpart of the trace-level
//! spec checker in `eba-sim`. The full-information context's system is
//! [`FIP_SO`]'s node store.

use crate::common::LIMIT;
use crate::FIP_SO;
use eba::core::exchange::InformationExchange;
use eba::core::protocols::ActionProtocol;
use eba::epistemic::prelude::*;
use eba::prelude::*;

/// Checks the four EBA validities of Section 5 on a system.
fn check_spec_validities<E: InformationExchange>(sys: &InterpretedSystem<E>) {
    let n = sys.params().n();
    for i in AgentId::all(n) {
        // Unique Decision: decided_i = v ⇒ □(decided_i = v).
        for v in Value::ALL {
            let unique = Formula::implies(
                Formula::DecidedIs(i, Some(v)),
                Formula::Henceforth(Box::new(Formula::DecidedIs(i, Some(v)))),
            );
            assert!(sys.valid(&unique), "unique decision for {i}, {v}");
        }
        // Agreement: ¬(i ∈ N ∧ j ∈ N ∧ decided_i = v ∧ decided_j = 1−v).
        for j in AgentId::all(n) {
            let agree = Formula::not(Formula::And(vec![
                Formula::Nonfaulty(i),
                Formula::Nonfaulty(j),
                Formula::DecidedIs(i, Some(Value::Zero)),
                Formula::DecidedIs(j, Some(Value::One)),
            ]));
            assert!(sys.valid(&agree), "agreement for {i}, {j}");
        }
        // Validity: (decided_i = v ∧ i ∈ N) ⇒ ∃v. (Our protocols satisfy
        // it for faulty agents too — Prop 6.1 — so check the strong form.)
        for v in Value::ALL {
            let validity = Formula::implies(Formula::DecidedIs(i, Some(v)), Formula::ExistsInit(v));
            assert!(sys.valid(&validity), "strong validity for {i}, {v}");
        }
        // Termination: i ∈ N ⇒ ♦(decided_i ≠ ⊥) — checked from time 0
        // (the bounded ♦ reaches the horizon, beyond every decision).
        let terminate = Formula::implies(
            Formula::Nonfaulty(i),
            Formula::Eventually(Box::new(Formula::not(Formula::DecidedIs(i, None)))),
        );
        let set = sys.eval(&terminate);
        for r in 0..sys.run_count() {
            assert!(
                set.contains(sys.point(r, 0) as usize),
                "termination for {i} in run {r}"
            );
        }
    }
}

fn build<E, P>(ex: E, proto: P) -> InterpretedSystem<E>
where
    E: InformationExchange + Sync,
    P: ActionProtocol<E> + Sync,
{
    let horizon = ex.params().default_horizon();
    let parallelism = Parallelism::Sequential;
    InterpretedSystem::from_context(Context::new(ex, proto), horizon, LIMIT, parallelism)
        .expect("enumerable")
}

#[test]
fn eba_spec_valid_in_minimal_context() {
    let params = Params::new(3, 1).unwrap();
    check_spec_validities(&build(MinExchange::new(params), PMin::new(params)));
    let bigger = Params::new(4, 2).unwrap();
    check_spec_validities(&build(MinExchange::new(bigger), PMin::new(bigger)));
}

#[test]
fn eba_spec_valid_in_basic_context() {
    let params = Params::new(3, 1).unwrap();
    check_spec_validities(&build(BasicExchange::new(params), PBasic::new(params)));
}

#[test]
fn eba_spec_valid_in_fip_context() {
    check_spec_validities(FIP_SO.nodes());
}

#[test]
fn naive_protocol_spec_fails_in_formula_form_too() {
    // The naive protocol's Agreement violation is visible to the model
    // checker as an invalid formula over its complete system.
    let params = Params::new(3, 1).unwrap();
    let ex = NaiveExchange::new(params);
    let proto = NaiveZeroBiased::new(params);
    let sys = build(ex, proto);
    let mut found_violation = false;
    for i in AgentId::all(3) {
        for j in AgentId::all(3) {
            let agree = Formula::not(Formula::And(vec![
                Formula::Nonfaulty(i),
                Formula::Nonfaulty(j),
                Formula::DecidedIs(i, Some(Value::Zero)),
                Formula::DecidedIs(j, Some(Value::One)),
            ]));
            if !sys.valid(&agree) {
                found_violation = true;
            }
        }
    }
    assert!(
        found_violation,
        "the naive protocol must violate Agreement somewhere in its system"
    );
}
