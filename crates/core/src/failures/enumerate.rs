//! Exhaustive enumeration helpers for small instances, used by the
//! interpreted-system construction in `eba-epistemic`.

use crate::types::Value;

/// All `2^n` initial-preference configurations, in lexicographic order
/// (agent 0 is the least-significant position).
///
/// ```
/// use eba_core::failures::init_configs;
/// use eba_core::types::Value;
///
/// let configs: Vec<Vec<Value>> = init_configs(2).collect();
/// assert_eq!(configs.len(), 4);
/// assert_eq!(configs[0], vec![Value::Zero, Value::Zero]);
/// assert_eq!(configs[3], vec![Value::One, Value::One]);
/// ```
pub fn init_configs(n: usize) -> impl Iterator<Item = Vec<Value>> {
    assert!(
        n < 32,
        "init_configs enumerates 2^n vectors; n = {n} is too large"
    );
    (0u32..(1 << n)).map(move |bits| {
        (0..n)
            .map(|i| Value::from_bit(((bits >> i) & 1) as u8))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failures::FailureModel;
    use crate::types::Params;

    #[test]
    fn nonfaulty_choice_count() {
        // n = 4, t = 2: C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6 = 11.
        let params = Params::new(4, 2).unwrap();
        let choices = FailureModel::SendingOmission.nonfaulty_choices(params);
        assert_eq!(choices.len(), 11);
        for nf in &choices {
            assert!(4 - nf.len() <= 2);
        }
    }

    #[test]
    fn nonfaulty_choices_are_distinct() {
        let params = Params::new(5, 2).unwrap();
        let choices = FailureModel::SendingOmission.nonfaulty_choices(params);
        let mut seen = std::collections::HashSet::new();
        for nf in choices {
            assert!(seen.insert(nf.bits()));
        }
    }

    #[test]
    fn init_configs_cover_all_vectors() {
        let configs: Vec<_> = init_configs(3).collect();
        assert_eq!(configs.len(), 8);
        let ones: usize = configs
            .iter()
            .map(|c| c.iter().filter(|v| **v == Value::One).count())
            .sum();
        // Across all 8 vectors each position is One in half of them: 3 * 4.
        assert_eq!(ones, 12);
    }
}
