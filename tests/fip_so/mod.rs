//! The suites that check the paper's claims on `engines_agree`'s (3, 1)
//! `E_fip@SO` system, [`FIP_SO`](crate::FIP_SO), read from the fixture
//! instead of enumerating the system again. Their smaller systems are
//! built where they are checked.

mod exhaustive_correctness;
mod look_ahead_verdicts;
mod paper_lemmas;
mod spec_as_formulas;
