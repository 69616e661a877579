//! Search-cost accounting (paper Table I).

/// Analytic circuit-run counts for the two search strategies of Table I.
///
/// A "circuit run" is one (possibly batched) circuit execution on the
/// evaluation backend.
///
/// # Examples
///
/// ```
/// use quantumnas::RunCost;
/// let cost = RunCost {
///     n_devices: 10,
///     n_search: 1600,
///     n_train: 40_000,
///     n_eval: 1,
/// };
/// assert!(cost.naive() / cost.with_supercircuit() > 10_000.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunCost {
    /// Number of target devices.
    pub n_devices: u64,
    /// Circuits evaluated during one search.
    pub n_search: u64,
    /// Circuit runs to train one circuit.
    pub n_train: u64,
    /// Circuit runs to evaluate one circuit.
    pub n_eval: u64,
}

impl RunCost {
    /// Naïve search: every candidate trained and evaluated per device,
    /// `N_device × N_search × (N_train + N_eval)`.
    pub fn naive(&self) -> f64 {
        (self.n_devices * self.n_search * (self.n_train + self.n_eval)) as f64
    }

    /// SuperCircuit search: one training run shared by everything,
    /// `1 × N_train + N_device × N_search × N_eval`.
    pub fn with_supercircuit(&self) -> f64 {
        (self.n_train + self.n_devices * self.n_search * self.n_eval) as f64
    }

    /// The reduction factor, ≈ `N_device × N_search` when evaluation is
    /// cheap relative to training (the paper quotes 16 000×).
    pub fn reduction(&self) -> f64 {
        self.naive() / self.with_supercircuit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setting_reduction_is_about_16000x() {
        // N_device = 10, N_search = 1600: the paper's quoted setting.
        let cost = RunCost {
            n_devices: 10,
            n_search: 1600,
            n_train: 40_000,
            n_eval: 1,
        };
        let r = cost.reduction();
        // Approaches N_device × N_search = 16 000 as N_train dominates.
        assert!(r > 10_000.0 && r < 16_000.0, "reduction {r}");
    }

    #[test]
    fn supercircuit_always_cheaper_for_multi_device() {
        let cost = RunCost {
            n_devices: 2,
            n_search: 10,
            n_train: 100,
            n_eval: 5,
        };
        assert!(cost.with_supercircuit() < cost.naive());
    }
}
