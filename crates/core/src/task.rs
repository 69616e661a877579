//! Task definitions: QML classification and VQE.

use qns_chem::{Molecule, PauliSum};
use qns_circuit::Circuit;
use qns_data::{
    encoder_4x4, encoder_6x6, encoder_vowel, image_to_input, synthetic_digits, synthetic_fashion,
    synthetic_vowel, Dataset, Splits,
};
use qns_ml::Pca;

/// Maps per-qubit Pauli-Z expectations to class logits.
///
/// The paper's readout: 4/10-class tasks use one qubit per class; 2-class
/// tasks sum qubits {0,1} and {2,3}.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Readout {
    pub(crate) groups: Vec<Vec<usize>>,
    n_qubits: usize,
}

impl Readout {
    /// One qubit per class: `n_classes` logits from the first qubits.
    pub fn per_qubit(n_classes: usize, n_qubits: usize) -> Self {
        assert!(n_classes <= n_qubits, "need one qubit per class");
        Readout {
            groups: (0..n_classes).map(|q| vec![q]).collect(),
            n_qubits,
        }
    }

    /// The paper's 2-class readout on 4 qubits: logits = `E0+E1`, `E2+E3`.
    pub fn two_class_paired() -> Self {
        Readout {
            groups: vec![vec![0, 1], vec![2, 3]],
            n_qubits: 4,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.groups.len()
    }

    /// Expected circuit width.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Class logits from per-qubit expectations.
    ///
    /// # Panics
    ///
    /// Panics if `expectations` is narrower than the readout expects.
    pub fn logits(&self, expectations: &[f64]) -> Vec<f64> {
        self.groups
            .iter()
            .map(|g| g.iter().map(|&q| expectations[q]).sum())
            .collect()
    }

    /// Pulls a logit gradient back to per-qubit observable weights:
    /// `w_q = Σ_{groups g ∋ q} dL/dlogit_g`.
    pub fn weights_from_logit_grad(&self, dlogits: &[f64]) -> Vec<f64> {
        assert_eq!(dlogits.len(), self.groups.len(), "one grad per logit");
        let mut w = vec![0.0; self.n_qubits];
        for (g, &dl) in self.groups.iter().zip(dlogits) {
            for &q in g {
                w[q] += dl;
            }
        }
        w
    }
}

/// A benchmark task: QML classification or VQE ground-state search.
///
/// QML tasks carry pre-encoded inputs (angles), splits, an encoder circuit
/// and a readout; VQE tasks carry a molecule Hamiltonian.
#[derive(Clone, Debug)]
#[allow(
    clippy::large_enum_variant,
    reason = "tasks are built once, not shuffled around"
)]
pub enum Task {
    /// Classification with a variational circuit.
    Qml {
        /// Human-readable name (e.g. `"MNIST-4"`).
        name: String,
        /// Train/valid/test splits with features already encoded as
        /// rotation angles.
        splits: Splits,
        /// Data-encoding circuit consuming the angle vector.
        encoder: Circuit,
        /// Expectation → logits mapping.
        readout: Readout,
    },
    /// Variational ground-state search.
    Vqe {
        /// Molecule name.
        name: String,
        /// The qubit Hamiltonian.
        hamiltonian: PauliSum,
        /// Number of qubits.
        n_qubits: usize,
    },
}

impl Task {
    /// An MNIST-like digit classification task: `classes` picks the
    /// digits, images are pooled to `side`×`side` (4 → 4 qubits,
    /// 6 → 10 qubits).
    ///
    /// # Panics
    ///
    /// Panics if `side` is not 4 or 6, or if the class count exceeds the
    /// readout capacity.
    pub fn qml_digits(classes: &[usize], n_per_class: usize, side: usize, seed: u64) -> Task {
        let raw = synthetic_digits(classes, n_per_class, seed);
        Task::from_images("MNIST", classes.len(), raw, side, seed)
    }

    /// A Fashion-like classification task (class ids follow
    /// Fashion-MNIST; the paper uses {0,1,2,3} and {3,6}).
    pub fn qml_fashion(classes: &[usize], n_per_class: usize, side: usize, seed: u64) -> Task {
        let raw = synthetic_fashion(classes, n_per_class, seed);
        Task::from_images("Fashion", classes.len(), raw, side, seed)
    }

    fn from_images(base: &str, n_classes: usize, raw: Dataset, side: usize, seed: u64) -> Task {
        assert!(side == 4 || side == 6, "side must be 4 (4q) or 6 (10q)");
        let encoded = raw.map_features(|img| image_to_input(img, side));
        // The paper: 95% train / 5% valid from 'train', test separate; we
        // split one pool 76/4/20 to the same effect.
        let splits = encoded.split(0.76, 0.04, seed ^ 0x5EED);
        let (encoder, readout) = if side == 4 {
            let readout = if n_classes == 2 {
                Readout::two_class_paired()
            } else {
                Readout::per_qubit(n_classes, 4)
            };
            (encoder_4x4(), readout)
        } else {
            (encoder_6x6(), Readout::per_qubit(n_classes, 10))
        };
        Task::Qml {
            name: format!("{base}-{n_classes}"),
            splits,
            encoder,
            readout,
        }
    }

    /// The Vowel-4 task: 990 samples, PCA to 10 dims, 4 qubits,
    /// train:valid:test = 6:1:3.
    pub fn qml_vowel(seed: u64) -> Task {
        let raw = synthetic_vowel(4, 990, seed);
        let pca = Pca::fit(&raw.features, 10);
        let reduced = raw.map_features(|x| {
            // Normalize PCA outputs into rotation angles.
            pca.transform(x)
                .into_iter()
                .map(|v| (v / 2.0).clamp(-std::f64::consts::PI, std::f64::consts::PI))
                .collect()
        });
        let splits = reduced.split(0.6, 0.1, seed ^ 0x70E1);
        Task::Qml {
            name: "Vowel-4".to_string(),
            splits,
            encoder: encoder_vowel(),
            readout: Readout::per_qubit(4, 4),
        }
    }

    /// A VQE task for one of the benchmark molecules.
    pub fn vqe(molecule: &Molecule) -> Task {
        Task::Vqe {
            name: molecule.name().to_string(),
            hamiltonian: molecule.hamiltonian().clone(),
            n_qubits: molecule.num_qubits(),
        }
    }

    /// Task name.
    pub fn name(&self) -> &str {
        match self {
            Task::Qml { name, .. } => name,
            Task::Vqe { name, .. } => name,
        }
    }

    /// Number of logical qubits the task's circuits use.
    pub fn num_qubits(&self) -> usize {
        match self {
            Task::Qml { encoder, .. } => encoder.num_qubits(),
            Task::Vqe { n_qubits, .. } => *n_qubits,
        }
    }

    /// `true` for classification tasks.
    pub fn is_qml(&self) -> bool {
        matches!(self, Task::Qml { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_class_readout_pairs_qubits() {
        let r = Readout::two_class_paired();
        let logits = r.logits(&[0.1, 0.2, 0.3, 0.4]);
        assert!((logits[0] - 0.3).abs() < 1e-12);
        assert!((logits[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn readout_weight_pullback() {
        let r = Readout::two_class_paired();
        let w = r.weights_from_logit_grad(&[1.0, -1.0]);
        assert_eq!(w, vec![1.0, 1.0, -1.0, -1.0]);
        let r4 = Readout::per_qubit(4, 4);
        let w4 = r4.weights_from_logit_grad(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(w4, vec![0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn digit_task_shapes() {
        let t = Task::qml_digits(&[0, 1, 2, 3], 30, 4, 1);
        assert_eq!(t.num_qubits(), 4);
        match &t {
            Task::Qml {
                splits, readout, ..
            } => {
                assert_eq!(readout.num_classes(), 4);
                assert_eq!(splits.train.dim(), 16);
                assert!(splits.test.num_samples() > 0);
            }
            _ => panic!("expected QML"),
        }
    }

    #[test]
    fn mnist10_uses_ten_qubits() {
        let t = Task::qml_digits(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], 5, 6, 2);
        assert_eq!(t.num_qubits(), 10);
    }

    #[test]
    fn vowel_task_has_paper_splits() {
        let t = Task::qml_vowel(3);
        match &t {
            Task::Qml { splits, .. } => {
                assert_eq!(splits.train.num_samples(), 594);
                assert_eq!(splits.valid.num_samples(), 99);
                assert_eq!(splits.test.num_samples(), 297);
                assert_eq!(splits.train.dim(), 10);
            }
            _ => panic!("expected QML"),
        }
    }

    #[test]
    fn vqe_task_from_molecule() {
        let t = Task::vqe(&Molecule::h2());
        assert_eq!(t.num_qubits(), 2);
        assert!(!t.is_qml());
        assert_eq!(t.name(), "H2");
    }
}
