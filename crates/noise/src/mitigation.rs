//! Readout-error mitigation by confusion-matrix inversion.
//!
//! Standard deployment practice on IBMQ (and the usual companion to the
//! calibration data the paper's noise models are built from): measure the
//! per-qubit readout confusion matrix, then unfold measured expectation
//! values through its inverse. Under the tensor-product (uncorrelated)
//! readout model our devices use, the per-qubit inverse is exact.

use crate::model::readout_affine;
use crate::Device;

/// Inverts per-qubit readout confusion matrices.
///
/// For qubit `q` with `p01 = P(read 1 | prepared 0)` and
/// `p10 = P(read 0 | prepared 1)`, the measured expectation relates to the
/// true one by `E' = (1 − p01 − p10) E + (p10 − p01)`; the mitigator
/// applies the inverse affine map.
///
/// # Examples
///
/// ```
/// use qns_noise::{Device, ReadoutMitigator};
/// let dev = Device::yorktown();
/// let m = ReadoutMitigator::from_device(&dev, &[0, 1]);
/// // A perfectly-read |0> has E = 1; corrupt then mitigate round-trips.
/// let corrupted = m.corrupt(&[1.0, 1.0]);
/// let recovered = m.mitigate(&corrupted);
/// assert!((recovered[0] - 1.0).abs() < 1e-10);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ReadoutMitigator {
    /// Per measured qubit: `(scale, offset)` of the forward corruption.
    forward: Vec<(f64, f64)>,
}

impl ReadoutMitigator {
    /// Builds a mitigator from the calibration of the given physical
    /// qubits.
    ///
    /// # Panics
    ///
    /// Panics if a physical qubit is out of range, or if a qubit's
    /// combined readout error reaches 100% (the confusion matrix is then
    /// singular).
    pub fn from_device(device: &Device, phys: &[usize]) -> Self {
        let forward = phys
            .iter()
            .map(|&p| {
                let (scale, offset) = readout_affine(device.qubit(p));
                assert!(
                    scale.abs() > 1e-9,
                    "qubit {p}: confusion matrix is singular"
                );
                (scale, offset)
            })
            .collect();
        ReadoutMitigator { forward }
    }

    /// Number of mitigated qubits.
    pub fn num_qubits(&self) -> usize {
        self.forward.len()
    }

    /// Applies the forward corruption (what the hardware does) — used for
    /// testing and for simulating un-mitigated results.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches.
    pub fn corrupt(&self, true_e: &[f64]) -> Vec<f64> {
        assert_eq!(true_e.len(), self.forward.len(), "one value per qubit");
        true_e
            .iter()
            .zip(&self.forward)
            .map(|(e, (s, o))| s * e + o)
            .collect()
    }

    /// Recovers the true expectations from measured ones.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches.
    pub fn mitigate(&self, measured_e: &[f64]) -> Vec<f64> {
        assert_eq!(measured_e.len(), self.forward.len(), "one value per qubit");
        measured_e
            .iter()
            .zip(&self.forward)
            .map(|(e, (s, o))| (e - o) / s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrajectoryConfig, TrajectoryExecutor};
    use qns_circuit::{Circuit, GateKind};

    #[test]
    fn mitigate_inverts_corrupt() {
        let dev = Device::lima();
        let m = ReadoutMitigator::from_device(&dev, &[0, 1, 2]);
        let truth = vec![0.8, -0.4, 0.1];
        let recovered = m.mitigate(&m.corrupt(&truth));
        for (a, b) in truth.iter().zip(recovered) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn mitigation_improves_measured_expectations() {
        // Identity circuit: true <Z> = 1; readout drags it down; the
        // mitigator should push it back toward 1.
        let mut c = Circuit::new(1);
        c.push(GateKind::I, &[0], &[]);
        let dev = Device::yorktown().scaled_errors(1e-9);
        // A high-readout device: corrupt with yorktown's raw readout.
        let loud = Device::yorktown();
        let exec = TrajectoryExecutor::new(
            loud.clone(),
            TrajectoryConfig {
                trajectories: 8,
                seed: 1,
                readout: true,
            },
        );
        let measured = exec.expect_z(&c, &[], &[], &[0]).expect_z;
        let m = ReadoutMitigator::from_device(&loud, &[0]);
        let mitigated = m.mitigate(&measured);
        let ideal_exec = TrajectoryExecutor::new(
            dev,
            TrajectoryConfig {
                trajectories: 8,
                seed: 1,
                readout: false,
            },
        );
        let ideal = ideal_exec.expect_z(&c, &[], &[], &[0]).expect_z;
        assert!(
            (mitigated[0] - ideal[0]).abs() < (measured[0] - ideal[0]).abs(),
            "mitigation did not improve: measured {} mitigated {} ideal {}",
            measured[0],
            mitigated[0],
            ideal[0]
        );
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_confusion_panics() {
        // Construct a device then scale readout errors up to 50% each so
        // p01 + p10 = 1 exactly is unreachable; emulate via a crafted
        // device: use scaled_errors to saturate at the 0.5 clamp.
        let dev = Device::yorktown().scaled_errors(1e6);
        let _ = ReadoutMitigator::from_device(&dev, &[0]);
    }
}
