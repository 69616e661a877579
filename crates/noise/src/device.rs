//! Synthetic quantum-device models mirroring the paper's ten IBMQ machines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Coupling-graph family of a device.
///
/// The paper studies how the '+', 'T' and '−' 5-qubit topologies interact
/// with QuantumNAS (Figure 20); larger machines use a heavy-hex-like sparse
/// grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Star of 5: center qubit connected to the other four (Yorktown-like).
    Plus,
    /// 'T' shape: `0-1-2` with `1-3-4` hanging off (Belem/Quito/Lima-like).
    T,
    /// Linear chain (Santiago/Athens/Rome-like).
    Line,
    /// Two parallel chains with rung connections (Melbourne-like).
    Ladder,
    /// Heavy-hex-like sparse grid (Guadalupe/Toronto/Manhattan-like).
    HeavyHex,
    /// The 7-qubit 'H' fragment of heavy-hex (Jakarta/Casablanca-like).
    HSeven,
}

/// Per-qubit calibration data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QubitCalib {
    /// Relaxation time, nanoseconds.
    pub t1_ns: f64,
    /// Dephasing time, nanoseconds (`<= 2 * t1_ns`).
    pub t2_ns: f64,
    /// Readout error `P(read 1 | prepared 0)`.
    pub readout_p01: f64,
    /// Readout error `P(read 0 | prepared 1)`.
    pub readout_p10: f64,
    /// Average single-qubit gate error on this qubit.
    pub err_1q: f64,
}

/// A synthetic quantum computer: topology plus calibration data.
///
/// Calibration values are drawn from seeded distributions whose magnitudes
/// match published IBMQ calibrations (single-qubit error ~1e-3, two-qubit
/// error ~1e-2, readout error 1–6%, T1/T2 50–120 µs). Each named device has
/// a fixed seed so experiments are reproducible; the per-device `base_err`
/// ordering follows the paper (Santiago least noisy, Yorktown most noisy
/// among the 5-qubit machines).
///
/// # Examples
///
/// ```
/// use qns_noise::Device;
/// let five_q: Vec<_> = Device::all_5q();
/// assert_eq!(five_q.len(), 7);
/// let santiago = Device::santiago();
/// let yorktown = Device::yorktown();
/// assert!(santiago.mean_err_2q() < yorktown.mean_err_2q());
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    name: String,
    topology: Topology,
    edges: Vec<(usize, usize)>,
    qubits: Vec<QubitCalib>,
    err_2q: BTreeMap<(usize, usize), f64>,
    quantum_volume: u32,
    dur_1q_ns: f64,
    dur_2q_ns: f64,
    dur_readout_ns: f64,
}

impl Device {
    /// Builds a synthetic device.
    ///
    /// `base_err` is the average single-qubit gate error; two-qubit errors
    /// are ~8× larger and readout errors ~15× larger, matching the ratios in
    /// IBMQ calibration data. All per-qubit/per-edge values are drawn from
    /// a seeded log-normal-ish spread around those means.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is too small for the topology.
    pub fn synthetic(
        name: &str,
        n_qubits: usize,
        topology: Topology,
        base_err: f64,
        quantum_volume: u32,
        seed: u64,
    ) -> Self {
        let edges = build_edges(topology, n_qubits);
        let mut rng = StdRng::seed_from_u64(seed);
        let spread = |rng: &mut StdRng, mean: f64| -> f64 {
            let g: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            mean * (0.45 * g).exp()
        };
        let qubits: Vec<QubitCalib> = (0..n_qubits)
            .map(|_| {
                let t1 = spread(&mut rng, 80_000.0).clamp(20_000.0, 250_000.0);
                let t2 = (spread(&mut rng, 70_000.0)).clamp(10_000.0, 2.0 * t1);
                QubitCalib {
                    t1_ns: t1,
                    t2_ns: t2,
                    readout_p01: spread(&mut rng, 15.0 * base_err).clamp(1e-4, 0.2),
                    readout_p10: spread(&mut rng, 20.0 * base_err).clamp(1e-4, 0.25),
                    err_1q: spread(&mut rng, base_err).clamp(1e-5, 0.05),
                }
            })
            .collect();
        let err_2q: BTreeMap<(usize, usize), f64> = edges
            .iter()
            .map(|&(a, b)| {
                let key = (a.min(b), a.max(b));
                (key, spread(&mut rng, 8.0 * base_err).clamp(1e-4, 0.15))
            })
            .collect();
        Device {
            name: name.to_string(),
            topology,
            edges,
            qubits,
            err_2q,
            quantum_volume,
            dur_1q_ns: 35.0,
            dur_2q_ns: 330.0,
            dur_readout_ns: 3500.0,
        }
    }

    // --- the paper's ten machines ---

    /// IBMQ-Yorktown analogue: 5 qubits, '+' topology, the noisiest 5Q
    /// machine (QV 8).
    pub fn yorktown() -> Self {
        Device::synthetic("yorktown", 5, Topology::Plus, 2.6e-3, 8, 0xB01)
    }

    /// IBMQ-Belem analogue: 5 qubits, 'T' topology (QV 16).
    pub fn belem() -> Self {
        Device::synthetic("belem", 5, Topology::T, 1.4e-3, 16, 0xB02)
    }

    /// IBMQ-Quito analogue: 5 qubits, 'T' topology (QV 16).
    pub fn quito() -> Self {
        Device::synthetic("quito", 5, Topology::T, 1.5e-3, 16, 0xB03)
    }

    /// IBMQ-Lima analogue: 5 qubits, 'T' topology (QV 8).
    pub fn lima() -> Self {
        Device::synthetic("lima", 5, Topology::T, 1.6e-3, 8, 0xB04)
    }

    /// IBMQ-Santiago analogue: 5 qubits, line topology, the least noisy 5Q
    /// machine (QV 32).
    pub fn santiago() -> Self {
        Device::synthetic("santiago", 5, Topology::Line, 0.9e-3, 32, 0xB05)
    }

    /// IBMQ-Athens analogue: 5 qubits, line topology (QV 32).
    pub fn athens() -> Self {
        Device::synthetic("athens", 5, Topology::Line, 1.1e-3, 32, 0xB06)
    }

    /// IBMQ-Rome analogue: 5 qubits, line topology (QV 32).
    pub fn rome() -> Self {
        Device::synthetic("rome", 5, Topology::Line, 1.3e-3, 32, 0xB07)
    }

    /// IBMQ-Jakarta analogue: 7 qubits, 'H' heavy-hex fragment (QV 16).
    pub fn jakarta() -> Self {
        Device::synthetic("jakarta", 7, Topology::HSeven, 1.3e-3, 16, 0xB0C)
    }

    /// IBMQ-Melbourne analogue: 15 qubits, ladder topology (QV 8).
    pub fn melbourne() -> Self {
        Device::synthetic("melbourne", 15, Topology::Ladder, 2.2e-3, 8, 0xB08)
    }

    /// IBMQ-Guadalupe analogue: 16 qubits, heavy-hex topology (QV 32).
    pub fn guadalupe() -> Self {
        Device::synthetic("guadalupe", 16, Topology::HeavyHex, 1.2e-3, 32, 0xB09)
    }

    /// IBMQ-Toronto analogue: 27 qubits, heavy-hex topology (QV 32).
    pub fn toronto() -> Self {
        Device::synthetic("toronto", 27, Topology::HeavyHex, 1.4e-3, 32, 0xB0A)
    }

    /// IBMQ-Manhattan analogue: 65 qubits, heavy-hex topology (QV 32).
    pub fn manhattan() -> Self {
        Device::synthetic("manhattan", 65, Topology::HeavyHex, 1.6e-3, 32, 0xB0B)
    }

    /// Every shipped synthetic device, smallest to largest.
    pub fn all() -> Vec<Device> {
        vec![
            Device::santiago(),
            Device::athens(),
            Device::rome(),
            Device::belem(),
            Device::quito(),
            Device::lima(),
            Device::yorktown(),
            Device::jakarta(),
            Device::melbourne(),
            Device::guadalupe(),
            Device::toronto(),
            Device::manhattan(),
        ]
    }

    /// All seven 5-qubit machines, from least to most noisy.
    pub fn all_5q() -> Vec<Device> {
        vec![
            Device::santiago(),
            Device::athens(),
            Device::rome(),
            Device::belem(),
            Device::quito(),
            Device::lima(),
            Device::yorktown(),
        ]
    }

    /// Looks a device up by name.
    pub fn by_name(name: &str) -> Option<Device> {
        match name {
            "yorktown" => Some(Device::yorktown()),
            "belem" => Some(Device::belem()),
            "quito" => Some(Device::quito()),
            "lima" => Some(Device::lima()),
            "santiago" => Some(Device::santiago()),
            "athens" => Some(Device::athens()),
            "rome" => Some(Device::rome()),
            "jakarta" => Some(Device::jakarta()),
            "melbourne" => Some(Device::melbourne()),
            "guadalupe" => Some(Device::guadalupe()),
            "toronto" => Some(Device::toronto()),
            "manhattan" => Some(Device::manhattan()),
            _ => None,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Topology family.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Undirected coupling edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Reported quantum volume.
    pub fn quantum_volume(&self) -> u32 {
        self.quantum_volume
    }

    /// Calibration data for qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitCalib {
        &self.qubits[q]
    }

    /// Single-qubit gate error on qubit `q`.
    pub fn err_1q(&self, q: usize) -> f64 {
        self.qubits[q].err_1q
    }

    /// Two-qubit gate error on edge `(a, b)`.
    ///
    /// Returns the worst on-device error if the edge is not in the coupling
    /// map (routing should have prevented that; this keeps estimators total).
    pub fn err_2q(&self, a: usize, b: usize) -> f64 {
        let key = (a.min(b), a.max(b));
        match self.err_2q.get(&key) {
            Some(&e) => e,
            None => self.err_2q.values().cloned().fold(0.02, f64::max),
        }
    }

    /// Whether `(a, b)` is directly coupled.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        let key = (a.min(b), a.max(b));
        self.err_2q.contains_key(&key)
    }

    /// Neighbors of qubit `q` in the coupling graph.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == q {
                    Some(b)
                } else if b == q {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }

    /// Mean two-qubit error across all edges.
    ///
    /// Summed in edge-list order, not map order: this mean feeds proxy
    /// features and search reports, so the float reduction must be
    /// bitwise-identical across processes.
    pub fn mean_err_2q(&self) -> f64 {
        let sum: f64 = self.edges.iter().map(|&(a, b)| self.err_2q(a, b)).sum();
        sum / self.edges.len() as f64
    }

    /// Duration of a single-qubit gate, ns.
    pub fn dur_1q_ns(&self) -> f64 {
        self.dur_1q_ns
    }

    /// Duration of a two-qubit gate, ns.
    pub fn dur_2q_ns(&self) -> f64 {
        self.dur_2q_ns
    }

    /// Duration of readout, ns.
    pub fn dur_readout_ns(&self) -> f64 {
        self.dur_readout_ns
    }

    /// Returns a copy with every gate/readout error scaled by `factor`
    /// (clamped to valid probability ranges). Used by the drift model and
    /// the error-rate sweeps of Figure 20.
    pub fn scaled_errors(&self, factor: f64) -> Device {
        let mut out = self.clone();
        for q in &mut out.qubits {
            q.err_1q = (q.err_1q * factor).clamp(0.0, 0.5);
            q.readout_p01 = (q.readout_p01 * factor).clamp(0.0, 0.5);
            q.readout_p10 = (q.readout_p10 * factor).clamp(0.0, 0.5);
        }
        for e in out.err_2q.values_mut() {
            *e = (*e * factor).clamp(0.0, 0.5);
        }
        out.name = format!("{}(x{:.2})", self.name, factor);
        out
    }
}

/// Builds the undirected edge list of a topology over `n` qubits.
fn build_edges(topology: Topology, n: usize) -> Vec<(usize, usize)> {
    match topology {
        Topology::Plus => {
            assert!(n == 5, "'+' topology is a 5-qubit layout");
            vec![(2, 0), (2, 1), (2, 3), (2, 4)]
        }
        Topology::T => {
            assert!(n == 5, "'T' topology is a 5-qubit layout");
            vec![(0, 1), (1, 2), (1, 3), (3, 4)]
        }
        Topology::Line => {
            assert!(n >= 2, "line needs at least 2 qubits");
            (0..n - 1).map(|i| (i, i + 1)).collect()
        }
        Topology::Ladder => {
            assert!(n >= 4, "ladder needs at least 4 qubits");
            let top = n.div_ceil(2);
            let mut e = Vec::new();
            for i in 0..top - 1 {
                e.push((i, i + 1));
            }
            for i in top..n - 1 {
                e.push((i, i + 1));
            }
            for i in top..n {
                e.push((i - top, i));
            }
            e
        }
        Topology::HSeven => {
            assert!(n == 7, "'H' topology is a 7-qubit layout");
            vec![(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]
        }
        Topology::HeavyHex => {
            assert!(n >= 5, "heavy-hex needs at least 5 qubits");
            // Heavy-hex-like: rows of lines, with vertical connectors on a
            // period-4 stagger (degree <= 3 everywhere).
            let row = ((n as f64).sqrt().ceil() as usize).max(3);
            let mut e = Vec::new();
            for q in 0..n {
                let (r, c) = (q / row, q % row);
                if c + 1 < row && q + 1 < n {
                    e.push((q, q + 1));
                }
                let stagger = if r % 2 == 0 { 0 } else { 2 };
                if c % 4 == stagger && q + row < n {
                    e.push((q, q + row));
                }
            }
            e
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_devices_have_paper_qubit_counts() {
        assert_eq!(Device::yorktown().num_qubits(), 5);
        assert_eq!(Device::melbourne().num_qubits(), 15);
        assert_eq!(Device::guadalupe().num_qubits(), 16);
        assert_eq!(Device::toronto().num_qubits(), 27);
        assert_eq!(Device::manhattan().num_qubits(), 65);
    }

    #[test]
    fn topologies_match_paper_labels() {
        assert_eq!(Device::yorktown().topology(), Topology::Plus);
        assert_eq!(Device::belem().topology(), Topology::T);
        assert_eq!(Device::santiago().topology(), Topology::Line);
    }

    #[test]
    fn construction_is_deterministic() {
        let a = Device::belem();
        let b = Device::belem();
        assert_eq!(a.qubit(0), b.qubit(0));
        assert_eq!(a.err_2q(0, 1), b.err_2q(0, 1));
    }

    #[test]
    fn error_magnitudes_are_realistic() {
        for dev in Device::all_5q() {
            for q in 0..dev.num_qubits() {
                let c = dev.qubit(q);
                assert!(c.err_1q > 1e-5 && c.err_1q < 0.05, "{}", dev.name());
                assert!(c.readout_p01 < 0.25);
                assert!(c.t2_ns <= 2.0 * c.t1_ns + 1e-6);
            }
            for &(a, b) in dev.edges() {
                let e = dev.err_2q(a, b);
                assert!(e > 1e-4 && e < 0.15);
            }
        }
    }

    #[test]
    fn graphs_are_connected() {
        for dev in [
            Device::yorktown(),
            Device::belem(),
            Device::santiago(),
            Device::melbourne(),
            Device::guadalupe(),
            Device::toronto(),
            Device::manhattan(),
        ] {
            let n = dev.num_qubits();
            let mut seen = vec![false; n];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(q) = stack.pop() {
                for nb in dev.neighbors(q) {
                    if !seen[nb] {
                        seen[nb] = true;
                        stack.push(nb);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "{} coupling graph is disconnected",
                dev.name()
            );
        }
    }

    #[test]
    fn plus_topology_centers_on_qubit_2() {
        let dev = Device::yorktown();
        assert_eq!(dev.neighbors(2).len(), 4);
        assert!(dev.connected(2, 0) && !dev.connected(0, 1));
    }

    #[test]
    fn mean_err_2q_is_bitwise_stable_in_edge_order() {
        // The mean once summed the error map's values in a hash order
        // seeded per process, so its float rounding (and therefore the
        // twoq_topology proxy feature built on it) differed between
        // processes. The sum must follow the edge list.
        for dev in [Device::belem(), Device::toronto(), Device::manhattan()] {
            let spec: f64 = dev
                .edges()
                .iter()
                .map(|&(a, b)| dev.err_2q(a, b))
                .sum::<f64>()
                / dev.edges().len() as f64;
            assert_eq!(
                dev.mean_err_2q().to_bits(),
                spec.to_bits(),
                "{}",
                dev.name()
            );
        }
    }

    #[test]
    fn unknown_edge_error_falls_back_to_worst() {
        let dev = Device::santiago();
        // (0, 4) is not an edge on a line of 5.
        assert!(!dev.connected(0, 4));
        let worst = dev
            .edges()
            .iter()
            .map(|&(a, b)| dev.err_2q(a, b))
            .fold(0.0, f64::max);
        assert!(dev.err_2q(0, 4) >= worst);
    }

    #[test]
    fn scaled_errors_scale() {
        let dev = Device::rome();
        let double = dev.scaled_errors(2.0);
        assert!((double.err_1q(0) - 2.0 * dev.err_1q(0)).abs() < 1e-12);
        assert!((double.err_2q(0, 1) - 2.0 * dev.err_2q(0, 1)).abs() < 1e-12);
    }

    #[test]
    fn by_name_roundtrips() {
        for name in ["yorktown", "santiago", "manhattan"] {
            assert_eq!(Device::by_name(name).expect("known").name(), name);
        }
        assert!(Device::by_name("nonexistent").is_none());
    }

    #[test]
    fn heavy_hex_degree_bounded() {
        let dev = Device::toronto();
        for q in 0..dev.num_qubits() {
            assert!(dev.neighbors(q).len() <= 3, "qubit {q} degree too high");
        }
    }
}
