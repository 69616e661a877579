//! Logical→physical qubit layouts and the coupling graph routing reads.

use qns_noise::Device;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// The coupling graph as the router reads it: each qubit's neighbours in
/// edge order, the order [`Device::neighbors`] yields them in, and the
/// all-pairs shortest-path distances from one BFS per qubit over them.
pub(crate) struct Coupling {
    n: usize,
    adj: Vec<Vec<usize>>,
    /// `dist[a * n + b]`: coupling edges between `a` and `b`;
    /// `usize::MAX / 2` marks an unreachable pair (never the case on the
    /// shipped devices, whose graphs are connected).
    dist: Vec<usize>,
}

impl Coupling {
    pub(crate) fn new(device: &Device) -> Self {
        let n = device.num_qubits();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in device.edges() {
            adj[a].push(b);
            adj[b].push(a);
        }
        let far = usize::MAX / 2;
        let mut dist = vec![far; n * n];
        let mut queue = VecDeque::with_capacity(n);
        for (start, row) in dist.chunks_exact_mut(n).enumerate() {
            row[start] = 0;
            queue.push_back(start);
            while let Some(q) = queue.pop_front() {
                for &nb in &adj[q] {
                    if row[nb] == far {
                        row[nb] = row[q] + 1;
                        queue.push_back(nb);
                    }
                }
            }
        }
        Coupling { n, adj, dist }
    }

    /// The qubits coupled to `q`, in edge order.
    pub(crate) fn neighbors(&self, q: usize) -> &[usize] {
        &self.adj[q]
    }

    /// The number of coupling edges between `a` and `b`.
    pub(crate) fn dist(&self, a: usize, b: usize) -> usize {
        self.dist[a * self.n + b]
    }
}

/// An injective map from logical circuit qubits to physical device qubits.
///
/// In QuantumNAS the layout is part of the evolutionary gene: the searched
/// mapping is handed to the compiler as its initial layout.
///
/// # Examples
///
/// ```
/// use qns_transpile::Layout;
/// let l = Layout::trivial(3);
/// assert_eq!(l.phys_of(2), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    phys_of: Vec<usize>,
}

impl Layout {
    /// Identity layout: logical `i` on physical `i`.
    pub fn trivial(n_logical: usize) -> Self {
        Layout {
            phys_of: (0..n_logical).collect(),
        }
    }

    /// Builds a layout from an explicit map.
    ///
    /// # Panics
    ///
    /// Panics if the map contains duplicate physical qubits.
    pub fn from_vec(phys_of: Vec<usize>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for &p in &phys_of {
            assert!(seen.insert(p), "duplicate physical qubit {p} in layout");
        }
        Layout { phys_of }
    }

    /// A uniformly random injective layout onto `device`.
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer qubits than `n_logical`.
    pub fn random<R: Rng + ?Sized>(n_logical: usize, device: &Device, rng: &mut R) -> Self {
        assert!(
            device.num_qubits() >= n_logical,
            "device too small for layout"
        );
        let mut phys: Vec<usize> = (0..device.num_qubits()).collect();
        phys.shuffle(rng);
        phys.truncate(n_logical);
        Layout { phys_of: phys }
    }

    /// Noise-adaptive greedy layout (the Murali et al. baseline): grow a
    /// connected physical subgraph starting from the most reliable coupling
    /// edge, always attaching the frontier qubit whose best connection has
    /// the lowest two-qubit error (readout error breaking ties).
    ///
    /// # Panics
    ///
    /// Panics if the device has fewer qubits than `n_logical`.
    pub fn noise_adaptive(n_logical: usize, device: &Device) -> Self {
        assert!(
            device.num_qubits() >= n_logical,
            "device too small for layout"
        );
        if n_logical == 1 {
            // Pick the qubit with the lowest combined 1q + readout error.
            let best = (0..device.num_qubits())
                .min_by(|&a, &b| {
                    let ca = device.qubit(a);
                    let cb = device.qubit(b);
                    let sa = ca.err_1q + 0.5 * (ca.readout_p01 + ca.readout_p10);
                    let sb = cb.err_1q + 0.5 * (cb.readout_p01 + cb.readout_p10);
                    sa.partial_cmp(&sb).expect("finite errors")
                })
                .expect("device has qubits");
            return Layout {
                phys_of: vec![best],
            };
        }
        let mut best_edge = device.edges()[0];
        let mut best_err = f64::INFINITY;
        for &(a, b) in device.edges() {
            let e = device.err_2q(a, b);
            if e < best_err {
                best_err = e;
                best_edge = (a, b);
            }
        }
        let mut chosen = vec![best_edge.0, best_edge.1];
        while chosen.len() < n_logical {
            let mut candidate: Option<(usize, f64)> = None;
            for &q in &chosen {
                for nb in device.neighbors(q) {
                    if chosen.contains(&nb) {
                        continue;
                    }
                    let c = device.qubit(nb);
                    let score =
                        device.err_2q(q, nb) + 0.1 * (c.readout_p01 + c.readout_p10) + c.err_1q;
                    if candidate.map(|(_, s)| score < s).unwrap_or(true) {
                        candidate = Some((nb, score));
                    }
                }
            }
            match candidate {
                Some((q, _)) => chosen.push(q),
                // Disconnected frontier (cannot happen on shipped devices):
                // fall back to any unused qubit.
                None => {
                    let q = (0..device.num_qubits())
                        .find(|q| !chosen.contains(q))
                        .expect("device is large enough");
                    chosen.push(q);
                }
            }
        }
        Layout { phys_of: chosen }
    }

    /// Number of logical qubits mapped.
    pub fn num_logical(&self) -> usize {
        self.phys_of.len()
    }

    /// Physical qubit hosting logical `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn phys_of(&self, l: usize) -> usize {
        self.phys_of[l]
    }

    /// Borrow of the full map.
    pub fn as_slice(&self) -> &[usize] {
        &self.phys_of
    }

    /// Checks validity against a device: all physical qubits in range.
    pub fn is_valid_for(&self, device: &Device) -> bool {
        self.phys_of.iter().all(|&p| p < device.num_qubits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distances_on_a_line() {
        let d = Coupling::new(&Device::santiago());
        assert_eq!(d.dist(0, 0), 0);
        assert_eq!(d.dist(0, 1), 1);
        assert_eq!(d.dist(0, 4), 4);
        assert_eq!(d.dist(4, 0), 4);
    }

    #[test]
    fn distances_on_plus() {
        let d = Coupling::new(&Device::yorktown());
        assert_eq!(d.dist(0, 2), 1);
        assert_eq!(d.dist(0, 1), 2); // via the center
        assert_eq!(d.dist(3, 4), 2);
    }

    #[test]
    fn neighbors_come_in_device_order() {
        for dev in Device::all() {
            let c = Coupling::new(&dev);
            for q in 0..dev.num_qubits() {
                assert_eq!(c.neighbors(q), dev.neighbors(q), "{} qubit {q}", dev.name());
            }
        }
    }

    #[test]
    fn random_layout_is_injective() {
        let dev = Device::toronto();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let l = Layout::random(10, &dev, &mut rng);
            let mut seen = std::collections::HashSet::new();
            assert!(l.as_slice().iter().all(|&p| seen.insert(p)));
            assert!(l.is_valid_for(&dev));
        }
    }

    #[test]
    fn noise_adaptive_layout_is_connected() {
        for dev in qns_noise::Device::all_5q() {
            let l = Layout::noise_adaptive(4, &dev);
            assert_eq!(l.num_logical(), 4);
            // Every chosen qubit (after the first) neighbors another chosen.
            let chosen = l.as_slice();
            for (i, &q) in chosen.iter().enumerate().skip(1) {
                let attached = chosen[..i]
                    .iter()
                    .chain(chosen[i + 1..].iter())
                    .any(|&o| dev.connected(q, o));
                assert!(attached, "{}: qubit {q} is isolated", dev.name());
            }
        }
    }

    #[test]
    fn noise_adaptive_picks_best_edge_first() {
        let dev = Device::belem();
        let l = Layout::noise_adaptive(2, &dev);
        let (a, b) = (l.phys_of(0), l.phys_of(1));
        let chosen_err = dev.err_2q(a, b);
        for &(x, y) in dev.edges() {
            assert!(chosen_err <= dev.err_2q(x, y) + 1e-12);
        }
    }

    #[test]
    fn single_qubit_layout_picks_quiet_qubit() {
        let dev = Device::lima();
        let l = Layout::noise_adaptive(1, &dev);
        assert_eq!(l.num_logical(), 1);
        assert!(l.is_valid_for(&dev));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_mapping_panics() {
        let _ = Layout::from_vec(vec![0, 1, 1]);
    }
}
