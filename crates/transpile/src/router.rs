//! SABRE-style routing: SWAP insertion for the device coupling map.

use crate::layout::Coupling;
use crate::{Layout, TranspileError};
use qns_circuit::{Circuit, GateKind};
use qns_noise::Device;

/// How many upcoming two-qubit gates the swap heuristic looks ahead.
const LOOKAHEAD: usize = 8;
/// Weight of lookahead terms relative to the current gate's distance.
const LOOKAHEAD_WEIGHT: f64 = 0.5;

/// The output of [`route`]: a physical-qubit circuit plus the final
/// positions of the logical qubits (SWAPs move them around).
#[derive(Clone, Debug)]
pub struct RoutedCircuit {
    /// Circuit over the full device width; every two-qubit gate acts on a
    /// coupled pair. SWAP gates are left symbolic (`GateKind::Swap`) for the
    /// basis pass to expand.
    pub circuit: Circuit,
    /// `final_phys_of[l]` = physical qubit holding logical `l` at the end.
    pub final_phys_of: Vec<usize>,
    /// Number of SWAPs inserted.
    pub swaps_inserted: usize,
}

/// Routes a logical circuit onto `device` starting from `layout`, inserting
/// SWAPs so every two-qubit gate acts on coupled qubits.
///
/// The heuristic is SABRE-flavored: when the next two-qubit gate is not
/// executable, candidate SWAPs on edges adjacent to either operand are
/// scored by the resulting coupling distance of the current gate plus a
/// discounted sum over the next `LOOKAHEAD` (8) two-qubit gates; the
/// lexicographically best candidate is applied. Because the swap that walks
/// one operand along a shortest path is always a candidate, distance to the
/// current gate strictly decreases and routing terminates.
///
/// # Panics
///
/// Panics if the layout width differs from the circuit width or maps
/// outside the device. Search loops feeding *searched* (possibly invalid)
/// layouts should call [`try_route`] instead.
pub fn route(circuit: &Circuit, device: &Device, layout: &Layout) -> RoutedCircuit {
    match try_route(circuit, device, layout) {
        Ok(routed) => routed,
        #[expect(
            clippy::panic,
            reason = "documented panicking wrapper over `try_route`"
        )]
        Err(e) => panic!("routing failed: {e}"),
    }
}

/// [`route`], but invalid input comes back as a [`TranspileError`] instead
/// of a panic — the form the search loop wants, since searched layouts are
/// untrusted data, not programmer invariants.
///
/// Each call builds the coupling graph's adjacency lists once, from
/// [`Device::edges`] in order (so candidate swaps come in the order
/// [`Device::neighbors`] yields them), and one flat all-pairs distance
/// table by BFS over those lists. The lookahead window is a slice of the
/// two-qubit ops that follow the current one.
pub fn try_route(
    circuit: &Circuit,
    device: &Device,
    layout: &Layout,
) -> Result<RoutedCircuit, TranspileError> {
    if layout.num_logical() != circuit.num_qubits() {
        return Err(TranspileError::LayoutWidthMismatch {
            layout: layout.num_logical(),
            circuit: circuit.num_qubits(),
        });
    }
    if !layout.is_valid_for(device) {
        return Err(TranspileError::InvalidLayout {
            reason: format!(
                "layout {:?} maps outside device {} ({} qubits)",
                layout.as_slice(),
                device.name(),
                device.num_qubits()
            ),
        });
    }
    let coupling = Coupling::new(device);
    let n_phys = device.num_qubits();

    let mut l2p: Vec<usize> = layout.as_slice().to_vec();
    let mut out = Circuit::new(n_phys);
    let mut swaps = 0usize;

    // Positions of the 2q ops, for lookahead.
    let ops = circuit.ops();
    let two_q_indices: Vec<usize> = (0..ops.len())
        .filter(|&i| ops[i].num_qubits() == 2)
        .collect();
    let mut routed_2q = 0;

    for (op_idx, op) in ops.iter().enumerate() {
        match op.num_qubits() {
            1 => {
                out.push(op.kind, &[l2p[op.qubits[0]]], &op.params);
            }
            2 => {
                let (la, lb) = (op.qubits[0], op.qubits[1]);
                // The next `LOOKAHEAD` 2q ops after this one.
                routed_2q += 1;
                let upcoming =
                    &two_q_indices[routed_2q..two_q_indices.len().min(routed_2q + LOOKAHEAD)];
                // Insert SWAPs until the operands are adjacent.
                while coupling.dist(l2p[la], l2p[lb]) > 1 {
                    let (pa, pb) = (l2p[la], l2p[lb]);
                    // Candidate swaps: edges adjacent to either operand.
                    let mut best: Option<((usize, usize), (usize, f64))> = None;
                    for &anchor in &[pa, pb] {
                        for &nb in coupling.neighbors(anchor) {
                            let (x, y) = (anchor, nb);
                            // Simulate the swap on a scratch mapping.
                            let swap_pos = |p: usize| {
                                if p == x {
                                    y
                                } else if p == y {
                                    x
                                } else {
                                    p
                                }
                            };
                            let cur = coupling.dist(swap_pos(pa), swap_pos(pb));
                            let mut look = 0.0;
                            let mut weight = LOOKAHEAD_WEIGHT;
                            for &i in upcoming {
                                let g = &ops[i];
                                let (ga, gb) = (l2p[g.qubits[0]], l2p[g.qubits[1]]);
                                look += weight * coupling.dist(swap_pos(ga), swap_pos(gb)) as f64;
                                weight *= 0.8;
                            }
                            let score = (cur, look);
                            let better = match &best {
                                None => true,
                                Some((_, (bc, bl))) => {
                                    score.0 < *bc || (score.0 == *bc && score.1 < *bl - 1e-12)
                                }
                            };
                            if better {
                                best = Some(((x, y), score));
                            }
                        }
                    }
                    // On a connected coupling graph a shortest-path swap is
                    // always a candidate; no candidate or no progress means
                    // the operands are unreachable from each other.
                    let Some(((x, y), (after, _))) = best else {
                        return Err(TranspileError::RoutingStuck { op_index: op_idx });
                    };
                    if after >= coupling.dist(pa, pb) {
                        return Err(TranspileError::RoutingStuck { op_index: op_idx });
                    }
                    out.push(GateKind::Swap, &[x, y], &[]);
                    swaps += 1;
                    // Update the mapping: any logical on x/y moves.
                    for p in l2p.iter_mut() {
                        if *p == x {
                            *p = y;
                        } else if *p == y {
                            *p = x;
                        }
                    }
                }
                out.push(op.kind, &[l2p[la], l2p[lb]], &op.params);
            }
            _ => unreachable!("gates are 1q or 2q"),
        }
    }

    Ok(RoutedCircuit {
        circuit: out,
        final_phys_of: l2p,
        swaps_inserted: swaps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::Param;
    use qns_sim::{run, ExecMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference semantics: simulate the routed circuit over the device
    /// width and compare logical-qubit expectations against the unrouted
    /// circuit, accounting for final positions.
    fn check_equivalent(circuit: &Circuit, device: &Device, layout: &Layout) {
        let routed = route(circuit, device, layout);
        // Every 2q gate must act on a coupled pair.
        for op in routed.circuit.iter() {
            if op.num_qubits() == 2 {
                assert!(
                    device.connected(op.qubits[0], op.qubits[1]),
                    "gate on uncoupled pair {:?}",
                    &op.qubits
                );
            }
        }
        let ideal = run(circuit, &[], &[], ExecMode::Dynamic);
        let physical = run(&routed.circuit, &[], &[], ExecMode::Dynamic);
        for l in 0..circuit.num_qubits() {
            let e_ideal = ideal.expect_z(l);
            let e_phys = physical.expect_z(routed.final_phys_of[l]);
            assert!(
                (e_ideal - e_phys).abs() < 1e-9,
                "logical {l}: {e_ideal} vs {e_phys}"
            );
        }
    }

    fn random_logical(n: usize, ops: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..ops {
            if rng.gen_bool(0.5) {
                let q = rng.gen_range(0..n);
                c.push(
                    GateKind::RY,
                    &[q],
                    &[Param::Fixed(rng.gen_range(-3.0..3.0))],
                );
            } else {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.push(GateKind::CX, &[a, b], &[]);
            }
        }
        c
    }

    #[test]
    fn routing_preserves_semantics_on_line() {
        let dev = Device::santiago();
        for seed in 0..5 {
            let c = random_logical(5, 20, seed);
            check_equivalent(&c, &dev, &Layout::trivial(5));
        }
    }

    #[test]
    fn routing_preserves_semantics_on_plus_and_t() {
        for dev in [Device::yorktown(), Device::belem()] {
            for seed in 10..13 {
                let c = random_logical(5, 15, seed);
                check_equivalent(&c, &dev, &Layout::trivial(5));
            }
        }
    }

    #[test]
    fn routing_with_nontrivial_layout() {
        let dev = Device::santiago();
        let layout = Layout::from_vec(vec![4, 0, 2]);
        let c = random_logical(3, 12, 77);
        check_equivalent(&c, &dev, &layout);
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let dev = Device::santiago();
        let mut c = Circuit::new(2);
        c.push(GateKind::CX, &[0, 1], &[]);
        c.push(GateKind::CX, &[1, 0], &[]);
        let routed = route(&c, &dev, &Layout::trivial(2));
        assert_eq!(routed.swaps_inserted, 0);
        assert_eq!(routed.final_phys_of, vec![0, 1]);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let dev = Device::santiago();
        let mut c = Circuit::new(5);
        c.push(GateKind::CX, &[0, 4], &[]);
        let routed = route(&c, &dev, &Layout::trivial(5));
        assert!(routed.swaps_inserted >= 3, "0 and 4 are distance 4 apart");
    }

    #[test]
    fn routing_on_larger_device() {
        let dev = Device::guadalupe();
        let c = random_logical(8, 30, 5);
        let layout = Layout::from_vec((0..8).collect());
        let routed = route(&c, &dev, &layout);
        for op in routed.circuit.iter() {
            if op.num_qubits() == 2 {
                assert!(device_connected(&dev, op.qubits[0], op.qubits[1]));
            }
        }
    }

    fn device_connected(dev: &Device, a: usize, b: usize) -> bool {
        dev.connected(a, b)
    }
}
