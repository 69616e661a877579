//! The full transpilation pipeline and its output type.

use crate::{optimize, to_ibm_basis, try_route, Layout, TranspileError};
use qns_circuit::Circuit;
use qns_noise::Device;
use qns_verify::{PassContract, VerifyLevel};

/// Knobs for [`transpile_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TranspileOptions {
    /// Per-stage contract checking (default [`VerifyLevel::Off`], which adds
    /// zero work to the pipeline).
    pub verify: VerifyLevel,
}

impl TranspileOptions {
    /// Options with contract checking at `level`.
    pub fn verified(level: VerifyLevel) -> Self {
        TranspileOptions { verify: level }
    }
}

/// The result of [`transpile`]: an executable physical circuit plus the
/// bookkeeping needed to run and read it out.
///
/// The circuit is expressed over a *dense* set of qubits (only the physical
/// qubits actually used), so simulating a 4-qubit circuit mapped onto a
/// 65-qubit machine costs 2⁴ amplitudes, not 2⁶⁵.
#[derive(Clone, Debug)]
pub struct Transpiled {
    /// IBM-basis circuit over dense qubit indices.
    pub circuit: Circuit,
    /// `phys_of[d]` = physical device qubit behind dense index `d`.
    pub phys_of: Vec<usize>,
    /// `dense_of_logical[l]` = dense index holding logical qubit `l` at
    /// measurement time (SWAP insertion moves logical qubits around).
    pub dense_of_logical: Vec<usize>,
    /// Number of SWAPs the router inserted.
    pub swaps_inserted: usize,
}

impl Transpiled {
    /// Compiled depth (ASAP schedule over basis gates).
    pub fn depth(&self) -> usize {
        self.circuit.depth()
    }

    /// `(total, one_qubit, cnot)` compiled gate counts — the numbers the
    /// paper's Table IV reports.
    pub fn gate_counts(&self) -> (usize, usize, usize) {
        let one = self.circuit.count_1q();
        let two = self.circuit.count_2q();
        (one + two, one, two)
    }
}

/// Runs the full pipeline: SABRE routing from `layout`, lowering to the IBM
/// basis, peephole optimization at `opt_level`, and compaction to dense
/// qubit indices.
///
/// The paper sets the searched qubit mapping as the compiler's
/// `initial_layout` and uses optimization level 2 by default (level 3 for
/// some baselines); this function is that entry point.
///
/// # Panics
///
/// Panics if `layout` width differs from `circuit` width or maps outside
/// `device`.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind, Param};
/// use qns_noise::Device;
/// use qns_transpile::{transpile, Layout};
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::RY, &[0], &[Param::Train(0)]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// let t = transpile(&c, &Device::belem(), &Layout::trivial(2), 2);
/// assert_eq!(t.dense_of_logical.len(), 2);
/// assert!(t.circuit.num_train_params() >= 1);
/// ```
pub fn transpile(circuit: &Circuit, device: &Device, layout: &Layout, opt_level: u8) -> Transpiled {
    match transpile_with(
        circuit,
        device,
        layout,
        opt_level,
        TranspileOptions::default(),
    ) {
        Ok(t) => t,
        #[expect(
            clippy::panic,
            reason = "documented panicking wrapper over `transpile_with`"
        )]
        Err(e) => panic!("transpile failed: {e}"),
    }
}

/// [`transpile`] with options: invalid layouts come back as typed errors,
/// and [`TranspileOptions::verify`] turns on per-stage [`PassContract`]
/// checks (layout → route → basis → optimize → output) whose violations
/// surface as [`TranspileError::Verify`] with stage-tagged diagnostics.
///
/// With verification off this is exactly the [`transpile`] pipeline plus
/// two integer comparisons — no measurable overhead.
///
/// # Examples
///
/// ```
/// use qns_circuit::{Circuit, GateKind};
/// use qns_noise::Device;
/// use qns_transpile::{transpile_with, Layout, TranspileOptions};
/// use qns_verify::VerifyLevel;
///
/// let mut c = Circuit::new(2);
/// c.push(GateKind::H, &[0], &[]);
/// c.push(GateKind::CX, &[0, 1], &[]);
/// let opts = TranspileOptions::verified(VerifyLevel::Full);
/// let t = transpile_with(&c, &Device::belem(), &Layout::trivial(2), 2, opts).unwrap();
/// assert_eq!(t.dense_of_logical.len(), 2);
///
/// // A layout outside the device is an error, not a panic.
/// let bad = Layout::from_vec(vec![0, 17]);
/// assert!(transpile_with(&c, &Device::belem(), &bad, 2, opts).is_err());
/// ```
pub fn transpile_with(
    circuit: &Circuit,
    device: &Device,
    layout: &Layout,
    opt_level: u8,
    options: TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    let contract = PassContract::new(circuit, device, options.verify);
    contract.check_layout(layout.as_slice()).into_result()?;
    let routed = try_route(circuit, device, layout)?;
    contract
        .check_routed(layout.as_slice(), &routed.circuit, &routed.final_phys_of)
        .into_result()?;
    let lowered = to_ibm_basis(&routed.circuit);
    contract.check_lowered(&lowered).into_result()?;
    let optimized = optimize(&lowered, opt_level);
    contract.check_optimized(&optimized).into_result()?;

    // Compact: keep qubits that carry gates or hold a logical qubit.
    let mut used = vec![false; device.num_qubits()];
    for op in optimized.iter() {
        for &q in &op.qubits[..op.num_qubits()] {
            used[q] = true;
        }
    }
    for &p in &routed.final_phys_of {
        used[p] = true;
    }
    let phys_of: Vec<usize> = (0..device.num_qubits()).filter(|&q| used[q]).collect();
    let mut dense_of_phys = vec![usize::MAX; device.num_qubits()];
    for (d, &p) in phys_of.iter().enumerate() {
        dense_of_phys[p] = d;
    }

    let dense_circuit = remap_dense(&optimized, &dense_of_phys, phys_of.len());

    let dense_of_logical: Vec<usize> = routed
        .final_phys_of
        .iter()
        .map(|&p| dense_of_phys[p])
        .collect();

    let out = Transpiled {
        circuit: dense_circuit,
        phys_of,
        dense_of_logical,
        swaps_inserted: routed.swaps_inserted,
    };
    contract
        .check_output(&out.circuit, &out.phys_of, &out.dense_of_logical)
        .into_result()?;
    Ok(out)
}

/// Renames every op's qubits through `dense_of_phys`, which must map each
/// qubit the circuit touches.
fn remap_dense(circuit: &Circuit, dense_of_phys: &[usize], new_width: usize) -> Circuit {
    let mut out = Circuit::new(new_width.max(1));
    let mut qs = [0; 2];
    for op in circuit.iter() {
        let nq = op.num_qubits();
        for (d, &q) in qs.iter_mut().zip(&op.qubits[..nq]) {
            *d = dense_of_phys[q];
        }
        out.push(op.kind, &qs[..nq], &op.params);
    }
    if out.num_train_params() < circuit.num_train_params() {
        out.set_num_train_params(circuit.num_train_params());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_circuit::{GateKind, Param};
    use qns_sim::{run, ExecMode};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// End-to-end check: logical expectations survive the whole pipeline.
    fn check_pipeline(c: &Circuit, device: &Device, layout: &Layout, opt: u8, train: &[f64]) {
        let t = transpile(c, device, layout, opt);
        let ideal = run(c, train, &[], ExecMode::Dynamic);
        let compiled = run(&t.circuit, train, &[], ExecMode::Dynamic);
        for l in 0..c.num_qubits() {
            let a = ideal.expect_z(l);
            let b = compiled.expect_z(t.dense_of_logical[l]);
            assert!(
                (a - b).abs() < 1e-8,
                "logical {l}: ideal {a} vs compiled {b} (opt {opt})"
            );
        }
        // All 2q gates respect the coupling map.
        for op in t.circuit.iter() {
            if op.num_qubits() == 2 {
                let pa = t.phys_of[op.qubits[0]];
                let pb = t.phys_of[op.qubits[1]];
                assert!(device.connected(pa, pb), "uncoupled gate {pa}-{pb}");
            }
        }
    }

    fn random_vqc(n: usize, blocks: usize, seed: u64) -> (Circuit, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        let mut train = Vec::new();
        for _ in 0..blocks {
            for q in 0..n {
                train.extend((0..3).map(|_| rng.gen_range(-2.0..2.0)));
                let base = train.len() - 3;
                c.push(
                    GateKind::U3,
                    &[q],
                    &[
                        Param::Train(base),
                        Param::Train(base + 1),
                        Param::Train(base + 2),
                    ],
                );
            }
            for q in 0..n {
                let tgt = (q + 1) % n;
                if tgt != q {
                    train.extend((0..3).map(|_| rng.gen_range(-2.0..2.0)));
                    let base = train.len() - 3;
                    c.push(
                        GateKind::CU3,
                        &[q, tgt],
                        &[
                            Param::Train(base),
                            Param::Train(base + 1),
                            Param::Train(base + 2),
                        ],
                    );
                }
            }
        }
        (c, train)
    }

    #[test]
    fn u3cu3_pipeline_on_all_5q_devices() {
        for dev in Device::all_5q() {
            let (c, train) = random_vqc(4, 1, 3);
            check_pipeline(&c, &dev, &Layout::trivial(4), 2, &train);
        }
    }

    #[test]
    fn all_opt_levels_are_equivalent() {
        let dev = Device::yorktown();
        let (c, train) = random_vqc(4, 2, 8);
        for opt in 0..=3 {
            check_pipeline(&c, &dev, &Layout::trivial(4), opt, &train);
        }
    }

    #[test]
    fn higher_opt_levels_do_not_grow_circuits() {
        let dev = Device::belem();
        let (c, _) = random_vqc(4, 2, 12);
        let sizes: Vec<usize> = (0..=3)
            .map(|opt| {
                transpile(&c, &dev, &Layout::trivial(4), opt)
                    .circuit
                    .num_ops()
            })
            .collect();
        assert!(sizes[1] <= sizes[0]);
        assert!(sizes[2] <= sizes[1]);
    }

    #[test]
    fn compaction_keeps_only_used_qubits() {
        let dev = Device::manhattan();
        let (c, train) = random_vqc(4, 1, 5);
        let layout = Layout::from_vec(vec![10, 11, 12, 13]);
        let t = transpile(&c, &dev, &layout, 2);
        assert!(
            t.circuit.num_qubits() <= 10,
            "width {}",
            t.circuit.num_qubits()
        );
        check_pipeline(&c, &dev, &layout, 2, &train);
    }

    #[test]
    fn noise_adaptive_layout_end_to_end() {
        let dev = Device::quito();
        let (c, train) = random_vqc(4, 1, 21);
        let layout = Layout::noise_adaptive(4, &dev);
        check_pipeline(&c, &dev, &layout, 2, &train);
    }

    #[test]
    fn metrics_are_consistent() {
        let dev = Device::santiago();
        let (c, _) = random_vqc(4, 2, 30);
        let t = transpile(&c, &dev, &Layout::trivial(4), 2);
        let (total, one, two) = t.gate_counts();
        assert_eq!(total, one + two);
        assert!(t.depth() > 0 && t.depth() <= total);
    }
}
