//! Differential battery for the fast simulation path.
//!
//! [`SimBackend::Reference`] is the original naive per-gate simulator,
//! kept verbatim as the oracle. Every test here drives random circuits
//! through the fast structure-specialized kernels — with fusion off
//! (`ExecMode::Dynamic`) and on (`ExecMode::Static` and an explicit
//! `SimPlan`), across transpiler optimization levels 0–3 — and
//! demands agreement with the oracle to 1e-10 in amplitudes and
//! expectation values.

mod common;

use proptest::prelude::*;
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{run_with, ExecMode, SimBackend, SimPlan, StateVec};
use qns_transpile::optimize;

const TOL: f64 = 1e-10;

fn assert_amplitudes_close(fast: &StateVec, oracle: &StateVec, what: &str) {
    for (i, (a, b)) in fast
        .amplitudes()
        .iter()
        .zip(oracle.amplitudes())
        .enumerate()
    {
        let d = ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt();
        assert!(d < TOL, "{what}: amplitude {i} differs by {d:e}");
    }
    for (q, (ez_f, ez_o)) in fast
        .expect_z_all()
        .iter()
        .zip(oracle.expect_z_all())
        .enumerate()
    {
        assert!(
            (ez_f - ez_o).abs() < TOL,
            "{what}: <Z_{q}> differs: {ez_f} vs {ez_o}"
        );
    }
}

/// Strategy: a random circuit over 1..=8 qubits drawing from EVERY gate
/// template the circuit crate ships.
fn arb_any_circuit() -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    (
        1usize..=8,
        prop::collection::vec(
            (
                0..GateKind::all().len(),
                0usize..8,
                0usize..8,
                prop::collection::vec(-3.0..3.0f64, 3),
            ),
            1..40,
        ),
    )
        .prop_map(|(n, ops)| {
            let mut c = Circuit::new(n);
            let mut train = Vec::new();
            for (gi, a, b, vals) in ops {
                let kind = GateKind::all()[gi];
                if kind.num_qubits() == 2 && n == 1 {
                    continue; // no pair available on a single wire
                }
                let (a, b) = (a % n, b % n);
                let qs: Vec<usize> = if kind.num_qubits() == 1 {
                    vec![a]
                } else if a != b {
                    vec![a, b]
                } else {
                    vec![a, (a + 1) % n]
                };
                let ps: Vec<Param> = (0..kind.num_params())
                    .map(|k| {
                        train.push(vals[k]);
                        Param::Train(train.len() - 1)
                    })
                    .collect();
                c.push(kind, &qs, &ps);
            }
            (c, train)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every backend in the matrix agrees with the oracle with fusion
    /// off and on.
    #[test]
    fn fast_agrees_with_reference_both_modes((circuit, train) in arb_any_circuit()) {
        let oracle = run_with(&circuit, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
        common::for_each_backend(|backend, label| {
            for mode in [ExecMode::Dynamic, ExecMode::Static] {
                let got = run_with(&circuit, &train, &[], mode, backend);
                assert_amplitudes_close(&got, &oracle, &format!("{label} {mode:?}"));
            }
        });
    }

    /// The compiled fusion plan agrees with the oracle.
    #[test]
    fn fused_plan_agrees_with_reference((circuit, train) in arb_any_circuit()) {
        let oracle = run_with(&circuit, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
        let mut fast = StateVec::zero_state(circuit.num_qubits());
        SimPlan::compile(&circuit).execute_into(&circuit, &train, &[], &mut fast);
        assert_amplitudes_close(&fast, &oracle, "fused plan");
    }

    /// The fast path agrees with the oracle on the SAME circuit after
    /// every transpiler optimization level reshapes it.
    #[test]
    fn fast_agrees_with_reference_across_opt_levels((circuit, train) in arb_any_circuit()) {
        for level in 0..=3u8 {
            let opt = optimize(&circuit, level);
            let oracle = run_with(&opt, &train, &[], ExecMode::Dynamic, SimBackend::Reference);
            let fast = run_with(&opt, &train, &[], ExecMode::Static, SimBackend::Fast);
            assert_amplitudes_close(&fast, &oracle, &format!("opt level {level}"));
        }
    }
}

/// Input-encoded circuits (the QML forward pass shape) agree too.
#[test]
fn input_encoded_circuits_agree() {
    let n = 4;
    let mut c = Circuit::new(n);
    let mut t = 0;
    for q in 0..n {
        c.push(GateKind::RY, &[q], &[Param::Input(q)]);
        c.push(
            GateKind::RZ,
            &[q],
            &[Param::AffineInput {
                index: q,
                scale: 0.5,
                offset: 0.1,
            }],
        );
    }
    for layer in 0..3 {
        for q in 0..n {
            c.push(
                GateKind::U3,
                &[q],
                &[Param::Train(t), Param::Train(t + 1), Param::Train(t + 2)],
            );
            t += 3;
        }
        for q in 0..n {
            c.push(
                GateKind::CU3,
                &[q, (q + 1) % n],
                &[
                    Param::Train(t),
                    Param::Fixed(0.3 + layer as f64),
                    Param::Train(t + 1),
                ],
            );
            t += 2;
        }
    }
    let train: Vec<f64> = (0..t).map(|i| 0.2 * (i as f64) - 1.0).collect();
    for sample in 0..5 {
        let input: Vec<f64> = (0..n).map(|q| 0.3 * (q + sample) as f64).collect();
        let oracle = run_with(&c, &train, &input, ExecMode::Dynamic, SimBackend::Reference);
        common::for_each_backend(|backend, label| {
            for mode in [ExecMode::Dynamic, ExecMode::Static] {
                let got = run_with(&c, &train, &input, mode, backend);
                assert_amplitudes_close(
                    &got,
                    &oracle,
                    &format!("sample {sample} {label} {mode:?}"),
                );
            }
        });
    }
}

/// The default backend is the fast path — the oracle is opt-in.
#[test]
fn fast_is_the_default_backend() {
    assert_eq!(SimBackend::default(), SimBackend::Fast);
}
