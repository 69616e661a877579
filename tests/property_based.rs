//! Property-based tests over the core cross-crate invariants.

use proptest::prelude::*;
use qns_circuit::{Circuit, GateKind, Param};
use qns_sim::{adjoint_gradient, run, DiagObservable, ExecMode};
use qns_tensor::C64;
use qns_transpile::{optimize, to_ibm_basis};

/// Strategy: a random parameterized circuit over `n` qubits.
fn arb_circuit(n_qubits: usize, max_ops: usize) -> impl Strategy<Value = (Circuit, Vec<f64>)> {
    let gate_pool: Vec<GateKind> = vec![
        GateKind::H,
        GateKind::X,
        GateKind::SX,
        GateKind::RX,
        GateKind::RY,
        GateKind::RZ,
        GateKind::U3,
        GateKind::CX,
        GateKind::CZ,
        GateKind::CU3,
        GateKind::RZZ,
        GateKind::CRY,
    ];
    prop::collection::vec(
        (
            0..gate_pool.len(),
            0..n_qubits,
            0..n_qubits,
            prop::collection::vec(-3.0..3.0f64, 3),
        ),
        1..max_ops,
    )
    .prop_map(move |ops| {
        let mut c = Circuit::new(n_qubits);
        let mut train = Vec::new();
        for (gi, a, b, vals) in ops {
            let kind = gate_pool[gi];
            let qs: Vec<usize> = if kind.num_qubits() == 1 {
                vec![a]
            } else if a != b {
                vec![a, b]
            } else {
                vec![a, (a + 1) % n_qubits]
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dynamic and static (fused) execution agree on any circuit.
    #[test]
    fn exec_modes_agree((circuit, train) in arb_circuit(3, 20)) {
        let a = run(&circuit, &train, &[], ExecMode::Dynamic);
        let b = run(&circuit, &train, &[], ExecMode::Static);
        prop_assert!((a.inner(&b).abs() - 1.0).abs() < 1e-9);
    }

    /// States stay normalized through any circuit.
    #[test]
    fn norm_is_preserved((circuit, train) in arb_circuit(3, 25)) {
        let s = run(&circuit, &train, &[], ExecMode::Dynamic);
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Basis lowering preserves semantics up to global phase.
    #[test]
    fn basis_lowering_is_exact((circuit, train) in arb_circuit(3, 15)) {
        let lowered = to_ibm_basis(&circuit);
        let a = run(&circuit, &train, &[], ExecMode::Dynamic);
        let b = run(&lowered, &train, &[], ExecMode::Dynamic);
        prop_assert!((a.inner(&b).abs() - 1.0).abs() < 1e-8);
    }

    /// Peephole optimization never changes semantics and never grows the
    /// circuit, at any level, and every level ends on a cancellation
    /// fixpoint: one more level-1 pass finds nothing left to merge.
    #[test]
    fn optimization_is_sound(
        (circuit, train) in arb_circuit(3, 15),
        level in 0u8..=3,
    ) {
        let lowered = to_ibm_basis(&circuit);
        let optimized = optimize(&lowered, level);
        prop_assert!(optimized.num_ops() <= lowered.num_ops());
        if level >= 1 {
            prop_assert_eq!(optimize(&optimized, 1), optimized);
        }
        let a = run(&lowered, &train, &[], ExecMode::Dynamic);
        let b = run(&optimized, &train, &[], ExecMode::Dynamic);
        prop_assert!((a.inner(&b).abs() - 1.0).abs() < 1e-7);
    }

    /// The adjoint gradient matches central finite differences on every
    /// trainable parameter of any circuit.
    #[test]
    fn adjoint_gradient_is_correct((circuit, train) in arb_circuit(3, 10)) {
        let obs = DiagObservable::new(vec![0.5, -1.0, 0.25]);
        let (_, grad) = adjoint_gradient(&circuit, &train, &[], &obs);
        let h = 1e-5;
        for i in 0..train.len().min(4) {
            let mut plus = train.clone();
            plus[i] += h;
            let mut minus = train.clone();
            minus[i] -= h;
            let ep = {
                use qns_sim::Observable as _;
                obs.expect(&run(&circuit, &plus, &[], ExecMode::Dynamic))
            };
            let em = {
                use qns_sim::Observable as _;
                obs.expect(&run(&circuit, &minus, &[], ExecMode::Dynamic))
            };
            let fd = (ep - em) / (2.0 * h);
            prop_assert!((grad[i] - fd).abs() < 1e-5,
                "param {}: adjoint {} vs fd {}", i, grad[i], fd);
        }
    }

    /// Pauli-string application is involutive (P · P = I) for any string.
    #[test]
    fn pauli_strings_are_involutive(x in 0u64..8, z in 0u64..8) {
        let p = qns_chem::PauliString { x, z };
        let mut amps = vec![C64::ZERO; 8];
        amps[5] = C64::new(0.6, 0.0);
        amps[2] = C64::new(0.0, 0.8);
        let s = qns_sim::StateVec::from_amplitudes(amps);
        let twice = p.apply(&p.apply(&s));
        prop_assert!((twice.inner(&s).abs() - 1.0).abs() < 1e-9);
    }
}
