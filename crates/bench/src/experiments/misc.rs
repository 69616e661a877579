//! Table I, Table II, Figure 9, Figure 10, Figure 12, Figure 15.

use crate::{banner, qml_task, time_median, Scale};
use qns_circuit::{Circuit, GateKind, Param};
use qns_ml::spearman;
use qns_noise::Device;
use qns_sim::{run, ExecMode};
use qns_transpile::{to_ibm_basis, transpile, Layout};
use quantumnas::{
    eval_task, evolutionary_search, train_supercircuit, train_task, DesignSpace, Estimator,
    EstimatorKind, EvoConfig, SpaceKind, Split, SubConfig, SuperCircuit,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table I: circuit-run counts with and without the SuperCircuit.
pub fn tab1(_scale: &Scale) {
    banner(
        "Table I",
        "SuperCircuit decouples parameter training from search",
    );
    let cost = quantumnas::RunCost {
        n_devices: 10,
        n_search: 1600,
        n_train: 40_000,
        n_eval: 1,
    };
    println!("{:<22} {:>18}", "strategy", "circuit runs");
    println!("{:<22} {:>18.3e}", "naive search", cost.naive());
    println!(
        "{:<22} {:>18.3e}",
        "with SuperCircuit",
        cost.with_supercircuit()
    );
    println!(
        "reduction: {:.0}x (paper quotes ~N_device x N_search = {}x)",
        cost.reduction(),
        cost.n_devices * cost.n_search
    );
}

/// Table II: compiled gate counts of U3 with zeroed parameters.
pub fn tab2(_scale: &Scale) {
    banner(
        "Table II",
        "pruning part of a U3 gate reduces compiled gates",
    );
    let cases: [(&str, [f64; 3]); 6] = [
        ("(th, ph, la)", [0.3, 0.4, 0.5]),
        ("(0,  ph, la)", [0.0, 0.4, 0.5]),
        ("(th, ph, 0 )", [0.3, 0.4, 0.0]),
        ("(th, 0,  0 )", [0.3, 0.0, 0.0]),
        ("(0,  ph, 0 )", [0.0, 0.4, 0.0]),
        ("(0,  0,  la)", [0.0, 0.0, 0.5]),
    ];
    println!(
        "{:<14} {:>16}  (paper: 5, 1, 4, 4, 1, 1)",
        "U3 pattern", "#compiled gates"
    );
    for (label, p) in cases {
        let mut c = Circuit::new(1);
        c.push(
            GateKind::U3,
            &[0],
            &[Param::Fixed(p[0]), Param::Fixed(p[1]), Param::Fixed(p[2])],
        );
        println!("{:<14} {:>16}", label, to_ibm_basis(&c).num_ops());
    }
}

/// Figure 9: correlation between inherited-parameter and trained-from-
/// scratch SubCircuit performance.
pub fn fig9(scale: &Scale) {
    banner(
        "Figure 9",
        "inherited vs from-scratch loss correlation (Spearman)",
    );
    let n_configs = if scale.full { 16 } else { 8 };
    println!(
        "{:<12} {:<14} {:>10} {:>8}",
        "task", "space", "spearman", "#configs"
    );
    let mut scores = Vec::new();
    for (task_name, space) in [
        ("MNIST-2", SpaceKind::U3Cu3),
        ("Fashion-2", SpaceKind::ZzRy),
    ] {
        let task = qml_task(task_name, scale, 21);
        let sc = SuperCircuit::new(DesignSpace::new(space), 4, scale.blocks);
        let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(3));
        let mut rng = StdRng::seed_from_u64(17);
        let mut inherited = Vec::new();
        let mut scratch = Vec::new();
        for k in 0..n_configs {
            let cfg = SubConfig {
                n_blocks: rng.gen_range(1..=sc.num_blocks()),
                widths: (0..sc.num_blocks())
                    .map(|_| {
                        (0..sc.space().layers_per_block().len())
                            .map(|_| rng.gen_range(1..=4))
                            .collect()
                    })
                    .collect(),
            };
            let circuit = sc.build_for(&cfg, &task);
            let (inh_loss, _) = eval_task(&circuit, &shared, &task, Split::Valid);
            let (params, _) = train_task(&circuit, &task, &scale.train(k as u64), None);
            let (scr_loss, _) = eval_task(&circuit, &params, &task, Split::Valid);
            inherited.push(inh_loss);
            scratch.push(scr_loss);
        }
        let rho = spearman(&inherited, &scratch);
        println!(
            "{:<12} {:<14} {:>10.3} {:>8}",
            task_name,
            DesignSpace::new(space).kind(),
            rho,
            n_configs
        );
        scores.push(rho);
    }
    let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
    println!("mean Spearman: {mean:.3} (paper reports an average of 0.75)");
}

/// Figure 10: estimated loss vs measured loss reliability.
pub fn fig10(scale: &Scale) {
    banner(
        "Figure 10",
        "estimator reliability: estimated vs measured loss",
    );
    let task = qml_task("MNIST-2", scale, 31);
    let device = Device::yorktown();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    // Estimator reliability hinges on a well-converged SuperCircuit, so
    // this experiment triples the sharing-training budget.
    let mut st = scale.super_train(5);
    st.steps *= 3;
    let (shared, _) = train_supercircuit(&sc, &task, &st);
    // The paper's Figure 10 estimator is the noisy simulator (not the
    // success-rate shortcut), so both sides use trajectory noise here.
    let estimator = Estimator::new(
        device.clone(),
        EstimatorKind::NoisySim(qns_noise::TrajectoryConfig {
            trajectories: scale.trajectories.min(8),
            seed: 7,
            readout: true,
        }),
        2,
    )
    .with_valid_cap(16);
    let measured_estimator =
        Estimator::new(device.clone(), EstimatorKind::NoisySim(scale.measure()), 2)
            .with_valid_cap(16);

    let n_points = if scale.full { 16 } else { 8 };
    let mut rng = StdRng::seed_from_u64(19);
    let mut estimated = Vec::new();
    let mut real = Vec::new();
    for k in 0..n_points {
        let cfg = SubConfig {
            n_blocks: rng.gen_range(1..=sc.num_blocks()),
            widths: (0..sc.num_blocks())
                .map(|_| (0..2).map(|_| rng.gen_range(1..=4)).collect())
                .collect(),
        };
        let circuit = sc.build_for(&cfg, &task);
        let layout = Layout::trivial(4);
        // Estimated: inherited params + search estimator.
        let est = estimator.score(&circuit, &shared, &task, &layout);
        // "Real": trained from scratch, then noisy-measured loss.
        let (params, _) = train_task(&circuit, &task, &scale.train(100 + k as u64), None);
        let measured = measured_estimator.score(&circuit, &params, &task, &layout);
        estimated.push(est);
        real.push(measured);
        println!("  config {k}: estimated {est:.4} | measured {measured:.4}");
    }
    println!(
        "Spearman rank correlation: {:.3} (paper reports 0.76)",
        spearman(&estimated, &real)
    );
}

/// Figure 12: training-speed comparison — static vs dynamic mode vs a
/// per-sample (unbatched) loop, across batch sizes. Each cell is the
/// median of 5 runs.
pub fn fig12(scale: &Scale) {
    const REPS: usize = 5;
    banner(
        "Figure 12",
        "QuantumEngine training speed: static vs dynamic vs unbatched",
    );
    // The paper times a 10-qubit circuit with 100 RX and 100 CRY gates.
    let n_qubits = 10;
    let mut c = Circuit::new(n_qubits);
    let mut t = 0;
    for i in 0..100 {
        c.push(GateKind::RX, &[i % n_qubits], &[Param::Train(t)]);
        t += 1;
        c.push(
            GateKind::CRY,
            &[i % n_qubits, (i + 1) % n_qubits],
            &[Param::Train(t)],
        );
        t += 1;
    }
    let params: Vec<f64> = (0..t).map(|i| 0.01 * i as f64).collect();
    let batches = if scale.full {
        vec![1usize, 4, 16, 64, 256]
    } else {
        vec![1usize, 4, 16, 64]
    };
    println!("each cell: median of {REPS} runs");
    println!(
        "{:>6} {:>14} {:>14} {:>16} {:>10}",
        "batch", "dynamic ms", "static ms", "unbatched ms", "speedup"
    );
    let mut static_wins = 0;
    for &b in &batches {
        let inputs: Vec<Vec<f64>> = (0..b).map(|i| vec![0.1 * i as f64]).collect();
        let time_mode = |mode: ExecMode, parallel: bool| -> f64 {
            let secs = time_median(REPS, || {
                if parallel {
                    let _ = qns_sim::parallel_map(&inputs, |_| run(&c, &params, &[], mode));
                } else {
                    for _ in &inputs {
                        std::hint::black_box(run(&c, &params, &[], mode));
                    }
                }
            });
            secs * 1000.0
        };
        let dynamic = time_mode(ExecMode::Dynamic, true);
        let static_ = time_mode(ExecMode::Static, true);
        let unbatched = time_mode(ExecMode::Dynamic, false);
        static_wins += usize::from(static_ < dynamic);
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>16.2} {:>9.1}x",
            b,
            dynamic,
            static_,
            unbatched,
            unbatched / static_
        );
    }
    println!(
        "static mode beat dynamic at {static_wins} of {} batch sizes (the paper: at every size)",
        batches.len()
    );
}

/// Figure 15: scalability to larger machines with the success-rate
/// estimator.
pub fn fig15(scale: &Scale) {
    banner(
        "Figure 15",
        "QuantumNAS on larger machines (success-rate estimator)",
    );
    // Quick mode uses the 10-qubit MNIST-10 circuit on each big machine;
    // full mode additionally reports the 15-qubit variant.
    let task = qml_task("MNIST-10", scale, 41);
    let devices = [
        Device::melbourne(),
        Device::guadalupe(),
        Device::toronto(),
        Device::manhattan(),
    ];
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 10, 2);
    let mut st = scale.super_train(9);
    st.steps = st.steps.min(200);
    let (shared, _) = train_supercircuit(&sc, &task, &st);
    println!(
        "{:<12} {:>7} {:>16} {:>16}",
        "device", "qubits", "human acc", "QuantumNAS acc"
    );
    for device in devices {
        let estimator =
            Estimator::new(device.clone(), EstimatorKind::SuccessRate, 1).with_valid_cap(8);
        let mut evo = EvoConfig {
            iterations: if scale.full { 15 } else { 5 },
            population: if scale.full { 20 } else { 8 },
            parents: 3,
            mutations: 3,
            crossovers: 2,
            ..EvoConfig::default()
        };
        evo.seed = 5;
        let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
        let nas_circuit = sc.build_for(&search.best.config, &task);
        let mut tc = scale.train(1);
        tc.epochs = tc.epochs.max(40);
        let (nas_params, _) = train_task(&nas_circuit, &task, &tc, None);
        let budget = nas_circuit.referenced_train_indices().len().max(4);
        let human_cfg = quantumnas::human_design(&sc, budget);
        let human_circuit = sc.build_for(&human_cfg, &task);
        let (human_params, _) = train_task(&human_circuit, &task, &tc, None);

        // Measured accuracy with a small trajectory budget (10-qubit
        // states are big); readout + gate noise still differentiate.
        let traj = qns_noise::TrajectoryConfig {
            trajectories: if scale.full { 8 } else { 4 },
            seed: 3,
            readout: true,
        };
        let meas = Estimator::new(device.clone(), EstimatorKind::Noiseless, 1);
        let n_test = if scale.full { 100 } else { 25 };
        let human_acc = meas.test_accuracy(
            &human_circuit,
            &human_params,
            &task,
            &Layout::trivial(10),
            n_test,
            traj,
        );
        let nas_acc = meas.test_accuracy(
            &nas_circuit,
            &nas_params,
            &task,
            &search.best.layout(),
            n_test,
            traj,
        );
        println!(
            "{:<12} {:>7} {:>16.3} {:>16.3}",
            device.name(),
            device.num_qubits(),
            human_acc,
            nas_acc
        );
    }
    let _ = transpile; // referenced for future use
}
