//! Figures 16 and 17: VQE expectation values.

use crate::{banner, Scale};
use qns_chem::{uccsd_ansatz, Molecule};
use qns_noise::Device;
use qns_transpile::Layout;
use quantumnas::{
    eval_task, human_design, iterative_prune, random_design, train_supercircuit, train_task,
    DesignSpace, Estimator, EstimatorKind, PruneConfig, SpaceKind, Split, SuperCircuit, Task,
    TrainConfig,
};

fn vqe_train(scale: &Scale, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: if scale.full { 600 } else { 200 },
        lr: 0.05,
        batch_size: 1,
        warmup_steps: 0,
        seed,
    }
}

/// Measured energy of a trained ansatz on a device.
fn measured_energy(
    task: &Task,
    device: &Device,
    scale: &Scale,
    circuit: &qns_circuit::Circuit,
    params: &[f64],
    layout: &Layout,
) -> f64 {
    let hamiltonian = match task {
        Task::Vqe { hamiltonian, .. } => hamiltonian,
        _ => unreachable!("VQE task"),
    };
    Estimator::new(device.clone(), EstimatorKind::Noiseless, 2).vqe_energy_measured(
        circuit,
        params,
        hamiltonian,
        layout,
        scale.measure(),
    )
}

/// Figure 16: H2 VQE across design spaces vs UCCSD/human/random baselines.
pub fn fig16(scale: &Scale) {
    banner(
        "Figure 16",
        "H2 VQE measured energies per design space (exact optimum ~ -1.85)",
    );
    let mol = Molecule::h2();
    let task = Task::vqe(&mol);
    let device = Device::yorktown();
    let exact = mol.fci_energy();
    println!("exact ground energy: {exact:.4}");

    // UCCSD baseline (space-independent).
    let (uccsd, _) = uccsd_ansatz(2, 1);
    let (up, _) = train_task(&uccsd, &task, &vqe_train(scale, 0), None);
    let uccsd_ideal = eval_task(&uccsd, &up, &task, Split::Valid).0;
    let uccsd_measured = measured_energy(&task, &device, scale, &uccsd, &up, &Layout::trivial(2));
    println!(
        "{:<16} {:<14} ideal {:>8.4} | measured {:>8.4}",
        "UCCSD", "-", uccsd_ideal, uccsd_measured
    );

    let spaces = if scale.full {
        vec![
            SpaceKind::U3Cu3,
            SpaceKind::ZzRy,
            SpaceKind::Rxyz,
            SpaceKind::ZxXx,
            SpaceKind::RxyzU1Cu3,
        ]
    } else {
        vec![SpaceKind::U3Cu3, SpaceKind::Rxyz]
    };
    for space in spaces {
        let sc = SuperCircuit::new(DesignSpace::new(space), 2, scale.blocks);
        let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(1));
        // H2 is 2 qubits: the accurate trajectory estimator is affordable
        // even during search, and VQE rankings need it.
        let estimator = Estimator::new(
            device.clone(),
            EstimatorKind::NoisySim(qns_noise::TrajectoryConfig {
                trajectories: 8,
                seed: 2,
                readout: true,
            }),
            2,
        );
        let mut evo = scale.evo.clone();
        evo.seed = 3;
        let human_seed = quantumnas::Gene {
            config: human_design(&sc, sc.num_params() / 2),
            layout: (0..2).collect(),
        };
        let search = quantumnas::evolutionary_search_seeded(
            &sc,
            &shared,
            &task,
            &estimator,
            &evo,
            &[human_seed],
        );
        let circuit = sc.build_for(&search.best.config, &task);
        let (params, _) = train_task(&circuit, &task, &vqe_train(scale, 1), None);
        let nas_measured = measured_energy(
            &task,
            &device,
            scale,
            &circuit,
            &params,
            &search.best.layout(),
        );
        let budget = circuit.referenced_train_indices().len().max(2);

        // Human and random baselines at matched budget.
        let hc = sc.build_for(&human_design(&sc, budget), &task);
        let (hp, _) = train_task(&hc, &task, &vqe_train(scale, 2), None);
        let human_measured = measured_energy(&task, &device, scale, &hc, &hp, &Layout::trivial(2));
        let rc = sc.build_for(&random_design(&sc, budget, 5), &task);
        let (rp, _) = train_task(&rc, &task, &vqe_train(scale, 3), None);
        let random_measured = measured_energy(&task, &device, scale, &rc, &rp, &Layout::trivial(2));

        // Pruned QuantumNAS (the paper prunes 50% of VQE parameters).
        let pruned = iterative_prune(
            &circuit,
            &params,
            &task,
            &PruneConfig {
                final_ratio: 0.5,
                steps: 2,
                finetune_epochs: if scale.full { 200 } else { 60 },
                lr: 0.02,
                ..Default::default()
            },
        );
        let pruned_measured = measured_energy(
            &task,
            &device,
            scale,
            &pruned.circuit,
            &pruned.params,
            &search.best.layout(),
        );
        println!(
            "{:<16} human {:>8.4} | random {:>8.4} | QuantumNAS {:>8.4} | +prune {:>8.4}",
            DesignSpace::new(space).kind(),
            human_measured,
            random_measured,
            nas_measured,
            pruned_measured
        );
    }
    println!("(expect: QuantumNAS consistently lowest; UCCSD far from optimal under noise)");
}

/// Figure 17: VQE on the larger molecules vs UCCSD.
pub fn fig17(scale: &Scale) {
    banner(
        "Figure 17",
        "VQE on LiH / H2O / CH4 (and BeH2 with --full) vs UCCSD",
    );
    let mut mols = vec![Molecule::lih(), Molecule::h2o(), Molecule::ch4_6q()];
    if scale.full {
        mols.push(Molecule::ch4_10q());
        mols.push(Molecule::beh2());
    }
    println!(
        "{:<10} {:>7} {:>12} {:>14} {:>14} {:>14}",
        "molecule", "qubits", "UCCSD ideal", "UCCSD measured", "QNAS ideal", "QNAS measured"
    );
    for mol in mols {
        let n = mol.num_qubits();
        let task = Task::vqe(&mol);
        // The paper runs these on 7-, 15-, and 27-qubit machines.
        let device = if n <= 7 {
            Device::jakarta()
        } else if n <= 15 {
            Device::melbourne()
        } else {
            Device::toronto()
        };
        // UCCSD (capped excitations keep the 10+ qubit ansatz tractable).
        let (uccsd, _) = uccsd_ansatz(n, mol.num_electrons());
        let mut uc = vqe_train(scale, 0);
        if n > 6 {
            uc.epochs = uc.epochs.min(80);
        }
        let (up, _) = train_task(&uccsd, &task, &uc, None);
        let uccsd_ideal = eval_task(&uccsd, &up, &task, Split::Valid).0;
        let uccsd_measured =
            measured_energy(&task, &device, scale, &uccsd, &up, &Layout::trivial(n));

        // QuantumNAS.
        let blocks = if n <= 6 { scale.blocks } else { 1 };
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), n, blocks);
        let mut st = scale.super_train(4);
        if n > 6 {
            st.steps = st.steps.min(60);
        }
        let (shared, _) = train_supercircuit(&sc, &task, &st);
        let estimator = Estimator::new(device.clone(), EstimatorKind::SuccessRate, 2);
        let mut evo = scale.evo.clone();
        evo.seed = 9;
        if n > 6 {
            evo.iterations = evo.iterations.min(4);
            evo.population = evo.population.min(8);
        }
        let human_seed = quantumnas::Gene {
            config: human_design(&sc, sc.num_params() / 2),
            layout: (0..n).collect(),
        };
        let search = quantumnas::evolutionary_search_seeded(
            &sc,
            &shared,
            &task,
            &estimator,
            &evo,
            &[human_seed],
        );
        let circuit = sc.build_for(&search.best.config, &task);
        let mut tc = vqe_train(scale, 5);
        if n > 6 {
            tc.epochs = tc.epochs.min(120);
        }
        let (params, _) = train_task(&circuit, &task, &tc, None);
        let nas_ideal = eval_task(&circuit, &params, &task, Split::Valid).0;
        let nas_measured = measured_energy(
            &task,
            &device,
            scale,
            &circuit,
            &params,
            &search.best.layout(),
        );

        println!(
            "{:<10} {:>7} {:>12.3} {:>14.3} {:>14.3} {:>14.3}",
            mol.name(),
            n,
            uccsd_ideal,
            uccsd_measured,
            nas_ideal,
            nas_measured
        );
    }
    println!("(expect: QuantumNAS at or below UCCSD, especially in the measured column)");
}
