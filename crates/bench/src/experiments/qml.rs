//! Figures 2, 3, 13, 14 and Tables III, IV, V, VII.

use crate::{banner, measure, noisy_estimator, prepare, qml_task, run_method, Method, Scale};
use qns_ml::{mean, std_dev};
use qns_noise::Device;
use qns_transpile::Layout;
use quantumnas::{
    eval_task, evolutionary_search, human_design, random_design, train_supercircuit, train_task,
    DesignSpace, Estimator, EstimatorKind, SpaceKind, Split, SuperCircuit,
};

/// Figure 2: noise-free vs measured accuracy as parameters grow, with the
/// measured variance widening.
pub fn fig2(scale: &Scale) {
    banner(
        "Figure 2",
        "more parameters: noise-free accuracy rises, measured accuracy peaks",
    );
    let task = qml_task("MNIST-4", scale, 51);
    let device = Device::yorktown();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
    let budgets: Vec<usize> = if scale.full {
        vec![12, 24, 45, 90, 140, 190]
    } else {
        vec![12, 45, 90, 140, 190]
    };
    let designs_per_budget = if scale.full { 4 } else { 3 };
    println!(
        "{:>8} {:>22} {:>22}",
        "#params", "noise-free acc (mean/sd)", "measured acc (mean/sd)"
    );
    for &budget in &budgets {
        let mut ideal = Vec::new();
        let mut measured = Vec::new();
        for s in 0..designs_per_budget {
            let cfg = random_design(&sc, budget, 1000 + s);
            let circuit = sc.build_for(&cfg, &task);
            let (params, _) = train_task(&circuit, &task, &scale.train(s), None);
            let r = measure(
                &task,
                &device,
                scale,
                &circuit,
                &params,
                &Layout::trivial(4),
            );
            ideal.push(r.ideal);
            measured.push(r.measured);
        }
        println!(
            "{:>8} {:>14.3} /{:>5.3} {:>14.3} /{:>5.3}",
            budget,
            mean(&ideal),
            std_dev(&ideal),
            mean(&measured),
            std_dev(&measured)
        );
    }
    println!("(expect: ideal monotone-ish; measured peaks then drops; measured sd wider)");
}

/// Figure 3: accuracy vs #parameters — QuantumNAS delays the peak.
pub fn fig3(scale: &Scale) {
    banner(
        "Figure 3",
        "QuantumNAS mitigates gate error and delays the accuracy peak",
    );
    let task = qml_task("MNIST-4", scale, 61);
    let device = Device::yorktown();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 8);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(11));
    let estimator = noisy_estimator(&device, scale);
    let budgets: Vec<usize> = if scale.full {
        vec![12, 24, 45, 90, 140, 190]
    } else {
        vec![12, 45, 90, 140, 190]
    };
    println!(
        "{:>8} {:>12} {:>14}",
        "#params", "human acc", "QuantumNAS acc"
    );
    for &budget in &budgets {
        // Human at this budget.
        let human_cfg = human_design(&sc, budget);
        let human_circuit = sc.build_for(&human_cfg, &task);
        let (hp, _) = train_task(&human_circuit, &task, &scale.train(1), None);
        let human = measure(
            &task,
            &device,
            scale,
            &human_circuit,
            &hp,
            &Layout::trivial(4),
        );
        // QuantumNAS constrained to the same budget, seeded with the human
        // design so the budgeted search starts from a feasible gene.
        let mut evo = scale.evo.clone();
        evo.max_params = Some(budget);
        evo.seed = budget as u64;
        let seed_gene = quantumnas::Gene {
            config: human_cfg.clone(),
            layout: (0..4).collect(),
        };
        let search = quantumnas::evolutionary_search_seeded(
            &sc,
            &shared,
            &task,
            &estimator,
            &evo,
            &[seed_gene],
        );
        let nas_circuit = sc.build_for(&search.best.config, &task);
        let (np, _) = train_task(&nas_circuit, &task, &scale.train(2), None);
        let nas = measure(
            &task,
            &device,
            scale,
            &nas_circuit,
            &np,
            &search.best.layout(),
        );
        println!(
            "{:>8} {:>12.3} {:>14.3}",
            budget, human.measured, nas.measured
        );
    }
}

/// Table III: 300-sample test accuracy tracks the whole test set.
pub fn tab3(scale: &Scale) {
    banner(
        "Table III",
        "whole-test-set accuracy is close to a 300-sample subset",
    );
    // This comparison needs a test split well above 300 samples, so the
    // dataset is generated at fixed size regardless of --full.
    let task = quantumnas::Task::qml_digits(&[0, 1, 2, 3], 400, 4, 71);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let est = Estimator::new(Device::belem(), EstimatorKind::Noiseless, 2);
    println!(
        "{:<10} {:>16} {:>16}",
        "circuit", "whole test set", "300 samples"
    );
    for k in 0..4u64 {
        let cfg = random_design(&sc, 24 + 6 * k as usize, k);
        let circuit = sc.build_for(&cfg, &task);
        // Vary training length so the circuits span an accuracy range,
        // like the paper's four checkpoints.
        let mut train = scale.train(k);
        train.epochs = (scale.epochs / 4).max(1) * (k as usize + 1);
        let (params, _) = train_task(&circuit, &task, &train, None);
        let whole = {
            let (_, acc) = eval_task(&circuit, &params, &task, Split::Test);
            acc
        };
        let subset = est.ideal_accuracy(&circuit, &params, &task, 300);
        println!("{:<10} {:>16.3} {:>16.3}", k + 1, whole, subset);
    }
}

/// Table IV: compiled circuit properties per method (Fashion-2, U3+CU3).
pub fn tab4(scale: &Scale) {
    banner(
        "Table IV",
        "compiled circuit properties, Fashion-2 in the U3+CU3 space",
    );
    let task = qml_task("Fashion-2", scale, 81);
    let device = Device::yorktown();
    let prepared = prepare(&task, SpaceKind::U3Cu3, &device, scale, 7);
    println!(
        "{:<22} {:>6} {:>18} {:>8} {:>7}",
        "method", "depth", "#gates (1Q+CNOT)", "#params", "acc"
    );
    for method in [
        Method::NoiseUnaware,
        Method::Random,
        Method::Human,
        Method::QuantumNas,
        Method::QuantumNasPruned,
    ] {
        let r = run_method(method, &task, &device, scale, &prepared, 3);
        println!(
            "{:<22} {:>6} {:>9} ({:>3}+{:<3}) {:>8} {:>7.2}",
            method.label(),
            r.depth,
            r.gates.0,
            r.gates.1,
            r.gates.2,
            r.n_params,
            r.measured
        );
    }
    println!("(expect: noise-unaware deepest and least accurate; pruning trims depth/gates)");
}

/// Figure 13: measured accuracy across tasks × spaces × methods.
pub fn fig13(scale: &Scale) {
    banner(
        "Figure 13",
        "measured accuracy on IBMQ-Yorktown model: QuantumNAS vs 6 baselines",
    );
    // Quick mode amplifies the device noise so method differences exceed
    // the +/-0.06 sampling error of the 60-image measured test (full mode
    // keeps raw calibrations and uses 300 images, like the paper).
    let device = if scale.full {
        Device::yorktown()
    } else {
        Device::yorktown().scaled_errors(2.5)
    };
    let tasks: Vec<&str> = if scale.full {
        vec!["MNIST-4", "Fashion-4", "Vowel-4", "MNIST-2", "Fashion-2"]
    } else {
        vec!["MNIST-4", "MNIST-2", "Fashion-2"]
    };
    let spaces: Vec<SpaceKind> = if scale.full {
        vec![
            SpaceKind::U3Cu3,
            SpaceKind::ZzRy,
            SpaceKind::Rxyz,
            SpaceKind::ZxXx,
            SpaceKind::RxyzU1Cu3,
        ]
    } else {
        vec![SpaceKind::U3Cu3, SpaceKind::ZzRy]
    };
    let methods = if scale.full {
        Method::all().to_vec()
    } else {
        vec![
            Method::NoiseUnaware,
            Method::Random,
            Method::Human,
            Method::HumanNoiseAdaptive,
            Method::QuantumNas,
            Method::QuantumNasPruned,
        ]
    };
    for task_name in &tasks {
        let task = qml_task(task_name, scale, 97);
        for &space in &spaces {
            let prepared = prepare(&task, space, &device, scale, 13);
            println!(
                "\n--- {} | {} ---",
                task_name,
                DesignSpace::new(space).kind()
            );
            for &method in &methods {
                let r = run_method(method, &task, &device, scale, &prepared, 5);
                println!(
                    "{:<22} acc {:.3}  ({} params)",
                    method.label(),
                    r.measured,
                    r.n_params
                );
            }
        }
    }
}

/// Figure 14: QuantumNAS vs baselines across the 5-qubit devices.
pub fn fig14(scale: &Scale) {
    banner("Figure 14", "QuantumNAS across 5-qubit device models");
    let task = qml_task("MNIST-2", scale, 101);
    // One SuperCircuit, searched per device with its own noise model —
    // exactly the Table I reuse argument.
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(15));
    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "device", "human", "random", "QuantumNAS"
    );
    let amp = if scale.full { 1.0 } else { 2.5 };
    for device in Device::all_5q().into_iter().map(|d| d.scaled_errors(amp)) {
        let estimator = noisy_estimator(&device, scale);
        let mut evo = scale.evo.clone();
        evo.seed = 23;
        let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
        let nas_circuit = sc.build_for(&search.best.config, &task);
        let (np, _) = train_task(&nas_circuit, &task, &scale.train(1), None);
        let nas = measure(
            &task,
            &device,
            scale,
            &nas_circuit,
            &np,
            &search.best.layout(),
        );
        let budget = nas.n_params.max(4);

        let human_cfg = human_design(&sc, budget);
        let hc = sc.build_for(&human_cfg, &task);
        let (hp, _) = train_task(&hc, &task, &scale.train(2), None);
        let human = measure(&task, &device, scale, &hc, &hp, &Layout::trivial(4));

        let rand_cfg = random_design(&sc, budget, 3);
        let rc = sc.build_for(&rand_cfg, &task);
        let (rp, _) = train_task(&rc, &task, &scale.train(3), None);
        let random = measure(&task, &device, scale, &rc, &rp, &Layout::trivial(4));

        println!(
            "{:<10} {:>12.3} {:>12.3} {:>14.3}",
            device.name(),
            human.measured,
            random.measured,
            nas.measured
        );
    }
}

/// Table V: circuits searched for one device, run on another.
pub fn tab5(scale: &Scale) {
    banner("Table V", "device-specific circuits transfer poorly");
    let task = qml_task("Fashion-2", scale, 111);
    // Quick mode amplifies device error rates so the transfer penalty is
    // visible with small search budgets (full mode uses raw calibrations).
    let amp = if scale.full { 1.0 } else { 2.0 };
    let devices = [
        Device::yorktown().scaled_errors(amp),
        Device::belem().scaled_errors(amp),
        Device::santiago().scaled_errors(amp),
    ];
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(17));
    // Search per target device with the trajectory-noise estimator (the
    // transfer effect hinges on modeling each device's specific errors).
    let mut trained = Vec::new();
    for (i, dev) in devices.iter().enumerate() {
        let estimator = Estimator::new(
            dev.clone(),
            EstimatorKind::NoisySim(qns_noise::TrajectoryConfig {
                trajectories: 6,
                seed: 3,
                readout: true,
            }),
            2,
        )
        .with_valid_cap(12);
        let mut evo = scale.evo.clone();
        evo.seed = 31 + i as u64;
        let human_seed = quantumnas::Gene {
            config: human_design(&sc, sc.num_params() / 2),
            layout: (0..4).collect(),
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
        let (params, _) = train_task(&circuit, &task, &scale.train(i as u64), None);
        trained.push((circuit, params, search.best.layout()));
    }
    print!("{:<22}", "run on \\ searched for");
    for dev in &devices {
        print!(" {:>10}", dev.name());
    }
    println!();
    for run_dev in &devices {
        print!("{:<22}", run_dev.name());
        for (circuit, params, layout) in &trained {
            let r = measure(&task, run_dev, scale, circuit, params, layout);
            print!(" {:>10.3}", r.measured);
        }
        println!();
    }
    println!("(expect: the diagonal — matched search/run device — is the row maximum)");
}

/// Table VII: a small single-depth space vs the full multi-block space.
pub fn tab7(scale: &Scale) {
    banner(
        "Table VII",
        "small spaces have less noise but too little capacity",
    );
    let devices = [Device::santiago(), Device::belem(), Device::yorktown()];
    let tasks = if scale.full {
        vec!["MNIST-4", "Fashion-4", "MNIST-2", "Fashion-2"]
    } else {
        vec!["MNIST-4", "Fashion-2"]
    };
    for task_name in &tasks {
        let task = qml_task(task_name, scale, 121);
        println!("\n--- {task_name} ---");
        println!(
            "{:<10} {:>14} {:>10} {:>14} {:>10}",
            "device", "small depth", "small acc", "ours depth", "ours acc"
        );
        for device in &devices {
            // Small space: a single block (shallow, unbroken).
            let small_sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, 1);
            let (small_shared, _) = train_supercircuit(&small_sc, &task, &scale.super_train(2));
            let estimator = noisy_estimator(device, scale);
            let mut evo = scale.evo.clone();
            evo.seed = 41;
            let s_search = evolutionary_search(&small_sc, &small_shared, &task, &estimator, &evo);
            let s_circuit = small_sc.build_for(&s_search.best.config, &task);
            let (sp, _) = train_task(&s_circuit, &task, &scale.train(1), None);
            let small = measure(
                &task,
                device,
                scale,
                &s_circuit,
                &sp,
                &s_search.best.layout(),
            );

            // Ours: the multi-block space.
            let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks.max(3));
            let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(3));
            let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
            let circuit = sc.build_for(&search.best.config, &task);
            let (p, _) = train_task(&circuit, &task, &scale.train(2), None);
            let ours = measure(&task, device, scale, &circuit, &p, &search.best.layout());

            println!(
                "{:<10} {:>14} {:>10.3} {:>14} {:>10.3}",
                device.name(),
                small.depth,
                small.measured,
                ours.depth,
                ours.measured
            );
        }
    }
}
