//! Table VI and Figures 18–23: ablations and analysis experiments.

use crate::{banner, measure, noisy_estimator, qml_task, Scale};
use qns_noise::{Device, DriftingDevice, TrajectoryConfig};
use qns_transpile::Layout;
use quantumnas::{
    evolutionary_search, iterative_prune, random_search, train_supercircuit, train_task,
    DesignSpace, Estimator, EstimatorKind, PruneConfig, SamplerConfig, SpaceKind, SuperCircuit,
    SuperTrainConfig,
};

/// Table VI: searching with the (frozen-noise) estimator vs "real QC"
/// feedback under calibration drift, at optimization levels 2 and 3.
pub fn tab6(scale: &Scale) {
    banner(
        "Table VI",
        "search with estimator vs drifting-hardware feedback (opt levels 2/3)",
    );
    let task = qml_task("Fashion-4", scale, 131);
    let devices = [Device::yorktown(), Device::belem(), Device::santiago()];
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(7));

    for opt_level in [2u8, 3u8] {
        println!("\n-- optimization level {opt_level} --");
        println!(
            "{:<12} {:>12} {:>14}",
            "device", "estimator", "w/ drifting QC"
        );
        for device in &devices {
            // Estimator search: frozen calibration snapshot.
            let kind = if scale.full {
                EstimatorKind::NoisySim(TrajectoryConfig {
                    trajectories: 8,
                    seed: 7,
                    readout: true,
                })
            } else {
                EstimatorKind::SuccessRate
            };
            let est = Estimator::new(device.clone(), kind, opt_level).with_valid_cap(12);
            let mut evo = scale.evo.clone();
            evo.seed = 43;
            let s1 = evolutionary_search(&sc, &shared, &task, &est, &evo);

            // "Real QC" search: the device drifts over the (long) queue —
            // each generation sees a different calibration. The paper's
            // real-hardware run is slightly worse for exactly this reason.
            let drift = DriftingDevice::new(device.clone(), 0.5);
            let mut best: Option<(quantumnas::Gene, f64)> = None;
            for iter in 0..evo.iterations {
                let snapshot = drift.at(iter as f64 / 3.0);
                let mut iter_est = Estimator::new(snapshot, kind, opt_level).with_valid_cap(12);
                let mut one = evo.clone();
                one.iterations = 1;
                one.seed = 43 + iter as u64;
                let r = evolutionary_search(&sc, &shared, &task, &iter_est, &one);
                if best
                    .as_ref()
                    .map(|(_, s)| r.best_score < *s)
                    .unwrap_or(true)
                {
                    best = Some((r.best, r.best_score));
                }
                iter_est.set_device(device.clone());
            }
            let s2_best = best.expect("iterations ran").0;

            // Deploy both against the true (frozen) device, compiled at
            // the same optimization level the search assumed.
            let eval = |gene: &quantumnas::Gene, seed: u64| -> f64 {
                let circuit = sc.build_for(&gene.config, &task);
                let (params, _) = train_task(&circuit, &task, &scale.train(seed), None);
                Estimator::new(device.clone(), EstimatorKind::Noiseless, opt_level).test_accuracy(
                    &circuit,
                    &params,
                    &task,
                    &gene.layout(),
                    scale.n_test,
                    scale.measure(),
                )
            };
            println!(
                "{:<12} {:>12.3} {:>14.3}",
                device.name(),
                eval(&s1.best, 1),
                eval(&s2_best, 2)
            );
        }
    }
    println!("(expect: drifting feedback slightly worse; level 3 not uniformly better)");
}

/// Figure 18: accuracy breakdown — human / mapping-only / circuit-only /
/// co-search.
pub fn fig18(scale: &Scale) {
    banner("Figure 18", "effect of circuit & qubit-mapping co-design");
    // Quick mode amplifies noise so design choices dominate the +/-0.05
    // sampling error (full mode uses raw calibrations).
    let device = if scale.full {
        Device::yorktown()
    } else {
        Device::yorktown().scaled_errors(2.5)
    };
    let tasks = if scale.full {
        vec!["MNIST-4", "Fashion-4", "Vowel-4", "MNIST-2", "Fashion-2"]
    } else {
        vec!["MNIST-2", "Fashion-2"]
    };
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>12}",
        "task", "human", "mapping-only", "circuit-only", "co-search"
    );
    for task_name in tasks {
        let task = qml_task(task_name, scale, 141);
        let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
        let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(19));
        let estimator = noisy_estimator(&device, scale);

        // Every variant starts from the same human design, so "mapping
        // only" freezes exactly that architecture (parameter-matched).
        let human_gene = quantumnas::Gene {
            config: quantumnas::human_design(&sc, sc.num_params() / 2),
            layout: (0..4).collect(),
        };
        let run_variant_once = |search_arch: bool, search_layout: bool, seed: u64| -> f64 {
            if !search_arch && !search_layout {
                // Pure human baseline: human design, trivial layout.
                let circuit = sc.build_for(&human_gene.config, &task);
                let (params, _) = train_task(&circuit, &task, &scale.train(seed), None);
                return measure(
                    &task,
                    &device,
                    scale,
                    &circuit,
                    &params,
                    &Layout::trivial(4),
                )
                .measured;
            }
            let mut evo = scale.evo.clone();
            evo.seed = seed;
            evo.search_arch = search_arch;
            evo.search_layout = search_layout;
            let search = quantumnas::evolutionary_search_seeded(
                &sc,
                &shared,
                &task,
                &estimator,
                &evo,
                std::slice::from_ref(&human_gene),
            );
            let circuit = sc.build_for(&search.best.config, &task);
            let (params, _) = train_task(&circuit, &task, &scale.train(seed), None);
            measure(
                &task,
                &device,
                scale,
                &circuit,
                &params,
                &search.best.layout(),
            )
            .measured
        };
        // Search outcomes are seed-noisy at quick scale: average 3 seeds.
        let reps = if scale.full { 1 } else { 3 };
        let run_variant = |arch: bool, layout: bool, base: u64| -> f64 {
            (0..reps)
                .map(|r| run_variant_once(arch, layout, base + 10 * r as u64))
                .sum::<f64>()
                / reps as f64
        };

        println!(
            "{:<12} {:>10.3} {:>14.3} {:>14.3} {:>12.3}",
            task_name,
            run_variant(false, false, 1),
            run_variant(false, true, 2),
            run_variant(true, false, 3),
            run_variant(true, true, 4),
        );
    }
    println!("(expect: circuit-only > mapping-only; co-search best)");
}

/// Figure 19: progressive shrinking + restricted sampling ablation.
pub fn fig19(scale: &Scale) {
    banner(
        "Figure 19",
        "progressive shrinking and restricted sampling improve final accuracy",
    );
    let device = Device::yorktown();
    let pairs = if scale.full {
        vec![
            ("MNIST-4", SpaceKind::ZxXx),
            ("Fashion-4", SpaceKind::ZxXx),
            ("MNIST-2", SpaceKind::RxyzU1Cu3),
            ("Fashion-2", SpaceKind::RxyzU1Cu3),
        ]
    } else {
        vec![
            ("MNIST-2", SpaceKind::ZxXx),
            ("Fashion-2", SpaceKind::U3Cu3),
        ]
    };
    println!(
        "{:<12} {:<14} {:>16} {:>14}",
        "task", "space", "w/o progressive", "progressive"
    );
    for (task_name, space) in pairs {
        let task = qml_task(task_name, scale, 151);
        // Shrinking only matters with enough depth head-room, so this
        // ablation uses a deeper SuperCircuit than the other quick runs.
        let sc = SuperCircuit::new(DesignSpace::new(space), 4, scale.blocks.max(5));

        let run_variant_once = |progressive: bool, seed: u64| -> f64 {
            let sampler = SamplerConfig {
                progressive,
                restricted: progressive,
                shrink_start: 0,
                shrink_end: (scale.super_steps / 3).max(1),
                ..Default::default()
            };
            let mut st = scale.super_train(seed);
            st.steps *= 2;
            let cfg = SuperTrainConfig { sampler, ..st };
            let (shared, _) = train_supercircuit(&sc, &task, &cfg);
            let estimator = noisy_estimator(&device, scale);
            let mut evo = scale.evo.clone();
            evo.seed = seed ^ 29;
            let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
            let circuit = sc.build_for(&search.best.config, &task);
            let (params, _) = train_task(&circuit, &task, &scale.train(seed ^ 4), None);
            measure(
                &task,
                &device,
                scale,
                &circuit,
                &params,
                &search.best.layout(),
            )
            .measured
        };
        let reps = if scale.full { 1 } else { 3 };
        let run_variant = |progressive: bool| -> f64 {
            (0..reps)
                .map(|r| run_variant_once(progressive, 23 + 7 * r as u64))
                .sum::<f64>()
                / reps as f64
        };

        println!(
            "{:<12} {:<14} {:>16.3} {:>14.3}",
            task_name,
            DesignSpace::new(space).kind(),
            run_variant(false),
            run_variant(true)
        );
    }
}

/// Figure 20: topology / error rate / mapping effects.
pub fn fig20(scale: &Scale) {
    banner(
        "Figure 20",
        "qubit topology, error rate, and mapping all matter",
    );
    let task = qml_task("MNIST-4", scale, 161);
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(27));
    println!(
        "{:<10} {:>9} {:>10} {:>12} {:>12} {:>10}",
        "device", "topology", "mean e2q", "naive map", "searched", "conv iter"
    );
    for device in Device::all_5q() {
        let estimator = noisy_estimator(&device, scale);
        let mut evo = scale.evo.clone();
        evo.seed = 37;
        let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
        let circuit = sc.build_for(&search.best.config, &task);
        let (params, _) = train_task(&circuit, &task, &scale.train(5), None);
        let searched = measure(
            &task,
            &device,
            scale,
            &circuit,
            &params,
            &search.best.layout(),
        )
        .measured;
        let naive = measure(
            &task,
            &device,
            scale,
            &circuit,
            &params,
            &Layout::trivial(4),
        )
        .measured;
        // Convergence iteration: last improvement of the best-so-far curve.
        let conv = search
            .history
            .windows(2)
            .rposition(|w| w[1] < w[0] - 1e-12)
            .map(|i| i + 2)
            .unwrap_or(1);
        println!(
            "{:<10} {:>9} {:>10.4} {:>12.3} {:>12.3} {:>10}",
            device.name(),
            format!("{:?}", device.topology()),
            device.mean_err_2q(),
            naive,
            searched,
            conv
        );
    }
    println!("(expect: same topology => lower error wins; searched >= naive mapping)");
}

/// Figures 21 and 22: random vs evolutionary search.
pub fn fig21_22(scale: &Scale) {
    banner(
        "Figures 21-22",
        "evolutionary search beats random search at equal budget",
    );
    let task = qml_task("MNIST-2", scale, 171);
    let device = Device::yorktown();
    let sc = SuperCircuit::new(DesignSpace::new(SpaceKind::U3Cu3), 4, scale.blocks);
    let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(33));
    let estimator = noisy_estimator(&device, scale);
    let mut evo = scale.evo.clone();
    evo.seed = 47;
    let e = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
    let r = random_search(&sc, &shared, &task, &estimator, &evo);

    println!("optimization curves (best-so-far estimator loss per iteration):");
    println!("{:>6} {:>14} {:>14}", "iter", "evolutionary", "random");
    for (i, (ev, rv)) in e.history.iter().zip(r.history.iter()).enumerate() {
        println!("{:>6} {:>14.4} {:>14.4}", i + 1, ev, rv);
    }

    let finish = |gene: &quantumnas::Gene, seed: u64| -> f64 {
        let circuit = sc.build_for(&gene.config, &task);
        let (params, _) = train_task(&circuit, &task, &scale.train(seed), None);
        measure(&task, &device, scale, &circuit, &params, &gene.layout()).measured
    };
    // Average over search seeds: single quick-mode runs are noisy.
    let reps = if scale.full { 1 } else { 3 };
    let mut evo_acc = 0.0;
    let mut rnd_acc = 0.0;
    for rep in 0..reps {
        let mut cfg = scale.evo.clone();
        cfg.seed = 47 + 13 * rep as u64;
        let e = evolutionary_search(&sc, &shared, &task, &estimator, &cfg);
        let r = random_search(&sc, &shared, &task, &estimator, &cfg);
        evo_acc += finish(&e.best, cfg.seed) / reps as f64;
        rnd_acc += finish(&r.best, cfg.seed ^ 1) / reps as f64;
    }
    println!("\nfinal measured accuracy (Figure 21, mean over {reps} seeds):");
    println!("  evolutionary: {evo_acc:.3}");
    println!("  random:       {rnd_acc:.3}");
}

/// Figure 23: measured accuracy across final pruning ratios.
pub fn fig23(scale: &Scale) {
    banner(
        "Figure 23",
        "pruning-ratio sweep: each task has a sweet spot",
    );
    let device = Device::yorktown();
    let pairs = vec![
        ("MNIST-2", SpaceKind::ZzRy),
        ("Fashion-2", SpaceKind::U3Cu3),
    ];
    let ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    for (task_name, space) in pairs {
        let task = qml_task(task_name, scale, 181);
        let sc = SuperCircuit::new(DesignSpace::new(space), 4, scale.blocks);
        let (shared, _) = train_supercircuit(&sc, &task, &scale.super_train(39));
        let estimator = noisy_estimator(&device, scale);
        let mut evo = scale.evo.clone();
        evo.seed = 53;
        let search = evolutionary_search(&sc, &shared, &task, &estimator, &evo);
        let circuit = sc.build_for(&search.best.config, &task);
        let (params, _) = train_task(&circuit, &task, &scale.train(6), None);

        print!("{:<12} {:<12}", task_name, DesignSpace::new(space).kind());
        for &ratio in &ratios {
            let acc = if ratio == 0.0 {
                measure(
                    &task,
                    &device,
                    scale,
                    &circuit,
                    &params,
                    &search.best.layout(),
                )
                .measured
            } else {
                let pruned = iterative_prune(
                    &circuit,
                    &params,
                    &task,
                    &PruneConfig {
                        final_ratio: ratio,
                        steps: 2,
                        finetune_epochs: (scale.epochs / 5).max(2),
                        ..Default::default()
                    },
                );
                measure(
                    &task,
                    &device,
                    scale,
                    &pruned.circuit,
                    &pruned.params,
                    &search.best.layout(),
                )
                .measured
            };
            print!(" r{:.1}={:.3}", ratio, acc);
        }
        println!();
    }
}
