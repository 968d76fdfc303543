//! F8 — mIoU convergence of real data-parallel training (claim C6).
//!
//! Paper: "We achieved a mIOU accuracy of 80.8% for distributed training,
//! which is on par with published accuracy for this model."
//!
//! Per the substitution in DESIGN.md §2, Pascal-VOC DLv3+ is replaced by
//! the synthetic shapes-segmentation task and the from-scratch conv net;
//! the transferable claim — distributed gradient averaging matches serial
//! training's accuracy — is demonstrated with real numerics: every
//! gradient crosses worker threads through a real ring allreduce.

use bench::{compare, header, SEED};
use collectives::{Algorithm, CodecKind};
use summit_metrics::{series::bar, Table};
use trainer::real::{train, DataConfig, NetConfig, TrainConfig};

fn config(workers: usize, batch_per_worker: usize) -> TrainConfig {
    let data = DataConfig { noise: 0.86, ..DataConfig::default() };
    let net = NetConfig {
        height: data.height,
        width: data.width,
        cin: data.channels,
        n_classes: data.n_classes,
        ..NetConfig::default()
    };
    TrainConfig {
        data,
        net,
        workers,
        batch_per_worker,
        steps: 160,
        base_lr: 0.4,
        lr_scale: 1.0, // same global batch in every run below
        warmup_steps: 12,
        momentum: 0.9,
        weight_decay: 0.0,
        accumulation_steps: 1,
        algo: Algorithm::Ring,
        pipeline: false,
        codec: CodecKind::None,
        error_feedback: false,
        augment: false,
        eval_every: 20,
        eval_samples: 64,
        seed: SEED,
        faults: None,
        checkpoint: None,
        trace: None,
    }
}

fn main() {
    header(
        "F8",
        "mIoU convergence, serial vs data-parallel (real training)",
        "abstract claim C6 (80.8% mIoU, distributed on par with serial)",
    );

    // Same global batch (8) split across 1, 2, 4, 8 workers.
    let runs: Vec<(usize, usize)> = vec![(1, 8), (2, 4), (4, 2), (8, 1)];
    let mut results = Vec::new();
    for &(w, b) in &runs {
        let r = train(&config(w, b));
        println!("workers={w} (batch {b}/worker): final mIoU {:.3}", r.final_miou);
        for p in &r.curve {
            println!(
                "    step {:>4}  loss {:>6.3}  mIoU {:>6.3}  {}",
                p.step,
                p.train_loss,
                p.miou,
                bar(p.miou, 1.0, 30)
            );
        }
        results.push((w, r));
    }

    let mut t = Table::new(
        "final accuracy by worker count (global batch 8, 160 steps)",
        &["workers", "mIoU", "pixel acc", "Δ mIoU vs serial"],
    );
    let serial_miou = results[0].1.final_miou;
    for (w, r) in &results {
        t.row(&[
            w.to_string(),
            format!("{:.3}", r.final_miou),
            format!("{:.3}", r.final_pixel_accuracy),
            format!("{:+.3}", r.final_miou - serial_miou),
        ]);
    }
    t.print();

    let dist_miou = results.last().expect("runs").1.final_miou;
    println!("Paper-vs-measured:");
    compare("distributed-training mIoU", 0.808, dist_miou, "");
    compare("serial-vs-distributed mIoU gap", 0.0, (dist_miou - serial_miou).abs(), "");
    println!(
        "\n(The absolute mIoU lands near the paper's 80.8% by construction of\n\
         the synthetic task's noise level; the reproduced *finding* is the\n\
         ~zero gap between serial and distributed training.)"
    );
}
