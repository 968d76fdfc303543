//! Criterion benchmarks of the single-worker training step: the
//! workspace-reusing optimized gradient path against the retained naive
//! reference, the evaluation forward with and without a reused
//! workspace, plus the pooled data-parallel allreduce step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use collectives::{exec_thread, Algorithm, ReduceOp};
use trainer::real::net::{BatchWorkspace, NetConfig, SegNet, Workspace};
use trainer::real::segdata::{generate_batch, DataConfig};

fn paper_cfg() -> (DataConfig, NetConfig) {
    let data = DataConfig::default();
    let cfg = NetConfig {
        height: data.height,
        width: data.width,
        cin: data.channels,
        n_classes: data.n_classes,
        ..NetConfig::default()
    };
    (data, cfg)
}

fn bench_sample_grad(c: &mut Criterion) {
    let (data, cfg) = paper_cfg();
    let net = SegNet::new(cfg, 42);
    let sample = &generate_batch(&data, 42, 0, 1)[0];
    let mut g = c.benchmark_group("sample_grad");
    let mut ws = Workspace::new(&cfg);
    let mut grad = vec![0.0f32; net.n_params()];
    g.bench_function("optimized_workspace", |b| {
        b.iter(|| {
            grad.fill(0.0);
            black_box(net.loss_grad_acc(black_box(sample), &mut ws, &mut grad))
        });
    });
    g.bench_function("optimized_allocating", |b| {
        b.iter(|| black_box(net.loss_grad(black_box(sample))));
    });
    g.bench_function("reference", |b| {
        b.iter(|| black_box(net.reference_loss_grad(black_box(sample))));
    });
    g.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (data, cfg) = paper_cfg();
    let net = SegNet::new(cfg, 42);
    let sample = &generate_batch(&data, 42, 0, 1)[0];
    let mut g = c.benchmark_group("predict");
    let mut ws = Workspace::new(&cfg);
    let mut pred = vec![0u8; cfg.height * cfg.width];
    g.bench_function("predict_into_workspace", |b| {
        b.iter(|| {
            net.predict_into(black_box(&sample.pixels), &mut ws, &mut pred);
            black_box(pred[0])
        });
    });
    g.bench_function("predict_allocating", |b| {
        b.iter(|| black_box(net.predict(black_box(&sample.pixels))));
    });
    g.finish();
}

fn bench_batch_step(c: &mut Criterion) {
    let (data, cfg) = paper_cfg();
    let net = SegNet::new(cfg, 42);
    let batch = generate_batch(&data, 42, 0, 8);
    let mut g = c.benchmark_group("batch_step");
    g.sample_size(20);
    let mut bw = BatchWorkspace::new(&cfg);
    g.bench_function("batch8_workspace", |b| {
        b.iter(|| black_box(net.batch_loss_grad_ws(black_box(&batch), &mut bw)));
    });
    g.bench_function("batch8_reference", |b| {
        b.iter(|| {
            let mut loss = 0.0;
            for s in &batch {
                loss += net.reference_loss_grad(black_box(s)).0;
            }
            black_box(loss)
        });
    });
    g.finish();
}

fn bench_gradient_allreduce(c: &mut Criterion) {
    let cfg = paper_cfg().1;
    let n_params = cfg.n_params();
    let workers = 4;
    let schedule = Algorithm::Ring.build(workers, n_params);
    let ctx = exec_thread::ExecContext::new();
    let mut g = c.benchmark_group("gradient_allreduce");
    g.sample_size(30);
    g.bench_function("ring4_pooled", |b| {
        let mut grads: Vec<Vec<f32>> = (0..workers)
            .map(|r| (0..n_params).map(|i| (r * n_params + i) as f32 * 1e-6).collect())
            .collect();
        b.iter(|| {
            ctx.allreduce(&schedule, black_box(&mut grads), ReduceOp::Average).unwrap();
            black_box(grads[0][0])
        });
    });
    g.bench_function("ring4_throwaway", |b| {
        let mut grads: Vec<Vec<f32>> = (0..workers)
            .map(|r| (0..n_params).map(|i| (r * n_params + i) as f32 * 1e-6).collect())
            .collect();
        b.iter(|| {
            exec_thread::allreduce(&schedule, black_box(&mut grads), ReduceOp::Average).unwrap();
            black_box(grads[0][0])
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sample_grad,
    bench_predict,
    bench_batch_step,
    bench_gradient_allreduce
);
criterion_main!(benches);
