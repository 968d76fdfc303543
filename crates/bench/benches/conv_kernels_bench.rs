//! Criterion benchmarks of the convolution kernels: the direct kernels
//! over a zero-bordered input against the retained naive reference, at
//! the SegNet layer shapes and at a larger feature map.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use trainer::real::net::{
    conv_backward, conv_forward, pad_len, reference_conv_backward, reference_conv_forward,
};

/// (label, h, w, cin, cout, k) — layers 1 and 2 of the default net plus
/// a 64×64 map that no longer fits the smallest cache levels.
const SHAPES: [(&str, usize, usize, usize, usize, usize); 4] = [
    ("l1_24x24_3to8_k3", 24, 24, 3, 8, 3),
    ("l2_24x24_8to16_k3", 24, 24, 8, 16, 3),
    ("head_24x24_16to4_k1", 24, 24, 16, 4, 1),
    ("big_64x64_8to16_k3", 64, 64, 8, 16, 3),
];

fn det(i: usize) -> f32 {
    ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0
}

fn bench_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv_forward");
    for &(label, h, w, cin, cout, k) in &SHAPES {
        let npix = h * w;
        let input: Vec<f32> = (0..cin * npix).map(det).collect();
        let weights: Vec<f32> = (0..cout * cin * k * k).map(det).collect();
        let bias: Vec<f32> = (0..cout).map(det).collect();
        let mut out = vec![0.0f32; cout * npix];
        let mut xpad = vec![0.0f32; pad_len(cin, h, w, k)];
        g.bench_with_input(BenchmarkId::new("optimized", label), &(), |b, ()| {
            b.iter(|| {
                conv_forward(
                    black_box(&input),
                    cin,
                    h,
                    w,
                    &weights,
                    &bias,
                    k,
                    cout,
                    false,
                    &mut xpad,
                    &mut out,
                );
                black_box(out[0])
            });
        });
        g.bench_with_input(BenchmarkId::new("reference", label), &(), |b, ()| {
            b.iter(|| {
                reference_conv_forward(
                    black_box(&input),
                    cin,
                    h,
                    w,
                    &weights,
                    &bias,
                    k,
                    cout,
                    &mut out,
                );
                black_box(out[0])
            });
        });
    }
    g.finish();
}

fn bench_backward(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv_backward");
    for &(label, h, w, cin, cout, k) in &SHAPES {
        let npix = h * w;
        let input: Vec<f32> = (0..cin * npix).map(det).collect();
        let weights: Vec<f32> = (0..cout * cin * k * k).map(det).collect();
        let bias: Vec<f32> = (0..cout).map(det).collect();
        let dout: Vec<f32> = (0..cout * npix).map(det).collect();
        let mut xpad = vec![0.0f32; pad_len(cin, h, w, k)];
        let mut out = vec![0.0f32; cout * npix];
        conv_forward(&input, cin, h, w, &weights, &bias, k, cout, false, &mut xpad, &mut out);
        let mut dpad = vec![0.0f32; pad_len(cout, h, w, k)];
        let mut dw = vec![0.0f32; weights.len()];
        let mut db = vec![0.0f32; cout];
        let mut din = vec![0.0f32; input.len()];
        g.bench_with_input(BenchmarkId::new("optimized", label), &(), |b, ()| {
            b.iter(|| {
                dw.fill(0.0);
                db.fill(0.0);
                din.fill(0.0);
                conv_backward(
                    black_box(&input),
                    cin,
                    h,
                    w,
                    &weights,
                    k,
                    cout,
                    &dout,
                    &xpad,
                    &mut dpad,
                    &mut dw,
                    &mut db,
                    Some(&mut din),
                );
                black_box(dw[0])
            });
        });
        g.bench_with_input(BenchmarkId::new("reference", label), &(), |b, ()| {
            b.iter(|| {
                dw.fill(0.0);
                db.fill(0.0);
                din.fill(0.0);
                reference_conv_backward(
                    black_box(&input),
                    cin,
                    h,
                    w,
                    &weights,
                    k,
                    cout,
                    &dout,
                    &mut dw,
                    &mut db,
                    Some(&mut din),
                );
                black_box(dw[0])
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_forward, bench_backward);
criterion_main!(benches);
