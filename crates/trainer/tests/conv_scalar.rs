//! The scalar twins of the conv kernels, checked against the naive
//! `reference_*` implementations on random shapes.
//!
//! Every test first calls `simd::force_scalar_for_testing`, so the
//! runtime dispatch in `trainer::real::net` takes the `_scalar` path
//! even on AVX2 hardware. The switch is process-wide and cannot be
//! undone, which is why these tests live in their own test binary.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainer::real::net::{
    conv_backward, conv_forward, pad_len, reference_conv_backward, reference_conv_forward,
    BatchWorkspace, NetConfig, SegNet,
};
use trainer::real::segdata::Sample;

fn scalar_only() {
    simd::force_scalar_for_testing();
    assert!(!simd::have_avx2_fma(), "dispatch must now pick the scalar twins");
}

/// Same tolerance as `conv_proptests`: the kernels reassociate sums.
fn close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * (1.0 + b.abs().max(a.abs()))
}

fn assert_all_close(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length mismatch", what);
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        prop_assert!(close(g, w, 1e-4), "{}[{}]: scalar {} vs reference {}", what, i, g, w);
    }
    Ok(())
}

fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

/// Kernel in {1, 3, 5}, non-square planes; widths below 8, straddling
/// 8-pixel groups, and past the scalar input gradient's 64-pixel row
/// chunk.
fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, usize, u64)> {
    (
        2usize..=7,
        prop_oneof![3usize..=19, 60usize..=70],
        1usize..=4,
        1usize..=5,
        0usize..3,
        0u64..1 << 48,
    )
        .prop_map(|(h, w, cin, cout, ki, seed)| (h, w, cin, cout, [1, 3, 5][ki], seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scalar_forward_matches_reference((h, w, cin, cout, k, seed) in shape_strategy()) {
        scalar_only();
        let mut rng = StdRng::seed_from_u64(seed);
        let npix = h * w;
        let input = fill(&mut rng, cin * npix);
        let weights = fill(&mut rng, cout * cin * k * k);
        let bias = fill(&mut rng, cout);

        let mut want = vec![0.0f32; cout * npix];
        reference_conv_forward(&input, cin, h, w, &weights, &bias, k, cout, &mut want);
        let mut xpad = vec![0.0f32; pad_len(cin, h, w, k)];
        let mut got = vec![0.0f32; cout * npix];
        conv_forward(&input, cin, h, w, &weights, &bias, k, cout, false, &mut xpad, &mut got);
        assert_all_close(&got, &want, "out")?;

        conv_forward(&input, cin, h, w, &weights, &bias, k, cout, true, &mut xpad, &mut got);
        let relu_want: Vec<f32> = want.iter().map(|&x| x.max(0.0)).collect();
        assert_all_close(&got, &relu_want, "relu out")?;
    }

    #[test]
    fn scalar_backward_matches_reference((h, w, cin, cout, k, seed) in shape_strategy()) {
        scalar_only();
        let mut rng = StdRng::seed_from_u64(seed);
        let npix = h * w;
        let input = fill(&mut rng, cin * npix);
        let weights = fill(&mut rng, cout * cin * k * k);
        let dout = fill(&mut rng, cout * npix);
        // Non-zero starting accumulators: the kernels must accumulate.
        let dw0 = fill(&mut rng, weights.len());
        let db0 = fill(&mut rng, cout);
        let din0 = fill(&mut rng, input.len());

        let (mut dw_want, mut db_want, mut din_want) = (dw0.clone(), db0.clone(), din0.clone());
        reference_conv_backward(
            &input, cin, h, w, &weights, k, cout, &dout,
            &mut dw_want, &mut db_want, Some(&mut din_want),
        );

        let mut xpad = vec![0.0f32; pad_len(cin, h, w, k)];
        let mut out = vec![0.0f32; cout * npix];
        conv_forward(&input, cin, h, w, &weights, &vec![0.0; cout], k, cout, false, &mut xpad, &mut out);
        let mut dpad = vec![0.0f32; pad_len(cout, h, w, k)];
        let (mut dw, mut db, mut din) = (dw0, db0, din0);
        conv_backward(
            &input, cin, h, w, &weights, k, cout, &dout,
            &xpad, &mut dpad, &mut dw, &mut db, Some(&mut din),
        );
        assert_all_close(&dw, &dw_want, "dw")?;
        assert_all_close(&db, &db_want, "db")?;
        assert_all_close(&din, &din_want, "dinput")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The whole batch path on the scalar twins equals the per-sample
    /// naive reference averaged by hand.
    #[test]
    fn scalar_batch_loss_grad_ws_matches_reference(
        (h, w, seed) in (4usize..=8, 4usize..=12, 0u64..1 << 48),
        batch_n in 1usize..=4,
        n_classes in 2usize..=4,
    ) {
        scalar_only();
        let cfg = NetConfig { height: h, width: w, cin: 2, hidden1: 3, hidden2: 5, n_classes, k: 3 };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = SegNet::new(cfg, seed ^ 0x5ca1a);
        let npix = h * w;
        let batch: Vec<Sample> = (0..batch_n)
            .map(|_| Sample {
                pixels: fill(&mut rng, cfg.cin * npix),
                labels: (0..npix).map(|_| rng.gen_range(0..n_classes) as u8).collect(),
            })
            .collect();

        let mut want_grad = vec![0.0f32; net.n_params()];
        let mut want_loss = 0.0f64;
        for s in &batch {
            let (l, g) = net.reference_loss_grad(s);
            want_loss += l;
            for (acc, gi) in want_grad.iter_mut().zip(&g) {
                *acc += gi;
            }
        }
        want_loss /= batch.len() as f64;
        for g in &mut want_grad {
            *g /= batch.len() as f32;
        }

        let mut bw = BatchWorkspace::new(&cfg);
        let loss = net.batch_loss_grad_ws(&batch, &mut bw);
        prop_assert!(
            (loss - want_loss).abs() <= 1e-4 * (1.0 + want_loss.abs()),
            "loss: scalar {} vs reference {}", loss, want_loss
        );
        assert_all_close(&bw.grad, &want_grad, "grad")?;
    }
}
