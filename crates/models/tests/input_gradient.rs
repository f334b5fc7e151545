//! The gradient the attack follows, checked end to end: ∂loss/∂color
//! from the tape's backward pass (fused dense layers included) against
//! central finite differences, on each `tiny` victim in evaluation mode.
//!
//! Each probe's loss weights the probed point's own logits with a fixed
//! sign pattern: linear in the logits, so every kink comes from the
//! network itself, and few enough terms that the `f32` rounding of the
//! logits stays far below the tolerance once divided by `2h`. A probe is
//! excluded only when its `±h` passes take different ReLU signs or
//! max-pool argmaxes (different [`colper_autodiff::Tape::branch_fingerprint`]s):
//! the difference quotient then spans two linear pieces and measures
//! neither.

use colper_models::{
    bind_input, CloudTensors, ColorBinding, PointNet2, PointNet2Config, RandLaNet, RandLaNetConfig,
    ResGcn, ResGcnConfig, SegmentationModel,
};
use colper_nn::Forward;
use colper_scene::{IndoorSceneConfig, SceneGenerator};
use colper_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Probe step, as in `colper_autodiff::check_gradient`.
const H: f32 = 5e-3;
/// Tolerance on `|analytic - numeric| / max(1, |analytic|, |numeric|)`,
/// as `check_gradient` callers use.
const TOL: f32 = 1e-2;
const PROBES: usize = 32;

/// `sum(logits * r)` (accumulated in `f64` so the quotient is not
/// dominated by summation rounding), its gradient with respect to the
/// colors, and the pass's branch fingerprint.
fn evaluate(model: &dyn SegmentationModel, t: &CloudTensors, r: &Matrix) -> (f64, Matrix, u64) {
    let mut session = Forward::new(model.params(), false);
    let input = bind_input(&mut session.tape, t, ColorBinding::Leaf);
    // Same sampling stream every pass (RandLA-Net draws from it).
    let logits = model.forward(&mut session, &input, &mut StdRng::seed_from_u64(11));
    let weights = session.tape.constant(r.clone());
    let weighted = session.tape.mul(logits, weights);
    let loss = session.tape.sum(weighted);
    session.tape.backward(loss);
    let lv = session.tape.value(logits);
    let total = lv.as_slice().iter().zip(r.as_slice()).map(|(&z, &w)| f64::from(z * w)).sum();
    let grad = session.tape.grad(input.color).expect("colors are a leaf").clone();
    (total, grad, session.tape.branch_fingerprint())
}

fn check(model: &dyn SegmentationModel) {
    let cloud = SceneGenerator::indoor(IndoorSceneConfig::with_points(96)).generate(5);
    let base = CloudTensors::from_cloud(&cloud);
    let (mut checked, mut worst) = (0, 0.0f32);
    for p in 0..PROBES {
        let (row, col) = ((p * 37) % base.len(), p % 3);
        let r = Matrix::from_fn(base.len(), base.num_classes, |i, c| match (i == row, c % 3) {
            (false, _) => 0.0,
            (true, 0) => -1.0,
            (true, _) => 1.0,
        });
        let (_, analytic, _) = evaluate(model, &base, &r);
        let at = |delta: f32| {
            let mut t = base.clone();
            t.colors[(row, col)] += delta;
            evaluate(model, &t, &r)
        };
        let ((plus, _, fp_plus), (minus, _, fp_minus)) = (at(H), at(-H));
        if fp_plus != fp_minus {
            continue;
        }
        let numeric = ((plus - minus) / (2.0 * f64::from(H))) as f32;
        let a = analytic[(row, col)];
        let err = (a - numeric).abs() / 1.0f32.max(a.abs()).max(numeric.abs());
        assert!(
            err < TOL,
            "{}: d loss / d color[{row}][{col}] analytic {a} vs numeric {numeric}",
            model.name()
        );
        worst = worst.max(err);
        checked += 1;
    }
    // ResGCN's global-mean context lets a probe move every max-pool in
    // the cloud, so many probes straddle some argmax change; a third of
    // them must still land on one piece for the check to mean anything.
    assert!(
        checked * 3 >= PROBES,
        "{}: only {checked} of {PROBES} probes stayed on one linear piece",
        model.name()
    );
    eprintln!("{}: {checked}/{PROBES} probes, worst relative error {worst:.2e}", model.name());
}

#[test]
fn pointnet2_color_gradient_matches_finite_differences() {
    check(&PointNet2::new(PointNet2Config::tiny(13), &mut StdRng::seed_from_u64(1)));
}

#[test]
fn resgcn_color_gradient_matches_finite_differences() {
    check(&ResGcn::new(ResGcnConfig::tiny(13), &mut StdRng::seed_from_u64(2)));
}

#[test]
fn randlanet_color_gradient_matches_finite_differences() {
    check(&RandLaNet::new(RandLaNetConfig::tiny(13), &mut StdRng::seed_from_u64(3)));
}
