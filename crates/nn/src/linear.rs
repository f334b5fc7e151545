//! The [`Linear`] (fully connected / shared per-point 1x1 convolution)
//! layer.

use crate::{Forward, ParamId, ParamSet};
use colper_autodiff::{Act, Var};
use colper_tensor::Initializer;
use rand::Rng;

/// A dense affine layer `y = x W + b`, applied row-wise — for point
/// clouds this is the "shared MLP" primitive: the same weights applied to
/// every point.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a new layer in `params` with Kaiming-uniform weights.
    pub fn new<R: Rng + ?Sized>(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        rng: &mut R,
    ) -> Self {
        let weight = params.add_param(
            format!("{name}.weight"),
            Initializer::KaimingUniform.sample(in_dim, out_dim, rng),
        );
        let bias = bias.then(|| {
            params.add_param(format!("{name}.bias"), Initializer::Zeros.sample(1, out_dim, rng))
        });
        Self { weight, bias, in_dim, out_dim }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter handle.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Applies the layer to `[N, in_dim]` activations as one
    /// [`colper_autodiff::Tape::dense`] op, with the bias (if any) as its
    /// shift.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `in_dim` columns.
    pub fn forward(&self, f: &mut Forward<'_>, x: Var) -> Var {
        self.forward_dense(f, x, None, Act::Identity)
    }

    /// `act((x W) * scale + shift)` as one dense op. `bn` is a folded
    /// eval-mode batch norm's `(scale, shift)` rows; without it the
    /// layer's bias (if any) is the shift.
    ///
    /// # Panics
    ///
    /// Panics when `x` does not have `in_dim` columns, or when a
    /// batch-norm fold is given to a layer that has its own bias.
    pub(crate) fn forward_dense(
        &self,
        f: &mut Forward<'_>,
        x: Var,
        bn: Option<(Var, Var)>,
        act: Act,
    ) -> Var {
        assert_eq!(
            f.tape.value(x).cols(),
            self.in_dim,
            "Linear: expected {} input columns",
            self.in_dim
        );
        assert!(bn.is_none() || self.bias.is_none(), "Linear: bias and batch-norm shift both set");
        let w = f.param(self.weight);
        let shift = match bn {
            Some((_, shift)) => Some(shift),
            None => self.bias.map(|b| f.param(b)),
        };
        f.tape.dense(x, w, bn.map(|(scale, _)| scale), shift, act)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colper_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 5, true, &mut rng);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 5);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::ones(4, 3));
        let y = lin.forward(&mut f, x);
        assert_eq!(f.tape.value(y).shape(), (4, 5));
    }

    #[test]
    fn bias_shifts_output() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 2, 2, true, &mut rng);
        // Set known weights/bias.
        *ps.param_mut(lin.weight()) = Matrix::identity(2);
        let bias_id = crate::ParamId(1);
        *ps.param_mut(bias_id) = Matrix::from_rows(&[&[1.0, -1.0]]).unwrap();
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::from_rows(&[&[2.0, 3.0]]).unwrap());
        let y = lin.forward(&mut f, x);
        assert_eq!(f.tape.value(y).as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn gradients_reach_weights_in_training() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 2, 2, true, &mut rng);
        let mut f = Forward::new(&ps, true);
        let x = f.tape.constant(Matrix::ones(3, 2));
        let y = lin.forward(&mut f, x);
        let s = f.tape.sum(y);
        f.tape.backward(s);
        let grads = f.collect_grads();
        assert_eq!(grads.len(), 2, "weight and bias should both get grads");
    }

    #[test]
    #[should_panic(expected = "input columns")]
    fn rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 5, false, &mut rng);
        let mut f = Forward::new(&ps, false);
        let x = f.tape.constant(Matrix::ones(4, 2));
        let _ = lin.forward(&mut f, x);
    }
}
