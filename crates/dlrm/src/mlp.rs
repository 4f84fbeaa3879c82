//! Dense MLP layers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One dense layer: `out_dim × in_dim` weights (row-major) and a bias.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Dense {
    /// A layer with seeded uniform(-0.1, 0.1) parameters.
    pub fn new_random(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Dense {
            in_dim,
            out_dim,
            weights: (0..in_dim * out_dim)
                .map(|_| (rng.gen::<f32>() - 0.5) * 0.2)
                .collect(),
            bias: (0..out_dim)
                .map(|_| (rng.gen::<f32>() - 0.5) * 0.2)
                .collect(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Row-major `out_dim × in_dim` weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Applies one SGD step from this layer's gradient.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn apply_grad(&mut self, grad: &crate::backward::DenseGrad, lr: f32) {
        assert_eq!(grad.dw.len(), self.weights.len(), "dw shape");
        assert_eq!(grad.db.len(), self.bias.len(), "db shape");
        for (w, &g) in self.weights.iter_mut().zip(&grad.dw) {
            *w -= lr * g;
        }
        for (b, &g) in self.bias.iter_mut().zip(&grad.db) {
            *b -= lr * g;
        }
    }

    /// Allocating `y = W·x + b`.
    pub fn affine(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.out_dim];
        self.forward_into(x, &mut out);
        out
    }

    /// `y = W·x + b` into `out`.
    ///
    /// The dot product is blocked into `LANES` independent accumulators
    /// over `chunks_exact` so the compiler can keep the chains in vector
    /// registers; the tail runs scalar.
    fn forward_into(&self, x: &[f32], out: &mut [f32]) {
        const LANES: usize = 4;
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (o, (row, b)) in out
            .iter_mut()
            .zip(self.weights.chunks_exact(self.in_dim).zip(&self.bias))
        {
            let mut lanes = [0.0f32; LANES];
            let mut r_blocks = row.chunks_exact(LANES);
            let mut x_blocks = x.chunks_exact(LANES);
            for (r, xs) in r_blocks.by_ref().zip(x_blocks.by_ref()) {
                for k in 0..LANES {
                    lanes[k] += r[k] * xs[k];
                }
            }
            let mut acc = *b + ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
            for (&w, &v) in r_blocks.remainder().iter().zip(x_blocks.remainder()) {
                acc += w * v;
            }
            *o = acc;
        }
    }
}

/// A multi-layer perceptron with ReLU between layers (none after the
/// last, matching DLRM's bottom/top MLPs which apply their own output
/// nonlinearity elsewhere).
///
/// ```
/// use fcc_dlrm::Mlp;
///
/// let mlp = Mlp::new_random(&[13, 64, 32], 42);
/// let y = mlp.forward(&vec![0.1; 13]);
/// assert_eq!(y.len(), 32);
/// // Seeded construction is deterministic.
/// assert_eq!(y, Mlp::new_random(&[13, 64, 32], 42).forward(&vec![0.1; 13]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP from a width list `[in, h1, ..., out]` with seeded
    /// parameters.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new_random(widths: &[usize], seed: u64) -> Self {
        assert!(widths.len() >= 2, "an MLP needs at least one layer");
        Mlp {
            layers: widths
                .windows(2)
                .enumerate()
                .map(|(i, w)| Dense::new_random(w[0], w[1], seed.wrapping_add(i as u64)))
                .collect(),
        }
    }

    /// The layer stack (for backward passes and inspection).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer stack (optimizer steps).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass for one sample.
    ///
    /// Uses two ping-ponged activation buffers sized to the widest layer,
    /// so the layer loop performs no per-layer allocation.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "input width mismatch");
        let widest = self
            .layers
            .iter()
            .map(|l| l.out_dim)
            .max()
            .expect("non-empty");
        let mut cur = Vec::with_capacity(widest.max(x.len()));
        cur.extend_from_slice(x);
        let mut next = vec![0.0; widest];
        for (i, layer) in self.layers.iter().enumerate() {
            let out = &mut next[..layer.out_dim];
            layer.forward_into(&cur, out);
            if i + 1 < self.layers.len() {
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            cur.clear();
            cur.extend_from_slice(out);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_like_layer_computes_wx_plus_b() {
        // Hand-built 2x2 layer.
        let layer = Dense {
            in_dim: 2,
            out_dim: 2,
            weights: vec![1.0, 2.0, 3.0, 4.0],
            bias: vec![0.5, -0.5],
        };
        let mut out = vec![0.0; 2];
        layer.forward_into(&[1.0, 1.0], &mut out);
        assert_eq!(out, vec![3.5, 6.5]);
    }

    #[test]
    fn relu_applies_between_layers_only() {
        // Two layers engineered so the hidden value is negative: if ReLU
        // ran after the last layer the output could not be negative.
        let mlp = Mlp {
            layers: vec![
                Dense {
                    in_dim: 1,
                    out_dim: 1,
                    weights: vec![-1.0],
                    bias: vec![0.0],
                },
                Dense {
                    in_dim: 1,
                    out_dim: 1,
                    weights: vec![1.0],
                    bias: vec![-2.0],
                },
            ],
        };
        // x=1 -> hidden -1 -> relu 0 -> out -2 (negative: no trailing relu).
        assert_eq!(mlp.forward(&[1.0]), vec![-2.0]);
        // x=-1 -> hidden 1 -> relu 1 -> out -1 (hidden relu was a no-op on
        // the positive value).
        assert_eq!(mlp.forward(&[-1.0]), vec![-1.0]);
    }

    #[test]
    fn dims() {
        let mlp = Mlp::new_random(&[13, 512, 256, 64], 0);
        assert_eq!(mlp.in_dim(), 13);
        assert_eq!(mlp.out_dim(), 64);
        assert_eq!(mlp.num_layers(), 3);
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        assert_eq!(Mlp::new_random(&[4, 4], 9), Mlp::new_random(&[4, 4], 9));
        assert_ne!(Mlp::new_random(&[4, 4], 9), Mlp::new_random(&[4, 4], 10));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_degenerate_widths() {
        Mlp::new_random(&[5], 0);
    }
}
