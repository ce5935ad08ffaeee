//! A small dense feed-forward network with backpropagation.
//!
//! Appendix K of the paper specifies the forecasting model used by every
//! workload:
//!
//! ```text
//! input --> 16 units (RELU) --> 8 units (RELU) --> |C| units (softmax)
//! ```
//!
//! trained for 40 epochs with a 20 % validation split, keeping the weights of
//! the best validation epoch. [`Mlp::fit`] implements exactly that recipe.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optim::Adam;

/// Element-wise layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (linear output head).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Softmax over the layer's outputs (distribution head).
    Softmax,
}

impl Activation {
    /// Apply the activation in place to pre-activations `z`.
    fn forward(&self, z: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => z.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Softmax => {
                let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for v in z.iter_mut() {
                    *v = (*v - m).exp();
                    sum += *v;
                }
                z.iter_mut().for_each(|v| *v /= sum);
            }
        }
    }

    /// Map the gradient w.r.t. the activation output `grad_a` to the gradient
    /// w.r.t. the pre-activation, given the activation output `a`.
    fn backward(&self, a: &[f64], grad_a: &[f64], grad_z: &mut [f64]) {
        match self {
            Activation::Identity => grad_z.copy_from_slice(grad_a),
            Activation::Relu => {
                for ((gz, &ai), &ga) in grad_z.iter_mut().zip(a.iter()).zip(grad_a.iter()) {
                    *gz = if ai > 0.0 { ga } else { 0.0 };
                }
            }
            Activation::Softmax => {
                // Full Jacobian-vector product: dz_i = a_i (g_i - Σ_j g_j a_j).
                let dot: f64 = grad_a.iter().zip(a.iter()).map(|(g, a)| g * a).sum();
                for ((gz, &ai), &ga) in grad_z.iter_mut().zip(a.iter()).zip(grad_a.iter()) {
                    *gz = ai * (ga - dot);
                }
            }
        }
    }
}

/// A dense layer: `a = act(W·x + b)`.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Weight matrix, `out_dim × in_dim`.
    pub weights: Matrix,
    /// Bias vector, `out_dim`.
    pub bias: Vec<f64>,
    /// Activation applied to the affine output.
    pub activation: Activation,
}

impl Layer {
    fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        // He initialization for ReLU layers, Xavier-ish otherwise.
        let scale = match activation {
            Activation::Relu => (2.0 / in_dim as f64).sqrt(),
            _ => (1.0 / in_dim as f64).sqrt(),
        };
        let weights = Matrix::from_fn(out_dim, in_dim, |_, _| {
            (rng.gen::<f64>() * 2.0 - 1.0) * scale
        });
        Self {
            weights,
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    fn out_dim(&self) -> usize {
        self.bias.len()
    }

    fn in_dim(&self) -> usize {
        self.weights.cols()
    }
}

/// Builder for [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_dim: usize,
    layers: Vec<(usize, Activation)>,
    seed: u64,
}

impl MlpBuilder {
    /// Start a network taking `input_dim` features.
    pub fn new(input_dim: usize) -> Self {
        Self {
            input_dim,
            layers: Vec::new(),
            seed: 42,
        }
    }

    /// Append a dense layer of `units` outputs with `activation`.
    pub fn layer(mut self, units: usize, activation: Activation) -> Self {
        assert!(units > 0, "layer must have at least one unit");
        self.layers.push((units, activation));
        self
    }

    /// Seed for weight initialization (deterministic builds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Materialize the network.
    pub fn build(self) -> Mlp {
        assert!(!self.layers.is_empty(), "network needs at least one layer");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut in_dim = self.input_dim;
        for (units, act) in self.layers {
            layers.push(Layer::new(in_dim, units, act, &mut rng));
            in_dim = units;
        }
        Mlp { layers }
    }
}

/// Report returned by [`Mlp::fit`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty if no validation split).
    pub val_loss: Vec<f64>,
    /// Epoch whose weights were kept (best validation loss; last epoch when
    /// there is no validation set).
    pub best_epoch: usize,
}

/// Training hyperparameters for [`Mlp::fit`]; paper defaults (Appendix K).
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Number of passes over the training data (paper: 40).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Fraction of samples held out for validation (paper: 0.2).
    pub val_fraction: f64,
    /// Loss to optimize.
    pub loss: Loss,
    /// Shuffling / split seed.
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 16,
            val_fraction: 0.2,
            loss: Loss::CrossEntropy,
            seed: 13,
        }
    }
}

/// A multi-layer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// The paper's forecaster architecture: `input → 16 ReLU → 8 ReLU →
    /// out softmax` (Appendix K).
    pub fn forecaster(input_dim: usize, out_dim: usize, seed: u64) -> Self {
        MlpBuilder::new(input_dim)
            .layer(16, Activation::Relu)
            .layer(8, Activation::Relu)
            .layer(out_dim, Activation::Softmax)
            .seed(seed)
            .build()
    }

    /// Rebuild a network from explicit layers (deserialization). Layers must
    /// chain: each layer's input dimension equals the previous layer's
    /// output dimension. Returns `None` for an empty or non-chaining stack.
    pub fn from_layers(layers: Vec<Layer>) -> Option<Self> {
        if layers.is_empty() {
            return None;
        }
        for w in layers.windows(2) {
            if w[1].in_dim() != w[0].out_dim() {
                return None;
            }
        }
        Some(Self { layers })
    }

    /// Layers, in forward order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.rows() * l.weights.cols() + l.bias.len())
            .sum()
    }

    /// Run inference.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut cur = x.to_vec();
        for layer in &self.layers {
            let mut z = vec![0.0; layer.out_dim()];
            layer.weights.matvec_bias_into(&cur, &layer.bias, &mut z);
            layer.activation.forward(&mut z);
            cur = z;
        }
        cur
    }

    /// Forward pass retaining every layer's activation (index 0 = input).
    fn forward_cached(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for layer in &self.layers {
            let prev = acts.last().expect("non-empty");
            let mut z = vec![0.0; layer.out_dim()];
            layer.weights.matvec_bias_into(prev, &layer.bias, &mut z);
            layer.activation.forward(&mut z);
            acts.push(z);
        }
        acts
    }

    /// Accumulate gradients for one sample into `grads` (same shapes as the
    /// network). Returns the loss value.
    fn accumulate_gradients(
        &self,
        x: &[f64],
        target: &[f64],
        loss: Loss,
        grads: &mut [(Matrix, Vec<f64>)],
    ) -> f64 {
        let acts = self.forward_cached(x);
        let output = acts.last().expect("non-empty");
        let loss_value = loss.value(output, target);

        let mut grad_a = vec![0.0; output.len()];
        loss.grad_into(output, target, &mut grad_a);

        for (i, layer) in self.layers.iter().enumerate().rev() {
            let a = &acts[i + 1];
            let input = &acts[i];
            let mut grad_z = vec![0.0; a.len()];
            layer.activation.backward(a, &grad_a, &mut grad_z);

            let (ref mut gw, ref mut gb) = grads[i];
            gw.add_outer(&grad_z, input, 1.0);
            for (b, &g) in gb.iter_mut().zip(grad_z.iter()) {
                *b += g;
            }

            if i > 0 {
                let mut grad_prev = vec![0.0; input.len()];
                layer
                    .weights
                    .matvec_transposed_into(&grad_z, &mut grad_prev);
                grad_a = grad_prev;
            }
        }
        loss_value
    }

    /// Flatten parameters into `buf` (deterministic layer order).
    fn write_params(&self, buf: &mut Vec<f64>) {
        buf.clear();
        for layer in &self.layers {
            buf.extend_from_slice(layer.weights.as_slice());
            buf.extend_from_slice(&layer.bias);
        }
    }

    /// Load parameters from a flat buffer produced by [`Self::write_params`].
    fn read_params(&mut self, buf: &[f64]) {
        let mut off = 0;
        for layer in &mut self.layers {
            let w = layer.weights.as_mut_slice();
            w.copy_from_slice(&buf[off..off + w.len()]);
            off += w.len();
            let b_len = layer.bias.len();
            layer.bias.copy_from_slice(&buf[off..off + b_len]);
            off += b_len;
        }
        assert_eq!(off, buf.len(), "parameter buffer length mismatch");
    }

    /// Supervised training following the paper's recipe: mini-batch gradient
    /// descent, `val_fraction` hold-out, and restoring the weights of the
    /// best validation epoch at the end.
    pub fn fit(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        optimizer: &mut Adam,
        config: &FitConfig,
    ) -> TrainReport {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot train on an empty dataset");

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        shuffle(&mut order, &mut rng);
        let n_val = ((inputs.len() as f64) * config.val_fraction).round() as usize;
        let n_val = n_val.min(inputs.len().saturating_sub(1));
        let (val_idx, train_idx) = order.split_at(n_val);
        let mut train_order: Vec<usize> = train_idx.to_vec();

        let mut grads: Vec<(Matrix, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    Matrix::zeros(l.weights.rows(), l.weights.cols()),
                    vec![0.0; l.bias.len()],
                )
            })
            .collect();
        let mut flat_params = Vec::new();
        let mut flat_grads = Vec::new();

        let mut report = TrainReport {
            train_loss: Vec::new(),
            val_loss: Vec::new(),
            best_epoch: 0,
        };
        let mut best_val = f64::INFINITY;
        let mut best_weights: Option<Vec<f64>> = None;

        for epoch in 0..config.epochs {
            shuffle(&mut train_order, &mut rng);
            let mut epoch_loss = 0.0;
            for chunk in train_order.chunks(config.batch_size.max(1)) {
                for g in grads.iter_mut() {
                    g.0.fill_zero();
                    g.1.iter_mut().for_each(|v| *v = 0.0);
                }
                for &i in chunk {
                    epoch_loss +=
                        self.accumulate_gradients(&inputs[i], &targets[i], config.loss, &mut grads);
                }
                let scale = 1.0 / chunk.len() as f64;
                flat_grads.clear();
                for (gw, gb) in &grads {
                    flat_grads.extend(gw.as_slice().iter().map(|v| v * scale));
                    flat_grads.extend(gb.iter().map(|v| v * scale));
                }
                self.write_params(&mut flat_params);
                optimizer.step(&mut flat_params, &flat_grads);
                self.read_params(&flat_params);
            }
            report
                .train_loss
                .push(epoch_loss / train_order.len().max(1) as f64);

            if !val_idx.is_empty() {
                let val_loss = val_idx
                    .iter()
                    .map(|&i| config.loss.value(&self.forward(&inputs[i]), &targets[i]))
                    .sum::<f64>()
                    / val_idx.len() as f64;
                report.val_loss.push(val_loss);
                if val_loss < best_val {
                    best_val = val_loss;
                    report.best_epoch = epoch;
                    self.write_params(&mut flat_params);
                    best_weights = Some(flat_params.clone());
                }
            } else {
                report.best_epoch = epoch;
            }
        }

        if let Some(w) = best_weights {
            self.read_params(&w);
        }
        report
    }
}

/// Fisher-Yates shuffle (avoids pulling in the `rand` shuffle trait for a
/// single call site).
fn shuffle(v: &mut [usize], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn forecaster_shape_matches_appendix_k() {
        let net = Mlp::forecaster(24, 4, 1);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.layers()[0].out_dim(), 16);
        assert_eq!(net.layers()[1].out_dim(), 8);
        assert_eq!(net.output_dim(), 4);
        assert_eq!(net.param_count(), 24 * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    fn softmax_head_outputs_distribution() {
        let net = Mlp::forecaster(6, 3, 2);
        let y = net.forward(&[0.1, 0.9, 0.3, 0.2, 0.5, 0.0]);
        assert_eq!(y.len(), 3);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(y.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Check backprop on a small ReLU+softmax net.
        let mut net = MlpBuilder::new(3)
            .layer(5, Activation::Relu)
            .layer(3, Activation::Softmax)
            .seed(11)
            .build();
        let x = [0.4, -0.2, 0.9];
        let t = [0.2, 0.5, 0.3];
        let mut grads: Vec<(Matrix, Vec<f64>)> = net
            .layers
            .iter()
            .map(|l| {
                (
                    Matrix::zeros(l.weights.rows(), l.weights.cols()),
                    vec![0.0; l.bias.len()],
                )
            })
            .collect();
        net.accumulate_gradients(&x, &t, Loss::CrossEntropy, &mut grads);

        let mut flat = Vec::new();
        net.write_params(&mut flat);
        let eps = 1e-6;
        // Spot-check a handful of parameters against central differences.
        for &pi in &[0usize, 3, 7, 14, 19] {
            let mut plus = flat.clone();
            plus[pi] += eps;
            let mut minus = flat.clone();
            minus[pi] -= eps;
            net.read_params(&plus);
            let lp = Loss::CrossEntropy.value(&net.forward(&x), &t);
            net.read_params(&minus);
            let lm = Loss::CrossEntropy.value(&net.forward(&x), &t);
            let fd = (lp - lm) / (2.0 * eps);
            // Recover analytic gradient at flat index pi.
            let mut analytic_flat = Vec::new();
            for (gw, gb) in &grads {
                analytic_flat.extend_from_slice(gw.as_slice());
                analytic_flat.extend_from_slice(gb);
            }
            let a = analytic_flat[pi];
            assert!(
                (a - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "param {pi}: analytic {a} vs fd {fd}"
            );
            net.read_params(&flat);
        }
    }

    #[test]
    fn learns_a_simple_mapping() {
        // Map a 2-bit one-hot-ish input to a target distribution.
        let inputs: Vec<Vec<f64>> = vec![vec![1.0, 0.0], vec![0.0, 1.0]]
            .into_iter()
            .cycle()
            .take(64)
            .collect();
        let targets: Vec<Vec<f64>> = vec![vec![0.9, 0.1], vec![0.1, 0.9]]
            .into_iter()
            .cycle()
            .take(64)
            .collect();
        let mut net = MlpBuilder::new(2)
            .layer(8, Activation::Relu)
            .layer(2, Activation::Softmax)
            .seed(5)
            .build();
        let mut opt = Adam::new(0.05);
        let report = net.fit(
            &inputs,
            &targets,
            &mut opt,
            &FitConfig {
                epochs: 60,
                batch_size: 8,
                ..Default::default()
            },
        );
        assert!(
            report.train_loss.last().unwrap() < &0.45,
            "loss {:?}",
            report.train_loss.last()
        );
        let y = net.forward(&[1.0, 0.0]);
        assert!(y[0] > 0.7, "expected ~0.9 got {y:?}");
    }

    #[test]
    fn fit_restores_best_validation_weights() {
        let inputs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 2) as f64]).collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    vec![1.0, 0.0]
                } else {
                    vec![0.0, 1.0]
                }
            })
            .collect();
        let mut net = MlpBuilder::new(1)
            .layer(4, Activation::Relu)
            .layer(2, Activation::Softmax)
            .seed(3)
            .build();
        let mut opt = Adam::new(0.05);
        let report = net.fit(&inputs, &targets, &mut opt, &FitConfig::default());
        assert!(!report.val_loss.is_empty());
        assert!(report.best_epoch < report.val_loss.len());
        // Validation loss at the kept epoch is the minimum recorded one.
        let min = report
            .val_loss
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((report.val_loss[report.best_epoch] - min).abs() < 1e-12);
    }

    #[test]
    fn from_layers_validates_chaining() {
        let net = Mlp::forecaster(4, 3, 9);
        let rebuilt = Mlp::from_layers(net.layers().to_vec()).expect("valid chain");
        assert_eq!(
            rebuilt.forward(&[0.1, 0.2, 0.3, 0.4]),
            net.forward(&[0.1, 0.2, 0.3, 0.4])
        );
        assert!(Mlp::from_layers(vec![]).is_none());
        let mut broken = net.layers().to_vec();
        broken.swap(0, 2);
        assert!(Mlp::from_layers(broken).is_none());
    }

    #[test]
    fn param_roundtrip_is_lossless() {
        let mut net = Mlp::forecaster(4, 3, 9);
        let mut buf = Vec::new();
        net.write_params(&mut buf);
        let before = buf.clone();
        net.read_params(&buf);
        net.write_params(&mut buf);
        assert_eq!(before, buf);
    }
}
