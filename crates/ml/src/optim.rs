//! The first-order optimizer for the forecasting network.
//!
//! The paper trains its forecaster for 40 epochs with an off-the-shelf
//! optimizer (Appendix K). The reproduction uses Adam, which converges in
//! well under 40 epochs on the tiny forecasting problem.

/// Adam (Kingma & Ba, 2015) with bias correction.
///
/// The moment estimates are lazily sized to the parameter count on the first
/// [`step`](Self::step), so one instance must only ever be used with a single
/// model.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (default 1e-2 works well for the forecaster).
    pub lr: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Create an Adam optimizer with custom learning rate and standard betas.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Apply one update step: consume gradients `grads` and update `params`.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new(1e-2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 and check convergence.
    fn minimize(opt: &mut Adam, steps: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = minimize(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3, "got {x}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Adam::new(0.1);
        let mut p = [0.0, 1.0];
        opt.step(&mut p, &[1.0]);
    }
}
