//! First-order optimizers operating on an [`crate::mlp::Mlp`]'s
//! parameter/gradient pairs.

use crate::mlp::Mlp;
use crate::{NnError, Result};

/// An optimizer applying one update from accumulated gradients.
pub trait Optimizer {
    /// Applies one update step; gradients are consumed (not cleared — call
    /// [`Mlp::zero_grad`] afterwards).
    fn step(&mut self, net: &mut Mlp);
}

/// Adam optimizer (Kingma & Ba 2015).
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArgument`] for a non-positive rate.
    pub fn new(lr: f64) -> Result<Self> {
        if !(lr > 0.0) {
            return Err(NnError::InvalidArgument(format!(
                "learning rate must be positive, got {lr}"
            )));
        }
        Ok(Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp) {
        let n = net.param_count();
        if self.m.is_empty() {
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
        }
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m, v) = (&mut self.m, &mut self.v);
        let mut idx = 0;
        net.visit_params(|p, g| {
            m[idx] = b1 * m[idx] + (1.0 - b1) * *g;
            v[idx] = b2 * v[idx] + (1.0 - b2) * *g * *g;
            let m_hat = m[idx] / bias1;
            let v_hat = v[idx] / bias2;
            *p -= lr * m_hat / (v_hat.sqrt() + eps);
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::mlp::Mlp;
    use crate::Mode;
    use navicim_math::rng::Pcg32;

    fn quadratic_step<O: Optimizer>(opt: &mut O, steps: usize) -> f64 {
        // Minimize ||W x + b − t||² for a single dense layer.
        let mut rng = Pcg32::seed_from_u64(1);
        let mut net = Mlp::builder(2).dense(1).build(&mut rng).unwrap();
        let x = [1.0, -1.0];
        let target = [3.0];
        let mse = Mse;
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let y = net.forward(&x, Mode::Train, &mut rng);
            last = mse.value(&y, &target);
            let g = mse.gradient(&y, &target);
            net.zero_grad();
            net.forward(&x, Mode::Train, &mut rng);
            net.backward(&g);
            opt.step(&mut net);
        }
        last
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05).unwrap();
        let loss = quadratic_step(&mut opt, 300);
        assert!(loss < 1e-5, "loss {loss}");
    }

    #[test]
    fn validation() {
        assert!(Adam::new(0.0).is_err());
        assert!(Adam::new(-0.1).is_err());
    }
}
