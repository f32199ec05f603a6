//! Regression losses.

/// A differentiable scalar loss over prediction/target vectors.
pub trait Loss {
    /// Loss value.
    ///
    /// # Panics
    ///
    /// Implementations panic on length mismatch.
    fn value(&self, prediction: &[f64], target: &[f64]) -> f64;

    /// Gradient of the loss with respect to the prediction.
    fn gradient(&self, prediction: &[f64], target: &[f64]) -> Vec<f64>;
}

/// Mean squared error: `L = (1/n) Σ (y − t)²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mse;

impl Loss for Mse {
    fn value(&self, prediction: &[f64], target: &[f64]) -> f64 {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / n
    }

    fn gradient(&self, prediction: &[f64], target: &[f64]) -> Vec<f64> {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / n)
            .collect()
    }
}

/// Huber loss with threshold `delta`: quadratic near zero, linear beyond.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub struct Huber {
    /// Transition point between quadratic and linear regimes.
    pub delta: f64,
}

impl Default for Huber {
    fn default() -> Self {
        Self { delta: 1.0 }
    }
}

impl Loss for Huber {
    fn value(&self, prediction: &[f64], target: &[f64]) -> f64 {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| {
                let e = (y - t).abs();
                if e <= self.delta {
                    0.5 * e * e
                } else {
                    self.delta * (e - 0.5 * self.delta)
                }
            })
            .sum::<f64>()
            / n
    }

    fn gradient(&self, prediction: &[f64], target: &[f64]) -> Vec<f64> {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| {
                let e = y - t;
                if e.abs() <= self.delta {
                    e / n
                } else {
                    self.delta * e.signum() / n
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;

    #[test]
    fn mse_values() {
        let mse = Mse;
        assert_eq!(mse.value(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(approx_eq(mse.value(&[2.0, 0.0], &[0.0, 0.0]), 2.0, 1e-12));
        assert_eq!(mse.gradient(&[2.0, 0.0], &[0.0, 0.0]), vec![2.0, 0.0]);
    }

    #[test]
    fn huber_transitions_at_delta() {
        let h = Huber { delta: 1.0 };
        // Quadratic region.
        assert!(approx_eq(h.value(&[0.5], &[0.0]), 0.125, 1e-12));
        // Linear region.
        assert!(approx_eq(h.value(&[3.0], &[0.0]), 2.5, 1e-12));
        // Gradient saturates at delta.
        assert_eq!(h.gradient(&[10.0], &[0.0]), vec![1.0]);
        assert_eq!(h.gradient(&[-10.0], &[0.0]), vec![-1.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let eps = 1e-7;
        let target = [0.3, -0.6, 1.0];
        let pred = [0.5, -1.8, 0.9];
        let losses: Vec<Box<dyn Loss>> = vec![Box::new(Mse), Box::new(Huber { delta: 0.5 })];
        for loss in &losses {
            let g = loss.gradient(&pred, &target);
            for i in 0..pred.len() {
                let mut p = pred;
                p[i] += eps;
                let up = loss.value(&p, &target);
                p[i] -= 2.0 * eps;
                let dn = loss.value(&p, &target);
                let num = (up - dn) / (2.0 * eps);
                assert!(
                    (num - g[i]).abs() < 1e-6,
                    "component {i}: {num} vs {}",
                    g[i]
                );
            }
        }
    }

    #[test]
    fn loss_is_object_safe() {
        let l: Box<dyn Loss> = Box::new(Mse);
        assert_eq!(l.value(&[1.0], &[1.0]), 0.0);
    }
}
