//! The regression loss.

/// Mean squared error: `L = (1/n) Σ (y − t)²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mse;

impl Mse {
    /// Loss value.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn value(&self, prediction: &[f64], target: &[f64]) -> f64 {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| (y - t) * (y - t))
            .sum::<f64>()
            / n
    }

    /// Gradient of the loss with respect to the prediction.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn gradient(&self, prediction: &[f64], target: &[f64]) -> Vec<f64> {
        assert_eq!(prediction.len(), target.len(), "loss length mismatch");
        let n = prediction.len().max(1) as f64;
        prediction
            .iter()
            .zip(target)
            .map(|(y, t)| 2.0 * (y - t) / n)
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
    fn gradients_match_finite_difference() {
        let eps = 1e-7;
        let target = [0.3, -0.6, 1.0];
        let pred = [0.5, -1.8, 0.9];
        let g = Mse.gradient(&pred, &target);
        for i in 0..pred.len() {
            let mut p = pred;
            p[i] += eps;
            let up = Mse.value(&p, &target);
            p[i] -= 2.0 * eps;
            let dn = Mse.value(&p, &target);
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (num - g[i]).abs() < 1e-6,
                "component {i}: {num} vs {}",
                g[i]
            );
        }
    }
}
