//! Elementwise activation functions.

/// An elementwise activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to one value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the *pre-activation* input.
    fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
        }
    }

    /// Applies the activation to a slice.
    fn apply_all(self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }

    /// Applies the activation elementwise in place (the allocation-free
    /// twin of `Activation::apply_all`).
    pub fn apply_in_place(self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

/// An activation layer instance caching its pre-activation input.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationLayer {
    kind: Activation,
    input_cache: Vec<f64>,
}

impl ActivationLayer {
    /// Creates an activation layer.
    pub fn new(kind: Activation) -> Self {
        Self {
            kind,
            input_cache: Vec::new(),
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> Activation {
        self.kind
    }

    /// Forward pass; caches pre-activations when `train` is set.
    pub fn forward(&mut self, x: &[f64], train: bool) -> Vec<f64> {
        if train {
            self.input_cache = x.to_vec();
        }
        self.kind.apply_all(x)
    }

    /// Allocation-free inference forward pass into a reused buffer;
    /// bit-identical to [`ActivationLayer::forward`] without caching.
    pub fn forward_into(&self, x: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.extend(x.iter().map(|&v| self.kind.apply(v)));
    }

    /// Backward pass through the cached pre-activations.
    ///
    /// # Panics
    ///
    /// Panics without a preceding training forward pass or on dimension
    /// mismatch.
    pub fn backward(&mut self, grad_out: &[f64]) -> Vec<f64> {
        assert_eq!(
            grad_out.len(),
            self.input_cache.len(),
            "activation backward requires a cached training forward pass"
        );
        grad_out
            .iter()
            .zip(&self.input_cache)
            .map(|(&g, &x)| g * self.kind.derivative(x))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::approx_eq;

    #[test]
    fn relu_values_and_derivative() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn tanh_and_sigmoid_reference_points() {
        assert!(approx_eq(Activation::Tanh.apply(0.0), 0.0, 1e-12));
        assert!(approx_eq(Activation::Sigmoid.apply(0.0), 0.5, 1e-12));
        assert!(approx_eq(Activation::Sigmoid.derivative(0.0), 0.25, 1e-12));
        assert!(approx_eq(Activation::Tanh.derivative(0.0), 1.0, 1e-12));
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-7;
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            for &x in &[-2.0f64, -0.5, 0.3, 1.7] {
                if act == Activation::Relu && x.abs() < eps {
                    continue; // kink
                }
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (num - act.derivative(x)).abs() < 1e-6,
                    "{act:?} at {x}: {num} vs {}",
                    act.derivative(x)
                );
            }
        }
    }

    #[test]
    fn layer_backward_chains_gradient() {
        let mut layer = ActivationLayer::new(Activation::Tanh);
        let x = [0.5, -1.0];
        layer.forward(&x, true);
        let grads = layer.backward(&[1.0, 2.0]);
        assert!(approx_eq(grads[0], Activation::Tanh.derivative(0.5), 1e-12));
        assert!(approx_eq(
            grads[1],
            2.0 * Activation::Tanh.derivative(-1.0),
            1e-12
        ));
    }
}
