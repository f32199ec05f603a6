//! Epoch-based training loop.

use crate::loss::Loss;
use crate::mlp::Mlp;
use crate::optim::Optimizer;
use crate::{Mode, NnError, Result};
use navicim_math::rng::{Rng64, SampleExt};

/// One supervised example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Input features.
    pub input: Vec<f64>,
    /// Regression target.
    pub target: Vec<f64>,
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Gradients are averaged over mini-batches of this size.
    pub batch_size: usize,
    /// Shuffle examples between epochs.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            batch_size: 16,
            shuffle: true,
        }
    }
}

/// Trains `net` on `examples`, returning the mean training loss per epoch.
///
/// # Errors
///
/// Returns [`NnError::InvalidArgument`] for empty data, zero batch size or
/// shape mismatches against the network.
pub fn train<L, O, R>(
    net: &mut Mlp,
    examples: &[Example],
    loss: &L,
    optimizer: &mut O,
    config: &TrainConfig,
    rng: &mut R,
) -> Result<Vec<f64>>
where
    L: Loss,
    O: Optimizer,
    R: Rng64,
{
    if examples.is_empty() {
        return Err(NnError::InvalidArgument("no training examples".into()));
    }
    if config.batch_size == 0 {
        return Err(NnError::InvalidArgument(
            "batch size must be positive".into(),
        ));
    }
    for (i, ex) in examples.iter().enumerate() {
        if ex.input.len() != net.in_dim() {
            return Err(NnError::ShapeMismatch {
                expected: net.in_dim(),
                found: ex.input.len(),
            });
        }
        if ex.target.len() != net.out_dim() {
            return Err(NnError::InvalidArgument(format!(
                "example {i} target has length {}, expected {}",
                ex.target.len(),
                net.out_dim()
            )));
        }
    }

    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut history = Vec::with_capacity(config.epochs);
    for _epoch in 0..config.epochs {
        if config.shuffle {
            rng.shuffle(&mut order);
        }
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size) {
            net.zero_grad();
            let scale = 1.0 / batch.len() as f64;
            for &i in batch {
                let ex = &examples[i];
                let y = net.forward(&ex.input, Mode::Train, rng);
                epoch_loss += loss.value(&y, &ex.target);
                let g: Vec<f64> = loss
                    .gradient(&y, &ex.target)
                    .into_iter()
                    .map(|v| v * scale)
                    .collect();
                net.backward(&g);
            }
            optimizer.step(net);
        }
        history.push(epoch_loss / examples.len() as f64);
    }
    Ok(history)
}

/// Mean loss of `net` (deterministic mode) over a validation set.
///
/// # Panics
///
/// Panics on shape mismatches (validate with [`train`] first).
// lint: allow(unused-pub) no caller outside its unit tests; removal deferred to a follow-up sweep
pub fn evaluate<L: Loss, R: Rng64>(
    net: &mut Mlp,
    examples: &[Example],
    loss: &L,
    rng: &mut R,
) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    let total: f64 = examples
        .iter()
        .map(|ex| {
            let y = net.forward(&ex.input, Mode::Deterministic, rng);
            loss.value(&y, &ex.target)
        })
        .sum();
    total / examples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::mlp::Mlp;
    use crate::optim::Adam;
    use navicim_math::rng::Pcg32;

    fn xor_examples() -> Vec<Example> {
        vec![
            Example {
                input: vec![0.0, 0.0],
                target: vec![0.0],
            },
            Example {
                input: vec![0.0, 1.0],
                target: vec![1.0],
            },
            Example {
                input: vec![1.0, 0.0],
                target: vec![1.0],
            },
            Example {
                input: vec![1.0, 1.0],
                target: vec![0.0],
            },
        ]
    }

    #[test]
    fn learns_xor() {
        let mut rng = Pcg32::seed_from_u64(1);
        let mut net = Mlp::builder(2)
            .dense(8)
            .tanh()
            .dense(1)
            .build(&mut rng)
            .unwrap();
        let mut opt = Adam::new(0.02).unwrap();
        let history = train(
            &mut net,
            &xor_examples(),
            &Mse,
            &mut opt,
            &TrainConfig {
                epochs: 600,
                batch_size: 4,
                shuffle: true,
            },
            &mut rng,
        )
        .unwrap();
        assert!(
            history.last().unwrap() < &0.01,
            "final loss {:?}",
            history.last()
        );
        // Predictions round to the right class.
        for ex in xor_examples() {
            let y = net.forward(&ex.input, Mode::Deterministic, &mut rng);
            assert!(
                (y[0] - ex.target[0]).abs() < 0.2,
                "{:?} -> {:?}",
                ex.input,
                y
            );
        }
    }

    #[test]
    fn loss_decreases_on_linear_regression() {
        let mut rng = Pcg32::seed_from_u64(2);
        use navicim_math::rng::SampleExt;
        let examples: Vec<Example> = (0..200)
            .map(|_| {
                let x = rng.sample_uniform(-1.0, 1.0);
                let y = rng.sample_uniform(-1.0, 1.0);
                Example {
                    input: vec![x, y],
                    target: vec![2.0 * x - 0.5 * y + 0.25],
                }
            })
            .collect();
        let mut net = Mlp::builder(2).dense(1).build(&mut rng).unwrap();
        let mut opt = Adam::new(0.05).unwrap();
        let history = train(
            &mut net,
            &examples,
            &Mse,
            &mut opt,
            &TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(history[0] > history[history.len() - 1] * 10.0);
        assert!(evaluate(&mut net, &examples, &Mse, &mut rng) < 1e-3);
    }

    #[test]
    fn shape_validation() {
        let mut rng = Pcg32::seed_from_u64(3);
        let mut net = Mlp::builder(2).dense(1).build(&mut rng).unwrap();
        let mut opt = Adam::new(0.01).unwrap();
        let bad_input = vec![Example {
            input: vec![1.0],
            target: vec![0.0],
        }];
        assert!(matches!(
            train(
                &mut net,
                &bad_input,
                &Mse,
                &mut opt,
                &TrainConfig::default(),
                &mut rng
            ),
            Err(NnError::ShapeMismatch { .. })
        ));
        let bad_target = vec![Example {
            input: vec![1.0, 2.0],
            target: vec![0.0, 1.0],
        }];
        assert!(train(
            &mut net,
            &bad_target,
            &Mse,
            &mut opt,
            &TrainConfig::default(),
            &mut rng
        )
        .is_err());
        assert!(train(
            &mut net,
            &[],
            &Mse,
            &mut opt,
            &TrainConfig::default(),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn empty_validation_set_scores_zero() {
        let mut rng = Pcg32::seed_from_u64(4);
        let mut net = Mlp::builder(2).dense(1).build(&mut rng).unwrap();
        assert_eq!(evaluate(&mut net, &[], &Mse, &mut rng), 0.0);
    }
}
