//! Dropout-mask ordering: the paper's "optimal sample ordering".
//!
//! MC-Dropout iterations are exchangeable, so they can be executed in any
//! order. When consecutive iterations share more active neurons, the
//! compute-reuse scheme of [`crate::cim_macro`] performs fewer delta-MACs.
//! This module provides the greedy nearest-neighbour tour over the masks'
//! Hamming graph that the paper uses to pick that order.

use crate::{Result, SramError};

/// Hamming distance between two equal-length masks.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn hamming(a: &[bool], b: &[bool]) -> usize {
    assert_eq!(a.len(), b.len(), "hamming requires equal lengths");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Total switched bits along an execution order (first mask counts fully:
/// the pipeline starts from an all-zero state).
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..masks.len()`.
pub fn path_cost(masks: &[Vec<bool>], order: &[usize]) -> usize {
    assert_eq!(order.len(), masks.len(), "order must cover all masks");
    let mut cost = 0;
    let mut prev: Option<&Vec<bool>> = None;
    for &i in order {
        let m = &masks[i];
        cost += match prev {
            Some(p) => hamming(p, m),
            None => m.iter().filter(|&&b| b).count(),
        };
        prev = Some(m);
    }
    cost
}

/// Greedy nearest-neighbour ordering of masks by Hamming distance,
/// starting from the mask with the fewest active bits.
///
/// # Errors
///
/// Returns [`SramError::InvalidArgument`] for an empty or ragged mask set.
pub fn greedy_order(masks: &[Vec<bool>]) -> Result<Vec<usize>> {
    if masks.is_empty() {
        return Err(SramError::InvalidArgument(
            "ordering requires at least one mask".into(),
        ));
    }
    let len = masks[0].len();
    if masks.iter().any(|m| m.len() != len) {
        return Err(SramError::InvalidArgument(
            "all masks must have equal length".into(),
        ));
    }
    let n = masks.len();
    let mut visited = vec![false; n];
    // Start from the sparsest mask: cheapest cold start.
    let start = (0..n)
        .min_by_key(|&i| masks[i].iter().filter(|&&b| b).count())
        .expect("non-empty");
    let mut order = Vec::with_capacity(n);
    order.push(start);
    visited[start] = true;
    for _ in 1..n {
        let last = *order.last().expect("non-empty order");
        let next = (0..n)
            .filter(|&i| !visited[i])
            .min_by_key(|&i| hamming(&masks[last], &masks[i]))
            .expect("unvisited mask exists");
        order.push(next);
        visited[next] = true;
    }
    Ok(order)
}

/// Concatenates per-dropout-layer masks of one MC iteration into `flat`
/// (cleared first) for ordering purposes, without allocating once warm.
pub fn flatten_iteration_into(masks: &[Vec<bool>], flat: &mut Vec<bool>) {
    flat.clear();
    flat.extend(masks.iter().flatten().copied());
}

#[cfg(test)]
mod tests {
    use super::*;
    use navicim_math::rng::{Pcg32, SampleExt};

    fn random_masks(count: usize, len: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..len).map(|_| rng.sample_bool(0.5)).collect())
            .collect()
    }

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(&[true, false], &[true, false]), 0);
        assert_eq!(hamming(&[true, false], &[false, true]), 2);
    }

    #[test]
    fn greedy_is_a_permutation() {
        let masks = random_masks(20, 64, 1);
        let order = greedy_order(&masks).unwrap();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn greedy_beats_identity_order_on_average() {
        let mut wins = 0;
        for seed in 0..10 {
            let masks = random_masks(30, 128, seed);
            let identity: Vec<usize> = (0..masks.len()).collect();
            let greedy = greedy_order(&masks).unwrap();
            if path_cost(&masks, &greedy) < path_cost(&masks, &identity) {
                wins += 1;
            }
        }
        assert!(wins >= 8, "greedy won only {wins}/10");
    }

    #[test]
    fn clustered_masks_order_by_cluster() {
        // Two groups of nearly identical masks: a good tour visits one
        // group fully before jumping to the other (exactly one big jump).
        let a = vec![true; 32];
        let b = vec![false; 32];
        let mut masks = Vec::new();
        for i in 0..4 {
            let mut m = a.clone();
            m[i] = false;
            masks.push(m);
            let mut m = b.clone();
            m[i] = true;
            masks.push(m);
        }
        let order = greedy_order(&masks).unwrap();
        let cost = path_cost(&masks, &order);
        // Within-group steps cost ≤ 2 bits; one inter-group jump ~30; plus
        // the cold start (≈1 for the sparsest b-like mask).
        assert!(cost < 32 + 8 * 2 + 4, "cost {cost}");
    }

    #[test]
    fn path_cost_counts_cold_start() {
        let masks = vec![vec![true, true, false]];
        assert_eq!(path_cost(&masks, &[0]), 2);
    }

    #[test]
    fn validation() {
        assert!(greedy_order(&[]).is_err());
        assert!(greedy_order(&[vec![true], vec![true, false]]).is_err());
    }

    #[test]
    fn flatten_concatenates() {
        let mut flat = vec![true; 5];
        flatten_iteration_into(&[vec![true, false], vec![false]], &mut flat);
        assert_eq!(flat, vec![true, false, false]);
    }
}
