//! Small dense linear algebra: a 3×3 solve by LU decomposition with
//! partial pivoting, and a squared Euclidean distance.

use crate::{MathError, Result};

/// Solves the 3×3 system `a · x = b` by LU decomposition with partial
/// pivoting.
///
/// Each column's pivot is the first row of largest magnitude on or below
/// the diagonal; rows are swapped whole, and forward then backward
/// substitution run in index order.
///
/// ```
/// use navicim_math::linalg::solve3;
/// let a = [[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 4.0]];
/// let x = solve3(a, [3.0, 4.0, 8.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// assert_eq!(x[2], 2.0);
/// ```
///
/// # Errors
///
/// Returns [`MathError::Singular`] when a pivot's magnitude is below
/// `1e-300`.
pub fn solve3(mut a: [[f64; 3]; 3], b: [f64; 3]) -> Result<[f64; 3]> {
    let mut piv = [0, 1, 2];
    for k in 0..3 {
        let mut p = k;
        let mut best = a[k][k].abs();
        for r in (k + 1)..3 {
            let v = a[r][k].abs();
            if v > best {
                best = v;
                p = r;
            }
        }
        if best < 1e-300 {
            return Err(MathError::Singular);
        }
        if p != k {
            a.swap(k, p);
            piv.swap(k, p);
        }
        for r in (k + 1)..3 {
            let factor = a[r][k] / a[k][k];
            a[r][k] = factor;
            for c in (k + 1)..3 {
                let v = a[k][c];
                a[r][c] -= factor * v;
            }
        }
    }
    let mut x = piv.map(|p| b[p]);
    for i in 1..3 {
        let mut sum = x[i];
        for k in 0..i {
            sum -= a[i][k] * x[k];
        }
        x[i] = sum;
    }
    for i in (0..3).rev() {
        let mut sum = x[i];
        for k in (i + 1)..3 {
            sum -= a[i][k] * x[k];
        }
        x[i] = sum / a[i][i];
    }
    Ok(x)
}

/// Squared Euclidean distance between two equal-length slices.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dist_sq requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::rng::{Pcg32, SampleExt};

    /// The general n×n row-major LU solve that `solve3` replaced, kept
    /// operation for operation as the bit-exact reference. Returns the
    /// solution and the row permutation the pivoting chose.
    fn lu_solve_reference(a: &[[f64; 3]; 3], b: &[f64; 3]) -> Result<(Vec<f64>, Vec<usize>)> {
        let n = 3;
        let mut lu: Vec<f64> = a.iter().flatten().copied().collect();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut best = lu[k * n + k].abs();
            for r in (k + 1)..n {
                let v = lu[r * n + k].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-300 {
                return Err(MathError::Singular);
            }
            if p != k {
                for c in 0..n {
                    lu.swap(k * n + c, p * n + c);
                }
                piv.swap(k, p);
            }
            for r in (k + 1)..n {
                let factor = lu[r * n + k] / lu[k * n + k];
                lu[r * n + k] = factor;
                for c in (k + 1)..n {
                    let v = lu[k * n + c];
                    lu[r * n + c] -= factor * v;
                }
            }
        }
        let mut x: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= lu[i * n + k] * x[k];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= lu[i * n + k] * x[k];
            }
            x[i] = sum / lu[i * n + i];
        }
        Ok((x, piv))
    }

    /// Asserts `solve3` equals the reference bit for bit and returns the
    /// reference's pivot order.
    fn assert_pinned(a: [[f64; 3]; 3], b: [f64; 3]) -> Vec<usize> {
        let (want, piv) = lu_solve_reference(&a, &b).expect("reference solves");
        let got = solve3(a, b).expect("solve3 solves");
        assert_eq!(
            got.map(f64::to_bits).to_vec(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "solve3 drifted from the reference LU on a = {a:?}, b = {b:?}"
        );
        piv
    }

    #[test]
    fn solve3_matches_reference_lu_on_random_systems() {
        let mut rng = Pcg32::seed_from_u64(0x501e3);
        for _ in 0..2000 {
            let mut a = [[0.0; 3]; 3];
            for (i, row) in a.iter_mut().enumerate() {
                for v in row.iter_mut() {
                    *v = rng.sample_uniform(-1.0, 1.0);
                }
                // Diagonal dominance keeps the system well conditioned.
                row[i] += 4.0f64.copysign(row[i]);
            }
            let b = [(); 3].map(|_| rng.sample_uniform(-10.0, 10.0));
            assert_pinned(a, b);
        }
    }

    #[test]
    fn solve3_matches_reference_lu_for_every_pivot_order() {
        // `lu` = L·U with |l_ij| < 1, so partial pivoting on a row
        // permutation of it selects exactly that permutation.
        let lu = [[4.0, 1.0, 2.0], [2.0, 3.5, 0.0], [-1.0, 1.25, 1.0]];
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let mut a = [[0.0; 3]; 3];
            for (step, &row) in order.iter().enumerate() {
                a[row] = lu[step];
            }
            let piv = assert_pinned(a, [1.0, -2.0, 0.5]);
            assert_eq!(piv, order.to_vec(), "pivot order of {a:?}");
        }
    }

    #[test]
    fn solve3_matches_reference_lu_on_fig2b_normal_equations() {
        // The weighted normal equations `fit_gaussian_1d` builds for the
        // four Fig. 2(b) sweeps (three single-cell centres, then the
        // multi-input inverter), as f64 bit patterns.
        for (a_bits, b_bits) in FIG2B_SYSTEMS {
            let a = a_bits.map(|row| row.map(f64::from_bits));
            let b = b_bits.map(f64::from_bits);
            assert_pinned(a, b);
        }
    }

    #[test]
    fn solve3_rejects_singular_and_tiny_pivots() {
        let singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]];
        let tiny = [[1e-301, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        for a in [singular, tiny] {
            let b = [1.0, 1.0, 1.0];
            assert_eq!(solve3(a, b), Err(MathError::Singular));
            assert_eq!(lu_solve_reference(&a, &b), Err(MathError::Singular));
        }
    }

    #[test]
    fn lu_solve_roundtrip() {
        let a = [[4.0, 3.0, 0.0], [6.0, 3.0, 1.0], [0.0, 2.0, 5.0]];
        let b = [10.0, 12.0, -3.0];
        let x = solve3(a, b).unwrap();
        for (row, want) in a.iter().zip(b) {
            let got: f64 = row.iter().zip(x).map(|(a, x)| a * x).sum();
            assert!(approx_eq(got, want, 1e-10));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        // Solving against each unit vector gives the inverse's columns.
        let a = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]];
        let mut inv = [[0.0; 3]; 3];
        for j in 0..3 {
            let mut e = [0.0; 3];
            e[j] = 1.0;
            let col = solve3(a, e).unwrap();
            for i in 0..3 {
                inv[i][j] = col[i];
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                let prod: f64 = (0..3).map(|k| a[i][k] * inv[k][j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod, expect, 1e-10));
            }
        }
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dist_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    const FIG2B_SYSTEMS: [([[u64; 3]; 3], [u64; 3]); 4] = [
        (
            [
                [0x3ddc4815f68a95c2, 0x3dc3cc0f5fc768d6, 0x3dac78ae995c80c2],
                [0x3dc3cc0f5fc768d6, 0x3dac78ae995c80c2, 0x3d94fcd5a50d556e],
                [0x3dac78ae995c80c2, 0x3d94fcd5a50d556f, 0x3d7faa905bd63659],
            ],
            [0xbe185be80208b7ae, 0xbe010d2267d2e6fb, 0xbde88c090ad95b5b],
        ),
        (
            [
                [0x3ddc4815f68a95c5, 0x3dcc4815f68a95c4, 0x3dbca8c8e693a659],
                [0x3dcc4815f68a95c4, 0x3dbca8c8e693a659, 0x3dad6a2ec6a5c790],
                [0x3dbca8c8e693a659, 0x3dad6a2ec6a5c790, 0x3d9e9047f1d00e1a],
            ],
            [0xbe185be80208b7b1, 0xbe085be80208b7b4, 0xbdf8b25471fb5d47],
        ),
        (
            [
                [0x3ddc4815f68a95c2, 0x3dd2620e46a6e152, 0x3dc81638d3dd7a0b],
                [0x3dd2620e46a6e152, 0x3dc81638d3dd7a0b, 0x3dbfcdcc18454dda],
                [0x3dc81638d3dd7a0b, 0x3dbfcdcc18454dda, 0x3db527bc08b4a0a4],
            ],
            [0xbe185be80208b7af, 0xbe0faaad9c3e8864, 0xbe04c08d7721f842],
        ),
        (
            [
                [0x3d98ae5c0d82d9f5, 0x3d88ae5c0d82d9f4, 0x3d79495e4a9837ed],
                [0x3d88ae5c0d82d9f4, 0x3d79495e4a9837ee, 0x3d6a7f62c4c2f3e2],
                [0x3d79495e4a9837ed, 0x3d6a7f62c4c2f3e2, 0x3d5c5ac718920f3e],
            ],
            [0xbdd6e2057895a9d2, 0xbdc6e2057895a9d2, 0xbdb775e038591857],
        ),
    ];
}
