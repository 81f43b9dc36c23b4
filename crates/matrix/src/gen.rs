//! HPL-style pseudo-random matrix generation.
//!
//! The HPL benchmark fills its coefficient matrix and right-hand side with
//! a linear congruential generator so that every process in a P×Q grid can
//! generate exactly the elements it owns without communication: the LCG
//! supports O(log k) "jump-ahead" to any position in the stream
//! (HPL's `HPL_jumpit`). We reproduce that scheme with a 64-bit LCG.
//!
//! Elements are mapped to the stream in column-major order (HPL's
//! convention), and every draw is converted to a uniform value in
//! `[-0.5, 0.5)` — the distribution HPL uses to keep LU growth modest.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Knuth's MMIX multiplier — a full-period 64-bit LCG multiplier.
const MULT: u64 = 6364136223846793005;
/// MMIX increment (any odd value gives full period with `MULT`).
const ADD: u64 = 1442695040888963407;

/// A 64-bit linear congruential generator with O(log k) jump-ahead.
///
/// `state_{n+1} = MULT * state_n + ADD (mod 2^64)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HplRng {
    state: u64,
}

impl HplRng {
    /// Creates a generator from a seed. Seeds are decorrelated by one
    /// initial step so that seed 0 and seed 1 do not produce near-identical
    /// leading values.
    pub fn new(seed: u64) -> Self {
        let mut rng = Self { state: seed };
        rng.state = rng.state.wrapping_mul(MULT).wrapping_add(ADD);
        rng
    }

    /// Advances one step and returns the raw 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(MULT).wrapping_add(ADD);
        self.state
    }

    /// Advances one step and returns a uniform value in `[-0.5, 0.5)`.
    pub fn next_value(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0,1).
        let bits = self.next_u64() >> 11;
        (bits as f64) * (1.0 / (1u64 << 53) as f64) - 0.5
    }

    /// Jumps `k` steps forward in O(log k) by exponentiating the affine map
    /// `(a, c) -> (a^2, (a+1)c)` — the same trick HPL's `HPL_jumpit` uses.
    pub fn jump(&mut self, mut k: u64) {
        let mut mult_acc: u64 = 1;
        let mut add_acc: u64 = 0;
        let mut cur_mult = MULT;
        let mut cur_add = ADD;
        while k > 0 {
            if k & 1 == 1 {
                mult_acc = mult_acc.wrapping_mul(cur_mult);
                add_acc = add_acc.wrapping_mul(cur_mult).wrapping_add(cur_add);
            }
            cur_add = cur_mult.wrapping_add(1).wrapping_mul(cur_add);
            cur_mult = cur_mult.wrapping_mul(cur_mult);
            k >>= 1;
        }
        self.state = self.state.wrapping_mul(mult_acc).wrapping_add(add_acc);
    }

    /// A generator positioned at absolute stream index `k` for `seed`.
    fn at(seed: u64, k: u64) -> Self {
        let mut rng = Self::new(seed);
        rng.jump(k);
        rng
    }
}

/// Deterministic generator of HPL test problems.
#[derive(Clone, Debug)]
pub struct MatGen {
    seed: u64,
}

impl MatGen {
    /// Creates a generator for a given benchmark seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The stream index of global element `(i, j)` of an `n_global`-row
    /// matrix (column-major element numbering, as in HPL).
    fn index(&self, i: usize, j: usize, n_global_rows: usize) -> u64 {
        (j as u64) * (n_global_rows as u64) + i as u64
    }

    /// Generates the full `rows × cols` matrix.
    pub fn matrix<T: Scalar>(&self, rows: usize, cols: usize) -> Matrix<T> {
        let mut m = Matrix::zeros(rows, cols);
        self.fill_window(&mut m, 0, 0, rows);
        m
    }

    /// Fills `m` with the elements the window at global offset
    /// `(row0, col0)` owns, for a matrix with `n_global_rows` global rows.
    /// Used by the multi-node path where each process generates only its
    /// local blocks.
    pub fn fill_window<T: Scalar>(
        &self,
        m: &mut Matrix<T>,
        row0: usize,
        col0: usize,
        n_global_rows: usize,
    ) {
        for j in 0..m.cols() {
            let mut rng = HplRng::at(self.seed, self.index(row0, col0 + j, n_global_rows));
            for i in 0..m.rows() {
                m[(i, j)] = T::from_f64(rng.next_value());
            }
        }
    }

    /// Generates an n-element right-hand-side vector. It draws from the
    /// column just past the matrix, the way HPL appends `b` as column
    /// `n` of the augmented matrix.
    pub fn rhs<T: Scalar>(&self, n: usize) -> Vec<T> {
        let mut rng = HplRng::at(self.seed, self.index(0, n, n));
        (0..n).map(|_| T::from_f64(rng.next_value())).collect()
    }

    /// Generates a diagonally-dominant variant used by tests that need a
    /// well-conditioned matrix without pivot growth concerns.
    #[cfg(test)]
    pub(crate) fn matrix_dd<T: Scalar>(&self, n: usize) -> Matrix<T> {
        let mut m = self.matrix::<T>(n, n);
        for i in 0..n {
            let boost = T::from_f64(n as f64);
            let d = m[(i, i)];
            m[(i, i)] = d + if d >= T::ZERO { boost } else { -boost };
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_matches_sequential_stepping() {
        for k in [0u64, 1, 2, 3, 17, 64, 1000, 12345] {
            let mut seq = HplRng::new(42);
            for _ in 0..k {
                seq.next_u64();
            }
            let mut jmp = HplRng::new(42);
            jmp.jump(k);
            assert_eq!(seq, jmp, "jump({k})");
        }
    }

    #[test]
    fn values_are_in_range_and_nontrivial() {
        let mut rng = HplRng::new(7);
        let vals: Vec<f64> = (0..1000).map(|_| rng.next_value()).collect();
        assert!(vals.iter().all(|v| (-0.5..0.5).contains(v)));
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        let distinct: std::collections::HashSet<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert!(distinct.len() > 990);
    }

    #[test]
    fn distributed_generation_matches_global() {
        let gen = MatGen::new(99);
        let full = gen.matrix::<f64>(16, 16);
        // Generate the (8..16, 4..12) window independently.
        let mut window = Matrix::<f64>::zeros(8, 8);
        gen.fill_window(&mut window, 8, 4, 16);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(window[(i, j)], full[(8 + i, 4 + j)]);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = MatGen::new(5).matrix::<f64>(10, 10);
        let b = MatGen::new(5).matrix::<f64>(10, 10);
        let c = MatGen::new(6).matrix::<f64>(10, 10);
        assert!(a.approx_eq(&b, 0.0));
        assert!(a.max_abs_diff(&c) > 0.0);
    }

    #[test]
    fn dd_matrix_is_diagonally_dominant() {
        let m = MatGen::new(3).matrix_dd::<f64>(32);
        for i in 0..32 {
            let off: f64 = (0..32).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)].abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn rhs_is_deterministic() {
        let g = MatGen::new(11);
        assert_eq!(g.rhs::<f64>(32), g.rhs::<f64>(32));
    }
}
