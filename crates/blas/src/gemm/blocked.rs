//! Cache-blocked GEMM driver: the rank-k outer-product decomposition of
//! Section III-A.
//!
//! The driver walks `K` in chunks of `kc`, packing the corresponding
//! `A_i` / `B_i` blocks (Fig. 3) and performing one outer product per
//! chunk; inside each outer product it walks `M` in chunks of `mc` and `N`
//! in chunks of `nc` so the working set `Ab + Bb + Cb` fits in the target
//! cache — the paper's inequality
//! `8 bytes · (m·n + m·k + k·n) < 512 KB` for KNC's per-core L2
//! (Section III-A1).

use super::micro::{micro_kernel_into, MicroKernelKind};
use super::pack::{pack_a, pack_b};
use phi_matrix::{MatrixView, MatrixViewMut, Scalar};

/// Cache / register blocking parameters for [`gemm_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSizes {
    /// `M` block per packing pass (paper example: 120).
    pub mc: usize,
    /// Inner (`K`) block — the paper's `k`, swept in Table II; 300 gives
    /// the best DGEMM efficiency on KNC.
    pub kc: usize,
    /// `N` block (paper example: 32 per core).
    pub nc: usize,
    /// Register-block rows: 30 for Kernel 2, 31 for Kernel 1 (Fig. 2).
    pub mr: usize,
    /// Register-block columns: 8 — one KNC vector register of doubles.
    pub nr: usize,
    /// Microkernel instruction schedule.
    pub kernel: MicroKernelKind,
}

impl Default for BlockSizes {
    /// Host-friendly defaults: an 8×8 register block keeps the accumulator
    /// set within AVX register pressure on commodity x86-64, with blocks
    /// sized for a 256 KB L2.
    fn default() -> Self {
        Self {
            mc: 128,
            kc: 128,
            nc: 512,
            mr: 8,
            nr: 8,
            kernel: MicroKernelKind::Kernel2,
        }
    }
}

impl BlockSizes {
    /// The paper's native Knights Corner configuration: 30×8 register
    /// block (Basic Kernel 2), `k = 300` (best DGEMM efficiency in
    /// Table II), `m = 120` so the `Ab` block occupies the largest
    /// fraction of the 512 KB L2, `n = 32` per core.
    pub fn knc() -> Self {
        Self {
            mc: 120,
            kc: 300,
            nc: 32,
            mr: 30,
            nr: 8,
            kernel: MicroKernelKind::Kernel2,
        }
    }

    /// Kernel 1 variant of [`BlockSizes::knc`] (31×8 block, Fig. 2b).
    pub fn knc_kernel1() -> Self {
        Self {
            mr: 31,
            kernel: MicroKernelKind::Kernel1,
            ..Self::knc()
        }
    }

    /// Working-set footprint in bytes of one `(mc×kc) + (kc×nc) + (mc×nc)`
    /// block triple — the left side of the paper's L2 inequality.
    pub fn footprint_bytes(&self, elem_bytes: usize) -> usize {
        elem_bytes * (self.mc * self.nc + self.mc * self.kc + self.kc * self.nc)
    }

    /// The paper's per-core bandwidth bound for this blocking:
    /// `64·(2/k + 1/n + 1/m)` bytes/cycle (Section III-A1).
    pub fn bandwidth_bytes_per_cycle(&self) -> f64 {
        64.0 * (2.0 / self.kc as f64 + 1.0 / self.nc as f64 + 1.0 / self.mc as f64)
    }

    /// Large-`N` approximation of the bandwidth bound, `64·(2/k + 1/m)`
    /// bytes/cycle — the cost of bringing `Ab` into L2 is amortized and the
    /// `1/n` term drops (Section III-A1).
    pub fn bandwidth_bytes_per_cycle_amortized(&self) -> f64 {
        64.0 * (2.0 / self.kc as f64 + 1.0 / self.mc as f64)
    }
}

/// `C := alpha * A * B + beta * C` with explicit blocking parameters.
///
/// # Panics
/// Panics on shape mismatch.
pub fn gemm_with<T: Scalar>(
    alpha: T,
    a: &MatrixView<'_, T>,
    b: &MatrixView<'_, T>,
    beta: T,
    c: &mut MatrixViewMut<'_, T>,
    bs: &BlockSizes,
) {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "gemm: inner dimensions");
    assert_eq!(c.rows(), m, "gemm: output rows");
    assert_eq!(c.cols(), n, "gemm: output cols");

    if m == 0 || n == 0 {
        return;
    }
    if k == 0 || alpha == T::ZERO {
        // Pure C := beta * C.
        for i in 0..m {
            let row = c.row_mut(i);
            if beta == T::ZERO {
                row.fill(T::ZERO);
            } else if beta != T::ONE {
                for v in row.iter_mut() {
                    *v *= beta;
                }
            }
        }
        return;
    }

    // Outer products over K: C = alpha * Σ_i A_i B_i + beta * C.
    let mut pc = 0;
    while pc < k {
        let kb = bs.kc.min(k - pc);
        // First K-chunk applies the caller's beta, later chunks accumulate.
        let beta_eff = if pc == 0 { beta } else { T::ONE };

        let mut jc = 0;
        while jc < n {
            let nb = bs.nc.min(n - jc);
            let pb = pack_b(&b.sub(pc, jc, kb, nb), bs.nr);

            let mut ic = 0;
            while ic < m {
                let mb = bs.mc.min(m - ic);
                let pa = pack_a(&a.sub(ic, pc, mb, kb), bs.mr);

                // Macrokernel: sweep the register-tile grid.
                for t in 0..pa.tile_count() {
                    let r0 = t * bs.mr;
                    let tr = pa.tile_rows(t);
                    for u in 0..pb.tile_count() {
                        let c0 = u * bs.nr;
                        let tc = pb.tile_cols(u);
                        let mut cwin = c.sub_mut(ic + r0, jc + c0, tr, tc);
                        micro_kernel_into(
                            bs.kernel,
                            bs.mr,
                            bs.nr,
                            kb,
                            pa.tile(t),
                            pb.tile(u),
                            alpha,
                            beta_eff,
                            &mut cwin,
                        );
                    }
                }
                ic += mb;
            }
            jc += nb;
        }
        pc += kb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knc_blocking_fits_l2() {
        // The paper's example blocking must satisfy the 512 KB inequality.
        let bs = BlockSizes::knc();
        assert!(bs.footprint_bytes(8) < 512 * 1024);
    }

    #[test]
    fn knc_bandwidth_bound_matches_paper() {
        // "choosing m=120, n=32 and k=240, results in 1.1 bytes/cycle" —
        // this quotes the large-N amortized bound.
        let bs = BlockSizes {
            mc: 120,
            nc: 32,
            kc: 240,
            ..BlockSizes::knc()
        };
        let bw = bs.bandwidth_bytes_per_cycle_amortized();
        assert!((bw - 1.1).abs() < 0.05, "got {bw}");
        // The full (unamortized) bound is necessarily larger.
        assert!(bs.bandwidth_bytes_per_cycle() > bw);
        // And it stays well within KNC's 150 GB/s STREAM budget: at 60
        // cores × 1.1 GHz, 1.1 B/cycle/core ≈ 73 GB/s.
        let total_gbs = bw * 60.0 * 1.1e9 / 1e9;
        assert!(total_gbs < 150.0, "got {total_gbs} GB/s");
    }

    #[test]
    fn footprint_grows_with_k_and_spills() {
        // Table II explanation: k = 340/400 pushes blocks out of L2.
        let small = BlockSizes {
            kc: 240,
            ..BlockSizes::knc()
        };
        let large = BlockSizes {
            kc: 400,
            ..BlockSizes::knc()
        };
        assert!(large.footprint_bytes(8) > small.footprint_bytes(8));
    }
}
