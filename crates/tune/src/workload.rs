//! Blocking searches for the performance-lab workloads.
//!
//! The HPL tuner searches panel width and look-ahead; the other two
//! workloads have their own analogous knobs, each searched exhaustively
//! and deterministically here:
//!
//! * **SpMV** — the SELL-C-σ *sort window*: sorting rows by length
//!   within windows of σ rows before slicing balances the per-thread
//!   nonzero counts (less zero-padding streamed) but scrambles the `y`
//!   scatter and the gather locality. The search scores each window by
//!   the bytes it actually moves: padded values plus permutation
//!   traffic.
//! * **Stencil** — the `(p1, p2, p3)` rank-grid factorization: for a
//!   fixed rank count, surface-to-volume ratio decides how much halo
//!   each sweep ships. The search enumerates every factorization the
//!   radius admits and charges the analytic
//!   [`NetModel::halo_exchange`] time.

use phi_fabric::{HaloSpec, NetModel};
use phi_knc::spmv::BLOCK_ROWS;

/// Outcome of the SpMV sort-window search.
#[derive(Clone, Debug, PartialEq)]
pub struct SpmvBlockingChoice {
    /// Winning window size in rows (σ). `1` means "keep matrix order".
    pub sort_window: usize,
    /// Nonzeros streamed after padding rows to their block's depth.
    pub padded_nnz: usize,
    /// Bytes-moved score the window won with.
    pub score_bytes: f64,
    /// `padded_nnz / nnz` — the balance overhead the kernel will see.
    pub overhead: f64,
}

/// Padded nonzero count when `row_lens` (in the given order) is cut into
/// row blocks of [`BLOCK_ROWS`], each padded to its deepest row — the
/// exact quantity `run_spmv` streams.
fn padded_nnz(row_lens: &[usize]) -> usize {
    row_lens
        .chunks(BLOCK_ROWS)
        .map(|b| BLOCK_ROWS * b.iter().copied().max().unwrap_or(0).max(1))
        .sum()
}

fn window_sorted(row_lens: &[usize], window: usize) -> (Vec<usize>, f64) {
    let mut order: Vec<usize> = (0..row_lens.len()).collect();
    for chunk in order.chunks_mut(window.max(1)) {
        chunk.sort_by_key(|&r| (std::cmp::Reverse(row_lens[r]), r));
    }
    let displacement: f64 = order
        .iter()
        .enumerate()
        .map(|(pos, &r)| pos.abs_diff(r) as f64)
        .sum();
    (order.iter().map(|&r| row_lens[r]).collect(), displacement)
}

/// Searches SELL sort windows for the ordering that moves the fewest
/// bytes: `8 · padded_nnz` for the streamed values plus `4` bytes per
/// row-displacement unit for the permutation's scatter/gather traffic.
/// Windows are tried in the given order; ties keep the earlier (smaller)
/// window, so the result is deterministic.
pub fn tune_spmv_blocking(row_lens: &[usize], windows: &[usize]) -> SpmvBlockingChoice {
    assert!(!row_lens.is_empty() && !windows.is_empty());
    let nnz: usize = row_lens.iter().sum();
    let mut best: Option<SpmvBlockingChoice> = None;
    for &w in windows {
        let (sorted, displacement) = window_sorted(row_lens, w);
        let padded = padded_nnz(&sorted);
        let score = 8.0 * padded as f64 + 4.0 * displacement;
        let cand = SpmvBlockingChoice {
            sort_window: w,
            padded_nnz: padded,
            score_bytes: score,
            overhead: padded as f64 / nnz.max(1) as f64,
        };
        let better = match &best {
            None => true,
            Some(b) => score < b.score_bytes,
        };
        if better {
            best = Some(cand);
        }
    }
    best.expect("at least one window scored")
}

/// The default window ladder the lab searches: matrix order up to
/// whole-matrix sorting in powers of four.
pub fn default_spmv_windows(rows: usize) -> Vec<usize> {
    let mut w = vec![1, BLOCK_ROWS];
    let mut s = 4 * BLOCK_ROWS;
    while s < rows {
        w.push(s);
        s *= 4;
    }
    w.push(rows.max(1));
    w.dedup();
    w
}

/// Outcome of the stencil decomposition search.
#[derive(Clone, Debug, PartialEq)]
pub struct StencilDecompChoice {
    /// Winning rank grid.
    pub ranks: (usize, usize, usize),
    /// Analytic halo-exchange seconds per sweep under the searched rail.
    pub halo_s: f64,
    /// Bytes the whole machine ships per sweep.
    pub halo_bytes: f64,
}

/// Enumerates every `(p1, p2, p3)` with `p1·p2·p3 = total_ranks` whose
/// blocks stay at least `radius` deep, and returns the one with the
/// cheapest per-sweep halo exchange. Ties fall to the lexicographically
/// smallest grid, so the result is deterministic.
///
/// # Panics
/// Panics when no admissible factorization exists (domain too small for
/// the rank count at this radius).
pub fn tune_stencil_decomposition(
    dims: (usize, usize, usize),
    total_ranks: usize,
    radius: usize,
    net: &NetModel,
) -> StencilDecompChoice {
    assert!(total_ranks >= 1 && radius >= 1);
    let admissible = |n: usize, p: usize| p == 1 || (n >= p && n / p >= radius);
    let mut best: Option<StencilDecompChoice> = None;
    for p1 in 1..=total_ranks {
        if !total_ranks.is_multiple_of(p1) || !admissible(dims.0, p1) {
            continue;
        }
        let rest = total_ranks / p1;
        for p2 in 1..=rest {
            if !rest.is_multiple_of(p2) || !admissible(dims.1, p2) {
                continue;
            }
            let p3 = rest / p2;
            if !admissible(dims.2, p3) {
                continue;
            }
            let spec = HaloSpec::new(dims, (p1, p2, p3), radius);
            let halo_s = net.halo_exchange(&spec);
            let cand = StencilDecompChoice {
                ranks: (p1, p2, p3),
                halo_s,
                halo_bytes: spec.total_bytes(),
            };
            let better = match &best {
                None => true,
                Some(b) => halo_s < b.halo_s,
            };
            if better {
                best = Some(cand);
            }
        }
    }
    best.unwrap_or_else(|| {
        panic!("no (p1,p2,p3) factorization of {total_ranks} fits {dims:?} at radius {radius}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_rows() -> Vec<usize> {
        // 128 rows: every 32-row stretch mixes one long row into short
        // ones, the worst case for unsorted slicing.
        (0..128).map(|r| if r % 7 == 0 { 90 } else { 6 }).collect()
    }

    #[test]
    fn sorting_reduces_padding() {
        let rows = skewed_rows();
        let unsorted = padded_nnz(&rows);
        let (fully_sorted, _) = window_sorted(&rows, rows.len());
        assert!(padded_nnz(&fully_sorted) < unsorted);
    }

    #[test]
    fn search_trades_padding_against_permutation_traffic() {
        let rows = skewed_rows();
        let choice = tune_spmv_blocking(&rows, &default_spmv_windows(rows.len()));
        // Some sorting must win on this pathological layout...
        assert!(choice.sort_window > 1, "{choice:?}");
        // ...and the winner must beat both extremes' scores or tie them.
        let w1 = tune_spmv_blocking(&rows, &[1]);
        let wall = tune_spmv_blocking(&rows, &[rows.len()]);
        assert!(choice.score_bytes <= w1.score_bytes);
        assert!(choice.score_bytes <= wall.score_bytes);
        assert!(choice.overhead >= 1.0);
    }

    #[test]
    fn uniform_rows_prefer_no_sorting() {
        let rows = vec![24usize; 256];
        let choice = tune_spmv_blocking(&rows, &default_spmv_windows(256));
        assert_eq!(choice.sort_window, 1, "{choice:?}");
        assert!((choice.overhead - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cubic_domain_prefers_balanced_grids_at_scale() {
        // At 8 ranks a slab ties the cube on bytes (undecomposed axes
        // ship no surface) and wins on phase latency; at 64 ranks the
        // surface-to-volume argument takes over and the balanced cube
        // must win outright.
        let net = NetModel::default();
        let c = tune_stencil_decomposition((256, 256, 256), 64, 1, &net);
        assert_eq!(c.ranks, (4, 4, 4), "{c:?}");
        assert!(c.halo_s > 0.0);
        let slab = HaloSpec::new((256, 256, 256), (1, 8, 8), 1);
        assert!(net.halo_exchange(&slab) > c.halo_s);
    }

    #[test]
    fn radius_rules_out_thin_slabs() {
        let net = NetModel::default();
        // 8 ranks over a 16-deep axis at radius 4: slicing any axis 8
        // ways leaves 2-deep blocks, so the only admissible grids split
        // at most 4× per axis.
        let c = tune_stencil_decomposition((16, 16, 16), 8, 4, &net);
        assert!(c.ranks.0 <= 4 && c.ranks.1 <= 4 && c.ranks.2 <= 4, "{c:?}");
    }

    #[test]
    fn search_is_deterministic() {
        let rows = skewed_rows();
        let a = tune_spmv_blocking(&rows, &default_spmv_windows(rows.len()));
        let b = tune_spmv_blocking(&rows, &default_spmv_windows(rows.len()));
        assert_eq!(a, b);
        let net = NetModel::default();
        assert_eq!(
            tune_stencil_decomposition((96, 64, 48), 12, 2, &net),
            tune_stencil_decomposition((96, 64, 48), 12, 2, &net)
        );
    }
}
