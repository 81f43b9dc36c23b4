//! Offload DGEMM: the trailing-update engine of hybrid HPL
//! (Section V-B, Fig. 10).
//!
//! The host divides the trailing product `C -= A · B` (depth `Kt`) into
//! `Mt × Nt` tiles. Input strips are packed into the Knights
//! Corner-friendly format while being copied, DMA'd over PCIe, and
//! requests flow through memory-mapped queues; the card computes tiles
//! and DMAs `C` results back. Load balance comes from **work stealing**:
//! the card claims tiles forward from `C00`, the host backward from the
//! last tile ([`phi_sched::TileDeque`]).
//!
//! * `numeric` — functional backend with real matrices and real
//!   threads: verifies that the stolen-tile decomposition (including
//!   partial-tile merging) reassembles the exact product.
//! * `model` — timed backend: the DES of Fig. 11 (first/last-tile
//!   exposure, PCIe overlap, run-time tile-size selection) and the fast
//!   analytic approximation hybrid HPL uses per stage.

mod model;
mod numeric;

pub use model::OffloadModel;
pub(crate) use model::OffloadOutcome;
pub use numeric::offload_gemm_numeric;

/// Splits an extent into `parts` tile spans, merging the ragged remainder
/// into the **last** tile — the paper's partial-tile merging: "we merge
/// the last two tiles (one complete tile and one partial tile) at the end
/// of each row or column and process them together."
fn tile_spans(extent: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0);
    if extent == 0 {
        return Vec::new();
    }
    let parts = parts.min(extent);
    let base = extent / parts;
    let mut spans: Vec<(usize, usize)> = (0..parts).map(|i| (i * base, base)).collect();
    // Remainder merges into the last tile instead of forming a sliver.
    let used = base * parts;
    if let Some(last) = spans.last_mut() {
        last.1 += extent - used;
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_exactly() {
        for (extent, parts) in [(100, 4), (103, 4), (7, 3), (5, 8), (1, 1)] {
            let spans = tile_spans(extent, parts);
            let total: usize = spans.iter().map(|s| s.1).sum();
            assert_eq!(total, extent, "extent={extent} parts={parts}");
            // Contiguous.
            let mut cursor = 0;
            for (start, len) in &spans {
                assert_eq!(*start, cursor);
                cursor += len;
            }
        }
    }

    #[test]
    fn remainder_merges_into_last_tile() {
        let spans = tile_spans(103, 4);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].1, 25);
        assert_eq!(spans[3].1, 28, "last tile absorbs the partial tile");
    }

    #[test]
    fn more_parts_than_extent_clamps() {
        let spans = tile_spans(3, 10);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.1 == 1));
    }
}
