//! Packing into the Knights Corner-friendly tile format (paper Fig. 3).
//!
//! Before each rank-k outer product the operands are repacked:
//!
//! * `A_i` (an `M × k` column block) becomes **block row-major** `MR × k`
//!   tiles, each tile stored **column-major** (Fig. 3a, `MR = 30` in the
//!   paper). Column-major tiles give the microkernel contiguous access to
//!   each column of `a` and simplify prefetch address calculation
//!   (Section III-A3).
//! * `B_i` (a `k × N` row block) becomes block row-major `k × NR` tiles,
//!   each stored **row-major** (Fig. 3b, `NR = 8`).
//!
//! Ragged edges are zero-padded so the microkernel always runs at full
//! register-block width; the write-back step masks the padding out.

use phi_matrix::{MatrixView, Scalar};

/// `A` packed as `ceil(M/MR)` tiles of `MR × depth`, each column-major.
#[derive(Clone, Debug)]
pub struct PackedA<T: Scalar> {
    data: Vec<T>,
    mr: usize,
    rows: usize,
    depth: usize,
}

impl<T: Scalar> PackedA<T> {
    /// Number of row tiles.
    pub fn tile_count(&self) -> usize {
        self.rows.div_ceil(self.mr)
    }
    /// Tile `t` as a `mr * depth` column-major slice.
    pub fn tile(&self, t: usize) -> &[T] {
        let sz = self.mr * self.depth;
        &self.data[t * sz..(t + 1) * sz]
    }
    /// Rows covered by tile `t` before padding.
    pub fn tile_rows(&self, t: usize) -> usize {
        (self.rows - t * self.mr).min(self.mr)
    }
}

/// `B` packed as `ceil(N/NR)` tiles of `depth × NR`, each row-major.
#[derive(Clone, Debug)]
pub struct PackedB<T: Scalar> {
    data: Vec<T>,
    nr: usize,
    cols: usize,
    depth: usize,
}

impl<T: Scalar> PackedB<T> {
    /// Number of column tiles.
    pub fn tile_count(&self) -> usize {
        self.cols.div_ceil(self.nr)
    }
    /// Tile `u` as a `depth * nr` row-major slice.
    pub fn tile(&self, u: usize) -> &[T] {
        let sz = self.depth * self.nr;
        &self.data[u * sz..(u + 1) * sz]
    }
    /// Columns covered by tile `u` before padding.
    pub fn tile_cols(&self, u: usize) -> usize {
        (self.cols - u * self.nr).min(self.nr)
    }
}

/// Packs `a` (an `M × k` window) into `MR × k` column-major tiles.
pub fn pack_a<T: Scalar>(a: &MatrixView<'_, T>, mr: usize) -> PackedA<T> {
    assert!(mr > 0);
    let (rows, depth) = (a.rows(), a.cols());
    let tiles = rows.div_ceil(mr);
    let mut data = vec![T::ZERO; tiles * mr * depth];
    for t in 0..tiles {
        let r0 = t * mr;
        let live = (rows - r0).min(mr);
        let tile = &mut data[t * mr * depth..(t + 1) * mr * depth];
        for p in 0..depth {
            // Column p of the tile is contiguous: offsets p*mr .. p*mr+mr.
            for r in 0..live {
                tile[p * mr + r] = a.at(r0 + r, p);
            }
        }
    }
    PackedA {
        data,
        mr,
        rows,
        depth,
    }
}

/// Packs `b` (a `k × N` window) into `k × NR` row-major tiles.
pub fn pack_b<T: Scalar>(b: &MatrixView<'_, T>, nr: usize) -> PackedB<T> {
    assert!(nr > 0);
    let (depth, cols) = (b.rows(), b.cols());
    let tiles = cols.div_ceil(nr);
    let mut data = vec![T::ZERO; tiles * depth * nr];
    for u in 0..tiles {
        let c0 = u * nr;
        let live = (cols - c0).min(nr);
        let tile = &mut data[u * depth * nr..(u + 1) * depth * nr];
        for p in 0..depth {
            let src = b.row(p);
            // Row p of the tile is contiguous: offsets p*nr .. p*nr+nr.
            tile[p * nr..p * nr + live].copy_from_slice(&src[c0..c0 + live]);
        }
    }
    PackedB {
        data,
        nr,
        cols,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::{MatGen, Matrix};

    #[test]
    fn pack_a_layout_exact_tiles() {
        // 4 rows, mr = 2 → two tiles; check column-major order inside tiles.
        let a = Matrix::<f64>::from_fn(4, 3, |i, j| (10 * i + j) as f64);
        let p = pack_a(&a.view(), 2);
        assert_eq!(p.tile_count(), 2);
        // Tile 0, column 0 = a[0,0], a[1,0]; column 1 = a[0,1], a[1,1]...
        assert_eq!(p.tile(0), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(p.tile(1), &[20.0, 30.0, 21.0, 31.0, 22.0, 32.0]);
    }

    #[test]
    fn pack_a_zero_pads_ragged_edge() {
        let a = Matrix::<f64>::from_fn(5, 2, |i, j| (i + j) as f64 + 1.0);
        let p = pack_a(&a.view(), 4);
        assert_eq!(p.tile_count(), 2);
        assert_eq!(p.tile_rows(1), 1);
        // Second tile has only one live row; rows 1..4 are zero.
        let t = p.tile(1);
        assert_eq!(t[0], 5.0); // a[4,0]
        assert_eq!(&t[1..4], &[0.0, 0.0, 0.0]);
        assert_eq!(t[4], 6.0); // a[4,1]
        assert_eq!(&t[5..8], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_b_layout() {
        // 2 rows (k), 5 cols, nr = 4 → two tiles (second ragged).
        let b = Matrix::<f64>::from_fn(2, 5, |i, j| (10 * i + j) as f64);
        let p = pack_b(&b.view(), 4);
        assert_eq!(p.tile_count(), 2);
        assert_eq!(p.tile(0), &[0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
        assert_eq!(p.tile_cols(1), 1);
        assert_eq!(p.tile(1), &[4.0, 0.0, 0.0, 0.0, 14.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn packing_round_trips() {
        // Reconstruct A and B from tiles and compare to the originals.
        let a = MatGen::new(1).matrix::<f64>(31, 13);
        let pa = pack_a(&a.view(), 30);
        for t in 0..pa.tile_count() {
            for p in 0..pa.depth {
                for r in 0..pa.tile_rows(t) {
                    assert_eq!(pa.tile(t)[p * 30 + r], a[(t * 30 + r, p)]);
                }
            }
        }
        let b = MatGen::new(2).matrix::<f64>(13, 19);
        let pb = pack_b(&b.view(), 8);
        for u in 0..pb.tile_count() {
            for p in 0..pb.depth {
                for c in 0..pb.tile_cols(u) {
                    assert_eq!(pb.tile(u)[p * 8 + c], b[(p, u * 8 + c)]);
                }
            }
        }
    }
}
