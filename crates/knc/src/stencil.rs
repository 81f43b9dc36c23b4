//! 3D star-stencil sweep on the emulated core — the second
//! bandwidth-bound workload of the performance lab.
//!
//! A radius-`R` star stencil (`6R + 1` taps) is applied to a periodic
//! `nx × ny × nz` grid with `nz = 8·lz`: the grid is *lane-folded* so
//! vector lane `l` owns the z-slab `[l·lz, (l+1)·lz)`, making every
//! output point's 8 z-translates one vector register. The kernel is
//! *tap-blocked* and GEMM-shaped: a run computes `MR = 8` output vectors
//! held in registers `v0..v7`, the loop iterates over the taps, and each
//! iteration broadcasts one coefficient and streams the tap's 8
//! pre-packed neighbor lines through 8 FMAs:
//!
//! ```text
//! vprefetch0 [coef + 8]    ; vbroadcastsd v31, [coef]
//! vprefetch0 [tap + 64+r*8]; vfmadd231pd  vr,  v31, [tap + r*8]   (×8)
//! ```
//!
//! Nine dual-issue turns per tap, no body stores, accumulators never
//! redefined — the listing is clean under every `phi-lint` pass. Like
//! SpMV every vector slot reads memory, so there are no port holes: the
//! kernel's roofline class is [`RooflineClass::BandwidthBound`](crate::roofline::RooflineClass::BandwidthBound) and the
//! fill deficit is its operating point. The packer performs all periodic
//! wrapping and lane-crossing at pack time, so the kernel itself stays a
//! pure affine stream (the same trick as DGEMM's packed tiles); the
//! honest DRAM traffic lives in the analytic intensity model.

use crate::emu::{CoreSim, RunStats, StreamBases};
use crate::isa::{Addr, BcastMode, Instr, Operand, Program, StreamId, LINE_ELEMS, VLEN};
use crate::pipeline::PipelineConfig;
use crate::roofline::{self, RooflinePoint};

/// Output vectors computed per run (register block height, `v0..v7`).
const STENCIL_MR: usize = 8;
/// Threads per run (one register block each).
const STENCIL_THREADS: usize = 4;

/// A star stencil: one center tap plus `radius` taps along each of the
/// six axis directions.
#[derive(Clone, Debug, PartialEq)]
pub struct StarStencil {
    /// Taps extend `1..=radius` points along each axis.
    pub radius: usize,
    /// Coefficients in tap order: `[center, (+x,1), (-x,1), (+y,1),
    /// (-y,1), (+z,1), (-z,1), (+x,2), ...]`.
    pub coeffs: Vec<f64>,
}

impl StarStencil {
    /// A stencil from explicit coefficients (`coeffs.len() == 6r + 1`).
    pub fn new(radius: usize, coeffs: Vec<f64>) -> Self {
        assert!(radius >= 1);
        assert_eq!(coeffs.len(), 6 * radius + 1, "coefficient count");
        Self { radius, coeffs }
    }

    /// The classic 7-point Laplacian-like stencil.
    pub fn seven_point(center: f64, neighbor: f64) -> Self {
        Self::new(
            1,
            vec![
                center, neighbor, neighbor, neighbor, neighbor, neighbor, neighbor,
            ],
        )
    }

    /// Tap count `T = 6·radius + 1`.
    pub fn taps(&self) -> usize {
        self.coeffs.len()
    }

    /// Offset (dx, dy, dz) of tap `j`.
    fn tap_offset(&self, j: usize) -> (i64, i64, i64) {
        if j == 0 {
            return (0, 0, 0);
        }
        let d = ((j - 1) / 6 + 1) as i64;
        match (j - 1) % 6 {
            0 => (d, 0, 0),
            1 => (-d, 0, 0),
            2 => (0, d, 0),
            3 => (0, -d, 0),
            4 => (0, 0, d),
            _ => (0, 0, -d),
        }
    }

    /// Arithmetic intensity in flops per byte under the streaming model:
    /// `2T` flops per point against one cached read of the input, the
    /// output write and its write-allocate fill (3 × 8 bytes).
    fn arithmetic_intensity(&self) -> f64 {
        2.0 * self.taps() as f64 / 24.0
    }

    /// Roofline placement of this stencil on `chip`.
    pub fn roofline(&self, chip: &crate::chip::KncChip) -> RooflinePoint {
        roofline::place(chip, self.arithmetic_intensity())
    }
}

/// Builds the tap-blocked stencil loop for a `taps`-tap stencil.
///
/// Register map: `v0..v7` = the `MR` output accumulators, `v31` = the
/// broadcast coefficient of the current tap. Stream map: `A` = the
/// tap-major packed neighbor values (thread-strided by `taps·MR·8`),
/// `B` = the stride-8 padded coefficient table, `C` = the output block.
fn build_stencil_kernel(taps: usize) -> (Program, Program) {
    assert!(taps >= 1);
    let block = STENCIL_MR * VLEN; // elements per tap per thread
    let mut body = Program::new();
    body.push(Instr::PrefetchL1(Addr::new(
        StreamId::B,
        LINE_ELEMS,
        LINE_ELEMS,
    )));
    body.push(Instr::Broadcast {
        dst: 31,
        addr: Addr::new(StreamId::B, LINE_ELEMS, 0),
        mode: BcastMode::OneToEight,
    });
    for r in 0..STENCIL_MR {
        body.push(Instr::PrefetchL1(
            Addr::new(StreamId::A, block, block + r * VLEN).with_thread_scale(taps * block),
        ));
        body.push(Instr::Fmadd {
            acc: r as u8,
            src: Operand::Mem(
                Addr::new(StreamId::A, block, r * VLEN).with_thread_scale(taps * block),
            ),
            b: 31,
        });
    }
    // Hole turns: every vector slot above reads the L1 port (the
    // broadcast included), so the nine fills each tap queues need nine
    // port-free turns to complete in. Lone `vprefetch1`s provide them
    // while warming the tap after next — same fills-vs-holes balance as
    // the SpMV body.
    for r in 0..STENCIL_MR {
        body.push(Instr::PrefetchL2(
            Addr::new(StreamId::A, block, 2 * block + r * VLEN).with_thread_scale(taps * block),
        ));
    }
    body.push(Instr::PrefetchL2(Addr::new(
        StreamId::B,
        LINE_ELEMS,
        2 * LINE_ELEMS,
    )));
    let mut epi = Program::new();
    for r in 0..STENCIL_MR {
        epi.push(Instr::Store {
            src: r as u8,
            addr: Addr::new(StreamId::C, 0, r * VLEN),
        });
    }
    #[cfg(debug_assertions)]
    for (what, p) in [("body", &body), ("epilogue", &epi)] {
        let errs = crate::disasm::validate(p);
        assert!(
            errs.is_empty(),
            "generated stencil {what} is invalid: {errs:?}"
        );
    }
    (body, epi)
}

/// The listing shipped to static analysis (7-point stencil shape).
pub fn stencil_listing() -> (Program, Program) {
    build_stencil_kernel(7)
}

/// Reference sweep over the periodic grid, accumulating taps in tap
/// order with fused multiply-adds — bit-identical to the emulated
/// kernel. `input` is `[(z·ny + y)·nx + x]` with `z ∈ 0..8·lz`.
pub fn reference_stencil(
    st: &StarStencil,
    (nx, ny, lz): (usize, usize, usize),
    input: &[f64],
) -> Vec<f64> {
    let nz = VLEN * lz;
    assert_eq!(input.len(), nx * ny * nz, "input length");
    let at = |x: i64, y: i64, z: i64| {
        let xi = x.rem_euclid(nx as i64) as usize;
        let yi = y.rem_euclid(ny as i64) as usize;
        let zi = z.rem_euclid(nz as i64) as usize;
        input[(zi * ny + yi) * nx + xi]
    };
    let mut out = vec![0.0; nx * ny * nz];
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let mut acc = 0.0f64;
                for j in 0..st.taps() {
                    let (dx, dy, dz) = st.tap_offset(j);
                    acc = at(x + dx, y + dy, z + dz).mul_add(st.coeffs[j], acc);
                }
                out[((z as usize) * ny + y as usize) * nx + x as usize] = acc;
            }
        }
    }
    out
}

/// Outcome of emulating one full stencil sweep.
#[derive(Clone, Debug)]
pub struct StencilReport {
    /// Grid dimensions (nx, ny, lz); the z extent is `8·lz`.
    pub dims: (usize, usize, usize),
    /// Tap count.
    pub taps: usize,
    /// Total cycles across all register blocks.
    pub cycles_total: u64,
    /// Aggregated emulator counters.
    pub stats: RunStats,
    /// The swept grid, same layout as the input.
    pub out: Vec<f64>,
}

impl StencilReport {
    /// Useful flops per cycle achieved by the emulated core (peak = 16).
    pub fn flops_per_cycle(&self) -> f64 {
        let (nx, ny, lz) = self.dims;
        let points = (nx * ny * lz * VLEN) as f64;
        if self.cycles_total == 0 {
            0.0
        } else {
            2.0 * self.taps as f64 * points / self.cycles_total as f64
        }
    }
}

/// Emulates one sweep of `st` over the periodic lane-folded grid.
/// `input` uses the natural `[(z·ny + y)·nx + x]` layout.
pub fn run_stencil(
    st: &StarStencil,
    (nx, ny, lz): (usize, usize, usize),
    input: &[f64],
    cfg: PipelineConfig,
) -> StencilReport {
    let nz = VLEN * lz;
    assert_eq!(input.len(), nx * ny * nz, "input length");
    let taps = st.taps();
    let block = STENCIL_MR * VLEN;
    let vectors = nx * ny * lz; // output vectors (8 lanes each)
    let blocks = vectors.div_ceil(STENCIL_MR);
    let groups = blocks.div_ceil(STENCIL_THREADS);

    // Natural-layout lookup with periodic wrap; lane l holds z-slab l.
    let at = |x: i64, y: i64, z: i64| {
        let xi = x.rem_euclid(nx as i64) as usize;
        let yi = y.rem_euclid(ny as i64) as usize;
        let zi = z.rem_euclid(nz as i64) as usize;
        input[(zi * ny + yi) * nx + xi]
    };
    // Decompose an output-vector index into (x, y, z-in-slab).
    let coords = |e: usize| {
        let x = e % nx;
        let y = (e / nx) % ny;
        let zl = e / (nx * ny);
        (x as i64, y as i64, zl as i64)
    };

    let a_len = STENCIL_THREADS * taps * block;
    let b_base = a_len;
    let c_base: [usize; STENCIL_THREADS] =
        std::array::from_fn(|t| b_base + taps * LINE_ELEMS + t * block);
    let total = b_base + taps * LINE_ELEMS + STENCIL_THREADS * block;

    let (body, epi) = build_stencil_kernel(taps);
    let mut out = vec![0.0; nx * ny * nz];
    let mut cycles_total = 0u64;
    let mut stats = RunStats::default();

    for g in 0..groups {
        let mut mem = vec![0.0; total];
        // Coefficient table, stride-8 padded (only element j*8 is read).
        for j in 0..taps {
            for k in 0..LINE_ELEMS {
                mem[b_base + j * LINE_ELEMS + k] = st.coeffs[j];
            }
        }
        // Tap-major neighbor pack: thread t, tap j, vector r, lane l.
        for t in 0..STENCIL_THREADS {
            let blk = g * STENCIL_THREADS + t;
            for r in 0..STENCIL_MR {
                let e = blk * STENCIL_MR + r;
                if e >= vectors {
                    continue;
                }
                let (x, y, zl) = coords(e);
                for j in 0..taps {
                    let (dx, dy, dz) = st.tap_offset(j);
                    for l in 0..VLEN {
                        let z = zl + (l * lz) as i64;
                        mem[t * taps * block + j * block + r * VLEN + l] =
                            at(x + dx, y + dy, z + dz);
                    }
                }
            }
        }
        let threads: [StreamBases; STENCIL_THREADS] = std::array::from_fn(|t| StreamBases {
            a: 0,
            b: b_base,
            c: c_base[t],
        });
        let mut sim = CoreSim::new(cfg, mem);
        // The tap packer just wrote the neighbor and coefficient buffers:
        // they are L2-resident, so prefetches pay the L2-hit latency.
        sim.warm_l2(0, b_base + taps * LINE_ELEMS);
        cycles_total += sim.run(&body, &epi, taps, &threads);
        let s = sim.stats();
        stats.cycles += s.cycles;
        stats.vector_issued += s.vector_issued;
        stats.fmadds += s.fmadds;
        stats.vpipe_issued += s.vpipe_issued;
        stats.fill_stall_cycles += s.fill_stall_cycles;
        stats.demand_stall_cycles += s.demand_stall_cycles;
        stats.fills_in_holes += s.fills_in_holes;
        stats.fills_completed += s.fills_completed;
        for (t, &cb) in c_base.iter().enumerate().take(STENCIL_THREADS) {
            let blk = g * STENCIL_THREADS + t;
            for r in 0..STENCIL_MR {
                let e = blk * STENCIL_MR + r;
                if e >= vectors {
                    continue;
                }
                let (x, y, zl) = coords(e);
                for l in 0..VLEN {
                    let z = zl as usize + l * lz;
                    out[(z * ny + y as usize) * nx + x as usize] = sim.mem()[cb + r * VLEN + l];
                }
            }
        }
    }

    StencilReport {
        dims: (nx, ny, lz),
        taps,
        cycles_total,
        stats,
        out,
    }
}

/// A deterministic seeded input grid for tests and benches.
pub fn seeded_grid((nx, ny, lz): (usize, usize, usize), seed: u64) -> Vec<f64> {
    let n = nx * ny * lz * VLEN;
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|i| {
            h ^= i as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::KncChip;
    use crate::roofline::RooflineClass;

    #[test]
    fn seven_point_sweep_matches_reference_bitwise() {
        let st = StarStencil::seven_point(-6.0, 1.0);
        let dims = (4, 3, 2); // nz = 16, 24 output vectors = 3 groups
        let input = seeded_grid(dims, 5);
        let rep = run_stencil(&st, dims, &input, PipelineConfig::default());
        assert_eq!(rep.out, reference_stencil(&st, dims, &input));
        assert!(rep.cycles_total > 0);
    }

    #[test]
    fn radius_two_star_matches_reference() {
        let coeffs: Vec<f64> = (0..13).map(|j| 1.0 / (1.0 + j as f64)).collect();
        let st = StarStencil::new(2, coeffs);
        let dims = (5, 5, 1);
        let input = seeded_grid(dims, 9);
        let rep = run_stencil(&st, dims, &input, PipelineConfig::default());
        assert_eq!(rep.out, reference_stencil(&st, dims, &input));
    }

    #[test]
    fn constant_field_sums_coefficients() {
        let st = StarStencil::seven_point(2.0, 0.5);
        let dims = (4, 4, 1);
        let input = vec![1.0; 4 * 4 * 8];
        let rep = run_stencil(&st, dims, &input, PipelineConfig::default());
        for v in rep.out {
            assert!((v - 5.0).abs() < 1e-12, "{v}"); // 2 + 6 * 0.5
        }
    }

    #[test]
    fn listing_balances_fills_against_holes() {
        // 9 paired turns (vector + vprefetch0) stream the tap, then 9
        // lone-vprefetch1 hole turns absorb the 9 fills it queued.
        let (body, epi) = stencil_listing();
        let u = body.body.iter().filter(|i| i.is_vector()).count();
        let l1_pf = body
            .body
            .iter()
            .filter(|i| matches!(i, Instr::PrefetchL1(_)))
            .count();
        let l2_pf = body
            .body
            .iter()
            .filter(|i| matches!(i, Instr::PrefetchL2(_)))
            .count();
        assert_eq!(u, STENCIL_MR + 1);
        assert_eq!(l1_pf, STENCIL_MR + 1);
        assert_eq!(l2_pf, l1_pf, "one hole turn per queued fill");
        assert_eq!(epi.body.len(), STENCIL_MR);
    }

    #[test]
    fn stencil_is_bandwidth_bound_on_the_roofline() {
        let st = StarStencil::seven_point(-6.0, 1.0);
        let p = st.roofline(&KncChip::default());
        assert_eq!(p.class, RooflineClass::BandwidthBound);
        assert!(p.flops_per_byte < 1.0);
    }

    #[test]
    fn tap_offsets_enumerate_the_star() {
        let st = StarStencil::new(2, vec![0.0; 13]);
        assert_eq!(st.tap_offset(0), (0, 0, 0));
        assert_eq!(st.tap_offset(1), (1, 0, 0));
        assert_eq!(st.tap_offset(6), (0, 0, -1));
        assert_eq!(st.tap_offset(7), (2, 0, 0));
        assert_eq!(st.tap_offset(12), (0, 0, -2));
    }
}
