//! The paper's DGEMM inner kernels (Fig. 2), expressed in the emulated
//! ISA and executed on the cycle-level core model.
//!
//! Each of the four hardware threads multiplies an `MR × k` packed tile of
//! `a` (shared) by its own `k × 8` packed tile of `b`, accumulating into
//! `MR` vector registers and finally updating its `MR × 8` tile of `c`
//! (Fig. 2a). Tile columns are padded to 32 elements so every column spans
//! exactly four cache lines, which the four threads prefetch cooperatively
//! — one line each ("the four lines are only brought in once from L2 into
//! L1 by one of the threads", Section III-A2).
//!
//! * [`build_basic_kernel`]`(Kernel1)` emits Fig. 2b: 31 FMAs per
//!   iteration, every one broadcasting its `a` element from memory. The
//!   L1 read port is busy on every cycle, so the two prefetch fills per
//!   thread-iteration can never slip in — they defer and eventually stall
//!   the pipe, pulling achieved efficiency to ≈ 31/34 ≈ 91%.
//! * [`build_basic_kernel`]`(Kernel2)` emits Fig. 2c: a `4to8` broadcast
//!   pulls four `a` elements into `v30`, and four FMAs take their operand
//!   by *swizzle* instead of from memory. Those four port-free holes per
//!   iteration absorb the fills: no stalls, achieved efficiency ≈ 30/32 =
//!   93.7%.
//!
//! The same run computes the numerically exact product, verified against
//! a reference in the tests.

use crate::emu::{CoreSim, RunStats, StreamBases};
use crate::isa::{Addr, BcastMode, Instr, Operand, Program, StreamId};
use crate::pipeline::PipelineConfig;
use crate::trace::TraceStats;
use phi_blas::gemm::MicroKernelKind;

/// Column stride of the padded `a` tile: 32 elements = 4 cache lines.
pub const A_COL_STRIDE: usize = 32;
/// Width of a `b` row / `c` row: one vector register.
pub const NR: usize = 8;

/// Register-block height for a kernel variant: Kernel 1 keeps 31 rows of
/// `c` in registers (`v0`–`v30`, `v31` holds the `b` row); Kernel 2
/// sacrifices one row for the broadcast register `v30`.
pub fn kernel_mr(kind: MicroKernelKind) -> usize {
    match kind {
        MicroKernelKind::Kernel1 => 31,
        MicroKernelKind::Kernel2 => 30,
    }
}

/// Builds the loop body and the C-update epilogue for a kernel variant.
///
/// Returns `(body, epilogue)`. Register map: `v0..vMR` = `c` accumulators,
/// `v31` = current `b` row, `v30` (Kernel 2 only) = `4to8` broadcast of
/// the leading `a` elements.
pub fn build_basic_kernel(kind: MicroKernelKind) -> (Program, Program) {
    let mr = kernel_mr(kind);
    let mut body = Program::new();

    // The V-pipe instructions (prefetches) are interleaved one-per-slot
    // with vector instructions so each cycle dual-issues — exactly how the
    // hand-written assembly schedules them ("prefetches and scalar
    // instructions co-issue with vector operations in the same cycle").
    let pf_b_next = Instr::PrefetchL1(Addr::new(StreamId::B, NR, NR));
    let pf_a_next =
        Instr::PrefetchL1(Addr::new(StreamId::A, A_COL_STRIDE, A_COL_STRIDE).with_thread_scale(NR));
    let pf_a_l2 = Instr::PrefetchL2(
        Addr::new(StreamId::A, A_COL_STRIDE, 2 * A_COL_STRIDE).with_thread_scale(NR),
    );
    let pf_b_l2 = Instr::PrefetchL2(Addr::new(StreamId::B, NR, 2 * NR));

    match kind {
        MicroKernelKind::Kernel1 => {
            // Fig. 2b: 31 FMAs, each 1to8-broadcasting a[r] from memory —
            // every slot's vector op occupies the L1 read port.
            body.push(pf_b_next);
            body.push(Instr::Load {
                dst: 31,
                addr: Addr::new(StreamId::B, NR, 0),
            });
            for r in 0..mr as u8 {
                match r {
                    0 => body.push(pf_a_next),
                    1 => body.push(pf_a_l2),
                    2 => body.push(pf_b_l2),
                    _ => &mut body,
                };
                body.push(Instr::Fmadd {
                    acc: r,
                    src: Operand::MemBcast(
                        Addr::new(StreamId::A, A_COL_STRIDE, r as usize),
                        BcastMode::OneToEight,
                    ),
                    b: 31,
                });
            }
        }
        MicroKernelKind::Kernel2 => {
            // Fig. 2c: a 4to8 broadcast pulls a[0..4] into v30, and the
            // first four FMAs swizzle it — four slots with the L1 ports
            // idle, the "holes" the prefetch fills land in.
            body.push(pf_b_next);
            body.push(Instr::Load {
                dst: 31,
                addr: Addr::new(StreamId::B, NR, 0),
            });
            body.push(pf_a_next);
            body.push(Instr::Broadcast {
                dst: 30,
                addr: Addr::new(StreamId::A, A_COL_STRIDE, 0),
                mode: BcastMode::FourToEight,
            });
            for r in 0..4u8 {
                match r {
                    0 => body.push(pf_a_l2),
                    1 => body.push(pf_b_l2),
                    _ => &mut body,
                };
                body.push(Instr::Fmadd {
                    acc: r,
                    src: Operand::Swizzle(30, r),
                    b: 31,
                });
            }
            for r in 4..mr as u8 {
                body.push(Instr::Fmadd {
                    acc: r,
                    src: Operand::MemBcast(
                        Addr::new(StreamId::A, A_COL_STRIDE, r as usize),
                        BcastMode::OneToEight,
                    ),
                    b: 31,
                });
            }
        }
    }

    // Epilogue: fold the register block into c (c += acc), one row per
    // load-add + store pair — the "overhead of updating C" whose cost
    // decreases linearly with k (Section III-A2).
    let mut epi = Program::new();
    for r in 0..mr as u8 {
        epi.push(Instr::Add {
            dst: r,
            src: Operand::Mem(Addr::new(StreamId::C, 0, r as usize * NR)),
        });
        epi.push(Instr::Store {
            src: r,
            addr: Addr::new(StreamId::C, 0, r as usize * NR),
        });
    }
    #[cfg(debug_assertions)]
    for (what, p) in [("body", &body), ("epilogue", &epi)] {
        let errs = crate::disasm::validate(p);
        assert!(
            errs.is_empty(),
            "generated {kind:?} {what} is invalid: {errs:?}"
        );
    }
    (body, epi)
}

/// Outcome of emulating one four-thread tile product.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel variant executed.
    pub kind: MicroKernelKind,
    /// Register-block height.
    pub mr: usize,
    /// Inner dimension `k`.
    pub depth: usize,
    /// Total cycles including cold start and C update.
    pub cycles_total: u64,
    /// Steady-state cycles per loop iteration (all four threads), from
    /// differencing a full and a half run.
    pub steady_cycles_per_iter: f64,
    /// Achieved steady-state efficiency: FMAs per cycle (peak = 1).
    pub steady_efficiency: f64,
    /// Instruction-mix bound: FMAs / vector slots (31/32 or 30/32).
    pub theoretical_efficiency: f64,
    /// Raw counters of the full run.
    pub stats: RunStats,
    /// The four computed `MR × 8` C tiles, row-major per thread.
    pub c_tiles: Vec<Vec<f64>>,
}

/// Memory image layout for a tile product.
struct Layout {
    a_base: usize,
    b_base: [usize; 4],
    c_base: [usize; 4],
    total: usize,
}

fn layout(mr: usize, depth: usize) -> Layout {
    let _ = mr; // a is padded to A_COL_STRIDE regardless of mr
    let a_len = A_COL_STRIDE * depth;
    let b_len = NR * depth;
    let c_len = A_COL_STRIDE * NR; // roomy, aligned
    let a_base = 0;
    let mut cursor = a_len.next_multiple_of(8);
    let mut b_base = [0; 4];
    for b in &mut b_base {
        *b = cursor;
        cursor += b_len.next_multiple_of(8);
    }
    let mut c_base = [0; 4];
    for c in &mut c_base {
        *c = cursor;
        cursor += c_len;
    }
    Layout {
        a_base,
        b_base,
        c_base,
        total: cursor,
    }
}

/// Emulates the four-thread `MR×k · k×8` tile product of Fig. 2a.
///
/// `a` is `mr * depth` values in column-major order (column stride `mr` —
/// the packed format of `phi-blas`); `bs[t]` is thread `t`'s `depth × 8`
/// row-major tile. Returns cycle statistics and the four result tiles.
pub fn run_tile_product(
    kind: MicroKernelKind,
    depth: usize,
    a: &[f64],
    bs: &[Vec<f64>; 4],
    cfg: PipelineConfig,
) -> KernelReport {
    run_tile_product_impl(kind, depth, a, bs, cfg, false).0
}

/// [`run_tile_product`] with the block-trace fast path enabled
/// (`crate::trace`). The report is guaranteed bit-identical to the
/// interpreter's; the extras are the trace counters and the coverage
/// speedup (total cycles over interpreter-executed cycles).
pub fn run_tile_product_traced(
    kind: MicroKernelKind,
    depth: usize,
    a: &[f64],
    bs: &[Vec<f64>; 4],
    cfg: PipelineConfig,
) -> (KernelReport, TraceStats, f64) {
    let (rep, extra) = run_tile_product_impl(kind, depth, a, bs, cfg, true);
    let (stats, speedup) = extra.expect("tracing was enabled");
    (rep, stats, speedup)
}

#[allow(clippy::type_complexity)]
fn run_tile_product_impl(
    kind: MicroKernelKind,
    depth: usize,
    a: &[f64],
    bs: &[Vec<f64>; 4],
    cfg: PipelineConfig,
    traced: bool,
) -> (KernelReport, Option<(TraceStats, f64)>) {
    let mr = kernel_mr(kind);
    assert_eq!(a.len(), mr * depth, "a tile shape");
    for b in bs {
        assert_eq!(b.len(), depth * NR, "b tile shape");
    }
    let (body, epi) = build_basic_kernel(kind);

    let build_sim = |iters: usize| -> (CoreSim, [StreamBases; 4]) {
        let l = layout(mr, depth);
        let mut mem = vec![0.0; l.total];
        // Repack a into the padded 32-element column stride.
        for p in 0..depth {
            for r in 0..mr {
                mem[l.a_base + p * A_COL_STRIDE + r] = a[p * mr + r];
            }
        }
        for t in 0..4 {
            mem[l.b_base[t]..l.b_base[t] + depth * NR].copy_from_slice(&bs[t]);
        }
        let threads = [
            StreamBases {
                a: l.a_base,
                b: l.b_base[0],
                c: l.c_base[0],
            },
            StreamBases {
                a: l.a_base,
                b: l.b_base[1],
                c: l.c_base[1],
            },
            StreamBases {
                a: l.a_base,
                b: l.b_base[2],
                c: l.c_base[2],
            },
            StreamBases {
                a: l.a_base,
                b: l.b_base[3],
                c: l.c_base[3],
            },
        ];
        let sim = CoreSim::new(cfg, mem);
        let _ = iters;
        (sim, threads)
    };

    // Single run with two in-loop checkpoints: the marginal cycles
    // between them are free of both cold-start effects (cache warming)
    // and the end-of-loop drain (the first thread's epilogue misses).
    let (mut sim, threads) = build_sim(depth);
    if traced {
        sim.enable_trace();
    }
    let mark1 = (depth / 4).max(1).min(depth);
    let mark2 = (depth.saturating_sub(depth / 8)).max(mark1);
    let (cycles_total, mark_cycle, loop_end) =
        sim.run_with_marks(&body, &epi, depth, &threads, mark1, mark2);
    let stats = sim.stats();
    let l = layout(mr, depth);
    let c_tiles: Vec<Vec<f64>> = (0..4)
        .map(|t| sim.mem()[l.c_base[t]..l.c_base[t] + mr * NR].to_vec())
        .collect();

    let iter_delta = mark2.saturating_sub(mark1).max(1) as f64;
    let steady_cycles_per_iter = (loop_end as f64 - mark_cycle as f64).max(1.0) / iter_delta;
    // Four threads perform 4*mr FMAs per iteration.
    let steady_efficiency = (4 * mr) as f64 / steady_cycles_per_iter;

    let extra = sim.trace_stats().map(|t| (t, sim.replay_speedup()));
    (
        KernelReport {
            kind,
            mr,
            depth,
            cycles_total,
            steady_cycles_per_iter,
            steady_efficiency,
            theoretical_efficiency: body.theoretical_efficiency(),
            stats,
            c_tiles,
        },
        extra,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_matrix::HplRng;

    fn random_tiles(mr: usize, depth: usize, seed: u64) -> (Vec<f64>, [Vec<f64>; 4]) {
        let mut rng = HplRng::new(seed);
        let a: Vec<f64> = (0..mr * depth).map(|_| rng.next_value()).collect();
        let bs = std::array::from_fn(|_| (0..depth * NR).map(|_| rng.next_value()).collect());
        (a, bs)
    }

    fn reference_c(mr: usize, depth: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; mr * NR];
        for p in 0..depth {
            for r in 0..mr {
                let av = a[p * mr + r];
                for j in 0..NR {
                    c[r * NR + j] = av.mul_add(b[p * NR + j], c[r * NR + j]);
                }
            }
        }
        c
    }

    #[test]
    fn kernel2_computes_exact_product() {
        let depth = 64;
        let (a, bs) = random_tiles(30, depth, 1);
        let rep = run_tile_product(
            MicroKernelKind::Kernel2,
            depth,
            &a,
            &bs,
            PipelineConfig::default(),
        );
        for (t, b) in bs.iter().enumerate() {
            let expect = reference_c(30, depth, &a, b);
            assert_eq!(rep.c_tiles[t], expect, "thread {t} C tile");
        }
    }

    #[test]
    fn kernel1_computes_exact_product() {
        let depth = 48;
        let (a, bs) = random_tiles(31, depth, 2);
        let rep = run_tile_product(
            MicroKernelKind::Kernel1,
            depth,
            &a,
            &bs,
            PipelineConfig::default(),
        );
        for (t, b) in bs.iter().enumerate() {
            let expect = reference_c(31, depth, &a, b);
            assert_eq!(rep.c_tiles[t], expect, "thread {t} C tile");
        }
    }

    #[test]
    fn theoretical_efficiencies_match_paper() {
        let (b1, _) = build_basic_kernel(MicroKernelKind::Kernel1);
        let (b2, _) = build_basic_kernel(MicroKernelKind::Kernel2);
        assert_eq!(b1.vector_count(), 32);
        assert_eq!(b1.fmadd_count(), 31);
        assert_eq!(b2.vector_count(), 32);
        assert_eq!(b2.fmadd_count(), 30);
        assert!((b1.theoretical_efficiency() - 31.0 / 32.0).abs() < 1e-12);
        assert!((b2.theoretical_efficiency() - 30.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn kernel2_beats_kernel1_in_practice() {
        // The heart of Section III-A2: Kernel 1's higher theoretical
        // efficiency loses to port-conflict stalls; Kernel 2 wins.
        let depth = 300;
        let (a1, bs1) = random_tiles(31, depth, 3);
        let r1 = run_tile_product(
            MicroKernelKind::Kernel1,
            depth,
            &a1,
            &bs1,
            PipelineConfig::default(),
        );
        let (a2, bs2) = random_tiles(30, depth, 4);
        let r2 = run_tile_product(
            MicroKernelKind::Kernel2,
            depth,
            &a2,
            &bs2,
            PipelineConfig::default(),
        );

        assert!(
            r1.theoretical_efficiency > r2.theoretical_efficiency,
            "Kernel 1 has more FMAs per slot on paper"
        );
        assert!(
            r2.steady_efficiency > r1.steady_efficiency,
            "but Kernel 2 must win in practice: k1={:.4} k2={:.4}",
            r1.steady_efficiency,
            r2.steady_efficiency
        );
        // Kernel 2 runs stall-free near its bound (93.7%)...
        assert!(
            r2.steady_efficiency > 0.92,
            "kernel2 steady eff {:.4}",
            r2.steady_efficiency
        );
        // ...while Kernel 1 is dragged below it by fill stalls (the paper's
        // worst case is 31/34 ≈ 91%; in our model stall holes absorb part
        // of the fill backlog, landing between 91% and 93.7%).
        assert!(
            r1.steady_efficiency < r2.steady_efficiency - 0.003,
            "kernel1 {:.4} must trail kernel2 {:.4}",
            r1.steady_efficiency,
            r2.steady_efficiency
        );
        assert!(
            r1.stats.fill_stall_cycles > 0,
            "kernel1 must stall on fills"
        );
        assert!(
            r2.stats.fill_stall_cycles == 0,
            "kernel2 must not stall: {} stall cycles",
            r2.stats.fill_stall_cycles
        );
    }

    #[test]
    fn traced_tile_product_is_bit_identical_and_covers() {
        for (kind, seed) in [(MicroKernelKind::Kernel1, 6), (MicroKernelKind::Kernel2, 7)] {
            let mr = kernel_mr(kind);
            let depth = 256;
            let (a, bs) = random_tiles(mr, depth, seed);
            let slow = run_tile_product(kind, depth, &a, &bs, PipelineConfig::default());
            let (fast, ts, speedup) =
                run_tile_product_traced(kind, depth, &a, &bs, PipelineConfig::default());
            assert_eq!(slow.cycles_total, fast.cycles_total, "{kind:?}");
            assert_eq!(
                slow.steady_cycles_per_iter, fast.steady_cycles_per_iter,
                "{kind:?}"
            );
            assert_eq!(slow.stats, fast.stats, "{kind:?}");
            assert_eq!(slow.c_tiles, fast.c_tiles, "{kind:?}");
            assert!(
                ts.replayed_segments > depth as u64 / 2,
                "{kind:?} must replay most iterations: {ts:?}"
            );
            assert!(speedup > 2.0, "{kind:?} coverage speedup {speedup:.2}");
        }
    }

    #[test]
    fn kernel2_fills_land_in_holes() {
        let depth = 200;
        let (a, bs) = random_tiles(30, depth, 5);
        let rep = run_tile_product(
            MicroKernelKind::Kernel2,
            depth,
            &a,
            &bs,
            PipelineConfig::default(),
        );
        assert!(
            rep.stats.fills_in_holes > rep.stats.fill_stall_cycles,
            "holes={} stalls={}",
            rep.stats.fills_in_holes,
            rep.stats.fill_stall_cycles
        );
    }
}
