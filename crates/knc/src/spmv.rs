//! CSR sparse matrix–vector product on the emulated core — the
//! bandwidth-bound workload of the performance lab.
//!
//! The storage follows Saule et al.'s KNC SpMV study: rows are grouped
//! into *slices* of 8 (one vector lane per row, the ELLPACK-sliced
//! "SELL-C" format with C = `VLEN`), and each four-thread run covers one
//! *row block* of 4 slices. Within a block every slice is padded to the
//! block's chunk depth `L` — the per-thread nonzero balance knob: sorting
//! or blocking rows so slices in a block have similar lengths keeps the
//! zero-padding (and therefore the wasted bandwidth) small.
//!
//! Per chunk the kernel streams one cache line of packed values and one
//! line of pre-gathered `x` entries through a single FMA, then closes
//! the iteration with two u-pipe-only `vprefetch1` turns:
//!
//! ```text
//! vprefetch0 [vals  + 128]      ; vmovapd     v31, [vals]
//! vprefetch0 [xpack + 128]      ; vfmadd231pd v0, v31, [xpack]
//! vprefetch1 [vals  + 1024]
//! vprefetch1 [xpack + 1024]
//! ```
//!
//! Every vector slot reads memory (zero register reuse — the defining
//! property of the bandwidth-bound class), so without the trailing
//! `vprefetch1` turns the L1 ports would be busy on every cycle and the
//! two fills each chunk queues could only force their way in through
//! Fig. 1c threshold stalls. The two u-only turns are deliberate holes:
//! one deferred fill completes in each, balancing fills against holes
//! exactly, and the steady state becomes a pure L1-hit fixed point that
//! the block-trace engine can template and replay. The kernel's roofline
//! class is [`RooflineClass::BandwidthBound`](crate::roofline::RooflineClass::BandwidthBound) by construction — the
//! memory system still paces the chip-level throughput; the hole
//! structure just keeps the core from paying for that twice.

use crate::emu::{CoreSim, RunStats, StreamBases};
use crate::isa::{Addr, Instr, Operand, Program, StreamId, LINE_ELEMS, VLEN};
use crate::pipeline::PipelineConfig;
use crate::trace::TraceStats;

/// Rows per slice: one vector lane per row.
const SLICE_ROWS: usize = VLEN;
/// Slices per four-thread row block.
const BLOCK_SLICES: usize = 4;
/// Rows covered by one emulated run.
pub const BLOCK_ROWS: usize = SLICE_ROWS * BLOCK_SLICES;
/// L1 prefetch distance in chunks (= cache lines). Two iterations of
/// lead time (32 aggregate cycles at 4 threads) comfortably covers the
/// 12-cycle L2 fill latency while keeping the pending-fill queue shallow
/// enough that the steady state is a fixed point the trace engine can
/// template. Bounded above by the lint warmup window (8 lines).
const SPMV_PF_DIST: usize = 2;
/// L2 prefetch distance in chunks for the `vprefetch1` filler turns.
/// Further out than [`SPMV_PF_DIST`] so a line is already L2-resident
/// when its L1 prefetch issues — the standard KNC two-level software
/// prefetch ladder.
const SPMV_PF_L2_DIST: usize = 16;

/// A compressed-sparse-row matrix (f64 values, element column indices).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes row `r`'s nonzeros.
    pub row_ptr: Vec<usize>,
    /// Column of each nonzero.
    pub col_idx: Vec<usize>,
    /// Value of each nonzero.
    pub vals: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from (row, col, value) triplets. Triplets are
    /// sorted (row-major, then by column) and duplicates are summed, so
    /// construction is a pure function of the triplet *set*.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut t: Vec<(usize, usize, f64)> = triplets.to_vec();
        for &(r, c, _) in &t {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        t.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(t.len());
        let mut vals = Vec::with_capacity(t.len());
        let mut last_rc: Option<(usize, usize)> = None;
        for (r, c, v) in t {
            if last_rc == Some((r, c)) {
                *vals.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                vals.push(v);
                last_rc = Some((r, c));
            }
            row_ptr[r + 1] = col_idx.len();
        }
        // Make row_ptr cumulative over empty rows too.
        for r in 0..rows {
            row_ptr[r + 1] = row_ptr[r + 1].max(row_ptr[r]);
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// The matrix as sorted (row, col, value) triplets — the inverse of
    /// [`Csr::from_triplets`] for duplicate-free input.
    pub fn to_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.push((r, self.col_idx[i], self.vals[i]));
            }
        }
        out
    }

    /// Stored nonzero count.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Length of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }
}

/// Reference `y = A·x`, accumulating each row's nonzeros in CSR order
/// with fused multiply-adds — bit-identical to the emulated kernel
/// (zero-padding contributes `0·0 + acc = acc` exactly).
pub fn reference_spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols);
    let mut y = vec![0.0; a.rows];
    for (r, yr) in y.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for i in a.row_ptr[r]..a.row_ptr[r + 1] {
            acc = a.vals[i].mul_add(x[a.col_idx[i]], acc);
        }
        *yr = acc;
    }
    y
}

/// Builds the SpMV inner loop for a row block of chunk depth `chunks`.
///
/// Register map: `v0` = the 8 row accumulators of this thread's slice,
/// `v31` = the current chunk of packed values. Stream map: `A` = packed
/// values (one base for the block, thread-strided by `8·chunks`), `B` =
/// this thread's pre-gathered `x` chunks, `C` = the slice's `y` vector.
fn build_spmv_kernel(chunks: usize) -> (Program, Program) {
    assert!(chunks >= 1);
    let tstride = SLICE_ROWS * chunks;
    let mut body = Program::new();
    body.push(Instr::PrefetchL1(
        Addr::new(StreamId::A, LINE_ELEMS, SPMV_PF_DIST * LINE_ELEMS).with_thread_scale(tstride),
    ));
    body.push(Instr::Load {
        dst: 31,
        addr: Addr::new(StreamId::A, LINE_ELEMS, 0).with_thread_scale(tstride),
    });
    body.push(Instr::PrefetchL1(Addr::new(
        StreamId::B,
        LINE_ELEMS,
        SPMV_PF_DIST * LINE_ELEMS,
    )));
    body.push(Instr::Fmadd {
        acc: 0,
        src: Operand::Mem(Addr::new(StreamId::B, LINE_ELEMS, 0)),
        b: 31,
    });
    // Two u-pipe-only `vprefetch1` turns close the iteration. They claim
    // no L1 port, so each is a hole in which one deferred L1 fill can
    // complete — exactly the two fills the iteration queued above. The
    // balance (2 fills in, 2 holes out) is what keeps the steady state on
    // the L1-hit path instead of the Fig. 1c forced-stall path.
    body.push(Instr::PrefetchL2(
        Addr::new(StreamId::A, LINE_ELEMS, SPMV_PF_L2_DIST * LINE_ELEMS).with_thread_scale(tstride),
    ));
    body.push(Instr::PrefetchL2(Addr::new(
        StreamId::B,
        LINE_ELEMS,
        SPMV_PF_L2_DIST * LINE_ELEMS,
    )));
    let mut epi = Program::new();
    epi.push(Instr::Store {
        src: 0,
        addr: Addr::new(StreamId::C, 0, 0),
    });
    #[cfg(debug_assertions)]
    for (what, p) in [("body", &body), ("epilogue", &epi)] {
        let errs = crate::disasm::validate(p);
        assert!(
            errs.is_empty(),
            "generated spmv {what} is invalid: {errs:?}"
        );
    }
    (body, epi)
}

/// The listing shipped to static analysis: a canonical chunk depth, deep
/// enough that the lint walk sees disjoint per-thread slices.
const SPMV_LINT_CHUNKS: usize = 512;

/// The SpMV listing `phi-lint` and the conformance suite analyze.
pub fn spmv_listing() -> (Program, Program) {
    build_spmv_kernel(SPMV_LINT_CHUNKS)
}

/// Outcome of emulating `y = A·x` over every row block.
#[derive(Clone, Debug)]
pub struct SpmvReport {
    /// Matrix shape.
    pub rows: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Padded nonzeros actually streamed (the balance overhead).
    pub padded_nnz: usize,
    /// Total cycles across all row blocks.
    pub cycles_total: u64,
    /// Aggregated emulator counters.
    pub stats: RunStats,
    /// The computed `y`.
    pub y: Vec<f64>,
}

impl SpmvReport {
    /// Useful flops per cycle achieved by the emulated core (peak = 16).
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles_total == 0 {
            0.0
        } else {
            2.0 * self.nnz as f64 / self.cycles_total as f64
        }
    }
}

struct BlockLayout {
    a_base: usize,
    b_base: [usize; BLOCK_SLICES],
    c_base: [usize; BLOCK_SLICES],
    total: usize,
}

fn block_layout(chunks: usize) -> BlockLayout {
    let a_len = BLOCK_SLICES * SLICE_ROWS * chunks;
    let b_len = SLICE_ROWS * chunks;
    let mut cursor = a_len;
    let b_base = std::array::from_fn(|_| {
        let base = cursor;
        cursor += b_len;
        base
    });
    let c_base = std::array::from_fn(|_| {
        let base = cursor;
        cursor += SLICE_ROWS;
        base
    });
    BlockLayout {
        a_base: 0,
        b_base,
        c_base,
        total: cursor,
    }
}

/// Emulates `y = A·x` block by block (interpreter path).
pub fn run_spmv(a: &Csr, x: &[f64], cfg: PipelineConfig) -> SpmvReport {
    run_spmv_impl(a, x, cfg, false).0
}

/// [`run_spmv`] with the block-trace fast path enabled. The report is
/// bit-identical to the interpreter's; the extras are the aggregated
/// trace counters and the overall coverage speedup.
pub fn run_spmv_traced(a: &Csr, x: &[f64], cfg: PipelineConfig) -> (SpmvReport, TraceStats, f64) {
    let (rep, extra) = run_spmv_impl(a, x, cfg, true);
    let (stats, speedup) = extra.expect("tracing was enabled");
    (rep, stats, speedup)
}

fn run_spmv_impl(
    a: &Csr,
    x: &[f64],
    cfg: PipelineConfig,
    traced: bool,
) -> (SpmvReport, Option<(TraceStats, f64)>) {
    assert_eq!(x.len(), a.cols, "x length");
    let blocks = a.rows.div_ceil(BLOCK_ROWS);
    let mut y = vec![0.0; a.rows];
    let mut cycles_total = 0u64;
    let mut stats = RunStats::default();
    let mut trace = TraceStats::default();
    let mut replayed_cycles = 0u64;
    let mut padded_nnz = 0usize;

    for blk in 0..blocks {
        let row0 = blk * BLOCK_ROWS;
        let chunks = (row0..(row0 + BLOCK_ROWS).min(a.rows))
            .map(|r| a.row_len(r))
            .max()
            .unwrap_or(1)
            .max(1);
        padded_nnz += BLOCK_ROWS.min(a.rows - row0) * chunks;

        let (body, epi) = build_spmv_kernel(chunks);
        let l = block_layout(chunks);
        let mut mem = vec![0.0; l.total];
        for t in 0..BLOCK_SLICES {
            for lane in 0..SLICE_ROWS {
                let r = row0 + t * SLICE_ROWS + lane;
                if r >= a.rows {
                    continue;
                }
                for (p, i) in (a.row_ptr[r]..a.row_ptr[r + 1]).enumerate() {
                    mem[l.a_base + (t * chunks + p) * SLICE_ROWS + lane] = a.vals[i];
                    mem[l.b_base[t] + p * SLICE_ROWS + lane] = x[a.col_idx[i]];
                }
            }
        }
        let threads: [StreamBases; BLOCK_SLICES] = std::array::from_fn(|t| StreamBases {
            a: l.a_base,
            b: l.b_base[t],
            c: l.c_base[t],
        });
        let mut sim = CoreSim::new(cfg, mem);
        // The packing stage just wrote the value and x-gather buffers:
        // they are L2-resident, so prefetches pay the L2-hit latency.
        sim.warm_l2(l.a_base, BLOCK_SLICES * SLICE_ROWS * chunks);
        sim.warm_l2(l.b_base[0], BLOCK_SLICES * SLICE_ROWS * chunks);
        if traced {
            sim.enable_trace();
        }
        cycles_total += sim.run(&body, &epi, chunks, &threads);
        let s = sim.stats();
        stats.cycles += s.cycles;
        stats.vector_issued += s.vector_issued;
        stats.fmadds += s.fmadds;
        stats.vpipe_issued += s.vpipe_issued;
        stats.fill_stall_cycles += s.fill_stall_cycles;
        stats.demand_stall_cycles += s.demand_stall_cycles;
        stats.fills_in_holes += s.fills_in_holes;
        stats.fills_completed += s.fills_completed;
        if let Some(ts) = sim.trace_stats() {
            trace.recorded_segments += ts.recorded_segments;
            trace.templates_formed += ts.templates_formed;
            trace.replayed_segments += ts.replayed_segments;
            trace.replayed_cycles += ts.replayed_cycles;
            trace.guard_misses += ts.guard_misses;
            trace.deopts += ts.deopts;
            trace.invalidations += ts.invalidations;
            replayed_cycles += ts.replayed_cycles;
        }
        for t in 0..BLOCK_SLICES {
            for lane in 0..SLICE_ROWS {
                let r = row0 + t * SLICE_ROWS + lane;
                if r < a.rows {
                    y[r] = sim.mem()[l.c_base[t] + lane];
                }
            }
        }
    }

    let extra = traced.then(|| {
        let interpreted = cycles_total.saturating_sub(replayed_cycles);
        let speedup = if cycles_total == 0 || interpreted == 0 {
            1.0
        } else {
            cycles_total as f64 / interpreted as f64
        };
        (trace, speedup)
    });
    (
        SpmvReport {
            rows: a.rows,
            nnz: a.nnz(),
            padded_nnz,
            cycles_total,
            stats,
            y,
        },
        extra,
    )
}

/// A deterministic banded test matrix: `band` nonzeros per row, columns
/// wrapping modulo `n`, values seeded from an FNV-mixed counter.
pub fn banded_csr(n: usize, band: usize, seed: u64) -> Csr {
    let mut triplets = Vec::with_capacity(n * band);
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for r in 0..n {
        for j in 0..band {
            let c = (r + j * 7 + 1) % n;
            h ^= (r * band + j) as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            triplets.push((r, c, v));
        }
    }
    Csr::from_triplets(n, n, &triplets)
}

/// A deterministic rectangular matrix with exactly `per_row` nonzeros in
/// every row — deep uniform slices, the shape the replay fast path sees
/// in a long inner loop.
pub fn uniform_rect_csr(rows: usize, per_row: usize, seed: u64) -> Csr {
    let cols = (8 * per_row).max(16);
    let mut triplets = Vec::with_capacity(rows * per_row);
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for r in 0..rows {
        for j in 0..per_row {
            let c = (r * 13 + j * 11 + 1) % cols;
            h ^= (r * per_row + j) as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            triplets.push((r, c, v));
        }
    }
    Csr::from_triplets(rows, cols, &triplets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trips_through_triplets() {
        let a = banded_csr(40, 3, 1);
        let b = Csr::from_triplets(a.rows, a.cols, &a.to_triplets());
        assert_eq!(a, b);
    }

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let a = Csr::from_triplets(2, 4, &[(1, 3, 2.0), (0, 1, 1.0), (1, 3, 0.5), (1, 0, -1.0)]);
        assert_eq!(a.row_ptr, vec![0, 1, 3]);
        assert_eq!(a.col_idx, vec![1, 0, 3]);
        assert_eq!(a.vals, vec![1.0, -1.0, 2.5]);
    }

    #[test]
    fn emulated_spmv_matches_reference_bitwise() {
        let a = banded_csr(80, 5, 7); // 80 rows: 2 full blocks + a ragged one
        let x: Vec<f64> = (0..a.cols).map(|i| 0.25 + i as f64 * 0.5).collect();
        let rep = run_spmv(&a, &x, PipelineConfig::default());
        assert_eq!(rep.y, reference_spmv(&a, &x));
        assert_eq!(rep.nnz, 400);
    }

    #[test]
    fn traced_spmv_is_bit_identical_and_replays() {
        let a = uniform_rect_csr(BLOCK_ROWS, 300, 11); // one deep block
        let x: Vec<f64> = (0..a.cols).map(|i| (i % 17) as f64 - 8.0).collect();
        let slow = run_spmv(&a, &x, PipelineConfig::default());
        let (fast, ts, speedup) = run_spmv_traced(&a, &x, PipelineConfig::default());
        assert_eq!(slow.cycles_total, fast.cycles_total);
        assert_eq!(slow.stats, fast.stats);
        assert_eq!(slow.y, fast.y);
        assert!(
            ts.replayed_segments > 100,
            "deep spmv block must replay: {ts:?}"
        );
        assert!(speedup > 1.5, "coverage speedup {speedup:.2}");
    }

    /// Authoring aid: sweep prefetch distances and print trace-engine
    /// behaviour. `cargo test -p phi-knc --lib probe_spmv -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn probe_spmv_replay() {
        let a = uniform_rect_csr(BLOCK_ROWS, 300, 11);
        let x: Vec<f64> = (0..a.cols).map(|i| (i % 17) as f64 - 8.0).collect();
        let (rep, ts, speedup) = run_spmv_traced(&a, &x, PipelineConfig::default());
        println!(
            "dist={SPMV_PF_DIST} cycles={} fill_stall={} demand_stall={} holes={} {ts:?} speedup={speedup:.2}",
            rep.cycles_total,
            rep.stats.fill_stall_cycles,
            rep.stats.demand_stall_cycles,
            rep.stats.fills_in_holes,
        );
    }

    #[test]
    fn kernel_balances_fills_against_holes() {
        // Every vector slot touches memory (zero register reuse), and the
        // body ends in exactly two u-pipe-only vprefetch1 turns — one
        // port-free hole per L1 fill the iteration queues.
        let (body, _) = spmv_listing();
        for i in &body.body {
            if i.is_vector() {
                assert!(i.uses_l1_read_port(), "{i:?} must read memory");
            }
        }
        let l2_pf = body
            .body
            .iter()
            .filter(|i| matches!(i, Instr::PrefetchL2(_)))
            .count();
        let l1_pf = body
            .body
            .iter()
            .filter(|i| matches!(i, Instr::PrefetchL1(_)))
            .count();
        assert_eq!(l2_pf, l1_pf, "one hole per queued fill");
        assert!(matches!(body.body.last(), Some(Instr::PrefetchL2(_))));
    }
}
