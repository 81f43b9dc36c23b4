//! One regenerator per table/figure of the paper's evaluation.
//!
//! Every function returns structured rows carrying both our measured
//! value and the paper's reported value (where the paper gives one), so
//! the `phi` subcommands — and `EXPERIMENTS.md` — can show them side by side.

use crate::format::TextTable;
use phi_blas::gemm::MicroKernelKind;
use phi_fabric::ProcessGrid;
use phi_hpl::hybrid::{simulate_cluster, HybridConfig, Lookahead};
use phi_hpl::native::{
    model::simulate_dynamic_traced, static_la::simulate_static_traced, NativeConfig,
};
use phi_hpl::offload::OffloadModel;
use phi_hpl::xeon::{XeonConfig, XeonModel};
use phi_knc::{GemmModel, KncChip, PipelineConfig, Precision};
use phi_matrix::HplRng;

// ---------------------------------------------------------------- Table I

/// Renders Table I: the system configurations.
pub(crate) fn table1_render() -> String {
    let knc = KncChip::default();
    let xeon = XeonConfig::default();
    let mut t = TextTable::new(["property", "Xeon E5-2670", "Xeon Phi (KNC)"]);
    t.row([
        "sockets x cores x SMT".to_string(),
        format!("{} x {} x 2", xeon.sockets, xeon.cores_per_socket),
        format!("1 x {} x 4", knc.cores_total),
    ]);
    t.row([
        "clock (GHz)".to_string(),
        format!("{:.1}", xeon.freq_ghz),
        format!("{:.1}", knc.freq_ghz),
    ]);
    t.row([
        "DP GFLOPS".to_string(),
        format!("{:.0}", xeon.peak_gflops()),
        format!("{:.0}", knc.full_peak_gflops(Precision::F64)),
    ]);
    t.row([
        "SP GFLOPS".to_string(),
        format!("{:.0}", 2.0 * xeon.peak_gflops()),
        format!("{:.0}", knc.full_peak_gflops(Precision::F32)),
    ]);
    t.row([
        "STREAM BW (GB/s)".to_string(),
        format!("{:.0}", xeon.stream_bw_gbs),
        format!("{:.0}", knc.stream_bw_gbs),
    ]);
    t.row([
        "memory".to_string(),
        format!("{:.0} GB DDR", xeon.dram_gib),
        format!("{:.0} GB GDDR", knc.memory_gib),
    ]);
    t.row([
        "PCIe BW (GB/s)".to_string(),
        format!("{:.0}", xeon.pcie_gbs),
        "-".to_string(),
    ]);
    t.render()
}

// --------------------------------------------------------------- Table II

/// One row of Table II.
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// Inner blocking.
    pub k: usize,
    /// Our SGEMM efficiency.
    pub sp_eff: f64,
    /// Our SGEMM GFLOPS.
    pub sp_gflops: f64,
    /// Our DGEMM efficiency.
    pub dp_eff: f64,
    /// Our DGEMM GFLOPS.
    pub dp_gflops: f64,
    /// Paper's SGEMM efficiency.
    pub paper_sp_eff: f64,
    /// Paper's DGEMM efficiency.
    pub paper_dp_eff: f64,
}

/// The Table II sweep: SGEMM/DGEMM efficiency vs `k` at M = N = 28,000.
pub fn table2_rows() -> Vec<Table2Row> {
    const PAPER: [(usize, f64, f64); 6] = [
        (120, 0.883, 0.867),
        (180, 0.893, 0.886),
        (240, 0.901, 0.891),
        (300, 0.904, 0.894),
        (340, 0.906, 0.893),
        (400, 0.908, 0.889),
    ];
    let m = GemmModel::default();
    PAPER
        .iter()
        .map(|&(k, psp, pdp)| Table2Row {
            k,
            sp_eff: m.efficiency_vs_k(k, Precision::F32),
            sp_gflops: m.gflops_vs_k(k, Precision::F32),
            dp_eff: m.efficiency_vs_k(k, Precision::F64),
            dp_gflops: m.gflops_vs_k(k, Precision::F64),
            paper_sp_eff: psp,
            paper_dp_eff: pdp,
        })
        .collect()
}

/// Renders Table II.
pub(crate) fn table2_render() -> String {
    let mut t = TextTable::new([
        "k", "SP eff", "SP GF", "SP paper", "DP eff", "DP GF", "DP paper",
    ]);
    for r in table2_rows() {
        t.row([
            r.k.to_string(),
            format!("{:.1}%", 100.0 * r.sp_eff),
            format!("{:.0}", r.sp_gflops),
            format!("{:.1}%", 100.0 * r.paper_sp_eff),
            format!("{:.1}%", 100.0 * r.dp_eff),
            format!("{:.0}", r.dp_gflops),
            format!("{:.1}%", 100.0 * r.paper_dp_eff),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------- Fig. 2

/// Outcome of emulating one basic kernel on the cycle-level core model.
#[derive(Clone, Debug)]
pub(crate) struct Fig2Row {
    /// Which kernel.
    pub kind: MicroKernelKind,
    /// FMAs per vector slot (31/32 or 30/32).
    pub theoretical: f64,
    /// Achieved steady-state FMA efficiency from the emulator.
    pub steady: f64,
    /// Pipeline stall cycles caused by blocked prefetch fills.
    pub fill_stalls: u64,
    /// Fills that landed in port-free holes.
    pub fills_in_holes: u64,
}

/// Emulates Basic Kernel 1 and 2 (k = 300) on the cycle-level model.
pub(crate) fn fig2_rows() -> Vec<Fig2Row> {
    let depth = 300;
    [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2]
        .into_iter()
        .map(|kind| {
            let mr = phi_knc::kernels::kernel_mr(kind);
            let mut rng = HplRng::new(7);
            let a: Vec<f64> = (0..mr * depth).map(|_| rng.next_value()).collect();
            let bs = std::array::from_fn(|_| {
                (0..depth * phi_knc::kernels::NR)
                    .map(|_| rng.next_value())
                    .collect()
            });
            let rep = phi_knc::run_tile_product(kind, depth, &a, &bs, PipelineConfig::default());
            Fig2Row {
                kind,
                theoretical: rep.theoretical_efficiency,
                steady: rep.steady_efficiency,
                fill_stalls: rep.stats.fill_stall_cycles,
                fills_in_holes: rep.stats.fills_in_holes,
            }
        })
        .collect()
}

/// Renders the Fig. 2 kernel comparison.
pub(crate) fn fig2_render() -> String {
    let mut t = TextTable::new([
        "kernel",
        "theoretical",
        "achieved",
        "fill stalls",
        "fills in holes",
    ]);
    for r in fig2_rows() {
        t.row([
            format!("{:?}", r.kind),
            format!("{:.1}%", 100.0 * r.theoretical),
            format!("{:.1}%", 100.0 * r.steady),
            r.fill_stalls.to_string(),
            r.fills_in_holes.to_string(),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------- Fig. 4

/// One point of Fig. 4.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig4Point {
    /// Matrix dimension (M = N).
    pub n: usize,
    /// Sandy Bridge EP MKL DGEMM GFLOPS.
    pub snb_gflops: f64,
    /// KNC outer-product kernel (k = 300, no packing) GFLOPS.
    pub knc_kernel_gflops: f64,
    /// KNC DGEMM including packing GFLOPS.
    pub knc_dgemm_gflops: f64,
    /// Packing overhead fraction.
    pub pack_overhead: f64,
}

/// The Fig. 4 size sweep.
pub(crate) fn fig4_series(sizes: &[usize]) -> Vec<Fig4Point> {
    let knc = GemmModel::default();
    let xeon = XeonModel::default();
    let peak = knc.chip.native_peak_gflops(Precision::F64);
    sizes
        .iter()
        .map(|&n| Fig4Point {
            n,
            snb_gflops: xeon.dgemm_gflops(n),
            knc_kernel_gflops: knc.outer_product_efficiency(n, n, 300, Precision::F64) * peak,
            knc_dgemm_gflops: knc.dgemm_efficiency(n, 300, Precision::F64) * peak,
            pack_overhead: knc.packing_overhead(n),
        })
        .collect()
}

/// Default Fig. 4 sizes: 1K..28K.
fn fig4_default_sizes() -> Vec<usize> {
    (1..=28).map(|i| i * 1000).collect()
}

/// Renders Fig. 4 as a table of series.
pub(crate) fn fig4_render() -> String {
    let mut t = TextTable::new(["N", "SNB MKL", "KNC kernel", "KNC dgemm", "pack ovh"]);
    for p in fig4_series(&fig4_default_sizes()) {
        t.row([
            p.n.to_string(),
            format!("{:.0}", p.snb_gflops),
            format!("{:.0}", p.knc_kernel_gflops),
            format!("{:.0}", p.knc_dgemm_gflops),
            format!("{:.1}%", 100.0 * p.pack_overhead),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------- Fig. 6

/// One point of Fig. 6.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig6Point {
    /// Problem size.
    pub n: usize,
    /// Sandy Bridge MKL SMP Linpack GFLOPS.
    pub snb_gflops: f64,
    /// KNC static look-ahead GFLOPS.
    pub static_gflops: f64,
    /// KNC dynamic scheduling GFLOPS.
    pub dynamic_gflops: f64,
}

/// The Fig. 6 native Linpack sweep.
pub(crate) fn fig6_series(sizes: &[usize]) -> Vec<Fig6Point> {
    let xeon = XeonModel::default();
    sizes
        .iter()
        .map(|&n| {
            let cfg = NativeConfig::new(n);
            let (dy, _) = simulate_dynamic_traced(&cfg, false);
            let (st, _) = simulate_static_traced(&cfg, false);
            Fig6Point {
                n,
                snb_gflops: xeon.hpl_gflops(n),
                static_gflops: st.gflops,
                dynamic_gflops: dy.gflops,
            }
        })
        .collect()
}

/// Default Fig. 6 sizes (1K to 30K, the 8 GB limit).
fn fig6_default_sizes() -> Vec<usize> {
    vec![
        1024, 2048, 4096, 6144, 8192, 10240, 12288, 16384, 20480, 24576, 28672, 30720,
    ]
}

/// Renders Fig. 6.
pub(crate) fn fig6_render() -> String {
    let mut t = TextTable::new(["N", "SNB MKL HPL", "KNC static", "KNC dynamic"]);
    for p in fig6_series(&fig6_default_sizes()) {
        t.row([
            p.n.to_string(),
            format!("{:.0}", p.snb_gflops),
            format!("{:.0}", p.static_gflops),
            format!("{:.0}", p.dynamic_gflops),
        ]);
    }
    t.render()
}

// ----------------------------------------------------------------- Fig. 7

/// The Fig. 7 Gantt charts for the 5K problem: `(static, dynamic)` ASCII
/// renderings plus per-kind totals.
pub(crate) fn fig7_gantt(width: usize) -> (String, String) {
    let cfg = NativeConfig::new(5120);
    let (st_rep, st_trace) = simulate_static_traced(&cfg, true);
    let (dy_rep, dy_trace) = simulate_dynamic_traced(&cfg, true);
    let render = |label: &str, rep: &phi_hpl::report::GigaflopsReport, trace: &phi_des::Trace| {
        let mut s = format!(
            "{label}: {:.0} GFLOPS ({:.1}%), {:.4}s\nlegend: P=DGETRF S=DLASWP T=DTRSM G=DGEMM .=barrier\n",
            rep.gflops,
            100.0 * rep.efficiency(),
            rep.time_s
        );
        s.push_str(&trace.gantt_ascii(width, rep.time_s));
        s.push_str("totals: ");
        for (k, v) in trace.totals() {
            s.push_str(&format!("{}={:.4}s ", k.label(), v));
        }
        s.push('\n');
        s
    };
    (
        render("static look-ahead (Fig. 7a)", &st_rep, &st_trace),
        render("dynamic scheduling (Fig. 7b)", &dy_rep, &dy_trace),
    )
}

// ----------------------------------------------------------------- Fig. 9

/// Summary of the Fig. 9 experiment (2×2 nodes, 2 cards, N = 84K).
#[derive(Clone, Debug)]
pub(crate) struct Fig9Summary {
    /// Exposure fraction of swap+DTRSM+U-bcast, early third, basic.
    pub basic_exposure: f64,
    /// Same for pipelined.
    pub pipelined_exposure: f64,
    /// Largest per-iteration time saving of pipelining.
    pub max_iteration_saving: f64,
    /// Per-iteration profiles (basic, pipelined).
    pub basic: Vec<phi_hpl::hybrid::IterationProfile>,
    /// See `basic`.
    pub pipelined: Vec<phi_hpl::hybrid::IterationProfile>,
}

/// Runs the Fig. 9 comparison.
pub(crate) fn fig9_summary() -> Fig9Summary {
    let mut cfg = HybridConfig::new(84_000, ProcessGrid::new(2, 2), 2);
    cfg.lookahead = Lookahead::Basic;
    let basic = simulate_cluster(&cfg, true);
    cfg.lookahead = Lookahead::Pipelined;
    let pipe = simulate_cluster(&cfg, true);

    let expo = |r: &phi_hpl::hybrid::ClusterResult| {
        let k = (r.iterations.len() / 3).max(1);
        let e: f64 = r.iterations[..k].iter().map(|i| i.three_exposed).sum();
        let t: f64 = r.iterations[..k].iter().map(|i| i.stage_time).sum();
        e / t
    };
    // Fig. 9c measures the saving "in the early and most time-consuming
    // iterations"; late, tiny stages have noisy ratios, so restrict to
    // the first (largest) third.
    let early = (basic.iterations.len() / 3).max(1);
    let max_saving = basic.iterations[..early]
        .iter()
        .zip(&pipe.iterations[..early])
        .map(|(b, p)| (b.stage_time - p.stage_time) / b.stage_time)
        .fold(0.0f64, f64::max);
    Fig9Summary {
        basic_exposure: expo(&basic),
        pipelined_exposure: expo(&pipe),
        max_iteration_saving: max_saving,
        basic: basic.iterations,
        pipelined: pipe.iterations,
    }
}

/// Renders the Fig. 9 per-iteration profile (sampled every 8 stages).
pub(crate) fn fig9_render() -> String {
    let s = fig9_summary();
    let mut t = TextTable::new([
        "trailing N",
        "basic t(s)",
        "basic exp",
        "pipe t(s)",
        "pipe exp",
        "saving",
    ]);
    for (b, p) in s.basic.iter().zip(&s.pipelined).step_by(8) {
        t.row([
            b.trailing_n.to_string(),
            format!("{:.3}", b.stage_time),
            format!("{:.1}%", 100.0 * b.three_exposed / b.stage_time),
            format!("{:.3}", p.stage_time),
            format!("{:.1}%", 100.0 * p.three_exposed / p.stage_time),
            format!(
                "{:.1}%",
                100.0 * (b.stage_time - p.stage_time) / b.stage_time
            ),
        ]);
    }
    format!(
        "{}\nearly-third exposure: basic {:.1}% (paper: >=13%), pipelined {:.1}% (paper: <3%)\n\
         max per-iteration saving: {:.1}% (paper: up to 11%)\n",
        t.render(),
        100.0 * s.basic_exposure,
        100.0 * s.pipelined_exposure,
        100.0 * s.max_iteration_saving
    )
}

// ---------------------------------------------------------------- Fig. 11

/// One point of Fig. 11.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fig11Point {
    /// Matrix dimension (M = N, Kt = 1200).
    pub n: usize,
    /// Single-card offload DGEMM GFLOPS / efficiency (vs 61-core peak).
    pub one_card_gflops: f64,
    /// See `one_card_gflops`.
    pub one_card_eff: f64,
    /// Dual-card GFLOPS / efficiency (vs 2×61-core peak).
    pub two_card_gflops: f64,
    /// See `two_card_gflops`.
    pub two_card_eff: f64,
}

/// The Fig. 11 offload-DGEMM sweep.
pub(crate) fn fig11_series(sizes: &[usize]) -> Vec<Fig11Point> {
    let model = OffloadModel::default();
    let peak1 = model.card.chip.full_peak_gflops(Precision::F64);
    sizes
        .iter()
        .map(|&n| {
            let one = model.simulate(n, n, 1, 0.0);
            let two = model.simulate(n, n, 2, 0.0);
            Fig11Point {
                n,
                one_card_gflops: one.gflops,
                one_card_eff: one.gflops / peak1,
                two_card_gflops: two.gflops,
                two_card_eff: two.gflops / (2.0 * peak1),
            }
        })
        .collect()
}

/// Default Fig. 11 sizes.
fn fig11_default_sizes() -> Vec<usize> {
    vec![
        10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 82_000,
    ]
}

/// Renders Fig. 11.
pub(crate) fn fig11_render() -> String {
    let mut t = TextTable::new([
        "M=N",
        "1 card GF",
        "1 card eff",
        "2 cards GF",
        "2 cards eff",
    ]);
    for p in fig11_series(&fig11_default_sizes()) {
        t.row([
            p.n.to_string(),
            format!("{:.0}", p.one_card_gflops),
            format!("{:.1}%", 100.0 * p.one_card_eff),
            format!("{:.0}", p.two_card_gflops),
            format!("{:.1}%", 100.0 * p.two_card_eff),
        ]);
    }
    t.render()
}

// --------------------------------------------------------------- Table III

/// One row of Table III.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Human-readable system description.
    pub system: String,
    /// Problem size.
    pub n: usize,
    /// Process rows.
    pub p: usize,
    /// Process columns.
    pub q: usize,
    /// Our TFLOPS.
    pub tflops: f64,
    /// Our efficiency.
    pub eff: f64,
    /// Paper's TFLOPS.
    pub paper_tflops: f64,
    /// Paper's efficiency (fraction).
    pub paper_eff: f64,
}

/// Runs every row of Table III.
pub fn table3_rows() -> Vec<Table3Row> {
    struct Spec {
        label: &'static str,
        n: usize,
        p: usize,
        q: usize,
        cards: usize,
        la: Lookahead,
        mem: f64,
        paper_tf: f64,
        paper_eff: f64,
    }
    let rows = [
        // CPU-only MKL MP Linpack.
        Spec {
            label: "Sandy Bridge EP, 64GB",
            n: 84_000,
            p: 1,
            q: 1,
            cards: 0,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 0.29,
            paper_eff: 0.864,
        },
        Spec {
            label: "Sandy Bridge EP, 64GB",
            n: 168_000,
            p: 2,
            q: 2,
            cards: 0,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 1.10,
            paper_eff: 0.828,
        },
        // One card.
        Spec {
            label: "no pipeline, 1 card, 64GB",
            n: 84_000,
            p: 1,
            q: 1,
            cards: 1,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 0.99,
            paper_eff: 0.710,
        },
        Spec {
            label: "pipeline, 1 card, 64GB",
            n: 84_000,
            p: 1,
            q: 1,
            cards: 1,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 1.12,
            paper_eff: 0.798,
        },
        Spec {
            label: "no pipeline, 1 card, 64GB",
            n: 168_000,
            p: 2,
            q: 2,
            cards: 1,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 3.88,
            paper_eff: 0.691,
        },
        Spec {
            label: "pipeline, 1 card, 64GB",
            n: 168_000,
            p: 2,
            q: 2,
            cards: 1,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 4.36,
            paper_eff: 0.776,
        },
        Spec {
            label: "no pipeline, 1 card, 64GB",
            n: 825_000,
            p: 10,
            q: 10,
            cards: 1,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 95.2,
            paper_eff: 0.677,
        },
        Spec {
            label: "pipeline, 1 card, 64GB",
            n: 825_000,
            p: 10,
            q: 10,
            cards: 1,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 107.0,
            paper_eff: 0.761,
        },
        // Two cards.
        Spec {
            label: "no pipeline, 2 cards, 64GB",
            n: 84_000,
            p: 1,
            q: 1,
            cards: 2,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 1.66,
            paper_eff: 0.682,
        },
        Spec {
            label: "pipeline, 2 cards, 64GB",
            n: 84_000,
            p: 1,
            q: 1,
            cards: 2,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 1.87,
            paper_eff: 0.766,
        },
        Spec {
            label: "no pipeline, 2 cards, 64GB",
            n: 166_000,
            p: 2,
            q: 2,
            cards: 2,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 6.36,
            paper_eff: 0.650,
        },
        Spec {
            label: "pipeline, 2 cards, 64GB",
            n: 166_000,
            p: 2,
            q: 2,
            cards: 2,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 7.15,
            paper_eff: 0.731,
        },
        Spec {
            label: "no pipeline, 2 cards, 64GB",
            n: 822_000,
            p: 10,
            q: 10,
            cards: 2,
            la: Lookahead::Basic,
            mem: 64.0,
            paper_tf: 156.5,
            paper_eff: 0.640,
        },
        Spec {
            label: "pipeline, 2 cards, 64GB",
            n: 822_000,
            p: 10,
            q: 10,
            cards: 2,
            la: Lookahead::Pipelined,
            mem: 64.0,
            paper_tf: 175.8,
            paper_eff: 0.719,
        },
        // Doubled host memory.
        Spec {
            label: "pipeline, 1 card, 128GB",
            n: 242_000,
            p: 2,
            q: 2,
            cards: 1,
            la: Lookahead::Pipelined,
            mem: 128.0,
            paper_tf: 4.42,
            paper_eff: 0.796,
        },
    ];
    rows.iter()
        .map(|s| {
            let mut cfg = HybridConfig::new(s.n, ProcessGrid::new(s.p, s.q), s.cards);
            cfg.lookahead = s.la;
            cfg.host_mem_gib = s.mem;
            let r = simulate_cluster(&cfg, false);
            Table3Row {
                system: s.label.to_string(),
                n: s.n,
                p: s.p,
                q: s.q,
                tflops: r.report.gflops / 1e3,
                eff: r.report.efficiency(),
                paper_tflops: s.paper_tf,
                paper_eff: s.paper_eff,
            }
        })
        .collect()
}

/// Renders Table III.
pub(crate) fn table3_render() -> String {
    let mut t = TextTable::new([
        "system",
        "N",
        "P",
        "Q",
        "TFLOPS",
        "eff",
        "paper TF",
        "paper eff",
    ]);
    for r in table3_rows() {
        t.row([
            r.system.clone(),
            r.n.to_string(),
            r.p.to_string(),
            r.q.to_string(),
            format!("{:.2}", r.tflops),
            format!("{:.1}%", 100.0 * r.eff),
            format!("{:.2}", r.paper_tflops),
            format!("{:.1}%", 100.0 * r.paper_eff),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_tracks_paper_within_half_point() {
        for r in table2_rows() {
            assert!((r.dp_eff - r.paper_dp_eff).abs() < 0.005, "k={}", r.k);
            assert!((r.sp_eff - r.paper_sp_eff).abs() < 0.005, "k={}", r.k);
        }
    }

    #[test]
    fn fig2_kernel2_wins() {
        let rows = fig2_rows();
        assert_eq!(rows.len(), 2);
        let k1 = &rows[0];
        let k2 = &rows[1];
        assert!(k1.theoretical > k2.theoretical);
        assert!(k2.steady > k1.steady);
        assert_eq!(k2.fill_stalls, 0);
    }

    #[test]
    fn fig4_ordering_holds() {
        // KNC kernel > KNC dgemm (packing) > SNB, at every size ≥ 2K.
        for p in fig4_series(&[2000, 10_000, 28_000]) {
            assert!(p.knc_kernel_gflops >= p.knc_dgemm_gflops, "n={}", p.n);
            assert!(p.knc_dgemm_gflops > p.snb_gflops, "n={}", p.n);
        }
    }

    #[test]
    fn fig6_dynamic_dominates_and_both_converge() {
        let pts = fig6_series(&[4096, 6144, 30_720]);
        for p in &pts {
            assert!(p.dynamic_gflops >= p.static_gflops * 0.99, "n={}", p.n);
            assert!(p.dynamic_gflops > p.snb_gflops, "KNC beats the host");
        }
        let last = pts.last().unwrap();
        assert!((last.dynamic_gflops - 832.0).abs() < 20.0);
        // In the crossover region (≈8K) the schemes are within 10% of
        // each other, converging again at 30K.
        let mid = &fig6_series(&[8192])[0];
        let ratio = mid.dynamic_gflops / mid.static_gflops;
        assert!((0.90..1.15).contains(&ratio), "crossover ratio {ratio:.3}");
    }

    #[test]
    fn fig7_charts_nonempty() {
        let (st, dy) = fig7_gantt(80);
        assert!(st.contains('P') && st.contains('G'));
        assert!(dy.contains('P') && dy.contains('G'));
    }

    #[test]
    fn fig9_savings_band() {
        let s = fig9_summary();
        assert!(s.basic_exposure > 0.10);
        assert!(s.pipelined_exposure < 0.03);
        // "Up to 11% can be saved per iteration due to swapping pipeline."
        assert!(
            (0.06..0.30).contains(&s.max_iteration_saving),
            "max saving {:.3}",
            s.max_iteration_saving
        );
    }

    #[test]
    fn fig11_82k_points() {
        let pts = fig11_series(&[82_000]);
        assert!((pts[0].one_card_eff - 0.854).abs() < 0.02);
        assert!((pts[0].two_card_eff - 0.83).abs() < 0.025);
    }

    #[test]
    fn table3_every_row_within_tolerance() {
        for r in table3_rows() {
            let d = (r.eff - r.paper_eff).abs();
            assert!(
                d < 0.05,
                "{} N={}: ours {:.3} vs paper {:.3}",
                r.system,
                r.n,
                r.eff,
                r.paper_eff
            );
        }
    }

    #[test]
    fn table3_orderings_match_paper() {
        let rows = table3_rows();
        // Pipelining beats no-pipelining on every paired row.
        for pair in rows.windows(2) {
            if pair[0].system.starts_with("no pipeline")
                && pair[1].system.starts_with("pipeline")
                && pair[0].n == pair[1].n
            {
                assert!(pair[1].eff > pair[0].eff, "N={}", pair[0].n);
            }
        }
        // Cluster efficiency below single node for the same config.
        let single = rows
            .iter()
            .find(|r| r.system == "pipeline, 1 card, 64GB" && r.p == 1)
            .unwrap();
        let cluster = rows
            .iter()
            .find(|r| r.system == "pipeline, 1 card, 64GB" && r.p == 10)
            .unwrap();
        assert!(cluster.eff < single.eff);
    }

    #[test]
    fn renders_are_nonempty() {
        assert!(table1_render().contains("STREAM"));
        assert!(table2_render().contains("89"));
        assert!(fig2_render().contains("Kernel2"));
        assert!(fig4_render().lines().count() > 20);
        assert!(fig11_render().contains("82000"));
    }
}
