//! The multi-kernel performance lab: every [`WorkloadKind`] run through
//! the same pipeline DGEMM always had — listing → lint → emulator →
//! roofline → fabric — one row per workload.
//!
//! Two consumers share this module:
//!
//! * `phi workloads` (`--workload dgemm|spmv|stencil`) renders
//!   `lab_rows` for one or all workloads;
//! * `phi workload-diff` runs `workload_diff`, the workload-conformance
//!   gate (differential equivalence on both new kernels, zero lint
//!   diagnostics on the shipped listings, rank-level halo-volume
//!   conservation), whose must-fail self-test is a unit test below.
//!
//! Everything is deterministic model output: same tree, same bytes.

use crate::TextTable;
use phi_fabric::{HaloSpec, NetModel};
use phi_hpl::{
    simulate_stencil_cluster, DgemmWorkload, SpmvWorkload, StencilClusterConfig,
    StencilClusterReport, StencilWorkload, Workload, WorkloadKind,
};
use phi_knc::spmv::{banded_csr, reference_spmv, run_spmv, run_spmv_traced, Csr};
use phi_knc::stencil::{reference_stencil, run_stencil, StarStencil};
use phi_knc::{KncChip, PipelineConfig, RooflineClass};
use phi_lint::LintConfig;

/// Rows in the lab's reference SpMV matrix — big enough for a real
/// steady state, small enough that the gate stays fast.
const SPMV_REF_ROWS: usize = 1024;
/// Stored nonzeros per row of the reference band.
const SPMV_REF_BAND: usize = 24;
/// The lab's reference sparse matrix: a seeded band, uniform enough
/// that padding overhead is 1 (every cycle is stream traffic).
fn reference_csr() -> Csr {
    banded_csr(SPMV_REF_ROWS, SPMV_REF_BAND, crate::FIXTURE_SEED)
}

/// The lab's reference stencil: the radius-1 seven-point operator.
pub fn reference_star() -> StarStencil {
    StarStencil::seven_point(-6.0, 1.0)
}

/// The lab's reference decomposition: a 96³ box over a 2 × 2 × 1 grid —
/// two decomposed axes, so every sweep ships face halos.
fn reference_halo_spec() -> HaloSpec {
    HaloSpec::new((96, 96, 96), (2, 2, 1), 1)
}

fn reference_x(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| ((i * 5 + 3) % 17) as f64 - 8.0).collect()
}

fn reference_grid(nx: usize, ny: usize, lz: usize) -> Vec<f64> {
    (0..nx * ny * 8 * lz)
        .map(|i| ((i * 7 + 1) % 13) as f64 - 6.0)
        .collect()
}

/// The reference 8-sweep stencil cluster DES.
pub(crate) fn reference_stencil_cluster() -> StencilClusterReport {
    simulate_stencil_cluster(&StencilClusterConfig {
        workload: StencilWorkload::new(reference_star(), reference_halo_spec()),
        sweeps: 8,
        net: NetModel::default(),
        chip: KncChip::default(),
    })
}

/// Per-core GFLOPS the emulated core achieves on the reference SpMV at
/// the KNC clock. Deterministic cycle arithmetic — it moves only when
/// the SpMV listing, the blocking or the memory system model changes.
pub(crate) fn spmv_gflops() -> f64 {
    let a = reference_csr();
    let x = reference_x(a.cols);
    let rep = run_spmv(&a, &x, PipelineConfig::default());
    rep.flops_per_cycle() * KncChip::default().freq_ghz
}

/// One row of the lab table.
#[derive(Clone, Debug)]
pub(crate) struct LabRow {
    /// Which workload.
    pub kind: WorkloadKind,
    /// Declared roofline class on the reference chip.
    pub class: RooflineClass,
    /// Arithmetic intensity (flops per DRAM byte).
    pub flops_per_byte: f64,
    /// Roofline-attainable GFLOPS (native 60-core chip).
    pub attainable_gflops: f64,
    /// Lint diagnostics on the shipped listing under its class.
    pub lint_diags: usize,
    /// Analytic seconds of one communication phase on the default rail.
    pub exchange_s: f64,
}

fn lint_count(w: &dyn Workload, chip: &KncChip) -> usize {
    let (body, epi) = w.listing();
    let cfg = LintConfig {
        class: w.class(chip),
        ..LintConfig::default()
    };
    phi_lint::analyze_with(&cfg, &body, &epi).diags.len()
}

fn lab_workload(kind: WorkloadKind) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::Dgemm => Box::new(DgemmWorkload {
            n: 28_000,
            nb: 960,
            p: 2,
            q: 2,
        }),
        WorkloadKind::Spmv => Box::new(SpmvWorkload::from_csr(&reference_csr(), 4)),
        WorkloadKind::Stencil => Box::new(StencilWorkload::new(
            reference_star(),
            reference_halo_spec(),
        )),
    }
}

/// Builds the lab rows for the given kinds (`phi` passes one kind
/// under `--workload`, or all three by default).
pub(crate) fn lab_rows(kinds: &[WorkloadKind]) -> Vec<LabRow> {
    let chip = KncChip::default();
    let net = NetModel::default();
    kinds
        .iter()
        .map(|&kind| {
            let w = lab_workload(kind);
            let p = w.roofline(&chip);
            LabRow {
                kind,
                class: p.class,
                flops_per_byte: p.flops_per_byte,
                attainable_gflops: p.attainable_gflops,
                lint_diags: lint_count(w.as_ref(), &chip),
                exchange_s: w.exchange_s(&net),
            }
        })
        .collect()
}

/// Renders the lab table plus the two headline kernel measurements.
pub(crate) fn lab_render(rows: &[LabRow]) -> String {
    let mut t = TextTable::new([
        "workload",
        "class",
        "flops/byte",
        "roofline GF",
        "lint",
        "exchange s",
    ]);
    for r in rows {
        t.row([
            r.kind.name().to_string(),
            r.class.name().to_string(),
            format!("{:.3}", r.flops_per_byte),
            format!("{:.1}", r.attainable_gflops),
            r.lint_diags.to_string(),
            format!("{:.6}", r.exchange_s),
        ]);
    }
    let mut out = t.render();
    if rows.iter().any(|r| r.kind == WorkloadKind::Spmv) {
        out.push_str(&format!(
            "spmv emulated per-core gflops: {:.4}\n",
            spmv_gflops()
        ));
    }
    if rows.iter().any(|r| r.kind == WorkloadKind::Stencil) {
        let rep = reference_stencil_cluster();
        out.push_str(&format!(
            "stencil cluster: total {:.6} s, compute {:.6} s, halo {:.6} s ({:.0} bytes)\n",
            rep.total_s, rep.compute_s, rep.halo_s, rep.halo_bytes
        ));
    }
    out
}

/// The workload-conformance gate: returns human-readable failure lines
/// (empty = pass). `inject` perturbs one SpMV result bit and one halo
/// message, both of which the comparisons must flag — the gate's
/// must-fail self-test, run by the unit test below.
pub(crate) fn workload_diff(inject: bool) -> Vec<String> {
    let mut fails = Vec::new();

    // 1. SpMV differential equivalence: interpreter vs block-trace fast
    //    path, and both vs the pure-Rust reference, bit for bit.
    let a = reference_csr();
    let x = reference_x(a.cols);
    let slow = run_spmv(&a, &x, PipelineConfig::default());
    let (mut fast, ts, _) = run_spmv_traced(&a, &x, PipelineConfig::default());
    if inject {
        fast.y[0] = f64::from_bits(fast.y[0].to_bits() ^ 1);
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&fast.y) != bits(&slow.y) {
        fails.push("spmv: y diverged between interpreter and trace fast path".into());
    }
    if fast.cycles_total != slow.cycles_total || fast.stats != slow.stats {
        fails.push("spmv: cycles/counters diverged between emulator paths".into());
    }
    if bits(&slow.y) != bits(&reference_spmv(&a, &x)) {
        fails.push("spmv: emulated y diverged from the reference".into());
    }
    if ts.replayed_segments == 0 {
        fails.push("spmv: trace fast path never engaged".into());
    }

    // 2. Stencil differential equivalence: emulated sweep vs reference.
    let st = reference_star();
    let dims = (12, 10, 2);
    let grid = reference_grid(dims.0, dims.1, dims.2);
    let rep = run_stencil(&st, dims, &grid, PipelineConfig::default());
    if bits(&rep.out) != bits(&reference_stencil(&st, dims, &grid)) {
        fails.push("stencil: emulated sweep diverged from the reference".into());
    }

    // 3. Shipped listings must lint clean under their declared class.
    let chip = KncChip::default();
    for kind in [WorkloadKind::Spmv, WorkloadKind::Stencil] {
        let n = lint_count(lab_workload(kind).as_ref(), &chip);
        if n != 0 {
            fails.push(format!(
                "{}: listing has {n} lint diagnostic(s)",
                kind.name()
            ));
        }
    }

    // 4. Halo-volume conservation, rank by rank: every byte a rank sends
    //    is received, and the injected extra message must break it.
    let spec = reference_halo_spec();
    let mut sent = vec![0.0f64; spec.rank_count()];
    let mut recv = vec![0.0f64; spec.rank_count()];
    for (from, to, bytes) in spec.messages() {
        sent[from] += bytes;
        recv[to] += bytes;
    }
    if inject {
        sent[0] += 64.0;
    }
    for r in 0..spec.rank_count() {
        if (sent[r] - recv[r]).abs() > 1e-9 {
            fails.push(format!(
                "halo: rank {r} sent {} bytes but received {}",
                sent[r], recv[r]
            ));
            break;
        }
    }

    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_covers_all_workloads_with_clean_listings() {
        let rows = lab_rows(&WorkloadKind::ALL);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(
                r.lint_diags,
                0,
                "{}: listing must lint clean",
                r.kind.name()
            );
            assert!(r.attainable_gflops > 0.0);
        }
        let class = |k: WorkloadKind| rows.iter().find(|r| r.kind == k).unwrap().class;
        assert_eq!(class(WorkloadKind::Dgemm), RooflineClass::ComputeBound);
        assert_eq!(class(WorkloadKind::Spmv), RooflineClass::BandwidthBound);
        assert_eq!(class(WorkloadKind::Stencil), RooflineClass::BandwidthBound);
        let text = lab_render(&rows);
        for k in WorkloadKind::ALL {
            assert!(text.contains(k.name()), "{text}");
        }
    }

    #[test]
    fn gate_metrics_are_positive_and_deterministic() {
        let g = spmv_gflops();
        assert_eq!(g.to_bits(), spmv_gflops().to_bits());
        // Bandwidth-bound: a small fraction of the 17.6 GF per-core
        // peak, but nonzero — the steady state stays on the L1-hit path.
        assert!(
            g > 0.0 && g < 8.0,
            "spmv operating point drifted off the bandwidth roof: {g}"
        );
        let h = reference_stencil_cluster().halo_s;
        assert!(h > 0.0, "stencil cluster exposed no halo stage");
        assert_eq!(h.to_bits(), reference_stencil_cluster().halo_s.to_bits());
    }

    #[test]
    fn diff_gate_passes_clean_and_catches_injections() {
        assert_eq!(workload_diff(false), Vec::<String>::new());
        let fails = workload_diff(true);
        assert!(
            fails.iter().any(|f| f.contains("spmv: y diverged")),
            "{fails:?}"
        );
        assert!(fails.iter().any(|f| f.starts_with("halo:")), "{fails:?}");
    }
}
