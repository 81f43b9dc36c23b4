//! The performance-lab workload abstraction (DESIGN.md §17).
//!
//! The paper's pipeline reasons about exactly one kernel — DGEMM inside
//! HPL. This module names the three things that reasoning actually
//! consumed, so other kernels can ride the same machinery:
//!
//! 1. an **instruction listing** — the emulated inner loop `phi-lint`
//!    analyzes, the ISA conformance tables pin down, and the emulator
//!    executes bit-exactly;
//! 2. a **traffic model** — what one rank moves over the fabric per
//!    outer iteration (HPL's panel broadcast + long swap, SpMV's `x`
//!    allgather, the stencil's face-halo exchange);
//! 3. a **roofline class** — which side of the ridge the operating point
//!    sits on, i.e. whether the listing's fill deficit is a finding or
//!    its design (see `phi_lint::LintConfig::class`).
//!
//! A [`Workload`] is the bundle of all three. [`WorkloadKind`] enumerates
//! the shipped implementations for CLI surfaces (`phi-bench --workload`).
//!
//! The module also carries the stencil's *cluster* stage: a
//! discrete-event bulk-synchronous sweep loop
//! ([`simulate_stencil_cluster`]) in which every rank computes its local
//! block at the roofline rate and then exchanges face halos over
//! serialized per-rank NICs — the lab's analogue of the hybrid-HPL
//! stage loop.

use phi_des::{Kind, Sim};
use phi_fabric::{HaloSpec, NetModel};
use phi_knc::spmv::{spmv_listing, Csr};
use phi_knc::stencil::{stencil_listing, StarStencil};
use phi_knc::{build_basic_kernel, KncChip, Program, RooflineClass, RooflinePoint};
use std::cell::RefCell;
use std::rc::Rc;

/// One kernel viewed the way the paper's pipeline views DGEMM: a listing
/// to verify, a traffic model to charge, and a roofline class to reason
/// under.
pub trait Workload {
    /// Stable lowercase name (CLI flags, report rows).
    fn name(&self) -> &'static str;

    /// The inner-loop listing `(body, epilogue)` the static and
    /// conformance layers run over.
    fn listing(&self) -> (Program, Program);

    /// Roofline placement of the operator on `chip`.
    fn roofline(&self, chip: &KncChip) -> RooflinePoint;

    /// Bytes the busiest rank moves over the fabric in one outer
    /// iteration (an HPL stage, an SpMV mat-vec, a stencil sweep).
    fn bytes_per_rank(&self) -> f64;

    /// Analytic time of one communication phase under `net`.
    fn exchange_s(&self, net: &NetModel) -> f64;

    /// Declared class, for handing to `phi_lint::LintConfig`.
    fn class(&self, chip: &KncChip) -> RooflineClass {
        self.roofline(chip).class
    }
}

/// The shipped workloads, for CLI parsing and iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The paper's own kernel: packed-tile DGEMM under HPL.
    Dgemm,
    /// Sliced-ELLPACK CSR sparse mat-vec (bandwidth-bound).
    Spmv,
    /// Radius-`r` star stencil with face-halo exchange.
    Stencil,
}

impl WorkloadKind {
    /// All kinds, in the order CLI surfaces list them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Dgemm,
        WorkloadKind::Spmv,
        WorkloadKind::Stencil,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Dgemm => "dgemm",
            WorkloadKind::Spmv => "spmv",
            WorkloadKind::Stencil => "stencil",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// HPL's DGEMM as a [`Workload`]: Basic Kernel 2 plus the stage-loop
/// collectives (panel broadcast along the row, long swap down the
/// column) at the first, widest stage.
#[derive(Clone, Copy, Debug)]
pub struct DgemmWorkload {
    /// Global problem order.
    pub n: usize,
    /// Panel/block width.
    pub nb: usize,
    /// Process grid rows.
    pub p: usize,
    /// Process grid columns.
    pub q: usize,
}

impl Workload for DgemmWorkload {
    fn name(&self) -> &'static str {
        WorkloadKind::Dgemm.name()
    }

    fn listing(&self) -> (Program, Program) {
        build_basic_kernel(phi_blas::gemm::MicroKernelKind::Kernel2)
    }

    fn roofline(&self, chip: &KncChip) -> RooflinePoint {
        // Packed rank-nb update: 2·nb flops per 16 bytes of A+C traffic
        // per element once B is register-resident.
        phi_knc::roofline::place(chip, self.nb as f64 / 16.0)
    }

    fn bytes_per_rank(&self) -> f64 {
        let panel = 8.0 * (self.n / self.p.max(1)) as f64 * self.nb as f64;
        let swap = 2.0 * 8.0 * self.nb as f64 * (self.n / self.q.max(1)) as f64;
        panel + swap
    }

    fn exchange_s(&self, net: &NetModel) -> f64 {
        net.ring_bcast(
            8.0 * (self.n / self.p.max(1)) as f64 * self.nb as f64,
            self.q,
        ) + net.long_swap(self.nb, self.n / self.q.max(1), self.p)
    }
}

/// Row-blocked distributed SpMV as a [`Workload`]: the sliced-ELLPACK
/// kernel plus a ring allgather of the `x` vector (each of `ranks` ranks
/// owns `cols/ranks` entries and needs the rest for its row block).
#[derive(Clone, Debug)]
pub struct SpmvWorkload {
    /// Matrix shape/occupancy summary.
    pub rows: usize,
    /// Columns (= length of `x`).
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Ranks the rows are blocked over.
    pub ranks: usize,
}

impl SpmvWorkload {
    /// Summarizes a concrete matrix.
    pub fn from_csr(a: &Csr, ranks: usize) -> Self {
        assert!(ranks >= 1);
        Self {
            rows: a.rows,
            cols: a.cols,
            nnz: a.nnz(),
            ranks,
        }
    }

    /// Arithmetic intensity of `y = A·x` in flops per byte, charging the
    /// standard CSR traffic: 12 bytes per nonzero (8-byte value + 4-byte
    /// column index), one streaming pass over `x`, and a read+write of
    /// `y` plus the row pointers.
    fn arithmetic_intensity(&self) -> f64 {
        let flops = 2.0 * self.nnz as f64;
        let bytes = 12.0 * self.nnz as f64 + 8.0 * self.cols as f64 + 20.0 * self.rows as f64;
        flops / bytes.max(1.0)
    }
}

impl Workload for SpmvWorkload {
    fn name(&self) -> &'static str {
        WorkloadKind::Spmv.name()
    }

    fn listing(&self) -> (Program, Program) {
        spmv_listing()
    }

    fn roofline(&self, chip: &KncChip) -> RooflinePoint {
        phi_knc::roofline::place(chip, self.arithmetic_intensity())
    }

    fn bytes_per_rank(&self) -> f64 {
        if self.ranks <= 1 {
            return 0.0;
        }
        8.0 * self.cols as f64 * (self.ranks - 1) as f64 / self.ranks as f64
    }

    fn exchange_s(&self, net: &NetModel) -> f64 {
        if self.ranks <= 1 {
            return 0.0;
        }
        // Ring allgather: ranks−1 rounds, one x-share per round.
        (self.ranks - 1) as f64 * net.p2p(8.0 * self.cols as f64 / self.ranks as f64)
    }
}

/// The 3-D star stencil as a [`Workload`]: the tap-blocked kernel plus
/// the face-halo exchange of its decomposition.
#[derive(Clone, Debug)]
pub struct StencilWorkload {
    /// Coefficients (fix the tap count and the intensity).
    pub stencil: StarStencil,
    /// Domain decomposition the halo traffic follows.
    pub spec: HaloSpec,
}

impl StencilWorkload {
    /// Builds the workload, checking the decomposition supports the
    /// stencil's radius.
    pub fn new(stencil: StarStencil, spec: HaloSpec) -> Self {
        assert_eq!(
            stencil.radius, spec.radius,
            "halo depth must match the stencil radius"
        );
        Self { stencil, spec }
    }
}

impl Workload for StencilWorkload {
    fn name(&self) -> &'static str {
        WorkloadKind::Stencil.name()
    }

    fn listing(&self) -> (Program, Program) {
        stencil_listing()
    }

    fn roofline(&self, chip: &KncChip) -> RooflinePoint {
        self.stencil.roofline(chip)
    }

    fn bytes_per_rank(&self) -> f64 {
        self.spec.sent_bytes().into_iter().fold(0.0f64, f64::max)
    }

    fn exchange_s(&self, net: &NetModel) -> f64 {
        net.halo_exchange(&self.spec)
    }
}

/// Configuration of the stencil cluster stage.
#[derive(Clone, Debug)]
pub struct StencilClusterConfig {
    /// The workload (kernel + decomposition).
    pub workload: StencilWorkload,
    /// Bulk-synchronous sweeps to simulate.
    pub sweeps: usize,
    /// Inter-node rail.
    pub net: NetModel,
    /// Per-node chip (sets the compute rate via the roofline).
    pub chip: KncChip,
}

/// Outcome of [`simulate_stencil_cluster`].
#[derive(Clone, Debug)]
pub struct StencilClusterReport {
    /// End-to-end seconds for all sweeps.
    pub total_s: f64,
    /// Seconds the slowest rank spent computing.
    pub compute_s: f64,
    /// Seconds of halo exchange exposed on the critical path.
    pub halo_s: f64,
    /// Total bytes moved over the fabric.
    pub halo_bytes: f64,
    /// Discrete events the simulation fired.
    pub events: u64,
    /// Achieved GFLOPS over the whole domain.
    pub gflops: f64,
}

/// Runs `sweeps` bulk-synchronous stencil sweeps on the discrete-event
/// engine: every rank computes its local block at the bandwidth-roofline
/// rate, then books its face messages on its serialized NIC
/// ([`phi_des::Link`] semantics via [`NetModel`] constants); the sweep
/// barrier closes when the last rank's halo lands. Decomposed runs
/// always expose a nonzero halo stage; single-rank runs never touch the
/// network.
pub fn simulate_stencil_cluster(cfg: &StencilClusterConfig) -> StencilClusterReport {
    assert!(cfg.sweeps >= 1);
    let spec = cfg.workload.spec;
    let ranks = spec.rank_count();
    let point = cfg.workload.roofline(&cfg.chip);
    let rate = point.attainable_gflops.max(1e-9) * 1e9 / ranks as f64;
    let taps = cfg.workload.stencil.taps();
    let (nx, ny, nz) = spec.dims;
    let points_total = (nx * ny * nz) as f64;
    let flops_per_sweep_rank = 2.0 * taps as f64 * points_total / ranks as f64;
    let compute_per_sweep = flops_per_sweep_rank / rate;

    // Per-rank NICs: one serialized outbound link each.
    let nics = Rc::new(RefCell::new(vec![
        phi_des::Link::new(
            cfg.net.bandwidth,
            cfg.net.latency
        );
        ranks
    ]));
    let done = Rc::new(RefCell::new((0usize, 0.0f64))); // (ranks finished, last finish)

    let mut sim = Sim::new();
    sim.trace_mut().enable();
    let mut total_compute = 0.0f64;
    let mut total_halo = 0.0f64;

    for _ in 0..cfg.sweeps {
        let sweep_start = sim.now();
        *done.borrow_mut() = (0, sweep_start);
        for rank in 0..ranks {
            let nics = nics.clone();
            let done = done.clone();
            sim.schedule_at_ranked(sweep_start + compute_per_sweep, rank as u32, move |s| {
                // Compute finished; book this rank's face messages.
                let mut end = s.now();
                {
                    let mut nics = nics.borrow_mut();
                    for (from, _, bytes) in spec.messages() {
                        if from == rank {
                            let (_, e) = nics[from].transfer(s.now(), bytes);
                            end = end.max(e);
                        }
                    }
                }
                let mut d = done.borrow_mut();
                d.0 += 1;
                d.1 = d.1.max(end);
            });
        }
        sim.run();
        let (finished, last) = *done.borrow();
        assert_eq!(finished, ranks, "sweep barrier lost a rank");
        let sweep_end = last.max(sweep_start + compute_per_sweep);
        total_compute += compute_per_sweep;
        total_halo += sweep_end - (sweep_start + compute_per_sweep);
        sim.trace_mut().record(
            0,
            sweep_start + compute_per_sweep,
            sweep_end,
            if sweep_end > sweep_start + compute_per_sweep {
                Kind::Comm
            } else {
                Kind::Barrier
            },
        );
        // Next sweep starts at the barrier.
        sim.schedule_at(sweep_end, |_| {});
        sim.run();
    }

    let total_s = sim.now();
    let halo_bytes = nics.borrow().iter().map(|l| l.bytes_moved()).sum();
    StencilClusterReport {
        total_s,
        compute_s: total_compute,
        halo_s: total_halo,
        halo_bytes,
        events: sim.events_fired(),
        gflops: 2.0 * taps as f64 * points_total * cfg.sweeps as f64 / total_s / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn four_rank_workload(radius: usize) -> StencilWorkload {
        let coeffs = vec![0.25; 6 * radius + 1];
        StencilWorkload::new(
            StarStencil::new(radius, coeffs),
            HaloSpec::new((96, 96, 96), (2, 2, 1), radius),
        )
    }

    #[test]
    fn kinds_parse_their_own_names() {
        for k in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::parse(k.name()), Some(k));
        }
        assert_eq!(WorkloadKind::parse("hpl"), None);
    }

    #[test]
    fn workloads_disagree_on_roofline_class() {
        let chip = KncChip::default();
        let dgemm = DgemmWorkload {
            n: 28_000,
            nb: 960,
            p: 2,
            q: 2,
        };
        let spmv = SpmvWorkload {
            rows: 1 << 20,
            cols: 1 << 20,
            nnz: 16 << 20,
            ranks: 4,
        };
        let stencil = four_rank_workload(1);
        assert_eq!(dgemm.class(&chip), RooflineClass::ComputeBound);
        assert_eq!(spmv.class(&chip), RooflineClass::BandwidthBound);
        assert_eq!(stencil.class(&chip), RooflineClass::BandwidthBound);
    }

    #[test]
    fn every_workload_ships_a_listing_with_an_epilogue_store() {
        let chip = KncChip::default();
        let workloads: [&dyn Workload; 3] = [
            &DgemmWorkload {
                n: 8_000,
                nb: 960,
                p: 2,
                q: 2,
            },
            &SpmvWorkload {
                rows: 4096,
                cols: 4096,
                nnz: 65_536,
                ranks: 2,
            },
            &four_rank_workload(2),
        ];
        for w in workloads {
            let (body, epi) = w.listing();
            assert!(!body.body.is_empty(), "{}", w.name());
            assert!(!epi.body.is_empty(), "{}", w.name());
            let p = w.roofline(&chip);
            assert!(p.attainable_gflops > 0.0);
        }
    }

    #[test]
    fn exchange_times_are_positive_and_scale_with_the_fabric() {
        let net = NetModel::default();
        let slow = net.degraded(0.25, 0.0);
        let spmv = SpmvWorkload {
            rows: 1 << 20,
            cols: 1 << 20,
            nnz: 16 << 20,
            ranks: 4,
        };
        let stencil = four_rank_workload(1);
        for w in [&spmv as &dyn Workload, &stencil] {
            let t = w.exchange_s(&net);
            assert!(t > 0.0, "{}", w.name());
            assert!(w.exchange_s(&slow) > t, "{}", w.name());
            assert!(w.bytes_per_rank() > 0.0, "{}", w.name());
        }
    }

    #[test]
    fn stencil_cluster_stage_exposes_nonzero_halo_time() {
        let cfg = StencilClusterConfig {
            workload: four_rank_workload(1),
            sweeps: 8,
            net: NetModel::default(),
            chip: KncChip::default(),
        };
        let rep = simulate_stencil_cluster(&cfg);
        assert!(rep.halo_s > 0.0, "{rep:?}");
        assert!(rep.compute_s > 0.0);
        assert!(rep.total_s >= rep.compute_s + rep.halo_s - 1e-12);
        assert!(rep.events >= 8 * 4, "{}", rep.events);
        let expected = cfg.workload.spec.total_bytes() * 8.0;
        assert!((rep.halo_bytes - expected).abs() < 1e-6, "{rep:?}");
    }

    #[test]
    fn undivided_stencil_cluster_never_touches_the_network() {
        let radius = 1;
        let w = StencilWorkload::new(
            StarStencil::seven_point(-6.0, 1.0),
            HaloSpec::new((64, 64, 64), (1, 1, 1), radius),
        );
        let cfg = StencilClusterConfig {
            workload: w,
            sweeps: 3,
            net: NetModel::default(),
            chip: KncChip::default(),
        };
        let rep = simulate_stencil_cluster(&cfg);
        assert_eq!(rep.halo_bytes, 0.0);
        assert_eq!(rep.halo_s, 0.0);
        assert!(rep.total_s > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = StencilClusterConfig {
            workload: four_rank_workload(2),
            sweeps: 5,
            net: NetModel::default(),
            chip: KncChip::default(),
        };
        let a = simulate_stencil_cluster(&cfg);
        let b = simulate_stencil_cluster(&cfg);
        assert_eq!(a.total_s.to_bits(), b.total_s.to_bits());
        assert_eq!(a.halo_bytes.to_bits(), b.halo_bytes.to_bits());
    }
}
