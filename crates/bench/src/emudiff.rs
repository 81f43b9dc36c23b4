//! The emulator-equivalence gate behind `phi emu_diff` (and the CI job
//! of the same name). Two checks, both deterministic:
//!
//! 1. **Differential sweep**: both paper kernels × blocking depths ×
//!    pipeline variants, run through the per-instruction interpreter and
//!    the block-trace fast path; cycles, every counter, and the C tiles
//!    must be bit-identical, and the fast path must actually engage.
//! 2. **Parallel-DES digest comparison**: the reference rank-level
//!    cluster DES at 1, 2 and 8 worker threads; every report digest
//!    must be byte-identical.
//!
//! With `inject`, a single bit of divergence is injected into each
//! comparison (an off-by-one cycle count, a flipped DES digest bit); the
//! gate must reject both, proving the comparisons are live.

use phi_blas::gemm::MicroKernelKind;
use phi_fabric::ProcessGrid;
use phi_hpl::hybrid::{simulate_cluster_rankdes, HybridConfig};
use phi_knc::kernels::{run_tile_product, run_tile_product_traced};
use phi_knc::PipelineConfig;

/// Seeded A panel and the four per-thread B panels of one tile product
/// at inner depth `depth`.
pub(crate) fn tile_inputs(kind: MicroKernelKind, depth: usize) -> (Vec<f64>, [Vec<f64>; 4]) {
    let mr = match kind {
        MicroKernelKind::Kernel1 => 31,
        MicroKernelKind::Kernel2 => 30,
    };
    let a: Vec<f64> = (0..mr * depth)
        .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
        .collect();
    let bs: [Vec<f64>; 4] = std::array::from_fn(|t| {
        (0..depth * 8)
            .map(|i| ((i * 5 + t) % 17) as f64 - 8.0)
            .collect()
    });
    (a, bs)
}

/// Runs the kernel differential sweep; returns human-readable failure
/// lines (empty = pass). `inject` perturbs the fast path's reported
/// cycle count on one sweep point, which the comparison must flag.
pub(crate) fn differential_sweep(inject: bool) -> Vec<String> {
    let mut fails = Vec::new();
    let mut replayed = 0u64;
    let variants = [
        PipelineConfig::default(),
        PipelineConfig {
            mem_latency: 340,
            demand_mem_penalty: 340,
            fill_defer_threshold: 4,
            fill_stall_cycles: 3,
            ..PipelineConfig::default()
        },
    ];
    for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
        for depth in [64usize, 192] {
            for (ci, cfg) in variants.iter().enumerate() {
                let (a, bs) = tile_inputs(kind, depth);
                let slow = run_tile_product(kind, depth, &a, &bs, *cfg);
                let (mut fast, ts, _) = run_tile_product_traced(kind, depth, &a, &bs, *cfg);
                replayed += ts.replayed_segments;
                if inject && ci == 0 && depth == 64 && kind == MicroKernelKind::Kernel1 {
                    fast.cycles_total += 1;
                }
                let tag = format!("{kind:?} depth={depth} cfg#{ci}");
                if fast.cycles_total != slow.cycles_total {
                    fails.push(format!(
                        "{tag}: cycles diverged (fast {} vs slow {})",
                        fast.cycles_total, slow.cycles_total
                    ));
                }
                if fast.stats != slow.stats {
                    fails.push(format!("{tag}: counters diverged"));
                }
                let bits = |t: &Vec<Vec<f64>>| -> Vec<Vec<u64>> {
                    t.iter()
                        .map(|v| v.iter().map(|x| x.to_bits()).collect())
                        .collect()
                };
                if bits(&fast.c_tiles) != bits(&slow.c_tiles) {
                    fails.push(format!("{tag}: C tiles diverged"));
                }
            }
        }
    }
    if replayed == 0 {
        fails.push("fast path never engaged across the sweep".into());
    }
    fails
}

/// Runs the rank-level cluster DES at several thread counts; every
/// digest must agree with the 1-thread reference. Returns the reference
/// line for the report and the failure lines. `inject` flips one digest
/// bit, which the comparison must flag.
pub(crate) fn des_digest_compare(inject: bool) -> (String, Vec<String>) {
    let mut fails = Vec::new();
    let cfg = HybridConfig::new(160_000, ProcessGrid::new(4, 4), 2);
    let reference = simulate_cluster_rankdes(&cfg, 1);
    let line = format!(
        "parallel-des reference: events={} windows={} digest={:#018x}\n",
        reference.parallel.events, reference.parallel.windows, reference.parallel.digest
    );
    for threads in [2usize, 8] {
        let mut r = simulate_cluster_rankdes(&cfg, threads);
        if inject && threads == 8 {
            r.parallel.digest ^= 1;
        }
        if r.parallel != reference.parallel {
            fails.push(format!(
                "DES diverged at --threads {threads}: digest {:#018x} vs {:#018x}",
                r.parallel.digest, reference.parallel.digest
            ));
        }
    }
    (line, fails)
}
