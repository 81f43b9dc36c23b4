//! The static↔dynamic consistency gate.
//!
//! The analyzer must (a) pass the paper kernels with zero errors while
//! reproducing their 31/32 vs 30/32 theoretical efficiencies exactly,
//! (b) predict steady-state cycles within 5% of the cycle-accurate
//! emulator, and (c) have every diagnostic kind demonstrated by a broken
//! fixture. Tier-1 runs this via `cargo test`; `phi lint` renders it.

use phi_blas::gemm::MicroKernelKind;
use phi_knc::kernels::{build_basic_kernel, kernel_mr, run_tile_product, NR};
use phi_knc::pipeline::PipelineConfig;
use phi_lint::{analyze, LintKind};

/// Deterministic pseudo-random tile data (no RNG dependency needed).
fn tiles(mr: usize, depth: usize, seed: u64) -> (Vec<f64>, [Vec<f64>; 4]) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let a: Vec<f64> = (0..mr * depth).map(|_| next()).collect();
    let bs = std::array::from_fn(|_| (0..depth * NR).map(|_| next()).collect());
    (a, bs)
}

#[test]
fn paper_kernels_have_zero_errors() {
    for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
        let (body, epi) = build_basic_kernel(kind);
        let report = analyze(&body, &epi);
        assert!(
            !report.has_errors(),
            "{kind:?} must be error-free:\n{}",
            report.render()
        );
    }
}

#[test]
fn theoretical_efficiencies_are_exact() {
    let (b1, e1) = build_basic_kernel(MicroKernelKind::Kernel1);
    let (b2, e2) = build_basic_kernel(MicroKernelKind::Kernel2);
    let m1 = analyze(&b1, &e1).model;
    let m2 = analyze(&b2, &e2).model;
    assert_eq!((m1.fmadds, m1.u_slots), (31, 32));
    assert_eq!((m2.fmadds, m2.u_slots), (30, 32));
    assert!((m1.theoretical_efficiency() - 31.0 / 32.0).abs() < 1e-15);
    assert!((m2.theoretical_efficiency() - 30.0 / 32.0).abs() < 1e-15);
}

#[test]
fn kernel1_flags_the_fill_conflict_kernel2_does_not() {
    let (b1, e1) = build_basic_kernel(MicroKernelKind::Kernel1);
    let r1 = analyze(&b1, &e1);
    assert!(
        r1.diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::FillConflict { .. })),
        "{}",
        r1.render()
    );
    let (b2, e2) = build_basic_kernel(MicroKernelKind::Kernel2);
    let r2 = analyze(&b2, &e2);
    assert!(r2.diags.is_empty(), "{}", r2.render());
}

/// The headline check: the static cycle lower bound agrees with the
/// cycle-accurate emulator to within 5% for both Fig. 2 kernels.
#[test]
fn static_bound_matches_emulator_within_5_percent() {
    let depth = 300;
    for (kind, seed) in [(MicroKernelKind::Kernel1, 3), (MicroKernelKind::Kernel2, 4)] {
        let (body, epi) = build_basic_kernel(kind);
        let model = analyze(&body, &epi).model;
        let (a, bs) = tiles(kernel_mr(kind), depth, seed);
        let rep = run_tile_product(kind, depth, &a, &bs, PipelineConfig::default());

        let predicted = model.cycles_per_iter_lower_bound();
        let measured = rep.steady_cycles_per_iter;
        let rel = (measured - predicted).abs() / measured;
        assert!(
            rel < 0.05,
            "{kind:?}: static bound {predicted:.2} vs emulated {measured:.2} \
             cycles/iter ({:.1}% apart)",
            100.0 * rel
        );
        assert!(
            predicted <= measured * 1.005,
            "{kind:?}: a lower bound must not exceed the measurement \
             (static {predicted:.2}, emulated {measured:.2})"
        );
    }
}

#[test]
fn every_diagnostic_kind_fires_on_its_fixture() {
    let fixtures = phi_lint::fixtures::all();
    assert_eq!(fixtures.len(), LintKind::all_names().len());
    for f in fixtures {
        let report = analyze(&f.body, &f.epilogue);
        assert!(
            report.diags.iter().any(|d| d.kind.name() == f.expect),
            "fixture `{}` did not trip `{}`:\n{}",
            f.name,
            f.expect,
            report.render()
        );
    }
}
