//! `phi-lint` — static kernel verifier and issue-slot analyzer.
//!
//! The paper's single-core argument (§III-A, Fig. 1–2) is *static*: Basic
//! Kernel 1 vs Kernel 2 are compared by counting issue slots, L1 port
//! occupancy, and prefetch-fill conflicts before a single cycle runs.
//! This crate turns that reasoning into four checked passes over a kernel
//! [`Program`]:
//!
//! 1. `dataflow` — def-use over the 32 vregs (uninitialized reads, dead
//!    stores, accumulator clobbers);
//! 2. `slots` — a static U/V-pipe pairing model yielding steady-state
//!    turns per iteration and port-free holes;
//! 3. `ports` — prefetch coverage, cooperative-split, and write-port
//!    lints plus the fills-per-iteration count;
//! 4. `addrs` — alignment, stride-vs-line, thread-overlap checks.
//!
//! [`analyze`] combines them into a [`Report`]: a diagnostic list plus a
//! [`StaticModel`] whose cycle lower bound is cross-checked against the
//! cycle-accurate emulator by the gate tests (`tests/gate.rs` and the
//! `phi lint` in `phi-bench`) — the static↔dynamic consistency gate.
//!
//! A second pass family verifies the *cluster* side of the paper — the
//! communication plans and data distributions of Section V — instead of
//! the kernel:
//!
//! 5. [`schedule`] — rendezvous-semantics execution of materialized
//!    send/recv programs ([`phi_fabric::schedule::CommSchedule`]):
//!    wait-cycle deadlocks, orphaned receivers, unmatched sends, and
//!    ops routed through dead ranks;
//! 6. [`ownership`] — a block-cyclic ownership prover: exactly-once
//!    live coverage and conservation across patch remaps,
//!    cross-checked against the closed forms the simulators charge;
//! 7. [`determinism`] — a source scan of the simulator/fault crates for
//!    seed bypasses, hash-order iteration, and unordered float
//!    reductions.
//!
//! Kernel findings carry stable `K###` codes, schedule findings `S###`
//! (`diag::SchedKind::code`); both render through the same
//! `diag::render_finding` shape and serialize to JSON for CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod addrs;
mod dataflow;
pub mod determinism;
pub mod diag;
pub mod fixtures;
pub mod ownership;
mod ports;
pub mod schedule;
mod slots;

use diag::{Diagnostic, Region};
pub use diag::{LintKind, SchedDiagnostic, SchedKind, Severity};
pub use ownership::OwnershipMap;

use phi_knc::pipeline::PipelineConfig;
use phi_knc::{Instr, Program};

use phi_knc::RooflineClass;

/// Analysis parameters (defaults mirror the emulator's machine model).
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// Hardware threads sharing the core (the paper's kernels use 4).
    pub threads: usize,
    /// Pipeline timings the stall estimate is calibrated against.
    pub pipeline: PipelineConfig,
    /// Declared roofline class of the listing under analysis.
    ///
    /// The default, [`RooflineClass::ComputeBound`], keeps the historical
    /// behaviour: every wasted dual-issue slot and every unabsorbed
    /// prefetch fill is a finding, because a compute-bound kernel could
    /// have scheduled around them. Declaring
    /// [`RooflineClass::BandwidthBound`] tells the analyzer the kernel
    /// has zero register reuse by construction — every vector slot must
    /// read memory, so lone-`vprefetch` hole turns (K004) and the
    /// fills-vs-holes balance (K005) are the listing's *operating point*.
    /// Both stay priced in the [`StaticModel`]; they just stop being
    /// diagnostics.
    pub class: RooflineClass,
}

impl Default for LintConfig {
    fn default() -> Self {
        let pipeline = PipelineConfig::default();
        Self {
            threads: pipeline.threads_per_core,
            pipeline,
            class: RooflineClass::default(),
        }
    }
}

/// The analyzer's closed-form performance model of one kernel: everything
/// the paper derives from the listing alone, in one place.
#[derive(Clone, Copy, Debug)]
pub struct StaticModel {
    /// Vector (U-pipe) instructions per iteration.
    pub u_slots: usize,
    /// Vector multiply-adds among them.
    pub fmadds: usize,
    /// Hardware threads sharing the core.
    pub threads: usize,
    /// Issue turns per `iters` loop iterations (one thread).
    pub turns: usize,
    /// Loop iterations covered by `turns`.
    pub iters: usize,
    /// L1-port-free turns per `iters` iterations (one thread).
    pub holes: usize,
    /// Distinct L1 lines filled by `vprefetch0` per aggregate iteration
    /// (all threads).
    pub fills_per_iter: f64,
    /// Stall charged when a deferred fill is forced through (Fig. 1c).
    pub fill_stall_cycles: u64,
}

impl StaticModel {
    /// Instruction-mix bound: FMAs / vector slots — exactly 31/32 for
    /// Basic Kernel 1 and 30/32 for Basic Kernel 2.
    pub fn theoretical_efficiency(&self) -> f64 {
        if self.u_slots == 0 {
            0.0
        } else {
            self.fmadds as f64 / self.u_slots as f64
        }
    }

    /// Issue turns per iteration for one thread.
    fn turns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.turns as f64 / self.iters as f64
        }
    }

    /// Port-free cycles per aggregate iteration (all threads).
    fn holes_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.threads as f64 * self.holes as f64 / self.iters as f64
        }
    }

    /// Fills that cannot land in holes, per aggregate iteration.
    fn fill_deficit(&self) -> f64 {
        (self.fills_per_iter - self.holes_per_iter()).max(0.0)
    }

    /// Extra cycles per aggregate iteration lost to forced fill stalls.
    ///
    /// Each forced stall costs `fill_stall_cycles` but also opens that
    /// many port-free cycles, so one stall event retires `1 +
    /// fill_stall_cycles` deferred fills from the backlog.
    fn stall_cycles_per_iter(&self) -> f64 {
        let events = self.fill_deficit() / (1.0 + self.fill_stall_cycles as f64);
        events * self.fill_stall_cycles as f64
    }

    /// Static lower bound on steady-state cycles per aggregate iteration:
    /// every thread's turns, plus the fill-stall tax.
    pub fn cycles_per_iter_lower_bound(&self) -> f64 {
        self.threads as f64 * self.turns_per_iter() + self.stall_cycles_per_iter()
    }

    /// Steady-state FMA-efficiency bound implied by the cycle bound.
    fn steady_efficiency_bound(&self) -> f64 {
        let c = self.cycles_per_iter_lower_bound();
        if c == 0.0 {
            0.0
        } else {
            (self.threads * self.fmadds) as f64 / c
        }
    }
}

/// Result of analyzing one kernel.
#[derive(Clone, Debug)]
pub struct Report {
    /// All findings, in pass order.
    pub diags: Vec<Diagnostic>,
    /// The static performance model.
    pub model: StaticModel,
}

impl Report {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// True when any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Renders the model summary followed by every diagnostic.
    pub fn render(&self) -> String {
        let m = &self.model;
        let mut out = format!(
            "slots: {}/{} fmadd ({:.1}% theoretical) | turns/iter {:.2} | \
             holes/iter {:.1} | fills/iter {:.1} | cycle LB {:.2}/iter \
             ({:.1}% steady bound)\n",
            m.fmadds,
            m.u_slots,
            100.0 * m.theoretical_efficiency(),
            m.turns_per_iter(),
            m.holes_per_iter(),
            m.fills_per_iter,
            m.cycles_per_iter_lower_bound(),
            100.0 * m.steady_efficiency_bound(),
        );
        if self.diags.is_empty() {
            out.push_str("clean: no findings\n");
        }
        for d in &self.diags {
            out.push_str(&d.render());
        }
        out
    }
}

/// Analyzes a kernel with the default machine model.
pub fn analyze(body: &Program, epilogue: &Program) -> Report {
    analyze_with(&LintConfig::default(), body, epilogue)
}

/// Analyzes a kernel: runs all four passes and assembles the static
/// performance model.
pub fn analyze_with(cfg: &LintConfig, body: &Program, epilogue: &Program) -> Report {
    let mut diags = dataflow::check(body, epilogue);
    let (slot, slot_diags) = slots::analyze(body);
    diags.extend(slot_diags);
    let (port, port_diags) = ports::analyze(body, cfg.threads);
    diags.extend(port_diags);
    diags.extend(addrs::check(body, epilogue));

    // A declared bandwidth-bound listing reserves lone-`vprefetch` turns
    // as deliberate fill holes — with zero register reuse there is no
    // vector instruction free of the L1 port to pair them with. The
    // wasted slot is the class's operating point, not a finding.
    if cfg.class == RooflineClass::BandwidthBound {
        diags.retain(|d| {
            !(matches!(d.kind, LintKind::UnpairedVpipe)
                && d.region == Region::Body
                && matches!(
                    body.body.get(d.at),
                    Some(Instr::PrefetchL1(_) | Instr::PrefetchL2(_))
                ))
        });
    }

    let model = StaticModel {
        u_slots: body.vector_count(),
        fmadds: body.fmadd_count(),
        threads: cfg.threads,
        turns: slot.turns,
        iters: slot.iters,
        holes: slot.holes,
        fills_per_iter: port.fills_per_iter,
        fill_stall_cycles: cfg.pipeline.fill_stall_cycles,
    };

    // The Fig. 1c conflict: more fills arrive per iteration than there
    // are port-free holes to absorb them — Basic Kernel 1's fate. For a
    // bandwidth-bound listing the deficit is priced into the cycle bound
    // instead of flagged: the memory system pacing the loop is the
    // declared design, not a scheduling defect.
    if cfg.class == RooflineClass::ComputeBound && model.fill_deficit() > 1e-9 {
        let at = body
            .body
            .iter()
            .position(|i| matches!(i, Instr::PrefetchL1(_)))
            .unwrap_or(0);
        diags.push(Diagnostic::new(
            LintKind::FillConflict {
                fills: model.fills_per_iter.round() as usize,
                holes: model.holes_per_iter().round() as usize,
            },
            Region::Body,
            at,
            body,
            format!(
                "{:.0} prefetch fills arrive per iteration but only {:.0} port-free \
                 holes exist to absorb them: deferred fills will force ~{:.2} stall \
                 cycles per iteration",
                model.fills_per_iter,
                model.holes_per_iter(),
                model.stall_cycles_per_iter()
            ),
        ));
    }

    Report { diags, model }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_blas::gemm::MicroKernelKind;
    use phi_knc::kernels::build_basic_kernel;

    #[test]
    fn kernel1_model_reproduces_the_paper() {
        let (body, epi) = build_basic_kernel(MicroKernelKind::Kernel1);
        let r = analyze(&body, &epi);
        assert!(!r.has_errors(), "{}", r.render());
        assert!((r.model.theoretical_efficiency() - 31.0 / 32.0).abs() < 1e-12);
        // Port-bound: the fill conflict is flagged and priced in.
        assert!(r
            .diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::FillConflict { fills: 8, holes: 0 })));
        assert!(r.model.cycles_per_iter_lower_bound() > 128.0);
    }

    #[test]
    fn kernel2_model_is_conflict_free() {
        let (body, epi) = build_basic_kernel(MicroKernelKind::Kernel2);
        let r = analyze(&body, &epi);
        assert!(r.diags.is_empty(), "{}", r.render());
        assert!((r.model.theoretical_efficiency() - 30.0 / 32.0).abs() < 1e-12);
        assert!((r.model.cycles_per_iter_lower_bound() - 128.0).abs() < 1e-9);
        assert!((r.model.steady_efficiency_bound() - 30.0 / 32.0).abs() < 1e-9);
    }

    fn bandwidth_cfg() -> LintConfig {
        LintConfig {
            class: RooflineClass::BandwidthBound,
            ..LintConfig::default()
        }
    }

    #[test]
    fn spmv_listing_is_clean_and_bandwidth_shaped() {
        // The performance-lab SpMV body balances its two L1 fills against
        // two lone-vprefetch1 holes. Under its declared class the
        // analyzer finds nothing, and fills match holes exactly.
        let (body, epi) = phi_knc::spmv::spmv_listing();
        let r = analyze_with(&bandwidth_cfg(), &body, &epi);
        assert!(r.diags.is_empty(), "{}", r.render());
        assert!((r.model.fills_per_iter - r.model.holes_per_iter()).abs() < 1e-9);
    }

    #[test]
    fn stencil_listing_is_clean_and_bandwidth_shaped() {
        let (body, epi) = phi_knc::stencil::stencil_listing();
        let r = analyze_with(&bandwidth_cfg(), &body, &epi);
        assert!(r.diags.is_empty(), "{}", r.render());
        assert!(r.model.fills_per_iter <= r.model.holes_per_iter() + 1e-9);
    }

    #[test]
    fn default_class_still_flags_hole_turns_as_unpaired() {
        // The class knob only relaxes what is *declared*: under the
        // compute-bound default the same SpMV listing keeps its two K004
        // findings, so existing kernels see bit-identical analysis.
        let (body, epi) = phi_knc::spmv::spmv_listing();
        let r = analyze(&body, &epi);
        let k004 = r
            .diags
            .iter()
            .filter(|d| matches!(d.kind, LintKind::UnpairedVpipe))
            .count();
        assert_eq!(k004, 2, "{}", r.render());
    }

    #[test]
    fn bandwidth_class_does_not_suppress_real_findings() {
        // A bandwidth-bound declaration must not blanket-silence K004:
        // only lone *prefetches* are the hole idiom. A lone scalar op
        // still wastes its dual-issue slot for real.
        let mut body = Program::new();
        body.push(Instr::ScalarOp);
        body.push(Instr::ScalarOp);
        let epi = Program::new();
        let r = analyze_with(&bandwidth_cfg(), &body, &epi);
        assert!(
            r.diags
                .iter()
                .any(|d| matches!(d.kind, LintKind::UnpairedVpipe)),
            "{}",
            r.render()
        );
    }

    #[test]
    fn kernel2_bound_beats_kernel1_bound() {
        // The heart of the paper, derived statically: Kernel 1's higher
        // instruction-mix efficiency loses once stalls are priced in.
        let (b1, e1) = build_basic_kernel(MicroKernelKind::Kernel1);
        let (b2, e2) = build_basic_kernel(MicroKernelKind::Kernel2);
        let r1 = analyze(&b1, &e1);
        let r2 = analyze(&b2, &e2);
        assert!(r1.model.theoretical_efficiency() > r2.model.theoretical_efficiency());
        assert!(r2.model.steady_efficiency_bound() > r1.model.steady_efficiency_bound());
    }

    #[test]
    fn report_renders_model_line_and_diags() {
        let (body, epi) = build_basic_kernel(MicroKernelKind::Kernel1);
        let r = analyze(&body, &epi);
        let text = r.render();
        assert!(text.contains("31/32"), "{text}");
        assert!(text.contains("warning[K005:fill-conflict]"), "{text}");
    }
}
