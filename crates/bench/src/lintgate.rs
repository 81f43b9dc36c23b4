//! The static↔dynamic lint gate behind `phi lint`.
//!
//! Three obligations, mirroring `phi-lint`'s own gate tests but packaged
//! as a runnable report with a process exit code:
//!
//! 1. both paper kernels analyze with **zero errors**;
//! 2. the analyzer's static cycle lower bound agrees with the
//!    cycle-accurate emulator within `TOLERANCE` for both kernels;
//! 3. every diagnostic kind fires on its deliberately-broken fixture.

use crate::format::TextTable;
use phi_blas::gemm::MicroKernelKind;
use phi_knc::kernels::{build_basic_kernel, kernel_mr, run_tile_product, NR};
use phi_knc::PipelineConfig;
use phi_lint::Severity;
use phi_matrix::HplRng;

/// Maximum allowed relative gap between the static cycle bound and the
/// emulator's steady-state measurement.
const TOLERANCE: f64 = 0.05;
/// Inner-loop depth used for the emulated steady-state measurement.
const DEPTH: usize = 300;

/// Gate verdict for one paper kernel.
#[derive(Clone, Debug)]
pub(crate) struct KernelGateRow {
    /// Kernel label.
    pub kernel: &'static str,
    /// FMAs per iteration.
    pub fmadds: usize,
    /// Vector slots per iteration.
    pub u_slots: usize,
    /// Static cycle lower bound per aggregate iteration.
    pub static_cycles: f64,
    /// Emulator-measured steady-state cycles per aggregate iteration.
    pub measured_cycles: f64,
    /// Error-severity findings (must be 0).
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Rendered analyzer report.
    pub report: String,
}

impl KernelGateRow {
    /// Relative gap between prediction and measurement.
    fn rel_err(&self) -> f64 {
        (self.measured_cycles - self.static_cycles).abs() / self.measured_cycles
    }

    /// True when this kernel satisfies the gate.
    fn passed(&self) -> bool {
        self.errors == 0 && self.rel_err() < TOLERANCE
    }
}

/// Gate verdict for one broken fixture.
#[derive(Clone, Debug)]
pub(crate) struct FixtureGateRow {
    /// Fixture scenario name.
    pub name: &'static str,
    /// Diagnostic kind it must trip.
    pub expect: &'static str,
    /// Whether the analyzer reported that kind.
    pub fired: bool,
}

/// Complete gate outcome.
#[derive(Clone, Debug)]
pub(crate) struct LintGate {
    /// One row per paper kernel.
    pub kernels: Vec<KernelGateRow>,
    /// One row per diagnostic fixture.
    pub fixtures: Vec<FixtureGateRow>,
}

fn measure_kernel(kind: MicroKernelKind) -> f64 {
    let mr = kernel_mr(kind);
    let mut rng = HplRng::new(match kind {
        MicroKernelKind::Kernel1 => 11,
        MicroKernelKind::Kernel2 => 12,
    });
    let a: Vec<f64> = (0..mr * DEPTH).map(|_| rng.next_value()).collect();
    let bs = std::array::from_fn(|_| (0..DEPTH * NR).map(|_| rng.next_value()).collect());
    run_tile_product(kind, DEPTH, &a, &bs, PipelineConfig::default()).steady_cycles_per_iter
}

/// Runs the full gate: analyzer + emulator cross-check + fixtures.
pub(crate) fn run() -> LintGate {
    let kernels = [
        (MicroKernelKind::Kernel1, "Basic Kernel 1"),
        (MicroKernelKind::Kernel2, "Basic Kernel 2"),
    ]
    .into_iter()
    .map(|(kind, kernel)| {
        let (body, epi) = build_basic_kernel(kind);
        let report = phi_lint::analyze(&body, &epi);
        KernelGateRow {
            kernel,
            fmadds: report.model.fmadds,
            u_slots: report.model.u_slots,
            static_cycles: report.model.cycles_per_iter_lower_bound(),
            measured_cycles: measure_kernel(kind),
            errors: report.errors().count(),
            warnings: report
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Warning)
                .count(),
            report: report.render(),
        }
    })
    .collect();

    let fixtures = phi_lint::fixtures::all()
        .into_iter()
        .map(|f| {
            let report = phi_lint::analyze(&f.body, &f.epilogue);
            FixtureGateRow {
                name: f.name,
                expect: f.expect,
                fired: report.diags.iter().any(|d| d.kind.name() == f.expect),
            }
        })
        .collect();

    LintGate { kernels, fixtures }
}

impl LintGate {
    /// True when every kernel and fixture obligation holds.
    pub(crate) fn passed(&self) -> bool {
        self.kernels.iter().all(|k| k.passed()) && self.fixtures.iter().all(|f| f.fired)
    }

    /// Renders the gate report: verdict tables plus the per-kernel
    /// analyzer output (the Kernel 1 vs Kernel 2 comparison).
    pub(crate) fn render(&self) -> String {
        let mut t = TextTable::new([
            "kernel",
            "fmadd/slots",
            "theoretical",
            "static cyc/iter",
            "emulated",
            "gap",
            "errors",
            "warnings",
        ]);
        for k in &self.kernels {
            t.row([
                k.kernel.to_string(),
                format!("{}/{}", k.fmadds, k.u_slots),
                format!("{:.1}%", 100.0 * k.fmadds as f64 / k.u_slots as f64),
                format!("{:.2}", k.static_cycles),
                format!("{:.2}", k.measured_cycles),
                format!("{:.2}%", 100.0 * k.rel_err()),
                k.errors.to_string(),
                k.warnings.to_string(),
            ]);
        }
        let mut f = TextTable::new(["fixture", "expected lint", "fired"]);
        for row in &self.fixtures {
            f.row([row.name, row.expect, if row.fired { "yes" } else { "NO" }]);
        }
        let mut out = format!(
            "static\u{2194}dynamic consistency gate (tolerance {:.0}%)\n{}\n{}\n",
            100.0 * TOLERANCE,
            t.render(),
            f.render()
        );
        for k in &self.kernels {
            out.push_str(&format!("{} analyzer report:\n{}\n", k.kernel, k.report));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }
}

impl LintGate {
    /// Renders the machine-readable report (`--json`): kernel verdicts
    /// (with stable `K###`-coded finding counts) plus the fixture
    /// self-test.
    pub(crate) fn render_json(&self) -> String {
        use phi_lint::diag::json_escape;
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                format!(
                    "{{\"kernel\":\"{}\",\"fmadds\":{},\"u_slots\":{},\"static_cycles\":{:.6},\
                     \"measured_cycles\":{:.6},\"rel_err\":{:.6},\"errors\":{},\"warnings\":{},\
                     \"passed\":{}}}",
                    json_escape(k.kernel),
                    k.fmadds,
                    k.u_slots,
                    k.static_cycles,
                    k.measured_cycles,
                    k.rel_err(),
                    k.errors,
                    k.warnings,
                    k.passed()
                )
            })
            .collect();
        let fixtures: Vec<String> = self
            .fixtures
            .iter()
            .map(|f| {
                format!(
                    "{{\"name\":\"{}\",\"expect\":\"{}\",\"fired\":{}}}",
                    json_escape(f.name),
                    f.expect,
                    f.fired
                )
            })
            .collect();
        format!(
            "{{\"gate\":\"lint\",\"passed\":{},\"tolerance\":{TOLERANCE},\"kernels\":[{}],\
             \"fixtures\":[{}]}}\n",
            self.passed(),
            kernels.join(","),
            fixtures.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_and_renders() {
        let gate = run();
        assert!(gate.passed(), "{}", gate.render());
        let text = gate.render();
        assert!(text.contains("31/32") && text.contains("30/32"), "{text}");
        assert!(text.contains("gate: PASS"), "{text}");
        assert_eq!(gate.fixtures.len(), phi_lint::LintKind::all_names().len());
        let j = gate.render_json();
        assert!(j.starts_with("{\"gate\":\"lint\",\"passed\":true"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
    }
}
