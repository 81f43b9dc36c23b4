//! Diagnostics: what a lint pass reports and how it is rendered.
//!
//! Every finding carries a severity, the index of the offending
//! instruction (body or epilogue), and a disassembly excerpt around it so
//! a report reads like the annotated listings of Fig. 2b/2c.

use phi_knc::disasm::instr_str;
use phi_knc::{Program, StreamId};

/// How bad a finding is.
///
/// The paper kernels must be free of [`Severity::Error`]; warnings encode
/// performance hazards (Kernel 1's fill conflict is *the* example — it is
/// correct code that the paper shows losing cycles).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Performance hazard or suspicious-but-executable construct.
    Warning,
    /// The program is wrong: it computes garbage or violates a machine
    /// constraint the emulator does not forgive.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which program region a diagnostic points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The loop body (executed once per iteration).
    Body,
    /// The C-update epilogue (executed once after the loop).
    Epilogue,
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Body => write!(f, "body"),
            Region::Epilogue => write!(f, "epilogue"),
        }
    }
}

/// The closed set of findings the analyzer can produce. Each variant is
/// demonstrated by a fixture program in [`crate::fixtures`].
#[derive(Clone, Debug, PartialEq)]
pub enum LintKind {
    /// A register is read (as a pure source) before any instruction
    /// defines it — iteration 0 consumes the zeroed live-in value, which
    /// is only legitimate for accumulators (read-modify-write).
    UninitializedRead {
        /// The register read too early.
        reg: u8,
    },
    /// A full register define whose value is overwritten before any use —
    /// a wasted U-pipe slot every iteration.
    DeadStore {
        /// The register written in vain.
        reg: u8,
    },
    /// A register holding loop-carried partial sums (an FMA accumulator)
    /// is fully overwritten inside the loop, destroying the accumulation.
    AccumulatorClobber {
        /// The clobbered accumulator.
        reg: u8,
    },
    /// A V-pipe instruction that cannot co-issue: its issue turn contains
    /// no vector instruction, so it burns a whole cycle (the dual-issue
    /// pairing the paper relies on is broken at this point).
    UnpairedVpipe,
    /// More L1 prefetch fills arrive per iteration than there are
    /// port-free holes to absorb them — the Fig. 1c conflict. Fills defer
    /// and eventually stall the pipe (Basic Kernel 1's fate).
    FillConflict {
        /// L1 lines filled per aggregate iteration (all threads).
        fills: usize,
        /// Port-free issue cycles per aggregate iteration.
        holes: usize,
    },
    /// A streaming demand access whose cache line is not covered by any
    /// in-window `vprefetch0` from an earlier iteration: every line is a
    /// demand miss in the emulator.
    UnprefetchedStream {
        /// The stream read without prefetch cover.
        stream: StreamId,
    },
    /// A store in the steady-state loop body: it occupies the L1 write
    /// port every iteration, stealing the holes prefetch fills need. The
    /// paper keeps C in registers and stores only in the epilogue.
    WritePortPressure,
    /// A vector memory access whose symbolic address is not aligned to
    /// the operand size for every (iteration, thread) pair.
    Misaligned {
        /// Required element alignment (8 for full vectors, 4 for `4to8`).
        align: usize,
    },
    /// An L1 prefetch stepping by a non-multiple of the cache line:
    /// successive iterations re-prefetch overlapping lines.
    PartialLinePrefetch {
        /// The per-iteration element stride.
        scale: usize,
    },
    /// A thread-split access on the shared `A` stream whose per-thread
    /// stride is not line-sized: threads own overlapping cache lines, so
    /// the cooperative split of Section III-A2 double-fetches.
    ThreadOverlap {
        /// The offending per-thread element stride.
        scale_thread: usize,
    },
    /// A prefetch of the shared `A` stream with no per-thread stride: all
    /// four hardware threads request the same line instead of splitting
    /// the four lines of a column among themselves.
    DuplicateSharedPrefetch,
}

impl LintKind {
    /// Stable diagnostic code (`K###` — kernel-pass family). Codes are
    /// append-only: a kind keeps its code forever, so machine consumers
    /// of the `--json` gate output can match on them across releases.
    fn code(&self) -> &'static str {
        match self {
            LintKind::UninitializedRead { .. } => "K001",
            LintKind::DeadStore { .. } => "K002",
            LintKind::AccumulatorClobber { .. } => "K003",
            LintKind::UnpairedVpipe => "K004",
            LintKind::FillConflict { .. } => "K005",
            LintKind::UnprefetchedStream { .. } => "K006",
            LintKind::WritePortPressure => "K007",
            LintKind::Misaligned { .. } => "K008",
            LintKind::PartialLinePrefetch { .. } => "K009",
            LintKind::ThreadOverlap { .. } => "K010",
            LintKind::DuplicateSharedPrefetch => "K011",
        }
    }

    /// Stable kebab-case name, used by fixtures and gate tooling.
    pub fn name(&self) -> &'static str {
        match self {
            LintKind::UninitializedRead { .. } => "uninitialized-read",
            LintKind::DeadStore { .. } => "dead-store",
            LintKind::AccumulatorClobber { .. } => "accumulator-clobber",
            LintKind::UnpairedVpipe => "unpaired-vpipe",
            LintKind::FillConflict { .. } => "fill-conflict",
            LintKind::UnprefetchedStream { .. } => "unprefetched-stream",
            LintKind::WritePortPressure => "write-port-pressure",
            LintKind::Misaligned { .. } => "misaligned",
            LintKind::PartialLinePrefetch { .. } => "partial-line-prefetch",
            LintKind::ThreadOverlap { .. } => "thread-overlap",
            LintKind::DuplicateSharedPrefetch => "duplicate-shared-prefetch",
        }
    }

    /// The severity this kind always carries.
    fn severity(&self) -> Severity {
        match self {
            LintKind::UninitializedRead { .. }
            | LintKind::AccumulatorClobber { .. }
            | LintKind::Misaligned { .. }
            | LintKind::ThreadOverlap { .. } => Severity::Error,
            LintKind::DeadStore { .. }
            | LintKind::UnpairedVpipe
            | LintKind::FillConflict { .. }
            | LintKind::UnprefetchedStream { .. }
            | LintKind::WritePortPressure
            | LintKind::PartialLinePrefetch { .. }
            | LintKind::DuplicateSharedPrefetch => Severity::Warning,
        }
    }

    /// Every kind the analyzer can emit, for exhaustiveness checks.
    pub fn all_names() -> &'static [&'static str] {
        &[
            "uninitialized-read",
            "dead-store",
            "accumulator-clobber",
            "unpaired-vpipe",
            "fill-conflict",
            "unprefetched-stream",
            "write-port-pressure",
            "misaligned",
            "partial-line-prefetch",
            "thread-overlap",
            "duplicate-shared-prefetch",
        ]
    }
}

/// One finding: kind + location + rendered context.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// What was found.
    pub kind: LintKind,
    /// Error or warning (always `kind.severity()`).
    pub severity: Severity,
    /// Body or epilogue.
    pub region: Region,
    /// Instruction index within the region.
    pub at: usize,
    /// Human explanation of this occurrence.
    pub message: String,
    /// Disassembly excerpt around the instruction (±1 line, the offender
    /// marked with `>`).
    pub excerpt: String,
}

impl Diagnostic {
    /// Builds a diagnostic, rendering the excerpt from `program`.
    pub(crate) fn new(
        kind: LintKind,
        region: Region,
        at: usize,
        program: &Program,
        message: String,
    ) -> Self {
        Self {
            severity: kind.severity(),
            excerpt: excerpt(program, at),
            kind,
            region,
            at,
            message,
        }
    }

    /// Renders as a compiler-style multi-line message.
    pub(crate) fn render(&self) -> String {
        render_finding(
            self.severity,
            self.kind.code(),
            self.kind.name(),
            &self.message,
            &format!("{} instruction {}", self.region, self.at),
            &self.excerpt,
        )
    }
}

/// The one compiler-style rendering every lint family shares:
/// `severity[CODE:name]: message (site)` followed by the excerpt.
/// Kernel diagnostics ([`Diagnostic`]) and schedule diagnostics
/// (`phi_lint::schedule`) both route through here so reports from the
/// two gate binaries read identically.
fn render_finding(
    severity: Severity,
    code: &str,
    name: &str,
    message: &str,
    site: &str,
    excerpt: &str,
) -> String {
    format!("{severity}[{code}:{name}]: {message} ({site})\n{excerpt}")
}

/// Escapes a string for inclusion in the hand-rolled JSON the lint
/// binaries emit under `--json` (the workspace carries no JSON
/// dependency; the emitters guarantee flat string/number fields).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The closed set of findings the schedule-analysis pass family can
/// produce: channel-graph checks ([`crate::schedule`]), block-cyclic
/// ownership proofs ([`crate::ownership`]) and determinism hazards
/// ([`crate::determinism`]). Every kind has a broken fixture in its
/// module and a stable `S###` code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// A cycle in the rendezvous wait-for graph: every rank on the
    /// cycle is blocked on the next — the schedule deadlocks.
    WaitCycle {
        /// The ranks on the cycle, in wait order.
        ranks: Vec<usize>,
    },
    /// A posted receive whose matching send exists nowhere in the
    /// remaining schedule: the receiver starves forever.
    OrphanReceiver {
        /// The starving rank.
        rank: usize,
    },
    /// A send no receiver ever consumes: under rendezvous semantics
    /// the sender blocks forever (and under buffering it leaks).
    UnmatchedSend {
        /// The blocked sender.
        rank: usize,
    },
    /// An operation executed by, or addressed to, a rank outside the
    /// live set — a schedule still routing through a dead rank after a
    /// patch remap, the exact hazard mid-run remapping introduces.
    DeadRankOp {
        /// The rank executing or addressed by the op.
        rank: usize,
    },
    /// A (block-row, block-col) of the trailing matrix that no live
    /// rank owns: its updates are silently dropped.
    OwnershipGap {
        /// Block row.
        i: usize,
        /// Block column.
        j: usize,
    },
    /// A block owned by more than one rank: both apply the update and
    /// the factorization diverges between owners.
    OwnershipOverlap {
        /// Block row.
        i: usize,
        /// Block column.
        j: usize,
    },
    /// A remap whose declared transfer volume disagrees with the
    /// ownership delta it actually performs — bytes redistributed out
    /// of the dead ranks must equal bytes absorbed by survivors.
    ConservationMismatch,
    /// Schedule-assembly code drawing entropy from outside the plan
    /// seed (wall clock, ambient RNG): replays stop being bit-identical.
    SeedBypass,
    /// Iteration over a hash-ordered container in schedule-assembly
    /// code: the traversal order varies per process, so any derived
    /// schedule or float accumulation varies with it.
    UnstableIterationOrder,
    /// A floating-point reduction over an unordered iterator: the
    /// combine order, and therefore the rounded result, is not fixed.
    UnorderedReduction,
}

impl SchedKind {
    /// Stable diagnostic code (`S2##` channel graph, `S3##` ownership,
    /// `S4##` determinism). Append-only, like [`LintKind::code`].
    fn code(&self) -> &'static str {
        match self {
            SchedKind::WaitCycle { .. } => "S201",
            SchedKind::OrphanReceiver { .. } => "S202",
            SchedKind::UnmatchedSend { .. } => "S203",
            SchedKind::DeadRankOp { .. } => "S204",
            SchedKind::OwnershipGap { .. } => "S301",
            SchedKind::OwnershipOverlap { .. } => "S302",
            SchedKind::ConservationMismatch => "S303",
            SchedKind::SeedBypass => "S401",
            SchedKind::UnstableIterationOrder => "S402",
            SchedKind::UnorderedReduction => "S403",
        }
    }

    /// Stable kebab-case name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedKind::WaitCycle { .. } => "wait-cycle",
            SchedKind::OrphanReceiver { .. } => "orphan-receiver",
            SchedKind::UnmatchedSend { .. } => "unmatched-send",
            SchedKind::DeadRankOp { .. } => "dead-rank-op",
            SchedKind::OwnershipGap { .. } => "ownership-gap",
            SchedKind::OwnershipOverlap { .. } => "ownership-overlap",
            SchedKind::ConservationMismatch => "conservation-mismatch",
            SchedKind::SeedBypass => "seed-bypass",
            SchedKind::UnstableIterationOrder => "unstable-iteration-order",
            SchedKind::UnorderedReduction => "unordered-reduction",
        }
    }

    /// Every schedule-family kind is an error: a flagged schedule must
    /// not run. (Audited benign occurrences of the determinism lints
    /// are suppressed at the site with `lint:allow` markers, not
    /// downgraded globally.)
    fn severity(&self) -> Severity {
        Severity::Error
    }

    /// Every name, for exhaustiveness checks in the gates.
    pub fn all_names() -> &'static [&'static str] {
        &[
            "wait-cycle",
            "orphan-receiver",
            "unmatched-send",
            "dead-rank-op",
            "ownership-gap",
            "ownership-overlap",
            "conservation-mismatch",
            "seed-bypass",
            "unstable-iteration-order",
            "unordered-reduction",
        ]
    }
}

/// One schedule-family finding: kind + site + context, rendered through
/// the same `render_finding` pipeline as kernel diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedDiagnostic {
    /// What was found.
    pub kind: SchedKind,
    /// Always `kind.severity()`.
    pub severity: Severity,
    /// Where: a schedule label + rank/op, an ownership cell, or a
    /// `file:line` for source-scan findings.
    pub site: String,
    /// Human explanation of this occurrence.
    pub message: String,
    /// Context excerpt: the offending op window, ownership neighborhood
    /// or source line, `>`-marked like the disasm excerpts.
    pub excerpt: String,
}

impl SchedDiagnostic {
    /// Builds a finding.
    pub(crate) fn new(
        kind: SchedKind,
        site: impl Into<String>,
        message: impl Into<String>,
        excerpt: impl Into<String>,
    ) -> Self {
        Self {
            severity: kind.severity(),
            kind,
            site: site.into(),
            message: message.into(),
            excerpt: excerpt.into(),
        }
    }

    /// Renders as a compiler-style multi-line message.
    pub fn render(&self) -> String {
        render_finding(
            self.severity,
            self.kind.code(),
            self.kind.name(),
            &self.message,
            &self.site,
            &self.excerpt,
        )
    }

    /// Renders as one flat JSON object for the `--json` gate output.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"kind\":\"{}\",\"severity\":\"{}\",\"site\":\"{}\",\"message\":\"{}\"}}",
            self.kind.code(),
            self.kind.name(),
            self.severity,
            json_escape(&self.site),
            json_escape(&self.message)
        )
    }
}

/// Disassembly excerpt around `at` with the offender marked.
fn excerpt(p: &Program, at: usize) -> String {
    let lo = at.saturating_sub(1);
    let hi = (at + 2).min(p.body.len());
    let mut out = String::new();
    for idx in lo..hi {
        let marker = if idx == at { '>' } else { ' ' };
        let pipe = if p.body[idx].is_vector() { 'U' } else { 'V' };
        out.push_str(&format!(
            "  {marker} {idx:>3} {pipe}  {}\n",
            instr_str(&p.body[idx])
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_knc::{Addr, Instr, Operand};

    #[test]
    fn diagnostic_renders_severity_kind_index_and_excerpt() {
        let mut p = Program::new();
        p.push(Instr::Load {
            dst: 31,
            addr: Addr::new(StreamId::B, 8, 0),
        });
        p.push(Instr::Fmadd {
            acc: 0,
            src: Operand::Reg(5),
            b: 31,
        });
        let d = Diagnostic::new(
            LintKind::UninitializedRead { reg: 5 },
            Region::Body,
            1,
            &p,
            "v5 read before any define".into(),
        );
        assert_eq!(d.severity, Severity::Error);
        let r = d.render();
        assert!(r.contains("error[K001:uninitialized-read]"), "{r}");
        assert!(r.contains("body instruction 1"), "{r}");
        assert!(r.contains(">   1 U  vfmadd231pd v0, v31, v5"), "{r}");
        assert!(r.contains("    0 U  vmovapd v31"), "{r}");
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn codes_are_unique_and_stable() {
        let kinds = [
            LintKind::UninitializedRead { reg: 0 },
            LintKind::DeadStore { reg: 0 },
            LintKind::AccumulatorClobber { reg: 0 },
            LintKind::UnpairedVpipe,
            LintKind::FillConflict { fills: 0, holes: 0 },
            LintKind::UnprefetchedStream {
                stream: StreamId::B,
            },
            LintKind::WritePortPressure,
            LintKind::Misaligned { align: 8 },
            LintKind::PartialLinePrefetch { scale: 1 },
            LintKind::ThreadOverlap { scale_thread: 1 },
            LintKind::DuplicateSharedPrefetch,
        ];
        let codes: Vec<&str> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), LintKind::all_names().len());
        for (i, c) in codes.iter().enumerate() {
            assert!(c.starts_with('K'), "{c}");
            assert!(!codes[..i].contains(c), "duplicate code {c}");
        }
        assert_eq!(LintKind::UninitializedRead { reg: 0 }.code(), "K001");
    }

    #[test]
    fn severity_is_total_over_kinds() {
        assert_eq!(LintKind::all_names().len(), 11);
        assert!(LintKind::FillConflict { fills: 8, holes: 0 }.severity() == Severity::Warning);
        assert!(LintKind::Misaligned { align: 8 }.severity() == Severity::Error);
    }
}
