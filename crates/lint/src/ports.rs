//! Pass 3 — L1 port pressure and prefetch coverage.
//!
//! Resolves every symbolic address over a concrete window of loop
//! iterations (all hardware threads, stream bases at zero) and checks the
//! streaming discipline of Section III-A2: every demand-read cache line
//! must have been `vprefetch0`-ed in an *earlier* iteration, the shared
//! `A` stream must be prefetched cooperatively (split among threads, not
//! requested four times), and stores must stay out of the steady-state
//! body where they would occupy the L1 write port every cycle. The same
//! walk counts how many distinct L1 lines are filled per aggregate
//! iteration — the demand side of the Fig. 1c fills-vs-holes balance.

use std::collections::{HashMap, HashSet};

use crate::diag::{Diagnostic, LintKind, Region};
use phi_knc::isa::LINE_ELEMS;
use phi_knc::{Instr, Program, StreamId};

/// Iterations discarded before measuring (cold-start prefetch distance).
const WARMUP: usize = 8;
/// Steady-state iterations measured.
const WINDOW: usize = 24;

/// Steady-state L1 traffic facts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PortSummary {
    /// Distinct L1 lines filled by `vprefetch0` per aggregate iteration
    /// (all threads together).
    pub fills_per_iter: f64,
}

/// A cache line owned by one logical stream instance. The `A` stream is
/// shared by all threads (one base); `B`/`C` are private, so the thread
/// index is part of the key and equal element indices on different
/// threads do not collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct LineKey {
    stream: StreamId,
    thread: usize,
    line: usize,
}

fn key(stream: StreamId, thread: usize, elem: usize) -> LineKey {
    let thread = if stream == StreamId::A { 0 } else { thread };
    LineKey {
        stream,
        thread,
        line: elem / LINE_ELEMS,
    }
}

/// Demand-read addresses of one instruction.
fn demand_addrs(i: &Instr) -> Vec<phi_knc::Addr> {
    match i {
        Instr::Load { addr, .. } | Instr::Broadcast { addr, .. } => vec![*addr],
        Instr::Fmadd { src, .. } | Instr::Add { src, .. } | Instr::Mul { src, .. } => {
            src.addr().into_iter().collect()
        }
        _ => Vec::new(),
    }
}

/// Runs the port/prefetch pass over the loop body.
pub(crate) fn analyze(body: &Program, threads: usize) -> (PortSummary, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let total_iters = WARMUP + WINDOW;

    // --- Stores in the body steal the write port every iteration.
    for (at, i) in body.body.iter().enumerate() {
        if matches!(i, Instr::Store { .. }) {
            diags.push(Diagnostic::new(
                LintKind::WritePortPressure,
                Region::Body,
                at,
                body,
                "store in the loop body occupies the L1 write port every iteration; \
                 keep C in registers and store in the epilogue"
                    .into(),
            ));
        }
    }

    // --- Shared-stream prefetches must be split among threads.
    for (at, i) in body.body.iter().enumerate() {
        if let Instr::PrefetchL1(a) = i {
            if a.stream == StreamId::A && a.scale_thread == 0 && threads > 1 {
                diags.push(Diagnostic::new(
                    LintKind::DuplicateSharedPrefetch,
                    Region::Body,
                    at,
                    body,
                    format!(
                        "all {threads} threads prefetch the same shared-`a` line; \
                         add a per-thread stride so each thread brings in one of the \
                         column's lines"
                    ),
                ));
            }
        }
    }

    // --- Concrete walk: earliest prefetch iteration per line, then demand
    // coverage inside the steady window.
    let mut first_pf: HashMap<LineKey, usize> = HashMap::new();
    for iter in 0..total_iters {
        for t in 0..threads {
            for i in &body.body {
                if let Instr::PrefetchL1(a) = i {
                    let k = key(a.stream, t, a.resolve(iter, t, 0));
                    first_pf.entry(k).or_insert(iter);
                }
            }
        }
    }

    let fills_in_window = first_pf
        .values()
        .filter(|&&it| (WARMUP..total_iters).contains(&it))
        .count();
    let summary = PortSummary {
        fills_per_iter: fills_in_window as f64 / WINDOW as f64,
    };

    let mut uncovered_reported: HashSet<usize> = HashSet::new();
    for iter in WARMUP..total_iters {
        for t in 0..threads {
            for (at, i) in body.body.iter().enumerate() {
                for a in demand_addrs(i) {
                    let k = key(a.stream, t, a.resolve(iter, t, 0));
                    let covered = first_pf.get(&k).is_some_and(|&pf_iter| pf_iter < iter);
                    if !covered && uncovered_reported.insert(at) {
                        diags.push(Diagnostic::new(
                            LintKind::UnprefetchedStream { stream: a.stream },
                            Region::Body,
                            at,
                            body,
                            format!(
                                "steady-state read of stream {:?} (iteration {iter}, thread {t}) \
                                 hits a line no earlier `vprefetch0` covers: every such line is \
                                 a demand miss",
                                a.stream
                            ),
                        ));
                    }
                }
            }
        }
    }

    (summary, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_blas::gemm::MicroKernelKind;
    use phi_knc::kernels::build_basic_kernel;
    use phi_knc::{Addr, BcastMode, Operand};

    #[test]
    fn paper_kernels_are_fully_prefetched_with_8_fills() {
        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            let (body, _) = build_basic_kernel(kind);
            let (s, diags) = analyze(&body, 4);
            assert!(diags.is_empty(), "{kind:?}: {diags:?}");
            // 4 threads × 1 private b line + 4 cooperative a lines = 8.
            assert!((s.fills_per_iter - 8.0).abs() < 1e-9, "{kind:?}: {s:?}");
        }
    }

    #[test]
    fn missing_a_prefetch_is_reported() {
        let mut body = Program::new();
        body.push(Instr::PrefetchL1(Addr::new(StreamId::B, 8, 8)));
        body.push(Instr::Load {
            dst: 31,
            addr: Addr::new(StreamId::B, 8, 0),
        });
        body.push(Instr::Fmadd {
            acc: 0,
            src: Operand::MemBcast(Addr::new(StreamId::A, 32, 0), BcastMode::OneToEight),
            b: 31,
        });
        let (_, diags) = analyze(&body, 4);
        assert!(diags.iter().any(|d| matches!(
            d.kind,
            LintKind::UnprefetchedStream {
                stream: StreamId::A
            }
        )));
        assert!(!diags.iter().any(|d| matches!(
            d.kind,
            LintKind::UnprefetchedStream {
                stream: StreamId::B
            }
        )));
    }

    #[test]
    fn unsplit_shared_prefetch_is_reported() {
        let mut body = Program::new();
        body.push(Instr::PrefetchL1(Addr::new(StreamId::A, 32, 32)));
        body.push(Instr::Load {
            dst: 31,
            addr: Addr::new(StreamId::B, 8, 0),
        });
        let (_, diags) = analyze(&body, 4);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::DuplicateSharedPrefetch)));
    }

    #[test]
    fn body_store_is_reported() {
        let mut body = Program::new();
        body.push(Instr::Store {
            src: 0,
            addr: Addr::new(StreamId::C, 0, 0),
        });
        let (_, diags) = analyze(&body, 4);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::WritePortPressure)));
    }
}
