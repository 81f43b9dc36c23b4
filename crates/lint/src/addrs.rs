//! Pass 4 — address lints: alignment, stride-vs-line-size, and
//! thread-offset overlap.
//!
//! All checks are purely symbolic on [`Addr`]: an address is aligned for
//! *every* (iteration, thread) pair iff its offset and both strides are
//! multiples of the required alignment (stream bases are line-aligned by
//! construction).

use crate::diag::{Diagnostic, LintKind, Region};
use phi_knc::isa::LINE_ELEMS;
use phi_knc::{Addr, BcastMode, Instr, Operand, Program, StreamId};

/// Alignment (in elements) a memory access requires.
fn required_align(op: Option<&Operand>, mode: Option<BcastMode>) -> usize {
    match (op, mode) {
        // Full-vector load/store.
        (None, None) => 8,
        (None, Some(BcastMode::OneToEight)) => 1,
        (None, Some(BcastMode::FourToEight)) => 4,
        (Some(Operand::Mem(_)), _) => 8,
        (Some(Operand::MemBcast(_, BcastMode::OneToEight)), _) => 1,
        (Some(Operand::MemBcast(_, BcastMode::FourToEight)), _) => 4,
        _ => 1,
    }
}

fn aligned_for_all(a: &Addr, align: usize) -> bool {
    a.offset.is_multiple_of(align)
        && a.scale_iter.is_multiple_of(align)
        && a.scale_thread.is_multiple_of(align)
}

/// Every (address, required alignment) pair an instruction touches.
fn accesses(i: &Instr) -> Vec<(Addr, usize)> {
    match i {
        Instr::Load { addr, .. } | Instr::Store { addr, .. } => vec![(*addr, 8)],
        Instr::Broadcast { addr, mode, .. } => vec![(*addr, required_align(None, Some(*mode)))],
        Instr::Fmadd { src, .. } | Instr::Add { src, .. } | Instr::Mul { src, .. } => src
            .addr()
            .map(|a| (a, required_align(Some(src), None)))
            .into_iter()
            .collect(),
        Instr::PrefetchL1(a) | Instr::PrefetchL2(a) => vec![(*a, 1)],
        Instr::ScalarOp => Vec::new(),
    }
}

fn check_program(region: Region, p: &Program, diags: &mut Vec<Diagnostic>) {
    for (at, i) in p.body.iter().enumerate() {
        for (a, align) in accesses(i) {
            if align > 1 && !aligned_for_all(&a, align) {
                diags.push(Diagnostic::new(
                    LintKind::Misaligned { align },
                    region,
                    at,
                    p,
                    format!(
                        "address (offset {}, iter stride {}, thread stride {}) is not \
                         {align}-element aligned for every iteration and thread",
                        a.offset, a.scale_iter, a.scale_thread
                    ),
                ));
            }
            // Thread-split accesses to the shared `a` tile must step by
            // whole cache lines, or threads fetch overlapping lines and
            // the cooperative split of Section III-A2 double-fetches.
            if a.stream == StreamId::A && a.scale_thread != 0 && a.scale_thread % LINE_ELEMS != 0 {
                diags.push(Diagnostic::new(
                    LintKind::ThreadOverlap {
                        scale_thread: a.scale_thread,
                    },
                    region,
                    at,
                    p,
                    format!(
                        "per-thread stride {} on the shared `a` stream is not a multiple \
                         of the {LINE_ELEMS}-element cache line: threads touch overlapping lines",
                        a.scale_thread
                    ),
                ));
            }
        }
        // Streaming L1 prefetches should advance by whole lines.
        if let Instr::PrefetchL1(a) = i {
            if a.scale_iter > 0 && a.scale_iter % LINE_ELEMS != 0 {
                diags.push(Diagnostic::new(
                    LintKind::PartialLinePrefetch {
                        scale: a.scale_iter,
                    },
                    region,
                    at,
                    p,
                    format!(
                        "`vprefetch0` advances {} elements per iteration — not a whole \
                         {LINE_ELEMS}-element line, so successive iterations re-request \
                         overlapping lines",
                        a.scale_iter
                    ),
                ));
            }
        }
    }
}

/// Runs the address pass over body and epilogue.
pub(crate) fn check(body: &Program, epilogue: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_program(Region::Body, body, &mut diags);
    check_program(Region::Epilogue, epilogue, &mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_kernels_are_clean() {
        use phi_blas::gemm::MicroKernelKind;
        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            let (body, epi) = phi_knc::kernels::build_basic_kernel(kind);
            assert!(check(&body, &epi).is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn misaligned_vector_load_is_an_error() {
        let mut body = Program::new();
        body.push(Instr::Load {
            dst: 31,
            addr: Addr::new(StreamId::B, 4, 0), // iter stride 4: odd half-vectors
        });
        let ds = check(&body, &Program::new());
        assert!(ds
            .iter()
            .any(|d| matches!(d.kind, LintKind::Misaligned { align: 8 })));
    }

    #[test]
    fn broadcasts_tolerate_element_offsets() {
        let mut body = Program::new();
        body.push(Instr::Fmadd {
            acc: 0,
            src: Operand::MemBcast(Addr::new(StreamId::A, 32, 7), BcastMode::OneToEight),
            b: 31,
        });
        // 1to8 needs only element alignment; off-by-7 is legal.
        assert!(check(&body, &Program::new()).is_empty());
    }

    #[test]
    fn sub_line_thread_split_overlaps() {
        let mut body = Program::new();
        body.push(Instr::PrefetchL1(
            Addr::new(StreamId::A, 32, 32).with_thread_scale(4),
        ));
        let ds = check(&body, &Program::new());
        assert!(ds
            .iter()
            .any(|d| matches!(d.kind, LintKind::ThreadOverlap { scale_thread: 4 })));
    }

    #[test]
    fn sub_line_prefetch_stride_warns() {
        let mut body = Program::new();
        body.push(Instr::PrefetchL1(Addr::new(StreamId::B, 4, 8)));
        let ds = check(&body, &Program::new());
        assert!(ds
            .iter()
            .any(|d| matches!(d.kind, LintKind::PartialLinePrefetch { scale: 4 })));
    }
}
