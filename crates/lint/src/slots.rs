//! Pass 2 — static issue-slot scheduling.
//!
//! Replays the emulator's issue rule symbolically: each *turn* (one cycle
//! of one hardware thread) walks the cyclic loop body issuing at most one
//! U-pipe (vector) and one V-pipe (prefetch/scalar) instruction, stopping
//! before a second of an already-issued kind. Because the body is
//! straight-line and cyclic, the turn sequence is eventually periodic in
//! the program counter; detecting that period yields exact steady-state
//! turns-per-iteration and the number of L1-port-free *holes* per
//! iteration — the two quantities the paper's Fig. 1c argument (and our
//! static cycle bound) is built on.

use crate::diag::{Diagnostic, LintKind, Region};
use phi_knc::Program;

/// Steady-state issue facts for one thread executing the loop body.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlotSummary {
    /// Issue turns (= cycles granted to this thread) per period.
    pub turns: usize,
    /// Loop iterations per period.
    pub iters: usize,
    /// Turns in the period whose issued instructions leave both L1 ports
    /// free — the holes prefetch fills can complete in.
    pub holes: usize,
}

/// Runs the issue-slot pass: returns the steady-state summary plus
/// [`LintKind::UnpairedVpipe`] diagnostics for V-pipe instructions that
/// start a turn no vector instruction joins.
pub(crate) fn analyze(body: &Program) -> (SlotSummary, Vec<Diagnostic>) {
    let n = body.body.len();
    if n == 0 {
        return (SlotSummary::default(), Vec::new());
    }
    let mut diags = Vec::new();
    let mut solo_reported = vec![false; n];

    // seen[pc] = (turn index, iterations completed, holes so far) at the
    // moment a turn started at `pc`.
    let mut seen: Vec<Option<(usize, usize, usize)>> = vec![None; n];
    let mut pc = 0usize;
    let mut iters = 0usize;
    let mut holes = 0usize;
    let mut summary = SlotSummary::default();

    // A turn starts at each pc at most once before the state repeats, so
    // n + 1 turns always suffice to find the period.
    for turn in 0..=n {
        if let Some((t0, i0, h0)) = seen[pc] {
            summary = SlotSummary {
                turns: turn - t0,
                iters: iters - i0,
                holes: holes - h0,
            };
            break;
        }
        seen[pc] = Some((turn, iters, holes));

        let turn_start = pc;
        let mut issued_u = false;
        let mut issued_v = false;
        let mut read = false;
        let mut write = false;
        loop {
            let instr = &body.body[pc];
            if instr.is_vector() {
                if issued_u {
                    break;
                }
                issued_u = true;
            } else {
                if issued_v {
                    break;
                }
                issued_v = true;
            }
            read |= instr.uses_l1_read_port();
            write |= instr.uses_l1_write_port();
            pc += 1;
            if pc == n {
                pc = 0;
                iters += 1;
            }
            if issued_u && issued_v {
                break;
            }
        }
        if !read && !write {
            holes += 1;
        }
        if issued_v && !issued_u && !solo_reported[turn_start] {
            solo_reported[turn_start] = true;
            diags.push(Diagnostic::new(
                LintKind::UnpairedVpipe,
                Region::Body,
                turn_start,
                body,
                "V-pipe instruction issues alone: no vector instruction shares its cycle, \
                 so the dual-issue slot is wasted"
                    .into(),
            ));
        }
    }
    (summary, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_blas::gemm::MicroKernelKind;
    use phi_knc::kernels::build_basic_kernel;
    use phi_knc::{Addr, Instr, StreamId};

    #[test]
    fn kernel1_takes_32_turns_with_no_holes() {
        let (body, _) = build_basic_kernel(MicroKernelKind::Kernel1);
        let (s, diags) = analyze(&body);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(s.turns as f64 / s.iters as f64, 32.0, "{s:?}");
        assert_eq!(s.holes, 0, "{s:?}");
    }

    #[test]
    fn kernel2_takes_32_turns_with_4_holes() {
        let (body, _) = build_basic_kernel(MicroKernelKind::Kernel2);
        let (s, diags) = analyze(&body);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(s.turns as f64 / s.iters as f64, 32.0, "{s:?}");
        assert_eq!(s.holes as f64 / s.iters as f64, 4.0, "{s:?}");
    }

    #[test]
    fn adjacent_prefetches_cannot_pair() {
        let mut body = Program::new();
        body.push(Instr::PrefetchL1(Addr::new(StreamId::B, 8, 8)));
        body.push(Instr::PrefetchL1(Addr::new(StreamId::B, 8, 16)));
        body.push(Instr::Load {
            dst: 31,
            addr: Addr::new(StreamId::B, 8, 0),
        });
        let (s, diags) = analyze(&body);
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, LintKind::UnpairedVpipe)));
        // Turn 1: pf (solo, second pf blocks). Turn 2: pf + load.
        assert_eq!(s.turns as f64 / s.iters as f64, 2.0, "{s:?}");
    }
}
