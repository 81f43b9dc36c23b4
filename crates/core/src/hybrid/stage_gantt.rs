//! One-iteration Gantt charts of the three look-ahead schemes (Fig. 8).
//!
//! Fig. 8 of the paper is a timing diagram of a single HPL iteration on
//! one node: which of {host, coprocessor} does what, and what overlaps.
//! This module replays one stage of the shared per-stage model
//! ([`super::stage`]) as explicit spans on two lanes — lane 0 = Sandy Bridge EP, lane 1 = Knights
//! Corner — for each [`Lookahead`] scheme, reproducing the figure's
//! structure: serial everything (8a), panel under update (8b), and the
//! swap/DTRSM/U-broadcast strips pipelined against the update (8c).

use super::stage::{self, StageParts, STRIPS};
use super::{HybridConfig, Lookahead, StageEnv};
use phi_des::{Kind, Trace};

/// Lane index of the host in the produced traces.
const HOST_LANE: u32 = 0;
/// Lane index of the coprocessor.
const CARD_LANE: u32 = 1;

/// Builds the Fig. 8 trace of one iteration under `scheme` from the
/// stage's ingredients; the panel span is the factorization plus its
/// row broadcast. Returns the trace and the iteration's wall time.
fn scheme_gantt(t: &StageParts, scheme: Lookahead) -> (Trace, f64) {
    let mut tr = Trace::default();
    tr.enable();
    let panel = t.panel + t.pbcast;
    match scheme {
        Lookahead::None => {
            // Fig. 8a: panel → swap → trsm → ubcast → update, card idle
            // throughout the host phases.
            let mut now = 0.0;
            for (kind, dur) in [
                (Kind::Panel, panel),
                (Kind::Swap, t.swap),
                (Kind::Trsm, t.trsm),
                (Kind::Comm, t.ubcast),
            ] {
                tr.record(HOST_LANE, now, now + dur, kind);
                tr.record(CARD_LANE, now, now + dur, Kind::Barrier);
                now += dur;
            }
            tr.record(CARD_LANE, now, now + t.update, Kind::Gemm);
            (tr, now + t.update)
        }
        Lookahead::Basic => {
            // Fig. 8b: the three steps first (card idle), then the update
            // on the card overlapped with the next panel on the host.
            let mut now = 0.0;
            for (kind, dur) in [
                (Kind::Swap, t.swap),
                (Kind::Trsm, t.trsm),
                (Kind::Comm, t.ubcast),
            ] {
                tr.record(HOST_LANE, now, now + dur, kind);
                tr.record(CARD_LANE, now, now + dur, Kind::Barrier);
                now += dur;
            }
            tr.record(CARD_LANE, now, now + t.update, Kind::Gemm);
            tr.record(HOST_LANE, now, now + panel, Kind::Panel);
            let host_end = now + panel;
            let card_end = now + t.update;
            let end = host_end.max(card_end);
            if card_end < end {
                tr.record(CARD_LANE, card_end, end, Kind::Barrier);
            }
            (tr, end)
        }
        Lookahead::Pipelined => {
            // Fig. 8c: the three steps are cut into column strips; the
            // card starts updating as soon as strip 0 lands and each
            // subsequent strip hides under the running update.
            let three = t.swap + t.trsm + t.ubcast;
            let strip = three / STRIPS as f64;
            let mut now = 0.0;
            for s in 0..STRIPS {
                let frac = |x: f64| x / STRIPS as f64;
                let swap_end = now + frac(t.swap);
                let trsm_end = swap_end + frac(t.trsm);
                tr.record(HOST_LANE, now, swap_end, Kind::Swap);
                tr.record(HOST_LANE, swap_end, trsm_end, Kind::Trsm);
                // With a free U broadcast (P = 1) `swap/12 + trsm/12` can
                // round past the strip's end; the broadcast span is then
                // empty, not reversed.
                let end = now + strip;
                tr.record(HOST_LANE, trsm_end.min(end), end, Kind::Comm);
                if s == 0 {
                    tr.record(CARD_LANE, now, now + strip, Kind::Barrier);
                }
                now += strip;
            }
            // Card: update starts after strip 0.
            let update_start = strip;
            let update_end = update_start + t.update;
            tr.record(CARD_LANE, update_start, update_end, Kind::Gemm);
            // Host: panel after the strips.
            tr.record(HOST_LANE, three, three + panel, Kind::Panel);
            let end = update_end.max(three + panel);
            (tr, end)
        }
    }
}

/// Renders all three schemes for one configuration/stage as ASCII Gantt
/// charts.
///
/// # Panics
/// Panics when `stage` is not a stage of `cfg`.
pub fn fig8_render(cfg: &HybridConfig, stage: usize, width: usize) -> String {
    assert!(stage < cfg.n.div_ceil(cfg.nb), "stage out of range");
    let (rows_loc, cols_loc) = stage::worst_extents(cfg.grid, cfg.n, cfg.nb, stage);
    let t = stage::parts(&StageEnv::healthy(cfg), stage, rows_loc, cols_loc);
    let mut out = String::new();
    for (scheme, label) in [
        (Lookahead::None, "no look-ahead (Fig. 8a)"),
        (Lookahead::Basic, "basic look-ahead (Fig. 8b)"),
        (Lookahead::Pipelined, "pipelined look-ahead (Fig. 8c)"),
    ] {
        let (trace, dur) = scheme_gantt(&t, scheme);
        out.push_str(&format!(
            "{label}: iteration {dur:.3}s  (lane 0 = host, lane 1 = card; \
             P=panel S=swap T=DTRSM C=bcast G=update .=idle)\n"
        ));
        out.push_str(&trace.gantt_ascii(width, dur));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_fabric::ProcessGrid;

    fn cfg() -> HybridConfig {
        HybridConfig::new(84_000, ProcessGrid::new(2, 2), 2)
    }

    /// The worst node's ingredients at `stage`, as `fig8_render` prices
    /// them.
    fn parts(cfg: &HybridConfig, stage: usize) -> StageParts {
        let (rows, cols) = stage::worst_extents(cfg.grid, cfg.n, cfg.nb, stage);
        stage::parts(&StageEnv::healthy(cfg), stage, rows, cols)
    }

    #[test]
    fn scheme_durations_are_ordered() {
        let t = parts(&cfg(), 5);
        let (_, none) = scheme_gantt(&t, Lookahead::None);
        let (_, basic) = scheme_gantt(&t, Lookahead::Basic);
        let (_, pipe) = scheme_gantt(&t, Lookahead::Pipelined);
        assert!(none > basic, "{none} vs {basic}");
        assert!(basic > pipe, "{basic} vs {pipe}");
    }

    #[test]
    fn card_idle_shrinks_with_pipelining() {
        let t = parts(&cfg(), 5);
        let idle = |scheme| {
            let (tr, dur) = scheme_gantt(&t, scheme);
            1.0 - tr.lane_busy_fraction(CARD_LANE, dur)
        };
        let i_none = idle(Lookahead::None);
        let i_basic = idle(Lookahead::Basic);
        let i_pipe = idle(Lookahead::Pipelined);
        assert!(i_none > i_basic, "{i_none} vs {i_basic}");
        assert!(i_basic > i_pipe, "{i_basic} vs {i_pipe}");
        assert!(i_pipe < 0.06, "pipelined card idle {i_pipe:.3}");
    }

    #[test]
    fn render_contains_all_three_schemes() {
        let text = fig8_render(&cfg(), 5, 80);
        assert!(text.contains("Fig. 8a"));
        assert!(text.contains("Fig. 8b"));
        assert!(text.contains("Fig. 8c"));
        assert!(text.matches("G").count() > 10, "update spans visible");
    }

    #[test]
    fn every_stage_of_the_reference_systems_renders() {
        // 1×1 with one card is the shipped Fig. 8 system: its U
        // broadcast is free, so the pipelined strips' sub-spans must
        // not run past the strip (debug builds assert every span).
        for c in [HybridConfig::new(84_000, ProcessGrid::new(1, 1), 1), cfg()] {
            for stage in 0..c.n.div_ceil(c.nb) {
                let text = fig8_render(&c, stage, 80);
                assert_eq!(text.matches("Fig. 8").count(), 3, "stage {stage}");
            }
        }
    }

    #[test]
    fn stage_times_shrink_with_stage() {
        let c = cfg();
        let early = parts(&c, 2);
        let late = parts(&c, 60);
        assert!(late.update < early.update);
        assert!(late.swap <= early.swap);
    }
}
