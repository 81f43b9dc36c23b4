//! The one per-stage cost model of hybrid HPL (§V, Fig. 8/9).
//!
//! One LU stage is priced in two steps. `parts` turns a stage index
//! and the local trailing extents into the ingredient times — panel
//! factorization, its row broadcast, the three card-exposed steps
//! (swap, `U` DTRSM, `U` broadcast), the look-ahead pre-update and the
//! offloaded trailing update — against the models of a `StageEnv`.
//! `StageParts::compose` then overlaps them the way the look-ahead
//! scheme in force does. Every driver under [`super`] — healthy,
//! DES-calibrated, fault-injected, rank-level DES, the Fig. 8 Gantt —
//! prices its stages here and only adds what is its own: a stage loop,
//! a sampled update, recovery and checkpoints, per-rank extents.
//!
//! **Models in, not effects in.** A fault perturbs a stage by handing
//! `parts` a degraded [`NetModel`] or a throttled [`OffloadModel`];
//! the healthy drivers borrow the configuration's own. Nothing here
//! knows a fault exists, so the healthy path pays nothing for them.
//!
//! **Bit-identity rule.** The tree's goldens pin results to the last
//! bit, so the operand order and association of every `f64` expression
//! below is part of the contract: regroup a sum and
//! `tests/stage_identity.rs` fails.

use super::{HybridConfig, Lookahead, WorkDivision};
use crate::offload::OffloadModel;
use phi_fabric::{ceil_log2, NetModel, ProcessGrid};

/// Host cores reserved for packing/DMA when cards are present.
const PACK_CORES: f64 = 2.0;
/// Host cores joining the trailing update by work stealing.
pub(super) const HOST_UPDATE_CORES: f64 = 11.0;
/// Strips used by the pipelined scheme.
pub(super) const STRIPS: usize = 12;
/// Fractional per-stage overhead the pipelining adds to the host path
/// (extra messages/synchronization that "delays panel factorization").
const PIPELINE_OVERHEAD: f64 = 0.12;
/// Efficiency of the host's LU machinery relative to raw MKL DGEMM
/// (look-ahead bookkeeping, ragged tiles) — calibrated to the MKL MP
/// Linpack rows of Table III.
const HOST_LU_EFFICIENCY: f64 = 0.95;

/// What a stage is priced against: the run's configuration plus the
/// machine state the stage actually sees.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StageEnv<'a> {
    /// The run's configuration (problem, blocking, scheme, division).
    pub cfg: &'a HybridConfig,
    /// The grid the live ranks form — `cfg.grid` unless host deaths
    /// forced a reshape.
    pub grid: ProcessGrid,
    /// Inter-node network as the stage sees it.
    pub net: &'a NetModel,
    /// Host/card/PCIe models as the stage sees them.
    pub offload: &'a OffloadModel,
    /// Coprocessors alive per node.
    pub cards: usize,
}

impl<'a> StageEnv<'a> {
    /// The unperturbed environment: the configuration's own models.
    pub(crate) fn healthy(cfg: &'a HybridConfig) -> Self {
        Self {
            cfg,
            grid: cfg.grid,
            net: &cfg.net,
            offload: &cfg.offload,
            cards: cfg.cards_per_node,
        }
    }
}

/// Worst-node local trailing extents `(rows, cols)` after `stage` on a
/// block-cyclic `grid`: the largest share any process row (column)
/// holds of the `nblocks − (stage + 1)` trailing blocks, in elements.
/// The maximum of a block-cyclic deal of a contiguous block range is
/// its ceiling share, so no scan over the grid is needed.
#[inline]
pub fn worst_extents(grid: ProcessGrid, n: usize, nb: usize, stage: usize) -> (usize, usize) {
    let trailing = n.div_ceil(nb).saturating_sub(stage + 1);
    (
        (trailing.div_ceil(grid.p) * nb).min(n),
        (trailing.div_ceil(grid.q) * nb).min(n),
    )
}

/// `(m_panel_loc, nb)`: the local height of the stage's block column
/// on a grid with `p` process rows, and the panel's width (ragged on
/// the last stage).
#[inline]
pub(crate) fn panel_shape(cfg: &HybridConfig, p: usize, stage: usize) -> (usize, usize) {
    let nb = cfg.nb.min(cfg.n - stage * cfg.nb);
    (((cfg.n - stage * cfg.nb) / p).max(nb), nb)
}

/// Ingredient times of one stage, seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct StageParts {
    /// Panel factorization down the owner column, pivot exchange across
    /// `P` included.
    pub panel: f64,
    /// Panel broadcast along the process row.
    pub pbcast: f64,
    /// Row swapping (host + long swap over the network).
    pub swap: f64,
    /// `U` DTRSM on the host.
    pub trsm: f64,
    /// `U` broadcast down the process columns.
    pub ubcast: f64,
    /// Look-ahead pre-update of the next panel's columns on the host.
    pub pre: f64,
    /// Trailing update (offloaded, or on the host with no card alive).
    pub update: f64,
    /// Card compute inside the update.
    pub busy: f64,
}

/// Prices the ingredients of `stage` for a node whose local trailing
/// extents are `rows_loc × cols_loc`.
///
/// `always`, not a hint: every driver calls this once per stage inside
/// its stage loop, where everything that depends only on the grid
/// hoists. Measured when the round counts became integer arithmetic:
/// out of line, a stage costs 89 ns (`hpl.hybrid.ns_per_stage`, 10×10);
/// inlined, 69 ns — the figure it had before that change.
#[inline(always)]
pub(crate) fn parts(env: &StageEnv, stage: usize, rows_loc: usize, cols_loc: usize) -> StageParts {
    let cfg = env.cfg;
    let host = &env.offload.host;
    let net = env.net;
    let (p, q) = (env.grid.p, env.grid.q);
    let host_cores = host.cfg.cores() as f64;
    let (m_panel_loc, nb) = panel_shape(cfg, p, stage);

    // Panel: distributed down the owner column; pivot search adds a
    // per-column exchange across P.
    let panel_cores = host_cores - if env.cards > 0 { PACK_CORES } else { 0.0 };
    let panel = host.panel_time_s(m_panel_loc, nb, panel_cores)
        + if p > 1 {
            nb as f64 * 2.0 * net.latency * ceil_log2(p) as f64
        } else {
            0.0
        };
    let pbcast = net.bcast(cfg.bcast, 8.0 * (m_panel_loc * nb) as f64, q);

    // The three card-exposed steps.
    let swap = host.swap_time_s(nb, cols_loc) + net.long_swap(nb, cols_loc, p);
    let trsm = host.trsm_time_s(nb, cols_loc, panel_cores);
    let ubcast = net.u_bcast(nb, cols_loc, p);

    let (update, busy) = if rows_loc == 0 || cols_loc == 0 {
        (0.0, 0.0)
    } else if env.cards > 0 {
        let out = match cfg.division {
            WorkDivision::Dynamic => {
                env.offload
                    .analytic(rows_loc, cols_loc, env.cards, HOST_UPDATE_CORES)
            }
            WorkDivision::Static { card_fraction } => env.offload.analytic_split(
                rows_loc,
                cols_loc,
                env.cards,
                HOST_UPDATE_CORES,
                card_fraction,
            ),
        };
        (out.time_s, out.card_busy_s)
    } else {
        // No card (CPU-only run, or §V re-division with the card share
        // forced to zero): the host's full core set takes the update.
        (
            host.gemm_time_s(rows_loc, cols_loc, nb, host_cores) / HOST_LU_EFFICIENCY,
            0.0,
        )
    };

    // Look-ahead pre-update: before the next panel can factor, its `nb`
    // columns of the trailing matrix must be brought up to date by the
    // host (a narrow GEMM on the panel cores) — the cost that bounds NB
    // from above once panels stop amortizing it.
    let pre = if env.cards > 0 && rows_loc > 0 {
        host.gemm_time_s(rows_loc, nb, env.offload.kt, panel_cores)
    } else {
        0.0
    };

    StageParts {
        panel,
        pbcast,
        swap,
        trsm,
        ubcast,
        pre,
        update,
        busy,
    }
}

impl StageParts {
    /// Swap + DTRSM + `U` broadcast: what the card waits through unless
    /// the scheme hides it.
    #[inline]
    fn three(&self) -> f64 {
        self.swap + self.trsm + self.ubcast
    }

    /// Overlaps the ingredients under `lookahead` (Fig. 8) and returns
    /// `(stage_time, three_exposed, panel_exposed)`.
    #[inline]
    pub(crate) fn compose(&self, lookahead: Lookahead) -> (f64, f64, f64) {
        let three = self.three();
        match lookahead {
            Lookahead::None => (
                self.panel + self.pbcast + three + self.update,
                three,
                self.panel + self.pbcast,
            ),
            Lookahead::Basic => {
                let overlap = self.update.max(self.pre + self.panel + self.pbcast);
                (
                    three + overlap,
                    three,
                    (self.pre + self.panel + self.pbcast - self.update).max(0.0),
                )
            }
            Lookahead::Pipelined => {
                // Only the first strip of the three steps is exposed; the
                // rest hides under the update. The strip machinery costs
                // `PIPELINE_OVERHEAD` of the three steps, paid on the host
                // path where it delays the panel.
                let first_strip = three / STRIPS as f64;
                let host_path = self.pre + self.panel + self.pbcast + three * PIPELINE_OVERHEAD;
                let card_path = self.update + first_strip;
                (
                    card_path.max(host_path),
                    first_strip,
                    (host_path - card_path).max(0.0),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_env_borrows_the_configs_own_models() {
        let cfg = HybridConfig::new(84_000, ProcessGrid::new(2, 2), 2);
        let env = StageEnv::healthy(&cfg);
        assert!(std::ptr::eq(env.net, &cfg.net));
        assert!(std::ptr::eq(env.offload, &cfg.offload));
        assert_eq!((env.grid, env.cards), (cfg.grid, 2));
    }

    #[test]
    fn extents_vanish_on_the_last_stage_and_shrink_with_the_grid() {
        let g1 = ProcessGrid::new(1, 1);
        let g = ProcessGrid::new(2, 3);
        // 10 blocks of 100: after stage 0, nine trail.
        assert_eq!(worst_extents(g1, 1000, 100, 0), (900, 900));
        assert_eq!(worst_extents(g, 1000, 100, 0), (500, 300));
        assert_eq!(worst_extents(g, 1000, 100, 9), (0, 0));
        // Ragged N: 951 is still 10 blocks.
        assert_eq!(worst_extents(g, 951, 100, 0), (500, 300));
    }

    #[test]
    fn schemes_order_the_same_ingredients() {
        let cfg = HybridConfig::new(84_000, ProcessGrid::new(1, 1), 1);
        let (rows, cols) = worst_extents(cfg.grid, cfg.n, cfg.nb, 5);
        let p = parts(&StageEnv::healthy(&cfg), 5, rows, cols);
        let time = |la| p.compose(la).0;
        assert!(time(Lookahead::None) > time(Lookahead::Basic));
        assert!(time(Lookahead::Basic) > time(Lookahead::Pipelined));
        // No look-ahead is the plain sum.
        let (t, three, panel) = p.compose(Lookahead::None);
        assert_eq!(t, p.panel + p.pbcast + p.three() + p.update);
        assert_eq!((three, panel), (p.three(), p.panel + p.pbcast));
    }

    /// The per-stage cost model exists once: a driver under `hybrid/`
    /// that prices a swap, a DTRSM or a U broadcast itself is a fork of
    /// this file.
    #[test]
    fn no_stage_arithmetic_outside_this_file() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/hybrid");
        let mut forks = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "rs") || path.ends_with("stage.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for (i, line) in text.lines().enumerate() {
                if ["swap_time_s(", "trsm_time_s(", ".u_bcast("]
                    .iter()
                    .any(|call| line.contains(call))
                {
                    forks.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
        assert!(
            forks.is_empty(),
            "stage arithmetic outside hybrid/stage.rs:\n{}",
            forks.join("\n")
        );
    }
}
