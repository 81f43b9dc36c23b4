//! Timed offload DGEMM: the Fig. 11 discrete-event model and the fast
//! analytic approximation used per HPL stage.
//!
//! The DES reproduces the mechanics of Fig. 10: tile-strip packing on
//! designated host cores, DMA over per-card PCIe links (socket-
//! interleaved in the paper; modeled as independent links sharing the
//! host pack engine), request queues, card compute at the native DGEMM
//! rate of 60 cores (one core is reserved for communication — the 1.5%
//! loss the paper quotes), output-tile DMA overlapped with the next
//! tile's compute, and two-ended work stealing against the host.
//!
//! The dominant exposures the paper identifies emerge naturally: the
//! *first* tile waits for its input strips, the *last* tile's output
//! transfer cannot be hidden, and smaller matrices have fewer tiles to
//! amortize both — "efficiency degrades much faster [for two cards] ...
//! each Knights Corner is only solving half the problem size".

use super::tile_spans;
use crate::xeon::XeonModel;
use phi_des::{Kind, Sim};
use phi_fabric::PcieConfig;
use phi_knc::{GemmModel, Precision};
use phi_sched::TileDeque;
use std::cell::RefCell;
// lint:allow(unstable-iteration-order): membership tests only, never iterated.
use std::collections::HashSet;
use std::rc::Rc;

/// Inner GEMM blocking on the card (`k = 300`, Table II's best).
const K_INNER: usize = 300;

/// Timed offload-DGEMM engine.
#[derive(Clone, Copy, Debug)]
pub struct OffloadModel {
    /// Card DGEMM model.
    pub card: GemmModel,
    /// Host throughput model.
    pub host: XeonModel,
    /// PCIe parameters.
    pub pcie: PcieConfig,
    /// Tile depth (`Kt = 1200` in the paper's experiments).
    pub kt: usize,
}

impl Default for OffloadModel {
    fn default() -> Self {
        Self {
            card: GemmModel::default(),
            host: XeonModel::default(),
            pcie: PcieConfig::default(),
            kt: 1200,
        }
    }
}

/// Result of one offload DGEMM.
#[derive(Clone, Copy, Debug)]
pub struct OffloadOutcome {
    /// Wall (virtual) time, seconds.
    pub time_s: f64,
    /// Total card compute time (for idle accounting), seconds.
    pub card_busy_s: f64,
    /// Achieved GFLOPS over `2·m·n·kt`.
    pub gflops: f64,
    /// Tiles computed by the card(s).
    pub card_tiles: usize,
    /// Tiles computed by the host.
    pub host_tiles: usize,
    /// Tile grid used.
    pub grid: (usize, usize),
}

struct DesState {
    deque: TileDeque,
    tiles: Vec<(usize, usize)>,
    rows: Vec<(usize, usize)>,
    cols: Vec<(usize, usize)>,
    /// Per-card (strip kind, index) already transferred.
    sent: Vec<HashSet<(u8, usize)>>, // lint:allow(unstable-iteration-order)
    /// Per-card input-ready horizon per strip.
    to_device: Vec<phi_des::Link>,
    to_host: Vec<phi_des::Link>,
    pack: phi_des::Link,
    strip_ready: Vec<std::collections::HashMap<(u8, usize), f64>>, // lint:allow(unstable-iteration-order)
    card_busy: f64,
    card_done: f64,
    host_done: f64,
    card_tiles: usize,
    host_tiles: usize,
}

impl OffloadModel {
    /// Card compute time for one `mt × nt × kt` tile: the native
    /// outer-product rate of 60 cores (the 61st polls the queues).
    fn tile_time_card(&self, mt: usize, nt: usize) -> f64 {
        let eff = self
            .card
            .outer_product_efficiency(mt, nt, K_INNER, Precision::F64);
        let peak = self.card.chip.native_peak_gflops(Precision::F64) * 1e9;
        2.0 * mt as f64 * nt as f64 * self.kt as f64 / (eff.max(1e-3) * peak)
    }

    /// Picks the tile grid maximizing DES throughput for an `m × n`
    /// problem on `cards` cards — the paper's run-time tile-size
    /// selection ("for each matrix size ... pre-compute the best tile
    /// sizes ... and dynamically pick the best tile size at run-time").
    fn best_grid(&self, m: usize, n: usize, cards: usize) -> (usize, usize) {
        let mut best = (1, 1);
        let mut best_gf = 0.0;
        for g in 1..=10usize {
            let grid = (g, g);
            if m / g == 0 || n / g == 0 {
                break;
            }
            let out = self.simulate_with_grid(m, n, cards, 0.0, grid);
            if out.gflops > best_gf {
                best_gf = out.gflops;
                best = grid;
            }
        }
        best
    }

    /// DES with automatic grid selection (the Fig. 11 entry point).
    pub fn simulate(&self, m: usize, n: usize, cards: usize, host_cores: f64) -> OffloadOutcome {
        let grid = self.best_grid(m, n, cards);
        self.simulate_with_grid(m, n, cards, host_cores, grid)
    }

    /// Full DES with an explicit tile grid.
    pub fn simulate_with_grid(
        &self,
        m: usize,
        n: usize,
        cards: usize,
        host_cores: f64,
        grid: (usize, usize),
    ) -> OffloadOutcome {
        assert!(cards >= 1, "offload requires a card");
        assert!(m > 0 && n > 0);
        let rows = tile_spans(m, grid.0);
        let cols = tile_spans(n, grid.1);
        // Column-major stealing order (Fig. 10a).
        let tiles: Vec<(usize, usize)> = (0..cols.len())
            .flat_map(|j| (0..rows.len()).map(move |i| (i, j)))
            .collect();
        let ntiles = tiles.len();

        let st = Rc::new(RefCell::new(DesState {
            deque: TileDeque::new(ntiles),
            tiles,
            rows,
            cols,
            sent: vec![HashSet::new(); cards], // lint:allow(unstable-iteration-order)
            to_device: vec![phi_des::Link::new(self.pcie.effective_bw, self.pcie.latency); cards],
            to_host: vec![phi_des::Link::new(self.pcie.effective_bw, self.pcie.latency); cards],
            pack: phi_des::Link::new(
                self.host.cfg.stream_bw_gbs * 1e9 * self.host.pack_bw_fraction,
                0.0,
            ),
            strip_ready: vec![std::collections::HashMap::new(); cards], // lint:allow(unstable-iteration-order)
            card_busy: 0.0,
            card_done: 0.0,
            host_done: 0.0,
            card_tiles: 0,
            host_tiles: 0,
        }));

        let mut sim = Sim::new();
        let model = *self;
        for card in 0..cards {
            let st2 = st.clone();
            sim.schedule(0.0, move |s| card_step(s, st2, model, card));
        }
        if host_cores > 0.0 {
            let st2 = st.clone();
            sim.schedule(0.0, move |s| host_step(s, st2, model, host_cores));
        }
        sim.run();

        let st = Rc::try_unwrap(st)
            .ok()
            .expect("state released")
            .into_inner();
        let time_s = st.card_done.max(st.host_done).max(sim.now());
        let flops = 2.0 * m as f64 * n as f64 * self.kt as f64;
        OffloadOutcome {
            time_s,
            card_busy_s: st.card_busy,
            gflops: flops / time_s / 1e9,
            card_tiles: st.card_tiles,
            host_tiles: st.host_tiles,
            grid,
        }
    }

    /// Fast closed-form approximation used once per HPL stage: combined
    /// card + host rate with first-strip and last-output exposure.
    /// Cross-checked against the DES in tests.
    pub fn analytic(&self, m: usize, n: usize, cards: usize, host_cores: f64) -> OffloadOutcome {
        let Some(t) = self.closed_form_terms(m, n, cards, host_cores) else {
            return OffloadOutcome::EMPTY;
        };
        let time_s = t.flops / (t.card_rate + t.host_rate) + t.exposure;
        let card_share = t.card_rate / (t.card_rate + t.host_rate);
        t.outcome(time_s, t.flops * card_share / t.card_rate.max(1.0))
    }

    /// Closed-form **static** split companion to [`analytic`](Self::analytic):
    /// the card side gets a fixed `card_fraction` of the flops, the host
    /// the rest, and neither adapts — `time = max(sides) + exposure`,
    /// using the exact same per-side rates and exposure terms as the
    /// dynamic closed form. At the dynamic equilibrium fraction the two
    /// coincide; anywhere else the static split is slower, which is the
    /// §V-B argument for work stealing that the tuner re-derives.
    pub(crate) fn analytic_split(
        &self,
        m: usize,
        n: usize,
        cards: usize,
        host_cores: f64,
        card_fraction: f64,
    ) -> OffloadOutcome {
        assert!((0.0..=1.0).contains(&card_fraction));
        let Some(t) = self.closed_form_terms(m, n, cards, host_cores) else {
            return OffloadOutcome::EMPTY;
        };
        // With no host lane the card must take everything.
        let f = if t.host_rate > 0.0 {
            card_fraction
        } else {
            1.0
        };
        let t_card = f * t.flops / t.card_rate;
        let t_host = if t.host_rate > 0.0 {
            (1.0 - f) * t.flops / t.host_rate
        } else {
            0.0
        };
        t.outcome(t_card.max(t_host) + t.exposure, t_card)
    }

    /// The per-side rates and the transfer exposure both closed forms
    /// are built from; `None` for an empty problem.
    #[inline]
    fn closed_form_terms(
        &self,
        m: usize,
        n: usize,
        cards: usize,
        host_cores: f64,
    ) -> Option<ClosedFormTerms> {
        assert!(cards >= 1);
        if m == 0 || n == 0 {
            return None;
        }
        // A fixed 6×6-per-card grid approximates the run-time selection
        // well at HPL scales.
        let g = 6usize.min(m).min(n);
        let (mt, nt) = (m / g.max(1), n / g.max(1));
        let tile_t = self.tile_time_card(mt.max(1), nt.max(1));
        let c_dma = 8.0 * (mt * nt) as f64 / self.pcie.effective_bw;
        // Effective per-card rate: compute, degraded when output DMA
        // cannot hide.
        let tile_flops = 2.0 * (mt * nt) as f64 * self.kt as f64;
        let card_rate = tile_flops / tile_t.max(c_dma) * cards as f64;
        let host_rate = if host_cores > 0.0 {
            let eff = self.host.dgemm_efficiency(n.min(m));
            eff * self.host.cfg.freq_ghz * self.host.cfg.dp_flops_per_cycle * 1e9 * host_cores
        } else {
            0.0
        };
        let in_strip = 8.0
            * (mt * self.kt + nt * self.kt) as f64
            * (1.0 / (self.host.cfg.stream_bw_gbs * 1e9 * self.host.pack_bw_fraction)
                + 1.0 / self.pcie.effective_bw);
        Some(ClosedFormTerms {
            g,
            flops: 2.0 * m as f64 * n as f64 * self.kt as f64,
            card_rate,
            host_rate,
            exposure: in_strip * cards as f64 + c_dma.min(tile_t),
        })
    }
}

/// What [`OffloadModel::analytic`] and
/// [`OffloadModel::analytic_split`] share.
struct ClosedFormTerms {
    /// Tile grid edge.
    g: usize,
    /// Flops of the whole update.
    flops: f64,
    /// Aggregate card rate, flop/s.
    card_rate: f64,
    /// Host stealing-lane rate, flop/s (0 with no host cores).
    host_rate: f64,
    /// First-strip input plus last-output transfer time nothing hides.
    exposure: f64,
}

impl ClosedFormTerms {
    fn outcome(&self, time_s: f64, card_busy_s: f64) -> OffloadOutcome {
        OffloadOutcome {
            time_s,
            card_busy_s,
            gflops: self.flops / time_s / 1e9,
            card_tiles: 0,
            host_tiles: 0,
            grid: (self.g, self.g),
        }
    }
}

impl OffloadOutcome {
    /// The outcome of an empty (`m == 0` or `n == 0`) update.
    const EMPTY: Self = Self {
        time_s: 0.0,
        card_busy_s: 0.0,
        gflops: 0.0,
        card_tiles: 0,
        host_tiles: 0,
        grid: (1, 1),
    };
}

/// One card finishing a tile (or starting up): steal, ensure inputs,
/// compute, ship the result.
fn card_step(sim: &mut Sim, st: Rc<RefCell<DesState>>, model: OffloadModel, card: usize) {
    let now = sim.now();
    let mut s = st.borrow_mut();
    let Some(idx) = s.deque.steal_front() else {
        s.card_done = s.card_done.max(now);
        return;
    };
    // Ensure this tile's strips (and prefetch the likely-next tile's) are
    // on the card.
    let input_ready = ensure_strips(&mut s, &model, now, card, idx);
    // Peek prefetch: the next front tile this card would take.
    let prefetch_idx = idx + 1;
    if prefetch_idx < s.tiles.len() {
        ensure_strips(&mut s, &model, now, card, prefetch_idx);
    }
    let (ti, tj) = s.tiles[idx];
    let (_, mt) = s.rows[ti];
    let (_, nt) = s.cols[tj];
    let start = now.max(input_ready) + model.pcie.queue_poll_latency;
    let dur = model.tile_time_card(mt, nt);
    let end = start + dur;
    s.card_busy += dur;
    s.card_tiles += 1;
    // Output DMA overlaps the next tile's compute.
    let (_, c_dma_end) = s.to_host[card].transfer(end, 8.0 * (mt * nt) as f64);
    s.card_done = s.card_done.max(c_dma_end);
    drop(s);
    sim.trace_mut().record(card as u32, start, end, Kind::Gemm);
    let st2 = st.clone();
    sim.schedule(end - now, move |sm| card_step(sm, st2, model, card));
}

/// Books pack + DMA for any strips tile `idx` needs that card `card`
/// does not yet have; returns the time all of the tile's inputs are
/// resident.
fn ensure_strips(s: &mut DesState, model: &OffloadModel, now: f64, card: usize, idx: usize) -> f64 {
    let (ti, tj) = s.tiles[idx];
    let mut ready = now;
    for (kind, strip_idx, elems) in [
        (0u8, ti, s.rows[ti].1 * model.kt),
        (1u8, tj, s.cols[tj].1 * model.kt),
    ] {
        let key = (kind, strip_idx);
        if let Some(&t) = s.strip_ready[card].get(&key) {
            ready = ready.max(t);
            continue;
        }
        if s.sent[card].contains(&key) {
            continue;
        }
        let bytes = 8.0 * elems as f64;
        // Pack-and-copy on the host, then DMA — both serialized resources.
        let (_, pack_end) = s.pack.transfer(now, 2.0 * bytes);
        let (_, dma_end) = s.to_device[card].transfer(pack_end, bytes);
        s.sent[card].insert(key);
        s.strip_ready[card].insert(key, dma_end);
        ready = ready.max(dma_end);
    }
    ready
}

impl OffloadModel {
    /// Ablation: a **static** host/card split instead of work stealing.
    /// The card processes the first `ceil(f·T)` tiles, the host the rest,
    /// with `f = card_fraction`; neither side adapts. With a perfect
    /// fraction this matches stealing; with a mis-estimated one (the
    /// realistic case — per-tile rates vary) the faster side idles, which
    /// is exactly why Section V-B uses dynamic stealing.
    pub fn simulate_static_split(
        &self,
        m: usize,
        n: usize,
        host_cores: f64,
        grid: (usize, usize),
        card_fraction: f64,
    ) -> OffloadOutcome {
        assert!((0.0..=1.0).contains(&card_fraction));
        let rows = tile_spans(m, grid.0);
        let cols = tile_spans(n, grid.1);
        let tiles: Vec<(usize, usize)> = (0..cols.len())
            .flat_map(|j| (0..rows.len()).map(move |i| (i, j)))
            .collect();
        let ntiles = tiles.len();
        let card_tiles = ((card_fraction * ntiles as f64).ceil() as usize).min(ntiles);

        // Card side: serialized tile computes with input/output transfer
        // exposure, as in the DES but with a fixed worklist.
        let mut pack = phi_des::Link::new(
            self.host.cfg.stream_bw_gbs * 1e9 * self.host.pack_bw_fraction,
            0.0,
        );
        let mut to_dev = phi_des::Link::new(self.pcie.effective_bw, self.pcie.latency);
        let mut to_host = phi_des::Link::new(self.pcie.effective_bw, self.pcie.latency);
        let mut sent: HashSet<(u8, usize)> = HashSet::new(); // lint:allow(unstable-iteration-order)
        let mut t_card = 0.0f64;
        let mut busy = 0.0f64;
        let mut card_done = 0.0f64;
        for &(ti, tj) in &tiles[..card_tiles] {
            let mut input_ready = t_card;
            for (kind, idx, elems) in [
                (0u8, ti, rows[ti].1 * self.kt),
                (1u8, tj, cols[tj].1 * self.kt),
            ] {
                if sent.insert((kind, idx)) {
                    let bytes = 8.0 * elems as f64;
                    let (_, pe) = pack.transfer(t_card, 2.0 * bytes);
                    let (_, de) = to_dev.transfer(pe, bytes);
                    input_ready = input_ready.max(de);
                }
            }
            let start = t_card.max(input_ready) + self.pcie.queue_poll_latency;
            let dur = self.tile_time_card(rows[ti].1, cols[tj].1);
            busy += dur;
            let end = start + dur;
            let (_, ce) = to_host.transfer(end, 8.0 * (rows[ti].1 * cols[tj].1) as f64);
            card_done = card_done.max(ce);
            t_card = end;
        }
        // Host side: its fixed share, sequential at its DGEMM rate.
        let mut t_host = 0.0f64;
        for &(ti, tj) in &tiles[card_tiles..] {
            t_host += self
                .host
                .gemm_time_s(rows[ti].1, cols[tj].1, self.kt, host_cores);
        }
        let time_s = card_done.max(t_card).max(t_host).max(1e-12);
        let flops = 2.0 * m as f64 * n as f64 * self.kt as f64;
        OffloadOutcome {
            time_s,
            card_busy_s: busy,
            gflops: flops / time_s / 1e9,
            card_tiles,
            host_tiles: ntiles - card_tiles,
            grid,
        }
    }
}

/// The host's work-stealing lane: grabs tiles from the back.
fn host_step(sim: &mut Sim, st: Rc<RefCell<DesState>>, model: OffloadModel, cores: f64) {
    let now = sim.now();
    let mut s = st.borrow_mut();
    let Some(idx) = s.deque.steal_back() else {
        s.host_done = s.host_done.max(now);
        return;
    };
    let (ti, tj) = s.tiles[idx];
    let (_, mt) = s.rows[ti];
    let (_, nt) = s.cols[tj];
    s.host_tiles += 1;
    let dur = model.host.gemm_time_s(mt, nt, model.kt, cores);
    s.host_done = s.host_done.max(now + dur);
    drop(s);
    sim.trace_mut().record(100, now, now + dur, Kind::Gemm);
    let st2 = st.clone();
    sim.schedule(dur, move |sm| host_step(sm, st2, model, cores));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_card_82k_hits_85_percent() {
        // Fig. 11a: "For 82K matrix it achieves ≈917 GFLOPS, resulting in
        // 85.4% efficiency."
        let model = OffloadModel::default();
        let out = model.simulate(82_000, 82_000, 1, 0.0);
        let eff = out.gflops / (model.card.chip.full_peak_gflops(Precision::F64));
        assert!(
            (eff - 0.854).abs() < 0.02,
            "82K single-card offload eff = {eff:.3} ({:.0} GFLOPS, grid {:?})",
            out.gflops,
            out.grid
        );
    }

    #[test]
    fn dual_card_efficiency_lower_and_degrades_faster() {
        let model = OffloadModel::default();
        let peak1 = model.card.chip.full_peak_gflops(Precision::F64);

        let one_big = model.simulate(82_000, 82_000, 1, 0.0);
        let two_big = model.simulate(82_000, 82_000, 2, 0.0);
        let e1_big = one_big.gflops / peak1;
        let e2_big = two_big.gflops / (2.0 * peak1);
        // Fig. 11b: dual-card peak ≈1785 GFLOPS, 83%.
        assert!(
            e2_big < e1_big,
            "dual-card eff {e2_big:.3} vs single {e1_big:.3}"
        );
        assert!((e2_big - 0.83).abs() < 0.025, "dual eff {e2_big:.3}");

        // Faster degradation at small sizes: the single-card efficiency
        // drop from 82K to 20K must be smaller than the dual-card drop.
        let one_small = model.simulate(20_000, 20_000, 1, 0.0);
        let two_small = model.simulate(20_000, 20_000, 2, 0.0);
        let drop1 = e1_big - one_small.gflops / peak1;
        let drop2 = e2_big - two_small.gflops / (2.0 * peak1);
        assert!(
            drop2 > drop1,
            "dual-card must degrade faster: {drop2:.3} vs {drop1:.3}"
        );
    }

    #[test]
    fn host_stealing_speeds_up_the_update() {
        let model = OffloadModel::default();
        let alone = model.simulate_with_grid(40_000, 40_000, 1, 0.0, (6, 6));
        let helped = model.simulate_with_grid(40_000, 40_000, 1, 12.0, (6, 6));
        assert!(helped.time_s < alone.time_s);
        assert!(helped.host_tiles > 0, "host must steal some tiles");
        assert!(helped.card_tiles > helped.host_tiles, "card does the bulk");
    }

    #[test]
    fn analytic_tracks_des() {
        let model = OffloadModel::default();
        for s in [20_000usize, 40_000, 82_000] {
            let des = model.simulate(s, s, 1, 0.0);
            let ana = model.analytic(s, s, 1, 0.0);
            let rel = (ana.gflops - des.gflops).abs() / des.gflops;
            assert!(
                rel < 0.10,
                "size {s}: analytic {:.0} vs DES {:.0} ({rel:.3})",
                ana.gflops,
                des.gflops
            );
        }
    }

    #[test]
    fn efficiency_degrades_slowly_with_size() {
        // Fig. 11a: "Overall, efficiency degrades slowly with decreasing
        // matrix sizes."
        let model = OffloadModel::default();
        let peak = model.card.chip.full_peak_gflops(Precision::F64);
        let mut last = 0.0;
        for s in [10_000usize, 20_000, 40_000, 82_000] {
            let eff = model.simulate(s, s, 1, 0.0).gflops / peak;
            assert!(eff > last, "monotone in size: {eff:.3} at {s}");
            last = eff;
        }
        assert!(last > 0.80);
    }

    #[test]
    fn static_split_never_beats_dynamic_closed_form() {
        let model = OffloadModel::default();
        let dynamic = model.analytic(60_000, 60_000, 1, 11.0);
        let mut best_static = f64::INFINITY;
        for f in [0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0] {
            let s = model.analytic_split(60_000, 60_000, 1, 11.0, f);
            best_static = best_static.min(s.time_s);
            assert!(
                s.time_s >= dynamic.time_s * 0.999,
                "static f={f} beat dynamic: {} vs {}",
                s.time_s,
                dynamic.time_s
            );
        }
        // At the right fraction the static split comes close.
        assert!(best_static < dynamic.time_s * 1.10);
        // A badly mis-set fraction hurts a lot.
        let bad = model.analytic_split(60_000, 60_000, 1, 11.0, 0.5);
        assert!(bad.time_s > dynamic.time_s * 1.3);
    }

    #[test]
    fn deterministic() {
        let model = OffloadModel::default();
        let a = model.simulate(30_000, 30_000, 2, 8.0);
        let b = model.simulate(30_000, 30_000, 2, 8.0);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.card_tiles, b.card_tiles);
    }
}
