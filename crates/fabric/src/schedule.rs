//! Message-level communication schedules — the typed send/recv plans
//! the cluster simulators' analytic collectives stand for.
//!
//! The per-stage loop of hybrid HPL prices three fabric operations
//! analytically ([`bcast`](crate::NetModel::bcast),
//! [`long_swap`](crate::NetModel::long_swap),
//! [`u_bcast`](crate::NetModel::u_bcast) on [`crate::NetModel`]):
//! closed-form durations with no message-level
//! structure. That is fine for timing, but PRs 4–6 made the *plan*
//! mutable at runtime — patch remaps, wholesale regrids, correlated
//! multi-rank recovery batches — and a plan mistake (a ring that still
//! routes through a dead rank, a receiver whose sender died) is
//! invisible to a duration formula. This module materializes each
//! collective as an explicit [`CommSchedule`]: one ordered program of
//! [`CommOp`]s per rank, matching the algorithm the duration formula
//! assumes, routed around any dead ranks. `phi-lint`'s schedule passes
//! prove the materialized plan deadlock-free and every receiver fed
//! before the simulators are allowed to charge its analytic time.
//!
//! Semantics are rendezvous (synchronous send): a send completes only
//! when its matching receive is posted, the worst case for deadlock —
//! a plan safe under rendezvous is safe under any buffering.

use crate::grid::ProcessGrid;
use crate::net::BcastScheme;

/// Tag space of the panel broadcast along a process row; strip `k` of a
/// pipelined broadcast uses `PANEL_TAG + k`.
const PANEL_TAG: u32 = 0x100;
/// Tag space of the long-swap exchange down a process column; doubling
/// round `d` uses `SWAP_TAG + d`.
const SWAP_TAG: u32 = 0x200;
/// Tag of the `U` broadcast down a process column.
const U_TAG: u32 = 0x300;

/// One typed point-to-point operation in a rank's program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommOp {
    /// Blocking (rendezvous) send of `bytes` to `to` under `tag`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag (matching is FIFO per `(src, dst, tag)`).
        tag: u32,
        /// Payload size, for conservation accounting.
        bytes: u64,
    },
    /// Blocking receive from `from` under `tag`.
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u32,
    },
}

impl CommOp {
    /// The peer rank this operation synchronizes with.
    pub fn peer(&self) -> usize {
        match *self {
            CommOp::Send { to, .. } => to,
            CommOp::Recv { from, .. } => from,
        }
    }
}

/// A complete message-level schedule: one ordered op program per rank,
/// plus the liveness map the plan was built against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommSchedule {
    /// Human label (`"panel-bcast ring 10x10"`, …) used in diagnostics.
    pub label: String,
    /// Total ranks of the grid, dead ones included.
    pub nranks: usize,
    /// `live[r]` — whether rank `r` participates. Dead ranks must have
    /// empty programs and appear in nobody's ops.
    pub live: Vec<bool>,
    /// Per-rank op sequences, executed strictly in order.
    pub programs: Vec<Vec<CommOp>>,
}

impl CommSchedule {
    /// An empty schedule over `nranks` all-live ranks.
    pub fn empty(label: impl Into<String>, nranks: usize) -> Self {
        Self {
            label: label.into(),
            nranks,
            live: vec![true; nranks],
            programs: vec![Vec::new(); nranks],
        }
    }

    /// Appends `op` to rank `r`'s program.
    pub fn push(&mut self, r: usize, op: CommOp) {
        self.programs[r].push(op);
    }

    /// Total operations across all ranks.
    pub fn total_ops(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }
}

/// One communication regime of a (possibly fault-degraded) run: the
/// grid in force, which original ranks are dead, and whether the
/// survivors reshaped wholesale onto a fallback grid. The simulators
/// emit a sequence of these ([`crate::grid::RemapStrategy`] decides the
/// transitions) and the schedule lint verifies every one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleShape {
    /// The grid schedules are built on. After a wholesale reshape this
    /// is the fallback grid and `dead_ranks` is empty (the fallback
    /// grid renumbers survivors densely).
    pub grid: ProcessGrid,
    /// Ranks of `grid` that are dead and must be routed around
    /// (patch-remap regimes keep the original shape).
    pub dead_ranks: Vec<usize>,
    /// Whether this regime sits on a wholesale fallback grid.
    pub reshaped: bool,
}

impl ScheduleShape {
    /// A healthy shape: everyone lives.
    pub fn healthy(grid: ProcessGrid) -> Self {
        Self {
            grid,
            dead_ranks: Vec::new(),
            reshaped: false,
        }
    }

    /// Short description for gate tables.
    pub fn label(&self) -> String {
        if self.reshaped {
            format!("{}x{} reshaped", self.grid.p, self.grid.q)
        } else if self.dead_ranks.is_empty() {
            format!("{}x{}", self.grid.p, self.grid.q)
        } else {
            format!(
                "{}x{} -{} dead",
                self.grid.p,
                self.grid.q,
                self.dead_ranks.len()
            )
        }
    }
}

/// Builds message-level schedules on a grid, routing around dead ranks.
#[derive(Clone, Debug)]
pub struct ScheduleBuilder {
    grid: ProcessGrid,
    live: Vec<bool>,
}

impl ScheduleBuilder {
    /// A builder over a fully-live grid.
    pub fn new(grid: ProcessGrid) -> Self {
        Self {
            live: vec![true; grid.size()],
            grid,
        }
    }

    /// A builder for a shape: dead ranks are excluded from every
    /// collective's membership.
    pub fn for_shape(shape: &ScheduleShape) -> Self {
        let mut b = Self::new(shape.grid);
        for &r in &shape.dead_ranks {
            if r < b.live.len() {
                b.live[r] = false;
            }
        }
        b
    }

    /// Marks `rank` dead.
    pub fn kill(mut self, rank: usize) -> Self {
        self.live[rank] = false;
        self
    }

    fn fresh(&self, label: String) -> CommSchedule {
        CommSchedule {
            label,
            nranks: self.grid.size(),
            live: self.live.clone(),
            programs: vec![Vec::new(); self.grid.size()],
        }
    }

    /// Live ranks of process row `p`, in column order.
    fn live_row(&self, p: usize) -> Vec<usize> {
        (0..self.grid.q)
            .map(|q| p * self.grid.q + q)
            .filter(|&r| self.live[r])
            .collect()
    }

    /// Live ranks of process column `q`, in row order.
    fn live_col(&self, q: usize) -> Vec<usize> {
        (0..self.grid.p)
            .map(|p| p * self.grid.q + q)
            .filter(|&r| self.live[r])
            .collect()
    }

    /// Rotates `members` so the live member at-or-after column `root`
    /// leads (the broadcast root; a dead root's duty falls to the next
    /// live column, exactly as the ring order would visit it).
    fn rooted(grid: &ProcessGrid, members: &[usize], root_col: usize) -> Vec<usize> {
        if members.is_empty() {
            return Vec::new();
        }
        let pos = members
            .iter()
            .position(|&r| r % grid.q >= root_col)
            .unwrap_or(0);
        let mut out = Vec::with_capacity(members.len());
        out.extend_from_slice(&members[pos..]);
        out.extend_from_slice(&members[..pos]);
        out
    }

    /// Appends one broadcast of `bytes` from the member at the head of
    /// `ring` to the rest, under `scheme`, into `s`.
    fn bcast_into(s: &mut CommSchedule, scheme: BcastScheme, ring: &[usize], bytes: u64, tag: u32) {
        let m = ring.len();
        if m <= 1 {
            return;
        }
        match scheme {
            BcastScheme::Ring => {
                // Increasing ring: root sends to next; middles receive
                // then forward; the last member only receives.
                for i in 0..m {
                    if i > 0 {
                        s.push(
                            ring[i],
                            CommOp::Recv {
                                from: ring[i - 1],
                                tag,
                            },
                        );
                    }
                    if i + 1 < m {
                        s.push(
                            ring[i],
                            CommOp::Send {
                                to: ring[i + 1],
                                tag,
                                bytes,
                            },
                        );
                    }
                }
            }
            BcastScheme::TwoRing => {
                // Root feeds two chains: the first half forward, the
                // second half walked from the far end backward.
                let half = (m - 1).div_ceil(2);
                let fwd: Vec<usize> = ring[..=half].to_vec();
                let mut bwd: Vec<usize> = vec![ring[0]];
                bwd.extend(ring[half + 1..].iter().rev());
                for chain in [&fwd, &bwd] {
                    for i in 0..chain.len() {
                        if i > 0 {
                            s.push(
                                chain[i],
                                CommOp::Recv {
                                    from: chain[i - 1],
                                    tag,
                                },
                            );
                        }
                        if i + 1 < chain.len() {
                            s.push(
                                chain[i],
                                CommOp::Send {
                                    to: chain[i + 1],
                                    tag,
                                    bytes,
                                },
                            );
                        }
                    }
                }
            }
            BcastScheme::Binomial => {
                // Round k: members with index < 2^k send to index + 2^k.
                let mut dist = 1usize;
                while dist < m {
                    for i in 0..dist.min(m) {
                        if i + dist < m {
                            s.push(
                                ring[i],
                                CommOp::Send {
                                    to: ring[i + dist],
                                    tag,
                                    bytes,
                                },
                            );
                            s.push(ring[i + dist], CommOp::Recv { from: ring[i], tag });
                        }
                    }
                    dist *= 2;
                }
            }
        }
    }

    /// Panel broadcast along every process row: the live member of
    /// column `root_col` (or the next live column) roots a `scheme`
    /// broadcast of `bytes` to its row. `strips` splits the message
    /// into that many sequential per-strip broadcasts (the pipelined
    /// look-ahead shape); each strip uses `PANEL_TAG + strip`.
    fn panel_bcast(
        &self,
        scheme: BcastScheme,
        root_col: usize,
        bytes: u64,
        strips: usize,
    ) -> CommSchedule {
        let strips = strips.max(1);
        let mut s = self.fresh(format!(
            "panel-bcast {} root-col {} x{} strips on {}x{}",
            scheme.name(),
            root_col,
            strips,
            self.grid.p,
            self.grid.q
        ));
        let strip_bytes = (bytes / strips as u64).max(1);
        for p in 0..self.grid.p {
            let ring = Self::rooted(&self.grid, &self.live_row(p), root_col);
            for k in 0..strips {
                Self::bcast_into(&mut s, scheme, &ring, strip_bytes, PANEL_TAG + k as u32);
            }
        }
        s
    }

    /// Long-swap ("spread-roll") exchange down every process column:
    /// recursive-doubling pairwise exchanges among the live rows, the
    /// lower partner sending first — the head-to-head-safe idiom. Round
    /// `d` uses `SWAP_TAG + d`.
    fn long_swap(&self, bytes: u64) -> CommSchedule {
        let mut s = self.fresh(format!("long-swap on {}x{}", self.grid.p, self.grid.q));
        for q in 0..self.grid.q {
            let members = self.live_col(q);
            let m = members.len();
            let mut dist = 1usize;
            let mut round = 0u32;
            while dist < m {
                for i in 0..m {
                    let j = i ^ dist;
                    if j >= m || j <= i {
                        continue;
                    }
                    let (lo, hi) = (members[i], members[j]);
                    let tag = SWAP_TAG + round;
                    // Lower sends first / higher receives first: no
                    // head-to-head rendezvous.
                    s.push(lo, CommOp::Send { to: hi, tag, bytes });
                    s.push(lo, CommOp::Recv { from: hi, tag });
                    s.push(hi, CommOp::Recv { from: lo, tag });
                    s.push(hi, CommOp::Send { to: lo, tag, bytes });
                }
                dist *= 2;
                round += 1;
            }
        }
        s
    }

    /// `U` broadcast down every process column: a pipelined ring from
    /// the live member of row `root_row` (or the next live row).
    fn u_bcast(&self, root_row: usize, bytes: u64) -> CommSchedule {
        let mut s = self.fresh(format!(
            "u-bcast root-row {} on {}x{}",
            root_row, self.grid.p, self.grid.q
        ));
        for q in 0..self.grid.q {
            let members = self.live_col(q);
            let pos = members
                .iter()
                .position(|&r| r / self.grid.q >= root_row)
                .unwrap_or(0);
            let mut ring = Vec::with_capacity(members.len());
            ring.extend_from_slice(&members[pos..]);
            ring.extend_from_slice(&members[..pos]);
            Self::bcast_into(&mut s, BcastScheme::Ring, &ring, bytes, U_TAG);
        }
        s
    }

    /// The full per-stage plan: panel broadcast (split into `strips`
    /// under the pipelined look-ahead), long swap, then `U` broadcast —
    /// concatenated in the order every rank executes them.
    pub fn stage_schedule(
        &self,
        scheme: BcastScheme,
        root_col: usize,
        root_row: usize,
        panel_bytes: u64,
        swap_bytes: u64,
        strips: usize,
    ) -> CommSchedule {
        let mut s = self.panel_bcast(scheme, root_col, panel_bytes, strips);
        s.label = format!(
            "stage {} strips={} on {}x{} ({} dead)",
            scheme.name(),
            strips.max(1),
            self.grid.p,
            self.grid.q,
            self.live.iter().filter(|&&l| !l).count()
        );
        for (r, prog) in self.long_swap(swap_bytes).programs.into_iter().enumerate() {
            s.programs[r].extend(prog);
        }
        for (r, prog) in self
            .u_bcast(root_row, swap_bytes)
            .programs
            .into_iter()
            .enumerate()
        {
            s.programs[r].extend(prog);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bcast_has_linear_op_count_and_skips_dead() {
        let g = ProcessGrid::new(1, 5);
        let s = ScheduleBuilder::new(g).panel_bcast(BcastScheme::Ring, 0, 1000, 1);
        // 4 sends + 4 recvs along the chain.
        assert_eq!(s.total_ops(), 8);
        let dead = ScheduleBuilder::new(g)
            .kill(2)
            .panel_bcast(BcastScheme::Ring, 0, 1000, 1);
        assert_eq!(dead.total_ops(), 6, "ring over 4 live members");
        assert!(dead.programs[2].is_empty());
        for prog in &dead.programs {
            for op in prog {
                assert_ne!(op.peer(), 2, "no op may address the dead rank");
            }
        }
    }

    #[test]
    fn dead_root_duty_falls_to_next_live_column() {
        let g = ProcessGrid::new(1, 4);
        let s = ScheduleBuilder::new(g)
            .kill(1)
            .panel_bcast(BcastScheme::Ring, 1, 64, 1);
        // Rank 2 roots: it only sends, never receives.
        assert!(matches!(s.programs[2][0], CommOp::Send { .. }));
        assert!(s.programs[2]
            .iter()
            .all(|op| matches!(op, CommOp::Send { .. })));
    }

    #[test]
    fn binomial_and_tworing_cover_every_member() {
        for scheme in [BcastScheme::TwoRing, BcastScheme::Binomial] {
            for q in 2..=9 {
                let g = ProcessGrid::new(1, q);
                let s = ScheduleBuilder::new(g).panel_bcast(scheme, 0, 512, 1);
                // Every non-root member receives exactly once.
                for r in 1..q {
                    let recvs = s.programs[r]
                        .iter()
                        .filter(|op| matches!(op, CommOp::Recv { .. }))
                        .count();
                    assert_eq!(recvs, 1, "{} q={} rank {}", scheme.name(), q, r);
                }
                let sends: usize = s
                    .programs
                    .iter()
                    .flatten()
                    .filter(|op| matches!(op, CommOp::Send { .. }))
                    .count();
                assert_eq!(sends, q - 1, "{} q={}", scheme.name(), q);
            }
        }
    }

    #[test]
    fn long_swap_pairs_are_symmetric() {
        let g = ProcessGrid::new(4, 1);
        let s = ScheduleBuilder::new(g).long_swap(256);
        // Recursive doubling over 4 rows: 2 rounds x 2 pairs x 4 ops.
        assert_eq!(s.total_ops(), 16);
        let sends: usize = s
            .programs
            .iter()
            .flatten()
            .filter(|op| matches!(op, CommOp::Send { .. }))
            .count();
        assert_eq!(sends, 8);
    }

    #[test]
    fn stage_schedule_concatenates_all_three_collectives() {
        let g = ProcessGrid::new(2, 2);
        let b = ScheduleBuilder::new(g);
        let st = b.stage_schedule(BcastScheme::Ring, 0, 0, 9600, 4800, 3);
        let parts = b.panel_bcast(BcastScheme::Ring, 0, 9600, 3).total_ops()
            + b.long_swap(4800).total_ops()
            + b.u_bcast(0, 4800).total_ops();
        assert_eq!(st.total_ops(), parts);
        assert!(st.label.contains("stage"));
    }

    #[test]
    fn shape_labels_and_builder_roundtrip() {
        let g = ProcessGrid::new(4, 8);
        assert_eq!(ScheduleShape::healthy(g).label(), "4x8");
        let shape = ScheduleShape {
            grid: g,
            dead_ranks: vec![5, 9],
            reshaped: false,
        };
        assert_eq!(shape.label(), "4x8 -2 dead");
        let b = ScheduleBuilder::for_shape(&shape);
        let s = b.stage_schedule(BcastScheme::Binomial, 1, 1, 8192, 4096, 1);
        assert!(s.programs[5].is_empty() && s.programs[9].is_empty());
        assert_eq!(s.live.iter().filter(|&&l| l).count(), 30);
    }
}
