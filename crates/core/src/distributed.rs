//! Distributed-memory numeric HPL on a `1 × Q` process grid.
//!
//! The timed cluster backends establish *performance* shape; this module
//! establishes *correctness* of the distributed algorithm itself: `Q`
//! ranks (real threads), each owning a block-cyclic slice of columns,
//! run the HPL stage loop with real arithmetic and real message passing
//! (in-process channels standing in for MPI):
//!
//! 1. the owner of panel `j` factors it (`getf2`) — with a column grid
//!    every panel is wholly local, as are all row swaps;
//! 2. the factored panel (its `L` part and pivot vector) is **broadcast
//!    along the process row**, exactly HPL's `HPL_bcast`;
//! 3. every rank applies the pivots to its local columns, forward-solves
//!    its share of `U`, and GEMM-updates its trailing blocks;
//! 4. **look-ahead**: the owner of panel `j+1` swaps/solves/updates that
//!    single panel *first* and factors it before touching the rest of
//!    its trailing columns, so the next broadcast enters the network as
//!    early as possible (Fig. 8b's overlap, expressed numerically).
//!
//! The result is bit-reproducible against the sequential blocked
//! reference (tested), and the solve passes the HPL residual.

use phi_blas::gemm::{gemm_with, BlockSizes};
use phi_blas::laswp::laswp_forward;
use phi_blas::lu::{getf2, LuError, LuFactors};
use phi_blas::trsm::trsm_left_lower_unit;
use phi_fabric::ProcessGrid;
use phi_matrix::{Matrix, Scalar};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// What one rank produces: its local columns plus the per-panel pivot
/// vectors of the panels it factored.
type RankOutput<T> = (Matrix<T>, Vec<(usize, Vec<usize>)>);

/// Why a distributed factorization stopped early.
///
/// Every rank returns the same `DistError` for a given failure: numeric
/// errors are broadcast as poison pills, and a vanished peer is detected
/// locally by the recv timeout, so no rank ever blocks forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistError {
    /// The factorization itself failed (singular panel somewhere).
    Numeric(LuError),
    /// A peer stopped sending: `rank` waited through every retry of its
    /// recv timeout without a panel or an abort pill arriving.
    PeerLost {
        /// The rank that gave up waiting.
        rank: usize,
        /// Recv attempts made before giving up.
        attempts: u32,
    },
    /// All peer channels disconnected while `rank` still expected a
    /// panel — the senders exited without broadcasting an abort.
    Disconnected {
        /// The rank that observed the hangup.
        rank: usize,
    },
    /// A rank's worker thread panicked instead of returning a result;
    /// the panic is contained and surfaced as an error to the caller.
    RankPanicked {
        /// The rank whose thread died.
        rank: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Numeric(e) => write!(f, "numeric failure: {e}"),
            DistError::PeerLost { rank, attempts } => {
                write!(f, "rank {rank} timed out after {attempts} recv attempts")
            }
            DistError::Disconnected { rank } => {
                write!(f, "rank {rank}: all peer channels disconnected")
            }
            DistError::RankPanicked { rank } => {
                write!(f, "rank {rank}: worker thread panicked")
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<LuError> for DistError {
    fn from(e: LuError) -> Self {
        DistError::Numeric(e)
    }
}

/// Recv-timeout and retry policy for the rank main loops.
///
/// A healthy broadcast arrives in microseconds; the defaults are generous
/// enough that only a genuinely dead peer trips them. Each retry doubles
/// the wait (bounded exponential backoff), so the default policy blocks
/// for at most `100ms · (2⁶ − 1) = 6.3 s` before declaring the peer lost.
#[derive(Clone, Copy, Debug)]
struct RecvPolicy {
    /// First recv timeout; doubled on every retry.
    pub initial_timeout: Duration,
    /// Total recv attempts before giving up.
    pub max_attempts: u32,
}

impl Default for RecvPolicy {
    fn default() -> Self {
        Self {
            initial_timeout: Duration::from_millis(100),
            max_attempts: 6,
        }
    }
}

/// A broadcast panel: the factored column block and its pivots.
struct PanelMsg<T: Scalar> {
    /// Global panel index.
    j: usize,
    /// The factored panel (rows `j*nb..n`, width of panel `j`),
    /// row-major.
    data: Matrix<T>,
    /// Panel-local pivot rows.
    ipiv: Vec<usize>,
}

/// Wire format: a factored panel, or a poison pill that aborts every
/// rank (a singular panel anywhere must not deadlock the others in
/// `recv`).
enum Msg<T: Scalar> {
    Panel(PanelMsg<T>),
    Abort(DistError),
}

/// Per-rank state for the distributed factorization.
struct Rank<T: Scalar> {
    q: usize,
    nb: usize,
    n: usize,
    /// Local columns: global panel `j` lives locally iff `j % Q == q`,
    /// stored concatenated in panel order.
    local: Matrix<T>,
    /// Global panel index → local panel slot.
    my_panels: Vec<usize>,
    to_peers: Vec<Sender<Msg<T>>>,
    from_peers: Receiver<Msg<T>>,
    policy: RecvPolicy,
}

impl<T: Scalar> Rank<T> {
    fn local_col_of(&self, j: usize) -> usize {
        // Position of global panel j among this rank's panels × nb.
        self.my_panels
            .iter()
            .position(|&g| g == j)
            .expect("panel not local")
            * self.nb
    }

    fn panel_width(&self, j: usize) -> usize {
        self.nb.min(self.n - j * self.nb)
    }

    /// Tells every peer to abort with `err`. Infallible by construction:
    /// a peer that already exited has dropped its receiver, and that is
    /// fine — it no longer needs the pill. No send outcome is ever
    /// unwrapped, so a half-dead grid cannot panic the survivors.
    fn broadcast_abort(&self, err: DistError) {
        for (peer, tx) in self.to_peers.iter().enumerate() {
            if peer != self.q {
                let _ = tx.send(Msg::Abort(err));
            }
        }
    }

    /// Receives the next message, retrying with exponential backoff per
    /// [`RecvPolicy`]. Returns an error — never blocks forever — if the
    /// peers hang up or stay silent through every attempt; either way the
    /// failure is re-broadcast so the rest of the grid unblocks too.
    fn recv_with_retry(&self) -> Result<Msg<T>, DistError> {
        let mut wait = self.policy.initial_timeout;
        for _ in 0..self.policy.max_attempts {
            match self.from_peers.recv_timeout(wait) {
                Ok(m) => return Ok(m),
                Err(RecvTimeoutError::Timeout) => {
                    wait = wait.saturating_mul(2);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let err = DistError::Disconnected { rank: self.q };
                    self.broadcast_abort(err);
                    return Err(err);
                }
            }
        }
        let err = DistError::PeerLost {
            rank: self.q,
            attempts: self.policy.max_attempts,
        };
        self.broadcast_abort(err);
        Err(err)
    }

    /// Factors local panel `j` and broadcasts it; returns the message
    /// retained locally.
    fn factor_and_bcast(&mut self, j: usize) -> Result<PanelMsg<T>, DistError> {
        let r0 = j * self.nb;
        let w = self.panel_width(j);
        let lc = self.local_col_of(j);
        let mut ipiv = Vec::new();
        {
            let mut panel = self.local.sub_mut(r0, lc, self.n - r0, w);
            if let Err(e) = getf2(&mut panel, &mut ipiv, r0) {
                let err = DistError::Numeric(e);
                self.broadcast_abort(err);
                return Err(err);
            }
        }
        // Left fixup only: panels g < j are fully factored and never
        // touched again, so stage j's swaps can be applied to them now.
        // Panels g > j must NOT be swapped yet — they may still be
        // awaiting earlier stages' updates (the look-ahead reorders
        // work), and swaps do not commute with those updates; update_one
        // applies the swap at the correct point instead.
        for (slot, &g) in self.my_panels.clone().iter().enumerate() {
            if g >= j {
                continue;
            }
            let gw = self.panel_width(g);
            let mut cols = self.local.sub_mut(r0, slot * self.nb, self.n - r0, gw);
            laswp_forward(&mut cols, &ipiv);
        }
        let data = self.local.sub(r0, lc, self.n - r0, w).to_matrix();
        let msg = PanelMsg {
            j,
            data: data.clone(),
            ipiv: ipiv.clone(),
        };
        for (peer, tx) in self.to_peers.iter().enumerate() {
            if peer != self.q {
                // An aborted peer may be gone; ignore its closed channel.
                let _ = tx.send(Msg::Panel(PanelMsg {
                    j,
                    data: data.clone(),
                    ipiv: ipiv.clone(),
                }));
            }
        }
        Ok(msg)
    }

    /// Applies a received (or locally retained) panel to one local panel
    /// `g > j`: pivot, forward-solve, GEMM.
    fn update_one(&mut self, msg: &PanelMsg<T>, g: usize, bs: &BlockSizes) {
        let j = msg.j;
        let r0 = j * self.nb;
        let pw = msg.data.cols();
        let gw = self.panel_width(g);
        let slot_col = self.local_col_of(g);

        // Apply stage j's pivots to this panel (the factor step only
        // fixed up already-factored panels).
        {
            let mut cols = self.local.sub_mut(r0, slot_col, self.n - r0, gw);
            laswp_forward(&mut cols, &msg.ipiv);
        }
        // U12 := L11⁻¹ A12.
        let l11 = msg.data.sub(0, 0, pw, pw);
        {
            let mut u12 = self.local.sub_mut(r0, slot_col, pw, gw);
            trsm_left_lower_unit(&l11, &mut u12);
        }
        // A22 -= L21 · U12.
        if r0 + pw < self.n {
            let l21 = msg.data.sub(pw, 0, self.n - r0 - pw, pw);
            let u12 = self.local.sub(r0, slot_col, pw, gw).to_matrix();
            let mut a22 = self.local.sub_mut(r0 + pw, slot_col, self.n - r0 - pw, gw);
            gemm_with(-T::ONE, &l21, &u12.view(), T::ONE, &mut a22, bs);
        }
    }

    /// The rank's main loop. Returns (local columns, per-panel pivots of
    /// the panels this rank factored).
    fn run(mut self, bs: &BlockSizes) -> Result<RankOutput<T>, DistError> {
        let npanels = self.n.div_ceil(self.nb);
        let mut my_pivots = Vec::new();
        // Panels received/retained, indexed by global panel id.
        let mut have: Vec<Option<PanelMsg<T>>> = (0..npanels).map(|_| None).collect();

        for j in 0..npanels {
            // Obtain panel j: factor it if ours, else receive (messages
            // arrive in panel order per sender; with one sender per panel
            // and a shared receiver, order across panels is enforced by
            // the stage structure).
            if have[j].is_none() {
                if self.my_panels.contains(&j) {
                    let msg = self.factor_and_bcast(j)?;
                    my_pivots.push((j, msg.ipiv.clone()));
                    have[j] = Some(msg);
                } else {
                    loop {
                        match self.recv_with_retry()? {
                            Msg::Abort(e) => return Err(e),
                            Msg::Panel(msg) => {
                                let idx = msg.j;
                                have[idx] = Some(msg);
                                if idx == j {
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            let msg = have[j].take().expect("panel obtained");

            // Left fixup for received panels: apply stage j's swaps to the
            // factored panels this rank owns left of j (the owner did its
            // own in factor_and_bcast).
            if !self.my_panels.contains(&j) {
                let r0 = j * self.nb;
                for (slot, &g) in self.my_panels.clone().iter().enumerate() {
                    if g < j {
                        let gw = self.panel_width(g);
                        let mut cols = self.local.sub_mut(r0, slot * self.nb, self.n - r0, gw);
                        laswp_forward(&mut cols, &msg.ipiv);
                    }
                }
            }

            // Look-ahead: if we own panel j+1, update and factor it first.
            let next = j + 1;
            if next < npanels && self.my_panels.contains(&next) {
                self.update_one(&msg, next, bs);
                let nmsg = self.factor_and_bcast(next)?;
                my_pivots.push((next, nmsg.ipiv.clone()));
                have[next] = Some(nmsg);
            }
            // Remaining local trailing panels.
            for g in self.my_panels.clone() {
                if g > j && !(next < npanels && g == next) {
                    self.update_one(&msg, g, bs);
                }
            }
        }
        Ok((self.local, my_pivots))
    }
}

/// Outcome of the distributed factorization, reassembled.
#[derive(Debug)]
pub struct DistributedLu<T: Scalar> {
    /// The packed factors, identical to sequential `getrf`.
    pub factors: LuFactors<T>,
    /// The grid used.
    pub grid: ProcessGrid,
}

/// Factors `a` on a `1 × q` grid of real threads with block-cyclic column
/// distribution, panel broadcast and look-ahead. Returns factors that
/// match the sequential reference. Uses the default `RecvPolicy`.
pub fn factorize_distributed<T: Scalar>(
    a: &Matrix<T>,
    nb: usize,
    q: usize,
) -> Result<DistributedLu<T>, DistError> {
    factorize_distributed_with(a, nb, q, RecvPolicy::default())
}

/// [`factorize_distributed`] with an explicit recv-timeout policy.
fn factorize_distributed_with<T: Scalar>(
    a: &Matrix<T>,
    nb: usize,
    q: usize,
    policy: RecvPolicy,
) -> Result<DistributedLu<T>, DistError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "square systems only");
    assert!(nb > 0 && q > 0);
    let npanels = n.div_ceil(nb);
    let grid = ProcessGrid::new(1, q);

    // Build per-rank local matrices (block-cyclic columns).
    let mut panel_lists: Vec<Vec<usize>> = vec![Vec::new(); q];
    for j in 0..npanels {
        panel_lists[grid.owner_col(j)].push(j);
    }
    let mut txs = Vec::with_capacity(q);
    let mut rxs = Vec::with_capacity(q);
    for _ in 0..q {
        let (tx, rx) = channel::<Msg<T>>();
        txs.push(tx);
        rxs.push(rx);
    }
    let mut ranks: Vec<Rank<T>> = Vec::with_capacity(q);
    for (rank_q, rx) in rxs.into_iter().enumerate() {
        let my_panels = panel_lists[rank_q].clone();
        let mut local = Matrix::<T>::zeros(n, my_panels.len().max(1) * nb);
        for (slot, &j) in my_panels.iter().enumerate() {
            let w = nb.min(n - j * nb);
            local
                .sub_mut(0, slot * nb, n, w)
                .copy_from(&a.sub(0, j * nb, n, w));
        }
        ranks.push(Rank {
            q: rank_q,
            nb,
            n,
            local,
            my_panels,
            to_peers: txs.clone(),
            from_peers: rx,
            policy,
        });
    }
    drop(txs);

    let bs = BlockSizes::default();
    let results: Vec<Result<RankOutput<T>, DistError>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|r| s.spawn(move || r.run(&bs)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join()
                    .unwrap_or_else(|_| Err(DistError::RankPanicked { rank }))
            })
            .collect()
    });

    // Reassemble the global factored matrix and the pivot sequence.
    let mut lu = Matrix::<T>::zeros(n, n);
    let mut ipiv = vec![0usize; n];
    for (rank_q, res) in results.into_iter().enumerate() {
        let (local, pivots) = res?;
        for (slot, &j) in panel_lists[rank_q].iter().enumerate() {
            let w = nb.min(n - j * nb);
            lu.sub_mut(0, j * nb, n, w)
                .copy_from(&local.sub(0, slot * nb, n, w));
        }
        for (j, piv) in pivots {
            for (t, &p) in piv.iter().enumerate() {
                ipiv[j * nb + t] = j * nb + p;
            }
        }
    }
    ipiv.truncate(n);
    Ok(DistributedLu {
        factors: LuFactors { lu, ipiv },
        grid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_blas::lu::getrf;
    use phi_matrix::{hpl_residual, MatGen};

    #[test]
    fn dist_error_messages_name_the_rank() {
        assert_eq!(
            DistError::RankPanicked { rank: 3 }.to_string(),
            "rank 3: worker thread panicked"
        );
        assert!(DistError::PeerLost {
            rank: 1,
            attempts: 7
        }
        .to_string()
        .contains("7 recv attempts"));
        assert!(DistError::Disconnected { rank: 2 }
            .to_string()
            .contains("rank 2"));
    }

    #[test]
    fn distributed_matches_sequential_for_all_grid_widths() {
        let n = 96;
        let nb = 16;
        let a = MatGen::new(21).matrix::<f64>(n, n);
        let mut seq = a.clone();
        let piv_seq = getrf(&mut seq.view_mut(), nb, &BlockSizes::default()).unwrap();

        for q in [1usize, 2, 3, 4] {
            let d = factorize_distributed(&a, nb, q).unwrap();
            assert_eq!(d.factors.ipiv, piv_seq, "pivots q={q}");
            let diff = d.factors.lu.max_abs_diff(&seq);
            assert!(diff < 1e-10, "q={q}: factor drift {diff}");
            assert_eq!(d.grid.q, q);
        }
    }

    #[test]
    fn distributed_solve_passes_hpl() {
        let n = 128;
        let a = MatGen::new(31).matrix::<f64>(n, n);
        let b = MatGen::new(32).rhs::<f64>(n);
        let d = factorize_distributed(&a, 32, 4).unwrap();
        let x = d.factors.solve(&b);
        let rep = hpl_residual(&a.view(), &x, &b);
        assert!(rep.passed, "scaled {}", rep.scaled_residual);
    }

    #[test]
    fn ragged_sizes_and_more_ranks_than_panels() {
        // n not a multiple of nb, and q exceeding the panel count: idle
        // ranks must not deadlock the broadcast.
        let n = 70;
        let nb = 32; // 3 panels, last ragged
        let a = MatGen::new(41).matrix::<f64>(n, n);
        let mut seq = a.clone();
        let piv_seq = getrf(&mut seq.view_mut(), nb, &BlockSizes::default()).unwrap();
        let d = factorize_distributed(&a, nb, 5).unwrap();
        assert_eq!(d.factors.ipiv, piv_seq);
        assert!(d.factors.lu.max_abs_diff(&seq) < 1e-11);
    }

    #[test]
    fn singularity_propagates_from_the_owning_rank() {
        let n = 48;
        let mut a = MatGen::new(51).matrix::<f64>(n, n);
        for i in 0..n {
            a[(i, 20)] = 0.0; // panel 1 with nb = 16
        }
        let err = factorize_distributed(&a, 16, 3).unwrap_err();
        assert!(matches!(
            err,
            DistError::Numeric(LuError::Singular { col: 20 })
        ));
    }

    /// Satellite regression: a singular panel deep into the run (after
    /// several healthy broadcast rounds) must abort *every* rank without
    /// deadlock, even on a wide grid where most ranks are mid-`recv`.
    /// Guarded by a watchdog so a deadlock fails fast instead of hanging
    /// the suite.
    #[test]
    fn mid_run_singularity_aborts_all_ranks_without_deadlock() {
        let n = 96;
        let nb = 16; // 6 panels
        let mut a = MatGen::new(61).matrix::<f64>(n, n);
        for i in 0..n {
            a[(i, 70)] = 0.0; // panel 4: stages 0..3 complete first
        }
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let r = factorize_distributed(&a, nb, 4);
            let _ = tx.send(r);
        });
        let res = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("distributed abort deadlocked");
        assert!(matches!(
            res.unwrap_err(),
            DistError::Numeric(LuError::Singular { col: 70 })
        ));
    }

    /// A rank whose peer dies silently (no abort pill, no panel) must
    /// give up after its bounded retries rather than block forever.
    #[test]
    fn dead_peer_trips_recv_timeout_not_deadlock() {
        let n = 32;
        let nb = 16;
        let (tx, rx) = channel::<Msg<f64>>();
        // Rank 1 owns panel 1 and waits for panel 0 from rank 0, which
        // never sends: `tx` is kept alive so the channel stays open and
        // the timeout (not the disconnect) path is exercised.
        let rank = Rank::<f64> {
            q: 1,
            nb,
            n,
            local: Matrix::zeros(n, nb),
            my_panels: vec![1],
            to_peers: vec![],
            from_peers: rx,
            policy: RecvPolicy {
                initial_timeout: Duration::from_millis(1),
                max_attempts: 3,
            },
        };
        let err = rank.run(&BlockSizes::default()).unwrap_err();
        assert_eq!(
            err,
            DistError::PeerLost {
                rank: 1,
                attempts: 3
            }
        );
        drop(tx);
    }

    /// Peers that hang up without an abort pill surface `Disconnected`.
    #[test]
    fn hangup_without_abort_surfaces_disconnected() {
        let n = 32;
        let nb = 16;
        let (tx, rx) = channel::<Msg<f64>>();
        drop(tx); // sender gone before any message
        let rank = Rank::<f64> {
            q: 1,
            nb,
            n,
            local: Matrix::zeros(n, nb),
            my_panels: vec![1],
            to_peers: vec![],
            from_peers: rx,
            policy: RecvPolicy::default(),
        };
        let err = rank.run(&BlockSizes::default()).unwrap_err();
        assert_eq!(err, DistError::Disconnected { rank: 1 });
    }
}
