//! The configuration space the tuner searches, and the machine it
//! searches it for.

use phi_fabric::{BcastScheme, ProcessGrid};
use phi_hpl::hybrid::{HybridConfig, Lookahead, WorkDivision};
use phi_serve::Fnv;

/// The machine (and problem) a tuning run targets. The underlying chip,
/// host, PCIe and network models are the workspace's calibrated paper
/// models; this struct holds what varies between Table II/III rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineConfig {
    /// Nodes in the cluster (`P · Q` of every candidate grid).
    pub nodes: usize,
    /// Coprocessors per node.
    pub cards_per_node: usize,
    /// Host memory per node, GiB.
    pub host_mem_gib: f64,
    /// Problem size to tune for.
    pub n: usize,
}

impl MachineConfig {
    /// The paper's Table II / Table III single-node setup: one card,
    /// 64 GB, N = 84K.
    pub fn paper_single_node() -> Self {
        Self {
            nodes: 1,
            cards_per_node: 1,
            host_mem_gib: 64.0,
            n: 84_000,
        }
    }

    /// The paper's Table III 100-node headline setup: one card per node,
    /// 64 GB each, N = 825K.
    pub fn paper_cluster_100() -> Self {
        Self {
            nodes: 100,
            cards_per_node: 1,
            host_mem_gib: 64.0,
            n: 825_000,
        }
    }

    /// FNV-1a fingerprint over the machine fields **and** the calibrated
    /// model constants a candidate's score depends on — two machines with
    /// the same shape but different calibration hash differently, so the
    /// tuning cache cannot serve stale results across model changes.
    pub(crate) fn fingerprint(&self) -> u64 {
        let probe = HybridConfig::new(self.n, ProcessGrid::new(1, self.nodes), self.cards_per_node);
        let mut h = Fnv::new();
        h.write_u64(self.nodes as u64);
        h.write_u64(self.cards_per_node as u64);
        h.write_u64(self.host_mem_gib.to_bits());
        h.write_u64(self.n as u64);
        h.write_u64(probe.peak_gflops().to_bits());
        h.write_u64(probe.offload.pcie.effective_bw.to_bits());
        h.write_u64(probe.net.bandwidth.to_bits());
        h.write_u64(probe.net.latency.to_bits());
        h.write_u64((probe.offload.host.cfg.cores() as u64) << 32 | probe.offload.kt as u64);
        h.finish()
    }
}

/// One point in the search space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Panel width (`NB`; the offload tile depth `Kt` is tied to it).
    pub nb: usize,
    /// Look-ahead scheme.
    pub lookahead: Lookahead,
    /// Host/card work division.
    pub division: WorkDivision,
    /// Panel-broadcast scheme.
    pub bcast: BcastScheme,
    /// Process grid (`p`, `q`), with `p · q == nodes`.
    pub grid: (usize, usize),
}

/// Canonical, totally ordered key of a candidate. `NB` leads so sorting
/// by key implements the ε-rule's smallest-NB preference directly.
pub(crate) type CandidateKey = (usize, u8, u8, u64, u8, usize, usize);

impl Candidate {
    /// The paper's hand-set configuration for `machine`: NB = 1200,
    /// pipelined look-ahead, dynamic stealing, ring broadcast, the most
    /// square grid — the baseline the tuner must never regress below.
    pub(crate) fn paper_baseline(machine: &MachineConfig) -> Self {
        Self {
            nb: 1200,
            lookahead: Lookahead::Pipelined,
            division: WorkDivision::Dynamic,
            bcast: BcastScheme::Ring,
            grid: squarest_grid(machine.nodes),
        }
    }

    /// The full simulator configuration this candidate denotes. `NB` and
    /// the offload tile depth `Kt` are tied (the paper runs `Kt = NB`),
    /// so the update flops `2·m·n·Kt` scale with the panel width.
    pub(crate) fn config(&self, machine: &MachineConfig) -> HybridConfig {
        let mut cfg = HybridConfig::new(
            machine.n,
            ProcessGrid::new(self.grid.0, self.grid.1),
            machine.cards_per_node,
        );
        cfg.nb = self.nb;
        cfg.offload.kt = self.nb;
        cfg.lookahead = self.lookahead;
        cfg.division = self.division;
        cfg.bcast = self.bcast;
        cfg.host_mem_gib = machine.host_mem_gib;
        cfg
    }

    /// Whether the candidate can run at all: grid covers the cluster,
    /// the panel fits the matrix, and the per-node share fits host
    /// memory (the same gate `simulate_cluster` asserts).
    pub(crate) fn feasible(&self, machine: &MachineConfig) -> bool {
        if self.grid.0 * self.grid.1 != machine.nodes {
            return false;
        }
        if self.nb == 0 || self.nb > machine.n {
            return false;
        }
        if let WorkDivision::Static { card_fraction } = self.division {
            if !(0.0..=1.0).contains(&card_fraction) {
                return false;
            }
        }
        self.config(machine).fits_host_memory().is_ok()
    }

    /// Canonical key: deterministic identity, dedup and tie-break order.
    pub(crate) fn key(&self) -> CandidateKey {
        let la = match self.lookahead {
            Lookahead::None => 0u8,
            Lookahead::Basic => 1,
            Lookahead::Pipelined => 2,
        };
        let (div, frac) = match self.division {
            WorkDivision::Dynamic => (0u8, 0u64),
            WorkDivision::Static { card_fraction } => (1, card_fraction.to_bits()),
        };
        let bc = match self.bcast {
            BcastScheme::Ring => 0u8,
            BcastScheme::TwoRing => 1,
            BcastScheme::Binomial => 2,
        };
        (self.nb, la, div, frac, bc, self.grid.0, self.grid.1)
    }

    /// One-line human-readable form (score tables, cache files).
    pub fn describe(&self) -> String {
        let la = match self.lookahead {
            Lookahead::None => "none",
            Lookahead::Basic => "basic",
            Lookahead::Pipelined => "pipelined",
        };
        let div = match self.division {
            WorkDivision::Dynamic => "dynamic".to_string(),
            WorkDivision::Static { card_fraction } => format!("static({card_fraction:.2})"),
        };
        format!(
            "NB={} la={la} div={div} bcast={} grid={}x{}",
            self.nb,
            self.bcast.name(),
            self.grid.0,
            self.grid.1
        )
    }
}

/// Every `(p, q)` with `p · q == nodes`, in increasing `p`.
fn factor_grids(nodes: usize) -> Vec<(usize, usize)> {
    (1..=nodes)
        .filter(|p| nodes.is_multiple_of(*p))
        .map(|p| (p, nodes / p))
        .collect()
}

/// The factorization of `nodes` closest to square (ties to the flatter
/// `p <= q` shape) — HPL folklore's starting point and the paper's
/// choice for every Table III row.
fn squarest_grid(nodes: usize) -> (usize, usize) {
    factor_grids(nodes)
        .into_iter()
        .filter(|&(p, q)| p <= q)
        .min_by_key(|&(p, q)| q - p)
        .unwrap_or((1, nodes))
}

/// The enumerated search space.
#[derive(Clone, Debug)]
pub struct TuneSpace {
    /// Coarse panel widths.
    pub nbs: Vec<usize>,
    /// Look-ahead schemes.
    pub lookaheads: Vec<Lookahead>,
    /// Work divisions (dynamic stealing plus a ladder of static splits).
    pub divisions: Vec<WorkDivision>,
    /// Broadcast schemes.
    pub bcasts: Vec<BcastScheme>,
    /// Process grids.
    pub grids: Vec<(usize, usize)>,
}

impl TuneSpace {
    /// The default coarse grid for `machine`: the paper's NB
    /// neighborhood, all look-ahead and broadcast schemes, dynamic
    /// stealing plus three static splits, and every factorization of the
    /// node count.
    pub fn coarse(machine: &MachineConfig) -> Self {
        let divisions = if machine.cards_per_node == 0 {
            vec![WorkDivision::Dynamic]
        } else {
            vec![
                WorkDivision::Dynamic,
                WorkDivision::Static {
                    card_fraction: 0.75,
                },
                WorkDivision::Static {
                    card_fraction: 0.85,
                },
                WorkDivision::Static {
                    card_fraction: 0.95,
                },
            ]
        };
        Self {
            nbs: vec![600, 800, 960, 1200, 1440, 1680, 2000, 2400],
            lookaheads: vec![Lookahead::None, Lookahead::Basic, Lookahead::Pipelined],
            divisions,
            bcasts: BcastScheme::ALL.to_vec(),
            grids: factor_grids(machine.nodes),
        }
    }

    /// The feasible cross-product, in a fixed deterministic nesting
    /// order (grid, NB, look-ahead, division, broadcast).
    pub(crate) fn candidates(&self, machine: &MachineConfig) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &grid in &self.grids {
            for &nb in &self.nbs {
                for &lookahead in &self.lookaheads {
                    for &division in &self.divisions {
                        for &bcast in &self.bcasts {
                            let c = Candidate {
                                nb,
                                lookahead,
                                division,
                                bcast,
                                grid,
                            };
                            if c.feasible(machine) {
                                out.push(c);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// FNV-1a signature of the space (part of the cache key: a changed
    /// search space must not be served a stale result).
    pub(crate) fn signature(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.nbs.len() as u64);
        for &nb in &self.nbs {
            h.write_u64(nb as u64);
        }
        h.write_u64(self.lookaheads.len() as u64);
        for &la in &self.lookaheads {
            h.write_u64(match la {
                Lookahead::None => 0,
                Lookahead::Basic => 1,
                Lookahead::Pipelined => 2,
            });
        }
        h.write_u64(self.divisions.len() as u64);
        for &d in &self.divisions {
            match d {
                WorkDivision::Dynamic => h.write_u64(0),
                WorkDivision::Static { card_fraction } => {
                    h.write_u64(1);
                    h.write_u64(card_fraction.to_bits());
                }
            }
        }
        h.write_u64(self.bcasts.len() as u64);
        for &b in &self.bcasts {
            h.write(b.name().as_bytes());
        }
        h.write_u64(self.grids.len() as u64);
        for &(p, q) in &self.grids {
            h.write_u64(p as u64);
            h.write_u64(q as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorizations_cover_and_multiply_back() {
        assert_eq!(factor_grids(1), vec![(1, 1)]);
        let g100 = factor_grids(100);
        assert_eq!(g100.len(), 9);
        assert!(g100.iter().all(|&(p, q)| p * q == 100));
        assert!(g100.contains(&(10, 10)));
        assert_eq!(squarest_grid(100), (10, 10));
        assert_eq!(squarest_grid(12), (3, 4));
        assert_eq!(squarest_grid(1), (1, 1));
    }

    #[test]
    fn paper_baseline_is_feasible_on_both_paper_machines() {
        for m in [
            MachineConfig::paper_single_node(),
            MachineConfig::paper_cluster_100(),
        ] {
            let base = Candidate::paper_baseline(&m);
            assert!(base.feasible(&m), "baseline infeasible on {m:?}");
            assert_eq!(base.nb, 1200);
            let cfg = base.config(&m);
            assert_eq!(cfg.offload.kt, base.nb, "Kt must be tied to NB");
        }
    }

    #[test]
    fn infeasible_candidates_are_rejected() {
        let m = MachineConfig::paper_single_node();
        let mut c = Candidate::paper_baseline(&m);
        c.grid = (2, 1); // wrong node count
        assert!(!c.feasible(&m));
        let mut big = Candidate::paper_baseline(&m);
        big.nb = m.n + 1;
        assert!(!big.feasible(&m));
        // A 1×1 node cannot hold N that needs > 60.8 GiB.
        let tight = MachineConfig {
            n: 120_000,
            ..MachineConfig::paper_single_node()
        };
        assert!(!Candidate::paper_baseline(&tight).feasible(&tight));
    }

    #[test]
    fn coarse_space_is_deterministic_and_nonempty() {
        let m = MachineConfig::paper_cluster_100();
        let space = TuneSpace::coarse(&m);
        let a = space.candidates(&m);
        let b = space.candidates(&m);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.key() == y.key()));
        // Signature is stable, and sensitive to the space.
        assert_eq!(space.signature(), TuneSpace::coarse(&m).signature());
        let mut other = space.clone();
        other.nbs.push(3000);
        assert_ne!(space.signature(), other.signature());
    }

    #[test]
    fn machine_fingerprints_differ_between_paper_machines() {
        let a = MachineConfig::paper_single_node().fingerprint();
        let b = MachineConfig::paper_cluster_100().fingerprint();
        assert_ne!(a, b);
        assert_eq!(a, MachineConfig::paper_single_node().fingerprint());
    }
}
