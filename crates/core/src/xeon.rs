//! Sandy Bridge EP host model.
//!
//! The paper's host is a dual-socket Intel Xeon E5-2670 ("Sandy Bridge
//! EP", Table I): 2 × 8 cores × 2.6 GHz with 256-bit AVX and separate
//! multiply and add ports (4-wide DP multiply + 4-wide DP add per cycle →
//! 8 DP FLOPs/cycle/core), 128 GB DRAM at 76 GB/s STREAM, and a 6 GB/s
//! PCIe link to each coprocessor.
//!
//! In the evaluation the host only ever appears through its *throughput*
//! on a handful of kernels — MKL DGEMM (Fig. 4's bottom curve, "up to
//! 90%"), MKL SMP Linpack (Fig. 6, 277 GFLOPS = 83% at N = 30K), panel
//! factorization, DTRSM, row swapping — so the substitution for real
//! hardware is a set of calibrated throughput curves, each pinned to a
//! quoted measurement. These feed the offload and hybrid-HPL models of
//! this crate.

#![forbid(unsafe_code)]

/// Hardware constants of the dual-socket host (Table I).
#[derive(Clone, Copy, Debug)]
pub struct XeonConfig {
    /// Sockets on the node (2).
    pub sockets: usize,
    /// Cores per socket (8).
    pub cores_per_socket: usize,
    /// Core clock in GHz (2.6).
    pub freq_ghz: f64,
    /// DP FLOPs per core per cycle (4-wide mul + 4-wide add = 8).
    pub dp_flops_per_cycle: f64,
    /// Achievable STREAM bandwidth, GB/s (76).
    pub stream_bw_gbs: f64,
    /// DRAM capacity in GiB (64 or 128 in Table III).
    pub dram_gib: f64,
    /// PCIe bandwidth per coprocessor link, GB/s (6 nominal).
    pub pcie_gbs: f64,
}

impl Default for XeonConfig {
    fn default() -> Self {
        Self {
            sockets: 2,
            cores_per_socket: 8,
            freq_ghz: 2.6,
            dp_flops_per_cycle: 8.0,
            stream_bw_gbs: 76.0,
            dram_gib: 64.0,
            pcie_gbs: 6.0,
        }
    }
}

impl XeonConfig {
    /// Total cores on the node.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Node peak in DP GFLOPS (Table I: 333).
    pub fn peak_gflops(&self) -> f64 {
        self.cores() as f64 * self.freq_ghz * self.dp_flops_per_cycle
    }
}

/// Calibrated host throughput curves.
#[derive(Clone, Copy, Debug)]
pub struct XeonModel {
    /// Hardware constants.
    pub cfg: XeonConfig,
    /// Asymptotic MKL DGEMM efficiency ("Sandy Bridge EP achieves up to
    /// 90% efficiency", Section III-B).
    pub dgemm_peak_eff: f64,
    /// Size at which DGEMM reaches half its rolloff (calibrates the small-
    /// size knee of Fig. 4's bottom curve).
    pub dgemm_knee: f64,
    /// Asymptotic MKL SMP Linpack efficiency ("277 GFLOPS which
    /// corresponds to 83%" at N = 30K, Section IV-B).
    pub hpl_peak_eff: f64,
    /// Rolloff knee for the Linpack curve (LU has more small-size
    /// overhead than DGEMM).
    pub hpl_knee: f64,
    /// Panel factorization efficiency (DGETRF is latency/bandwidth bound
    /// even on the out-of-order host, but far less than on KNC).
    pub panel_eff: f64,
    /// Serial per-column latency of host panel factorization, seconds.
    pub panel_col_latency_s: f64,
    /// DTRSM efficiency relative to peak (the NB=1200 solve is blocked
    /// and GEMM-rich, hence near-DGEMM speed; "DTRSM, which is
    /// compute-bound", Section V-A).
    pub trsm_eff: f64,
    /// Fraction of STREAM achieved by row swapping (gather/scatter).
    pub swap_bw_fraction: f64,
    /// Fraction of STREAM achieved by the pack-and-copy of offload DGEMM
    /// tiles (a streaming copy with reformatting, Section V-B step 1).
    pub pack_bw_fraction: f64,
}

impl Default for XeonModel {
    fn default() -> Self {
        Self {
            cfg: XeonConfig::default(),
            dgemm_peak_eff: 0.905,
            dgemm_knee: 160.0,
            hpl_peak_eff: 0.84,
            hpl_knee: 350.0,
            panel_eff: 0.22,
            panel_col_latency_s: 0.35e-6,
            trsm_eff: 0.6,
            swap_bw_fraction: 0.12,
            pack_bw_fraction: 0.6,
        }
    }
}

impl XeonModel {
    /// MKL DGEMM efficiency for an `n × n` problem (Fig. 4 bottom curve).
    pub fn dgemm_efficiency(&self, n: usize) -> f64 {
        let n = n as f64;
        self.dgemm_peak_eff * n / (n + self.dgemm_knee)
    }

    /// MKL DGEMM GFLOPS for an `n × n` problem.
    pub fn dgemm_gflops(&self, n: usize) -> f64 {
        self.dgemm_efficiency(n) * self.cfg.peak_gflops()
    }

    /// MKL SMP Linpack efficiency (Fig. 6 bottom curve).
    fn hpl_efficiency(&self, n: usize) -> f64 {
        let n = n as f64;
        self.hpl_peak_eff * n / (n + self.hpl_knee)
    }

    /// MKL SMP Linpack GFLOPS.
    pub fn hpl_gflops(&self, n: usize) -> f64 {
        self.hpl_efficiency(n) * self.cfg.peak_gflops()
    }

    /// Time of an `m × n × k` DGEMM on `cores` host cores, seconds.
    pub fn gemm_time_s(&self, m: usize, n: usize, k: usize, cores: f64) -> f64 {
        if m == 0 || n == 0 || k == 0 || cores <= 0.0 {
            return 0.0;
        }
        let eff = self.dgemm_efficiency(n.min(m).max(k / 2));
        let peak_per_core = self.freq_flops() * 1e9;
        2.0 * m as f64 * n as f64 * k as f64 / (eff.max(0.05) * peak_per_core * cores)
    }

    fn freq_flops(&self) -> f64 {
        self.cfg.freq_ghz * self.cfg.dp_flops_per_cycle
    }

    /// Host panel factorization (`m × nb`) on `cores` cores, seconds.
    pub fn panel_time_s(&self, m: usize, nb: usize, cores: f64) -> f64 {
        if m == 0 || nb == 0 {
            return 0.0;
        }
        let mf = m as f64;
        let nbf = nb as f64;
        let flops = (mf * nbf * nbf - nbf * nbf * nbf / 3.0).max(0.0);
        flops / (self.panel_eff * self.freq_flops() * 1e9 * cores.max(1.0))
            + nbf * self.panel_col_latency_s
    }

    /// DTRSM of the `nb × cols` row panel on `cores` cores, seconds.
    pub fn trsm_time_s(&self, nb: usize, cols: usize, cores: f64) -> f64 {
        let flops = nb as f64 * nb as f64 * cols as f64;
        flops / (self.trsm_eff * self.freq_flops() * 1e9 * cores.max(1.0))
    }

    /// Row swap (DLASWP) of an `nb`-deep window across `cols` columns,
    /// seconds. Bandwidth-bound on the node's DRAM; "swapping, constrained
    /// by both DRAM and interconnect bandwidth" (Section V-A).
    pub fn swap_time_s(&self, nb: usize, cols: usize) -> f64 {
        let traffic = 2.0 * 8.0 * nb as f64 * cols as f64;
        traffic / (self.cfg.stream_bw_gbs * 1e9 * self.swap_bw_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_table1() {
        let c = XeonConfig::default();
        assert_eq!(c.cores(), 16);
        assert!((c.peak_gflops() - 332.8).abs() < 0.5, "{}", c.peak_gflops());
    }

    #[test]
    fn dgemm_reaches_ninety_percent() {
        let m = XeonModel::default();
        let e = m.dgemm_efficiency(28_000);
        assert!((0.895..0.91).contains(&e), "asymptotic eff {e}");
        assert!(m.dgemm_efficiency(1_000) < e);
        // Monotone in n.
        assert!(m.dgemm_efficiency(4_000) < m.dgemm_efficiency(16_000));
    }

    #[test]
    fn hpl_30k_is_277_gflops() {
        let m = XeonModel::default();
        let gf = m.hpl_gflops(30_000);
        assert!((gf - 277.0).abs() < 3.0, "host HPL at 30K = {gf:.1}");
        let e = m.hpl_efficiency(30_000);
        assert!((e - 0.83).abs() < 0.01, "eff {e}");
    }

    #[test]
    fn hpl_trails_dgemm_by_about_seven_percent() {
        // "This is within 7% from its native DGEMM performance".
        let m = XeonModel::default();
        let gap = m.dgemm_efficiency(30_000) - m.hpl_efficiency(30_000);
        assert!((0.04..0.09).contains(&gap), "gap {gap}");
    }

    #[test]
    fn gemm_time_scales() {
        let m = XeonModel::default();
        let t1 = m.gemm_time_s(4000, 4000, 1200, 16.0);
        let t2 = m.gemm_time_s(4000, 4000, 1200, 8.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert_eq!(m.gemm_time_s(0, 10, 10, 16.0), 0.0);
    }

    #[test]
    fn panel_faster_than_knc_panel() {
        // The host's OoO cores factor panels far faster per core than KNC
        // (why hybrid HPL keeps the panel on the host, Section V).
        let m = XeonModel::default();
        let t_host = m.panel_time_s(84_000, 1200, 16.0);
        assert!(t_host > 0.0 && t_host < 10.0, "{t_host}");
    }

    #[test]
    fn swap_is_bandwidth_bound() {
        let m = XeonModel::default();
        let t = m.swap_time_s(1200, 84_000);
        // 2*8*1200*84000 bytes ≈ 1.6 GB at ~34 GB/s ≈ 47 ms.
        assert!((0.01..0.2).contains(&t), "{t}");
    }
}
