//! `linpack-phi` — a Rust reproduction of *"Design and Implementation of
//! the Linpack Benchmark for Single and Multi-Node Systems Based on Intel
//! Xeon Phi Coprocessor"* (Heinecke et al., IPDPS 2013).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`matrix`] | `phi-matrix` | dense matrices, views, HPL generator, residual test |
//! | [`blas`] | `phi-blas` | packed-tile GEMM (Fig. 3 layout), TRSM, LASWP, LU |
//! | [`knc`] | `phi-knc` | KNC vector-ISA emulator, cycle-level core model, chip model |
//! | [`xeon`] | `phi-hpl::xeon` | Sandy Bridge EP host model |
//! | [`des`] | `phi-des` | discrete-event engine, links, Gantt traces |
//! | [`fabric`] | `phi-fabric` | PCIe + mm-queues, P×Q grids, InfiniBand model |
//! | [`sched`] | `phi-sched` | panel DAG, thread groups, super-stages, tile stealing |
//! | [`hpl`] | `phi-hpl` | native / offload / hybrid Linpack, both backends |
//! | [`faults`] | `phi-faults` | deterministic fault plans, fault-tolerant cluster runs |
//! | [`lint`] | `phi-lint` | static kernel verifier, issue-slot analyzer, cycle bound |
//! | [`tune`] | `phi-tune` | seeded autotuner: NB, look-ahead, work division, bcast, grid |
//! | [`serve`] | `phi-serve` | campaign service: content-addressed result store, single-flight dedup, query table |
//!
//! # Quick start
//!
//! Solve a dense system with the DAG-parallel numeric backend and verify
//! it the way HPL does:
//!
//! ```
//! use linpack_phi::matrix::{hpl_residual, MatGen};
//! use linpack_phi::hpl::native::solve_parallel;
//! use linpack_phi::sched::GroupPlan;
//!
//! let n = 96;
//! let a = MatGen::new(42).matrix::<f64>(n, n);
//! let b = MatGen::new(43).rhs::<f64>(n);
//! let x = solve_parallel(&a, &b, 16, &GroupPlan::new(4, 2)).unwrap();
//! assert!(hpl_residual(&a.view(), &x, &b).passed);
//! ```
//!
//! Reproduce a paper experiment at full scale on the timed backend:
//!
//! ```
//! use linpack_phi::hpl::native::{NativeConfig, NativeScheme};
//!
//! let report = NativeConfig::new(30_720).simulate(NativeScheme::DynamicScheduling);
//! assert!((report.efficiency() - 0.788).abs() < 0.02); // paper: 78.8%
//! ```
//!
//! Autotune the paper's single-node machine and render the winning
//! configuration as an `HPL.dat`:
//!
//! ```
//! use linpack_phi::tune::{tune, MachineConfig, TuneOptions, TuneSpace};
//!
//! let m = MachineConfig::paper_single_node();
//! let opts = TuneOptions { coarse_only: true, ..TuneOptions::default() };
//! let out = tune(&m, &TuneSpace::coarse(&m), &opts);
//! assert!(out.tuned_report.gflops >= out.baseline_report.gflops);
//! let dat = out.tuned.hpl_dat().render();
//! assert!(dat.contains("NBs"));
//! ```
//!
//! Serve campaign requests through the content-addressed result
//! service — concurrent identical requests simulate exactly once:
//!
//! ```
//! use linpack_phi::serve::{CampaignService, CampaignSpec};
//!
//! let service = CampaignService::in_memory(2);
//! let spec = CampaignSpec::paper_cluster_campaign(7);
//! let a = service.get(&spec).unwrap();
//! let b = service.get(&spec).unwrap();
//! assert_eq!(a.fingerprint, b.fingerprint);
//! assert_eq!(service.stats().executed, 1);
//! ```

#![warn(missing_docs)]

pub use phi_blas as blas;
pub use phi_des as des;
pub use phi_fabric as fabric;
pub use phi_faults as faults;
pub use phi_hpl as hpl;
pub use phi_hpl::xeon;
pub use phi_knc as knc;
pub use phi_lint as lint;
pub use phi_matrix as matrix;
pub use phi_sched as sched;
pub use phi_serve as serve;
pub use phi_tune as tune;
