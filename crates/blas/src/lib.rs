//! From-scratch dense linear algebra kernels for the `phi-hpl` workspace.
//!
//! This crate implements, in portable Rust, every BLAS/LAPACK routine the
//! paper's Linpack flavours call:
//!
//! * `level1` — `idamax` (the pivot search).
//! * `level2` — `dger` (the rank-1 update inside unblocked panel
//!   factorization).
//! * [`gemm`] — the paper's DGEMM structure (Section III): the general
//!   product decomposed into a sequence of rank-k outer products, operands
//!   packed into the *Knights Corner-friendly* tile layout of Fig. 3
//!   (`MR × k` column-major tiles of `A`, `k × NR` row-major tiles of `B`),
//!   and a register-blocked microkernel mirroring Basic Kernels 1/2 of
//!   Fig. 2. Both `f64` (DGEMM) and `f32` (SGEMM) instantiations.
//! * [`trsm`] — the triangular solves HPL needs (`DTRSM` for the `U` panel
//!   update and for blocked back-substitution).
//! * [`laswp`] — row interchanges from a pivot vector (`DLASWP`).
//! * [`lu`] — unblocked (`getf2`) and blocked right-looking (`getrf`)
//!   partial-pivot LU, plus the full `Ax = b` solve path used by the
//!   numeric backends.
//!
//! Numerical behaviour is validated against naive reference implementations
//! by unit and property tests; the HPL residual criterion is checked in the
//! integration suites of `phi-hpl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod gemm;
pub mod laswp;
mod level1;
mod level2;
pub mod lu;
pub mod trsm;

pub use laswp::laswp_forward;
pub use trsm::trsm_left_lower_unit;
