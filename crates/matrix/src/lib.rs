//! Dense matrix substrate for the `phi-hpl` Linpack reproduction.
//!
//! This crate provides the storage layer shared by every other crate in the
//! workspace:
//!
//! * [`Matrix`] — an owned, row-major, 64-byte-aligned dense matrix with an
//!   explicit leading dimension, mirroring the buffers HPL operates on.
//! * [`MatrixView`] / [`MatrixViewMut`] — borrowed rectangular windows with
//!   the splitting operations LU factorization needs (panel / trailing
//!   sub-matrix decompositions).
//! * `gen` — the HPL-style pseudo-random matrix generator used to build
//!   reproducible right-hand sides and coefficient matrices.
//! * `norms` / [`residual`] — the ∞-norms and the scaled residual
//!   acceptance test from the HPL benchmark driver.
//!
//! The matrices here are deliberately plain: all the architecture-specific
//! packing (Knights Corner tile formats, Fig. 3 of the paper) lives in
//! `phi-blas`, which consumes these types.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod aligned;
mod dense;
mod gen;
mod norms;
pub mod residual;
mod scalar;
mod view;

pub use dense::Matrix;
pub use gen::{HplRng, MatGen};
pub use residual::{hpl_residual, ResidualReport};
pub use scalar::Scalar;
pub use view::{MatrixView, MatrixViewMut};
