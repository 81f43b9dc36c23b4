//! `phi-wallbench`: the host-wall-clock benchmark of the simulator stack.
//!
//! Every gated number elsewhere in the workspace (`perfgate`) is a
//! *simulated* quantity that reproduces bit for bit. This crate measures
//! the other kind of performance — how fast the simulator itself runs on
//! the host — end to end on seven seeded workloads and layer by layer in
//! a traced run, checks every output for correctness, and compares two
//! results with the run-to-run noise in view. `README.md` has the
//! glossary; `BENCHMARK.json` at the repository root is the contract.
//!
//! *Host* time is wall-clock of this process; *simulated* means cycles or
//! seconds of the modelled machine and says so in the name (`sim`,
//! `mcycles`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod json;
pub mod orchestrate;
pub mod run;
pub mod spec;
pub mod stats;
pub mod timing;
pub mod trial;
pub mod workloads;
