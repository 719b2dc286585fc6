//! # qmx — delay-optimal quorum-based distributed mutual exclusion
//!
//! Umbrella crate for the `qmx` workspace, a full reproduction of
//! *"A Delay-Optimal Quorum-Based Mutual Exclusion Scheme with
//! Fault-Tolerance Capability"* (Cao, Singhal, Deng, Rishe, Sun — ICDCS
//! 1998). It re-exports the public API of every member crate so examples and
//! applications can depend on a single crate:
//!
//! * [`qmx_core`] — the delay-optimal protocol and the shared
//!   [`Protocol`](qmx_core::Protocol) state-machine interface.
//! * [`qmx_quorum`] — coteries and quorum constructions (grid, FPP,
//!   tree, HQC, grid-set, RST, majority) plus availability analysis.
//! * [`qmx_sim`] — deterministic discrete-event simulator.
//! * [`qmx_baselines`] — Lamport, Ricart–Agrawala, Maekawa,
//!   Suzuki–Kasami, Raymond, and Singhal-dynamic baselines.
//! * [`qmx_workload`] — workload generators, scenario runner, and
//!   metrics.
//! * [`qmx_runtime`] — the networked runtime: framed transport seam
//!   (loopback, TCP, UDS) and the poll-driven per-site
//!   [`Node`](qmx_runtime::node::Node) event loop.
//! * [`qmx_client`] — client library (the poll-driven
//!   [`ClientCore`](qmx_client::ClientCore)), the deterministic loopback
//!   cluster harness, and the open-loop bench engine.
//! * [`qmx_check`] — bounded exhaustive model checker.
//!
//! See the repository `README.md` for a guided tour and `EXPERIMENTS.md` for
//! the paper-reproduction results.

#![forbid(unsafe_code)]

pub use qmx_baselines as baselines;
pub use qmx_check as check;
pub use qmx_client as client;
pub use qmx_core as core;
pub use qmx_quorum as quorum;
pub use qmx_runtime as runtime;
pub use qmx_sim as sim;
pub use qmx_workload as workload;
