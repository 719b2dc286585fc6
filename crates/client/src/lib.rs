//! # qmx-client
//!
//! Client side of the qmx networked lock service, plus the deterministic
//! cluster harness the end-to-end tests drive.
//!
//! * [`core`] — [`ClientCore`], the sans-I/O-scheduling client state
//!   machine: poll-driven, transport-agnostic, no blocking, no clocks of
//!   its own. It is the one client path: the tests drive it over the
//!   loopback, and `qmxctl bench-load` over TCP/UDS.
//! * [`mod@bench`] — the open-loop load engine behind `qmxctl bench-load`:
//!   many virtual clients over one poll loop, exponential think times,
//!   zipfian resource choice, per-resource acquire-latency percentiles
//!   and wire-level handover (sync-delay) sampling.
//! * [`harness`] — [`LoopCluster`], an entire cluster plus its clients on
//!   the in-process loopback transport under one virtual clock, stepped
//!   deterministically: the substrate of `tests/runtime_e2e.rs` and the
//!   proptest suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod core;
pub mod harness;

pub use self::core::{ClientCore, ClientEvent};
pub use bench::{run_bench, BenchConfig};
pub use harness::{ClusterConfig, LoopCluster};
