//! # qmx-sim
//!
//! A deterministic discrete-event simulator for message-passing mutual
//! exclusion protocols.
//!
//! The simulator owns `N` protocol state machines (anything implementing
//! [`qmx_core::Protocol`]), a virtual clock, and a network with per-link
//! FIFO delivery and configurable delay distributions ([`DelayModel`]). It
//! drives the application side too: CS requests are injected at scheduled
//! times and each granted CS is held for a sampled duration before the
//! simulator calls `release_cs`.
//!
//! Everything is seeded and deterministic: the same
//! ([`SimConfig`], schedule) pair replays the identical execution, which the
//! test suite exploits for trace-equality determinism checks.
//!
//! The paper's two performance measures fall directly out of the collected
//! [`Metrics`]:
//!
//! * **message complexity** — wire messages counted by
//!   [`qmx_core::MsgKind`] at send time, divided by completed CS executions;
//! * **synchronization delay** — virtual time between one site's CS exit
//!   and the next site's CS entry, in units of the mean message delay `T`.
//!
//! Fault injection: [`Simulator::schedule_crash`] silences a site at a
//! virtual time; in-flight messages to it are dropped and, after the
//! configured detection delay, every live site receives
//! [`qmx_core::Protocol::on_site_failure`] — the paper's §6 `failure(i)`
//! notice. Set [`SimConfig::oracle_notices`] to `false` to retire that
//! oracle entirely: sites wrapped in [`qmx_core::Detector`] then learn of
//! failures only from missed heartbeats (which are real simulated messages,
//! subject to the same loss/outage faults), and
//! [`Simulator::schedule_recovery`] restarts a crashed site with fresh
//! state so it rejoins through the detector's handshake.
//!
//! Partitions are modeled at directed-link grain ([`PartitionModel`]):
//! [`Simulator::schedule_cut`] severs one ordered pair (the asymmetric
//! case where A hears B but B does not hear A),
//! [`Simulator::schedule_restore`] heals it, and the symmetric group-split
//! API [`Simulator::schedule_partition`] decomposes into pairwise cuts so
//! overlapping episodes compose instead of overwriting each other.
//!
//! ```
//! use qmx_core::{Config, DelayOptimal, SiteId};
//! use qmx_sim::{SimConfig, Simulator};
//!
//! // Three sites, everyone's quorum is {0,1,2}.
//! let quorum: Vec<SiteId> = (0..3).map(SiteId).collect();
//! let mut sim = Simulator::new(
//!     (0..3)
//!         .map(|i| DelayOptimal::new(SiteId(i), quorum.clone(), Config::default()))
//!         .collect(),
//!     SimConfig::default(),
//! );
//! sim.schedule_request(SiteId(0), 0);
//! sim.schedule_request(SiteId(1), 10);
//! sim.run_to_quiescence(1_000_000);
//! assert_eq!(sim.metrics().completed_cs(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod metrics;
pub mod partition;
pub mod scheduler;
pub mod sim;
mod sites;
pub mod timer_wheel;
pub mod trace;

pub use delay::DelayModel;
pub use metrics::{CsRecord, Metrics};
pub use partition::PartitionModel;
pub use scheduler::{EventQueue, HeapScheduler, Scheduler, SchedulerKind, Timed};
pub use sim::{RetryPolicy, SimConfig, Simulator};
pub use timer_wheel::WheelScheduler;
pub use trace::{Trace, TraceEvent};

// Fault-injection vocabulary, defined in `qmx-core` beside the transport
// it tests: re-exported for convenience.
pub use qmx_core::{LossModel, Outage};
