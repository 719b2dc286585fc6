//! # qmx-core
//!
//! Core library for the **delay-optimal quorum-based mutual exclusion**
//! algorithm of Cao, Singhal, Deng, Rishe and Sun (ICDCS 1998), together with
//! the protocol abstractions shared by every algorithm in the `qmx` workspace.
//!
//! A distributed mutual-exclusion algorithm coordinates `N` sites so that at
//! most one executes its critical section (CS) at a time. Two costs matter:
//!
//! * **message complexity** — wire messages exchanged per CS execution, and
//! * **synchronization delay** — the time between one site leaving the CS and
//!   the next entering it, measured in units of the average message delay `T`.
//!
//! Maekawa-type quorum algorithms achieve `O(K)` messages (`K` = quorum size,
//! as low as `log N`) but pay a `2T` synchronization delay: the exiting site
//! must `release` its arbiters, which then `reply` to the next requester — two
//! serial hops. The algorithm implemented in [`DelayOptimal`] removes one hop:
//! arbiters send `transfer` messages to the current lock holder naming the
//! next requester, and the holder forwards the arbiter's `reply` *directly* to
//! that requester when it exits the CS. Synchronization delay drops to the
//! optimal `T` while message complexity stays `3(K-1)` at light load and
//! `5(K-1)`–`6(K-1)` at heavy load.
//!
//! ## Crate layout
//!
//! * [`SiteId`], [`Timestamp`], [`LamportClock`] — identifiers and logical
//!   time ([`clock`]).
//! * [`Protocol`], [`Effects`], [`MsgKind`] — the event-driven state-machine
//!   interface every algorithm implements; drivers (the discrete-event
//!   simulator in `qmx-sim`, the networked runtime in `qmx-runtime`) are
//!   generic over it ([`protocol`]).
//! * [`DelayOptimal`], [`Msg`], [`Config`] — the paper's algorithm
//!   ([`delay_optimal`]).
//! * [`ReqQueue`] — the priority queue of pending requests used by arbiters
//!   ([`reqqueue`]).
//! * [`QuorumSource`] — the interface through which fault-tolerant quorum
//!   reconstruction is plugged in (implemented by `qmx-quorum`).
//! * [`Reliable`], [`LossModel`] — the ack/retransmit/dedup transport layer
//!   that restores the paper's error-free-channel assumption over lossy
//!   links, and the fault models used to inject loss ([`transport`]).
//! * [`Detector`], [`DetectorConfig`] — the heartbeat failure detector and
//!   crash-recovery/rejoin layer that replaces the paper's `failure(i)`
//!   oracle with timeout-driven (possibly false) suspicion ([`detector`]).
//!
//! ## Quickstart
//!
//! Drive two sites by hand (real deployments use `qmx-sim` or `qmx-runtime`):
//!
//! ```
//! use qmx_core::{DelayOptimal, Config, Protocol, Effects, SiteId};
//!
//! // Site 0 and site 1 share the (trivial) quorum {0, 1}.
//! let quorum = vec![SiteId(0), SiteId(1)];
//! let mut s0 = DelayOptimal::new(SiteId(0), quorum.clone(), Config::default());
//! let mut s1 = DelayOptimal::new(SiteId(1), quorum, Config::default());
//!
//! let mut fx = Effects::new();
//! s0.request_cs(&mut fx);
//! // s0 granted itself locally and sent a request to site 1.
//! let (to, msg) = fx.take_sends().pop().expect("one wire message");
//! assert_eq!(to, SiteId(1));
//!
//! let mut fx1 = Effects::new();
//! s1.handle(SiteId(0), msg, &mut fx1);
//! let (back_to, reply) = fx1.take_sends().pop().expect("reply");
//! assert_eq!(back_to, SiteId(0));
//!
//! let mut fx0 = Effects::new();
//! s0.handle(SiteId(1), reply, &mut fx0);
//! assert!(fx0.entered_cs());
//! assert!(s0.in_cs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod delay_optimal;
pub mod detector;
pub mod lockspace;
pub mod protocol;
pub mod reqqueue;
pub mod siteset;
pub mod transport;
pub mod wire;

pub use clock::{LamportClock, SeqNum, Timestamp};
pub use delay_optimal::{Config, DelayOptimal, Msg, RequesterPhase};
pub use detector::{Detector, DetectorConfig, DetectorCounters, HbMsg};
pub use lockspace::{LockSpace, ResMsg, ShardFactory};
pub use protocol::{
    AbortCounters, Effects, MsgKind, MsgMeta, Protocol, QuorumSource, ResourceId, SiteId,
};
pub use reqqueue::ReqQueue;
pub use siteset::SiteSet;
pub use transport::{
    FaultVerdict, LinkFaults, LossModel, Outage, Packet, Reliable, TransportConfig,
    TransportCounters,
};
pub use wire::{Wire, WireError};
