//! # qmx-runtime
//!
//! Networked runtime for `qmx` protocols: a poll-driven task per site
//! ([`Node`]) speaking length-prefixed [`Wire`](qmx_core::Wire) frames over
//! a swappable byte [`transport`] — real [TCP / Unix-domain sockets](tcp)
//! for `qmxctl serve`, or the deterministic in-process [loopback] with a
//! virtual clock for `cargo test`. Sites serve real clients (see
//! `qmx-client`) and each other over the same framing; the protocol stack
//! ([`ServeStack`]) is byte-identical in both modes.
//!
//! Layering, bottom to top:
//!
//! 1. [`transport`] — `Conn`/`Listener`/`Transport` traits (the seam).
//! 2. [`frame`] — `[u32 LE len][payload]` framing with a hard cap.
//! 3. `qmx_core::wire` — binary codec for the stack's messages.
//! 4. [`proto`] — connection handshake + the client lock API.
//! 5. [`node`] — the per-site task: sessions, peer links with
//!    reconnect-backoff, the client lock table, timer dispatch.
//! 6. [`stack`] — the canonical `Detector<Reliable<LockSpace<…>>>`
//!    composition served by all of the above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod frame;
pub mod loopback;
pub mod node;
pub mod proto;
pub mod stack;
pub mod tcp;
pub mod transport;

pub use frame::{encode_frame, write_frame, FrameBuf, FrameError, MAX_FRAME};
pub use loopback::{LoopConn, LoopListener, LoopNet, LoopTransport};
pub use node::{Node, NodeConfig, NodeCounters};
pub use proto::{ClientMsg, Hello, RejectReason, ServerMsg};
pub use stack::{build_stack, RingMajoritySource, ServeMsg, ServeStack, StackConfig};
pub use tcp::{StreamConn, TcpTransport, UdsTransport};
pub use transport::{Conn, Listener, Transport};

/// Locks `m`, ignoring poisoning: no update made under these locks can
/// leave the data half-changed, and `Drop` must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
