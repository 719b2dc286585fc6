//! The swappable byte-transport seam of the networked runtime.
//!
//! Everything above this interface — connection handshake, length-prefixed
//! framing, wire codec, reconnect-with-backoff, heartbeat-driven suspicion,
//! client deadline aborts — is written once against these three traits and
//! exercised twice: deterministically in `cargo test` over the in-process
//! [loopback](crate::loopback) implementation (virtual clock, no real
//! ports, no sleeps), and live over [TCP / Unix-domain
//! sockets](crate::tcp) in `qmxctl serve`.
//!
//! The traits are deliberately *poll-shaped*, not callback- or
//! future-shaped: every operation is non-blocking and returns immediately
//! with "here is what is ready now". The [node task](crate::node) is an
//! explicit state machine driven by [`Node::poll`](crate::node::Node::poll);
//! [`Transport::wait`] is the single place where real time (or the virtual
//! clock) passes. This is the same shape an async executor reduces to under
//! the hood, without hiding the scheduling decisions the deterministic
//! harness needs to control.
//!
//! Semantics contract, shared by all implementations:
//!
//! * [`Conn::send_bytes`] never blocks: the connection queues the bytes
//!   and delivers them in order by itself (the socket transports through
//!   a writer thread, the loopback through its pipe). An error from it or
//!   from [`Conn::flush`] means the connection is **dead** — no
//!   partial-failure recovery is attempted at this layer; the reliable
//!   transport above retransmits whatever mattered.
//! * [`Conn::recv_bytes`] appends whatever bytes are available *now* and
//!   returns how many. `Ok(0)` means "nothing yet"; an error (including
//!   [`std::io::ErrorKind::UnexpectedEof`] on a clean peer close) means the
//!   connection is dead.
//! * Dropping a connection closes it after the bytes already sent: the
//!   peer reads all of them, then `UnexpectedEof`. The socket transports
//!   give a peer that has stopped reading one second.
//! * [`Listener::poll_accept`] returns at most one new connection per call,
//!   `None` when nobody is knocking.
//! * [`Transport::now_us`] is a monotone clock in microseconds — wall time
//!   since transport creation for the socket transports, the shared virtual
//!   clock for the loopback.

use std::io;

/// One bidirectional byte-stream connection.
pub trait Conn {
    /// Queues `bytes` for transmission without blocking. An error means
    /// the connection is dead and must be dropped.
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Appends all currently available incoming bytes to `buf`, returning
    /// how many arrived. `Ok(0)` = nothing available now; `Err` = the
    /// connection is dead (a clean peer close surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`]).
    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;

    /// Pushes queued outgoing bytes toward the peer where the connection
    /// does not do so by itself, and reports whether it still can. An
    /// error means the connection is dead.
    fn flush(&mut self) -> io::Result<()>;

    /// Human-readable peer address, for logs and diagnostics.
    fn peer_label(&self) -> String;
}

/// An accept socket.
pub trait Listener {
    /// The connection type this listener produces.
    type Conn: Conn;

    /// Accepts one pending connection, if any. `Err` means the listener
    /// itself broke.
    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>>;

    /// The address this listener is bound to.
    fn local_addr(&self) -> String;
}

/// A transport: a namespace of string addresses, a clock, and a way to
/// pass time.
///
/// Addresses are opaque strings interpreted by the implementation:
/// `host:port` for TCP, a filesystem path for Unix-domain sockets, any
/// label (conventionally `site-N`) for the loopback.
pub trait Transport {
    /// Connection type.
    type Conn: Conn;
    /// Listener type.
    type Listener: Listener<Conn = Self::Conn>;

    /// Binds a listener on `addr`.
    fn listen(&mut self, addr: &str) -> io::Result<Self::Listener>;

    /// Opens a connection to `addr`. Returns promptly; on the socket
    /// transports the TCP handshake may still be in flight (writes buffer
    /// until it completes), on the loopback a missing listener fails
    /// immediately with [`std::io::ErrorKind::ConnectionRefused`] — which
    /// is exactly what the reconnect-with-backoff path needs to see.
    fn connect(&mut self, addr: &str) -> io::Result<Self::Conn>;

    /// Monotone clock, microseconds.
    fn now_us(&mut self) -> u64;

    /// Lets time pass until `until` (microseconds on this transport's
    /// clock), or until a connection or listener this transport created
    /// has news, whichever comes first. The socket transports sleep on a
    /// readiness flag their I/O threads raise (see [`crate::tcp`]); the
    /// loopback advances the shared virtual clock to the next event.
    /// `None` means "no deadline": return after at most one short polling
    /// slice.
    fn wait(&mut self, until: Option<u64>);
}
