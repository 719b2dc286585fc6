//! Real-socket transports: TCP and Unix-domain sockets.
//!
//! Both satisfy the [`Conn`]/[`Listener`]/[`Transport`] contract over
//! `std::net` / `std::os::unix::net`, so the node and client state
//! machines built against the loopback run unchanged over real sockets.
//! The two stream types share one generic [`StreamConn`] and one accept
//! loop.
//!
//! # Threading model
//!
//! The sockets stay blocking, and every blocking call runs on a helper
//! thread, so the owner's thread blocks only in [`Transport::wait`]:
//!
//! * each connection has a *reader* thread, which appends whatever the
//!   socket delivers to the connection's inbox, and a *writer* thread,
//!   which writes the connection's outbox to the socket, taking all that
//!   was queued while it was busy as one batch. [`Conn::send_bytes`] only
//!   appends to the outbox and [`Conn::recv_bytes`] only empties the
//!   inbox, so neither ever blocks;
//! * each listener has an *accept* thread, which starts the threads of
//!   every connection it accepts and queues it for
//!   [`Listener::poll_accept`];
//! * a connection or listener wakes the `wait` of the transport that
//!   created it: all of these threads raise that transport's one
//!   readiness flag, and `wait(until)` sleeps on the flag until it is
//!   raised or `until` passes. Without a deadline, `wait` returns after
//!   at most one millisecond.
//!
//! Dropping a connection drains it, then closes it, then joins its
//! threads: the writer gets up to one second to hand the queued bytes to
//! the kernel (a peer that stopped reading cannot hang the drop), then the
//! socket is shut down both ways, which ends the reader's blocking read.
//! Dropping a listener shuts its socket down, which on Linux makes a
//! blocked `accept` return at once, and joins the accept thread.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::lock;
use crate::transport::{Conn, Listener, Transport};

/// Longest [`Transport::wait`] blocks without a deadline, so a caller with
/// no timer of its own still gets to re-check its state.
const WAIT_SLICE_US: u64 = 1_000;

/// Longest a dropped connection waits for its writer to hand the queued
/// bytes to the kernel.
const LINGER: Duration = Duration::from_secs(1);

/// Inbox size at which a reader stops reading until the owner drains the
/// inbox, so a peer cannot grow it without bound: the kernel's flow
/// control then pushes back on the peer. The node never reads its
/// outbound peer links, so this is what bounds them.
const INBOX_CAP: usize = 1 << 20;

/// Bytes a reader asks the socket for at a time.
const READ_CHUNK: usize = 16 * 1024;

/// Stack size of every I/O thread; their buffers live on the heap.
const IO_STACK: usize = 64 * 1024;

/// Pause of an accept thread after a failed accept (out of descriptors or
/// threads, say), so that a lasting error does not spin.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

fn spawn_io(name: &str, body: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    thread::Builder::new()
        .name(name.to_string())
        .stack_size(IO_STACK)
        .spawn(body)
}

/// A transport's readiness flag: its I/O threads raise it, and
/// [`Transport::wait`] sleeps until it is raised, then lowers it.
#[derive(Clone, Default)]
struct Wake(Arc<(Mutex<bool>, Condvar)>);

impl Wake {
    fn raise(&self) {
        let (raised, cv) = &*self.0;
        let mut raised = lock(raised);
        if !*raised {
            *raised = true;
            cv.notify_one();
        }
    }

    /// Blocks until the flag is raised or `timeout_us` passes, and lowers
    /// the flag.
    fn wait(&self, timeout_us: u64) {
        let (raised, cv) = &*self.0;
        let (mut raised, _) = cv
            .wait_timeout_while(lock(raised), Duration::from_micros(timeout_us), |r| !*r)
            .unwrap_or_else(PoisonError::into_inner);
        *raised = false;
    }
}

/// A blocking socket a [`StreamConn`] can run on. Every method takes
/// `&self`, so a connection's reader thread, writer thread and owner share
/// one handle.
pub trait Socket: Send + Sync + 'static {
    /// Reads some bytes into `buf`, blocking until any arrive; `Ok(0)`
    /// means the stream ended.
    fn blocking_read(&self, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes all of `buf`, blocking while the kernel cannot take it.
    fn blocking_write_all(&self, buf: &[u8]) -> io::Result<()>;

    /// Shuts the socket down, waking the threads blocked on it.
    fn shutdown(&self, how: Shutdown) -> io::Result<()>;
}

impl Socket for TcpStream {
    fn blocking_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self;
        s.read(buf)
    }

    fn blocking_write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut s = self;
        s.write_all(buf)
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        TcpStream::shutdown(self, how)
    }
}

impl Socket for UnixStream {
    fn blocking_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut s = self;
        s.read(buf)
    }

    fn blocking_write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut s = self;
        s.write_all(buf)
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        UnixStream::shutdown(self, how)
    }
}

/// What a connection shares with its reader and writer threads.
struct Shared<S> {
    socket: S,
    inbox: Mutex<Inbox>,
    /// Tells the reader that the inbox has room again, or that the
    /// connection is closing.
    room: Condvar,
    outbox: Mutex<Outbox>,
    /// Tells the writer that bytes are queued or that the connection is
    /// closing, and the dropping owner that the writer has stopped.
    out_cv: Condvar,
    wake: Wake,
}

#[derive(Default)]
struct Inbox {
    bytes: Vec<u8>,
    /// Why reading stopped: `UnexpectedEof` when the peer closed.
    end: Option<io::ErrorKind>,
    closing: bool,
}

#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    /// Why a write failed; the connection is dead.
    error: Option<io::ErrorKind>,
    /// The owner dropped the connection: write what is queued, then stop.
    closing: bool,
    /// The writer has stopped.
    done: bool,
}

fn read_loop<S: Socket>(sh: &Shared<S>) {
    let mut chunk = vec![0u8; READ_CHUNK];
    let end = loop {
        let n = match sh.socket.blocking_read(&mut chunk) {
            Ok(0) => break io::ErrorKind::UnexpectedEof,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => break e.kind(),
        };
        let full = {
            let mut inbox = lock(&sh.inbox);
            inbox.bytes.extend_from_slice(&chunk[..n]);
            inbox.bytes.len() >= INBOX_CAP
        };
        sh.wake.raise();
        if full {
            let inbox = sh
                .room
                .wait_while(lock(&sh.inbox), |i| {
                    i.bytes.len() >= INBOX_CAP && !i.closing
                })
                .unwrap_or_else(PoisonError::into_inner);
            if inbox.closing {
                return;
            }
        }
    };
    lock(&sh.inbox).end = Some(end);
    sh.wake.raise();
}

fn write_loop<S: Socket>(sh: &Shared<S>) {
    let mut batch = Vec::new();
    loop {
        {
            let mut out = sh
                .out_cv
                .wait_while(lock(&sh.outbox), |o| o.bytes.is_empty() && !o.closing)
                .unwrap_or_else(PoisonError::into_inner);
            if out.bytes.is_empty() {
                break; // closing, and everything queued is written
            }
            std::mem::swap(&mut out.bytes, &mut batch);
        }
        if let Err(e) = sh.socket.blocking_write_all(&batch) {
            lock(&sh.outbox).error = Some(e.kind());
            sh.wake.raise();
            break;
        }
        batch.clear();
    }
    lock(&sh.outbox).done = true;
    sh.out_cv.notify_all();
}

/// A connection over a blocking socket, served by a reader and a writer
/// thread (see the module docs).
pub struct StreamConn<S: Socket> {
    shared: Arc<Shared<S>>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    label: String,
}

impl<S: Socket> StreamConn<S> {
    /// Starts the reader and writer threads of `socket`; both raise `wake`.
    fn start(socket: S, label: String, wake: &Wake) -> io::Result<Self> {
        let shared = Arc::new(Shared {
            socket,
            inbox: Mutex::default(),
            room: Condvar::new(),
            outbox: Mutex::default(),
            out_cv: Condvar::new(),
            wake: wake.clone(),
        });
        // If the reader cannot start, dropping `conn` stops the writer.
        let mut conn = StreamConn {
            shared,
            reader: None,
            writer: None,
            label,
        };
        let sh = Arc::clone(&conn.shared);
        conn.writer = Some(spawn_io("qmx-write", move || write_loop(&sh))?);
        let sh = Arc::clone(&conn.shared);
        conn.reader = Some(spawn_io("qmx-read", move || read_loop(&sh))?);
        Ok(conn)
    }
}

impl<S: Socket> Conn for StreamConn<S> {
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut out = lock(&self.shared.outbox);
        if let Some(kind) = out.error {
            return Err(kind.into());
        }
        // Only an empty outbox can have the writer asleep on it.
        let idle = out.bytes.is_empty();
        out.bytes.extend_from_slice(bytes);
        if idle {
            self.shared.out_cv.notify_one();
        }
        Ok(())
    }

    /// The writer thread pushes queued bytes on its own; this only reports
    /// whether it has failed.
    fn flush(&mut self) -> io::Result<()> {
        match lock(&self.shared.outbox).error {
            Some(kind) => Err(kind.into()),
            None => Ok(()),
        }
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let mut inbox = lock(&self.shared.inbox);
        let n = inbox.bytes.len();
        if n == 0 {
            return match inbox.end {
                Some(kind) => Err(kind.into()),
                None => Ok(0),
            };
        }
        buf.extend_from_slice(&inbox.bytes);
        inbox.bytes.clear();
        if n >= INBOX_CAP {
            self.shared.room.notify_one();
        }
        Ok(n)
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

impl<S: Socket> Drop for StreamConn<S> {
    fn drop(&mut self) {
        let sh = &self.shared;
        if self.writer.is_some() {
            let mut out = lock(&sh.outbox);
            out.closing = true;
            sh.out_cv.notify_all();
            let _drained = sh.out_cv.wait_timeout_while(out, LINGER, |o| !o.done);
        }
        lock(&sh.inbox).closing = true;
        sh.room.notify_one();
        let _ = sh.socket.shutdown(Shutdown::Both);
        for t in [self.writer.take(), self.reader.take()]
            .into_iter()
            .flatten()
        {
            let _ = t.join();
        }
    }
}

/// Connections accepted and not yet taken by the owner.
struct Backlog<S: Socket> {
    conns: Mutex<VecDeque<StreamConn<S>>>,
    stop: AtomicBool,
}

/// The accept thread of a listener.
struct Acceptor<S: Socket> {
    backlog: Arc<Backlog<S>>,
    /// A stream handle on the listening socket, kept to shut it down.
    closer: S,
    thread: Option<JoinHandle<()>>,
}

impl<S: Socket> Acceptor<S> {
    /// Runs `accept` on a new thread until the acceptor is dropped,
    /// starting each accepted connection and raising `wake`.
    fn start(
        closer: S,
        wake: &Wake,
        mut accept: impl FnMut() -> io::Result<(S, String)> + Send + 'static,
    ) -> io::Result<Self> {
        let backlog = Arc::new(Backlog {
            conns: Mutex::default(),
            stop: AtomicBool::new(false),
        });
        let (b, w) = (Arc::clone(&backlog), wake.clone());
        let thread = spawn_io("qmx-accept", move || {
            while !b.stop.load(Ordering::SeqCst) {
                match accept().and_then(|(socket, label)| StreamConn::start(socket, label, &w)) {
                    Ok(conn) => {
                        lock(&b.conns).push_back(conn);
                        w.raise();
                    }
                    // Either the owner shut the socket down, or the error
                    // is transient and worth a retry.
                    Err(_) if !b.stop.load(Ordering::SeqCst) => thread::sleep(ACCEPT_RETRY),
                    Err(_) => {}
                }
            }
        })?;
        Ok(Acceptor {
            backlog,
            closer,
            thread: Some(thread),
        })
    }

    fn next(&self) -> Option<StreamConn<S>> {
        lock(&self.backlog.conns).pop_front()
    }
}

impl<S: Socket> Drop for Acceptor<S> {
    fn drop(&mut self) {
        self.backlog.stop.store(true, Ordering::SeqCst);
        // On Linux this makes a blocked `accept` fail at once.
        let _ = self.closer.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// TCP [`Transport`]. Addresses are `host:port` strings.
pub struct TcpTransport {
    t0: Instant,
    wake: Wake,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Creates a transport whose clock starts at zero now.
    pub fn new() -> Self {
        TcpTransport {
            t0: Instant::now(),
            wake: Wake::default(),
        }
    }
}

/// A bound TCP accept socket, served by its own thread.
pub struct TcpAccept {
    acceptor: Acceptor<TcpStream>,
    addr: String,
}

impl Listener for TcpAccept {
    type Conn = StreamConn<TcpStream>;

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        Ok(self.acceptor.next())
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Transport for TcpTransport {
    type Conn = StreamConn<TcpStream>;
    type Listener = TcpAccept;

    fn listen(&mut self, addr: &str) -> io::Result<TcpAccept> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        let closer = TcpStream::from(OwnedFd::from(listener.try_clone()?));
        let acceptor = Acceptor::start(closer, &self.wake, move || {
            let (stream, peer) = listener.accept()?;
            let _ = stream.set_nodelay(true);
            Ok((stream, peer.to_string()))
        })?;
        Ok(TcpAccept {
            acceptor,
            addr: bound,
        })
    }

    fn connect(&mut self, addr: &str) -> io::Result<StreamConn<TcpStream>> {
        // Blocking connect: localhost handshakes complete in microseconds,
        // and a refused port returns promptly to drive the backoff path.
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        StreamConn::start(stream, addr.to_string(), &self.wake)
    }

    fn now_us(&mut self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn wait(&mut self, until: Option<u64>) {
        let now = self.now_us();
        self.wake
            .wait(until.map_or(WAIT_SLICE_US, |u| u.saturating_sub(now)));
    }
}

/// Unix-domain-socket [`Transport`]. Addresses are filesystem paths; a
/// stale socket file from a previous run is removed before binding.
pub struct UdsTransport {
    t0: Instant,
    wake: Wake,
}

impl Default for UdsTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl UdsTransport {
    /// Creates a transport whose clock starts at zero now.
    pub fn new() -> Self {
        UdsTransport {
            t0: Instant::now(),
            wake: Wake::default(),
        }
    }
}

/// A bound Unix-domain accept socket, served by its own thread. Unlinks
/// its path on drop.
pub struct UdsAccept {
    acceptor: Acceptor<UnixStream>,
    path: String,
}

impl Listener for UdsAccept {
    type Conn = StreamConn<UnixStream>;

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        Ok(self.acceptor.next())
    }

    fn local_addr(&self) -> String {
        self.path.clone()
    }
}

impl Drop for UdsAccept {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Transport for UdsTransport {
    type Conn = StreamConn<UnixStream>;
    type Listener = UdsAccept;

    fn listen(&mut self, addr: &str) -> io::Result<UdsAccept> {
        let _ = std::fs::remove_file(addr);
        let listener = UnixListener::bind(addr)?;
        let closer = UnixStream::from(OwnedFd::from(listener.try_clone()?));
        let label = addr.to_string();
        let acceptor = Acceptor::start(closer, &self.wake, move || {
            let (stream, _) = listener.accept()?;
            Ok((stream, label.clone()))
        })?;
        Ok(UdsAccept {
            acceptor,
            path: addr.to_string(),
        })
    }

    fn connect(&mut self, addr: &str) -> io::Result<StreamConn<UnixStream>> {
        let stream = UnixStream::connect(addr)?;
        StreamConn::start(stream, addr.to_string(), &self.wake)
    }

    fn now_us(&mut self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    fn wait(&mut self, until: Option<u64>) {
        let now = self.now_us();
        self.wake
            .wait(until.map_or(WAIT_SLICE_US, |u| u.saturating_sub(now)));
    }
}
