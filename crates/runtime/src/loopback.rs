//! In-process loopback transport with a virtual clock.
//!
//! This is the deterministic half of the transport seam: byte pipes that
//! live in one shared [`LoopNet`], carrying the *same* framed bytes the
//! TCP transport carries, but delivered only when the virtual clock says
//! so. Each written chunk is stamped `avail_at = now + latency` (FIFO per
//! direction — a chunk never overtakes an earlier one), and a reader sees
//! exactly the bytes whose stamp has passed. Nothing here touches real
//! ports, threads, or wall-clock time, so a `cargo test` run over this
//! transport is bit-for-bit reproducible: the test harness owns the clock
//! via [`LoopNet::advance_to`] and steps it event by event.
//!
//! Fault injection mirrors what the e2e suite needs: dropping a
//! [`LoopConn`] closes that side (the peer drains in-flight bytes, then
//! reads `UnexpectedEof`, exactly like a TCP FIN), dropping a
//! [`LoopListener`] unbinds the address (subsequent connects get
//! `ConnectionRefused`, which is what drives the reconnect-with-backoff
//! path), and killing a whole site is just dropping its node, which drops
//! its listener and every conn it owns.
//!
//! One thread drives a [`LoopNet`] and everything made from it: the
//! harness steps the clock and polls every node and client in turn. So
//! the shared state sits behind `Rc<RefCell<…>>`, not a mutex, and the
//! net, its transports, listeners and conns are `!Send`. A node polls
//! every session on each round, mostly finding nothing; with no lock to
//! take, an empty read costs a borrow flag.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::rc::Rc;

use crate::transport::{Conn, Listener, Transport};

/// One timed burst of bytes in flight on a pipe direction.
#[derive(Debug)]
struct Chunk {
    avail_at: u64,
    bytes: Vec<u8>,
}

/// A bidirectional byte pipe. `dirs[s]` holds bytes written by side `s`
/// (read by side `1 - s`).
#[derive(Debug)]
struct Pipe {
    dirs: [VecDeque<Chunk>; 2],
    open: [bool; 2],
    labels: [String; 2],
}

#[derive(Debug)]
struct ListenerSlot {
    backlog: VecDeque<(usize, u64)>,
    gen: u64,
}

#[derive(Debug)]
struct NetInner {
    now: u64,
    latency: u64,
    pipes: Vec<Pipe>,
    listeners: BTreeMap<String, ListenerSlot>,
    next_gen: u64,
}

impl NetInner {
    /// Earliest stamp among undelivered chunks and pending accepts, if any.
    fn next_event(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut see = |t: u64| {
            min = Some(match min {
                Some(m) if m <= t => m,
                _ => t,
            })
        };
        for p in &self.pipes {
            for (s, d) in p.dirs.iter().enumerate() {
                // Bytes nobody can ever read (the receiving side hung up,
                // e.g. a killed node) are not events.
                if !p.open[1 - s] {
                    continue;
                }
                if let Some(c) = d.front() {
                    see(c.avail_at);
                }
            }
        }
        for slot in self.listeners.values() {
            if let Some(&(_, t)) = slot.backlog.front() {
                see(t);
            }
        }
        min
    }
}

/// The shared virtual network: clock, pipes, and bound listeners.
///
/// Cheap to clone (all clones share state). Tests keep one around as the
/// clock authority; every [`LoopTransport`] handed to a node is a clone.
/// Single-threaded by design (see the module docs).
#[derive(Clone)]
pub struct LoopNet {
    inner: Rc<RefCell<NetInner>>,
}

impl Default for LoopNet {
    fn default() -> Self {
        Self::new(500)
    }
}

impl LoopNet {
    /// Creates a network whose every byte chunk takes `latency_us` virtual
    /// microseconds to arrive.
    pub fn new(latency_us: u64) -> Self {
        LoopNet {
            inner: Rc::new(RefCell::new(NetInner {
                now: 0,
                latency: latency_us.max(1),
                pipes: Vec::new(),
                listeners: BTreeMap::new(),
                next_gen: 0,
            })),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.inner.borrow().now
    }

    /// Advances the virtual clock. Going backwards is a harness bug.
    pub fn advance_to(&self, t: u64) {
        let mut g = self.inner.borrow_mut();
        assert!(
            t >= g.now,
            "virtual clock must be monotone ({} -> {t})",
            g.now
        );
        g.now = t;
    }

    /// Stamp of the next in-flight delivery or pending accept, if any.
    pub fn next_event(&self) -> Option<u64> {
        self.inner.borrow().next_event()
    }

    /// Changes the one-way latency applied to subsequently written chunks.
    pub fn set_latency(&self, latency_us: u64) {
        self.inner.borrow_mut().latency = latency_us.max(1);
    }

    /// A transport handle onto this network, one per node or client.
    pub fn transport(&self) -> LoopTransport {
        LoopTransport { net: self.clone() }
    }
}

/// One side of a loopback pipe.
pub struct LoopConn {
    net: LoopNet,
    pipe: usize,
    side: usize,
    label: String,
}

impl std::fmt::Debug for LoopConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopConn")
            .field("pipe", &self.pipe)
            .field("side", &self.side)
            .field("label", &self.label)
            .finish()
    }
}

impl Conn for LoopConn {
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let mut g = self.net.inner.borrow_mut();
        let now = g.now;
        let latency = g.latency;
        let p = &mut g.pipes[self.pipe];
        if !p.open[self.side] || !p.open[1 - self.side] {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        // FIFO: never stamp a chunk earlier than the one before it.
        let floor = p.dirs[self.side].back().map(|c| c.avail_at).unwrap_or(0);
        let avail_at = (now + latency).max(floor);
        p.dirs[self.side].push_back(Chunk {
            avail_at,
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let mut g = self.net.inner.borrow_mut();
        let now = g.now;
        let p = &mut g.pipes[self.pipe];
        let dir = &mut p.dirs[1 - self.side];
        let mut n = 0;
        while dir.front().is_some_and(|c| c.avail_at <= now) {
            let c = dir.pop_front().unwrap();
            n += c.bytes.len();
            buf.extend_from_slice(&c.bytes);
        }
        if n == 0 && !p.open[1 - self.side] {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

impl Drop for LoopConn {
    fn drop(&mut self) {
        let mut g = self.net.inner.borrow_mut();
        g.pipes[self.pipe].open[self.side] = false;
    }
}

/// A bound loopback address. Dropping it unbinds the address.
pub struct LoopListener {
    net: LoopNet,
    addr: String,
    gen: u64,
}

impl Listener for LoopListener {
    type Conn = LoopConn;

    fn poll_accept(&mut self) -> io::Result<Option<LoopConn>> {
        let mut g = self.net.inner.borrow_mut();
        let now = g.now;
        let slot = match g.listeners.get_mut(&self.addr) {
            Some(s) if s.gen == self.gen => s,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "listener unbound",
                ))
            }
        };
        if slot.backlog.front().is_some_and(|&(_, t)| t <= now) {
            let (pipe, _) = slot.backlog.pop_front().unwrap();
            let label = g.pipes[pipe].labels[1].clone();
            return Ok(Some(LoopConn {
                net: self.net.clone(),
                pipe,
                side: 1,
                label,
            }));
        }
        Ok(None)
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl Drop for LoopListener {
    fn drop(&mut self) {
        let mut g = self.net.inner.borrow_mut();
        if g.listeners
            .get(&self.addr)
            .is_some_and(|s| s.gen == self.gen)
        {
            g.listeners.remove(&self.addr);
        }
    }
}

/// [`Transport`] handle onto a [`LoopNet`].
#[derive(Clone)]
pub struct LoopTransport {
    net: LoopNet,
}

impl Transport for LoopTransport {
    type Conn = LoopConn;
    type Listener = LoopListener;

    fn listen(&mut self, addr: &str) -> io::Result<LoopListener> {
        let mut g = self.net.inner.borrow_mut();
        if g.listeners.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("loopback address {addr} already bound"),
            ));
        }
        g.next_gen += 1;
        let gen = g.next_gen;
        g.listeners.insert(
            addr.to_string(),
            ListenerSlot {
                backlog: VecDeque::new(),
                gen,
            },
        );
        Ok(LoopListener {
            net: self.net.clone(),
            addr: addr.to_string(),
            gen,
        })
    }

    fn connect(&mut self, addr: &str) -> io::Result<LoopConn> {
        let mut g = self.net.inner.borrow_mut();
        if !g.listeners.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no loopback listener on {addr}"),
            ));
        }
        let now = g.now;
        let latency = g.latency;
        let pipe = g.pipes.len();
        g.pipes.push(Pipe {
            dirs: [VecDeque::new(), VecDeque::new()],
            open: [true, true],
            labels: [addr.to_string(), format!("dial:{addr}")],
        });
        g.listeners
            .get_mut(addr)
            .unwrap()
            .backlog
            .push_back((pipe, now + latency));
        Ok(LoopConn {
            net: self.net.clone(),
            pipe,
            side: 0,
            label: addr.to_string(),
        })
    }

    fn now_us(&mut self) -> u64 {
        self.net.now()
    }

    fn wait(&mut self, until: Option<u64>) {
        // Standalone use only: the deterministic harness drives the clock
        // itself and never calls this. Jump to the next interesting moment.
        let mut g = self.net.inner.borrow_mut();
        let mut target = until.unwrap_or(g.now.saturating_add(1_000));
        if let Some(ev) = g.next_event() {
            target = target.min(ev);
        }
        if target > g.now {
            g.now = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_arrive_only_after_latency() {
        let net = LoopNet::new(100);
        let mut t = net.transport();
        let mut lst = t.listen("a").unwrap();
        let mut dial = t.connect("a").unwrap();
        assert!(
            lst.poll_accept().unwrap().is_none(),
            "accept before latency"
        );
        net.advance_to(100);
        let mut acc = lst.poll_accept().unwrap().expect("accept after latency");
        dial.send_bytes(b"ping").unwrap();
        let mut buf = Vec::new();
        assert_eq!(acc.recv_bytes(&mut buf).unwrap(), 0);
        net.advance_to(200);
        assert_eq!(acc.recv_bytes(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn close_drains_then_eof() {
        let net = LoopNet::new(10);
        let mut t = net.transport();
        let mut lst = t.listen("a").unwrap();
        let mut dial = t.connect("a").unwrap();
        net.advance_to(10);
        let mut acc = lst.poll_accept().unwrap().unwrap();
        dial.send_bytes(b"last words").unwrap();
        drop(dial);
        net.advance_to(20);
        let mut buf = Vec::new();
        assert_eq!(acc.recv_bytes(&mut buf).unwrap(), 10);
        let err = acc.recv_bytes(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And writes toward the closed side fail too.
        assert!(acc.send_bytes(b"x").is_err());
    }

    #[test]
    fn connect_refused_without_listener_and_after_unbind() {
        let net = LoopNet::new(10);
        let mut t = net.transport();
        assert_eq!(
            t.connect("ghost").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        let lst = t.listen("a").unwrap();
        drop(lst);
        assert_eq!(
            t.connect("a").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        // Rebinding works and gets a fresh generation.
        let _lst2 = t.listen("a").unwrap();
        assert!(t.connect("a").is_ok());
    }

    #[test]
    fn fifo_per_direction() {
        let net = LoopNet::new(50);
        let mut t = net.transport();
        let mut lst = t.listen("a").unwrap();
        let mut dial = t.connect("a").unwrap();
        net.advance_to(50);
        let mut acc = lst.poll_accept().unwrap().unwrap();
        dial.send_bytes(b"aa").unwrap();
        // Lower the latency mid-stream: the second chunk must not overtake.
        net.set_latency(1);
        dial.send_bytes(b"bb").unwrap();
        net.advance_to(51);
        let mut buf = Vec::new();
        assert_eq!(
            acc.recv_bytes(&mut buf).unwrap(),
            0,
            "held behind first chunk"
        );
        net.advance_to(100);
        acc.recv_bytes(&mut buf).unwrap();
        assert_eq!(&buf, b"aabb");
    }
}
