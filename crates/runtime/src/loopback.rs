//! In-process loopback transport with a virtual clock.
//!
//! This is the deterministic half of the transport seam: byte pipes that
//! live in one shared [`LoopNet`], carrying the *same* framed bytes the
//! TCP transport carries, but delivered only when the virtual clock says
//! so. Each write is stamped `now + latency` (FIFO per direction — a write
//! never overtakes an earlier one), and a reader sees exactly the bytes
//! whose stamp has passed. Nothing here touches real ports, threads, or
//! wall-clock time, so a `cargo test` run over this transport is
//! bit-for-bit reproducible: the test harness owns the clock via
//! [`LoopNet::advance_to`] and steps it event by event.
//!
//! Fault injection mirrors what the e2e suite needs: dropping a
//! [`LoopConn`] closes that side (the peer reads every byte written before
//! the close, including bytes still in flight, then `UnexpectedEof`,
//! exactly like a TCP FIN), dropping a [`LoopListener`] unbinds the address
//! (subsequent connects get `ConnectionRefused`, which is what drives the
//! reconnect-with-backoff path), and killing a whole site is just dropping
//! its node, which drops its listener and every conn it owns.
//!
//! ## Cost
//!
//! One thread drives a [`LoopNet`] and everything made from it: the
//! harness steps the clock and polls every node and client in turn. So
//! the shared state sits behind `Rc<RefCell<…>>`, not a mutex, and the
//! net, its transports, listeners and conns are `!Send`. A node polls
//! every session on each round, mostly finding nothing, and the layout
//! serves that case first:
//!
//! * The clock is a shared cell outside the `RefCell`. Each pipe
//!   direction and each listener keeps a *front stamp* in a cell it
//!   shares with its reader: the earliest moment a read or accept can
//!   return anything (`u64::MAX` while nothing is in flight). An empty
//!   read or accept compares the two cells and returns without borrowing
//!   the shared state.
//! * Each direction keeps its unread bytes in one buffer reused for the
//!   life of the pipe, with one `(stamp, length)` entry per write, so
//!   once the buffers have grown a write or a read copies bytes and
//!   allocates nothing.
//! * [`LoopNet::next_event`] takes the minimum of a flat array of
//!   per-direction front stamps, and looks at the listeners only while a
//!   dial waits to be accepted.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::rc::Rc;

use crate::transport::{Conn, Listener, Transport};

/// The bytes one side of a pipe has written and the other has not read.
#[derive(Debug)]
struct Dir {
    /// Unread bytes from `head` on, in write order. A read that empties
    /// the direction keeps the capacity.
    bytes: Vec<u8>,
    head: usize,
    /// `(stamp, length)` of each unread write, oldest first.
    writes: VecDeque<(u64, usize)>,
    /// When a read can next return anything: the oldest write's stamp,
    /// 0 once the writer has closed and nothing is left (the EOF is due),
    /// `u64::MAX` otherwise. Shared with the reading [`LoopConn`].
    ready: Rc<Cell<u64>>,
}

impl Dir {
    fn new() -> Self {
        Dir {
            bytes: Vec::new(),
            head: 0,
            writes: VecDeque::new(),
            ready: Rc::new(Cell::new(u64::MAX)),
        }
    }

    /// Appends the bytes of every write due by `now` to `buf`, returning
    /// how many there were.
    fn read_due(&mut self, now: u64, buf: &mut Vec<u8>) -> usize {
        let mut n = 0;
        while let Some(&(stamp, len)) = self.writes.front() {
            if stamp > now {
                break;
            }
            self.writes.pop_front();
            n += len;
        }
        buf.extend_from_slice(&self.bytes[self.head..self.head + n]);
        self.head += n;
        if self.writes.is_empty() {
            self.bytes.clear();
            self.head = 0;
        } else if self.head > 4096 && self.head * 2 >= self.bytes.len() {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
        n
    }
}

/// A bidirectional byte pipe. `dirs[s]` holds bytes written by side `s`
/// (read by side `1 - s`).
#[derive(Debug)]
struct Pipe {
    dirs: [Dir; 2],
    open: [bool; 2],
    labels: [String; 2],
}

impl Pipe {
    /// Re-derives direction `s`'s front stamps after a write, a read or a
    /// close: its reader's cell, and `event`, what [`LoopNet::next_event`]
    /// sees. Bytes nobody can ever read (the reading side hung up, e.g. a
    /// killed node) are not events.
    fn restamp(&self, s: usize, event: &mut u64) {
        let d = &self.dirs[s];
        let front = d.writes.front().map_or(u64::MAX, |&(t, _)| t);
        let eof = front == u64::MAX && !self.open[s];
        d.ready.set(if eof { 0 } else { front });
        *event = if self.open[1 - s] { front } else { u64::MAX };
    }

    /// Whether a read of direction `s` at `now` returns `Ok(0)`, by
    /// looking at the direction itself rather than its stamps.
    fn idle(&self, s: usize, now: u64) -> bool {
        let d = &self.dirs[s];
        d.writes.front().is_none_or(|&(t, _)| t > now) && (self.open[s] || !d.writes.is_empty())
    }
}

#[derive(Debug)]
struct ListenerSlot {
    /// `(pipe, stamp)` of each dial not yet accepted, oldest first.
    backlog: VecDeque<(usize, u64)>,
    gen: u64,
    /// The oldest dial's stamp, `u64::MAX` with none; shared with the
    /// [`LoopListener`].
    ready: Rc<Cell<u64>>,
}

#[derive(Debug)]
struct NetInner {
    latency: u64,
    pipes: Vec<Pipe>,
    /// `events[2 * pipe + s]`: the stamp of the oldest unread write of
    /// side `s` on `pipe` while side `1 - s` is open, else `u64::MAX`.
    events: Vec<u64>,
    listeners: BTreeMap<String, ListenerSlot>,
    /// Dials queued at a bound listener and not yet accepted.
    dials: usize,
    next_gen: u64,
}

impl NetInner {
    /// Earliest stamp among undelivered bytes and pending accepts, if any.
    fn next_event(&self) -> Option<u64> {
        // A plain compare loop: on the x86-64 baseline the vectorized
        // `u64` minimum that `Iterator::min` compiles to is slower.
        let mut min = u64::MAX;
        for &t in &self.events {
            if t < min {
                min = t;
            }
        }
        if self.dials > 0 {
            for slot in self.listeners.values() {
                if let Some(&(_, t)) = slot.backlog.front() {
                    min = min.min(t);
                }
            }
        }
        let next = (min < u64::MAX).then_some(min);
        debug_assert_eq!(
            next,
            self.scan_next_event(),
            "loopback front stamps out of date"
        );
        next
    }

    /// [`Self::next_event`] by walking every pipe direction and listener.
    fn scan_next_event(&self) -> Option<u64> {
        let bytes = self.pipes.iter().flat_map(|p| {
            (0..2)
                .filter(|&s| p.open[1 - s])
                .filter_map(|s| p.dirs[s].writes.front().map(|&(t, _)| t))
        });
        let dials = self
            .listeners
            .values()
            .filter_map(|l| l.backlog.front().map(|&(_, t)| t));
        bytes.chain(dials).min()
    }
}

/// What every handle onto one network shares.
struct Shared {
    /// The virtual clock, outside the `RefCell` so an empty read takes no
    /// borrow.
    now: Cell<u64>,
    inner: RefCell<NetInner>,
}

/// The shared virtual network: clock, pipes, and bound listeners.
///
/// Cheap to clone (all clones share state). Tests keep one around as the
/// clock authority; every [`LoopTransport`] handed to a node is a clone.
/// Single-threaded by design (see the module docs).
#[derive(Clone)]
pub struct LoopNet {
    shared: Rc<Shared>,
}

impl Default for LoopNet {
    fn default() -> Self {
        Self::new(500)
    }
}

impl LoopNet {
    /// Creates a network whose every write takes `latency_us` virtual
    /// microseconds to arrive.
    pub fn new(latency_us: u64) -> Self {
        LoopNet {
            shared: Rc::new(Shared {
                now: Cell::new(0),
                inner: RefCell::new(NetInner {
                    latency: latency_us.max(1),
                    pipes: Vec::new(),
                    events: Vec::new(),
                    listeners: BTreeMap::new(),
                    dials: 0,
                    next_gen: 0,
                }),
            }),
        }
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.shared.now.get()
    }

    /// Advances the virtual clock. Going backwards is a harness bug.
    pub fn advance_to(&self, t: u64) {
        let now = self.now();
        assert!(t >= now, "virtual clock must be monotone ({now} -> {t})");
        self.shared.now.set(t);
    }

    /// Stamp of the next in-flight delivery or pending accept, if any.
    pub fn next_event(&self) -> Option<u64> {
        self.shared.inner.borrow().next_event()
    }

    /// Changes the one-way latency applied to subsequent writes.
    pub fn set_latency(&self, latency_us: u64) {
        self.shared.inner.borrow_mut().latency = latency_us.max(1);
    }

    /// A transport handle onto this network, one per node or client.
    pub fn transport(&self) -> LoopTransport {
        LoopTransport { net: self.clone() }
    }
}

/// One side of a loopback pipe.
pub struct LoopConn {
    net: LoopNet,
    /// Front stamp of the direction this side reads.
    ready: Rc<Cell<u64>>,
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
        let now = self.net.now();
        let mut g = self.net.shared.inner.borrow_mut();
        let g = &mut *g;
        let p = &mut g.pipes[self.pipe];
        if !p.open[self.side] || !p.open[1 - self.side] {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        let d = &mut p.dirs[self.side];
        // FIFO: never stamp a write earlier than the one before it.
        let floor = d.writes.back().map_or(0, |&(t, _)| t);
        d.writes
            .push_back(((now + g.latency).max(floor), bytes.len()));
        d.bytes.extend_from_slice(bytes);
        if d.writes.len() == 1 {
            p.restamp(self.side, &mut g.events[2 * self.pipe + self.side]);
        }
        Ok(())
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let now = self.net.now();
        let s = 1 - self.side;
        if self.ready.get() > now {
            debug_assert!(
                self.net.shared.inner.borrow().pipes[self.pipe].idle(s, now),
                "loopback front stamp out of date"
            );
            return Ok(0);
        }
        let mut g = self.net.shared.inner.borrow_mut();
        let g = &mut *g;
        let p = &mut g.pipes[self.pipe];
        let n = p.dirs[s].read_due(now, buf);
        p.restamp(s, &mut g.events[2 * self.pipe + s]);
        // The close is the last thing the writer sent: it is read only
        // once every byte written before it has been.
        if n == 0 && p.dirs[s].writes.is_empty() && !p.open[s] {
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
        let mut g = self.net.shared.inner.borrow_mut();
        let g = &mut *g;
        let p = &mut g.pipes[self.pipe];
        p.open[self.side] = false;
        for s in 0..2 {
            p.restamp(s, &mut g.events[2 * self.pipe + s]);
        }
    }
}

/// A bound loopback address. Dropping it unbinds the address.
pub struct LoopListener {
    net: LoopNet,
    addr: String,
    gen: u64,
    /// Stamp of the oldest dial in this listener's backlog.
    ready: Rc<Cell<u64>>,
}

impl Listener for LoopListener {
    type Conn = LoopConn;

    fn poll_accept(&mut self) -> io::Result<Option<LoopConn>> {
        let now = self.net.now();
        if self.ready.get() > now {
            debug_assert!(
                self.net.shared.inner.borrow().listeners[&self.addr]
                    .backlog
                    .front()
                    .is_none_or(|&(_, t)| t > now),
                "loopback listener stamp out of date"
            );
            return Ok(None);
        }
        let mut g = self.net.shared.inner.borrow_mut();
        let g = &mut *g;
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
            slot.ready
                .set(slot.backlog.front().map_or(u64::MAX, |&(_, t)| t));
            g.dials -= 1;
            let p = &g.pipes[pipe];
            return Ok(Some(LoopConn {
                net: self.net.clone(),
                ready: Rc::clone(&p.dirs[0].ready),
                pipe,
                side: 1,
                label: p.labels[1].clone(),
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
        let mut g = self.net.shared.inner.borrow_mut();
        if let Some(queued) = g
            .listeners
            .get(&self.addr)
            .filter(|s| s.gen == self.gen)
            .map(|s| s.backlog.len())
        {
            g.dials -= queued;
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
        let mut g = self.net.shared.inner.borrow_mut();
        if g.listeners.contains_key(addr) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("loopback address {addr} already bound"),
            ));
        }
        g.next_gen += 1;
        let gen = g.next_gen;
        let ready = Rc::new(Cell::new(u64::MAX));
        g.listeners.insert(
            addr.to_string(),
            ListenerSlot {
                backlog: VecDeque::new(),
                gen,
                ready: Rc::clone(&ready),
            },
        );
        Ok(LoopListener {
            net: self.net.clone(),
            addr: addr.to_string(),
            gen,
            ready,
        })
    }

    fn connect(&mut self, addr: &str) -> io::Result<LoopConn> {
        let mut g = self.net.shared.inner.borrow_mut();
        let g = &mut *g;
        let Some(slot) = g.listeners.get_mut(addr) else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no loopback listener on {addr}"),
            ));
        };
        let pipe = g.pipes.len();
        let at = self.net.now() + g.latency;
        slot.backlog.push_back((pipe, at));
        if slot.backlog.len() == 1 {
            slot.ready.set(at);
        }
        g.dials += 1;
        g.pipes.push(Pipe {
            dirs: [Dir::new(), Dir::new()],
            open: [true, true],
            labels: [addr.to_string(), format!("dial:{addr}")],
        });
        g.events.extend([u64::MAX; 2]);
        Ok(LoopConn {
            net: self.net.clone(),
            ready: Rc::clone(&g.pipes[pipe].dirs[1].ready),
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
        let now = self.net.now();
        let mut target = until.unwrap_or(now.saturating_add(1_000));
        if let Some(ev) = self.net.next_event() {
            target = target.min(ev);
        }
        if target > now {
            self.net.shared.now.set(target);
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
    fn close_does_not_overtake_bytes_in_flight() {
        let net = LoopNet::new(100);
        let mut t = net.transport();
        let mut lst = t.listen("a").unwrap();
        let mut dial = t.connect("a").unwrap();
        net.advance_to(100);
        let mut acc = lst.poll_accept().unwrap().unwrap();
        dial.send_bytes(b"ping").unwrap(); // due at 200
        net.advance_to(150);
        drop(dial);
        let mut buf = Vec::new();
        assert_eq!(acc.recv_bytes(&mut buf).unwrap(), 0, "EOF before the bytes");
        assert_eq!(net.next_event(), Some(200));
        net.advance_to(200);
        assert_eq!(acc.recv_bytes(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"ping");
        let err = acc.recv_bytes(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(net.next_event(), None);
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
        // Lower the latency mid-stream: the second write must not overtake.
        net.set_latency(1);
        dial.send_bytes(b"bb").unwrap();
        net.advance_to(51);
        let mut buf = Vec::new();
        assert_eq!(
            acc.recv_bytes(&mut buf).unwrap(),
            0,
            "held behind first write"
        );
        net.advance_to(100);
        acc.recv_bytes(&mut buf).unwrap();
        assert_eq!(&buf, b"aabb");
    }
}
