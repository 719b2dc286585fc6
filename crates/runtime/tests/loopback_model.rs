//! The loopback transport against a brute-force model.
//!
//! `LoopNet` answers `next_event` from a flat array of per-direction front
//! stamps, and answers empty reads and accepts from stamp cells without
//! looking at the pipes. This suite drives a few pipes through random
//! binds, dials, accepts, writes, latency changes, clock moves, reads and
//! drops. After every step it compares `next_event()`, and every read and
//! accept result, with a model that keeps each write as its own chunk and
//! scans every direction for the earliest stamp.

use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;

use proptest::prelude::*;
use qmx_runtime::loopback::{LoopConn, LoopListener, LoopNet};
use qmx_runtime::transport::{Conn, Listener, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ADDRS: [&str; 2] = ["a", "b"];
const MAX_PIPES: usize = 6;

/// One pipe of the model: the unread writes of each side as
/// `(stamp, bytes)`, and which sides are open.
type ModelPipe = ([VecDeque<(u64, Vec<u8>)>; 2], [bool; 2]);

/// The transport's contract, written the slow way.
struct Model {
    now: u64,
    latency: u64,
    pipes: Vec<ModelPipe>,
    /// Bound addresses and their backlogs of `(pipe, stamp)`.
    listeners: BTreeMap<&'static str, VecDeque<(usize, u64)>>,
}

impl Model {
    fn next_event(&self) -> Option<u64> {
        // Bytes toward a side that hung up are never read, so never due.
        let bytes = self.pipes.iter().flat_map(|(dirs, open)| {
            (0..2)
                .filter(|&s| open[1 - s])
                .filter_map(|s| dirs[s].front().map(|w| w.0))
        });
        let dials = self
            .listeners
            .values()
            .filter_map(|b| b.front().map(|d| d.1));
        bytes.chain(dials).min()
    }

    fn connect(&mut self, addr: &'static str) -> Result<usize, ErrorKind> {
        let backlog = self
            .listeners
            .get_mut(addr)
            .ok_or(ErrorKind::ConnectionRefused)?;
        let pipe = self.pipes.len();
        backlog.push_back((pipe, self.now + self.latency));
        self.pipes.push((Default::default(), [true, true]));
        Ok(pipe)
    }

    fn accept(&mut self, addr: &'static str) -> Option<usize> {
        let backlog = self.listeners.get_mut(addr).expect("bound");
        if backlog.front().is_some_and(|d| d.1 <= self.now) {
            backlog.pop_front().map(|d| d.0)
        } else {
            None
        }
    }

    fn send(&mut self, pipe: usize, side: usize, bytes: &[u8]) -> Result<(), ErrorKind> {
        if bytes.is_empty() {
            return Ok(());
        }
        let (dirs, open) = &mut self.pipes[pipe];
        if !open[0] || !open[1] {
            return Err(ErrorKind::BrokenPipe);
        }
        // FIFO: a write never overtakes the one before it.
        let floor = dirs[side].back().map_or(0, |w| w.0);
        dirs[side].push_back(((self.now + self.latency).max(floor), bytes.to_vec()));
        Ok(())
    }

    fn recv(&mut self, pipe: usize, side: usize) -> Result<Vec<u8>, ErrorKind> {
        let (dirs, open) = &mut self.pipes[pipe];
        let d = &mut dirs[1 - side];
        let mut got = Vec::new();
        while d.front().is_some_and(|w| w.0 <= self.now) {
            got.extend(d.pop_front().expect("checked").1);
        }
        // EOF only once every byte written before the close is read.
        if got.is_empty() && d.is_empty() && !open[1 - side] {
            return Err(ErrorKind::UnexpectedEof);
        }
        Ok(got)
    }
}

/// The transport under test, its model, and the handles both share.
struct Rig {
    net: LoopNet,
    model: Model,
    listeners: Vec<(&'static str, LoopListener)>,
    /// Open conns with the `(pipe, side)` the model knows them by.
    conns: Vec<(LoopConn, usize, usize)>,
}

impl Rig {
    fn new(latency: u64) -> Self {
        Rig {
            net: LoopNet::new(latency),
            model: Model {
                now: 0,
                latency,
                pipes: Vec::new(),
                listeners: BTreeMap::new(),
            },
            listeners: Vec::new(),
            conns: Vec::new(),
        }
    }

    fn step(&mut self, rng: &mut StdRng) {
        let mut t = self.net.transport();
        match rng.gen_range(0..20) {
            0 => {
                let addr = ADDRS[rng.gen_range(0..ADDRS.len())];
                match t.listen(addr) {
                    Ok(l) => {
                        assert!(self.model.listeners.insert(addr, VecDeque::new()).is_none());
                        self.listeners.push((addr, l));
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), ErrorKind::AddrInUse);
                        assert!(self.model.listeners.contains_key(addr));
                    }
                }
            }
            1 if !self.listeners.is_empty() => {
                let i = rng.gen_range(0..self.listeners.len());
                let (addr, _) = self.listeners.swap_remove(i);
                self.model.listeners.remove(addr);
            }
            2..=4 if self.model.pipes.len() < MAX_PIPES => {
                let addr = ADDRS[rng.gen_range(0..ADDRS.len())];
                let got = t.connect(addr).map_err(|e| e.kind());
                match (got, self.model.connect(addr)) {
                    (Ok(conn), Ok(pipe)) => self.conns.push((conn, pipe, 0)),
                    (Err(got), Err(want)) => assert_eq!(got, want),
                    (got, want) => panic!("connect {addr}: {got:?} against {want:?}"),
                }
            }
            5..=6 if !self.listeners.is_empty() => {
                let i = rng.gen_range(0..self.listeners.len());
                let (addr, l) = &mut self.listeners[i];
                let got = l.poll_accept().expect("a bound listener accepts");
                let want = self.model.accept(addr);
                assert_eq!(got.is_some(), want.is_some(), "accept on {addr}");
                if let (Some(conn), Some(pipe)) = (got, want) {
                    self.conns.push((conn, pipe, 1));
                }
            }
            7..=10 if !self.conns.is_empty() => {
                let i = rng.gen_range(0..self.conns.len());
                let (conn, pipe, side) = &mut self.conns[i];
                let len = rng.gen_range(0..12);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
                let got = conn.send_bytes(&bytes).map_err(|e| e.kind());
                assert_eq!(got, self.model.send(*pipe, *side, &bytes), "send");
            }
            11..=14 if !self.conns.is_empty() => {
                let i = rng.gen_range(0..self.conns.len());
                let (conn, pipe, side) = &mut self.conns[i];
                // A read appends: what the buffer held stays in front.
                let mut buf = vec![0xee];
                let got = conn.recv_bytes(&mut buf).map_err(|e| e.kind());
                let want = self.model.recv(*pipe, *side);
                assert_eq!(got, want.as_ref().map(Vec::len).map_err(|e| *e), "recv");
                let mut expect = vec![0xee];
                expect.extend(want.unwrap_or_default());
                assert_eq!(buf, expect, "recv bytes");
            }
            15 => {
                let latency = rng.gen_range(0..300);
                self.net.set_latency(latency);
                self.model.latency = latency.max(1);
            }
            16..=18 => {
                let now = self.model.now;
                let to = match self.model.next_event() {
                    Some(t) if t > now && rng.gen_bool(0.5) => t,
                    _ => now + rng.gen_range(0..200u64),
                };
                self.net.advance_to(to);
                self.model.now = to;
            }
            19 if !self.conns.is_empty() => {
                let i = rng.gen_range(0..self.conns.len());
                let (_, pipe, side) = self.conns.swap_remove(i);
                self.model.pipes[pipe].1[side] = false;
            }
            _ => {}
        }
        assert_eq!(self.net.now(), self.model.now);
        assert_eq!(self.net.next_event(), self.model.next_event(), "next_event");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    #[test]
    fn stamps_match_a_scan_of_every_direction(
        latency in 1u64..300,
        steps in 50usize..400,
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rig = Rig::new(latency);
        for _ in 0..steps {
            rig.step(&mut rng);
        }
    }
}
