//! Timing shims for the traced run.
//!
//! Nothing here reaches inside the system: every span is recorded by a
//! wrapper the benchmark puts around a public seam.
//!
//! * [`Shim`] is a [`Protocol`] wrapper placed between two layers of the
//!   stack (`Detector` / `Reliable` / `LockSpace` / `DelayOptimal`). It
//!   forwards every trait method, including the defaulted ones, counts
//!   every call, and times each call that can emit effects as a span of
//!   its layer.
//! * [`Traced`] is a [`Transport`] wrapper whose connections time every
//!   `send_bytes` / `recv_bytes` / `flush`, count calls and bytes, log when
//!   each byte offset left one end and reached the other (for the one-way
//!   hop time), and keep a bounded copy of the sent bytes for the frame
//!   and wire replays.
//! * [`span`] times the benchmark's own calls into `Node::poll`,
//!   `ClientCore::poll` and the simulator.
//!
//! Spans nest on a per-thread stack, so a layer's self time is its span
//! minus the spans of the calls it made into the next layer. Timing is off
//! unless [`set_timing`] turned it on for the thread; counting is always
//! on, because the simulator workload reads its issued-request count from
//! the outermost shim in both modes.

use std::cell::{Cell, RefCell};
use std::io;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qmx_core::{
    AbortCounters, DetectorCounters, Effects, MsgKind, MsgMeta, Protocol, ResourceId, SiteId,
    TransportCounters,
};
use qmx_runtime::transport::{Conn, Listener, Transport};

/// A layer a span or count is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The application boundary of the simulator (outermost shim).
    App,
    /// `ClientCore::poll`.
    Client,
    /// `Conn` I/O calls.
    Transport,
    /// `Transport::wait`.
    Wait,
    /// `Node::poll`.
    Node,
    /// `Detector`.
    Detector,
    /// `Reliable`.
    Reliable,
    /// `LockSpace`.
    LockSpace,
    /// `DelayOptimal`.
    DelayOptimal,
}

const LAYERS: usize = 9;

/// Work charged to one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStats {
    /// Calls into the layer (queries included).
    pub calls: u64,
    /// Calls that can change state and emit effects.
    pub steps: u64,
    /// Wall time inside the layer's spans, children included.
    pub total_ns: u64,
    /// `total_ns` minus the spans of the calls it made into other layers.
    pub self_ns: u64,
    /// Messages the layer emitted.
    pub sends: u64,
    /// Emitted messages of kind `transfer`.
    pub transfers: u64,
}

impl LayerStats {
    fn merge(&mut self, o: &LayerStats) {
        self.calls += o.calls;
        self.steps += o.steps;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
        self.sends += o.sends;
        self.transfers += o.transfers;
    }
}

/// Everything one thread counted.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    layers: [LayerStats; LAYERS],
    /// `Conn::send_bytes` calls.
    pub send_calls: u64,
    /// `Conn::recv_bytes` calls.
    pub recv_calls: u64,
    /// `Conn::recv_bytes` calls that returned no bytes.
    pub recv_empty: u64,
    /// Bytes handed to `Conn::send_bytes`.
    pub bytes_out: u64,
    /// `request_cs` calls seen by the outermost shim, per site.
    pub requests_by_site: Vec<u64>,
    /// Value of the outermost shim's step count at its last `release_cs`.
    pub steps_at_last_release: u64,
}

impl Tally {
    /// The stats of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerStats {
        &self.layers[layer as usize]
    }

    /// Adds another thread's tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        for (a, b) in self.layers.iter_mut().zip(o.layers.iter()) {
            a.merge(b);
        }
        self.send_calls += o.send_calls;
        self.recv_calls += o.recv_calls;
        self.recv_empty += o.recv_empty;
        self.bytes_out += o.bytes_out;
        if self.requests_by_site.len() < o.requests_by_site.len() {
            self.requests_by_site.resize(o.requests_by_site.len(), 0);
        }
        for (a, b) in self.requests_by_site.iter_mut().zip(&o.requests_by_site) {
            *a += b;
        }
        self.steps_at_last_release = self.steps_at_last_release.max(o.steps_at_last_release);
    }
}

struct Frame {
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static TIMING: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Turns span timing on or off for the calling thread. Call it only
/// outside any span.
pub fn set_timing(on: bool) {
    TIMING.with(|t| t.set(on));
}

/// Returns the calling thread's tally and resets it.
pub fn take() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

fn tally(f: impl FnOnce(&mut Tally)) {
    TALLY.with(|t| f(&mut t.borrow_mut()));
}

/// Runs `f` as a span of `layer` (a plain call when timing is off).
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !TIMING.with(Cell::get) {
        return f();
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let r = f();
    let end = Instant::now();
    let (dur, child) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.pop().expect("span stack underflow");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        if let Some(parent) = s.last_mut() {
            parent.child_ns += dur;
        }
        (dur, frame.child_ns)
    });
    tally(|t| {
        let l = &mut t.layers[layer as usize];
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(child);
    });
    r
}

/// A [`Protocol`] wrapper that charges every call to one layer.
#[derive(Clone)]
pub struct Shim<P> {
    layer: Layer,
    inner: P,
}

impl<P> Shim<P> {
    /// Wraps `inner`, charging its calls to `layer`.
    pub fn new(layer: Layer, inner: P) -> Self {
        Shim { layer, inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Shim<P> {
    /// A state-changing call: timed, counted as a step, and its emitted
    /// messages counted.
    fn step<R>(
        &mut self,
        fx: &mut Effects<P::Msg>,
        f: impl FnOnce(&mut P, &mut Effects<P::Msg>) -> R,
    ) -> R {
        let before = fx.sends().len();
        let inner = &mut self.inner;
        let r = span(self.layer, || f(inner, &mut *fx));
        let new = fx.sends().get(before..).unwrap_or(&[]);
        let transfers = new
            .iter()
            .filter(|(_, m)| m.kind() == MsgKind::Transfer)
            .count() as u64;
        let sent = new.len() as u64;
        tally(|t| {
            let l = &mut t.layers[self.layer as usize];
            l.calls += 1;
            l.steps += 1;
            l.sends += sent;
            l.transfers += transfers;
        });
        r
    }

    /// A call without effects (a setter or drain): counted, not timed.
    /// Such calls are a few loads and stores, and the lock space makes
    /// them per shard, so timing them would mostly measure the clock; their
    /// cost stays in the caller's self time.
    fn call<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        tally(|t| t.layers[self.layer as usize].calls += 1);
        f(&mut self.inner)
    }

    /// A read-only query: counted, not timed (see [`Shim::call`]).
    fn query<R>(&self, f: impl FnOnce(&P) -> R) -> R {
        tally(|t| t.layers[self.layer as usize].calls += 1);
        f(&self.inner)
    }

    fn note_request(&self) {
        if self.layer == Layer::App {
            let site = self.inner.site().index();
            tally(|t| {
                if t.requests_by_site.len() <= site {
                    t.requests_by_site.resize(site + 1, 0);
                }
                t.requests_by_site[site] += 1;
            });
        }
    }

    fn note_release(&self) {
        if self.layer == Layer::App {
            tally(|t| t.steps_at_last_release = t.layers[Layer::App as usize].steps);
        }
    }
}

impl<P: Protocol> Protocol for Shim<P> {
    type Msg = P::Msg;

    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_start(fx));
    }

    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.note_request();
        self.step(fx, |p, fx| p.request_cs(fx));
    }

    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.release_cs(fx));
        self.note_release();
    }

    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.handle(from, msg, fx));
    }

    fn in_cs(&self) -> bool {
        self.query(|p| p.in_cs())
    }

    fn wants_cs(&self) -> bool {
        self.query(|p| p.wants_cs())
    }

    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        self.step(fx, |p, fx| p.abort_cs(fx))
    }

    fn abortable(&self) -> bool {
        self.query(|p| p.abortable())
    }

    fn set_deadline(&mut self, deadline: Option<u64>) {
        self.call(|p| p.set_deadline(deadline));
    }

    fn abort_counters(&self) -> Option<AbortCounters> {
        self.query(|p| p.abort_counters())
    }

    fn request_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.note_request();
        self.step(fx, |p, fx| p.request_cs_r(rid, fx));
    }

    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.release_cs_r(rid, fx));
        self.note_release();
    }

    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        self.step(fx, |p, fx| p.abort_cs_r(rid, fx))
    }

    fn in_cs_r(&self, rid: ResourceId) -> bool {
        self.query(|p| p.in_cs_r(rid))
    }

    fn wants_cs_r(&self, rid: ResourceId) -> bool {
        self.query(|p| p.wants_cs_r(rid))
    }

    fn set_deadline_r(&mut self, rid: ResourceId, deadline: Option<u64>) {
        self.call(|p| p.set_deadline_r(rid, deadline));
    }

    fn drain_aborted_resources(&mut self) -> Vec<ResourceId> {
        self.call(|p| p.drain_aborted_resources())
    }

    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_site_failure(failed, fx));
    }

    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_site_suspected(site, fx));
    }

    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_site_restored(site, fx));
    }

    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_peer_rejoined(site, incarnation, fx));
    }

    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_recover(fx));
    }

    fn on_rejoin_complete(&mut self, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_rejoin_complete(fx));
    }

    fn rejoin_pending(&self) -> bool {
        self.query(|p| p.rejoin_pending())
    }

    fn set_incarnation(&mut self, incarnation: u64) {
        self.call(|p| p.set_incarnation(incarnation));
    }

    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        self.call(|p| p.set_peer_universe(peers));
    }

    fn set_now(&mut self, now: u64) {
        self.call(|p| p.set_now(now));
    }

    fn next_timer(&self) -> Option<u64> {
        self.query(|p| p.next_timer())
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        self.step(fx, |p, fx| p.on_timer(now, fx));
    }

    fn transport_counters(&self) -> Option<TransportCounters> {
        self.query(|p| p.transport_counters())
    }

    fn detector_counters(&self) -> Option<DetectorCounters> {
        self.query(|p| p.detector_counters())
    }
}

/// Most sent bytes kept per stream for the replays.
const CAPTURE_CAP: usize = 1 << 20;

/// What one end of one connection saw.
#[derive(Debug)]
pub struct StreamLog {
    /// This end dialed (`true`) or was accepted (`false`).
    pub dialer: bool,
    /// The listening address of the accepting end.
    pub listen_addr: String,
    /// Payload of the first frame on the stream (the `Hello`), once seen:
    /// from the sent bytes at the dialer, the received bytes at the
    /// acceptor.
    pub hello: Option<Vec<u8>>,
    recv_prefix: Vec<u8>,
    /// `(stream offset after the chunk, time send_bytes was called)`.
    pub sent: Vec<(u64, Instant)>,
    /// `(stream offset after the chunk, time recv_bytes returned it)`.
    pub recvd: Vec<(u64, Instant)>,
    out_off: u64,
    in_off: u64,
    /// The first sent bytes, whole chunks only, up to [`CAPTURE_CAP`].
    pub capture: Vec<u8>,
    /// Sizes of the chunks in `capture`, in send order.
    pub chunks: Vec<usize>,
}

/// Payload of the first complete frame in `bytes`, if any.
fn first_frame(bytes: &[u8]) -> Option<Vec<u8>> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    bytes.get(4..4 + len).map(<[u8]>::to_vec)
}

impl StreamLog {
    fn new(dialer: bool, listen_addr: String) -> Self {
        StreamLog {
            dialer,
            listen_addr,
            hello: None,
            recv_prefix: Vec::new(),
            sent: Vec::new(),
            recvd: Vec::new(),
            out_off: 0,
            in_off: 0,
            capture: Vec::new(),
            chunks: Vec::new(),
        }
    }

    fn on_send(&mut self, bytes: &[u8], at: Instant) {
        self.out_off += bytes.len() as u64;
        self.sent.push((self.out_off, at));
        if self.capture.len() + bytes.len() <= CAPTURE_CAP {
            self.capture.extend_from_slice(bytes);
            self.chunks.push(bytes.len());
        }
        if self.dialer && self.hello.is_none() {
            self.hello = first_frame(&self.capture);
        }
    }

    fn on_recv(&mut self, bytes: &[u8], at: Instant) {
        self.in_off += bytes.len() as u64;
        self.recvd.push((self.in_off, at));
        if !self.dialer && self.hello.is_none() && self.recv_prefix.len() < 64 {
            self.recv_prefix.extend_from_slice(bytes);
            self.hello = first_frame(&self.recv_prefix);
        }
    }
}

static STREAMS: Mutex<Vec<Arc<Mutex<StreamLog>>>> = Mutex::new(Vec::new());

fn register(log: StreamLog) -> Arc<Mutex<StreamLog>> {
    let log = Arc::new(Mutex::new(log));
    STREAMS
        .lock()
        .expect("stream registry poisoned")
        .push(Arc::clone(&log));
    log
}

/// Removes and returns every stream log recorded so far.
pub fn take_streams() -> Vec<Arc<Mutex<StreamLog>>> {
    std::mem::take(&mut *STREAMS.lock().expect("stream registry poisoned"))
}

/// One-way hop times, in microseconds: for every chunk one end sent, the
/// time until the `recv_bytes` call at the other end that returned its
/// last byte. Ends are paired by the acceptor's address and the stream's
/// `Hello`, which is what both of them can see.
pub fn hop_times_us(streams: &[Arc<Mutex<StreamLog>>]) -> Vec<f64> {
    let logs: Vec<_> = streams
        .iter()
        .map(|s| s.lock().expect("stream log poisoned"))
        .collect();
    let mut used = vec![false; logs.len()];
    let mut hops = Vec::new();
    for dial in &logs {
        if !dial.dialer || dial.hello.is_none() {
            continue;
        }
        let Some(a) = (0..logs.len()).find(|&a| {
            !used[a]
                && !logs[a].dialer
                && logs[a].listen_addr == dial.listen_addr
                && logs[a].hello == dial.hello
        }) else {
            continue;
        };
        used[a] = true;
        let acc = &logs[a];
        for (tx, rx) in [(&dial.sent, &acc.recvd), (&acc.sent, &dial.recvd)] {
            let mut j = 0;
            for &(off, t_sent) in tx {
                while j < rx.len() && rx[j].0 < off {
                    j += 1;
                }
                if let Some(&(_, t_recv)) = rx.get(j) {
                    hops.push(t_recv.saturating_duration_since(t_sent).as_nanos() as f64 / 1e3);
                }
            }
        }
    }
    hops
}

/// A [`Transport`] whose connections are traced. Clones share the inner
/// transport, so a serving loop can keep a handle to call `wait` on while
/// its node owns another.
pub struct Traced<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> Clone for Traced<T> {
    fn clone(&self) -> Self {
        Traced {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> Traced<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Traced {
            inner: Rc::new(RefCell::new(inner)),
        }
    }
}

/// A traced connection.
pub struct TracedConn<C> {
    inner: C,
    log: Arc<Mutex<StreamLog>>,
}

impl<C: Conn> Conn for TracedConn<C> {
    fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let at = Instant::now();
        let inner = &mut self.inner;
        let r = span(Layer::Transport, || inner.send_bytes(bytes));
        tally(|t| {
            t.send_calls += 1;
            t.bytes_out += bytes.len() as u64;
        });
        if r.is_ok() {
            self.log
                .lock()
                .expect("stream log poisoned")
                .on_send(bytes, at);
        }
        r
    }

    fn recv_bytes(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let before = buf.len();
        let inner = &mut self.inner;
        let r = span(Layer::Transport, || inner.recv_bytes(&mut *buf));
        let at = Instant::now();
        let got = buf.len() - before;
        tally(|t| {
            t.recv_calls += 1;
            if got == 0 {
                t.recv_empty += 1;
            }
        });
        if got > 0 {
            self.log
                .lock()
                .expect("stream log poisoned")
                .on_recv(&buf[before..], at);
        }
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        span(Layer::Transport, || inner.flush())
    }

    fn peer_label(&self) -> String {
        self.inner.peer_label()
    }
}

/// A traced accept socket.
pub struct TracedListener<L> {
    inner: L,
    addr: String,
}

impl<L: Listener> Listener for TracedListener<L> {
    type Conn = TracedConn<L::Conn>;

    fn poll_accept(&mut self) -> io::Result<Option<Self::Conn>> {
        let inner = &mut self.inner;
        let accepted = span(Layer::Transport, || inner.poll_accept())?;
        Ok(accepted.map(|conn| TracedConn {
            inner: conn,
            log: register(StreamLog::new(false, self.addr.clone())),
        }))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl<T: Transport> Transport for Traced<T> {
    type Conn = TracedConn<T::Conn>;
    type Listener = TracedListener<T::Listener>;

    fn listen(&mut self, addr: &str) -> io::Result<Self::Listener> {
        let inner = self.inner.borrow_mut().listen(addr)?;
        let addr = inner.local_addr();
        Ok(TracedListener { inner, addr })
    }

    fn connect(&mut self, addr: &str) -> io::Result<Self::Conn> {
        let conn = span(Layer::Transport, || self.inner.borrow_mut().connect(addr))?;
        Ok(TracedConn {
            inner: conn,
            log: register(StreamLog::new(true, addr.to_string())),
        })
    }

    fn now_us(&mut self) -> u64 {
        self.inner.borrow_mut().now_us()
    }

    fn wait(&mut self, until: Option<u64>) {
        span(Layer::Wait, || self.inner.borrow_mut().wait(until));
    }
}
