//! The per-site task: one poll-driven state machine serving peers and
//! clients over any [`Transport`].
//!
//! A [`Node`] owns one listener, one outbound link per peer site, the
//! protocol stack instance, and a per-resource client lock table. Its
//! entire behaviour is [`Node::poll`]: accept, read, decode, dispatch,
//! fire timers, expire deadlines, reconnect, flush — then report when it
//! next needs to run. In `qmxctl serve` a thread loops
//! `poll`/[`Transport::wait`]; in the deterministic tests the harness
//! calls `poll` by hand and advances the virtual clock between calls, so
//! both modes execute the same code with the same scheduling structure
//! (one logical task per site, woken by I/O readiness or timers).
//!
//! ## Client lock table
//!
//! Per resource the node keeps the granted holder and a FIFO queue of
//! waiting client requests. An entry exists only while its resource has a
//! holder, a waiter or an outstanding protocol request, so the per-poll
//! scans cover live resources, however many a site has served. Only the
//! queue head is represented in the protocol stack — the `Protocol`
//! interface models one outstanding request per (site, resource), which
//! is exactly Maekawa's and the paper's model — so the node promotes the
//! next waiter into a protocol request each time the previous one
//! resolves. A head waiter's deadline rides the protocol's
//! abortable-request machinery ([`Protocol::set_deadline_r`]); queued
//! waiters behind it are expired by the node itself, which is cheaper
//! than churning the quorum with requests that would be withdrawn
//! anyway.
//!
//! ## Failure handling
//!
//! Connection errors never propagate: a dead client session releases its
//! holdings and withdraws its waiters (so no grant is orphaned by a
//! vanished client), a dead peer link is scheduled for
//! reconnect-with-backoff, and frames destined to a down link are simply
//! dropped — the [`Reliable`](qmx_core::Reliable) layer inside the stack
//! retransmits anything that mattered once the link returns. Malformed
//! frames (bad length prefix, bad tag, trailing bytes) count in
//! [`NodeCounters::bad_frames`] and kill only the offending connection.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use qmx_core::wire::Wire;
use qmx_core::{Effects, Protocol, ResourceId, SiteId};

use crate::frame::{encode_frame, FrameBuf};
use crate::proto::{ClientMsg, Hello, RejectReason, ServerMsg};
use crate::transport::{Conn, Listener, Transport};

/// Static configuration of one site's node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This site.
    pub site: SiteId,
    /// Address to listen on.
    pub listen_addr: String,
    /// Peer sites and their addresses (self excluded).
    pub peers: Vec<(SiteId, String)>,
    /// Crash-recovery incarnation; `0` = first boot, `>0` = restart (the
    /// node announces a rejoin to its peers).
    pub incarnation: u64,
    /// First reconnect delay after a peer link drops, microseconds.
    pub reconnect_min_us: u64,
    /// Reconnect backoff cap, microseconds.
    pub reconnect_max_us: u64,
}

impl NodeConfig {
    /// Config with backoff defaults (10 ms doubling to 1 s).
    pub fn new(site: SiteId, listen_addr: String, peers: Vec<(SiteId, String)>) -> Self {
        NodeConfig {
            site,
            listen_addr,
            peers,
            incarnation: 0,
            reconnect_min_us: 10_000,
            reconnect_max_us: 1_000_000,
        }
    }
}

/// Observable event counts, asserted exactly by the deterministic tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounters {
    /// Frames decoded from peers and clients.
    pub frames_in: u64,
    /// Frames written toward peers and clients.
    pub frames_out: u64,
    /// Malformed frames (framing or wire decode failure).
    pub bad_frames: u64,
    /// Inbound connections accepted.
    pub sessions_opened: u64,
    /// Inbound connections torn down (error, EOF, or misbehaviour).
    pub sessions_closed: u64,
    /// Successful outbound peer connects (first connect included).
    pub peer_connects: u64,
    /// Failed outbound peer connect attempts.
    pub peer_conn_failures: u64,
    /// Locks granted to clients.
    pub grants: u64,
    /// Locks released by explicit client request.
    pub releases: u64,
    /// Pending acquires withdrawn by explicit client abort.
    pub client_aborts: u64,
    /// Pending acquires withdrawn by deadline expiry.
    pub deadline_aborts: u64,
    /// Locks force-released because the holding client vanished.
    pub disconnect_releases: u64,
    /// Session-level protocol misuses answered with `Rejected`.
    pub rejects: u64,
}

enum SessKind {
    AwaitHello,
    Peer(SiteId),
    Client { id: u64 },
}

struct Session<C> {
    conn: C,
    fb: FrameBuf,
    kind: SessKind,
    dead: bool,
}

struct PeerLink<C> {
    site: SiteId,
    addr: String,
    conn: Option<C>,
    retry_at: u64,
    backoff: u64,
}

struct Waiter {
    sess: usize,
    req: u64,
    deadline: Option<u64>,
    /// The client vanished (or aborted too late); if the grant still
    /// arrives, release it immediately instead of orphaning it.
    abandoned: bool,
}

#[derive(Default)]
struct RidState {
    holder: Option<(usize, u64)>,
    queue: VecDeque<Waiter>,
    /// A protocol request for the queue head is outstanding.
    requested: bool,
}

/// One site's runtime task. See the module docs for the model.
pub struct Node<T: Transport, P: Protocol> {
    cfg: NodeConfig,
    transport: T,
    listener: T::Listener,
    proto: P,
    fx: Effects<P::Msg>,
    /// Sends and CS entries drained from `fx`, reused across dispatches.
    sends: Vec<(SiteId, P::Msg)>,
    entered: Vec<ResourceId>,
    sessions: Vec<Option<Session<T::Conn>>>,
    links: Vec<PeerLink<T::Conn>>,
    locks: BTreeMap<ResourceId, RidState>,
    counters: NodeCounters,
    scratch: Vec<u8>,
}

impl<T: Transport, P: Protocol> Node<T, P>
where
    P::Msg: Wire,
{
    /// Binds the listener and starts the protocol stack (announcing a
    /// rejoin to peers when `cfg.incarnation > 0`).
    pub fn new(mut transport: T, mut proto: P, cfg: NodeConfig) -> std::io::Result<Self> {
        let listener = transport.listen(&cfg.listen_addr)?;
        let now = transport.now_us();
        proto.set_now(now);
        proto.set_incarnation(cfg.incarnation);
        let links = cfg
            .peers
            .iter()
            .map(|(site, addr)| PeerLink {
                site: *site,
                addr: addr.clone(),
                conn: None,
                retry_at: now,
                backoff: cfg.reconnect_min_us,
            })
            .collect();
        let mut node = Node {
            cfg,
            transport,
            listener,
            proto,
            fx: Effects::new(),
            sends: Vec::new(),
            entered: Vec::new(),
            sessions: Vec::new(),
            links,
            locks: BTreeMap::new(),
            counters: NodeCounters::default(),
            scratch: Vec::new(),
        };
        node.proto.on_start(&mut node.fx);
        if node.cfg.incarnation > 0 {
            node.proto.on_recover(&mut node.fx);
        }
        node.dispatch_effects();
        Ok(node)
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    /// Event counters.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }

    /// The protocol stack, for counter introspection in tests.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// `(resource, request token)` for every lock currently granted to a
    /// connected client.
    pub fn held(&self) -> Vec<(ResourceId, u64)> {
        let mut out = Vec::new();
        for (rid, st) in &self.locks {
            if let Some((sess, req)) = st.holder {
                if matches!(self.sessions.get(sess), Some(Some(_))) {
                    out.push((*rid, req));
                }
            }
        }
        out
    }

    /// Handshake ids of the currently connected client sessions, in
    /// accept order.
    pub fn client_ids(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .flatten()
            .filter_map(|s| match s.kind {
                SessKind::Client { id } => Some(id),
                _ => None,
            })
            .collect()
    }

    /// True when no client holds or waits for any lock and the protocol
    /// stack neither holds nor wants any resource — the node could vanish
    /// without orphaning a grant.
    pub fn quiescent(&self) -> bool {
        self.locks
            .values()
            .all(|st| st.holder.is_none() && st.queue.is_empty() && !st.requested)
            && !self.proto.in_cs()
            && !self.proto.wants_cs()
    }

    /// Runs one scheduling round: accept, read, dispatch, timers,
    /// deadlines, reconnect, flush. Returns the next moment (transport
    /// clock, microseconds) this node needs to run, if any.
    pub fn poll(&mut self) -> Option<u64> {
        let now = self.transport.now_us();
        self.proto.set_now(now);
        self.accept();
        self.connect_links(now);
        self.read_sessions();
        self.fire_timers(now);
        self.expire_queued_waiters(now);
        self.flush_all(now);
        self.sweep_dead();
        debug_assert!(
            self.locks
                .values()
                .all(|st| st.holder.is_some() || !st.queue.is_empty() || st.requested),
            "an idle resource was left in the lock table"
        );
        self.next_wake(now)
    }

    /// Serve loop for real transports: poll, then wait for the next timer
    /// or I/O slice, until `stop` is raised.
    pub fn run(&mut self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let wake = self.poll();
            if stop.load(Ordering::Relaxed) {
                break;
            }
            self.transport.wait(wake);
        }
    }

    /// Serve loop bounded by transport time: polls and waits until
    /// `dur_us` microseconds have elapsed on the transport clock. Used by
    /// `qmxctl serve --for-ms` and scripted smoke runs.
    pub fn run_for(&mut self, dur_us: u64) {
        let end = self.transport.now_us().saturating_add(dur_us);
        loop {
            let wake = self.poll();
            let now = self.transport.now_us();
            if now >= end {
                return;
            }
            let until = wake.map_or(end, |w| w.min(end));
            self.transport.wait(Some(until));
        }
    }

    // ------------------------------------------------------------------
    // Accept + reconnect
    // ------------------------------------------------------------------

    fn accept(&mut self) {
        while let Ok(Some(conn)) = self.listener.poll_accept() {
            self.counters.sessions_opened += 1;
            self.sessions.push(Some(Session {
                conn,
                fb: FrameBuf::new(),
                kind: SessKind::AwaitHello,
                dead: false,
            }));
        }
    }

    fn connect_links(&mut self, now: u64) {
        for li in 0..self.links.len() {
            if self.links[li].conn.is_some() || self.links[li].retry_at > now {
                continue;
            }
            let addr = self.links[li].addr.clone();
            match self.transport.connect(&addr) {
                Ok(mut conn) => {
                    let hello = Hello::Peer {
                        site: self.cfg.site,
                        incarnation: self.cfg.incarnation,
                    };
                    self.scratch.clear();
                    encode_frame(&mut self.scratch, &hello);
                    if conn.send_bytes(&self.scratch).is_ok() {
                        self.counters.peer_connects += 1;
                        self.counters.frames_out += 1;
                        let link = &mut self.links[li];
                        link.conn = Some(conn);
                        link.backoff = self.cfg.reconnect_min_us;
                    } else {
                        self.link_down(li, now);
                    }
                }
                Err(_) => {
                    self.counters.peer_conn_failures += 1;
                    self.link_down(li, now);
                }
            }
        }
    }

    fn link_down(&mut self, li: usize, now: u64) {
        let link = &mut self.links[li];
        link.conn = None;
        link.retry_at = now + link.backoff;
        link.backoff = (link.backoff * 2).min(self.cfg.reconnect_max_us);
    }

    // ------------------------------------------------------------------
    // Reading and dispatch
    // ------------------------------------------------------------------

    fn read_sessions(&mut self) {
        for idx in 0..self.sessions.len() {
            let Some(s) = self.sessions[idx].as_mut().filter(|s| !s.dead) else {
                continue;
            };
            // Pull bytes. Nothing new means no new frame: every earlier
            // read drained its complete frames.
            let recv_err = match s.conn.recv_bytes(s.fb.buf_mut()) {
                Ok(0) => continue,
                Ok(_) => false,
                Err(_) => true,
            };
            // Drain complete frames (including any buffered before an
            // EOF). They borrow the session's buffer, which is lent out
            // while they are handled.
            let mut fb = std::mem::take(&mut s.fb);
            loop {
                match fb.next_frame_ref() {
                    Ok(Some(f)) => {
                        if !self.handle_frame(idx, f) {
                            self.counters.bad_frames += 1;
                            self.kill_session(idx);
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        self.counters.bad_frames += 1;
                        self.kill_session(idx);
                        break;
                    }
                }
            }
            self.sessions[idx]
                .as_mut()
                .expect("only sweep_dead frees a session slot")
                .fb = fb;
            if recv_err {
                self.kill_session(idx);
            }
        }
    }

    /// Dispatches one decoded frame; `false` means the session misbehaved
    /// and must be dropped.
    fn handle_frame(&mut self, idx: usize, frame: &[u8]) -> bool {
        let kind = match &self.sessions[idx] {
            Some(s) if !s.dead => match s.kind {
                SessKind::AwaitHello => 0,
                SessKind::Peer(_) => 1,
                SessKind::Client { .. } => 2,
            },
            _ => return true,
        };
        self.counters.frames_in += 1;
        match kind {
            0 => match Hello::from_bytes(frame) {
                Ok(Hello::Peer { site, .. }) => {
                    if site == self.cfg.site || !self.links.iter().any(|l| l.site == site) {
                        return false;
                    }
                    self.sessions[idx].as_mut().unwrap().kind = SessKind::Peer(site);
                    true
                }
                Ok(Hello::Client { id }) => {
                    self.sessions[idx].as_mut().unwrap().kind = SessKind::Client { id };
                    self.send_client(
                        idx,
                        ServerMsg::Welcome {
                            site: self.cfg.site,
                        },
                    );
                    true
                }
                Err(_) => false,
            },
            1 => {
                let from = match self.sessions[idx].as_ref().unwrap().kind {
                    SessKind::Peer(s) => s,
                    _ => unreachable!(),
                };
                match P::Msg::from_bytes(frame) {
                    Ok(msg) => {
                        self.proto.handle(from, msg, &mut self.fx);
                        self.dispatch_effects();
                        true
                    }
                    Err(_) => false,
                }
            }
            _ => match ClientMsg::from_bytes(frame) {
                Ok(msg) => {
                    self.handle_client_msg(idx, msg);
                    true
                }
                Err(_) => false,
            },
        }
    }

    fn handle_client_msg(&mut self, idx: usize, msg: ClientMsg) {
        let (rid, req) = msg.key();
        match msg {
            ClientMsg::Acquire { wait_us, .. } => {
                let busy = self.locks.get(&rid).is_some_and(|st| {
                    st.holder.is_some_and(|(s, _)| s == idx)
                        || st.queue.iter().any(|w| w.sess == idx && !w.abandoned)
                });
                if busy {
                    self.counters.rejects += 1;
                    self.send_client(
                        idx,
                        ServerMsg::Rejected {
                            rid,
                            req,
                            reason: RejectReason::Busy,
                        },
                    );
                    return;
                }
                // The wire carries a relative wait budget (client and site
                // clocks have different origins); pin it to this clock now.
                let now = self.transport.now_us();
                self.locks.entry(rid).or_default().queue.push_back(Waiter {
                    sess: idx,
                    req,
                    deadline: wait_us.map(|w| now.saturating_add(w)),
                    abandoned: false,
                });
                self.pump_rid(rid);
            }
            ClientMsg::Release { .. } => {
                let holds = self
                    .locks
                    .get(&rid)
                    .and_then(|st| st.holder)
                    .is_some_and(|(s, r)| s == idx && r == req);
                if !holds {
                    self.counters.rejects += 1;
                    self.send_client(
                        idx,
                        ServerMsg::Rejected {
                            rid,
                            req,
                            reason: RejectReason::NotHeld,
                        },
                    );
                    return;
                }
                self.locks.get_mut(&rid).unwrap().holder = None;
                self.proto.release_cs_r(rid, &mut self.fx);
                self.counters.releases += 1;
                self.dispatch_effects();
                self.send_client(idx, ServerMsg::Released { rid, req });
                self.pump_rid(rid);
            }
            ClientMsg::Abort { .. } => {
                enum Outcome {
                    HeadLive,
                    Queued(usize),
                    Holder,
                    Missing,
                }
                let outcome = match self.locks.get(&rid) {
                    Some(st) if st.holder.is_some_and(|(s, r)| s == idx && r == req) => {
                        Outcome::Holder
                    }
                    Some(st) => {
                        match st
                            .queue
                            .iter()
                            .position(|w| w.sess == idx && w.req == req && !w.abandoned)
                        {
                            Some(0) if st.requested => Outcome::HeadLive,
                            Some(p) => Outcome::Queued(p),
                            None => Outcome::Missing,
                        }
                    }
                    None => Outcome::Missing,
                };
                match outcome {
                    Outcome::HeadLive => {
                        if self.abort_head(rid) {
                            self.counters.client_aborts += 1;
                            self.send_client(idx, ServerMsg::Aborted { rid, req });
                            self.pump_rid(rid);
                        } else {
                            // The grant beat the abort: tell the client its
                            // abort came too late.
                            self.counters.rejects += 1;
                            self.send_client(
                                idx,
                                ServerMsg::Rejected {
                                    rid,
                                    req,
                                    reason: RejectReason::AlreadyGranted,
                                },
                            );
                        }
                    }
                    Outcome::Queued(p) => {
                        self.locks.get_mut(&rid).unwrap().queue.remove(p);
                        self.counters.client_aborts += 1;
                        self.send_client(idx, ServerMsg::Aborted { rid, req });
                    }
                    Outcome::Holder => {
                        self.counters.rejects += 1;
                        self.send_client(
                            idx,
                            ServerMsg::Rejected {
                                rid,
                                req,
                                reason: RejectReason::AlreadyGranted,
                            },
                        );
                    }
                    Outcome::Missing => {
                        self.counters.rejects += 1;
                        self.send_client(
                            idx,
                            ServerMsg::Rejected {
                                rid,
                                req,
                                reason: RejectReason::NotHeld,
                            },
                        );
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Lock table engine
    // ------------------------------------------------------------------

    /// Promotes the next live waiter on `rid` into a protocol request, if
    /// none is outstanding, and drops the entry if that leaves it idle.
    /// Every change that can leave a resource idle ends here; removing a
    /// waiter behind the head cannot, as the head or holder remains.
    fn pump_rid(&mut self, rid: ResourceId) {
        let Some(st) = self.locks.get_mut(&rid) else {
            return;
        };
        if st.requested || st.holder.is_some() {
            return;
        }
        // Abandoned waiters ahead of a request are just dropped — their
        // client is gone and nothing was asked of the quorum.
        while st.queue.front().is_some_and(|w| w.abandoned) {
            st.queue.pop_front();
        }
        let Some(deadline) = st.queue.front().map(|w| w.deadline) else {
            self.locks.remove(&rid);
            return;
        };
        st.requested = true;
        self.proto.set_deadline_r(rid, deadline);
        self.proto.request_cs_r(rid, &mut self.fx);
        self.dispatch_effects();
    }

    /// Withdraws the outstanding protocol request of `rid`'s head
    /// waiter, whose client aborted it or went away, and runs the
    /// effects. Returns whether the stack took the abort; the head is
    /// then popped here. Otherwise the grant beat the abort — its
    /// entered effect is about to surface or the protocol is
    /// mid-handoff — and the head is marked so the grant is released on
    /// arrival instead of orphaned.
    fn abort_head(&mut self, rid: ResourceId) -> bool {
        let aborted = self.proto.abort_cs_r(rid, &mut self.fx);
        let st = self
            .locks
            .get_mut(&rid)
            .expect("a head with a live request has a lock entry");
        if aborted {
            st.queue.pop_front();
            st.requested = false;
        } else {
            st.queue[0].abandoned = true;
        }
        // The stack reports a taken abort among its deadline aborts; it is
        // settled already, and must not pop the next waiter.
        self.dispatch_effects_except(aborted.then_some(rid));
        aborted
    }

    /// Runs protocol effects to completion: route sends to peer links,
    /// turn entered-CS events into client grants, and surface
    /// deadline-aborted requests.
    fn dispatch_effects(&mut self) {
        self.dispatch_effects_except(None);
    }

    /// [`Self::dispatch_effects`], except that the first drain of
    /// aborted resources skips `settled`, an abort the node made and
    /// handled itself.
    fn dispatch_effects_except(&mut self, mut settled: Option<ResourceId>) {
        // The node's buffers keep their capacity from one call to the
        // next. A grant handled below can dispatch again, and that nested
        // call finds them lent out and uses fresh ones.
        let mut sends = std::mem::take(&mut self.sends);
        let mut entered = std::mem::take(&mut self.entered);
        loop {
            sends.extend(self.fx.drain_sends());
            entered.extend(self.fx.drain_entered());
            let mut aborted = self.proto.drain_aborted_resources();
            if let Some(rid) = settled.take() {
                aborted.retain(|&r| r != rid);
            }
            if sends.is_empty() && entered.is_empty() && aborted.is_empty() {
                break;
            }
            for (to, msg) in sends.drain(..) {
                self.send_peer(to, &msg);
            }
            for rid in entered.drain(..) {
                self.on_entered(rid);
            }
            for rid in aborted {
                self.on_deadline_abort(rid);
            }
        }
        self.sends = sends;
        self.entered = entered;
    }

    fn on_entered(&mut self, rid: ResourceId) {
        enum Grant {
            To(usize, u64),
            Abandon,
        }
        let grant = {
            let st = self.locks.entry(rid).or_default();
            st.requested = false;
            match st.queue.pop_front() {
                Some(w) if !w.abandoned => {
                    st.holder = Some((w.sess, w.req));
                    Grant::To(w.sess, w.req)
                }
                _ => Grant::Abandon,
            }
        };
        match grant {
            Grant::To(sess, req) => {
                self.counters.grants += 1;
                self.send_client(sess, ServerMsg::Granted { rid, req });
            }
            Grant::Abandon => {
                // The waiter this grant was for is gone — hand it straight
                // back rather than sitting on an orphaned lock.
                self.counters.disconnect_releases += 1;
                self.proto.release_cs_r(rid, &mut self.fx);
                self.pump_rid(rid);
            }
        }
        self.pump_rid(rid);
    }

    fn on_deadline_abort(&mut self, rid: ResourceId) {
        let head = {
            let st = self.locks.entry(rid).or_default();
            st.requested = false;
            st.queue.pop_front()
        };
        if let Some(w) = head {
            if !w.abandoned {
                self.counters.deadline_aborts += 1;
                self.send_client(w.sess, ServerMsg::Aborted { rid, req: w.req });
            }
        }
        self.pump_rid(rid);
    }

    /// Expires queued (non-head) waiters whose deadline passed; the head's
    /// deadline is enforced inside the protocol stack.
    fn expire_queued_waiters(&mut self, now: u64) {
        let mut expired: Vec<(usize, ResourceId, u64)> = Vec::new();
        for (rid, st) in self.locks.iter_mut() {
            let skip_head = if st.requested { 1 } else { 0 };
            let mut i = 0usize;
            st.queue.retain(|w| {
                let is_head = i < skip_head;
                i += 1;
                let dead = !is_head && !w.abandoned && w.deadline.is_some_and(|d| d <= now);
                if dead {
                    expired.push((w.sess, *rid, w.req));
                }
                !dead
            });
        }
        for (sess, rid, req) in expired {
            self.counters.deadline_aborts += 1;
            self.send_client(sess, ServerMsg::Aborted { rid, req });
        }
    }

    fn fire_timers(&mut self, now: u64) {
        // Bounded: a protocol that reschedules a due timer forever would
        // otherwise wedge the task.
        for _ in 0..1024 {
            match self.proto.next_timer() {
                Some(due) if due <= now => {
                    self.proto.on_timer(now, &mut self.fx);
                    self.dispatch_effects();
                }
                _ => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Writing
    // ------------------------------------------------------------------

    fn send_client(&mut self, idx: usize, msg: ServerMsg) {
        let Some(Some(s)) = self.sessions.get_mut(idx) else {
            return;
        };
        if s.dead {
            return;
        }
        self.scratch.clear();
        encode_frame(&mut self.scratch, &msg);
        if s.conn.send_bytes(&self.scratch).is_err() {
            s.dead = true;
        } else {
            self.counters.frames_out += 1;
        }
    }

    fn send_peer(&mut self, to: SiteId, msg: &P::Msg) {
        if to == self.cfg.site {
            return;
        }
        let Some(li) = self.links.iter().position(|l| l.site == to) else {
            return;
        };
        if self.links[li].conn.is_none() {
            return; // link down; Reliable will retransmit
        }
        self.scratch.clear();
        encode_frame(&mut self.scratch, msg);
        let ok = self.links[li]
            .conn
            .as_mut()
            .unwrap()
            .send_bytes(&self.scratch)
            .is_ok();
        if ok {
            self.counters.frames_out += 1;
        } else {
            let now = self.transport.now_us();
            self.link_down(li, now);
        }
    }

    fn flush_all(&mut self, now: u64) {
        for li in 0..self.links.len() {
            let broke = match self.links[li].conn.as_mut() {
                Some(c) => c.flush().is_err(),
                None => false,
            };
            if broke {
                self.link_down(li, now);
            }
        }
        for idx in 0..self.sessions.len() {
            if let Some(s) = self.sessions[idx].as_mut() {
                if !s.dead && s.conn.flush().is_err() {
                    s.dead = true;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Session teardown
    // ------------------------------------------------------------------

    fn kill_session(&mut self, idx: usize) {
        if let Some(Some(s)) = self.sessions.get_mut(idx) {
            s.dead = true;
        }
    }

    fn sweep_dead(&mut self) {
        for idx in 0..self.sessions.len() {
            let dead = self.sessions[idx].as_ref().is_some_and(|s| s.dead);
            if dead {
                self.teardown_session(idx);
            }
        }
    }

    /// Releases everything a vanished session owned, then frees its slot.
    fn teardown_session(&mut self, idx: usize) {
        let was_client = matches!(
            self.sessions[idx].as_ref().map(|s| &s.kind),
            Some(SessKind::Client { .. })
        );
        self.sessions[idx] = None;
        self.counters.sessions_closed += 1;
        if !was_client {
            return;
        }
        let rids: Vec<ResourceId> = self.locks.keys().copied().collect();
        for rid in rids {
            let (held, head_live) = {
                // Settling an earlier resource may have retired this one.
                let Some(st) = self.locks.get_mut(&rid) else {
                    continue;
                };
                let held = st.holder.is_some_and(|(s, _)| s == idx);
                if held {
                    st.holder = None;
                }
                // Queued waiters from this session: drop outright if not
                // represented in the protocol, mark abandoned if head.
                let mut head_live = false;
                if st.requested
                    && st
                        .queue
                        .front()
                        .is_some_and(|w| w.sess == idx && !w.abandoned)
                {
                    head_live = true;
                }
                let requested = st.requested;
                let mut i = 0usize;
                st.queue.retain(|w| {
                    let is_head = i == 0 && requested;
                    i += 1;
                    w.sess != idx || is_head
                });
                (held, head_live)
            };
            if held {
                self.counters.disconnect_releases += 1;
                self.proto.release_cs_r(rid, &mut self.fx);
                self.dispatch_effects();
            }
            if head_live {
                self.abort_head(rid);
            }
            self.pump_rid(rid);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn next_wake(&self, now: u64) -> Option<u64> {
        let mut wake: Option<u64> = self.proto.next_timer();
        let mut see = |t: u64| {
            wake = Some(match wake {
                Some(w) if w <= t => w,
                _ => t,
            });
        };
        for l in &self.links {
            if l.conn.is_none() {
                see(l.retry_at);
            }
        }
        for st in self.locks.values() {
            let skip_head = if st.requested { 1 } else { 0 };
            for w in st.queue.iter().skip(skip_head) {
                if let Some(d) = w.deadline {
                    if !w.abandoned {
                        see(d);
                    }
                }
            }
        }
        wake.map(|w| w.max(now))
    }
}
