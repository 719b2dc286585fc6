//! Reliable delivery over lossy links: the transport layer.
//!
//! The paper assumes "error-free" FIFO channels (§2): every wire message
//! arrives, exactly once, in order. That is an abstraction a real network
//! does not provide — packets are dropped, duplicated and delayed. This
//! module closes the gap with a classic ack/retransmit/dedup protocol so
//! the mutual-exclusion state machines can keep assuming a perfect channel:
//!
//! * **Per-link sequence numbers.** Every data packet from `a` to `b`
//!   carries a sequence number from a counter dedicated to the `(a, b)`
//!   link.
//! * **Cumulative, piggybacked acks.** Every data packet (and explicit
//!   `Ack`) carries the highest sequence number received in order from the
//!   destination; one ack confirms everything at or below it. Acks ride on
//!   protocol traffic when there is any and fall back to explicit `Ack`
//!   packets otherwise.
//! * **Timeout-driven retransmission** with exponential backoff (doubling
//!   from [`TransportConfig::rto_initial`] up to [`TransportConfig::rto_max`])
//!   and a retry cap ([`TransportConfig::max_retries`]) so a send to a dead
//!   peer eventually quiesces instead of retrying forever.
//! * **Receiver-side dedup + reordering.** Packets at or below the
//!   cumulative receive point are duplicates: dropped (and re-acked, so the
//!   sender stops). Packets beyond the next expected number are buffered
//!   and delivered once the gap fills, restoring per-link FIFO.
//! * **Incarnation-fenced link epochs for crash–recovery.** Every packet
//!   and ack is stamped with the *epoch* of the half-link numbering it
//!   belongs to. Epochs are namespaced by the sender's boot *incarnation*
//!   (driver-supplied via [`Protocol::set_incarnation`]): a transport's
//!   epochs start at `incarnation << 32`, so a site restarted with a
//!   higher incarnation sends under epochs strictly above anything its
//!   pre-crash self could have used, and a survivor told the peer
//!   rejoined with incarnation `i` ([`Protocol::on_peer_rejoined`])
//!   expects exactly `i << 32` — the crashed incarnation's stragglers, of
//!   whatever sequence number, fail the epoch check instead of consuming
//!   the fresh numbering's sequence slots (which would silently swallow a
//!   live protocol message carrying the reused number). The survivor's
//!   own send half restarts under a bumped epoch, *rebasing* — not
//!   dropping — its unacked payloads into the new numbering: in-flight
//!   pre-crash data (a `Release` naming a forward beneficiary, say)
//!   still reaches the rejoined peer, in FIFO order ahead of anything
//!   sent after the announcement was processed, which the rejoin resync
//!   above relies on.
//!
//! The result is **exactly-once, per-link FIFO** delivery to the wrapped
//! protocol as long as the peer stays up and the link is *fair-lossy*
//! (retransmitting forever would eventually succeed; the retry cap bounds
//! "forever" at a probability of loss^`max_retries`, negligible for the
//! 1–20 % loss rates under study).
//!
//! [`Reliable`] wraps any [`Protocol`] implementation — the state machines
//! stay I/O-free and unchanged; drivers only additionally call the
//! [`Protocol::set_now`] / [`Protocol::next_timer`] / [`Protocol::on_timer`]
//! hooks (no-ops for bare protocols).
//!
//! Time units are the driver's: virtual ticks under `qmx-sim`, microseconds
//! under `qmx-runtime`. Pick [`TransportConfig`] values accordingly
//! (`rto_initial` of roughly 2–3× the typical one-way delay works well in
//! both). Request *deadlines* ([`Protocol::set_deadline`], `qmxctl run
//! --deadline`) ride the same timer hooks and share the same clock: a
//! deadline shorter than `rto_initial` aborts a request before the
//! transport has retried a lost packet even once, so keep deadlines at
//! several RTOs — or partitions and loss convert into spurious aborts the
//! retransmission machinery would have absorbed.
//!
//! ## Loss models
//!
//! [`LossModel`] + [`LinkFaults`] implement the *fault injection* side used
//! by both drivers: i.i.d. drop/duplication, bursty Gilbert–Elliott loss,
//! and per-link transient outage windows. The decision logic is pure — the
//! caller supplies uniform samples — so this crate stays RNG-free and both
//! drivers inject identically-distributed faults from their own seeded
//! generators.

use crate::protocol::{Effects, MsgKind, MsgMeta, Protocol, ResourceId, SiteId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Retransmission parameters of the reliable transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout (driver time units).
    pub rto_initial: u64,
    /// Ceiling for the exponentially backed-off timeout.
    pub rto_max: u64,
    /// Retransmissions per packet before the transport gives up on it
    /// (the peer is presumed dead; §6's failure machinery takes over).
    pub max_retries: u32,
}

impl Default for TransportConfig {
    /// Defaults tuned for the simulator's `T = 1000`-tick mean delay:
    /// first retry after 2.5 T, backing off to 32 T, 40 attempts.
    fn default() -> Self {
        TransportConfig {
            rto_initial: 2_500,
            rto_max: 32_000,
            max_retries: 40,
        }
    }
}

/// Delivery/duplication/drop counters maintained by [`Reliable`] (and
/// aggregated by the drivers into their run metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Data packets sent for the first time.
    pub data_sent: u64,
    /// Data packets retransmitted after a timeout.
    pub retransmissions: u64,
    /// Explicit ack packets sent (piggybacked acks are free).
    pub acks_sent: u64,
    /// Received data packets discarded as duplicates.
    pub duplicates_dropped: u64,
    /// Received data packets buffered because they arrived ahead of a gap.
    pub reordered: u64,
    /// Packets abandoned after `max_retries` (peer presumed dead).
    pub gave_up: u64,
    /// Received data packets dropped as stragglers from a previous link
    /// incarnation (their epoch predates the current one).
    pub stale_epoch_dropped: u64,
    /// High-water mark of unacked packets across all links (ack backlog).
    pub max_unacked: u64,
}

impl TransportCounters {
    /// Accumulates `other` into `self` (driver-side aggregation).
    pub fn merge(&mut self, other: &TransportCounters) {
        self.data_sent += other.data_sent;
        self.retransmissions += other.retransmissions;
        self.acks_sent += other.acks_sent;
        self.duplicates_dropped += other.duplicates_dropped;
        self.reordered += other.reordered;
        self.gave_up += other.gave_up;
        self.stale_epoch_dropped += other.stale_epoch_dropped;
        self.max_unacked = self.max_unacked.max(other.max_unacked);
    }
}

/// Wire format of the reliable transport: protocol payloads with transport
/// headers, plus explicit acks.
#[derive(Debug, Clone)]
pub enum Packet<M> {
    /// A protocol message with its link sequence number and a piggybacked
    /// cumulative ack for the reverse direction.
    Data {
        /// Link incarnation the sequence number belongs to (see
        /// [module docs](self): bumped when the send half resets after the
        /// peer rejoins, so stragglers from the old incarnation cannot
        /// consume the new incarnation's sequence slots).
        epoch: u64,
        /// Per-link sequence number (1-based; FIFO order on the link).
        seq: u64,
        /// Link incarnation the piggybacked ack refers to.
        ack_epoch: u64,
        /// Cumulative ack: every reverse-direction packet `<= ack` arrived.
        ack: u64,
        /// The wrapped protocol message, reference-counted so the copy in
        /// the sender's retransmit buffer and every wire copy (duplicates,
        /// retransmissions) share one payload instead of deep-cloning it.
        payload: Arc<M>,
    },
    /// A standalone cumulative ack (sent when there is no data to ride on).
    Ack {
        /// Link incarnation the ack refers to (stale-epoch acks are ignored).
        epoch: u64,
        /// Every packet `<= ack` on the sender→receiver reverse link arrived.
        ack: u64,
    },
}

impl<M: MsgMeta> MsgMeta for Packet<M> {
    fn kind(&self) -> MsgKind {
        match self {
            // The payload keeps its protocol-level identity so §5-style
            // per-kind accounting still works through the transport.
            Packet::Data { payload, .. } => payload.kind(),
            Packet::Ack { .. } => MsgKind::Info,
        }
    }
}

/// One unacked outgoing packet awaiting an ack or its next retransmission.
///
/// The payload is shared with the wire packet(s) via `Arc`: a
/// retransmission bumps a reference count instead of cloning the message.
#[derive(Debug, Clone)]
struct Pending<M> {
    payload: Arc<M>,
    retries: u32,
    next_retry_at: u64,
    rto: u64,
}

/// Per-peer link state: send window, receive point, reorder buffer.
#[derive(Debug, Clone)]
struct LinkState<M> {
    /// Epoch of the outgoing half-link (based at this site's incarnation,
    /// bumped each time the peer rejoins and the send window restarts at 1).
    send_epoch: u64,
    /// Last sequence number assigned on the outgoing half-link.
    sent: u64,
    /// Outgoing packets not yet cumulatively acked, by sequence number.
    unacked: BTreeMap<u64, Pending<M>>,
    /// Earliest `next_retry_at` in `unacked` (`None` when it is empty).
    /// A send lowers it; every path that drops or reschedules packets
    /// recomputes it for this link only.
    retry_at: Option<u64>,
    /// Epoch of the peer's send half currently being accepted.
    recv_epoch: u64,
    /// Highest sequence number received *in order* on the incoming half.
    recv_cum: u64,
    /// Received-ahead packets waiting for the gap to fill.
    reorder: BTreeMap<u64, Arc<M>>,
    /// Highest peer incarnation a rejoin announcement has been processed
    /// for (0 = none; announcements are deduplicated at the detector, this
    /// guards bare stacks and late duplicates).
    peer_inc: u64,
}

// No `Default`: links must start their send epoch at the owning
// transport's incarnation base, which a blanket default cannot know.
impl<M> LinkState<M> {
    fn fresh(epoch_base: u64) -> Self {
        LinkState {
            send_epoch: epoch_base,
            sent: 0,
            unacked: BTreeMap::new(),
            retry_at: None,
            recv_epoch: 0,
            recv_cum: 0,
            reorder: BTreeMap::new(),
            peer_inc: 0,
        }
    }

    /// Re-reads `retry_at` after packets left `unacked` or were
    /// rescheduled.
    fn refresh_retry(&mut self) {
        self.retry_at = self.unacked.values().map(|p| p.next_retry_at).min();
    }
}

/// Reliable-delivery wrapper: `Reliable<P>` is a [`Protocol`] whose wire
/// messages are [`Packet<P::Msg>`] and which presents exactly-once FIFO
/// delivery to the inner `P` (see the [module docs](self)).
#[derive(Clone)]
pub struct Reliable<P: Protocol> {
    inner: P,
    cfg: TransportConfig,
    now: u64,
    /// This site's boot incarnation; all send epochs live in
    /// `incarnation << 32 ..`. Set by the driver before `on_start` (see
    /// [`Protocol::set_incarnation`]); 0 for drivers that track none.
    incarnation: u64,
    links: BTreeMap<SiteId, LinkState<P::Msg>>,
    /// Earliest retransmit deadline over every link's `unacked`, so
    /// [`Protocol::next_timer`], which drivers call after every event,
    /// reads a field instead of walking the backlogs. A send lowers it;
    /// a path that drops or reschedules packets re-reads it from the
    /// links' cached deadlines (`refresh_retry`) when that can raise it.
    next_retry: Option<u64>,
    /// Packets awaiting acks over every link.
    unacked: u64,
    counters: TransportCounters,
}

impl<P: Protocol> Reliable<P> {
    /// Wraps `inner`, starting all links idle at time 0.
    pub fn new(inner: P, cfg: TransportConfig) -> Self {
        Reliable {
            inner,
            cfg,
            now: 0,
            incarnation: 0,
            links: BTreeMap::new(),
            next_retry: None,
            unacked: 0,
            counters: TransportCounters::default(),
        }
    }

    /// The wrapped protocol instance.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// This instance's transport counters.
    pub fn counters(&self) -> TransportCounters {
        self.counters
    }

    /// One pass over the links: the packets awaiting acks, and the
    /// earliest of the links' cached retransmit deadlines (checked
    /// against each link's backlog).
    fn backlog(&self) -> (u64, Option<u64>) {
        self.links.values().fold((0, None), |(total, due), l| {
            debug_assert_eq!(
                l.retry_at,
                l.unacked.values().map(|p| p.next_retry_at).min(),
                "cached link retransmit deadline out of date"
            );
            (total + l.unacked.len() as u64, earliest(due, l.retry_at))
        })
    }

    /// Re-reads the overall retransmit deadline from the links' cached
    /// deadlines, after packets left a backlog or were rescheduled.
    fn refresh_retry(&mut self) {
        self.next_retry = self
            .links
            .values()
            .fold(None, |due, l| earliest(due, l.retry_at));
    }

    /// Converts queued inner-protocol sends into sequenced data packets.
    fn wrap_sends(&mut self, inner_fx: &mut Effects<P::Msg>, fx: &mut Effects<Packet<P::Msg>>) {
        let (sends, entered) = inner_fx.drain();
        for rid in entered {
            fx.enter_cs_r(rid);
        }
        let base = self.incarnation << 32;
        for (to, payload) in sends {
            let payload = Arc::new(payload);
            let link = self
                .links
                .entry(to)
                .or_insert_with(|| LinkState::fresh(base));
            link.sent += 1;
            let seq = link.sent;
            let next_retry_at = self.now + self.cfg.rto_initial;
            link.unacked.insert(
                seq,
                Pending {
                    payload: Arc::clone(&payload),
                    retries: 0,
                    next_retry_at,
                    rto: self.cfg.rto_initial,
                },
            );
            link.retry_at = earliest(link.retry_at, Some(next_retry_at));
            self.next_retry = earliest(self.next_retry, Some(next_retry_at));
            self.unacked += 1;
            self.counters.max_unacked = self.counters.max_unacked.max(self.unacked);
            self.counters.data_sent += 1;
            fx.send(
                to,
                Packet::Data {
                    epoch: link.send_epoch,
                    seq,
                    ack_epoch: link.recv_epoch,
                    ack: link.recv_cum,
                    payload,
                },
            );
        }
    }

    /// Retransmits every packet whose retry deadline has passed, giving up
    /// on those out of retries, on the links whose cached deadline is
    /// due.
    fn retransmit_due(&mut self, fx: &mut Effects<Packet<P::Msg>>) {
        let now = self.now;
        let (rto_max, max_retries) = (self.cfg.rto_max, self.cfg.max_retries);
        let (counters, unacked) = (&mut self.counters, &mut self.unacked);
        for (&to, link) in self.links.iter_mut() {
            if link.retry_at.is_none_or(|due| due > now) {
                continue;
            }
            // One in-order pass retransmits, gives up, and re-derives
            // the link's deadline from the packets it keeps.
            let mut retry_at = None;
            link.unacked.retain(|&seq, p| {
                if p.next_retry_at <= now {
                    if p.retries >= max_retries {
                        counters.gave_up += 1;
                        *unacked -= 1;
                        return false;
                    }
                    p.retries += 1;
                    p.rto = (p.rto * 2).min(rto_max);
                    p.next_retry_at = now + p.rto;
                    counters.retransmissions += 1;
                    fx.send(
                        to,
                        Packet::Data {
                            epoch: link.send_epoch,
                            seq,
                            ack_epoch: link.recv_epoch,
                            ack: link.recv_cum,
                            payload: p.payload.clone(),
                        },
                    );
                }
                retry_at = earliest(retry_at, Some(p.next_retry_at));
                true
            });
            link.retry_at = retry_at;
        }
        self.refresh_retry();
    }

    /// Applies a cumulative ack from `from`, provided it refers to the
    /// current incarnation of the outgoing half-link (a straggler ack from
    /// before the peer's restart must not confirm new-incarnation packets).
    fn apply_ack(&mut self, from: SiteId, epoch: u64, ack: u64) {
        let Some(link) = self.links.get_mut(&from).filter(|l| l.send_epoch == epoch) else {
            return;
        };
        let before = link.unacked.len();
        link.unacked.retain(|&seq, _| seq > ack);
        let acked = before - link.unacked.len();
        if acked == 0 {
            return;
        }
        self.unacked -= acked as u64;
        let led = link.retry_at == self.next_retry;
        link.refresh_retry();
        // Only the link that held the overall deadline can raise it.
        if led {
            self.refresh_retry();
        }
    }
}

impl<P: Protocol> Protocol for Reliable<P> {
    type Msg = Packet<P::Msg>;

    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn set_now(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.on_start(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.request_cs(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.release_cs(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        match msg {
            Packet::Ack { epoch, ack } => self.apply_ack(from, epoch, ack),
            Packet::Data {
                epoch,
                seq,
                ack_epoch,
                ack,
                payload,
            } => {
                self.apply_ack(from, ack_epoch, ack);
                let base = self.incarnation << 32;
                let link = self
                    .links
                    .entry(from)
                    .or_insert_with(|| LinkState::fresh(base));
                if epoch < link.recv_epoch {
                    // Straggler from a previous incarnation of the peer's
                    // send half: its sequence numbers live in a dead
                    // numbering space — taking it would let it consume the
                    // new incarnation's slots. Drop silently (no re-ack:
                    // stale-epoch acks are ignored anyway). The piggybacked
                    // ack above still counts.
                    self.counters.stale_epoch_dropped += 1;
                    return;
                }
                if epoch > link.recv_epoch {
                    // The peer's send half restarted (it saw us rejoin, or
                    // an old straggler was briefly adopted as the current
                    // incarnation). Discard any buffered old-epoch packets
                    // and restart the receive window for the new numbering.
                    link.recv_epoch = epoch;
                    link.recv_cum = 0;
                    link.reorder.clear();
                }
                if seq <= link.recv_cum {
                    // Duplicate (retransmission of something already taken):
                    // drop it and re-ack so the sender stops resending.
                    self.counters.duplicates_dropped += 1;
                } else if link.reorder.insert(seq, payload).is_some() {
                    // Duplicate of a packet already buffered ahead.
                    self.counters.duplicates_dropped += 1;
                } else if seq > link.recv_cum + 1 {
                    self.counters.reordered += 1;
                }

                // Deliver the longest in-order prefix to the inner protocol.
                let mut inner_fx = Effects::new();
                loop {
                    let link = self
                        .links
                        .get_mut(&from)
                        .expect("link exists: created above");
                    let next = link.recv_cum + 1;
                    let Some(payload) = link.reorder.remove(&next) else {
                        break;
                    };
                    link.recv_cum = next;
                    // Take the payload out of the Arc without copying when
                    // this is the last reference (e.g. after a real network
                    // hop); clone only if the sender's retransmit buffer
                    // still shares it (in-process drivers).
                    let payload =
                        Arc::try_unwrap(payload).unwrap_or_else(|shared| (*shared).clone());
                    self.inner.handle(from, payload, &mut inner_fx);
                }
                self.wrap_sends(&mut inner_fx, fx);

                // Ack `from`: piggybacked if a data packet is already headed
                // there this step, explicit otherwise (covers duplicates too,
                // whose original ack may have been lost).
                let piggybacked = fx
                    .sends()
                    .iter()
                    .any(|(to, p)| *to == from && matches!(p, Packet::Data { .. }));
                if !piggybacked {
                    let link = self
                        .links
                        .get_mut(&from)
                        .expect("link exists: created above");
                    let (epoch, ack) = (link.recv_epoch, link.recv_cum);
                    self.counters.acks_sent += 1;
                    fx.send(from, Packet::Ack { epoch, ack });
                }
            }
        }
    }

    fn next_timer(&self) -> Option<u64> {
        debug_assert_eq!(
            (self.unacked, self.next_retry),
            self.backlog(),
            "cached backlog or retransmit deadline out of date"
        );
        // Merge the inner protocol's timers (e.g. a request deadline) so
        // wrapping in a transport never silences them.
        earliest(self.next_retry, self.inner.next_timer())
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        self.now = self.now.max(now);
        let now = self.now;
        // Nothing is due before the cached earliest deadline.
        if self.next_retry.is_some_and(|due| due <= now) {
            self.retransmit_due(fx);
        }
        // Forward the wake-up: the inner protocol may own timers of its own
        // (a request deadline aborts from in here).
        let mut inner_fx = Effects::new();
        self.inner.on_timer(now, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn in_cs(&self) -> bool {
        self.inner.in_cs()
    }

    fn wants_cs(&self) -> bool {
        self.inner.wants_cs()
    }

    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        let mut inner_fx = Effects::new();
        let aborted = self.inner.abort_cs(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
        aborted
    }

    fn abortable(&self) -> bool {
        self.inner.abortable()
    }

    fn set_deadline(&mut self, deadline: Option<u64>) {
        self.inner.set_deadline(deadline);
    }

    fn abort_counters(&self) -> Option<crate::protocol::AbortCounters> {
        self.inner.abort_counters()
    }

    fn request_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.request_cs_r(rid, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.release_cs_r(rid, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        let mut inner_fx = Effects::new();
        let aborted = self.inner.abort_cs_r(rid, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
        aborted
    }

    fn in_cs_r(&self, rid: ResourceId) -> bool {
        self.inner.in_cs_r(rid)
    }

    fn wants_cs_r(&self, rid: ResourceId) -> bool {
        self.inner.wants_cs_r(rid)
    }

    fn set_deadline_r(&mut self, rid: ResourceId, deadline: Option<u64>) {
        self.inner.set_deadline_r(rid, deadline);
    }

    fn drain_aborted_resources(&mut self) -> Vec<ResourceId> {
        self.inner.drain_aborted_resources()
    }

    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Self::Msg>) {
        // Stop retransmitting to the dead peer; keep the receive state in
        // case the "failure" was a partition that later heals (stale
        // retransmissions from the peer then still dedup correctly).
        if let Some(link) = self.links.get_mut(&failed) {
            let dropped = link.unacked.len() as u64;
            self.counters.gave_up += dropped;
            self.unacked -= dropped;
            link.unacked.clear();
            link.retry_at = None;
            self.refresh_retry();
        }
        let mut inner_fx = Effects::new();
        self.inner.on_site_failure(failed, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        // Unlike a definitive failure notice, a suspicion may be false: do
        // NOT abandon unacked packets (that would leave a permanent hole in
        // the peer's sequence space, wedging the link after restoration).
        // Retransmission keeps trying, bounded by `max_retries`.
        let mut inner_fx = Effects::new();
        self.inner.on_site_suspected(site, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        // Both ends kept their link state (the peer never actually died):
        // pending retransmissions resume on their own. Transport-wise a
        // restoration is a no-op; only the inner protocol reintegrates.
        let mut inner_fx = Effects::new();
        self.inner.on_site_restored(site, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Self::Msg>) {
        // The peer restarted with a fresh transport: its sequence numbers
        // begin again at 1 in both directions, under its new incarnation's
        // epoch base.
        let base = self.incarnation << 32;
        let link = self
            .links
            .entry(site)
            .or_insert_with(|| LinkState::fresh(base));
        let fresh_recv = incarnation << 32;
        // A duplicate announcement of an incarnation already integrated
        // must not reset the link again — that would re-deliver data and
        // orphan packets sent since. (The detector deduplicates too; this
        // guards bare stacks, where incarnation 0 keeps legacy
        // process-every-announcement semantics.)
        let duplicate = incarnation > 0 && incarnation <= link.peer_inc;
        let mut replay = Effects::new();
        if !duplicate {
            link.peer_inc = incarnation;
            // Send half: restart the window under a NEW epoch, *rebasing*
            // the unacked backlog into it — old-numbering copies still in
            // flight (a retransmission can fire between the peer's restart
            // and our sighting of its Rejoin) carry a stale epoch and are
            // dropped at the fresh peer, while the payloads themselves are
            // renumbered from 1 and retransmitted below, ahead of anything
            // the inner protocol sends in response to the announcement.
            let pending = std::mem::take(&mut link.unacked);
            link.retry_at = None;
            self.unacked -= pending.len() as u64;
            link.send_epoch += 1;
            link.sent = 0;
            // Receive half: expect exactly the announced incarnation's
            // numbering, fencing off the crashed incarnation's stragglers.
            // Skip if that incarnation's data was already adopted (its
            // announcement arrived late): resetting would re-deliver it.
            if incarnation == 0 || fresh_recv > link.recv_epoch {
                link.recv_epoch = fresh_recv;
                link.recv_cum = 0;
                link.reorder.clear();
            }
            self.refresh_retry();
            for (_, p) in pending {
                let payload = Arc::try_unwrap(p.payload).unwrap_or_else(|shared| (*shared).clone());
                replay.send(site, payload);
            }
        }
        self.wrap_sends(&mut replay, fx);
        let mut inner_fx = Effects::new();
        self.inner
            .on_peer_rejoined(site, incarnation, &mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.on_recover(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn set_incarnation(&mut self, incarnation: u64) {
        // Called by the driver on a freshly constructed stack, before any
        // link exists; links created afterwards base their send epochs at
        // `incarnation << 32` (see the module docs).
        self.incarnation = incarnation;
        self.inner.set_incarnation(incarnation);
    }

    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        self.inner.set_peer_universe(peers);
    }

    fn rejoin_pending(&self) -> bool {
        self.inner.rejoin_pending()
    }

    fn on_rejoin_complete(&mut self, fx: &mut Effects<Self::Msg>) {
        let mut inner_fx = Effects::new();
        self.inner.on_rejoin_complete(&mut inner_fx);
        self.wrap_sends(&mut inner_fx, fx);
    }

    fn transport_counters(&self) -> Option<TransportCounters> {
        Some(self.counters)
    }

    fn detector_counters(&self) -> Option<crate::detector::DetectorCounters> {
        self.inner.detector_counters()
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for Reliable<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reliable")
            .field("inner", &self.inner)
            .field("now", &self.now)
            .field("unacked", &self.unacked)
            .finish()
    }
}

/// The earlier of two optional deadlines.
fn earliest(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

// ---------------------------------------------------------------------------
// Fault injection: loss models
// ---------------------------------------------------------------------------

/// A model of wire-message faults on the network links.
///
/// Decision logic only — drivers feed uniform samples from their own seeded
/// RNGs through [`LinkFaults::decide`], so the same model produces the same
/// fault distribution wherever it is used.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Perfect links (the paper's §2 channel model).
    None,
    /// Independent per-message faults: each message is dropped with
    /// probability `drop` and (if not dropped) duplicated with
    /// probability `dup`.
    Iid {
        /// Drop probability in `[0, 1)`.
        drop: f64,
        /// Duplication probability in `[0, 1)`.
        dup: f64,
    },
    /// Bursty loss (Gilbert–Elliott): each link flips between a good and a
    /// bad state; drops are rare in the good state and common in the bad.
    Burst {
        /// Per-message probability a good link turns bad.
        p_bad: f64,
        /// Per-message probability a bad link recovers.
        p_good: f64,
        /// Drop probability while the link is good.
        drop_good: f64,
        /// Drop probability while the link is bad.
        drop_bad: f64,
        /// Duplication probability (state-independent).
        dup: f64,
    },
}

impl LossModel {
    /// Mean long-run drop probability of the model (outages excluded).
    pub fn mean_drop(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { drop, .. } => drop,
            LossModel::Burst {
                p_bad,
                p_good,
                drop_good,
                drop_bad,
                ..
            } => {
                // Stationary fraction of time in the bad state.
                let bad = if p_bad + p_good > 0.0 {
                    p_bad / (p_bad + p_good)
                } else {
                    0.0
                };
                drop_good * (1.0 - bad) + drop_bad * bad
            }
        }
    }
}

/// What the fault injector decided for one wire message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver normally.
    Deliver,
    /// Drop silently.
    Drop,
    /// Deliver two copies (the transport's dedup absorbs the second).
    Duplicate,
}

/// A transient one-directional link outage: messages from `from` to `to`
/// sent during `[start, end)` are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Sending side of the silenced half-link.
    pub from: SiteId,
    /// Receiving side of the silenced half-link.
    pub to: SiteId,
    /// First instant of the outage.
    pub start: u64,
    /// First instant after the outage.
    pub end: u64,
}

/// Per-link fault state for a [`LossModel`] plus scheduled [`Outage`]s.
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    model: Option<LossModel>,
    outages: Vec<Outage>,
    /// Gilbert–Elliott state per directed link (`true` = bad).
    bad: BTreeMap<(SiteId, SiteId), bool>,
}

impl LinkFaults {
    /// Creates the injector for `model` with scheduled `outages`.
    pub fn new(model: LossModel, outages: Vec<Outage>) -> Self {
        LinkFaults {
            model: Some(model),
            outages,
            bad: BTreeMap::new(),
        }
    }

    /// Whether this injector can ever fault a message.
    pub fn is_active(&self) -> bool {
        !matches!(self.model, None | Some(LossModel::None)) || !self.outages.is_empty()
    }

    /// Decides the fate of one message from `from` to `to` sent at `now`.
    ///
    /// `uniform` must yield independent samples uniform in `[0, 1)`; it is
    /// called a model-dependent number of times (zero for [`LossModel::None`]
    /// outside outages).
    pub fn decide(
        &mut self,
        from: SiteId,
        to: SiteId,
        now: u64,
        mut uniform: impl FnMut() -> f64,
    ) -> FaultVerdict {
        if self
            .outages
            .iter()
            .any(|o| o.from == from && o.to == to && (o.start..o.end).contains(&now))
        {
            return FaultVerdict::Drop;
        }
        let (drop_p, dup_p) = match self.model {
            None | Some(LossModel::None) => return FaultVerdict::Deliver,
            Some(LossModel::Iid { drop, dup }) => (drop, dup),
            Some(LossModel::Burst {
                p_bad,
                p_good,
                drop_good,
                drop_bad,
                dup,
            }) => {
                let state = self.bad.entry((from, to)).or_insert(false);
                let flip_p = if *state { p_good } else { p_bad };
                if uniform() < flip_p {
                    *state = !*state;
                }
                (if *state { drop_bad } else { drop_good }, dup)
            }
        };
        if drop_p > 0.0 && uniform() < drop_p {
            FaultVerdict::Drop
        } else if dup_p > 0.0 && uniform() < dup_p {
            FaultVerdict::Duplicate
        } else {
            FaultVerdict::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_optimal::{Config, DelayOptimal};

    type R = Reliable<DelayOptimal>;

    fn pair() -> (R, R) {
        let quorum = vec![SiteId(0), SiteId(1)];
        let cfg = TransportConfig::default();
        (
            Reliable::new(
                DelayOptimal::new(SiteId(0), quorum.clone(), Config::default()),
                cfg,
            ),
            Reliable::new(DelayOptimal::new(SiteId(1), quorum, Config::default()), cfg),
        )
    }

    /// Delivers every queued send (no faults), returning replies in `fx`.
    fn deliver_all(fx: &mut Effects<Packet<qmx_msg::Msg>>, sites: &mut [&mut R]) {
        let sends = fx.take_sends();
        for (to, pkt) in sends {
            let from = SiteId(1 - to.0); // two-site harness
            sites[to.index()].handle(from, pkt, fx);
        }
    }

    // Local alias so the helper signature stays readable.
    mod qmx_msg {
        pub use crate::delay_optimal::Msg;
    }

    #[test]
    fn lossless_round_trip_enters_cs() {
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        // One Data packet to site 1 (plus s0's local grant work).
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 1);
        let (to, pkt) = sends.into_iter().next().unwrap();
        assert_eq!(to, SiteId(1));
        assert!(matches!(pkt, Packet::Data { seq: 1, .. }));

        let mut fx1 = Effects::new();
        s1.handle(SiteId(0), pkt, &mut fx1);
        // Reply rides as Data (the ack to s0 piggybacks on it).
        let sends = fx1.take_sends();
        assert_eq!(sends.len(), 1);
        let (_, reply) = sends.into_iter().next().unwrap();
        assert!(matches!(reply, Packet::Data { seq: 1, ack: 1, .. }));

        let mut fx0 = Effects::new();
        s0.handle(SiteId(1), reply, &mut fx0);
        assert!(fx0.entered_cs());
        assert!(s0.in_cs());
        // s0 acked the reply explicitly (no data to piggyback on).
        let sends = fx0.take_sends();
        assert_eq!(sends.len(), 1);
        assert!(matches!(sends[0].1, Packet::Ack { ack: 1, .. }));
        // The request is now acked: no pending retransmission.
        assert_eq!(s0.next_timer(), None);
    }

    #[test]
    fn lost_request_is_retransmitted_and_recovered() {
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        let _lost = fx.take_sends(); // the network eats the request
        let rto = TransportConfig::default().rto_initial;
        assert_eq!(s0.next_timer(), Some(rto));

        // Nothing due yet at rto-1.
        s0.on_timer(rto - 1, &mut fx);
        assert!(fx.take_sends().is_empty());

        // Due at rto: identical packet (same seq) goes out again.
        s0.on_timer(rto, &mut fx);
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 1);
        assert!(matches!(sends[0].1, Packet::Data { seq: 1, .. }));
        assert_eq!(s0.counters().retransmissions, 1);

        // Backoff doubled the next deadline.
        assert_eq!(s0.next_timer(), Some(rto + 2 * rto));

        // This copy arrives; the reply completes the entry.
        let (_, pkt) = sends.into_iter().next().unwrap();
        let mut fx1 = Effects::new();
        s1.handle(SiteId(0), pkt, &mut fx1);
        let (_, reply) = fx1.take_sends().into_iter().next().unwrap();
        let mut fx0 = Effects::new();
        s0.handle(SiteId(1), reply, &mut fx0);
        assert!(s0.in_cs());
        assert_eq!(s0.next_timer(), None, "ack cleared the send buffer");
    }

    /// A one-way link cut from the transport's point of view: every copy
    /// of site 0's traffic is eaten, the detector above reports the peer
    /// *suspected* (not failed), and the cut later heals. The suspicion
    /// must not abandon the unacked packets — pending retransmissions are
    /// exactly what carries the in-flight messages across once the link is
    /// back — and after the heal the retransmitted backlog plus the
    /// restoration's own sends complete the CS entry end to end.
    #[test]
    fn heal_after_suspected_cut_delivers_via_retransmission() {
        let (mut s0, mut s1) = pair();
        let cfg = TransportConfig::default();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        let _eaten = fx.take_sends(); // the cut link eats the request

        // The detector suspects the silent peer mid-outage. At this layer
        // a false suspicion is indistinguishable from a slow link, so the
        // send buffer must survive; the inner protocol may react (here it
        // withdraws the request), and whatever it sends is eaten too.
        s0.on_site_suspected(SiteId(1), &mut fx);
        fx.take_sends();
        assert!(s0.next_timer().is_some(), "unacked packets still pending");

        // Retry deadlines pass while the link stays cut; every copy is
        // eaten as well, and backoff doubles the RTO each attempt.
        let mut now = 0;
        for _ in 0..3 {
            now += cfg.rto_max;
            s0.on_timer(now, &mut fx);
            assert!(!fx.take_sends().is_empty(), "retransmissions continue");
        }
        assert!(s0.counters().retransmissions >= 3);
        assert_eq!(s0.counters().gave_up, 0, "suspicion abandoned nothing");

        // The link heals: the detector revokes the suspicion, the fixed
        // two-site quorum becomes accessible again and the want that
        // parked during the outage is re-issued automatically; one more
        // retry deadline flushes the unacked backlog — this time
        // everything is delivered, both ways, until the network drains.
        let mut fx = Effects::new();
        s0.on_site_restored(SiteId(1), &mut fx);
        now += cfg.rto_max;
        s0.on_timer(now, &mut fx);
        // Drain the healed network one packet at a time with a fresh
        // effects buffer per delivery, like the simulator's Deliver events
        // (the shared-buffer shortcut of `deliver_all` would make the
        // piggyback-ack check see packets from *earlier* deliveries).
        let mut inflight: std::collections::VecDeque<(SiteId, Packet<qmx_msg::Msg>)> =
            fx.take_sends().into();
        while let Some((to, pkt)) = inflight.pop_front() {
            let mut fxd = Effects::new();
            let from = SiteId(1 - to.0);
            if to == SiteId(0) {
                s0.handle(from, pkt, &mut fxd);
            } else {
                s1.handle(from, pkt, &mut fxd);
            }
            inflight.extend(fxd.take_sends());
        }
        assert!(s0.in_cs(), "healed link completed the entry");
        assert_eq!(s0.next_timer(), None, "acks cleared the send buffer");
        assert_eq!(s1.next_timer(), None);
        assert_eq!(s0.counters().gave_up, 0);
    }

    #[test]
    fn duplicates_are_dropped_exactly_once_delivery() {
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        let (_, pkt) = fx.take_sends().into_iter().next().unwrap();

        let mut fx1 = Effects::new();
        s1.handle(SiteId(0), pkt.clone(), &mut fx1);
        let first_reply = fx1.take_sends();
        assert_eq!(first_reply.len(), 1);

        // The duplicate is absorbed: no second reply from the inner
        // protocol, only a re-ack.
        let mut fx1b = Effects::new();
        s1.handle(SiteId(0), pkt, &mut fx1b);
        let dup_out = fx1b.take_sends();
        assert_eq!(dup_out.len(), 1);
        assert!(matches!(dup_out[0].1, Packet::Ack { ack: 1, .. }));
        assert_eq!(s1.counters().duplicates_dropped, 1);
    }

    #[test]
    fn reordering_is_repaired_before_delivery() {
        // Feed site 1 two packets in reverse order; the inner protocol must
        // see them in sequence order (we verify via recv bookkeeping and
        // that delivery of seq 2 waits for seq 1).
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx); // seq 1: request
        let (_, p1) = fx.take_sends().into_iter().next().unwrap();
        // Fabricate a second in-flight packet by releasing after a manual
        // grant path is impossible here; instead use a second request from
        // the inner by simulating exit. Simplest: clone the machinery —
        // send the same payload with seq 2 via the public API is not
        // possible, so drive the real flow: deliver p1 (reply comes back),
        // enter, release (seq 2: release).
        let mut fx1 = Effects::new();
        s1.handle(SiteId(0), p1.clone(), &mut fx1);
        let (_, reply) = fx1.take_sends().into_iter().next().unwrap();
        let mut fx0 = Effects::new();
        s0.handle(SiteId(1), reply, &mut fx0);
        fx0.take_sends();
        assert!(s0.in_cs());
        s0.release_cs(&mut fx0);
        let (_, p2) = fx0.take_sends().into_iter().next().unwrap();
        assert!(matches!(p2, Packet::Data { seq: 2, .. }));

        // Fresh receiver that never saw seq 1: deliver p2 first.
        let (_, mut s1b) = pair();
        let mut fxb = Effects::new();
        s1b.handle(SiteId(0), p2, &mut fxb);
        assert_eq!(s1b.counters().reordered, 1);
        // Still acking 0 — nothing deliverable yet, request not seen.
        let out = fxb.take_sends();
        assert!(matches!(out[0].1, Packet::Ack { ack: 0, .. }));

        // Now seq 1 arrives: both deliver in order (request then release).
        s1b.handle(SiteId(0), p1, &mut fxb);
        let out = fxb.take_sends();
        // The reply to the (now stale, since release followed) request may
        // or may not be emitted depending on inner logic; what matters is
        // the cumulative ack advanced over both.
        assert!(out
            .iter()
            .any(|(_, p)| matches!(p, Packet::Data { ack: 2, .. } | Packet::Ack { ack: 2, .. })));
    }

    #[test]
    fn stale_epoch_stragglers_cannot_wedge_a_fresh_link() {
        // Regression for the crash-recovery wedge: site 1 restarts fresh
        // while old-incarnation retransmissions from site 0 are still in
        // flight. Without epochs those stragglers consume the fresh
        // receive window's sequence slots, and the first REAL message the
        // survivor sends after resetting its link (reusing those numbers)
        // is dropped as a "duplicate" — silently swallowing a protocol
        // message and deadlocking the mutual-exclusion layer above.
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        let (_, pkt) = fx.take_sends().into_iter().next().unwrap();
        let payload = match &pkt {
            Packet::Data { payload, .. } => payload.clone(),
            Packet::Ack { .. } => unreachable!("request rides as data"),
        };

        // Old-incarnation stragglers (epoch 0, seqs 3 and 4) reach the
        // freshly restarted site 1 first: buffered behind the 1..2 gap.
        let mut fx1 = Effects::new();
        for seq in [3, 4] {
            s1.handle(
                SiteId(0),
                Packet::Data {
                    epoch: 0,
                    seq,
                    ack_epoch: 0,
                    ack: 0,
                    payload: payload.clone(),
                },
                &mut fx1,
            );
        }
        assert_eq!(s1.counters().reordered, 2);
        fx1.take_sends();

        // Site 0 sees the rejoin: the send window restarts under a NEW
        // epoch, with the unacked request REBASED into it as seq 1 (not
        // dropped — in-flight data must survive a peer restart).
        let mut fx0 = Effects::new();
        s0.on_peer_rejoined(SiteId(1), 1, &mut fx0);
        let sends = fx0.take_sends();
        assert!(matches!(
            sends[0].1,
            Packet::Data {
                epoch: 1,
                seq: 1,
                ..
            }
        ));

        // The new-epoch packets must evict the buffered junk and reach the
        // inner protocol (site 1's arbiter answers the request).
        let mut fx1 = Effects::new();
        for (_, pkt) in sends {
            s1.handle(SiteId(0), pkt, &mut fx1);
        }
        let replied = fx1
            .take_sends()
            .iter()
            .any(|(_, p)| matches!(p, Packet::Data { .. }));
        assert!(replied, "new-epoch request was delivered and answered");

        // A late straggler from the dead epoch is now dropped outright.
        let mut fx1 = Effects::new();
        s1.handle(
            SiteId(0),
            Packet::Data {
                epoch: 0,
                seq: 5,
                ack_epoch: 0,
                ack: 0,
                payload,
            },
            &mut fx1,
        );
        assert_eq!(s1.counters().stale_epoch_dropped, 1);
        assert!(fx1.take_sends().is_empty(), "stale packets are not acked");
    }

    #[test]
    fn incarnation_fences_pre_crash_stragglers_at_the_survivor() {
        // Regression for the incarnation gap: site 1 crashes with a Data
        // packet still in flight and restarts. The survivor, told of the
        // rejoin, must not let the pre-crash straggler pass its epoch
        // check — before incarnation fencing, on_peer_rejoined reset
        // recv_epoch to 0, the exact epoch the straggler carries.
        let (mut s0, _) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        fx.take_sends();

        // Site 1's new life announces incarnation 1.
        let mut fx0 = Effects::new();
        s0.on_peer_rejoined(SiteId(1), 1, &mut fx0);
        fx0.take_sends();

        // Pre-crash straggler from site 1 (epoch 0, a high seq): dropped
        // as stale, not buffered into the fresh incarnation's window.
        let mut quorum_pkt = None;
        let mut fx1 = Effects::new();
        let mut s1_new = {
            let quorum = vec![SiteId(0), SiteId(1)];
            let mut s = Reliable::new(
                DelayOptimal::new(SiteId(1), quorum, Config::default()),
                TransportConfig::default(),
            );
            s.set_incarnation(1);
            s.request_cs(&mut fx1);
            for (to, pkt) in fx1.take_sends() {
                assert_eq!(to, SiteId(0));
                quorum_pkt = Some(pkt);
            }
            s
        };
        let straggler = quorum_pkt.clone().unwrap(); // payload shape only
        let payload = match straggler {
            Packet::Data { payload, .. } => payload,
            Packet::Ack { .. } => unreachable!(),
        };
        let mut fxs = Effects::new();
        s0.handle(
            SiteId(1),
            Packet::Data {
                epoch: 0,
                seq: 7,
                ack_epoch: 0,
                ack: 0,
                payload,
            },
            &mut fxs,
        );
        assert_eq!(s0.counters().stale_epoch_dropped, 1);
        assert_eq!(s0.counters().reordered, 0, "straggler must not buffer");

        // The fresh incarnation's real packet (epoch 1 << 32, seq 1) is
        // accepted and answered.
        let mut fxs = Effects::new();
        s0.handle(SiteId(1), quorum_pkt.unwrap(), &mut fxs);
        let answered = fxs
            .take_sends()
            .iter()
            .any(|(to, p)| *to == SiteId(1) && matches!(p, Packet::Data { .. }));
        assert!(answered, "fresh-incarnation request delivered and answered");
        let _ = &mut s1_new;
    }

    #[test]
    fn stale_epoch_packet_still_applies_its_ack() {
        // A packet dropped as a stale-epoch straggler still carries a
        // cumulative ack for the current send epoch. That ack must clear
        // the backlog, and the cached retransmit deadline must follow it
        // (debug builds check the cache on every `next_timer`).
        let (mut s0, _) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        fx.take_sends();
        // Site 1 rejoins as incarnation 1: the request is rebased into send
        // epoch 1, and only site 1's epoch `1 << 32` is accepted from now on.
        s0.on_peer_rejoined(SiteId(1), 1, &mut fx);
        let payload = match fx.take_sends().into_iter().next() {
            Some((
                _,
                Packet::Data {
                    epoch: 1, payload, ..
                },
            )) => payload,
            other => panic!("expected the rebased request, got {other:?}"),
        };
        assert!(s0.next_timer().is_some(), "the rebased request is pending");
        s0.handle(
            SiteId(1),
            Packet::Data {
                epoch: 0,
                seq: 9,
                ack_epoch: 1,
                ack: 100,
                payload,
            },
            &mut fx,
        );
        assert_eq!(s0.counters().stale_epoch_dropped, 1);
        assert_eq!(s0.next_timer(), None, "the straggler's ack cleared it");
    }

    #[test]
    fn retry_cap_quiesces_against_a_dead_peer() {
        let cfg = TransportConfig {
            rto_initial: 10,
            rto_max: 40,
            max_retries: 3,
        };
        let quorum = vec![SiteId(0), SiteId(1)];
        let mut s0 = Reliable::new(DelayOptimal::new(SiteId(0), quorum, Config::default()), cfg);
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        fx.take_sends();
        let mut t = 0;
        let mut sent = 0;
        while let Some(due) = s0.next_timer() {
            assert!(t < 10_000, "must quiesce");
            t = due;
            s0.on_timer(t, &mut fx);
            sent += fx.take_sends().len();
        }
        assert_eq!(sent, 3, "exactly max_retries retransmissions");
        assert_eq!(s0.counters().gave_up, 1);
        assert_eq!(s0.next_timer(), None);
    }

    #[test]
    fn failure_notice_cancels_retransmissions() {
        let (mut s0, _s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        fx.take_sends();
        assert!(s0.next_timer().is_some());
        let mut fx2 = Effects::new();
        s0.on_site_failure(SiteId(1), &mut fx2);
        assert_eq!(s0.next_timer(), None, "no retries to a known-dead peer");
        assert_eq!(s0.counters().gave_up, 1);
    }

    #[test]
    fn iid_loss_model_drops_and_duplicates() {
        let mut lf = LinkFaults::new(
            LossModel::Iid {
                drop: 0.3,
                dup: 0.2,
            },
            Vec::new(),
        );
        assert!(lf.is_active());
        // Deterministic "uniform" streams exercise each verdict.
        let v = lf.decide(SiteId(0), SiteId(1), 0, || 0.1); // 0.1 < 0.3 -> drop
        assert_eq!(v, FaultVerdict::Drop);
        let mut vals = [0.9, 0.1].into_iter(); // survive drop, then dup
        let v = lf.decide(SiteId(0), SiteId(1), 0, || vals.next().unwrap());
        assert_eq!(v, FaultVerdict::Duplicate);
        let mut vals = [0.9, 0.9].into_iter();
        let v = lf.decide(SiteId(0), SiteId(1), 0, || vals.next().unwrap());
        assert_eq!(v, FaultVerdict::Deliver);
    }

    #[test]
    fn outage_window_drops_only_inside_window() {
        let mut lf = LinkFaults::new(
            LossModel::None,
            vec![Outage {
                from: SiteId(0),
                to: SiteId(1),
                start: 100,
                end: 200,
            }],
        );
        assert!(lf.is_active());
        let u = || unreachable!("LossModel::None needs no samples");
        assert_eq!(
            lf.decide(SiteId(0), SiteId(1), 99, u),
            FaultVerdict::Deliver
        );
        assert_eq!(lf.decide(SiteId(0), SiteId(1), 100, u), FaultVerdict::Drop);
        assert_eq!(lf.decide(SiteId(0), SiteId(1), 199, u), FaultVerdict::Drop);
        assert_eq!(
            lf.decide(SiteId(0), SiteId(1), 200, u),
            FaultVerdict::Deliver
        );
        // Other direction unaffected.
        assert_eq!(
            lf.decide(SiteId(1), SiteId(0), 150, u),
            FaultVerdict::Deliver
        );
    }

    #[test]
    fn burst_model_is_stickier_than_iid() {
        // In the bad state with drop_bad = 1.0, everything drops until the
        // state flips back.
        let mut lf = LinkFaults::new(
            LossModel::Burst {
                p_bad: 1.0, // first message flips to bad
                p_good: 0.0,
                drop_good: 0.0,
                drop_bad: 1.0,
                dup: 0.0,
            },
            Vec::new(),
        );
        let v = lf.decide(SiteId(0), SiteId(1), 0, || 0.5);
        assert_eq!(v, FaultVerdict::Drop);
        // Stuck bad (p_good = 0): still dropping.
        let v = lf.decide(SiteId(0), SiteId(1), 1, || 0.5);
        assert_eq!(v, FaultVerdict::Drop);
    }

    #[test]
    fn mean_drop_matches_stationary_distribution() {
        assert_eq!(LossModel::None.mean_drop(), 0.0);
        assert_eq!(
            LossModel::Iid {
                drop: 0.1,
                dup: 0.0
            }
            .mean_drop(),
            0.1
        );
        let ge = LossModel::Burst {
            p_bad: 0.1,
            p_good: 0.3,
            drop_good: 0.0,
            drop_bad: 0.8,
            dup: 0.0,
        };
        // Bad fraction = 0.1 / 0.4 = 0.25; mean drop = 0.2.
        assert!((ge.mean_drop() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn counters_merge() {
        let mut a = TransportCounters {
            data_sent: 1,
            retransmissions: 2,
            acks_sent: 3,
            duplicates_dropped: 4,
            reordered: 5,
            gave_up: 6,
            stale_epoch_dropped: 8,
            max_unacked: 7,
        };
        let b = TransportCounters {
            max_unacked: 9,
            ..TransportCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.data_sent, 1);
        assert_eq!(a.max_unacked, 9);
    }

    #[test]
    fn deliver_all_smoke() {
        // The helper-based two-site loop reaches the CS with zero faults.
        let (mut s0, mut s1) = pair();
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        for _ in 0..10 {
            if s0.in_cs() {
                break;
            }
            let mut both = [&mut s0, &mut s1];
            deliver_all(&mut fx, &mut both);
        }
        assert!(s0.in_cs());
    }

    /// Recomputes what the caches hold from scratch and asserts they
    /// agree: each link's earliest retry, the backlog count, and
    /// `next_timer()` as the earliest retry of any unacked packet or the
    /// inner protocol's timer.
    fn assert_caches_exact(r: &R, step: &str) {
        for (site, l) in &r.links {
            let first = l.unacked.values().map(|p| p.next_retry_at).min();
            assert_eq!(l.retry_at, first, "{step}: link to {site:?}");
        }
        let total: usize = r.links.values().map(|l| l.unacked.len()).sum();
        assert_eq!(r.unacked, total as u64, "{step}: backlog count");
        let retry = r
            .links
            .values()
            .flat_map(|l| l.unacked.values())
            .map(|p| p.next_retry_at)
            .min();
        let brute = earliest(retry, r.inner.next_timer());
        assert_eq!(r.next_timer(), brute, "{step}: next_timer");
    }

    /// Every path that drops or reschedules packets keeps the cached
    /// retransmit deadlines exact: an ack of a prefix, a retransmit with
    /// backoff, a give-up at `max_retries`, a failure notice's clear and
    /// a rejoin's rebase.
    #[test]
    fn retransmit_deadlines_stay_exact_on_every_path() {
        let cfg = TransportConfig {
            rto_initial: 10,
            rto_max: 40,
            max_retries: 2,
        };
        let quorum = vec![SiteId(0), SiteId(1), SiteId(2)];
        let mut s0 = Reliable::new(DelayOptimal::new(SiteId(0), quorum, Config::default()), cfg);
        let mut fx = Effects::new();
        // A request (seq 1, due at 10) and its abandonment (seq 2, due
        // at 13) on the links to sites 1 and 2; nothing is delivered.
        s0.request_cs(&mut fx);
        s0.set_now(3);
        assert!(s0.abort_cs(&mut fx));
        assert_eq!(fx.take_sends().len(), 4);
        assert_caches_exact(&s0, "two packets per link");
        assert_eq!(s0.next_timer(), Some(10));

        s0.handle(SiteId(1), Packet::Ack { epoch: 0, ack: 1 }, &mut fx);
        assert_caches_exact(&s0, "prefix ack");
        assert_eq!(s0.links[&SiteId(1)].retry_at, Some(13));
        assert_eq!(s0.next_timer(), Some(10), "site 2's request still leads");

        // Site 2's request goes out again at 10 with a doubled timeout.
        s0.on_timer(10, &mut fx);
        assert_eq!(fx.take_sends().len(), 1);
        assert_caches_exact(&s0, "retransmit with backoff");
        assert_eq!(s0.next_timer(), Some(13));

        // Run the retransmissions until site 2's request exhausts its
        // two retries and is given up.
        while s0.counters().gave_up == 0 {
            let due = s0.next_timer().expect("packets are pending");
            s0.on_timer(due, &mut fx);
            fx.take_sends();
            assert_caches_exact(&s0, &format!("retransmit pass at {due}"));
        }
        assert_eq!(s0.counters().gave_up, 1);
        assert_caches_exact(&s0, "give-up");

        s0.on_site_failure(SiteId(2), &mut fx);
        assert!(s0.links[&SiteId(2)].unacked.is_empty());
        assert_eq!(s0.links[&SiteId(2)].retry_at, None);
        assert_caches_exact(&s0, "failure notice clear");

        // Site 1 rejoins: its unacked abandonment is renumbered into the
        // new epoch and sent again, due one initial timeout from now.
        let now = s0.now;
        s0.on_peer_rejoined(SiteId(1), 1, &mut fx);
        assert!(!fx.take_sends().is_empty());
        assert_caches_exact(&s0, "rejoin rebase");
        assert_eq!(s0.next_timer(), Some(now + cfg.rto_initial));
    }

    /// An ack that drains the link holding the overall retransmit
    /// deadline hands the lead to the next link's deadline.
    #[test]
    fn ack_of_the_leading_link_raises_the_overall_deadline() {
        let cfg = TransportConfig {
            rto_initial: 10,
            rto_max: 40,
            max_retries: 2,
        };
        let quorum = vec![SiteId(0), SiteId(1), SiteId(2)];
        let mut s0 = Reliable::new(DelayOptimal::new(SiteId(0), quorum, Config::default()), cfg);
        let mut fx = Effects::new();
        s0.request_cs(&mut fx);
        s0.set_now(3);
        assert!(s0.abort_cs(&mut fx));
        s0.handle(SiteId(1), Packet::Ack { epoch: 0, ack: 2 }, &mut fx);
        assert_caches_exact(&s0, "site 1 acks everything");
        assert_eq!(s0.next_timer(), Some(10), "site 2's request leads");
        s0.handle(SiteId(2), Packet::Ack { epoch: 0, ack: 1 }, &mut fx);
        assert_caches_exact(&s0, "site 2 acks its request");
        assert_eq!(s0.next_timer(), Some(13), "site 2's abandonment leads");
    }
}
