//! The event-driven protocol interface shared by every algorithm.
//!
//! A mutual-exclusion algorithm is modeled as a deterministic state machine
//! per site. Drivers (the discrete-event simulator in `qmx-sim`, the threaded
//! runtime in `qmx-runtime`, or a handwritten test harness) own the network
//! and the application: they call [`Protocol::request_cs`] when the local
//! application wants the critical section, deliver messages through
//! [`Protocol::handle`], and call [`Protocol::release_cs`] when the
//! application is done. The state machine communicates back through
//! [`Effects`]: messages to send and a flag that the site has just entered
//! its CS.
//!
//! Keeping algorithms free of I/O and time makes them unit-testable
//! step-by-step and lets the same implementation run deterministically under
//! simulation and live over sockets.

use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a site (a process and the computer it executes on).
///
/// Sites are numbered `0..N`. The numeric order participates in request
/// priority (ties on sequence numbers are broken by the smaller site id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The site id as a `usize` index (for vectors indexed by site).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for SiteId {
    fn from(v: u32) -> Self {
        SiteId(v)
    }
}

/// Coarse classification of wire messages, used by drivers for accounting.
///
/// Every algorithm maps its own message enum onto these kinds via
/// [`MsgMeta::kind`], so experiment harnesses can report per-kind message
/// counts uniformly (e.g. the `request`/`reply`/`release` split of the
/// paper's §5 analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKind {
    /// A CS request / permission ask.
    Request,
    /// A permission grant (possibly forwarded by a proxy).
    Reply,
    /// Notification that a site has exited the CS.
    Release,
    /// An arbiter probing its current grantee (deadlock resolution).
    Inquire,
    /// An arbiter refusing a request that is not next in line.
    Fail,
    /// A requester relinquishing a grant to a higher-priority request.
    Yield,
    /// An arbiter asking the current lock holder to forward its reply.
    Transfer,
    /// A privilege token (token-based algorithms).
    Token,
    /// Auxiliary state dissemination (e.g. failure notices, info messages).
    Info,
}

impl MsgKind {
    /// All kinds, in display order.
    pub const ALL: [MsgKind; 9] = [
        MsgKind::Request,
        MsgKind::Reply,
        MsgKind::Release,
        MsgKind::Inquire,
        MsgKind::Fail,
        MsgKind::Yield,
        MsgKind::Transfer,
        MsgKind::Token,
        MsgKind::Info,
    ];

    /// Short lowercase label (matches the paper's message names).
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Request => "request",
            MsgKind::Reply => "reply",
            MsgKind::Release => "release",
            MsgKind::Inquire => "inquire",
            MsgKind::Fail => "fail",
            MsgKind::Yield => "yield",
            MsgKind::Transfer => "transfer",
            MsgKind::Token => "token",
            MsgKind::Info => "info",
        }
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Metadata every protocol message type must expose.
pub trait MsgMeta {
    /// The dominant kind of this wire message, for accounting.
    ///
    /// A message piggybacking several logical control messages (e.g.
    /// `inquire`+`transfer`) is **one** wire message and reports the kind of
    /// its primary component, mirroring the paper's §5 counting rule.
    fn kind(&self) -> MsgKind;
}

/// Identifies one named lock (resource) in a multi-resource lock space.
///
/// Single-resource protocols — the paper's setting — arbitrate exactly one
/// critical section and use [`ResourceId::SOLO`] everywhere. The
/// [`LockSpace`](crate::lockspace::LockSpace) layer multiplexes many
/// protocol instances over the same sites and links, keyed by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// The single implicit resource of a one-lock protocol.
    pub const SOLO: ResourceId = ResourceId(0);
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Effects emitted by one protocol step: messages to send and CS entries.
///
/// Drivers create a fresh `Effects` (or reuse one after draining), pass it to
/// a [`Protocol`] entry point, then act on the collected sends and the
/// entered-resource list (single-resource protocols report at most one entry,
/// always [`ResourceId::SOLO`]; a lock space may admit several resources in
/// one step, e.g. when a reliable link delivers a reordered prefix).
///
/// A wrapper layer keeps one `Effects` of its inner protocol's messages as
/// scratch and empties it before each call returns, so cloning the layer
/// clones an empty buffer.
#[derive(Debug, Clone)]
pub struct Effects<M> {
    sends: Vec<(SiteId, M)>,
    entered: Vec<ResourceId>,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            entered: Vec::new(),
        }
    }
}

impl<M> Effects<M> {
    /// Creates an empty effects buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a wire message to `to`.
    pub fn send(&mut self, to: SiteId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Marks that the site has just entered its critical section (the
    /// implicit solo resource of a single-lock protocol).
    pub fn enter_cs(&mut self) {
        self.entered.push(ResourceId::SOLO);
    }

    /// Marks that the site has just entered the critical section of `rid`.
    pub fn enter_cs_r(&mut self, rid: ResourceId) {
        self.entered.push(rid);
    }

    /// Whether any CS entry was signalled since the last drain.
    pub fn entered_cs(&self) -> bool {
        !self.entered.is_empty()
    }

    /// The resources entered since the last drain, in signal order.
    pub fn entered_resources(&self) -> &[ResourceId] {
        &self.entered
    }

    /// Read-only view of queued sends.
    pub fn sends(&self) -> &[(SiteId, M)] {
        &self.sends
    }

    /// Drains and returns the queued sends, clearing the entry list too.
    pub fn take_sends(&mut self) -> Vec<(SiteId, M)> {
        self.entered.clear();
        std::mem::take(&mut self.sends)
    }

    /// Drains the buffer returning `(sends, entered resources)`.
    pub fn drain(&mut self) -> (Vec<(SiteId, M)>, Vec<ResourceId>) {
        (
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.entered),
        )
    }

    /// Drains queued sends in order *without* surrendering the buffer's
    /// capacity. Drivers that reuse one scratch buffer across events call
    /// this instead of [`Effects::drain`] so the send vector's allocation
    /// amortizes to zero per event. Entered resources are left in place —
    /// drain them separately via [`Effects::drain_entered`] (or clear with
    /// [`Effects::clear_entered`]).
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (SiteId, M)> {
        self.sends.drain(..)
    }

    /// Drains the entered-resource list in signal order, keeping capacity.
    pub fn drain_entered(&mut self) -> std::vec::Drain<'_, ResourceId> {
        self.entered.drain(..)
    }

    /// Clears the entered-resource list without yielding it.
    pub fn clear_entered(&mut self) {
        self.entered.clear();
    }
}

/// Counters for the abort path: requests withdrawn by the client, deadline
/// expiries, and grants that arrived for an already-abandoned request.
///
/// Observability only — layers must keep these out of any state that feeds
/// model-checker fingerprints (they count *history*, not behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbortCounters {
    /// Requests withdrawn via [`Protocol::abort_cs`] (including deadline
    /// expiries) that actually cancelled an outstanding request.
    pub aborts: u64,
    /// The subset of `aborts` triggered by a deadline firing inside
    /// [`Protocol::on_timer`] rather than an explicit client call.
    pub deadline_aborts: u64,
    /// Permission grants that reached this site after it had already
    /// abandoned the request they answer, and were returned to their
    /// arbiter (`Relinquish`) instead of being consumed.
    pub orphan_grants: u64,
}

impl AbortCounters {
    /// Accumulates `other` into `self` (drivers sum per-site counters).
    pub fn merge(&mut self, other: &AbortCounters) {
        self.aborts += other.aborts;
        self.deadline_aborts += other.deadline_aborts;
        self.orphan_grants += other.orphan_grants;
    }
}

/// A distributed mutual-exclusion algorithm as a per-site state machine.
///
/// Contract expected by drivers:
///
/// * At most one outstanding CS request per site: the driver calls
///   [`request_cs`](Protocol::request_cs) only when the site is idle, and
///   [`release_cs`](Protocol::release_cs) only when [`in_cs`](Protocol::in_cs)
///   is `true` (sites execute CS requests "sequentially one by one", §2).
/// * CS entry is signalled exactly once per request via
///   [`Effects::enter_cs`], either inside `request_cs` (grant was immediate)
///   or inside a later `handle` call.
/// * `handle` must tolerate stale messages (late replies for finished
///   requests, etc.) — unreliable-order tolerance is part of each algorithm.
pub trait Protocol {
    /// The algorithm's wire message type.
    ///
    /// `Send + Sync` because drivers move messages across threads and the
    /// reliable transport shares payloads between its retransmit buffer
    /// and in-flight packets via `Arc`.
    type Msg: Clone + fmt::Debug + MsgMeta + Send + Sync + 'static;

    /// This site's identifier.
    fn site(&self) -> SiteId;

    /// Called once before any other event, for protocols that need to
    /// announce initial state (e.g. initial token placement).
    fn on_start(&mut self, fx: &mut Effects<Self::Msg>) {
        let _ = fx;
    }

    /// The local application requests the critical section.
    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>);

    /// The local application leaves the critical section.
    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>);

    /// A wire message from `from` is delivered.
    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>);

    /// Whether this site is currently executing its CS.
    fn in_cs(&self) -> bool;

    /// Whether this site has an unfulfilled CS request outstanding.
    fn wants_cs(&self) -> bool;

    /// The local application abandons its outstanding CS request (client
    /// timeout, cancelled transaction, shutdown).
    ///
    /// Returns `true` if there was a pending (not yet granted) request and
    /// it was withdrawn — the site is idle afterwards and the driver may
    /// issue a fresh `request_cs` later (e.g. retry with backoff). Returns
    /// `false` if there was nothing to abort: the site was idle, or the
    /// request had already been granted (once inside the CS the only exit
    /// is [`release_cs`](Protocol::release_cs) — an abort must never "lose"
    /// an acquired lock). Algorithms without an abort path keep the
    /// default, which refuses (`false`).
    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        let _ = fx;
        false
    }

    /// Whether [`abort_cs`](Protocol::abort_cs) would currently withdraw
    /// anything: an unfulfilled request is outstanding *and* the algorithm
    /// implements abort. Drivers and the model checker use this to gate
    /// abort transitions.
    fn abortable(&self) -> bool {
        false
    }

    /// Sets (or clears, with `None`) the absolute deadline for the current
    /// or next CS request. When the deadline passes while the request is
    /// still unfulfilled, the protocol aborts it from within
    /// [`on_timer`](Protocol::on_timer) — deadlines ride the same driver
    /// timer hooks as transport retransmission and detector heartbeats, so
    /// any driver that polls [`next_timer`](Protocol::next_timer) gets
    /// deadline enforcement for free. Cleared automatically on CS entry.
    /// Default: ignored (no deadline support).
    fn set_deadline(&mut self, deadline: Option<u64>) {
        let _ = deadline;
    }

    /// Abort-path counters, if the algorithm supports aborts.
    ///
    /// `None` for algorithms without an abort path; mirrors
    /// [`transport_counters`](Protocol::transport_counters).
    fn abort_counters(&self) -> Option<AbortCounters> {
        None
    }

    /// Resource-addressed [`request_cs`](Protocol::request_cs): the local
    /// application requests the critical section of `rid`.
    ///
    /// Single-resource protocols keep the default, which accepts only
    /// [`ResourceId::SOLO`] and delegates; the
    /// [`LockSpace`](crate::lockspace::LockSpace) layer routes to the
    /// addressed shard, and wrapper layers ([`Reliable`](crate::transport::Reliable),
    /// [`Detector`](crate::detector::Detector)) forward to their inner
    /// protocol so the id survives the stack.
    fn request_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.request_cs(fx);
    }

    /// Resource-addressed [`release_cs`](Protocol::release_cs).
    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.release_cs(fx);
    }

    /// Resource-addressed [`abort_cs`](Protocol::abort_cs).
    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.abort_cs(fx)
    }

    /// Resource-addressed [`in_cs`](Protocol::in_cs).
    fn in_cs_r(&self, rid: ResourceId) -> bool {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.in_cs()
    }

    /// Resource-addressed [`wants_cs`](Protocol::wants_cs).
    fn wants_cs_r(&self, rid: ResourceId) -> bool {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.wants_cs()
    }

    /// Resource-addressed [`set_deadline`](Protocol::set_deadline).
    fn set_deadline_r(&mut self, rid: ResourceId, deadline: Option<u64>) {
        debug_assert_eq!(rid, ResourceId::SOLO, "single-resource protocol");
        self.set_deadline(deadline);
    }

    /// Drains the set of resources whose outstanding request was aborted
    /// (deadline expiry or explicit withdrawal) since the last drain, so a
    /// driver that watches the aggregate [`abort_counters`](Protocol::abort_counters)
    /// delta can route per-resource retries. Single-resource protocols keep
    /// the default (empty — the driver attributes any delta to
    /// [`ResourceId::SOLO`]); the lock space reports the affected shards in
    /// id order.
    fn drain_aborted_resources(&mut self) -> Vec<ResourceId> {
        Vec::new()
    }

    /// Notification (from a failure detector) that `failed` has crashed.
    ///
    /// Algorithms without fault handling may ignore this. The delay-optimal
    /// algorithm implements the §6 cleanup and quorum-reconstruction rules.
    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Self::Msg>) {
        let _ = (failed, fx);
    }

    /// A failure detector *suspects* `site` has crashed (missed heartbeats).
    ///
    /// Unlike [`on_site_failure`](Protocol::on_site_failure) — the paper's
    /// oracle `failure(i)` notice, which is definitive — a suspicion may be
    /// wrong (a partition or slow link, Chandra–Toueg style), possibly while
    /// the suspected site is *inside its CS*. Reacting to it with the
    /// definitive-failure cleanup (which reclaims and re-grants held locks)
    /// is therefore unsafe; the default does nothing, which is always safe.
    /// Algorithms may override it with *revocable* reactions only (routing
    /// around the suspect, withdrawing own requests) and must reintegrate
    /// the site in [`on_site_restored`](Protocol::on_site_restored). The
    /// definitive cleanup still runs when the detector later *confirms* the
    /// failure via [`on_site_failure`](Protocol::on_site_failure).
    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        let _ = (site, fx);
    }

    /// A previously suspected `site` has been heard from again: the
    /// suspicion was false and the site must be reintegrated (messages to it
    /// no longer dropped at source, re-admitted to quorum selection).
    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        let _ = (site, fx);
    }

    /// A crashed `site` has announced it restarted with fresh state (rejoin
    /// handshake), under boot `incarnation` (a counter that strictly
    /// increases across the peer's restarts; `0` when the driver does not
    /// track incarnations). Layers should reset any per-peer connection
    /// state (the rejoiner lost all protocol memory) and then reintegrate
    /// it; the default defers to
    /// [`on_site_restored`](Protocol::on_site_restored).
    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Self::Msg>) {
        let _ = incarnation;
        self.on_site_restored(site, fx);
    }

    /// This site itself has just restarted after a crash, with fresh state.
    ///
    /// Layers announce themselves to peers here (the detector broadcasts a
    /// rejoin message) and may defer normal operation until the rejoin
    /// handshake completes.
    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        let _ = fx;
    }

    /// The rejoin grace window opened by [`on_recover`](Protocol::on_recover)
    /// has elapsed: the site may resume full operation (arbitration,
    /// granting) with whatever state the handshake rebuilt.
    fn on_rejoin_complete(&mut self, fx: &mut Effects<Self::Msg>) {
        let _ = fx;
    }

    /// Whether this site's rejoin resynchronization is still incomplete:
    /// it has restarted ([`on_recover`](Protocol::on_recover)) but not yet
    /// heard resync answers from every peer it is waiting on. Layers that
    /// gate rejoin completion on peer answers report `true` here so the
    /// detector keeps its grace window open (and keeps re-announcing the
    /// rejoin) instead of closing on a fixed timeout. Default: `false`
    /// (purely timer-gated rejoin).
    fn rejoin_pending(&self) -> bool {
        false
    }

    /// Informs the protocol of this site's boot incarnation (a driver-
    /// maintained counter that strictly increases across this site's
    /// restarts). Called once before `on_start`/`on_recover` of each life.
    /// Layers use it to make post-restart identifiers (link epochs, rejoin
    /// announcements) distinguishable from pre-crash ones. Default: ignored.
    fn set_incarnation(&mut self, incarnation: u64) {
        let _ = incarnation;
    }

    /// Informs the protocol of the full set of peers it shares the system
    /// with (excluding itself), regardless of quorum membership. Called
    /// once at stack-construction time by layers that know the topology
    /// (the failure detector). Algorithms that resynchronize state on
    /// recovery use it to know whom to await answers from. Default: ignored.
    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        let _ = peers;
    }

    /// Informs time-aware layers of the driver's current time, before any
    /// event is delivered.
    ///
    /// The mutual-exclusion algorithms themselves are time-free and ignore
    /// this; the reliable transport wrapper
    /// ([`Reliable`](crate::transport::Reliable)) uses it to timestamp
    /// outgoing packets for retransmission scheduling. Drivers must call it
    /// with a monotonically non-decreasing clock (virtual ticks under the
    /// simulator, microseconds since start under the runtime).
    fn set_now(&mut self, now: u64) {
        let _ = now;
    }

    /// The earliest time at which this site needs [`on_timer`](Protocol::on_timer)
    /// called, or `None` if no timer is armed.
    ///
    /// Drivers poll this after every event they deliver to the site and
    /// schedule a wake-up accordingly. Spurious (early or duplicate)
    /// wake-ups are harmless.
    fn next_timer(&self) -> Option<u64> {
        None
    }

    /// A driver timer wake-up at time `now` (see [`next_timer`](Protocol::next_timer)).
    ///
    /// Time-free protocols ignore this; the reliable transport retransmits
    /// whatever is due.
    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        let _ = (now, fx);
    }

    /// Transport-layer counters, if a transport wrapper is present.
    ///
    /// `None` for bare protocols; [`Reliable`](crate::transport::Reliable)
    /// reports its retransmission/dedup statistics here so drivers can
    /// aggregate them into run metrics without knowing the wrapper type.
    fn transport_counters(&self) -> Option<crate::transport::TransportCounters> {
        None
    }

    /// Failure-detector counters, if a detector wrapper is present.
    ///
    /// `None` for bare protocols; [`Detector`](crate::detector::Detector)
    /// reports its heartbeat/suspicion statistics here, mirroring
    /// [`transport_counters`](Protocol::transport_counters).
    fn detector_counters(&self) -> Option<crate::detector::DetectorCounters> {
        None
    }
}

/// Supplies (possibly reconstructed) quorums for fault tolerance.
///
/// §6 of the paper: when a member of a site's quorum fails, the site
/// "executes the quorum construction algorithm to select another quorum"
/// avoiding the failed sites. Implementations live in `qmx-quorum` (the tree
/// quorum of Agrawal–El Abbadi is the canonical reconstructible coterie);
/// `qmx-core` only defines the interface so the protocol crate stays
/// construction-agnostic, exactly as the algorithm is.
pub trait QuorumSource: Send + Sync {
    /// Returns a quorum for `site` that avoids every site in `down`, or
    /// `None` if no live quorum exists (the site becomes inaccessible, as the
    /// paper prescribes).
    fn quorum_avoiding(&mut self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>>;

    /// Clones the source as a boxed trait object (lets protocol instances
    /// holding a source be `Clone`, which the model checker requires).
    fn box_clone(&self) -> Box<dyn QuorumSource>;
}

impl Clone for Box<dyn QuorumSource> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A fixed quorum assignment with no reconstruction capability.
///
/// Useful for running the fault-tolerant protocol with constructions that
/// tolerate failures without reconfiguration (e.g. majority-in-subgroup
/// schemes), or in tests: if any member is down the source reports the site
/// inaccessible.
#[derive(Debug, Clone)]
pub struct StaticQuorums {
    quorums: Vec<Vec<SiteId>>,
}

impl StaticQuorums {
    /// Creates a static source from one quorum per site (indexed by site id).
    pub fn new(quorums: Vec<Vec<SiteId>>) -> Self {
        StaticQuorums { quorums }
    }
}

impl QuorumSource for StaticQuorums {
    fn quorum_avoiding(&mut self, site: SiteId, down: &BTreeSet<SiteId>) -> Option<Vec<SiteId>> {
        let q = self.quorums.get(site.index())?.clone();
        if q.iter().any(|m| down.contains(m)) {
            None
        } else {
            Some(q)
        }
    }

    fn box_clone(&self) -> Box<dyn QuorumSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Dummy;
    impl MsgMeta for Dummy {
        fn kind(&self) -> MsgKind {
            MsgKind::Info
        }
    }

    #[test]
    fn effects_collects_and_drains() {
        let mut fx: Effects<Dummy> = Effects::new();
        assert!(!fx.entered_cs());
        fx.send(SiteId(1), Dummy);
        fx.send(SiteId(2), Dummy);
        fx.enter_cs();
        assert_eq!(fx.sends().len(), 2);
        let (sends, entered) = fx.drain();
        assert_eq!(sends.len(), 2);
        assert_eq!(entered, vec![ResourceId::SOLO]);
        // Drained: empty and entry list reset.
        let (sends, entered) = fx.drain();
        assert!(sends.is_empty());
        assert!(entered.is_empty());
    }

    #[test]
    fn take_sends_resets_entry_flag() {
        let mut fx: Effects<Dummy> = Effects::new();
        fx.enter_cs();
        fx.send(SiteId(0), Dummy);
        let sends = fx.take_sends();
        assert_eq!(sends.len(), 1);
        assert!(!fx.entered_cs());
    }

    #[test]
    fn site_id_ordering_and_index() {
        assert!(SiteId(1) < SiteId(2));
        assert_eq!(SiteId(7).index(), 7);
        assert_eq!(SiteId::from(3u32), SiteId(3));
        assert_eq!(SiteId(4).to_string(), "S4");
    }

    #[test]
    fn msg_kind_labels_are_distinct() {
        let labels: BTreeSet<&str> = MsgKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), MsgKind::ALL.len());
        assert_eq!(MsgKind::Transfer.to_string(), "transfer");
    }

    #[test]
    fn static_quorums_reports_inaccessible_when_member_down() {
        let mut src =
            StaticQuorums::new(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(1), SiteId(2)]]);
        let none_down = BTreeSet::new();
        assert_eq!(
            src.quorum_avoiding(SiteId(0), &none_down),
            Some(vec![SiteId(0), SiteId(1)])
        );
        let mut down = BTreeSet::new();
        down.insert(SiteId(1));
        assert_eq!(src.quorum_avoiding(SiteId(0), &down), None);
        assert_eq!(src.quorum_avoiding(SiteId(9), &none_down), None);
    }
}
