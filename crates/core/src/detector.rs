//! Heartbeat failure detection and crash-recovery for any [`Protocol`].
//!
//! The paper's §6 assumes an oracle: when site `i` fails, a `failure(i)`
//! notice simply *arrives* at every live site. [`Detector`] replaces that
//! oracle with an unreliable, timeout-driven failure detector in the style
//! of Chandra–Toueg: every site periodically sends a heartbeat to every
//! peer, and a peer not heard from within a timeout becomes *suspected*.
//! Unlike the oracle's notice, a suspicion can be **wrong** — a partition
//! or a burst of message loss silences a perfectly live peer — so the
//! detector splits the paper's single `failure(i)` event in two:
//!
//! * [`Protocol::on_site_suspected`] fires at `hb_timeout` and is
//!   *revocable*: the wrapped protocol may route around the suspect
//!   (withdraw requests, reconstruct quorums on the requester side) but
//!   must not reclaim anything the suspect may hold — the suspect could
//!   be alive inside the CS.
//! * [`Protocol::on_site_failure`] fires only after a further
//!   `fail_confirm` of silence and is *definitive*: it runs the full §6
//!   cleanup, including reclaiming and re-granting locks the dead site
//!   held.
//!
//! When a suspected peer is heard from again the detector *restores* it via
//! [`Protocol::on_site_restored`], and the wrapped protocol must reintegrate
//! it without ever violating mutual exclusion.
//!
//! Asymmetric (one-way) partitions get first-class treatment: every beat
//! carries a *suspicion echo* (does the sender suspect the recipient?) and
//! a *vouch list* (peers the sender hears directly). A persistent echo
//! from a peer we hear fine proves our outbound link is dead and yields a
//! **reciprocal suspicion** — the peer is routed around even though it is
//! audible — while third-party vouches defer the definitive `fail_confirm`
//! escalation for a suspect that is silent toward us but audibly alive
//! elsewhere (reclaiming a live site's locks would break mutual
//! exclusion).
//!
//! Crash *recovery* is the second half: a site restarted after a crash has
//! lost all protocol state. Its detector announces the restart with a
//! `Rejoin` message ([`Protocol::on_recover`] broadcasts it) and opens a
//! grace window during which the wrapped protocol can rebuild state from
//! peers' answers before resuming normal operation
//! ([`Protocol::on_rejoin_complete`] closes the window). Peers receiving
//! the `Rejoin` reset any per-peer connection state and answer with their
//! view ([`Protocol::on_peer_rejoined`]).
//!
//! Layering: the detector is the *outermost* wrapper —
//! `Detector<Reliable<DelayOptimal>>` — so heartbeats ride the raw channel
//! (they are periodic and idempotent; retransmitting them would defeat
//! their purpose), while every delivered message, heartbeat or not, counts
//! as evidence the sender is alive.

use crate::protocol::{Effects, MsgKind, MsgMeta, Protocol, ResourceId, SiteId};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Failure-detector timing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Gap between heartbeat rounds (each round beats every peer).
    pub hb_interval: u64,
    /// Silence threshold: a peer not heard from for this long is suspected.
    /// Must exceed `hb_interval` plus worst-case delivery delay, or every
    /// peer is falsely suspected at steady state. Request deadlines
    /// ([`Protocol::set_deadline`]) interact with this knob: a deadline
    /// below `hb_timeout` makes the client abort before the detector can
    /// even suspect the unreachable arbiter and re-route the quorum, so a
    /// deadline meant as a *last resort* (rather than a latency SLO with a
    /// retry loop on top) should comfortably exceed `hb_timeout`.
    pub hb_timeout: u64,
    /// Length of the rejoin grace window a recovered site keeps open for
    /// peers' answers before resuming full operation. The window is
    /// re-armed for another `rejoin_wait` whenever it elapses while the
    /// wrapped protocol still reports [`Protocol::rejoin_pending`] — the
    /// grace period cannot close on a fixed timeout while a peer's resync
    /// answer is outstanding.
    pub rejoin_wait: u64,
    /// Additional silence, beyond the suspicion at `hb_timeout`, after
    /// which a suspected peer's failure is *confirmed*: the wrapped
    /// protocol then receives the definitive
    /// [`Protocol::on_site_failure`] (which may reclaim locks the dead
    /// site held) rather than the revocable
    /// [`Protocol::on_site_suspected`]. This is the detector's *lease*:
    /// confirmation is only sound if a live site can never be silenced —
    /// by partition, loss, or scheduling — for `hb_timeout +
    /// fail_confirm` while holding the CS. Size it well above the longest
    /// plausible partition; a confirmation that later proves wrong is
    /// still *handled* (the site is restored on its next message) but can
    /// no longer guarantee mutual exclusion in the interim, exactly like
    /// the paper's §6 oracle model under an imperfect oracle.
    pub fail_confirm: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        // Defaults sized for the simulator's T = 1000 ticks: beat every 2T,
        // suspect after 3 missed rounds + slack, confirm the failure after
        // a further 32T of silence.
        DetectorConfig {
            hb_interval: 2_000,
            hb_timeout: 8_000,
            rejoin_wait: 4_000,
            fail_confirm: 32_000,
        }
    }
}

/// Failure-detector statistics, aggregated across sites by drivers
/// (mirrors [`TransportCounters`](crate::transport::TransportCounters)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorCounters {
    /// Heartbeat messages sent.
    pub heartbeats_sent: u64,
    /// Peers suspected after heartbeat silence.
    pub suspicions: u64,
    /// Suspicions proven wrong: the suspect was heard from again without a
    /// rejoin (it had never crashed).
    pub false_suspicions: u64,
    /// Rejoin announcements sent by this site after recovering.
    pub rejoins_sent: u64,
    /// Rejoin announcements received from recovered peers.
    pub rejoins_observed: u64,
    /// Suspicions escalated to confirmed failures after `fail_confirm`
    /// further silence (each fed the inner protocol's definitive
    /// `on_site_failure`).
    pub failures_confirmed: u64,
    /// Suspicion echoes received: a peer we can hear told us it cannot
    /// hear *us* — the signature of an asymmetric (one-way) partition.
    pub asymmetric_suspicions: u64,
    /// Failure confirmations deferred because a mutually-reachable peer
    /// recently vouched for the suspect (view reconciliation: one-way
    /// silence must not escalate to the definitive §6 reclamation while
    /// indirect liveness evidence exists).
    pub confirms_deferred: u64,
    /// Out-of-schedule beats sent in immediate reply to a suspicion echo
    /// (recovers loss-induced silence without waiting a full interval).
    pub echo_beats: u64,
    /// Peers suspected *reciprocally*: a peer we hear fine kept echoing
    /// that it cannot hear us for a full `hb_timeout` (despite our
    /// echo-reply beats), so the outbound link is treated as dead and the
    /// peer as unusable — without this, a requester on the live side of a
    /// one-way cut keeps the unreachable peer in its quorum forever. A
    /// reciprocal suspicion is withdrawn when the peer's echo clears, and
    /// never escalates to a confirmed failure while the peer stays
    /// audible (direct hearing is definitive liveness evidence).
    pub reciprocal_suspicions: u64,
}

impl DetectorCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &DetectorCounters) {
        self.heartbeats_sent += other.heartbeats_sent;
        self.suspicions += other.suspicions;
        self.false_suspicions += other.false_suspicions;
        self.rejoins_sent += other.rejoins_sent;
        self.rejoins_observed += other.rejoins_observed;
        self.failures_confirmed += other.failures_confirmed;
        self.asymmetric_suspicions += other.asymmetric_suspicions;
        self.confirms_deferred += other.confirms_deferred;
        self.echo_beats += other.echo_beats;
        self.reciprocal_suspicions += other.reciprocal_suspicions;
    }
}

/// Wire envelope of a [`Detector`]: heartbeats, rejoin announcements, or
/// the wrapped protocol's own messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HbMsg<M> {
    /// Periodic liveness beacon, carrying the sender's reconciled view of
    /// the network so one-way silence is detectable by both sides.
    Beat {
        /// Peers the sender has heard from **directly** within its own
        /// `hb_timeout` — gossip-style vouching. A receiver defers
        /// escalating a suspicion to a confirmed failure while anyone it
        /// can hear keeps vouching for the suspect: under an asymmetric
        /// cut the suspect is silent toward *us* but audibly alive to
        /// others, and reclaiming its locks would break mutual exclusion.
        /// Only direct evidence is forwarded (no transitive chains), so
        /// vouches for a genuinely crashed site dry up within one timeout.
        /// One list is built per beat round and shared by every beat in
        /// it; on the wire it is an ordinary length-prefixed sequence.
        alive: Arc<[SiteId]>,
        /// Suspicion echo: whether the sender currently suspects the
        /// *recipient*. A site that receives `true` from a peer it hears
        /// fine has detected an asymmetric partition (the peer cannot
        /// hear it) and answers with an immediate out-of-schedule beat —
        /// if the silence was loss rather than a cut, that ends the false
        /// suspicion a full interval early.
        suspects_you: bool,
    },
    /// "I crashed and restarted with fresh state" announcement. The
    /// `incarnation` is the sender's boot counter (see
    /// [`Protocol::set_incarnation`]): receivers use it to deduplicate
    /// re-broadcast announcements of the *same* restart (processing a
    /// duplicate would wrongly re-purge per-peer state accumulated since)
    /// and to fence transport-level stragglers from earlier incarnations.
    Rejoin {
        /// Sender's boot counter; `0` when the driver tracks none, in
        /// which case receivers process every announcement (legacy
        /// behaviour, safe only without duplicating fault injection).
        incarnation: u64,
    },
    /// A wrapped-protocol message.
    App(M),
}

impl<M: MsgMeta> MsgMeta for HbMsg<M> {
    fn kind(&self) -> MsgKind {
        match self {
            HbMsg::Beat { .. } | HbMsg::Rejoin { .. } => MsgKind::Info,
            HbMsg::App(m) => m.kind(),
        }
    }
}

/// What a [`Detector`] knows about one site.
#[derive(Debug, Clone, Copy, Default)]
struct PeerState {
    /// Whether the site is in `peers`: beaten, and suspected on silence.
    monitored: bool,
    /// Last time the site was heard from (any delivered message counts).
    last_heard: u64,
    /// Currently suspected.
    suspected: bool,
    /// Suspected reciprocally (persistent suspicion echo — see
    /// [`DetectorCounters::reciprocal_suspicions`]). Such a site is heard
    /// from constantly, so its suspicion is withdrawn by its echo clearing
    /// or a rejoin, never by mere hearing.
    reciprocal: bool,
    /// Deadline after which a still-silent suspect's failure is confirmed
    /// (escalated to the inner protocol's definitive `on_site_failure`).
    /// Set only while the site is suspected but unconfirmed.
    confirm_at: Option<u64>,
    /// Last time an out-of-schedule echo-reply beat was sent to the site
    /// (rate limit: at most one per `hb_interval`).
    last_echo: Option<u64>,
    /// Start of the current uninterrupted run of suspicion echoes from the
    /// site; cleared by any beat whose echo flag is off.
    echoed_since: Option<u64>,
    /// Highest rejoin incarnation processed for the site (0 = none), for
    /// deduplicating re-broadcast announcements of the same restart.
    last_rejoin_inc: u64,
}

impl PeerState {
    /// Whether the site has been silent for at least `hb_timeout` at `now`.
    fn silent(&self, hb_timeout: u64, now: u64) -> bool {
        self.last_heard + hb_timeout <= now
    }

    /// The earliest time the detector must wake on this site's behalf:
    /// its suspicion deadline while it is monitored and unsuspected, or
    /// its pending confirmation, whichever is earlier (`u64::MAX` for
    /// neither).
    fn deadline(&self, hb_timeout: u64) -> u64 {
        let silence = if self.monitored && !self.suspected {
            self.last_heard + hb_timeout
        } else {
            u64::MAX
        };
        silence.min(self.confirm_at.unwrap_or(u64::MAX))
    }
}

/// Heartbeat failure detector layered over an inner [`Protocol`].
///
/// See the [module documentation](self) for semantics. `peers` is the set
/// of sites monitored and beaten — normally every other site in the system,
/// independent of the inner protocol's quorum (quorums may be
/// reconstructed, but liveness monitoring is global).
///
/// Per-site state lives in one flat table indexed by [`SiteId`], sized to
/// the largest peer. Beside it, two compact arrays hold what every
/// message touches: each site's earliest deadline, so
/// [`Protocol::next_timer`] — which drivers call after every event — is
/// a min over 8 bytes per site, and each site's third-party vouch
/// expiry, so a received beat writes one word per vouched site. The
/// table grows to cover a site outside `peers`
/// once that site beats, announces a rejoin, or is named by an oracle
/// notice. Nothing the detector decides depends on such a site before
/// then: it is never timed for silence, its application traffic is not
/// recorded, and vouches for it are dropped. Memory stays O(largest site
/// id), not O(any id a peer names).
#[derive(Clone)]
pub struct Detector<P: Protocol> {
    inner: P,
    /// Scratch for the inner protocol's effects, empty between calls.
    inner_fx: Effects<P::Msg>,
    cfg: DetectorConfig,
    /// Monitored sites, in beat order.
    peers: Vec<SiteId>,
    now: u64,
    /// Time of the next heartbeat round.
    next_beat: u64,
    /// Per-site state, indexed by `SiteId`.
    by_site: Vec<PeerState>,
    /// `by_site[i].deadline(hb_timeout)`, refreshed by every path that
    /// changes a site's `last_heard`, `suspected` or `confirm_at`, or
    /// the table size.
    due: Vec<u64>,
    /// When the last third-party vouch for each site expires: the
    /// vouching beat's arrival + `hb_timeout`, 0 if none arrived since
    /// the start or the last recovery. Indirect liveness evidence gates
    /// confirmation, never suspicion.
    vouched_until: Vec<u64>,
    /// End of the post-recovery grace window, when open.
    rejoin_until: Option<u64>,
    /// This site's boot counter, stamped into outgoing `Rejoin`s.
    incarnation: u64,
    counters: DetectorCounters,
    /// Scratch for [`Detector::alive_set`], empty between calls.
    alive_scratch: Vec<SiteId>,
}

impl<P: Protocol> Detector<P> {
    /// Wraps `inner`, monitoring every site in `peers` (self is filtered
    /// out if present).
    pub fn new(mut inner: P, peers: Vec<SiteId>, cfg: DetectorConfig) -> Self {
        let me = inner.site();
        let peers: Vec<SiteId> = peers.into_iter().filter(|&p| p != me).collect();
        // The inner protocol must know the full membership so a crash
        // recovery can wait for a resync answer from *every* peer (the
        // answer-gated rejoin window) rather than only its current quorum.
        inner.set_peer_universe(&peers);
        let len = peers.iter().map(|p| p.index() + 1).max().unwrap_or(0);
        let mut by_site = vec![PeerState::default(); len];
        for p in &peers {
            by_site[p.index()].monitored = true;
        }
        let due = by_site.iter().map(|s| s.deadline(cfg.hb_timeout)).collect();
        Detector {
            inner,
            inner_fx: Effects::new(),
            cfg,
            peers,
            now: 0,
            next_beat: 0,
            by_site,
            due,
            vouched_until: vec![0; len],
            rejoin_until: None,
            incarnation: 0,
            counters: DetectorCounters::default(),
            alive_scratch: Vec::new(),
        }
    }

    /// The wrapped protocol (assertions in tests).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Currently suspected peers.
    pub fn suspected(&self) -> BTreeSet<SiteId> {
        self.sites_where(|s| s.suspected).collect()
    }

    /// Whether this site is inside its post-recovery rejoin window.
    pub fn rejoining(&self) -> bool {
        self.rejoin_until.is_some()
    }

    /// This detector's own counters (un-aggregated).
    pub fn counters(&self) -> DetectorCounters {
        self.counters
    }

    /// Runs `f` against the inner protocol with the scratch effects
    /// buffer, then re-wraps the produced sends as [`HbMsg::App`].
    fn with_inner<R>(
        &mut self,
        fx: &mut Effects<HbMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Effects<P::Msg>) -> R,
    ) -> R {
        let r = f(&mut self.inner, &mut self.inner_fx);
        for (to, msg) in self.inner_fx.drain_sends() {
            fx.send(to, HbMsg::App(msg));
        }
        for rid in self.inner_fx.drain_entered() {
            fx.enter_cs_r(rid);
        }
        r
    }

    /// Grows the table to cover `site`.
    fn track(&mut self, site: SiteId) {
        let len = site.index() + 1;
        if len > self.by_site.len() {
            self.by_site.resize(len, PeerState::default());
            self.due.resize(len, u64::MAX);
            self.vouched_until.resize(len, 0);
        }
    }

    /// Re-reads site `i`'s cached deadline after its state changed.
    fn refresh_due(&mut self, i: usize) {
        self.due[i] = self.by_site[i].deadline(self.cfg.hb_timeout);
    }

    /// The sites whose state satisfies `f`, in `SiteId` order.
    fn sites_where<'a>(
        &'a self,
        f: impl Fn(&PeerState) -> bool + 'a,
    ) -> impl Iterator<Item = SiteId> + 'a {
        (0u32..)
            .zip(&self.by_site)
            .filter(move |(_, s)| f(s))
            .map(|(i, _)| SiteId(i))
    }

    /// Peers heard from **directly** within the suspicion timeout — the
    /// vouch list piggybacked on every outgoing beat. Filled into the
    /// scratch list first, so the shared list is one allocation of the
    /// exact size.
    fn alive_set(&mut self) -> Arc<[SiteId]> {
        self.alive_scratch.extend(
            self.peers
                .iter()
                .copied()
                .filter(|p| !self.by_site[p.index()].silent(self.cfg.hb_timeout, self.now)),
        );
        let alive = Arc::from(&self.alive_scratch[..]);
        self.alive_scratch.clear();
        alive
    }

    /// Sends one heartbeat round to every peer, each beat carrying the
    /// sender's direct-liveness view and a per-recipient suspicion echo.
    fn beat_all(&mut self, fx: &mut Effects<HbMsg<P::Msg>>) {
        let alive = self.alive_set();
        for &p in &self.peers {
            fx.send(
                p,
                HbMsg::Beat {
                    alive: Arc::clone(&alive),
                    suspects_you: self.by_site[p.index()].suspected,
                },
            );
            self.counters.heartbeats_sent += 1;
        }
    }

    /// Processes the reconciliation payload of a received beat: indirect
    /// vouches refresh the confirmation gate, and a suspicion echo (the
    /// sender cannot hear us) is answered with an immediate beat.
    fn note_view(
        &mut self,
        from: SiteId,
        alive: &[SiteId],
        suspects_you: bool,
        fx: &mut Effects<HbMsg<P::Msg>>,
    ) {
        let (me, now) = (self.inner.site(), self.now);
        // `now` never decreases, so the latest vouch is the last written.
        // A site the table does not cover cannot be confirmed before this
        // vouch expires, so it is dropped (see `Detector`). The receiver
        // and the sender never count: their entries are written with the
        // rest and then put back, which keeps two data-dependent branches
        // out of a loop that runs for every site named by every beat.
        let until = now + self.cfg.hb_timeout;
        let vouched = &mut self.vouched_until[..];
        let kept = [me, from].map(|s| (s.index(), vouched.get(s.index()).copied()));
        for &b in alive {
            if let Some(v) = vouched.get_mut(b.index()) {
                *v = until;
            }
        }
        for (i, old) in kept {
            if let Some(old) = old {
                vouched[i] = old;
            }
        }
        let i = from.index();
        if suspects_you {
            // We hear `from` fine, yet it cannot hear us: asymmetric
            // silence. Reply out of schedule (rate-limited to one per
            // interval) — under plain loss this ends the false suspicion
            // without waiting for the next beat round; under a true
            // directed cut the reply dies on the link, which is fine.
            self.counters.asymmetric_suspicions += 1;
            let due = self.by_site[i]
                .last_echo
                .map_or(0, |t| t + self.cfg.hb_interval);
            if now >= due {
                self.by_site[i].last_echo = Some(now);
                self.counters.echo_beats += 1;
                let beat = HbMsg::Beat {
                    alive: self.alive_set(),
                    suspects_you: self.by_site[i].suspected,
                };
                fx.send(from, beat);
            }
            // An echo that *persists* for a full timeout — surviving the
            // echo replies above — means our outbound link to `from` is
            // really dead, not lossy: suspect it reciprocally so the
            // wrapped protocol routes around the peer it can hear but not
            // reach. No confirmation lease is armed: we hear the peer
            // directly, so it is definitively alive and reclaiming its
            // locks would be unsound.
            let s = &mut self.by_site[i];
            let since = *s.echoed_since.get_or_insert(now);
            if !s.suspected && now >= since + self.cfg.hb_timeout {
                s.suspected = true;
                s.reciprocal = true;
                self.refresh_due(i);
                self.counters.reciprocal_suspicions += 1;
                self.with_inner(fx, |p, ifx| p.on_site_suspected(from, ifx));
            }
        } else {
            let s = &mut self.by_site[i];
            s.echoed_since = None;
            if std::mem::take(&mut s.reciprocal) {
                // The peer hears us again: the one-way cut healed, so the
                // reciprocal suspicion is withdrawn.
                s.suspected = false;
                self.refresh_due(i);
                self.with_inner(fx, |p, ifx| p.on_site_restored(from, ifx));
            }
        }
    }

    /// Records liveness evidence from `from`, which the table must cover;
    /// if `from` was suspected, the suspicion ends: restoration (false
    /// suspicion) or rejoin handling. `rejoin` carries the announcement's
    /// incarnation when the message was a [`HbMsg::Rejoin`].
    fn heard_from(&mut self, from: SiteId, rejoin: Option<u64>, fx: &mut Effects<HbMsg<P::Msg>>) {
        let i = from.index();
        let s = &mut self.by_site[i];
        s.last_heard = self.now;
        s.confirm_at = None;
        // A reciprocal suspect is heard from constantly — hearing it is
        // not news. Its suspicion ends when the peer's echo clears (see
        // `note_view`) or when it rejoins after a genuine restart.
        let was_suspected = !s.reciprocal && std::mem::take(&mut s.suspected);
        let mut rejoined = None;
        if let Some(inc) = rejoin {
            s.reciprocal = false;
            s.echoed_since = None;
            s.suspected = false;
            // A rejoin window re-broadcasts the same announcement until
            // its resync answers arrive, and fault injection can
            // duplicate the raw channel outright. Processing a duplicate
            // would re-purge per-peer state accumulated *since* the
            // restart — a safety hazard — so each incarnation is handled
            // at most once. Incarnation 0 means the driver tracks no boot
            // counter; preserve the legacy process-every-announcement
            // behaviour for it.
            if inc == 0 || s.last_rejoin_inc < inc {
                s.last_rejoin_inc = inc;
                rejoined = Some(inc);
            }
        }
        self.refresh_due(i);
        if let Some(inc) = rejoined {
            self.counters.rejoins_observed += 1;
            self.with_inner(fx, |p, ifx| p.on_peer_rejoined(from, inc, ifx));
        } else if rejoin.is_none() && was_suspected {
            self.counters.false_suspicions += 1;
            self.with_inner(fx, |p, ifx| p.on_site_restored(from, ifx));
        }
    }
}

impl<P: Protocol> fmt::Debug for Detector<P>
where
    P: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // For debugging: every field that decides what the detector does
        // next, including `now`, which its deadlines compare against.
        // `by_site` renders as a list indexed by site id.
        f.debug_struct("Detector")
            .field("inner", &self.inner)
            .field("now", &self.now)
            .field("next_beat", &self.next_beat)
            .field("by_site", &self.by_site)
            .field("vouched_until", &self.vouched_until)
            .field("rejoin_until", &self.rejoin_until)
            .field("incarnation", &self.incarnation)
            .finish()
    }
}

impl<P: Protocol> Protocol for Detector<P> {
    type Msg = HbMsg<P::Msg>;

    fn site(&self) -> SiteId {
        self.inner.site()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg>) {
        // Treat every peer as live as of now and open the beat schedule.
        // No immediate beat round: the first beats go out one interval
        // from now. This matters on crash-recovery, where drivers call
        // `on_start` and then `on_recover` — an immediate beat would race
        // ahead of the `Rejoin` announcement and make peers take the
        // false-suspicion *restore* path for a site that in fact lost all
        // its state.
        for p in &self.peers {
            let s = &mut self.by_site[p.index()];
            s.last_heard = self.now;
            self.due[p.index()] = s.deadline(self.cfg.hb_timeout);
        }
        self.next_beat = self.now + self.cfg.hb_interval;
        self.with_inner(fx, |p, ifx| p.on_start(ifx));
    }

    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.with_inner(fx, |p, ifx| p.request_cs(ifx));
    }

    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.with_inner(fx, |p, ifx| p.release_cs(ifx));
    }

    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        match msg {
            HbMsg::Beat {
                alive,
                suspects_you,
            } => {
                self.track(from);
                self.heard_from(from, None, fx);
                self.note_view(from, &alive, suspects_you, fx);
            }
            HbMsg::Rejoin { incarnation } => {
                self.track(from);
                self.heard_from(from, Some(incarnation), fx);
            }
            HbMsg::App(m) => {
                // Application traffic from a site the table does not cover
                // is not recorded (see `Detector`).
                if from.index() < self.by_site.len() {
                    self.heard_from(from, None, fx);
                }
                self.with_inner(fx, |p, ifx| p.handle(from, m, ifx));
            }
        }
    }

    fn in_cs(&self) -> bool {
        self.inner.in_cs()
    }

    fn wants_cs(&self) -> bool {
        self.inner.wants_cs()
    }

    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        self.with_inner(fx, |p, ifx| p.abort_cs(ifx))
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
        self.with_inner(fx, |p, ifx| p.request_cs_r(rid, ifx));
    }

    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.with_inner(fx, |p, ifx| p.release_cs_r(rid, ifx));
    }

    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        self.with_inner(fx, |p, ifx| p.abort_cs_r(rid, ifx))
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
        // An oracle notice (still supported for legacy drivers) is
        // definitive by assumption: it enters the suspicion set (so a
        // later sighting restores the site exactly like any false
        // suspicion would) and passes straight through to the inner
        // protocol with no `fail_confirm` lease.
        self.track(failed);
        let s = &mut self.by_site[failed.index()];
        s.suspected = true;
        s.confirm_at = None;
        self.refresh_due(failed.index());
        self.with_inner(fx, |p, ifx| p.on_site_failure(failed, ifx));
    }

    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        // Fresh restart: everyone is presumed live, announce the rejoin
        // and open the grace window for peers' state answers.
        let incarnation = self.incarnation;
        for &p in &self.peers {
            self.by_site[p.index()].last_heard = self.now;
            fx.send(p, HbMsg::Rejoin { incarnation });
        }
        for (s, due) in self.by_site.iter_mut().zip(&mut self.due) {
            *s = PeerState {
                monitored: s.monitored,
                last_heard: s.last_heard,
                last_rejoin_inc: s.last_rejoin_inc,
                ..PeerState::default()
            };
            *due = s.deadline(self.cfg.hb_timeout);
        }
        self.vouched_until.fill(0);
        self.counters.rejoins_sent += 1;
        self.next_beat = self.now + self.cfg.hb_interval;
        self.rejoin_until = Some(self.now + self.cfg.rejoin_wait);
        self.with_inner(fx, |p, ifx| p.on_recover(ifx));
    }

    fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
        self.inner.set_incarnation(incarnation);
    }

    fn set_now(&mut self, now: u64) {
        self.now = self.now.max(now);
        self.inner.set_now(now);
    }

    fn next_timer(&self) -> Option<u64> {
        // The suspicion deadline of every unsuspected peer and every
        // pending confirmation, cached per site. A plain compare loop: on
        // the x86-64 baseline the vectorized `u64` minimum that
        // `Iterator::min` compiles to is twice as slow at this length.
        let mut sites = u64::MAX;
        for &d in &self.due {
            if d < sites {
                sites = d;
            }
        }
        debug_assert_eq!(
            sites,
            self.by_site
                .iter()
                .map(|s| s.deadline(self.cfg.hb_timeout))
                .min()
                .unwrap_or(u64::MAX),
            "cached detector deadlines out of date"
        );
        let mut due = self.next_beat.min(sites);
        if let Some(r) = self.rejoin_until {
            due = due.min(r);
        }
        match self.inner.next_timer() {
            Some(t) => Some(due.min(t)),
            None => Some(due),
        }
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        self.now = self.now.max(now);
        if self.now >= self.next_beat {
            if self.rejoin_until.is_some() {
                // While the rejoin window is open, each beat round
                // re-broadcasts the announcement instead: a peer whose
                // original (raw-channel, hence lossy) `Rejoin` was
                // dropped would otherwise never answer, and the
                // answer-gated window would never close. Peers that did
                // get it deduplicate by incarnation.
                let incarnation = self.incarnation;
                for &p in &self.peers {
                    fx.send(p, HbMsg::Rejoin { incarnation });
                    self.counters.heartbeats_sent += 1;
                }
            } else {
                self.beat_all(fx);
            }
            self.next_beat = self.now + self.cfg.hb_interval;
        }
        // Fire suspicions for peers silent past the timeout.
        let hb_timeout = self.cfg.hb_timeout;
        let lease_end = self.now.saturating_add(self.cfg.fail_confirm);
        let newly: Vec<SiteId> = self
            .peers
            .iter()
            .copied()
            .filter(|p| {
                let s = &self.by_site[p.index()];
                !s.suspected && s.silent(hb_timeout, self.now)
            })
            .collect();
        for p in newly {
            let s = &mut self.by_site[p.index()];
            s.suspected = true;
            s.confirm_at = Some(lease_end);
            self.refresh_due(p.index());
            self.counters.suspicions += 1;
            self.with_inner(fx, |proto, ifx| proto.on_site_suspected(p, ifx));
        }
        // A reciprocal suspect that also goes silent toward us is
        // re-classified as a plain silence suspicion: the confirmation
        // lease starts, so a crash of an already reciprocally-suspected
        // peer is still eventually confirmed (and normal hearing resumes
        // withdrawing it). The inner protocol already got its
        // `on_site_suspected`.
        for (s, due) in self.by_site.iter_mut().zip(&mut self.due) {
            if s.reciprocal && s.silent(hb_timeout, self.now) {
                s.reciprocal = false;
                s.echoed_since = None;
                s.confirm_at = Some(lease_end);
                *due = s.deadline(hb_timeout);
            }
        }
        // Escalate suspicions that stayed silent through the whole
        // confirmation lease to definitive failures.
        let confirmed: Vec<SiteId> = self
            .sites_where(|s| s.confirm_at.is_some_and(|c| c <= self.now))
            .collect();
        for p in confirmed {
            // View reconciliation: a peer we can hear vouched for the
            // suspect within the timeout — it is silent toward us but
            // audibly alive elsewhere (asymmetric cut), so the definitive
            // reclamation must wait until the indirect evidence expires.
            // For a genuinely crashed site every voucher goes silent about
            // it within one timeout, so confirmation is deferred by at
            // most ~hb_timeout, never forever.
            let i = p.index();
            let vouched_until = self.vouched_until[i];
            if vouched_until > self.now {
                self.by_site[i].confirm_at = Some(vouched_until);
                self.refresh_due(i);
                self.counters.confirms_deferred += 1;
                continue;
            }
            self.by_site[i].confirm_at = None;
            self.refresh_due(i);
            self.counters.failures_confirmed += 1;
            self.with_inner(fx, |proto, ifx| proto.on_site_failure(p, ifx));
        }
        if self.rejoin_until.is_some_and(|r| r <= self.now) {
            if self.inner.rejoin_pending() {
                // A resync answer is still outstanding — re-arm the
                // window rather than resume on a blind timeout (the
                // answer may simply be slower than `rejoin_wait`; see
                // `DetectorConfig::rejoin_wait`).
                self.rejoin_until = Some(self.now + self.cfg.rejoin_wait);
            } else {
                self.rejoin_until = None;
                self.with_inner(fx, |p, ifx| p.on_rejoin_complete(ifx));
            }
        }
        self.with_inner(fx, |p, ifx| p.on_timer(now, ifx));
    }

    fn transport_counters(&self) -> Option<crate::transport::TransportCounters> {
        self.inner.transport_counters()
    }

    fn detector_counters(&self) -> Option<DetectorCounters> {
        let mut c = self.counters;
        if let Some(inner) = self.inner.detector_counters() {
            c.merge(&inner);
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal inner protocol recording the hook calls it receives.
    #[derive(Debug, Clone, Default)]
    struct Probe {
        site: SiteId,
        suspected: Vec<SiteId>,
        failed: Vec<SiteId>,
        restored: Vec<SiteId>,
        rejoined: Vec<(SiteId, u64)>,
        recovered: bool,
        rejoin_completed: bool,
        /// When set, reports an outstanding resync answer so the rejoin
        /// window must stay open.
        gate_rejoin: bool,
    }

    #[derive(Debug, Clone)]
    struct NoMsg;
    impl MsgMeta for NoMsg {
        fn kind(&self) -> MsgKind {
            MsgKind::Info
        }
    }

    impl Protocol for Probe {
        type Msg = NoMsg;
        fn site(&self) -> SiteId {
            self.site
        }
        fn request_cs(&mut self, _fx: &mut Effects<NoMsg>) {}
        fn release_cs(&mut self, _fx: &mut Effects<NoMsg>) {}
        fn handle(&mut self, _from: SiteId, _msg: NoMsg, _fx: &mut Effects<NoMsg>) {}
        fn in_cs(&self) -> bool {
            false
        }
        fn wants_cs(&self) -> bool {
            false
        }
        fn on_site_suspected(&mut self, s: SiteId, _fx: &mut Effects<NoMsg>) {
            self.suspected.push(s);
        }
        fn on_site_failure(&mut self, s: SiteId, _fx: &mut Effects<NoMsg>) {
            self.failed.push(s);
        }
        fn on_site_restored(&mut self, s: SiteId, _fx: &mut Effects<NoMsg>) {
            self.restored.push(s);
        }
        fn on_peer_rejoined(&mut self, s: SiteId, incarnation: u64, _fx: &mut Effects<NoMsg>) {
            self.rejoined.push((s, incarnation));
        }
        fn on_recover(&mut self, _fx: &mut Effects<NoMsg>) {
            self.recovered = true;
        }
        fn on_rejoin_complete(&mut self, _fx: &mut Effects<NoMsg>) {
            self.rejoin_completed = true;
        }
        fn rejoin_pending(&self) -> bool {
            self.gate_rejoin
        }
    }

    fn det(n: u32) -> Detector<Probe> {
        Detector::new(
            Probe::default(),
            (0..n).map(SiteId).collect(),
            DetectorConfig {
                hb_interval: 10,
                hb_timeout: 35,
                rejoin_wait: 20,
                fail_confirm: 100,
            },
        )
    }

    /// A plain beat with no vouches and no suspicion echo.
    fn beat() -> HbMsg<NoMsg> {
        HbMsg::Beat {
            alive: Arc::new([]),
            suspects_you: false,
        }
    }

    /// A beat vouching for `alive` peers.
    fn vouch(alive: &[u32]) -> HbMsg<NoMsg> {
        HbMsg::Beat {
            alive: alive.iter().copied().map(SiteId).collect(),
            suspects_you: false,
        }
    }

    #[test]
    fn beats_every_interval() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        let beats = fx
            .take_sends()
            .iter()
            .filter(|(_, m)| matches!(m, HbMsg::Beat { .. }))
            .count();
        assert_eq!(beats, 0, "no beat round at start (see on_start)");
        assert_eq!(d.next_timer(), Some(10));
        d.set_now(10);
        d.on_timer(10, &mut fx);
        let beats = fx
            .take_sends()
            .iter()
            .filter(|(_, m)| matches!(m, HbMsg::Beat { .. }))
            .count();
        assert_eq!(beats, 2, "one beat per peer each interval");
        assert_eq!(d.counters().heartbeats_sent, 2);
    }

    #[test]
    fn silence_causes_suspicion_and_message_restores() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Peer 1 keeps beating, peer 2 goes silent.
        for t in [10u64, 20, 30, 40] {
            d.set_now(t);
            d.handle(SiteId(1), beat(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(d.suspected().contains(&SiteId(2)));
        assert_eq!(d.counters().suspicions, 1);
        assert_eq!(d.inner().suspected, vec![SiteId(2)]);
        // Peer 2 speaks again: false suspicion, restore.
        d.set_now(45);
        d.handle(SiteId(2), beat(), &mut fx);
        assert!(d.suspected().is_empty());
        assert_eq!(d.counters().false_suspicions, 1);
        assert_eq!(d.inner().restored, vec![SiteId(2)]);
    }

    #[test]
    fn rejoin_is_not_a_false_suspicion() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.set_now(40);
        d.on_timer(40, &mut fx);
        assert_eq!(d.suspected().len(), 2);
        d.set_now(50);
        d.handle(SiteId(2), HbMsg::Rejoin { incarnation: 1 }, &mut fx);
        assert!(!d.suspected().contains(&SiteId(2)));
        assert_eq!(d.counters().false_suspicions, 0);
        assert_eq!(d.counters().rejoins_observed, 1);
        assert_eq!(d.inner().rejoined, vec![(SiteId(2), 1)]);
    }

    #[test]
    fn duplicate_rejoin_same_incarnation_is_processed_once() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.handle(SiteId(2), HbMsg::Rejoin { incarnation: 1 }, &mut fx);
        d.handle(SiteId(2), HbMsg::Rejoin { incarnation: 1 }, &mut fx);
        assert_eq!(d.inner().rejoined, vec![(SiteId(2), 1)]);
        assert_eq!(d.counters().rejoins_observed, 1);
        // A *new* incarnation (another crash) is processed again.
        d.handle(SiteId(2), HbMsg::Rejoin { incarnation: 2 }, &mut fx);
        assert_eq!(d.inner().rejoined, vec![(SiteId(2), 1), (SiteId(2), 2)]);
    }

    #[test]
    fn recover_announces_and_grace_window_closes() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.set_now(100);
        d.on_recover(&mut fx);
        assert!(d.rejoining());
        assert!(d.inner().recovered);
        let rejoins = fx
            .take_sends()
            .iter()
            .filter(|(_, m)| matches!(m, HbMsg::Rejoin { .. }))
            .count();
        assert_eq!(rejoins, 2);
        assert_eq!(d.counters().rejoins_sent, 1);
        // Window closes at 120.
        assert_eq!(d.next_timer(), Some(110)); // next beat first
        d.set_now(120);
        d.on_timer(120, &mut fx);
        assert!(!d.rejoining());
        assert!(d.inner().rejoin_completed);
    }

    #[test]
    fn oracle_notice_enters_suspicion_set_and_sighting_restores() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.on_site_failure(SiteId(1), &mut fx);
        assert!(d.suspected().contains(&SiteId(1)));
        d.set_now(5);
        d.handle(SiteId(1), beat(), &mut fx);
        // Heard again: restored, but counted as false suspicion since the
        // sighting (not a rejoin) contradicts the notice.
        assert!(!d.suspected().contains(&SiteId(1)));
        assert_eq!(d.counters().false_suspicions, 1);
    }

    #[test]
    fn any_app_message_counts_as_liveness() {
        let mut d = det(2);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.set_now(30);
        d.handle(SiteId(1), HbMsg::App(NoMsg), &mut fx);
        // Heard at 30, timeout 35: not suspected until 65.
        for t in [40, 64] {
            d.set_now(t);
            d.on_timer(t, &mut fx);
            assert!(d.suspected().is_empty(), "suspected at {t}");
        }
        d.set_now(65);
        d.on_timer(65, &mut fx);
        assert!(d.suspected().contains(&SiteId(1)));
    }

    #[test]
    fn counters_merge() {
        let mut a = DetectorCounters {
            heartbeats_sent: 1,
            suspicions: 2,
            false_suspicions: 3,
            rejoins_sent: 4,
            rejoins_observed: 5,
            failures_confirmed: 6,
            asymmetric_suspicions: 7,
            confirms_deferred: 8,
            echo_beats: 9,
            reciprocal_suspicions: 10,
        };
        a.merge(&a.clone());
        assert_eq!(a.heartbeats_sent, 2);
        assert_eq!(a.rejoins_observed, 10);
        assert_eq!(a.failures_confirmed, 12);
        assert_eq!(a.asymmetric_suspicions, 14);
        assert_eq!(a.confirms_deferred, 16);
        assert_eq!(a.echo_beats, 18);
        assert_eq!(a.reciprocal_suspicions, 20);
    }

    #[test]
    fn suspicion_escalates_to_confirmed_failure_after_lease() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Peer 1 keeps beating; peer 2 is silent forever.
        for t in (10..=40).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), beat(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert_eq!(d.inner().suspected, vec![SiteId(2)]);
        assert!(d.inner().failed.is_empty(), "no confirmation yet");
        // Suspected at t=40, fail_confirm=100: confirmation due at 140.
        assert!(d.next_timer().is_some_and(|t| t <= 140));
        for t in (50..=140).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), beat(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert_eq!(d.inner().failed, vec![SiteId(2)]);
        assert_eq!(d.counters().failures_confirmed, 1);
        // Even a confirmed site is restored when heard from again.
        d.set_now(150);
        d.handle(SiteId(2), beat(), &mut fx);
        assert_eq!(d.inner().restored, vec![SiteId(2)]);
    }

    #[test]
    fn hearing_from_suspect_cancels_pending_confirmation() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.set_now(40);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(40, &mut fx);
        assert!(d.suspected().contains(&SiteId(2)));
        d.set_now(50);
        d.handle(SiteId(2), beat(), &mut fx);
        // Silence again: the confirmation clock must restart from the new
        // suspicion, not run on from the first.
        d.set_now(120);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(120, &mut fx);
        assert!(d.suspected().contains(&SiteId(2)));
        assert!(
            d.inner().failed.is_empty(),
            "re-suspected at 120, confirm not before 220"
        );
        d.set_now(220);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(220, &mut fx);
        assert_eq!(d.inner().failed, vec![SiteId(2)]);
    }

    #[test]
    fn app_message_from_suspect_restores_like_a_beat() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.set_now(40);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(40, &mut fx);
        fx.take_sends();
        assert!(d.suspected().contains(&SiteId(2)));
        // An application message is liveness evidence too: the suspicion
        // is withdrawn and the restore hook fires before the inner
        // protocol handles the payload.
        d.set_now(60);
        d.handle(SiteId(2), HbMsg::App(NoMsg), &mut fx);
        assert!(!d.suspected().contains(&SiteId(2)));
        assert_eq!(d.counters().false_suspicions, 1);
        assert_eq!(d.inner().restored, vec![SiteId(2)]);
        assert!(d.inner().failed.is_empty());
    }

    #[test]
    fn lease_edge_message_at_deadline_withdraws_suspicion() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Suspect peer 2 at t=40: the confirmation lease runs to exactly
        // t=140 (fail_confirm=100).
        d.set_now(40);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(40, &mut fx);
        fx.take_sends();
        assert!(d.suspected().contains(&SiteId(2)));
        // The suspect's message lands at t == confirm deadline and is
        // processed before the timer: the suspicion is withdrawn exactly
        // at the lease edge and no failure is ever confirmed.
        d.set_now(140);
        d.handle(SiteId(2), beat(), &mut fx);
        d.on_timer(140, &mut fx);
        assert!(!d.suspected().contains(&SiteId(2)));
        assert_eq!(d.counters().false_suspicions, 1);
        assert_eq!(d.counters().failures_confirmed, 0);
        assert_eq!(d.inner().restored, vec![SiteId(2)]);
        assert!(d.inner().failed.is_empty());
    }

    #[test]
    fn lease_edge_timer_at_deadline_confirms_failure() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        d.set_now(40);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(40, &mut fx);
        fx.take_sends();
        assert!(d.suspected().contains(&SiteId(2)));
        // One tick before the deadline the suspicion is still only a
        // suspicion.
        d.set_now(139);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(139, &mut fx);
        assert!(d.inner().failed.is_empty());
        // The timer firing exactly at the deadline (c <= now with
        // c == now) escalates to a definitive failure.
        d.set_now(140);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(140, &mut fx);
        assert_eq!(d.inner().failed, vec![SiteId(2)]);
        assert_eq!(d.counters().failures_confirmed, 1);
        // A message arriving one tick *after* confirmation restores the
        // site but cannot undo the confirmed failure count.
        d.set_now(141);
        d.handle(SiteId(2), beat(), &mut fx);
        assert_eq!(d.inner().restored, vec![SiteId(2)]);
        assert_eq!(d.counters().failures_confirmed, 1);
    }

    #[test]
    fn rejoin_window_extends_while_inner_reports_pending() {
        let mut d = det(3);
        d.inner.gate_rejoin = true;
        let mut fx = Effects::new();
        d.set_now(100);
        d.on_recover(&mut fx);
        fx.take_sends();
        // Window would close at 120, but an answer is outstanding.
        d.set_now(120);
        d.on_timer(120, &mut fx);
        assert!(d.rejoining(), "window re-armed while answers pending");
        assert!(!d.inner().rejoin_completed);
        // Beat rounds inside the window re-broadcast the announcement so
        // peers that lost the original raw-channel Rejoin still answer.
        let rejoins = fx
            .take_sends()
            .iter()
            .filter(|(_, m)| matches!(m, HbMsg::Rejoin { .. }))
            .count();
        assert!(rejoins >= 2, "re-broadcast to both peers, got {rejoins}");
        // The answers arrive; the next expiry closes the window.
        d.inner.gate_rejoin = false;
        d.set_now(140);
        d.on_timer(140, &mut fx);
        assert!(!d.rejoining());
        assert!(d.inner().rejoin_completed);
    }

    /// Asymmetric-partition regression: peer 2 is silent toward us (its
    /// link to us is cut) but peer 1 keeps vouching for it — hearing it
    /// fine on the side of the network we cannot see. The suspicion fires
    /// (we genuinely cannot reach 2's replies), but the definitive
    /// confirmation — which would reclaim locks 2 may hold — must be
    /// deferred for as long as the vouching continues, and proceed once
    /// the vouches dry up.
    #[test]
    fn third_party_vouch_defers_confirmation_until_evidence_expires() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Peer 1 beats every 10 ticks, always vouching for peer 2.
        for t in (10..=40).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), vouch(&[2]), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        // Direct silence did its job: 2 is suspected (routing-around is
        // needed for liveness) ...
        assert!(d.suspected().contains(&SiteId(2)));
        assert_eq!(d.inner().suspected, vec![SiteId(2)]);
        // ... and the confirmation lease runs to 140. Keep vouching past
        // it: the escalation must keep being deferred.
        for t in (50..=200).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), vouch(&[2]), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(
            d.inner().failed.is_empty(),
            "confirmation must wait while peer 1 vouches for the suspect"
        );
        assert!(d.counters().confirms_deferred > 0);
        // Peer 1 stops vouching (it too lost peer 2): the last vouch was
        // at t=200, so the indirect evidence expires at 235 and the
        // confirmation goes through at the next timer after that.
        for t in (210..=250).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), vouch(&[]), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert_eq!(
            d.inner().failed,
            vec![SiteId(2)],
            "vouches dried up: the confirmation must proceed"
        );
        assert_eq!(d.counters().failures_confirmed, 1);
    }

    #[test]
    fn suspicion_echo_triggers_immediate_rate_limited_reply() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Peer 1 says it suspects us while we hear it fine: asymmetric
        // silence detected, answered with an immediate beat.
        d.set_now(5);
        d.handle(
            SiteId(1),
            HbMsg::Beat {
                alive: Arc::new([]),
                suspects_you: true,
            },
            &mut fx,
        );
        let replies: Vec<_> = fx
            .take_sends()
            .into_iter()
            .filter(|(to, m)| *to == SiteId(1) && matches!(m, HbMsg::Beat { .. }))
            .collect();
        assert_eq!(replies.len(), 1, "one out-of-schedule echo reply");
        assert_eq!(d.counters().asymmetric_suspicions, 1);
        assert_eq!(d.counters().echo_beats, 1);
        // A second echo inside the same interval is counted but not
        // answered again (rate limit: one reply per hb_interval).
        d.set_now(9);
        d.handle(
            SiteId(1),
            HbMsg::Beat {
                alive: Arc::new([]),
                suspects_you: true,
            },
            &mut fx,
        );
        assert!(fx.take_sends().is_empty());
        assert_eq!(d.counters().asymmetric_suspicions, 2);
        assert_eq!(d.counters().echo_beats, 1);
        // Past the interval the reply fires again.
        d.set_now(15);
        d.handle(
            SiteId(1),
            HbMsg::Beat {
                alive: Arc::new([]),
                suspects_you: true,
            },
            &mut fx,
        );
        assert_eq!(fx.take_sends().len(), 1);
        assert_eq!(d.counters().echo_beats, 2);
    }

    /// A beat from `from` that suspects the recipient.
    fn echo() -> HbMsg<NoMsg> {
        HbMsg::Beat {
            alive: Arc::new([]),
            suspects_you: true,
        }
    }

    /// One-way-cut regression: peer 1 hears nothing from us (our outbound
    /// link is dead) and keeps echoing its suspicion, while we hear its
    /// every beat. Once the echo has persisted a full `hb_timeout` —
    /// proving the echo replies died too — the peer must be suspected
    /// *reciprocally*: routed around (inner `on_site_suspected`), not
    /// withdrawn by mere hearing, and never escalated to a confirmed
    /// failure while it stays audible. When the echo clears (the link
    /// healed) the suspicion is withdrawn via `on_site_restored`.
    #[test]
    fn persistent_suspicion_echo_reciprocally_suspects_until_heal() {
        let mut d = det(2); // single peer: no silence suspicion noise

        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Echoes at 10..40: the run started at 10, matures at 45.
        for t in [10u64, 20, 30, 40] {
            d.set_now(t);
            d.handle(SiteId(1), echo(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(d.suspected().is_empty(), "echo not yet persistent");
        d.set_now(50);
        d.handle(SiteId(1), echo(), &mut fx);
        fx.take_sends();
        assert!(d.suspected().contains(&SiteId(1)));
        assert_eq!(d.counters().reciprocal_suspicions, 1);
        assert_eq!(d.inner().suspected, vec![SiteId(1)]);
        // Hearing the peer (it talks to us fine) does NOT withdraw the
        // reciprocal suspicion ...
        d.set_now(55);
        d.handle(SiteId(1), HbMsg::App(NoMsg), &mut fx);
        assert!(d.suspected().contains(&SiteId(1)));
        assert!(d.inner().restored.is_empty());
        // ... and no amount of further echoing confirms a failure: the
        // peer is audibly alive (fail_confirm = 100 is long past by 200).
        for t in (60..=200).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), echo(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(d.inner().failed.is_empty());
        assert_eq!(d.counters().failures_confirmed, 0);
        // The link heals: the peer hears us again and its echo clears.
        d.set_now(210);
        d.handle(SiteId(1), beat(), &mut fx);
        assert!(d.suspected().is_empty());
        assert_eq!(d.inner().restored, vec![SiteId(1)]);
    }

    #[test]
    fn brief_suspicion_echo_does_not_reciprocate() {
        let mut d = det(2);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // An echo run broken by a clean beat restarts the maturation
        // clock: loss-induced false suspicions that the echo reply heals
        // must never cost a reciprocal suspicion.
        for (t, suspects) in [
            (10u64, true),
            (20, true),
            (30, false),
            (40, true),
            (50, true),
        ] {
            d.set_now(t);
            let m = if suspects { echo() } else { beat() };
            d.handle(SiteId(1), m, &mut fx);
            fx.take_sends();
        }
        // Run restarted at 40; 50 < 40 + 35.
        assert!(d.suspected().is_empty());
        assert_eq!(d.counters().reciprocal_suspicions, 0);
    }

    /// A reciprocal suspect that goes fully silent (the cut became
    /// two-way, or it crashed) is re-classified as a silence suspicion:
    /// the confirmation lease arms, so a genuine crash is still
    /// eventually confirmed.
    #[test]
    fn reciprocal_suspect_gone_silent_is_eventually_confirmed() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        for t in (10..=50).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), echo(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(d.suspected().contains(&SiteId(1)));
        assert_eq!(d.counters().reciprocal_suspicions, 1);
        // Peer 1 stops talking entirely after t=50; peer 2 keeps us
        // ticking. Silence re-classification at 85 arms the lease; the
        // confirmation lands once it expires (85 + 100).
        for t in (60..=190).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(2), beat(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert_eq!(d.inner().failed, vec![SiteId(1)]);
        assert_eq!(d.counters().failures_confirmed, 1);
    }

    #[test]
    fn beats_carry_alive_set_and_per_recipient_echo() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        fx.take_sends();
        // Hear peer 1 recently; let peer 2 go silent until suspected.
        for t in [10u64, 20, 30, 40] {
            d.set_now(t);
            d.handle(SiteId(1), beat(), &mut fx);
            d.on_timer(t, &mut fx);
            fx.take_sends();
        }
        assert!(d.suspected().contains(&SiteId(2)));
        d.set_now(50);
        d.handle(SiteId(1), beat(), &mut fx);
        fx.take_sends();
        d.on_timer(50, &mut fx);
        let sends = fx.take_sends();
        let to1 = sends
            .iter()
            .find_map(|(to, m)| match (to, m) {
                (
                    SiteId(1),
                    HbMsg::Beat {
                        alive,
                        suspects_you,
                    },
                ) => Some((alive.clone(), *suspects_you)),
                _ => None,
            })
            .expect("beat to peer 1");
        // Peer 1 was heard at 50 (alive); peer 2 is silent (not vouched
        // for) and suspected (echoed on its own beat).
        assert_eq!(*to1.0, [SiteId(1)]);
        assert!(!to1.1, "peer 1 is not suspected");
        let to2 = sends
            .iter()
            .find_map(|(to, m)| match (to, m) {
                (
                    SiteId(2),
                    HbMsg::Beat {
                        alive,
                        suspects_you,
                    },
                ) => Some((alive.clone(), *suspects_you)),
                _ => None,
            })
            .expect("beat to peer 2");
        assert!(to2.1, "the suspect must be told it is suspected");
    }

    /// A beat's vouch list writes one expiry per named third party: the
    /// receiver (site 0) and the sender are skipped, a site outside the
    /// table is dropped without growing it, and a suspect is recorded.
    #[test]
    fn vouches_skip_receiver_sender_and_untracked_sites() {
        let mut d = det(4);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        d.set_now(40);
        d.on_timer(40, &mut fx);
        assert_eq!(d.suspected().len(), 3, "every peer silent since 0");
        d.handle(SiteId(1), vouch(&[0, 1, 2, 3, 9]), &mut fx);
        assert_eq!(d.vouched_until, vec![0, 0, 40 + 35, 40 + 35]);
        assert_eq!(d.by_site.len(), 4, "a vouch does not grow the table");
        assert_eq!(d.due.len(), 4);
        // The vouch leaves the suspect's deadline (its lease) alone.
        assert_eq!(d.due[3], 40 + 100);
    }

    /// The confirmation lease of a suspect that a third party vouches
    /// for ends exactly `hb_timeout` after the last vouch: not a tick
    /// earlier, not a tick later.
    #[test]
    fn confirmation_waits_exactly_until_the_last_vouch_expires() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        // Peer 1 beats every 10 ticks vouching for the silent peer 2,
        // which is suspected at 40 with its lease ending at 140.
        for t in (10..=130).step_by(10) {
            d.set_now(t);
            d.handle(SiteId(1), vouch(&[2]), &mut fx);
            d.on_timer(t, &mut fx);
        }
        assert!(d.suspected().contains(&SiteId(2)));
        assert_eq!(d.due[2], 140);
        // From 140 on peer 1 beats without naming 2: its last vouch was
        // at 130, so the lease is deferred to 130 + 35.
        d.set_now(140);
        d.handle(SiteId(1), beat(), &mut fx);
        d.on_timer(140, &mut fx);
        assert_eq!(d.counters().confirms_deferred, 1);
        assert_eq!(d.due[2], 165);
        d.set_now(164);
        d.on_timer(164, &mut fx);
        assert!(
            d.inner().failed.is_empty(),
            "confirmed before the vouch expired"
        );
        d.set_now(165);
        d.on_timer(165, &mut fx);
        assert_eq!(d.inner().failed, vec![SiteId(2)]);
        assert_eq!(d.due[2], u64::MAX, "a confirmed site has no deadline");
    }

    #[test]
    fn recovery_forgets_vouches() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        d.set_now(5);
        d.handle(SiteId(1), vouch(&[2]), &mut fx);
        assert_eq!(d.vouched_until[2], 5 + 35);
        d.set_now(20);
        d.on_recover(&mut fx);
        assert_eq!(d.vouched_until, vec![0; 3]);
        assert_eq!(d.due, vec![u64::MAX, 20 + 35, 20 + 35]);
    }

    /// Each path that changes whether or when a site is timed moves its
    /// cached deadline: an oracle notice removes it, a reciprocal
    /// suspicion removes it, and the suspicion's withdrawal restores the
    /// silence deadline.
    #[test]
    fn deadlines_follow_notices_and_reciprocal_suspicions() {
        let mut d = det(3);
        let mut fx = Effects::new();
        d.on_start(&mut fx);
        assert_eq!(d.due, vec![u64::MAX, 35, 35]);
        d.set_now(5);
        d.handle(SiteId(1), beat(), &mut fx);
        assert_eq!(d.due[1], 5 + 35);
        d.on_site_failure(SiteId(2), &mut fx);
        assert_eq!(d.due[2], u64::MAX, "an oracle notice arms no lease");
        assert_eq!(d.next_timer(), Some(10), "the next beat round");
        // Peer 1 echoes a suspicion of us from 10 on; it matures at 45.
        for t in [10u64, 20, 30, 40] {
            d.set_now(t);
            d.handle(SiteId(1), echo(), &mut fx);
        }
        assert_eq!(d.due[1], 40 + 35);
        d.set_now(45);
        d.handle(SiteId(1), echo(), &mut fx);
        assert_eq!(d.counters().reciprocal_suspicions, 1);
        assert_eq!(d.due[1], u64::MAX, "a reciprocal suspect is not timed");
        // Its echo clears: the suspicion is withdrawn and silence is
        // timed again from this beat.
        d.set_now(50);
        d.handle(SiteId(1), beat(), &mut fx);
        assert!(d.suspected().contains(&SiteId(2)));
        assert!(!d.suspected().contains(&SiteId(1)));
        assert_eq!(d.due[1], 50 + 35);
        fx.take_sends();
    }
}
