//! The discrete-event simulation engine.

use crate::delay::DelayModel;
use crate::metrics::{CsRecord, Metrics};
use crate::partition::PartitionModel;
use crate::scheduler::{EventQueue, Scheduler, SchedulerKind, Timed};
use crate::sites::SiteStates;
use crate::trace::{Trace, TraceEvent};
use qmx_core::{
    Effects, FaultVerdict, LinkFaults, LossModel, MsgMeta, Outage, Protocol, ResourceId, SiteId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Jittered exponential backoff for re-issuing aborted requests.
///
/// Attempt `k` (1-based) backs off `min(base · 2ᵏ⁻¹, cap)`, then an
/// equal-jitter draw picks uniformly from the upper half of that interval
/// so colliding contenders spread out instead of thundering back in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff before the first retry.
    pub base: u64,
    /// Upper bound the exponential backoff saturates at.
    pub cap: u64,
    /// Retries per request before the client gives up for good (the
    /// attempt counter resets on every successful CS entry).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 2_000,
            cap: 32_000,
            max_attempts: 8,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Message delay distribution (mean = the paper's `T`).
    pub delay: DelayModel,
    /// CS hold-time distribution (the paper's `E`).
    pub hold: DelayModel,
    /// Time between a crash and the delivery of `failure(i)` notices to
    /// every live site (failure-detector latency). Only used when
    /// [`SimConfig::oracle_notices`] is on.
    pub detect_delay: u64,
    /// Whether the simulator delivers oracle `failure(i)` notices after
    /// crashes and partitions (the paper's §6 failure model). Disable when
    /// the sites run under the heartbeat [`qmx_core::Detector`] wrapper,
    /// which derives suspicion from missed heartbeats instead of an
    /// omniscient oracle.
    pub oracle_notices: bool,
    /// Wire-message fault model (drops/duplication); [`LossModel::None`]
    /// reproduces the paper's error-free channels.
    pub loss: LossModel,
    /// Scheduled transient one-directional link outages.
    pub outages: Vec<Outage>,
    /// Per-request deadline: each injected arrival arms
    /// `set_deadline(now + deadline)` on its site before `request_cs`, so
    /// stacks whose protocol supports aborting
    /// ([`qmx_core::Protocol::abort_cs`]) give up and withdraw once the
    /// wait exceeds this budget. `None` disables deadlines.
    pub deadline: Option<u64>,
    /// Closed-loop client retry: after a site's request aborts (deadline
    /// expiry or [`Simulator::schedule_abort`]), re-issue it after a
    /// jittered exponential backoff. `None` drops aborted requests.
    pub retry: Option<RetryPolicy>,
    /// Which event-scheduler implementation orders the future-event
    /// set. Both produce byte-identical executions (CI enforces it);
    /// the timer wheel is the fast default, the heap the reference.
    pub scheduler: SchedulerKind,
    /// RNG seed; runs are fully deterministic given the same seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            delay: DelayModel::Constant(1000),
            hold: DelayModel::Constant(100),
            detect_delay: 2000,
            oracle_notices: true,
            loss: LossModel::None,
            outages: Vec::new(),
            deadline: None,
            retry: None,
            // From `QMX_SCHEDULER` when set (the CI differential gate),
            // otherwise the timer wheel.
            scheduler: SchedulerKind::default(),
            seed: 0xC0FFEE,
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: SiteId, to: SiteId, msg: M },
    Request { site: SiteId, rid: ResourceId },
    Exit { site: SiteId, rid: ResourceId },
    Crash { site: SiteId },
    Recover { site: SiteId },
    Notice { site: SiteId, failed: SiteId },
    Partition { groups: Vec<u32> },
    Cut { src: SiteId, dst: SiteId },
    Restore { src: SiteId, dst: SiteId },
    Heal,
    Tick { site: SiteId },
    Abort { site: SiteId },
}

/// What the scheduler actually stores and scans: the `(time, seq)`
/// total-order pair plus the payload's slab index. Wheel chain scans
/// and heap sifts touch only these 24 bytes; the `EventKind`
/// payload (with its message body) sits untouched in the simulator's
/// slab until the event is popped.
#[derive(Clone, Copy)]
struct EventKey {
    time: u64,
    seq: u64, // total order tie-breaker: insertion order
    slot: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

// The scheduling key for the timer wheel; must (and
// does) agree with `Ord` above — see the `Timed` contract.
impl Timed for EventKey {
    fn time(&self) -> u64 {
        self.time
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

/// The payload slab: `EventKind`s parked by slot index while their
/// [`EventKey`] waits in the scheduler. A push allocates a slot (free
/// list first), the pop that consumes the key takes the payload back and
/// recycles the slot — so steady state allocates nothing, and slab
/// capacity tracks the *peak* event population, not the event count.
struct PayloadSlab<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> PayloadSlab<M> {
    fn with_capacity(capacity: usize) -> Self {
        PayloadSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(kind);
                s
            }
            None => {
                self.slots.push(Some(kind));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> EventKind<M> {
        let kind = self.slots[slot as usize]
            .take()
            .expect("popped key names a live payload");
        self.free.push(slot);
        kind
    }
}

/// Largest site count that keeps the dense `n * n` per-link FIFO clock
/// matrix (1024² × 8 B = 8 MB). Large-N runs use a sorted map instead:
/// only links that actually carried a message pay for an entry.
const DENSE_LINKS_MAX: usize = 1024;

/// Latest scheduled delivery time per directed link (FIFO enforcement).
enum LinkClocks {
    /// Flat `n * n` matrix indexed `from * n + to`.
    Dense(Vec<u64>),
    /// `from * n + to` → clock, populated on first use.
    Sparse(BTreeMap<u64, u64>),
}

impl LinkClocks {
    fn new(n: usize) -> Self {
        if n <= DENSE_LINKS_MAX {
            LinkClocks::Dense(vec![0; n * n])
        } else {
            LinkClocks::Sparse(BTreeMap::new())
        }
    }

    /// Advances the `from → to` link clock to at least `at` and returns
    /// the resulting delivery time (the max of `at` and the previous
    /// clock — deliveries on one link never reorder).
    #[inline]
    fn advance(&mut self, from: SiteId, to: SiteId, n: usize, at: u64) -> u64 {
        match self {
            LinkClocks::Dense(m) => {
                let link = &mut m[from.index() * n + to.index()];
                *link = at.max(*link);
                *link
            }
            LinkClocks::Sparse(m) => {
                let key = from.index() as u64 * n as u64 + to.index() as u64;
                let link = m.entry(key).or_insert(0);
                *link = at.max(*link);
                *link
            }
        }
    }
}

/// A deterministic discrete-event simulation of `N` protocol instances.
///
/// See the [crate documentation](crate) for an overview and example.
pub struct Simulator<P: Protocol> {
    sites: Vec<P>,
    cfg: SimConfig,
    rng: StdRng,
    now: u64,
    seq: u64,
    events: EventQueue<EventKey>,
    /// Event payloads, parked out of the scheduler's scan path — see
    /// [`PayloadSlab`].
    payloads: PayloadSlab<P::Msg>,
    /// Latest scheduled delivery time per directed link (FIFO
    /// enforcement): a flat matrix for small systems, a sorted map past
    /// [`DENSE_LINKS_MAX`] sites.
    link_clock: LinkClocks,
    /// Hot per-site driver scalars (timer slot, crash bits),
    /// struct-of-arrays — see [`crate::sites`].
    states: SiteStates,
    pristine: BTreeMap<SiteId, P>,
    /// Per-site boot counter: bumped on every recovery and stamped into
    /// the fresh instance via `set_incarnation`, so transports fence
    /// pre-crash stragglers and detectors deduplicate re-broadcast rejoin
    /// announcements per restart.
    boots: BTreeMap<SiteId, u64>,
    /// Directed link-level reachability: which ordered pairs are cut.
    partition: PartitionModel,
    faults: LinkFaults,
    /// The closed-loop client's open requests, keyed `(site, resource)`:
    /// from the arrival that passes the busy check to the CS exit (or the
    /// site's crash).
    open: BTreeMap<(u32, u32), OpenRequest>,
    /// Safety monitor: who holds each resource.
    holders: BTreeMap<u32, SiteId>,
    metrics: Metrics,
    trace: Option<Trace>,
    started: bool,
    /// Reusable effects buffer: every event drains it fully, so one
    /// allocation serves the whole run instead of one per event.
    scratch: Effects<P::Msg>,
    /// Scripted message delays (trace replay): consumed FIFO, one entry
    /// per non-dropped send, before falling back to sampling `cfg.delay`.
    delay_script: VecDeque<u64>,
    /// Scripted CS hold times: consumed FIFO, one entry per CS entry,
    /// before falling back to sampling `cfg.hold`.
    hold_script: VecDeque<u64>,
}

/// One `(site, resource)` request of the closed-loop client.
#[derive(Default)]
struct OpenRequest {
    /// When the latest arrival (or retry) was issued.
    requested_at: u64,
    /// When the site entered the CS; `None` while it waits.
    entered_at: Option<u64>,
    /// Retries since the last CS entry ([`SimConfig::retry`]).
    retries: u32,
}

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over the given sites (indexed by their ids,
    /// which must be `0..N` in order).
    ///
    /// # Panics
    ///
    /// Panics if site ids are not exactly `0..N` in order.
    pub fn new(sites: Vec<P>, cfg: SimConfig) -> Self {
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.site(), SiteId(i as u32), "sites must be 0..N in order");
        }
        let n = sites.len();
        let faults = LinkFaults::new(cfg.loss.clone(), cfg.outages.clone());
        let scheduler = cfg.scheduler;
        Simulator {
            sites,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            now: 0,
            seq: 0,
            // Steady state keeps roughly one in-flight message per quorum
            // member per contender plus timers; 16n absorbs bursts without
            // ever reallocating in the experiments under study. Capped so
            // a 10⁵-site simulator does not pre-commit tens of megabytes
            // the (mostly uncontended) run never touches.
            events: EventQueue::new(scheduler, 64 + (16 * n).min(1 << 16)),
            payloads: PayloadSlab::with_capacity(64 + (16 * n).min(1 << 16)),
            link_clock: LinkClocks::new(n),
            states: SiteStates::new(n),
            pristine: BTreeMap::new(),
            boots: BTreeMap::new(),
            partition: PartitionModel::new(n),
            faults,
            open: BTreeMap::new(),
            holders: BTreeMap::new(),
            metrics: Metrics::new(),
            trace: None,
            started: false,
            scratch: Effects::new(),
            delay_script: VecDeque::new(),
            hold_script: VecDeque::new(),
        }
    }

    /// Scripts the next message delays: each non-dropped send consumes one
    /// entry, in send order, instead of sampling [`SimConfig::delay`];
    /// when the script runs dry, sampling resumes. Used by the model
    /// checker's trace replay to force an exact delivery schedule.
    pub fn script_delays(&mut self, delays: Vec<u64>) {
        self.delay_script = delays.into();
    }

    /// Scripts the next CS hold times: each CS entry consumes one entry,
    /// in entry order, instead of sampling [`SimConfig::hold`]; when the
    /// script runs dry, sampling resumes.
    pub fn script_holds(&mut self, holds: Vec<u64>) {
        self.hold_script = holds.into();
    }

    /// Number of sites.
    pub fn n(&self) -> usize {
        self.sites.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The site currently in the CS of resource `rid`, if any (safety
    /// monitor's view).
    pub fn site_in_cs(&self, rid: ResourceId) -> Option<SiteId> {
        self.holders.get(&rid.0).copied()
    }

    /// Whether `site` has crashed.
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.states.is_crashed(site)
    }

    /// Immutable access to a protocol instance (assertions in tests).
    pub fn site(&self, site: SiteId) -> &P {
        &self.sites[site.index()]
    }

    /// Enables execution tracing, keeping at most `cap` events.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Trace::new(cap));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    fn record(&mut self, ev: TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    fn push(&mut self, time: u64, kind: EventKind<P::Msg>) {
        self.seq += 1;
        let slot = self.payloads.insert(kind);
        self.events.push(EventKey {
            time,
            seq: self.seq,
            slot,
        });
    }

    /// Schedules an application CS request for [`ResourceId::SOLO`] at
    /// virtual time `at`.
    ///
    /// Requests for sites that are busy on the resource (still waiting for
    /// or holding a previous CS of it) when the event fires are dropped —
    /// arrival processes treat a busy site as not generating new demand,
    /// keeping "a site executes its CS requests sequentially one by one"
    /// (§2). The check is per `(site, resource)` pair: one site can hold
    /// several distinct locks of a [`qmx_core::LockSpace`] at once.
    pub fn schedule_request(&mut self, site: SiteId, at: u64) {
        self.push(
            at,
            EventKind::Request {
                site,
                rid: ResourceId::SOLO,
            },
        );
    }

    /// Schedules a whole batch of [`ResourceId::SOLO`] requests
    /// (pre-generated arrivals) in one bulk load; see
    /// [`Simulator::schedule_requests_r`].
    pub fn schedule_requests(&mut self, arrivals: &[(SiteId, u64)]) {
        self.load_requests(
            arrivals
                .iter()
                .map(|&(site, at)| (site, ResourceId::SOLO, at)),
        );
    }

    /// Schedules a whole batch of `(site, resource, at)` requests
    /// (pre-generated arrivals) in one bulk load: a single heapify /
    /// bucket-fill with one resize check instead of per-event pushes.
    /// Sequence numbers are assigned in slice order, so the execution is
    /// byte-identical to scheduling each arrival by itself, in turn.
    pub fn schedule_requests_r(&mut self, arrivals: &[(SiteId, ResourceId, u64)]) {
        self.load_requests(arrivals.iter().copied());
    }

    /// The bulk load behind both batch schedulers.
    fn load_requests(&mut self, arrivals: impl Iterator<Item = (SiteId, ResourceId, u64)>) {
        let mut seq = self.seq;
        let events: Vec<EventKey> = arrivals
            .map(|(site, rid, at)| {
                seq += 1;
                EventKey {
                    time: at,
                    seq,
                    slot: self.payloads.insert(EventKind::Request { site, rid }),
                }
            })
            .collect();
        self.seq = seq;
        self.events.bulk_load(events);
    }

    /// Schedules a client-side abort of `site`'s pending
    /// [`ResourceId::SOLO`] request at virtual time `at`
    /// ([`qmx_core::Protocol::abort_cs`]). A no-op if the site is not
    /// waiting (or parked) when the event fires — a race between the abort
    /// and an in-flight grant resolves to whichever landed first: clean
    /// entry or clean abort, never a lost lock.
    pub fn schedule_abort(&mut self, site: SiteId, at: u64) {
        self.push(at, EventKind::Abort { site });
    }

    /// Schedules a crash of `site` at virtual time `at`. When
    /// [`SimConfig::oracle_notices`] is on, failure notices reach every
    /// live site `detect_delay` later.
    pub fn schedule_crash(&mut self, site: SiteId, at: u64) {
        self.push(at, EventKind::Crash { site });
    }

    /// Schedules a symmetric group-split partition at virtual time `at`:
    /// `groups[i]` is the partition-group id of site `i`. Messages between
    /// different groups are dropped from then on, including ones already in
    /// flight, and after `detect_delay` each site receives a failure notice
    /// for every site outside its group (a partition is indistinguishable
    /// from the remote sites crashing — §2's model has no way to tell).
    ///
    /// This is a convenience wrapper over the directed link-cut model: the
    /// split decomposes into pairwise [`Simulator::schedule_cut`]s, so
    /// overlapping and repeated partitions compose additively — a second
    /// split adds its cuts to whatever is already severed instead of
    /// overwriting it, and notices are injected only for links that were
    /// still alive when the event fired.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != n` when the event fires.
    pub fn schedule_partition(&mut self, groups: Vec<u32>, at: u64) {
        self.push(at, EventKind::Partition { groups });
    }

    /// Schedules a cut of the **directed** link `src → dst` at virtual
    /// time `at`: from then on messages from `src` to `dst` (including
    /// ones already in flight) are dropped, while `dst → src` traffic is
    /// unaffected — the primitive for asymmetric partitions where A hears
    /// B but B does not hear A. Cuts compose: each link is governed
    /// independently, and re-cutting an already-cut link is a no-op.
    ///
    /// When [`SimConfig::oracle_notices`] is on, `dst` — the site that
    /// stops hearing from `src` — receives a `failure(src)` notice
    /// `detect_delay` later (one-way silence is indistinguishable from the
    /// sender crashing, which is precisely the asymmetric-view hazard).
    pub fn schedule_cut(&mut self, src: SiteId, dst: SiteId, at: u64) {
        self.push(at, EventKind::Cut { src, dst });
    }

    /// Schedules a restore of the directed link `src → dst` at virtual
    /// time `at`. Only this link heals; other cuts stay in force. No
    /// recovery notices are delivered (see [`Simulator::schedule_heal`]).
    pub fn schedule_restore(&mut self, src: SiteId, dst: SiteId, at: u64) {
        self.push(at, EventKind::Restore { src, dst });
    }

    /// Schedules a heal of **every** cut link at virtual time `at`: from
    /// then on messages flow between all sites again.
    ///
    /// **Recovery semantics** (documented choice): no "recovery notices"
    /// are delivered. The paper's §6 machinery handles *failures* —
    /// reconstruction of quorums around suspected-dead sites — but defines
    /// no rejoin protocol, so a healed partition simply restores
    /// connectivity: sites that treated remote peers as failed keep their
    /// reconstructed quorums (safe — coteries intersect), and in-flight
    /// retransmissions from the other side resume being delivered, where
    /// the transport's dedup absorbs any copies that got through before
    /// the split.
    pub fn schedule_heal(&mut self, at: u64) {
        self.push(at, EventKind::Heal);
    }

    /// Whether the directed link `src → dst` is currently cut (tests and
    /// availability analyses).
    pub fn is_link_cut(&self, src: SiteId, dst: SiteId) -> bool {
        self.partition.is_cut(src, dst)
    }

    fn severed(&self, a: SiteId, b: SiteId) -> bool {
        self.partition.is_cut(a, b)
    }

    /// Injects the oracle `failure(src)` notice at `dst` for a newly-cut
    /// directed link: `dst` stops hearing from `src`, so after the
    /// detection delay it concludes `src` failed. Skipped entirely in
    /// detector mode (heartbeat silence carries the information instead).
    fn notice_for_cut(&mut self, src: SiteId, dst: SiteId) {
        if !self.cfg.oracle_notices || self.states.is_crashed(src) || self.states.is_crashed(dst) {
            return;
        }
        self.push(
            self.now + self.cfg.detect_delay,
            EventKind::Notice {
                site: dst,
                failed: src,
            },
        );
    }

    /// Re-arms the wake-up event for `site` from its `next_timer()`.
    ///
    /// The armed slot in [`SiteStates`] is the single source of truth: a
    /// `Tick` event whose time does not match it when it fires was
    /// superseded by a re-arm (or cancelled outright when the timer
    /// disappeared) and is dropped without a protocol dispatch. That
    /// tombstoning is what lets this always track the *exact* next due
    /// time — the old "earlier tick wins" rule kept stale ticks live and
    /// let them fire as spurious `on_timer` calls, which at large N is
    /// itself a hot path.
    fn arm_timer(&mut self, site: SiteId) {
        let Some(due) = self.sites[site.index()].next_timer() else {
            // Timer disappeared (deadline cleared, detector quiesced):
            // clearing the slot tombstones any in-flight tick.
            self.states.clear_tick(site);
            return;
        };
        let due = due.max(self.now);
        if self.states.armed_tick(site) == Some(due) {
            return; // already armed at exactly this time
        }
        self.states.arm_tick(site, due);
        self.push(due, EventKind::Tick { site });
    }

    fn apply_effects(&mut self, site: SiteId, fx: &mut Effects<P::Msg>) {
        let n = self.sites.len();
        for (to, msg) in fx.drain_sends() {
            debug_assert_ne!(to, site, "self-sends must be handled internally");
            if self.states.is_crashed(to) {
                self.metrics.count_dropped();
                continue;
            }
            if self.severed(site, to) {
                self.metrics.count_partition_dropped();
                continue;
            }
            self.metrics.count_msg(msg.kind());
            self.record(TraceEvent::Send {
                t: self.now,
                from: site,
                to,
                kind: msg.kind(),
            });
            // Fault injection: the message may be eaten or cloned by the
            // network before the delay is even sampled.
            let copies = {
                let rng = &mut self.rng;
                match self
                    .faults
                    .decide(site, to, self.now, || rng.gen_range(0.0f64..1.0))
                {
                    FaultVerdict::Deliver => 1,
                    FaultVerdict::Drop => {
                        self.metrics.count_injected_drop();
                        0
                    }
                    FaultVerdict::Duplicate => {
                        self.metrics.count_injected_dup();
                        2
                    }
                }
            };
            let mut msg = Some(msg);
            for c in (1..=copies).rev() {
                // FIFO per ordered link: delivery times never reorder
                // (equal times are delivered in send order via the event
                // seq number). The duplicate copy follows its original.
                let sampled = match self.delay_script.pop_front() {
                    Some(d) => d,
                    None => self.cfg.delay.sample(&mut self.rng),
                };
                let at = self.link_clock.advance(site, to, n, self.now + sampled);
                // Move the owned message into its final copy; only an
                // injected duplicate ever pays for a clone.
                let msg = if c == 1 {
                    msg.take().expect("last copy")
                } else {
                    msg.as_ref().expect("copies remain").clone()
                };
                self.push(
                    at,
                    EventKind::Deliver {
                        from: site,
                        to,
                        msg,
                    },
                );
            }
        }
        self.arm_timer(site);
        for rid in fx.drain_entered() {
            let prev = self.holders.insert(rid.0, site);
            assert!(
                prev.is_none(),
                "MUTUAL EXCLUSION VIOLATED at t={} on {}: {} entered while {:?} holds it",
                self.now,
                rid,
                site,
                prev
            );
            let open = self
                .open
                .get_mut(&(site.0, rid.0))
                .expect("CS entry implies an open request");
            open.entered_at = Some(self.now);
            open.retries = 0;
            self.record(TraceEvent::Enter { t: self.now, site });
            let hold = match self.hold_script.pop_front() {
                Some(h) => h,
                None => self.cfg.hold.sample(&mut self.rng),
            };
            self.push(self.now + hold, EventKind::Exit { site, rid });
        }
    }

    /// Runs one protocol entry point on `site` against the reused scratch
    /// effects buffer (stamping the site's clock first) and applies the
    /// results. The buffer is drained by `apply_effects`, so returning it
    /// to `self.scratch` hands its capacity to the next event.
    fn dispatch(&mut self, site: SiteId, f: impl FnOnce(&mut P, &mut Effects<P::Msg>)) {
        let mut fx = std::mem::take(&mut self.scratch);
        let s = &mut self.sites[site.index()];
        let aborts_before = s.abort_counters().map_or(0, |c| c.aborts);
        s.set_now(self.now);
        f(s, &mut fx);
        self.apply_effects(site, &mut fx);
        self.scratch = fx;
        // Any entry point can abort the site's request — an explicit abort
        // event, or a deadline expiring inside `on_timer`. The closed-loop
        // client reacts here, off the counter delta.
        let aborts_after = self.sites[site.index()]
            .abort_counters()
            .map_or(0, |c| c.aborts);
        if aborts_after > aborts_before {
            // Multi-resource protocols attribute each abort to a resource;
            // single-resource protocols return an empty list and retry the
            // solo lock, exactly as before the lock-space layer existed.
            let aborted = self.sites[site.index()].drain_aborted_resources();
            if aborted.is_empty() {
                self.maybe_retry(site, ResourceId::SOLO);
            } else {
                for rid in aborted {
                    self.maybe_retry(site, rid);
                }
            }
        }
    }

    /// Re-issues an aborted request after a jittered exponential backoff,
    /// if a [`RetryPolicy`] is configured and attempts remain. The retry
    /// is a regular arrival: it re-arms the deadline and competes like any
    /// other request.
    fn maybe_retry(&mut self, site: SiteId, rid: ResourceId) {
        let Some(r) = self.cfg.retry else { return };
        let open = self
            .open
            .get_mut(&(site.0, rid.0))
            .expect("an aborted request is open");
        if open.retries >= r.max_attempts {
            return;
        }
        open.retries += 1;
        let exp = r
            .base
            .saturating_mul(1u64 << (open.retries - 1).min(31))
            .min(r.cap.max(1));
        // Equal jitter: uniform over the upper half of the interval keeps
        // contenders spread out without collapsing the backoff entirely.
        let backoff = self.rng.gen_range(exp / 2..=exp).max(1);
        self.metrics.count_retry();
        self.push(self.now + backoff, EventKind::Request { site, rid });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.sites.len() {
            self.dispatch(SiteId(i as u32), |s, fx| s.on_start(fx));
        }
    }

    fn step_event(&mut self, time: u64, kind: EventKind<P::Msg>) {
        self.now = time;
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if self.states.is_crashed(to) {
                    self.metrics.count_dropped();
                    return;
                }
                if self.severed(from, to) {
                    self.metrics.count_partition_dropped();
                    return;
                }
                self.record(TraceEvent::Deliver {
                    t: self.now,
                    from,
                    to,
                    kind: msg.kind(),
                });
                self.dispatch(to, |s, fx| s.handle(from, msg, fx));
            }
            EventKind::Request { site, rid } => {
                if self.states.is_crashed(site) {
                    return;
                }
                let s = &self.sites[site.index()];
                if s.in_cs_r(rid) || s.wants_cs_r(rid) {
                    return; // busy on this resource: drop the arrival
                }
                // The retry count carries over until the next CS entry.
                self.open.entry((site.0, rid.0)).or_default().requested_at = self.now;
                let deadline = self.cfg.deadline.map(|d| self.now + d);
                self.dispatch(site, |s, fx| {
                    if deadline.is_some() {
                        s.set_deadline_r(rid, deadline);
                    }
                    s.request_cs_r(rid, fx);
                });
            }
            EventKind::Exit { site, rid } => {
                if self.states.is_crashed(site) {
                    return;
                }
                let key = (site.0, rid.0);
                let Some(&OpenRequest {
                    requested_at,
                    entered_at: Some(entered_at),
                    ..
                }) = self.open.get(&key)
                else {
                    // Stale exit from a life that crashed inside its CS;
                    // the next life's request, if any, has not entered
                    // yet and stays open.
                    return;
                };
                self.open.remove(&key);
                let holder = self.holders.remove(&rid.0);
                debug_assert_eq!(holder, Some(site));
                self.record(TraceEvent::Exit { t: self.now, site });
                self.metrics.record_cs(CsRecord {
                    site,
                    resource: rid,
                    requested_at,
                    entered_at,
                    exited_at: self.now,
                });
                self.dispatch(site, |s, fx| s.release_cs_r(rid, fx));
            }
            EventKind::Crash { site } => {
                if !self.states.set_crashed(site) {
                    return;
                }
                self.record(TraceEvent::Crash { t: self.now, site });
                // Every CS the site holds dies with it, and the monitor
                // frees the slot (the §6 recovery machinery must unblock
                // the others). Its open requests and retry counts die too;
                // pending `Exit` events become stale tombstones.
                self.holders.retain(|_, holder| *holder != site);
                self.open.retain(|&(s, _), _| s != site.0);
                if self.cfg.oracle_notices {
                    for i in 0..self.sites.len() {
                        let target = SiteId(i as u32);
                        if target != site && !self.states.is_crashed(target) {
                            self.push(
                                self.now + self.cfg.detect_delay,
                                EventKind::Notice {
                                    site: target,
                                    failed: site,
                                },
                            );
                        }
                    }
                }
            }
            EventKind::Recover { site } => {
                if !self.states.set_recovered(site) {
                    return; // never crashed (or already recovered): no-op
                }
                let Some(fresh) = self.pristine.remove(&site) else {
                    return;
                };
                self.sites[site.index()] = fresh;
                self.record(TraceEvent::Recover { t: self.now, site });
                let boot = self.boots.entry(site).or_insert(0);
                *boot += 1;
                let boot = *boot;
                self.dispatch(site, |s, fx| {
                    s.set_incarnation(boot);
                    s.on_start(fx);
                    s.on_recover(fx);
                });
            }
            EventKind::Notice { site, failed } => {
                if self.states.is_crashed(site) {
                    return;
                }
                self.record(TraceEvent::Notice {
                    t: self.now,
                    site,
                    failed,
                });
                self.dispatch(site, |s, fx| s.on_site_failure(failed, fx));
            }
            EventKind::Tick { site } => {
                // A tick is live only while its time matches the armed
                // slot; a re-arm or cancel since it was pushed tombstones
                // it (see `arm_timer`) and it dies here, undispatched.
                if self.states.armed_tick(site) != Some(self.now) {
                    return;
                }
                // Clear the arming slot first: `on_timer` may leave work
                // pending and `apply_effects` re-arms from `next_timer()`.
                self.states.clear_tick(site);
                if self.states.is_crashed(site) {
                    return;
                }
                let now = self.now;
                self.dispatch(site, |s, fx| s.on_timer(now, fx));
            }
            EventKind::Heal => {
                // See `schedule_heal` for the (documented) recovery
                // semantics: connectivity returns, no notices are sent.
                self.partition.restore_all();
            }
            EventKind::Partition { groups } => {
                // The symmetric split decomposes into pairwise directed
                // cuts; only links that were still alive get a notice, so
                // overlapping episodes never double-inject.
                let newly = self.partition.cut_groups(&groups);
                for (src, dst) in newly {
                    self.notice_for_cut(src, dst);
                }
            }
            EventKind::Cut { src, dst } => {
                if self.partition.cut(src, dst) {
                    self.notice_for_cut(src, dst);
                }
            }
            EventKind::Restore { src, dst } => {
                self.partition.restore(src, dst);
            }
            EventKind::Abort { site } => {
                if self.states.is_crashed(site) {
                    return;
                }
                self.dispatch(site, |s, fx| {
                    let _ = s.abort_cs_r(ResourceId::SOLO, fx);
                });
            }
        }
    }

    /// Runs until the event queue drains or virtual time exceeds `horizon`.
    /// Returns the number of events processed.
    ///
    /// # Panics
    ///
    /// Panics if two sites are ever in the CS simultaneously (safety
    /// monitor).
    pub fn run_to_quiescence(&mut self, horizon: u64) -> usize {
        self.ensure_started();
        let mut processed = 0;
        while let Some(key) = self.events.pop() {
            let kind = self.payloads.take(key.slot);
            if key.time > horizon {
                // Past the horizon: stop (event is dropped; simulations
                // measure within the horizon only).
                drop(kind);
                self.now = horizon;
                break;
            }
            self.step_event(key.time, kind);
            processed += 1;
        }
        // Snapshot transport-layer totals into the metrics (overwrites, so
        // repeated calls stay correct).
        let mut totals = qmx_core::TransportCounters::default();
        let mut dtotals = qmx_core::DetectorCounters::default();
        let mut atotals = qmx_core::AbortCounters::default();
        for s in &self.sites {
            if let Some(c) = s.transport_counters() {
                totals.merge(&c);
            }
            if let Some(c) = s.detector_counters() {
                dtotals.merge(&c);
            }
            if let Some(c) = s.abort_counters() {
                atotals.merge(&c);
            }
        }
        self.metrics.set_transport_totals(totals);
        self.metrics.set_detector_totals(dtotals);
        self.metrics.set_abort_totals(atotals);
        processed
    }

    /// Whether any events remain queued.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }
}

impl<P: Protocol + Clone> Simulator<P> {
    /// Schedules a restart of `site` at virtual time `at` with **fresh**
    /// protocol state: a clone of the instance is captured *now* (call this
    /// before running, so the captured state is pristine) and swapped in
    /// when the event fires. The recovered incarnation runs its `on_start`
    /// and `on_recover` hooks; under the [`qmx_core::Detector`] wrapper
    /// that announces a rejoin to every peer and opens the rejoin grace
    /// window, so recovery needs no oracle assistance.
    pub fn schedule_recovery(&mut self, site: SiteId, at: u64) {
        self.pristine.insert(site, self.sites[site.index()].clone());
        self.push(at, EventKind::Recover { site });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmx_core::{
        Config, DelayOptimal, Detector, DetectorConfig, LockSpace, MsgKind, Reliable,
        TransportConfig,
    };
    use std::sync::Arc;

    fn full_quorum_sim(n: u32, cfg: SimConfig) -> Simulator<DelayOptimal> {
        let quorum: Vec<SiteId> = (0..n).map(SiteId).collect();
        Simulator::new(
            (0..n)
                .map(|i| DelayOptimal::new(SiteId(i), quorum.clone(), Config::default()))
                .collect(),
            cfg,
        )
    }

    fn reliable_full_quorum_sim(n: u32, cfg: SimConfig) -> Simulator<Reliable<DelayOptimal>> {
        let quorum: Vec<SiteId> = (0..n).map(SiteId).collect();
        Simulator::new(
            (0..n)
                .map(|i| {
                    Reliable::new(
                        DelayOptimal::new(SiteId(i), quorum.clone(), Config::default()),
                        TransportConfig::default(),
                    )
                })
                .collect(),
            cfg,
        )
    }

    /// Full detector stack: `Detector<Reliable<DelayOptimal>>` — heartbeats
    /// ride the raw channel, app traffic gets the reliable transport.
    fn detector_sim(n: u32, cfg: SimConfig) -> Simulator<Detector<Reliable<DelayOptimal>>> {
        let quorum: Vec<SiteId> = (0..n).map(SiteId).collect();
        Simulator::new(
            (0..n)
                .map(|i| {
                    Detector::new(
                        Reliable::new(
                            DelayOptimal::new(SiteId(i), quorum.clone(), Config::default()),
                            TransportConfig::default(),
                        ),
                        quorum.clone(),
                        DetectorConfig::default(),
                    )
                })
                .collect(),
            cfg,
        )
    }

    #[test]
    fn single_request_completes() {
        let mut sim = full_quorum_sim(3, SimConfig::default());
        sim.schedule_request(SiteId(0), 0);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
        let rec = sim.metrics().records()[0];
        assert_eq!(rec.site, SiteId(0));
        // Response (request -> exit) = round trip + CS time = 2T + E.
        assert_eq!(rec.response_time(), 2100);
        assert_eq!(rec.waiting_time(), 2000);
        assert_eq!(rec.exited_at - rec.entered_at, 100);
    }

    #[test]
    fn light_load_message_count_is_3_k_minus_1() {
        let mut sim = full_quorum_sim(5, SimConfig::default());
        sim.schedule_request(SiteId(2), 0);
        sim.run_to_quiescence(100_000);
        // K = 5 incl. self: 3(K-1) = 12 wire messages.
        assert_eq!(sim.metrics().total_messages(), 12);
        assert_eq!(sim.metrics().messages_of(MsgKind::Request), 4);
        assert_eq!(sim.metrics().messages_of(MsgKind::Reply), 4);
        assert_eq!(sim.metrics().messages_of(MsgKind::Release), 4);
    }

    #[test]
    fn contended_run_is_safe_and_live() {
        let mut sim = full_quorum_sim(4, SimConfig::default());
        for i in 0..4 {
            sim.schedule_request(SiteId(i), (i as u64) * 10);
        }
        sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.metrics().completed_cs(), 4);
        assert_eq!(sim.site_in_cs(ResourceId::SOLO), None);
        assert!(!sim.has_pending_events());
    }

    #[test]
    fn sync_delay_is_one_t_under_contention() {
        // Constant delay: after the first exit, the next site should enter
        // exactly T later (delay-optimal claim).
        let mut sim = full_quorum_sim(3, SimConfig::default());
        sim.schedule_request(SiteId(0), 0);
        sim.schedule_request(SiteId(1), 100);
        sim.schedule_request(SiteId(2), 200);
        sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.metrics().completed_cs(), 3);
        for d in sim.metrics().sync_delays() {
            assert_eq!(d, 1000, "sync delay must be exactly T");
        }
    }

    #[test]
    fn busy_arrivals_are_dropped() {
        let mut sim = full_quorum_sim(2, SimConfig::default());
        sim.schedule_request(SiteId(0), 0);
        sim.schedule_request(SiteId(0), 1); // still waiting: dropped
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                delay: DelayModel::Exponential { mean: 500 },
                seed,
                ..SimConfig::default()
            };
            let mut sim = full_quorum_sim(4, cfg);
            for i in 0..4 {
                for r in 0..5u64 {
                    sim.schedule_request(SiteId(i), r * 1500 + i as u64);
                }
            }
            sim.run_to_quiescence(10_000_000);
            (
                sim.metrics().total_messages(),
                sim.metrics().completed_cs(),
                sim.metrics()
                    .records()
                    .iter()
                    .map(|r| (r.site, r.entered_at))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        // And a different seed actually changes timings.
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn crash_drops_messages_and_notifies() {
        let mut sim = full_quorum_sim(3, SimConfig::default());
        sim.schedule_crash(SiteId(2), 0);
        sim.schedule_request(SiteId(0), 10);
        sim.run_to_quiescence(1_000_000);
        // Site 0's quorum includes crashed site 2 (fixed quorum): it cannot
        // complete, but the run must terminate without safety violations.
        assert!(sim.is_crashed(SiteId(2)));
        assert_eq!(sim.metrics().completed_cs(), 0);
        assert!(sim.metrics().dropped_to_crashed() > 0);
        assert!(sim.site(SiteId(0)).is_inaccessible());
    }

    #[test]
    fn traces_are_recorded_and_deterministic() {
        let run = || {
            let mut sim = full_quorum_sim(3, SimConfig::default());
            sim.enable_trace(10_000);
            sim.schedule_request(SiteId(0), 0);
            sim.schedule_request(SiteId(1), 50);
            sim.run_to_quiescence(1_000_000);
            sim.trace().expect("enabled").events().to_vec()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must replay the identical trace");
        // The trace contains the full story: sends, deliveries, CS events.
        assert!(a.iter().any(|e| matches!(e, TraceEvent::Send { .. })));
        assert!(a.iter().any(|e| matches!(e, TraceEvent::Deliver { .. })));
        let cs: Vec<_> = a
            .iter()
            .filter(|e| matches!(e, TraceEvent::Enter { .. } | TraceEvent::Exit { .. }))
            .collect();
        assert_eq!(cs.len(), 4); // two entries + two exits
    }

    #[test]
    fn lossy_run_with_transport_completes() {
        let cfg = SimConfig {
            loss: LossModel::Iid {
                drop: 0.15,
                dup: 0.1,
            },
            seed: 42,
            ..SimConfig::default()
        };
        let mut sim = reliable_full_quorum_sim(4, cfg);
        for i in 0..4 {
            sim.schedule_request(SiteId(i), (i as u64) * 50);
        }
        sim.run_to_quiescence(10_000_000);
        assert_eq!(sim.metrics().completed_cs(), 4, "liveness under loss");
        assert!(sim.metrics().injected_drops() > 0, "loss actually injected");
        let t = sim.metrics().transport();
        assert!(t.retransmissions > 0, "drops forced retransmissions");
        assert!(!sim.has_pending_events(), "quiesced (retry cap held)");
    }

    #[test]
    fn lossy_run_without_transport_stalls() {
        // Regression guard for the injector itself: bare protocols assume
        // error-free channels, so injected loss must visibly wedge them.
        let cfg = SimConfig {
            loss: LossModel::Iid {
                drop: 0.3,
                dup: 0.0,
            },
            seed: 42,
            ..SimConfig::default()
        };
        let mut sim = full_quorum_sim(3, cfg);
        for r in 0..4u64 {
            for i in 0..3 {
                sim.schedule_request(SiteId(i), r * 20_000 + (i as u64) * 100);
            }
        }
        sim.run_to_quiescence(10_000_000);
        assert!(sim.metrics().injected_drops() > 0);
        assert!(
            sim.metrics().completed_cs() < 12,
            "a lossy channel must stall the bare protocol somewhere"
        );
        let wedged = (0..3).any(|i| sim.site(SiteId(i)).wants_cs());
        assert!(wedged, "some site is stuck waiting forever");
    }

    #[test]
    fn transient_partition_heals_and_request_completes() {
        // Notices would convert the partition into §6 failure handling;
        // push them past the horizon so this isolates heal + retransmit.
        let cfg = SimConfig {
            detect_delay: 100_000_000,
            ..SimConfig::default()
        };
        let mut sim = reliable_full_quorum_sim(3, cfg);
        sim.schedule_partition(vec![0, 0, 1], 5);
        sim.schedule_request(SiteId(0), 10);
        sim.schedule_heal(20_000);
        sim.run_to_quiescence(1_000_000);
        assert_eq!(
            sim.metrics().completed_cs(),
            1,
            "retransmissions must get through after the heal"
        );
        assert!(sim.metrics().transport().retransmissions > 0);
        // The completion happened after the heal, not before.
        assert!(sim.metrics().records()[0].entered_at > 20_000);
    }

    /// Regression (satellite): the old `partition: Option<Vec<u32>>`
    /// silently dropped a second partition — `EventKind::Partition`
    /// overwrote the previous groups, resurrecting links the first episode
    /// had severed. Episodes must compose: two overlapping splits leave
    /// the union of their cuts in force.
    #[test]
    fn overlapping_partitions_compose_instead_of_overwriting() {
        let mut sim = full_quorum_sim(4, SimConfig::default());
        // Episode 1 at t=10: {0,1} | {2,3}. Episode 2 at t=20: {0,2} |
        // {1,3}. Under the overwrite bug, episode 2 would resurrect the
        // 0↔2 links; under the composed model every ordered pair is cut.
        sim.schedule_partition(vec![0, 0, 1, 1], 10);
        sim.schedule_partition(vec![0, 1, 0, 1], 20);
        sim.schedule_request(SiteId(0), 30);
        sim.run_to_quiescence(50_000);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    assert!(
                        sim.is_link_cut(SiteId(i), SiteId(j)),
                        "{i} → {j} must stay cut under composed episodes"
                    );
                }
            }
        }
        // Site 0's request went nowhere — every copy died on a cut link,
        // attributed to the partition (nobody crashed).
        assert_eq!(sim.metrics().completed_cs(), 0);
        assert!(sim.metrics().dropped_by_partition() > 0);
        assert_eq!(sim.metrics().dropped_to_crashed(), 0);
        // And a heal clears *everything*, both episodes at once.
        sim.schedule_heal(sim.now() + 1);
        sim.run_to_quiescence(100_000);
        assert!(!sim.is_link_cut(SiteId(0), SiteId(2)));
        assert!(!sim.is_link_cut(SiteId(1), SiteId(3)));
    }

    #[test]
    fn directed_cut_is_asymmetric_and_restores_independently() {
        // Cut only 0 → 1: site 0's requests never reach arbiter 1, but
        // site 1 can still talk to site 0 the whole time. Restoring the
        // one cut link lets retransmissions complete the round.
        let cfg = SimConfig {
            oracle_notices: false,
            ..SimConfig::default()
        };
        let mut sim = reliable_full_quorum_sim(2, cfg);
        sim.schedule_cut(SiteId(0), SiteId(1), 5);
        sim.schedule_request(SiteId(0), 10);
        sim.schedule_restore(SiteId(0), SiteId(1), 30_000);
        sim.run_to_quiescence(1_000_000);
        assert!(!sim.is_link_cut(SiteId(0), SiteId(1)));
        assert_eq!(sim.metrics().completed_cs(), 1, "retransmit after restore");
        assert!(sim.metrics().records()[0].entered_at > 30_000);
        assert!(sim.metrics().dropped_by_partition() > 0);
        assert!(sim.metrics().transport().retransmissions > 0);
    }

    #[test]
    fn directed_cut_notices_only_the_silenced_listener() {
        // Oracle mode: cutting 1 → 0 silences site 1 *from site 0's
        // perspective* only, so exactly one notice fires — failure(1)
        // delivered at site 0. Site 1 keeps hearing site 0 and must not
        // receive any notice.
        let mut sim = full_quorum_sim(3, SimConfig::default());
        sim.enable_trace(10_000);
        sim.schedule_cut(SiteId(1), SiteId(0), 5);
        sim.run_to_quiescence(50_000);
        let notices: Vec<_> = sim
            .trace()
            .expect("enabled")
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Notice { site, failed, .. } => Some((*site, *failed)),
                _ => None,
            })
            .collect();
        assert_eq!(
            notices,
            vec![(SiteId(0), SiteId(1))],
            "one-way silence notifies only the listener"
        );
    }

    #[test]
    fn duplication_alone_is_absorbed_by_dedup() {
        let cfg = SimConfig {
            loss: LossModel::Iid {
                drop: 0.0,
                dup: 0.5,
            },
            seed: 7,
            ..SimConfig::default()
        };
        let mut sim = reliable_full_quorum_sim(3, cfg);
        for i in 0..3 {
            sim.schedule_request(SiteId(i), (i as u64) * 30);
        }
        sim.run_to_quiescence(10_000_000);
        assert_eq!(sim.metrics().completed_cs(), 3);
        assert!(sim.metrics().injected_dups() > 0);
        assert!(sim.metrics().transport().duplicates_dropped > 0);
    }

    #[test]
    fn transient_partition_causes_false_suspicion_then_restoration() {
        // The acceptance scenario: a transient outage makes live sites
        // falsely suspect each other through missed heartbeats (no oracle
        // involved), the heal restores them, and the protocol then runs
        // normally. Deterministic: constant delays, fixed seed.
        let cfg = SimConfig {
            oracle_notices: false,
            ..SimConfig::default()
        };
        let mut sim = detector_sim(3, cfg);
        sim.enable_trace(100_000);
        // Sever {0,1} | {2} from t=1000; hb_timeout (8000) expires inside
        // the window, so both sides suspect across the cut.
        sim.schedule_partition(vec![0, 0, 1], 1_000);
        sim.schedule_heal(20_000);
        // Requested well after the heal: restoration must have re-admitted
        // site 2 to the (fixed, full) quorum or this cannot complete.
        sim.schedule_request(SiteId(0), 40_000);
        sim.schedule_request(SiteId(2), 40_100);
        sim.run_to_quiescence(100_000);

        assert_eq!(sim.metrics().completed_cs(), 2, "restored sites complete");
        let d = sim.metrics().detector();
        assert!(d.suspicions >= 4, "0<->2 and 1<->2 both ways: {d:?}");
        assert_eq!(
            d.false_suspicions, d.suspicions,
            "nobody crashed, so every suspicion was false"
        );
        assert_eq!(d.rejoins_sent, 0, "no site restarted");
        assert!(d.heartbeats_sent > 0);
        // No oracle notice was ever delivered.
        let trace = sim.trace().expect("enabled");
        assert!(
            !trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Notice { .. })),
            "suspicion must come from heartbeats, not oracle notices"
        );
        // Every detector converged back to an empty suspect set.
        for i in 0..3u32 {
            assert!(sim.site(SiteId(i)).suspected().is_empty(), "site {i}");
            assert!(!sim.site(SiteId(i)).inner().inner().is_inaccessible());
        }
    }

    #[test]
    fn partition_while_in_cs_never_double_grants() {
        // Regression for the false-suspicion re-grant hazard: site 0 enters
        // the CS on a 2-of-3 majority quorum {0,1} and holds it across a
        // partition that cuts it off from {1,2}. Both survivors falsely
        // suspect site 0 from heartbeat silence, reconstruct quorums to
        // {1,2}, and contend for arbiter 1's permission — the very
        // permission site 0 is in the CS on. Treating the suspicion as a
        // definitive failure would reclaim that lock and re-grant it,
        // letting a second site into the CS (the simulator's monitor
        // panics on overlap). Suspicion must instead park the contenders
        // until the partition heals — before the `fail_confirm` lease
        // expires — and site 0's own release hands the permission on.
        use qmx_quorum::majority::MajorityQuorumSource;
        let cfg = SimConfig {
            oracle_notices: false,
            hold: DelayModel::Constant(30_000),
            ..SimConfig::default()
        };
        let universe: Vec<SiteId> = (0..3).map(SiteId).collect();
        let mut sim: Simulator<Detector<Reliable<DelayOptimal>>> = Simulator::new(
            (0..3)
                .map(|i| {
                    Detector::new(
                        Reliable::new(
                            DelayOptimal::with_quorum_source(
                                SiteId(i),
                                Config::default(),
                                Box::new(MajorityQuorumSource::new(3)),
                            ),
                            TransportConfig::default(),
                        ),
                        universe.clone(),
                        DetectorConfig::default(),
                    )
                })
                .collect(),
            cfg,
        );
        // Site 0 enters at ~2_000 (one round trip to arbiter 1) and, with
        // E = 30_000, exits at ~32_000 — long after everything below.
        sim.schedule_request(SiteId(0), 0);
        // The cut lands while site 0 is inside the CS; suspicion fires at
        // ~10_500 (hb_timeout 8_000), confirmation would fire ~32_000
        // later — the heal at 25_000 beats the lease, so this partition
        // must read as a false suspicion, never a failure.
        sim.schedule_partition(vec![0, 1, 1], 2_500);
        sim.schedule_request(SiteId(1), 5_000);
        sim.schedule_request(SiteId(2), 6_000);
        sim.schedule_heal(25_000);
        sim.run_to_quiescence(300_000);

        // All three complete — and the monitor never saw two sites in the
        // CS at once (it panics the run otherwise).
        assert_eq!(sim.metrics().completed_cs(), 3);
        // Pin the interleaving the regression needs: site 0 was inside the
        // CS before the cut landed, and neither contender entered until
        // site 0's own release handed the permission on.
        let recs = sim.metrics().records();
        let first = recs.iter().find(|r| r.site == SiteId(0)).expect("site 0");
        assert!(first.entered_at < 2_500, "in the CS before the cut");
        for r in recs.iter().filter(|r| r.site != SiteId(0)) {
            assert!(
                r.entered_at >= first.exited_at,
                "{:?} entered at {} while site 0 held the CS until {}",
                r.site,
                r.entered_at,
                first.exited_at
            );
        }
        let d = sim.metrics().detector();
        assert!(d.suspicions > 0, "the cut must produce suspicions: {d:?}");
        assert_eq!(
            d.false_suspicions, d.suspicions,
            "nobody crashed: every suspicion was false: {d:?}"
        );
        assert_eq!(
            d.failures_confirmed, 0,
            "heal precedes the fail_confirm lease: {d:?}"
        );
        for i in 0..3u32 {
            assert!(sim.site(SiteId(i)).suspected().is_empty(), "site {i}");
        }
    }

    /// Pinned asymmetric-view regression: with only the 0 → 1 link cut,
    /// arbiter 1 stops hearing site 0 — which is inside the CS on
    /// arbiter 1's permission — while site 0 still hears everyone and
    /// site 2 still hears site 0. Without view reconciliation, arbiter 1
    /// escalates its suspicion to a *confirmed* failure after the
    /// `fail_confirm` lease (~43T, well inside site 0's 50T hold),
    /// reclaims the lock site 0 holds, and grants it to site 2: a double
    /// grant the simulator's monitor panics on. The fix: site 2 keeps
    /// vouching for site 0 on its beats to arbiter 1 (it hears site 0
    /// directly), so the confirmation is deferred for as long as the
    /// indirect evidence flows and the reclamation never happens.
    /// Suspicion itself still fires — it is revocable and parks the
    /// contenders — and site 0 learns it is suspected through the echo
    /// on arbiter 1's beats (the 1 → 0 direction is alive).
    #[test]
    fn asymmetric_cut_of_cs_holder_defers_confirmation_no_double_grant() {
        use qmx_quorum::majority::MajorityQuorumSource;
        let cfg = SimConfig {
            oracle_notices: false,
            hold: DelayModel::Constant(50_000),
            ..SimConfig::default()
        };
        let universe: Vec<SiteId> = (0..3).map(SiteId).collect();
        let mut sim: Simulator<Detector<Reliable<DelayOptimal>>> = Simulator::new(
            (0..3)
                .map(|i| {
                    Detector::new(
                        Reliable::new(
                            DelayOptimal::with_quorum_source(
                                SiteId(i),
                                Config::default(),
                                Box::new(MajorityQuorumSource::new(3)),
                            ),
                            TransportConfig::default(),
                        ),
                        universe.clone(),
                        DetectorConfig::default(),
                    )
                })
                .collect(),
            cfg,
        );
        // Site 0 enters at ~2T and holds to ~52T.
        sim.schedule_request(SiteId(0), 0);
        // One-way cut while site 0 is inside the CS: arbiter 1 hears
        // nothing from it, everyone else hears everything. The suspicion
        // fires at ~11T and the confirm lease would expire at ~43T —
        // before the hold ends — so only the vouch deferral stands
        // between this schedule and a double grant.
        sim.schedule_cut(SiteId(0), SiteId(1), 2_500);
        sim.schedule_request(SiteId(1), 5_000);
        sim.schedule_request(SiteId(2), 6_000);
        sim.schedule_restore(SiteId(0), SiteId(1), 45_000);
        sim.run_to_quiescence(400_000);

        // All three complete, and the monitor never saw two sites in the
        // CS at once (it panics the run otherwise).
        assert_eq!(sim.metrics().completed_cs(), 3);
        let recs = sim.metrics().records();
        let first = recs.iter().find(|r| r.site == SiteId(0)).expect("site 0");
        assert!(first.entered_at < 2_500, "in the CS before the cut");
        for r in recs.iter().filter(|r| r.site != SiteId(0)) {
            assert!(
                r.entered_at >= first.exited_at,
                "{:?} entered at {} while site 0 held the CS until {}",
                r.site,
                r.entered_at,
                first.exited_at
            );
        }
        let d = sim.metrics().detector();
        assert!(d.suspicions > 0, "one-way silence must suspect: {d:?}");
        assert_eq!(
            d.failures_confirmed, 0,
            "vouching must defer every confirmation: {d:?}"
        );
        assert!(
            d.confirms_deferred > 0,
            "the escalation path was reached and vetoed: {d:?}"
        );
        assert!(
            d.asymmetric_suspicions > 0,
            "site 0 heard it was suspected via the echo: {d:?}"
        );
        for i in 0..3u32 {
            assert!(sim.site(SiteId(i)).suspected().is_empty(), "site {i}");
        }
    }

    #[test]
    fn crash_recovery_rejoins_without_oracle() {
        // A real crash: site 2 dies, the survivors suspect it from silence,
        // it restarts with fresh state, announces its rejoin, and all three
        // sites (including the recovered one) then complete CS rounds.
        let cfg = SimConfig {
            oracle_notices: false,
            ..SimConfig::default()
        };
        let mut sim = detector_sim(3, cfg);
        sim.enable_trace(100_000);
        sim.schedule_crash(SiteId(2), 5_000);
        sim.schedule_recovery(SiteId(2), 30_000);
        sim.schedule_request(SiteId(0), 45_000);
        sim.schedule_request(SiteId(1), 45_100);
        sim.schedule_request(SiteId(2), 45_200);
        sim.run_to_quiescence(200_000);

        assert!(!sim.is_crashed(SiteId(2)));
        assert_eq!(sim.metrics().completed_cs(), 3, "all rounds completed");
        let d = sim.metrics().detector();
        assert!(d.suspicions >= 2, "both survivors suspected site 2: {d:?}");
        assert_eq!(
            d.false_suspicions, 0,
            "a genuine crash is not a false suspicion: {d:?}"
        );
        assert_eq!(d.rejoins_sent, 1, "one recovery announcement");
        assert!(d.rejoins_observed >= 2, "both survivors saw the rejoin");
        let trace = sim.trace().expect("enabled");
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::Recover {
                site: SiteId(2),
                ..
            }
        )));
        assert!(
            !trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::Notice { .. })),
            "no oracle notices in detector mode"
        );
        for i in 0..3u32 {
            assert!(sim.site(SiteId(i)).suspected().is_empty(), "site {i}");
            assert!(!sim.site(SiteId(i)).inner().inner().is_inaccessible());
        }
    }

    #[test]
    fn crash_of_cs_holder_recovers_via_detector() {
        // Site 0 crashes *inside* its CS holding every arbiter's lock. With
        // a fixed full quorum nobody can progress while it is down (the
        // dead site is in everyone's quorum), but after it restarts and
        // rejoins, the stale lock held by its old incarnation must have
        // been purged so both the survivor and the recovered site complete.
        let cfg = SimConfig {
            oracle_notices: false,
            ..SimConfig::default()
        };
        let mut sim = detector_sim(3, cfg);
        sim.schedule_request(SiteId(0), 0);
        // Entry at ~2000 (2T), hold 100: crash at 2050 is inside the CS.
        sim.schedule_crash(SiteId(0), 2_050);
        sim.schedule_recovery(SiteId(0), 40_000);
        sim.schedule_request(SiteId(1), 50_000);
        sim.schedule_request(SiteId(0), 60_000);
        sim.run_to_quiescence(200_000);

        // Site 1's round completed despite the crashed holder never sending
        // a release, and the recovered site 0 completed a fresh round.
        assert_eq!(sim.metrics().completed_cs(), 2);
        let by_site = sim.metrics().per_site_counts();
        assert_eq!(by_site.get(&SiteId(1)), Some(&1));
        assert_eq!(by_site.get(&SiteId(0)), Some(&1));
    }

    #[test]
    fn recovery_of_never_crashed_site_is_noop() {
        let mut sim = detector_sim(2, SimConfig::default());
        sim.schedule_recovery(SiteId(1), 100);
        sim.schedule_request(SiteId(0), 5_000);
        sim.run_to_quiescence(50_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
        assert_eq!(sim.metrics().detector().rejoins_sent, 0);
    }

    /// In-process differential gate: the same fault-heavy scenario must
    /// produce the identical execution under both schedulers — metrics,
    /// trace, everything. (CI additionally runs the whole golden-counter
    /// suite under `QMX_SCHEDULER=heap` and `=wheel` and diffs.)
    #[test]
    fn heap_and_wheel_schedulers_replay_identically() {
        let run = |scheduler: SchedulerKind| {
            let cfg = SimConfig {
                delay: DelayModel::Exponential { mean: 700 },
                loss: LossModel::Iid {
                    drop: 0.1,
                    dup: 0.05,
                },
                oracle_notices: false,
                seed: 31,
                scheduler,
                ..SimConfig::default()
            };
            let mut sim = detector_sim(4, cfg);
            sim.enable_trace(100_000);
            for i in 0..4 {
                for r in 0..6u64 {
                    sim.schedule_request(SiteId(i), r * 9_000 + 37 * i as u64);
                }
            }
            sim.schedule_crash(SiteId(3), 11_000);
            sim.schedule_recovery(SiteId(3), 40_000);
            let events = sim.run_to_quiescence(400_000);
            (
                events,
                format!("{:?}", sim.metrics()),
                sim.trace().expect("enabled").events().to_vec(),
            )
        };
        let heap = run(SchedulerKind::Heap);
        let wheel = run(SchedulerKind::Wheel);
        assert_eq!(heap.0, wheel.0, "event counts diverged");
        assert_eq!(heap.1, wheel.1, "metrics diverged");
        assert_eq!(heap.2, wheel.2, "traces diverged");
    }

    /// Bulk-loaded arrivals assign sequence numbers in slice order, so
    /// the run is byte-identical to per-event scheduling, whether they are
    /// loaded untagged or tagged with [`ResourceId::SOLO`].
    #[test]
    fn bulk_loaded_arrivals_match_individual_pushes() {
        let arrivals: Vec<(SiteId, u64)> = (0..5u32)
            .flat_map(|i| (0..8u64).map(move |r| (SiteId(i), r * 1_100 + 13 * i as u64)))
            .collect();
        let tagged: Vec<(SiteId, ResourceId, u64)> = arrivals
            .iter()
            .map(|&(s, t)| (s, ResourceId::SOLO, t))
            .collect();
        for scheduler in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let cfg = || SimConfig {
                delay: DelayModel::Exponential { mean: 400 },
                seed: 5,
                scheduler,
                ..SimConfig::default()
            };
            let mut one_by_one = full_quorum_sim(5, cfg());
            for &(s, t) in &arrivals {
                one_by_one.schedule_request(s, t);
            }
            let mut bulk = full_quorum_sim(5, cfg());
            bulk.schedule_requests(&arrivals);
            let mut bulk_tagged = full_quorum_sim(5, cfg());
            bulk_tagged.schedule_requests_r(&tagged);
            let events = one_by_one.run_to_quiescence(10_000_000);
            assert_eq!(events, bulk.run_to_quiescence(10_000_000));
            assert_eq!(events, bulk_tagged.run_to_quiescence(10_000_000));
            let metrics = format!("{:?}", one_by_one.metrics());
            assert_eq!(metrics, format!("{:?}", bulk.metrics()), "{scheduler:?}");
            assert_eq!(
                metrics,
                format!("{:?}", bulk_tagged.metrics()),
                "{scheduler:?}"
            );
        }
    }

    /// Resource 0 is an ordinary resource of a lock space: an arrival for
    /// it is busy only while rid 0 itself is waited for or held, not while
    /// some other shard is, and the monitor tracks each holder apart.
    #[test]
    fn resource_zero_overlaps_another_resource_of_a_lock_space() {
        let build = || {
            let quorum: Vec<SiteId> = (0..3).map(SiteId).collect();
            let mut sim = Simulator::new(
                (0..3)
                    .map(|i| {
                        let quorum = quorum.clone();
                        LockSpace::new(
                            SiteId(i),
                            Arc::new(move |_rid| {
                                DelayOptimal::new(SiteId(i), quorum.clone(), Config::default())
                            }),
                        )
                    })
                    .collect(),
                SimConfig {
                    hold: DelayModel::Constant(10_000),
                    ..SimConfig::default()
                },
            );
            // Rid 1 is held over 2T..12T; rid 0 arrives at 3T, inside it.
            sim.schedule_requests_r(&[
                (SiteId(0), ResourceId(1), 0),
                (SiteId(0), ResourceId::SOLO, 3_000),
            ]);
            sim
        };
        let mut mid = build();
        mid.run_to_quiescence(8_000);
        assert_eq!(mid.site_in_cs(ResourceId(1)), Some(SiteId(0)));
        assert_eq!(mid.site_in_cs(ResourceId::SOLO), Some(SiteId(0)));
        assert_eq!(mid.site_in_cs(ResourceId(2)), None);

        let mut sim = build();
        sim.run_to_quiescence(1_000_000);
        let recs = sim.metrics().records();
        assert_eq!(recs.len(), 2, "both sections complete: {recs:?}");
        let (r1, r0) = (recs[0], recs[1]);
        assert_eq!(
            (r1.resource, r0.resource),
            (ResourceId(1), ResourceId::SOLO)
        );
        assert!(
            r0.entered_at < r1.exited_at,
            "the sections overlap in time: {recs:?}"
        );
        assert_eq!(sim.site_in_cs(ResourceId(1)), None);
        assert_eq!(sim.site_in_cs(ResourceId::SOLO), None);
    }

    #[test]
    fn scheduled_abort_withdraws_and_frees_the_arbiters() {
        // Abort site 0's request before its grant arrives. The in-flight
        // Reply crosses the Abandon, comes back as an orphan Relinquish,
        // and a later request completes normally against clean arbiters.
        let mut sim = full_quorum_sim(2, SimConfig::default());
        sim.schedule_request(SiteId(0), 0);
        sim.schedule_abort(SiteId(0), 500);
        sim.schedule_request(SiteId(0), 10_000);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
        assert!(sim.metrics().records()[0].entered_at > 10_000);
        let a = sim.metrics().aborts();
        assert_eq!(a.aborts, 1);
        assert_eq!(a.deadline_aborts, 0);
        assert_eq!(a.orphan_grants, 1, "the crossed Reply came back");
        assert_eq!(sim.metrics().retries(), 0, "no retry policy configured");
        assert!(!sim.has_pending_events());
    }

    #[test]
    fn abort_of_idle_site_is_noop() {
        let mut sim = full_quorum_sim(2, SimConfig::default());
        sim.schedule_abort(SiteId(0), 100);
        sim.schedule_request(SiteId(0), 200);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
        assert_eq!(sim.metrics().aborts().aborts, 0);
    }

    #[test]
    fn deadline_expiry_aborts_a_request_wedged_on_a_crashed_arbiter() {
        // Site 1 (in site 0's fixed quorum) is dead, so the request can
        // never complete; with a deadline the client gives up instead of
        // waiting forever, and without a retry policy that is the end.
        let cfg = SimConfig {
            oracle_notices: false,
            deadline: Some(5_000),
            ..SimConfig::default()
        };
        let mut sim = full_quorum_sim(2, cfg);
        sim.schedule_crash(SiteId(1), 0);
        sim.schedule_request(SiteId(0), 10);
        sim.run_to_quiescence(100_000);
        assert_eq!(sim.metrics().completed_cs(), 0);
        let a = sim.metrics().aborts();
        assert_eq!(a.aborts, 1);
        assert_eq!(a.deadline_aborts, 1, "the deadline timer fired it");
        assert!(!sim.site(SiteId(0)).wants_cs(), "cleanly withdrawn");
        assert!(!sim.has_pending_events());
    }

    #[test]
    fn retry_with_backoff_completes_once_the_arbiter_recovers() {
        // Closed loop under the full detector stack: every deadline abort
        // re-issues the request after a jittered exponential backoff, so
        // when site 1 finally restarts and rejoins (detector handshake —
        // a bare recovered arbiter stays in its rejoin window forever),
        // a retry lands on a live quorum and completes.
        let cfg = SimConfig {
            oracle_notices: false,
            deadline: Some(5_000),
            retry: Some(RetryPolicy {
                base: 2_000,
                cap: 16_000,
                max_attempts: 20,
            }),
            ..SimConfig::default()
        };
        let mut sim = detector_sim(2, cfg);
        sim.schedule_crash(SiteId(1), 0);
        sim.schedule_recovery(SiteId(1), 50_000);
        sim.schedule_request(SiteId(0), 10);
        sim.run_to_quiescence(150_000);
        assert_eq!(sim.metrics().completed_cs(), 1);
        assert!(
            sim.metrics().records()[0].entered_at > 50_000,
            "nothing could complete before the recovery"
        );
        let a = *sim.metrics().aborts();
        assert!(a.aborts >= 2, "several attempts timed out first: {a:?}");
        assert_eq!(a.deadline_aborts, a.aborts);
        assert_eq!(sim.metrics().retries(), a.aborts, "every abort retried");
    }

    #[test]
    fn retry_attempts_are_capped() {
        // Nobody ever recovers: the client retries `max_attempts` times,
        // then gives up for good and the run quiesces.
        let cfg = SimConfig {
            oracle_notices: false,
            deadline: Some(3_000),
            retry: Some(RetryPolicy {
                base: 1_000,
                cap: 4_000,
                max_attempts: 3,
            }),
            ..SimConfig::default()
        };
        let mut sim = full_quorum_sim(2, cfg);
        sim.schedule_crash(SiteId(1), 0);
        sim.schedule_request(SiteId(0), 10);
        sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.metrics().completed_cs(), 0);
        assert_eq!(sim.metrics().retries(), 3);
        // Initial attempt + three retries all hit the deadline.
        assert_eq!(sim.metrics().aborts().deadline_aborts, 4);
        assert!(!sim.site(SiteId(0)).wants_cs());
        assert!(!sim.has_pending_events());
    }

    /// A crash drops the site's open requests with their retry counts, so
    /// the restarted site gets the whole retry budget again.
    #[test]
    fn a_restarted_site_gets_a_fresh_retry_budget() {
        let cfg = SimConfig {
            oracle_notices: false,
            deadline: Some(3_000),
            retry: Some(RetryPolicy {
                base: 1_000,
                cap: 4_000,
                max_attempts: 3,
            }),
            ..SimConfig::default()
        };
        let mut sim = full_quorum_sim(2, cfg);
        sim.schedule_crash(SiteId(1), 0);
        // The first life spends its three retries well before 100T (see
        // `retry_attempts_are_capped`).
        sim.schedule_request(SiteId(0), 10);
        sim.schedule_crash(SiteId(0), 100_000);
        sim.schedule_recovery(SiteId(0), 110_000);
        sim.schedule_request(SiteId(0), 120_000);
        sim.run_to_quiescence(1_000_000);
        assert_eq!(sim.metrics().completed_cs(), 0);
        assert_eq!(sim.metrics().retries(), 6, "three retries per life");
    }

    /// An `Exit` left over from a life that crashed inside its CS leaves
    /// the next life's open request alone: that request completes with its
    /// own request time and its full hold.
    #[test]
    fn stale_exit_spares_the_next_lifes_request() {
        let cfg = SimConfig {
            oracle_notices: false,
            hold: DelayModel::Constant(30_000),
            ..SimConfig::default()
        };
        let mut sim = detector_sim(3, cfg);
        // Entry at 2T, so the first life's exit falls due at 32T.
        sim.schedule_request(SiteId(0), 0);
        sim.schedule_crash(SiteId(0), 3_000);
        sim.schedule_recovery(SiteId(0), 5_000);
        // Still waiting for its grant when the stale exit fires.
        sim.schedule_request(SiteId(0), 31_000);
        sim.run_to_quiescence(200_000);
        let recs = sim.metrics().records();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].requested_at, 31_000);
        assert!(recs[0].entered_at > 32_000, "{recs:?}");
        assert_eq!(recs[0].exited_at - recs[0].entered_at, 30_000);
    }

    #[test]
    fn fifo_per_link_is_preserved() {
        // With exponential delays, deliveries on one link must still be in
        // send order. We test indirectly: run a long contended simulation
        // and rely on the protocol's liveness (it would wedge or violate
        // safety if FIFO broke badly).
        let cfg = SimConfig {
            delay: DelayModel::Exponential { mean: 300 },
            seed: 99,
            ..SimConfig::default()
        };
        let mut sim = full_quorum_sim(5, cfg);
        for i in 0..5 {
            for r in 0..10u64 {
                sim.schedule_request(SiteId(i), r * 700 + 13 * i as u64);
            }
        }
        sim.run_to_quiescence(50_000_000);
        // Arrivals hitting a busy site are dropped, so fewer than the 50
        // scheduled requests complete; what matters is that the run
        // quiesces with every site idle and no wedged state.
        assert!(sim.metrics().completed_cs() >= 10);
        assert!(!sim.has_pending_events());
        for i in 0..5u32 {
            let s = sim.site(SiteId(i));
            assert!(!s.in_cs() && !s.wants_cs(), "site {i} wedged");
        }
    }
}
