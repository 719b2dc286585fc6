//! Multiplexing many named locks over one site set and one link layer.
//!
//! The paper arbitrates a single critical section. A production lock
//! *service* serves millions of named resources, and running one full
//! `Detector<Reliable<DelayOptimal>>` stack per resource would be absurd:
//! every resource would heartbeat every peer, every resource would keep its
//! own retransmit buffers, and one site crash would be suspected, confirmed
//! and fenced once *per lock* instead of once per link.
//!
//! [`LockSpace`] fixes the layering. It is itself a [`Protocol`] whose wire
//! message [`ResMsg`] tags the inner algorithm's messages with a
//! [`ResourceId`], and it keeps **per-resource protocol state** in a sharded
//! table keyed by that id. Stacked as
//!
//! ```text
//! Detector< Reliable< LockSpace<DelayOptimal> > >
//! ```
//!
//! the transport and detector wrappers sit *outside* the resource
//! multiplexer, so there is exactly **one** ack/retransmit/epoch machine and
//! **one** heartbeat state per link, shared by all resources:
//!
//! * a crash bumps the link epoch once, and the fence is observed by every
//!   resource shard (the rejoin/failure hooks fan out to all of them);
//! * heartbeat volume is a function of `N`, not of the number of locks;
//! * messages from many resources to the same peer share one FIFO sequence
//!   space (the prerequisite for link-level batching).
//!
//! Shards are created **lazily** on first touch via a factory closure, so a
//! zipf-skewed workload over a million-resource namespace only materializes
//! the resources actually used. Timer scheduling is indexed (a `BTreeSet` of
//! `(due, resource)` pairs), so [`Protocol::next_timer`] and
//! [`Protocol::on_timer`] cost `O(log R)` in the touched shards, never a
//! scan of the whole table; the driver clock is stamped onto a shard only
//! when the shard is touched.
//!
//! Abort bookkeeping, like the timer index, costs O(1) per event. Every
//! call into a shard reads the shard's [`AbortCounters`] before and after,
//! adds the difference to a running total, and notes the resource when its
//! abort count rose, so [`Protocol::abort_counters`] and
//! [`Protocol::drain_aborted_resources`] never walk the shards. The
//! simulator and `Node` call them after every event; a request that
//! never aborts pays two counter reads for them.
//!
//! The inner protocol must signal CS entry per its own single-resource
//! convention ([`Effects::enter_cs`]); the lock space re-tags each entry
//! with the shard's id so drivers observe [`Effects::entered_resources`].
//! Inner protocols must have an effect-free `on_start` (true of the
//! permission-based algorithms in this workspace; a token protocol that
//! announces initial placement would need eager shard creation).

use crate::protocol::{AbortCounters, Effects, MsgKind, MsgMeta, Protocol, ResourceId, SiteId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A wire message of one resource shard, tagged with its [`ResourceId`].
#[derive(Clone, Debug, PartialEq)]
pub struct ResMsg<M> {
    /// The resource whose shard sent (and should receive) `body`.
    pub rid: ResourceId,
    /// The inner protocol's message.
    pub body: M,
}

impl<M: MsgMeta> MsgMeta for ResMsg<M> {
    fn kind(&self) -> MsgKind {
        self.body.kind()
    }
}

/// Builds the protocol instance for a freshly touched resource shard.
///
/// `Arc` so a lock space is cheaply cloneable (the simulator's
/// crash-recovery path clones a pristine image of every site).
pub type ShardFactory<P> = Arc<dyn Fn(ResourceId) -> P + Send + Sync>;

/// A sharded multi-resource lock space over a single-resource [`Protocol`].
///
/// See the [module docs](self) for the layering rationale. Construct with
/// [`LockSpace::new`], address individual locks through the `_r` methods of
/// [`Protocol`] ([`request_cs_r`](Protocol::request_cs_r),
/// [`release_cs_r`](Protocol::release_cs_r), …), and stack transport /
/// detector wrappers *outside* so they are shared per link.
#[derive(Clone)]
pub struct LockSpace<P> {
    site: SiteId,
    factory: ShardFactory<P>,
    shards: BTreeMap<u32, P>,
    /// Driver clock, stamped onto shards lazily (on touch).
    now: u64,
    incarnation: u64,
    peer_universe: Option<Vec<SiteId>>,
    /// Timer index: earliest wake-up of each armed shard …
    timer_of: BTreeMap<u32, u64>,
    /// … and the same pairs ordered by due time for `next_timer`.
    timers: BTreeSet<(u64, u32)>,
    /// Sum of every shard's [`AbortCounters`]; `None` until a shard
    /// reports any.
    abort_sum: Option<AbortCounters>,
    /// Shards whose `aborts + deadline_aborts` rose since the last
    /// [`Protocol::drain_aborted_resources`].
    aborted: BTreeSet<u32>,
    /// Sites currently down from the detector's point of view
    /// (`true` = failure confirmed, `false` = merely suspected). Shards
    /// are created lazily, so a shard touched *after* a suspicion fired
    /// would otherwise start blind to it and request from a dead quorum
    /// member; this set is replayed into every fresh shard.
    down: BTreeMap<SiteId, bool>,
}

impl<P: Protocol> LockSpace<P> {
    /// Creates an empty lock space for `site`; shards are built on first
    /// touch by `factory`.
    pub fn new(site: SiteId, factory: ShardFactory<P>) -> Self {
        LockSpace {
            site,
            factory,
            shards: BTreeMap::new(),
            now: 0,
            incarnation: 0,
            peer_universe: None,
            timer_of: BTreeMap::new(),
            timers: BTreeSet::new(),
            abort_sum: None,
            aborted: BTreeSet::new(),
            down: BTreeMap::new(),
        }
    }

    /// Number of shards materialized so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read-only view of the shard for `rid`, if it has been touched.
    pub fn shard(&self, rid: ResourceId) -> Option<&P> {
        self.shards.get(&rid.0)
    }

    /// The ids of all materialized shards, ascending.
    pub fn resource_ids(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.shards.keys().map(|&r| ResourceId(r))
    }

    /// Re-seats `rid` in the timer index after its shard may have re-armed.
    fn reindex_timer(&mut self, rid: u32, next: Option<u64>) {
        if let Some(old) = self.timer_of.remove(&rid) {
            self.timers.remove(&(old, rid));
        }
        if let Some(due) = next {
            self.timer_of.insert(rid, due);
            self.timers.insert((due, rid));
        }
    }

    /// Ensures the shard for `rid` exists and is stamped with the current
    /// clock, creating it through the factory on first touch.
    fn ensure(&mut self, rid: ResourceId) -> &mut P {
        let now = self.now;
        let incarnation = self.incarnation;
        if !self.shards.contains_key(&rid.0) {
            let mut shard = (self.factory)(rid);
            debug_assert_eq!(shard.site(), self.site, "factory must build for this site");
            shard.set_incarnation(incarnation);
            if let Some(peers) = &self.peer_universe {
                shard.set_peer_universe(peers);
            }
            shard.set_now(now);
            // Inner protocols must not announce anything at start (see the
            // module docs); run the hook anyway so shard state is complete.
            let mut fx = Effects::new();
            shard.on_start(&mut fx);
            debug_assert!(
                fx.sends().is_empty() && !fx.entered_cs(),
                "lock-space shards require an effect-free on_start"
            );
            // Replay the current down-set so the shard routes around
            // already-suspected/failed sites from its very first request.
            // On an idle, freshly built shard these hooks only adjust
            // failure bookkeeping and quorum choice — no sends.
            for (&s, &confirmed) in &self.down {
                if confirmed {
                    shard.on_site_failure(s, &mut fx);
                } else {
                    shard.on_site_suspected(s, &mut fx);
                }
            }
            debug_assert!(
                fx.sends().is_empty() && !fx.entered_cs(),
                "down-set replay on an idle shard must be effect-free"
            );
            if let Some(c) = shard.abort_counters() {
                self.abort_sum
                    .get_or_insert_with(Default::default)
                    .merge(&c);
            }
            self.shards.insert(rid.0, shard);
        }
        let shard = self.shards.get_mut(&rid.0).expect("ensured above");
        shard.set_now(now);
        shard
    }

    /// Runs `f` against the shard for `rid`, re-tagging its sends and CS
    /// entries with the resource id, re-seating its timer and recording
    /// any aborts it made.
    fn with_shard(
        &mut self,
        rid: ResourceId,
        fx: &mut Effects<ResMsg<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Effects<P::Msg>),
    ) {
        let mut inner_fx = Effects::new();
        let shard = self.ensure(rid);
        let before = shard.abort_counters();
        f(shard, &mut inner_fx);
        let after = shard.abort_counters();
        let next = shard.next_timer();
        if before != after {
            self.note_aborts(rid.0, before.unwrap_or_default(), after.unwrap_or_default());
        }
        let (sends, entered) = inner_fx.drain();
        for (to, body) in sends {
            fx.send(to, ResMsg { rid, body });
        }
        for _ in entered {
            fx.enter_cs_r(rid);
        }
        self.reindex_timer(rid.0, next);
    }

    /// Fans a hook out to every materialized shard, in resource-id order.
    fn broadcast(
        &mut self,
        fx: &mut Effects<ResMsg<P::Msg>>,
        mut f: impl FnMut(&mut P, &mut Effects<P::Msg>),
    ) {
        let rids: Vec<u32> = self.shards.keys().copied().collect();
        for rid in rids {
            self.with_shard(ResourceId(rid), fx, &mut f);
        }
    }

    /// Moves the running total by one shard's counter change, and queues
    /// the shard for the next drain when its abort count rose.
    fn note_aborts(&mut self, rid: u32, before: AbortCounters, after: AbortCounters) {
        let sum = self.abort_sum.get_or_insert_with(Default::default);
        sum.aborts = sum.aborts + after.aborts - before.aborts;
        sum.deadline_aborts = sum.deadline_aborts + after.deadline_aborts - before.deadline_aborts;
        sum.orphan_grants = sum.orphan_grants + after.orphan_grants - before.orphan_grants;
        if after.aborts + after.deadline_aborts > before.aborts + before.deadline_aborts {
            self.aborted.insert(rid);
        }
    }

    /// The sum of every shard's counters, by walking the shards: what the
    /// running total must equal.
    fn summed_abort_counters(&self) -> Option<AbortCounters> {
        self.shards
            .values()
            .filter_map(|p| p.abort_counters())
            .reduce(|mut sum, c| {
                sum.merge(&c);
                sum
            })
    }
}

impl<P: Protocol> Protocol for LockSpace<P> {
    type Msg = ResMsg<P::Msg>;

    fn site(&self) -> SiteId {
        self.site
    }

    fn request_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.request_cs_r(ResourceId::SOLO, fx);
    }

    fn release_cs(&mut self, fx: &mut Effects<Self::Msg>) {
        self.release_cs_r(ResourceId::SOLO, fx);
    }

    fn handle(&mut self, from: SiteId, msg: Self::Msg, fx: &mut Effects<Self::Msg>) {
        let ResMsg { rid, body } = msg;
        self.with_shard(rid, fx, |p, ifx| p.handle(from, body, ifx));
    }

    /// Whether *any* shard is inside its CS (single-resource drivers treat
    /// the whole space as one lock; use [`in_cs_r`](Protocol::in_cs_r) for a
    /// specific resource).
    fn in_cs(&self) -> bool {
        self.shards.values().any(|p| p.in_cs())
    }

    /// Whether *any* shard has an unfulfilled request outstanding.
    fn wants_cs(&self) -> bool {
        self.shards.values().any(|p| p.wants_cs())
    }

    fn abort_cs(&mut self, fx: &mut Effects<Self::Msg>) -> bool {
        self.abort_cs_r(ResourceId::SOLO, fx)
    }

    fn abortable(&self) -> bool {
        self.shards.values().any(|p| p.abortable())
    }

    fn set_deadline(&mut self, deadline: Option<u64>) {
        self.set_deadline_r(ResourceId::SOLO, deadline);
    }

    fn abort_counters(&self) -> Option<AbortCounters> {
        debug_assert_eq!(
            self.abort_sum,
            self.summed_abort_counters(),
            "running abort total drifted from the sum over shards"
        );
        self.abort_sum
    }

    fn request_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.with_shard(rid, fx, |p, ifx| p.request_cs(ifx));
    }

    fn release_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) {
        self.with_shard(rid, fx, |p, ifx| p.release_cs(ifx));
    }

    fn abort_cs_r(&mut self, rid: ResourceId, fx: &mut Effects<Self::Msg>) -> bool {
        let mut aborted = false;
        self.with_shard(rid, fx, |p, ifx| aborted = p.abort_cs(ifx));
        aborted
    }

    fn in_cs_r(&self, rid: ResourceId) -> bool {
        self.shards.get(&rid.0).is_some_and(|p| p.in_cs())
    }

    fn wants_cs_r(&self, rid: ResourceId) -> bool {
        self.shards.get(&rid.0).is_some_and(|p| p.wants_cs())
    }

    fn set_deadline_r(&mut self, rid: ResourceId, deadline: Option<u64>) {
        let shard = self.ensure(rid);
        shard.set_deadline(deadline);
        let next = shard.next_timer();
        self.reindex_timer(rid.0, next);
    }

    fn drain_aborted_resources(&mut self) -> Vec<ResourceId> {
        std::mem::take(&mut self.aborted)
            .into_iter()
            .map(ResourceId)
            .collect()
    }

    fn on_site_failure(&mut self, failed: SiteId, fx: &mut Effects<Self::Msg>) {
        self.down.insert(failed, true);
        self.broadcast(fx, |p, ifx| p.on_site_failure(failed, ifx));
    }

    fn on_site_suspected(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        // A confirmed failure is never downgraded back to suspicion.
        self.down.entry(site).or_insert(false);
        self.broadcast(fx, |p, ifx| p.on_site_suspected(site, ifx));
    }

    fn on_site_restored(&mut self, site: SiteId, fx: &mut Effects<Self::Msg>) {
        self.down.remove(&site);
        self.broadcast(fx, |p, ifx| p.on_site_restored(site, ifx));
    }

    fn on_peer_rejoined(&mut self, site: SiteId, incarnation: u64, fx: &mut Effects<Self::Msg>) {
        // A rejoined peer is alive with fresh state: no longer down.
        self.down.remove(&site);
        self.broadcast(fx, |p, ifx| p.on_peer_rejoined(site, incarnation, ifx));
    }

    fn on_recover(&mut self, fx: &mut Effects<Self::Msg>) {
        self.broadcast(fx, |p, ifx| p.on_recover(ifx));
    }

    fn on_rejoin_complete(&mut self, fx: &mut Effects<Self::Msg>) {
        self.broadcast(fx, |p, ifx| p.on_rejoin_complete(ifx));
    }

    fn rejoin_pending(&self) -> bool {
        self.shards.values().any(|p| p.rejoin_pending())
    }

    fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
        for shard in self.shards.values_mut() {
            shard.set_incarnation(incarnation);
        }
    }

    fn set_peer_universe(&mut self, peers: &[SiteId]) {
        self.peer_universe = Some(peers.to_vec());
        for shard in self.shards.values_mut() {
            shard.set_peer_universe(peers);
        }
    }

    fn set_now(&mut self, now: u64) {
        // Lazy: shards are stamped when touched, so a 10^6-resource space
        // does not pay O(R) per driver event.
        self.now = self.now.max(now);
    }

    fn next_timer(&self) -> Option<u64> {
        self.timers.first().map(|&(due, _)| due)
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<Self::Msg>) {
        self.now = self.now.max(now);
        // Collect due shards first: processing may re-arm a shard, and the
        // re-armed deadline must wait for the next wake-up, not loop here.
        let mut due = Vec::new();
        while let Some(&(t, rid)) = self.timers.first() {
            if t > self.now {
                break;
            }
            self.timers.remove(&(t, rid));
            self.timer_of.remove(&rid);
            due.push(rid);
        }
        for rid in due {
            self.with_shard(ResourceId(rid), fx, |p, ifx| p.on_timer(now, ifx));
        }
    }
}

impl<P: Protocol + fmt::Debug> fmt::Debug for LockSpace<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockSpace")
            .field("site", &self.site)
            .field("now", &self.now)
            .field("incarnation", &self.incarnation)
            .field("shards", &self.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_optimal::{Config, DelayOptimal};

    fn space(site: u32, n: u32) -> LockSpace<DelayOptimal> {
        let quorum: Vec<SiteId> = (0..n).map(SiteId).collect();
        LockSpace::new(
            SiteId(site),
            Arc::new(move |_rid| {
                DelayOptimal::new(SiteId(site), quorum.clone(), Config::default())
            }),
        )
    }

    /// Delivers every queued send to its destination space until quiet,
    /// returning the resources each site entered along the way.
    fn pump(
        spaces: &mut [LockSpace<DelayOptimal>],
        fx: &mut [Effects<ResMsg<crate::Msg>>],
    ) -> Vec<Vec<ResourceId>> {
        let mut entered = vec![Vec::new(); spaces.len()];
        for (i, f) in fx.iter_mut().enumerate() {
            entered[i].extend(f.drain_entered());
        }
        loop {
            let mut moved = false;
            for i in 0..spaces.len() {
                let sends = fx[i].take_sends();
                for (to, msg) in sends {
                    moved = true;
                    let dst = to.index();
                    let mut dst_fx = Effects::new();
                    spaces[dst].handle(SiteId(i as u32), msg, &mut dst_fx);
                    for (s_to, s_msg) in dst_fx.drain_sends() {
                        fx[dst].send(s_to, s_msg);
                    }
                    entered[dst].extend(dst_fx.drain_entered());
                }
            }
            if !moved {
                break;
            }
        }
        entered
    }

    #[test]
    fn shards_are_lazy_and_independent() {
        let mut s0 = space(0, 2);
        let s1 = space(1, 2);
        assert_eq!(s0.shard_count(), 0);

        let mut fx0 = Effects::new();
        s0.request_cs_r(ResourceId(7), &mut fx0);
        assert_eq!(s0.shard_count(), 1);
        assert!(s0.wants_cs_r(ResourceId(7)) || s0.in_cs_r(ResourceId(7)));
        assert!(!s0.wants_cs_r(ResourceId(8)) && !s0.in_cs_r(ResourceId(8)));

        // The request reaches site 1 tagged with resource 7 and the grant
        // flows back; both shards materialize only resource 7.
        let mut fx = vec![fx0, Effects::new()];
        let mut spaces = [s0, s1];
        let entered = pump(&mut spaces, &mut fx);
        let [s0, s1] = &spaces;
        assert!(s0.in_cs_r(ResourceId(7)), "entered resource 7");
        assert_eq!(entered[0], vec![ResourceId(7)]);
        assert_eq!(s1.shard_count(), 1);
        assert!(!s0.in_cs_r(ResourceId(0)));
    }

    #[test]
    fn distinct_resources_admit_concurrently() {
        // One site set, two resources: both locks can be held at once (by
        // different or the same site) — they are independent CS instances.
        let mut s0 = space(0, 2);
        let mut fx0 = Effects::new();
        s0.request_cs_r(ResourceId(1), &mut fx0);
        s0.request_cs_r(ResourceId(2), &mut fx0);
        let mut fx = vec![fx0, Effects::new()];
        let mut spaces = [s0, space(1, 2)];
        pump(&mut spaces, &mut fx);
        assert!(spaces[0].in_cs_r(ResourceId(1)));
        assert!(spaces[0].in_cs_r(ResourceId(2)));
        // Solo-resource view: the space as a whole is "in CS".
        assert!(spaces[0].in_cs());
    }

    #[test]
    fn failure_hooks_fan_out_to_all_shards() {
        let mut s0 = space(0, 3);
        let mut fx = Effects::new();
        s0.request_cs_r(ResourceId(1), &mut fx);
        s0.request_cs_r(ResourceId(2), &mut fx);
        fx.take_sends();
        // Both shards exist; a failure notice reaches both (each withdraws /
        // reconstructs per §6 — here we just assert the fan-out happens by
        // observing both shards still answer coherently afterwards).
        let mut fx2 = Effects::new();
        s0.on_site_failure(SiteId(1), &mut fx2);
        assert_eq!(s0.shard_count(), 2);
    }

    #[test]
    fn timer_index_tracks_sharded_deadlines() {
        let mut s0 = space(0, 2);
        assert_eq!(s0.next_timer(), None);
        s0.set_now(10);
        s0.set_deadline_r(ResourceId(3), Some(500));
        s0.set_deadline_r(ResourceId(9), Some(300));
        let mut fx = Effects::new();
        s0.request_cs_r(ResourceId(3), &mut fx);
        s0.request_cs_r(ResourceId(9), &mut fx);
        fx.take_sends();
        // Earliest armed deadline wins.
        assert_eq!(s0.next_timer(), Some(300));
        // Firing resource 9's deadline aborts it and re-seats the index.
        let mut fx = Effects::new();
        s0.on_timer(300, &mut fx);
        assert_eq!(s0.next_timer(), Some(500));
        assert_eq!(s0.drain_aborted_resources(), vec![ResourceId(9)]);
        assert!(s0.drain_aborted_resources().is_empty(), "drained once");
    }

    #[test]
    fn abort_bookkeeping_drains_each_rid_once_in_order() {
        // Site 1 never answers, so every request stays pending and can
        // abort.
        let mut s0 = space(0, 2);
        assert_eq!(s0.abort_counters(), None, "no shard yet");
        let mut fx = Effects::new();
        s0.set_now(10);
        s0.set_deadline_r(ResourceId(9), Some(100));
        s0.set_deadline_r(ResourceId(3), Some(100));
        for rid in [9, 5, 3] {
            s0.request_cs_r(ResourceId(rid), &mut fx);
            assert_eq!(s0.abort_counters(), s0.summed_abort_counters());
        }
        assert_eq!(s0.shard_count(), 3);
        assert_eq!(s0.abort_counters(), Some(AbortCounters::default()));

        // Both deadlines fire in one wake-up.
        s0.on_timer(100, &mut fx);
        assert_eq!(s0.abort_counters(), s0.summed_abort_counters());
        // An explicit withdrawal hits the third shard.
        assert!(s0.abort_cs_r(ResourceId(5), &mut fx));
        assert_eq!(s0.abort_counters(), s0.summed_abort_counters());
        // Resource 3 asks again and aborts again before anyone drains.
        s0.request_cs_r(ResourceId(3), &mut fx);
        assert_eq!(s0.abort_counters(), s0.summed_abort_counters());
        assert!(s0.abort_cs_r(ResourceId(3), &mut fx));
        assert_eq!(s0.abort_counters(), s0.summed_abort_counters());

        let c = s0.abort_counters().expect("counters");
        assert_eq!((c.aborts, c.deadline_aborts, c.orphan_grants), (4, 2, 0));
        assert_eq!(
            s0.drain_aborted_resources(),
            vec![ResourceId(3), ResourceId(5), ResourceId(9)]
        );
        assert!(s0.drain_aborted_resources().is_empty(), "drained once");
        assert_eq!(s0.abort_counters(), Some(c), "draining keeps the totals");
    }
}
