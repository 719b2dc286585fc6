//! End-to-end runtime tests on the in-process loopback transport.
//!
//! Every test here drives the *exact* objects `qmxctl serve` runs over
//! TCP — [`Node`]s wrapping the full `Detector<Reliable<LockSpace<
//! DelayOptimal>>>` stack, talking framed bytes to [`ClientCore`]
//! sessions — but over [`LoopCluster`]'s virtual clock, so runs are
//! deterministic and counters can be asserted exactly.

use qmx_client::{ClientEvent, ClusterConfig, LoopCluster};
use qmx_core::ResourceId;
use qmx_runtime::node::NodeCounters;
use qmx_runtime::proto::RejectReason;

/// Pulls the next event of `handle`, running time forward until one
/// arrives (or the budget runs out).
fn wait_event(cluster: &mut LoopCluster, handle: usize, budget_us: u64) -> ClientEvent {
    let end = cluster.now() + budget_us;
    loop {
        if let Some(ev) = cluster.client(handle).next_event() {
            return ev;
        }
        assert!(
            cluster.now() < end,
            "no event for client {handle} within {budget_us} us"
        );
        cluster.run_for(1_000);
    }
}

fn expect_welcome(cluster: &mut LoopCluster, handle: usize) {
    match wait_event(cluster, handle, 100_000) {
        ClientEvent::Welcome { .. } => {}
        other => panic!("expected Welcome, got {other:?}"),
    }
}

fn acquire_granted(cluster: &mut LoopCluster, handle: usize, rid: u32) -> u64 {
    let req = cluster.client(handle).acquire(ResourceId(rid), None);
    match wait_event(cluster, handle, 5_000_000) {
        ClientEvent::Granted { rid: r, req: q } => {
            assert_eq!((r, q), (ResourceId(rid), req));
            req
        }
        other => panic!("expected Granted on rid {rid}, got {other:?}"),
    }
}

fn release_acked(cluster: &mut LoopCluster, handle: usize, rid: u32, req: u64) {
    cluster.client(handle).release(ResourceId(rid), req);
    match wait_event(cluster, handle, 5_000_000) {
        ClientEvent::Released { rid: r, req: q } => {
            assert_eq!((r, q), (ResourceId(rid), req));
        }
        other => panic!("expected Released on rid {rid}, got {other:?}"),
    }
}

/// Clients `a` and `b` take turns on `rid` for `rounds` rounds: each
/// round `b` asks while `a` holds, and is granted only after `a` releases.
fn take_turns(cluster: &mut LoopCluster, a: usize, b: usize, rid: u32, rounds: u32) {
    for round in 0..rounds {
        let ra = acquire_granted(cluster, a, rid);
        let rb = cluster.client(b).acquire(ResourceId(rid), None);
        cluster.run_for(100_000);
        assert!(cluster.events(b).is_empty(), "round {round}: early grant");
        release_acked(cluster, a, rid, ra);
        match wait_event(cluster, b, 5_000_000) {
            ClientEvent::Granted { rid: r, req } => assert_eq!((r, req), (ResourceId(rid), rb)),
            other => panic!("round {round}: expected grant, got {other:?}"),
        }
        release_acked(cluster, b, rid, rb);
    }
}

#[test]
fn multi_resource_round_trips() {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(5));
    cluster.run_for(50_000); // peer links + heartbeats settle

    let a = cluster.add_client(0);
    let b = cluster.add_client(3);
    expect_welcome(&mut cluster, a);
    expect_welcome(&mut cluster, b);

    // Disjoint resources from different sites: both grant.
    let ra = acquire_granted(&mut cluster, a, 1);
    let rb = acquire_granted(&mut cluster, b, 2);

    // Same resource contended: b queues until a releases.
    let rb2 = cluster.client(b).acquire(ResourceId(1), None);
    cluster.run_for(200_000);
    assert!(cluster.events(b).is_empty(), "grant before release");

    release_acked(&mut cluster, a, 1, ra);
    match wait_event(&mut cluster, b, 5_000_000) {
        ClientEvent::Granted { rid, req } => assert_eq!((rid, req), (ResourceId(1), rb2)),
        other => panic!("expected handover grant, got {other:?}"),
    }

    release_acked(&mut cluster, b, 1, rb2);
    release_acked(&mut cluster, b, 2, rb);

    // Exactly three grants/releases happened across the cluster, split
    // between the two serving sites, and every site task is clean.
    let grants: u64 = (0..5)
        .map(|s| cluster.counters(s).grants)
        .collect::<Vec<_>>()
        .iter()
        .sum();
    let releases: u64 = (0..5).map(|s| cluster.counters(s).releases).sum();
    assert_eq!(grants, 3);
    assert_eq!(releases, 3);
    assert_eq!(cluster.counters(0).grants, 1);
    assert_eq!(cluster.counters(3).grants, 2);
    for s in 0..5 {
        let c = cluster.counters(s);
        assert_eq!(c.bad_frames, 0, "site {s} saw bad frames");
        assert_eq!(c.deadline_aborts, 0);
        assert_eq!(c.disconnect_releases, 0);
        assert!(
            cluster.node(s).unwrap().quiescent(),
            "site {s} not quiescent"
        );
    }
}

#[test]
fn client_deadline_abort_mid_wait() {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(5));
    cluster.run_for(50_000);

    let holder = cluster.add_client(0);
    let waiter = cluster.add_client(2);
    expect_welcome(&mut cluster, holder);
    expect_welcome(&mut cluster, waiter);

    let held = acquire_granted(&mut cluster, holder, 7);

    // The waiter asks with a 300 ms budget while the lock is held.
    let wreq = cluster.client(waiter).acquire(ResourceId(7), Some(300_000));
    cluster.run_for(100_000);
    assert!(cluster.events(waiter).is_empty(), "granted while held");

    // Budget expires server-side; the waiter gets Aborted, never Granted.
    cluster.run_for(400_000);
    match wait_event(&mut cluster, waiter, 1_000_000) {
        ClientEvent::Aborted { rid, req } => assert_eq!((rid, req), (ResourceId(7), wreq)),
        other => panic!("expected deadline abort, got {other:?}"),
    }
    assert_eq!(cluster.counters(2).deadline_aborts, 1);

    // The holder still owns the lock and can release it cleanly; a later
    // acquire by the ex-waiter succeeds (no poisoned state).
    release_acked(&mut cluster, holder, 7, held);
    let again = acquire_granted(&mut cluster, waiter, 7);
    release_acked(&mut cluster, waiter, 7, again);

    // An explicit abort of a pending request also works.
    let h2 = acquire_granted(&mut cluster, holder, 7);
    let w2 = cluster.client(waiter).acquire(ResourceId(7), None);
    cluster.run_for(50_000);
    cluster.client(waiter).abort(ResourceId(7), w2);
    match wait_event(&mut cluster, waiter, 1_000_000) {
        ClientEvent::Aborted { rid, req } => assert_eq!((rid, req), (ResourceId(7), w2)),
        other => panic!("expected explicit abort ack, got {other:?}"),
    }
    assert_eq!(cluster.counters(2).client_aborts, 1);
    release_acked(&mut cluster, holder, 7, h2);

    // Aborting a granted lock is refused: the client owns it.
    let h3 = acquire_granted(&mut cluster, holder, 7);
    cluster.client(holder).abort(ResourceId(7), h3);
    match wait_event(&mut cluster, holder, 1_000_000) {
        ClientEvent::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::AlreadyGranted)
        }
        other => panic!("expected AlreadyGranted reject, got {other:?}"),
    }
    release_acked(&mut cluster, holder, 7, h3);
}

/// Two clients of site 0 queue on one lock, back to back, with no
/// deadline. 600 us later, while site 0's protocol request for the
/// first is still out, that client goes away: by an explicit abort or
/// by dropping its connection (`abort_by_disconnect`). Only the first
/// request may be withdrawn — the second client is still granted, and
/// no deadline abort is counted.
fn head_withdrawal_spares_the_next_waiter(abort_by_disconnect: bool) -> NodeCounters {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(3));
    cluster.run_for(50_000);
    let a = cluster.add_client(0);
    let b = cluster.add_client(0);
    expect_welcome(&mut cluster, a);
    expect_welcome(&mut cluster, b);

    let ra = cluster.client(a).acquire(ResourceId(1), None);
    let rb = cluster.client(b).acquire(ResourceId(1), None);
    cluster.run_for(600);
    if abort_by_disconnect {
        cluster.disconnect(a);
    } else {
        cluster.client(a).abort(ResourceId(1), ra);
        match wait_event(&mut cluster, a, 1_000_000) {
            ClientEvent::Aborted { rid, req } => assert_eq!((rid, req), (ResourceId(1), ra)),
            other => panic!("expected the abort ack, got {other:?}"),
        }
    }
    match wait_event(&mut cluster, b, 5_000_000) {
        ClientEvent::Granted { rid, req } => assert_eq!((rid, req), (ResourceId(1), rb)),
        other => panic!("the next waiter must be granted, got {other:?}"),
    }
    release_acked(&mut cluster, b, 1, rb);
    assert!(cluster.node(0).unwrap().quiescent());
    cluster.counters(0)
}

#[test]
fn client_abort_of_live_request_spares_the_next_waiter() {
    let c = head_withdrawal_spares_the_next_waiter(false);
    assert_eq!((c.client_aborts, c.deadline_aborts), (1, 0));
    assert_eq!((c.grants, c.releases, c.rejects), (1, 1, 0));
}

#[test]
fn disconnect_with_live_request_spares_the_next_waiter() {
    let c = head_withdrawal_spares_the_next_waiter(true);
    assert_eq!((c.client_aborts, c.deadline_aborts), (0, 0));
    assert_eq!((c.grants, c.releases, c.disconnect_releases), (1, 1, 0));
    assert_eq!(c.sessions_closed, 1);
}

#[test]
fn surviving_majority_grants_after_site_failure() {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(5));
    cluster.run_for(50_000);

    // Site 2's ring-majority quorum is {2,3,4}: it never consults
    // site 0 or 1. Kill site 1 and the path stays fully live.
    cluster.kill(1);

    let c = cluster.add_client(2);
    expect_welcome(&mut cluster, c);

    // Give the detector time to suspect the dead site (hb_timeout is
    // 10 ms virtual), then lock and unlock through the surviving quorum.
    cluster.run_for(100_000);
    let req = acquire_granted(&mut cluster, c, 5);
    release_acked(&mut cluster, c, 5, req);
    assert_eq!(cluster.counters(2).grants, 1);

    // A quorum that *does* include the dead site still makes progress:
    // site 4 uses {4,0,1}, and the detector + reliable layer route
    // around 1 after suspicion (Reliable keeps retransmitting while the
    // detector's fail-confirm window runs; ring-majority intersection
    // guarantees safety, the stack's fault handling restores liveness).
    let d = cluster.add_client(4);
    expect_welcome(&mut cluster, d);
    let rq = cluster.client(d).acquire(ResourceId(6), None);
    let mut granted = false;
    for _ in 0..40 {
        cluster.run_for(100_000);
        for ev in cluster.events(d) {
            if let ClientEvent::Granted { rid, req } = ev {
                assert_eq!((rid, req), (ResourceId(6), rq));
                granted = true;
            }
        }
        if granted {
            break;
        }
    }
    assert!(granted, "site 4 never granted despite failure handling");
    release_acked(&mut cluster, d, 6, rq);
}

#[test]
fn rejoin_after_restart() {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(5));
    cluster.run_for(50_000);

    // A client attached to site 1 is mid-session when its site dies.
    let doomed = cluster.add_client(1);
    expect_welcome(&mut cluster, doomed);
    let held = acquire_granted(&mut cluster, doomed, 3);
    let _ = held;

    cluster.kill(1);
    cluster.run_for(5_000);
    match wait_event(&mut cluster, doomed, 100_000) {
        ClientEvent::Disconnected => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }

    // Let suspicion land, then bring the site back with a bumped
    // incarnation: the stack runs its rejoin protocol and the node
    // re-dials its peers.
    cluster.run_for(200_000);
    cluster.restart(1);
    cluster.run_for(400_000);

    // The restarted site serves fresh clients, including on the very
    // resource its crashed predecessor held (crash released it via
    // session teardown on the quorum side after fail-confirm).
    let c = cluster.add_client(1);
    expect_welcome(&mut cluster, c);
    let rq = cluster.client(c).acquire(ResourceId(9), None);
    match wait_event(&mut cluster, c, 5_000_000) {
        ClientEvent::Granted { rid, req } => assert_eq!((rid, req), (ResourceId(9), rq)),
        other => panic!("expected post-rejoin grant, got {other:?}"),
    }
    release_acked(&mut cluster, c, 9, rq);

    // Peers saw the restart: site 0 accepted a fresh inbound peer link
    // from the rebooted site 1.
    assert!(cluster.counters(0).sessions_opened >= 2);
    assert!(cluster.node(1).unwrap().quiescent());
}

#[test]
fn forwarding_off_still_correct_under_contention() {
    // The 2T baseline (no reply forwarding) must produce the same
    // client-visible behaviour, just slower handovers.
    let mut cfg = ClusterConfig::ring_majority(5);
    cfg.algo.forwarding_enabled = false;
    let mut cluster = LoopCluster::new(cfg);
    cluster.run_for(50_000);

    let a = cluster.add_client(0);
    let b = cluster.add_client(1);
    expect_welcome(&mut cluster, a);
    expect_welcome(&mut cluster, b);

    take_turns(&mut cluster, a, b, 4, 3);
    assert_eq!(cluster.counters(0).grants + cluster.counters(1).grants, 6);
}

#[test]
fn single_site_serves_alternating_clients() {
    // One site is its own quorum: every grant is local, no peer link is
    // ever dialled, and the only frames are the two client sessions'.
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(1));
    cluster.run_for(50_000);

    let a = cluster.add_client(0);
    let b = cluster.add_client(0);
    expect_welcome(&mut cluster, a);
    expect_welcome(&mut cluster, b);

    take_turns(&mut cluster, a, b, 0, 3);

    // In: 2 hellos, 6 acquires, 6 releases. Out: 2 welcomes, 6 grants,
    // 6 release acks.
    assert_eq!(
        cluster.counters(0),
        NodeCounters {
            frames_in: 14,
            frames_out: 14,
            sessions_opened: 2,
            grants: 6,
            releases: 6,
            ..NodeCounters::default()
        }
    );
    assert!(cluster.node(0).unwrap().quiescent());
}

#[test]
fn one_client_cycles_through_256_resources() {
    // The lock table keeps only resources with a holder, a waiter or an
    // outstanding request (the dev profile checks this after every poll),
    // so serving 256 distinct locks leaves nothing behind, and quiescence
    // still answers for every resource the stack has touched.
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(3));
    cluster.run_for(50_000);

    let c = cluster.add_client(1);
    expect_welcome(&mut cluster, c);
    for rid in 1..=256 {
        let req = acquire_granted(&mut cluster, c, rid);
        release_acked(&mut cluster, c, rid, req);
    }

    let site1 = cluster.counters(1);
    assert_eq!((site1.grants, site1.releases), (256, 256));
    for s in 0..3 {
        let c = cluster.counters(s);
        if s != 1 {
            assert_eq!((c.grants, c.releases), (0, 0), "site {s}");
        }
        assert_eq!(
            (
                c.bad_frames,
                c.rejects,
                c.client_aborts,
                c.deadline_aborts,
                c.disconnect_releases
            ),
            (0, 0, 0, 0, 0),
            "site {s}"
        );
        let node = cluster.node(s).unwrap();
        assert!(node.held().is_empty(), "site {s} still holds a lock");
        assert!(node.quiescent(), "site {s} not quiescent");
    }
}
