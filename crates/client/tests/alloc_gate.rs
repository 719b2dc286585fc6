//! Allocation gate on the frame path.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread (the harness runs tests on parallel threads, and everything
//! a loopback cluster does happens on the thread that drives it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qmx_client::{ClientEvent, ClusterConfig, LoopCluster};
use qmx_core::ResourceId;
use qmx_runtime::frame::{encode_frame, FrameBuf};
use qmx_runtime::loopback::LoopNet;
use qmx_runtime::proto::ClientMsg;
use qmx_runtime::transport::{Conn, Listener, Transport};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// tally touches only a thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Once its buffers have grown, a frame's trip through `send_bytes`, the
/// virtual wire, `recv_bytes` and `FrameBuf::next_frame_ref`, empty reads
/// before it included, allocates nothing.
#[test]
fn a_warm_frame_path_allocates_nothing() {
    let net = LoopNet::new(100);
    let mut t = net.transport();
    let mut lst = t.listen("a").unwrap();
    let mut tx = t.connect("a").unwrap();
    net.advance_to(100);
    let mut rx = lst.poll_accept().unwrap().expect("dial arrived");
    let mut fb = FrameBuf::new();
    let mut frame = Vec::new();
    let mut trip = |req: u64| {
        frame.clear();
        let msg = ClientMsg::Acquire {
            rid: ResourceId(7),
            req,
            wait_us: req.is_multiple_of(2).then_some(req),
        };
        encode_frame(&mut frame, &msg);
        tx.send_bytes(&frame).unwrap();
        assert_eq!(rx.recv_bytes(fb.buf_mut()).unwrap(), 0, "still in flight");
        net.advance_to(net.now() + 100);
        assert_eq!(rx.recv_bytes(fb.buf_mut()).unwrap(), frame.len());
        assert_eq!(fb.next_frame_ref().unwrap(), Some(&frame[4..]));
        assert_eq!(fb.next_frame_ref().unwrap(), None);
    };
    for req in 0..100 {
        trip(req);
    }
    let before = allocs();
    for req in 100..10_100 {
        trip(req);
    }
    assert_eq!(allocs() - before, 0, "allocations over 10,000 frames");
}

/// Every client asks for one of two locks, holds it until granted and
/// releases it; returns once every grant is released and settled.
fn round(cluster: &mut LoopCluster, clients: &[usize], n: usize) {
    // An array, not a `Vec`: the window counts this thread's allocations.
    let mut waiting = [(0, ResourceId(0), 0); 6];
    for (i, &h) in clients.iter().enumerate() {
        let rid = ResourceId(1 + ((n + i) % 2) as u32);
        waiting[i] = (h, rid, cluster.client(h).acquire(rid, None));
    }
    let mut open = clients.len();
    while open > 0 {
        cluster.run_for(1_000);
        for w in &mut waiting[..clients.len()] {
            let (h, rid, req) = *w;
            if req == 0 {
                continue;
            }
            while let Some(ev) = cluster.client(h).next_event() {
                if ev == (ClientEvent::Granted { rid, req }) {
                    cluster.client(h).release(rid, req);
                    w.2 = 0;
                    open -= 1;
                }
            }
        }
    }
    cluster.run_for(5_000);
}

/// Frames written by every node and client so far.
fn frames(cluster: &LoopCluster, grants: u64) -> u64 {
    let nodes: u64 = (0..3).map(|s| cluster.counters(s).frames_out).sum();
    // Each grant costs its client one acquire and one release frame.
    nodes + 2 * grants
}

/// Allocations per frame over a window of grants on a warmed 3-site
/// cluster with two clients per site, heartbeats and acks included.
/// Before the loopback kept reused buffers, frames were borrowed from
/// `FrameBuf` and `Node` and the wrapper layers reused their effect
/// buffers, this window made 5.00 allocations per frame; it now makes 1.255.
#[test]
fn grants_on_a_warm_cluster_stay_within_the_allocation_budget() {
    const BUDGET_PER_FRAME: f64 = 1.26;
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(3));
    cluster.run_for(50_000);
    let clients: Vec<usize> = (0..6).map(|i| cluster.add_client(i % 3)).collect();
    cluster.run_for(20_000);
    for &h in &clients {
        assert!(cluster.events(h).contains(&ClientEvent::Welcome {
            site: qmx_core::SiteId(h as u32 % 3)
        }));
    }
    for n in 0..20 {
        round(&mut cluster, &clients, n);
    }
    let grants0: u64 = (0..3).map(|s| cluster.counters(s).grants).sum();
    let frames0 = frames(&cluster, grants0);
    let before = allocs();
    for n in 20..220 {
        round(&mut cluster, &clients, n);
    }
    let made = allocs() - before;
    let grants: u64 = (0..3).map(|s| cluster.counters(s).grants).sum();
    assert_eq!(grants - grants0, 200 * clients.len() as u64);
    let per_frame = made as f64 / (frames(&cluster, grants) - frames0) as f64;
    println!(
        "{made} allocations over {} frames: {per_frame:.3} per frame",
        frames(&cluster, grants) - frames0
    );
    assert!(
        per_frame <= BUDGET_PER_FRAME,
        "{per_frame:.3} allocations per frame, budget {BUDGET_PER_FRAME}"
    );
}
