//! Micro-benchmarks of the loopback serve stack's per-poll costs: what a
//! site pays for the reads, clock queries and polls that find nothing,
//! and for one frame's trip across the virtual wire.
//!
//! The `loopback` group times an empty `recv_bytes`; one frame written,
//! read and split out of its `FrameBuf`; `LoopNet::next_event` over the
//! 90 pipes of a 9-site cluster with 18 clients; and an idle `Node::poll`
//! of one site of that cluster.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qmx_client::{ClusterConfig, LoopCluster};
use qmx_core::ResourceId;
use qmx_runtime::frame::{encode_frame, FrameBuf};
use qmx_runtime::loopback::{LoopConn, LoopNet};
use qmx_runtime::proto::ClientMsg;
use qmx_runtime::transport::{Conn, Listener, Transport};

const LATENCY_US: u64 = 500;

/// One accepted pipe: `(net, dialling side, accepted side)`.
fn pipe() -> (LoopNet, LoopConn, LoopConn) {
    let net = LoopNet::new(LATENCY_US);
    let mut t = net.transport();
    let mut lst = t.listen("a").unwrap();
    let tx = t.connect("a").unwrap();
    net.advance_to(LATENCY_US);
    let rx = lst.poll_accept().unwrap().expect("dial arrived");
    (net, tx, rx)
}

/// Nine sites, two clients each, every connection made and the clock at
/// rest between heartbeats.
fn cluster() -> LoopCluster {
    let mut cluster = LoopCluster::new(ClusterConfig::ring_majority(9));
    cluster.run_for(50_000);
    for i in 0..18 {
        cluster.add_client(i % 9);
    }
    cluster.run_for(20_000);
    cluster
}

fn bench_loopback(c: &mut Criterion) {
    const READS: u64 = 100_000;
    const FRAMES: u64 = 10_000;
    const QUERIES: u64 = 100_000;
    const POLLS: u64 = 10_000;
    let mut g = c.benchmark_group("loopback");

    let (net, mut tx, mut rx) = pipe();
    let mut buf = Vec::new();
    g.throughput(Throughput::Elements(READS));
    g.bench_function("recv_empty", |b| {
        b.iter(|| {
            for _ in 0..READS {
                black_box(rx.recv_bytes(&mut buf).unwrap());
            }
        })
    });

    let mut frame = Vec::new();
    let msg = ClientMsg::Acquire {
        rid: ResourceId(7),
        req: 1,
        wait_us: None,
    };
    encode_frame(&mut frame, &msg);
    let mut fb = FrameBuf::new();
    g.throughput(Throughput::Elements(FRAMES));
    g.bench_function("frame_trip", |b| {
        b.iter(|| {
            for _ in 0..FRAMES {
                tx.send_bytes(&frame).unwrap();
                net.advance_to(net.now() + LATENCY_US);
                rx.recv_bytes(fb.buf_mut()).unwrap();
                black_box(fb.next_frame_ref().unwrap());
                assert_eq!(fb.next_frame_ref().unwrap(), None);
            }
        })
    });

    let mut cluster = cluster();
    let net = cluster.net().clone();
    assert!(net.next_event().is_none_or(|t| t > net.now()), "at rest");
    g.throughput(Throughput::Elements(QUERIES));
    g.bench_function("next_event_90_pipes", |b| {
        b.iter(|| {
            for _ in 0..QUERIES {
                black_box(black_box(&net).next_event());
            }
        })
    });

    let node = cluster.node_mut(0).expect("site 0 is up");
    let frames = node.counters().frames_in + node.counters().frames_out;
    g.throughput(Throughput::Elements(POLLS));
    g.bench_function("node_poll_idle", |b| {
        b.iter(|| {
            for _ in 0..POLLS {
                black_box(node.poll());
            }
        })
    });
    let after = node.counters();
    assert_eq!(
        after.frames_in + after.frames_out,
        frames,
        "polls stayed idle"
    );
    g.finish();
}

criterion_group!(benches, bench_loopback);
criterion_main!(benches);
