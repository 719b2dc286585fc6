//! Micro-benchmark of the reliable transport hot path: ack, retransmit
//! and dedup under i.i.d. loss and duplication. The interesting cost here
//! is the per-packet bookkeeping (sequence windows, pending queues, the
//! `Arc`-shared payloads), so throughput is reported in protocol messages
//! delivered per second.
//!
//! The `detector` group times the heartbeat path of the wrapper stack
//! over the same transport: one site of a 25-site full mesh receiving a
//! beat round, one delivered beat with its 24-entry vouch list, and its
//! `next_timer()` query, which both drivers issue after every event or
//! poll.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qmx_core::{
    Config, DelayOptimal, Detector, DetectorConfig, Effects, HbMsg, LossModel, Protocol, Reliable,
    SiteId, TransportConfig,
};
use qmx_quorum::GridQuorumSource;
use qmx_sim::DelayModel;
use qmx_workload::arrival::ArrivalProcess;
use qmx_workload::scenario::{Algorithm, QuorumSpec, Scenario};

fn lossy_scenario(n: usize, drop: f64) -> Scenario {
    Scenario {
        n,
        algorithm: Algorithm::DelayOptimal,
        quorum: QuorumSpec::Grid,
        arrivals: ArrivalProcess::Poisson { mean_gap: 3_000 },
        horizon: 150_000,
        delay: DelayModel::Exponential { mean: 1000 },
        hold: DelayModel::Constant(100),
        loss: LossModel::Iid { drop, dup: 0.02 },
        transport: Some(TransportConfig::default()),
        seed: 42,
        ..Scenario::default()
    }
}

fn bench_retransmit(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_retransmit");
    for (n, drop) in [(9usize, 0.05), (9, 0.20), (25, 0.10)] {
        // Calibrate once and make sure the loss actually exercises the
        // retransmit and dedup paths rather than timing a no-op.
        let r = lossy_scenario(n, drop).run();
        assert!(
            r.transport.retransmissions > 0,
            "n={n} drop={drop}: no retransmissions"
        );
        assert!(
            r.transport.duplicates_dropped > 0,
            "n={n} drop={drop}: no dedup work"
        );
        assert!(r.completed > 0, "n={n} drop={drop}: nothing completed");
        g.throughput(Throughput::Elements(r.messages));
        g.bench_function(
            format!("n{n}_drop{:02}", (drop * 100.0).round() as u32),
            |b| b.iter(|| lossy_scenario(n, drop).run()),
        );
    }
    g.finish();
}

/// Sites of the heartbeat mesh, as in perfbench's sim-faults.
const MESH: u32 = 25;

type Stack = Detector<Reliable<DelayOptimal>>;

/// Site 0 of the mesh, started, with a request out so its transport
/// holds unacked packets to its grid quorum.
fn mesh_site() -> Stack {
    let me = SiteId(0);
    let algo = DelayOptimal::with_quorum_source(
        me,
        Config::default(),
        Box::new(GridQuorumSource::new(MESH as usize)),
    );
    let peers = (1..MESH).map(SiteId).collect();
    let mut site = Detector::new(
        Reliable::new(algo, TransportConfig::default()),
        peers,
        DetectorConfig::default(),
    );
    let mut fx = Effects::new();
    site.on_start(&mut fx);
    site.request_cs(&mut fx);
    site
}

/// One beat from every peer, each vouching for every site but itself.
fn beat_round() -> Vec<(SiteId, <Stack as Protocol>::Msg)> {
    (1..MESH)
        .map(|from| {
            let beat = HbMsg::Beat {
                alive: (0..MESH).filter(|&s| s != from).map(SiteId).collect(),
                suspects_you: false,
            };
            (SiteId(from), beat)
        })
        .collect()
}

fn bench_detector(c: &mut Criterion) {
    const ROUNDS: u64 = 1_000;
    const BEATS: u64 = 10_000;
    const QUERIES: u64 = 100_000;
    let mut g = c.benchmark_group("detector");
    let round = beat_round();
    let mut site = mesh_site();
    let mut fx = Effects::new();
    let mut now = 0;
    g.throughput(Throughput::Elements(ROUNDS));
    g.bench_function("beat_round_n25", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                now += DetectorConfig::default().hb_interval;
                site.set_now(now);
                for (from, beat) in &round {
                    site.handle(*from, beat.clone(), &mut fx);
                }
            }
            assert!(fx.take_sends().is_empty(), "a quiet round sends nothing");
        })
    });
    assert!(site.suspected().is_empty(), "every peer kept beating");
    let (from, beat) = &round[0];
    g.throughput(Throughput::Elements(BEATS));
    g.bench_function("beat_handle_n25", |b| {
        b.iter(|| {
            for _ in 0..BEATS {
                site.handle(*from, beat.clone(), &mut fx);
            }
            assert!(fx.take_sends().is_empty(), "a beat is not answered");
        })
    });
    assert!(site.next_timer().is_some());
    g.throughput(Throughput::Elements(QUERIES));
    g.bench_function("next_timer_n25", |b| {
        b.iter(|| {
            for _ in 0..QUERIES {
                black_box(black_box(&site).next_timer());
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_retransmit, bench_detector);
criterion_main!(benches);
