//! Micro-benchmarks of the protocol state machines themselves: how fast is
//! one uncontended CS round (request → replies → enter → release), and how
//! fast does an arbiter chew through queued requests?
//!
//! The `lockspace` group times one arbiter-side request and its release on
//! a `LockSpace<DelayOptimal>` that has already built 1, 64 or 4096
//! shards, each followed by the `drain_aborted_resources()` and
//! `abort_counters()` calls the simulator and `Node` make after every
//! event. The time should not grow with the shard count.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use qmx_baselines::Maekawa;
use qmx_core::delay_optimal::Body;
use qmx_core::{
    Config, DelayOptimal, Effects, LockSpace, Msg, Protocol, ResMsg, ResourceId, SeqNum, SiteId,
    Timestamp,
};
use qmx_quorum::grid::grid_system;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;

/// Drives a set of protocol instances synchronously until quiescence.
fn settle<P: Protocol>(sites: &mut [P], inflight: &mut VecDeque<(SiteId, SiteId, P::Msg)>) {
    while let Some((from, to, msg)) = inflight.pop_front() {
        let mut fx = Effects::new();
        sites[to.index()].handle(from, msg, &mut fx);
        for (t, m) in fx.take_sends() {
            inflight.push_back((to, t, m));
        }
    }
}

fn full_round<P: Protocol>(sites: &mut [P], requester: usize) {
    let mut inflight = VecDeque::new();
    let mut fx = Effects::new();
    sites[requester].request_cs(&mut fx);
    for (t, m) in fx.take_sends() {
        inflight.push_back((SiteId(requester as u32), t, m));
    }
    settle(sites, &mut inflight);
    assert!(sites[requester].in_cs());
    sites[requester].release_cs(&mut fx);
    for (t, m) in fx.take_sends() {
        inflight.push_back((SiteId(requester as u32), t, m));
    }
    settle(sites, &mut inflight);
}

fn delay_optimal_sites(n: usize) -> Vec<DelayOptimal> {
    let sys = grid_system(n);
    (0..n)
        .map(|i| {
            DelayOptimal::new(
                SiteId(i as u32),
                sys.quorum_of(SiteId(i as u32)).to_vec(),
                Config::default(),
            )
        })
        .collect()
}

fn maekawa_sites(n: usize) -> Vec<Maekawa> {
    let sys = grid_system(n);
    (0..n)
        .map(|i| Maekawa::new(SiteId(i as u32), sys.quorum_of(SiteId(i as u32)).to_vec()))
        .collect()
}

fn bench_uncontended_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("uncontended_cs_round");
    for n in [9usize, 25, 100] {
        g.bench_function(format!("delay_optimal_n{n}"), |b| {
            b.iter_batched_ref(
                || delay_optimal_sites(n),
                |sites| full_round(sites, 0),
                BatchSize::SmallInput,
            )
        });
        g.bench_function(format!("maekawa_n{n}"), |b| {
            b.iter_batched_ref(
                || maekawa_sites(n),
                |sites| full_round(sites, 0),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_contended_burst(c: &mut Criterion) {
    // All sites request simultaneously, then the CS drains in turn — the
    // arbiter hot path with transfers, inquires, fails and yields.
    let mut g = c.benchmark_group("contended_burst");
    for n in [9usize, 25] {
        g.bench_function(format!("delay_optimal_n{n}"), |b| {
            b.iter_batched_ref(
                || delay_optimal_sites(n),
                |sites| {
                    let mut inflight = VecDeque::new();
                    for (i, site) in sites.iter_mut().enumerate() {
                        let mut fx = Effects::new();
                        site.request_cs(&mut fx);
                        for (t, m) in fx.take_sends() {
                            inflight.push_back((SiteId(i as u32), t, m));
                        }
                    }
                    settle(sites, &mut inflight);
                    let mut served = 0;
                    while let Some(cur) = sites.iter().position(|s| s.in_cs()) {
                        let mut fx = Effects::new();
                        sites[cur].release_cs(&mut fx);
                        for (t, m) in fx.take_sends() {
                            inflight.push_back((SiteId(cur as u32), t, m));
                        }
                        settle(sites, &mut inflight);
                        served += 1;
                    }
                    assert_eq!(served, n);
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Site 0's lock space over the quorum {0, 1}, with `shards` resources
/// already built.
fn built_space(shards: u32) -> LockSpace<DelayOptimal> {
    let quorum = vec![SiteId(0), SiteId(1)];
    let mut space = LockSpace::new(
        SiteId(0),
        Arc::new(move |_rid| DelayOptimal::new(SiteId(0), quorum.clone(), Config::default())),
    );
    for rid in 0..shards {
        space.set_deadline_r(ResourceId(rid), None);
    }
    space
}

fn from_site1(seq: u64, body: Body) -> ResMsg<Msg> {
    ResMsg {
        rid: ResourceId(0),
        body: Msg {
            clk: SeqNum(seq),
            body,
        },
    }
}

fn bench_lockspace(c: &mut Criterion) {
    const ROUNDS: u64 = 256;
    let mut g = c.benchmark_group("lockspace");
    g.throughput(Throughput::Elements(ROUNDS));
    for shards in [1u32, 64, 4096] {
        let mut space = built_space(shards);
        let mut fx = Effects::new();
        let mut seq = 0;
        // One element: site 1's request reaches the arbiter and is granted,
        // then its release frees the arbiter again. Each event is followed
        // by the two calls the simulator and `Node` make after every event.
        g.bench_function(format!("arbiter_request_shards_{shards}"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    seq += 1;
                    let ts = Timestamp::new(seq, SiteId(1));
                    let release = Body::Release {
                        holder_req: ts,
                        forwarded_to: None,
                    };
                    for body in [Body::Request { ts }, release] {
                        space.handle(SiteId(1), from_site1(seq, body), &mut fx);
                        black_box(space.drain_aborted_resources());
                        black_box(space.abort_counters());
                    }
                }
                assert_eq!(fx.take_sends().len() as u64, ROUNDS, "one reply each");
            })
        });
        assert_eq!(space.shard_count(), shards as usize);
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_uncontended_round,
    bench_contended_burst,
    bench_lockspace
);
criterion_main!(benches);
