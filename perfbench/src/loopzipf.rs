//! `loopback-zipf`: a 9-site cluster of `Node`s on the in-process
//! loopback transport, driven by closed-loop clients on the virtual clock.

use std::time::Instant;

use qmx_client::{ClientCore, ClientEvent, ClusterConfig};
use qmx_core::{ResourceId, SiteId};
use qmx_runtime::loopback::LoopNet;
use qmx_runtime::node::{Node, NodeConfig};
use qmx_runtime::stack::StackConfig;
use qmx_runtime::transport::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Hold;
use crate::stacks::Stack;
use crate::trace::{span, Layer};

/// Cluster size.
pub const SITES: u32 = 9;
/// Client sessions per site.
pub const PER_SITE: usize = 2;
/// Distinct resources (ids `1..=RESOURCES`).
pub const RESOURCES: u32 = 64;
/// Zipf exponent of resource popularity.
pub const ZIPF_S: f64 = 1.0;
/// Virtual time each grant is held, µs.
pub const HOLD_US: u64 = 200;
/// Virtual span during which clients issue acquires, µs.
pub const SPAN_US: u64 = 400_000;
/// Virtual time allowed after the span for every acquire to resolve.
const DRAIN_US: u64 = 200_000;
/// After set-up, each scheduling round draws the link latency uniformly
/// from the configured latency ± this many µs, so virtual latencies are
/// not quantised to whole hops.
pub const JITTER_US: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Connecting,
    Idle,
    Waiting {
        rid: u32,
        req: u64,
        sent_at: u64,
    },
    Holding {
        rid: u32,
        req: u64,
        granted_at: u64,
        until: u64,
    },
    Dead,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Run,
    Drain,
}

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time from building the cluster to every client welcomed.
    pub setup_s: f64,
    /// Wall time of the span during which clients issued acquires.
    pub window_s: f64,
    /// CPU time of that span, µs.
    pub window_cpu_us: f64,
    /// Grants received during the span.
    pub window_grants: u64,
    /// Acquires issued.
    pub acquires: u64,
    /// Grants received in total.
    pub grants: u64,
    /// Acquires aborted, rejected, disconnected or unresolved at the end.
    pub failed: u64,
    /// Acquire sent → grant received, virtual µs.
    pub acquire_us: Vec<f64>,
    /// Release sent while another session waited → that session's grant.
    pub handover_us: Vec<f64>,
    /// Client-observed holds.
    pub holds: Vec<Hold>,
    /// `Node::poll` calls.
    pub polls: u64,
    /// Polls that neither read nor wrote a frame.
    pub idle_polls: u64,
    /// Frames the nodes wrote.
    pub frames_out: u64,
    /// Frames the clients wrote.
    pub client_frames: u64,
    /// Resource shards alive at the end, all sites.
    pub shards: u64,
    /// Heartbeats sent.
    pub beats: u64,
    /// Standalone acks sent.
    pub acks: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Deterministic counts for the exact-count guard.
    pub counts: Vec<(&'static str, u64)>,
    /// Protocol misbehaviour seen by the clients.
    pub violations: Vec<String>,
}

fn zipf_pick(rng: &mut StdRng, cumulative: &[f64]) -> u32 {
    let total = *cumulative.last().expect("at least one resource");
    let x = rng.gen_range(0.0..total);
    cumulative
        .partition_point(|&c| c <= x)
        .min(cumulative.len() - 1) as u32
}

fn addr(site: u32) -> String {
    format!("site-{site}")
}

/// Runs one repetition over transports made by `mk` and stacks of type `S`.
pub fn run_rep<T: Transport, S: Stack>(seed: u64, mk: impl Fn(&LoopNet) -> T) -> Rep {
    let wall0 = Instant::now();
    let cc = ClusterConfig::ring_majority(SITES);
    let net = LoopNet::new(cc.latency_us);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0.0;
    let cumulative: Vec<f64> = (0..RESOURCES)
        .map(|r| {
            acc += 1.0 / f64::from(r + 1).powf(ZIPF_S);
            acc
        })
        .collect();

    let sites: Vec<SiteId> = (0..SITES).map(SiteId).collect();
    let mut nodes: Vec<Node<T, S>> = (0..SITES)
        .map(|site| {
            let stack_cfg = StackConfig {
                sites: sites.clone(),
                quorum: cc.quorums[site as usize].clone(),
                algo: cc.algo.clone(),
                transport: cc.transport,
                detector: cc.detector,
                majority_reconstruct: cc.majority_reconstruct,
            };
            let peers = (0..SITES)
                .filter(|&q| q != site)
                .map(|q| (SiteId(q), addr(q)))
                .collect();
            let mut node_cfg = NodeConfig::new(SiteId(site), addr(site), peers);
            node_cfg.reconnect_min_us = cc.reconnect_min_us;
            node_cfg.reconnect_max_us = cc.reconnect_max_us;
            Node::new(mk(&net), S::build(SiteId(site), &stack_cfg), node_cfg)
                .expect("fresh loopback address")
        })
        .collect();
    let mut clients: Vec<(ClientCore<T::Conn>, St)> = (0..SITES)
        .flat_map(|site| (0..PER_SITE).map(move |_| site))
        .enumerate()
        .map(|(i, site)| {
            let core = ClientCore::connect(&mut mk(&net), &addr(site), i as u64 + 1)
                .expect("connect to a live loopback site");
            (core, St::Connecting)
        })
        .collect();

    let mut rep = Rep::default();
    let mut mark: Vec<Option<u64>> = vec![None; RESOURCES as usize + 1];
    let mut phase = Phase::Setup;
    let mut run_wall = Instant::now();
    let mut run_cpu = 0.0;
    let (mut run_end, mut drain_end) = (u64::MAX, u64::MAX);
    let mut stuck = 0u32;
    loop {
        let now = net.now();
        // Jitter only once connected: a listener accepts in dial order, so
        // dials stamped with different latencies would hold each other up.
        if phase != Phase::Setup {
            let jitter = rng.gen_range(0..=2 * JITTER_US);
            net.set_latency(cc.latency_us + jitter - JITTER_US);
        }

        let mut wake: Option<u64> = None;
        for node in nodes.iter_mut() {
            let before = node.counters();
            let w = span(Layer::Node, || node.poll());
            let after = node.counters();
            rep.polls += 1;
            if before.frames_in == after.frames_in && before.frames_out == after.frames_out {
                rep.idle_polls += 1;
            }
            wake = min_opt(wake, w);
        }
        for (core, _) in clients.iter_mut() {
            span(Layer::Client, || core.poll());
        }

        for (i, (core, st)) in clients.iter_mut().enumerate() {
            while let Some(ev) = core.next_event() {
                match (ev, *st) {
                    (ClientEvent::Welcome { .. }, St::Connecting) => *st = St::Idle,
                    (
                        ClientEvent::Granted { rid, req },
                        St::Waiting {
                            rid: w_rid,
                            req: w_req,
                            sent_at,
                        },
                    ) if rid.0 == w_rid && req == w_req => {
                        rep.grants += 1;
                        if phase == Phase::Run {
                            rep.window_grants += 1;
                        }
                        rep.acquire_us.push((now - sent_at) as f64);
                        if let Some(t0) = mark[rid.0 as usize].take() {
                            rep.handover_us.push((now - t0) as f64);
                        }
                        *st = St::Holding {
                            rid: rid.0,
                            req,
                            granted_at: now,
                            until: now + HOLD_US,
                        };
                    }
                    (ClientEvent::Released { .. }, _) => {}
                    (ev, _) => {
                        rep.violations
                            .push(format!("session {i}: unexpected {ev:?} in state {st:?}"));
                        rep.failed += 1;
                        *st = St::Dead;
                    }
                }
            }
        }

        if phase == Phase::Setup && clients.iter().all(|(_, st)| *st != St::Connecting) {
            rep.setup_s = wall0.elapsed().as_secs_f64();
            phase = Phase::Run;
            run_wall = Instant::now();
            run_cpu = crate::stats::cpu_us("self");
            run_end = now + SPAN_US;
        }
        if phase == Phase::Run && now >= run_end {
            rep.window_s = run_wall.elapsed().as_secs_f64();
            rep.window_cpu_us = crate::stats::cpu_us("self") - run_cpu;
            phase = Phase::Drain;
            drain_end = now + DRAIN_US;
        }
        if phase == Phase::Drain
            && (now >= drain_end
                || clients
                    .iter()
                    .all(|(_, st)| matches!(st, St::Idle | St::Dead)))
        {
            break;
        }

        if phase != Phase::Setup {
            for i in 0..clients.len() {
                if let St::Holding {
                    rid,
                    req,
                    granted_at,
                    until,
                } = clients[i].1
                {
                    if until <= now {
                        let contended = clients.iter().enumerate().any(|(j, (_, o))| {
                            j != i && matches!(o, St::Waiting { rid: r, .. } if *r == rid)
                        });
                        clients[i].0.release(ResourceId(rid), req);
                        rep.client_frames += 1;
                        rep.holds.push(Hold {
                            rid,
                            session: i,
                            start: granted_at,
                            end: now,
                        });
                        if contended {
                            mark[rid as usize] = Some(now);
                        }
                        clients[i].1 = St::Idle;
                    }
                }
                if phase == Phase::Run && clients[i].1 == St::Idle {
                    let rid = zipf_pick(&mut rng, &cumulative) + 1;
                    let req = clients[i].0.acquire(ResourceId(rid), None);
                    rep.acquires += 1;
                    rep.client_frames += 1;
                    clients[i].1 = St::Waiting {
                        rid,
                        req,
                        sent_at: now,
                    };
                }
            }
        }

        let mut next = min_opt(net.next_event(), wake);
        for (_, st) in &clients {
            if let St::Holding { until, .. } = st {
                next = min_opt(next, Some(*until));
            }
        }
        next = min_opt(
            next,
            Some(match phase {
                Phase::Run => run_end,
                _ => drain_end,
            }),
        );
        match next {
            Some(t) if t <= now => {
                // Work is due now: settle again, nudging the clock if the
                // same instant refuses to drain.
                stuck += 1;
                if stuck > 64 {
                    net.advance_to(now + 1);
                    stuck = 0;
                }
            }
            Some(t) => {
                stuck = 0;
                net.advance_to(t);
            }
            None => break,
        }
    }

    for (i, (_, st)) in clients.iter().enumerate() {
        if matches!(st, St::Waiting { .. } | St::Holding { .. }) {
            rep.violations
                .push(format!("session {i} unresolved at the end: {st:?}"));
            rep.failed += 1;
        }
    }
    let (mut frames_in, mut data) = (0, 0);
    let mut suspicions = 0;
    for node in &nodes {
        let c = node.counters();
        rep.frames_out += c.frames_out;
        frames_in += c.frames_in;
        let proto = node.protocol();
        rep.shards += proto.shards() as u64;
        if let Some(t) = proto.transport_counters() {
            rep.acks += t.acks_sent;
            rep.retransmits += t.retransmissions;
            data += t.data_sent;
        }
        if let Some(d) = proto.detector_counters() {
            rep.beats += d.heartbeats_sent;
            suspicions += d.suspicions;
        }
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>() as u64;
    rep.counts = vec![
        ("acquires", rep.acquires),
        ("grants", rep.grants),
        ("failed", rep.failed),
        ("frames_out", rep.frames_out),
        ("frames_in", frames_in),
        ("data_sent", data),
        ("acks_sent", rep.acks),
        ("retransmissions", rep.retransmits),
        ("heartbeats", rep.beats),
        ("suspicions", suspicions),
        ("shards", rep.shards),
        ("end_us", net.now()),
        ("acquire_us_sum", sum(&rep.acquire_us)),
        ("handover_n", rep.handover_us.len() as u64),
        ("handover_us_sum", sum(&rep.handover_us)),
    ];
    rep
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}
