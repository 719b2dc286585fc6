//! Open-loop load engine behind `qmxctl bench-load`.
//!
//! A population of virtual clients shares one poll loop and one
//! [`Transport`]: each client connects to a site (round-robin), then
//! cycles think → acquire → hold → release with exponential think times
//! and zipfian resource selection, so a few dozen virtual clients
//! approximate open-loop arrivals against the cluster while respecting
//! the one-outstanding-acquire-per-resource session rule.
//!
//! Two latency families are collected:
//!
//! * **acquire latency** — acquire sent → grant received, per resource
//!   (the client-visible response time percentiles);
//! * **handover** — the engine's wire-level view of synchronization
//!   delay: whenever a release is sent for a resource on which another
//!   virtual client is already waiting, the gap until that resource's
//!   next grant is one handover sample. Comparing this distribution with
//!   reply-forwarding on vs off is exactly the paper's `T` vs `2T` claim,
//!   measured on sockets instead of in the simulator.

use std::io;

use qmx_core::ResourceId;
use qmx_runtime::transport::Transport;
use qmx_workload::latency::{LatencySamples, LoadReport, ResourceRow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::core::{ClientCore, ClientEvent};

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Site addresses; virtual clients attach round-robin.
    pub site_addrs: Vec<String>,
    /// Virtual client count.
    pub clients: usize,
    /// Distinct resources.
    pub resources: u32,
    /// Measured run length, microseconds.
    pub duration_us: u64,
    /// Mean exponential think time between operations, microseconds.
    pub think_mean_us: u64,
    /// Lock hold time, microseconds.
    pub hold_us: u64,
    /// Per-acquire wait budget (server-side abort after this), if any.
    pub wait_us: Option<u64>,
    /// Zipf skew for resource choice (`0.0` = uniform).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Report label.
    pub label: String,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            site_addrs: Vec::new(),
            clients: 24,
            resources: 8,
            duration_us: 10_000_000,
            think_mean_us: 20_000,
            hold_us: 2_000,
            wait_us: Some(2_000_000),
            zipf_s: 0.9,
            seed: 1,
            label: String::new(),
        }
    }
}

enum VcState {
    Thinking { until: u64 },
    Waiting { rid: u32, req: u64, issued_at: u64 },
    Holding { rid: u32, req: u64, until: u64 },
    Releasing,
    Done,
}

struct Vc<C: qmx_runtime::transport::Conn> {
    core: ClientCore<C>,
    state: VcState,
}

struct RidTrack {
    row: ResourceRow,
    /// Set when a release was sent while another client waited; the next
    /// grant closes the handover sample.
    release_mark: Option<u64>,
}

fn zipf_pick(rng: &mut StdRng, weights: &[f64]) -> u32 {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i as u32;
        }
        x -= *w;
    }
    (weights.len() - 1) as u32
}

fn exp_sample(rng: &mut StdRng, mean_us: u64) -> u64 {
    if mean_us == 0 {
        return 0;
    }
    let u: f64 = rng.gen_range(0.0..1.0);
    (-(1.0 - u).ln() * mean_us as f64) as u64
}

/// Runs the load against a live cluster and reduces to a [`LoadReport`].
pub fn run_bench<T: Transport>(transport: &mut T, cfg: &BenchConfig) -> io::Result<LoadReport> {
    assert!(!cfg.site_addrs.is_empty(), "bench needs at least one site");
    assert!(cfg.clients > 0 && cfg.resources > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let weights: Vec<f64> = (0..cfg.resources)
        .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_s))
        .collect();

    let mut vcs: Vec<Vc<T::Conn>> = Vec::with_capacity(cfg.clients);
    for i in 0..cfg.clients {
        let addr = &cfg.site_addrs[i % cfg.site_addrs.len()];
        let core = ClientCore::connect(transport, addr, i as u64 + 1)?;
        vcs.push(Vc {
            core,
            state: VcState::Thinking { until: 0 },
        });
    }

    let mut tracks: Vec<RidTrack> = (0..cfg.resources)
        .map(|rid| RidTrack {
            row: ResourceRow {
                rid,
                ..Default::default()
            },
            release_mark: None,
        })
        .collect();
    let mut handover = LatencySamples::new();

    let start = transport.now_us();
    let end = start + cfg.duration_us;
    // Drain phase after the measured window lets in-flight operations
    // resolve so the cluster is left clean.
    let hard_stop = end + cfg.duration_us / 4 + 1_000_000;

    loop {
        let now = transport.now_us();
        if now >= hard_stop {
            break;
        }
        let measuring = now < end;
        let mut all_done = true;

        for vi in 0..vcs.len() {
            let vc = &mut vcs[vi];
            vc.core.poll();
            // Consume events first.
            while let Some(ev) = vc.core.next_event() {
                match ev {
                    ClientEvent::Granted { rid, req } => {
                        if let VcState::Waiting {
                            rid: wr,
                            req: wq,
                            issued_at,
                        } = vc.state
                        {
                            if wr == rid.0 && wq == req {
                                let t = &mut tracks[rid.0 as usize];
                                if measuring {
                                    t.row.grants += 1;
                                    t.row.latency.push((now - issued_at) as f64);
                                    if let Some(r0) = t.release_mark.take() {
                                        handover.push((now - r0) as f64);
                                    }
                                } else {
                                    t.release_mark = None;
                                }
                                vc.state = VcState::Holding {
                                    rid: rid.0,
                                    req,
                                    until: now + cfg.hold_us,
                                };
                            }
                        }
                    }
                    ClientEvent::Aborted { rid, req } | ClientEvent::Rejected { rid, req, .. } => {
                        if let VcState::Waiting {
                            rid: wr, req: wq, ..
                        } = vc.state
                        {
                            if wr == rid.0 && wq == req {
                                if measuring {
                                    tracks[rid.0 as usize].row.aborts += 1;
                                }
                                vc.state = VcState::Thinking {
                                    until: now + exp_sample(&mut rng, cfg.think_mean_us),
                                };
                            }
                        }
                    }
                    ClientEvent::Released { .. } => {
                        if let VcState::Releasing = vc.state {
                            vc.state = if measuring {
                                VcState::Thinking {
                                    until: now + exp_sample(&mut rng, cfg.think_mean_us),
                                }
                            } else {
                                VcState::Done
                            };
                        }
                    }
                    ClientEvent::Disconnected => {
                        vc.state = VcState::Done;
                    }
                    ClientEvent::Welcome { .. } => {}
                }
            }
            // Advance timed states.
            match vc.state {
                VcState::Thinking { until } => {
                    if !measuring {
                        vc.state = VcState::Done;
                    } else if until <= now {
                        let rid = zipf_pick(&mut rng, &weights);
                        let req = vc.core.acquire(ResourceId(rid), cfg.wait_us);
                        tracks[rid as usize].row.acquires += 1;
                        vc.state = VcState::Waiting {
                            rid,
                            req,
                            issued_at: now,
                        };
                    }
                }
                VcState::Holding { rid, req, until } if until <= now => {
                    // A handover sample only exists when someone else
                    // is already queued behind this lock.
                    let contended = vcs.iter().enumerate().any(|(oi, o)| {
                        oi != vi
                            && matches!(o.state, VcState::Waiting { rid: orr, .. } if orr == rid)
                    });
                    let vc = &mut vcs[vi];
                    vc.core.release(ResourceId(rid), req);
                    if contended && measuring {
                        tracks[rid as usize].release_mark = Some(now);
                    }
                    vc.state = VcState::Releasing;
                }
                _ => {}
            }
            if !matches!(vcs[vi].state, VcState::Done) {
                all_done = false;
            }
        }

        if !measuring && all_done {
            break;
        }
        // Sleep until the next think or hold deadline, or the end of the
        // current phase; a server reply wakes the transport sooner.
        let next = vcs
            .iter()
            .filter_map(|vc| match vc.state {
                VcState::Thinking { until } | VcState::Holding { until, .. } => Some(until),
                _ => None,
            })
            .fold(if measuring { end } else { hard_stop }, u64::min);
        transport.wait(Some(next));
    }

    let duration_us = transport
        .now_us()
        .saturating_sub(start)
        .min(cfg.duration_us);
    Ok(LoadReport {
        label: cfg.label.clone(),
        duration_us,
        clients: cfg.clients,
        rows: tracks.into_iter().map(|t| t.row).collect(),
        handover,
    })
}
