//! Deterministic cluster harness: a whole cluster and its clients on the
//! in-process loopback transport, under one virtual clock.
//!
//! [`LoopCluster`] owns N [`Node`]s (one per site, exactly the objects
//! `qmxctl serve` runs over TCP) and any number of [`ClientCore`]s, all
//! sharing one [`LoopNet`]. Time moves only through
//! [`LoopCluster::run_for`], which repeatedly polls every node and client
//! at the current virtual instant, finds the next moment anything becomes
//! ready (a byte delivery, a protocol timer, a reconnect retry, a
//! deadline), and jumps the clock there. No real ports, no threads, no
//! sleeps — a test run is a pure function of its inputs, so event
//! counters can be asserted *exactly*.
//!
//! Fault injection is structural: [`kill`](LoopCluster::kill) drops a
//! node (closing its listener and every connection it owns, exactly what
//! a crashed process does to its sockets),
//! [`restart`](LoopCluster::restart) rebuilds it with a bumped
//! incarnation so the stack's rejoin protocol runs, and
//! [`disconnect`](LoopCluster::disconnect) drops a client's connection
//! the way an exiting client process does.

use std::io;

use qmx_core::{Config, DetectorConfig, SiteId, TransportConfig};
use qmx_runtime::loopback::{LoopConn, LoopNet, LoopTransport};
use qmx_runtime::node::{Node, NodeConfig, NodeCounters};
use qmx_runtime::stack::{build_stack, ServeStack, StackConfig};

use crate::core::{ClientCore, ClientEvent};

/// Cluster shape and tuning for a deterministic run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-site request quorums; `quorums.len()` is the cluster size.
    pub quorums: Vec<Vec<SiteId>>,
    /// Delay-optimal knobs (set `forwarding_enabled=false` for the `2T`
    /// baseline).
    pub algo: Config,
    /// Ack/retransmit tuning, in virtual microseconds.
    pub transport: TransportConfig,
    /// Heartbeat/suspicion tuning, in virtual microseconds.
    pub detector: DetectorConfig,
    /// One-way latency of every loopback link, virtual microseconds.
    pub latency_us: u64,
    /// Peer reconnect backoff floor.
    pub reconnect_min_us: u64,
    /// Peer reconnect backoff cap.
    pub reconnect_max_us: u64,
    /// Enable §6 quorum reconstruction (see
    /// [`StackConfig::majority_reconstruct`]).
    pub majority_reconstruct: bool,
}

impl ClusterConfig {
    /// A cluster of `n` sites with ring-majority quorums (site `i` uses
    /// `{i, i+1, …, i+⌈(n+1)/2⌉-1} mod n`, pairwise intersecting), 500 µs
    /// links, and timers sized so suspicion and retransmission play out
    /// within a few virtual milliseconds.
    pub fn ring_majority(n: u32) -> Self {
        let k = (n / 2 + 1) as usize;
        let quorums = (0..n)
            .map(|i| (0..k as u32).map(|d| SiteId((i + d) % n)).collect())
            .collect();
        ClusterConfig {
            quorums,
            algo: Config::default(),
            transport: TransportConfig {
                rto_initial: 8_000,
                rto_max: 64_000,
                max_retries: 40,
            },
            detector: DetectorConfig {
                hb_interval: 2_000,
                hb_timeout: 10_000,
                rejoin_wait: 5_000,
                fail_confirm: 50_000,
            },
            latency_us: 500,
            reconnect_min_us: 1_000,
            reconnect_max_us: 16_000,
            majority_reconstruct: true,
        }
    }

    fn n(&self) -> u32 {
        self.quorums.len() as u32
    }
}

/// The loopback cluster. See the module docs.
pub struct LoopCluster {
    net: LoopNet,
    cfg: ClusterConfig,
    nodes: Vec<Option<Node<LoopTransport, ServeStack>>>,
    incarnations: Vec<u64>,
    /// Client handles index this; a disconnected client's slot is `None`.
    clients: Vec<Option<ClientCore<LoopConn>>>,
    next_client_id: u64,
}

fn addr_of(site: u32) -> String {
    format!("site-{site}")
}

impl LoopCluster {
    /// Boots every site. Panics only on harness misuse (duplicate bind),
    /// which cannot happen from a fresh config.
    pub fn new(cfg: ClusterConfig) -> Self {
        let net = LoopNet::new(cfg.latency_us);
        let n = cfg.n();
        let mut cluster = LoopCluster {
            net,
            incarnations: vec![0; n as usize],
            nodes: (0..n).map(|_| None).collect(),
            clients: Vec::new(),
            next_client_id: 1,
            cfg,
        };
        for site in 0..n {
            cluster.boot(site).expect("fresh cluster boot");
        }
        cluster
    }

    fn boot(&mut self, site: u32) -> io::Result<()> {
        let n = self.cfg.n();
        let stack_cfg = StackConfig {
            sites: (0..n).map(SiteId).collect(),
            quorum: self.cfg.quorums[site as usize].clone(),
            algo: self.cfg.algo.clone(),
            transport: self.cfg.transport,
            detector: self.cfg.detector,
            majority_reconstruct: self.cfg.majority_reconstruct,
        };
        let proto = build_stack(SiteId(site), &stack_cfg);
        let mut node_cfg = NodeConfig::new(
            SiteId(site),
            addr_of(site),
            (0..n)
                .filter(|&p| p != site)
                .map(|p| (SiteId(p), addr_of(p)))
                .collect(),
        );
        node_cfg.incarnation = self.incarnations[site as usize];
        node_cfg.reconnect_min_us = self.cfg.reconnect_min_us;
        node_cfg.reconnect_max_us = self.cfg.reconnect_max_us;
        let node = Node::new(self.net.transport(), proto, node_cfg)?;
        self.nodes[site as usize] = Some(node);
        Ok(())
    }

    /// The shared virtual network (for clock reads or extra connections).
    pub fn net(&self) -> &LoopNet {
        &self.net
    }

    /// Current virtual time, microseconds.
    pub fn now(&self) -> u64 {
        self.net.now()
    }

    /// The node serving `site`, if alive.
    pub fn node(&self, site: u32) -> Option<&Node<LoopTransport, ServeStack>> {
        self.nodes[site as usize].as_ref()
    }

    /// Counters of `site`'s node (panics if the site is down).
    pub fn counters(&self, site: u32) -> NodeCounters {
        self.nodes[site as usize]
            .as_ref()
            .expect("site is down")
            .counters()
    }

    /// Crashes `site`: the node is dropped, closing its listener and all
    /// of its connections mid-flight.
    pub fn kill(&mut self, site: u32) {
        self.nodes[site as usize] = None;
    }

    /// Restarts a killed `site` with a bumped incarnation; the stack
    /// announces its rejoin to peers.
    pub fn restart(&mut self, site: u32) {
        assert!(
            self.nodes[site as usize].is_none(),
            "restart of a live site"
        );
        self.incarnations[site as usize] += 1;
        self.boot(site).expect("rebind after kill");
    }

    /// Connects a new client to `site`, returning its handle.
    pub fn add_client(&mut self, site: u32) -> usize {
        let id = self.next_client_id;
        self.next_client_id += 1;
        let mut t = self.net.transport();
        let core = ClientCore::connect(&mut t, &addr_of(site), id).expect("connect to a live site");
        self.clients.push(Some(core));
        self.clients.len() - 1
    }

    /// The client behind `handle` (panics once it is disconnected).
    pub fn client(&mut self, handle: usize) -> &mut ClientCore<LoopConn> {
        self.clients[handle]
            .as_mut()
            .expect("client is disconnected")
    }

    /// Drops client `handle` and its connection, as when a client
    /// process exits mid-request; its site sees the session close.
    pub fn disconnect(&mut self, handle: usize) {
        self.clients[handle] = None;
    }

    /// Polls every node and client once at the current instant. Returns
    /// the earliest pending node wake-up, if any.
    fn settle(&mut self) -> Option<u64> {
        let mut wake: Option<u64> = None;
        for slot in self.nodes.iter_mut() {
            if let Some(node) = slot.as_mut() {
                if let Some(w) = node.poll() {
                    wake = Some(match wake {
                        Some(cur) if cur <= w => cur,
                        _ => w,
                    });
                }
            }
        }
        for c in self.clients.iter_mut().flatten() {
            c.poll();
        }
        wake
    }

    /// Advances virtual time by `dur_us`, executing everything that
    /// becomes due: byte deliveries, protocol timers, reconnects,
    /// deadlines. Deterministic: same inputs, same final state.
    pub fn run_for(&mut self, dur_us: u64) {
        let end = self.net.now().saturating_add(dur_us);
        let mut stuck = 0u32;
        loop {
            let wake = self.settle();
            let now = self.net.now();
            let mut next = self.net.next_event();
            if let Some(w) = wake {
                next = Some(match next {
                    Some(e) if e <= w => e,
                    _ => w,
                });
            }
            match next {
                Some(t) if t <= end => {
                    if t <= now {
                        // Work is due *now*; settle again. If the same
                        // instant refuses to drain (a scheduling bug),
                        // nudge the clock rather than spin forever.
                        stuck += 1;
                        if stuck > 64 {
                            self.net.advance_to(now + 1);
                            stuck = 0;
                        }
                        continue;
                    }
                    stuck = 0;
                    self.net.advance_to(t);
                }
                _ => {
                    if now < end {
                        self.net.advance_to(end);
                        self.settle();
                    }
                    return;
                }
            }
        }
    }

    /// Drains all pending events of client `handle`.
    pub fn events(&mut self, handle: usize) -> Vec<ClientEvent> {
        self.client(handle).drain_events()
    }
}
