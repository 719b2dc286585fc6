//! `tcp-hot`: three `qmxctl serve` processes on localhost TCP and two
//! closed-loop client sessions contending for one resource.

use std::io::Read;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qmx_client::{ClientCore, ClientEvent};
use qmx_core::{Config, DetectorConfig, Protocol, ResourceId, SiteId, TransportConfig};
use qmx_runtime::node::{Node, NodeConfig};
use qmx_runtime::stack::StackConfig;
use qmx_runtime::tcp::TcpTransport;
use qmx_runtime::transport::Transport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Hold;
use crate::stacks::{Stack, TracedStack};
use crate::stats::dist;
use crate::trace::{self, span, Layer, Tally, Traced};

/// Cluster size.
pub const SITES: u32 = 3;
/// Sites the two client sessions attach to.
pub const CLIENT_SITES: [u32; 2] = [0, 1];
/// Mean wall time each grant is held, µs. Each hold is drawn uniformly
/// from `0..=2 * HOLD_US` with the run's seed, so releases fall at every
/// phase of the servers' polling cycle instead of locking into one.
pub const HOLD_US: u64 = 500;
/// The one shared resource.
pub const RID: ResourceId = ResourceId(1);
/// Longest the clients sleep between polls while they wait for a grant,
/// µs: well under the servers' 1 ms wait slice, so the measuring client's
/// own wake-ups do not quantise what it measures.
const CLIENT_POLL_US: u64 = 200;
/// Longest time a cluster may take to come up or to drain.
const PATIENCE: Duration = Duration::from_secs(20);

/// `n` localhost addresses whose ports were free a moment ago.
fn free_addrs(n: u32) -> std::io::Result<Vec<String>> {
    let probes = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()?;
    probes
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect()
}

/// Running `qmxctl serve` children. Dropping it kills them, so they die on
/// every exit path, a panic included.
pub struct ServeCluster {
    children: Vec<Child>,
    /// Listen address of each site.
    pub addrs: Vec<String>,
}

impl ServeCluster {
    /// Spawns one `serve` process per site on fresh ports.
    pub fn spawn(qmxctl: &Path) -> std::io::Result<Self> {
        let addrs = free_addrs(SITES)?;
        let mut cluster = ServeCluster {
            children: Vec::new(),
            addrs,
        };
        for site in 0..SITES {
            let mut cmd = Command::new(qmxctl);
            cmd.args(["serve", "--site", &site.to_string()])
                .args(["--sites", &SITES.to_string()])
                .args(["--listen", &cluster.addrs[site as usize]]);
            for peer in (0..SITES).filter(|&p| p != site) {
                cmd.arg("--peer")
                    .arg(format!("{peer}={}", cluster.addrs[peer as usize]));
            }
            cmd.stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped());
            cluster.children.push(cmd.spawn()?);
        }
        Ok(cluster)
    }

    /// Process ids of the children.
    pub fn pids(&self) -> Vec<String> {
        self.children.iter().map(|c| c.id().to_string()).collect()
    }

    /// Kills the children, waits for each, and returns what they wrote
    /// to stderr.
    pub fn stop(&mut self) -> Vec<String> {
        for c in self.children.iter_mut() {
            let _ = c.kill();
        }
        self.children
            .drain(..)
            .map(|mut c| {
                let _ = c.wait();
                let mut err = String::new();
                if let Some(mut pipe) = c.stderr.take() {
                    let _ = pipe.read_to_string(&mut err);
                }
                err
            })
            .collect()
    }
}

impl Drop for ServeCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The stack `qmxctl serve` builds for `site` (same quorums and timers),
/// for the in-process traced run.
fn serve_stack_cfg(site: u32) -> StackConfig {
    let k = SITES / 2 + 1;
    StackConfig {
        sites: (0..SITES).map(SiteId).collect(),
        quorum: (0..k).map(|d| SiteId((site + d) % SITES)).collect(),
        algo: Config {
            forwarding_enabled: true,
        },
        transport: TransportConfig {
            rto_initial: 20_000,
            rto_max: 500_000,
            max_retries: 40,
        },
        detector: DetectorConfig {
            hb_interval: 100_000,
            hb_timeout: 500_000,
            rejoin_wait: 200_000,
            fail_confirm: 3_000_000,
        },
        majority_reconstruct: true,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Idle,
    Waiting {
        req: u64,
        sent_at: u64,
    },
    Holding {
        req: u64,
        granted_at: u64,
        until: u64,
    },
    Dead,
}

/// What the clients measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time from launch to both sessions granted once, per launch.
    pub setup_s: Vec<f64>,
    /// Length of the measured windows, s.
    pub window_s: f64,
    /// Acquires issued in the window.
    pub acquires: u64,
    /// Grants received in the window.
    pub grants: u64,
    /// Acquires aborted, rejected, disconnected or unresolved.
    pub failed: u64,
    /// Acquire sent → grant received, µs.
    pub acquire_us: Vec<f64>,
    /// Release sent while the other session waited → its grant, µs.
    pub handover_us: Vec<f64>,
    /// Tail quantile of `acquire_us` within each launch.
    pub launch_acquire_tail: Vec<f64>,
    /// Tail quantile of `handover_us` within each launch.
    pub launch_handover_tail: Vec<f64>,
    /// Client-observed holds.
    pub holds: Vec<Hold>,
    /// Frames the clients wrote.
    pub client_frames: u64,
    /// Problems seen.
    pub violations: Vec<String>,
}

type Session<C> = (ClientCore<C>, St);

/// Dials `addr` until a listener answers and the session is welcomed.
fn connect_ready<T: Transport>(
    t: &mut T,
    addr: &str,
    id: u64,
) -> Result<ClientCore<T::Conn>, String> {
    let deadline = Instant::now() + PATIENCE;
    let mut core = loop {
        match ClientCore::connect(t, addr, id) {
            Ok(c) => break c,
            Err(e) if Instant::now() >= deadline => return Err(format!("connect {addr}: {e}")),
            Err(_) => {
                let now = t.now_us();
                t.wait(Some(now + 200));
            }
        }
    };
    loop {
        core.poll();
        match core.next_event() {
            Some(ClientEvent::Welcome { .. }) => return Ok(core),
            Some(ev) => return Err(format!("{addr}: {ev:?} before welcome")),
            None if Instant::now() >= deadline => return Err(format!("{addr}: no welcome")),
            None => t.wait(None),
        }
    }
}

/// One acquire → grant → release → released round on `core`.
fn one_cs<T: Transport>(t: &mut T, core: &mut ClientCore<T::Conn>) -> Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    let req = core.acquire(RID, None);
    let mut granted = false;
    loop {
        core.poll();
        while let Some(ev) = core.next_event() {
            match ev {
                ClientEvent::Granted { req: r, .. } if r == req && !granted => {
                    granted = true;
                    core.release(RID, req);
                }
                ClientEvent::Released { req: r, .. } if r == req && granted => return Ok(()),
                other => return Err(format!("warm-up: unexpected {other:?}")),
            }
        }
        if Instant::now() >= deadline {
            return Err("warm-up: no grant".to_string());
        }
        t.wait(None);
    }
}

/// Connects both sessions and runs one critical section on each, which
/// needs every peer link a grant depends on.
fn bring_up<T: Transport>(t: &mut T, addrs: &[String]) -> Result<Vec<Session<T::Conn>>, String> {
    let mut sessions = Vec::new();
    for (i, &site) in CLIENT_SITES.iter().enumerate() {
        let mut core = connect_ready(t, &addrs[site as usize], i as u64 + 1)?;
        one_cs(t, &mut core)?;
        sessions.push((core, St::Idle));
    }
    Ok(sessions)
}

/// The measured closed loop: both sessions acquire, hold (see
/// [`HOLD_US`]), release and acquire again, for `seconds`; then they stop
/// acquiring and every outstanding acquire resolves.
fn closed_loop<T: Transport>(
    t: &mut T,
    sessions: &mut [Session<T::Conn>],
    seconds: f64,
    rng: &mut StdRng,
    rep: &mut Rep,
) {
    let start = Instant::now();
    let mut window_s = 0.0;
    let end = start + Duration::from_secs_f64(seconds);
    let mut mark: Option<u64> = None;
    loop {
        let now = t.now_us();
        let measuring = Instant::now() < end;
        if measuring {
            window_s = start.elapsed().as_secs_f64();
        }
        for (i, (core, st)) in sessions.iter_mut().enumerate() {
            span(Layer::Client, || core.poll());
            while let Some(ev) = core.next_event() {
                match (ev, *st) {
                    (ClientEvent::Granted { rid, req }, St::Waiting { req: w, sent_at })
                        if rid == RID && req == w =>
                    {
                        if measuring {
                            rep.grants += 1;
                            rep.acquire_us.push((now - sent_at) as f64);
                            if let Some(t0) = mark {
                                rep.handover_us.push((now - t0) as f64);
                            }
                        }
                        mark = None;
                        *st = St::Holding {
                            req,
                            granted_at: now,
                            until: now + rng.gen_range(0..=2 * HOLD_US),
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
        let now = t.now_us();
        for i in 0..sessions.len() {
            if let St::Holding {
                req,
                granted_at,
                until,
            } = sessions[i].1
            {
                if until <= now {
                    let contended = sessions
                        .iter()
                        .enumerate()
                        .any(|(j, (_, o))| j != i && matches!(o, St::Waiting { .. }));
                    sessions[i].0.release(RID, req);
                    rep.client_frames += 1;
                    rep.holds.push(Hold {
                        rid: RID.0,
                        session: i,
                        start: granted_at,
                        end: now,
                    });
                    if contended {
                        mark = Some(now);
                    }
                    sessions[i].1 = St::Idle;
                }
            }
            if measuring && sessions[i].1 == St::Idle {
                let req = sessions[i].0.acquire(RID, None);
                rep.client_frames += 1;
                rep.acquires += 1;
                sessions[i].1 = St::Waiting { req, sent_at: now };
            }
        }
        if !measuring {
            let idle = sessions
                .iter()
                .all(|(_, st)| matches!(st, St::Idle | St::Dead));
            if idle || start.elapsed() > Duration::from_secs_f64(seconds) + PATIENCE {
                break;
            }
        }
        let next = sessions
            .iter()
            .filter_map(|(_, st)| match st {
                St::Holding { until, .. } => Some(*until),
                _ => None,
            })
            .fold(now + CLIENT_POLL_US, u64::min);
        t.wait(Some(next));
    }
    rep.window_s += window_s;
    for (i, (_, st)) in sessions.iter().enumerate() {
        if matches!(st, St::Waiting { .. } | St::Holding { .. }) {
            rep.violations
                .push(format!("session {i} unresolved at the end: {st:?}"));
            rep.failed += 1;
        }
    }
}

/// Serve processes' CPU and memory over the measured windows.
#[derive(Debug, Default)]
pub struct ProcUse {
    /// utime + stime of the `serve` processes in the windows, µs.
    pub cpu_us: f64,
    /// Largest `VmHWM` among them, MB.
    pub peak_rss_mb: f64,
    /// What the last launch's processes wrote to stderr, one entry each.
    pub stderr: Vec<String>,
}

/// The untraced run. Each of `launches` fresh clusters times its set-up
/// and then serves an equal share of the `seconds` of closed loop. The
/// serve processes poll in fixed wait slices, so the phase between their
/// polling loops, which is set at launch, shifts every handover; spreading
/// the window over many launches averages over those phases. Tails are
/// also kept per launch, because a burst of load from other tenants of the
/// machine inflates the tail of whichever launch it lands in.
pub fn run(
    qmxctl: &Path,
    seconds: f64,
    seed: u64,
    launches: usize,
) -> Result<(Rep, ProcUse), String> {
    let mut rep = Rep::default();
    let mut usage = ProcUse::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TcpTransport::new();
    for _ in 0..launches {
        let t0 = Instant::now();
        let mut cluster =
            ServeCluster::spawn(qmxctl).map_err(|e| format!("spawn qmxctl serve: {e}"))?;
        let up = bring_up(&mut t, &cluster.addrs);
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        let mut sessions = match up {
            Ok(s) => s,
            Err(e) => {
                let stderr = cluster.stop().join(" | ");
                return Err(format!(
                    "cluster did not come up: {e}; serve stderr: {stderr}"
                ));
            }
        };
        let pids = cluster.pids();
        let cpu = || -> f64 { pids.iter().map(|p| crate::stats::cpu_us(p)).sum() };
        let cpu0 = cpu();
        let (a0, h0) = (rep.acquire_us.len(), rep.handover_us.len());
        closed_loop(
            &mut t,
            &mut sessions,
            seconds / launches as f64,
            &mut rng,
            &mut rep,
        );
        usage.cpu_us += cpu() - cpu0;
        let acquire_tail = dist(&rep.acquire_us[a0..]).tail;
        let handover_tail = dist(&rep.handover_us[h0..]).tail;
        rep.launch_acquire_tail.push(acquire_tail);
        rep.launch_handover_tail.push(handover_tail);
        for p in &pids {
            usage.peak_rss_mb = usage.peak_rss_mb.max(crate::stats::peak_rss_mb(p));
        }
        drop(sessions);
        usage.stderr = cluster.stop();
    }
    Ok((rep, usage))
}

/// Per-node results of the traced in-process run.
#[derive(Debug, Default)]
pub struct NodeOut {
    /// The node thread's tally.
    pub tally: Tally,
    /// `Node::poll` calls.
    pub polls: u64,
    /// Polls that neither read nor wrote a frame.
    pub idle_polls: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Heartbeats sent.
    pub beats: u64,
    /// Standalone acks sent.
    pub acks: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Resource shards alive.
    pub shards: u64,
}

fn serve_traced(site: u32, addrs: Vec<String>, stop: Arc<AtomicBool>) -> Result<NodeOut, String> {
    trace::set_timing(true);
    let t = Traced::new(TcpTransport::new());
    let mut waiter = t.clone();
    let peers = (0..SITES)
        .filter(|&p| p != site)
        .map(|p| (SiteId(p), addrs[p as usize].clone()))
        .collect();
    let cfg = NodeConfig::new(SiteId(site), addrs[site as usize].clone(), peers);
    let stack = TracedStack::build(SiteId(site), &serve_stack_cfg(site));
    let mut node = Node::new(t, stack, cfg).map_err(|e| format!("site {site}: {e}"))?;
    let mut out = NodeOut::default();
    while !stop.load(Ordering::SeqCst) {
        let before = node.counters();
        let wake = span(Layer::Node, || node.poll());
        let after = node.counters();
        out.polls += 1;
        if before.frames_in == after.frames_in && before.frames_out == after.frames_out {
            out.idle_polls += 1;
        }
        waiter.wait(wake);
    }
    trace::set_timing(false);
    out.frames_out = node.counters().frames_out;
    let proto = node.protocol();
    out.shards = proto.shards() as u64;
    if let Some(c) = proto.transport_counters() {
        out.acks = c.acks_sent;
        out.retransmits = c.retransmissions;
    }
    if let Some(c) = proto.detector_counters() {
        out.beats = c.heartbeats_sent;
    }
    out.tally = trace::take();
    Ok(out)
}

/// The traced run: the three nodes run in this process, one thread each,
/// over traced TCP transports, so one clock stamps both ends of a hop.
pub fn run_traced(seconds: f64, seed: u64) -> Result<(Rep, Vec<NodeOut>, Tally), String> {
    let addrs = free_addrs(SITES).map_err(|e| format!("free ports: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..SITES)
        .map(|site| {
            let (addrs, stop) = (addrs.clone(), Arc::clone(&stop));
            std::thread::spawn(move || serve_traced(site, addrs, stop))
        })
        .collect();
    let mut rep = Rep::default();
    let result = (|| {
        trace::set_timing(true);
        let mut t = Traced::new(TcpTransport::new());
        let t0 = Instant::now();
        let mut sessions = bring_up(&mut t, &addrs)?;
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        let mut rng = StdRng::seed_from_u64(seed);
        closed_loop(&mut t, &mut sessions, seconds, &mut rng, &mut rep);
        trace::set_timing(false);
        Ok::<_, String>(())
    })();
    stop.store(true, Ordering::SeqCst);
    let mut nodes = Vec::new();
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(out)) => nodes.push(out),
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("node thread panicked".to_string()),
        }
    }
    result?;
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok((rep, nodes, trace::take()))
}
