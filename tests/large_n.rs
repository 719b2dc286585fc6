//! Large-N engine coverage: the configurations the timer wheel, the
//! hot/cold protocol split, the payload slab, and the lazy quorum sources
//! exist for.
//!
//! The golden test pins exact event and message counters for a 1000-site
//! run with the failure detector enabled and one crash/rejoin cycle,
//! executed under both schedulers (binary heap, timer wheel): any
//! divergence between them, and any change to the counters themselves,
//! fails loudly.
//!
//! The `#[ignore]` tests are the scale smoke runs (`N = 10⁵` uncontended,
//! `N = 10⁴` contended) exercised by CI's `large-n-smoke` job in release
//! mode under a timeout; they are too slow for the debug-mode suite.

use qmx::core::{
    Config, DelayOptimal, Detector, DetectorConfig, Reliable, SiteId, TransportConfig,
};
use qmx::quorum::GridQuorumSource;
use qmx::sim::{SchedulerKind, SimConfig, Simulator};

const T: u64 = 1000;

/// `n` lazily-initialized grid-quorum sites wrapped in the reliable
/// transport and the heartbeat failure detector. Monitoring is
/// hub-and-spoke (site 0 monitors the spokes, each spoke monitors site 0)
/// over every 10th site plus the crash victim 999: a full mesh would be
/// `O(n²)` heartbeats per interval and even the full hub-and-spoke is
/// dominated by heartbeat events at this scale — the sparse topology
/// keeps the debug-mode run fast while still driving suspicion,
/// confirmation, and the rejoin handshake through real heartbeats.
fn detector_grid_sites(n: usize) -> Vec<Detector<Reliable<DelayOptimal>>> {
    let monitored: Vec<SiteId> = (1..n)
        .filter(|i| i % 10 == 0 || *i == 999)
        .map(|i| SiteId(i as u32))
        .collect();
    (0..n)
        .map(|i| {
            let me = SiteId(i as u32);
            let inner = Reliable::new(
                DelayOptimal::with_lazy_quorum_source(
                    me,
                    Config::default(),
                    Box::new(GridQuorumSource::new(n)),
                ),
                TransportConfig::default(),
            );
            let peers = if i == 0 {
                monitored.clone()
            } else if monitored.contains(&me) {
                vec![SiteId(0)]
            } else {
                Vec::new()
            };
            Detector::new(inner, peers, DetectorConfig::default())
        })
        .collect()
}

/// Runs the golden 1000-site scenario under one scheduler and returns
/// `(events processed, completed CS, total messages, metrics debug)`.
fn golden_run(scheduler: SchedulerKind) -> (usize, usize, u64, String) {
    let n = 1000usize;
    let mut sim = Simulator::new(
        detector_grid_sites(n),
        SimConfig {
            oracle_notices: false,
            scheduler,
            seed: 77,
            ..SimConfig::default()
        },
    );
    // First wave: sites off row 31 and column 7 (their quorums avoid site
    // 999, which is about to crash), with overlapping rows/columns so the
    // wave actually contends.
    for (k, s) in [0u32, 33, 66, 132, 330].into_iter().enumerate() {
        sim.schedule_request(SiteId(s), T + k as u64 * 500);
    }
    // Site 999 crashes, stays silent long enough for the hub to suspect
    // and confirm, then recovers and completes a request of its own.
    sim.schedule_crash(SiteId(999), 40 * T);
    sim.schedule_recovery(SiteId(999), 100 * T);
    for (k, s) in [999u32, 528, 0].into_iter().enumerate() {
        sim.schedule_request(SiteId(s), 130 * T + k as u64 * 500);
    }
    let events = sim.run_to_quiescence(200 * T);
    let m = sim.metrics();
    let d = m.detector();
    assert!(d.suspicions >= 1, "hub never suspected site 999: {d:?}");
    assert!(d.failures_confirmed >= 1, "confirm lease never ran: {d:?}");
    assert!(d.rejoins_observed >= 1, "the hub missed the rejoin: {d:?}");
    (
        events,
        m.completed_cs(),
        m.total_messages(),
        format!("{m:?}"),
    )
}

#[test]
fn golden_counters_n1000_detector_crash_rejoin_all_schedulers() {
    let heap = golden_run(SchedulerKind::Heap);
    assert_eq!(
        heap,
        golden_run(SchedulerKind::Wheel),
        "replay diverged under the wheel"
    );
    let (events, completed, messages, _) = heap;
    assert_eq!(completed, 8, "both request waves completed");
    // Golden counters: any change to protocol, detector, scheduler, or
    // fault-path behavior at this scale must be a conscious one.
    assert_eq!(events, 122_550);
    assert_eq!(messages, 22_390);
}

/// `N = 10⁵` uncontended: 100 spread-out requests over lazily constructed
/// grid quorums (~633 members each). Release-mode CI bounds the wall
/// clock; the assertion here is that the run completes and stays exact.
#[test]
#[ignore = "scale smoke: run in release via CI large-n-smoke"]
fn uncontended_n_100k_completes() {
    let n = 100_000usize;
    let mut sim = Simulator::new(
        (0..n)
            .map(|i| {
                DelayOptimal::with_lazy_quorum_source(
                    SiteId(i as u32),
                    Config::default(),
                    Box::new(GridQuorumSource::new(n)),
                )
            })
            .collect::<Vec<_>>(),
        SimConfig {
            seed: 9,
            ..SimConfig::default()
        },
    );
    // 100 requesters scattered across the grid, far enough apart in time
    // that each completes before the next starts: pure protocol + engine
    // overhead, no contention.
    for k in 0..100u64 {
        sim.schedule_request(SiteId((k * 997) as u32), k * 10 * T);
    }
    sim.run_to_quiescence(2_000 * T);
    assert_eq!(sim.metrics().completed_cs(), 100);
}

/// `N = 10⁴` contended: 200 sites race in overlapping windows.
#[test]
#[ignore = "scale smoke: run in release via CI large-n-smoke"]
fn contended_n_10k_completes() {
    let n = 10_000usize;
    let mut sim = Simulator::new(
        (0..n)
            .map(|i| {
                DelayOptimal::with_lazy_quorum_source(
                    SiteId(i as u32),
                    Config::default(),
                    Box::new(GridQuorumSource::new(n)),
                )
            })
            .collect::<Vec<_>>(),
        SimConfig {
            seed: 10,
            ..SimConfig::default()
        },
    );
    for k in 0..200u64 {
        sim.schedule_request(SiteId((k * 47) as u32), T + k * 50);
    }
    sim.run_to_quiescence(10_000 * T);
    assert_eq!(sim.metrics().completed_cs(), 200);
}
