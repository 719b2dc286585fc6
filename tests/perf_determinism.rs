//! Regression guards for the hot-path rewrite: a golden scenario whose
//! exact counters are pinned (so a behavioural change in the bitset
//! quorum state, the allocation-free event loop, or the shared-payload
//! transport shows up as a diff, not a silent drift), a full-mesh
//! detector run pinned the same way (so does a change in how the
//! heartbeat detector or the reliable transport keep their per-peer
//! state), and a check that the parallel experiment fan-out returns
//! byte-identical results for every worker count.

use qmx::core::{
    Config, DelayOptimal, Detector, DetectorConfig, DetectorCounters, Protocol, Reliable, SiteId,
    TransportConfig, TransportCounters,
};
use qmx::quorum::GridQuorumSource;
use qmx::sim::{DelayModel, SimConfig, Simulator};
use qmx::workload::arrival::ArrivalProcess;
use qmx::workload::parallel;
use qmx::workload::replicate::Replicates;
use qmx::workload::scenario::{Algorithm, QuorumSpec, Scenario};

const T: u64 = 1000;

fn golden_scenario() -> Scenario {
    Scenario {
        n: 9,
        algorithm: Algorithm::DelayOptimal,
        quorum: QuorumSpec::Grid,
        arrivals: ArrivalProcess::Poisson { mean_gap: 8 * T },
        horizon: 400 * T,
        delay: DelayModel::Exponential { mean: T },
        hold: DelayModel::Constant(100),
        seed: 2024,
        ..Scenario::default()
    }
}

/// The exact numbers this scenario produced when the golden was recorded.
/// A legitimate behavioural change (new protocol feature, RNG stream
/// change) may update them — an optimisation must not.
#[test]
fn golden_scenario_counters_are_pinned() {
    let r = golden_scenario().run();
    assert_eq!(r.completed, 168);
    assert_eq!(r.messages, 3319);
    assert_eq!(r.sync_samples, 166);
    assert_eq!(
        format!("{:?}", r.by_kind),
        "{Request: 672, Reply: 795, Release: 672, Inquire: 23, Fail: 620, \
         Yield: 19, Transfer: 518}"
    );
    let sync = r.sync_delay_t.expect("contended run has sync samples");
    assert!((sync - 2.3726385542168673).abs() < 1e-9, "sync = {sync}");
    let resp = r.response_time_t.expect("completions exist");
    assert!((resp - 13.282964285714286).abs() < 1e-9, "resp = {resp}");
    assert!(
        (r.throughput_per_t - 0.40355706729314095).abs() < 1e-9,
        "thr = {}",
        r.throughput_per_t
    );
}

/// Full-mesh heartbeat golden: 25 sites of
/// `Detector<Reliable<DelayOptimal>>` on reconstructible grid quorums,
/// with no failure oracle. Every site monitors every other, so each beat
/// vouches for up to 24 sites. Site 3 only arbitrates; it crashes,
/// stays down long enough to be suspected and confirmed, and recovers
/// through the rejoin handshake. The directed cut 7 → 12 outlasts the
/// confirmation lease: site 12 suspects 7, the other sites' vouches
/// defer the confirmation, and 12's suspicion echoes make 7 suspect 12
/// reciprocally until the restore. Everything else issues Poisson
/// requests. A change to how the detector or the transport keeps its
/// per-peer state is an optimisation only if these counters stay put.
#[test]
fn golden_full_mesh_detector_counters_are_pinned() {
    const N: usize = 25;
    const ARBITER: SiteId = SiteId(3);
    let (cut_from, cut_to) = (SiteId(7), SiteId(12));
    let sites: Vec<_> = (0..N as u32)
        .map(SiteId)
        .map(|me| {
            let peers = (0..N as u32).map(SiteId).filter(|&p| p != me).collect();
            let algo = DelayOptimal::with_quorum_source(
                me,
                Config::default(),
                Box::new(GridQuorumSource::new(N)),
            );
            Detector::new(
                Reliable::new(algo, TransportConfig::default()),
                peers,
                DetectorConfig::default(),
            )
        })
        .collect();
    let seed = 17;
    let mut sim = Simulator::new(
        sites,
        SimConfig {
            delay: DelayModel::Uniform {
                lo: T / 2,
                hi: T + T / 2,
            },
            oracle_notices: false,
            seed,
            ..SimConfig::default()
        },
    );
    let arrivals: Vec<_> = ArrivalProcess::Poisson { mean_gap: 30 * T }
        .generate(N, 120 * T, seed)
        .into_iter()
        .filter(|&(s, _)| s != ARBITER)
        .collect();
    sim.schedule_requests(&arrivals);
    sim.schedule_crash(ARBITER, 20 * T);
    sim.schedule_recovery(ARBITER, 80 * T);
    sim.schedule_cut(cut_from, cut_to, 30 * T);
    sim.schedule_restore(cut_from, cut_to, 100 * T);
    let events = sim.run_to_quiescence(200 * T);

    let m = sim.metrics();
    let waiting = (0..N as u32)
        .map(|i| sim.site(SiteId(i)))
        .filter(|s| s.wants_cs() || s.in_cs())
        .count();
    assert_eq!(waiting, 0, "every requester was served");
    assert_eq!(events, 65_709);
    assert_eq!(m.completed_cs(), 50);
    assert_eq!(
        format!("{:?}", m.messages_by_kind()),
        "{Request: 486, Reply: 602, Release: 520, Inquire: 18, Fail: 415, \
         Yield: 13, Transfer: 344, Info: 60557}"
    );
    assert_eq!(
        *m.detector(),
        DetectorCounters {
            heartbeats_sent: 59_040,
            suspicions: 25,
            false_suspicions: 1,
            rejoins_sent: 1,
            rejoins_observed: 24,
            failures_confirmed: 24,
            asymmetric_suspicions: 59,
            confirms_deferred: 4,
            echo_beats: 46,
            reciprocal_suspicions: 1,
        }
    );
    assert_eq!(
        *m.transport(),
        TransportCounters {
            data_sent: 2_013,
            retransmissions: 429,
            acks_sent: 2_000,
            duplicates_dropped: 409,
            reordered: 0,
            gave_up: 3,
            stale_epoch_dropped: 0,
            max_unacked: 22,
        }
    );
}

/// The experiment fan-out contract: each run is a pure function of
/// (scenario, seed), results come back in seed order, so reports are
/// byte-identical no matter how many worker threads computed them.
#[test]
fn replicates_identical_for_any_worker_count() {
    let base = golden_scenario();
    let seeds = || 1u64..=6;

    let mut debugs = Vec::new();
    for jobs in [1usize, 2, 4, 0] {
        parallel::set_jobs(jobs);
        let reps = Replicates::collect(&base, seeds());
        assert_eq!(reps.runs.len(), 6);
        debugs.push(format!("{:?}", reps.runs));
    }
    parallel::set_jobs(0);

    for other in &debugs[1..] {
        assert_eq!(&debugs[0], other, "worker count changed the results");
    }
}
