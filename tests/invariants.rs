//! Structural-invariant checks: after every kind of run — contended,
//! randomized, crashed, partitioned — every site's internal state must
//! satisfy `DelayOptimal::check_invariants` (lock/queue exclusivity,
//! phase/permission consistency, transfer obligations backed by held
//! permissions).

use qmx::core::{Config, DelayOptimal, SiteId};
use qmx::quorum::grid::grid_system;
use qmx::sim::{DelayModel, SimConfig, Simulator};

const T: u64 = 1000;

fn grid_sim(n: usize, cfg: SimConfig) -> Simulator<DelayOptimal> {
    let sys = grid_system(n);
    Simulator::new(
        (0..n)
            .map(|i| {
                DelayOptimal::new(
                    SiteId(i as u32),
                    sys.quorum_of(SiteId(i as u32)).to_vec(),
                    Config::default(),
                )
            })
            .collect(),
        cfg,
    )
}

fn assert_all(sim: &Simulator<DelayOptimal>, n: usize, label: &str) {
    for i in 0..n {
        if let Err(msg) = sim.site(SiteId(i as u32)).check_invariants() {
            panic!("{label}: {msg}");
        }
    }
}

#[test]
fn invariants_hold_at_quiescence_across_seeds() {
    for seed in 0..10 {
        let mut sim = grid_sim(
            9,
            SimConfig {
                delay: DelayModel::Exponential { mean: T },
                hold: DelayModel::Constant(150),
                seed,
                ..SimConfig::default()
            },
        );
        for i in 0..9u32 {
            for r in 0..8u64 {
                sim.schedule_request(SiteId(i), r * 3 * T + u64::from(i) * 100);
            }
        }
        sim.run_to_quiescence(10_000 * T);
        assert_all(&sim, 9, &format!("seed {seed}"));
    }
}

#[test]
fn invariants_hold_mid_run() {
    // Stop at several horizons mid-contention; invariants are inter-event
    // properties, so they must hold whenever the event loop is paused...
    // with the caveat that a paused run may have messages in flight (that
    // is fine: the invariants are per-site structural, not global).
    let mut sim = grid_sim(16, SimConfig::default());
    for i in 0..16u32 {
        for r in 0..5u64 {
            sim.schedule_request(SiteId(i), r * 2 * T + u64::from(i) * 50);
        }
    }
    for horizon in [T, 3 * T, 7 * T, 20 * T, 100 * T] {
        sim.run_to_quiescence(horizon);
        assert_all(&sim, 16, &format!("horizon {horizon}"));
    }
}

#[test]
fn invariants_hold_after_crash_and_partition() {
    use qmx::workload::arrival::ArrivalProcess;
    use qmx::workload::scenario::{Algorithm, QuorumSpec, Scenario};
    // Use the scenario runner for the FT machinery, then repeat the
    // low-level run here for direct state access.
    let r = Scenario {
        n: 7,
        algorithm: Algorithm::DelayOptimalFtTree,
        quorum: QuorumSpec::Tree,
        arrivals: ArrivalProcess::Periodic {
            period: 15 * T,
            stagger: 800,
        },
        horizon: 300 * T,
        crashes: vec![(SiteId(2), 60 * T)],
        partitions: vec![(vec![0, 0, 0, 0, 0, 1, 1], 150 * T)],
        ..Scenario::default()
    }
    .run();
    assert!(r.completed > 0);

    // Direct variant with fixed quorums + a crash: survivors' invariants.
    let mut sim = grid_sim(
        9,
        SimConfig {
            detect_delay: 2 * T,
            ..SimConfig::default()
        },
    );
    for i in 0..9u32 {
        for r in 0..6u64 {
            sim.schedule_request(SiteId(i), r * 10 * T + u64::from(i) * 300);
        }
    }
    sim.schedule_crash(SiteId(4), 25 * T);
    sim.run_to_quiescence(10_000 * T);
    for i in 0..9u32 {
        if i == 4 {
            continue; // the dead site's state is frozen, not maintained
        }
        if let Err(msg) = sim.site(SiteId(i)).check_invariants() {
            panic!("after crash: {msg}");
        }
    }
}

#[test]
fn invariants_hold_in_the_threaded_runtime_outcome() {
    // The name predates the removal of the thread-per-site harness; this
    // is a plain sim run. Every site of a 9-site grid requests once, 10
    // ticks apart, and every site's state is checked at quiescence.
    let mut sim = grid_sim(9, SimConfig::default());
    for i in 0..9u32 {
        sim.schedule_request(SiteId(i), u64::from(i) * 10);
    }
    sim.run_to_quiescence(10_000 * T);
    assert_all(&sim, 9, "runtime-equivalent workload");
}
