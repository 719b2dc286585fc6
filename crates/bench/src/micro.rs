//! Shared micro-benchmark drivers: synchronous protocol rounds and
//! contended simulator runs, instrumented with step/event counts so
//! callers can report per-step and per-event rates. Used by both the
//! Criterion benches and the `benchjson` trajectory writer.

use qmx_baselines::Maekawa;
use qmx_core::{Config, DelayOptimal, Effects, Protocol, SiteId};
use qmx_quorum::grid::grid_system;
use qmx_quorum::GridQuorumSource;
use qmx_sim::{DelayModel, SchedulerKind, SimConfig, Simulator};
use std::collections::VecDeque;

/// Builds delay-optimal sites over grid quorums.
pub fn delay_optimal_sites(n: usize) -> Vec<DelayOptimal> {
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

/// Builds Maekawa sites over grid quorums.
pub fn maekawa_sites(n: usize) -> Vec<Maekawa> {
    let sys = grid_system(n);
    (0..n)
        .map(|i| Maekawa::new(SiteId(i as u32), sys.quorum_of(SiteId(i as u32)).to_vec()))
        .collect()
}

/// Drives the instances synchronously until no message is in flight,
/// returning how many messages were handled.
fn settle<P: Protocol>(
    sites: &mut [P],
    inflight: &mut VecDeque<(SiteId, SiteId, P::Msg)>,
) -> usize {
    let mut steps = 0;
    while let Some((from, to, msg)) = inflight.pop_front() {
        let mut fx = Effects::new();
        sites[to.index()].handle(from, msg, &mut fx);
        steps += 1;
        for (t, m) in fx.take_sends() {
            inflight.push_back((to, t, m));
        }
    }
    steps
}

/// One uncontended CS round (request → replies → enter → release),
/// returning the number of protocol steps taken (message handlings plus
/// the request and release calls themselves).
pub fn full_round<P: Protocol>(sites: &mut [P], requester: usize) -> usize {
    let mut inflight = VecDeque::new();
    let mut fx = Effects::new();
    sites[requester].request_cs(&mut fx);
    let mut steps = 1;
    for (t, m) in fx.take_sends() {
        inflight.push_back((SiteId(requester as u32), t, m));
    }
    steps += settle(sites, &mut inflight);
    assert!(sites[requester].in_cs());
    sites[requester].release_cs(&mut fx);
    steps += 1;
    for (t, m) in fx.take_sends() {
        inflight.push_back((SiteId(requester as u32), t, m));
    }
    steps + settle(sites, &mut inflight)
}

/// Contended discrete-event run: every site requests each round, the CS
/// drains in arbitration order. Returns the number of simulator events
/// processed — the denominator for events/sec.
pub fn contended_sim_run(n: usize, rounds: u64) -> usize {
    contended_sim_run_with(n, rounds, SchedulerKind::default())
}

/// [`contended_sim_run`] pinned to one event-scheduler implementation,
/// for the heap-vs-wheel ablation rows. The event count is identical
/// for either kind (the scheduler determinism contract); only the wall
/// clock differs.
pub fn contended_sim_run_with(n: usize, rounds: u64, scheduler: SchedulerKind) -> usize {
    let mut sim = Simulator::new(
        delay_optimal_sites(n),
        SimConfig {
            delay: DelayModel::Exponential { mean: 1000 },
            hold: DelayModel::Constant(100),
            scheduler,
            ..SimConfig::default()
        },
    );
    let arrivals: Vec<(SiteId, u64)> = (0..rounds)
        .flat_map(|r| (0..n).map(move |i| (SiteId(i as u32), r * 5_000 + 17 * i as u64)))
        .collect();
    sim.schedule_requests(&arrivals);
    sim.run_to_quiescence(u64::MAX / 2)
}

/// Builds delay-optimal sites over *lazily* generated grid quorums: no
/// coterie is materialized, each site pulls its `O(√N)` quorum from a
/// [`GridQuorumSource`] at first use. The large-N counterpart of
/// [`delay_optimal_sites`].
pub fn lazy_grid_sites(n: usize) -> Vec<DelayOptimal> {
    (0..n)
        .map(|i| {
            DelayOptimal::with_lazy_quorum_source(
                SiteId(i as u32),
                Config::default(),
                Box::new(GridQuorumSource::new(n)),
            )
        })
        .collect()
}

/// Large-N engine run: `n` sites over lazily generated grid quorums,
/// `requesters` spread-out requests cycling through the grid. This is
/// the workload the timer wheel, the hot/cold protocol split, the
/// payload slab, and the lazy quorum sources exist for; the event count
/// is the deterministic denominator for the `engine_large/*` trajectory
/// rows.
pub fn large_n_sim_run(n: usize, requesters: u64, scheduler: SchedulerKind) -> usize {
    let mut sim = Simulator::new(
        lazy_grid_sites(n),
        SimConfig {
            delay: DelayModel::Exponential { mean: 1000 },
            hold: DelayModel::Constant(100),
            scheduler,
            seed: 41,
            ..SimConfig::default()
        },
    );
    for k in 0..requesters {
        sim.schedule_request(SiteId(((k * 997) % n as u64) as u32), k * 2_500);
    }
    sim.run_to_quiescence(u64::MAX / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_round_counts_steps() {
        let mut sites = delay_optimal_sites(9);
        let steps = full_round(&mut sites, 0);
        // Request + release + at least one message per quorum member
        // each way (grid quorum over 9 sites has K = 5).
        assert!(steps >= 2 + 2 * 4, "steps = {steps}");
        // The round left everyone idle: a second round works too.
        assert!(full_round(&mut sites, 3) >= 2 + 2 * 4);
    }

    #[test]
    fn large_n_run_is_scheduler_invariant() {
        let counts: Vec<usize> = [SchedulerKind::Heap, SchedulerKind::Wheel]
            .into_iter()
            .map(|kind| large_n_sim_run(300, 10, kind))
            .collect();
        assert!(counts[0] > 10, "events = {}", counts[0]);
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "schedulers disagree: {counts:?}"
        );
    }

    #[test]
    fn contended_run_processes_events() {
        let events = contended_sim_run(9, 2);
        assert!(events > 9 * 2, "events = {events}");
        // Pure function of its inputs: repeatable count.
        assert_eq!(events, contended_sim_run(9, 2));
    }
}
