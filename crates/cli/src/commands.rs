//! Command implementations: each returns the text it would print.

use crate::args::{Cli, Command, WireTransport, USAGE};
use qmx_client::{run_bench, BenchConfig};
use qmx_core::{Config, DelayOptimal, DetectorConfig, LossModel, Outage, SiteId, TransportConfig};
use qmx_quorum::availability::monte_carlo_availability;
use qmx_runtime::node::{Node, NodeConfig};
use qmx_runtime::stack::{build_stack, StackConfig};
use qmx_runtime::tcp::{TcpTransport, UdsTransport};
use qmx_runtime::transport::Transport;
use qmx_sim::DelayModel;
use qmx_workload::arrival::ArrivalProcess;
use qmx_workload::scenario::Scenario;
use std::sync::atomic::AtomicBool;

/// Executes a parsed command, returning its output text.
///
/// # Errors
///
/// Returns a message when the command's inputs don't fit (e.g. a quorum
/// construction incompatible with `n`, or a failed model check).
pub fn execute(cli: &Cli) -> Result<String, String> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Run {
            algorithm,
            n,
            quorum,
            gap_t,
            horizon_t,
            delay,
            hold,
            seed,
            crashes,
            loss,
            dup,
            burst,
            outages,
            partitions,
            heals,
            cuts,
            link_restores,
            flaps,
            reliable,
            hb_interval_t,
            hb_timeout_t,
            recoveries,
            scheduler,
            deadline_t,
            retry_backoff,
            resources,
            zipf,
        } => {
            // The lock space shards the delay-optimal protocol only; fail
            // as a message, not the scenario runner's assert.
            if *resources > 1
                && !matches!(
                    algorithm,
                    qmx_workload::scenario::Algorithm::DelayOptimal
                        | qmx_workload::scenario::Algorithm::DelayOptimalNoForwarding
                )
            {
                return Err(format!(
                    "--resources > 1 runs a sharded lock space over the \
                     delay-optimal algorithm; {} is unsupported",
                    algorithm.label()
                ));
            }
            let t = delay.mean().max(1.0) as u64;
            let loss_model = match burst {
                Some((p_bad, p_good, drop_good, drop_bad)) => LossModel::Burst {
                    p_bad: *p_bad,
                    p_good: *p_good,
                    drop_good: *drop_good,
                    drop_bad: *drop_bad,
                    dup: *dup,
                },
                None if *loss > 0.0 || *dup > 0.0 => LossModel::Iid {
                    drop: *loss,
                    dup: *dup,
                },
                None => LossModel::None,
            };
            let faults_present = loss_model != LossModel::None
                || !outages.is_empty()
                || !cuts.is_empty()
                || !flaps.is_empty();
            // Any detector-related flag switches failure handling from the
            // oracle to heartbeats; unspecified knobs default to the
            // simulator's steady-state-safe sizing (beat 2T, suspect 8T).
            let detector = (hb_interval_t.is_some()
                || hb_timeout_t.is_some()
                || !recoveries.is_empty())
            .then(|| DetectorConfig {
                hb_interval: hb_interval_t.unwrap_or(2) * t,
                hb_timeout: hb_timeout_t.unwrap_or(8) * t,
                rejoin_wait: 4 * t,
                fail_confirm: 32 * t,
            });
            let transport = match reliable {
                Some(true) => Some(TransportConfig::default()),
                Some(false) => None,
                // Auto: reliable delivery exactly when something can drop
                // or duplicate messages.
                None => faults_present.then(TransportConfig::default),
            };
            let sc = Scenario {
                n: *n,
                algorithm: *algorithm,
                quorum: *quorum,
                arrivals: if *gap_t == 0 {
                    ArrivalProcess::Saturated { tick_gap: t / 2 }
                } else {
                    ArrivalProcess::Poisson {
                        mean_gap: gap_t * t,
                    }
                },
                horizon: horizon_t * t,
                delay: *delay,
                hold: DelayModel::Constant(*hold),
                crashes: crashes
                    .iter()
                    .map(|&(s, time_t)| (SiteId(s), time_t * t))
                    .collect(),
                partitions: partitions
                    .iter()
                    .map(|(groups, time_t)| (groups.clone(), time_t * t))
                    .collect(),
                heals: heals.iter().map(|&h| h * t).collect(),
                cuts: {
                    let mut v: Vec<(SiteId, SiteId, u64)> = cuts
                        .iter()
                        .map(|&(f, to, time_t)| (SiteId(f), SiteId(to), time_t * t))
                        .collect();
                    for &(f, to, start_t, period_t, count) in flaps {
                        for k in 0..u64::from(count) {
                            v.push((SiteId(f), SiteId(to), (start_t + k * period_t) * t));
                        }
                    }
                    v
                },
                link_restores: {
                    let mut v: Vec<(SiteId, SiteId, u64)> = link_restores
                        .iter()
                        .map(|&(f, to, time_t)| (SiteId(f), SiteId(to), time_t * t))
                        .collect();
                    for &(f, to, start_t, period_t, count) in flaps {
                        for k in 0..u64::from(count) {
                            let heal_t = start_t + k * period_t + period_t / 2;
                            v.push((SiteId(f), SiteId(to), heal_t * t));
                        }
                    }
                    v
                },
                loss: loss_model.clone(),
                outages: outages
                    .iter()
                    .map(|&(from, to, start_t, end_t)| Outage {
                        from: SiteId(from),
                        to: SiteId(to),
                        start: start_t * t,
                        end: end_t * t,
                    })
                    .collect(),
                transport,
                detector,
                recoveries: recoveries
                    .iter()
                    .map(|&(s, time_t)| (SiteId(s), time_t * t))
                    .collect(),
                deadline: deadline_t.map(|d| d * t),
                retry: retry_backoff.map(|(base, cap, max_attempts)| qmx_sim::RetryPolicy {
                    base: base * t,
                    cap: cap * t,
                    max_attempts,
                }),
                mix: (*resources > 1).then_some(qmx_workload::arrival::ResourceMix::Zipf {
                    resources: *resources,
                    s: *zipf,
                }),
                seed: *seed,
                scheduler: *scheduler,
                ..Scenario::default()
            };
            // Validate the quorum before running so errors are messages,
            // not panics.
            if matches!(
                algorithm,
                qmx_workload::scenario::Algorithm::DelayOptimal
                    | qmx_workload::scenario::Algorithm::DelayOptimalNoForwarding
                    | qmx_workload::scenario::Algorithm::Maekawa
            ) {
                quorum.build(*n)?;
            }
            let r = sc.run();
            let mut out = String::new();
            out.push_str(&format!(
                "{} over {} sites ({:?} quorums, K = {:.1})\n",
                algorithm.label(),
                n,
                quorum,
                r.quorum_size
            ));
            out.push_str(&format!("completed CS      : {}\n", r.completed));
            out.push_str(&format!("messages          : {}\n", r.messages));
            let fmt = |v: Option<f64>| v.map_or("-".into(), |x| format!("{x:.2}"));
            out.push_str(&format!("messages per CS   : {}\n", fmt(r.messages_per_cs)));
            out.push_str(&format!(
                "sync delay        : {} T ({} contended samples)\n",
                fmt(r.sync_delay_t),
                r.sync_samples
            ));
            out.push_str(&format!(
                "response time     : {} T\n",
                fmt(r.response_time_t)
            ));
            out.push_str(&format!(
                "throughput        : {:.3} per T\n",
                r.throughput_per_t
            ));
            out.push_str(&format!("fairness (Jain)   : {}\n", fmt(r.fairness)));
            if *resources > 1 {
                out.push_str(&format!(
                    "resources         : {} of {} saw a completed CS\n",
                    r.resources, resources
                ));
                out.push_str(&format!(
                    "resource fairness : {}\n",
                    fmt(r.resource_fairness)
                ));
            }
            out.push_str("per message kind  :");
            for (k, c) in &r.by_kind {
                out.push_str(&format!(" {k}={c}"));
            }
            out.push('\n');
            if faults_present || sc.transport.is_some() {
                out.push_str(&format!(
                    "injected faults   : {} dropped, {} duplicated\n",
                    r.injected_drops, r.injected_dups
                ));
                if r.partition_drops > 0 {
                    out.push_str(&format!(
                        "partition drops   : {} (eaten by cut links)\n",
                        r.partition_drops
                    ));
                }
                let tc = &r.transport;
                out.push_str(&format!(
                    "transport         : {} retransmissions, {} dup-drops, \
                     {} acks, {} reordered, {} gave up\n",
                    tc.retransmissions,
                    tc.duplicates_dropped,
                    tc.acks_sent,
                    tc.reordered,
                    tc.gave_up
                ));
            }
            if sc.detector.is_some() {
                let dc = &r.detector;
                out.push_str(&format!(
                    "detector          : {} heartbeats, {} suspicions \
                     ({} false), {} rejoins sent, {} observed\n",
                    dc.heartbeats_sent,
                    dc.suspicions,
                    dc.false_suspicions,
                    dc.rejoins_sent,
                    dc.rejoins_observed
                ));
            }
            if sc.deadline.is_some() {
                let ac = &r.aborts;
                out.push_str(&format!(
                    "aborts            : {} ({} deadline-fired), {} retries, \
                     {} orphan grants returned\n",
                    ac.aborts, ac.deadline_aborts, r.retries, ac.orphan_grants
                ));
            }
            Ok(out)
        }
        Command::Quorum { kind, n } => {
            let sys = kind.build(*n)?;
            let mut out = format!(
                "{kind:?} over {n} sites: K mean {:.2}, max {}\n",
                sys.mean_quorum_size(),
                sys.max_quorum_size()
            );
            out.push_str(&format!(
                "intersection: {}; minimality: {}; self-inclusion: {:.0}%\n",
                if sys.verify_intersection().is_ok() {
                    "OK"
                } else {
                    "VIOLATED"
                },
                if sys.verify_minimality().is_ok() {
                    "OK"
                } else {
                    "violated (allowed)"
                },
                sys.self_inclusion_rate() * 100.0
            ));
            for p in [0.9f64, 0.99] {
                out.push_str(&format!(
                    "availability at p={p}: {:.4}\n",
                    monte_carlo_availability(&sys, p, 20_000, 1)
                ));
            }
            for s in 0..(*n).min(10) {
                let q = sys.quorum_of(SiteId(s as u32));
                out.push_str(&format!("  S{s}: {q:?}\n"));
            }
            if *n > 10 {
                out.push_str("  ... (first 10 sites shown)\n");
            }
            Ok(out)
        }
        Command::Check {
            n,
            rounds,
            max_states,
            quorum,
            crashes,
            recoveries,
            drops,
            suspicions,
            cuts,
            restores,
            aborts,
            jobs,
            trace_out,
        } => {
            let sites: Vec<DelayOptimal> = match quorum {
                None => {
                    let q: Vec<SiteId> = (0..*n).map(SiteId).collect();
                    (0..*n)
                        .map(|i| DelayOptimal::new(SiteId(i), q.clone(), Config::default()))
                        .collect()
                }
                Some(spec) => {
                    let sys = spec.build(*n as usize)?;
                    (0..*n)
                        .map(|i| {
                            DelayOptimal::new(
                                SiteId(i),
                                sys.quorum_of(SiteId(i)).to_vec(),
                                Config::default(),
                            )
                        })
                        .collect()
                }
            };
            let faults = qmx_check::FaultBudget {
                crashes: *crashes,
                recoveries: *recoveries,
                drops: *drops,
                false_suspicions: *suspicions,
                cuts: *cuts,
                restores: *restores,
                aborts: *aborts,
                timers: 0,
                detector: *crashes > 0 || *recoveries > 0 || *suspicions > 0 || *cuts > 0,
            };
            let mut opts = qmx_check::CheckOptions::new(*max_states);
            opts.faults = faults;
            opts.jobs = *jobs;
            if faults.is_active() {
                // §6 prescribes that a site whose every quorum lost a
                // member must block; its stall is correct, not a deadlock.
                opts.stuck_exempt = Some(DelayOptimal::is_inaccessible);
            }
            if *jobs > 1 {
                qmx_workload::parallel::set_jobs(*jobs);
            }
            let scope = format!(
                "{} sites x {} rounds ({}), faults: {} crash / {} recover / {} drop / \
                 {} suspect / {} cut / {} restore / {} abort",
                n,
                rounds,
                quorum.map_or("full quorums".into(), |q| format!("{q:?} quorums")),
                crashes,
                recoveries,
                drops,
                suspicions,
                cuts,
                restores,
                aborts
            );
            match qmx_check::check_with(
                sites,
                &qmx_check::Workload::uniform(*n as usize, *rounds),
                &opts,
            ) {
                Ok(stats) => Ok(format!(
                    "VERIFIED: {scope}\n\
                     states explored : {}\n\
                     transitions     : {}\n\
                     naive trans.    : {}\n\
                     reduction ratio : {:.2}x\n\
                     terminal states : {}\n\
                     max depth       : {}\n\
                     Every interleaving satisfies mutual exclusion and\n\
                     deadlock freedom within this scope.\n",
                    stats.states,
                    stats.transitions,
                    stats.naive_transitions,
                    stats.reduction_ratio(),
                    stats.terminals,
                    stats.max_depth
                )),
                Err(v) => {
                    let trace = match &v {
                        qmx_check::Violation::MutualExclusion { trace, .. }
                        | qmx_check::Violation::Deadlock { trace, .. } => Some(trace),
                        qmx_check::Violation::StateLimit { .. } => None,
                    };
                    if let (Some(path), Some(trace)) = (trace_out, trace) {
                        let mut text = format!("# {scope}\n# {v}\n");
                        for a in trace {
                            text.push_str(&format!("{a}\n"));
                        }
                        std::fs::write(path, text)
                            .map_err(|e| format!("cannot write trace to {path}: {e}"))?;
                    }
                    Err(format!("CHECK FAILED: {scope}\n{v}"))
                }
            }
        }
        Command::Experiment { name, jobs } => {
            use qmx_bench::experiments as e;
            qmx_workload::parallel::set_jobs(*jobs);
            let report = match name.as_str() {
                "table1" => [9usize, 25, 49]
                    .iter()
                    .map(|&n| e::table1(n))
                    .collect::<Vec<_>>()
                    .join("\n"),
                "lightload" => e::light_load_detail(&[9, 16, 25, 36, 49]),
                "heavyload" => e::heavy_load_detail(&[9, 25, 49]),
                "syncdelay" => e::sync_delay_sweep(25),
                "throughput" => e::throughput_sweep(25),
                "quorumsize" => e::quorum_sizes(),
                "availability" => e::availability_curves(),
                "faulttolerance" => e::fault_tolerance(7, 1),
                "ablation" => e::ablation(25),
                "holdsweep" => e::sync_delay_vs_hold(25),
                "msgscaling" => e::message_scaling(),
                "schedulers" => e::scheduler_ablation(&[9, 25], 20),
                "scalesweep" => e::scale_sweep(),
                "partitions" => e::partition_availability(),
                "abortavail" => e::abort_availability(),
                "lockspace" => e::lockspace_scaling(),
                other => return Err(format!("unknown experiment '{other}'")),
            };
            Ok(report + "\n")
        }
        Command::Serve {
            site,
            sites,
            listen,
            peers,
            transport,
            forwarding,
            reconstruct,
            incarnation,
            for_ms,
        } => {
            let opts = ServeOpts {
                site: *site,
                sites: *sites,
                listen: listen.clone(),
                peers: peers.clone(),
                forwarding: *forwarding,
                reconstruct: *reconstruct,
                incarnation: *incarnation,
                for_ms: *for_ms,
            };
            match transport {
                WireTransport::Tcp => serve(TcpTransport::new(), &opts),
                WireTransport::Uds => serve(UdsTransport::new(), &opts),
            }
        }
        Command::BenchLoad {
            addrs,
            transport,
            clients,
            resources,
            duration_ms,
            think_ms,
            hold_ms,
            wait_ms,
            zipf,
            seed,
            label,
            out,
        } => {
            let cfg = BenchConfig {
                site_addrs: addrs.clone(),
                clients: *clients,
                resources: *resources,
                duration_us: duration_ms * 1_000,
                think_mean_us: think_ms * 1_000,
                hold_us: hold_ms * 1_000,
                wait_us: wait_ms.map(|ms| ms * 1_000),
                zipf_s: *zipf,
                seed: *seed,
                label: if label.is_empty() {
                    format!("{} sites, {clients} clients", addrs.len())
                } else {
                    label.clone()
                },
            };
            let report = match transport {
                WireTransport::Tcp => run_bench(&mut TcpTransport::new(), &cfg),
                WireTransport::Uds => run_bench(&mut UdsTransport::new(), &cfg),
            }
            .map_err(|e| format!("bench-load failed: {e}"))?;
            let text = report.render();
            if let Some(path) = out {
                std::fs::write(path, &text)
                    .map_err(|e| format!("cannot write report to {path}: {e}"))?;
            }
            Ok(text)
        }
    }
}

/// Everything `serve` needs beyond the transport choice.
struct ServeOpts {
    site: u32,
    sites: u32,
    listen: String,
    peers: Vec<(u32, String)>,
    forwarding: bool,
    reconstruct: bool,
    incarnation: u64,
    for_ms: Option<u64>,
}

/// Builds and runs one site's node over a real-socket transport. Timer
/// constants are sized for localhost/LAN wall-clock microseconds (the
/// deterministic harness uses much tighter virtual-time constants).
fn serve<T: Transport>(transport: T, o: &ServeOpts) -> Result<String, String> {
    let n = o.sites;
    let k = n / 2 + 1;
    let stack_cfg = StackConfig {
        sites: (0..n).map(SiteId).collect(),
        quorum: (0..k).map(|d| SiteId((o.site + d) % n)).collect(),
        algo: Config {
            forwarding_enabled: o.forwarding,
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
        majority_reconstruct: o.reconstruct,
    };
    let proto = build_stack(SiteId(o.site), &stack_cfg);
    let mut node_cfg = NodeConfig::new(
        SiteId(o.site),
        o.listen.clone(),
        o.peers
            .iter()
            .map(|(s, addr)| (SiteId(*s), addr.clone()))
            .collect(),
    );
    node_cfg.incarnation = o.incarnation;
    let mut node = Node::new(transport, proto, node_cfg)
        .map_err(|e| format!("cannot listen on {}: {e}", o.listen))?;
    eprintln!(
        "qmxctl serve: site {}/{} on {} (forwarding {}, reconstruct {})",
        o.site,
        o.sites,
        o.listen,
        if o.forwarding { "on" } else { "off" },
        if o.reconstruct { "on" } else { "off" },
    );
    match o.for_ms {
        None => {
            // Serve until the process is killed; the stop flag exists for
            // embedders, the CLI has no signal to raise it.
            let stop = AtomicBool::new(false);
            node.run(&stop);
            Ok(String::new())
        }
        Some(ms) => {
            node.run_for(ms * 1_000);
            let c = node.counters();
            Ok(format!(
                "served {} for {ms} ms: {} sessions, {} grants, {} releases, \
                 {} bad frames\n",
                o.listen, c.sessions_opened, c.grants, c.releases, c.bad_frames
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, String> {
        execute(&Cli::parse(line.split_whitespace().map(str::to_string)).expect("parse"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run("help").unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("qmxctl run"));
    }

    #[test]
    fn quorum_command_prints_properties() {
        let out = run("quorum --kind grid --n 9").unwrap();
        assert!(out.contains("K mean 5.00"));
        assert!(out.contains("intersection: OK"));
        assert!(out.contains("S0:"));
    }

    #[test]
    fn quorum_command_reports_bad_n() {
        let err = run("quorum --kind tree --n 10").unwrap_err();
        assert!(err.contains("2^d - 1"));
    }

    #[test]
    fn run_command_small_scenario() {
        let out = run("run --n 5 --quorum all --gap 20 --horizon 200").unwrap();
        assert!(out.contains("completed CS"));
        assert!(out.contains("messages per CS"));
    }

    #[test]
    fn run_command_lossy_prints_transport_counters() {
        let out =
            run("run --n 5 --quorum all --gap 20 --horizon 200 --loss 0.1 --dup 0.05").unwrap();
        assert!(out.contains("injected faults"), "{out}");
        assert!(out.contains("retransmissions"), "{out}");
        // Loss actually fired and the transport recovered from it.
        let drops: u64 = out
            .lines()
            .find(|l| l.starts_with("injected faults"))
            .and_then(|l| l.split_whitespace().nth(3))
            .and_then(|w| w.parse().ok())
            .expect("drop count in report");
        assert!(drops > 0, "{out}");
    }

    #[test]
    fn run_command_with_link_cuts_reports_partition_drops() {
        // An asymmetric cut 0->1 from 20T to 60T under live load: the
        // heartbeats crossing the cut die at the source (so the partition
        // drop counter fires), the detector reacts, and the report
        // surfaces both.
        let out = run("run --n 5 --alg ft-majority --quorum majority --gap 20 \
             --horizon 300 --cut 0:1:20 --restore 0:1:60 \
             --hb-interval 2 --hb-timeout 10 --seed 3")
        .unwrap();
        assert!(out.contains("partition drops"), "{out}");
        assert!(out.contains("detector"), "{out}");
        assert!(out.contains("completed CS"), "{out}");
    }

    #[test]
    fn run_command_with_recovery_prints_detector_counters() {
        // A crash at 4T and a heartbeat-driven rejoin at 60T: the report
        // must carry the detector line, show the single rejoin, and the
        // recovered site must be back among the completions (fairness).
        let out = run("run --n 3 --quorum all --gap 20 --horizon 300 --crash 1:4 \
             --recover 1:60 --hb-interval 2 --hb-timeout 10 --reliable on")
        .unwrap();
        assert!(out.contains("detector"), "{out}");
        let detector_line = out
            .lines()
            .find(|l| l.starts_with("detector"))
            .expect("detector line");
        assert!(detector_line.contains("1 rejoins sent"), "{out}");
        assert!(!detector_line.contains("0 suspicions"), "{out}");
    }

    #[test]
    fn run_command_without_detector_omits_detector_line() {
        let out = run("run --n 5 --quorum all --gap 20 --horizon 200").unwrap();
        assert!(!out.contains("detector"), "{out}");
    }

    #[test]
    fn run_command_without_faults_omits_transport_lines() {
        let out = run("run --n 5 --quorum all --gap 20 --horizon 200").unwrap();
        assert!(!out.contains("injected faults"), "{out}");
    }

    #[test]
    fn run_command_reports_identical_under_all_schedulers() {
        // The CI determinism gate in script form: same scenario, both
        // scheduler implementations, byte-identical report text.
        let line = "run --n 9 --gap 5 --horizon 400 --delay exp:1000 --seed 11 \
             --loss 0.05 --crash 2:50 --recover 2:150 --hb-interval 2 --hb-timeout 10";
        let heap = run(&format!("{line} --scheduler heap")).unwrap();
        let wheel = run(&format!("{line} --scheduler wheel")).unwrap();
        assert_eq!(heap, wheel, "report diverged under the wheel");
        assert!(heap.contains("completed CS"), "{heap}");
    }

    #[test]
    fn run_command_with_resources_prints_lockspace_lines() {
        let out = run("run --n 9 --gap 10 --horizon 400 --resources 32 --zipf 0.8").unwrap();
        assert!(out.contains("resources         :"), "{out}");
        assert!(out.contains("of 32 saw a completed CS"), "{out}");
        assert!(out.contains("resource fairness :"), "{out}");
        assert!(out.contains("completed CS"), "{out}");
    }

    #[test]
    fn run_command_single_resource_omits_lockspace_lines() {
        let out = run("run --n 5 --quorum all --gap 20 --horizon 200").unwrap();
        assert!(!out.contains("resource fairness"), "{out}");
    }

    #[test]
    fn run_command_rejects_resources_on_broadcast_algorithms() {
        let err = run("run --alg lamport --n 5 --resources 8").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn run_command_validates_quorum() {
        let err = run("run --quorum fpp --n 10").unwrap_err();
        assert!(err.contains("FPP"));
    }

    #[test]
    fn check_command_verifies_duo() {
        let out = run("check --n 2 --rounds 1").unwrap();
        assert!(out.contains("VERIFIED"));
        assert!(out.contains("states explored"));
    }

    #[test]
    fn check_command_reports_state_cap() {
        let err = run("check --n 3 --rounds 3 --max-states 50").unwrap_err();
        assert!(err.contains("CHECK FAILED"));
    }

    #[test]
    fn check_command_prints_reduction_ratio() {
        let out = run("check --n 2 --rounds 1").unwrap();
        assert!(out.contains("naive trans."), "{out}");
        assert!(out.contains("reduction ratio"), "{out}");
    }

    #[test]
    fn check_command_with_fault_budget_verifies() {
        let out = run("check --n 2 --rounds 1 --crashes 1 --recoveries 1").unwrap();
        assert!(out.contains("VERIFIED"), "{out}");
        assert!(out.contains("1 crash / 1 recover"), "{out}");
    }

    #[test]
    fn experiment_unknown_name() {
        let err = run("experiment nope").unwrap_err();
        assert!(err.contains("unknown experiment"));
    }
}
