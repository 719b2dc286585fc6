//! Writes the machine-readable benchmark trajectory `BENCH_qmx.json`:
//! simulator events/sec (per event-scheduler implementation, each the
//! median of five timed samples with their min and max), large-N
//! lazy-quorum engine rows (events/sec plus a peak-RSS estimate at
//! N = 10³ and 10⁵), protocol ns/step, model-checker state counts and
//! DPOR reduction ratios, and wall-clock seconds per experiment, so
//! performance can be tracked across commits without parsing Criterion
//! output.
//!
//! Usage: `benchjson [--tiny] [--out PATH] [--jobs J]`
//!        `benchjson --check PATH [--jobs J]`
//!
//! `--tiny` shrinks iteration counts and the experiment list to a smoke
//! matrix suitable for CI; the JSON shape is identical in both modes.
//!
//! `--check` re-derives every *deterministic* field of a committed
//! trajectory file — schema, mode, engine row names and event counts,
//! protocol row names and step counts — and fails (exit 1) on any
//! drift. Wall-clock fields (`seconds`, rates, `jobs`, `cores`) are
//! machine-dependent and ignored. This is the CI gate that catches a
//! benchmark row silently changing its workload (different event count)
//! or the file going stale after a protocol change (different steps).

use qmx_bench::{experiments, micro};
use qmx_check::{check_with, CheckOptions, CheckStats, FaultBudget, Workload};
use qmx_core::{Config, DelayOptimal, SiteId};
use qmx_sim::SchedulerKind;
use std::fmt::Write as _;
use std::time::Instant;

/// Trajectory file format version. Bump when row names or the set of
/// deterministic fields changes, so `--check` rejects stale files
/// loudly instead of mis-diffing them. v4 added the timer-wheel
/// scheduler rows and the `engine_large/*` section (lazy-quorum runs at
/// N = 10³ and 10⁵ with a peak-RSS estimate). v5 added the
/// `lockspace/*` section: sharded multi-resource runs over one
/// transport/detector per link, gated on completed-CS counts. v6 drops
/// the calendar-queue rows (the heap and the wheel remain) and times
/// every engine row as the median of repeated samples, recording
/// `seconds_min` and `seconds_max` beside it.
const SCHEMA: &str = "qmx-bench-trajectory/v6";

/// Both scheduler implementations, in the order rows are emitted.
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

/// Engine matrix sizes for the given mode.
fn engine_ns(tiny: bool) -> Vec<usize> {
    if tiny {
        vec![9]
    } else {
        vec![9, 25]
    }
}

/// Large-N engine matrix `(sites, requesters)` for the given mode: the
/// lazy-quorum configurations the timer wheel, the hot/cold protocol
/// split, and the payload slab exist for. Tiny mode keeps only the 10³
/// row so CI smoke stays fast; full mode adds the 10⁵ row the issue
/// gate asks for.
fn large_ns(tiny: bool) -> Vec<(usize, u64)> {
    if tiny {
        vec![(1_000, 50)]
    } else {
        vec![(1_000, 50), (100_000, 100)]
    }
}

/// Protocol matrix sizes for the given mode.
fn proto_ns(tiny: bool) -> Vec<usize> {
    if tiny {
        vec![9]
    } else {
        vec![9, 25, 100]
    }
}

/// How an engine row is timed: `samples` samples, each at least
/// `min_secs` of back-to-back runs.
#[derive(Clone, Copy)]
struct EngineTiming {
    samples: usize,
    min_secs: f64,
}

/// (engine row timing, protocol timing iters, contended sim rounds).
/// Full mode samples each engine row five times for at least 50 ms: a
/// single contended run takes well under a millisecond, so fewer runs
/// would time the clock and the cache rather than the scheduler.
fn iteration_params(tiny: bool) -> (EngineTiming, usize, u64) {
    if tiny {
        let timing = EngineTiming {
            samples: 1,
            min_secs: 0.0,
        };
        (timing, 200, 3)
    } else {
        let timing = EngineTiming {
            samples: 5,
            min_secs: 0.05,
        };
        (timing, 2_000, 20)
    }
}

/// Model-checker scopes tracked in the trajectory: exhaustive DPOR runs
/// of the paper's protocol whose state counts are deterministic (gated
/// by `--check`) and whose reduction ratio is the sleep-set win the
/// checker README advertises. Runs are sequential (`jobs = 1` default)
/// so transitions are deterministic too.
type CheckerScope = (&'static str, fn() -> CheckStats);

fn checker_scopes(tiny: bool) -> Vec<CheckerScope> {
    fn sites(quorums: Vec<Vec<SiteId>>) -> Vec<DelayOptimal> {
        quorums
            .into_iter()
            .enumerate()
            .map(|(i, q)| {
                DelayOptimal::new(
                    SiteId(i as u32),
                    q,
                    Config {
                        forwarding_enabled: true,
                    },
                )
            })
            .collect()
    }
    fn full_q(n: u32) -> Vec<Vec<SiteId>> {
        (0..n).map(|_| (0..n).map(SiteId).collect()).collect()
    }
    fn ring_q() -> Vec<Vec<SiteId>> {
        vec![
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(1), SiteId(2)],
            vec![SiteId(2), SiteId(0)],
        ]
    }
    fn opts(faults: FaultBudget) -> CheckOptions<DelayOptimal> {
        let mut o = CheckOptions::new(200_000_000);
        o.faults = faults;
        if faults.is_active() {
            o.stuck_exempt = Some(DelayOptimal::is_inaccessible);
        }
        o
    }
    fn run(quorums: Vec<Vec<SiteId>>, n: u32, rounds: u32, faults: FaultBudget) -> CheckStats {
        check_with(
            sites(quorums),
            &Workload::uniform(n as usize, rounds),
            &opts(faults),
        )
        .expect("trajectory scope verifies")
    }
    let mut scopes: Vec<CheckerScope> =
        vec![("dpor/duo_2x2", || run(full_q(2), 2, 2, FaultBudget::none()))];
    if !tiny {
        scopes.push(("dpor/trio_3x1", || {
            run(full_q(3), 3, 1, FaultBudget::none())
        }));
        scopes.push(("dpor/ring_crash", || {
            run(ring_q(), 3, 1, FaultBudget::crash_recover(1, 0))
        }));
        scopes.push(("dpor/ring_crash_rejoin", || {
            run(ring_q(), 3, 1, FaultBudget::crash_recover(1, 1))
        }));
        scopes.push(("dpor/duo_crash_recover", || {
            run(full_q(2), 2, 1, FaultBudget::crash_recover(1, 1))
        }));
        scopes.push(("dpor/duo_partition", || {
            run(full_q(2), 2, 1, FaultBudget::partitions(2, 2))
        }));
        scopes.push(("dpor/abort", || {
            run(
                full_q(2),
                2,
                1,
                FaultBudget::crash_recover(1, 1).with_aborts(1),
            )
        }));
        scopes.push(("dpor/duo_false_suspicion", || {
            run(
                full_q(2),
                2,
                2,
                FaultBudget {
                    false_suspicions: 1,
                    detector: true,
                    ..FaultBudget::none()
                },
            )
        }));
    }
    scopes
}

/// Lock-space matrix `(resources, zipf)` for the given mode: zipfian
/// multi-resource load sharded over one `LockSpace` per site, with the
/// full per-link transport/detector stack. Tiny mode keeps one cell.
fn lockspace_cells(tiny: bool) -> Vec<(u32, f64)> {
    if tiny {
        vec![(16, 0.8)]
    } else {
        vec![(4, 0.0), (16, 0.8), (64, 1.0)]
    }
}

/// Row name for one lock-space cell.
fn lockspace_row_name(resources: u32, zipf: f64) -> String {
    format!("lockspace/n9_r{resources}_zipf{zipf:.1}")
}

/// Runs one lock-space cell: 9 sites, grid quorums, Poisson load spread
/// over `resources` locks by a zipfian draw, reliable transport and
/// heartbeat detector shared per link. Deterministic per cell (and for
/// any `--jobs`), so the completed-CS count is a `--check`-gated field.
fn lockspace_cell_report(resources: u32, zipf: f64) -> qmx_workload::stats::RunReport {
    use qmx_workload::arrival::{ArrivalProcess, ResourceMix};
    use qmx_workload::scenario::{Algorithm, QuorumSpec, Scenario};
    Scenario {
        n: 9,
        algorithm: Algorithm::DelayOptimal,
        quorum: QuorumSpec::Grid,
        arrivals: ArrivalProcess::Poisson { mean_gap: 8_000 },
        horizon: 300_000,
        transport: Some(qmx_core::TransportConfig::default()),
        detector: Some(qmx_core::DetectorConfig::default()),
        mix: Some(ResourceMix::Zipf { resources, s: zipf }),
        seed: 0xBE9C,
        ..Scenario::default()
    }
    .run()
}

/// Recomputes the deterministic lock-space rows `(name, completed CS)`
/// for a mode.
fn expected_lockspace_rows(tiny: bool) -> Vec<(String, u64)> {
    lockspace_cells(tiny)
        .into_iter()
        .map(|(r, z)| {
            (
                lockspace_row_name(r, z),
                lockspace_cell_report(r, z).completed as u64,
            )
        })
        .collect()
}

/// Peak resident-set size of this process in KiB, from `VmHWM` in
/// `/proc/self/status`; 0 where the file is unavailable (non-Linux).
/// A process-wide high-water mark, so per-row values are an estimate:
/// the 10⁵ row dwarfs everything else the writer runs, which is exactly
/// the number the large-N memory work (hot/cold split, payload slab,
/// lazy quorums) is meant to hold down. Machine-dependent, so ignored
/// by `--check`.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Mean wall-clock seconds of `f` over `iters` runs (after one warm-up).
fn time_mean(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Seconds per run of `f`: after one warm-up run, `timing.samples`
/// samples, each the mean over as many back-to-back runs as fill
/// `timing.min_secs`. Returns the samples' `(median, min, max)`.
fn time_samples(timing: EngineTiming, mut f: impl FnMut()) -> (f64, f64, f64) {
    f();
    let mut samples: Vec<f64> = (0..timing.samples)
        .map(|_| {
            let start = Instant::now();
            let mut runs = 0u32;
            loop {
                f();
                runs += 1;
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed >= timing.min_secs {
                    break elapsed / f64::from(runs);
                }
            }
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (
        samples[samples.len() / 2],
        samples[0],
        samples[samples.len() - 1],
    )
}

/// The timing fields of an engine row: the median seconds per run, its
/// sample range, and the median rate.
fn timing_fields(events: usize, (secs, min, max): (f64, f64, f64)) -> String {
    let rate = events as f64 / secs;
    format!(
        "\"seconds\": {secs:.6}, \"seconds_min\": {min:.6}, \"seconds_max\": {max:.6}, \
         \"events_per_sec\": {rate:.0}"
    )
}

struct Args {
    tiny: bool,
    out: String,
    check: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        tiny: false,
        out: "BENCH_qmx.json".to_string(),
        check: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--tiny" => args.tiny = true,
            "--out" if i + 1 < argv.len() => {
                args.out = argv[i + 1].clone();
                i += 1;
            }
            "--check" if i + 1 < argv.len() => {
                args.check = Some(argv[i + 1].clone());
                i += 1;
            }
            // `--jobs N` is consumed by init_jobs; skip its value here.
            "--jobs" => i += 1,
            other => {
                eprintln!("benchjson: unknown argument '{other}'");
                eprintln!("usage: benchjson [--tiny] [--out PATH] [--jobs J]");
                eprintln!("       benchjson --check PATH [--jobs J]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Extracts `"key": "value"` from a single JSON line we wrote ourselves
/// (one object per line, no escapes inside strings).
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key": 123` (unsigned integer) from a single JSON line.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: &str = line[start..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// Recomputes the deterministic engine rows `(name, events)` for a
/// mode: the contended small-N matrix followed by the lazy-quorum
/// `engine_large/*` matrix, in file order.
fn expected_engine_rows(tiny: bool) -> Vec<(String, u64)> {
    let (_, _, sim_rounds) = iteration_params(tiny);
    let mut rows = Vec::new();
    for &n in &engine_ns(tiny) {
        for kind in SCHEDULERS {
            let events = micro::contended_sim_run_with(n, sim_rounds, kind);
            rows.push((
                format!("contended_n{n}_{sim_rounds}rounds/{}", kind.label()),
                events as u64,
            ));
        }
    }
    for &(n, req) in &large_ns(tiny) {
        for kind in SCHEDULERS {
            let events = micro::large_n_sim_run(n, req, kind);
            rows.push((
                format!("engine_large/uncontended_n{n}_{req}req/{}", kind.label()),
                events as u64,
            ));
        }
    }
    rows
}

/// Recomputes the deterministic protocol rows `(name, steps)` for a mode.
fn expected_protocol_rows(tiny: bool) -> Vec<(String, u64)> {
    let mut rows = Vec::new();
    for &n in &proto_ns(tiny) {
        let mut d = micro::delay_optimal_sites(n);
        rows.push((
            format!("uncontended_round/delay_optimal_n{n}"),
            micro::full_round(&mut d, 0) as u64,
        ));
        let mut m = micro::maekawa_sites(n);
        rows.push((
            format!("uncontended_round/maekawa_n{n}"),
            micro::full_round(&mut m, 0) as u64,
        ));
    }
    rows
}

/// Recomputes the deterministic checker rows `(name, states)` for a mode.
fn expected_checker_rows(tiny: bool) -> Vec<(String, u64)> {
    checker_scopes(tiny)
        .into_iter()
        .map(|(name, f)| (name.to_string(), f().states as u64))
        .collect()
}

/// Diffs one named-counter section; appends human-readable failures.
fn diff_rows(
    section: &str,
    counter: &str,
    expected: &[(String, u64)],
    actual: &[(String, u64)],
    failures: &mut Vec<String>,
) {
    if expected.len() != actual.len() {
        failures.push(format!(
            "{section}: expected {} rows, file has {}",
            expected.len(),
            actual.len()
        ));
    }
    for (i, exp) in expected.iter().enumerate() {
        match actual.get(i) {
            None => failures.push(format!("{section}: missing row '{}'", exp.0)),
            Some(act) if act.0 != exp.0 => failures.push(format!(
                "{section} row {i}: name drift: expected '{}', file has '{}'",
                exp.0, act.0
            )),
            Some(act) if act.1 != exp.1 => failures.push(format!(
                "{section} '{}': {counter} drift: expected {}, file has {}",
                exp.0, exp.1, act.1
            )),
            Some(_) => {}
        }
    }
}

/// `--check PATH`: verify the committed trajectory's deterministic
/// fields against freshly recomputed values. Exits the process.
fn run_check(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("benchjson --check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let mut failures: Vec<String> = Vec::new();

    let schema = text
        .lines()
        .find_map(|l| json_str_field(l, "schema"))
        .unwrap_or_default();
    if schema != SCHEMA {
        failures.push(format!(
            "schema drift: expected '{SCHEMA}', file has '{schema}'"
        ));
    }
    let mode = text
        .lines()
        .find_map(|l| json_str_field(l, "mode"))
        .unwrap_or_default();
    let tiny = match mode.as_str() {
        "tiny" => true,
        "full" => false,
        other => {
            eprintln!("benchjson --check: unknown mode '{other}' in {path}");
            std::process::exit(1);
        }
    };

    // One row object per line by construction; a row carries an `events`
    // counter (engine), a `steps` counter (protocol), a `states` counter
    // (model checker), or a `cs` counter (lock space).
    let mut actual_engine: Vec<(String, u64)> = Vec::new();
    let mut actual_proto: Vec<(String, u64)> = Vec::new();
    let mut actual_check: Vec<(String, u64)> = Vec::new();
    let mut actual_lock: Vec<(String, u64)> = Vec::new();
    for line in text.lines() {
        let Some(name) = json_str_field(line, "name") else {
            continue;
        };
        if let Some(events) = json_u64_field(line, "events") {
            actual_engine.push((name, events));
        } else if let Some(steps) = json_u64_field(line, "steps") {
            actual_proto.push((name, steps));
        } else if let Some(states) = json_u64_field(line, "states") {
            actual_check.push((name, states));
        } else if let Some(cs) = json_u64_field(line, "cs") {
            actual_lock.push((name, cs));
        }
    }

    if failures.is_empty() {
        diff_rows(
            "engine",
            "events",
            &expected_engine_rows(tiny),
            &actual_engine,
            &mut failures,
        );
        diff_rows(
            "protocol",
            "steps",
            &expected_protocol_rows(tiny),
            &actual_proto,
            &mut failures,
        );
        diff_rows(
            "checker",
            "states",
            &expected_checker_rows(tiny),
            &actual_check,
            &mut failures,
        );
        diff_rows(
            "lockspace",
            "cs",
            &expected_lockspace_rows(tiny),
            &actual_lock,
            &mut failures,
        );
    }

    if failures.is_empty() {
        println!(
            "benchjson --check: {path} OK ({} engine rows, {} protocol rows, \
             {} checker rows, {} lockspace rows, mode {mode})",
            actual_engine.len(),
            actual_proto.len(),
            actual_check.len(),
            actual_lock.len()
        );
        std::process::exit(0);
    }
    eprintln!("benchjson --check: {path} FAILED:");
    for f in &failures {
        eprintln!("  - {f}");
    }
    eprintln!("regenerate with: cargo run --release -p qmx-bench --bin benchjson");
    std::process::exit(1);
}

fn main() {
    let jobs = qmx_bench::jobs::init_jobs();
    let args = parse_args();
    if let Some(path) = &args.check {
        run_check(path);
    }
    let (engine_timing, round_iters, sim_rounds) = iteration_params(args.tiny);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if args.tiny { "tiny" } else { "full" }
    );
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(
        json,
        "  \"cores\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Discrete-event engine: virtual events per second of wall clock,
    // one row per (size, scheduler) pair. The event counts of the heap
    // and wheel rows at the same size must be identical — that is the
    // scheduler determinism contract, asserted here.
    json.push_str("  \"engine\": [\n");
    let ns = engine_ns(args.tiny);
    let mut engine_rows: Vec<String> = Vec::new();
    for &n in &ns {
        let mut counts = Vec::new();
        for kind in SCHEDULERS {
            let events = micro::contended_sim_run_with(n, sim_rounds, kind);
            counts.push(events);
            let timing = time_samples(engine_timing, || {
                micro::contended_sim_run_with(n, sim_rounds, kind);
            });
            let rate = events as f64 / timing.0;
            let label = kind.label();
            eprintln!("engine   contended_n{n}/{label}: {events} events, {rate:.0} events/sec");
            engine_rows.push(format!(
                "    {{\"name\": \"contended_n{n}_{sim_rounds}rounds/{label}\", \
                 \"events\": {events}, {}}}",
                timing_fields(events, timing)
            ));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "schedulers disagree on event count at n={n}: {counts:?}"
        );
    }
    json.push_str(&engine_rows.join(",\n"));
    json.push_str("\n  ],\n");

    // Large-N engine: the lazy-quorum configurations (no materialized
    // coterie, timer-wheel-friendly tick spans) at 10³ and 10⁵ sites.
    // Event counts are deterministic and scheduler-invariant (asserted
    // and gated by `--check`); `peak_rss_kb` is the process high-water
    // mark after the run — a memory-footprint tripwire for the hot/cold
    // split and the payload slab, tracked but not gated.
    json.push_str("  \"engine_large\": [\n");
    let mut large_rows: Vec<String> = Vec::new();
    for &(n, req) in &large_ns(args.tiny) {
        let mut counts = Vec::new();
        for kind in SCHEDULERS {
            let events = micro::large_n_sim_run(n, req, kind);
            counts.push(events);
            let timing = time_samples(engine_timing, || {
                micro::large_n_sim_run(n, req, kind);
            });
            let rate = events as f64 / timing.0;
            let rss = peak_rss_kb();
            let label = kind.label();
            eprintln!(
                "large    uncontended_n{n}/{label}: {events} events, {rate:.0} events/sec, \
                 peak rss {rss} KiB"
            );
            large_rows.push(format!(
                "    {{\"name\": \"engine_large/uncontended_n{n}_{req}req/{label}\", \
                 \"events\": {events}, {}, \"peak_rss_kb\": {rss}}}",
                timing_fields(events, timing)
            ));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "schedulers disagree on large-N event count at n={n}: {counts:?}"
        );
    }
    json.push_str(&large_rows.join(",\n"));
    json.push_str("\n  ],\n");

    // Protocol state machines: nanoseconds per handled step in an
    // uncontended round, for both the paper's algorithm and Maekawa.
    json.push_str("  \"protocol\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for &n in &proto_ns(args.tiny) {
        let mut d = micro::delay_optimal_sites(n);
        let steps = micro::full_round(&mut d, 0);
        let secs = time_mean(round_iters, || {
            micro::full_round(&mut d, 0);
        });
        let ns_per_step = secs * 1e9 / steps as f64;
        eprintln!("protocol delay_optimal_n{n}: {steps} steps, {ns_per_step:.0} ns/step");
        rows.push(format!(
            "    {{\"name\": \"uncontended_round/delay_optimal_n{n}\", \
             \"steps\": {steps}, \"ns_per_step\": {ns_per_step:.1}}}"
        ));

        let mut m = micro::maekawa_sites(n);
        let steps = micro::full_round(&mut m, 0);
        let secs = time_mean(round_iters, || {
            micro::full_round(&mut m, 0);
        });
        let ns_per_step = secs * 1e9 / steps as f64;
        eprintln!("protocol maekawa_n{n}: {steps} steps, {ns_per_step:.0} ns/step");
        rows.push(format!(
            "    {{\"name\": \"uncontended_round/maekawa_n{n}\", \
             \"steps\": {steps}, \"ns_per_step\": {ns_per_step:.1}}}"
        ));
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // Model checker: exhaustive DPOR verification scopes. `states` is
    // the exact (deterministic) reachable-state count; the reduction
    // ratio is naive-enabled-transitions over explored transitions —
    // how much interleaving the sleep sets proved redundant.
    json.push_str("  \"checker\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for (name, f) in checker_scopes(args.tiny) {
        let start = Instant::now();
        let stats = f();
        let secs = start.elapsed().as_secs_f64();
        let ratio = stats.reduction_ratio();
        eprintln!(
            "checker  {name}: {} states, {} transitions, {ratio:.2}x reduction, {secs:.3} s",
            stats.states, stats.transitions
        );
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"states\": {}, \"transitions\": {}, \
             \"naive_transitions\": {}, \"reduction_ratio\": {ratio:.3}, \
             \"seconds\": {secs:.3}}}",
            stats.states, stats.transitions, stats.naive_transitions
        ));
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // Sharded lock space: zipfian multi-resource runs over one
    // transport/detector per link. `cs` (completed executions) is the
    // deterministic gated counter; resource spread, fairness, and the
    // per-link heartbeat/retransmit counts ride along as tracked fields
    // (deterministic too, but the single gate keeps the check cheap to
    // reason about).
    json.push_str("  \"lockspace\": [\n");
    let mut rows: Vec<String> = Vec::new();
    for (resources, zipf) in lockspace_cells(args.tiny) {
        let start = Instant::now();
        let r = lockspace_cell_report(resources, zipf);
        let secs = start.elapsed().as_secs_f64();
        let name = lockspace_row_name(resources, zipf);
        let fairness = r.resource_fairness.unwrap_or(0.0);
        eprintln!(
            "lockspace {name}: {} cs over {} resources, fairness {fairness:.3}, \
             {} beats, {} retrans, {secs:.3} s",
            r.completed, r.resources, r.detector.heartbeats_sent, r.transport.retransmissions
        );
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"cs\": {}, \"resources_hit\": {}, \
             \"resource_fairness\": {fairness:.4}, \"heartbeats\": {}, \
             \"retransmissions\": {}, \"seconds\": {secs:.3}}}",
            r.completed, r.resources, r.detector.heartbeats_sent, r.transport.retransmissions
        ));
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ],\n");

    // End-to-end experiments: wall-clock seconds per report, once each.
    type Exp = (&'static str, fn() -> String);
    let exps: Vec<Exp> = if args.tiny {
        vec![("table1_n9", || experiments::table1(9))]
    } else {
        vec![
            ("table1_n9", || experiments::table1(9)),
            ("lightload", || {
                experiments::light_load_detail(&[9, 16, 25, 36, 49])
            }),
            ("heavyload", || experiments::heavy_load_detail(&[9, 25, 49])),
            ("holdsweep", || experiments::sync_delay_vs_hold(25)),
        ]
    };
    json.push_str("  \"experiments\": [\n");
    for (i, (name, f)) in exps.iter().enumerate() {
        let start = Instant::now();
        let report = f();
        let secs = start.elapsed().as_secs_f64();
        assert!(!report.is_empty());
        eprintln!("e2e      {name}: {secs:.3} s");
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"seconds\": {secs:.3}}}{}",
            if i + 1 < exps.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&args.out, &json).expect("write trajectory file");
    println!("wrote {}", args.out);
}
