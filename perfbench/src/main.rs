//! End-to-end and per-layer benchmark of the qmx lock service.
//!
//! ```text
//! perfbench --workload tcp-hot|loopback-zipf|sim-faults --seed N
//!           --seconds S --trace 0|1 [--qmxctl PATH]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics on the plain
//! system; with `--trace 1` it re-runs the workload with timing shims at
//! the public seams and reports per-layer metrics, the stack ladder, and
//! the tracing overhead. Every run checks the client-observed history and,
//! on the virtual-clock workloads, that repetitions of one seed (and the
//! traced run) reproduce the same counts. Human-readable lines start with
//! `#`; the last line is the JSON result. A failed check exits with 1.

mod check;
mod loopzipf;
mod replay;
mod simfaults;
mod stacks;
mod stats;
mod tcphot;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use qmx_runtime::loopback::{LoopNet, LoopTransport};
use qmx_runtime::stack::ServeStack;

use crate::check::check_exclusive;
use crate::replay::{ladder, replay};
use crate::stacks::TracedStack;
use crate::stats::{dist, median, peak_rss_mb, Dist, Outcome};
use crate::trace::{hop_times_us, Layer, StreamLog, Tally, Traced};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    qmxctl: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        qmxctl: PathBuf::from("qmxctl"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--qmxctl" => args.qmxctl = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["tcp-hot", "loopback-zipf", "sim-faults"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The seed of the holdout repetition: a seed the given one never equals,
/// so claims can be checked on inputs that were not tuned against.
fn holdout(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// Names and units of the per-layer metrics, in report order.
const PER_LAYER: [(&str, &str); 41] = [
    ("transport.hop_p50_us", "us"),
    ("transport.wait_us_per_grant", "us"),
    ("transport.send_calls_per_grant", "count"),
    ("transport.recv_calls_per_grant", "count"),
    ("transport.recv_empty_frac", "ratio"),
    ("transport.bytes_out_per_grant", "B"),
    ("transport.io_us_per_grant", "us"),
    ("frame.frames_per_grant", "count"),
    ("frame.ns_per_frame", "ns"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("node.polls_per_grant", "count"),
    ("node.poll_us_per_grant", "us"),
    ("node.self_us_per_grant", "us"),
    ("node.idle_poll_frac", "ratio"),
    ("client.poll_us_per_grant", "us"),
    ("detector.beats_per_grant", "count"),
    ("detector.self_us_per_grant", "us"),
    ("reliable.acks_per_grant", "count"),
    ("reliable.retransmits_per_grant", "count"),
    ("reliable.self_us_per_grant", "us"),
    ("lockspace.self_us_per_grant", "us"),
    ("lockspace.shards_live", "count"),
    ("delay_optimal.msgs_per_grant", "count"),
    ("delay_optimal.transfer_per_grant", "count"),
    ("delay_optimal.ns_per_step", "ns"),
    ("sim.events_per_grant", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.self_us_per_grant", "us"),
    ("sim.tail_event_frac", "ratio"),
    ("quorum.build_ms", "ms"),
    ("ladder.delay_optimal_ns_per_step", "ns"),
    ("ladder.lockspace_ns_per_step", "ns"),
    ("ladder.reliable_ns_per_step", "ns"),
    ("ladder.detector_ns_per_step", "ns"),
    ("ladder.wire_ns_per_msg", "ns"),
    ("ladder.frame_ns_per_msg", "ns"),
    ("trace.grants_per_s_untraced", "1/s"),
    ("trace.grants_per_s_traced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer figures by name; names not set report 0 (the layer is not
/// on this workload's path).
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            let v = self
                .0
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            out.put(name, v, unit);
        }
    }

    /// Self time of the protocol layers and the algorithm's message mix.
    fn stack(&mut self, t: &Tally, grants: f64) {
        let us = |l: Layer| t.layer(l).self_ns as f64 / 1e3 / grants;
        self.set("detector.self_us_per_grant", us(Layer::Detector));
        self.set("reliable.self_us_per_grant", us(Layer::Reliable));
        self.set("lockspace.self_us_per_grant", us(Layer::LockSpace));
        let algo = t.layer(Layer::DelayOptimal);
        self.set("delay_optimal.msgs_per_grant", algo.sends as f64 / grants);
        self.set(
            "delay_optimal.transfer_per_grant",
            algo.transfers as f64 / grants,
        );
        self.set(
            "delay_optimal.ns_per_step",
            algo.self_ns as f64 / algo.steps.max(1) as f64,
        );
    }

    /// Transport, frame, wire, node and client figures of a runtime run.
    fn runtime(
        &mut self,
        t: &Tally,
        streams: &[std::sync::Arc<std::sync::Mutex<StreamLog>>],
        r: &Runtime,
    ) {
        let g = r.grants;
        let hops = hop_times_us(streams);
        self.set("transport.hop_p50_us", median(&hops));
        self.set(
            "transport.wait_us_per_grant",
            t.layer(Layer::Wait).total_ns as f64 / 1e3 / g,
        );
        self.set("transport.send_calls_per_grant", t.send_calls as f64 / g);
        self.set("transport.recv_calls_per_grant", t.recv_calls as f64 / g);
        self.set(
            "transport.recv_empty_frac",
            t.recv_empty as f64 / t.recv_calls.max(1) as f64,
        );
        self.set("transport.bytes_out_per_grant", t.bytes_out as f64 / g);
        self.set(
            "transport.io_us_per_grant",
            t.layer(Layer::Transport).total_ns as f64 / 1e3 / g,
        );
        let rp = replay(streams);
        self.set("frame.frames_per_grant", r.frames as f64 / g);
        self.set("frame.ns_per_frame", rp.frame_ns);
        self.set("wire.encode_ns_per_msg", rp.encode_ns);
        self.set("wire.decode_ns_per_msg", rp.decode_ns);
        self.set("wire.bytes_per_msg", rp.bytes_per_msg);
        let node = t.layer(Layer::Node);
        self.set("node.polls_per_grant", r.polls as f64 / g);
        self.set("node.poll_us_per_grant", node.total_ns as f64 / 1e3 / g);
        self.set("node.self_us_per_grant", node.self_ns as f64 / 1e3 / g);
        self.set(
            "node.idle_poll_frac",
            r.idle_polls as f64 / r.polls.max(1) as f64,
        );
        self.set(
            "client.poll_us_per_grant",
            t.layer(Layer::Client).total_ns as f64 / 1e3 / g,
        );
        self.set("detector.beats_per_grant", r.beats as f64 / g);
        self.set("reliable.acks_per_grant", r.acks as f64 / g);
        self.set("reliable.retransmits_per_grant", r.retransmits as f64 / g);
        self.set("lockspace.shards_live", r.shards as f64);
        self.stack(t, g);
    }

    fn ladder(&mut self) {
        let l = ladder();
        println!(
            "# ladder ns/step: delay_optimal {:.1}, +lockspace {:.1}, +reliable {:.1}, \
             +detector {:.1}; ns/msg: wire {:.1}, frame {:.1}",
            l.delay_optimal, l.lockspace, l.reliable, l.detector, l.wire_per_msg, l.frame_per_msg
        );
        self.set("ladder.delay_optimal_ns_per_step", l.delay_optimal);
        self.set("ladder.lockspace_ns_per_step", l.lockspace);
        self.set("ladder.reliable_ns_per_step", l.reliable);
        self.set("ladder.detector_ns_per_step", l.detector);
        self.set("ladder.wire_ns_per_msg", l.wire_per_msg);
        self.set("ladder.frame_ns_per_msg", l.frame_per_msg);
    }

    fn overhead(&mut self, untraced: f64, traced: f64) {
        println!(
            "# tracing overhead: {untraced:.1} grants/s untraced, {traced:.1} traced ({:.3}x)",
            traced / untraced
        );
        self.set("trace.grants_per_s_untraced", untraced);
        self.set("trace.grants_per_s_traced", traced);
        self.set("trace.overhead_ratio", traced / untraced);
    }
}

/// Runtime-side totals of a traced run, the denominators of `Layers::runtime`.
struct Runtime {
    grants: f64,
    frames: u64,
    polls: u64,
    idle_polls: u64,
    beats: u64,
    acks: u64,
    retransmits: u64,
    shards: u64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    grants_per_s: f64,
    acquire: Dist,
    handover: Dist,
    cpu_us_per_grant: f64,
    peak_rss: f64,
) {
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.put("setup_s", setup_s, "s");
    out.put("grants_per_s", grants_per_s, "1/s");
    out.put("acquire_p50_us", acquire.p50, "us");
    out.put("acquire_p99_us", acquire.tail, "us");
    out.put("handover_p50_us", handover.p50, "us");
    out.put("handover_p99_us", handover.tail, "us");
    out.put("cpu_us_per_grant", cpu_us_per_grant, "us");
    out.put("peak_rss_mb", peak_rss, "MB");
    out.put("success_frac", ok, "ratio");
}

/// The best of per-repetition figures. Other tenants of the machine only
/// ever slow a repetition down, so on the CPU-bound workloads the fastest
/// repetition is the steadiest estimate of the program's own speed.
fn best(values: impl Iterator<Item = f64>, higher_is_better: bool) -> f64 {
    values
        .reduce(|a, b| if (b > a) == higher_is_better { b } else { a })
        .unwrap_or(0.0)
}

/// Repeats `rep` until `budget` is spent, at least `min` times.
fn repeat<R>(budget: Duration, min: usize, mut rep: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep());
        let per = start.elapsed() / out.len() as u32;
        if out.len() >= min && start.elapsed() + per > budget {
            return out;
        }
    }
}

fn print_counts<K: std::fmt::Display>(label: &str, counts: &[(K, u64)]) {
    let body: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# {label}: {}", body.join(" "));
}

fn latencies(label: &str, acquire: &Dist, handover: &Dist, unit_t: Option<f64>) {
    println!("# {label} acquire: {acquire}");
    println!("# {label} handover: {handover}");
    if let Some(t) = unit_t {
        println!(
            "# {label} in T: handover p50 {:.3}T, response (acquire) p{} {:.3}T",
            handover.p50 / t,
            (acquire.tail_q * 1000.0).round() / 10.0,
            acquire.tail / t
        );
    }
}

/// Checks one loopback-zipf repetition: its client-observed holds, its
/// clients' complaints, and its counts against the first repetition's
/// (`expected`, set by the first call). Every repetition after the first
/// then drops its samples, which repeat the first one's exactly, so the
/// process's peak memory stays that of one repetition.
fn check_loop_rep(
    out: &mut Outcome,
    label: &str,
    r: &mut loopzipf::Rep,
    expected: &mut Option<Vec<(&'static str, u64)>>,
) {
    if let Err(e) = check_exclusive(&r.holds) {
        out.violation(format!("{label}: {e}"));
    }
    for v in &r.violations {
        out.violation(format!("{label}: {v}"));
    }
    out.attempted += r.acquires;
    out.failed += r.failed;
    match expected {
        None => *expected = Some(r.counts.clone()),
        Some(counts) => {
            if r.counts != *counts {
                out.violation(format!("{label}: counts differ from the first repetition"));
            }
            r.holds = Vec::new();
            r.acquire_us = Vec::new();
            r.handover_us = Vec::new();
        }
    }
}

fn loopback(args: &Args, out: &mut Outcome) {
    use loopzipf::*;
    println!(
        "# load: 1 thread, {SITES} sites x {PER_SITE} closed-loop sessions, {RESOURCES} \
         zipf({ZIPF_S}) resources, hold {HOLD_US} us, span {SPAN_US} us virtual, links 500 +- \
         {JITTER_US} us virtual"
    );
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut expected = None;
    let mut n = 0;
    let plain = || {
        let mut r = run_rep::<LoopTransport, ServeStack>(args.seed, LoopNet::transport);
        check_loop_rep(out, &format!("rep {n}"), &mut r, &mut expected);
        n += 1;
        r
    };
    let reps = if args.trace {
        repeat(seconds / 2, 2, plain)
    } else {
        repeat(seconds, 3, plain)
    };
    let first = &reps[0];
    print_counts(&format!("counts seed {}", args.seed), &first.counts);
    let rate = |r: &loopzipf::Rep| r.window_grants as f64 / r.window_s;
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    println!("# grants/s per repetition: {rates:.1?}");
    let grants_per_s = best(rates.iter().copied(), true);
    let acquire = dist(&first.acquire_us);
    let handover = dist(&first.handover_us);
    latencies("virtual us", &acquire, &handover, Some(500.0));
    println!("# {} repetitions", reps.len());

    if args.trace {
        trace::set_timing(true);
        let _ = trace::take_streams();
        let mut streams = Vec::new();
        let mut n = 0;
        let traced = repeat(seconds / 2, 1, || {
            let mut r = run_rep::<Traced<LoopTransport>, TracedStack>(args.seed, |net| {
                Traced::new(net.transport())
            });
            check_loop_rep(out, &format!("traced rep {n}"), &mut r, &mut expected);
            n += 1;
            let s = trace::take_streams();
            if streams.is_empty() {
                streams = s;
            }
            r
        });
        trace::set_timing(false);
        let tally = trace::take();
        let t0 = &traced[0];
        let grants: u64 = traced.iter().map(|r| r.grants).sum();
        let mut layers = Layers::default();
        // The hop is timed on the wall clock, which the virtual-clock
        // loopback does not run on; it is reported for the record only.
        layers.runtime(
            &tally,
            &streams,
            &Runtime {
                grants: grants as f64,
                frames: traced.iter().map(|r| r.frames_out + r.client_frames).sum(),
                polls: traced.iter().map(|r| r.polls).sum(),
                idle_polls: traced.iter().map(|r| r.idle_polls).sum(),
                beats: traced.iter().map(|r| r.beats).sum(),
                acks: traced.iter().map(|r| r.acks).sum(),
                retransmits: traced.iter().map(|r| r.retransmits).sum(),
                shards: t0.shards,
            },
        );
        layers.ladder();
        layers.overhead(grants_per_s, best(traced.iter().map(rate), true));
        layers.emit(out);
        return;
    }

    let hold = run_rep::<LoopTransport, ServeStack>(holdout(args.seed), LoopNet::transport);
    if let Err(e) = check_exclusive(&hold.holds) {
        out.violation(format!("holdout: {e}"));
    }
    for v in &hold.violations {
        out.violation(format!("holdout: {v}"));
    }
    print_counts(
        &format!("holdout counts seed {}", holdout(args.seed)),
        &hold.counts,
    );
    println!(
        "# holdout: {:.1} grants/s, acquire {}, handover {}",
        rate(&hold),
        dist(&hold.acquire_us),
        dist(&hold.handover_us)
    );
    end_to_end(
        out,
        median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        grants_per_s,
        acquire,
        handover,
        best(
            reps.iter()
                .map(|r| r.window_cpu_us / r.window_grants.max(1) as f64),
            false,
        ),
        peak_rss_mb("self"),
    );
}

/// Set-up-only repetitions of sim-faults per run.
const SETUP_REPS: usize = 31;

fn sim(args: &Args, out: &mut Outcome) {
    use simfaults::*;
    println!(
        "# load: 1 thread, {N} sites on grid quorums, Poisson gap {GAP_T}T per site, horizon \
         {HORIZON_T}T + {TAIL_T}T tail, T = {T} ticks (uniform 0.5T..1.5T), crash {CRASH:?}, \
         cut {CUT:?}"
    );
    let seconds = Duration::from_secs_f64(args.seconds);
    // Set-up takes under a millisecond: time it many times over.
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| setup_s(args.seed)).collect();
    let reps = repeat(
        if args.trace { seconds / 2 } else { seconds },
        if args.trace { 2 } else { 3 },
        || run_rep(args.seed, plain_sites),
    );
    let first = &reps[0];
    let check = |out: &mut Outcome, label: &str, r: &Rep| {
        for v in &r.violations {
            out.violation(format!("{label}: {v}"));
        }
        if r.completed + r.failed != r.issued {
            out.violation(format!(
                "{label}: completed {} + failed {} != issued {}",
                r.completed, r.failed, r.issued
            ));
        }
    };
    for (i, r) in reps.iter().enumerate() {
        check(out, &format!("rep {i}"), r);
        if r.counts != first.counts {
            out.violation(format!(
                "rep {i}: counts differ from rep 0 on the same seed"
            ));
        }
        out.attempted += r.issued;
        out.failed += r.failed;
    }
    print_counts(&format!("counts seed {}", args.seed), &first.counts);
    let rate = |r: &Rep| r.completed as f64 / r.run_s;
    let rates: Vec<f64> = reps.iter().map(rate).collect();
    println!("# grants/s per repetition: {rates:.1?}");
    let grants_per_s = best(rates.iter().copied(), true);
    let acquire = dist(&first.acquire);
    let handover = dist(&first.handover);
    latencies("virtual ticks", &acquire, &handover, Some(T as f64));
    println!("# {} repetitions, K = {}", reps.len(), first.k);

    if args.trace {
        trace::set_timing(true);
        let traced = repeat(seconds / 2, 1, || run_rep(args.seed, traced_sites));
        trace::set_timing(false);
        let mut tally = Tally::default();
        for (i, r) in traced.iter().enumerate() {
            if r.counts != first.counts {
                out.violation(format!(
                    "traced rep {i}: counts differ from the untraced run"
                ));
            }
            tally.merge(&r.tally);
        }
        let grants: u64 = traced.iter().map(|r| r.completed).sum();
        let g = grants as f64;
        let mut layers = Layers::default();
        layers.stack(&tally, g);
        layers.set(
            "detector.beats_per_grant",
            count(first, "heartbeats") as f64 / first.completed as f64,
        );
        layers.set(
            "reliable.acks_per_grant",
            count(first, "acks_sent") as f64 / first.completed as f64,
        );
        layers.set(
            "reliable.retransmits_per_grant",
            count(first, "retransmissions") as f64 / first.completed as f64,
        );
        layers.set(
            "sim.events_per_grant",
            first.events as f64 / first.completed as f64,
        );
        layers.set(
            "sim.events_per_s",
            median(
                &reps
                    .iter()
                    .map(|r| r.events as f64 / r.run_s)
                    .collect::<Vec<_>>(),
            ),
        );
        let run_ns: f64 = traced.iter().map(|r| r.run_s * 1e9).sum();
        layers.set(
            "sim.self_us_per_grant",
            (run_ns - tally.layer(Layer::App).total_ns as f64) / 1e3 / g,
        );
        let app = first.tally.layer(Layer::App).steps;
        layers.set(
            "sim.tail_event_frac",
            (app - first.tally.steps_at_last_release) as f64 / app.max(1) as f64,
        );
        layers.set(
            "quorum.build_ms",
            median(
                &reps
                    .iter()
                    .chain(&traced)
                    .map(|r| r.quorum_build_s * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
        layers.ladder();
        layers.overhead(grants_per_s, best(traced.iter().map(rate), true));
        layers.emit(out);
        return;
    }

    let hold = run_rep(holdout(args.seed), plain_sites);
    check(out, "holdout", &hold);
    print_counts(
        &format!("holdout counts seed {}", holdout(args.seed)),
        &hold.counts,
    );
    println!(
        "# holdout: {:.1} grants/s, acquire {}, handover {}",
        rate(&hold),
        dist(&hold.acquire),
        dist(&hold.handover)
    );
    let setups: Vec<f64> = setups
        .into_iter()
        .chain(reps.iter().map(|r| r.setup_s))
        .collect();
    end_to_end(
        out,
        median(&setups),
        grants_per_s,
        acquire,
        handover,
        best(
            reps.iter()
                .map(|r| r.run_cpu_us / r.completed.max(1) as f64),
            false,
        ),
        peak_rss_mb("self"),
    );
}

fn count(rep: &simfaults::Rep, key: &str) -> u64 {
    rep.counts
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

fn tcp_check(out: &mut Outcome, label: &str, rep: &tcphot::Rep) {
    if let Err(e) = check_exclusive(&rep.holds) {
        out.violation(format!("{label}: {e}"));
    }
    for v in &rep.violations {
        out.violation(format!("{label}: {v}"));
    }
}

/// Measured seconds per tcp-hot cluster launch.
const TCP_WINDOW_S: f64 = 2.5;

fn tcp_hot(args: &Args, out: &mut Outcome) -> Result<(), String> {
    println!(
        "# load: 1 thread, {} client connections (sites {:?}), {} serve processes, closed loop on \
         one resource, hold uniform 0..{} us (seeded), no think time",
        tcphot::CLIENT_SITES.len(),
        tcphot::CLIENT_SITES,
        tcphot::SITES,
        2 * tcphot::HOLD_US
    );
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let launches = ((seconds / TCP_WINDOW_S).round() as usize).max(3);
    let (rep, usage) = tcphot::run(&args.qmxctl, seconds, args.seed, launches)?;
    tcp_check(out, "untraced", &rep);
    for (i, err) in usage.stderr.iter().enumerate() {
        for line in err.lines() {
            println!("# serve[{i}] stderr: {line}");
        }
    }
    out.attempted += rep.acquires;
    out.failed += rep.failed;
    let grants_per_s = rep.grants as f64 / rep.window_s;
    // Medians pool every launch; tails are the median launch's, so a
    // burst of outside load that hits one launch does not set them.
    let acquire = Dist {
        tail: median(&rep.launch_acquire_tail),
        ..dist(&rep.acquire_us)
    };
    let handover = Dist {
        tail: median(&rep.launch_handover_tail),
        ..dist(&rep.handover_us)
    };
    latencies("wall us", &acquire, &handover, None);

    if args.trace {
        let (trep, nodes, client_tally) = tcphot::run_traced(seconds, args.seed)?;
        tcp_check(out, "traced", &trep);
        let streams = trace::take_streams();
        let mut tally = client_tally;
        for n in &nodes {
            tally.merge(&n.tally);
        }
        let mut layers = Layers::default();
        layers.runtime(
            &tally,
            &streams,
            &Runtime {
                grants: trep.grants as f64,
                frames: nodes.iter().map(|n| n.frames_out).sum::<u64>() + trep.client_frames,
                polls: nodes.iter().map(|n| n.polls).sum(),
                idle_polls: nodes.iter().map(|n| n.idle_polls).sum(),
                beats: nodes.iter().map(|n| n.beats).sum(),
                acks: nodes.iter().map(|n| n.acks).sum(),
                retransmits: nodes.iter().map(|n| n.retransmits).sum(),
                shards: nodes.iter().map(|n| n.shards).sum(),
            },
        );
        let hops = hop_times_us(&streams);
        println!(
            "# traced: handover {}, one-way hop {}",
            dist(&trep.handover_us),
            dist(&hops)
        );
        layers.ladder();
        layers.overhead(grants_per_s, trep.grants as f64 / trep.window_s);
        layers.emit(out);
        return Ok(());
    }
    end_to_end(
        out,
        median(&rep.setup_s),
        grants_per_s,
        acquire,
        handover,
        usage.cpu_us / rep.grants.max(1) as f64,
        usage.peak_rss_mb,
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc {}, {}, commit {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    );
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "tcp-hot" => tcp_hot(&args, &mut out),
        "loopback-zipf" => {
            loopback(&args, &mut out);
            Ok(())
        }
        _ => {
            sim(&args, &mut out);
            Ok(())
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    for v in &out.violations {
        println!("# VIOLATION: {v}");
    }
    println!("{}", out.json());
    if !out.violations.is_empty() {
        std::process::exit(1);
    }
}
