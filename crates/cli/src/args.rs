//! Hand-rolled argument parsing (no external dependency): `--key value`
//! flags after a subcommand.

use qmx_sim::{DelayModel, SchedulerKind};
use qmx_workload::scenario::{Algorithm, QuorumSpec};
use std::collections::BTreeMap;
use std::fmt;

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Subcommands of `qmxctl`.
// One `Command` is parsed per process; the size skew of the fully
// optioned `Run` variant is irrelevant and boxing it would only add
// noise at every match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation scenario and print the report.
    Run {
        /// Algorithm under test.
        algorithm: Algorithm,
        /// Number of sites.
        n: usize,
        /// Quorum construction.
        quorum: QuorumSpec,
        /// Poisson mean inter-arrival gap, in units of T (0 = saturated).
        gap_t: u64,
        /// Arrival window in units of T.
        horizon_t: u64,
        /// Message delay model.
        delay: DelayModel,
        /// CS hold in ticks.
        hold: u64,
        /// Seed.
        seed: u64,
        /// Crashes as `site:time_t` pairs.
        crashes: Vec<(u32, u64)>,
        /// I.i.d. message-drop probability per link.
        loss: f64,
        /// Message-duplication probability per link.
        dup: f64,
        /// Burst (Gilbert–Elliott) loss `p_bad:p_good:drop_good:drop_bad`;
        /// overrides `loss` when present.
        burst: Option<(f64, f64, f64, f64)>,
        /// One-directional link outages as `from:to:start_t:end_t`.
        outages: Vec<(u32, u32, u64, u64)>,
        /// Partitions as `(group-id per site, time_t)` pairs.
        partitions: Vec<(Vec<u32>, u64)>,
        /// Times (in T units) at which the current partition heals.
        heals: Vec<u64>,
        /// Directed link cuts as `from:to:timeT` triples.
        cuts: Vec<(u32, u32, u64)>,
        /// Directed link restorations as `from:to:timeT` triples.
        link_restores: Vec<(u32, u32, u64)>,
        /// Flapping links as `from:to:startT:periodT:count`: `count`
        /// cut/heal pairs, each cut at `start + k*period` healing half a
        /// period later.
        flaps: Vec<(u32, u32, u64, u64, u32)>,
        /// Reliable-transport wrapper: `None` = auto (on iff faults are
        /// configured), `Some(b)` = forced on/off.
        reliable: Option<bool>,
        /// Heartbeat interval in T units (enables the failure detector).
        hb_interval_t: Option<u64>,
        /// Heartbeat silence threshold in T units (enables the detector).
        hb_timeout_t: Option<u64>,
        /// Recoveries as `site:time_t` pairs (each enables the detector:
        /// rejoin needs the heartbeat handshake, not the oracle).
        recoveries: Vec<(u32, u64)>,
        /// Event-scheduler implementation (`heap` or `wheel`); the
        /// report is byte-identical under both, only wall clock differs.
        scheduler: SchedulerKind,
        /// Per-request deadline in T units: requests abort (withdraw from
        /// every arbiter) once they wait this long. `None` = no deadlines.
        deadline_t: Option<u64>,
        /// Retry of aborted requests as `(baseT, capT, max_attempts)`:
        /// jittered exponential backoff. Requires `deadline_t`.
        retry_backoff: Option<(u64, u64, u32)>,
        /// Number of named resources in every site's lock space (1 = the
        /// classic single implicit lock, no lock-space layer).
        resources: u32,
        /// Zipf skew of resource popularity (0 = uniform). Only
        /// meaningful with `resources > 1`.
        zipf: f64,
    },
    /// Print a quorum system and its properties.
    Quorum {
        /// Construction name.
        kind: QuorumSpec,
        /// Number of sites.
        n: usize,
    },
    /// Exhaustively model-check the delay-optimal protocol.
    Check {
        /// Number of sites (full quorums).
        n: u32,
        /// CS rounds per site.
        rounds: u32,
        /// State cap.
        max_states: usize,
        /// Quorum construction (`None` = one full all-sites quorum).
        quorum: Option<QuorumSpec>,
        /// Fault budget: silent crashes.
        crashes: u32,
        /// Fault budget: recoveries of crashed sites.
        recoveries: u32,
        /// Fault budget: messages dropped from channel heads.
        drops: u32,
        /// Fault budget: false suspicions of live sites.
        suspicions: u32,
        /// Fault budget: directed link cuts (delivery embargoes).
        cuts: u32,
        /// Fault budget: restorations of cut links.
        restores: u32,
        /// Fault budget: client-side request aborts.
        aborts: u32,
        /// Parallel subtree fan-out width (1 = sequential).
        jobs: usize,
        /// File to write a counterexample trace to on failure.
        trace_out: Option<String>,
    },
    /// Reproduce one of the paper's experiments (E1–E10).
    Experiment {
        /// Experiment name (`table1`, `lightload`, …).
        name: String,
        /// Worker threads for the experiment fan-out (0 = auto-detect).
        jobs: usize,
    },
    /// Serve one site of a live networked cluster.
    Serve {
        /// This site's id (`0..sites`).
        site: u32,
        /// Cluster size.
        sites: u32,
        /// Address to listen on (`host:port` for tcp, a path for uds).
        listen: String,
        /// Peer addresses as `(site, addr)`; one entry per other site.
        peers: Vec<(u32, String)>,
        /// Socket flavour.
        transport: WireTransport,
        /// Reply-forwarding (`false` = the `2T` arbiter-mediated baseline).
        forwarding: bool,
        /// §6 quorum reconstruction on suspicion/failure.
        reconstruct: bool,
        /// Crash-recovery incarnation (`>0` announces a rejoin).
        incarnation: u64,
        /// Exit after this many milliseconds (`None` = serve until killed).
        for_ms: Option<u64>,
    },
    /// Drive open-loop load at a live cluster and print latency percentiles.
    BenchLoad {
        /// Site addresses; virtual clients attach round-robin.
        addrs: Vec<String>,
        /// Socket flavour.
        transport: WireTransport,
        /// Virtual client count.
        clients: usize,
        /// Distinct resources.
        resources: u32,
        /// Measured run length, milliseconds.
        duration_ms: u64,
        /// Mean exponential think time, milliseconds.
        think_ms: u64,
        /// Lock hold time, milliseconds.
        hold_ms: u64,
        /// Per-acquire wait budget, milliseconds (`None` = wait forever).
        wait_ms: Option<u64>,
        /// Zipf skew of resource popularity (0 = uniform).
        zipf: f64,
        /// RNG seed.
        seed: u64,
        /// Report label.
        label: String,
        /// Also write the rendered report to this file.
        out: Option<String>,
    },
    /// Print usage.
    Help,
}

/// Which socket family the live runtime commands use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireTransport {
    /// TCP; addresses are `host:port`.
    Tcp,
    /// Unix-domain sockets; addresses are filesystem paths.
    Uds,
}

/// Usage text.
pub const USAGE: &str = "\
qmxctl — delay-optimal quorum mutual exclusion toolbox

USAGE:
  qmxctl run [--alg A] [--n N] [--quorum Q] [--gap G] [--horizon H]
             [--delay D] [--hold E] [--seed S] [--crash site:timeT ...]
             [--loss P] [--dup P] [--burst PB:PG:DG:DB]
             [--outage from:to:startT:endT ...]
             [--partition g0,g1,..:timeT ...] [--heal timeT ...]
             [--cut from:to:timeT ...] [--restore from:to:timeT ...]
             [--flap from:to:startT:periodT:count ...]
             [--reliable on|off|auto]
             [--hb-interval T] [--hb-timeout T] [--recover site:timeT ...]
             [--deadline T] [--retry-backoff baseT:capT:attempts]
             [--resources R] [--zipf S]
             [--scheduler heap|wheel]
  qmxctl quorum --kind Q --n N
  qmxctl check [--n N] [--rounds R] [--max-states M] [--quorum Q]
               [--crashes C] [--recoveries C] [--drops C] [--suspicions C]
               [--cuts C] [--restores C] [--aborts C] [--jobs J]
               [--trace-out FILE]
  qmxctl experiment NAME [--jobs J]
  qmxctl serve --site I --sites N --listen ADDR --peer SITE=ADDR ...
               [--transport tcp|uds] [--forwarding on|off]
               [--reconstruct on|off] [--incarnation K] [--for-ms MS]
  qmxctl bench-load --addr ADDR ... [--transport tcp|uds] [--clients C]
               [--resources R] [--duration-ms MS] [--think-ms MS]
               [--hold-ms MS] [--wait-ms MS] [--zipf S] [--seed S]
               [--label TEXT] [--out FILE]
  qmxctl help

WHERE:
  A = delay-optimal | no-forwarding | ft-tree | ft-majority | maekawa |
      lamport | ricart-agrawala | carvalho-roucairol | suzuki-kasami |
      raymond | singhal
  Q = grid | fpp | tree | hqc | majority | wheel | wall | all |
      gridset:G | rst:G
  G = mean Poisson gap in T units (0 = saturated load)
  D = const:TICKS | uniform:LO:HI | exp:MEAN
  P = probability in [0,1]; --burst takes Gilbert-Elliott parameters
      (good->bad prob, bad->good prob, drop prob per state)
  --cut severs one *directed* link at the given time (messages from
      `from` to `to` are dropped at the source); --restore heals it.
      --flap schedules `count` cut/heal pairs on one link, each cut at
      start + k*period and healed half a period later. Compose --cut
      pairs for a symmetric partition; a lone direction is an
      asymmetric partition (A hears B, B does not hear A)
  --reliable auto (default) wraps sites in the ack/retransmit transport
      whenever --loss/--dup/--burst/--outage/--cut/--flap are present
  --hb-interval/--hb-timeout/--recover switch failure detection from the
      oracle to heartbeats (suspicion from silence, crash recovery via
      the rejoin handshake); intervals are in T units
  --deadline bounds every request's wait: once it expires the client
      aborts, withdrawing the request from every arbiter it reached.
      --retry-backoff re-issues aborted requests with jittered
      exponential backoff (base doubles per attempt up to cap, both in
      T units, at most `attempts` retries); it needs --deadline, since
      nothing aborts without one
  --resources R > 1 runs a sharded lock space: every site multiplexes R
      independent named locks over ONE reliable transport and ONE
      failure detector per link; arrivals are spread over the resources
      by a deterministic draw. --zipf S skews resource popularity
      (Zipf exponent; 0 = uniform, 1 = classic heavy head). Requires
      --alg delay-optimal or no-forwarding; the report gains resource
      count and per-resource fairness lines
  --scheduler picks the event-queue implementation: wheel (the timer
      wheel, default) or heap (the binary-heap reference). Without the
      flag the QMX_SCHEDULER env var (heap|wheel) picks it; reports are
      byte-identical for either choice — only wall-clock time differs
  check explores every interleaving of the scope with dynamic
      partial-order reduction; fault budgets add Crash/Recover/Drop and
      failure-detector verdict transitions (--suspicions bounds *false*
      suspicions of live sites; true suspicions of crashed sites are
      free). --cuts/--restores budget directed link cuts: a cut S->T
      embargoes delivery on that link (sends still queue, FIFO order is
      kept) until a restore lifts it — keep restores >= cuts so every
      branch can heal. --aborts budgets client-side request aborts
      (abort_cs), explored against every crash/drop/partition
      interleaving. --quorum overrides the default full (all-sites) quorum,
      --jobs fans independent subtrees out in parallel, and --trace-out
      writes the counterexample action trace on failure
  NAME = table1 | lightload | heavyload | syncdelay | throughput |
         quorumsize | availability | faulttolerance | ablation |
         holdsweep | msgscaling | schedulers | scalesweep | partitions |
         abortavail | lockspace
  J = worker threads for the experiment fan-out (0 or absent = auto);
      reports are identical for every J — runs are pure per (scenario,
      seed) and rows are assembled in parameter order
  serve runs ONE site of a live cluster over real sockets: the same
      Detector<Reliable<LockSpace<DelayOptimal>>> stack the simulator
      models, behind a framed wire protocol. Give every other site's
      address via repeated --peer SITE=ADDR. --forwarding off serves the
      2T arbiter-mediated baseline (the paper's comparison point);
      --reconstruct off pins the fixed ring-majority quorum instead of
      rebuilding it around suspected sites. --for-ms bounds the run for
      scripted smoke tests; without it the process serves until killed
  bench-load drives C virtual clients (round-robin over the --addr list)
      through think/acquire/hold/release cycles with exponential think
      times and zipfian resource choice, then prints per-resource
      acquire-latency percentiles and the wire-level handover (sync
      delay) distribution. --wait-ms 0 waits forever; --out also writes
      the report to a file
";

fn parse_algorithm(s: &str) -> Result<Algorithm, ParseError> {
    Ok(match s {
        "delay-optimal" => Algorithm::DelayOptimal,
        "no-forwarding" => Algorithm::DelayOptimalNoForwarding,
        "ft-tree" => Algorithm::DelayOptimalFtTree,
        "ft-majority" => Algorithm::DelayOptimalFtMajority,
        "maekawa" => Algorithm::Maekawa,
        "lamport" => Algorithm::Lamport,
        "ricart-agrawala" => Algorithm::RicartAgrawala,
        "suzuki-kasami" => Algorithm::SuzukiKasami,
        "raymond" => Algorithm::Raymond,
        "singhal" => Algorithm::SinghalDynamic,
        "carvalho-roucairol" => Algorithm::CarvalhoRoucairol,
        other => return err(format!("unknown algorithm '{other}'")),
    })
}

fn parse_quorum(s: &str) -> Result<QuorumSpec, ParseError> {
    if let Some(g) = s.strip_prefix("gridset:") {
        let g = g
            .parse()
            .map_err(|_| ParseError(format!("bad group size in '{s}'")))?;
        return Ok(QuorumSpec::GridSet(g));
    }
    if let Some(g) = s.strip_prefix("rst:") {
        let g = g
            .parse()
            .map_err(|_| ParseError(format!("bad group size in '{s}'")))?;
        return Ok(QuorumSpec::Rst(g));
    }
    Ok(match s {
        "grid" => QuorumSpec::Grid,
        "fpp" => QuorumSpec::Fpp,
        "tree" => QuorumSpec::Tree,
        "hqc" => QuorumSpec::Hqc,
        "majority" => QuorumSpec::Majority,
        "wheel" => QuorumSpec::Wheel,
        "wall" => QuorumSpec::Wall,
        "all" => QuorumSpec::All,
        other => return err(format!("unknown quorum construction '{other}'")),
    })
}

fn parse_delay(s: &str) -> Result<DelayModel, ParseError> {
    let parts: Vec<&str> = s.split(':').collect();
    let num = |x: &str| -> Result<u64, ParseError> {
        x.parse()
            .map_err(|_| ParseError(format!("bad number in delay '{s}'")))
    };
    match parts.as_slice() {
        ["const", t] => Ok(DelayModel::Constant(num(t)?)),
        ["exp", m] => Ok(DelayModel::Exponential { mean: num(m)? }),
        ["uniform", lo, hi] => Ok(DelayModel::Uniform {
            lo: num(lo)?,
            hi: num(hi)?,
        }),
        _ => err(format!(
            "unknown delay model '{s}' (const:T | uniform:LO:HI | exp:MEAN)"
        )),
    }
}

fn parse_wire(s: &str) -> Result<WireTransport, ParseError> {
    match s {
        "tcp" => Ok(WireTransport::Tcp),
        "uds" => Ok(WireTransport::Uds),
        other => err(format!("--transport wants tcp|uds, got '{other}'")),
    }
}

fn flags(args: &[String]) -> Result<BTreeMap<String, Vec<String>>, ParseError> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return err(format!("expected --flag, got '{}'", args[i]));
        };
        let Some(value) = args.get(i + 1) else {
            return err(format!("--{key} needs a value"));
        };
        map.entry(key.to_string()).or_default().push(value.clone());
        i += 2;
    }
    Ok(map)
}

fn one<'a>(map: &'a BTreeMap<String, Vec<String>>, key: &str, default: &'a str) -> &'a str {
    map.get(key)
        .and_then(|v| v.last())
        .map_or(default, String::as_str)
}

fn parse_prob(map: &BTreeMap<String, Vec<String>>, key: &str) -> Result<f64, ParseError> {
    let s = one(map, key, "0");
    let p: f64 = s
        .parse()
        .map_err(|_| ParseError(format!("--{key} must be a probability, got '{s}'")))?;
    if !(0.0..=1.0).contains(&p) {
        return err(format!("--{key} must be in [0,1], got {p}"));
    }
    Ok(p)
}

fn parse_u64(
    map: &BTreeMap<String, Vec<String>>,
    key: &str,
    default: u64,
) -> Result<u64, ParseError> {
    one(map, key, "").is_empty().then_some(default).map_or_else(
        || {
            one(map, key, "")
                .parse()
                .map_err(|_| ParseError(format!("--{key} must be a number")))
        },
        Ok,
    )
}

impl Cli {
    /// Parses a full argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first problem found.
    pub fn parse<I, S>(args: I) -> Result<Cli, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        let Some((cmd, rest)) = args.split_first() else {
            return Ok(Cli {
                command: Command::Help,
            });
        };
        let command = match cmd.as_str() {
            "help" | "--help" | "-h" => Command::Help,
            "run" => {
                let f = flags(rest)?;
                let site_time = |flag: &str, c: &str| -> Result<(u32, u64), ParseError> {
                    let Some((site, t)) = c.split_once(':') else {
                        return err(format!("--{flag} wants site:timeT, got '{c}'"));
                    };
                    let site = site
                        .parse()
                        .map_err(|_| ParseError(format!("bad site in '{c}'")))?;
                    let t = t
                        .parse()
                        .map_err(|_| ParseError(format!("bad time in '{c}'")))?;
                    Ok((site, t))
                };
                let mut crashes = Vec::new();
                for c in f.get("crash").into_iter().flatten() {
                    crashes.push(site_time("crash", c)?);
                }
                let mut recoveries = Vec::new();
                for c in f.get("recover").into_iter().flatten() {
                    recoveries.push(site_time("recover", c)?);
                }
                let mut outages = Vec::new();
                for o in f.get("outage").into_iter().flatten() {
                    let parts: Vec<&str> = o.split(':').collect();
                    let [from, to, start, end] = parts.as_slice() else {
                        return err(format!("--outage wants from:to:startT:endT, got '{o}'"));
                    };
                    let num = |x: &str| -> Result<u64, ParseError> {
                        x.parse()
                            .map_err(|_| ParseError(format!("bad number in outage '{o}'")))
                    };
                    outages.push((num(from)? as u32, num(to)? as u32, num(start)?, num(end)?));
                }
                let mut partitions = Vec::new();
                for p in f.get("partition").into_iter().flatten() {
                    let Some((groups, t)) = p.rsplit_once(':') else {
                        return err(format!("--partition wants g0,g1,..:timeT, got '{p}'"));
                    };
                    let groups: Result<Vec<u32>, _> = groups.split(',').map(str::parse).collect();
                    let Ok(groups) = groups else {
                        return err(format!("bad group ids in partition '{p}'"));
                    };
                    let t = t
                        .parse()
                        .map_err(|_| ParseError(format!("bad time in partition '{p}'")))?;
                    partitions.push((groups, t));
                }
                let mut heals = Vec::new();
                for h in f.get("heal").into_iter().flatten() {
                    heals.push(h.parse().map_err(|_| {
                        ParseError(format!("--heal wants a time in T units, got '{h}'"))
                    })?);
                }
                let link_time = |flag: &str, c: &str| -> Result<(u32, u32, u64), ParseError> {
                    let parts: Vec<&str> = c.split(':').collect();
                    let [from, to, t] = parts.as_slice() else {
                        return err(format!("--{flag} wants from:to:timeT, got '{c}'"));
                    };
                    let num = |x: &str| -> Result<u64, ParseError> {
                        x.parse()
                            .map_err(|_| ParseError(format!("bad number in --{flag} '{c}'")))
                    };
                    Ok((num(from)? as u32, num(to)? as u32, num(t)?))
                };
                let mut cuts = Vec::new();
                for c in f.get("cut").into_iter().flatten() {
                    cuts.push(link_time("cut", c)?);
                }
                let mut link_restores = Vec::new();
                for c in f.get("restore").into_iter().flatten() {
                    link_restores.push(link_time("restore", c)?);
                }
                let mut flaps = Vec::new();
                for c in f.get("flap").into_iter().flatten() {
                    let parts: Vec<&str> = c.split(':').collect();
                    let [from, to, start, period, count] = parts.as_slice() else {
                        return err(format!(
                            "--flap wants from:to:startT:periodT:count, got '{c}'"
                        ));
                    };
                    let num = |x: &str| -> Result<u64, ParseError> {
                        x.parse()
                            .map_err(|_| ParseError(format!("bad number in --flap '{c}'")))
                    };
                    flaps.push((
                        num(from)? as u32,
                        num(to)? as u32,
                        num(start)?,
                        num(period)?,
                        num(count)? as u32,
                    ));
                }
                let burst = match one(&f, "burst", "") {
                    "" => None,
                    s => {
                        let ps: Result<Vec<f64>, _> = s.split(':').map(str::parse::<f64>).collect();
                        match ps.ok().as_deref() {
                            Some(&[pb, pg, dg, db]) => Some((pb, pg, dg, db)),
                            _ => {
                                return err(format!(
                                    "--burst wants p_bad:p_good:drop_good:drop_bad, got '{s}'"
                                ))
                            }
                        }
                    }
                };
                let reliable = match one(&f, "reliable", "auto") {
                    "auto" => None,
                    "on" | "true" => Some(true),
                    "off" | "false" => Some(false),
                    other => return err(format!("--reliable wants on|off|auto, got '{other}'")),
                };
                let opt_t = |key: &str| -> Result<Option<u64>, ParseError> {
                    match one(&f, key, "") {
                        "" => Ok(None),
                        s => s.parse().map(Some).map_err(|_| {
                            ParseError(format!("--{key} wants a time in T units, got '{s}'"))
                        }),
                    }
                };
                let hb_interval_t = opt_t("hb-interval")?;
                let hb_timeout_t = opt_t("hb-timeout")?;
                let scheduler = match one(&f, "scheduler", "") {
                    "" => SchedulerKind::default(),
                    s => SchedulerKind::parse(s).ok_or_else(|| {
                        ParseError(format!("--scheduler wants heap|wheel, got '{s}'"))
                    })?,
                };
                let deadline_t = opt_t("deadline")?;
                if deadline_t == Some(0) {
                    return err("--deadline 0 would abort every request on arrival; \
                         give a positive deadline in T units (or omit the flag)");
                }
                let retry_backoff = match one(&f, "retry-backoff", "") {
                    "" => None,
                    s => {
                        let parts: Result<Vec<u64>, _> = s.split(':').map(str::parse).collect();
                        match parts.ok().as_deref() {
                            Some(&[base, cap, attempts]) if base > 0 && cap >= base => {
                                Some((base, cap, attempts as u32))
                            }
                            _ => {
                                return err(format!(
                                    "--retry-backoff wants baseT:capT:attempts with \
                                     0 < baseT <= capT, got '{s}'"
                                ))
                            }
                        }
                    }
                };
                if retry_backoff.is_some() && deadline_t.is_none() {
                    return err("--retry-backoff without --deadline is a no-op: \
                         nothing ever aborts, so nothing ever retries");
                }
                let resources = parse_u64(&f, "resources", 1)? as u32;
                if resources == 0 {
                    return err("--resources 0 leaves nothing to lock; \
                         give at least 1 (or omit the flag)");
                }
                let zipf = match one(&f, "zipf", "") {
                    "" => 0.0,
                    s => {
                        let z: f64 = s.parse().map_err(|_| {
                            ParseError(format!("--zipf wants a skew exponent >= 0, got '{s}'"))
                        })?;
                        if z < 0.0 {
                            return err(format!("--zipf must be >= 0, got {z}"));
                        }
                        z
                    }
                };
                if f.contains_key("zipf") && resources <= 1 {
                    return err("--zipf without --resources > 1 is a no-op: \
                         popularity skew needs more than one resource");
                }
                // A recovery of a site that is not down by then is the
                // crash-schedule version of the same typo.
                for &(site, at) in &recoveries {
                    if !crashes.iter().any(|&(s, ct)| s == site && ct <= at) {
                        return err(format!(
                            "--recover {site}:{at} revives a site that no --crash takes \
                             down by then; recovering a live site is a no-op"
                        ));
                    }
                }
                // A restore for a link no cut or flap ever severs is a
                // schedule typo, not a fault plan: reject it loudly.
                for &(from, to, at) in &link_restores {
                    let ever_cut = cuts
                        .iter()
                        .any(|&(f, t2, ct)| (f, t2) == (from, to) && ct <= at)
                        || flaps.iter().any(|&(f, t2, ..)| (f, t2) == (from, to));
                    if !ever_cut {
                        return err(format!(
                            "--restore {from}:{to}:{at} restores a link that no --cut or \
                             --flap severs by then; restoring an intact link is a no-op"
                        ));
                    }
                }
                Command::Run {
                    algorithm: parse_algorithm(one(&f, "alg", "delay-optimal"))?,
                    n: parse_u64(&f, "n", 9)? as usize,
                    quorum: parse_quorum(one(&f, "quorum", "grid"))?,
                    gap_t: parse_u64(&f, "gap", 10)?,
                    horizon_t: parse_u64(&f, "horizon", 1000)?,
                    delay: parse_delay(one(&f, "delay", "const:1000"))?,
                    hold: parse_u64(&f, "hold", 100)?,
                    seed: parse_u64(&f, "seed", 42)?,
                    crashes,
                    loss: parse_prob(&f, "loss")?,
                    dup: parse_prob(&f, "dup")?,
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
                }
            }
            "quorum" => {
                let f = flags(rest)?;
                Command::Quorum {
                    kind: parse_quorum(one(&f, "kind", "grid"))?,
                    n: parse_u64(&f, "n", 9)? as usize,
                }
            }
            "check" => {
                let f = flags(rest)?;
                let quorum = match one(&f, "quorum", "") {
                    "" => None,
                    s => Some(parse_quorum(s)?),
                };
                let trace_out = match one(&f, "trace-out", "") {
                    "" => None,
                    s => Some(s.to_string()),
                };
                Command::Check {
                    n: parse_u64(&f, "n", 2)? as u32,
                    rounds: parse_u64(&f, "rounds", 1)? as u32,
                    max_states: parse_u64(&f, "max-states", 5_000_000)? as usize,
                    quorum,
                    crashes: parse_u64(&f, "crashes", 0)? as u32,
                    recoveries: parse_u64(&f, "recoveries", 0)? as u32,
                    drops: parse_u64(&f, "drops", 0)? as u32,
                    suspicions: parse_u64(&f, "suspicions", 0)? as u32,
                    cuts: parse_u64(&f, "cuts", 0)? as u32,
                    restores: parse_u64(&f, "restores", 0)? as u32,
                    aborts: parse_u64(&f, "aborts", 0)? as u32,
                    jobs: parse_u64(&f, "jobs", 1)? as usize,
                    trace_out,
                }
            }
            "experiment" => {
                let Some((name, opts)) = rest.split_first() else {
                    return err("experiment needs a name (e.g. table1)");
                };
                let f = flags(opts)?;
                Command::Experiment {
                    name: name.clone(),
                    jobs: parse_u64(&f, "jobs", 0)? as usize,
                }
            }
            "serve" => {
                let f = flags(rest)?;
                let sites = parse_u64(&f, "sites", 1)? as u32;
                if sites == 0 {
                    return err("--sites must be at least 1");
                }
                let site = parse_u64(&f, "site", 0)? as u32;
                if site >= sites {
                    return err(format!("--site {site} is outside 0..{sites}"));
                }
                let listen = one(&f, "listen", "");
                if listen.is_empty() {
                    return err("serve needs --listen ADDR");
                }
                let mut peers: Vec<(u32, String)> = Vec::new();
                for p in f.get("peer").into_iter().flatten() {
                    let Some((s, addr)) = p.split_once('=') else {
                        return err(format!("--peer wants SITE=ADDR, got '{p}'"));
                    };
                    let s: u32 = s
                        .parse()
                        .map_err(|_| ParseError(format!("bad site in --peer '{p}'")))?;
                    if s >= sites {
                        return err(format!("--peer {p} names a site outside 0..{sites}"));
                    }
                    if s == site {
                        return err(format!("--peer {p} names this site itself"));
                    }
                    if peers.iter().any(|(e, _)| *e == s) {
                        return err(format!("duplicate --peer for site {s}"));
                    }
                    peers.push((s, addr.to_string()));
                }
                if peers.len() as u32 != sites - 1 {
                    return err(format!(
                        "serve needs a --peer for each of the {} other sites, got {}",
                        sites - 1,
                        peers.len()
                    ));
                }
                let on_off = |key: &str, default: bool| -> Result<bool, ParseError> {
                    match one(&f, key, "") {
                        "" => Ok(default),
                        "on" | "true" => Ok(true),
                        "off" | "false" => Ok(false),
                        other => err(format!("--{key} wants on|off, got '{other}'")),
                    }
                };
                let for_ms = match parse_u64(&f, "for-ms", 0)? {
                    0 => None,
                    ms => Some(ms),
                };
                Command::Serve {
                    site,
                    sites,
                    listen: listen.to_string(),
                    peers,
                    transport: parse_wire(one(&f, "transport", "tcp"))?,
                    forwarding: on_off("forwarding", true)?,
                    reconstruct: on_off("reconstruct", true)?,
                    incarnation: parse_u64(&f, "incarnation", 0)?,
                    for_ms,
                }
            }
            "bench-load" => {
                let f = flags(rest)?;
                let addrs: Vec<String> = f.get("addr").cloned().unwrap_or_default();
                if addrs.is_empty() {
                    return err("bench-load needs at least one --addr");
                }
                let clients = parse_u64(&f, "clients", 24)? as usize;
                if clients == 0 {
                    return err("--clients must be at least 1");
                }
                let resources = parse_u64(&f, "resources", 8)? as u32;
                if resources == 0 {
                    return err("--resources must be at least 1");
                }
                let wait_ms = match parse_u64(&f, "wait-ms", 2_000)? {
                    0 => None,
                    ms => Some(ms),
                };
                let zipf = match one(&f, "zipf", "") {
                    "" => 0.9,
                    s => {
                        let z: f64 = s.parse().map_err(|_| {
                            ParseError(format!("--zipf wants a skew exponent >= 0, got '{s}'"))
                        })?;
                        if z < 0.0 {
                            return err(format!("--zipf must be >= 0, got {z}"));
                        }
                        z
                    }
                };
                let out = match one(&f, "out", "") {
                    "" => None,
                    s => Some(s.to_string()),
                };
                Command::BenchLoad {
                    addrs,
                    transport: parse_wire(one(&f, "transport", "tcp"))?,
                    clients,
                    resources,
                    duration_ms: parse_u64(&f, "duration-ms", 10_000)?,
                    think_ms: parse_u64(&f, "think-ms", 20)?,
                    hold_ms: parse_u64(&f, "hold-ms", 2)?,
                    wait_ms,
                    zipf,
                    seed: parse_u64(&f, "seed", 1)?,
                    label: one(&f, "label", "").to_string(),
                    out,
                }
            }
            other => return err(format!("unknown command '{other}' (try help)")),
        };
        Ok(Cli { command })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, ParseError> {
        Cli::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse("").unwrap().command, Command::Help);
        assert_eq!(parse("help").unwrap().command, Command::Help);
    }

    #[test]
    fn run_defaults() {
        let cli = parse("run").unwrap();
        match cli.command {
            Command::Run {
                algorithm,
                n,
                quorum,
                gap_t,
                seed,
                ..
            } => {
                assert_eq!(algorithm, Algorithm::DelayOptimal);
                assert_eq!(n, 9);
                assert_eq!(quorum, QuorumSpec::Grid);
                assert_eq!(gap_t, 10);
                assert_eq!(seed, 42);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_full_flags() {
        let cli = parse(
            "run --alg maekawa --n 25 --quorum rst:5 --gap 0 --horizon 500 \
             --delay uniform:100:2000 --hold 250 --seed 7 --crash 3:100 --crash 4:200",
        )
        .unwrap();
        match cli.command {
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
                ..
            } => {
                assert_eq!(algorithm, Algorithm::Maekawa);
                assert_eq!(n, 25);
                assert_eq!(quorum, QuorumSpec::Rst(5));
                assert_eq!(gap_t, 0);
                assert_eq!(horizon_t, 500);
                assert_eq!(delay, DelayModel::Uniform { lo: 100, hi: 2000 });
                assert_eq!(hold, 250);
                assert_eq!(seed, 7);
                assert_eq!(crashes, vec![(3, 100), (4, 200)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_fault_injection_flags() {
        let cli =
            parse("run --loss 0.1 --dup 0.05 --outage 0:1:5:20 --heal 30 --reliable off").unwrap();
        match cli.command {
            Command::Run {
                loss,
                dup,
                burst,
                outages,
                partitions,
                heals,
                reliable,
                ..
            } => {
                assert_eq!(loss, 0.1);
                assert_eq!(dup, 0.05);
                assert_eq!(burst, None);
                assert_eq!(outages, vec![(0, 1, 5, 20)]);
                assert_eq!(heals, vec![30]);
                assert_eq!(reliable, Some(false));
                assert!(partitions.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse("run --burst 0.05:0.5:0.01:0.8").unwrap().command {
            Command::Run {
                burst, reliable, ..
            } => {
                assert_eq!(burst, Some((0.05, 0.5, 0.01, 0.8)));
                assert_eq!(reliable, None); // auto
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse("run --partition 0,0,1:25 --heal 40").unwrap().command {
            Command::Run {
                partitions, heals, ..
            } => {
                assert_eq!(partitions, vec![(vec![0, 0, 1], 25)]);
                assert_eq!(heals, vec![40]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn link_cut_flags() {
        let cli = parse(
            "run --cut 0:1:25 --cut 1:0:25 --restore 0:1:60 --restore 1:0:60 \
             --flap 2:3:10:20:4",
        )
        .unwrap();
        match cli.command {
            Command::Run {
                cuts,
                link_restores,
                flaps,
                ..
            } => {
                assert_eq!(cuts, vec![(0, 1, 25), (1, 0, 25)]);
                assert_eq!(link_restores, vec![(0, 1, 60), (1, 0, 60)]);
                assert_eq!(flaps, vec![(2, 3, 10, 20, 4)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Absent flags leave the link schedule empty.
        match parse("run").unwrap().command {
            Command::Run {
                cuts,
                link_restores,
                flaps,
                ..
            } => {
                assert!(cuts.is_empty());
                assert!(link_restores.is_empty());
                assert!(flaps.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --cut 0:1").unwrap_err().0.contains("from:to"));
        assert!(parse("run --restore x:1:5")
            .unwrap_err()
            .0
            .contains("number"));
        assert!(parse("run --flap 0:1:5:10")
            .unwrap_err()
            .0
            .contains("count"));
    }

    #[test]
    fn detector_flags() {
        let cli =
            parse("run --crash 1:4 --recover 1:40 --hb-interval 2 --hb-timeout 10 --reliable on")
                .unwrap();
        match cli.command {
            Command::Run {
                crashes,
                recoveries,
                hb_interval_t,
                hb_timeout_t,
                ..
            } => {
                assert_eq!(crashes, vec![(1, 4)]);
                assert_eq!(recoveries, vec![(1, 40)]);
                assert_eq!(hb_interval_t, Some(2));
                assert_eq!(hb_timeout_t, Some(10));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Absent flags leave the detector off.
        match parse("run").unwrap().command {
            Command::Run {
                recoveries,
                hb_interval_t,
                hb_timeout_t,
                ..
            } => {
                assert!(recoveries.is_empty());
                assert_eq!(hb_interval_t, None);
                assert_eq!(hb_timeout_t, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --recover 1")
            .unwrap_err()
            .0
            .contains("site:timeT"));
        assert!(parse("run --hb-interval x")
            .unwrap_err()
            .0
            .contains("T units"));
    }

    #[test]
    fn scheduler_flag() {
        match parse("run --scheduler heap").unwrap().command {
            Command::Run { scheduler, .. } => assert_eq!(scheduler, SchedulerKind::Heap),
            other => panic!("unexpected {other:?}"),
        }
        match parse("run --scheduler wheel").unwrap().command {
            Command::Run { scheduler, .. } => assert_eq!(scheduler, SchedulerKind::Wheel),
            other => panic!("unexpected {other:?}"),
        }
        // Absent: the process-wide default (env var or wheel). Both
        // values are legal, so just check parsing succeeds.
        assert!(matches!(parse("run").unwrap().command, Command::Run { .. }));
        assert!(parse("run --scheduler fifo")
            .unwrap_err()
            .0
            .contains("heap|wheel"));
        assert!(parse("run --scheduler calendar").is_err());
    }

    #[test]
    fn deadline_and_retry_flags() {
        match parse("run --deadline 30").unwrap().command {
            Command::Run {
                deadline_t,
                retry_backoff,
                ..
            } => {
                assert_eq!(deadline_t, Some(30));
                assert_eq!(retry_backoff, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse("run --deadline 30 --retry-backoff 2:32:8")
            .unwrap()
            .command
        {
            Command::Run { retry_backoff, .. } => {
                assert_eq!(retry_backoff, Some((2, 32, 8)));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Absent flags leave aborting off entirely.
        match parse("run").unwrap().command {
            Command::Run {
                deadline_t,
                retry_backoff,
                ..
            } => {
                assert_eq!(deadline_t, None);
                assert_eq!(retry_backoff, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --deadline x").unwrap_err().0.contains("T units"));
        assert!(parse("run --retry-backoff 2:32")
            .unwrap_err()
            .0
            .contains("baseT:capT:attempts"));
        assert!(parse("run --deadline 30 --retry-backoff 32:2:8")
            .unwrap_err()
            .0
            .contains("baseT <= capT"));
    }

    #[test]
    fn lockspace_flags() {
        match parse("run --resources 64 --zipf 0.8").unwrap().command {
            Command::Run {
                resources, zipf, ..
            } => {
                assert_eq!(resources, 64);
                assert!((zipf - 0.8).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Absent flags mean the classic single-lock run.
        match parse("run").unwrap().command {
            Command::Run {
                resources, zipf, ..
            } => {
                assert_eq!(resources, 1);
                assert_eq!(zipf, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Multi-resource without skew is legal (uniform popularity).
        match parse("run --resources 16").unwrap().command {
            Command::Run {
                resources, zipf, ..
            } => {
                assert_eq!(resources, 16);
                assert_eq!(zipf, 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("run --resources 0")
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse("run --zipf 0.8").unwrap_err().0.contains("no-op"));
        assert!(parse("run --resources 8 --zipf -1")
            .unwrap_err()
            .0
            .contains(">= 0"));
        assert!(parse("run --resources 8 --zipf x")
            .unwrap_err()
            .0
            .contains("skew exponent"));
    }

    /// No-op and contradictory schedules are rejected up front instead of
    /// silently running a scenario that cannot mean what was asked.
    #[test]
    fn noop_schedules_are_rejected() {
        assert!(parse("run --deadline 0")
            .unwrap_err()
            .0
            .contains("positive deadline"));
        assert!(parse("run --retry-backoff 2:32:8")
            .unwrap_err()
            .0
            .contains("no-op"));
        // A restore for a link nothing ever cuts.
        assert!(parse("run --restore 0:1:60")
            .unwrap_err()
            .0
            .contains("intact link"));
        // A restore scheduled before its only cut lands.
        assert!(parse("run --cut 0:1:70 --restore 0:1:60").is_err());
        // Matching cut first, or a flap on the link, makes it legal.
        assert!(parse("run --cut 0:1:25 --restore 0:1:60").is_ok());
        assert!(parse("run --flap 0:1:10:20:4 --restore 0:1:60").is_ok());
        // A recovery of a site that never crashes, or one scheduled
        // before its crash lands, is the same typo in the crash plan.
        assert!(parse("run --recover 2:40")
            .unwrap_err()
            .0
            .contains("live site"));
        assert!(parse("run --crash 2:50 --recover 2:40").is_err());
        assert!(parse("run --crash 2:40 --recover 2:50").is_ok());
    }

    #[test]
    fn fault_flag_errors_are_descriptive() {
        assert!(parse("run --loss 1.5").unwrap_err().0.contains("[0,1]"));
        assert!(parse("run --loss x").unwrap_err().0.contains("probability"));
        assert!(parse("run --burst 0.1:0.2")
            .unwrap_err()
            .0
            .contains("p_bad"));
        assert!(parse("run --outage 0:1:5")
            .unwrap_err()
            .0
            .contains("from:to"));
        assert!(parse("run --heal soon").unwrap_err().0.contains("T units"));
        assert!(parse("run --partition 0,0,1")
            .unwrap_err()
            .0
            .contains("timeT"));
        assert!(parse("run --partition a,b:5")
            .unwrap_err()
            .0
            .contains("group ids"));
        assert!(parse("run --reliable maybe")
            .unwrap_err()
            .0
            .contains("on|off|auto"));
    }

    #[test]
    fn quorum_and_check_commands() {
        assert_eq!(
            parse("quorum --kind tree --n 15").unwrap().command,
            Command::Quorum {
                kind: QuorumSpec::Tree,
                n: 15
            }
        );
        assert_eq!(
            parse("check --n 3 --rounds 2 --max-states 1000")
                .unwrap()
                .command,
            Command::Check {
                n: 3,
                rounds: 2,
                max_states: 1000,
                quorum: None,
                crashes: 0,
                recoveries: 0,
                drops: 0,
                suspicions: 0,
                cuts: 0,
                restores: 0,
                aborts: 0,
                jobs: 1,
                trace_out: None,
            }
        );
    }

    #[test]
    fn check_fault_budget_flags() {
        assert_eq!(
            parse(
                "check --n 3 --quorum majority --crashes 1 --recoveries 1 \
                 --drops 2 --suspicions 1 --cuts 2 --restores 2 --aborts 1 \
                 --jobs 4 --trace-out cex.trace"
            )
            .unwrap()
            .command,
            Command::Check {
                n: 3,
                rounds: 1,
                max_states: 5_000_000,
                quorum: Some(QuorumSpec::Majority),
                crashes: 1,
                recoveries: 1,
                drops: 2,
                suspicions: 1,
                cuts: 2,
                restores: 2,
                aborts: 1,
                jobs: 4,
                trace_out: Some("cex.trace".into()),
            }
        );
        assert!(parse("check --quorum nope")
            .unwrap_err()
            .0
            .contains("quorum"));
        assert!(parse("check --crashes x").unwrap_err().0.contains("number"));
    }

    #[test]
    fn experiment_command() {
        assert_eq!(
            parse("experiment table1").unwrap().command,
            Command::Experiment {
                name: "table1".into(),
                jobs: 0
            }
        );
        assert_eq!(
            parse("experiment holdsweep --jobs 4").unwrap().command,
            Command::Experiment {
                name: "holdsweep".into(),
                jobs: 4
            }
        );
        assert!(parse("experiment").is_err());
        assert!(parse("experiment table1 --jobs x").is_err());
    }

    #[test]
    fn serve_command_flags() {
        let cli = parse(
            "serve --site 1 --sites 3 --listen 127.0.0.1:7001 \
             --peer 0=127.0.0.1:7000 --peer 2=127.0.0.1:7002 \
             --forwarding off --for-ms 500",
        )
        .unwrap();
        match cli.command {
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
                assert_eq!((site, sites), (1, 3));
                assert_eq!(listen, "127.0.0.1:7001");
                assert_eq!(
                    peers,
                    vec![
                        (0, "127.0.0.1:7000".to_string()),
                        (2, "127.0.0.1:7002".to_string())
                    ]
                );
                assert_eq!(transport, WireTransport::Tcp);
                assert!(!forwarding);
                assert!(reconstruct);
                assert_eq!(incarnation, 0);
                assert_eq!(for_ms, Some(500));
            }
            other => panic!("unexpected {other:?}"),
        }
        // UDS flavour and an unbounded run.
        match parse("serve --sites 1 --listen /tmp/qmx.sock --transport uds")
            .unwrap()
            .command
        {
            Command::Serve {
                transport, for_ms, ..
            } => {
                assert_eq!(transport, WireTransport::Uds);
                assert_eq!(for_ms, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_command_rejects_bad_topologies() {
        assert!(parse("serve --sites 3 --listen a")
            .unwrap_err()
            .0
            .contains("--peer for each"));
        assert!(
            parse("serve --site 3 --sites 3 --listen a --peer 0=x --peer 1=y")
                .unwrap_err()
                .0
                .contains("outside")
        );
        assert!(parse("serve --sites 2 --listen a --peer 0=x")
            .unwrap_err()
            .0
            .contains("itself"));
        assert!(
            parse("serve --site 0 --sites 3 --listen a --peer 1=x --peer 1=y")
                .unwrap_err()
                .0
                .contains("duplicate")
        );
        assert!(parse("serve --sites 1").unwrap_err().0.contains("--listen"));
        assert!(parse("serve --sites 1 --listen a --transport quic")
            .unwrap_err()
            .0
            .contains("tcp|uds"));
        assert!(parse("serve --sites 1 --listen a --forwarding maybe")
            .unwrap_err()
            .0
            .contains("on|off"));
    }

    #[test]
    fn bench_load_command_flags() {
        let cli = parse(
            "bench-load --addr h:1 --addr h:2 --clients 8 --resources 4 \
             --duration-ms 2000 --think-ms 10 --hold-ms 1 --wait-ms 0 \
             --zipf 0 --seed 7 --label nine-site --out rep.txt",
        )
        .unwrap();
        match cli.command {
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
                assert_eq!(addrs, vec!["h:1".to_string(), "h:2".to_string()]);
                assert_eq!(transport, WireTransport::Tcp);
                assert_eq!((clients, resources), (8, 4));
                assert_eq!((duration_ms, think_ms, hold_ms), (2000, 10, 1));
                assert_eq!(wait_ms, None); // 0 = wait forever
                assert_eq!(zipf, 0.0);
                assert_eq!(seed, 7);
                assert_eq!(label, "nine-site");
                assert_eq!(out, Some("rep.txt".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults.
        match parse("bench-load --addr h:1").unwrap().command {
            Command::BenchLoad {
                clients,
                resources,
                duration_ms,
                wait_ms,
                out,
                ..
            } => {
                assert_eq!((clients, resources), (24, 8));
                assert_eq!(duration_ms, 10_000);
                assert_eq!(wait_ms, Some(2_000));
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse("bench-load").unwrap_err().0.contains("--addr"));
        assert!(parse("bench-load --addr a --clients 0")
            .unwrap_err()
            .0
            .contains("at least 1"));
        assert!(parse("bench-load --addr a --zipf -1")
            .unwrap_err()
            .0
            .contains(">= 0"));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("bogus").unwrap_err().0.contains("unknown command"));
        assert!(parse("run --alg nope").unwrap_err().0.contains("algorithm"));
        assert!(parse("run --quorum nope").unwrap_err().0.contains("quorum"));
        assert!(parse("run --delay nope").unwrap_err().0.contains("delay"));
        assert!(parse("run --n").unwrap_err().0.contains("needs a value"));
        assert!(parse("run n 9").unwrap_err().0.contains("--flag"));
        assert!(parse("run --crash x").unwrap_err().0.contains("site:timeT"));
    }

    #[test]
    fn delay_models() {
        assert_eq!(parse_delay("const:500").unwrap(), DelayModel::Constant(500));
        assert_eq!(
            parse_delay("exp:700").unwrap(),
            DelayModel::Exponential { mean: 700 }
        );
        assert!(parse_delay("uniform:9").is_err());
    }
}
