//! Costs measured off the live path: the frame and wire replays of byte
//! streams captured in a traced run, and the stack ladder.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qmx_core::wire::Wire;
use qmx_core::{
    Config, DelayOptimal, Detector, DetectorConfig, Effects, LockSpace, Protocol, Reliable,
    ResourceId, SiteId, TransportConfig,
};
use qmx_runtime::frame::{write_frame, FrameBuf};
use qmx_runtime::proto::{ClientMsg, Hello, ServerMsg};
use qmx_runtime::stack::ServeMsg;

use crate::trace::StreamLog;

/// How long each timed loop runs at least.
const MIN_TIME: Duration = Duration::from_millis(60);

/// Repeats `f` (which reports how many items it processed) until
/// [`MIN_TIME`] has passed; returns nanoseconds per item.
fn ns_per_item(mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut items = 0u64;
    while start.elapsed() < MIN_TIME || items == 0 {
        items += f();
    }
    start.elapsed().as_nanos() as f64 / items as f64
}

/// Frame and wire costs from replaying captured streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    /// `write_frame` plus `FrameBuf` extraction, ns per frame.
    pub frame_ns: f64,
    /// Decode, ns per message.
    pub decode_ns: f64,
    /// Encode, ns per message.
    pub encode_ns: f64,
    /// Mean payload size, bytes.
    pub bytes_per_msg: f64,
}

/// Splits a captured stream into frame payloads.
fn frames_of(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut fb = FrameBuf::new();
    fb.buf_mut().extend_from_slice(bytes);
    let mut out = Vec::new();
    while let Ok(Some(f)) = fb.next_frame() {
        out.push(f);
    }
    out
}

/// Decode and encode time of `payloads` as `M`, ns per message.
fn codec_ns<M: Wire>(payloads: &[Vec<u8>]) -> (f64, f64) {
    if payloads.is_empty() {
        return (0.0, 0.0);
    }
    let decode = ns_per_item(|| {
        for p in payloads {
            black_box(M::from_bytes(black_box(p)).is_ok());
        }
        payloads.len() as u64
    });
    let msgs: Vec<M> = payloads
        .iter()
        .filter_map(|p| M::from_bytes(p).ok())
        .collect();
    let mut buf = Vec::new();
    let encode = ns_per_item(|| {
        for m in &msgs {
            buf.clear();
            black_box(m).encode(&mut buf);
            black_box(&buf);
        }
        msgs.len() as u64
    });
    (decode, encode)
}

/// Replays the sent bytes of every traced stream through the framing
/// layer (in the chunk sizes they were sent in) and the wire codec.
pub fn replay(streams: &[Arc<Mutex<StreamLog>>]) -> Replay {
    let mut frame_chunks: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let (mut peer, mut to_site, mut to_client) = (Vec::new(), Vec::new(), Vec::new());
    for s in streams {
        let log = s.lock().expect("stream log poisoned");
        let Some(hello) = log.hello.as_deref().and_then(|h| Hello::from_bytes(h).ok()) else {
            continue;
        };
        let mut frames = frames_of(&log.capture);
        if log.dialer && !frames.is_empty() {
            frames.remove(0); // the Hello itself
        }
        match (hello, log.dialer) {
            (Hello::Peer { .. }, true) => peer.extend(frames.iter().cloned()),
            (Hello::Client { .. }, true) => to_site.extend(frames.iter().cloned()),
            (Hello::Client { .. }, false) => to_client.extend(frames.iter().cloned()),
            (Hello::Peer { .. }, false) => {}
        }
        payloads.extend(frames);
        frame_chunks.push((log.capture.clone(), log.chunks.clone()));
    }
    let total_frames: u64 = frame_chunks
        .iter()
        .map(|(bytes, _)| frames_of(bytes).len() as u64)
        .sum();
    if total_frames == 0 {
        return Replay::default();
    }
    let mut wire = Vec::new();
    let write_ns = ns_per_item(|| {
        wire.clear();
        for p in &payloads {
            write_frame(&mut wire, black_box(p));
        }
        payloads.len() as u64
    });
    let read_ns = ns_per_item(|| {
        let mut n = 0;
        for (bytes, chunks) in &frame_chunks {
            let mut fb = FrameBuf::new();
            let mut off = 0;
            for &c in chunks {
                fb.buf_mut().extend_from_slice(&bytes[off..off + c]);
                off += c;
                while let Ok(Some(f)) = fb.next_frame() {
                    black_box(f);
                    n += 1;
                }
            }
        }
        n
    });
    let (mut decode, mut encode, mut msgs) = (0.0, 0.0, 0u64);
    for (d, e, n) in [
        {
            let (d, e) = codec_ns::<ServeMsg>(&peer);
            (d, e, peer.len())
        },
        {
            let (d, e) = codec_ns::<ClientMsg>(&to_site);
            (d, e, to_site.len())
        },
        {
            let (d, e) = codec_ns::<ServerMsg>(&to_client);
            (d, e, to_client.len())
        },
    ] {
        decode += d * n as f64;
        encode += e * n as f64;
        msgs += n as u64;
    }
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    Replay {
        frame_ns: write_ns + read_ns,
        decode_ns: decode / msgs.max(1) as f64,
        encode_ns: encode / msgs.max(1) as f64,
        bytes_per_msg: bytes as f64 / payloads.len().max(1) as f64,
    }
}

/// The stack ladder: ns per protocol step of the same uncontended round
/// through ever more layers, then per message of the wire and frame round
/// trips of that round's messages.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ladder {
    /// `DelayOptimal` alone.
    pub delay_optimal: f64,
    /// `LockSpace<DelayOptimal>`.
    pub lockspace: f64,
    /// `Reliable<LockSpace<…>>`.
    pub reliable: f64,
    /// `Detector<Reliable<LockSpace<…>>>`.
    pub detector: f64,
    /// `Wire` encode + decode of one of the round's messages.
    pub wire_per_msg: f64,
    /// `write_frame` + `FrameBuf` extraction of one encoded message.
    pub frame_per_msg: f64,
}

/// Sites of the ladder: 9, on ring-majority quorums, as in loopback-zipf.
const LADDER_SITES: u32 = 9;

fn ring_quorum(site: u32) -> Vec<SiteId> {
    (0..LADDER_SITES / 2 + 1)
        .map(|d| SiteId((site + d) % LADDER_SITES))
        .collect()
}

fn ladder_peers(site: u32) -> Vec<SiteId> {
    (0..LADDER_SITES)
        .filter(|&p| p != site)
        .map(SiteId)
        .collect()
}

/// One uncontended round at `requester`: request, deliver until quiet,
/// release, deliver until quiet. Returns the steps taken (calls into the
/// top layer) and hands every message sent to `seen`.
fn round<P: Protocol>(
    sites: &mut [P],
    requester: usize,
    rid: ResourceId,
    mut seen: impl FnMut(&P::Msg),
) -> u64 {
    let mut inflight: VecDeque<(SiteId, SiteId, P::Msg)> = VecDeque::new();
    let mut fx = Effects::new();
    let mut steps = 0;
    for release in [false, true] {
        let me = SiteId(requester as u32);
        if release {
            sites[requester].release_cs_r(rid, &mut fx);
        } else {
            sites[requester].request_cs_r(rid, &mut fx);
        }
        steps += 1;
        for (to, m) in fx.take_sends() {
            inflight.push_back((me, to, m));
        }
        while let Some((from, to, msg)) = inflight.pop_front() {
            seen(&msg);
            sites[to.index()].handle(from, msg, &mut fx);
            steps += 1;
            for (next, m) in fx.take_sends() {
                inflight.push_back((to, next, m));
            }
        }
        if !release {
            assert!(sites[requester].in_cs_r(rid), "ladder round did not enter");
        }
    }
    steps
}

/// Rounds per requester rotation.
fn rotation<P: Protocol>(sites: &mut [P], rid: ResourceId) -> u64 {
    (0..sites.len()).map(|r| round(sites, r, rid, |_| {})).sum()
}

fn time_rung<P: Protocol>(mut sites: Vec<P>, rid: ResourceId) -> (f64, u64) {
    let steps = rotation(&mut sites, rid);
    let ns = ns_per_item(|| {
        rotation(&mut sites, rid);
        1
    });
    (ns, steps)
}

fn lockspace_site(site: u32) -> LockSpace<DelayOptimal> {
    let quorum = ring_quorum(site);
    LockSpace::new(
        SiteId(site),
        Arc::new(move |_| DelayOptimal::new(SiteId(site), quorum.clone(), Config::default())),
    )
}

fn detector_site(site: u32) -> Detector<Reliable<LockSpace<DelayOptimal>>> {
    Detector::new(
        Reliable::new(lockspace_site(site), TransportConfig::default()),
        ladder_peers(site),
        DetectorConfig::default(),
    )
}

/// Runs the ladder.
pub fn ladder() -> Ladder {
    let rid = ResourceId(1);
    let sites = 0..LADDER_SITES;
    let (bare_ns, base_steps) = time_rung(
        sites
            .clone()
            .map(|s| DelayOptimal::new(SiteId(s), ring_quorum(s), Config::default()))
            .collect(),
        ResourceId::SOLO,
    );
    let per_step = |ns: f64| ns / base_steps as f64;
    let (space_ns, _) = time_rung(sites.clone().map(lockspace_site).collect(), rid);
    let (rel_ns, _) = time_rung(
        sites
            .clone()
            .map(|s| Reliable::new(lockspace_site(s), TransportConfig::default()))
            .collect(),
        rid,
    );
    let mut top: Vec<_> = sites.map(detector_site).collect();
    let mut msgs: Vec<ServeMsg> = Vec::new();
    for r in 0..top.len() {
        round(&mut top, r, rid, |m| msgs.push(m.clone()));
    }
    let (det_ns, _) = time_rung(top, rid);

    let mut buf = Vec::new();
    let wire_ns = ns_per_item(|| {
        for m in &msgs {
            buf.clear();
            m.encode(&mut buf);
            black_box(ServeMsg::from_bytes(black_box(&buf)).is_ok());
        }
        msgs.len() as u64
    });
    let payloads: Vec<Vec<u8>> = msgs.iter().map(Wire::to_bytes).collect();
    let mut stream = Vec::new();
    let frame_ns = ns_per_item(|| {
        stream.clear();
        for p in &payloads {
            write_frame(&mut stream, black_box(p));
        }
        let mut fb = FrameBuf::new();
        fb.buf_mut().extend_from_slice(&stream);
        while let Ok(Some(f)) = fb.next_frame() {
            black_box(f);
        }
        payloads.len() as u64
    });
    Ladder {
        delay_optimal: per_step(bare_ns),
        lockspace: per_step(space_ns),
        reliable: per_step(rel_ns),
        detector: per_step(det_ns),
        wire_per_msg: wire_ns,
        frame_per_msg: frame_ns,
    }
}
