//! Robustness of the framed wire against hostile or broken peers.
//!
//! A raw loopback connection speaks directly to a live [`Node`] (the
//! same object `qmxctl serve` runs) and sends malformed traffic:
//! truncated frames, oversized length prefixes, garbage payloads, and
//! valid frames carrying undecodable messages. The node must drop the
//! offending session — counting it in `bad_frames` — without panicking
//! and without wedging its healthy peers or clients.
//!
//! The structure-aware half builds one value of every message the wire
//! carries and checks the encoder against the reference framing and the
//! decoder against every truncation of it.

use std::fmt::Debug;
use std::sync::Arc;

use qmx_core::delay_optimal::Body;
use qmx_core::wire::Wire;
use qmx_core::{HbMsg, Msg, Packet, ResMsg, ResourceId, SeqNum, SiteId, Timestamp};
use qmx_runtime::frame::{encode_frame, write_frame, FrameBuf, MAX_FRAME};
use qmx_runtime::loopback::{LoopConn, LoopNet};
use qmx_runtime::node::{Node, NodeConfig};
use qmx_runtime::proto::{ClientMsg, Hello, RejectReason, ServerMsg};
use qmx_runtime::stack::{build_stack, ServeMsg, ServeStack, StackConfig};
use qmx_runtime::transport::{Conn, Transport};

/// One single-site cluster plus helpers to poke it with raw bytes.
struct Rig {
    net: LoopNet,
    node: Node<qmx_runtime::loopback::LoopTransport, ServeStack>,
}

impl Rig {
    fn new() -> Rig {
        let net = LoopNet::new(100);
        let cfg = StackConfig::all_sites(1);
        let proto = build_stack(SiteId(0), &cfg);
        let node = Node::new(
            net.transport(),
            proto,
            NodeConfig::new(SiteId(0), "srv".into(), Vec::new()),
        )
        .expect("bind");
        Rig { net, node }
    }

    fn dial(&self) -> LoopConn {
        self.net.transport().connect("srv").expect("dial")
    }

    /// Runs node + provided client conns for `rounds` delivery rounds.
    /// Ripe chunks addressed to raw client conns the test reads by hand
    /// keep `next_event` in the past; skip past them in fixed steps.
    fn spin(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.node.poll();
            let now = self.net.now();
            let next = self
                .net
                .next_event()
                .filter(|&t| t > now)
                .unwrap_or(now + 100);
            self.net.advance_to(next);
        }
        self.node.poll();
    }
}

fn hello_frame(id: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &Hello::Client { id }.to_bytes());
    out
}

/// Reads whatever `conn` has into decoded server messages.
fn read_msgs(conn: &mut LoopConn, fb: &mut FrameBuf) -> Vec<ServerMsg> {
    let _ = conn.recv_bytes(fb.buf_mut());
    let mut out = Vec::new();
    while let Ok(Some(frame)) = fb.next_frame() {
        out.push(ServerMsg::from_bytes(&frame).expect("server sends valid frames"));
    }
    out
}

#[test]
fn garbage_after_handshake_kills_only_that_session() {
    let mut rig = Rig::new();

    // A healthy client and an evil client connect.
    let mut good = rig.dial();
    good.send_bytes(&hello_frame(1)).unwrap();
    let mut evil = rig.dial();
    evil.send_bytes(&hello_frame(2)).unwrap();
    rig.spin(4);

    // Evil sends a well-framed but undecodable payload.
    let mut junk = Vec::new();
    write_frame(&mut junk, &[0xde, 0xad, 0xbe, 0xef, 0x99]);
    evil.send_bytes(&junk).unwrap();
    rig.spin(4);
    assert_eq!(rig.node.counters().bad_frames, 1);

    // The evil session is gone; the good one still works end-to-end.
    let mut fb = FrameBuf::new();
    let mut req = Vec::new();
    write_frame(
        &mut req,
        &ClientMsg::Acquire {
            rid: ResourceId(3),
            req: 1,
            wait_us: None,
        }
        .to_bytes(),
    );
    good.send_bytes(&req).unwrap();
    rig.spin(8);
    let msgs = read_msgs(&mut good, &mut fb);
    assert!(
        msgs.contains(&ServerMsg::Granted {
            rid: ResourceId(3),
            req: 1
        }),
        "healthy session wedged by neighbour's garbage: {msgs:?}"
    );
    assert_eq!(rig.node.counters().sessions_closed, 1);
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocation() {
    let mut rig = Rig::new();
    let mut evil = rig.dial();
    evil.send_bytes(&hello_frame(7)).unwrap();
    rig.spin(4);

    // Length prefix far beyond MAX_FRAME, no payload behind it.
    let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
    evil.send_bytes(&huge).unwrap();
    rig.spin(4);

    assert_eq!(rig.node.counters().bad_frames, 1);
    // The node reports the close back to the sender.
    let mut fb = FrameBuf::new();
    let dead = loop {
        match evil.recv_bytes(fb.buf_mut()) {
            Ok(0) => {
                rig.spin(2);
                continue;
            }
            Ok(_) => continue,
            Err(_) => break true,
        }
    };
    assert!(dead, "oversized frame did not close the session");
}

#[test]
fn truncated_frame_then_disconnect_releases_nothing_held() {
    let mut rig = Rig::new();

    // Hold a lock from a healthy session so teardown has work to skip.
    let mut good = rig.dial();
    good.send_bytes(&hello_frame(1)).unwrap();
    let mut req = Vec::new();
    write_frame(
        &mut req,
        &ClientMsg::Acquire {
            rid: ResourceId(1),
            req: 9,
            wait_us: None,
        }
        .to_bytes(),
    );
    good.send_bytes(&req).unwrap();
    rig.spin(8);

    // Evil sends half a frame (valid prefix, missing bytes) and hangs up.
    let mut evil = rig.dial();
    evil.send_bytes(&hello_frame(2)).unwrap();
    rig.spin(4);
    let mut framed = Vec::new();
    write_frame(&mut framed, &[1, 2, 3, 4, 5, 6, 7, 8]);
    evil.send_bytes(&framed[..framed.len() / 2]).unwrap();
    rig.spin(2);
    drop(evil);
    rig.spin(6);

    // The half-frame is not an error (it just never completes); the
    // disconnect tears the session down cleanly. The good session's lock
    // is untouched.
    assert_eq!(rig.node.counters().bad_frames, 0);
    assert_eq!(rig.node.held(), vec![(ResourceId(1), 9)]);
    assert_eq!(rig.node.counters().sessions_closed, 1);
}

#[test]
fn byte_dribble_and_batched_frames_both_decode() {
    let mut rig = Rig::new();
    let mut c = rig.dial();
    c.send_bytes(&hello_frame(1)).unwrap();
    rig.spin(4);

    // Two back-to-back requests in one write, then one dribbled out a
    // byte at a time: all three must be served.
    let mut batch = Vec::new();
    for (rid, req) in [(1u32, 1u64), (2, 2)] {
        write_frame(
            &mut batch,
            &ClientMsg::Acquire {
                rid: ResourceId(rid),
                req,
                wait_us: None,
            }
            .to_bytes(),
        );
    }
    c.send_bytes(&batch).unwrap();
    rig.spin(8);

    let mut dribble = Vec::new();
    write_frame(
        &mut dribble,
        &ClientMsg::Acquire {
            rid: ResourceId(3),
            req: 3,
            wait_us: None,
        }
        .to_bytes(),
    );
    for b in dribble {
        c.send_bytes(&[b]).unwrap();
        rig.spin(1);
    }
    rig.spin(8);

    let mut fb = FrameBuf::new();
    let msgs = read_msgs(&mut c, &mut fb);
    for (rid, req) in [(1u32, 1u64), (2, 2), (3, 3)] {
        assert!(
            msgs.contains(&ServerMsg::Granted {
                rid: ResourceId(rid),
                req
            }),
            "missing grant for rid {rid}: {msgs:?}"
        );
    }
    assert_eq!(rig.node.counters().bad_frames, 0);
}

#[test]
fn garbage_hello_is_rejected_before_classification() {
    let mut rig = Rig::new();
    let mut evil = rig.dial();
    // Valid framing, nonsense handshake tag.
    let mut out = Vec::new();
    write_frame(&mut out, &[42, 0, 0, 0, 0, 0, 0, 0, 0]);
    evil.send_bytes(&out).unwrap();
    rig.spin(4);
    assert_eq!(rig.node.counters().bad_frames, 1);
    assert_eq!(rig.node.counters().sessions_closed, 1);
    // The node survives and accepts a fresh, correct client.
    let mut good = rig.dial();
    good.send_bytes(&hello_frame(1)).unwrap();
    rig.spin(4);
    let mut fb = FrameBuf::new();
    let msgs = read_msgs(&mut good, &mut fb);
    assert!(matches!(msgs.as_slice(), [ServerMsg::Welcome { .. }]));
}

/// Random garbage sprayed at a node must never panic it. This is the
/// deterministic stand-in for a fuzzer: 64 seeds × 32 writes of random
/// length and content, interleaved with normal traffic.
#[test]
fn random_garbage_never_panics_the_node() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    for seed in 0..64u64 {
        let mut rig = Rig::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut evil = rig.dial();
        if rng.gen_bool(0.5) {
            // Half the runs handshake first so garbage lands on an
            // established session, half attack the classifier itself.
            evil.send_bytes(&hello_frame(99)).unwrap();
            rig.spin(2);
        }
        for _ in 0..32 {
            let len = rng.gen_range(1usize..64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
            if evil.send_bytes(&bytes).is_err() {
                break; // node already closed us — fine
            }
            rig.spin(1);
        }
        rig.spin(4);
        // Whatever happened, the node still serves a healthy client.
        let mut good = rig.dial();
        good.send_bytes(&hello_frame(1)).unwrap();
        rig.spin(4);
        let mut fb = FrameBuf::new();
        let msgs = read_msgs(&mut good, &mut fb);
        assert!(
            matches!(msgs.as_slice(), [ServerMsg::Welcome { .. }]),
            "seed {seed}: node wedged after garbage spray: {msgs:?}"
        );
    }
}

/// Arc'd sanity: the suite above runs single-site; make sure garbage on a
/// *peer-classified* link (Hello::Peer then junk) also just drops the link.
#[test]
fn garbage_on_peer_link_drops_link_not_node() {
    let net = LoopNet::new(100);
    let cfg = StackConfig::all_sites(2);
    let mut nodes: Vec<Node<_, ServeStack>> = (0..2u32)
        .map(|s| {
            let proto = build_stack(SiteId(s), &cfg);
            let peers = (0..2u32)
                .filter(|&p| p != s)
                .map(|p| (SiteId(p), format!("s{p}")))
                .collect();
            Node::new(
                net.transport(),
                proto,
                NodeConfig::new(SiteId(s), format!("s{s}"), peers),
            )
            .expect("bind")
        })
        .collect();
    let _ = Arc::new(());

    // Let the real peer links come up.
    for _ in 0..16 {
        for n in nodes.iter_mut() {
            n.poll();
        }
        let now = net.now();
        let next = net.next_event().filter(|&t| t > now).unwrap_or(now + 100);
        net.advance_to(next);
    }

    // An impostor claims to be a peer, then sprays junk.
    let mut impostor = net.transport().connect("s0").expect("dial");
    let mut out = Vec::new();
    write_frame(
        &mut out,
        &Hello::Peer {
            site: SiteId(1),
            incarnation: 0,
        }
        .to_bytes(),
    );
    impostor.send_bytes(&out).unwrap();
    let mut junk = Vec::new();
    write_frame(&mut junk, &[0xff; 16]);
    impostor.send_bytes(&junk).unwrap();

    for _ in 0..16 {
        for n in nodes.iter_mut() {
            n.poll();
        }
        let now = net.now();
        let next = net.next_event().filter(|&t| t > now).unwrap_or(now + 100);
        net.advance_to(next);
    }

    assert!(nodes[0].counters().bad_frames >= 1);
    // Both real nodes are still alive and polling without panic.
    for n in nodes.iter_mut() {
        n.poll();
    }
}

/// One message of every `Msg` body kind, each with every optional field
/// both set and unset.
fn every_body() -> Vec<Body> {
    let ts = |seq, site| Timestamp::new(seq, SiteId(site));
    vec![
        Body::Request { ts: ts(3, 1) },
        Body::Reply {
            arbiter: SiteId(2),
            req: ts(4, 0),
            transfer: None,
        },
        Body::Reply {
            arbiter: SiteId(2),
            req: ts(4, 0),
            transfer: Some(ts(9, 5)),
        },
        Body::Release {
            holder_req: ts(7, 2),
            forwarded_to: None,
        },
        Body::Release {
            holder_req: ts(7, 2),
            forwarded_to: Some(ts(8, 3)),
        },
        Body::Inquire {
            arbiter: SiteId(0),
            holder_req: ts(1, 1),
            transfer: None,
        },
        Body::Inquire {
            arbiter: SiteId(0),
            holder_req: ts(1, 1),
            transfer: Some(ts(2, 2)),
        },
        Body::Fail {
            arbiter: SiteId(3),
            req: ts(11, 4),
        },
        Body::Yield { req: ts(12, 0) },
        Body::Transfer {
            arbiter: SiteId(1),
            beneficiary: ts(13, 6),
            holder_req: ts(10, 7),
        },
        Body::Relinquish { req: ts(14, 8) },
        Body::Abandon { req: ts(15, 0) },
        Body::Claim { holds: None },
        Body::Claim {
            holds: Some(ts(16, 2)),
        },
    ]
}

/// Every peer message shape: beats (empty and full vouch lists),
/// rejoins, standalone acks, and app data carrying each body kind.
fn every_serve_msg() -> Vec<ServeMsg> {
    let mut out: Vec<ServeMsg> = vec![
        HbMsg::Beat {
            alive: Vec::new().into(),
            suspects_you: false,
        },
        HbMsg::Beat {
            alive: vec![SiteId(0), SiteId(2), SiteId(5)].into(),
            suspects_you: true,
        },
        HbMsg::Rejoin { incarnation: 3 },
        HbMsg::App(Packet::Ack { epoch: 2, ack: 17 }),
    ];
    for (i, body) in every_body().into_iter().enumerate() {
        out.push(HbMsg::App(Packet::Data {
            epoch: (7 << 32) + 1,
            seq: 42 + i as u64,
            ack_epoch: 3,
            ack: 41,
            payload: Arc::new(ResMsg {
                rid: ResourceId(9 + i as u32),
                body: Msg {
                    clk: SeqNum(100),
                    body,
                },
            }),
        }));
    }
    out
}

fn every_hello() -> Vec<Hello> {
    vec![
        Hello::Peer {
            site: SiteId(4),
            incarnation: 2,
        },
        Hello::Client { id: u64::MAX },
    ]
}

fn every_client_msg() -> Vec<ClientMsg> {
    let rid = ResourceId(77);
    vec![
        ClientMsg::Acquire {
            rid,
            req: 1,
            wait_us: None,
        },
        ClientMsg::Acquire {
            rid,
            req: 2,
            wait_us: Some(300_000),
        },
        ClientMsg::Release { rid, req: 3 },
        ClientMsg::Abort { rid, req: 4 },
    ]
}

fn every_server_msg() -> Vec<ServerMsg> {
    let rid = ResourceId(77);
    let mut out = vec![
        ServerMsg::Welcome { site: SiteId(8) },
        ServerMsg::Granted { rid, req: 1 },
        ServerMsg::Released { rid, req: 2 },
        ServerMsg::Aborted { rid, req: 3 },
    ];
    for reason in [
        RejectReason::NotHeld,
        RejectReason::Busy,
        RejectReason::AlreadyGranted,
    ] {
        out.push(ServerMsg::Rejected {
            rid,
            req: 4,
            reason,
        });
    }
    out
}

/// Frames `msgs` through `encode_frame`, one after another into a buffer
/// that already holds bytes, and checks every frame against the reference
/// `write_frame(&msg.to_bytes())`.
fn check_encoding<M: Wire + Debug>(msgs: &[M]) {
    const PREFIX: &[u8] = b"earlier bytes";
    let mut wire = PREFIX.to_vec();
    let mut reference = PREFIX.to_vec();
    for msg in msgs {
        let mut frame = Vec::new();
        write_frame(&mut frame, &msg.to_bytes());
        let mut alone = Vec::new();
        encode_frame(&mut alone, msg);
        assert_eq!(alone, frame, "{msg:?}");
        encode_frame(&mut wire, msg);
        reference.extend_from_slice(&frame);
    }
    assert_eq!(wire, reference, "frames appended after existing bytes");
}

/// Every strict prefix of each message's frame is incomplete to the
/// framer, and every strict prefix of its payload fails to decode. The
/// whole frame decodes back to the message.
fn check_truncations<M: Wire + Debug>(msgs: &[M]) {
    for msg in msgs {
        let mut frame = Vec::new();
        encode_frame(&mut frame, msg);
        for cut in 0..frame.len() {
            let mut fb = FrameBuf::new();
            fb.buf_mut().extend_from_slice(&frame[..cut]);
            assert_eq!(fb.next_frame(), Ok(None), "{msg:?} cut at {cut}");
            assert_eq!(fb.pending(), cut);
        }
        let payload = &frame[4..];
        for cut in 0..payload.len() {
            assert!(
                M::from_bytes(&payload[..cut]).is_err(),
                "{msg:?}: payload cut at {cut} decoded"
            );
        }
        let mut fb = FrameBuf::new();
        fb.buf_mut().extend_from_slice(&frame);
        let whole = fb.next_frame().unwrap().expect("complete frame");
        let back = M::from_bytes(&whole).expect("round trip");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        assert_eq!(fb.pending(), 0);
    }
}

#[test]
fn encode_frame_writes_the_reference_bytes() {
    check_encoding(&every_hello());
    check_encoding(&every_client_msg());
    check_encoding(&every_server_msg());
    check_encoding(&every_serve_msg());
}

#[test]
fn truncated_frames_wait_and_truncated_payloads_fail() {
    check_truncations(&every_hello());
    check_truncations(&every_client_msg());
    check_truncations(&every_server_msg());
    check_truncations(&every_serve_msg());
}
