//! The poll-driven client state machine.
//!
//! [`ClientCore`] owns one connection to one site and translates between
//! the framed wire protocol and a queue of [`ClientEvent`]s. It never
//! blocks and never looks at a clock: callers decide when to
//! [`poll`](ClientCore::poll) and how long to wait between polls, which
//! is what lets the deterministic harness multiplex dozens of clients
//! under a virtual clock while `qmxctl` runs the same type over TCP.

use std::collections::VecDeque;
use std::io;

use qmx_core::wire::Wire;
use qmx_core::{ResourceId, SiteId};
use qmx_runtime::frame::{encode_frame, FrameBuf};
use qmx_runtime::proto::{ClientMsg, Hello, RejectReason, ServerMsg};
use qmx_runtime::transport::{Conn, Transport};

/// Something the server told this client, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// Handshake completed; the session is attached to `site`.
    Welcome {
        /// The serving site.
        site: SiteId,
    },
    /// Acquire `req` was granted the lock on `rid`.
    Granted {
        /// Resource granted.
        rid: ResourceId,
        /// Request token.
        req: u64,
    },
    /// Release of `req` completed.
    Released {
        /// Resource released.
        rid: ResourceId,
        /// Request token.
        req: u64,
    },
    /// Pending acquire `req` was withdrawn (deadline, abort, teardown).
    Aborted {
        /// Resource of the withdrawn acquire.
        rid: ResourceId,
        /// Request token.
        req: u64,
    },
    /// The server refused the request at the session level.
    Rejected {
        /// Resource named by the offending request.
        rid: ResourceId,
        /// Request token.
        req: u64,
        /// Why.
        reason: RejectReason,
    },
    /// The connection died; no further events will arrive.
    Disconnected,
}

/// One client session over any [`Conn`]. See the module docs.
pub struct ClientCore<C: Conn> {
    conn: C,
    fb: FrameBuf,
    id: u64,
    next_req: u64,
    events: VecDeque<ClientEvent>,
    dead: bool,
    reported_dead: bool,
    site: Option<SiteId>,
    scratch: Vec<u8>,
}

impl<C: Conn> ClientCore<C> {
    /// Wraps an established connection and queues the handshake frame.
    pub fn new(mut conn: C, id: u64) -> Self {
        let mut scratch = Vec::new();
        encode_frame(&mut scratch, &Hello::Client { id });
        let dead = conn.send_bytes(&scratch).is_err();
        ClientCore {
            conn,
            fb: FrameBuf::new(),
            id,
            next_req: 1,
            events: VecDeque::new(),
            dead,
            reported_dead: false,
            site: None,
            scratch,
        }
    }

    /// Dials `addr` on `transport` and performs the handshake send.
    pub fn connect<T: Transport<Conn = C>>(
        transport: &mut T,
        addr: &str,
        id: u64,
    ) -> io::Result<Self> {
        Ok(Self::new(transport.connect(addr)?, id))
    }

    /// The id this client identified itself with.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The serving site, once the `Welcome` has arrived.
    pub fn site(&self) -> Option<SiteId> {
        self.site
    }

    /// True once the connection has died.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Sends an acquire for `rid`, returning its request token.
    /// `wait_us`, if set, bounds how long the site may queue the request
    /// (measured from receipt) before answering with an abort.
    pub fn acquire(&mut self, rid: ResourceId, wait_us: Option<u64>) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.send(ClientMsg::Acquire { rid, req, wait_us });
        req
    }

    /// Sends a release of the held lock `req` on `rid`.
    pub fn release(&mut self, rid: ResourceId, req: u64) {
        self.send(ClientMsg::Release { rid, req });
    }

    /// Sends an abort of the pending acquire `req` on `rid`.
    pub fn abort(&mut self, rid: ResourceId, req: u64) {
        self.send(ClientMsg::Abort { rid, req });
    }

    fn send(&mut self, msg: ClientMsg) {
        if self.dead {
            return;
        }
        self.scratch.clear();
        encode_frame(&mut self.scratch, &msg);
        if self.conn.send_bytes(&self.scratch).is_err() {
            self.dead = true;
        }
    }

    /// Pumps the connection: reads whatever arrived, decodes complete
    /// frames into events, flushes pending writes. Call repeatedly.
    pub fn poll(&mut self) {
        if self.dead {
            self.mark_disconnected();
            return;
        }
        if self.conn.recv_bytes(self.fb.buf_mut()).is_err() {
            self.dead = true;
        }
        loop {
            match self.fb.next_frame_ref() {
                Ok(Some(frame)) => match ServerMsg::from_bytes(frame) {
                    Ok(msg) => self.events.push_back(translate(msg)),
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if !self.dead && self.conn.flush().is_err() {
            self.dead = true;
        }
        if self.dead {
            self.mark_disconnected();
        }
    }

    fn mark_disconnected(&mut self) {
        if !self.reported_dead {
            self.reported_dead = true;
            self.events.push_back(ClientEvent::Disconnected);
        }
    }

    /// Next pending event, if any. `Welcome` updates [`site`](Self::site)
    /// as a side effect.
    pub fn next_event(&mut self) -> Option<ClientEvent> {
        let ev = self.events.pop_front();
        if let Some(ClientEvent::Welcome { site }) = ev {
            self.site = Some(site);
        }
        ev
    }

    /// Drains all pending events.
    pub fn drain_events(&mut self) -> Vec<ClientEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        while let Some(ev) = self.next_event() {
            out.push(ev);
        }
        out
    }
}

fn translate(msg: ServerMsg) -> ClientEvent {
    match msg {
        ServerMsg::Welcome { site } => ClientEvent::Welcome { site },
        ServerMsg::Granted { rid, req } => ClientEvent::Granted { rid, req },
        ServerMsg::Released { rid, req } => ClientEvent::Released { rid, req },
        ServerMsg::Aborted { rid, req } => ClientEvent::Aborted { rid, req },
        ServerMsg::Rejected { rid, req, reason } => ClientEvent::Rejected { rid, req, reason },
    }
}
