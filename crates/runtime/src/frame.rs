//! Length-prefixed framing over a byte stream.
//!
//! Every message on a connection — peer protocol traffic and client
//! traffic alike — is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. The decoder is incremental
//! (frames may arrive split across arbitrarily many reads, or several per
//! read) and hostile-input safe: a claimed length above [`MAX_FRAME`] is
//! rejected *before* any allocation, so a garbage 4-byte prefix cannot
//! make the site task balloon memory or panic.

use std::fmt;

use qmx_core::wire::Wire;

/// Hard cap on a single frame's payload, in bytes. Generous for the
/// protocol (whose largest messages are heartbeat site-lists) while small
/// enough that a hostile length prefix cannot cause a large allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Framing violation — the connection carrying it must be dropped, since
/// byte-stream sync is lost once a frame boundary is untrustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix claimed more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The claimed payload length.
        len: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one `[u32 LE length][payload]` frame to `out`.
///
/// # Panics
/// If `payload` exceeds [`MAX_FRAME`] — outgoing frames are built by this
/// codebase, so an oversized one is a programming error, not a peer fault.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME,
        "outgoing frame exceeds MAX_FRAME"
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends one frame carrying `msg` to `out`, encoding straight into `out`
/// after a length prefix that is filled in last. The bytes are exactly
/// those of `write_frame(out, &msg.to_bytes())`, without the intermediate
/// buffer, so a sender that reuses `out` allocates nothing per frame.
///
/// # Panics
/// If the encoding exceeds [`MAX_FRAME`], as [`write_frame`] does.
pub fn encode_frame<M: Wire>(out: &mut Vec<u8>, msg: &M) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    msg.encode(out);
    let len = out.len() - start - 4;
    assert!(len <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Incremental frame reassembly buffer for one connection.
///
/// Feed raw bytes into [`FrameBuf::buf_mut`] (the shape `Conn::recv_bytes`
/// expects), then drain complete frames with [`FrameBuf::next_frame`].
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw receive buffer; `Conn::recv_bytes` appends into this.
    pub fn buf_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame's payload, if one is fully
    /// buffered. `Ok(None)` means more bytes are needed. An error means
    /// the stream is corrupt and the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes: [u8; 4] = self.buf[self.start..self.start + 4].try_into().unwrap();
        let len = u32::from_le_bytes(len_bytes);
        if len as usize > MAX_FRAME {
            return Err(FrameError::Oversized { len });
        }
        let len = len as usize;
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_and_batched() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello");
        write_frame(&mut wire, b"");
        write_frame(&mut wire, b"world!");
        let mut fb = FrameBuf::new();
        fb.buf_mut().extend_from_slice(&wire);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"world!"[..]));
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn dribble_one_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"dribble");
        let mut fb = FrameBuf::new();
        for (i, b) in wire.iter().enumerate() {
            fb.buf_mut().push(*b);
            let got = fb.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "frame complete too early at byte {i}");
            } else {
                assert_eq!(got.as_deref(), Some(&b"dribble"[..]));
            }
        }
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut fb = FrameBuf::new();
        fb.buf_mut().extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(FrameError::Oversized { len: u32::MAX })
        );
        // The buffer did not try to reserve 4 GiB.
        assert!(fb.buf_mut().capacity() < 1024);
    }

    #[test]
    fn exactly_max_frame_is_accepted() {
        let payload = vec![0xabu8; MAX_FRAME];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload);
        let mut fb = FrameBuf::new();
        fb.buf_mut().extend_from_slice(&wire);
        assert_eq!(fb.next_frame().unwrap().unwrap().len(), MAX_FRAME);
    }
}
