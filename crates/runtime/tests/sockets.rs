//! The socket transports over real sockets: TCP on `127.0.0.1` and
//! Unix-domain sockets in a fresh temporary directory. Every check runs
//! once per transport, as `tcp::<check>` and `uds::<check>`. Threads are
//! synchronised with channels, never with sleeps; the time limits only
//! bound how long a step may take.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use qmx_runtime::tcp::{TcpTransport, UdsTransport};
use qmx_runtime::transport::{Conn, Listener, Transport};

/// How soon a wakeup must follow its cause.
const PROMPT: Duration = Duration::from_secs(1);

/// A socket transport under test, with plain blocking sockets for peers
/// that must do what a transport connection never does, such as not
/// reading.
trait Kind: Transport + Default + 'static {
    type Raw: Read + Write + Send + 'static;

    fn raw_connect(addr: &str) -> Self::Raw;

    /// True when nothing is bound at `addr` any more.
    fn released(addr: &str) -> bool;
}

impl Kind for TcpTransport {
    type Raw = TcpStream;

    fn raw_connect(addr: &str) -> TcpStream {
        TcpStream::connect(addr).expect("dial")
    }

    fn released(addr: &str) -> bool {
        TcpListener::bind(addr).is_ok()
    }
}

impl Kind for UdsTransport {
    type Raw = UnixStream;

    fn raw_connect(addr: &str) -> UnixStream {
        UnixStream::connect(addr).expect("dial")
    }

    fn released(addr: &str) -> bool {
        !Path::new(addr).exists()
    }
}

/// A fresh directory for socket files, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qmx-sockets-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create a temp dir");
        TempDir(dir)
    }

    fn socket(&self) -> String {
        let path = self.0.join("site.sock");
        path.to_str().expect("UTF-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the checks of this file one at a time: each counts the process's
/// I/O threads.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live transport I/O threads of this process (`qmx-read`, `qmx-write`,
/// `qmx-accept`).
fn io_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.starts_with("qmx-"))
        })
        .count()
}

/// Waits until exactly `n` I/O threads are alive. A new thread names
/// itself just after it starts, and a joined one leaves procfs just after
/// `join` returns, so the count can lag for a moment.
fn expect_io_threads(n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while io_threads() != n {
        assert!(
            Instant::now() < deadline,
            "{} I/O threads alive, expected {n}",
            io_threads()
        );
        thread::yield_now();
    }
}

/// `t.wait` with a deadline ten seconds out; returns how long it blocked.
fn wait_10s<T: Transport>(t: &mut T) -> Duration {
    let begun = Instant::now();
    let now = t.now_us();
    t.wait(Some(now + 10_000_000));
    begun.elapsed()
}

/// The next inbound connection on `listener`, waiting on `t` for it.
fn accept<T: Transport>(t: &mut T, listener: &mut T::Listener) -> T::Conn {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(conn) = listener.poll_accept().expect("listener broke") {
            return conn;
        }
        assert!(Instant::now() < deadline, "no inbound connection");
        wait_10s(t);
    }
}

/// Receives on `conn` until it fails; returns the bytes and the error.
fn recv_until_closed<T: Transport>(t: &mut T, conn: &mut T::Conn) -> (Vec<u8>, io::Error) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut got = Vec::new();
    loop {
        match conn.recv_bytes(&mut got) {
            Ok(0) => {
                assert!(Instant::now() < deadline, "the stream never ended");
                wait_10s(t);
            }
            Ok(_) => {}
            Err(e) => return (got, e),
        }
    }
}

fn wait_wakes_on_inbound_connect<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let mut listener = t.listen(addr).expect("listen");
    let target = listener.local_addr();
    let (go, start) = mpsc::channel();
    let dialer = thread::spawn(move || {
        start.recv().expect("test gone");
        T::raw_connect(&target)
    });
    go.send(()).expect("dialer gone");
    assert!(
        wait_10s(&mut t) < PROMPT,
        "wait slept through an inbound connect"
    );
    assert!(listener.poll_accept().expect("listener broke").is_some());
    drop(dialer.join().expect("dialer panicked"));
    drop(listener);
    expect_io_threads(0);
}

fn wait_wakes_on_bytes<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let mut listener = t.listen(addr).expect("listen");
    let target = listener.local_addr();
    let (go, start) = mpsc::channel();
    let (read, done) = mpsc::channel::<()>();
    let peer = thread::spawn(move || {
        let mut raw = T::raw_connect(&target);
        start.recv().expect("test gone");
        raw.write_all(b"ping").expect("write");
        // Keep the connection open until the test has read.
        let _ = done.recv();
    });
    let mut conn = accept(&mut t, &mut listener);
    t.wait(Some(0)); // lowers the flag the accept raised
    go.send(()).expect("peer gone");
    assert!(
        wait_10s(&mut t) < PROMPT,
        "wait slept through arriving bytes"
    );
    let mut got = Vec::new();
    while got.len() < 4 {
        if conn.recv_bytes(&mut got).expect("recv") == 0 {
            assert!(
                wait_10s(&mut t) < PROMPT,
                "the rest of the bytes never came"
            );
        }
    }
    assert_eq!(got, b"ping");
    read.send(()).expect("peer gone");
    peer.join().expect("peer panicked");
    drop(conn);
    drop(listener);
    expect_io_threads(0);
}

fn wait_keeps_its_deadline<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let listener = t.listen(addr).expect("listen");
    let start = t.now_us();
    t.wait(Some(start + 50_000));
    assert!(
        t.now_us() >= start + 50_000,
        "wait returned before its deadline with nothing ready"
    );
    // Without a deadline it still returns, after one short slice.
    let begun = Instant::now();
    t.wait(None);
    assert!(begun.elapsed() < PROMPT);
    drop(listener);
    expect_io_threads(0);
}

fn send_never_blocks_on_a_stalled_peer<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let mut listener = t.listen(addr).expect("listen");
    let stalled = T::raw_connect(&listener.local_addr()); // never reads
    let mut conn = accept(&mut t, &mut listener);
    let chunk = vec![0x5au8; 64 << 10];
    // 64 MiB in all, far more than the socket buffers hold.
    for _ in 0..1024 {
        conn.send_bytes(&chunk)
            .expect("send_bytes to a stalled peer");
        conn.flush().expect("flush toward a stalled peer");
    }
    // The drop gives up on the stalled peer after a bounded linger.
    let begun = Instant::now();
    drop(conn);
    assert!(
        begun.elapsed() < Duration::from_secs(5),
        "the drop hung on a stalled peer"
    );
    drop(stalled);
    drop(listener);
    expect_io_threads(0);
}

fn close_delivers_every_byte_first<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let mut listener = t.listen(addr).expect("listen");
    // More than the socket buffers hold, so a drain needs the peer's reads.
    let data: Vec<u8> = (0..(8u32 << 20)).map(|i| (i % 251) as u8).collect();

    // Outbound: a drop delivers every byte sent, then a clean end of stream.
    let target = listener.local_addr();
    let peer = thread::spawn(move || {
        let mut got = Vec::new();
        T::raw_connect(&target).read_to_end(&mut got).map(|_| got)
    });
    let mut conn = accept(&mut t, &mut listener);
    for part in data.chunks(100_000) {
        conn.send_bytes(part).expect("send_bytes");
    }
    drop(conn);
    let got = peer
        .join()
        .expect("peer panicked")
        .expect("a clean end of stream");
    assert!(
        got == data,
        "the peer got {} of {} bytes",
        got.len(),
        data.len()
    );

    // Inbound: recv_bytes yields every byte the peer wrote before closing,
    // then UnexpectedEof.
    let (target, copy) = (listener.local_addr(), data.clone());
    let peer = thread::spawn(move || T::raw_connect(&target).write_all(&copy));
    let mut conn = accept(&mut t, &mut listener);
    let (got, end) = recv_until_closed(&mut t, &mut conn);
    peer.join().expect("peer panicked").expect("write");
    assert_eq!(end.kind(), io::ErrorKind::UnexpectedEof);
    assert!(got == data, "got {} of {} bytes", got.len(), data.len());
    drop(conn);
    drop(listener);
    expect_io_threads(0);
}

fn drop_releases_everything<T: Kind>(addr: &str) {
    let _serial = serial();
    let mut t = T::default();
    let mut listener = t.listen(addr).expect("listen");
    let bound = listener.local_addr();
    let dialed = t.connect(&bound).expect("connect");
    let accepted = accept(&mut t, &mut listener);
    // The accept thread, and a reader and a writer per connection end.
    expect_io_threads(5);
    let begun = Instant::now();
    drop(dialed);
    drop(accepted);
    drop(listener);
    assert!(
        begun.elapsed() < Duration::from_millis(500),
        "dropping idle connections lingered"
    );
    expect_io_threads(0);
    assert!(T::released(&bound), "{bound} is still bound");
}

macro_rules! on_both_transports {
    ($($check:ident),* $(,)?) => {
        mod tcp {
            $(
                #[test]
                fn $check() {
                    super::$check::<super::TcpTransport>("127.0.0.1:0");
                }
            )*
        }

        mod uds {
            $(
                #[test]
                fn $check() {
                    let dir = super::TempDir::new();
                    super::$check::<super::UdsTransport>(&dir.socket());
                }
            )*
        }
    };
}

on_both_transports!(
    wait_wakes_on_inbound_connect,
    wait_wakes_on_bytes,
    wait_keeps_its_deadline,
    send_never_blocks_on_a_stalled_peer,
    close_delivers_every_byte_first,
    drop_releases_everything,
);
