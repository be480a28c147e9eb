//! The production transport behind `sna serve --listen`: a std-only
//! connection-multiplexing reactor.
//!
//! One thread owns every socket. Nonblocking listener + connections are
//! driven by `poll(2)` through the thin FFI shim in [`sys`] (the build
//! environment has no `libc` crate, let alone mio/tokio — the shim
//! declares the five POSIX calls the reactor needs and nothing else).
//! Request *execution* never runs on the reactor thread: complete lines
//! are handed to a [`WorkerPool`] and the responses come back through a
//! completion queue plus a self-pipe wakeup (one per batch: a worker
//! writes the pipe only when its push finds the queue empty), so a slow
//! `optimize` only occupies a worker while the reactor keeps accepting,
//! reading and flushing everyone else.
//!
//! What the reactor owns and enforces:
//!
//! * **Bounded accept** — past [`ServerConfig::max_conns`] concurrent
//!   connections a new peer gets one line of JSON
//!   (`{"ok":false,"error":"server at capacity"}`) and an immediate
//!   close, instead of a silently spawned thread (the PR 2 wart) or a
//!   hang. Counted as `rejected`.
//! * **Slow-client backpressure** — each connection has a write queue;
//!   when it exceeds [`ServerConfig::write_buf_cap`] unflushed bytes (or
//!   [`ServerConfig::max_pipeline`] requests are in flight) the reactor
//!   stops *reading* that peer until it drains, so a client that never
//!   reads its responses cannot grow server memory: at most one line
//!   buffer, one capped write queue, and a bounded pipeline per
//!   connection. Counted as `backpressured` (once per pause).
//! * **Idle timeouts** — a connection with no in-flight work and no
//!   activity for [`ServerConfig::idle_timeout`] is evicted
//!   (`timed_out`).
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] (or SIGTERM via
//!   [`ServerHandle::install_termination_handler`]) starts a drain: no
//!   new connections, in-flight requests finish and flush, late request
//!   lines are answered with `{"ok":false,"error":"server draining"}`,
//!   and the loop exits once every connection is quiescent or
//!   [`ServerConfig::drain_timeout`] expires. Worker threads are joined
//!   before [`ServerHandle::join`] returns — shutdown is deterministic,
//!   nothing stays detached.
//!
//! Every lifecycle transition lands in the shared [`StatsRegistry`], so
//! the `stats` verb can report the transport's behaviour next to the
//! per-verb latency histograms.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::CompileCache;
use crate::fault::{FaultPlan, IoFault, JobFault};
use crate::pool::WorkerPool;
use crate::proto::{self, error_line, oversize_error_line, ExecLimits, Handler, Peer};
use crate::stats::{Counter, StatsRegistry};

/// Thin `libc`-free FFI shim over the POSIX calls the reactor needs:
/// `poll`, `pipe`, `fcntl` (to make the pipe nonblocking), raw-fd
/// `read`/`write` (the self-pipe), `close`, and `signal`. This module is
/// the only place in this crate allowed to use `unsafe` — every
/// wrapper is a safe function over one syscall, with the constants
/// written for Linux (the deployment target; the BSD/macOS values that
/// differ are cfg-gated).
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;

    /// `struct pollfd` from `poll(2)`.
    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    /// `sighandler_t`.
    pub type SigHandler = extern "C" fn(c_int);
    pub const SIGTERM: c_int = 15;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: c_int = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: c_int = 0x0004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn signal(signum: c_int, handler: SigHandler) -> isize;
    }

    /// `poll(2)`: blocks up to `timeout_ms` (−1 = forever) for events.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: fds is a valid, exclusively borrowed slice of
        // repr(C) pollfd; the kernel writes only `revents`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }

    /// A nonblocking pipe: `(read_fd, write_fd)`.
    pub fn make_pipe() -> io::Result<(i32, i32)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: fds is a valid 2-element array for pipe(2) to fill.
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for &fd in &fds {
            if let Err(e) = set_nonblocking(fd) {
                close_fd(fds[0]);
                close_fd(fds[1]);
                return Err(e);
            }
        }
        Ok((fds[0], fds[1]))
    }

    fn set_nonblocking(fd: c_int) -> io::Result<()> {
        // SAFETY: plain fcntl on an owned fd.
        let flags = unsafe { fcntl(fd, F_GETFL, 0) };
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: as above.
        if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Best-effort single-byte write (the self-pipe wakeup; a full pipe
    /// already guarantees the reactor will wake, so EAGAIN is fine).
    /// Async-signal-safe: one `write(2)`, no allocation.
    pub fn write_byte(fd: i32) {
        let byte = [1u8];
        // SAFETY: one byte from a live stack buffer to an open fd.
        unsafe { write(fd, byte.as_ptr().cast(), 1) };
    }

    /// Drains every pending byte from a nonblocking fd.
    pub fn drain_fd(fd: i32) {
        let mut buf = [0u8; 256];
        loop {
            // SAFETY: buf is a valid exclusively-owned buffer.
            let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n <= 0 {
                break;
            }
        }
    }

    /// `close(2)`, errors ignored (only used on fds this module made).
    pub fn close_fd(fd: i32) {
        // SAFETY: closing an fd owned by the caller.
        unsafe { close(fd) };
    }

    /// Installs a signal handler (`signal(2)`).
    pub fn install_signal(signum: c_int, handler: SigHandler) -> io::Result<()> {
        // SAFETY: handler is a valid extern "C" fn for the lifetime of
        // the process (a plain fn item).
        if unsafe { signal(signum, handler) } == -1 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

/// Knobs of the event-loop transport (the `sna serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrent connections; peers past the cap get a JSON
    /// `server at capacity` error and an immediate close.
    pub max_conns: usize,
    /// A connection with no in-flight request and no read/write
    /// activity for this long is evicted.
    pub idle_timeout: Duration,
    /// On shutdown, how long in-flight requests and unflushed responses
    /// get to finish before connections are closed forcibly.
    pub drain_timeout: Duration,
    /// Per-connection unflushed-response cap in bytes; past it the
    /// peer's reads are paused (slow-client backpressure).
    pub write_buf_cap: usize,
    /// Per-connection cap on requests in flight at once (pipelining
    /// depth); past it reads pause until responses complete.
    pub max_pipeline: usize,
    /// Worker threads executing requests (0 = available parallelism).
    pub workers: usize,
    /// Server-wide per-request execution cap (`--request-timeout`);
    /// requests may ask for *less* via `timeout_ms` but never more.
    /// `None` means unbounded unless a request bounds itself.
    pub request_timeout: Option<Duration>,
    /// Deterministic fault injection (`--fault-plan`); `None` in normal
    /// operation. See [`FaultPlan`].
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_conns: 256,
            idle_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(5),
            write_buf_cap: 1 << 20,
            max_pipeline: 64,
            workers: 0,
            request_timeout: None,
            fault_plan: None,
        }
    }
}

/// The self-pipe: how workers, [`ServerHandle::shutdown`] and the
/// SIGTERM handler interrupt a blocking `poll`.
#[derive(Debug)]
struct Wake {
    read_fd: i32,
    write_fd: i32,
}

impl Wake {
    fn notify(&self) {
        sys::write_byte(self.write_fd);
    }
    fn drain(&self) {
        sys::drain_fd(self.read_fd);
    }
}

impl Drop for Wake {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// Signal-handler plumbing: `signal(2)` handlers cannot capture state,
/// so the wake-pipe fd and the shutdown flag live in process globals.
/// One server per process installs them (the CLI); in-process tests use
/// [`ServerHandle::shutdown`], which goes through the handle's own flag.
static SIGNAL_WAKE_FD: AtomicI32 = AtomicI32::new(-1);
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_termination_signal(_sig: std::ffi::c_int) {
    // Async-signal-safe: two atomic stores and one write(2).
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
    let fd = SIGNAL_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        sys::write_byte(fd);
    }
}

/// A running event-loop server. Dropping the handle shuts the server
/// down and joins it — nothing detaches.
#[derive(Debug)]
pub struct ServerHandle {
    wake: Arc<Wake>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
    local_addr: SocketAddr,
}

impl ServerHandle {
    /// The bound address (useful with `:0` listeners).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Begins a graceful drain: in-flight requests finish and flush,
    /// late requests are refused, then the reactor exits. Idempotent;
    /// returns immediately (use [`join`](Self::join) to wait).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify();
    }

    /// Waits for the reactor (and its workers) to exit.
    ///
    /// # Errors
    ///
    /// The reactor's I/O error, if it died on one, or a synthesized
    /// error if the server thread panicked.
    pub fn join(mut self) -> io::Result<()> {
        self.join_inner()
    }

    /// [`shutdown`](Self::shutdown) then [`join`](Self::join).
    ///
    /// # Errors
    ///
    /// Same as [`join`](Self::join).
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown();
        self.join()
    }

    /// Routes SIGTERM to this server's graceful drain (the production
    /// `kill -TERM` path). Process-global: the last installed server
    /// wins; in-process tests should prefer [`shutdown`](Self::shutdown).
    ///
    /// # Errors
    ///
    /// `signal(2)` failure.
    pub fn install_termination_handler(&self) -> io::Result<()> {
        SIGNAL_WAKE_FD.store(self.wake.write_fd, Ordering::SeqCst);
        sys::install_signal(sys::SIGTERM, on_termination_signal)
    }

    fn join_inner(&mut self) -> io::Result<()> {
        match self.thread.take() {
            None => Ok(()),
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server reactor thread panicked"))),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
            let _ = self.join_inner();
        }
    }
}

/// Spawns the reactor on its own thread and returns the handle that
/// owns its lifecycle. The listener is switched to nonblocking mode;
/// `cache` and `stats` are shared with every worker.
///
/// # Errors
///
/// Listener setup or self-pipe creation failures.
pub fn spawn_server(
    listener: TcpListener,
    cache: Arc<CompileCache>,
    stats: Arc<StatsRegistry>,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let (read_fd, write_fd) = sys::make_pipe()?;
    let wake = Arc::new(Wake { read_fd, write_fd });
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let wake = Arc::clone(&wake);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("sna-serve-reactor".to_string())
            .spawn(move || run_reactor(&listener, &cache, &stats, &config, &wake, &shutdown))?
    };
    Ok(ServerHandle {
        wake,
        shutdown,
        thread: Some(thread),
        local_addr,
    })
}

/// One request handed to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    line: String,
}

/// A finished response coming back from a worker:
/// `(connection token, request seq, response line)`.
type Completion = (u64, u64, Vec<u8>);

/// Where workers queue completions for the reactor.
type CompletionQueue = Arc<Mutex<Vec<Completion>>>;

/// Guarantees exactly one completion per submitted job, panic or not.
///
/// The reactor decrements `conn.inflight` once per completion; a job
/// whose handler panicked without one would leak that slot forever — the
/// connection could never drain and the peer would hang waiting for a
/// response that was silently dropped. The guard is armed *before* any
/// fallible work; the happy path disarms it via
/// [`complete`](CompletionGuard::complete), and the unwind path (`Drop`
/// during a panic, after `catch_unwind` in the pool re-enters it)
/// renders the `internal error` line from the borrowed request line,
/// delivers it and counts the crash. Only a panic pays for that line.
struct CompletionGuard<'a> {
    completions: &'a Mutex<Vec<Completion>>,
    wake: &'a Wake,
    stats: &'a StatsRegistry,
    token: u64,
    seq: u64,
    line: &'a str,
    armed: bool,
}

impl CompletionGuard<'_> {
    /// Delivers the real response and disarms the fallback.
    fn complete(mut self, bytes: Vec<u8>) {
        self.armed = false;
        self.deliver(bytes);
    }

    /// Queues one completion and wakes the reactor only when the push
    /// found the queue empty. The reactor drains the self-pipe before it
    /// empties the whole queue under this lock, so whoever pushed onto a
    /// non-empty queue is covered by the wakeup of the push that made it
    /// non-empty, and no wakeup is lost.
    fn deliver(&self, bytes: Vec<u8>) {
        // Fallible locking: `Drop` runs this while unwinding, and a panic
        // there would abort the process. A poisoned queue means the
        // reactor side is already gone; dropping the response is fine.
        let Ok(mut queue) = self.completions.lock() else {
            return;
        };
        let was_empty = queue.is_empty();
        queue.push((self.token, self.seq, bytes));
        drop(queue);
        if was_empty {
            self.wake.notify();
        }
    }
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return; // completed normally
        }
        self.stats.bump(Counter::Panics);
        self.stats.bump(Counter::Errors);
        let fallback = error_line(
            Some(self.line),
            "internal error: request execution panicked",
        );
        self.deliver(fallback.into_bytes());
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed as complete lines.
    read_buf: Vec<u8>,
    /// Length of the front of `read_buf` already searched for a newline
    /// without finding one (a partial line is scanned once, not once per
    /// read).
    scanned: usize,
    /// Serialized responses queued for the socket; `written` bytes of
    /// the front are already sent.
    write_buf: Vec<u8>,
    written: usize,
    /// Completed responses waiting for their turn (responses go out in
    /// request order even when workers finish out of order): slot `i`
    /// holds the response to request `next_flush + i`. The last slot is
    /// always filled, so the ring is empty exactly when nothing waits.
    pending_out: VecDeque<Option<Vec<u8>>>,
    /// Next sequence number to assign / to flush.
    next_seq: u64,
    next_flush: u64,
    /// Requests submitted to workers, not yet completed.
    inflight: usize,
    /// Reads paused by backpressure (write queue or pipeline cap).
    paused: bool,
    /// Peer EOF seen, or the connection decided to close after flushing.
    read_closed: bool,
    /// Unrecoverable socket error: drop everything.
    dead: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            written: 0,
            pending_out: VecDeque::new(),
            next_seq: 0,
            next_flush: 0,
            inflight: 0,
            paused: false,
            read_closed: false,
            dead: false,
            last_activity: now,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.written
    }

    /// Nothing queued, nothing running: safe to close.
    fn quiescent(&self) -> bool {
        self.inflight == 0 && self.pending_out.is_empty() && self.unflushed() == 0
    }

    /// Queues a reactor-generated response (refusals) in sequence order.
    fn push_direct(&mut self, line: String) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stash(seq, line.into_bytes());
    }

    /// Files the response to request `seq` until every earlier one has
    /// gone out.
    fn stash(&mut self, seq: u64, bytes: Vec<u8>) {
        let slot = usize::try_from(seq - self.next_flush).expect("pipeline depth fits usize");
        if slot >= self.pending_out.len() {
            self.pending_out.resize_with(slot + 1, || None);
        }
        self.pending_out[slot] = Some(bytes);
    }
}

/// Reads until the socket would block, the peer EOFs, or a full line
/// buffer is pending (the consumer caps are what bound memory — unread
/// bytes stay in the kernel's receive buffer and TCP flow control does
/// the rest).
fn read_socket(conn: &mut Conn, now: Instant) {
    let mut chunk = [0u8; 16 * 1024];
    while (conn.read_buf.len() as u64) < proto::MAX_LINE_BYTES {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = now;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Consumes complete lines from the read buffer: submits them to the
/// workers (normal operation) or refuses them inline (draining). Stops
/// at the pipeline cap so a pipelining flood cannot queue unbounded
/// work. Each line is framed by [`proto::request_line`] and copied once
/// into its job; the consumed prefix leaves the buffer in one drain.
fn extract_lines(
    conn: &mut Conn,
    token: u64,
    pool: &WorkerPool<Job>,
    stats: &StatsRegistry,
    cfg: &ServerConfig,
    draining: bool,
) {
    // `read_buf[start..from]` holds no newline: `start` is the first
    // byte of the next line, `from` where the search resumes.
    let mut start = 0;
    let mut from = conn.scanned;
    while draining || conn.inflight < cfg.max_pipeline {
        let Some(offset) = conn.read_buf[from..].iter().position(|&b| b == b'\n') else {
            from = conn.read_buf.len();
            break;
        };
        let end = from + offset + 1;
        let line = proto::request_line(&conn.read_buf[start..end]).map(Cow::into_owned);
        start = end;
        from = end;
        let Some(line) = line else {
            continue;
        };
        if draining {
            stats.bump(Counter::Requests);
            stats.bump(Counter::Errors);
            conn.push_direct(error_line(Some(&line), "server draining"));
        } else {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.inflight += 1;
            pool.submit(Job { token, seq, line });
        }
    }
    conn.read_buf.drain(..start);
    conn.scanned = from - start;
    // A full line buffer with no newline anywhere is one over-long
    // request: answer once, flush, hang up (same behaviour as the
    // stdio transport).
    if conn.read_buf.len() as u64 >= proto::MAX_LINE_BYTES
        && !conn.read_buf[conn.scanned..].contains(&b'\n')
        && !conn.read_closed
    {
        stats.bump(Counter::Requests);
        stats.bump(Counter::Errors);
        conn.push_direct(oversize_error_line());
        conn.read_buf.clear();
        conn.scanned = 0;
        conn.read_closed = true;
    }
}

/// Moves in-order completed responses into the write queue and writes
/// as much as the socket accepts.
///
/// `fault` is the I/O fault hook: consulted once per flush that has
/// pending bytes, it can delay the flush, truncate it to a pathological
/// one-byte short write, or treat the connection as reset by the peer.
fn flush_conn(conn: &mut Conn, now: Instant, fault: Option<&FaultPlan>) {
    if conn.dead {
        return; // a dead (or injected-reset) connection delivers nothing
    }
    while let Some(Some(bytes)) = conn.pending_out.front() {
        conn.write_buf.extend_from_slice(bytes);
        conn.pending_out.pop_front();
        conn.next_flush += 1;
    }
    let mut short_write = false;
    if conn.unflushed() > 0 {
        if let Some(plan) = fault {
            match plan.next_io() {
                IoFault::None => {}
                IoFault::Delay(pause) => std::thread::sleep(pause),
                IoFault::ShortWrite => short_write = true,
                IoFault::Reset => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }
    while conn.written < conn.write_buf.len() {
        let end = if short_write {
            conn.written + 1
        } else {
            conn.write_buf.len()
        };
        match (&conn.stream).write(&conn.write_buf[conn.written..end]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.written += n;
                conn.last_activity = now;
                if short_write {
                    break; // the rest waits for the next poll round
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.written == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.written = 0;
    } else if conn.written > 64 * 1024 {
        // Reclaim flushed prefix so a long-lived slow drain does not
        // hold peak memory.
        conn.write_buf.drain(..conn.written);
        conn.written = 0;
    }
}

/// Recomputes the backpressure pause, counting engage transitions.
fn update_pause(conn: &mut Conn, stats: &StatsRegistry, cfg: &ServerConfig) {
    let should_pause = conn.unflushed() >= cfg.write_buf_cap || conn.inflight >= cfg.max_pipeline;
    if should_pause && !conn.paused {
        stats.bump(Counter::Backpressured);
    }
    conn.paused = should_pause;
}

/// Accepts every pending connection, rejecting past the capacity cap.
fn accept_pending(
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stats: &StatsRegistry,
    cfg: &ServerConfig,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are small and latency-sensitive; without
                // this, Nagle holds a response fragment hostage to the
                // peer's delayed ACK (~40ms stalls on pipelined loads).
                let _ = stream.set_nodelay(true);
                if conns.len() >= cfg.max_conns {
                    stats.bump(Counter::Rejected);
                    // One best-effort line so the peer learns *why*; a
                    // freshly accepted socket's send buffer is empty, so
                    // the nonblocking write virtually always lands.
                    let _ = (&stream).write(error_line(None, "server at capacity").as_bytes());
                    continue; // drop → close
                }
                stats.bump(Counter::Accepted);
                let token = *next_token;
                *next_token += 1;
                conns.insert(token, Conn::new(stream, now));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Transient per-connection accept failures (ECONNABORTED
            // etc.): retry on the next poll round.
            Err(_) => break,
        }
    }
}

/// The next poll timeout: the soonest idle/drain deadline, or forever
/// (the self-pipe interrupts any wait).
fn poll_timeout_ms(
    conns: &HashMap<u64, Conn>,
    draining: bool,
    drain_deadline: Option<Instant>,
    cfg: &ServerConfig,
    now: Instant,
) -> i32 {
    let mut deadline: Option<Instant> = if draining { drain_deadline } else { None };
    if !draining {
        for conn in conns.values() {
            if conn.inflight == 0 {
                let d = conn.last_activity + cfg.idle_timeout;
                deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
            }
        }
    }
    match deadline {
        None => -1,
        Some(d) => {
            let ms = d.saturating_duration_since(now).as_millis();
            i32::try_from(ms.clamp(1, 60_000)).unwrap_or(60_000)
        }
    }
}

fn run_reactor(
    listener: &TcpListener,
    cache: &Arc<CompileCache>,
    stats: &Arc<StatsRegistry>,
    cfg: &ServerConfig,
    wake: &Arc<Wake>,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<()> {
    let completions: CompletionQueue = Arc::default();
    let workers = if cfg.workers == 0 {
        sna_vm::default_workers()
    } else {
        cfg.workers
    };
    let pool = {
        let cache = Arc::clone(cache);
        let stats = Arc::clone(stats);
        let completions = Arc::clone(&completions);
        let wake = Arc::clone(wake);
        let fault = cfg.fault_plan.clone();
        let limits = ExecLimits {
            request_timeout: cfg.request_timeout,
            pre_cancelled: false,
        };
        WorkerPool::new(workers, move |job: Job| {
            // Armed before anything that can panic: whatever happens
            // below, the reactor gets exactly one completion for (token,
            // seq) and the peer gets a structured response.
            let guard = CompletionGuard {
                completions: &completions,
                wake: &wake,
                stats: &stats,
                token: job.token,
                seq: job.seq,
                line: &job.line,
                armed: true,
            };
            let mut limits = limits;
            match fault.as_deref().map_or(JobFault::None, FaultPlan::next_job) {
                JobFault::None => {}
                JobFault::Cancel => limits.pre_cancelled = true,
                JobFault::Panic => {
                    // `handle` never runs for this request, so count its
                    // arrival here; the guard's Drop counts the crash and
                    // delivers the internal-error line.
                    stats.bump(Counter::Requests);
                    panic!("injected fault: worker panic");
                }
            }
            let handler = Handler {
                cache: &cache,
                stats: &stats,
                limits,
                peer: Peer::Untrusted,
            };
            let mut response = String::new();
            handler.handle(&job.line).write_compact(&mut response);
            response.push('\n');
            guard.complete(response.into_bytes());
        })
    };

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = 0u64;
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    // Scratch reused by every poll round.
    let mut pfds: Vec<sys::PollFd> = Vec::new();
    let mut tokens: Vec<u64> = Vec::new();
    let mut completed: Vec<Completion> = Vec::new();
    let mut to_close: Vec<(u64, Option<Counter>)> = Vec::new();

    loop {
        // 1. Build the poll set: self-pipe, listener (while accepting),
        //    then every connection in a stable order.
        pfds.clear();
        pfds.push(sys::PollFd {
            fd: wake.read_fd,
            events: sys::POLLIN,
            revents: 0,
        });
        let listener_polled = !draining;
        if listener_polled {
            pfds.push(sys::PollFd {
                fd: listener.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        let conn_base = pfds.len();
        tokens.clear();
        tokens.extend(conns.keys().copied());
        for &token in &tokens {
            let conn = &conns[&token];
            let mut events = 0i16;
            if !conn.read_closed && (!conn.paused || draining) {
                events |= sys::POLLIN;
            }
            if conn.unflushed() > 0 {
                events |= sys::POLLOUT;
            }
            pfds.push(sys::PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }

        let timeout = poll_timeout_ms(&conns, draining, drain_deadline, cfg, Instant::now());
        match sys::poll_fds(&mut pfds, timeout) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let now = Instant::now();

        // 2. Wakeups: worker completions and/or a shutdown request.
        wake.drain();
        if !draining && (shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst))
        {
            draining = true;
            drain_deadline = Some(now + cfg.drain_timeout);
        }
        // The whole batch in one swap under the lock (after the pipe
        // drain: see `CompletionGuard::deliver`); both vectors keep their
        // capacity for the next round.
        std::mem::swap(
            &mut *completions.lock().expect("completion queue lock"),
            &mut completed,
        );
        for (token, seq, bytes) in completed.drain(..) {
            if let Some(conn) = conns.get_mut(&token) {
                conn.stash(seq, bytes);
                conn.inflight -= 1;
            }
            // A completion for a connection that died mid-request is
            // dropped — the client is gone.
        }

        // 3. Flush responses freed by completions; unpause drained peers
        //    *before* reading so newly freed capacity applies this round.
        for conn in conns.values_mut() {
            flush_conn(conn, now, cfg.fault_plan.as_deref());
            update_pause(conn, stats, cfg);
        }

        // 4. New connections.
        if listener_polled && pfds[1].revents != 0 {
            accept_pending(listener, &mut conns, &mut next_token, stats, cfg, now);
        }

        // 5. Socket reads, gated by the pause flag.
        for (i, &token) in tokens.iter().enumerate() {
            let revents = pfds[conn_base + i].revents;
            if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) == 0 {
                continue;
            }
            let conn = conns.get_mut(&token).expect("token is live");
            if !conn.dead && !conn.read_closed && (!conn.paused || draining) {
                read_socket(conn, now);
            }
        }

        // 6. Turn buffered bytes into work (or refusals while draining).
        for (&token, conn) in &mut conns {
            if !conn.dead && (!conn.paused || draining) {
                extract_lines(conn, token, &pool, stats, cfg, draining);
            }
        }

        // 7. Flush direct refusals and anything that raced in; then
        //    recompute backpressure with the post-read queue sizes.
        for conn in conns.values_mut() {
            flush_conn(conn, now, cfg.fault_plan.as_deref());
            update_pause(conn, stats, cfg);
        }

        // 8. Closures: dead sockets, finished EOF peers, idle evictions,
        //    and quiescent connections during a drain.
        for (&token, conn) in &conns {
            if conn.dead || (conn.read_closed && conn.quiescent()) {
                to_close.push((token, None));
            } else if draining && conn.quiescent() {
                to_close.push((token, Some(Counter::Drained)));
            } else if !draining
                && conn.inflight == 0
                && now.duration_since(conn.last_activity) >= cfg.idle_timeout
            {
                to_close.push((token, Some(Counter::TimedOut)));
            }
        }
        for (token, reason) in to_close.drain(..) {
            conns.remove(&token);
            if let Some(reason) = reason {
                stats.bump(reason);
            }
            stats.bump(Counter::Closed);
        }

        // 9. Drain exit: everyone quiescent, or time is up.
        if draining {
            let expired = drain_deadline.is_some_and(|d| now >= d);
            if conns.is_empty() || expired {
                for _ in conns.drain() {
                    stats.bump(Counter::Closed);
                }
                break;
            }
        }
    }
    // Dropping the pool joins every worker: by the time join() returns
    // to the caller, no request is still executing anywhere.
    drop(pool);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.max_conns >= 64);
        assert!(cfg.write_buf_cap >= 64 * 1024);
        assert!(cfg.max_pipeline >= 1);
    }

    #[test]
    fn self_pipe_wakes_and_drains() {
        let (r, w) = sys::make_pipe().unwrap();
        let wake = Wake {
            read_fd: r,
            write_fd: w,
        };
        wake.notify();
        wake.notify();
        let mut pfds = [sys::PollFd {
            fd: r,
            events: sys::POLLIN,
            revents: 0,
        }];
        assert_eq!(sys::poll_fds(&mut pfds, 1000).unwrap(), 1);
        assert!(pfds[0].revents & sys::POLLIN != 0);
        wake.drain();
        // Drained: poll times out immediately-ish with no event.
        let mut pfds = [sys::PollFd {
            fd: r,
            events: sys::POLLIN,
            revents: 0,
        }];
        assert_eq!(sys::poll_fds(&mut pfds, 10).unwrap(), 0);
    }

    #[test]
    fn spawn_and_shutdown_with_no_connections_is_immediate() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            return; // sandboxed environments may forbid binding
        };
        let handle = spawn_server(
            listener,
            Arc::new(CompileCache::new()),
            Arc::new(StatsRegistry::new()),
            ServerConfig::default(),
        )
        .unwrap();
        let started = Instant::now();
        handle.shutdown_and_join().unwrap();
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
