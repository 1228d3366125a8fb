//! The HTTP server's engine: a hand-rolled epoll reactor.
//!
//! A thread per connection would cap concurrency at the pool size and
//! spend 10k stacks on 10k mostly-idle keep-alive clients. The server has
//! the classic reactor shape instead:
//!
//! - one **reactor thread** owns every socket, registered edge-triggered
//!   with epoll; idle connections cost a file descriptor and a small
//!   parser buffer, nothing more;
//! - each connection is a **state machine**: bytes are drained into an
//!   incremental [`RequestParser`] as they arrive, responses are staged
//!   into a write buffer and flushed as the socket accepts them;
//! - parsed requests are handed to a **bounded worker pool** which runs
//!   the router (handlers may block on locks or disks — the reactor never
//!   does) and posts the serialized response back through a completion
//!   queue plus a wake pipe;
//! - at most **one request per connection is in flight** at a time, so
//!   pipelined requests are answered strictly in order;
//! - per-tenant [`AdmissionControl`] runs the moment a request is parsed:
//!   over-limit tenants get their 429 straight from the reactor thread,
//!   before any worker capacity is spent on them.
//!
//! epoll is reached through raw syscalls (`sys` below) because the
//! workspace is offline and carries no `libc`; everything else — the
//! nonblocking listener, the streams, the worker wake pipe
//! (`UnixStream::pair`) — is plain `std`. The syscall numbers and the
//! `epoll_event` layout are per-architecture, which is why the crate
//! builds for Linux x86_64 and aarch64 only (see the `compile_error!` in
//! `lib.rs`).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::admission::AdmissionControl;
use crate::http::{HttpRequest, HttpResponse, RequestParser};
use crate::router::Router;

/// Raw epoll syscalls. The workspace has no `libc` crate (offline, stub
/// registry), so the three syscalls the reactor needs are issued directly
/// with `asm!` — numbers and struct layout per the Linux ABI.
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: usize = 0o2000000;

    /// `struct epoll_event`. Packed on x86_64 (the kernel ABI packs it
    /// there so 32-bit and 64-bit layouts agree); naturally aligned
    /// everywhere else.
    #[derive(Clone, Copy, Default)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_WAIT: usize = 232;
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall4(n: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
        a6: usize,
    ) -> isize {
        let ret: isize;
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                in("x5") a6,
                options(nostack),
            );
        }
        ret
    }

    fn check(ret: isize) -> io::Result<usize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as usize)
        }
    }

    pub fn epoll_create1() -> io::Result<OwnedFd> {
        #[cfg(target_arch = "x86_64")]
        let ret = unsafe { syscall4(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) };
        #[cfg(target_arch = "aarch64")]
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) };
        let fd = check(ret)? as RawFd;
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub fn epoll_ctl(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        event: Option<&mut EpollEvent>,
    ) -> io::Result<()> {
        let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        #[cfg(target_arch = "x86_64")]
        let ret = unsafe {
            syscall4(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ptr as usize,
            )
        };
        #[cfg(target_arch = "aarch64")]
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    pub fn epoll_wait(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        loop {
            #[cfg(target_arch = "x86_64")]
            let ret = unsafe {
                syscall4(
                    nr::EPOLL_WAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                )
            };
            #[cfg(target_arch = "aarch64")]
            let ret = unsafe {
                // no epoll_wait syscall on aarch64; epoll_pwait with a null
                // sigmask is the kernel's own compatibility spelling
                syscall6(
                    nr::EPOLL_PWAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as usize,
                    0,
                    0,
                )
            };
            match check(ret) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

use sys::EpollEvent;

/// Thin ownership wrapper over the epoll fd.
struct Epoll {
    fd: std::os::fd::OwnedFd,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            fd: sys::epoll_create1()?,
        })
    }

    fn add(&self, fd: std::os::fd::RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        sys::epoll_ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_ADD, fd, Some(&mut ev))
    }

    fn modify(&self, fd: std::os::fd::RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        sys::epoll_ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_MOD, fd, Some(&mut ev))
    }

    fn delete(&self, fd: std::os::fd::RawFd) -> io::Result<()> {
        sys::epoll_ctl(self.fd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, None)
    }

    fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        sys::epoll_wait(self.fd.as_raw_fd(), events, timeout_ms)
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Interest every live connection always has.
const BASE_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET;

/// A request handed to the worker pool: connection token, the parsed
/// request, and whether the client asked for close-after.
type Job = (u64, HttpRequest, bool);

/// A finished response coming back: token, serialized bytes, close-after.
type Completion = (u64, Vec<u8>, bool);

/// Context the per-connection state machine needs besides its own state.
struct Ctx {
    job_tx: Sender<Job>,
    admission: Option<Arc<AdmissionControl>>,
    served: Arc<AtomicU64>,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    write_buf: Vec<u8>,
    written: usize,
    /// A request has been dispatched and its response not yet queued.
    in_flight: bool,
    /// Close once the write buffer drains.
    close_after: bool,
    /// The peer has stopped sending (EOF / RDHUP).
    peer_closed: bool,
    /// Events currently registered with epoll.
    registered: u32,
    last_activity: Instant,
    /// Tenant whose admission slot this connection's in-flight request
    /// holds; released on completion or teardown, whichever comes first.
    tenant: Option<String>,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(),
            write_buf: Vec::new(),
            written: 0,
            in_flight: false,
            close_after: false,
            peer_closed: false,
            registered: BASE_INTEREST,
            last_activity: now,
            tenant: None,
        }
    }

    fn write_pending(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// The epoll interest this connection's state calls for.
    fn desired_interest(&self) -> u32 {
        if self.write_pending() {
            BASE_INTEREST | sys::EPOLLOUT
        } else {
            BASE_INTEREST
        }
    }

    /// Drain the socket (edge-triggered: until `WouldBlock`), then parse
    /// and dispatch. Returns `false` to tear the connection down.
    fn on_readable(&mut self, token: u64, ctx: &Ctx) -> bool {
        // chaos: the connection dies before the request is read — the
        // client saw zero response bytes
        if odbis_chaos::triggered("http.read") {
            return false;
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.last_activity = Instant::now();
                    self.parser.feed(&buf[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.pump(token, ctx)
    }

    /// Parse buffered bytes into requests and dispatch them, one in
    /// flight at a time so pipelined responses keep request order.
    fn pump(&mut self, token: u64, ctx: &Ctx) -> bool {
        while !self.in_flight && !self.write_pending() && !self.close_after {
            match self.parser.try_next() {
                Ok(None) => break,
                Ok(Some(mut request)) => {
                    self.last_activity = Instant::now();
                    let close_after = request.wants_close();
                    if let Some(gate) = &ctx.admission {
                        match gate.gate(&mut request) {
                            Ok(tenant) => self.tenant = tenant,
                            Err(reject) => {
                                // over-limit: the 429 costs no worker time
                                ctx.served.fetch_add(1, Ordering::Relaxed);
                                if !self.queue_response(reject.to_bytes(!close_after), close_after)
                                {
                                    return false;
                                }
                                continue;
                            }
                        }
                    }
                    self.in_flight = true;
                    self.close_after = close_after;
                    if ctx.job_tx.try_send((token, request, close_after)).is_err() {
                        // worker queue saturated: shed with a retryable 503
                        // instead of buffering unboundedly in the reactor
                        self.in_flight = false;
                        if let (Some(gate), Some(t)) = (&ctx.admission, self.tenant.take()) {
                            gate.complete(&t);
                        }
                        ctx.served.fetch_add(1, Ordering::Relaxed);
                        let resp = overloaded_response();
                        if !self.queue_response(resp.to_bytes(false), true) {
                            return false;
                        }
                    }
                }
                Err(e) => {
                    ctx.served.fetch_add(1, Ordering::Relaxed);
                    let resp = malformed_response(&e);
                    if !self.queue_response(resp.to_bytes(false), true) {
                        return false;
                    }
                    break;
                }
            }
        }
        if self.peer_closed && !self.in_flight && !self.write_pending() {
            return false; // conversation over
        }
        true
    }

    /// Stage a serialized response and start flushing it. Returns `false`
    /// to tear the connection down.
    fn queue_response(&mut self, bytes: Vec<u8>, close_after: bool) -> bool {
        // chaos: the socket dies before any response byte — never
        // mid-response, so clients see a clean drop (retryable), not a
        // torn payload
        if odbis_chaos::triggered("http.write") {
            return false;
        }
        debug_assert!(
            !self.write_pending(),
            "one response in the buffer at a time"
        );
        self.write_buf = bytes;
        self.written = 0;
        self.close_after = self.close_after || close_after;
        self.flush()
    }

    /// Write as much of the staged response as the socket accepts.
    /// Returns `false` to tear the connection down.
    fn flush(&mut self) -> bool {
        while self.write_pending() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.written += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.write_pending() {
            self.write_buf = Vec::new();
            self.written = 0;
            if self.close_after {
                return false; // response delivered; honor Connection: close
            }
        }
        true
    }

    /// The socket turned writable: continue the flush, then see whether a
    /// pipelined request was waiting behind the response.
    fn on_writable(&mut self, token: u64, ctx: &Ctx) -> bool {
        if !self.flush() {
            return false;
        }
        self.pump(token, ctx)
    }
}

/// 503 for a saturated worker queue — same retryable shape as the
/// platform's transient-fault path.
fn overloaded_response() -> HttpResponse {
    HttpResponse::status(503)
        .with_header("Content-Type", "application/json")
        .with_header("Retry-After", "1")
        .with_body(
            r#"{"error":{"kind":"unavailable","message":"server overloaded, retry shortly"}}"#,
        )
}

/// 400 for bytes that are not a request the parser can frame; the
/// connection closes behind it, since the rest of the stream has no
/// request boundary left to trust.
fn malformed_response(reason: &str) -> HttpResponse {
    HttpResponse::status(400)
        .with_header("Content-Type", "application/json")
        .with_body(
            serde_json::json!({
                "error": serde_json::json!({ "kind": "bad_request", "message": reason })
            })
            .to_string(),
        )
}

/// Headers the router stamped on a deferred placeholder (the request id)
/// carry over to the response that takes its place, unless that response
/// set the same header itself.
fn inherit_headers(mut response: HttpResponse, placeholder: HttpResponse) -> HttpResponse {
    for (k, v) in placeholder.headers {
        response.headers.entry(k).or_insert(v);
    }
    response
}

/// A running HTTP server — the reproduction's stand-in for the Tomcat
/// container that "all services run under" in the ODBIS technical
/// architecture (§3.3). Binds a real loopback socket; see
/// [`crate::ServerBuilder`] for worker count, admission control and the
/// idle timeout.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    open: Arc<AtomicU64>,
    wake: UnixStream,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Start serving `router` on an ephemeral loopback port: one reactor
    /// thread plus `worker_count` handler workers. `admission` gates
    /// requests per tenant; `idle_timeout` reaps keep-alive connections
    /// that go quiet.
    pub(crate) fn spawn(
        router: Router,
        worker_count: usize,
        admission: Option<Arc<AdmissionControl>>,
        idle_timeout: Duration,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let open = Arc::new(AtomicU64::new(0));
        let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
        let (job_tx, job_rx) = bounded::<Job>(1024);

        let router = Arc::new(router);
        let mut workers = Vec::with_capacity(worker_count.max(1));
        for _ in 0..worker_count.max(1) {
            workers.push(spawn_worker(
                Arc::clone(&router),
                job_rx.clone(),
                Arc::clone(&completions),
                wake_tx.try_clone()?,
                Arc::clone(&shutdown),
                Arc::clone(&served),
            ));
        }

        let ctx = Ctx {
            job_tx,
            admission,
            served: Arc::clone(&served),
        };
        let mut reactor = Reactor {
            epoll: Epoll::new()?,
            listener,
            wake_rx,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            ctx,
            completions,
            shutdown: Arc::clone(&shutdown),
            open: Arc::clone(&open),
            idle_timeout,
        };
        reactor
            .epoll
            .add(reactor.listener.as_raw_fd(), TOKEN_LISTENER, BASE_INTEREST)
            .and_then(|_| {
                reactor
                    .epoll
                    .add(reactor.wake_rx.as_raw_fd(), TOKEN_WAKE, BASE_INTEREST)
            })?;
        let reactor_thread = std::thread::spawn(move || reactor.run());

        Ok(HttpServer {
            addr,
            shutdown,
            served,
            open,
            wake: wake_tx,
            reactor: Some(reactor_thread),
            workers,
        })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far (responses produced, including 4xx/5xx).
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections currently held open by the reactor — the number the
    /// connection-scaling bench watches climb past 10k.
    pub fn connections_open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Stop accepting, drop every connection, join all threads. Bounded
    /// by the in-flight request, not the backlog: queued jobs are shed.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.wake.write(&[1]);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // the reactor owned the job sender; with it gone the workers see
        // the channel disconnect once the (shed) backlog drains
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_worker(
    router: Arc<Router>,
    jobs: Receiver<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    mut wake: UnixStream,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok((token, request, close_after)) = jobs.recv() {
            if shutdown.load(Ordering::Relaxed) {
                // shutting down: shed the queued backlog instead of
                // serving it, so stop() is bounded by the in-flight
                // request, not by queue depth
                continue;
            }
            // dispatch() already catches panics; this boundary keeps even
            // a future regression there from shrinking the pool
            let mut response =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| router.dispatch(request)))
                    .unwrap_or_else(|_| Router::panic_envelope());
            served.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = response.take_deferred() {
                // long-poll: park the connection on its completion slot
                // instead of occupying this worker. The waker re-enters
                // the event loop exactly like a finished dispatch, so a
                // parked watcher costs an fd, not a pool thread.
                let placeholder = response;
                match wake.try_clone() {
                    Ok(mut wake_tx) => {
                        let completions = Arc::clone(&completions);
                        slot.complete_with(move |real| {
                            let bytes = inherit_headers(real, placeholder).to_bytes(!close_after);
                            completions.lock().push((token, bytes, close_after));
                            let _ = wake_tx.write(&[1]);
                        });
                        continue;
                    }
                    // no wake pipe to hand the waker (out of fds): shed
                    // the poll with a retryable 503 rather than hold this
                    // worker until it completes
                    Err(_) => response = inherit_headers(overloaded_response(), placeholder),
                }
            }
            let bytes = response.to_bytes(!close_after);
            completions.lock().push((token, bytes, close_after));
            // a full pipe means a wake is already pending — that's enough
            let _ = wake.write(&[1]);
        }
    })
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    ctx: Ctx,
    completions: Arc<Mutex<Vec<Completion>>>,
    shutdown: Arc<AtomicBool>,
    open: Arc<AtomicU64>,
    idle_timeout: Duration,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        let mut last_sweep = Instant::now();
        while let Ok(n) = self.epoll.wait(&mut events, 200) {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            for ev in &events[..n] {
                // copy out of the (possibly packed) struct before use
                let token = ev.data;
                let flags = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    token => self.conn_event(token, flags),
                }
            }
            self.drain_completions();
            if last_sweep.elapsed() >= Duration::from_millis(200) {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        // teardown: release admission slots held by in-flight requests so
        // per-tenant pending counts stay truthful across a restart
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // chaos: the accepted socket drops before any byte is
                    // exchanged (client sees a clean reset, retryable)
                    if odbis_chaos::triggered("http.accept") {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), token, BASE_INTEREST)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, Instant::now()));
                    self.open.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // transient accept failures (e.g. fd exhaustion): leave the
                // edge armed; the next connection re-triggers it
                Err(_) => break,
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
    }

    fn conn_event(&mut self, token: u64, flags: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // already torn down; stale edge
        };
        if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.teardown(token);
            return;
        }
        let mut alive = true;
        if flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 {
            alive = conn.on_readable(token, &self.ctx);
        }
        if alive && flags & sys::EPOLLOUT != 0 {
            let conn = self.conns.get_mut(&token).expect("still present");
            alive = conn.on_writable(token, &self.ctx);
        }
        self.finish_event(token, alive);
    }

    /// Process responses posted by the worker pool.
    fn drain_completions(&mut self) {
        let batch = std::mem::take(&mut *self.completions.lock());
        for (token, bytes, close_after) in batch {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while the handler ran
            };
            conn.in_flight = false;
            if let (Some(gate), Some(t)) = (&self.ctx.admission, conn.tenant.take()) {
                gate.complete(&t);
            }
            let mut alive = conn.queue_response(bytes, close_after);
            if alive {
                // a pipelined request may have been waiting on this slot
                alive = conn.pump(token, &self.ctx);
            }
            self.finish_event(token, alive);
        }
    }

    /// Apply a state machine verdict: tear down or re-sync epoll interest.
    fn finish_event(&mut self, token: u64, alive: bool) {
        if !alive {
            self.teardown(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = conn.desired_interest();
        if desired != conn.registered
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.registered = desired;
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            if let (Some(gate), Some(t)) = (&self.ctx.admission, conn.tenant.take()) {
                gate.complete(&t);
            }
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.open.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Reap keep-alive connections with no activity inside the idle
    /// timeout — the guard that lets the reactor hold 10k sockets without
    /// letting abandoned ones accumulate forever.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                !c.in_flight
                    && !c.write_pending()
                    && now.duration_since(c.last_activity) > self.idle_timeout
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.teardown(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TenantLimits;
    use crate::http::Method;

    fn test_router() -> Router {
        let mut r = Router::new();
        r.route(Method::Get, "/hello", |_, _| HttpResponse::text("world"));
        r.route(Method::Get, "/echo/:word", |_, p| {
            HttpResponse::text(p["word"].clone())
        });
        r
    }

    fn read_to_end(stream: &mut TcpStream) -> String {
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        buf
    }

    #[test]
    fn epoll_event_roundtrip_on_a_socketpair() {
        // low-level sanity for the raw syscalls before anything sits on them
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(b.as_raw_fd(), 7, sys::EPOLLIN | sys::EPOLLET)
            .unwrap();
        let mut events = vec![EpollEvent::default(); 8];
        // nothing readable yet
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let (data, flags) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(flags & sys::EPOLLIN, 0);
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = HttpServer::start(test_router(), 4).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // three requests in one write; the last asks for close
        stream
            .write_all(
                b"GET /echo/one HTTP/1.1\r\n\r\n\
                  GET /echo/two HTTP/1.1\r\n\r\n\
                  GET /echo/three HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let all = read_to_end(&mut stream);
        let one = all.find("one").expect("first response");
        let two = all.find("two").expect("second response");
        let three = all.find("three").expect("third response");
        assert!(one < two && two < three, "responses out of order: {all}");
        assert_eq!(server.requests_served(), 3);
    }

    /// A body the parser cannot measure ends the conversation: one 400
    /// envelope, then EOF — the bytes after the head are never served as
    /// a second request.
    #[test]
    fn bad_content_length_gets_a_400_envelope_and_a_closed_socket() {
        let server = HttpServer::start(test_router(), 1).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"POST /hello HTTP/1.1\r\nContent-Length: abc\r\n\r\nGET /hello HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let all = read_to_end(&mut stream);
        assert!(all.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{all}");
        assert!(all.contains("Connection: close"), "{all}");
        assert!(all.contains(r#"{"error":{"kind":"bad_request","#), "{all}");
        assert_eq!(all.matches("HTTP/1.1 ").count(), 1, "desync: {all}");
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn idle_connections_cost_nothing_but_fds() {
        let server = HttpServer::start(test_router(), 1).unwrap();
        let mut idle = Vec::new();
        for _ in 0..200 {
            idle.push(TcpStream::connect(server.addr()).unwrap());
        }
        // wait for the reactor to register them all
        let t0 = Instant::now();
        while server.connections_open() < 200 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            server.connections_open() >= 200,
            "only {} connections registered",
            server.connections_open()
        );
        // a single worker still answers promptly underneath 200 idlers
        let (status, body) = crate::client::http_get(&server.addr().to_string(), "/hello").unwrap();
        assert_eq!((status, body.as_str()), (200, "world"));
        server.shutdown();
    }

    #[test]
    fn slow_loris_does_not_block_other_clients() {
        let server = HttpServer::start(test_router(), 1).unwrap();
        // a half-written request parks in its parser buffer...
        let mut loris = TcpStream::connect(server.addr()).unwrap();
        loris.write_all(b"GET /hello HT").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // ...while a complete request sails past it
        let (status, body) = crate::client::http_get(&server.addr().to_string(), "/hello").unwrap();
        assert_eq!((status, body.as_str()), (200, "world"));
        server.shutdown();
    }

    #[test]
    fn idle_timeout_reaps_quiet_connections() {
        let server = HttpServer::builder(test_router())
            .workers(1)
            .idle_timeout(Duration::from_millis(150))
            .start()
            .unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let t0 = Instant::now();
        while server.connections_open() == 0 && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(10));
        }
        // the reactor hangs up on the idler: read returns EOF
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(n, 0, "expected EOF from the idle sweep");
        server.shutdown();
    }

    #[test]
    fn admission_rejects_over_limit_with_retry_after() {
        let gate = Arc::new(AdmissionControl::with_uniform_limits(TenantLimits {
            rate: 0.001,
            burst: 1.0,
            queue_depth: 0,
        }));
        let server = HttpServer::builder(test_router())
            .workers(2)
            .admission(gate)
            .start()
            .unwrap();
        let send = |label: &str| {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(
                format!(
                    "GET /hello HTTP/1.1\r\nX-Tenant: acme\r\nX-Request-Id: {label}\r\nConnection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
            read_to_end(&mut s)
        };
        let first = send("first");
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let second = send("second");
        assert!(second.starts_with("HTTP/1.1 429"), "{second}");
        assert!(second.contains("Retry-After:"), "{second}");
        assert!(second.contains(r#""kind":"rate_limited""#), "{second}");
        assert!(second.contains(r#""request_id":"second""#), "{second}");
        // the un-gated anonymous path is unaffected
        let (status, _) = crate::client::http_get(&server.addr().to_string(), "/hello").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }
}
