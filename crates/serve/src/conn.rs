//! The connection core both endpoints drive: an event loop over every
//! connection, run by a fixed pool of threads.
//!
//! The event loop owns the listener and every connection. Sockets are
//! nonblocking, and the loop blocks in `poll(2)` ([`crate::poll`]) on the
//! listener, every connection and the read end of a wake-up socket pair, so
//! an idle keep-alive connection costs a `pollfd` entry and zero threads —
//! an endpoint holds thousands of idle connections with the same fixed
//! thread count it holds one, and an idle endpoint does not wake at all. The
//! poll timeout is the nearest idle-connection deadline, or none.
//!
//! The loop has no thread of its own: the pool's threads take turns running
//! it (leader/followers, [`Pool`]). The thread running it cuts complete
//! messages ([`crate::wire::Inbox`]), hands the loop to an idle thread, and
//! answers the first message itself, so a request never waits for a second
//! thread to wake. The answer travels back to the loop over a completion
//! channel, with one byte written to the wake-up pair (as
//! [`Core::shutdown`] also does). At most one request per connection is in
//! flight at a time — the loop stops extracting messages from a connection
//! until its reply is queued — which preserves reply ordering under
//! pipelining without any reordering machinery.
//!
//! While every thread is answering a request, nothing runs the loop: new
//! connections wait in the listen backlog and new requests in their sockets
//! until a thread is free. A handler must therefore not block without bound
//! (the router bounds its backend reads).
//!
//! What a thread does with a message is the endpoint's [`Service`]: the
//! daemon searches through its plan cache, the router forwards through its
//! ring. A handler panic is contained here and answered through
//! [`Service::panicked`] on its own connection; the endpoint keeps serving.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, LazyLock, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pte_telemetry::{Counter, Gauge};

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::wire::{Inbox, Message, Reply, Wire};

// Pre-registered by [`spawn`] before any thread starts, so the loop records
// with a handful of atomic ops and never takes the registry lock.
static EL_WAKEUPS: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_event_loop_wakeups_total"));
static EL_POLLS: LazyLock<Counter> =
    LazyLock::new(|| pte_telemetry::global().counter("pte_event_loop_poll_iterations_total"));
static CONNS_BUSY: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_connections_busy"));
static CONNS_IDLE: LazyLock<Gauge> =
    LazyLock::new(|| pte_telemetry::global().gauge("pte_connections_idle"));

/// One endpoint's request handling, run on the core's threads. Public only
/// so the endpoints' handles can name it; `conn` itself is private.
pub trait Service: Send + Sync + 'static {
    /// Per-thread state, built once per core thread and rebuilt after a
    /// panic. The daemon's is `()`; the router's is its backend pool.
    type Worker: Default;

    /// Answers one message.
    fn handle(&self, message: Message, worker: &mut Self::Worker) -> Outcome;

    /// The answer to a message whose handler panicked; `started` is when
    /// its thread picked it up.
    fn panicked(&self, wire: Wire, _started: Instant) -> Outcome {
        Outcome::Reply(Reply::error("internal panic", true, None).encode(wire))
    }

    /// A connection's framing was lost; the core answers it and closes.
    fn framing_error(&self) {}

    /// Set by a `shutdown` op or the handle; the core then drains.
    fn stop_flag(&self) -> &AtomicBool;

    /// The open-connections gauge the core keeps for the endpoint.
    fn connections(&self) -> &AtomicU64;
}

/// What a handler produced for a message.
pub enum Outcome {
    /// Bytes to queue on the connection (a JSON line with its newline, or a
    /// complete binary frame).
    Reply(Vec<u8>),
    /// Sever the connection without replying (injected disconnect).
    Silent,
}

/// A running endpoint — a daemon ([`crate::server::ServerHandle`]) or a
/// router ([`crate::router::Router`]): its bound address, its state, and
/// its threads. Dropping it signals shutdown without waiting.
pub struct Core<S: Service> {
    addr: SocketAddr,
    service: Arc<S>,
    waker: Arc<UnixStream>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Core<S> {
    /// The address the listener actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (counters, cache or fleet health), for in-process
    /// observability.
    pub fn state(&self) -> &Arc<S> {
        &self.service
    }

    /// Joins `thread` with the core's own threads, after them.
    pub(crate) fn adopt(&mut self, thread: JoinHandle<()>) {
        self.threads.push(thread);
    }

    /// Signals shutdown and wakes the event loop to act on it.
    pub fn shutdown(&self) {
        self.service.stop_flag().store(true, Ordering::SeqCst);
        wake(&self.waker);
    }

    /// Blocks until the endpoint has drained — a `shutdown` op or
    /// [`Core::shutdown`] stops it — then joins every thread. Signals
    /// nothing itself.
    pub fn wait(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Signals shutdown and joins every thread (graceful: in-flight
    /// requests finish, their replies are delivered, then everything
    /// closes).
    pub fn join(self) {
        self.shutdown();
        self.wait();
    }
}

impl<S: Service> Drop for Core<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts `workers + 1` threads over `service`: as many
/// as a dedicated loop thread and `workers` workers would be, so up to
/// `workers + 1` requests are answered at once. Connections idle for longer
/// than `idle_timeout` are closed.
///
/// The returned receiver disconnects when the event loop exits — after a
/// drain — so a background thread can block on it instead of ticking.
///
/// # Errors
/// Propagates bind and wake-up-pair failures.
pub(crate) fn spawn<S: Service>(
    addr: &str,
    service: Arc<S>,
    workers: usize,
    idle_timeout: Duration,
) -> io::Result<(Core<S>, Receiver<()>)> {
    LazyLock::force(&EL_WAKEUPS);
    LazyLock::force(&EL_POLLS);
    LazyLock::force(&CONNS_BUSY);
    LazyLock::force(&CONNS_IDLE);
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (wake_rx, waker) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    waker.set_nonblocking(true)?;
    let waker = Arc::new(waker);

    let (completion_tx, completion_rx) = std::sync::mpsc::channel();
    let (exit_tx, exit_rx) = std::sync::mpsc::channel();
    let event_loop = EventLoop {
        listener,
        wake_rx,
        service: Arc::clone(&service),
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        busy: 0,
        next_epoch: 0,
        dispatched: VecDeque::new(),
        completion_rx,
        idle_timeout,
        stopping: false,
        scratch: vec![0u8; READ_CHUNK],
        fds: Vec::new(),
        fd_slots: Vec::new(),
        _exit: exit_tx,
    };
    let pool = Arc::new(Pool {
        shared: Mutex::new(Shared {
            jobs: VecDeque::new(),
            idle_loop: Some(event_loop),
            closed: false,
        }),
        ready: Condvar::new(),
    });
    let threads = (0..=workers.max(1))
        .map(|_| {
            let (pool, completion_tx) = (Arc::clone(&pool), completion_tx.clone());
            let (waker, service) = (Arc::clone(&waker), Arc::clone(&service));
            std::thread::spawn(move || pool_thread(&pool, &completion_tx, &waker, &*service))
        })
        .collect();
    Ok((Core { addr, service, waker, threads }, exit_rx))
}

/// Wakes the event loop out of `poll(2)` by writing one byte to the write
/// end of its wake-up pair. Errors are ignored: `WouldBlock` means the pair
/// is full, so a wake is already pending, and anything else means the loop
/// has exited and closed the read end.
fn wake(waker: &UnixStream) {
    let _ = (&*waker).write(&[1]);
}

/// The event loop's per-sweep read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// A unit of work for the pool, addressed back to its connection slot.
/// `epoch` guards slot reuse: a completion for a connection that closed
/// (and whose slot now holds a newer one) is discarded. Messages travel as
/// raw bytes: decoding happens in the handler, so a malformed request is
/// just another reply, not loop work.
struct Job {
    slot: usize,
    epoch: u64,
    message: Message,
}

/// The core's threads and what they share. There is no dedicated loop
/// thread: the event loop is handed from thread to thread
/// (leader/followers). A thread takes it when idle, runs it until a pass
/// dispatches messages, parks it here for an idle thread to take over, and
/// answers the first message itself, so a request never waits for a second
/// thread to wake before it is handled.
struct Pool<S: Service> {
    shared: Mutex<Shared<S>>,
    /// Idle threads wait here for a job or the parked loop.
    ready: Condvar,
}

struct Shared<S: Service> {
    /// Messages dispatched beyond the one their leader answers itself.
    jobs: VecDeque<Job>,
    /// The event loop while no thread runs it.
    idle_loop: Option<EventLoop<S>>,
    /// The loop has exited: threads answer the queued jobs, then stop.
    closed: bool,
}

impl<S: Service> Pool<S> {
    /// The next message for this thread: a queued job first, else one it
    /// dispatches itself by leading the parked loop. `None` once the loop
    /// has exited and the queue is empty.
    fn next_job(&self) -> Option<Job> {
        loop {
            let mut event_loop = {
                let mut shared = self.shared.lock().expect("core pool");
                loop {
                    if let Some(job) = shared.jobs.pop_front() {
                        return Some(job);
                    }
                    if let Some(event_loop) = shared.idle_loop.take() {
                        break event_loop;
                    }
                    if shared.closed {
                        return None;
                    }
                    shared = self.ready.wait(shared).expect("core pool");
                }
            };
            let mut jobs = match catch_unwind(AssertUnwindSafe(|| event_loop.lead())) {
                Ok(Some(jobs)) => jobs,
                led => {
                    // Drained, or unwound from a bug in the loop: drop the
                    // listener and the exit sender, then release every
                    // thread instead of leaving them waiting for the loop.
                    drop(event_loop);
                    self.shared.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
                    self.ready.notify_all();
                    if let Err(panic) = led {
                        resume_unwind(panic);
                    }
                    return None;
                }
            };
            let mine = jobs.pop_front();
            let others = jobs.len();
            {
                let mut shared = self.shared.lock().expect("core pool");
                shared.jobs.extend(jobs);
                shared.idle_loop = Some(event_loop);
            }
            // One thread for each queued job and one to lead the loop.
            for _ in 0..=others {
                self.ready.notify_one();
            }
            if mine.is_some() {
                return mine;
            }
        }
    }
}

/// A finished job flowing back to the event loop.
struct Completion {
    slot: usize,
    epoch: u64,
    outcome: Outcome,
}

/// One connection owned by the event loop.
struct Connection {
    stream: TcpStream,
    /// Inbound bytes not yet forming a complete message; fixes the
    /// connection's codec from its first byte.
    inbox: Inbox,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    /// A request is in flight; no further messages are extracted (and no
    /// reads are issued) until its reply is queued.
    busy: bool,
    /// The last poll reported the socket ready (or it was just accepted):
    /// the next pass reads it. Cleared once a read drains it.
    readable: bool,
    epoch: u64,
    /// Idle clock: reset when a reply is queued — trickling partial bytes
    /// does not reset it.
    last_reply: Instant,
    /// Deliver `out`, then close (oversized line, broken framing, drain).
    close_after_flush: bool,
}

impl Connection {
    /// The events to poll this connection for; `0` leaves it out of the
    /// poll set. Reads are wanted only while messages may still be
    /// extracted, writes only while bytes are queued. A busy connection
    /// with nothing to send is not polled at all: its hang-up would report
    /// `POLLHUP` on every call and spin the loop until its reply lands.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if !self.busy && !self.close_after_flush {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        events
    }
}

struct EventLoop<S: Service> {
    listener: TcpListener,
    /// Read end of the wake-up pair; answering threads and the handle
    /// write to the other end.
    wake_rx: UnixStream,
    service: Arc<S>,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    live: usize,
    /// Connections with a request in flight (mirrors the per-connection
    /// `busy` flags; feeds the busy/idle gauges once per loop pass).
    busy: usize,
    next_epoch: u64,
    /// Messages this pass dispatched, handed to the pool when it ends.
    dispatched: VecDeque<Job>,
    completion_rx: Receiver<Completion>,
    idle_timeout: Duration,
    /// The stop flag as the last pass read it.
    stopping: bool,
    /// The per-pass read buffer.
    scratch: Vec<u8>,
    /// The poll set, rebuilt before every wait: the wake-up pair, then the
    /// listener (unless stopping), then one entry per polled connection.
    fds: Vec<PollFd>,
    /// The connection slot behind each connection entry of `fds`.
    fd_slots: Vec<usize>,
    /// Dropped with the loop: disconnects the receiver [`spawn`] returned.
    _exit: Sender<()>,
}

impl<S: Service> EventLoop<S> {
    /// Waits and runs a loop pass until a pass dispatches messages, and
    /// returns them, or until a drain has closed every connection (`None`).
    fn lead(&mut self) -> Option<VecDeque<Job>> {
        loop {
            // Every pass drains what it touches (reads and accepts run to
            // `WouldBlock`, writes until the socket pushes back), and the
            // poll is level-triggered, so blocking here never strands work.
            self.wait(self.stopping);
            self.pass();
            if !self.dispatched.is_empty() {
                return Some(std::mem::take(&mut self.dispatched));
            }
            if self.stopping && self.live == 0 {
                return None; // the caller drops the listener, refusing new connects
            }
        }
    }

    fn pass(&mut self) {
        EL_POLLS.inc();
        let stopping = self.service.stop_flag().load(Ordering::SeqCst);
        self.stopping = stopping;
        while let Ok(completion) = self.completion_rx.try_recv() {
            self.apply_completion(completion, stopping);
        }
        if !stopping {
            self.accept_new();
        }
        for index in 0..self.conns.len() {
            let Some(mut conn) = self.conns[index].take() else { continue };
            if self.sweep_conn(index, &mut conn, stopping) {
                self.conns[index] = Some(conn);
            } else {
                if conn.busy {
                    // Closed with a request still in flight; its stale
                    // completion will be discarded by the epoch check.
                    self.busy = self.busy.saturating_sub(1);
                }
                self.release_slot(index);
            }
        }
        CONNS_BUSY.set(self.busy as i64);
        CONNS_IDLE.set(self.live.saturating_sub(self.busy) as i64);
    }

    /// Blocks in `poll(2)` until a socket is ready, an answering thread or
    /// the handle writes to the wake-up pair, or the nearest idle deadline
    /// passes, then marks the ready connections for the next pass and
    /// drains the pair.
    fn wait(&mut self, stopping: bool) {
        self.fds.clear();
        self.fd_slots.clear();
        self.fds.push(PollFd::new(self.wake_rx.as_raw_fd(), POLLIN));
        if !stopping {
            self.fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        }
        let first_conn = self.fds.len();
        let mut timeout: Option<Duration> = None;
        for (index, conn) in self.conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let events = conn.interest();
            if events == 0 {
                continue;
            }
            self.fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            self.fd_slots.push(index);
            if !conn.busy && conn.out.is_empty() {
                let left = self.idle_timeout.saturating_sub(conn.last_reply.elapsed());
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
        }
        if poll::wait(&mut self.fds, timeout).is_err() {
            // `poll` itself failed (EINVAL/ENOMEM): back off instead of
            // spinning, and let the next pass sweep every connection.
            std::thread::sleep(Duration::from_millis(1));
            self.conns.iter_mut().flatten().for_each(|conn| conn.readable = true);
            return;
        }
        for (fd, &slot) in self.fds[first_conn..].iter().zip(&self.fd_slots) {
            // Anything but bare writability (data, EOF, an error) is news
            // only a read can deliver.
            if fd.revents & !POLLOUT != 0 {
                if let Some(Some(conn)) = self.conns.get_mut(slot) {
                    conn.readable = true;
                }
            }
        }
        if self.fds[0].revents != 0 {
            EL_WAKEUPS.inc();
            let mut drain = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut drain), Ok(n) if n > 0) {}
        }
    }

    fn release_slot(&mut self, index: usize) {
        self.conns[index] = None;
        self.free.push(index);
        self.live -= 1;
        self.service.connections().fetch_sub(1, Ordering::Relaxed);
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let epoch = self.next_epoch;
                    self.next_epoch += 1;
                    let conn = Connection {
                        stream,
                        inbox: Inbox::default(),
                        out: Vec::new(),
                        busy: false,
                        // A client usually writes right after connecting:
                        // try the first read without waiting for a poll.
                        readable: true,
                        epoch,
                        last_reply: Instant::now(),
                        close_after_flush: false,
                    };
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.conns[slot] = Some(conn);
                    self.live += 1;
                    self.service.connections().fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Routes one finished job to its connection. Stale completions (the
    /// connection closed; the slot is empty or reused) are discarded — the
    /// handler's side effects (cache publish, counters) already happened and
    /// remain valid.
    fn apply_completion(&mut self, completion: Completion, stopping: bool) {
        let current = match self.conns.get_mut(completion.slot) {
            Some(Some(conn)) if conn.epoch == completion.epoch => conn,
            _ => return,
        };
        match completion.outcome {
            Outcome::Reply(bytes) => {
                if current.out.is_empty() {
                    current.out = bytes;
                } else {
                    current.out.extend_from_slice(&bytes);
                }
                current.busy = false;
                current.last_reply = Instant::now();
                self.busy = self.busy.saturating_sub(1);
                if stopping {
                    // Drain contract: the reply is delivered, then the
                    // connection closes instead of taking more requests.
                    current.close_after_flush = true;
                }
            }
            Outcome::Silent => {
                self.busy = self.busy.saturating_sub(1);
                self.release_slot(completion.slot);
            }
        }
    }

    /// One pass over a connection: read if ready, extract, dispatch, flush,
    /// then apply idle/drain policy. Returns false to close.
    fn sweep_conn(&mut self, index: usize, conn: &mut Connection, stopping: bool) -> bool {
        if !conn.busy && !conn.close_after_flush && !self.pump(index, conn) {
            return false;
        }
        if !flush(&conn.stream, &mut conn.out) {
            return false;
        }
        if conn.close_after_flush {
            return !conn.out.is_empty(); // keep only while undelivered bytes remain
        }
        if stopping && !conn.busy {
            if conn.out.is_empty() {
                return false;
            }
            conn.close_after_flush = true;
            return true;
        }
        if !conn.busy && conn.out.is_empty() && conn.last_reply.elapsed() > self.idle_timeout {
            return false;
        }
        true
    }

    /// Reads whatever the socket has (if the last poll said it has any),
    /// then extracts and dispatches at most one message (one in flight per
    /// connection). Returns false when the connection is gone.
    fn pump(&mut self, index: usize, conn: &mut Connection) -> bool {
        while conn.readable {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Client closed; any partial message is dropped.
                    return false;
                }
                Ok(n) => {
                    conn.inbox.push(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        conn.readable = false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => conn.readable = false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        while !conn.busy {
            match conn.inbox.next() {
                Ok(Some(message)) => self.dispatch_job(index, conn, message),
                Ok(None) => break, // incomplete message: wait for more bytes
                Err(error_reply) => {
                    // Framing is lost: answer and close.
                    self.service.framing_error();
                    conn.out.extend_from_slice(&error_reply);
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        true
    }

    fn dispatch_job(&mut self, index: usize, conn: &mut Connection, message: Message) {
        conn.busy = true;
        self.busy += 1;
        self.dispatched.push_back(Job { slot: index, epoch: conn.epoch, message });
    }
}

/// Writes `out` to the nonblocking `stream` until it is empty or the socket
/// pushes back, removing what was written. Returns false on a dead socket.
fn flush(mut stream: &TcpStream, out: &mut Vec<u8>) -> bool {
    while !out.is_empty() {
        match stream.write(out) {
            Ok(0) => return false,
            Ok(n) => {
                out.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    true
}

/// A core thread: takes jobs (leading the loop when it is free) until the
/// loop exits, answering each through the service under `catch_unwind`. A
/// panic anywhere in handling (injected or organic) is contained to
/// [`Service::panicked`]'s reply on the owning connection, and the thread's
/// service state is rebuilt, since the panic may have left it mid-update (a
/// backend connection half read). The unwind is safe to catch otherwise:
/// handlers hold no locks across the panic points, and all shared state is
/// atomics or lock-per-touch.
fn pool_thread<S: Service>(
    pool: &Pool<S>,
    completions: &Sender<Completion>,
    waker: &UnixStream,
    service: &S,
) {
    let mut worker = S::Worker::default();
    while let Some(Job { slot, epoch, message }) = pool.next_job() {
        let (wire, started) = (message.wire, Instant::now());
        let handled = catch_unwind(AssertUnwindSafe(|| service.handle(message, &mut worker)));
        let outcome = handled.unwrap_or_else(|_| {
            worker = S::Worker::default();
            service.panicked(wire, started)
        });
        if completions.send(Completion { slot, epoch, outcome }).is_err() {
            return;
        }
        wake(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// Echoes each line back; panics on `boom`, answers `slow` late.
    #[derive(Default)]
    struct Echo {
        stop: AtomicBool,
        connections: AtomicU64,
    }

    impl Service for Echo {
        type Worker = ();

        fn handle(&self, message: Message, (): &mut ()) -> Outcome {
            assert_ne!(message.raw(), b"boom\n", "injected handler fault");
            if message.raw() == b"slow\n" {
                std::thread::sleep(Duration::from_millis(100));
            }
            Outcome::Reply(message.into_raw())
        }

        fn stop_flag(&self) -> &AtomicBool {
            &self.stop
        }

        fn connections(&self) -> &AtomicU64 {
            &self.connections
        }
    }

    /// Every reply must come well inside the idle timeout: a completion the
    /// loop is never woken for would only surface when it expires.
    fn client(core: &Core<Echo>) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(core.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn line(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).expect("a reply before the read timeout");
        line
    }

    #[test]
    fn a_handler_panic_is_answered_and_the_connection_survives() {
        let service = Arc::new(Echo::default());
        let (core, exited) =
            spawn("127.0.0.1:0", Arc::clone(&service), 1, Duration::from_secs(60)).unwrap();
        let (stream, mut reader) = client(&core);
        let panic_reply = Reply::error("internal panic", true, None).encode(Wire::Json);
        for (request, expected) in
            [(&b"hi\n"[..], &b"hi\n"[..]), (b"boom\n", &panic_reply), (b"again\n", b"again\n")]
        {
            (&stream).write_all(request).unwrap();
            assert_eq!(line(&mut reader), expected);
        }
        assert_eq!(service.connections.load(Ordering::Relaxed), 1);

        // The drain closes the idle connection, the loop exits, and the
        // exit receiver disconnects.
        core.join();
        assert_eq!(service.connections.load(Ordering::Relaxed), 0);
        assert!(exited.recv().is_err(), "the loop's exit must disconnect the receiver");
    }

    #[test]
    fn pipelined_and_early_requests_are_answered_without_waiting_for_a_timeout() {
        let (core, _exited) =
            spawn("127.0.0.1:0", Arc::new(Echo::default()), 2, Duration::from_secs(60)).unwrap();
        let (stream, mut reader) = client(&core);
        // Two messages in one write: the second waits in the inbox, not in
        // the socket, so only a wake-up gets it cut once the first is done.
        (&stream).write_all(b"a\nb\n").unwrap();
        assert_eq!(line(&mut reader), b"a\n");
        assert_eq!(line(&mut reader), b"b\n");
        // A request sent while the previous one is still in flight waits
        // in the socket; the late answer's wake-up must get it read.
        (&stream).write_all(b"slow\n").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        (&stream).write_all(b"c\n").unwrap();
        assert_eq!(line(&mut reader), b"slow\n");
        assert_eq!(line(&mut reader), b"c\n");
        core.join();
    }
}
