//! The serving runtime: a leader/followers loop over [`sys::Poller`].
//!
//! `workers + 1` identical threads share one poll loop. Exactly one of
//! them, the *leader*, holds the poll role at a time: it waits for
//! readiness, reads a ready connection, serves every buffered frame
//! through `serve_buffered` **itself**, writes the reply and goes back
//! to waiting. A request never moves to another thread; only the *loop*
//! does. A resident point statement therefore costs three system calls
//! (`epoll_wait`, `read`, `write`), no wake-up and no `epoll_ctl`.
//!
//! The leader hands the loop to a parked peer — one condvar wake, after
//! taking the connection in hand out of the poller with one `epoll_ctl`
//! — in exactly two situations:
//!
//! * **the request is about to wait or run long.** The engine says so
//!   through [`immortaldb_common::blocking`] (lock wait, group-commit
//!   barrier, fsync, a page miss the OS page cache cannot serve, scan,
//!   checkpoint, …) and
//!   `on_engine_signal` gives the role away before the thread parks.
//!   A pipelined burst longer than `INLINE_FRAMES` counts as long.
//! * **the poll batch holds other ready connections and a CPU is free**
//!   to serve them in parallel (`threads − parked < CPUs`): the role goes
//!   on *before* the request runs. On one CPU this never fires; on more
//!   it keeps short requests from serialising onto one core.
//!
//! Either way the old leader finishes its request as a follower, puts the
//! connection back into the poller itself (`rearm`) and parks; the rest
//! of its poll batch is dropped — the poller is level-triggered, so the
//! new leader is told again.
//!
//! The last unparked thread never executes: with no peer to take the loop
//! over it would stall on the first wait. It leaves the frames buffered,
//! takes the connection out of the poller and puts it on the *ready
//! queue*, which every finishing thread drains before it competes for the
//! role again. So `workers` requests may block at once, the loop never
//! stalls, and what exceeds `max_inflight` is answered SERVER_BUSY per
//! frame without being decoded (`server.shed_requests`); beyond
//! `max_connections` new sockets get one SERVER_BUSY frame carrying a
//! `retry_after_ms` hint and are closed.
//!
//! A connection is either in the poller (the leader owns it) or out of it
//! (`Interest::None`: the thread serving it owns it, or it waits on the
//! ready queue). The loop never blocks on a connection's mutex —
//! `try_lock` and skip; level-triggered polling retries.
//!
//! Backpressure is per session: a connection whose reply backlog passes
//! `OUT_CAP` stops being read until the peer drains it, and a result
//! set larger than that is produced only as fast as the peer takes it —
//! its rows are encoded into the backlog in `ROW_CHUNK`-sized frames
//! and the scan pauses between frames, on its own thread, while the
//! backlog is at the cap (`crate::server::Wire::drain`). Idle sessions
//! are reaped from a coarse timer wheel advanced on the leader's tick —
//! an abandoned transaction is rolled back (releasing its locks) within
//! one tick of the deadline. A `SUBSCRIBE_WAL` connection is a result
//! that never ends: each of its turns is one shipping step
//! (`Subscription::ship`) run like a request, when its last batch has
//! left, when an ack arrives, and on every tick once it has caught up —
//! so a replica costs no thread, goes at its own reader's pace, and meets
//! the idle rule and shutdown like any other connection.

use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use immortaldb::{Database, Session};
use immortaldb_common::blocking::{self, Cause};
use immortaldb_common::{Error, Result};

use crate::proto::{FrameBuffer, Reply, Request, VERSION};
use crate::server::{busy, handle_request, ServerConfig, Subscription, Wire};
use crate::sys::{self, Interest};

const TOK_WAKER: u64 = 0;
const TOK_LISTENER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Reply bytes a connection may buffer before the loop stops reading
/// from it (per-session backpressure ahead of the group-commit barrier)
/// and a result set in mid-stream waits for the peer.
pub(crate) const OUT_CAP: usize = 4 * 1024 * 1024;

/// Bytes of rows after which a result set's frame is closed and its scan
/// paused: what a scan holds of its result at a time, and with one row
/// the most a `ROWS` frame carries.
pub(crate) const ROW_CHUNK: usize = 64 * 1024;

/// Max bytes read from one socket per readiness event (fairness bound).
const READ_BURST: usize = 256 * 1024;

/// Bytes asked of the socket per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Frames of one burst the leader serves before it treats the rest as
/// long work and hands the loop on (a historical read is three).
const INLINE_FRAMES: usize = 4;

/// Per-connection state, behind a mutex held by whichever thread owns
/// the connection right now (see the module docs).
struct Conn {
    token: u64,
    stream: TcpStream,
    frames: FrameBuffer,
    /// Unflushed reply bytes (encoded frames).
    out: Vec<u8>,
    /// The connection's SQL session id (`Database::new_session_id`).
    session: u64,
    /// Open transaction parked between requests.
    txn: Option<immortaldb::Transaction>,
    greeted: bool,
    last_activity: Instant,
    /// Close as soon as `out` flushes; no further reads or requests.
    closing: bool,
    /// Peer sent FIN: serve what is buffered, then close.
    eof: bool,
    /// Set by SUBSCRIBE_WAL: from then on the connection ships the log.
    sub: Option<Subscription>,
    /// The poller registration; `Interest::None` = not registered.
    interest: Interest,
}

type ConnRef = Arc<Mutex<Conn>>;

impl Conn {
    fn flush(&mut self) -> std::io::Result<bool> {
        flush_out(&self.stream, &mut self.out)
    }

    /// What the poller should watch once the connection is back with the
    /// loop. Whatever only the leader can finish (close, a subscription's
    /// next batch) asks for writability, which an idle socket reports at
    /// once.
    fn desired_interest(&self) -> Interest {
        let shipping = self.sub.as_ref().is_some_and(|s| !s.caught_up());
        if self.closing || self.eof || (shipping && self.out.is_empty()) {
            Interest::Write
        } else if self.out.is_empty() {
            Interest::Read
        } else if self.out.len() >= OUT_CAP {
            Interest::Write
        } else {
            Interest::Both
        }
    }
}

/// Write as much of `out` as the socket accepts right now.
/// `Ok(true)` = fully flushed, `Ok(false)` = kernel buffer full.
pub(crate) fn flush_out(mut stream: &TcpStream, out: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut sent = 0;
    let res = loop {
        if sent == out.len() {
            break Ok(true);
        }
        match stream.write(&out[sent..]) {
            Ok(0) => break Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    // Nothing moves on the usual full flush; only a full kernel buffer
    // pays for shifting the unsent tail down.
    if sent == out.len() {
        out.clear();
    } else {
        out.drain(..sent);
    }
    res
}

/// Move a connection's poller registration to `want`.
fn arm(poller: &sys::Poller, c: &mut Conn, want: Interest) {
    if want == c.interest {
        return;
    }
    let fd = c.stream.as_raw_fd();
    // Deregistering, not masking: hang-up and error cannot be masked, and
    // a reset on a connection some thread is blocked on would otherwise
    // be re-reported for as long as the wait lasts. A failed call leaves
    // the connection to the idle reaper.
    let _ = match (c.interest, want) {
        (Interest::None, _) => poller.add(fd, c.token, want),
        (_, Interest::None) => poller.delete(fd),
        _ => poller.modify(fd, c.token, want),
    };
    c.interest = want;
}

/// What the threads take turns at, under one mutex so that "is a peer
/// parked?" and "is a connection waiting?" cannot disagree.
struct Turn {
    /// The poll role, while no thread holds it.
    role: Option<Box<Loop>>,
    /// Connections with buffered requests that arrived while every other
    /// thread was executing.
    ready: VecDeque<ConnRef>,
    /// Threads parked in [`Shared::next_turn`].
    parked: usize,
}

/// State shared by the serving threads and the [`Server`] handle.
struct Shared {
    db: Arc<Database>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    poller: sys::Poller,
    /// Wakes the leader out of its poll at shutdown.
    waker: sys::Waker,
    /// CPUs this process may run on, at most one per serving thread;
    /// sampled at start.
    cpus: usize,
    turn: Mutex<Turn>,
    turn_cv: Condvar,
    /// Copy of `Turn::parked` the leader reads without the mutex.
    parked: AtomicUsize,
    /// Connections with requests executing or queued (admission gauge).
    inflight: AtomicUsize,
}

enum Work {
    Lead(Box<Loop>),
    Serve(ConnRef),
}

impl Shared {
    fn max_inflight(&self) -> usize {
        if self.cfg.max_inflight == 0 {
            self.cfg.workers * 16
        } else {
            self.cfg.max_inflight
        }
    }

    fn admit(&self) {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.db.metrics().server.active_sessions.set(now as u64);
    }

    fn release(&self) {
        let now = self.inflight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.db.metrics().server.active_sessions.set(now as u64);
    }

    /// What a thread with nothing in hand does next: a queued connection
    /// first, else the poll role if it is free, else park. `None` once the
    /// server is shutting down and the queue is drained.
    fn next_turn(&self) -> Option<Work> {
        let mut t = self.turn.lock().expect("turn mutex");
        loop {
            if let Some(conn) = t.ready.pop_front() {
                let depth = t.ready.len() as u64;
                self.db.metrics().server.ready_queue_depth.set(depth);
                return Some(Work::Serve(conn));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(lp) = t.role.take() {
                return Some(Work::Lead(lp));
            }
            t.parked += 1;
            self.parked.store(t.parked, Ordering::SeqCst);
            t = self.turn_cv.wait(t).expect("turn mutex");
            t.parked -= 1;
            self.parked.store(t.parked, Ordering::SeqCst);
        }
    }
}

thread_local! {
    /// The poll role, kept here while its holder serves a request inline
    /// so that `on_engine_signal` can give it away from inside the
    /// engine. Empty on a thread that does not hold the role.
    static HELD: Cell<Option<Box<Loop>>> = const { Cell::new(None) };
}

fn holds_role() -> bool {
    let held = HELD.take();
    let holds = held.is_some();
    HELD.set(held);
    holds
}

/// Put the poll role up for the next thread and wake one parked peer.
fn hand_on(lp: Box<Loop>) {
    let sh = Arc::clone(&lp.sh);
    sh.turn.lock().expect("turn mutex").role = Some(lp);
    sh.turn_cv.notify_one();
}

/// The engine's [`blocking`] hook on serving threads: the request in hand
/// is about to wait or run long. If this thread holds the poll role, take
/// the connection out of the poller and hand the loop on.
fn on_engine_signal(cause: Cause) {
    let Some(lp) = HELD.take() else { return };
    let _ = lp.sh.poller.delete(lp.serving);
    let m = &lp.sh.db.metrics().server;
    match cause {
        Cause::Wait => m.loop_handoffs_wait.inc(),
        Cause::Long => m.loop_handoffs_long.inc(),
    }
    hand_on(lp);
}

/// A running wire-protocol server. Dropping it without calling
/// [`Server::shutdown`] leaves its threads running (the test harness
/// should always shut down).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving on `cfg.workers + 1` threads.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = sys::Poller::new().map_err(Error::Io)?;
        let waker = sys::Waker::new().map_err(Error::Io)?;
        poller
            .add(waker.fd(), TOK_WAKER, Interest::Read)
            .map_err(Error::Io)?;
        poller
            .add(listener.as_raw_fd(), TOK_LISTENER, Interest::Read)
            .map_err(Error::Io)?;

        let threads = cfg.workers + 1;
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            db,
            cfg,
            shutdown: AtomicBool::new(false),
            poller,
            waker,
            cpus: cpus.min(threads),
            turn: Mutex::new(Turn {
                role: None,
                ready: VecDeque::new(),
                parked: 0,
            }),
            turn_cv: Condvar::new(),
            parked: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
        });
        let lp = Loop::new(Arc::clone(&shared), listener);
        shared.turn.lock().expect("turn mutex").role = Some(lp);

        let handles = (0..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("imdb-serve-{i}"))
                    .spawn(move || serve_thread(&sh))
                    .map_err(Error::Io)
            })
            .collect::<Result<Vec<_>>>()?;

        Ok(Server {
            shared,
            local_addr,
            threads: handles,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop polling, let every thread finish the
    /// request it is executing and drain the ready queue (in-flight
    /// commits finish and their replies flush), roll back abandoned
    /// transactions, then close the database — the final WAL force. The
    /// store is cleanly recoverable afterwards: reopening it replays no
    /// log and does not count as a crash recovery.
    pub fn shutdown(mut self) -> Result<()> {
        let sh = &self.shared;
        // Under the mutex, so no thread parks between its check of the
        // flag and the notify.
        {
            let _t = sh.turn.lock().expect("turn mutex");
            sh.shutdown.store(true, Ordering::SeqCst);
        }
        sh.turn_cv.notify_all();
        sh.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Abandon whatever connections remain: locks and uncommitted
        // versions must not outlive the server.
        let lp = sh.turn.lock().expect("turn mutex").role.take();
        let m = &sh.db.metrics().server;
        for (_, conn) in lp.into_iter().flat_map(|lp| lp.conns) {
            let mut c = conn.lock().unwrap_or_else(|e| e.into_inner());
            let _ = c.flush();
            if let Some(mut txn) = c.txn.take() {
                let _ = sh.db.rollback(&mut txn);
            }
            m.connections_closed.inc();
        }
        m.open_connections.set(0);
        sh.db.close()
    }
}

fn serve_thread(sh: &Arc<Shared>) {
    blocking::set_thread_hook(on_engine_signal);
    while let Some(work) = sh.next_turn() {
        match work {
            Work::Lead(lp) => lp.lead(),
            Work::Serve(conn) => {
                let mut c = conn.lock().expect("connection mutex");
                serve_buffered(sh, &mut c);
                rearm(sh, c);
            }
        }
    }
}

/// A thread that does not hold the poll role is done with `c`, which is
/// out of the poller: flush what the socket takes and put the connection
/// back in. Closing is the leader's; the interest asked for brings the
/// connection to its attention.
fn rearm(sh: &Shared, mut c: MutexGuard<'_, Conn>) {
    if c.flush().is_err() {
        c.closing = true;
    }
    // A result streamed to a slow reader may have taken any length of
    // time: idleness counts from its end.
    c.last_activity = Instant::now();
    sh.release();
    let (fd, token, want) = (c.stream.as_raw_fd(), c.token, c.desired_interest());
    c.interest = want;
    // Unlock, then register. The client may have answered the reply
    // already, so the leader can be told the moment the socket is back;
    // were the mutex still held it would skip the event and be told again
    // and again, spinning against the very thread that has to let go — on
    // one CPU, for that thread's whole wait to be scheduled. Nothing can
    // take the descriptor away in between: the caller still holds the
    // connection.
    drop(c);
    let _ = sh.poller.add(fd, token, want);
}

/// Drain every complete frame buffered on a connection through its
/// session, appending replies to `out`: HELLO gating, version check,
/// hostile-framing hangup, SUBSCRIBE_WAL interception. Each request is
/// decoded where it lies in the frame buffer and answered straight into
/// the output buffer — a result set row by row as its cursor moves, this
/// thread waiting out a client slower than the scan. A subscription's
/// turn is one shipping step instead.
fn serve_buffered(sh: &Shared, c: &mut Conn) {
    let db = sh.db.as_ref();
    if let Some(sub) = &mut c.sub {
        if sub.ship(db, &mut c.frames, &mut c.out).is_err() {
            c.closing = true;
        }
        return;
    }
    let m = &db.metrics().server;
    let Conn {
        stream,
        frames,
        out,
        session: id,
        txn,
        greeted,
        closing,
        sub,
        ..
    } = c;
    let mut wire = Wire {
        out,
        stream,
        shutdown: &sh.shutdown,
        cfg: &sh.cfg,
        broken: false,
    };
    let mut session = Session::attach(db, *id, txn.take());
    let mut served = 0;
    while !*closing && sub.is_none() {
        let frame = frames.take_frame(|opcode, payload| {
            m.requests.inc();
            let timer = m.request_ns.start_timer();
            // A reply that ends the conversation: answer, then hang up —
            // the stream state is untrustworthy.
            let mut refuse = |e: Error, txn_open: bool| {
                *closing = true;
                Reply::from_error(&e, txn_open)
            };
            // `None`: the reply, a result set, is in the buffer already.
            let reply = match Request::decode(opcode, payload) {
                Ok(Request::Hello { version }) if !*greeted => Some(if version == VERSION {
                    *greeted = true;
                    Reply::Ok {
                        txn_open: false,
                        ts: None,
                        affected: 0,
                        message: format!("immortaldb protocol {VERSION}").into(),
                    }
                } else {
                    refuse(
                        Error::Sql(format!(
                            "protocol version mismatch: client {version}, server {VERSION}"
                        )),
                        false,
                    )
                }),
                Ok(_) if !*greeted => {
                    Some(refuse(Error::Sql("expected HELLO first".into()), false))
                }
                Ok(Request::SubscribeWal { from_lsn }) => {
                    // The first batch is the next turn's, so the leader
                    // sees the subscription before it ships anything.
                    *sub = Some(Subscription::new(from_lsn));
                    return;
                }
                Ok(req) => handle_request(db, &mut session, req, &mut wire),
                Err(e) => Some(refuse(e, session.in_transaction())),
            };
            timer.stop();
            if let Some(reply) = reply {
                if matches!(reply, Reply::Error { .. }) {
                    m.errors.inc();
                }
                reply.encode_into(wire.out);
            }
            if holds_role() {
                m.requests_inline.inc();
            }
        });
        match frame {
            Ok(Some(())) => {}
            Ok(None) => break,
            // Hostile framing: hang up without a reply.
            Err(_) => *closing = true,
        }
        if wire.broken {
            // Mid-result, the socket failed or its peer stopped reading.
            // Let go of what the session holds now, and shut the socket
            // so the loop is told to close it even though it will never
            // turn writable.
            session.reset();
            wire.out.clear();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            *closing = true;
        }
        served += 1;
        if served == INLINE_FRAMES && frames.has_complete_frame().unwrap_or(false) {
            on_engine_signal(Cause::Long);
        }
    }
    *txn = session.into_txn();
}

/// Coarse hashed timer wheel advanced once per tick. Deadlines are lazy:
/// expiry re-checks `last_activity` and reschedules the remainder, so
/// activity never has to remove a timer.
struct TimerWheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
}

impl TimerWheel {
    fn new(idle_timeout: Duration, tick: Duration) -> TimerWheel {
        let n = (idle_timeout.as_millis() / tick.as_millis().max(1)) as usize + 2;
        TimerWheel {
            slots: vec![Vec::new(); n],
            cursor: 0,
        }
    }

    fn schedule(&mut self, token: u64, delay_ticks: usize) {
        let n = self.slots.len();
        let d = delay_ticks.clamp(1, n - 1);
        let slot = (self.cursor + d) % n;
        self.slots[slot].push(token);
    }

    fn advance(&mut self) -> Vec<u64> {
        self.cursor = (self.cursor + 1) % self.slots.len();
        std::mem::take(&mut self.slots[self.cursor])
    }
}

/// The poll role: everything only the leader touches. It is *moved* from
/// thread to thread through [`Turn::role`], never locked, so a leader
/// that blocks after handing it on holds nothing the next one needs.
struct Loop {
    sh: Arc<Shared>,
    listener: TcpListener,
    conns: HashMap<u64, ConnRef>,
    /// The subscriptions among `conns`: the only connections a tick visits.
    subs: HashSet<u64>,
    next_token: u64,
    wheel: TimerWheel,
    idle_ticks: usize,
    next_tick: Instant,
    events: Vec<sys::Event>,
    /// Where socket reads land before the frame buffer takes them.
    scratch: Vec<u8>,
    /// Socket of the connection being served inline, for the hook.
    serving: RawFd,
}

impl Loop {
    fn new(sh: Arc<Shared>, listener: TcpListener) -> Box<Loop> {
        let tick = sh.cfg.tick;
        let idle = sh.cfg.idle_timeout;
        Box::new(Loop {
            wheel: TimerWheel::new(idle, tick),
            idle_ticks: (idle.as_millis() / tick.as_millis().max(1)) as usize + 1,
            next_tick: Instant::now() + tick,
            serving: -1,
            sh,
            listener,
            conns: HashMap::new(),
            subs: HashSet::new(),
            next_token: FIRST_CONN_TOKEN,
            events: Vec::new(),
            scratch: vec![0; READ_CHUNK],
        })
    }

    /// Poll and serve until the role goes to another thread (this thread
    /// has then finished its request as a follower) or the server stops.
    fn lead(mut self: Box<Self>) {
        loop {
            if self.sh.shutdown.load(Ordering::SeqCst) {
                return hand_on(self);
            }
            let timeout = self.next_tick.saturating_duration_since(Instant::now());
            let mut batch = std::mem::take(&mut self.events);
            self.sh
                .poller
                .wait(&mut batch, Some(timeout))
                .expect("waiting on the server's own poller");
            if self.sh.shutdown.load(Ordering::SeqCst) {
                return hand_on(self);
            }
            for (i, ev) in batch.iter().enumerate() {
                match ev.token {
                    TOK_WAKER => self.sh.waker.drain(),
                    TOK_LISTENER => self.accept_ready(),
                    token => {
                        let more_ready = batch[i + 1..].iter().any(|e| e.token >= FIRST_CONN_TOKEN);
                        match self.conn_event(token, ev, more_ready) {
                            Some(lp) => self = lp,
                            // Handed on mid-batch: the rest is the new
                            // leader's, who is told again.
                            None => return,
                        }
                    }
                }
            }
            self.events = batch;
            let now = Instant::now();
            while now >= self.next_tick {
                self.advance_timers();
                self.tick_subscriptions();
                self.next_tick += self.sh.cfg.tick;
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let m = &self.sh.db.metrics().server;
            m.connections_accepted.inc();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.conns.len() >= self.sh.cfg.max_connections {
                // One frame, which a fresh socket takes whole; dropping
                // the stream closes it.
                m.shed_connections.inc();
                let mut frame = Vec::new();
                busy(false).encode_into(&mut frame);
                let _ = flush_out(&stream, &mut frame);
                continue;
            }
            // Replies must not sit in Nagle's buffer waiting for ACKs.
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            if self
                .sh
                .poller
                .add(stream.as_raw_fd(), token, Interest::Read)
                .is_err()
            {
                continue;
            }
            self.next_token += 1;
            let conn = Arc::new(Mutex::new(Conn {
                token,
                stream,
                frames: FrameBuffer::new(),
                out: Vec::new(),
                session: self.sh.db.new_session_id(),
                txn: None,
                greeted: false,
                last_activity: Instant::now(),
                closing: false,
                eof: false,
                sub: None,
                interest: Interest::Read,
            }));
            self.conns.insert(token, conn);
            m.open_connections.set(self.conns.len() as u64);
            self.wheel.schedule(token, self.idle_ticks);
        }
    }

    /// One readiness event on a connection. Returns the role unless it
    /// went to another thread while the connection's requests ran.
    fn conn_event(
        mut self: Box<Self>,
        token: u64,
        ev: &sys::Event,
        more_ready: bool,
    ) -> Option<Box<Self>> {
        let Some(conn) = self.conns.get(&token).map(Arc::clone) else {
            return Some(self);
        };
        // Only the leader locks a connection that is in the poller, so
        // this fails at most for an event reported before the connection
        // left it. Never wait here: the holder may be in a lock wait.
        let Ok(mut c) = conn.try_lock() else {
            return Some(self);
        };
        if c.interest == Interest::None {
            return Some(self); // reported before it left the poller
        }
        if ev.writable || (c.closing && ev.closed) {
            // A backlog the peer takes from is not idle.
            let unsent = c.out.len();
            let flushed = c.flush();
            if c.out.len() < unsent {
                c.last_activity = Instant::now();
            }
            match flushed {
                Ok(true) if c.closing || (c.eof && c.frames.buffered() == 0) => {
                    self.close_conn(&mut c);
                    return Some(self);
                }
                Ok(_) => {}
                Err(_) => {
                    self.close_conn(&mut c);
                    return Some(self);
                }
            }
        }
        if ev.readable && !c.closing {
            let mut total = 0;
            loop {
                match (&c.stream).read(&mut self.scratch) {
                    Ok(0) => {
                        c.eof = true;
                        break;
                    }
                    Ok(n) => {
                        c.frames.extend(&self.scratch[..n]);
                        total += n;
                        // A short read emptied the socket, and past the
                        // burst others get their turn; either way the
                        // level-triggered poller reports what is left.
                        if n < self.scratch.len() || total >= READ_BURST {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.eof = true;
                        break;
                    }
                }
            }
            if total > 0 {
                c.last_activity = Instant::now();
            }
        } else if ev.closed && !ev.readable {
            c.eof = true;
        }
        self.settle(&conn, c, more_ready)
    }

    /// Decide the fate of a connection the leader holds: run or shed its
    /// requests or its shipping step, close it, or update its interest.
    fn settle(
        mut self: Box<Self>,
        conn: &ConnRef,
        mut c: MutexGuard<'_, Conn>,
        more_ready: bool,
    ) -> Option<Box<Self>> {
        let has_frame = match c.frames.has_complete_frame() {
            Ok(b) => b,
            // Hostile framing noticed before any work was scheduled.
            Err(_) => {
                self.close_conn(&mut c);
                return Some(self);
            }
        };
        let due = match c.sub {
            None => has_frame,
            // Acks to take, or room for the next batch.
            Some(_) => {
                self.subs.insert(c.token);
                !c.eof && (has_frame || c.out.is_empty())
            }
        };
        if due && !c.closing {
            if self.sh.inflight.load(Ordering::SeqCst) < self.sh.max_inflight() {
                (self, c) = self.run(conn, c, more_ready)?;
                if c.interest == Interest::None {
                    return Some(self); // queued: a finishing thread has it
                }
            } else if c.sub.is_none() {
                self.shed_requests(&mut c);
            } else {
                // A subscription over the cap waits for the next tick.
                arm(&self.sh.poller, &mut c, Interest::Read);
                return Some(self);
            }
        }
        // A subscriber that hangs up has nothing more to say.
        let has_frame = c.sub.is_none() && c.frames.has_complete_frame().unwrap_or(false);
        if c.flush().is_err() || ((c.closing || (c.eof && !has_frame)) && c.out.is_empty()) {
            self.close_conn(&mut c);
        } else {
            let want = c.desired_interest();
            arm(&self.sh.poller, &mut c, want);
        }
        Some(self)
    }

    /// Serve the requests buffered on `c`, on this thread, under the
    /// hand-off rules of the module docs — or, as the last unparked
    /// thread, queue the connection (leaving it out of the poller).
    /// Returns the role and the connection if this thread still holds
    /// them; if not, the connection is already back in the poller and the
    /// caller has nothing left to do.
    fn run<'c>(
        mut self: Box<Self>,
        conn: &ConnRef,
        mut c: MutexGuard<'c, Conn>,
        more_ready: bool,
    ) -> Option<(Box<Self>, MutexGuard<'c, Conn>)> {
        let sh = Arc::clone(&self.sh);
        c.last_activity = Instant::now();
        sh.admit();
        let parked = sh.parked.load(Ordering::SeqCst);
        if parked == 0 {
            // Every other thread is executing. Decide under the mutex: a
            // peer that parks first is seen here, one that parks after
            // sees the queue.
            let mut t = sh.turn.lock().expect("turn mutex");
            if t.parked == 0 {
                arm(&sh.poller, &mut c, Interest::None);
                t.ready.push_back(Arc::clone(conn));
                let depth = t.ready.len() as u64;
                sh.db.metrics().server.ready_queue_depth.set(depth);
                return Some((self, c));
            }
        }
        // Threads not parked are running: this one and the followers.
        if more_ready && sh.cfg.workers + 1 - parked < sh.cpus {
            arm(&sh.poller, &mut c, Interest::None);
            sh.db.metrics().server.loop_handoffs_batch.inc();
            hand_on(self);
            serve_buffered(&sh, &mut c);
            rearm(&sh, c);
            return None;
        }
        self.serving = c.stream.as_raw_fd();
        HELD.set(Some(self));
        serve_buffered(&sh, &mut c);
        match HELD.take() {
            Some(lp) => {
                sh.release();
                Some((lp, c))
            }
            None => {
                // `on_engine_signal` took the socket out of the poller.
                c.interest = Interest::None;
                rearm(&sh, c);
                None
            }
        }
    }

    /// Over the in-flight cap: answer every buffered frame SERVER_BUSY
    /// (with the retry hint) without decoding or scheduling anything.
    fn shed_requests(&self, c: &mut Conn) {
        let m = &self.sh.db.metrics().server;
        let busy = busy(c.txn.is_some());
        loop {
            match c.frames.take_frame(|_, _| ()) {
                Ok(Some(())) => {
                    m.shed_requests.inc();
                    busy.encode_into(&mut c.out);
                }
                Ok(None) => break,
                Err(_) => {
                    c.closing = true;
                    break;
                }
            }
        }
    }

    /// Forget a connection the leader holds; the socket closes when the
    /// caller lets go of it.
    fn close_conn(&mut self, c: &mut Conn) {
        self.conns.remove(&c.token);
        self.subs.remove(&c.token);
        arm(&self.sh.poller, c, Interest::None);
        if let Some(mut txn) = c.txn.take() {
            let _ = self.sh.db.rollback(&mut txn);
        }
        let m = &self.sh.db.metrics().server;
        m.connections_closed.inc();
        m.open_connections.set(self.conns.len() as u64);
    }

    /// Each tick, a caught-up subscription looks again for new log and a
    /// moved horizon: asking for writability brings it to the next poll.
    fn tick_subscriptions(&mut self) {
        for conn in self.subs.iter().filter_map(|t| self.conns.get(t)) {
            if let Ok(mut c) = conn.try_lock() {
                if c.interest == Interest::Read {
                    arm(&self.sh.poller, &mut c, Interest::Write);
                }
            }
        }
    }

    /// One tick: expire due timers. Deadlines are lazy — a timer firing
    /// for a recently-active connection just reschedules the remainder.
    fn advance_timers(&mut self) {
        let due = self.wheel.advance();
        let idle_timeout = self.sh.cfg.idle_timeout;
        let tick_ms = self.sh.cfg.tick.as_millis().max(1);
        for token in due {
            let Some(conn) = self.conns.get(&token).map(Arc::clone) else {
                continue;
            };
            // A connection some thread is serving, or one waiting on the
            // ready queue, is by definition not idle.
            let mut c = match conn.try_lock() {
                Ok(c) if c.interest != Interest::None => c,
                _ => {
                    self.wheel.schedule(token, self.idle_ticks);
                    continue;
                }
            };
            let idle = c.last_activity.elapsed();
            if idle >= idle_timeout {
                if c.txn.is_some() {
                    self.sh.db.metrics().server.idle_rollbacks.inc();
                }
                self.close_conn(&mut c);
            } else {
                let remaining = idle_timeout - idle;
                let ticks = (remaining.as_millis() / tick_ms) as usize + 1;
                self.wheel.schedule(token, ticks);
            }
        }
    }
}
