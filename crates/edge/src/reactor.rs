//! [`ReactorBus`]: the poll-based edge daemon — a drain-then-sleep I/O
//! loop and a session broker around the shared
//! [`DriverCore`].
//!
//! One reactor thread multiplexes three event sources over a single
//! **non-blocking** UDP socket (`set_nonblocking(true)` + a
//! readiness/poll loop — no thread ever parks in `recv`):
//!
//! 1. the socket — peer frames (`IBUS`) and thin-client session frames
//!    (`IBSS`) share the port and are dispatched on the leading magic;
//! 2. the core's engine deadlines (batch flush, NAK scan,
//!    guaranteed-delivery retry, digests) and soft-state refresh;
//! 3. the [`SessionBroker`] freshness scan (heartbeat eviction).
//!
//! Where the blocking [`UdpBus`](infobus_net::UdpBus) parks its reader
//! in `recv` for up to a read-slice, the reactor *drains* the socket to
//! `WouldBlock`, fires whatever is due, and only then sleeps one short
//! poll interval if nothing happened. That shape is what lets a single
//! thread host tens of thousands of thin-client sessions: per-session
//! cost is a map entry and a cursor, never a thread or a blocking call.
//!
//! Everything that is not I/O — trie, publish gate, fan-out, peer
//! tables, announcements, timers, ledger — is the core's. Sessions plug
//! into it as its [`LocalInterest`]: fan-out crosses into the broker so
//! sessions receive cursor-stamped [`Deliver`](SessionFrame::Deliver)
//! frames, and session [`Publish`](SessionFrame::Publish) frames (fan-in)
//! enter the core's publish tail exactly like local API publishes.
//!
//! Lock order extends the core's: `engine → core locks → {broker,
//! conns}`; neither session lock is ever held while taking the engine
//! lock.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use infobus_core::engine::{BusStats, Engine, Micros, PubSource};
use infobus_core::{
    Bus, BusConfig, BusError, BusReceiver, Envelope, Predicate, QoS, SubscriptionHandle,
};
use infobus_net::clock::MonoClock;
use infobus_net::driver::{net_err, poisoned, CoreSetup, DatagramSink, DriverCore, LocalInterest};
use infobus_subject::Subject;
use infobus_types::Value;

use crate::broker::{ConnId, SessOut, SessionBroker};
use crate::session::{decode_session_frame, encode_session_frame, is_session_frame, SessionFrame};

/// How long the reactor sleeps when a poll iteration found no work.
/// Short enough that timers and freshly armed deadlines fire promptly;
/// long enough that an idle daemon costs ~no CPU.
const POLL_IDLE: Duration = Duration::from_micros(500);

/// Configuration for a [`ReactorBus`] (builder style).
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Protocol configuration handed to the engine (the session knobs —
    /// [`BusConfig::session_timeout_us`],
    /// [`BusConfig::heartbeat_period_us`],
    /// [`BusConfig::session_cursor_lag`] — configure the broker).
    pub bus: BusConfig,
    /// This daemon's host id on the bus (must be unique per segment).
    pub host: u32,
    /// Socket bind address. Defaults to `127.0.0.1:0`.
    pub bind: SocketAddr,
    /// Application name local API publications are attributed to.
    pub app: String,
    /// Statically known peers (`host → address`). More are learned from
    /// inbound peer frames.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Capability token a session [`Hello`](SessionFrame::Hello) must
    /// present. Defaults to 0 ("no secret" — still checked).
    pub session_token: u64,
    /// Probability in `[0, 1)` of dropping an inbound datagram before
    /// decoding — deterministic per [`EdgeConfig::loss_seed`]; NAK-repair
    /// tests inject loss here, as loopback never loses packets.
    pub recv_loss: f64,
    /// Seed for the receive-loss RNG.
    pub loss_seed: u64,
}

impl EdgeConfig {
    /// Default configuration for host id `host`.
    pub fn new(host: u32) -> EdgeConfig {
        EdgeConfig {
            bus: BusConfig::default(),
            host,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            app: "edge".into(),
            peers: Vec::new(),
            session_token: 0,
            recv_loss: 0.0,
            loss_seed: 1,
        }
    }

    /// Sets the protocol configuration.
    pub fn with_bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// Sets the socket bind address.
    pub fn with_bind(mut self, bind: SocketAddr) -> Self {
        self.bind = bind;
        self
    }

    /// Sets the application name publications are attributed to.
    pub fn with_app(mut self, app: &str) -> Self {
        self.app = app.into();
        self
    }

    /// Adds a statically known peer.
    pub fn with_peer(mut self, host: u32, addr: SocketAddr) -> Self {
        self.peers.push((host, addr));
        self
    }

    /// Sets the session capability token.
    pub fn with_session_token(mut self, token: u64) -> Self {
        self.session_token = token;
        self
    }

    /// Injects seeded inbound loss (see [`EdgeConfig::recv_loss`]).
    pub fn with_recv_loss(mut self, loss: f64, seed: u64) -> Self {
        self.recv_loss = loss;
        self.loss_seed = seed;
        self
    }
}

/// The send policy of the reactor: non-blocking. A full send buffer
/// (`WouldBlock`) counts `net_send_retries` and drops the datagram — NAK
/// repair and guaranteed-delivery rounds recover; a reactor never sleeps
/// in a send.
struct NonBlockingSink {
    socket: UdpSocket,
}

impl DatagramSink for NonBlockingSink {
    fn send_datagram(&self, addr: SocketAddr, bytes: &[u8], stats: &mut BusStats) {
        match self.socket.send_to(bytes, addr) {
            Ok(n) => {
                stats.net_tx_packets += 1;
                stats.net_tx_bytes += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stats.net_send_retries += 1;
            }
            Err(_) => stats.net_send_errors += 1,
        }
    }
}

#[derive(Default)]
struct ConnTable {
    by_addr: HashMap<SocketAddr, ConnId>,
    by_conn: HashMap<ConnId, SocketAddr>,
    next: u64,
}

impl ConnTable {
    fn conn_for(&mut self, addr: SocketAddr) -> ConnId {
        if let Some(&c) = self.by_addr.get(&addr) {
            return c;
        }
        self.next += 1;
        let c = ConnId(self.next);
        self.by_addr.insert(addr, c);
        self.by_conn.insert(c, addr);
        c
    }

    fn addr_of(&self, conn: ConnId) -> Option<SocketAddr> {
        self.by_conn.get(&conn).copied()
    }

    fn forget(&mut self, conn: ConnId) {
        if let Some(addr) = self.by_conn.remove(&conn) {
            self.by_addr.remove(&addr);
        }
    }
}

/// Thin-client sessions as the core's [`LocalInterest`]: the broker,
/// plus the transport mappings (`addr ↔ conn`) it never sees — it only
/// knows the opaque [`ConnId`].
struct Sessions {
    broker: Mutex<SessionBroker>,
    conns: Mutex<ConnTable>,
}

impl Sessions {
    fn send_frame(
        &self,
        sink: &impl DatagramSink,
        conn: ConnId,
        frame: &SessionFrame,
        stats: &mut BusStats,
    ) {
        let Some(addr) = poisoned(self.conns.lock()).addr_of(conn) else {
            stats.net_send_errors += 1;
            return;
        };
        sink.send_datagram(addr, &encode_session_frame(frame), stats);
    }
}

impl LocalInterest for Sessions {
    fn announced_filters(&self) -> Vec<String> {
        poisoned(self.broker.lock()).filters()
    }

    fn earliest_matching_sub(&self, subject: &Subject) -> Option<Micros> {
        poisoned(self.broker.lock()).earliest_matching_sub(subject)
    }

    /// The broker stamps cursors, applies backpressure, and gates
    /// predicated session subscriptions; all that is performed here are
    /// the resulting sends. Session deliveries are tracked by the
    /// broker's `sess_delivered`.
    fn on_deliver<S: DatagramSink>(
        &self,
        sink: &S,
        stats: &mut BusStats,
        env: &Envelope,
        value_of: &mut dyn FnMut() -> Option<Value>,
    ) -> (usize, usize) {
        let (outs, rejected) = poisoned(self.broker.lock()).on_deliver(
            &env.subject,
            env.subject.as_str(),
            &env.payload,
            env.redelivery,
            value_of,
        );
        let mut sent = 0;
        for out in outs {
            if let SessOut::Send { conn, frame } = out {
                self.send_frame(sink, conn, &frame, stats);
                sent += 1;
            }
        }
        (sent, rejected)
    }
}

struct Inner {
    core: DriverCore<NonBlockingSink, Sessions>,
    clock: MonoClock,
    local: SocketAddr,
    running: AtomicBool,
}

/// The poll-based edge daemon. See the [module docs](self).
///
/// Dropping (or [`ReactorBus::close`]-ing) the bus stops and joins the
/// reactor thread; subscriber queues close once drained.
pub struct ReactorBus {
    inner: Arc<Inner>,
    reactor: Option<JoinHandle<()>>,
}

impl ReactorBus {
    /// Binds the non-blocking socket, starts the reactor thread, arms
    /// the protocol timers, and announces this daemon to any configured
    /// peers.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Net`] if the socket cannot be bound or put
    /// into non-blocking mode.
    pub fn bind(cfg: EdgeConfig) -> Result<ReactorBus, BusError> {
        let socket = UdpSocket::bind(cfg.bind).map_err(net_err)?;
        socket.set_nonblocking(true).map_err(net_err)?;
        let local = socket.local_addr().map_err(net_err)?;
        let sessions = Sessions {
            broker: Mutex::new(SessionBroker::new(&cfg.bus, cfg.session_token)),
            conns: Mutex::new(ConnTable::default()),
        };
        let setup = CoreSetup {
            bus: cfg.bus,
            host: cfg.host,
            app: cfg.app,
            peers: cfg.peers,
            broadcast: None,
            no_local_echo: false,
            recv_loss: cfg.recv_loss,
            loss_seed: cfg.loss_seed,
        };
        let clock = MonoClock::new();
        let core = DriverCore::open(setup, NonBlockingSink { socket }, sessions, clock.now_us())?;
        let inner = Arc::new(Inner {
            core,
            clock,
            local,
            running: AtomicBool::new(true),
        });
        let rd = Arc::clone(&inner);
        let reactor = std::thread::Builder::new()
            .name(format!("infobus-edge-{}", inner.core.host()))
            .spawn(move || rd.reactor_loop())
            .map_err(|e| BusError::Net(format!("spawn reactor: {e}")))?;
        Ok(ReactorBus {
            inner,
            reactor: Some(reactor),
        })
    }

    /// The bound socket address (give this to peers and thin clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local
    }

    /// This daemon's host id.
    pub fn host(&self) -> u32 {
        self.inner.core.host()
    }

    /// Registers `host` at `addr` and exchanges subscription tables with
    /// it immediately.
    ///
    /// # Errors
    ///
    /// Currently infallible (kept fallible for forward compatibility
    /// with resolver-backed peers).
    pub fn add_peer(&self, host: u32, addr: SocketAddr) -> Result<(), BusError> {
        self.inner.core.add_peer(host, addr);
        Ok(())
    }

    /// Registers application types so objects can be marshalled.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Marshal`] on conflicting registration.
    pub fn register_type(&self, d: infobus_types::TypeDescriptor) -> Result<(), BusError> {
        self.inner.core.register_type(d)
    }

    /// Subscribes to a filter; matching publications arrive on the
    /// returned queue. New filters are announced to the segment.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters.
    pub fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.subscribe(now, filter, None)
    }

    /// Subscribes with a content predicate: only matching publications
    /// whose payload satisfies `pred` are delivered, and the predicate
    /// travels in the announcement so *publishing* daemons can suppress
    /// unanimously rejected publications before framing them.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters or
    /// [`BusError::Filter`] if the predicate exceeds the compile bounds.
    pub fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.subscribe(now, filter, Some(pred))
    }

    /// Removes a subscription (its queue closes once drained) together
    /// with any semantic expansion siblings; announces each removal if
    /// neither a sibling subscription nor a session still holds the
    /// filter, or re-announces the filter's remaining combined
    /// predicate.
    pub fn unsubscribe(&self, handle: SubscriptionHandle) {
        self.inner.core.unsubscribe(handle);
    }

    /// Publishes a value; the engine sequences it, local subscribers and
    /// sessions get it immediately, and the wire packet goes out.
    /// Returns the number of local deliveries (API queues + sessions).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] or [`BusError::Marshal`].
    pub fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.publish(now, subject, value, qos)
    }

    /// A snapshot of the protocol counters, including the session
    /// counters and subscriber-queue gauges.
    pub fn stats(&self) -> BusStats {
        let mut stats = self.inner.core.stats();
        poisoned(self.inner.core.hook().broker.lock()).stats_into(&mut stats);
        stats
    }

    /// Stops the reactor thread and closes the socket — what dropping
    /// the bus does, by name.
    pub fn close(self) {}
}

impl Drop for ReactorBus {
    fn drop(&mut self) {
        self.inner.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }
}

impl Bus for ReactorBus {
    fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        ReactorBus::subscribe(self, filter)
    }

    fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        ReactorBus::subscribe_filtered(self, filter, pred)
    }

    fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        ReactorBus::publish(self, subject, value, qos)
    }

    fn unsubscribe(&self, sub: SubscriptionHandle) {
        ReactorBus::unsubscribe(self, sub)
    }

    /// Local deliveries already happened synchronously inside `publish`;
    /// remote ingest belongs to the reactor thread and cannot be
    /// barriered from here. Callers waiting on cross-daemon traffic poll
    /// the receiver with
    /// [`recv_timeout`](infobus_core::Receiver::recv_timeout).
    fn drain(&self) {}

    fn stats(&self) -> BusStats {
        ReactorBus::stats(self)
    }
}

impl Inner {
    fn reactor_loop(&self) {
        let socket = &self.core.sink().socket;
        let mut buf = vec![0u8; 64 * 1024];
        let mut loss = self.core.loss_rng();
        let sess_scan_us = poisoned(self.core.hook().broker.lock()).scan_period_us();
        let mut next_sess_scan = self.clock.now_us() + sess_scan_us;
        while self.running.load(Ordering::SeqCst) {
            let mut worked = false;
            // Readiness: drain the socket to WouldBlock. Spurious socket
            // errors (ICMP port-unreachable as ECONNREFUSED) end the
            // drain too: don't spin, don't die.
            while let Ok((n, src)) = socket.recv_from(&mut buf) {
                worked = true;
                if self.core.recv_lost(&mut loss) {
                    continue;
                }
                let now = self.clock.now_us();
                if is_session_frame(&buf[..n]) {
                    self.on_session_datagram(now, src, &buf[..n]);
                } else {
                    self.core.on_peer_datagram(now, src, &buf[..n]);
                }
            }
            let now = self.clock.now_us();
            worked |= self.core.tick(now);
            if now >= next_sess_scan {
                // Heartbeat freshness scan: evict silent sessions.
                let mut engine = self.core.engine();
                let outs = poisoned(self.core.hook().broker.lock()).on_tick(now);
                self.perform_sess_outs(&mut engine, now, outs);
                next_sess_scan = now + sess_scan_us;
                worked = true;
            }
            if !worked {
                std::thread::sleep(POLL_IDLE);
            }
        }
    }

    fn on_session_datagram(&self, now: Micros, src: SocketAddr, datagram: &[u8]) {
        let mut engine = self.core.engine();
        let frame = match decode_session_frame(datagram) {
            Ok(f) => f,
            Err(_) => {
                engine.stats.net_decode_errors += 1;
                return;
            }
        };
        engine.stats.net_rx_packets += 1;
        engine.stats.net_rx_bytes += datagram.len() as u64;
        let sessions = self.core.hook();
        let conn = poisoned(sessions.conns.lock()).conn_for(src);
        let outs = poisoned(sessions.broker.lock()).handle_frame(now, conn, frame);
        self.perform_sess_outs(&mut engine, now, outs);
    }

    /// Performs broker actions that need the engine (sends, fan-in
    /// publishes, announce updates, connection forgetting).
    fn perform_sess_outs(&self, engine: &mut Engine, now: Micros, outs: Vec<SessOut>) {
        let core = &self.core;
        for out in outs {
            match out {
                SessOut::Send { conn, frame } => {
                    core.hook()
                        .send_frame(core.sink(), conn, &frame, &mut engine.stats);
                }
                SessOut::Publish {
                    subject,
                    qos,
                    payload,
                    client,
                } => {
                    // Fan-in: a session publish enters the engine like a
                    // local API publish, attributed to the client name.
                    let source = PubSource {
                        app: client.into(),
                        inc: 1,
                        route: None,
                    };
                    let subject = core.canonical(&subject);
                    let _ =
                        core.publish_payload(engine, now, &subject, payload.into(), qos, &source);
                }
                SessOut::FilterAdded(f) => core.announce_hook_filter(&mut engine.stats, f, true),
                SessOut::FilterRemoved(f) => {
                    core.announce_hook_filter(&mut engine.stats, f, false);
                }
                SessOut::Closed { conn } => {
                    poisoned(core.hook().conns.lock()).forget(conn);
                }
            }
        }
    }
}
