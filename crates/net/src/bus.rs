//! The UDP bus daemon: a blocking-`recv` I/O loop around the
//! [`DriverCore`].
//!
//! A [`UdpBus`] owns one `std::net::UdpSocket`, the [`MonoClock`], and
//! one reader thread parked in `recv` until the next engine deadline —
//! the loop shape with the lowest delivery latency. The division of
//! labour is strict:
//!
//! * the **engine** decides (sequencing, NAK repair, dedup, guaranteed
//!   delivery, batching) — identical state machines to the simulator's
//!   daemon and the in-process bus;
//! * the **core** ([`crate::driver`]) performs everything that is not
//!   I/O: subscription trie, publish gate, fan-out, peer tables,
//!   announcements, timers, the ledger;
//! * this module binds the socket (optionally joining a multicast
//!   group), runs the blocking read loop, and supplies the send
//!   policy a blocking reader can afford: bounded retry with doubling
//!   backoff.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use infobus_core::engine::BusStats;
use infobus_core::queue::SubReceiver;
use infobus_core::router::RouteStamp;
use infobus_core::{
    Bus, BusConfig, BusError, BusReceiver, Bytes, Delivery, Predicate, QoS, SubscriptionHandle,
};
use infobus_types::Value;

use crate::clock::MonoClock;
use crate::driver::{net_err, ApiOnly, CoreSetup, DatagramSink, DriverCore};

/// How long the reader thread blocks in `recv` at most, so shutdown and
/// freshly armed timers are noticed promptly. Timers may therefore fire
/// up to this much late; every engine timer tolerates that (they encode
/// *minimum* delays).
const READ_SLICE: Duration = Duration::from_millis(5);

/// Configuration for a [`UdpBus`] (builder style, like
/// [`BusConfig`]).
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Protocol configuration handed to the engine.
    pub bus: BusConfig,
    /// This daemon's host id on the bus (must be unique per segment).
    pub host: u32,
    /// Socket bind address. Defaults to `127.0.0.1:0` (an ephemeral
    /// loopback port) so tests and examples need no privileges.
    pub bind: SocketAddr,
    /// Application name publications are attributed to.
    pub app: String,
    /// Statically known peers (`host → address`). More are learned from
    /// inbound frames.
    pub peers: Vec<(u32, SocketAddr)>,
    /// IPv4 multicast group for broadcast packets. `None` (the default)
    /// falls back to unicasting broadcasts to every known peer, which
    /// works on bare loopback.
    pub multicast: Option<SocketAddrV4>,
    /// Probability in `[0, 1)` of dropping an inbound datagram before
    /// decoding — deterministic per [`UdpConfig::loss_seed`]. Loopback
    /// never loses packets, so NAK-repair tests inject loss here.
    pub recv_loss: f64,
    /// Seed for the receive-loss RNG.
    pub loss_seed: u64,
    /// Extra send attempts after a transient socket error.
    pub send_retries: u32,
    /// Backoff before the first retry, doubling per attempt.
    pub send_backoff_us: u64,
    /// Suppress delivery of this daemon's own publications to its own
    /// local subscribers. Off by default; an information-router foot
    /// turns it on because it subscribes broadly to *relay* traffic and
    /// must not hear its own republications back.
    pub no_local_echo: bool,
}

impl UdpConfig {
    /// Default configuration for host id `host`: ephemeral loopback
    /// bind, no static peers, no multicast, no injected loss.
    pub fn new(host: u32) -> UdpConfig {
        UdpConfig {
            bus: BusConfig::default(),
            host,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            app: "udp".into(),
            peers: Vec::new(),
            multicast: None,
            recv_loss: 0.0,
            loss_seed: 1,
            send_retries: 3,
            send_backoff_us: 200,
            no_local_echo: false,
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

    /// Joins an IPv4 multicast group and broadcasts to it instead of
    /// unicasting to each peer.
    pub fn with_multicast(mut self, group: SocketAddrV4) -> Self {
        self.multicast = Some(group);
        self
    }

    /// Injects seeded inbound loss (see [`UdpConfig::recv_loss`]).
    pub fn with_recv_loss(mut self, loss: f64, seed: u64) -> Self {
        self.recv_loss = loss;
        self.loss_seed = seed;
        self
    }

    /// Sets the bounded send-retry policy.
    pub fn with_send_retry(mut self, retries: u32, backoff_us: u64) -> Self {
        self.send_retries = retries;
        self.send_backoff_us = backoff_us;
        self
    }

    /// Suppresses local echo (see [`UdpConfig::no_local_echo`]).
    pub fn with_no_local_echo(mut self) -> Self {
        self.no_local_echo = true;
        self
    }
}

/// A message delivered by the UDP bus — the driver-independent
/// [`Delivery`] (unmarshal lazily with [`Delivery::value`]). The name
/// survives from before the unified [`Bus`] surface.
pub type NetMessage = Delivery;

/// The receiving half of a UDP-bus subscription: a bounded drop-oldest
/// queue (see [`infobus_core::queue`]). Same type as [`BusReceiver`] —
/// the unified [`Bus`] receiver.
pub type NetReceiver = SubReceiver<NetMessage>;

/// The send policy of the blocking driver: bounded retry with doubling
/// backoff. Transient errors count `net_send_retries`; exhaustion (or
/// an oversized frame) counts `net_send_errors` — guaranteed delivery
/// recovers via its retry rounds, reliable delivery via NAKs.
struct RetrySink {
    socket: UdpSocket,
    retries: u32,
    backoff_us: u64,
}

impl DatagramSink for RetrySink {
    fn send_datagram(&self, addr: SocketAddr, bytes: &[u8], stats: &mut BusStats) {
        let mut backoff = self.backoff_us;
        for attempt in 0..=self.retries {
            match self.socket.send_to(bytes, addr) {
                Ok(n) => {
                    stats.net_tx_packets += 1;
                    stats.net_tx_bytes += n as u64;
                    return;
                }
                Err(_) if attempt < self.retries => {
                    stats.net_send_retries += 1;
                    std::thread::sleep(Duration::from_micros(backoff));
                    backoff = backoff.saturating_mul(2);
                }
                Err(_) => stats.net_send_errors += 1,
            }
        }
    }
}

struct Inner {
    core: DriverCore<RetrySink, ApiOnly>,
    clock: MonoClock,
    local: SocketAddr,
    running: AtomicBool,
}

/// A bus daemon speaking the wire protocol over real UDP sockets.
///
/// Dropping (or [`UdpBus::close`]-ing) the bus stops and joins the
/// reader thread; subscriber queues close once drained.
pub struct UdpBus {
    inner: Arc<Inner>,
    reader: Option<JoinHandle<()>>,
}

impl UdpBus {
    /// Binds the socket, starts the reader thread, arms the protocol
    /// timers, and announces this daemon to any configured peers.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Net`] if the socket cannot be bound or the
    /// multicast group cannot be joined.
    pub fn bind(cfg: UdpConfig) -> Result<UdpBus, BusError> {
        let socket = UdpSocket::bind(cfg.bind).map_err(net_err)?;
        if let Some(group) = cfg.multicast {
            socket
                .join_multicast_v4(group.ip(), &Ipv4Addr::UNSPECIFIED)
                .map_err(net_err)?;
            // Own frames come back from the group; the core drops them
            // by host id.
            socket.set_multicast_loop_v4(true).map_err(net_err)?;
        }
        let local = socket.local_addr().map_err(net_err)?;
        let sink = RetrySink {
            socket,
            retries: cfg.send_retries,
            backoff_us: cfg.send_backoff_us,
        };
        let setup = CoreSetup {
            bus: cfg.bus,
            host: cfg.host,
            app: cfg.app,
            peers: cfg.peers,
            broadcast: cfg.multicast.map(SocketAddr::V4),
            no_local_echo: cfg.no_local_echo,
            recv_loss: cfg.recv_loss,
            loss_seed: cfg.loss_seed,
        };
        let clock = MonoClock::new();
        let core = DriverCore::open(setup, sink, ApiOnly, clock.now_us())?;
        let inner = Arc::new(Inner {
            core,
            clock,
            local,
            running: AtomicBool::new(true),
        });
        let rd = Arc::clone(&inner);
        let reader = std::thread::Builder::new()
            .name(format!("infobus-net-{}", inner.core.host()))
            .spawn(move || rd.read_loop())
            .map_err(|e| BusError::Net(format!("spawn reader: {e}")))?;
        Ok(UdpBus {
            inner,
            reader: Some(reader),
        })
    }

    /// The bound socket address (give this to peers).
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
    pub fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, NetReceiver), BusError> {
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
    ) -> Result<(SubscriptionHandle, NetReceiver), BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.subscribe(now, filter, Some(pred))
    }

    /// Removes a subscription (its queue closes once drained) together
    /// with any semantic expansion siblings; announces each removal if
    /// no sibling subscription shares the filter, or re-announces the
    /// filter's remaining combined predicate.
    pub fn unsubscribe(&self, handle: SubscriptionHandle) {
        self.inner.core.unsubscribe(handle);
    }

    /// Publishes a value; the engine sequences it, local subscribers get
    /// it immediately, and the wire packet goes out (batched or not, per
    /// [`BusConfig`]). Returns the number of *local* subscribers.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] or [`BusError::Marshal`].
    pub fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.publish(now, subject, value, qos)
    }

    /// Re-publishes an already marshalled payload as a *forwarded* copy
    /// carrying a federation route stamp — the information-router
    /// crossing. The payload is exactly what a [`NetMessage`] delivered
    /// (self-describing wire bytes); `route` is the [`RouteStamp`] the
    /// router's route decision produced, so downstream routers can
    /// suppress loops.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] if `subject` is invalid.
    pub fn forward(
        &self,
        subject: &str,
        payload: Bytes,
        qos: QoS,
        route: Option<RouteStamp>,
    ) -> Result<usize, BusError> {
        let now = self.inner.clock.now_us();
        self.inner.core.forward(now, subject, payload, qos, route)
    }

    /// A snapshot of every subscription filter announced by peers on
    /// this segment (deduplicated, sorted) — the ground truth an
    /// information router summarizes into remote interest for its other
    /// foot.
    pub fn peer_filters(&self) -> Vec<String> {
        self.inner.core.peer_filters()
    }

    /// A snapshot of the protocol counters, including the socket-level
    /// `net_*` counters and subscriber-queue gauges.
    pub fn stats(&self) -> BusStats {
        self.inner.core.stats()
    }

    /// Stops the reader thread and closes the socket — what dropping the
    /// bus does, by name.
    pub fn close(self) {}
}

impl Drop for UdpBus {
    fn drop(&mut self) {
        self.inner.running.store(false, Ordering::SeqCst);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Bus for UdpBus {
    fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        UdpBus::subscribe(self, filter)
    }

    fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        UdpBus::subscribe_filtered(self, filter, pred)
    }

    fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        UdpBus::publish(self, subject, value, qos)
    }

    fn unsubscribe(&self, sub: SubscriptionHandle) {
        UdpBus::unsubscribe(self, sub)
    }

    /// Local deliveries already happened synchronously inside `publish`;
    /// remote ingest is the reader thread's and cannot be barriered from
    /// here. Callers waiting on cross-daemon traffic poll the receiver
    /// with [`recv_timeout`](infobus_core::Receiver::recv_timeout).
    fn drain(&self) {}

    fn stats(&self) -> BusStats {
        UdpBus::stats(self)
    }
}

impl Inner {
    /// The reader thread: park in `recv` until the next engine deadline
    /// (at most [`READ_SLICE`]), hand the datagram to the core, fire
    /// whatever came due.
    fn read_loop(&self) {
        let socket = &self.core.sink().socket;
        let mut buf = vec![0u8; 64 * 1024];
        let mut loss = self.core.loss_rng();
        while self.running.load(Ordering::SeqCst) {
            let wait = {
                let now = self.clock.now_us();
                match self.core.next_deadline() {
                    Some(at) => Duration::from_micros(at.saturating_sub(now)).min(READ_SLICE),
                    None => READ_SLICE,
                }
            };
            let _ = socket.set_read_timeout(Some(wait.max(Duration::from_micros(100))));
            match socket.recv_from(&mut buf) {
                Ok((n, src)) => {
                    if !self.core.recv_lost(&mut loss) {
                        self.core
                            .on_peer_datagram(self.clock.now_us(), src, &buf[..n]);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                // Spurious socket errors (e.g. ICMP port-unreachable
                // surfacing as ECONNREFUSED on some platforms): don't
                // spin, don't die.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
            self.core.tick(self.clock.now_us());
        }
    }
}
