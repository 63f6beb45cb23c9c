//! The sans-I/O protocol engine.
//!
//! Everything the bus *protocol* does — per-stream sequencing, NAK-based
//! retransmission, guaranteed-delivery ledgers, batching, discovery
//! correlation, counters — lives here as pure state machines. The engine
//! never touches a socket, a timer wheel, or a simulator: it consumes
//! `(now_us, `[`Event`]`)` pairs and emits [`Action`]s that a *driver*
//! performs. Two drivers ship with this crate and run the same engine:
//!
//! * the netsim daemon ([`BusDaemon`](crate::BusDaemon)), which performs
//!   actions against the discrete-event simulator in virtual time, and
//! * the real-thread [`InprocBus`](crate::inproc::InprocBus), which loops
//!   broadcast actions straight back into the engine and hands deliveries
//!   to mpsc channels in wall-clock time.
//!
//! The split is the classic sans-I/O layering: because the state machines
//! are pure, they can be driven directly by tests with arbitrary loss,
//! duplication, and reordering — no simulator in the loop (see the
//! `engine_prop` integration tests) — and new transports (real sockets,
//! async runtimes) only need to implement [`Transport`].
//!
//! # Event/Action contract
//!
//! [`Engine::handle`] is deterministic: the same sequence of
//! `(now, event)` inputs produces the same actions and the same internal
//! state. Actions must be performed **in order** — the engine encodes
//! protocol ordering requirements (for example "persist the guaranteed
//! envelope before broadcasting it") in the order of the returned vector.
//! [`run_actions`] performs a batch against any [`Transport`].

pub mod batch;
pub mod discovery;
pub mod filter;
pub mod guaranteed;
pub mod reliable;
pub mod stats;

use crate::buf::Bytes;
use crate::config::BusConfig;
use crate::envelope::{Envelope, EnvelopeKind, StreamKey};
use crate::msg::{Packet, SyncEntry};
use crate::QoS;

use infobus_subject::{InternedSubject, SubjectTable};

use std::collections::HashMap;
use std::sync::Arc;

pub use stats::{BusStats, RmiLatency, STATS_SUBJECT_PREFIX};

/// Microseconds of protocol time. The engine does not read clocks: every
/// entry point takes `now` from the driver (virtual time under the
/// simulator, a monotonic counter for the in-process bus).
pub type Micros = u64;

/// Identity of the publishing application within its daemon: the stream
/// namespace is `(host, app, incarnation)` and the engine supplies the
/// host half itself.
/// The name is a shared `Arc<str>`: drivers build one `PubSource` per
/// application and clone it per publish as a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubSource {
    /// Application name (or a reserved name like `"router"`).
    pub app: Arc<str>,
    /// Incarnation number distinguishing restarts of the same name.
    pub inc: u64,
    /// Federation stamp to carry on the envelope. Always `None` for
    /// application publishers; a routing daemon republishing a forwarded
    /// publication sets the stamp so the copy keeps its loop-suppression
    /// identity (and so NAK repairs and ledger redeliveries keep it too).
    pub route: Option<infobus_router::RouteStamp>,
}

/// Protocol timers the engine asks its driver to arm.
///
/// Timers are one-shot: when one fires, the driver reports it back as
/// [`Event::Timer`] (or [`Event::GdRetry`] for [`TimerKind::GdRetry`],
/// which needs a fresh interest snapshot) and the engine re-arms it if
/// still needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Flush a partially filled batch.
    Batch,
    /// Scan in-streams for aged sequence gaps (NAK generation).
    NakScan,
    /// Run a guaranteed-delivery retry round.
    GdRetry,
    /// Broadcast idle-stream digests.
    Sync,
}

/// An input to the protocol engine.
#[derive(Debug, Clone)]
pub enum Event {
    /// A local application published. The payload is already marshalled;
    /// the engine sequences it and queues or emits the wire packet.
    ///
    /// Drivers that must interleave their own work between sequencing and
    /// transmission (the daemon routes control envelopes to co-resident
    /// responders in between) call [`Engine::publish`] and
    /// [`Engine::enqueue`] separately instead.
    Publish {
        /// The publishing application.
        source: PubSource,
        /// Subject, interned by the driver in the engine's table.
        subject: InternedSubject,
        /// Requested delivery quality of service.
        qos: QoS,
        /// Payload interpretation (data or a control publication).
        kind: EnvelopeKind,
        /// Correlation id for control envelopes (0 for data).
        corr: u64,
        /// Marshalled payload bytes.
        payload: Bytes,
    },
    /// A data envelope arrived from the wire. `entitled` is the driver's
    /// first-contact verdict: `true` if this receiver's earliest matching
    /// subscription predates the stream's start (so it is owed the stream
    /// from sequence 1). Consulted only on first contact with a stream.
    Envelope {
        /// The received envelope.
        env: Envelope,
        /// First-contact entitlement, computed by the driver.
        entitled: bool,
    },
    /// A NAK arrived: a receiver is missing sequences of one of our
    /// streams.
    Nak {
        /// The stream being repaired.
        stream: StreamKey,
        /// The stream's subject.
        subject: InternedSubject,
        /// Host asking for the retransmission.
        requester: u32,
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
    /// A gap-skip arrived: the publisher no longer retains sequences up
    /// to `through`; stop waiting for them.
    GapSkip {
        /// The stream being skipped forward.
        stream: StreamKey,
        /// The stream's subject.
        subject: InternedSubject,
        /// Last unavailable sequence number.
        through: u64,
    },
    /// An acknowledgment of a guaranteed envelope we published.
    Ack {
        /// The acknowledged stream.
        stream: StreamKey,
        /// The acknowledged subject.
        subject: InternedSubject,
        /// The acknowledged sequence number.
        seq: u64,
        /// The acknowledging host.
        from_host: u32,
    },
    /// One entry of a received `SeqSync` digest. `sub_at` is the creation
    /// time of this receiver's earliest subscription matching the entry's
    /// subject (`None` if nothing local matches — the entry is ignored).
    Digest {
        /// The digest entry.
        entry: SyncEntry,
        /// Earliest matching local subscription time, from the driver.
        sub_at: Option<Micros>,
    },
    /// A protocol timer armed via [`Action::SetTimer`] fired. The
    /// [`TimerKind::GdRetry`] timer must be reported as
    /// [`Event::GdRetry`] instead (it needs an interest snapshot).
    Timer(TimerKind),
    /// The guaranteed-delivery retry timer fired. `interest` maps each
    /// subject with pending guaranteed envelopes (see
    /// [`Engine::gd_subjects`]) to the hosts currently interested in it;
    /// a subject *absent* from the map is treated as invalid and its
    /// entries are completed.
    GdRetry {
        /// Per-subject interested hosts, computed by the driver.
        interest: HashMap<String, Vec<u32>>,
    },
}

/// Repair traffic — `Nak`, `GapSkip`, `Ack` — is an engine event exactly
/// as it arrives. Every other packet needs driver context first
/// (entitlement, subscription tables) and is handed back unchanged.
impl TryFrom<Packet> for Event {
    type Error = Packet;

    fn try_from(packet: Packet) -> Result<Event, Packet> {
        match packet {
            Packet::Nak {
                stream,
                subject,
                requester,
                missing,
            } => Ok(Event::Nak {
                stream,
                subject,
                requester,
                missing,
            }),
            Packet::GapSkip {
                stream,
                subject,
                through,
            } => Ok(Event::GapSkip {
                stream,
                subject,
                through,
            }),
            Packet::Ack {
                stream,
                subject,
                seq,
                from_host,
            } => Ok(Event::Ack {
                stream,
                subject,
                seq,
                from_host,
            }),
            other => Err(other),
        }
    }
}

/// An effect the engine asks its driver to perform. Perform actions in
/// the order given.
#[derive(Debug, Clone)]
pub enum Action {
    /// Send a packet to every daemon on the segment.
    Broadcast(Packet),
    /// Send a packet to one daemon.
    Unicast {
        /// Destination host.
        host: u32,
        /// The packet to send.
        packet: Packet,
    },
    /// Arm a one-shot protocol timer.
    SetTimer {
        /// Delay from now, in microseconds.
        delay_us: Micros,
        /// Which timer to arm.
        timer: TimerKind,
    },
    /// An envelope became deliverable in sender order: route it to local
    /// subscribers (and, for control envelopes, the protocol handlers).
    Deliver(Envelope),
    /// A guaranteed envelope is being redelivered locally during a retry
    /// round. If any local subscriber takes it, the driver must report
    /// back via [`Engine::gd_local_done`].
    DeliverGd(Envelope),
    /// Write to non-volatile storage (guaranteed-delivery ledger).
    Persist {
        /// Storage key.
        key: String,
        /// Encoded ledger entry.
        bytes: Vec<u8>,
    },
    /// Delete a non-volatile ledger entry.
    Unpersist {
        /// Storage key.
        key: String,
    },
}

/// The driver side of the engine: performs [`Action`]s against a real
/// substrate (simulator, threads, sockets).
pub trait Transport {
    /// Send a packet to every daemon on the segment.
    fn broadcast(&mut self, packet: Packet);
    /// Send a packet to one daemon.
    fn unicast(&mut self, host: u32, packet: Packet);
    /// Arm a one-shot protocol timer.
    fn set_timer(&mut self, delay_us: Micros, timer: TimerKind);
    /// Route an in-order envelope to local subscribers.
    fn deliver(&mut self, env: Envelope);
    /// Redeliver a guaranteed envelope locally (report successful
    /// deliveries back via [`Engine::gd_local_done`]).
    fn deliver_gd(&mut self, env: Envelope);
    /// Write a guaranteed-delivery ledger entry.
    fn persist(&mut self, key: String, bytes: Vec<u8>);
    /// Delete a guaranteed-delivery ledger entry.
    fn unpersist(&mut self, key: &str);
}

/// Performs a batch of actions, in order, against a transport.
pub fn run_actions(actions: Vec<Action>, t: &mut impl Transport) {
    for action in actions {
        match action {
            Action::Broadcast(packet) => t.broadcast(packet),
            Action::Unicast { host, packet } => t.unicast(host, packet),
            Action::SetTimer { delay_us, timer } => t.set_timer(delay_us, timer),
            Action::Deliver(env) => t.deliver(env),
            Action::DeliverGd(env) => t.deliver_gd(env),
            Action::Persist { key, bytes } => t.persist(key, bytes),
            Action::Unpersist { key } => t.unpersist(&key),
        }
    }
}

/// The protocol engine: reliable delivery, guaranteed delivery, batching,
/// discovery correlation, and counters, behind one event-driven facade.
///
/// One engine instance embodies one daemon's protocol state. It is `Send`
/// (no interior pointers, no I/O handles), so thread-based drivers can
/// put it behind a mutex.
pub struct Engine {
    cfg: BusConfig,
    host32: u32,
    loopback: bool,
    table: SubjectTable,
    out: reliable::Publisher,
    inb: reliable::Receiver,
    batch: batch::Batcher,
    gd: guaranteed::GdLedger,
    discovery: discovery::Correlations,
    /// Protocol counters. Public so drivers can account driver-side
    /// events (deliveries, RMI traffic, router forwards) in the same
    /// snapshot.
    pub stats: BusStats,
}

impl Engine {
    /// Creates an engine for the daemon on `host32`, owning the daemon's
    /// subject intern table.
    pub fn new(cfg: BusConfig, host32: u32) -> Engine {
        Engine {
            cfg,
            host32,
            loopback: false,
            table: SubjectTable::new(),
            out: reliable::Publisher::new(),
            inb: reliable::Receiver::new(),
            batch: batch::Batcher::new(),
            gd: guaranteed::GdLedger::new(),
            discovery: discovery::Correlations::new(),
            stats: BusStats::default(),
        }
    }

    /// Creates a loopback engine: envelopes from its own host are
    /// accepted rather than dropped. Used by single-node transports (the
    /// in-process bus) that feed their own broadcasts back in.
    pub fn new_loopback(cfg: BusConfig, host32: u32) -> Engine {
        let mut engine = Engine::new(cfg, host32);
        engine.loopback = true;
        engine
    }

    /// The host id this engine publishes under.
    pub fn host32(&self) -> u32 {
        self.host32
    }

    /// Sets the host id. Drivers that learn their address after
    /// construction (the simulated daemon binds at start-up) call this
    /// once, before any traffic flows.
    pub fn set_host(&mut self, host32: u32) {
        self.host32 = host32;
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// The daemon's subject intern table. Drivers intern subjects here
    /// once (at the API or frame boundary) and hand the engine
    /// [`InternedSubject`] values.
    pub fn table(&self) -> &SubjectTable {
        &self.table
    }

    /// Handles one event, returning the actions to perform (in order).
    pub fn handle(&mut self, now: Micros, event: Event) -> Vec<Action> {
        let mut out = Vec::new();
        self.handle_into(now, event, &mut out);
        out
    }

    /// Handles one event, appending the actions (in order) to `out`.
    ///
    /// This is the allocation-disciplined entry point: drivers that
    /// process events in a loop keep one scratch `Vec<Action>` and clear
    /// it between events, so the steady state allocates nothing for
    /// action plumbing.
    pub fn handle_into(&mut self, now: Micros, event: Event, out: &mut Vec<Action>) {
        match event {
            Event::Publish {
                source,
                subject,
                qos,
                kind,
                corr,
                payload,
            } => {
                let env = self.publish_into(now, &source, &subject, qos, kind, corr, payload, out);
                self.enqueue_into(&env, out);
            }
            Event::Envelope { env, entitled } => {
                if !self.loopback && env.stream.host == self.host32 {
                    // Our own broadcast looped back; locals were already
                    // served on the publish path.
                    return;
                }
                self.inb
                    .accept(now, env, entitled, self.host32, &mut self.stats, out);
            }
            Event::Nak {
                stream,
                subject,
                requester,
                missing,
            } => out.extend(self.out.handle_nak(
                now,
                stream,
                subject,
                requester,
                missing,
                &mut self.stats,
            )),
            Event::GapSkip {
                stream,
                subject,
                through,
            } => self.inb.handle_gapskip(
                now,
                stream,
                subject,
                through,
                self.host32,
                &mut self.stats,
                out,
            ),
            Event::Ack {
                stream,
                subject,
                seq,
                from_host,
            } => {
                self.gd
                    .ack_received(&stream, &subject, seq, from_host, &mut self.stats);
            }
            Event::Digest { entry, sub_at } => {
                self.inb
                    .handle_digest(now, entry, sub_at, self.host32, self.loopback);
            }
            Event::Timer(TimerKind::Batch) => out.extend(self.batch.timer_fired(&mut self.stats)),
            Event::Timer(TimerKind::NakScan) => {
                out.extend(
                    self.inb
                        .scan_gaps(now, self.host32, &self.cfg, &mut self.stats),
                );
            }
            Event::Timer(TimerKind::Sync) => {
                out.extend(self.out.sync_round(now, self.host32, &self.cfg));
            }
            // GdRetry needs the interest snapshot; drivers report it via
            // Event::GdRetry. A bare timer event is a no-op.
            Event::Timer(TimerKind::GdRetry) => {}
            Event::GdRetry { interest } => {
                out.extend(self.gd.retry_round(&interest, &self.cfg, &mut self.stats));
            }
        }
    }

    /// Sequences a publication into an envelope, without transmitting it.
    ///
    /// Returns the envelope plus the actions of the *pre-send* protocol
    /// obligations (persisting a guaranteed envelope before it goes out).
    /// The driver routes the envelope to co-resident subscribers itself,
    /// then hands it back to [`Engine::enqueue`] for transmission.
    /// [`Event::Publish`] composes the two for drivers with no in-between
    /// work.
    #[allow(clippy::too_many_arguments)]
    pub fn publish(
        &mut self,
        now: Micros,
        source: &PubSource,
        subject: &InternedSubject,
        qos: QoS,
        kind: EnvelopeKind,
        corr: u64,
        payload: Bytes,
    ) -> (Envelope, Vec<Action>) {
        let mut actions = Vec::new();
        let env = self.publish_into(now, source, subject, qos, kind, corr, payload, &mut actions);
        (env, actions)
    }

    /// [`Engine::publish`] with the pre-send actions appended to `out`
    /// instead of freshly allocated — the hot-path form (a reliable
    /// publish appends nothing, so the caller's scratch vector is all
    /// the plumbing there is).
    #[allow(clippy::too_many_arguments)]
    pub fn publish_into(
        &mut self,
        now: Micros,
        source: &PubSource,
        subject: &InternedSubject,
        qos: QoS,
        kind: EnvelopeKind,
        corr: u64,
        payload: Bytes,
        out: &mut Vec<Action>,
    ) -> Envelope {
        let env = self.out.sequence(
            now,
            self.host32,
            source,
            subject,
            qos,
            kind,
            corr,
            payload,
            &self.cfg,
            &mut self.stats,
        );
        if qos == QoS::Guaranteed {
            out.extend(self.gd.persist(&env, &self.cfg, &mut self.stats));
        }
        env
    }

    /// Queues a sequenced envelope for transmission: appends to the
    /// current batch (flushing or arming the flush timer as needed) or
    /// emits an immediate broadcast when batching is off.
    pub fn enqueue(&mut self, env: &Envelope) -> Vec<Action> {
        let mut out = Vec::new();
        self.enqueue_into(env, &mut out);
        out
    }

    /// [`Engine::enqueue`], appending to the caller's scratch vector.
    pub fn enqueue_into(&mut self, env: &Envelope, out: &mut Vec<Action>) {
        if self.cfg.batch_enabled {
            out.extend(self.batch.push(env, &self.cfg, &mut self.stats));
        } else {
            out.push(Action::Broadcast(Packet::Data {
                envelopes: vec![env.clone()],
                retrans: false,
            }));
        }
    }

    // ----- guaranteed-delivery hooks for drivers ----------------------------

    /// Marks a pending guaranteed envelope as locally delivered (the
    /// driver's response to a successful [`Action::DeliverGd`], or to a
    /// local delivery on the publish path).
    pub fn gd_local_done(&mut self, env: &Envelope) {
        self.gd.local_done(env);
    }

    /// The distinct subjects with pending guaranteed envelopes. The
    /// driver computes per-subject interest from these before reporting
    /// [`Event::GdRetry`].
    pub fn gd_subjects(&self) -> Vec<String> {
        self.gd.subjects()
    }

    /// Loads ledger envelopes read back from non-volatile storage after a
    /// restart. Entries are re-flagged as redeliveries; returns the
    /// actions (re-arming the retry timer) to perform.
    pub fn gd_load(&mut self, envs: Vec<Envelope>) -> Vec<Action> {
        self.gd.load(envs, &self.cfg, &mut self.stats)
    }

    // ----- discovery correlation hooks --------------------------------------

    /// Opens a discovery correlation window (the driver has already
    /// published the query and armed the window timer).
    pub fn discovery_start(&mut self, corr: u64, pending: discovery::PendingDiscovery) {
        self.discovery.start(corr, pending);
    }

    /// Collects an "I am" announcement into its correlation window (a
    /// no-op for unknown or already-closed correlation ids).
    pub fn discovery_collect(&mut self, env: &Envelope) {
        self.discovery.collect(env);
    }

    /// Closes a correlation window, returning the collected replies.
    pub fn discovery_close(&mut self, corr: u64) -> Option<discovery::PendingDiscovery> {
        self.discovery.close(corr)
    }
}
