//! The socket-driver core: everything a datagram daemon does that is not
//! an I/O loop.
//!
//! [`UdpBus`](crate::UdpBus) (blocking `recv`, lowest latency) and the
//! edge crate's `ReactorBus` (drain-then-sleep, lowest CPU) are the same
//! daemon around two different loops. A [`DriverCore`] is that daemon:
//! the [`Engine`] behind a mutex, the local subscription trie,
//! the peer address map and [`PeerTable`], the publish gate, marshalling,
//! fan-out, guaranteed-delivery interest, subscription announcements and
//! their periodic refresh, the [`TimerWheel`], the [`NvStore`], and the
//! [`Transport`] that [`run_actions`] performs engine actions on. Like
//! the engine it never reads a clock — every entry point takes
//! `now: Micros` — and never touches a socket. A shell owns the socket,
//! the clock and the thread, and reaches the rest of the world through
//! two seams:
//!
//! * [`DatagramSink`] — how one datagram leaves. The send *policy* is
//!   what differs per loop: a blocking reader may retry with backoff, a
//!   reactor must never sleep in a send.
//! * [`LocalInterest`] — local consumers that are not API subscriptions.
//!   The reactor's thin-client sessions implement it; [`ApiOnly`] is the
//!   no-op for daemons without any.
//!
//! Lock order is `engine → {trie, peers, peer table, timers, nv,
//! registry}` and then whatever the [`LocalInterest`] locks; no inner
//! lock is ever held while taking the engine lock, so a caller-thread
//! publish and the I/O thread cannot deadlock. The publish gate and the
//! marshaller run *before* the engine lock is taken.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use infobus_core::engine::filter::{
    announced_predicate, approx_wire_bytes, interest_accepts, FilterCounters,
};
use infobus_core::engine::{
    run_actions, Action, BusStats, Engine, Event, Micros, PubSource, TimerKind, Transport,
};
use infobus_core::msg::{AnnounceEntry, Packet};
use infobus_core::queue::{sub_queue, SubSender};
use infobus_core::router::RouteStamp;
use infobus_core::{
    BufPool, BusConfig, BusError, BusReceiver, Bytes, CompiledPredicate, Delivery, Envelope,
    EnvelopeKind, NvStore, PeerTable, Predicate, QoS, SubjectMap, SubscriptionHandle,
};
use infobus_subject::{Subject, SubjectFilter, SubjectTrie, SubscriptionId};
use infobus_types::{wire, TypeDescriptor, TypeRegistry, Value};

use crate::frame::{decode_frame, encode_frame};
use crate::loss::LossRng;
use crate::timers::TimerWheel;

/// Maps a socket error into the bus error space.
pub fn net_err(e: std::io::Error) -> BusError {
    BusError::Net(e.to_string())
}

/// Unwraps a lock result. A poisoned lock means a thread panicked while
/// mutating daemon state; continuing on it would deliver from torn
/// tables, so the panic propagates.
pub fn poisoned<T>(r: Result<T, impl std::fmt::Display>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("lock poisoned: {e}"),
    }
}

/// How one datagram leaves the daemon — the send policy of an I/O loop.
pub trait DatagramSink {
    /// Sends `bytes` to `addr`, counting the outcome in the `net_tx_*` /
    /// `net_send_*` counters of `stats`. Never fails: a datagram that
    /// cannot be sent is dropped, and NAK repair or the
    /// guaranteed-delivery retry rounds recover it.
    fn send_datagram(&self, addr: SocketAddr, bytes: &[u8], stats: &mut BusStats);
}

/// Local consumers beside the API subscriptions, as the core sees them.
/// The defaults describe a daemon that has none.
pub trait LocalInterest {
    /// Filters to announce on top of the API subscriptions' own. They
    /// announce unfiltered: their predicates are enforced in
    /// [`on_deliver`](LocalInterest::on_deliver).
    fn announced_filters(&self) -> Vec<String> {
        Vec::new()
    }

    /// Creation time of the earliest such interest matching `subject`
    /// (the first-contact entitlement input).
    fn earliest_matching_sub(&self, _subject: &Subject) -> Option<Micros> {
        None
    }

    /// Delivers `env` to every matching consumer, sending through `sink`.
    /// `value_of` unmarshals the payload on demand (at most one call).
    /// Returns `(sent, rejected)`: consumers reached, and consumers whose
    /// predicates all rejected the payload.
    fn on_deliver<S: DatagramSink>(
        &self,
        _sink: &S,
        _stats: &mut BusStats,
        _env: &Envelope,
        _value_of: &mut dyn FnMut() -> Option<Value>,
    ) -> (usize, usize) {
        (0, 0)
    }
}

/// The [`LocalInterest`] of a daemon whose only local consumers are API
/// subscriptions.
#[derive(Debug, Default, Clone, Copy)]
pub struct ApiOnly;

impl LocalInterest for ApiOnly {}

/// What a shell hands the core at bind.
#[derive(Debug, Clone)]
pub struct CoreSetup {
    /// Protocol configuration handed to the engine.
    pub bus: BusConfig,
    /// This daemon's host id on the bus.
    pub host: u32,
    /// Application name API publications are attributed to.
    pub app: String,
    /// Statically known peers; more are learned from inbound frames.
    pub peers: Vec<(u32, SocketAddr)>,
    /// Where broadcast packets go (a multicast group). `None` unicasts
    /// each broadcast to every known peer.
    pub broadcast: Option<SocketAddr>,
    /// Keep this daemon's own publications from its local subscribers
    /// (an information-router foot must not hear its republications).
    pub no_local_echo: bool,
    /// Probability in `[0, 1)` of dropping an inbound datagram.
    pub recv_loss: f64,
    /// Seed of the receive-loss sequence.
    pub loss_seed: u64,
}

/// One local API subscription: its queue, creation time (first-contact
/// entitlement), canonical filter text (announcements), and optional
/// content predicate (the delivery gate).
struct SubEntry {
    tx: SubSender<Delivery>,
    since: Micros,
    filter: String,
    pred: Option<Arc<CompiledPredicate>>,
}

/// The wire predicate the API subscriptions currently imply for filter
/// `text`: `None` when none of them uses the filter, otherwise the
/// combined announced-predicate bytes (empty = unfiltered; see
/// [`announced_predicate`]).
fn announced_pred_state(trie: &SubjectTrie<SubEntry>, text: &str) -> Option<Vec<u8>> {
    let mut preds: Vec<Option<Arc<CompiledPredicate>>> = Vec::new();
    trie.for_each(|_, _, e| {
        if e.filter == text {
            preds.push(e.pred.clone());
        }
    });
    if preds.is_empty() {
        None
    } else {
        Some(announced_predicate(&preds).map_or_else(Vec::new, |p| p.to_bytes()))
    }
}

/// The daemon behind a socket driver. See the [module docs](self).
pub struct DriverCore<S, H> {
    host: u32,
    /// The one publisher identity of this daemon, cached so a publish
    /// borrows it instead of allocating a fresh name.
    source: PubSource,
    /// Recycled marshal buffers — see [`BufPool`].
    pool: BufPool,
    sink: S,
    hook: H,
    /// The protocol engine; its counters include the driver's own.
    engine: Mutex<Engine>,
    trie: RwLock<SubjectTrie<SubEntry>>,
    registry: Mutex<TypeRegistry>,
    timers: Mutex<TimerWheel>,
    /// Known peer addresses; extended whenever a frame arrives from an
    /// unknown host (every frame carries the sender's host id).
    peers: RwLock<HashMap<u32, SocketAddr>>,
    /// What peers announced, for the publish gate and guaranteed-delivery
    /// interest.
    peer_subs: Mutex<PeerTable>,
    /// Semantic subject layer ([`BusConfig::subject_map`]): canonicalizes
    /// published subjects, expands subscribed filters.
    semantic: Option<Arc<SubjectMap>>,
    /// Semantic expansion families: head subscription id → sibling ids,
    /// removed together.
    expansions: Mutex<HashMap<SubscriptionId, Vec<SubscriptionId>>>,
    /// Content-filter and semantic-layer counters (atomics: the gates
    /// run on caller and I/O threads alike).
    filt: FilterCounters,
    /// Guaranteed-delivery non-volatile store: in-memory by default, a
    /// write-ahead ledger when [`BusConfig::durable_dir`] is set
    /// (replayed into the engine at open).
    nv: Mutex<NvStore>,
    broadcast: Option<SocketAddr>,
    no_local_echo: bool,
    recv_loss: f64,
    loss_seed: u64,
    queue_cap: usize,
    queue_dropped: Arc<AtomicU64>,
    /// Soft-state refresh period ([`BusConfig::announce_period_us`]);
    /// `0` disables the periodic refresh.
    announce_us: Micros,
    /// Deadline of the next refresh; after open only [`DriverCore::tick`]
    /// (the I/O thread) writes it.
    next_announce: AtomicU64,
}

impl<S: DatagramSink, H: LocalInterest> DriverCore<S, H> {
    /// Builds the daemon: validates the configuration, opens (and
    /// recovers) the non-volatile store, arms the standing protocol
    /// timers, asks the configured peers for their subscription tables,
    /// and re-enters recovered guaranteed envelopes as pending
    /// redeliveries.
    ///
    /// # Errors
    ///
    /// [`BusError::Config`] for an invalid configuration,
    /// [`BusError::Net`] if the durable ledger cannot be opened.
    pub fn open(setup: CoreSetup, sink: S, hook: H, now: Micros) -> Result<Self, BusError> {
        setup.bus.validate()?;
        // Open the store before any traffic: a durable daemon re-enters
        // the segment owing every guaranteed envelope it logged before
        // dying.
        let nv = NvStore::open(&setup.bus).map_err(net_err)?;
        let queue_cap = setup.bus.subscriber_queue_cap;
        let announce_us = setup.bus.announce_period_us;
        let pool = BufPool::with_slots(setup.bus.marshal_pool_slots());
        let semantic = setup.bus.semantic_map().cloned();
        // The engine owns the daemon-wide subject intern table; ledger
        // recovery interns its replayed subjects into it.
        let engine = Engine::new(setup.bus, setup.host);
        let recovered = nv.recovered_envelopes(engine.table()).map_err(net_err)?;
        let core = DriverCore {
            host: setup.host,
            source: PubSource {
                app: setup.app.into(),
                inc: 1,
                route: None,
            },
            pool,
            sink,
            hook,
            engine: Mutex::new(engine),
            trie: RwLock::new(SubjectTrie::new()),
            registry: Mutex::new(TypeRegistry::with_fundamentals()),
            timers: Mutex::new(TimerWheel::new()),
            peers: RwLock::new(setup.peers.into_iter().collect()),
            peer_subs: Mutex::new(PeerTable::new()),
            semantic,
            expansions: Mutex::new(HashMap::new()),
            filt: FilterCounters::default(),
            nv: Mutex::new(nv),
            broadcast: setup.broadcast,
            no_local_echo: setup.no_local_echo,
            recv_loss: setup.recv_loss,
            loss_seed: setup.loss_seed,
            queue_cap,
            queue_dropped: Arc::new(AtomicU64::new(0)),
            announce_us,
            next_announce: AtomicU64::new(now + announce_us),
        };
        {
            let mut engine = core.engine();
            let (nak, sync) = (engine.config().nak_check_us, engine.config().sync_period_us);
            {
                let mut wheel = poisoned(core.timers.lock());
                wheel.arm(now + nak, TimerKind::NakScan);
                wheel.arm(now + sync, TimerKind::Sync);
            }
            let host = core.host;
            core.broadcast_packet(&Packet::SubResync { host }, &mut engine.stats);
            // Restart replay: the retry rounds rebroadcast what the
            // ledger still owes.
            if !recovered.is_empty() {
                let actions = engine.gd_load(recovered);
                core.run_engine_actions(&mut engine, now, actions);
            }
        }
        Ok(core)
    }

    /// This daemon's host id.
    pub fn host(&self) -> u32 {
        self.host
    }

    /// The datagram sink (a shell keeps its socket in it).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The local-interest hook.
    pub fn hook(&self) -> &H {
        &self.hook
    }

    /// Locks the engine. First in the lock order: take it before any
    /// other core method that wants `&mut Engine` or its stats.
    pub fn engine(&self) -> MutexGuard<'_, Engine> {
        poisoned(self.engine.lock())
    }

    // ----- control plane ----------------------------------------------------

    /// Registers `host` at `addr` and exchanges subscription tables with
    /// it immediately, so guaranteed delivery and entitlement work
    /// without waiting for traffic.
    pub fn add_peer(&self, host: u32, addr: SocketAddr) {
        poisoned(self.peers.write()).insert(host, addr);
        let mut engine = self.engine();
        let me = self.host;
        self.send_packet_to(addr, &Packet::SubResync { host: me }, &mut engine.stats);
        let announce = self.full_announce();
        self.send_packet_to(addr, &announce, &mut engine.stats);
    }

    /// Registers an application type so objects can be marshalled.
    ///
    /// # Errors
    ///
    /// [`BusError::Marshal`] on conflicting registration.
    pub fn register_type(&self, d: TypeDescriptor) -> Result<(), BusError> {
        poisoned(self.registry.lock())
            .register(d)
            .map_err(|e| BusError::Marshal(e.to_string()))
    }

    /// Subscribes to `filter`, optionally narrowed by a content
    /// predicate; matching publications arrive on the returned queue.
    /// New filters — and filters whose combined predicate changed — are
    /// announced to the segment, the predicate travelling along so
    /// publishing daemons can suppress unanimously rejected publications.
    ///
    /// # Errors
    ///
    /// [`BusError::Filter`] if the predicate exceeds the compile bounds,
    /// [`BusError::Subject`] for malformed filters.
    pub fn subscribe(
        &self,
        now: Micros,
        filter: &str,
        pred: Option<&Predicate>,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        let pred = pred
            .map(CompiledPredicate::compile)
            .transpose()?
            .map(Arc::new);
        // Semantic expansion: one call may materialize sibling
        // subscriptions on every synonym/broadening of the filter.
        let expanded: Vec<String> = match &self.semantic {
            Some(m) => m.expand_filter(filter),
            None => vec![filter.to_owned()],
        };
        let mut parsed = Vec::with_capacity(expanded.len());
        for f in &expanded {
            parsed.push(SubjectFilter::new(f)?);
        }
        // A filter the hook holds is already announced unfiltered and
        // stays that way.
        let hook_filters = self.hook.announced_filters();
        let mut engine = self.engine();
        let (tx, rx) = sub_queue(self.queue_cap, Arc::clone(&self.queue_dropped));
        let mut add: Vec<AnnounceEntry> = Vec::new();
        let mut ids = Vec::with_capacity(parsed.len());
        {
            let mut trie = poisoned(self.trie.write());
            for (f, text) in parsed.iter().zip(&expanded) {
                let before = announced_pred_state(&trie, text);
                ids.push(trie.insert(
                    f,
                    SubEntry {
                        tx: tx.clone(),
                        since: now,
                        filter: text.clone(),
                        pred: pred.clone(),
                    },
                ));
                // Announce new filters, and *re*-announce when a sibling
                // changed what the filter's combined predicate says
                // (peers replace on receipt).
                let after = announced_pred_state(&trie, text).expect("filter just inserted");
                if before.as_ref() != Some(&after) && !hook_filters.contains(text) {
                    add.push(AnnounceEntry {
                        filter: text.clone(),
                        pred: after,
                    });
                }
            }
        }
        self.announce_change(&mut engine.stats, add, vec![]);
        let primary = ids[0];
        if ids.len() > 1 {
            self.filt
                .sem_expanded
                .fetch_add((ids.len() - 1) as u64, Ordering::Relaxed);
            poisoned(self.expansions.lock()).insert(primary, ids.split_off(1));
        }
        Ok((SubscriptionHandle::from_raw(primary), rx))
    }

    /// Removes a subscription (its queue closes once drained) together
    /// with any semantic expansion siblings; announces each removal if
    /// neither a sibling subscription nor the hook still holds the
    /// filter, or re-announces the filter's remaining combined
    /// predicate.
    pub fn unsubscribe(&self, handle: SubscriptionHandle) {
        let mut targets = vec![handle.raw()];
        if let Some(extras) = poisoned(self.expansions.lock()).remove(&handle.raw()) {
            targets.extend(extras);
        }
        let hook_filters = self.hook.announced_filters();
        let mut engine = self.engine();
        let mut add: Vec<AnnounceEntry> = Vec::new();
        let mut remove: Vec<String> = Vec::new();
        {
            let mut trie = poisoned(self.trie.write());
            for id in targets {
                let Some(entry) = trie.remove(id) else {
                    continue;
                };
                if hook_filters.contains(&entry.filter) {
                    continue;
                }
                match announced_pred_state(&trie, &entry.filter) {
                    None => remove.push(entry.filter),
                    // A sibling remains: re-announce unconditionally (the
                    // departing subscription may have widened or narrowed
                    // the combined predicate; peers replace on receipt).
                    Some(after) => add.push(AnnounceEntry {
                        filter: entry.filter,
                        pred: after,
                    }),
                }
            }
        }
        self.announce_change(&mut engine.stats, add, remove);
    }

    /// Broadcasts an incremental `SubAnnounce`, if there is anything to
    /// say.
    fn announce_change(&self, stats: &mut BusStats, add: Vec<AnnounceEntry>, remove: Vec<String>) {
        if add.is_empty() && remove.is_empty() {
            return;
        }
        let pkt = Packet::SubAnnounce {
            host: self.host,
            full: false,
            add,
            remove,
        };
        self.broadcast_packet(&pkt, stats);
    }

    /// Announces that the hook gained (`held`) or lost its first/last
    /// interest in `filter`. Gained: the filter is now announced
    /// unfiltered, whatever predicate an API sibling carries. Lost: the
    /// API subscriptions' combined predicate is re-announced (the
    /// aggregate may narrow back down), or the removal if there are none.
    pub fn announce_hook_filter(&self, stats: &mut BusStats, filter: String, held: bool) {
        let state = if held {
            Some(Vec::new())
        } else {
            let trie = poisoned(self.trie.read());
            announced_pred_state(&trie, &filter)
        };
        match state {
            Some(pred) => self.announce_change(stats, vec![AnnounceEntry { filter, pred }], vec![]),
            None => self.announce_change(stats, vec![], vec![filter]),
        }
    }

    /// Every subscription filter announced by peers on this segment
    /// (deduplicated, sorted).
    pub fn peer_filters(&self) -> Vec<String> {
        poisoned(self.peer_subs.lock()).filters()
    }

    /// A snapshot of the protocol counters, with the subscriber-queue
    /// gauges, the filter counters and the ledger counters folded in.
    pub fn stats(&self) -> BusStats {
        let mut stats = self.engine().stats.clone();
        let trie = poisoned(self.trie.read());
        let mut depth = 0u64;
        trie.for_each(|_, _, e| depth += e.tx.queued() as u64);
        stats.sub_queue_depth = depth;
        stats.sub_queue_dropped = self.queue_dropped.load(Ordering::Relaxed);
        self.filt.fold_into(&mut stats);
        poisoned(self.nv.lock()).stamp_stats(&mut stats);
        stats
    }

    // ----- publish path -----------------------------------------------------

    /// Publishes a value: canonicalize, gate, marshal, then sequence,
    /// fan out locally and transmit under the engine lock. Returns the
    /// number of local deliveries.
    ///
    /// # Errors
    ///
    /// [`BusError::Subject`] or [`BusError::Marshal`].
    pub fn publish(
        &self,
        now: Micros,
        subject: &str,
        value: &Value,
        qos: QoS,
    ) -> Result<usize, BusError> {
        let subject = self.canonical(subject);
        // Publish gate: when every matching interest carries a rejecting
        // predicate, the publication is suppressed before it is ever
        // marshalled, sequenced, or framed.
        if !self.publish_gate(&subject, value)? {
            return Ok(0);
        }
        let payload = {
            let mut buf = self.pool.take();
            let registry = poisoned(self.registry.lock());
            wire::marshal_self_describing_into(buf.vec_mut(), value, &registry)
                .map_err(|e| BusError::Marshal(e.to_string()))?;
            buf.freeze()
        };
        let mut engine = self.engine();
        self.publish_payload(&mut engine, now, &subject, payload, qos, &self.source)
    }

    /// Semantic layer: a synonym subject collapses to its canonical form
    /// before the trie, the engine, or the wire see it.
    pub fn canonical<'a>(&self, subject: &'a str) -> Cow<'a, str> {
        match self.semantic.as_ref().and_then(|m| m.canonicalize(subject)) {
            Some(c) => {
                self.filt.sem_canonicalized.fetch_add(1, Ordering::Relaxed);
                Cow::Owned(c)
            }
            None => Cow::Borrowed(subject),
        }
    }

    /// The publisher-side content gate, [`interest_accepts`] over API
    /// subscriptions, then the hook (whose interest counts as
    /// unfiltered), then peer-announced filters: `false` means every
    /// matching interest carries a rejecting predicate. Zero matching
    /// interest sends (remote daemons filter cheaply anyway).
    fn publish_gate(&self, subject: &str, value: &Value) -> Result<bool, BusError> {
        let subject = Subject::new(subject)?;
        let mut evals = 0u64;
        // Staged, not one chain: each stage's lock is released before
        // the next is taken, and an accepting stage skips the rest.
        let (mut matched, mut accept) = {
            let trie = poisoned(self.trie.read());
            let mut local = trie
                .matches(&subject)
                .map(|(_, e)| e.pred.as_deref())
                .peekable();
            let matched = local.peek().is_some();
            (
                matched,
                matched && interest_accepts(value, local, &mut evals),
            )
        };
        if !accept && self.hook.earliest_matching_sub(&subject).is_some() {
            matched = true;
            accept = true;
        }
        if !accept {
            let peer_subs = poisoned(self.peer_subs.lock());
            let mut remote = peer_subs.matching(&subject).peekable();
            if remote.peek().is_some() {
                matched = true;
                accept = interest_accepts(value, remote, &mut evals);
            }
        }
        let send = accept || !matched;
        self.filt
            .record_publish_gate(evals, send, approx_wire_bytes(value));
        Ok(send)
    }

    /// Re-publishes an already marshalled payload as a forwarded copy
    /// carrying a federation route stamp (counted in
    /// `router_forwarded`).
    ///
    /// # Errors
    ///
    /// [`BusError::Subject`] if `subject` is invalid.
    pub fn forward(
        &self,
        now: Micros,
        subject: &str,
        payload: Bytes,
        qos: QoS,
        route: Option<RouteStamp>,
    ) -> Result<usize, BusError> {
        let source = PubSource {
            route,
            ..self.source.clone()
        };
        let mut engine = self.engine();
        let n = self.publish_payload(&mut engine, now, subject, payload, qos, &source)?;
        engine.stats.router_forwarded += 1;
        Ok(n)
    }

    /// The shared publish tail — API publishes, router forwards (a
    /// `source` carrying a route stamp) and hook fan-in (a `source`
    /// naming the client) all end here: sequence, persist (guaranteed),
    /// fan out locally (unless local echo is suppressed), and transmit.
    ///
    /// # Errors
    ///
    /// [`BusError::Subject`] if `subject` is invalid.
    pub fn publish_payload(
        &self,
        engine: &mut Engine,
        now: Micros,
        subject: &str,
        payload: Bytes,
        qos: QoS,
        source: &PubSource,
    ) -> Result<usize, BusError> {
        let subject = engine.table().intern(subject)?;
        let (env, pre) = engine.publish(now, source, &subject, qos, EnvelopeKind::Data, 0, payload);
        // Pre-actions (persist-before-broadcast for guaranteed QoS).
        self.run_engine_actions(engine, now, pre);
        let (delivered, suppressed) = if self.no_local_echo {
            (0, 0)
        } else {
            self.fan_out(&mut engine.stats, &env)
        };
        // A predicate rejection counts as consumption: the subscriber
        // saw and declined the envelope, so guaranteed delivery
        // completes instead of retrying forever.
        if qos == QoS::Guaranteed && delivered + suppressed > 0 {
            engine.gd_local_done(&env);
        }
        let actions = engine.enqueue(&env);
        self.run_engine_actions(engine, now, actions);
        Ok(delivered)
    }

    // ----- send path --------------------------------------------------------

    /// Broadcasts a packet: one datagram to the broadcast address, or
    /// one per known peer without one. The frame is encoded once.
    fn broadcast_packet(&self, packet: &Packet, stats: &mut BusStats) {
        let bytes = encode_frame(self.host, packet);
        if let Some(group) = self.broadcast {
            self.sink.send_datagram(group, &bytes, stats);
            return;
        }
        let peers: Vec<SocketAddr> = poisoned(self.peers.read()).values().copied().collect();
        for addr in peers {
            self.sink.send_datagram(addr, &bytes, stats);
        }
    }

    fn send_packet_to(&self, addr: SocketAddr, packet: &Packet, stats: &mut BusStats) {
        let bytes = encode_frame(self.host, packet);
        self.sink.send_datagram(addr, &bytes, stats);
    }

    /// A full `SubAnnounce` of every locally subscribed filter: API
    /// subscriptions with their combined announced predicate, hook
    /// filters unfiltered.
    fn full_announce(&self) -> Packet {
        let mut hook_filters: BTreeSet<String> =
            self.hook.announced_filters().into_iter().collect();
        let trie = poisoned(self.trie.read());
        let mut filters = BTreeSet::new();
        trie.for_each(|_, _, e| {
            filters.insert(e.filter.clone());
        });
        let mut add: Vec<AnnounceEntry> = filters
            .into_iter()
            .map(|f| {
                if hook_filters.remove(&f) {
                    return AnnounceEntry::plain(f);
                }
                let pred = announced_pred_state(&trie, &f).unwrap_or_default();
                AnnounceEntry { filter: f, pred }
            })
            .collect();
        add.extend(hook_filters.into_iter().map(AnnounceEntry::plain));
        Packet::SubAnnounce {
            host: self.host,
            full: true,
            add,
            remove: vec![],
        }
    }

    // ----- engine plumbing --------------------------------------------------

    /// Performs a batch of engine actions and reports guaranteed local
    /// deliveries back to the engine.
    fn run_engine_actions(&self, engine: &mut Engine, now: Micros, actions: Vec<Action>) {
        if actions.is_empty() {
            return;
        }
        let mut t = CoreTransport {
            core: self,
            now,
            stats: &mut engine.stats,
            gd_done: Vec::new(),
        };
        run_actions(actions, &mut t);
        let gd_done = t.gd_done;
        for env in &gd_done {
            engine.gd_local_done(env);
        }
    }

    /// Hands an envelope to every matching API subscriber queue and then
    /// to the hook. Subject and payload are shared handles — fan-out
    /// copies no bytes. Returns `(delivered, suppressed)`: predicated
    /// interest whose predicate rejects the payload is skipped (and, for
    /// guaranteed QoS, still counts as consumption). The payload is
    /// unmarshalled at most once, and only when some predicated interest
    /// matches; a payload that fails to unmarshal delivers
    /// unconditionally. `stats.delivered` counts API-queue deliveries.
    fn fan_out(&self, stats: &mut BusStats, env: &Envelope) -> (usize, usize) {
        let mut count = 0usize;
        let mut suppressed = 0usize;
        let mut value: Option<Option<Value>> = None;
        {
            let trie = poisoned(self.trie.read());
            for (_, entry) in trie.matches(&env.subject) {
                if let Some(p) = &entry.pred {
                    let v = value.get_or_insert_with(|| {
                        let mut registry = poisoned(self.registry.lock());
                        wire::unmarshal(&env.payload, &mut registry).ok()
                    });
                    if let Some(v) = v {
                        self.filt.evals.fetch_add(1, Ordering::Relaxed);
                        if !p.eval(v) {
                            suppressed += 1;
                            self.filt
                                .delivery_suppressed
                                .fetch_add(1, Ordering::Relaxed);
                            self.filt
                                .suppressed_bytes
                                .fetch_add(env.payload.len() as u64, Ordering::Relaxed);
                            continue;
                        }
                    }
                }
                let msg = Delivery {
                    subject: env.subject.clone(),
                    payload: env.payload.clone(),
                    redelivery: env.redelivery,
                    qos: env.qos,
                    route: env.route,
                };
                if entry.tx.send(msg).is_ok() {
                    count += 1;
                }
            }
        }
        stats.delivered += count as u64;
        stats.delivered_bytes += (env.payload.len() * count) as u64;
        // The hook reuses the value this fan-out may already have
        // unmarshalled.
        let mut value_of = || match value.take() {
            Some(v) => v,
            None => {
                let mut registry = poisoned(self.registry.lock());
                wire::unmarshal(&env.payload, &mut registry).ok()
            }
        };
        let (sent, rejected) = self.hook.on_deliver(&self.sink, stats, env, &mut value_of);
        (count + sent, suppressed + rejected)
    }

    /// Creation time of the earliest local interest (API subscription or
    /// hook) matching `subject`.
    fn earliest_matching_sub(&self, subject: &Subject) -> Option<Micros> {
        let trie = poisoned(self.trie.read());
        let api = trie.matches(subject).map(|(_, e)| e.since).min();
        drop(trie);
        api.into_iter()
            .chain(self.hook.earliest_matching_sub(subject))
            .min()
    }

    /// Per-subject interested hosts for a guaranteed-delivery retry
    /// round, from announced remote tables. Local interest is handled
    /// via [`Engine::gd_local_done`], so self is excluded.
    fn gd_interest(&self, engine: &Engine) -> HashMap<String, Vec<u32>> {
        let peer_subs = poisoned(self.peer_subs.lock());
        let mut interest = HashMap::new();
        for text in engine.gd_subjects() {
            // Absent from the map = invalid subject; the engine
            // completes those entries.
            if let Ok(subject) = Subject::new(&text) {
                interest.insert(text, peer_subs.interested_hosts(&subject));
            }
        }
        interest
    }

    // ----- I/O-loop entry points --------------------------------------------

    /// The earliest armed engine deadline (how long a blocking loop may
    /// park).
    pub fn next_deadline(&self) -> Option<Micros> {
        poisoned(self.timers.lock()).next_deadline()
    }

    /// Fires every due engine deadline and, once per
    /// [`BusConfig::announce_period_us`], refreshes soft state. Call
    /// from the I/O loop only. Returns `true` if anything fired.
    pub fn tick(&self, now: Micros) -> bool {
        let fired = self.fire_due_timers(now);
        self.refresh_soft_state(now) || fired
    }

    fn fire_due_timers(&self, now: Micros) -> bool {
        let due = poisoned(self.timers.lock()).expired(now);
        if due.is_empty() {
            return false;
        }
        let mut engine = self.engine();
        for kind in due {
            let event = match kind {
                TimerKind::GdRetry => Event::GdRetry {
                    interest: self.gd_interest(&engine),
                },
                other => Event::Timer(other),
            };
            let actions = engine.handle(now, event);
            self.run_engine_actions(&mut engine, now, actions);
        }
        true
    }

    /// Periodic soft-state refresh: re-broadcasts `SubResync` plus the
    /// full local announce, like the simulated daemon's announce timer.
    /// Without it a single lost announcement can wedge the publish gate
    /// and guaranteed-delivery interest until the next subscribe — e.g.
    /// a restarted durable publisher whose open-time resync was dropped
    /// would never learn who wants its replayed ledger.
    fn refresh_soft_state(&self, now: Micros) -> bool {
        if self.announce_us == 0 || now < self.next_announce.load(Ordering::Relaxed) {
            return false;
        }
        self.next_announce
            .store(now + self.announce_us, Ordering::Relaxed);
        let mut engine = self.engine();
        let host = self.host;
        self.broadcast_packet(&Packet::SubResync { host }, &mut engine.stats);
        let announce = self.full_announce();
        self.broadcast_packet(&announce, &mut engine.stats);
        true
    }

    /// A fresh receive-loss sequence for the I/O loop to thread through
    /// [`DriverCore::recv_lost`].
    pub fn loss_rng(&self) -> LossRng {
        LossRng::new(self.loss_seed)
    }

    /// Seeded receive loss: `true` means drop this inbound datagram
    /// undecoded (counted in `net_recv_dropped`). Loopback never loses
    /// packets, so repair tests inject loss here.
    pub fn recv_lost(&self, loss: &mut LossRng) -> bool {
        let lost = self.recv_loss > 0.0 && loss.gen_f64() < self.recv_loss;
        if lost {
            self.engine().stats.net_recv_dropped += 1;
        }
        lost
    }

    /// Decodes one peer (`IBUS`) datagram and dispatches it into the
    /// engine. Malformed datagrams count `net_decode_errors` and are
    /// dropped; nothing a peer sends can panic the daemon.
    pub fn on_peer_datagram(&self, now: Micros, src: SocketAddr, datagram: &[u8]) {
        let mut engine = self.engine();
        // Decoding interns wire subjects into the daemon's table.
        let (from_host, packet) = match decode_frame(datagram, engine.table()) {
            Ok(x) => x,
            Err(_) => {
                engine.stats.net_decode_errors += 1;
                return;
            }
        };
        if from_host == self.host {
            // Our own multicast loopback.
            return;
        }
        engine.stats.net_rx_packets += 1;
        engine.stats.net_rx_bytes += datagram.len() as u64;
        // Address learning: any frame teaches us where its sender lives.
        poisoned(self.peers.write()).insert(from_host, src);
        match packet {
            Packet::Data { envelopes, .. } => {
                for env in envelopes {
                    if env.stream.host == self.host {
                        continue;
                    }
                    let Some(sub_at) = self.earliest_matching_sub(&env.subject) else {
                        // Cheap filtering at the daemon boundary, as in
                        // the paper: nothing local matches.
                        engine.stats.filtered += 1;
                        continue;
                    };
                    let entitled = env.stream_start >= sub_at;
                    let actions = engine.handle(now, Event::Envelope { env, entitled });
                    self.run_engine_actions(&mut engine, now, actions);
                }
            }
            Packet::SeqSync { entries } => {
                for entry in entries {
                    if entry.stream.host == self.host {
                        continue;
                    }
                    let sub_at = self.earliest_matching_sub(&entry.subject);
                    let actions = engine.handle(now, Event::Digest { entry, sub_at });
                    self.run_engine_actions(&mut engine, now, actions);
                }
            }
            Packet::SubAnnounce {
                host,
                full,
                add,
                remove,
            } => poisoned(self.peer_subs.lock()).apply_announce(host, full, add, remove),
            Packet::SubResync { .. } => {
                let announce = self.full_announce();
                self.send_packet_to(src, &announce, &mut engine.stats);
            }
            // Nak, GapSkip, Ack: engine events as they stand.
            repair => {
                if let Ok(event) = Event::try_from(repair) {
                    let actions = engine.handle(now, event);
                    self.run_engine_actions(&mut engine, now, actions);
                }
            }
        }
    }
}

/// The [`Transport`] the core hands to [`run_actions`]: performs engine
/// actions against the sink, the timer wheel, the ledger, the subscriber
/// queues and the hook.
struct CoreTransport<'a, S, H> {
    core: &'a DriverCore<S, H>,
    now: Micros,
    stats: &'a mut BusStats,
    /// Guaranteed envelopes locally delivered during this batch, to be
    /// reported back via [`Engine::gd_local_done`] once the borrow ends.
    gd_done: Vec<Envelope>,
}

impl<S: DatagramSink, H: LocalInterest> Transport for CoreTransport<'_, S, H> {
    fn broadcast(&mut self, packet: Packet) {
        self.core.broadcast_packet(&packet, self.stats);
    }

    fn unicast(&mut self, host: u32, packet: Packet) {
        let addr = poisoned(self.core.peers.read()).get(&host).copied();
        match addr {
            Some(addr) => self.core.send_packet_to(addr, &packet, self.stats),
            // An unknown peer (never heard from, not configured): the
            // datagram has nowhere to go.
            None => self.stats.net_send_errors += 1,
        }
    }

    fn set_timer(&mut self, delay_us: Micros, timer: TimerKind) {
        poisoned(self.core.timers.lock()).arm(self.now + delay_us, timer);
    }

    fn deliver(&mut self, env: Envelope) {
        // Control envelopes (RMI, discovery) need co-resident protocol
        // handlers socket drivers do not host yet; only data fans out.
        if env.kind == EnvelopeKind::Data {
            self.core.fan_out(self.stats, &env);
        }
    }

    fn deliver_gd(&mut self, env: Envelope) {
        let (delivered, suppressed) = self.core.fan_out(self.stats, &env);
        if delivered + suppressed > 0 {
            self.gd_done.push(env);
        }
    }

    fn persist(&mut self, key: String, bytes: Vec<u8>) {
        poisoned(self.core.nv.lock()).persist(0, &key, &bytes);
    }

    fn unpersist(&mut self, key: &str) {
        poisoned(self.core.nv.lock()).unpersist(0, key);
    }
}
