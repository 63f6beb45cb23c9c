//! A real-thread transport carrying bus envelopes between OS threads.
//!
//! The simulator measures the protocol in *virtual* time; this module
//! lets the microbenchmark harness measure the real wall-clock cost of
//! the data path — marshalling, reliable-layer sequencing, subject-trie
//! matching, and hand-off — with actual threads and channels.
//!
//! The bus is a second driver of the same sans-I/O
//! [`Engine`](crate::engine) the simulated daemon runs: every publication
//! is sequenced into an [`Envelope`], the
//! resulting broadcast action is looped straight back into the engine's
//! receive path (loopback mode), and only envelopes the reliable layer
//! releases *in order* reach subscriber channels. Duplicates injected by
//! a buggy caller would be dropped, exactly as on the wire. Protocol time
//! is a monotonic counter — the engine never reads a clock.
//!
//! # Hot-path memory discipline
//!
//! A steady-state reliable publish allocates **nothing**:
//!
//! * the subject is interned once at the API boundary
//!   ([`SubjectTable`]); every envelope, map key, and [`Delivery`]
//!   aliases the same `Arc<str>`;
//! * the payload is marshalled into a buffer recycled from a
//!   [`BufPool`] and frozen into a shared [`Bytes`] slice — subscriber
//!   fan-out clones reference counts, never bytes;
//! * engine actions append into a scratch vector whose capacity
//!   persists across publishes;
//! * fan-out targets come from a subject-id-keyed cache (rebuilt lazily
//!   when the subscription set changes), so the trie walk and its
//!   temporary vectors are off the steady-state path entirely.
//!
//! `publish` runs that whole chain synchronously on the calling thread.
//! A loopback has no wire to batch for, so every configuration takes
//! this path ([`BusConfig::batch_enabled`] is ignored here).
//!
//! # Examples
//!
//! ```
//! use infobus_core::inproc::InprocBus;
//! use infobus_core::QoS;
//! use infobus_types::Value;
//!
//! let bus = InprocBus::new();
//! let (_sub, rx) = bus.subscribe("news.>").unwrap();
//! bus.publish("news.equity.gmc", &Value::str("hello"), QoS::Reliable)
//!     .unwrap();
//! let msg = rx.recv().unwrap();
//! assert_eq!(msg.subject, "news.equity.gmc");
//! assert_eq!(msg.value().unwrap(), Value::str("hello"));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use infobus_router::SubjectMap;
use infobus_subject::{InternedSubject, SubjectFilter, SubjectTable, SubjectTrie, SubscriptionId};
use infobus_types::{wire, TypeRegistry, Value};

use crate::app::SubscriptionHandle;
use crate::buf::{BufPool, Bytes};
use crate::bus::{Bus, BusReceiver, Delivery};
use crate::config::BusConfig;
use crate::engine::filter::{
    self, approx_wire_bytes, CompiledPredicate, FilterCounters, Predicate,
};
use crate::engine::{Action, BusStats, Engine, Event, Micros, PubSource};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::nvstore::NvStore;
use crate::queue::{sub_queue, SubReceiver, SubSender};
use crate::{BusError, QoS};

/// The receiving half of an in-process subscription: a bounded
/// drop-oldest queue (see [`crate::queue`]) with an `mpsc`-compatible
/// API. Same type as [`BusReceiver`] — the unified [`Bus`] receiver.
pub type InprocReceiver = SubReceiver<InprocMessage>;

/// A message delivered by the in-process bus — the driver-independent
/// [`Delivery`] (unmarshal lazily with [`Delivery::value`]). The name
/// survives from before the unified [`Bus`] surface.
pub type InprocMessage = Delivery;

/// The single-node host id the in-process engine publishes under.
const INPROC_HOST: u32 = 1;

/// The engine plus its reusable action scratch vector. The scratch lives
/// under the same mutex as the engine, so the fast path drains and
/// refills it without ever releasing its capacity.
struct EngineSlot {
    engine: Engine,
    scratch: Vec<Action>,
}

/// One subscription as stored in the trie: the subscriber's queue
/// sender plus its compiled content predicate, if any — the per-entry
/// delivery gate.
#[derive(Clone)]
struct SubEntry {
    tx: SubSender<InprocMessage>,
    pred: Option<Arc<CompiledPredicate>>,
}

/// The fan-out cache: dense subject id → the subscription entries
/// matching that subject, valid for one subscription generation. Keeping
/// entries (not trie positions) means a steady-state delivery is a
/// read-lock, a map probe, and a refcount bump — the trie and its
/// temporary vectors are only walked when the subscription set changed.
struct MatchCache {
    /// The subscription generation this map was built against.
    gen: u64,
    map: HashMap<u32, Arc<[SubEntry]>>,
}

// Lock discipline: every `.expect("lock poisoned")` below is deliberate.
// A lock only poisons if a holder panicked mid-critical-section, leaving
// engine/trie state possibly inconsistent; propagating the panic to every
// other bus user is safer than limping on with torn state.
struct Inner {
    /// The protocol engine, in loopback mode: envelopes from our own
    /// host are accepted back into the receive path.
    engine: Mutex<EngineSlot>,
    trie: RwLock<SubjectTrie<SubEntry>>,
    registry: Mutex<TypeRegistry>,
    /// Monotonic protocol time (the engine is sans-I/O and never reads a
    /// clock; one tick per publication is plenty for a lossless loop).
    now: AtomicU64,
    /// Guaranteed-delivery non-volatile store: in-memory by default, a
    /// write-ahead ledger when [`BusConfig::durable_dir`] is set
    /// (replayed into the engine at construction).
    nv: Mutex<NvStore>,
    /// Per-subscriber queue cap (0 = unbounded), from
    /// [`BusConfig::subscriber_queue_cap`].
    queue_cap: usize,
    /// Cumulative drop-oldest evictions across all subscriber queues.
    queue_dropped: Arc<AtomicU64>,
    /// The engine's subject intern table: subjects are interned once at
    /// the publish boundary.
    table: SubjectTable,
    /// Recycled marshal buffers — see [`BufPool`].
    pool: BufPool,
    /// The one publisher identity of this bus, cached so a publish
    /// clones an `Arc<str>` instead of allocating a fresh string.
    source: PubSource,
    /// Bumped by every subscribe/unsubscribe; invalidates `match_cache`.
    sub_gen: AtomicU64,
    match_cache: RwLock<MatchCache>,
    /// Content-filter and semantic-mapping counters, folded into stats
    /// snapshots (the gates run outside the engine lock).
    filt: FilterCounters,
    /// The semantic subject map from [`BusConfig::subject_map`]; `None`
    /// when unset or empty (the common case — zero overhead).
    semantic: Option<Arc<SubjectMap>>,
    /// Extra trie insertions a semantic filter expansion created for a
    /// subscription, keyed by the primary id so unsubscribe removes the
    /// whole family.
    expansions: Mutex<HashMap<SubscriptionId, Vec<SubscriptionId>>>,
}

/// A thread-safe publish/subscribe bus within one process, driving the
/// same protocol [`Engine`] as the simulated daemon.
///
/// `publish` runs the full data path — self-describing marshalling,
/// reliable-layer sequencing, loopback receive, subject-trie matching,
/// per-subscriber channel hand-off — on the calling thread; subscribers
/// receive on mpsc channels from any other thread.
#[derive(Clone)]
pub struct InprocBus {
    inner: Arc<Inner>,
}

impl InprocBus {
    /// Creates an empty bus with a fundamentals-only type registry.
    pub fn new() -> Self {
        InprocBus::with_config(BusConfig::default())
    }

    /// Creates an empty bus with the given configuration (notably
    /// [`BusConfig::subscriber_queue_cap`], the backpressure bound for
    /// slow subscribers, and [`BusConfig::durable_dir`], which puts the
    /// guaranteed-delivery ledger on disk and replays it here).
    ///
    /// # Panics
    ///
    /// Panics if a durable ledger directory cannot be opened
    /// (fail-stop; see [`NvStore`]).
    pub fn with_config(cfg: BusConfig) -> Self {
        let nv = NvStore::open(&cfg).expect("open guaranteed-delivery ledger");
        let queue_cap = cfg.subscriber_queue_cap;
        let pool_slots = cfg.marshal_pool_slots();
        let semantic = cfg.semantic_map().cloned();
        let mut engine = Engine::new_loopback(cfg, INPROC_HOST);
        let table = engine.table().clone();
        let recovered = nv
            .recovered_envelopes(&table)
            .expect("read guaranteed-delivery ledger");
        // The retry-timer arm a daemon would perform is dropped: the
        // in-process loop runs its retry rounds synchronously instead.
        let _ = engine.gd_load(recovered);
        InprocBus {
            inner: Arc::new(Inner {
                engine: Mutex::new(EngineSlot {
                    engine,
                    scratch: Vec::new(),
                }),
                nv: Mutex::new(nv),
                trie: RwLock::new(SubjectTrie::new()),
                registry: Mutex::new(TypeRegistry::with_fundamentals()),
                now: AtomicU64::new(0),
                queue_cap,
                queue_dropped: Arc::new(AtomicU64::new(0)),
                table,
                pool: BufPool::with_slots(pool_slots),
                source: PubSource {
                    app: "inproc".into(),
                    inc: 1,
                    route: None,
                },
                sub_gen: AtomicU64::new(0),
                match_cache: RwLock::new(MatchCache {
                    gen: 0,
                    map: HashMap::new(),
                }),
                filt: FilterCounters::default(),
                semantic,
                expansions: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Registers application types so objects can be marshalled.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Marshal`] on conflicting registration.
    pub fn register_type(&self, d: infobus_types::TypeDescriptor) -> Result<(), BusError> {
        self.inner
            .registry
            .lock()
            .expect("lock poisoned")
            .register(d)
            .map_err(|e| BusError::Marshal(e.to_string()))
    }

    /// Subscribes to a filter; matching publications arrive on the
    /// returned channel, and the [`SubscriptionHandle`] cancels the
    /// subscription when passed to [`InprocBus::unsubscribe`].
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters.
    pub fn subscribe(
        &self,
        filter: &str,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        self.subscribe_entry(filter, None)
    }

    /// Subscribes to a filter with a content predicate: only matching
    /// publications whose payload satisfies `pred` reach the returned
    /// channel. The predicate is compiled once here and evaluated at the
    /// delivery gate; when *every* subscription matching a publication
    /// carries a predicate and all reject, the publish gate suppresses
    /// the publication before sequencing ([`BusStats::filt_pub_suppressed`]).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for malformed filters or
    /// [`BusError::Filter`] if the predicate exceeds the compile bounds.
    pub fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        let compiled = Arc::new(CompiledPredicate::compile(pred)?);
        self.subscribe_entry(filter, Some(compiled))
    }

    /// The shared subscribe tail: applies the semantic map's filter
    /// expansion (synonym aliases and taxonomy broadenings subscribe
    /// alongside the canonical form), inserts one trie entry per
    /// expanded filter — all sharing the queue sender and the predicate —
    /// and records the extra ids so unsubscribe removes the family.
    fn subscribe_entry(
        &self,
        filter: &str,
        pred: Option<Arc<CompiledPredicate>>,
    ) -> Result<(SubscriptionHandle, InprocReceiver), BusError> {
        let expanded = match &self.inner.semantic {
            Some(map) => map.expand_filter(filter),
            None => Vec::new(),
        };
        let filters: Vec<SubjectFilter> = if expanded.is_empty() {
            vec![SubjectFilter::new(filter)?]
        } else {
            expanded
                .iter()
                .map(|f| SubjectFilter::new(f))
                .collect::<Result<_, _>>()?
        };
        if filters.len() > 1 {
            use std::sync::atomic::Ordering::Relaxed;
            self.inner
                .filt
                .sem_expanded
                .fetch_add((filters.len() - 1) as u64, Relaxed);
        }
        let (tx, rx) = sub_queue(self.inner.queue_cap, self.inner.queue_dropped.clone());
        let (primary, extra) = {
            let mut trie = self.inner.trie.write().expect("lock poisoned");
            let mut ids = filters.iter().map(|f| {
                trie.insert(
                    f,
                    SubEntry {
                        tx: tx.clone(),
                        pred: pred.clone(),
                    },
                )
            });
            let primary = ids.next().expect("at least one filter");
            (primary, ids.collect::<Vec<_>>())
        };
        if !extra.is_empty() {
            self.inner
                .expansions
                .lock()
                .expect("lock poisoned")
                .insert(primary, extra);
        }
        self.bump_subscriptions();
        Ok((SubscriptionHandle(primary), rx))
    }

    /// Removes a subscription (its channel closes once drained),
    /// including any trie entries the semantic expansion added for it.
    pub fn unsubscribe(&self, handle: SubscriptionHandle) {
        let extra = self
            .inner
            .expansions
            .lock()
            .expect("lock poisoned")
            .remove(&handle.0);
        {
            let mut trie = self.inner.trie.write().expect("lock poisoned");
            trie.remove(handle.0);
            for id in extra.into_iter().flatten() {
                trie.remove(id);
            }
        }
        self.bump_subscriptions();
    }

    /// Advances the subscription generation and eagerly clears the
    /// fan-out cache, dropping its sender clones — an unsubscribed
    /// queue must disconnect now, not at the next cache rebuild.
    fn bump_subscriptions(&self) {
        let mut cache = self.inner.match_cache.write().expect("lock poisoned");
        self.inner.sub_gen.fetch_add(1, Ordering::Release);
        cache.map.clear();
    }

    /// The subscription entries matching `subject`, served from the
    /// fan-out cache on the steady state (read-lock, id probe, refcount
    /// bump — no allocation) and rebuilt from the trie when the
    /// subscription set changed.
    fn matching_entries(&self, subject: &InternedSubject) -> Arc<[SubEntry]> {
        let gen = self.inner.sub_gen.load(Ordering::Acquire);
        {
            let cache = self.inner.match_cache.read().expect("lock poisoned");
            if cache.gen == gen {
                if let Some(entries) = cache.map.get(&subject.id().0) {
                    return Arc::clone(entries);
                }
            }
        }
        // Miss: walk the trie and memoize under the subject's dense id.
        let entries: Arc<[SubEntry]> = {
            let trie = self.inner.trie.read().expect("lock poisoned");
            trie.matches(subject)
                .map(|(_, e)| e.clone())
                .collect::<Vec<_>>()
                .into()
        };
        let mut cache = self.inner.match_cache.write().expect("lock poisoned");
        if cache.gen != gen {
            cache.map.clear();
            cache.gen = gen;
        }
        // Only memoize if no subscribe/unsubscribe raced the trie walk;
        // a racing bump clears the map after we release the write lock,
        // so a stale entry can never outlive the generation it matched.
        if self.inner.sub_gen.load(Ordering::Acquire) == gen {
            cache.map.insert(subject.id().0, Arc::clone(&entries));
        }
        entries
    }

    /// Publishes a value with the requested delivery guarantee; the
    /// reliable layer sequences it and delivers to every matching
    /// subscriber in publication order.
    /// Returns the number of subscribers the message was handed to.
    ///
    /// [`QoS::Guaranteed`] runs the full guaranteed-delivery ledger —
    /// persist-before-send, local-delivery acknowledgment, completion —
    /// with the retry rounds executed synchronously after the publish
    /// (the in-process loop has no timer substrate). A guaranteed
    /// publication nobody subscribes to stays pending
    /// ([`BusStats::gd_pending`]) until a later guaranteed publish finds
    /// a subscriber to redeliver to, exactly the at-least-once contract.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] or [`BusError::Marshal`].
    pub fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        let subject = self.intern_canonical(subject)?;
        // Publish gate: when every matching subscription carries a
        // rejecting predicate, the publication is suppressed *here* —
        // before marshalling, sequencing, and fan-out ever run.
        let entries = self.matching_entries(&subject);
        if entries.iter().any(|e| e.pred.is_some()) {
            let mut evals = 0u64;
            let sent = filter::interest_accepts(
                value,
                entries.iter().map(|e| e.pred.as_deref()),
                &mut evals,
            );
            self.inner
                .filt
                .record_publish_gate(evals, sent, approx_wire_bytes(value));
            if !sent {
                return Ok(0);
            }
        }
        let payload = {
            let mut buf = self.inner.pool.take();
            let registry = self.inner.registry.lock().expect("lock poisoned");
            wire::marshal_self_describing_into(buf.vec_mut(), value, &registry)
                .map_err(|e| BusError::Marshal(e.to_string()))?;
            buf.freeze()
        };
        Ok(self.dispatch(&subject, payload, qos))
    }

    /// Publishes bytes already marshalled with
    /// [`wire::marshal_self_describing`] (or [`wire::marshal_value`]),
    /// skipping the registry and the marshaller — the zero-copy entry
    /// point for callers that pre-marshal or forward payloads verbatim.
    /// The bytes are copied once into a pooled buffer; everything
    /// downstream shares that buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::Subject`] for an invalid subject.
    pub fn publish_marshaled(
        &self,
        subject: &str,
        payload: &[u8],
        qos: QoS,
    ) -> Result<usize, BusError> {
        let subject = self.intern_canonical(subject)?;
        // Publish gate for pre-marshalled bytes: the value only exists
        // on the wire, so unmarshal lazily and only when the gate could
        // actually suppress (some interest, all of it predicated). An
        // unmarshalling failure sends — the conservative direction.
        let entries = self.matching_entries(&subject);
        if !entries.is_empty() && entries.iter().all(|e| e.pred.is_some()) {
            let mut registry = TypeRegistry::with_fundamentals();
            if let Ok(value) = wire::unmarshal(payload, &mut registry) {
                let mut evals = 0u64;
                let sent = filter::interest_accepts(
                    &value,
                    entries.iter().map(|e| e.pred.as_deref()),
                    &mut evals,
                );
                self.inner
                    .filt
                    .record_publish_gate(evals, sent, payload.len());
                if !sent {
                    return Ok(0);
                }
            }
        }
        let mut buf = self.inner.pool.take();
        buf.vec_mut().extend_from_slice(payload);
        Ok(self.dispatch(&subject, buf.freeze(), qos))
    }

    /// Interns a publish subject, first rewriting it to canonical form
    /// when a [`SubjectMap`] is configured (synonym subjects collapse
    /// before the trie or the wire ever see them).
    fn intern_canonical(&self, subject: &str) -> Result<InternedSubject, BusError> {
        if let Some(map) = &self.inner.semantic {
            if let Some(canonical) = map.canonicalize(subject) {
                use std::sync::atomic::Ordering::Relaxed;
                self.inner.filt.sem_canonicalized.fetch_add(1, Relaxed);
                return Ok(self.inner.table.intern(&canonical)?);
            }
        }
        Ok(self.inner.table.intern(subject)?)
    }

    /// The tail of a publish: sequence the marshalled payload, feed the
    /// envelope straight back into the receive path — the same engine
    /// transitions a looped-back broadcast would produce, minus the
    /// packet and its single-envelope vector — and perform the resulting
    /// actions until delivery. The scratch's capacity persists across
    /// publishes, so the steady state allocates nothing. Returns the
    /// number of subscribers the message was handed to.
    fn dispatch(&self, subject: &InternedSubject, payload: Bytes, qos: QoS) -> usize {
        let now = self.inner.now.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slot = self.inner.engine.lock().expect("lock poisoned");
        let slot = &mut *slot;
        let mut delivered = 0usize;
        let mut scratch = std::mem::take(&mut slot.scratch);
        let env = slot.engine.publish_into(
            now,
            &self.inner.source,
            subject,
            qos,
            EnvelopeKind::Data,
            0,
            payload,
            &mut scratch,
        );
        slot.engine.handle_into(
            now,
            Event::Envelope {
                env,
                entitled: true,
            },
            &mut scratch,
        );
        for action in scratch.drain(..) {
            self.perform(&mut slot.engine, action, &mut delivered);
        }
        slot.scratch = scratch;
        if qos == QoS::Guaranteed {
            self.gd_rounds(&mut slot.engine, now, &mut delivered);
        }
        delivered
    }

    /// Runs the guaranteed-delivery ledger's retry rounds synchronously
    /// (the in-process loop has no timer substrate to fire
    /// [`TimerKind::GdRetry`](crate::engine::TimerKind)). Two rounds
    /// suffice when someone took delivery: the first gives a
    /// just-attached subscriber its redelivery window, the second
    /// completes the entry. Single host, so the interest snapshot maps
    /// every pending subject to "no remote hosts".
    fn gd_rounds(&self, engine: &mut Engine, now: Micros, delivered: &mut usize) {
        for _ in 0..2 {
            let interest: HashMap<String, Vec<u32>> = engine
                .gd_subjects()
                .into_iter()
                .map(|s| (s, Vec::new()))
                .collect();
            if interest.is_empty() {
                return;
            }
            for action in engine.handle(now, Event::GdRetry { interest }) {
                self.perform(engine, action, delivered);
            }
        }
    }

    /// Performs one engine action: deliveries fan out to subscriber
    /// channels, and local delivery doubles as the guaranteed
    /// acknowledgment. `Persist`/`Unpersist` land on the [`NvStore`] —
    /// the write-ahead ledger when the bus is durable. Broadcasts and
    /// timers have no substrate here and are dropped: the publish path
    /// already fed its envelope back into the receive path, a lossless
    /// in-memory loop never has a gap to digest or scan for, and
    /// guaranteed retry rounds run synchronously after each guaranteed
    /// publish instead.
    fn perform(&self, engine: &mut Engine, action: Action, delivered: &mut usize) {
        match action {
            Action::Broadcast(_) => {}
            // Unicasts here can only be acks for our own guaranteed
            // envelopes, looped back from the receive path. A real
            // daemon never hears its own broadcast, so feeding the
            // self-ack back would complete ledger entries nobody
            // received; on a single host, local delivery (below) is
            // the only acknowledgment that counts.
            Action::Unicast { .. } => {}
            Action::Deliver(env) => {
                let (count, suppressed) = self.fan_out(engine, &env);
                // The loopback receive path delivers guaranteed
                // envelopes as ordinary in-order deliveries; report
                // them into the ledger like the daemon driver does at
                // publish time. A predicate rejection counts as
                // consumption — the subscriber examined and declined
                // the message — so filtered guaranteed streams
                // complete instead of retrying forever.
                if env.qos == QoS::Guaranteed && count + suppressed > 0 {
                    engine.gd_local_done(&env);
                }
                *delivered += count;
            }
            Action::DeliverGd(env) => {
                let (count, suppressed) = self.fan_out(engine, &env);
                if count + suppressed > 0 {
                    engine.gd_local_done(&env);
                }
            }
            Action::Persist { key, bytes } => {
                self.inner
                    .nv
                    .lock()
                    .expect("lock poisoned")
                    .persist(0, &key, &bytes);
            }
            Action::Unpersist { key } => {
                self.inner
                    .nv
                    .lock()
                    .expect("lock poisoned")
                    .unpersist(0, &key);
            }
            Action::SetTimer { .. } => {}
        }
    }

    /// Hands an in-order envelope to every matching subscriber channel
    /// whose predicate (if any) accepts the payload — the delivery gate.
    /// Everything cloned here is a shared handle: the interned subject,
    /// the payload slice, the cached entry list. The payload is
    /// unmarshalled at most once, and only when some matching entry
    /// actually carries a predicate. Returns `(delivered, suppressed)`.
    fn fan_out(&self, engine: &mut Engine, env: &Envelope) -> (usize, usize) {
        use std::sync::atomic::Ordering::Relaxed;
        let entries = self.matching_entries(&env.subject);
        let mut count = 0usize;
        let mut suppressed = 0usize;
        // Lazily unmarshalled payload: `None` until a predicate needs
        // it; `Some(None)` if unmarshalling failed (then every
        // predicate passes — delivering a payload the subscriber can
        // diagnose beats silently eating it).
        let mut value: Option<Option<Value>> = None;
        for entry in entries.iter() {
            if let Some(pred) = &entry.pred {
                let v = value.get_or_insert_with(|| {
                    let mut registry = TypeRegistry::with_fundamentals();
                    wire::unmarshal(&env.payload, &mut registry).ok()
                });
                if let Some(v) = v {
                    self.inner.filt.evals.fetch_add(1, Relaxed);
                    if !pred.eval(v) {
                        suppressed += 1;
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
        if suppressed > 0 {
            self.inner
                .filt
                .delivery_suppressed
                .fetch_add(suppressed as u64, Relaxed);
        }
        engine.stats.delivered += count as u64;
        engine.stats.delivered_bytes += (env.payload.len() * count) as u64;
        (count, suppressed)
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.inner.trie.read().expect("lock poisoned").len()
    }

    /// A snapshot of the engine's protocol counters with the live
    /// backpressure gauges (queued backlog and drop-oldest evictions),
    /// the intern-table size, the buffer-pool counters, the filter
    /// counters and the ledger counters folded in.
    pub fn stats(&self) -> BusStats {
        let mut stats = self
            .inner
            .engine
            .lock()
            .expect("lock poisoned")
            .engine
            .stats
            .clone();
        let trie = self.inner.trie.read().expect("lock poisoned");
        let mut depth = 0u64;
        trie.for_each(|_, _, e| depth += e.tx.queued() as u64);
        stats.sub_queue_depth = depth;
        stats.sub_queue_dropped = self.inner.queue_dropped.load(Ordering::Relaxed);
        stats.subj_interned = self.inner.table.len() as u64;
        stats.buf_pool_hits = self.inner.pool.hits();
        stats.buf_pool_misses = self.inner.pool.misses();
        self.inner.filt.fold_into(&mut stats);
        self.inner
            .nv
            .lock()
            .expect("lock poisoned")
            .stamp_stats(&mut stats);
        stats
    }
}

impl Default for InprocBus {
    fn default() -> Self {
        InprocBus::new()
    }
}

impl Bus for InprocBus {
    fn subscribe(&self, filter: &str) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        InprocBus::subscribe(self, filter)
    }

    fn subscribe_filtered(
        &self,
        filter: &str,
        pred: &Predicate,
    ) -> Result<(SubscriptionHandle, BusReceiver), BusError> {
        InprocBus::subscribe_filtered(self, filter, pred)
    }

    fn publish(&self, subject: &str, value: &Value, qos: QoS) -> Result<usize, BusError> {
        InprocBus::publish(self, subject, value, qos)
    }

    fn unsubscribe(&self, sub: SubscriptionHandle) {
        InprocBus::unsubscribe(self, sub)
    }

    /// A no-op: delivery already happened inside `publish`.
    fn drain(&self) {}

    fn stats(&self) -> BusStats {
        InprocBus::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn publish_subscribe_round_trip() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("a.>").unwrap();
        let n = bus.publish("a.b", &Value::I64(7), QoS::Reliable).unwrap();
        assert_eq!(n, 1);
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(7));
    }

    #[test]
    fn no_subscriber_no_delivery() {
        let bus = InprocBus::new();
        let (_sub, _rx) = bus.subscribe("a.b").unwrap();
        assert_eq!(bus.publish("a.c", &Value::Nil, QoS::Reliable).unwrap(), 0);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let bus = InprocBus::new();
        let (sub, rx) = bus.subscribe("x.*").unwrap();
        bus.publish("x.1", &Value::Bool(true), QoS::Reliable)
            .unwrap();
        bus.unsubscribe(sub);
        assert_eq!(
            bus.publish("x.1", &Value::Bool(true), QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.subscription_count(), 0);
    }

    #[test]
    fn publish_marshaled_bypasses_the_marshaller() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("pre.>").unwrap();
        let registry = TypeRegistry::with_fundamentals();
        let bytes = wire::marshal_self_describing(&Value::I64(11), &registry).unwrap();
        assert_eq!(
            bus.publish_marshaled("pre.k", &bytes, QoS::Reliable)
                .unwrap(),
            1
        );
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(11));
    }

    #[test]
    fn steady_state_publishes_hit_the_buffer_pool() {
        // A small retain window so the reliable layer releases old
        // payloads during the test: a pooled buffer becomes reusable
        // only once the retransmission window rolls past it.
        let bus = InprocBus::with_config(BusConfig::default().with_retain_per_stream(4));
        let (_sub, rx) = bus.subscribe("pool.>").unwrap();
        for i in 0..50i64 {
            bus.publish("pool.k", &Value::I64(i), QoS::Reliable)
                .unwrap();
            // Drop the delivery so the pooled buffer is free again.
            let _ = rx.recv().unwrap();
        }
        let stats = bus.stats();
        assert_eq!(stats.subj_interned, 1);
        assert!(
            stats.buf_pool_hits >= 40,
            "expected near-total pool reuse, got hits={} misses={}",
            stats.buf_pool_hits,
            stats.buf_pool_misses
        );
    }

    #[test]
    fn cross_thread_delivery() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("t.>").unwrap();
        let publisher = {
            let bus = bus.clone();
            thread::spawn(move || {
                for i in 0..100i64 {
                    bus.publish("t.k", &Value::I64(i), QoS::Reliable).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 100 {
            got.push(
                rx.recv_timeout(Duration::from_secs(5))
                    .unwrap()
                    .value()
                    .unwrap(),
            );
        }
        publisher.join().unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[99], Value::I64(99));
    }

    #[test]
    fn objects_with_registered_types() {
        use infobus_types::{DataObject, TypeDescriptor, ValueType};
        let bus = InprocBus::new();
        bus.register_type(
            TypeDescriptor::builder("Quote")
                .attribute("px", ValueType::F64)
                .build(),
        )
        .unwrap();
        let (_sub, rx) = bus.subscribe("quotes.gmc").unwrap();
        let obj = DataObject::new("Quote").with("px", 12.5f64);
        bus.publish("quotes.gmc", &Value::object(obj.clone()), QoS::Reliable)
            .unwrap();
        let got = rx.recv().unwrap().value().unwrap();
        assert_eq!(got.as_object().unwrap(), &obj);
    }

    #[test]
    fn stalled_subscriber_memory_is_bounded() {
        // A subscriber that never drains must not grow memory without
        // bound: with a queue cap, the oldest messages are evicted and
        // counted, and the newest `cap` messages are retained.
        let cap = 64usize;
        let bus = InprocBus::with_config(BusConfig::default().with_subscriber_queue_cap(cap));
        let (_stalled, stalled_rx) = bus.subscribe("load.>").unwrap();
        let total = 10_000i64;
        for i in 0..total {
            bus.publish("load.k", &Value::I64(i), QoS::Reliable)
                .unwrap();
        }
        let stats = bus.stats();
        assert_eq!(stats.sub_queue_depth, cap as u64);
        assert_eq!(stats.sub_queue_dropped, (total as u64) - cap as u64);
        // The retained backlog is exactly the newest `cap` messages.
        let got: Vec<i64> = stalled_rx
            .try_iter()
            .map(|m| m.value().unwrap().as_i64().unwrap())
            .collect();
        let expect: Vec<i64> = (total - cap as i64..total).collect();
        assert_eq!(got, expect);
        // Draining brings the gauge back to zero.
        assert_eq!(bus.stats().sub_queue_depth, 0);
    }

    #[test]
    fn engine_sequences_publications() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("s.>").unwrap();
        for i in 0..10i64 {
            bus.publish("s.k", &Value::I64(i), QoS::Reliable).unwrap();
        }
        let got: Vec<Value> = rx.try_iter().map(|m| m.value().unwrap()).collect();
        assert_eq!(got, (0..10).map(Value::I64).collect::<Vec<_>>());
        let stats = bus.stats();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.dups_dropped, 0);
    }

    /// A loopback has no wire to batch for: under the batched preset a
    /// lone publish is delivered at once, and so is every one of a
    /// longer run, none of them waiting on a flush timer the in-process
    /// loop does not have.
    #[test]
    fn batched_config_delivers_every_publish_immediately() {
        let bus = InprocBus::with_config(BusConfig::throughput());
        let (_sub, rx) = bus.subscribe("b.>").unwrap();
        assert_eq!(
            bus.publish("b.k", &Value::I64(0), QoS::Reliable).unwrap(),
            1
        );
        assert_eq!(rx.try_iter().count(), 1, "lone publish stranded");
        let mut handed = 0;
        for i in 1..=201i64 {
            handed += bus.publish("b.k", &Value::I64(i), QoS::Reliable).unwrap();
        }
        assert_eq!(handed, 201);
        let got: Vec<Value> = rx.try_iter().map(|m| m.value().unwrap()).collect();
        assert_eq!(got, (1..=201).map(Value::I64).collect::<Vec<_>>());
        assert_eq!(bus.stats().delivered, 202);
    }

    #[test]
    fn guaranteed_publish_delivers_and_completes_the_ledger() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        let n = bus
            .publish("gd.k", &Value::I64(9), QoS::Guaranteed)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(rx.recv().unwrap().value().unwrap(), Value::I64(9));
        let stats = bus.stats();
        // Persist-before-send happened, the local delivery acknowledged
        // it, and the synchronous retry rounds released the entry.
        assert_eq!(stats.gd_completed, 1);
        assert_eq!(stats.gd_pending, 0);
    }

    #[test]
    fn guaranteed_publish_without_subscriber_stays_pending_until_one_appears() {
        let bus = InprocBus::new();
        bus.publish("gd.orphan", &Value::I64(1), QoS::Guaranteed)
            .unwrap();
        assert_eq!(bus.stats().gd_pending, 1);
        // A subscriber attaches; the next guaranteed publish runs a retry
        // round, which redelivers the pending entry.
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        bus.publish("gd.other", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let subjects: Vec<String> = rx
            .try_iter()
            .map(|m| m.subject.as_str().to_owned())
            .collect();
        assert!(subjects.contains(&"gd.orphan".to_owned()), "{subjects:?}");
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 0);
        assert_eq!(stats.gd_completed, 2);
    }

    /// Restart durability: a durable bus "dies" with an unacknowledged
    /// guaranteed publication on its ledger; a fresh bus over the same
    /// directory replays it and redelivers to a new subscriber.
    #[test]
    fn durable_bus_replays_ledger_across_restart() {
        let dir = infobus_wal::scratch::ScratchDir::new("inproc-durable");
        let cfg = || BusConfig::default().with_durable_dir(dir.path());
        {
            let bus = InprocBus::with_config(cfg());
            bus.publish("gd.orphan", &Value::I64(1), QoS::Guaranteed)
                .unwrap();
            assert_eq!(bus.stats().gd_pending, 1);
            assert!(bus.stats().gd_ledger_appends >= 1);
        }
        let bus = InprocBus::with_config(cfg());
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 1, "ledger entry must reload");
        assert_eq!(stats.gd_ledger_recovered, 1);
        // A subscriber appears; the next guaranteed publish runs a retry
        // round, which redelivers the recovered entry — flagged.
        let (_sub, rx) = bus.subscribe("gd.>").unwrap();
        bus.publish("gd.other", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let msgs: Vec<_> = rx.try_iter().collect();
        let orphan = msgs
            .iter()
            .find(|m| m.subject == "gd.orphan")
            .expect("recovered entry redelivered");
        assert!(orphan.redelivery);
        assert_eq!(bus.stats().gd_pending, 0);
        // Completion tombstoned the replayed entry: a third restart has
        // nothing to recover.
        drop(bus);
        assert_eq!(InprocBus::with_config(cfg()).stats().gd_pending, 0);
    }

    #[test]
    fn guaranteed_redelivery_is_flagged() {
        let bus = InprocBus::new();
        bus.publish("gd.flag", &Value::I64(1), QoS::Guaranteed)
            .unwrap();
        let (_sub, rx) = bus.subscribe("gd.flag").unwrap();
        bus.publish("gd.flag", &Value::I64(2), QoS::Guaranteed)
            .unwrap();
        let msgs: Vec<Delivery> = rx.try_iter().collect();
        let redelivered = msgs.iter().find(|m| m.redelivery).expect("a redelivery");
        assert_eq!(redelivered.value().unwrap(), Value::I64(1));
    }

    fn quote(sym: &str, price: f64) -> Value {
        use infobus_types::DataObject;
        Value::object(
            DataObject::new("Quote")
                .with("sym", sym)
                .with("price", price),
        )
    }

    fn quote_descriptor() -> infobus_types::TypeDescriptor {
        use infobus_types::{TypeDescriptor, ValueType};
        TypeDescriptor::builder("Quote")
            .attribute("sym", ValueType::Str)
            .attribute("price", ValueType::F64)
            .build()
    }

    fn quote_bus() -> InprocBus {
        let bus = InprocBus::new();
        bus.register_type(quote_descriptor()).unwrap();
        bus
    }

    #[test]
    fn filtered_subscription_delivers_only_matching_payloads() {
        let bus = quote_bus();
        let (_sub, rx) = bus
            .subscribe_filtered("q.>", &Predicate::gt("price", Value::F64(100.0)))
            .unwrap();
        bus.publish("q.ibm", &quote("IBM", 120.0), QoS::Reliable)
            .unwrap();
        bus.publish("q.gmc", &quote("GMC", 80.0), QoS::Reliable)
            .unwrap();
        bus.publish("q.ibm", &quote("IBM", 150.0), QoS::Reliable)
            .unwrap();
        let got: Vec<f64> = rx
            .try_iter()
            .map(|m| {
                m.value()
                    .unwrap()
                    .as_object()
                    .unwrap()
                    .get("price")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert_eq!(got, vec![120.0, 150.0]);
    }

    #[test]
    fn unanimous_rejection_suppresses_at_the_publish_gate() {
        let bus = quote_bus();
        let (_sub, rx) = bus
            .subscribe_filtered("g.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        // Rejected by the only matching predicate: suppressed before
        // sequencing — nothing published, nothing delivered, no seq gap.
        assert_eq!(
            bus.publish("g.t", &quote("GMC", 1.0), QoS::Reliable)
                .unwrap(),
            0
        );
        let stats = bus.stats();
        assert_eq!(stats.published, 0, "suppressed before sequencing");
        assert_eq!(stats.filt_pub_suppressed, 1);
        assert!(stats.filt_suppressed_bytes > 0);
        assert!(stats.filt_evals >= 1);
        // An accepted publication still flows, in order.
        bus.publish("g.t", &quote("IBM", 2.0), QoS::Reliable)
            .unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.stats().published, 1);
    }

    #[test]
    fn predicate_free_subscriber_defeats_the_publish_gate() {
        let bus = quote_bus();
        let (_all, all_rx) = bus.subscribe("m.>").unwrap();
        let (_filtered, filt_rx) = bus
            .subscribe_filtered("m.>", &Predicate::ge("price", Value::F64(100.0)))
            .unwrap();
        // The unfiltered subscriber forces the send; the filtered one is
        // still gated per delivery.
        bus.publish("m.k", &quote("GMC", 10.0), QoS::Reliable)
            .unwrap();
        bus.drain();
        assert_eq!(all_rx.try_iter().count(), 1);
        assert_eq!(filt_rx.try_iter().count(), 0);
        let stats = bus.stats();
        assert_eq!(stats.filt_pub_suppressed, 0);
        assert_eq!(stats.filt_delivery_suppressed, 1);
    }

    #[test]
    fn publish_marshaled_is_gated_too() {
        let bus = InprocBus::new();
        let (_sub, rx) = bus
            .subscribe_filtered("pm.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        let mut registry = TypeRegistry::with_fundamentals();
        registry.register(quote_descriptor()).unwrap();
        let reject = wire::marshal_self_describing(&quote("GMC", 1.0), &registry).unwrap();
        let accept = wire::marshal_self_describing(&quote("IBM", 2.0), &registry).unwrap();
        assert_eq!(
            bus.publish_marshaled("pm.k", &reject, QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(
            bus.publish_marshaled("pm.k", &accept, QoS::Reliable)
                .unwrap(),
            1
        );
        assert_eq!(rx.try_iter().count(), 1);
        assert_eq!(bus.stats().filt_pub_suppressed, 1);
    }

    #[test]
    fn guaranteed_filtered_rejection_counts_as_consumption() {
        // Two subscribers: one unfiltered (so the publish gate sends),
        // one whose predicate rejects. The guaranteed entry must
        // complete — a predicate rejection is a consumption decision,
        // not a delivery failure to retry.
        let bus = quote_bus();
        let (_all, all_rx) = bus.subscribe("gdf.>").unwrap();
        let (_filtered, filt_rx) = bus
            .subscribe_filtered("gdf.>", &Predicate::eq("sym", Value::str("IBM")))
            .unwrap();
        bus.publish("gdf.k", &quote("GMC", 5.0), QoS::Guaranteed)
            .unwrap();
        assert_eq!(all_rx.try_iter().count(), 1);
        assert_eq!(filt_rx.try_iter().count(), 0);
        let stats = bus.stats();
        assert_eq!(stats.gd_pending, 0, "rejection must not strand the ledger");
        assert_eq!(stats.gd_completed, 1);
    }

    #[test]
    fn semantic_map_canonicalizes_publishes_and_expands_filters() {
        let mut map = SubjectMap::new();
        map.add_alias("NYSE.IBM", "tech.IBM").unwrap();
        let bus = InprocBus::with_config(BusConfig::default().with_subject_map(Arc::new(map)));
        // A subscriber on the canonical subject sees synonym publishes…
        let (_canon, canon_rx) = bus.subscribe("tech.IBM").unwrap();
        bus.publish("NYSE.IBM", &Value::I64(1), QoS::Reliable)
            .unwrap();
        assert_eq!(canon_rx.try_iter().count(), 1);
        // …and a subscriber on the synonym sees canonical publishes
        // (its filter was expanded to the canonical form).
        let (_syn, syn_rx) = bus.subscribe("NYSE.IBM").unwrap();
        bus.publish("tech.IBM", &Value::I64(2), QoS::Reliable)
            .unwrap();
        assert_eq!(syn_rx.try_iter().count(), 1);
        let stats = bus.stats();
        assert_eq!(stats.sem_canonicalized, 1);
        assert!(stats.sem_expanded_filters >= 1);
        // Delivered subjects are always canonical.
    }

    #[test]
    fn semantic_expansion_unsubscribes_as_a_family() {
        let mut map = SubjectMap::new();
        map.add_alias("old.path", "new.path").unwrap();
        let bus = InprocBus::with_config(BusConfig::default().with_subject_map(Arc::new(map)));
        let (sub, rx) = bus.subscribe("old.path").unwrap();
        bus.publish("old.path", &Value::I64(1), QoS::Reliable)
            .unwrap();
        assert_eq!(rx.try_iter().count(), 1);
        bus.unsubscribe(sub);
        assert_eq!(bus.subscription_count(), 0, "expanded entries removed too");
        assert_eq!(
            bus.publish("new.path", &Value::I64(2), QoS::Reliable)
                .unwrap(),
            0
        );
    }

    #[test]
    fn bus_trait_object_drives_the_inproc_bus() {
        let boxed: Box<dyn Bus> = Box::new(InprocBus::new());
        let (sub, rx) = boxed.subscribe("dyn.>").unwrap();
        assert_eq!(
            boxed
                .publish("dyn.k", &Value::I64(5), QoS::Reliable)
                .unwrap(),
            1
        );
        boxed.drain();
        assert_eq!(rx.try_recv().unwrap().value().unwrap(), Value::I64(5));
        boxed.unsubscribe(sub);
        assert_eq!(
            boxed
                .publish("dyn.k", &Value::I64(6), QoS::Reliable)
                .unwrap(),
            0
        );
        assert_eq!(boxed.stats().published, 2);
    }
}
