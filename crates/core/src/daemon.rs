//! The per-host bus daemon: the netsim driver of the protocol engine.
//!
//! "In our implementation of subject-based addressing, we use a daemon on
//! every host. Each application registers with its local daemon, and tells
//! the daemon to which subjects it has subscribed. The daemon forwards
//! each message to each application that has subscribed. It uses the
//! subject contained in the message to decide which application receives
//! which message." (§3.1)
//!
//! All protocol logic (sequencing, NAK repair, guaranteed-delivery
//! ledgers, batching) lives in the sans-I/O [`Engine`](crate::engine):
//! this module translates simulator events into engine [`Event`]s and
//! performs the returned [`Action`]s against the simulated network
//! ([`DaemonTransport`]). Driver-only concerns stay here and in the
//! sibling modules: interest management (`interest`), RMI calls and
//! services (`calls`), router links (`links`), and application hosting
//! (`apps`).

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use infobus_netsim::{ConnEvent, ConnId, Ctx, Datagram, Process, SegmentId, SockAddr};
use infobus_router::{ForwardTarget, LinkId, RouteStamp, RouterEngine, RouterTimer};
use infobus_subject::{Subject, SubjectFilter, SubjectTrie, SubscriptionId};
use infobus_types::{wire, TypeRegistry, Value};

use crate::apps::{AppEvent, AppMeta, AppQueue, AppSlot, TimerTarget};
use crate::calls::{CallPhase, CallState, SvcMeta};
use crate::config::BusConfig;
use crate::engine::{
    run_actions, Action, BusStats, Engine, Event, Micros, PubSource, TimerKind, Transport,
    STATS_SUBJECT_PREFIX,
};
use crate::envelope::{Envelope, EnvelopeKind};
use crate::interest::SubTarget;
use crate::msg::{Packet, RmiMsg, RouterMsg, SyncEntry};
use crate::nvstore::NvStore;
use crate::rmi::{RmiError, ServiceObject};
use crate::{BusError, QoS};

/// Datagram port used by bus daemons (broadcast and unicast).
pub const DAEMON_PORT: u16 = 75;

/// Connection port used for RMI point-to-point requests.
pub const RMI_PORT: u16 = 76;

/// Reserved timer tokens.
const TOK_ANNOUNCE: u64 = 4;
pub(crate) const TOK_ANN_FLUSH: u64 = 6;
const TOK_STATS: u64 = 7;
/// Router summary refresh + route aging.
pub(crate) const TOK_RT_SUMMARY: u64 = 8;
/// Router self-stabilization pass.
pub(crate) const TOK_RT_STAB: u64 = 9;
/// Dynamic timer tokens start here.
const TOK_DYN: u64 = 10;
/// Engine timers take the four tokens from here: token =
/// `TOK_ENGINE_BASE + kind`. The base sits far above any dynamic token a
/// simulation could allocate (they increment from [`TOK_DYN`]), so the
/// ranges cannot collide.
const TOK_ENGINE_BASE: u64 = 1 << 32;

/// The publisher slot used for daemon-originated publications (stats
/// snapshots): not a real application index.
const APP_STATS: usize = usize::MAX - 1;

/// Maps an engine timer onto this driver's simulator timer token.
fn engine_token(kind: TimerKind) -> u64 {
    let k = match kind {
        TimerKind::Batch => 0,
        TimerKind::NakScan => 1,
        TimerKind::GdRetry => 2,
        TimerKind::Sync => 3,
    };
    TOK_ENGINE_BASE + k
}

/// Inverse of [`engine_token`]; `None` for non-engine tokens.
fn decode_engine_token(token: u64) -> Option<TimerKind> {
    match token.checked_sub(TOK_ENGINE_BASE)? {
        0 => Some(TimerKind::Batch),
        1 => Some(TimerKind::NakScan),
        2 => Some(TimerKind::GdRetry),
        3 => Some(TimerKind::Sync),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// DaemonState: the engine plus everything driver-side
// ---------------------------------------------------------------------------

pub(crate) struct DaemonState {
    /// The sans-I/O protocol engine this daemon drives.
    pub(crate) engine: Engine,
    pub(crate) host32: u32,
    pub(crate) seg0: Option<SegmentId>,
    pub(crate) registry: Rc<RefCell<TypeRegistry>>,
    pub(crate) trie: SubjectTrie<SubTarget>,
    pub(crate) app_meta: Vec<Option<AppMeta>>,
    /// Filter strings announced to peers, each carrying its live local
    /// subscriptions `(id, predicate)` — the list derives both the
    /// refcount (empty = withdraw) and the announced predicate
    /// ([`DaemonState::announced_pred_for`]).
    #[allow(clippy::type_complexity)]
    pub(crate) my_filters: HashMap<
        String,
        Vec<(
            SubscriptionId,
            Option<std::sync::Arc<crate::engine::filter::CompiledPredicate>>,
        )>,
    >,
    /// Per-subscription compiled content predicates (the delivery gate).
    pub(crate) sub_preds:
        HashMap<SubscriptionId, std::sync::Arc<crate::engine::filter::CompiledPredicate>>,
    /// Semantic expansion families: the head subscription id mapped to
    /// the sibling ids the [`SubjectMap`](infobus_router::SubjectMap)
    /// materialized; unsubscribing the head removes them all.
    pub(crate) expansions: HashMap<SubscriptionId, Vec<SubscriptionId>>,
    /// Filters whose announcement is pending the debounce flush (batching
    /// thousands of subscriptions into one packet).
    pub(crate) pending_announce_add: Vec<String>,
    pub(crate) pending_announce_remove: Vec<String>,
    pub(crate) announce_flush_armed: bool,
    /// Virtual time each live subscription was created (first-contact
    /// stream policy).
    pub(crate) sub_times: HashMap<SubscriptionId, Micros>,
    pub(crate) peer_subs: crate::peers::PeerTable,
    pub(crate) calls: HashMap<u64, CallState>,
    pub(crate) conn_calls: HashMap<ConnId, u64>,
    pub(crate) services: HashMap<String, usize>,
    pub(crate) svc_meta: Vec<Option<SvcMeta>>,
    pub(crate) server_conns: HashSet<ConnId>,
    /// The federation router engine, created lazily when this daemon
    /// opens or accepts its first link.
    pub(crate) router: Option<RouterEngine>,
    /// Link id for each router connection, and the reverse index.
    pub(crate) conn_links: HashMap<ConnId, LinkId>,
    pub(crate) link_conns: HashMap<LinkId, ConnId>,
    pub(crate) next_link_id: LinkId,
    /// Peers this daemon dialed (vs. accepted): these links self-heal by
    /// redialing after their connection breaks.
    pub(crate) link_dials: HashMap<ConnId, u32>,
    /// The rewrite rule for each dialed peer, kept across redials.
    pub(crate) link_rules: HashMap<u32, Option<crate::router::RewriteRule>>,
    /// Predicate tables mirrored from each link's latest summary: the
    /// remote side's filters (in the remote namespace) with their
    /// content predicates (`None` = unfiltered). Gates forwarded copies
    /// in `send_forwards` — a WAN copy matched only by rejecting
    /// predicates never leaves this daemon.
    #[allow(clippy::type_complexity)]
    pub(crate) link_preds: HashMap<
        LinkId,
        Vec<(
            SubjectFilter,
            Option<std::sync::Arc<crate::engine::filter::CompiledPredicate>>,
        )>,
    >,
    /// The [`RouteStamp`] the currently re-published forwarded envelope
    /// must carry (threaded into the engine via
    /// [`PubSource`](crate::engine::PubSource) so NAK repairs and
    /// guaranteed-delivery ledgers keep it).
    pub(crate) forward_stamp: Option<RouteStamp>,
    /// The already-routed forwarding decision for that envelope,
    /// consumed by `maybe_forward` instead of routing a second time.
    pub(crate) pending_forward: Option<(Option<RouteStamp>, Vec<ForwardTarget>)>,
    pub(crate) daemon_inc: u64,
    pub(crate) timer_targets: HashMap<u64, TimerTarget>,
    pub(crate) next_dyn_token: u64,
    pub(crate) next_corr: u64,
    pub(crate) pending: AppQueue,
    /// Service boxes exported during a handler, moved into the daemon's
    /// table after it returns.
    pub(crate) pending_services: Vec<(usize, Box<dyn ServiceObject>)>,
    /// Service indices withdrawn during a handler.
    pub(crate) dropped_services: Vec<usize>,
    /// Optional write-ahead-ledger mirror of the simulator's
    /// non-volatile store, opened when [`BusConfig::durable_dir`] is
    /// set. The simulated store stays authoritative (it survives
    /// simulated crashes by construction); the mirror receives every
    /// `Persist`/`Unpersist` so determinism checks can compare real
    /// on-disk ledger contents across seeded runs. Give each simulated
    /// daemon its own directory.
    pub(crate) nv_mirror: Option<NvStore>,
}

impl DaemonState {
    fn new(cfg: BusConfig) -> Self {
        let nv_mirror = cfg
            .durable_dir
            .is_some()
            .then(|| NvStore::open(&cfg).expect("open guaranteed-delivery ledger mirror"));
        DaemonState {
            engine: Engine::new(cfg, 0),
            nv_mirror,
            host32: 0,
            seg0: None,
            registry: Rc::new(RefCell::new(TypeRegistry::with_fundamentals())),
            trie: SubjectTrie::new(),
            app_meta: Vec::new(),
            my_filters: HashMap::new(),
            sub_preds: HashMap::new(),
            expansions: HashMap::new(),
            pending_announce_add: Vec::new(),
            pending_announce_remove: Vec::new(),
            announce_flush_armed: false,
            sub_times: HashMap::new(),
            peer_subs: crate::peers::PeerTable::new(),
            calls: HashMap::new(),
            conn_calls: HashMap::new(),
            services: HashMap::new(),
            svc_meta: Vec::new(),
            server_conns: HashSet::new(),
            router: None,
            conn_links: HashMap::new(),
            link_conns: HashMap::new(),
            next_link_id: 0,
            link_dials: HashMap::new(),
            link_rules: HashMap::new(),
            link_preds: HashMap::new(),
            forward_stamp: None,
            pending_forward: None,
            daemon_inc: 1,
            timer_targets: HashMap::new(),
            next_dyn_token: TOK_DYN,
            next_corr: 1,
            pending: VecDeque::new(),
            pending_services: Vec::new(),
            dropped_services: Vec::new(),
        }
    }

    pub(crate) fn registry(&self) -> Rc<RefCell<TypeRegistry>> {
        self.registry.clone()
    }

    // ----- engine plumbing ----------------------------------------------------

    /// Performs a batch of engine actions against the simulated network.
    pub(crate) fn apply(&mut self, net: &mut Ctx<'_>, actions: Vec<Action>) {
        if actions.is_empty() {
            return;
        }
        let mut transport = DaemonTransport { d: self, net };
        run_actions(actions, &mut transport);
    }

    // ----- packet transmission ------------------------------------------------

    pub(crate) fn send_packet_broadcast(&mut self, net: &mut Ctx<'_>, packet: &Packet) {
        let bytes = packet.encode();
        if let Some(seg) = self.seg0 {
            let _ = net.broadcast_on(seg, DAEMON_PORT, bytes);
        }
    }

    pub(crate) fn send_packet_unicast(&mut self, net: &mut Ctx<'_>, host: u32, packet: &Packet) {
        let bytes = packet.encode();
        let _ = net.send_datagram(
            SockAddr::new(infobus_netsim::HostId(host), DAEMON_PORT),
            bytes,
        );
    }

    // ----- publishing -----------------------------------------------------------

    pub(crate) fn publish(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        subject: &Subject,
        value: &Value,
        qos: QoS,
    ) -> Result<(), BusError> {
        // Semantic layer: synonym subjects collapse to canonical form
        // before the trie, the engine, or the wire see them.
        let canon;
        let subject = match self
            .engine
            .config()
            .semantic_map()
            .and_then(|m| m.canonicalize(subject.as_str()))
        {
            Some(c) => {
                self.engine.stats.sem_canonicalized += 1;
                canon = Subject::new(&c)?;
                &canon
            }
            None => subject,
        };
        // Publish gate: when every matching interest — local data
        // subscriptions and peer-announced filters — carries a rejecting
        // predicate, the publication is suppressed before marshalling
        // and sequencing. Link interest counts as unfiltered here; the
        // per-link gate runs at the forward hop, where subjects are in
        // the remote namespace.
        if !self.publish_interest_accepts(subject, value) {
            return Ok(());
        }
        let payload = wire::marshal_self_describing(value, &self.registry.borrow())
            .map_err(|e| BusError::Marshal(e.to_string()))?;
        self.publish_payload(net, app_idx, subject, qos, EnvelopeKind::Data, 0, payload)
    }

    /// The publisher-side content gate (see
    /// [`interest_accepts`](crate::engine::filter::interest_accepts) for
    /// the suppression rule). Returns `true` when the publication must
    /// be sent.
    fn publish_interest_accepts(&mut self, subject: &Subject, value: &Value) -> bool {
        let mut evals = 0u64;
        let local = self
            .trie
            .matches(subject)
            .filter(|(_, t)| matches!(t, SubTarget::App { .. }))
            .map(|(id, _)| self.sub_preds.get(&id).map(|p| &**p));
        let links = std::iter::once_with(|| self.link_interested(subject))
            .filter(|&interested| interested)
            .map(|_| None);
        let send = crate::engine::filter::interest_accepts(
            value,
            local.chain(self.peer_subs.matching(subject)).chain(links),
            &mut evals,
        );
        self.engine.stats.filt_evals += evals;
        if !send {
            self.engine.stats.filt_pub_suppressed += 1;
            self.engine.stats.filt_suppressed_bytes +=
                crate::engine::filter::approx_wire_bytes(value) as u64;
        }
        send
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn publish_payload(
        &mut self,
        net: &mut Ctx<'_>,
        app_idx: usize,
        subject: &Subject,
        qos: QoS,
        kind: EnvelopeKind,
        corr: u64,
        payload: impl Into<crate::buf::Bytes>,
    ) -> Result<(), BusError> {
        let payload: crate::buf::Bytes = payload.into();
        let (app_name, inc): (std::sync::Arc<str>, u64) =
            match self.app_meta.get(app_idx).and_then(|m| m.as_ref()) {
                Some(m) => (m.name.as_str().into(), m.inc),
                None if app_idx == APP_STATS => ("_daemon".into(), self.daemon_inc),
                None => ("router".into(), self.daemon_inc),
            };
        // Model the application→daemon IPC hop.
        let ipc = net.host_config().ipc_cost(payload.len());
        net.charge_cpu(ipc);
        // Sequence through the engine; for guaranteed publications the
        // pre-send actions log to non-volatile storage *before* the
        // message hits the wire.
        let source = PubSource {
            app: app_name,
            inc,
            route: self.forward_stamp,
        };
        let subject = self.engine.table().intern_subject(subject);
        let (env, actions) =
            self.engine
                .publish(net.now(), &source, &subject, qos, kind, corr, payload);
        self.apply(net, actions);

        // Local delivery to co-resident subscribers (excluding the
        // publishing application itself). Control envelopes route to the
        // local protocol handlers too: a service or responder on the
        // *same* host as the querier must answer just like a remote one.
        match kind {
            EnvelopeKind::Data => {
                let delivered = self.deliver_local(net, &env, Some(app_idx));
                if qos == QoS::Guaranteed && delivered > 0 {
                    self.engine.gd_local_done(&env);
                }
            }
            EnvelopeKind::DiscoverQuery => self.answer_discovery(net, &env),
            EnvelopeKind::DiscoverAnnounce => self.engine.discovery_collect(&env),
            EnvelopeKind::RmiQuery => self.answer_rmi_query(net, &env),
            EnvelopeKind::RmiOffer => self.collect_offer(net, &env),
        }

        // Queue or send.
        let send_actions = self.engine.enqueue(&env);
        self.apply(net, send_actions);
        // Forward locally published traffic to linked buses whose remote
        // side subscribes (re-published forwards consume their pending,
        // already-routed decision instead).
        self.maybe_forward(net, &env);
        Ok(())
    }

    // ----- receiving ---------------------------------------------------------------

    fn accept_envelope(&mut self, net: &mut Ctx<'_>, env: Envelope) {
        if env.stream.host == self.host32 {
            return; // Our own broadcast looped back; locals were served directly.
        }
        if !self.trie.matches_any(&env.subject) && !self.link_interested(&env.subject) {
            // The cheap filter: nothing on this host (or linked bus) cares.
            self.engine.stats.filtered += 1;
            return;
        }
        // The engine consults entitlement only on first contact with the
        // stream: if the stream began after our earliest matching
        // subscription we are owed it from sequence 1 (losses of early
        // messages are NAKed); otherwise we take it from here.
        let entitled = self
            .earliest_matching_sub(&env.subject)
            .is_some_and(|sub_at| env.stream_start >= sub_at);
        let actions = self
            .engine
            .handle(net.now(), Event::Envelope { env, entitled });
        self.apply(net, actions);
    }

    /// Handles a received stream digest: opens/extends gap detection.
    fn handle_seqsync(&mut self, net: &mut Ctx<'_>, entries: Vec<SyncEntry>) {
        for entry in entries {
            if entry.stream.host == self.host32 {
                continue;
            }
            let sub_at = self.earliest_matching_sub(&entry.subject);
            let actions = self
                .engine
                .handle(net.now(), Event::Digest { entry, sub_at });
            self.apply(net, actions);
        }
    }

    // ----- delivery --------------------------------------------------------------

    /// Routes a remotely received, in-order envelope.
    pub(crate) fn deliver_remote(&mut self, net: &mut Ctx<'_>, env: &Envelope) {
        match env.kind {
            EnvelopeKind::Data => {
                self.deliver_local(net, env, None);
                self.maybe_forward(net, env);
            }
            EnvelopeKind::DiscoverQuery => self.answer_discovery(net, env),
            EnvelopeKind::DiscoverAnnounce => self.engine.discovery_collect(env),
            EnvelopeKind::RmiQuery => self.answer_rmi_query(net, env),
            EnvelopeKind::RmiOffer => self.collect_offer(net, env),
        }
    }

    /// Delivers a data envelope to matching local applications; returns
    /// how many local deliveries were queued.
    pub(crate) fn deliver_local(
        &mut self,
        net: &mut Ctx<'_>,
        env: &Envelope,
        exclude_app: Option<usize>,
    ) -> usize {
        if env.kind != EnvelopeKind::Data {
            return 0;
        }
        let targets: Vec<(SubscriptionId, usize)> = self
            .trie
            .matches(&env.subject)
            .filter_map(|(id, t)| match t {
                SubTarget::App { app_idx } if Some(*app_idx) != exclude_app => Some((id, *app_idx)),
                _ => None,
            })
            .collect();
        if targets.is_empty() {
            return 0;
        }
        let value = match wire::unmarshal(&env.payload, &mut self.registry.borrow_mut()) {
            Ok(v) => v,
            Err(_) => {
                self.engine.stats.unmarshal_errors += 1;
                return 0;
            }
        };
        // Delivery gate: each subscription's own predicate decides its
        // copy. A rejected copy still counts as *consumed* for guaranteed
        // delivery — the subscriber saw and declined it, so the ledger
        // entry completes rather than retrying forever.
        let mut delivered = 0usize;
        let mut suppressed = 0usize;
        let ipc = net.host_config().ipc_cost(env.payload.len());
        for (id, app_idx) in targets {
            if let Some(p) = self.sub_preds.get(&id) {
                self.engine.stats.filt_evals += 1;
                if !p.eval(&value) {
                    suppressed += 1;
                    self.engine.stats.filt_delivery_suppressed += 1;
                    self.engine.stats.filt_suppressed_bytes += env.payload.len() as u64;
                    continue;
                }
            }
            delivered += 1;
            // Model the daemon→application IPC hop per recipient.
            net.charge_cpu(ipc);
            self.engine.stats.delivered += 1;
            self.engine.stats.delivered_bytes += env.payload.len() as u64;
            self.pending.push_back(AppEvent::Msg {
                app_idx,
                msg: crate::app::BusMessage {
                    subject: env.subject.subject().clone(),
                    value: value.clone(),
                    qos: env.qos,
                    redelivery: env.redelivery,
                },
            });
        }
        delivered + suppressed
    }

    // ----- guaranteed-delivery driver glue ----------------------------------------

    /// Reloads the guaranteed-delivery ledger written before any crash.
    fn gd_load_ledger(&mut self, net: &mut Ctx<'_>) {
        let mut envs = Vec::new();
        for key in net.nv_keys("gd/") {
            if let Some(bytes) = net.nv_get(&key) {
                if let Ok(env) = Envelope::decode(&mut bytes.as_slice(), self.engine.table()) {
                    envs.push(env);
                }
            }
        }
        let actions = self.engine.gd_load(envs);
        self.apply(net, actions);
    }

    /// Snapshot of per-subject remote interest for the pending guaranteed
    /// envelopes, fed to the engine's retry round.
    fn gd_retry_round(&mut self, net: &mut Ctx<'_>) {
        let mut interest: HashMap<String, Vec<u32>> = HashMap::new();
        for s in self.engine.gd_subjects() {
            let Ok(subject) = Subject::new(&s) else {
                // Invalid subject: leave it out of the map and the engine
                // completes (abandons) its entries.
                continue;
            };
            interest.insert(s, self.peer_subs.interested_hosts(&subject));
        }
        let actions = self.engine.handle(net.now(), Event::GdRetry { interest });
        self.apply(net, actions);
    }

    // ----- observability plane -----------------------------------------------------

    /// This daemon's identity element on the stats subject.
    fn stats_daemon_name(&self) -> String {
        format!("d{}", self.host32)
    }

    /// A host name reduced to a valid subject element (defensive: host
    /// names in simulations are already plain identifiers).
    fn subject_element(raw: &str) -> String {
        let cleaned: String = raw
            .chars()
            .map(|c| {
                if c.is_ascii_graphic() && c != '.' && c != '*' && c != '>' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        if cleaned.is_empty() {
            "unknown".to_owned()
        } else {
            cleaned
        }
    }

    /// Publishes the current [`BusStats`] snapshot as a self-describing
    /// object on `_INBUS.STATS.<host>.<daemon>` and re-arms the timer.
    fn publish_stats(&mut self, net: &mut Ctx<'_>) {
        let host = Self::subject_element(&net.host_name());
        let daemon = self.stats_daemon_name();
        let mut stats = self.engine.stats.clone();
        self.stamp_route_stats(&mut stats);
        let obj = stats.to_object(&host, &daemon, net.now());
        let text = format!("{STATS_SUBJECT_PREFIX}.{host}.{daemon}");
        if let Ok(subject) = Subject::new(&text) {
            let value = Value::Object(Box::new(obj));
            let _ = self.publish(net, APP_STATS, &subject, &value, QoS::Reliable);
            self.engine.stats.stats_published += 1;
        }
        net.set_timer(self.engine.config().stats_period_us, TOK_STATS);
    }
}

// ---------------------------------------------------------------------------
// DaemonTransport: performs engine actions against the simulator
// ---------------------------------------------------------------------------

/// The netsim [`Transport`]: broadcasts ride the first attached segment,
/// timers map onto the daemon's reserved tokens, deliveries route through
/// the subject trie, and the guaranteed-delivery ledger lives in the
/// simulator's non-volatile store.
struct DaemonTransport<'a, 'b> {
    d: &'a mut DaemonState,
    net: &'a mut Ctx<'b>,
}

impl Transport for DaemonTransport<'_, '_> {
    fn broadcast(&mut self, packet: Packet) {
        self.d.send_packet_broadcast(self.net, &packet);
    }

    fn unicast(&mut self, host: u32, packet: Packet) {
        self.d.send_packet_unicast(self.net, host, &packet);
    }

    fn set_timer(&mut self, delay_us: Micros, timer: TimerKind) {
        self.net.set_timer(delay_us, engine_token(timer));
    }

    fn deliver(&mut self, env: Envelope) {
        self.d.deliver_remote(self.net, &env);
    }

    fn deliver_gd(&mut self, env: Envelope) {
        // A subscriber may have (re)attached on this very host after the
        // daemon reloaded its ledger.
        if self.d.deliver_local(self.net, &env, None) > 0 {
            self.d.engine.gd_local_done(&env);
        }
    }

    fn persist(&mut self, key: String, bytes: Vec<u8>) {
        if let Some(nv) = &mut self.d.nv_mirror {
            nv.persist(0, &key, &bytes);
        }
        self.net.nv_put(&key, bytes);
    }

    fn unpersist(&mut self, key: &str) {
        if let Some(nv) = &mut self.d.nv_mirror {
            nv.unpersist(0, key);
        }
        self.net.nv_delete(key);
    }
}

// ---------------------------------------------------------------------------
// The daemon process
// ---------------------------------------------------------------------------

/// The bus daemon process: one per host.
///
/// Owns the local applications ([`BusApp`](crate::BusApp)) and exported services
/// ([`ServiceObject`]); drives the protocol [`Engine`] for reliable and
/// guaranteed delivery, and implements discovery windows,
/// RMI, and router links on top.
pub struct BusDaemon {
    pub(crate) state: DaemonState,
    pub(crate) apps: Vec<Option<AppSlot>>,
    pub(crate) services: Vec<Option<Box<dyn ServiceObject>>>,
}

impl BusDaemon {
    /// Creates a daemon with the given configuration.
    pub fn new(cfg: BusConfig) -> Self {
        BusDaemon {
            state: DaemonState::new(cfg),
            apps: Vec::new(),
            services: Vec::new(),
        }
    }

    /// The daemon's protocol counters.
    pub fn stats(&self) -> BusStats {
        let mut stats = self.state.engine.stats.clone();
        if let Some(nv) = &self.state.nv_mirror {
            nv.stamp_stats(&mut stats);
        }
        self.state.stamp_route_stats(&mut stats);
        stats
    }

    /// Deterministic fault injection for federation tests: garbles this
    /// daemon's router tables, stamp counters, and dedup windows. The
    /// next self-stabilization pass must detect and repair all of it.
    /// No-op on daemons that run no router.
    pub fn scramble_router(&mut self, seed: u64) {
        if let Some(r) = self.state.router.as_mut() {
            r.scramble(seed);
        }
    }

    /// The daemon's shared type registry.
    pub fn registry(&self) -> Rc<RefCell<TypeRegistry>> {
        self.state.registry()
    }
}

impl Process for BusDaemon {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.state.host32 = ctx.host().0;
        self.state.engine.set_host(ctx.host().0);
        self.state.daemon_inc = ctx.now().max(1);
        self.state.seg0 = ctx.segments().first().copied();
        let _ = ctx.bind(DAEMON_PORT);
        let _ = ctx.listen_conn(RMI_PORT);
        // Soft-state resync: ask peers to re-announce their tables.
        self.state.send_packet_broadcast(
            ctx,
            &Packet::SubResync {
                host: self.state.host32,
            },
        );
        let cfg = self.state.engine.config();
        let (nak_check, announce, sync, stats_period) = (
            cfg.nak_check_us,
            cfg.announce_period_us,
            cfg.sync_period_us,
            cfg.stats_period_us,
        );
        ctx.set_timer(nak_check, engine_token(TimerKind::NakScan));
        ctx.set_timer(announce, TOK_ANNOUNCE);
        ctx.set_timer(sync, engine_token(TimerKind::Sync));
        // The observability plane: every daemon can describe its own
        // counters, and publishes them when a stats period is configured.
        BusStats::register_type(&mut self.state.registry.borrow_mut());
        if stats_period > 0 {
            ctx.set_timer(stats_period, TOK_STATS);
        }
        // Reload the guaranteed-delivery ledger written before any crash.
        self.state.gd_load_ledger(ctx);
        self.drain(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        let Ok(packet) = Packet::decode(&dgram.payload, self.state.engine.table()) else {
            return;
        };
        match packet {
            Packet::Data { envelopes, .. } => {
                for env in envelopes {
                    self.state.accept_envelope(ctx, env);
                }
            }
            Packet::SubAnnounce {
                host,
                full,
                add,
                remove,
            } => {
                if host != self.state.host32 {
                    self.state.peer_subs.apply_announce(host, full, add, remove);
                }
            }
            Packet::SubResync { host } => {
                if host != self.state.host32 {
                    self.state.announce_full(ctx);
                }
            }
            Packet::SeqSync { entries } => {
                self.state.handle_seqsync(ctx, entries);
            }
            // Nak, GapSkip, Ack: engine events as they stand.
            repair => {
                if let Ok(event) = Event::try_from(repair) {
                    let actions = self.state.engine.handle(ctx.now(), event);
                    self.state.apply(ctx, actions);
                }
            }
        }
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(kind) = decode_engine_token(token) {
            match kind {
                TimerKind::GdRetry => self.state.gd_retry_round(ctx),
                kind => {
                    let actions = self.state.engine.handle(ctx.now(), Event::Timer(kind));
                    self.state.apply(ctx, actions);
                }
            }
            self.drain(ctx);
            return;
        }
        match token {
            TOK_STATS => self.state.publish_stats(ctx),
            TOK_ANN_FLUSH => self.state.flush_announcements(ctx),
            TOK_ANNOUNCE => {
                self.state.announce_full(ctx);
                ctx.set_timer(self.state.engine.config().announce_period_us, TOK_ANNOUNCE);
            }
            TOK_RT_SUMMARY => self.state.router_timer(ctx, RouterTimer::Summary),
            TOK_RT_STAB => self.state.router_timer(ctx, RouterTimer::Stabilize),
            dyn_token => {
                let Some(target) = self.state.timer_targets.remove(&dyn_token) else {
                    return;
                };
                match target {
                    TimerTarget::App { app_idx, token } => {
                        self.state
                            .pending
                            .push_back(AppEvent::Timer { app_idx, token });
                    }
                    TimerTarget::DiscoveryClose { corr } => self.state.close_discovery(ctx, corr),
                    TimerTarget::OfferWindowClose { call } => {
                        self.state.offer_window_closed(ctx, call)
                    }
                    TimerTarget::LinkRedial { peer } => {
                        // Only redial while no live dial to this peer
                        // exists (a racing reconnect may have won).
                        if !self.state.link_dials.values().any(|p| *p == peer) {
                            let rewrite = self.state.link_rules.get(&peer).cloned().unwrap_or(None);
                            self.state.open_link(ctx, peer, rewrite);
                        }
                    }
                    TimerTarget::RmiTimeout { call } => {
                        let waiting = self
                            .state
                            .calls
                            .get(&call)
                            .map(|c| matches!(c.phase, CallPhase::Connecting { .. }))
                            .unwrap_or(false);
                        if waiting {
                            self.state.call_failed(ctx, call, RmiError::Timeout);
                        }
                    }
                }
            }
        }
        self.drain(ctx);
    }

    fn on_conn(&mut self, ctx: &mut Ctx<'_>, event: ConnEvent) {
        match event {
            ConnEvent::Accepted { conn, .. } => {
                self.state.server_conns.insert(conn);
            }
            ConnEvent::Connected { .. } => {}
            ConnEvent::Data { conn, msg } => {
                if let Ok(Some(rmsg)) = RouterMsg::decode(&msg, self.state.engine.table()) {
                    self.state.handle_router_msg(ctx, conn, rmsg);
                    self.drain(ctx);
                    return;
                }
                let Ok(msg) = RmiMsg::decode(&msg) else {
                    return;
                };
                match msg {
                    RmiMsg::Request {
                        call,
                        service,
                        op,
                        args,
                    } => {
                        self.state
                            .handle_rmi_request(ctx, conn, call, service, op, args);
                    }
                    RmiMsg::Reply {
                        call,
                        ok,
                        value,
                        error,
                    } => {
                        let call_id = call.2;
                        if self.state.conn_calls.get(&conn) == Some(&call_id) {
                            self.state.conn_calls.remove(&conn);
                            let result = if ok {
                                let mut registry = self.state.registry.borrow_mut();
                                match wire::unmarshal(&value, &mut registry) {
                                    Ok(v) => Ok(v),
                                    Err(e) => Err(RmiError::App(format!("malformed reply: {e}"))),
                                }
                            } else if let Some(msg) = error.strip_prefix("bad-operation: ") {
                                Err(RmiError::BadOperation(msg.to_owned()))
                            } else {
                                Err(RmiError::App(error))
                            };
                            self.state.complete_call(ctx, call_id, result);
                        }
                    }
                }
            }
            ConnEvent::Closed { conn } => {
                self.state.server_conns.remove(&conn);
                self.state.close_link(ctx, conn);
                if let Some(call_id) = self.state.conn_calls.remove(&conn) {
                    let waiting = self
                        .state
                        .calls
                        .get(&call_id)
                        .map(|c| matches!(c.phase, CallPhase::Connecting { .. }))
                        .unwrap_or(false);
                    if waiting {
                        self.state
                            .call_failed(ctx, call_id, RmiError::ConnectionFailed);
                    }
                }
            }
        }
        self.drain(ctx);
    }

    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: Box<dyn Any>) {
        match cmd.downcast::<crate::fabric::AttachApp>() {
            Ok(attach) => {
                let attach = *attach;
                self.attach(ctx, &attach.name, attach.app);
            }
            Err(cmd) => match cmd.downcast::<crate::fabric::DetachApp>() {
                Ok(detach) => self.detach(ctx, &detach.name),
                Err(cmd) => match cmd.downcast::<crate::fabric::AppCommand>() {
                    Ok(appcmd) => {
                        let appcmd = *appcmd;
                        if let Some(app_idx) = self.app_idx(&appcmd.name) {
                            self.state
                                .pending
                                .push_back(crate::apps::AppEvent::Command {
                                    app_idx,
                                    cmd: appcmd.cmd,
                                });
                        }
                    }
                    Err(cmd) => {
                        if let Ok(link) = cmd.downcast::<crate::fabric::LinkBuses>() {
                            let link = *link;
                            self.state.open_link(ctx, link.peer.0, link.rewrite);
                        }
                    }
                },
            },
        }
        self.drain(ctx);
    }
}
