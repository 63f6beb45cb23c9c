//! Cross-driver conformance: the same assertions against every driver
//! of the unified [`Bus`] trait — the in-process bus, the UDP bus, the
//! edge reactor, and the netsim daemon shim.
//!
//! The suite is written once against `Arc<dyn Bus>` pairs (publisher
//! role, subscriber role — the same object for single-daemon drivers)
//! and checks the contract that matters to applications:
//!
//! * **in order** — per subject, deliveries arrive in publish order;
//! * **exactly once** — no duplicates, no silent losses;
//! * **NAK repair** — both properties hold under seeded datagram loss
//!   (socket drivers) or a lossy fault plan (the simulator).
//!
//! Per-subject order is asserted over four interleaved subjects;
//! inter-subject order is left explicitly unconstrained.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use infobus_core::inproc::InprocBus;
use infobus_core::{
    Bus, BusApp, BusConfig, BusCtx, BusFabric, BusMessage, Delivery, Predicate, QoS, SubjectMap,
};
use infobus_edge::{EdgeConfig, ReactorBus, SimBus, SimConfig};
use infobus_net::{UdpBus, UdpConfig};
use infobus_netsim::time::{millis, secs};
use infobus_netsim::{EtherConfig, FaultPlan, NetBuilder};
use infobus_types::{DataObject, Value};
use infobus_wal::scratch::ScratchDir;

/// Four subjects published round-robin, one stream each.
const SUBJECTS: [&str; 4] = ["c0.feed", "c1.feed", "c2.feed", "c3.feed"];
const PER_SUBJECT: i64 = 15;

fn fast() -> BusConfig {
    BusConfig::default()
        .with_batch_enabled(false)
        .with_nak_delay_us(2_000)
        .with_nak_check_us(1_000)
        .with_sync_period_us(10_000)
        // Tail loss is only repairable while idle digests keep coming:
        // at 25% receive loss the default 2 rounds can both be lost.
        .with_sync_rounds(50)
        .with_gd_retry_us(10_000)
}

/// One driver under test: a publisher-role bus and a subscriber-role bus
/// (the same object for single-daemon drivers), plus how long to wait
/// after subscribing before the first publish (socket drivers need their
/// announce exchanged and clocks ordered; zero for loopback drivers).
struct Harness {
    publisher: Arc<dyn Bus>,
    subscriber: Arc<dyn Bus>,
    settle: Duration,
}

fn inproc_cfg(cfg: BusConfig) -> Harness {
    let bus: Arc<dyn Bus> = Arc::new(InprocBus::with_config(cfg));
    Harness {
        publisher: Arc::clone(&bus),
        subscriber: bus,
        settle: Duration::ZERO,
    }
}

fn inproc() -> Harness {
    inproc_cfg(fast())
}

fn udp_cfg(cfg: BusConfig, loss: bool) -> Harness {
    let mut pub_cfg = UdpConfig::new(1).with_bus(cfg.clone()).with_app("pub");
    let mut sub_cfg = UdpConfig::new(2).with_bus(cfg).with_app("sub");
    if loss {
        // Loss on the subscriber's inbound path: data datagrams drop and
        // only NAK repair can restore order and completeness.
        sub_cfg = sub_cfg.with_recv_loss(0.25, 7);
        pub_cfg = pub_cfg.with_recv_loss(0.10, 11);
    }
    let p = UdpBus::bind(pub_cfg).unwrap();
    let s = UdpBus::bind(sub_cfg).unwrap();
    p.add_peer(2, s.local_addr()).unwrap();
    s.add_peer(1, p.local_addr()).unwrap();
    Harness {
        publisher: Arc::new(p),
        subscriber: Arc::new(s),
        settle: Duration::from_millis(100),
    }
}

fn udp(loss: bool) -> Harness {
    udp_cfg(fast(), loss)
}

fn reactor_cfg(cfg: BusConfig, loss: bool) -> Harness {
    let mut pub_cfg = EdgeConfig::new(1).with_bus(cfg.clone()).with_app("pub");
    let mut sub_cfg = EdgeConfig::new(2).with_bus(cfg).with_app("sub");
    if loss {
        sub_cfg = sub_cfg.with_recv_loss(0.25, 7);
        pub_cfg = pub_cfg.with_recv_loss(0.10, 11);
    }
    let p = ReactorBus::bind(pub_cfg).unwrap();
    let s = ReactorBus::bind(sub_cfg).unwrap();
    p.add_peer(2, s.local_addr()).unwrap();
    s.add_peer(1, p.local_addr()).unwrap();
    Harness {
        publisher: Arc::new(p),
        subscriber: Arc::new(s),
        settle: Duration::from_millis(100),
    }
}

fn reactor(loss: bool) -> Harness {
    reactor_cfg(fast(), loss)
}

fn sim_cfg(cfg: BusConfig, lossy: bool) -> Harness {
    let faults = if lossy {
        // Enough receive loss that a 60-message run cannot dodge repair.
        FaultPlan {
            recv_loss: 0.15,
            ..FaultPlan::lossy()
        }
    } else {
        FaultPlan::none()
    };
    let bus: Arc<dyn Bus> = Arc::new(
        SimBus::start(
            SimConfig::new()
                .with_bus(cfg)
                .with_faults(faults)
                .with_seed(42),
        )
        .unwrap(),
    );
    Harness {
        publisher: Arc::clone(&bus),
        subscriber: bus,
        settle: Duration::ZERO,
    }
}

fn sim(lossy: bool) -> Harness {
    sim_cfg(fast(), lossy)
}

/// The shared conformance body: subscribe to all four subject groups —
/// with the predicate `value >= floor` when `floor > 0` — publish
/// `PER_SUBJECT` sequenced messages per subject round-robin, then assert
/// every subject's stream arrives as exactly `floor..PER_SUBJECT`:
/// complete, in order, exactly once, nothing the predicate rejected ever
/// surfacing.
///
/// The predicate's attribute path is empty — it tests the published
/// value itself — which keeps this body free of type registration (the
/// `Bus` trait has no registry surface); object-attribute paths get
/// their own test below against the concrete drivers.
fn streams_exactly_once(h: &Harness, qos: QoS, floor: i64) {
    let pred = Predicate::ge("", Value::I64(floor));
    let mut rxs = Vec::new();
    for (i, _) in SUBJECTS.iter().enumerate() {
        let filter = format!("c{i}.>");
        let (_sub, rx) = if floor > 0 {
            h.subscriber.subscribe_filtered(&filter, &pred).unwrap()
        } else {
            h.subscriber.subscribe(&filter).unwrap()
        };
        rxs.push(rx);
    }
    std::thread::sleep(h.settle);

    for seq in 0..PER_SUBJECT {
        for subject in SUBJECTS {
            h.publisher.publish(subject, &Value::I64(seq), qos).unwrap();
        }
    }
    h.publisher.drain();
    h.subscriber.drain();

    // In order and complete: each queue yields floor..PER_SUBJECT in
    // order. The timeout is per message, not a shared deadline: the whole
    // suite runs in parallel and a loaded machine stalls repair rounds
    // without breaking them. Guaranteed QoS is at-least-once by contract
    // — a retransmission racing the ack may arrive as a
    // redelivery-flagged repeat, which is tolerated; an unflagged
    // duplicate never is.
    for (i, rx) in rxs.iter().enumerate() {
        for want in floor..PER_SUBJECT {
            let got = loop {
                let msg = rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("{}[{want}]: {e}", SUBJECTS[i]));
                assert_eq!(msg.subject, SUBJECTS[i]);
                let got = seq_of(&msg);
                assert!(
                    got >= floor,
                    "{}: predicate-rejected seq {got} was delivered",
                    SUBJECTS[i]
                );
                if qos == QoS::Guaranteed && msg.redelivery && got != want {
                    continue; // at-least-once repeat of an earlier message
                }
                break got;
            };
            assert_eq!(got, want, "{} out of order", SUBJECTS[i]);
        }
    }
    // Exactly once: nothing further arrives after a settle (modulo
    // redelivery-flagged guaranteed repeats, which announce themselves).
    h.subscriber.drain();
    std::thread::sleep(h.settle.max(Duration::from_millis(50)));
    for (i, rx) in rxs.iter().enumerate() {
        while let Ok(msg) = rx.try_recv() {
            assert!(
                qos == QoS::Guaranteed && msg.redelivery,
                "{} delivered a duplicate",
                SUBJECTS[i]
            );
        }
    }
    // Injected loss drops datagrams undecoded; nothing a conformant peer
    // sends may fail to decode.
    assert_eq!(h.subscriber.stats().net_decode_errors, 0);
}

fn seq_of(msg: &Delivery) -> i64 {
    msg.value().unwrap().as_i64().unwrap()
}

fn ordered_exactly_once(h: &Harness, qos: QoS) {
    streams_exactly_once(h, qos, 0);
}

// ----- clean transport: in order, exactly once ------------------------------

#[test]
fn inproc_ordered() {
    ordered_exactly_once(&inproc(), QoS::Reliable);
}

#[test]
fn udp_ordered() {
    ordered_exactly_once(&udp(false), QoS::Reliable);
}

#[test]
fn reactor_ordered() {
    ordered_exactly_once(&reactor(false), QoS::Reliable);
}

#[test]
fn sim_ordered() {
    ordered_exactly_once(&sim(false), QoS::Reliable);
}

// ----- lossy transport: NAK repair restores both properties -----------------

/// Loss was configured, so completeness above can only have come from
/// NAK repair — which must therefore have run.
fn nak_repaired(h: &Harness) {
    ordered_exactly_once(h, QoS::Reliable);
    assert!(
        h.subscriber.stats().naks_sent > 0,
        "loss was configured but no NAK repair happened"
    );
}

#[test]
fn udp_nak_repair() {
    nak_repaired(&udp(true));
}

#[test]
fn reactor_nak_repair() {
    nak_repaired(&reactor(true));
}

#[test]
fn sim_lossy() {
    nak_repaired(&sim(true));
}

// ----- guaranteed delivery through the trait --------------------------------

#[test]
fn guaranteed_qos_all_drivers() {
    for h in [inproc(), udp(false), reactor(false), sim(false)] {
        ordered_exactly_once(&h, QoS::Guaranteed);
    }
}

// ----- durable guaranteed delivery: restart replay matrix -------------------
//
// Every wall-clock driver of the trait accepts a durable ledger
// directory; a bus that dies with guaranteed envelopes unacknowledged
// must replay them — and only them — when reopened over the same
// directory.

fn durable_inproc(dir: &Path) -> Arc<dyn Bus> {
    Arc::new(InprocBus::with_config(fast().with_durable_dir(dir)))
}

fn durable_udp(dir: &Path) -> Arc<dyn Bus> {
    let cfg = UdpConfig::new(9)
        .with_bus(fast().with_durable_dir(dir))
        .with_app("dur");
    Arc::new(UdpBus::bind(cfg).unwrap())
}

fn durable_reactor(dir: &Path) -> Arc<dyn Bus> {
    let cfg = EdgeConfig::new(9)
        .with_bus(fast().with_durable_dir(dir))
        .with_app("dur");
    Arc::new(ReactorBus::bind(cfg).unwrap())
}

/// The shared durable-restart body: publish orphaned guaranteed
/// messages (no subscriber anywhere, so nothing can acknowledge them),
/// drop the bus, and check that a restart over the same directory
/// replays the whole ledger.
fn durable_restart_replays(make: &dyn Fn(&Path) -> Arc<dyn Bus>) {
    let scratch = ScratchDir::new("conf-durable");
    let dir = scratch.path();
    let total = (SUBJECTS.len() as i64 * PER_SUBJECT) as u64;
    {
        let bus = make(dir);
        for seq in 0..PER_SUBJECT {
            for subject in SUBJECTS {
                bus.publish(subject, &Value::I64(seq), QoS::Guaranteed)
                    .unwrap();
            }
        }
        bus.drain();
        let stats = bus.stats();
        assert_eq!(
            stats.gd_pending, total,
            "orphan guaranteed publishes must stay pending"
        );
        assert!(stats.gd_ledger_appends >= total);
    }
    let bus = make(dir);
    let stats = bus.stats();
    assert_eq!(stats.gd_pending, total, "restart must replay the ledger");
    assert!(stats.gd_ledger_recovered >= total);
}

#[test]
fn inproc_durable_restart() {
    durable_restart_replays(&durable_inproc);
}

#[test]
fn udp_durable_restart() {
    durable_restart_replays(&durable_udp);
}

#[test]
fn reactor_durable_restart() {
    durable_restart_replays(&durable_reactor);
}

/// The socket drivers' end-to-end restart: a publisher that died with
/// every subject's guaranteed entry unacknowledged, restarted facing a
/// live subscriber, redelivers each of them (flagged as redelivery) —
/// then its ledger drains to empty.
fn durable_restart_redelivers(
    orphan: &dyn Fn(&Path) -> Arc<dyn Bus>,
    subscriber: &dyn Fn() -> (Arc<dyn Bus>, SocketAddr),
    restart: &dyn Fn(&Path, SocketAddr) -> Arc<dyn Bus>,
) {
    let scratch = ScratchDir::new("conf-durable-redeliver");
    let dir = scratch.path();
    {
        let bus = orphan(dir);
        for subject in SUBJECTS {
            bus.publish(subject, &Value::I64(7), QoS::Guaranteed)
                .unwrap();
        }
        bus.drain();
        assert_eq!(bus.stats().gd_pending, SUBJECTS.len() as u64);
    }

    // Subscribe before the publisher exists, so the announce the
    // publisher's peer handshake elicits already carries the interest.
    let (sub, sub_addr) = subscriber();
    let mut rxs = Vec::new();
    for (i, _) in SUBJECTS.iter().enumerate() {
        let (_s, rx) = sub.subscribe(&format!("c{i}.>")).unwrap();
        rxs.push(rx);
    }
    let publisher = restart(dir, sub_addr);

    // The replayed ledger must drain: every entry delivered and
    // acknowledged.
    let end = Instant::now() + Duration::from_secs(30);
    while publisher.stats().gd_pending > 0 {
        assert!(Instant::now() < end, "replayed ledger never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100));
    sub.drain();
    for (i, rx) in rxs.iter().enumerate() {
        let msgs: Vec<_> = rx.try_iter().collect();
        assert!(
            msgs.iter().any(|m| m.redelivery),
            "{}: recovered entry never redelivered",
            SUBJECTS[i]
        );
    }
}

#[test]
fn udp_durable_restart_redelivers() {
    durable_restart_redelivers(
        &durable_udp,
        &|| {
            let s = UdpBus::bind(UdpConfig::new(8).with_bus(fast()).with_app("wsub")).unwrap();
            let addr = s.local_addr();
            (Arc::new(s) as Arc<dyn Bus>, addr)
        },
        &|dir, addr| {
            let p = UdpBus::bind(
                UdpConfig::new(9)
                    .with_bus(fast().with_durable_dir(dir))
                    .with_app("dur"),
            )
            .unwrap();
            p.add_peer(8, addr).unwrap();
            Arc::new(p)
        },
    );
}

#[test]
fn reactor_durable_restart_redelivers() {
    durable_restart_redelivers(
        &durable_reactor,
        &|| {
            let s = ReactorBus::bind(EdgeConfig::new(8).with_bus(fast()).with_app("wsub")).unwrap();
            let addr = s.local_addr();
            (Arc::new(s) as Arc<dyn Bus>, addr)
        },
        &|dir, addr| {
            let p = ReactorBus::bind(
                EdgeConfig::new(9)
                    .with_bus(fast().with_durable_dir(dir))
                    .with_app("dur"),
            )
            .unwrap();
            p.add_peer(8, addr).unwrap();
            Arc::new(p)
        },
    );
}

// ---------------------------------------------------------------------------
// Federation: guaranteed delivery across segments through a router restart
// ---------------------------------------------------------------------------
// The cross-segment extension of the durable-restart contract above.
// Information routers re-publish guaranteed traffic hop by hop, each hop
// persisting the envelopes in its own ledger before sending — so a
// guaranteed stream published in segment A must survive a crash of the
// segment-B router that accepted it, and redeliver to segment B's
// subscriber exactly once after the router restarts.

/// Subscribes to `wip.>` at start; records everything it receives.
#[derive(Default)]
struct FedCollector {
    messages: Vec<BusMessage>,
}

impl BusApp for FedCollector {
    fn on_start(&mut self, bus: &mut BusCtx<'_, '_>) {
        bus.subscribe("wip.>").unwrap();
    }
    fn on_message(&mut self, _bus: &mut BusCtx<'_, '_>, msg: &BusMessage) {
        self.messages.push(msg.clone());
    }
}

/// Publishes six guaranteed integers on `wip.lot9`, 10 ms apart.
#[derive(Default)]
struct FedTicker {
    sent: i64,
}

impl BusApp for FedTicker {
    fn on_start(&mut self, bus: &mut BusCtx<'_, '_>) {
        bus.set_timer(millis(10), 0);
    }
    fn on_timer(&mut self, bus: &mut BusCtx<'_, '_>, _token: u64) {
        if self.sent < 6 {
            let v = Value::I64(self.sent);
            self.sent += 1;
            bus.publish("wip.lot9", &v, QoS::Guaranteed).unwrap();
            bus.set_timer(millis(10), 0);
        }
    }
}

#[test]
fn federation_gd_survives_router_restart() {
    // Segment A {pa, ra} -- WAN {ra, rb} -- segment B {rb, sb}.
    let mut b = NetBuilder::new(0x000f_ed6d);
    let seg_a = b.segment(EtherConfig::lan_10mbps());
    let seg_b = b.segment(EtherConfig::lan_10mbps());
    let wan = b.segment(EtherConfig::lan_10mbps());
    let pa = b.host("pa", &[seg_a]);
    let ra = b.host("ra", &[seg_a, wan]);
    let rb = b.host("rb", &[seg_b, wan]);
    let sb = b.host("sb", &[seg_b]);
    let mut sim = b.build();
    let cfg = BusConfig::default()
        .with_announce_period_us(secs(1))
        .with_gd_retry_us(millis(100));
    let mut fabric = BusFabric::install(&mut sim, &[pa, ra, rb, sb], cfg.clone());
    fabric.link_buses(&mut sim, ra, rb, None);
    fabric.attach_app(&mut sim, sb, "col", Box::new(FedCollector::default()));
    sim.run_for(secs(3)); // announcements + route summaries converge

    // Cut the subscriber off, then publish the guaranteed stream: it
    // crosses the WAN and lands in rb's ledger, undeliverable.
    sim.partition(&[&[pa, ra, rb], &[sb]]);
    fabric.attach_app(&mut sim, pa, "pub", Box::new(FedTicker::default()));
    sim.run_for(secs(1));
    let stats = fabric.daemon_stats(&mut sim, rb).unwrap();
    assert_eq!(
        stats.gd_pending, 6,
        "rb's ledger must hold the forwarded stream: {stats:?}"
    );

    // Crash the segment-B router with the stream unacknowledged, then
    // restart it and heal the partition. The reloaded ledger plus the
    // re-dialed link (ra redials automatically) must redeliver the
    // stream to sb exactly once.
    fabric.crash_daemon(&mut sim, rb);
    sim.run_for(millis(500));
    fabric.restart_daemon(&mut sim, rb, cfg);
    sim.heal();
    sim.run_for(secs(12));

    let msgs = fabric
        .with_app::<FedCollector, Vec<BusMessage>>(&mut sim, sb, "col", |c| c.messages.clone())
        .unwrap();
    let ints: Vec<i64> = msgs.iter().filter_map(|m| m.value.as_i64()).collect();
    assert_eq!(
        ints,
        vec![0, 1, 2, 3, 4, 5],
        "exactly-once cross-segment redelivery after router restart"
    );
    assert!(
        msgs.iter()
            .all(|m| m.qos == QoS::Guaranteed && m.redelivery),
        "ledger redeliveries are flagged guaranteed"
    );
    let stats = fabric.daemon_stats(&mut sim, rb).unwrap();
    assert_eq!(
        stats.gd_pending, 0,
        "rb's ledger drains once sb acknowledges: {stats:?}"
    );
}

// ---------------------------------------------------------------------------
// Content filters: identical predicate semantics on every driver
// ---------------------------------------------------------------------------
// A subscription carrying `seq >= FILTER_FLOOR` must yield exactly the
// accepted suffix of each stream, in publish order, whether the
// rejection happened at the publisher's gate (the predicate travels in
// subscription announcements, so socket drivers suppress before the
// wire) or at the subscriber's delivery gate. The observable match set
// is the conformance contract; where the bytes died is a stats detail.

const FILTER_FLOOR: i64 = 5;

fn filtered_ordered_exactly_once(h: &Harness, qos: QoS) {
    streams_exactly_once(h, qos, FILTER_FLOOR);
}

#[test]
fn inproc_filtered() {
    filtered_ordered_exactly_once(&inproc(), QoS::Reliable);
}

#[test]
fn udp_filtered() {
    filtered_ordered_exactly_once(&udp(false), QoS::Reliable);
}

#[test]
fn reactor_filtered() {
    filtered_ordered_exactly_once(&reactor(false), QoS::Reliable);
}

#[test]
fn sim_filtered() {
    filtered_ordered_exactly_once(&sim(false), QoS::Reliable);
}

/// Guaranteed-QoS filtered streams: the accepted suffix must arrive
/// exactly once (modulo flagged redeliveries) and the publisher's
/// ledger must drain — a predicate rejection counts as consumption,
/// never as an undeliverable envelope stuck in retry.
#[test]
fn filtered_guaranteed_all_drivers() {
    for h in [inproc(), udp(false), reactor(false), sim(false)] {
        filtered_ordered_exactly_once(&h, QoS::Guaranteed);
        let end = Instant::now() + Duration::from_secs(30);
        while h.publisher.stats().gd_pending > 0 {
            assert!(
                Instant::now() < end,
                "guaranteed filtered stream stranded the ledger: {:?}",
                h.publisher.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// On the socket drivers the predicate crosses the wire inside the
/// subscription announcement, so the *publisher's* daemon suppresses
/// unanimously-rejected publications before marshalling: its own stats
/// must show the suppression that the subscriber never saw.
#[test]
fn udp_filtered_suppresses_at_publisher() {
    let h = udp(false);
    filtered_ordered_exactly_once(&h, QoS::Reliable);
    let stats = h.publisher.stats();
    assert!(
        stats.filt_pub_suppressed > 0,
        "publisher never suppressed: {stats:?}"
    );
    assert!(stats.filt_suppressed_bytes > 0);
}

#[test]
fn reactor_filtered_suppresses_at_publisher() {
    let h = reactor(false);
    filtered_ordered_exactly_once(&h, QoS::Reliable);
    let stats = h.publisher.stats();
    assert!(
        stats.filt_pub_suppressed > 0,
        "publisher never suppressed: {stats:?}"
    );
    assert!(stats.filt_suppressed_bytes > 0);
}

/// NAK repair under seeded loss must restore exactly the accepted
/// suffix — retransmission never resurrects a suppressed publication.
#[test]
fn udp_filtered_nak_repair() {
    filtered_ordered_exactly_once(&udp(true), QoS::Reliable);
}

#[test]
fn reactor_filtered_nak_repair() {
    filtered_ordered_exactly_once(&reactor(true), QoS::Reliable);
}

#[test]
fn sim_filtered_lossy() {
    filtered_ordered_exactly_once(&sim(true), QoS::Reliable);
}

// ---------------------------------------------------------------------------
// Semantic subject mapping: synonym aliases span every driver
// ---------------------------------------------------------------------------
// With the same SubjectMap configured on both daemons, a publish on a
// synonym is canonicalized before sequencing and a subscription on a
// synonym is expanded to the canonical form — so either spelling on
// either side converges on one stream, always delivered under the
// canonical subject.

fn semantic_cfg() -> BusConfig {
    let mut map = SubjectMap::new();
    map.add_alias("nyse.ibm", "tech.ibm").unwrap();
    fast().with_subject_map(Arc::new(map))
}

fn semantic_alias_converges(h: &Harness) {
    let (_alias, alias_rx) = h.subscriber.subscribe("nyse.ibm").unwrap();
    let (_canon, canon_rx) = h.subscriber.subscribe("tech.ibm").unwrap();
    std::thread::sleep(h.settle);
    h.publisher
        .publish("nyse.ibm", &Value::I64(1), QoS::Reliable)
        .unwrap();
    h.publisher
        .publish("tech.ibm", &Value::I64(2), QoS::Reliable)
        .unwrap();
    h.publisher.drain();
    h.subscriber.drain();
    for (name, rx) in [("alias", alias_rx), ("canonical", canon_rx)] {
        for want in [1, 2] {
            let msg = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("{name} subscriber missed {want}: {e}"));
            assert_eq!(
                msg.subject, "tech.ibm",
                "deliveries carry the canonical subject"
            );
            assert_eq!(msg.value().unwrap(), Value::I64(want));
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(rx.try_recv().is_err(), "{name} subscriber saw a duplicate");
    }
}

#[test]
fn inproc_semantic_alias() {
    semantic_alias_converges(&inproc_cfg(semantic_cfg()));
}

#[test]
fn udp_semantic_alias() {
    semantic_alias_converges(&udp_cfg(semantic_cfg(), false));
}

#[test]
fn reactor_semantic_alias() {
    semantic_alias_converges(&reactor_cfg(semantic_cfg(), false));
}

#[test]
fn sim_semantic_alias() {
    semantic_alias_converges(&sim_cfg(semantic_cfg(), false));
}

// ---------------------------------------------------------------------------
// Object-attribute predicates across the wire
// ---------------------------------------------------------------------------
// The trait-level body above predicates over the root value; this pins
// the dotted-attribute form on the socket drivers, where the predicate
// must survive announce encoding and gate publications of
// self-describing objects at the remote publisher.

fn quote_descriptor() -> infobus_types::TypeDescriptor {
    use infobus_types::{TypeDescriptor, ValueType};
    TypeDescriptor::builder("Quote")
        .attribute("sym", ValueType::Str)
        .attribute("price", ValueType::F64)
        .build()
}

fn quote(sym: &str, price: f64) -> Value {
    Value::object(
        DataObject::new("Quote")
            .with("sym", sym)
            .with("price", price),
    )
}

fn attribute_predicate_gates_remote_publisher(publisher: &dyn Bus, subscriber: &dyn Bus) {
    let (_sub, rx) = subscriber
        .subscribe_filtered("q.>", &Predicate::gt("price", Value::F64(100.0)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    publisher
        .publish("q.ibm", &quote("IBM", 120.0), QoS::Reliable)
        .unwrap();
    publisher
        .publish("q.gmc", &quote("GMC", 80.0), QoS::Reliable)
        .unwrap();
    publisher
        .publish("q.ibm", &quote("IBM", 150.0), QoS::Reliable)
        .unwrap();
    publisher.drain();
    let mut prices = Vec::new();
    for _ in 0..2 {
        let msg = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let v = msg.value().unwrap();
        let obj = v.as_object().unwrap();
        prices.push(obj.get("price").unwrap().as_f64().unwrap());
    }
    assert_eq!(prices, vec![120.0, 150.0]);
    std::thread::sleep(Duration::from_millis(50));
    assert!(rx.try_recv().is_err(), "rejected quote was delivered");
    assert!(
        publisher.stats().filt_pub_suppressed >= 1,
        "the rejected quote must die at the publisher's gate"
    );
}

#[test]
fn udp_attribute_predicate() {
    let p = UdpBus::bind(UdpConfig::new(1).with_bus(fast()).with_app("pub")).unwrap();
    let s = UdpBus::bind(UdpConfig::new(2).with_bus(fast()).with_app("sub")).unwrap();
    p.add_peer(2, s.local_addr()).unwrap();
    s.add_peer(1, p.local_addr()).unwrap();
    p.register_type(quote_descriptor()).unwrap();
    attribute_predicate_gates_remote_publisher(&p, &s);
}

#[test]
fn reactor_attribute_predicate() {
    let p = ReactorBus::bind(EdgeConfig::new(1).with_bus(fast()).with_app("pub")).unwrap();
    let s = ReactorBus::bind(EdgeConfig::new(2).with_bus(fast()).with_app("sub")).unwrap();
    p.add_peer(2, s.local_addr()).unwrap();
    s.add_peer(1, p.local_addr()).unwrap();
    p.register_type(quote_descriptor()).unwrap();
    attribute_predicate_gates_remote_publisher(&p, &s);
}
