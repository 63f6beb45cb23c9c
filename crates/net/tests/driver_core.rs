//! Socket-free tests of the [`DriverCore`]: the daemon both socket
//! drivers share, run over an in-memory [`DatagramSink`] with time passed
//! in by hand. No thread, no socket, no sleep — a test feeds datagrams to
//! [`DriverCore::on_peer_datagram`] and reads what the core "sent" back
//! out of the sink.

use std::net::SocketAddr;
use std::sync::Mutex;

use infobus_core::engine::{BusStats, Micros};
use infobus_core::msg::{AnnounceEntry, Packet, SyncEntry};
use infobus_core::{BusConfig, BusReceiver, CompiledPredicate, Predicate, QoS, StreamKey};
use infobus_net::driver::{ApiOnly, CoreSetup, DatagramSink, DriverCore};
use infobus_net::frame::{decode_frame, encode_frame};
use infobus_net::loss::LossRng;
use infobus_subject::SubjectTable;
use infobus_types::Value;

/// Keeps every datagram instead of sending it.
#[derive(Default)]
struct MemorySink {
    sent: Mutex<Vec<Vec<u8>>>,
}

impl MemorySink {
    /// Everything sent since the last call.
    fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.sent.lock().unwrap())
    }

    /// The same, decoded (every frame the core emits must decode).
    fn take_packets(&self) -> Vec<Packet> {
        let table = SubjectTable::new();
        let decode = |bytes: &Vec<u8>| decode_frame(bytes, &table).expect("bad frame sent").1;
        self.take().iter().map(decode).collect()
    }
}

impl DatagramSink for MemorySink {
    fn send_datagram(&self, _addr: SocketAddr, bytes: &[u8], stats: &mut BusStats) {
        stats.net_tx_packets += 1;
        stats.net_tx_bytes += bytes.len() as u64;
        self.sent.lock().unwrap().push(bytes.to_vec());
    }
}

type Core = DriverCore<MemorySink, ApiOnly>;

const T0: Micros = 1_000_000;

fn addr(host: u32) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 4000 + host as u16))
}

/// A core for `host` that knows `peer`, opened at [`T0`].
fn core(host: u32, peer: u32, bus: BusConfig) -> Core {
    let setup = CoreSetup {
        bus: bus.with_batch_enabled(false),
        host,
        app: format!("app{host}"),
        peers: vec![(peer, addr(peer))],
        broadcast: None,
        no_local_echo: false,
        recv_loss: 0.0,
        loss_seed: 1,
    };
    DriverCore::open(setup, MemorySink::default(), ApiOnly, T0).unwrap()
}

/// `(SubResync, full SubAnnounce)` frames among what the core just sent.
fn refreshes(core: &Core) -> (usize, usize) {
    let packets = core.sink().take_packets();
    let count = |wanted: fn(&Packet) -> bool| packets.iter().filter(|p| wanted(p)).count();
    (
        count(|p| matches!(p, Packet::SubResync { .. })),
        count(|p| matches!(p, Packet::SubAnnounce { full: true, .. })),
    )
}

#[test]
fn soft_state_refreshes_once_per_announce_period() {
    let period = 50_000;
    let c = core(1, 2, BusConfig::default().with_announce_period_us(period));
    let (_sub, _rx) = c.subscribe(T0, "r.>", None).unwrap();
    // Open-time resync; no full announce until someone asks or the
    // period elapses.
    assert_eq!(refreshes(&c), (1, 0));
    c.tick(T0 + period - 1);
    assert_eq!(refreshes(&c), (0, 0), "refreshed before the period");
    c.tick(T0 + period);
    assert_eq!(refreshes(&c), (1, 1), "exactly one refresh at the period");
    c.tick(T0 + period);
    c.tick(T0 + 2 * period - 1);
    assert_eq!(refreshes(&c), (0, 0), "refreshed twice in one period");
    c.tick(T0 + 2 * period);
    assert_eq!(refreshes(&c), (1, 1));

    let off = core(1, 2, BusConfig::default().with_announce_period_us(0));
    assert_eq!(refreshes(&off), (1, 0));
    off.tick(T0 + 3_600_000_000);
    assert_eq!(refreshes(&off), (0, 0), "period 0 must disable the refresh");
}

/// The one `Data` frame a publish on `publisher` broadcasts.
fn data_frame(publisher: &Core, now: Micros, subject: &str, v: i64) -> Vec<u8> {
    publisher
        .publish(now, subject, &Value::I64(v), QoS::Reliable)
        .unwrap();
    let mut sent = publisher.sink().take();
    assert_eq!(sent.len(), 1, "one unbatched publish is one datagram");
    sent.remove(0)
}

fn recv_i64(rx: &BusReceiver) -> Option<i64> {
    rx.try_recv()
        .ok()
        .map(|m| m.value().unwrap().as_i64().unwrap())
}

#[test]
fn local_publish_is_delivered_synchronously_and_counted() {
    let c = core(1, 2, BusConfig::default());
    let (_sub, rx) = c.subscribe(T0, "l.>", None).unwrap();
    let n = c
        .publish(T0 + 1, "l.a", &Value::I64(5), QoS::Reliable)
        .unwrap();
    assert_eq!(n, 1, "publish returns the local delivery count");
    assert_eq!(recv_i64(&rx), Some(5));
}

#[test]
fn unsubscribe_announces_removal_and_filters_at_the_daemon() {
    let publisher = core(2, 1, BusConfig::default());
    let c = core(1, 2, BusConfig::default());
    publisher.sink().take();
    let (sub, rx) = c.subscribe(T0, "u.x", None).unwrap();
    c.sink().take();
    c.on_peer_datagram(T0 + 10, addr(2), &data_frame(&publisher, T0 + 10, "u.x", 1));
    assert_eq!(recv_i64(&rx), Some(1));

    c.unsubscribe(sub);
    let said = c.sink().take_packets();
    assert!(
        matches!(&said[..], [Packet::SubAnnounce { full: false, add, remove, .. }]
            if add.is_empty() && remove == &["u.x".to_owned()]),
        "unsubscribe must announce the removal: {said:?}"
    );
    c.on_peer_datagram(T0 + 20, addr(2), &data_frame(&publisher, T0 + 20, "u.x", 2));
    // Nothing local matches any more: dropped at the daemon boundary,
    // never queued.
    assert_eq!(c.stats().filtered, 1);
    assert_eq!(recv_i64(&rx), None);
}

/// One well-formed encoding of every [`Packet`] variant, from host 2.
fn every_variant(publisher: &Core) -> Vec<Vec<u8>> {
    let table = SubjectTable::new();
    let subject = table.intern("w.x").unwrap();
    let stream = StreamKey {
        host: 2,
        app: "app2".into(),
        inc: 1,
    };
    let pred = CompiledPredicate::compile(&Predicate::ge("", Value::I64(3)))
        .unwrap()
        .to_bytes();
    let control = [
        Packet::Nak {
            stream: stream.clone(),
            subject: subject.clone(),
            requester: 2,
            missing: vec![1, 2, 5],
        },
        Packet::GapSkip {
            stream: stream.clone(),
            subject: subject.clone(),
            through: 4,
        },
        Packet::Ack {
            stream: stream.clone(),
            subject: subject.clone(),
            seq: 1,
            from_host: 2,
        },
        Packet::SubAnnounce {
            host: 2,
            full: true,
            add: vec![
                AnnounceEntry::plain("w.>"),
                AnnounceEntry::filtered("w.x", pred),
                AnnounceEntry::plain("not..a.filter"),
                AnnounceEntry::filtered("w.y", vec![0xff, 0x00, 0x7f, 0x80]),
            ],
            remove: vec!["w.gone".into(), "*..".into()],
        },
        Packet::SubResync { host: 2 },
        Packet::SeqSync {
            entries: vec![SyncEntry {
                stream,
                subject,
                top_seq: 9,
                stream_start: T0,
            }],
        },
    ];
    let mut frames = vec![data_frame(publisher, T0 + 1, "w.x", 0)];
    frames.extend(control.iter().map(|p| encode_frame(2, p)));
    frames
}

#[test]
fn nothing_reachable_from_the_wire_panics() {
    let publisher = core(2, 1, BusConfig::default());
    publisher.sink().take();
    let c = core(1, 2, BusConfig::default());
    let (_sub, rx) = c.subscribe(T0, "w.>", None).unwrap();

    let mut rng = LossRng::new(0xadd1e);
    let mut fed = 0u64;
    let mut now = T0 + 100;
    let mut feed = |bytes: &[u8]| {
        fed += 1;
        now += 7;
        c.on_peer_datagram(now, addr(2), bytes);
        // Deadlines the datagram armed (NAK scans, digests) run too.
        c.tick(now);
    };

    // Arbitrary bytes: bare, and behind a valid frame header so the
    // packet decoder proper sees them.
    let header = &encode_frame(2, &Packet::SubResync { host: 2 })[..9];
    for round in 0..400 {
        let len = (rng.next_u64() % 96) as usize;
        let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if round % 2 == 0 {
            feed(&noise);
        } else {
            feed(&[header, &noise[..]].concat());
        }
    }
    // Every variant: whole, every truncation, every single-bit flip.
    for frame in every_variant(&publisher) {
        feed(&frame);
        for cut in 0..frame.len() {
            feed(&frame[..cut]);
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            feed(&flipped);
        }
    }

    let stats = c.stats();
    assert!(stats.net_decode_errors > 0 && stats.net_rx_packets > 0);
    assert_eq!(
        stats.net_decode_errors + stats.net_rx_packets,
        fed,
        "every datagram is either a counted decode error or a handled packet"
    );
    // Whatever state that left behind, a fresh well-formed stream still
    // delivers.
    while rx.try_recv().is_ok() {}
    let fresh = core(3, 1, BusConfig::default());
    fresh.sink().take();
    c.on_peer_datagram(
        now + 10,
        addr(3),
        &data_frame(&fresh, now + 10, "w.after", 42),
    );
    assert_eq!(recv_i64(&rx), Some(42));
}
