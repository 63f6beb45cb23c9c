//! Integration tests for the UDP driver over real loopback sockets.
//!
//! Loopback does not lose datagrams, so the repair tests inject seeded
//! loss on the *receive* path ([`UdpConfig::with_recv_loss`]) — the NAK,
//! gap-scan, digest, and guaranteed-retry machinery then runs against
//! genuine wall-clock timers and real sockets.

use std::time::{Duration, Instant};

use infobus_core::{BusConfig, QoS};
use infobus_net::{NetReceiver, UdpBus, UdpConfig};
use infobus_types::Value;

/// Aggressive protocol timers so repair happens in test time.
fn fast_cfg() -> BusConfig {
    BusConfig::default()
        .with_batch_enabled(false)
        .with_nak_delay_us(2_000)
        .with_nak_check_us(1_000)
        .with_sync_period_us(10_000)
        .with_gd_retry_us(10_000)
        .with_retain_per_stream(4096)
}

fn pair_with_loss(loss: f64, seed: u64) -> (UdpBus, UdpBus) {
    let a = UdpBus::bind(UdpConfig::new(1).with_bus(fast_cfg()).with_app("alpha")).unwrap();
    let b = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(fast_cfg())
            .with_app("beta")
            .with_recv_loss(loss, seed),
    )
    .unwrap();
    a.add_peer(2, b.local_addr()).unwrap();
    b.add_peer(1, a.local_addr()).unwrap();
    (a, b)
}

/// Receives `n` i64 payloads, asserting in-order exactly-once 0..n.
///
/// Messages flagged `redelivery` are guaranteed-delivery retry copies:
/// the protocol is at-least-once for those, so a flagged duplicate is
/// tolerated — an *unflagged* duplicate or reordering is a failure.
fn assert_in_order(rx: &NetReceiver, n: i64, deadline: Duration) {
    let end = Instant::now() + deadline;
    let mut expect = 0i64;
    while expect < n {
        let left = end.saturating_duration_since(Instant::now());
        let msg = rx
            .recv_timeout(left)
            .unwrap_or_else(|e| panic!("waiting for #{expect}: {e:?}"));
        let value = msg.value().unwrap();
        if msg.redelivery && value != Value::I64(expect) {
            continue;
        }
        assert_eq!(value, Value::I64(expect), "out of order");
        expect += 1;
    }
    while let Ok(msg) = rx.recv_timeout(Duration::from_millis(200)) {
        assert!(
            msg.redelivery,
            "extra message delivered (duplicate not suppressed)"
        );
    }
}

#[test]
fn lossless_in_order_exactly_once() {
    let (a, b) = pair_with_loss(0.0, 0);
    let (_sub, rx) = b.subscribe("feed.>").unwrap();
    for i in 0..200i64 {
        a.publish("feed.tick", &Value::I64(i), QoS::Reliable)
            .unwrap();
    }
    assert_in_order(&rx, 200, Duration::from_secs(20));
    let stats = b.stats();
    assert_eq!(stats.dups_dropped, 0);
    assert!(stats.net_rx_packets > 0);
    assert_eq!(stats.net_decode_errors, 0);
}

#[test]
fn seeded_loss_is_repaired_by_naks() {
    let (a, b) = pair_with_loss(0.25, 42);
    let (_sub, rx) = b.subscribe("feed.>").unwrap();
    for i in 0..300i64 {
        a.publish("feed.tick", &Value::I64(i), QoS::Reliable)
            .unwrap();
    }
    assert_in_order(&rx, 300, Duration::from_secs(30));
    let stats = b.stats();
    assert!(stats.net_recv_dropped > 0, "loss injection never fired");
    assert!(stats.naks_sent > 0, "repair happened without NAKs?");
    let a_stats = a.stats();
    assert!(a_stats.retransmitted > 0, "publisher never retransmitted");
}

#[test]
fn guaranteed_delivery_completes_under_loss() {
    let (a, b) = pair_with_loss(0.25, 7);
    let (_sub, rx) = b.subscribe("orders.>").unwrap();
    for i in 0..40i64 {
        a.publish("orders.new", &Value::I64(i), QoS::Guaranteed)
            .unwrap();
    }
    assert_in_order(&rx, 40, Duration::from_secs(30));
    // The publisher's ledger must drain: every guaranteed envelope
    // acknowledged (possibly via retry rounds) despite the loss.
    let end = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = a.stats();
        if stats.gd_pending == 0 {
            assert_eq!(stats.gd_completed, 40);
            break;
        }
        assert!(
            Instant::now() < end,
            "guaranteed ledger never drained: {} pending",
            stats.gd_pending
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(b.stats().acks_sent > 0);
}

#[test]
fn two_way_traffic_keeps_streams_independent() {
    let (a, b) = pair_with_loss(0.0, 0);
    let (_sa, rx_a) = a.subscribe("from.b").unwrap();
    let (_sb, rx_b) = b.subscribe("from.a").unwrap();
    for i in 0..100i64 {
        a.publish("from.a", &Value::I64(i), QoS::Reliable).unwrap();
        b.publish("from.b", &Value::I64(i), QoS::Reliable).unwrap();
    }
    assert_in_order(&rx_b, 100, Duration::from_secs(20));
    assert_in_order(&rx_a, 100, Duration::from_secs(20));
}

#[test]
fn late_joiner_starts_at_first_sighting() {
    let (a, b) = pair_with_loss(0.0, 0);
    for i in 0..50i64 {
        a.publish("late.x", &Value::I64(i), QoS::Reliable).unwrap();
    }
    // Allow the early publications to land (and be filtered) at b.
    std::thread::sleep(Duration::from_millis(100));
    let (_sub, rx) = b.subscribe("late.>").unwrap();
    a.publish("late.x", &Value::I64(50), QoS::Reliable).unwrap();
    // A subscriber created after the stream started is not entitled to
    // history: the first delivery is the first post-subscription one.
    let msg = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(msg.value().unwrap(), Value::I64(50));
}

#[test]
fn third_bus_learns_addresses_from_traffic() {
    let (a, b) = pair_with_loss(0.0, 0);
    let c = UdpBus::bind(UdpConfig::new(3).with_bus(fast_cfg()).with_app("gamma")).unwrap();
    // c only knows a; a and b learn c from its frames, and c learns b
    // from b's announce reply relayed by... nothing — c must hear b
    // directly. Teach c about b the static way, but let a/b learn c
    // purely from traffic.
    c.add_peer(1, a.local_addr()).unwrap();
    c.add_peer(2, b.local_addr()).unwrap();
    let (_sub, rx) = c.subscribe("learn.>").unwrap();
    // a has never been told about c, but c's SubResync/SubAnnounce
    // frames taught a its address.
    let end = Instant::now() + Duration::from_secs(10);
    let mut got = false;
    let mut i = 0i64;
    while !got && Instant::now() < end {
        a.publish("learn.x", &Value::I64(i), QoS::Reliable).unwrap();
        i += 1;
        got = rx.recv_timeout(Duration::from_millis(200)).is_ok();
    }
    assert!(got, "a never learned c's address from traffic");
}
