//! Cross-process smoke test: two bus daemons in separate OS processes
//! exchanging subjects over loopback UDP, with seeded inbound loss on
//! the receiver so NAK repair and guaranteed-delivery retry run across a
//! real process boundary.
//!
//! Run with no arguments: the parent binds a socket, subscribes, then
//! re-executes itself as the publishing child. Exit code 0 means every
//! assertion held (in-order exactly-once reliable stream, complete
//! guaranteed delivery, repair actually exercised); anything else is a
//! failure. CI runs this under a timeout.

use std::net::SocketAddr;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use infobus_core::{BusConfig, QoS};
use infobus_net::{UdpBus, UdpConfig};
use infobus_types::Value;

const RELIABLE_COUNT: i64 = 500;
const GUARANTEED_COUNT: i64 = 50;
const DEADLINE: Duration = Duration::from_secs(60);

/// Protocol timers tightened so repair converges in smoke-test time.
fn smoke_cfg() -> BusConfig {
    BusConfig::default()
        .with_batch_enabled(false)
        .with_nak_delay_us(5_000)
        .with_nak_check_us(2_000)
        .with_sync_period_us(25_000)
        .with_gd_retry_us(25_000)
        .with_retain_per_stream(4096)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => parent(),
        Some("child") => child(args[2].parse().expect("parent address")),
        Some(other) => {
            eprintln!("usage: udp_smoke [child <parent-addr>]");
            eprintln!("unexpected argument: {other}");
            exit(2);
        }
    }
}

fn parent() {
    let bus = UdpBus::bind(
        UdpConfig::new(1)
            .with_bus(smoke_cfg())
            .with_app("smoke-sub")
            .with_recv_loss(0.20, 11),
    )
    .expect("bind parent");
    let (_data_sub, data_rx) = bus.subscribe("smoke.data.>").expect("subscribe data");
    let (_gd_sub, gd_rx) = bus.subscribe("smoke.gd.>").expect("subscribe gd");
    let (_stats_sub, stats_rx) = bus.subscribe("smoke.stats.>").expect("subscribe stats");

    // The child learns us from argv; we learn the child from its frames.
    let mut child = Command::new(std::env::current_exe().expect("current exe"))
        .arg("child")
        .arg(bus.local_addr().to_string())
        .spawn()
        .expect("spawn child");

    let end = Instant::now() + DEADLINE;
    let mut failures = Vec::new();

    // Reliable stream: in-order, exactly-once, despite 20% inbound loss.
    let mut expect = 0i64;
    while expect < RELIABLE_COUNT && Instant::now() < end {
        if let Ok(msg) = data_rx.recv_timeout(Duration::from_millis(500)) {
            let value = msg.value().expect("unmarshal");
            if value != Value::I64(expect) {
                failures.push(format!("data out of order: got {value:?} want {expect}"));
                break;
            }
            expect += 1;
        }
    }
    if expect != RELIABLE_COUNT {
        failures.push(format!(
            "reliable stream stalled at {expect}/{RELIABLE_COUNT}"
        ));
    }

    // Guaranteed stream: at-least-once, every value seen.
    let mut seen = vec![false; GUARANTEED_COUNT as usize];
    while seen.iter().any(|s| !s) && Instant::now() < end {
        if let Ok(msg) = gd_rx.recv_timeout(Duration::from_millis(500)) {
            if let Value::I64(i) = msg.value().expect("unmarshal") {
                if (0..GUARANTEED_COUNT).contains(&i) {
                    seen[i as usize] = true;
                }
            }
        }
    }
    let missing = seen.iter().filter(|s| !**s).count();
    if missing > 0 {
        failures.push(format!("{missing} guaranteed values never delivered"));
    }

    // Release the child: it must keep serving NAK retransmissions until
    // everything above has been repaired, so it only exits on this cue.
    bus.publish("smoke.ctl.done", &Value::I64(1), QoS::Reliable)
        .expect("publish done");

    let status = child.wait().expect("wait child");
    if !status.success() {
        failures.push(format!("child failed: {status}"));
    }

    // The child's last guaranteed publication carries its own
    // `net_tx_packets` sample; the child only exits once it is acked, so
    // it must already be queued here.
    let reported_tx = match stats_rx.recv_timeout(Duration::from_secs(5)) {
        Ok(msg) => match msg.value().expect("unmarshal stats") {
            Value::I64(v) if v > 0 => v as u64,
            other => {
                failures.push(format!("bad child tx report: {other:?}"));
                0
            }
        },
        Err(_) => {
            failures.push("child never reported its tx counter".into());
            0
        }
    };

    let stats = bus.stats();
    println!(
        "parent stats: rx={} dropped={} child_tx={} naks_sent={} dups_dropped={} acks_sent={}",
        stats.net_rx_packets,
        stats.net_recv_dropped,
        reported_tx,
        stats.naks_sent,
        stats.dups_dropped,
        stats.acks_sent
    );
    if stats.net_recv_dropped == 0 {
        failures.push("loss injection never fired".into());
    }
    if stats.net_rx_packets == 0 {
        failures.push("rx counter never moved".into());
    }
    // Socket-counter consistency: every datagram the child sent was
    // either received or dropped by the injected loss here (the child is
    // our only peer). The child keeps transmitting a little after it
    // samples its counter (the report itself, retries, final acks) and
    // the OS may shed a datagram under load, hence a tolerance rather
    // than equality.
    if reported_tx > 0 {
        let accounted = stats.net_rx_packets + stats.net_recv_dropped;
        let tolerance = 50 + reported_tx / 10;
        if accounted.abs_diff(reported_tx) > tolerance {
            failures.push(format!(
                "socket counters inconsistent: rx {} + dropped {} = {accounted}, \
                 child reported tx {reported_tx} (tolerance {tolerance})",
                stats.net_rx_packets, stats.net_recv_dropped
            ));
        }
    }
    if stats.naks_sent == 0 {
        failures.push("no NAKs sent — repair path not exercised".into());
    }
    if stats.acks_sent == 0 {
        failures.push("no guaranteed acks sent".into());
    }

    if failures.is_empty() {
        println!("PASS: cross-process UDP smoke");
        exit(0);
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    exit(1);
}

fn child(parent_addr: SocketAddr) {
    let bus = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(smoke_cfg())
            .with_app("smoke-pub"),
    )
    .expect("bind child");
    bus.add_peer(1, parent_addr).expect("add parent peer");
    let (_ctl_sub, ctl_rx) = bus.subscribe("smoke.ctl.>").expect("subscribe ctl");

    // Paced, not flooded: on a single-CPU box an unbroken burst
    // overruns the parent's socket buffer while its process is
    // descheduled, and those kernel drops are invisible to both ends'
    // counters — which would void the parent's tx/rx/drop consistency
    // check. NAK repair would still recover the data; the pacing keeps
    // the counters honest.
    for i in 0..RELIABLE_COUNT {
        bus.publish("smoke.data.tick", &Value::I64(i), QoS::Reliable)
            .expect("publish data");
        if i % 20 == 19 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for i in 0..GUARANTEED_COUNT {
        bus.publish("smoke.gd.order", &Value::I64(i), QoS::Guaranteed)
            .expect("publish gd");
        if i % 20 == 19 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // Stay alive serving NAK retransmissions and guaranteed retries
    // until the parent signals it has received everything and the
    // guaranteed ledger has drained (every envelope acked).
    let end = Instant::now() + DEADLINE;
    let mut released = false;
    let mut reported_tx = false;
    loop {
        if Instant::now() >= end {
            eprintln!(
                "child: never released (gd_pending={}, released={released})",
                bus.stats().gd_pending
            );
            exit(1);
        }
        released = released || ctl_rx.recv_timeout(Duration::from_millis(10)).is_ok();
        if released && bus.stats().gd_pending == 0 {
            if !reported_tx {
                // Everything above is acked: sample how many datagrams
                // this side sent and report it, guaranteed so the
                // parent's injected loss cannot swallow it. The parent
                // checks rx + dropped against this figure.
                let tx = bus.stats().net_tx_packets;
                bus.publish("smoke.stats.tx", &Value::I64(tx as i64), QoS::Guaranteed)
                    .expect("publish stats");
                reported_tx = true;
                continue; // wait for the report itself to be acked
            }
            exit(0);
        }
    }
}
