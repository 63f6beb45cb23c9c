//! Cross-process crash drill for durable guaranteed delivery.
//!
//! The parent binds a subscriber daemon with 20% seeded inbound loss,
//! spawns a publishing child against a write-ahead-ledger directory,
//! SIGKILLs it mid-stream once a seeded number of values has arrived,
//! drains to quiescence, and restarts the child over the *same* ledger.
//! The restarted child replays its recovered entries and exits only once
//! every one of them has been acknowledged.
//!
//! Assertions (exit code 0 means all held):
//! * the restarted child recovers a non-empty ledger;
//! * every recovered entry is redelivered **exactly once** after the
//!   restart (at-least-once holds *across* the kill — an entry delivered
//!   but not yet acknowledged before the SIGKILL legitimately arrives
//!   again — so exactly-once is asserted over the post-restart window,
//!   where acknowledgment turnaround is far shorter than a retry round);
//! * the union of pre-kill and post-restart deliveries is a gapless
//!   prefix of the published stream: nothing durably logged is lost;
//! * loss injection and the SIGKILL both actually fired.
//!
//! Data subjects cycle four streams through the one ledger.
//! `INFOBUS_KILL_AFTER` (default 40) is the seeded kill offset. CI runs
//! this under a timeout.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use infobus_core::{BusConfig, BusReceiver, QoS};
use infobus_net::{UdpBus, UdpConfig};
use infobus_types::Value;
use infobus_wal::scratch::ScratchDir;

const DEADLINE: Duration = Duration::from_secs(60);
/// Child-side hard cap on the published stream: the parent is expected
/// to SIGKILL long before this.
const STREAM_CAP: i64 = 100_000;
/// Data subjects cycle these four streams.
const FAMILIES: [&str; 4] = ["gda", "gdb", "gdc", "gdd"];

fn subject_of(i: i64) -> String {
    format!("{}.stream", FAMILIES[(i % 4) as usize])
}

fn smoke_cfg(ledger: &Path) -> BusConfig {
    BusConfig::default()
        .with_batch_enabled(false)
        .with_nak_delay_us(5_000)
        .with_nak_check_us(2_000)
        .with_sync_period_us(25_000)
        .with_gd_retry_us(25_000)
        .with_announce_period_us(25_000)
        .with_retain_per_stream(4096)
        .with_durable_dir(ledger)
}

fn kill_after() -> usize {
    std::env::var("INFOBUS_KILL_AFTER")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => parent(),
        Some(mode @ ("child" | "resume")) => {
            let addr: SocketAddr = args[2].parse().expect("parent address");
            let ledger = PathBuf::from(&args[3]);
            child(mode == "resume", addr, &ledger);
        }
        Some(other) => {
            eprintln!("usage: durable_smoke [child|resume <parent-addr> <ledger-dir>]");
            eprintln!("unexpected argument: {other}");
            exit(2);
        }
    }
}

/// Polls every data receiver once; returns any delivered stream index.
fn poll_indices(rxs: &[BusReceiver], wait: Duration) -> Vec<i64> {
    let mut got = Vec::new();
    // One blocking wait spread over the receivers, then opportunistic
    // sweeps: plenty for a smoke loop.
    let per = wait / rxs.len() as u32;
    for rx in rxs {
        if let Ok(msg) = rx.recv_timeout(per) {
            if let Value::I64(i) = msg.value().expect("unmarshal") {
                got.push(i);
            }
        }
        while let Ok(msg) = rx.try_recv() {
            if let Value::I64(i) = msg.value().expect("unmarshal") {
                got.push(i);
            }
        }
    }
    got
}

fn parent() {
    // The ledger directory outlives the child's death; the drill runs
    // in an inner function so the scratch directory is dropped (and
    // removed) before `exit` skips destructors.
    let scratch = ScratchDir::new("durable-smoke");
    let failures = run_drill(scratch.path());
    drop(scratch);
    if failures.is_empty() {
        println!("PASS: durable guaranteed delivery survived SIGKILL");
        exit(0);
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    exit(1);
}

fn run_drill(ledger: &Path) -> Vec<String> {
    // The parent daemon itself is not durable — only the publisher is
    // under test — so its config carries no ledger directory of its own.
    let parent_dir = ledger.join("parent");
    let bus = UdpBus::bind(
        UdpConfig::new(1)
            .with_bus(smoke_cfg(&parent_dir))
            .with_app("durable-sub")
            .with_recv_loss(0.20, 11),
    )
    .expect("bind parent");
    let data_rxs: Vec<BusReceiver> = FAMILIES
        .iter()
        .map(|f| bus.subscribe(&format!("{f}.>")).expect("subscribe data").1)
        .collect();
    let (_rep_sub, rep_rx) = bus.subscribe("rep.>").expect("subscribe report");

    let exe = std::env::current_exe().expect("current exe");
    let child_dir = ledger.join("publisher");
    let spawn = |mode: &str| {
        Command::new(&exe)
            .arg(mode)
            .arg(bus.local_addr().to_string())
            .arg(&child_dir)
            .spawn()
            .expect("spawn child")
    };

    let end = Instant::now() + DEADLINE;
    let mut failures = Vec::new();

    // Phase 1: let the child publish until the seeded offset arrives,
    // then SIGKILL it mid-stream.
    let mut child = spawn("child");
    let mut pre: Vec<i64> = Vec::new();
    let offset = kill_after();
    while pre.len() < offset {
        if Instant::now() >= end {
            let _ = child.kill();
            let _ = child.wait();
            return vec![format!(
                "only {}/{offset} values before deadline",
                pre.len()
            )];
        }
        pre.extend(poll_indices(&data_rxs, Duration::from_millis(200)));
    }
    child.kill().expect("SIGKILL child");
    let status = child.wait().expect("wait killed child");
    if status.success() {
        failures.push("child exited cleanly instead of dying by signal".into());
    }

    // Phase 2: drain to quiescence. With the publisher dead nothing new
    // can arrive once the socket buffer empties; everything drained here
    // is a pre-kill delivery.
    loop {
        let got = poll_indices(&data_rxs, Duration::from_millis(400));
        if got.is_empty() {
            break;
        }
        pre.extend(got);
    }

    // Phase 3: restart over the same ledger; collect the replay.
    let mut child = spawn("resume");
    let mut post: Vec<i64> = Vec::new();
    let recovered = loop {
        if Instant::now() >= end {
            failures.push("restarted child never reported".into());
            break 0;
        }
        post.extend(poll_indices(&data_rxs, Duration::from_millis(100)));
        if let Ok(msg) = rep_rx.try_recv() {
            match msg.value().expect("unmarshal report") {
                Value::I64(r) => break r as usize,
                other => {
                    failures.push(format!("bad recovery report: {other:?}"));
                    break 0;
                }
            }
        }
    };
    let status = child.wait().expect("wait resumed child");
    if !status.success() {
        failures.push(format!("restarted child failed: {status}"));
    }
    // Late stragglers between the report and process exit.
    loop {
        let got = poll_indices(&data_rxs, Duration::from_millis(400));
        if got.is_empty() {
            break;
        }
        post.extend(got);
    }

    // The drill only proves something if the kill left work behind.
    if recovered == 0 {
        failures.push("restarted child recovered an empty ledger".into());
    }

    // Exactly-once over the post-restart window.
    let mut post_sorted = post.clone();
    post_sorted.sort_unstable();
    let post_distinct = {
        let mut d = post_sorted.clone();
        d.dedup();
        d
    };
    if post_distinct.len() != post.len() {
        failures.push(format!(
            "duplicate post-restart deliveries: {} deliveries of {} distinct values",
            post.len(),
            post_distinct.len()
        ));
    }
    if post_distinct.len() != recovered {
        failures.push(format!(
            "incomplete replay: {} distinct post-restart deliveries, ledger held {recovered}",
            post_distinct.len()
        ));
    }

    // Loss-free overall: the union of both windows is a gapless prefix.
    let mut union: Vec<i64> = pre.iter().chain(post.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    let max = union.last().copied().unwrap_or(-1);
    if union.len() as i64 != max + 1 {
        let missing: Vec<i64> = (0..=max)
            .filter(|i| union.binary_search(i).is_err())
            .collect();
        failures.push(format!("stream has gaps: missing {missing:?} of 0..={max}"));
    }

    let stats = bus.stats();
    println!(
        "parent: pre={} post={} recovered={recovered} max={max} rx={} dropped={} naks_sent={}",
        pre.len(),
        post.len(),
        stats.net_rx_packets,
        stats.net_recv_dropped,
        stats.naks_sent,
    );
    if stats.net_recv_dropped == 0 {
        failures.push("loss injection never fired".into());
    }
    failures
}

fn child(resume: bool, parent_addr: SocketAddr, ledger: &Path) {
    // The parent must be a *static* peer, known before bind: the
    // bind-time `SubResync` broadcast is what makes the parent
    // re-announce its subscriptions, and replayed entries are only
    // retransmitted toward announced interest.
    let bus = UdpBus::bind(
        UdpConfig::new(2)
            .with_bus(smoke_cfg(ledger))
            .with_app("durable-pub")
            .with_peer(1, parent_addr),
    )
    .expect("bind child");

    if !resume {
        // Publish a paced unbounded guaranteed stream; the parent
        // SIGKILLs this process mid-stream, so the loop never finishes.
        for i in 0..STREAM_CAP {
            bus.publish(&subject_of(i), &Value::I64(i), QoS::Guaranteed)
                .expect("publish gd");
            std::thread::sleep(Duration::from_millis(2));
        }
        eprintln!("child: published the entire cap without being killed");
        exit(1);
    }

    // Resume: the bind above already replayed the ledger into the
    // engine. Wait for every recovered entry to be acknowledged, report
    // how many there were, then exit once the report itself is acked.
    // `gd_pending` sampled here is the live recovered-entry count — the
    // first retry round is still a full period away. (The frame-level
    // `gd_ledger_recovered` counter also includes replayed tombstones.)
    let recovered = bus.stats().gd_pending;
    let end = Instant::now() + DEADLINE;
    let mut reported = false;
    loop {
        if Instant::now() >= end {
            eprintln!(
                "resume: replay never drained (gd_pending={}, recovered={recovered})",
                bus.stats().gd_pending
            );
            exit(1);
        }
        if bus.stats().gd_pending == 0 {
            if !reported {
                bus.publish("rep.done", &Value::I64(recovered as i64), QoS::Guaranteed)
                    .expect("publish report");
                reported = true;
                continue; // wait for the report's own acknowledgment
            }
            exit(0);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
