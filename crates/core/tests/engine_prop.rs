//! Property tests of the sans-I/O protocol engine.
//!
//! These tests drive [`infobus_core::engine::Engine`] instances directly —
//! no simulator, no daemon, no threads. A tiny adversarial "channel"
//! built on [`infobus_netsim::SimRng`] injects loss, duplication, and
//! reordering between a publisher engine and a receiver engine, then the
//! repair machinery (digests, NAK scans, retransmissions) runs as plain
//! function calls. Across many seeds the reliable layer must still
//! deliver every message exactly once, in publication order per sender.

use std::collections::HashMap;

use infobus_core::engine::{Action, Engine, Event, Micros, PubSource};
use infobus_core::msg::Packet;
use infobus_core::{BusConfig, Bytes, Envelope, EnvelopeKind, QoS};
use infobus_netsim::SimRng;

const SUBJECT: &str = "prop.stream";

/// Collects the envelopes of every `Broadcast(Data)` action.
fn broadcast_envelopes(actions: &[Action]) -> Vec<Envelope> {
    let mut out = Vec::new();
    for a in actions {
        if let Action::Broadcast(Packet::Data { envelopes, .. }) = a {
            out.extend(envelopes.iter().cloned());
        }
    }
    out
}

/// Collects the `Deliver` payload sequence numbers of a batch of actions.
fn delivered(actions: &[Action]) -> Vec<Envelope> {
    let mut out = Vec::new();
    for a in actions {
        if let Action::Deliver(env) = a {
            out.push(env.clone());
        }
    }
    out
}

/// Collects `Unicast(Nak)` packets addressed to anyone.
fn naks(actions: &[Action]) -> Vec<Packet> {
    let mut out = Vec::new();
    for a in actions {
        if let Action::Unicast { packet, .. } = a {
            if matches!(packet, Packet::Nak { .. }) {
                out.push(packet.clone());
            }
        }
    }
    out
}

/// Publishes `n` reliable messages from `publisher`, returning the wire
/// envelopes in transmission order.
fn publish_n(publisher: &mut Engine, n: u64, now: &mut Micros) -> Vec<Envelope> {
    let source = PubSource {
        app: "prop".into(),
        inc: 1,
        route: None,
    };
    let subject = publisher.table().intern(SUBJECT).unwrap();
    let mut wire = Vec::new();
    for i in 0..n {
        *now += 10;
        let actions = publisher.handle(
            *now,
            Event::Publish {
                source: source.clone(),
                subject: subject.clone(),
                qos: QoS::Reliable,
                kind: EnvelopeKind::Data,
                corr: 0,
                payload: Bytes::from_vec(vec![(i & 0xff) as u8]),
            },
        );
        wire.extend(broadcast_envelopes(&actions));
    }
    wire
}

/// An adversarial channel: drops, duplicates, and reorders envelopes
/// under the control of a deterministic RNG.
fn mangle(rng: &mut SimRng, wire: Vec<Envelope>, loss: f64, dup: f64) -> Vec<Envelope> {
    let mut out = Vec::new();
    for env in wire {
        if rng.gen_f64() < loss {
            continue; // lost on the segment
        }
        if rng.gen_f64() < dup {
            out.push(env.clone()); // duplicated by the network
        }
        out.push(env);
    }
    // Bounded reordering: random adjacent-window swaps.
    if out.len() >= 2 {
        for _ in 0..out.len() {
            let i = rng.gen_range_inclusive(0, out.len() as u64 - 2) as usize;
            if rng.gen_f64() < 0.5 {
                out.swap(i, i + 1);
            }
        }
    }
    out
}

/// Feeds envelopes into the receiver, returning what it released to the
/// application layer (in order).
fn receive_all(receiver: &mut Engine, envs: Vec<Envelope>, now: &mut Micros) -> Vec<Envelope> {
    let mut got = Vec::new();
    for env in envs {
        *now += 10;
        let actions = receiver.handle(
            *now,
            Event::Envelope {
                env,
                entitled: true,
            },
        );
        got.extend(delivered(&actions));
    }
    got
}

/// One full repair cycle: the publisher broadcasts idle-stream digests,
/// the receiver scans for aged gaps and NAKs, the publisher retransmits,
/// and the receiver absorbs the repairs. Returns the newly released
/// envelopes.
fn repair_round(publisher: &mut Engine, receiver: &mut Engine, now: &mut Micros) -> Vec<Envelope> {
    let cfg_sync = publisher.config().sync_period_us;
    let cfg_nak = receiver.config().nak_delay_us;
    let mut released = Vec::new();

    // Publisher side: idle-stream digest so the receiver learns the top
    // sequence number even if the tail was lost.
    *now += cfg_sync + 1;
    let digest_actions =
        publisher.handle(*now, Event::Timer(infobus_core::engine::TimerKind::Sync));
    for a in &digest_actions {
        if let Action::Broadcast(Packet::SeqSync { entries }) = a {
            for e in entries {
                let actions = receiver.handle(
                    *now,
                    Event::Digest {
                        entry: e.clone(),
                        sub_at: Some(0),
                    },
                );
                released.extend(delivered(&actions));
            }
        }
    }

    // Receiver side: let the gap age past the NAK delay, then scan.
    *now += cfg_nak + 1;
    let scan = receiver.handle(*now, Event::Timer(infobus_core::engine::TimerKind::NakScan));
    released.extend(delivered(&scan));
    for nak in naks(&scan) {
        let Packet::Nak {
            stream,
            subject,
            requester,
            missing,
        } = nak
        else {
            continue;
        };
        *now += 10;
        let repair = publisher.handle(
            *now,
            Event::Nak {
                stream,
                subject,
                requester,
                missing,
            },
        );
        // The publisher answers a NAK with retransmissions for whatever is
        // still retained and a gap-skip for anything that has aged out.
        for a in &repair {
            if let Action::Unicast {
                packet:
                    Packet::GapSkip {
                        stream,
                        subject,
                        through,
                    },
                ..
            } = a
            {
                *now += 10;
                let actions = receiver.handle(
                    *now,
                    Event::GapSkip {
                        stream: stream.clone(),
                        subject: subject.clone(),
                        through: *through,
                    },
                );
                released.extend(delivered(&actions));
            }
        }
        let retrans = broadcast_envelopes(&repair);
        released.extend(receive_all(receiver, retrans, now));
    }
    released
}

/// Asserts the delivered stream is exactly `1..=n` in order with no
/// duplicates (exactly-once, sender-ordered).
fn assert_in_order_exactly_once(got: &[Envelope], n: u64) {
    let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
    let expect: Vec<u64> = (1..=n).collect();
    assert_eq!(
        seqs, expect,
        "delivered sequence numbers must be 1..={n} in order"
    );
    for (i, env) in got.iter().enumerate() {
        assert_eq!(env.payload, vec![((i as u64) & 0xff) as u8]);
        assert_eq!(env.subject, SUBJECT);
    }
}

#[test]
fn lossless_channel_delivers_in_order() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut publisher = Engine::new(BusConfig::default(), 1);
        let mut receiver = Engine::new(BusConfig::default(), 2);
        let mut now: Micros = 0;
        let n = 1 + rng.gen_range_inclusive(1, 200);
        let wire = publish_n(&mut publisher, n, &mut now);
        assert_eq!(wire.len() as u64, n);
        let got = receive_all(&mut receiver, wire, &mut now);
        assert_in_order_exactly_once(&got, n);
        assert_eq!(receiver.stats.dups_dropped, 0);
        assert_eq!(receiver.stats.naks_sent, 0);
    }
}

#[test]
fn duplicates_are_dropped() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(1000 + seed);
        let mut publisher = Engine::new(BusConfig::default(), 1);
        let mut receiver = Engine::new(BusConfig::default(), 2);
        let mut now: Micros = 0;
        let n = 1 + rng.gen_range_inclusive(1, 100);
        let wire = publish_n(&mut publisher, n, &mut now);
        // Duplicate aggressively, no loss, no reorder: every envelope
        // arrives at least once and in order.
        let mut mangled = Vec::new();
        for env in wire {
            mangled.push(env.clone());
            if rng.gen_f64() < 0.5 {
                mangled.push(env);
            }
        }
        let extra = mangled.len() as u64 - n;
        let got = receive_all(&mut receiver, mangled, &mut now);
        assert_in_order_exactly_once(&got, n);
        assert_eq!(receiver.stats.dups_dropped, extra);
    }
}

#[test]
fn loss_dup_reorder_repaired_by_naks() {
    let mut total_retrans = 0u64;
    for seed in 0..40u64 {
        let mut rng = SimRng::seed_from_u64(7_000_000 + seed);
        let mut publisher = Engine::new(BusConfig::default(), 1);
        let mut receiver = Engine::new(BusConfig::default(), 2);
        let mut now: Micros = 0;
        let n = 20 + rng.gen_range_inclusive(1, 180);
        let wire = publish_n(&mut publisher, n, &mut now);
        let mangled = mangle(&mut rng, wire, 0.15, 0.10);
        let mut got = receive_all(&mut receiver, mangled, &mut now);
        // Repair until quiescent (a few rounds always suffice: every NAK
        // round repairs at least one hole from the retained window).
        for _ in 0..64 {
            if got.len() as u64 == n {
                break;
            }
            got.extend(repair_round(&mut publisher, &mut receiver, &mut now));
        }
        assert_in_order_exactly_once(&got, n);
        total_retrans += publisher.stats.retransmitted;
    }
    assert!(
        total_retrans > 0,
        "across 40 lossy seeds some retransmissions must have happened"
    );
}

#[test]
fn per_sender_order_holds_with_interleaved_streams() {
    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from_u64(31_337 + seed);
        let cfg = BusConfig::default;
        let mut pub_a = Engine::new(cfg(), 1);
        let mut pub_b = Engine::new(cfg(), 2);
        let mut receiver = Engine::new(cfg(), 3);
        let mut now: Micros = 0;
        let n = 50;
        let wire_a = publish_n(&mut pub_a, n, &mut now);
        let wire_b = publish_n(&mut pub_b, n, &mut now);
        // Interleave the two senders' traffic randomly (inter-sender
        // order is unconstrained; intra-sender order must survive).
        let mut merged = Vec::new();
        let (mut ia, mut ib) = (0usize, 0usize);
        while ia < wire_a.len() || ib < wire_b.len() {
            let take_a = ib >= wire_b.len() || (ia < wire_a.len() && rng.gen_f64() < 0.5);
            if take_a {
                merged.push(wire_a[ia].clone());
                ia += 1;
            } else {
                merged.push(wire_b[ib].clone());
                ib += 1;
            }
        }
        let got = receive_all(&mut receiver, merged, &mut now);
        assert_eq!(got.len() as u64, 2 * n);
        let mut per_sender: HashMap<u32, Vec<u64>> = HashMap::new();
        for env in &got {
            per_sender.entry(env.stream.host).or_default().push(env.seq);
        }
        for (host, seqs) in per_sender {
            let expect: Vec<u64> = (1..=n).collect();
            assert_eq!(seqs, expect, "sender {host} must deliver in order");
        }
    }
}

#[test]
fn gap_skip_abandons_unretained_history() {
    // Retain only 8 envelopes, lose the first 50 of 64: the NAK cannot be
    // served from the window, so the publisher answers with a gap-skip
    // and the receiver moves on (at-most-once across deep loss).
    let cfg = BusConfig::default().with_retain_per_stream(8);
    let mut publisher = Engine::new(cfg.clone(), 1);
    let mut receiver = Engine::new(cfg, 2);
    let mut now: Micros = 0;
    let n = 64u64;
    let wire = publish_n(&mut publisher, n, &mut now);
    // Only the last 8 arrive.
    let tail: Vec<Envelope> = wire.into_iter().skip(56).collect();
    let mut got = receive_all(&mut receiver, tail, &mut now);
    for _ in 0..8 {
        if got.len() == 8 {
            break;
        }
        got.extend(repair_round(&mut publisher, &mut receiver, &mut now));
    }
    let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (57..=64).collect::<Vec<u64>>());
    assert!(receiver.stats.gaps_skipped > 0);
    assert!(publisher.stats.gapskips_sent > 0);
}

// ---------------------------------------------------------------------------
// Guaranteed delivery across a publisher crash/restart
// ---------------------------------------------------------------------------

/// Applies a batch's `Persist`/`Unpersist` actions to a fake
/// non-volatile store, as a driver would.
fn apply_ledger(ledger: &mut std::collections::BTreeMap<String, Vec<u8>>, actions: &[Action]) {
    for a in actions {
        match a {
            Action::Persist { key, bytes } => {
                ledger.insert(key.clone(), bytes.clone());
            }
            Action::Unpersist { key } => {
                ledger.remove(key);
            }
            _ => {}
        }
    }
}

/// Collects the receiver's `Unicast(Ack)` packets.
fn acks(actions: &[Action]) -> Vec<Packet> {
    let mut out = Vec::new();
    for a in actions {
        if let Action::Unicast { packet, .. } = a {
            if matches!(packet, Packet::Ack { .. }) {
                out.push(packet.clone());
            }
        }
    }
    out
}

#[test]
fn publisher_crash_restart_redrives_guaranteed_ledger() {
    // A publisher sends guaranteed messages, crashes mid-stream before
    // seeing any acknowledgment, and restarts from its non-volatile
    // ledger (`gd_load`). Retry rounds must then redrive every unacked
    // envelope until the interested receiver has acknowledged all of
    // them — at-least-once across the crash, with the ledger draining
    // to empty.
    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from_u64(77_000 + seed);
        let cfg = BusConfig::default;
        let mut publisher = Engine::new(cfg(), 1);
        let mut receiver = Engine::new(cfg(), 2);
        let mut ledger = std::collections::BTreeMap::new();
        let mut now: Micros = 0;
        let source = PubSource {
            app: "prop".into(),
            inc: 1,
            route: None,
        };
        let subject = publisher.table().intern(SUBJECT).unwrap();

        let n = 3 + rng.gen_range_inclusive(0, 17);
        let mut wire = Vec::new();
        for i in 0..n {
            now += 10;
            let actions = publisher.handle(
                now,
                Event::Publish {
                    source: source.clone(),
                    subject: subject.clone(),
                    qos: QoS::Guaranteed,
                    kind: EnvelopeKind::Data,
                    corr: 0,
                    payload: Bytes::from_vec(vec![(i & 0xff) as u8]),
                },
            );
            apply_ledger(&mut ledger, &actions);
            wire.extend(broadcast_envelopes(&actions));
        }
        assert_eq!(ledger.len() as u64, n, "persist-before-send must log all");

        // A random prefix reaches the receiver before the crash; the
        // receiver's acks are lost with the crashing publisher.
        let k = rng.gen_range_inclusive(0, n) as usize;
        let prefix: Vec<Envelope> = wire[..k].to_vec();
        let mut seen: Vec<Vec<u8>> = receive_all(&mut receiver, prefix, &mut now)
            .into_iter()
            .map(|e| e.payload.to_vec())
            .collect();

        // Crash: the engine is dropped; only the ledger survives.
        drop(publisher);
        let mut restarted = Engine::new(cfg(), 1);
        let table = restarted.table().clone();
        let recovered: Vec<Envelope> = ledger
            .values()
            .map(|bytes| {
                Envelope::decode(&mut bytes.as_slice(), &table).expect("ledger entry decodes")
            })
            .collect();
        let load_actions = restarted.gd_load(recovered);
        assert!(
            load_actions
                .iter()
                .any(|a| matches!(a, Action::SetTimer { .. })),
            "reload with pending entries must re-arm the retry timer"
        );
        assert_eq!(restarted.stats.gd_pending, n);

        // Retry rounds: redeliveries go out flagged, the receiver acks,
        // completion unpersists. Bounded so a regression fails fast.
        let interest: HashMap<String, Vec<u32>> = HashMap::from([(SUBJECT.to_owned(), vec![2u32])]);
        for _round in 0..6 {
            now += restarted.config().gd_retry_us + 1;
            let actions = restarted.handle(
                now,
                Event::GdRetry {
                    interest: interest.clone(),
                },
            );
            apply_ledger(&mut ledger, &actions);
            let redelivered = broadcast_envelopes(&actions);
            for env in &redelivered {
                assert!(env.redelivery, "post-restart copies must be flagged");
            }
            for env in redelivered {
                now += 10;
                let r_actions = receiver.handle(
                    now,
                    Event::Envelope {
                        env,
                        entitled: true,
                    },
                );
                seen.extend(
                    delivered(&r_actions)
                        .into_iter()
                        .map(|e| e.payload.to_vec()),
                );
                for ack in acks(&r_actions) {
                    let Packet::Ack {
                        stream,
                        subject,
                        seq,
                        from_host,
                    } = ack
                    else {
                        continue;
                    };
                    now += 10;
                    let a = restarted.handle(
                        now,
                        Event::Ack {
                            stream,
                            subject,
                            seq,
                            from_host,
                        },
                    );
                    apply_ledger(&mut ledger, &a);
                }
            }
            if restarted.stats.gd_pending == 0 {
                break;
            }
        }
        assert_eq!(restarted.stats.gd_pending, 0, "ledger never drained");
        assert!(ledger.is_empty(), "completed entries must be unpersisted");
        // At-least-once across the crash: every payload seen (duplicates
        // for the pre-crash prefix are permitted and flagged).
        for i in 0..n {
            let payload = vec![(i & 0xff) as u8];
            assert!(
                seen.contains(&payload),
                "payload {i} lost across crash/restart (seed {seed})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial digest / NAK interleavings
// ---------------------------------------------------------------------------

#[test]
fn adversarial_digests_and_naks_do_not_corrupt_state() {
    // Interleave real traffic with hostile control packets: digests for
    // unknown streams, stale digests, digests claiming a *lower* top
    // sequence than already seen, NAKs for sequences never published or
    // far in the future, duplicate NAKs, and gap-skips for
    // already-delivered ranges. None of it may panic, deliver out of
    // order, or duplicate a delivery; afterwards normal repair must
    // still converge.
    use infobus_core::msg::SyncEntry;
    use infobus_core::StreamKey;

    for seed in 0..15u64 {
        let mut rng = SimRng::seed_from_u64(88_000 + seed);
        let cfg = BusConfig::default;
        let mut publisher = Engine::new(cfg(), 1);
        let mut receiver = Engine::new(cfg(), 2);
        let mut now: Micros = 0;
        let n = 40 + rng.gen_range_inclusive(0, 60);
        let wire = publish_n(&mut publisher, n, &mut now);
        let real_stream = wire[0].stream.clone();
        let stream_start = wire[0].stream_start;
        let phantom_stream = StreamKey {
            host: 9,
            app: "ghost".into(),
            inc: 3,
        };
        let real_subject = receiver.table().intern(SUBJECT).unwrap();
        let ghost_subject = receiver.table().intern("ghost.subject").unwrap();

        let mangled = mangle(&mut rng, wire, 0.2, 0.2);
        let mut got = Vec::new();
        for env in mangled {
            now += 10;
            got.extend(delivered(&receiver.handle(
                now,
                Event::Envelope {
                    env,
                    entitled: true,
                },
            )));

            // Hostile interleavings between data packets.
            match rng.gen_range_inclusive(0, 5) {
                0 => {
                    // Digest for a stream nobody publishes.
                    let entry = SyncEntry {
                        stream: phantom_stream.clone(),
                        subject: ghost_subject.clone(),
                        top_seq: rng.gen_range_inclusive(1, 1000),
                        stream_start: now,
                    };
                    let sub_at = if rng.gen_f64() < 0.5 { Some(0) } else { None };
                    receiver.handle(now, Event::Digest { entry, sub_at });
                }
                1 => {
                    // Stale digest: lower top_seq than already observed.
                    let entry = SyncEntry {
                        stream: real_stream.clone(),
                        subject: real_subject.clone(),
                        top_seq: 1,
                        stream_start,
                    };
                    receiver.handle(
                        now,
                        Event::Digest {
                            entry,
                            sub_at: Some(0),
                        },
                    );
                }
                2 => {
                    // NAK at the publisher for never-published sequences.
                    publisher.handle(
                        now,
                        Event::Nak {
                            stream: real_stream.clone(),
                            subject: real_subject.clone(),
                            requester: 2,
                            missing: vec![n + 50, n + 51, u64::MAX],
                        },
                    );
                }
                3 => {
                    // NAK for a stream this publisher never owned.
                    publisher.handle(
                        now,
                        Event::Nak {
                            stream: phantom_stream.clone(),
                            subject: ghost_subject.clone(),
                            requester: 2,
                            missing: vec![1, 2, 3],
                        },
                    );
                }
                4 => {
                    // Gap-skip for ground already covered: must not
                    // rewind (it may legitimately drain the holdback of
                    // envelopes that were already deliverable).
                    let actions = receiver.handle(
                        now,
                        Event::GapSkip {
                            stream: real_stream.clone(),
                            subject: real_subject.clone(),
                            through: 0,
                        },
                    );
                    got.extend(delivered(&actions));
                }
                5 => {
                    // Gap-skip with a hostile `u64::MAX` bound on the
                    // phantom stream: must saturate, not overflow, and
                    // must leave the real stream untouched.
                    receiver.handle(
                        now,
                        Event::GapSkip {
                            stream: phantom_stream.clone(),
                            subject: ghost_subject.clone(),
                            through: u64::MAX,
                        },
                    );
                }
                _ => unreachable!(),
            }
        }

        // Normal repair still converges after the abuse (one hole per
        // scan round, so allow as many rounds as the sibling loss test).
        for _ in 0..64 {
            if got.len() as u64 == n {
                break;
            }
            got.extend(repair_round(&mut publisher, &mut receiver, &mut now));
        }
        assert_in_order_exactly_once(&got, n);
    }
}
