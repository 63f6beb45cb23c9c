//! The stage chain: one publish rebuilt stage by stage from public
//! functions, each timed from outside over [`BATCHES`] batches, median
//! ns per call, with the workload's own message where the stage carries
//! one. Spans inside the drivers are a later issue; these numbers say
//! what each layer costs when called alone.

use std::hint::black_box;
use std::net::UdpSocket;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use infobus_core::engine::filter::interest_accepts;
use infobus_core::engine::{Engine, Event, PubSource};
use infobus_core::msg::Packet;
use infobus_core::queue::sub_queue;
use infobus_core::{
    BufPool, BusConfig, Bytes, CompiledPredicate, Delivery, Envelope, EnvelopeKind, FsyncPolicy,
    NvStore, Predicate, QoS,
};
use infobus_edge::{
    decode_session_frame, encode_session_frame, ConnId, SessionBroker, SessionFrame, SESSION_PROTO,
};
use infobus_net::frame::{decode_frame, encode_frame};
use infobus_router::{
    CompiledRewrite, RewriteRule, RouterConfig, RouterEngine, RouterEvent, SubjectMap,
};
use infobus_subject::{Subject, SubjectFilter, SubjectTable, SubjectTrie};
use infobus_types::{wire, TypeRegistry, Value};
use infobus_wal::{LedgerOptions, WalLedger};

use crate::gen::{Generator, Kind, PX_ACCEPT};
use crate::summary;
use crate::topo::{ScratchDir, BACKGROUND_SUBS, FANOUT_SUBS, FILTERED_SUBS};

/// Batches per stage; the reported number is their median.
const BATCHES: usize = 9;
/// Calls per batch, for stages fast enough to fit [`BATCH_BUDGET`].
const BATCH_OPS: usize = 4_096;
/// Slow stages (a loopback round trip, a 512-predicate scan) shrink
/// their batches to about this long, never below [`MIN_OPS`] calls.
const BATCH_BUDGET: Duration = Duration::from_millis(10);
const MIN_OPS: usize = 64;
/// Sessions held by the broker stages.
const SESSIONS: usize = 10_000;
const SECTIONS: usize = 128;
const TOKEN: u64 = 7;

/// Median ns per call of `batch`, which runs `n` calls and returns the
/// time they took (so set-up and tear-down can stay outside the clock).
fn per_batch(mut batch: impl FnMut(usize) -> Duration) -> f64 {
    let probe_ns = batch(MIN_OPS).as_nanos() as f64 / MIN_OPS as f64;
    let n =
        ((BATCH_BUDGET.as_nanos() as f64 / probe_ns.max(1.0)) as usize).clamp(MIN_OPS, BATCH_OPS);
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| batch(n).as_nanos() as f64 / n as f64)
        .collect();
    summary::median(&mut samples)
}

/// Median ns per call of `op`.
fn per_op<R>(mut op: impl FnMut() -> R) -> f64 {
    per_batch(|n| {
        let t = Instant::now();
        for _ in 0..n {
            black_box(op());
        }
        t.elapsed()
    })
}

/// One filled value of `kind` with its registry and marshalled bytes.
struct Message {
    value: Value,
    registry: TypeRegistry,
    bytes: Vec<u8>,
}

impl Message {
    fn new(kind: Kind, seed: u64) -> Message {
        let mut gen = Generator::new(kind, 64, seed, None);
        let mut value = gen.template();
        let mut p = gen.next();
        // A price every `px >= PX_ACCEPT` predicate rejects.
        p.px = PX_ACCEPT / 2.0;
        gen.fill(&mut value, &p, 1);
        let mut registry = TypeRegistry::with_fundamentals();
        registry
            .register(kind.descriptor())
            .expect("register message type");
        let bytes = wire::marshal_self_describing(&value, &registry).expect("marshal");
        Message {
            value,
            registry,
            bytes,
        }
    }
}

/// Runs every stage; `kind` is the workload's own message.
pub fn run(kind: Kind, seed: u64, out_dir: &Path) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let quote = Message::new(Kind::Quote, seed);
    let story = Message::new(Kind::Story, seed);
    let own = if kind == Kind::Quote { &quote } else { &story };
    let subject_text = "quotes.nyse.s17";
    let table = SubjectTable::new();
    let subject = table.intern(subject_text).expect("subject");
    let payload = Bytes::from_vec(own.bytes.clone());

    // subject
    out.push((
        "subject.intern_ns",
        per_op(|| table.intern(subject_text).expect("subject")),
    ));
    let mut trie: SubjectTrie<usize> = SubjectTrie::new();
    for i in 0..BACKGROUND_SUBS {
        let f = SubjectFilter::new(&format!("other.s{i}.>")).expect("filter");
        trie.insert(&f, i);
    }
    for i in 0..FANOUT_SUBS {
        trie.insert(&SubjectFilter::new("quotes.nyse.*").expect("filter"), i);
    }
    let parsed = Subject::new(subject_text).expect("subject");
    out.push((
        "subject.trie_match_ns",
        per_op(|| trie.matches(&parsed).count()),
    ));
    let churn = SubjectFilter::new("other.s500.>").expect("filter");
    out.push((
        "subject.trie_insert_remove_ns",
        per_op(|| {
            let id = trie.insert(&churn, 0);
            trie.remove(id)
        }),
    ));

    // core.filter
    let pred = CompiledPredicate::compile(&Predicate::ge("px", PX_ACCEPT)).expect("compile");
    out.push(("core.filter.eval_ns", per_op(|| pred.eval(&quote.value))));
    let preds: Vec<CompiledPredicate> = (0..FILTERED_SUBS).map(|_| pred.clone()).collect();
    out.push((
        "core.filter.gate_scan_ns",
        per_op(|| {
            let mut evals = 0u64;
            interest_accepts(&quote.value, preds.iter().map(Some), &mut evals)
        }),
    ));

    // types
    let mut buf = Vec::with_capacity(2_048);
    for (name, m) in [
        ("types.marshal_quote_ns", &quote),
        ("types.marshal_story1k_ns", &story),
    ] {
        out.push((
            name,
            per_op(|| {
                buf.clear();
                wire::marshal_self_describing_into(&mut buf, &m.value, &m.registry)
                    .expect("marshal");
                buf.len()
            }),
        ));
    }
    for (name, m) in [
        ("types.unmarshal_quote_ns", &quote),
        ("types.unmarshal_story1k_ns", &story),
    ] {
        let mut registry = TypeRegistry::with_fundamentals();
        out.push((
            name,
            per_op(|| wire::unmarshal(&m.bytes, &mut registry).expect("unmarshal")),
        ));
    }

    // core.buf
    let pool = BufPool::with_slots(BusConfig::default().marshal_pool_slots());
    out.push(("core.buf.take_freeze_ns", per_op(|| pool.take().freeze())));

    // core.engine, publisher side
    let src = PubSource {
        app: "bench".into(),
        inc: 1,
        route: None,
    };
    let mut actions = Vec::new();
    let mut sequence = |cfg: BusConfig, qos: QoS| {
        let mut engine = Engine::new(cfg, 2);
        let mut now = 0u64;
        per_batch(|n| {
            let t = Instant::now();
            for _ in 0..n {
                now += 10;
                let env = engine.publish_into(
                    now,
                    &src,
                    &subject,
                    qos,
                    EnvelopeKind::Data,
                    0,
                    payload.clone(),
                    &mut actions,
                );
                engine.enqueue_into(&env, &mut actions);
                actions.clear();
            }
            let elapsed = t.elapsed();
            // Off the clock: release the guaranteed ledger, as the retry
            // round does once every interested daemon has acknowledged.
            engine.handle(
                now,
                Event::GdRetry {
                    interest: Default::default(),
                },
            );
            elapsed
        })
    };
    out.push((
        "core.engine.sequence_ns",
        sequence(BusConfig::default(), QoS::Reliable),
    ));
    out.push((
        "core.engine.sequence_gd_ns",
        sequence(BusConfig::default(), QoS::Guaranteed),
    ));
    out.push((
        "core.engine.batch_enqueue_ns",
        sequence(BusConfig::throughput(), QoS::Reliable),
    ));

    // core.engine, receiver side: envelopes arrive in order.
    let mut publisher = Engine::new(BusConfig::default(), 2);
    let mut receiver = Engine::new(BusConfig::default(), 1);
    let mut now = 0u64;
    let mut next_env = |publisher: &mut Engine| {
        now += 10;
        let mut sink = Vec::new();
        publisher.publish_into(
            now,
            &src,
            &subject,
            QoS::Reliable,
            EnvelopeKind::Data,
            0,
            payload.clone(),
            &mut sink,
        )
    };
    out.push((
        "core.engine.receive_ns",
        per_batch(|n| {
            let envs: Vec<Envelope> = (0..n).map(|_| next_env(&mut publisher)).collect();
            let t = Instant::now();
            for env in envs {
                actions.clear();
                receiver.handle_into(
                    1,
                    Event::Envelope {
                        env,
                        entitled: true,
                    },
                    &mut actions,
                );
            }
            t.elapsed()
        }),
    ));
    // NAK repair: a receiver asks for one retained envelope. Each NAK
    // is 25 ms after the last, past the retransmit-suppression window.
    let last = next_env(&mut publisher);
    let retained = BusConfig::default().retain_per_stream as u64;
    let mut nak_now = 1_000_000u64;
    let mut turn = 0u64;
    out.push((
        "core.engine.nak_repair_ns",
        per_op(|| {
            nak_now += 25_000;
            turn += 1;
            publisher.handle(
                nak_now,
                Event::Nak {
                    stream: last.stream.clone(),
                    subject: subject.clone(),
                    requester: 1,
                    missing: vec![last.seq - turn % retained],
                },
            )
        }),
    ));

    // net.frame
    let packet = Packet::Data {
        envelopes: vec![last.clone()],
        retrans: false,
    };
    let frame = encode_frame(2, &packet);
    out.push(("net.frame.encode_ns", per_op(|| encode_frame(2, &packet))));
    out.push((
        "net.frame.decode_ns",
        per_op(|| decode_frame(&frame, &table).expect("decode")),
    ));

    // os: the raw socket under the bus, same datagram size, no bus.
    let tx = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let rx = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let to = rx.local_addr().expect("addr");
    let mut datagram = vec![0u8; 64 * 1024];
    out.push((
        "os.udp_loopback_ns",
        per_op(|| {
            tx.send_to(&frame, to).expect("send_to");
            rx.recv_from(&mut datagram).expect("recv_from")
        }),
    ));

    // core.queue
    let (qtx, qrx) = sub_queue::<Delivery>(0, Arc::new(AtomicU64::new(0)));
    let delivery = Delivery {
        subject: subject.clone(),
        payload: payload.clone(),
        redelivery: false,
        qos: QoS::Reliable,
        route: None,
    };
    out.push((
        "core.queue.send_recv_ns",
        per_op(|| {
            qtx.send(delivery.clone()).expect("receiver alive");
            qrx.try_recv().expect("just sent")
        }),
    ));

    // wal + core.nvstore: 1 KB records, fsync never.
    let scratch = ScratchDir::new(out_dir, "stages");
    let record = &story.bytes;
    let mut ledger = WalLedger::open(
        scratch.path().join("wal"),
        LedgerOptions::default().with_fsync(FsyncPolicy::Never),
    )
    .expect("open ledger");
    let mut key_base = 0usize;
    let mut remove_samples = Vec::new();
    out.push((
        "wal.append_ns",
        per_batch(|n| {
            let keys: Vec<String> = (0..n).map(|i| format!("k/{:016x}", key_base + i)).collect();
            key_base += n;
            let t = Instant::now();
            for key in &keys {
                ledger.append(key, record).expect("append");
            }
            let elapsed = t.elapsed();
            let t = Instant::now();
            for key in &keys {
                ledger.remove(key).expect("remove");
            }
            remove_samples.push(t.elapsed().as_nanos() as f64 / n as f64);
            elapsed
        }),
    ));
    // The first pair of batches was the calibration probe.
    out.push(("wal.remove_ns", summary::median(&mut remove_samples[1..])));
    drop(ledger);
    let cfg = BusConfig::default()
        .with_durable_dir(scratch.path().join("nv"))
        .with_fsync(FsyncPolicy::Never);
    let mut nv = NvStore::open(&cfg).expect("open nvstore");
    out.push((
        "core.nvstore.persist_ns",
        per_batch(|n| {
            let keys: Vec<String> = (0..n).map(|i| format!("k/{:016x}", key_base + i)).collect();
            key_base += n;
            let t = Instant::now();
            for key in &keys {
                nv.persist(0, key, record);
            }
            let elapsed = t.elapsed();
            for key in &keys {
                nv.unpersist(0, key);
            }
            elapsed
        }),
    ));
    drop(nv);
    drop(scratch);

    // edge
    let deliver = SessionFrame::Deliver {
        cursor: 1,
        subject: subject_text.into(),
        redelivery: false,
        payload: own.bytes.clone(),
    };
    out.push((
        "edge.session.codec_ns",
        per_op(|| decode_session_frame(&encode_session_frame(&deliver)).expect("decode")),
    ));
    // Sessions never acknowledge here, so the lag ceiling is out of reach.
    let mut broker = SessionBroker::new(
        &BusConfig::default().with_session_cursor_lag(u64::MAX / 8),
        TOKEN,
    );
    let join = |broker: &mut SessionBroker, conn: u64| {
        let hello = SessionFrame::Hello {
            proto: SESSION_PROTO.into(),
            token: TOKEN,
            client: format!("seat-{conn}"),
        };
        broker.handle_frame(0, ConnId(conn), hello);
        let subscribe = SessionFrame::Subscribe {
            sub: 1,
            filter: format!("stadium.s{}.>", conn as usize % SECTIONS),
            pred: vec![],
        };
        broker.handle_frame(0, ConnId(conn), subscribe);
    };
    for conn in 0..SESSIONS as u64 {
        join(&mut broker, conn);
    }
    let section_text = "stadium.s17.px";
    let section = Subject::new(section_text).expect("subject");
    out.push((
        "edge.broker.on_deliver_ns",
        per_op(|| broker.on_deliver(&section, section_text, &own.bytes, false, &mut || None)),
    ));
    out.push((
        "edge.broker.join_ns",
        per_batch(|n| {
            let first = SESSIONS as u64;
            let t = Instant::now();
            for conn in first..first + n as u64 {
                join(&mut broker, conn);
            }
            let elapsed = t.elapsed();
            for conn in first..first + n as u64 {
                broker.handle_frame(0, ConnId(conn), SessionFrame::Bye);
            }
            elapsed
        }),
    ));
    assert_eq!(broker.active(), SESSIONS, "joins were undone");

    // router
    let mut router = RouterEngine::new(9, RouterConfig::default());
    router.start(1);
    for link in 0..2u32 {
        router.handle(
            1,
            RouterEvent::LinkUp {
                link,
                rewrite: None,
            },
        );
        router.handle(
            1,
            RouterEvent::SummaryRecv {
                link,
                seq: 1,
                filters: vec!["quotes.>".into(), format!("other.l{link}.>")],
            },
        );
    }
    out.push((
        "router.route_ns",
        per_op(|| router.route(2, subject_text, None, None)),
    ));
    let rewrite = CompiledRewrite::new(&RewriteRule {
        from_prefix: "quotes.nyse".into(),
        to_prefix: "hq.quotes.nyse".into(),
    });
    out.push((
        "router.rewrite_ns",
        per_op(|| rewrite.apply(subject_text).expect("rule matches")),
    ));
    let mut map = SubjectMap::new();
    map.add_alias("quotes.nyse", "equity.us.nyse")
        .expect("alias");
    map.add_alias("fx.spot", "currency.spot").expect("alias");
    out.push((
        "router.semantic.canonicalize_ns",
        per_op(|| map.canonicalize(subject_text).expect("alias matches")),
    ));
    out
}
