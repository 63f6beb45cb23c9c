//! Property tests of subject interning: ids are a per-daemon, per-run
//! optimization, so everything observable must survive a daemon restart
//! — round-trips through text are stable, and the wire (which carries
//! only text) re-interns cleanly into any fresh table.

use infobus_core::engine::Engine;
use infobus_core::BusConfig;
use infobus_netsim::SimRng;

/// A pseudo-random valid subject: 1–4 alphanumeric segments.
fn random_subject(rng: &mut SimRng) -> String {
    let segs = 1 + rng.gen_range_inclusive(0, 3);
    let mut out = String::new();
    for s in 0..segs {
        if s > 0 {
            out.push('.');
        }
        let len = 1 + rng.gen_range_inclusive(0, 7);
        for _ in 0..len {
            let c = b'a' + (rng.gen_range_inclusive(0, 25) as u8);
            out.push(c as char);
        }
    }
    out
}

#[test]
fn intern_round_trips_are_stable_across_restart() {
    for seed in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(500_000 + seed);
        let engine = Engine::new(BusConfig::default(), 1);

        // Intern a random subject population (with deliberate repeats).
        let mut subjects = Vec::new();
        for _ in 0..100 {
            subjects.push(random_subject(&mut rng));
        }
        for i in 0..40 {
            let dup = subjects[i % subjects.len()].clone();
            subjects.push(dup);
        }
        let interned: Vec<_> = subjects
            .iter()
            .map(|s| engine.table().intern(s).unwrap())
            .collect();

        // id → str → id round-trips within one table: re-interning the
        // text always yields the original id.
        for (s, i) in subjects.iter().zip(&interned) {
            assert_eq!(i.as_str(), s);
            assert_eq!(engine.table().intern(s).unwrap().id(), i.id());
        }

        // Repeats share ids; distinct subjects do not.
        for (a_s, a_i) in subjects.iter().zip(&interned) {
            for (b_s, b_i) in subjects.iter().zip(&interned) {
                assert_eq!(a_s == b_s, a_i.id() == b_i.id(), "{a_s} vs {b_s}");
            }
        }

        // Restart: a fresh engine replaying the same intern sequence
        // assigns the same dense ids — recovery replay is deterministic.
        let restarted = Engine::new(BusConfig::default(), 1);
        for (s, i) in subjects.iter().zip(&interned) {
            assert_eq!(
                restarted.table().intern(s).unwrap().id(),
                i.id(),
                "replaying the intern sequence must reproduce ids"
            );
        }

        // A restart that interns in a *different* order may assign
        // different ids — but text round-trips still hold, which is the
        // actual invariant the wire depends on.
        let shuffled = Engine::new(BusConfig::default(), 1);
        let mut order: Vec<usize> = (0..subjects.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range_inclusive(0, i as u64) as usize;
            order.swap(i, j);
        }
        for &k in &order {
            let i = shuffled.table().intern(&subjects[k]).unwrap();
            assert_eq!(i.as_str(), subjects[k]);
            assert_eq!(shuffled.table().intern(&subjects[k]).unwrap().id(), i.id());
        }
    }
}

#[test]
fn envelopes_re_intern_across_daemon_tables() {
    // Subjects travel as text: an envelope encoded with one daemon's ids
    // decodes against any other daemon's table and round-trips.
    use infobus_core::engine::{Engine, PubSource};
    use infobus_core::{Bytes, Envelope, EnvelopeKind, QoS};

    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from_u64(700_000 + seed);
        let mut sender = Engine::new(BusConfig::default(), 1);
        let receiver = Engine::new(BusConfig::default(), 2);
        let source = PubSource {
            app: "prop".into(),
            inc: 1,
            route: None,
        };
        // Skew the sender's table so ids diverge between the daemons.
        for _ in 0..rng.gen_range_inclusive(1, 30) {
            sender.table().intern(&random_subject(&mut rng)).unwrap();
        }
        for _ in 0..20 {
            let text = random_subject(&mut rng);
            let subject = sender.table().intern(&text).unwrap();
            let (env, _actions) = sender.publish(
                0,
                &source,
                &subject,
                QoS::Reliable,
                EnvelopeKind::Data,
                0,
                Bytes::from_vec(vec![1, 2, 3]),
            );
            let mut buf = Vec::new();
            env.encode(&mut buf);
            let back = Envelope::decode(&mut buf.as_slice(), receiver.table()).unwrap();
            assert_eq!(back.subject.as_str(), text);
            assert_eq!(back, env, "equality follows text, not per-daemon ids");
            assert_eq!(
                receiver.table().intern(&text).unwrap().id(),
                back.subject.id(),
                "decode interned into the receiver's table"
            );
        }
    }
}
