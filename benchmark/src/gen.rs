//! Seeded input generation: subject order, prices, and the two message
//! shapes. The same seed gives the same inputs; the program under test
//! sees only what comes out of here.

use infobus_types::{DataObject, TypeDescriptor, Value, ValueType};

/// SplitMix64: small, seedable, and good enough to shuffle subjects and
/// draw prices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which message a workload publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Quote{id, seq, ts_ns, px, sym}`: about 60 B of values in a
    /// 220–260 B frame, because the self-description dominates.
    Quote,
    /// `Story{id, seq, ts_ns, headline, body(1000 B), tags}`: about 1.1 KB.
    Story,
}

/// Prices are uniform in `[0, PX_RANGE)`.
pub const PX_RANGE: f64 = 111.0;
/// The `filtered_udp` subscriptions accept `px >= PX_ACCEPT`, so about
/// one publication in ten passes the publisher's gate.
pub const PX_ACCEPT: f64 = 100.0;

const HEADLINE: &str = "GM BEATS ESTIMATES BY WIDE MARGIN";
const BODY_LEN: usize = 1000;

impl Kind {
    /// The type descriptor a publisher registers before publishing.
    pub fn descriptor(self) -> TypeDescriptor {
        let common = |name: &str| {
            TypeDescriptor::builder(name)
                .attribute("id", ValueType::I64)
                .attribute("seq", ValueType::I64)
                .attribute("ts_ns", ValueType::I64)
        };
        match self {
            Kind::Quote => common("Quote")
                .attribute("px", ValueType::F64)
                .attribute("sym", ValueType::Str)
                .build(),
            Kind::Story => common("Story")
                .attribute("headline", ValueType::Str)
                .attribute("body", ValueType::Str)
                .attribute("tags", ValueType::list_of(ValueType::Str))
                .build(),
        }
    }
}

/// One generated publication: everything needed to build its value and
/// to check what a subscriber later dequeues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Publication {
    /// Unique per run, starting at 0.
    pub id: i64,
    /// Index into [`Generator::subject`].
    pub subject: usize,
    /// 1-based position among this subject's *deliverable* publications
    /// (0 for one the publish gate must suppress).
    pub seq: i64,
    pub px: f64,
    /// `false` when every subscription's predicate rejects it.
    pub deliverable: bool,
}

/// The seeded publication stream of one workload run.
pub struct Generator {
    kind: Kind,
    subjects: Vec<String>,
    symbols: Vec<String>,
    /// A seeded permutation of the subject indices, cycled.
    order: Vec<usize>,
    cursor: usize,
    rng: Rng,
    next_id: i64,
    seqs: Vec<i64>,
    /// `Some(t)`: only `px >= t` is deliverable.
    accept_from: Option<f64>,
    body: String,
}

impl Generator {
    /// `n_subjects` subjects `quotes.nyse.s<i>`, visited in a seeded
    /// order; with `accept_from` set, publications priced below it are
    /// marked undeliverable.
    pub fn new(kind: Kind, n_subjects: usize, seed: u64, accept_from: Option<f64>) -> Generator {
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..n_subjects).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let body = (0..BODY_LEN)
            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
            .collect();
        Generator {
            kind,
            subjects: (0..n_subjects)
                .map(|i| format!("quotes.nyse.s{i}"))
                .collect(),
            symbols: (0..n_subjects).map(|i| format!("s{i}")).collect(),
            order,
            cursor: 0,
            rng,
            next_id: 0,
            seqs: vec![0; n_subjects],
            accept_from,
            body,
        }
    }

    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    pub fn subject(&self, idx: usize) -> &str {
        &self.subjects[idx]
    }

    /// Publications generated so far.
    pub fn generated(&self) -> i64 {
        self.next_id
    }

    /// The next publication of the stream.
    pub fn next(&mut self) -> Publication {
        let subject = self.order[self.cursor];
        self.cursor = (self.cursor + 1) % self.order.len();
        let px = self.rng.next_f64() * PX_RANGE;
        let deliverable = self.accept_from.is_none_or(|t| px >= t);
        let seq = if deliverable {
            self.seqs[subject] += 1;
            self.seqs[subject]
        } else {
            0
        };
        let id = self.next_id;
        self.next_id += 1;
        Publication {
            id,
            subject,
            seq,
            px,
            deliverable,
        }
    }

    /// A value of this run's kind with the constant slots filled; pass it
    /// to [`Generator::fill`] before each publish.
    pub fn template(&self) -> Value {
        let obj = match self.kind {
            Kind::Quote => DataObject::new("Quote")
                .with("id", 0i64)
                .with("seq", 0i64)
                .with("ts_ns", 0i64)
                .with("px", 0.0f64)
                .with("sym", ""),
            Kind::Story => DataObject::new("Story")
                .with("id", 0i64)
                .with("seq", 0i64)
                .with("ts_ns", 0i64)
                .with("headline", HEADLINE)
                .with("body", self.body.as_str())
                .with(
                    "tags",
                    Value::List(vec![Value::str("auto"), Value::str("equity")]),
                ),
        };
        Value::object(obj)
    }

    /// Writes `p` (stamped `ts_ns`) into a [`Generator::template`] value.
    pub fn fill(&self, value: &mut Value, p: &Publication, ts_ns: i64) {
        let obj = value.as_object_mut().expect("template is an object");
        obj.set("id", p.id).set("seq", p.seq).set("ts_ns", ts_ns);
        if self.kind == Kind::Quote {
            obj.set("px", p.px)
                .set("sym", self.symbols[p.subject].as_str());
        }
    }

    /// Whether a dequeued object is exactly what [`Generator::fill`]
    /// wrote for `p`: every slot, bit for bit.
    pub fn payload_intact(&self, obj: &DataObject, p: &Publication, ts_ns: i64) -> bool {
        let i64_is = |slot: &str, want: i64| obj.get(slot).and_then(Value::as_i64) == Some(want);
        let str_is = |slot: &str, want: &str| obj.get(slot).and_then(Value::as_str) == Some(want);
        if !(i64_is("id", p.id) && i64_is("seq", p.seq) && i64_is("ts_ns", ts_ns)) {
            return false;
        }
        match self.kind {
            Kind::Quote => {
                obj.type_name() == "Quote"
                    && obj.slots().len() == 5
                    && obj.get("px").and_then(Value::as_f64).map(f64::to_bits)
                        == Some(p.px.to_bits())
                    && str_is("sym", &self.symbols[p.subject])
            }
            Kind::Story => {
                obj.type_name() == "Story"
                    && obj.slots().len() == 6
                    && str_is("headline", HEADLINE)
                    && str_is("body", &self.body)
                    && obj.get("tags").and_then(Value::as_list).is_some_and(|t| {
                        t.len() == 2
                            && t[0].as_str() == Some("auto")
                            && t[1].as_str() == Some("equity")
                    })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> Vec<Publication> {
        let mut g = Generator::new(Kind::Quote, 512, seed, Some(PX_ACCEPT));
        (0..n).map(|_| g.next()).collect()
    }

    #[test]
    fn same_seed_same_subjects_prices_and_accept_set() {
        assert_eq!(stream(7, 5_000), stream(7, 5_000));
        let other = stream(8, 5_000);
        assert_ne!(stream(7, 5_000), other);
        // Different seeds visit the subjects in different orders.
        let order = |s: &[Publication]| s.iter().take(512).map(|p| p.subject).collect::<Vec<_>>();
        assert_ne!(order(&stream(7, 512)), order(&other));
    }

    #[test]
    fn every_cycle_visits_every_subject_once() {
        let s = stream(3, 1_024);
        for cycle in s.chunks(512) {
            let mut seen: Vec<usize> = cycle.iter().map(|p| p.subject).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..512).collect::<Vec<_>>());
        }
        assert_eq!(s[0].subject, s[512].subject, "the order is cycled");
    }

    #[test]
    fn about_a_tenth_is_deliverable_and_seqs_count_only_those() {
        let s = stream(11, 50_000);
        let accepted = s.iter().filter(|p| p.deliverable).count();
        let share = accepted as f64 / s.len() as f64;
        assert!((0.09..0.11).contains(&share), "accepted share {share}");
        let mut next = vec![0i64; 512];
        for p in &s {
            assert_eq!(p.deliverable, p.px >= PX_ACCEPT);
            if p.deliverable {
                next[p.subject] += 1;
                assert_eq!(p.seq, next[p.subject]);
            } else {
                assert_eq!(p.seq, 0);
            }
        }
    }

    #[test]
    fn fill_and_payload_check_agree_and_catch_corruption() {
        for kind in [Kind::Quote, Kind::Story] {
            let mut g = Generator::new(kind, 64, 5, None);
            let mut value = g.template();
            let p = g.next();
            g.fill(&mut value, &p, 123);
            let obj = value.as_object().unwrap();
            assert!(g.payload_intact(obj, &p, 123));
            assert!(!g.payload_intact(obj, &p, 124), "wrong stamp");
            let mut bad = obj.clone();
            match kind {
                Kind::Quote => bad.set("px", p.px + 1e-9),
                Kind::Story => bad.set("body", "x".repeat(1000)),
            };
            assert!(!g.payload_intact(&bad, &p, 123), "corrupt slot");
        }
    }
}
