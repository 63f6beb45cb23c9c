//! The correctness verifier: every dequeued delivery is checked against
//! what the generator published. One sequence checker per
//! (receiver, subject) stream detects gaps, duplicates and reorders;
//! the caller supplies the payload and predicate verdicts.

use std::fmt;

/// What can be wrong with an expected delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Never dequeued before the drain deadline.
    Missing,
    /// Dequeued after a later publication of the same subject.
    Reordered,
    /// Dequeued twice without the `redelivery` flag.
    Duplicate,
    /// Payload differs from what was published, or matches no
    /// publication at all.
    Corrupt,
    /// A publication every predicate rejects reached a subscriber.
    Predicate,
}

const FAULTS: [Fault; 5] = [
    Fault::Missing,
    Fault::Reordered,
    Fault::Duplicate,
    Fault::Corrupt,
    Fault::Predicate,
];

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fault::Missing => "missing",
            Fault::Reordered => "reordered",
            Fault::Duplicate => "duplicate",
            Fault::Corrupt => "corrupt",
            Fault::Predicate => "predicate-violating",
        })
    }
}

/// The caller's verdict on a dequeued payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Every slot equals what was published.
    Intact,
    /// Some slot differs, or the `id` matches no live publication.
    Corrupt,
    /// The publication was generated as undeliverable (`px` below every
    /// subscription's predicate) and must never arrive.
    Gated,
}

/// What the caller should do with a checked delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// First arrival of an expected delivery: count it.
    Fresh,
    /// A repeat flagged `redelivery` (guaranteed QoS re-broadcasts
    /// in-flight envelopes): expected, de-duplicated, not a failure.
    Redelivery,
    /// Recorded as a failure.
    Faulty(Fault),
}

#[derive(Debug, Clone, Default)]
struct Stream {
    /// Highest sequence number published on this stream.
    sent: i64,
    /// Next sequence number expected in order.
    next: i64,
    /// Sequence numbers jumped over and not (yet) seen: gaps until they
    /// arrive late, then reorders.
    skipped: Vec<i64>,
}

/// Totals at the end of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Expected deliveries plus gated publications.
    pub attempted: u64,
    pub failed: u64,
    /// `(fault, count)` for every fault kind, in [`Fault`] order.
    pub by_fault: Vec<(Fault, u64)>,
    /// Flagged repeats that were de-duplicated.
    pub redeliveries: u64,
    /// The first failure seen: publication `id` (or `-1` for a delivery
    /// still missing at the deadline, where only the stream is known).
    pub first_offender: Option<(i64, Fault)>,
}

/// Sequence-checks `receivers × subjects` streams.
pub struct Verifier {
    subjects: usize,
    streams: Vec<Stream>,
    expected: u64,
    gated: u64,
    counts: [u64; FAULTS.len()],
    redeliveries: u64,
    first_offender: Option<(i64, Fault)>,
}

impl Verifier {
    pub fn new(receivers: usize, subjects: usize) -> Verifier {
        Verifier {
            subjects,
            streams: vec![
                Stream {
                    next: 1,
                    ..Stream::default()
                };
                receivers * subjects
            ],
            expected: 0,
            gated: 0,
            counts: [0; FAULTS.len()],
            redeliveries: 0,
            first_offender: None,
        }
    }

    fn record(&mut self, id: i64, fault: Fault) -> Verdict {
        self.counts[FAULTS.iter().position(|f| *f == fault).expect("listed")] += 1;
        self.first_offender.get_or_insert((id, fault));
        Verdict::Faulty(fault)
    }

    /// The publisher sent sequence number `seq` of `subject` and
    /// `receiver` must dequeue it.
    pub fn expect(&mut self, receiver: usize, subject: usize, seq: i64) {
        let stream = &mut self.streams[receiver * self.subjects + subject];
        debug_assert_eq!(seq, stream.sent + 1, "generator sequences are dense");
        stream.sent = seq;
        self.expected += 1;
    }

    /// The publisher sent a publication that must be suppressed.
    pub fn expect_gated(&mut self) {
        self.gated += 1;
    }

    /// Checks one dequeued delivery: `seq` and `id` as the payload claims
    /// them, `redelivery` as the bus flagged it, `payload` as the caller
    /// judged it against the publication `id` names.
    pub fn delivered(
        &mut self,
        receiver: usize,
        subject: usize,
        seq: i64,
        id: i64,
        redelivery: bool,
        payload: Payload,
    ) -> Verdict {
        if payload == Payload::Gated {
            return self.record(id, Fault::Predicate);
        }
        let stream = &mut self.streams[receiver * self.subjects + subject];
        if seq < 1 || seq > stream.sent {
            return self.record(id, Fault::Corrupt);
        }
        if seq < stream.next {
            return match stream.skipped.iter().position(|s| *s == seq) {
                Some(at) => {
                    stream.skipped.swap_remove(at);
                    self.record(id, Fault::Reordered)
                }
                None if redelivery => {
                    self.redeliveries += 1;
                    Verdict::Redelivery
                }
                None => self.record(id, Fault::Duplicate),
            };
        }
        stream.skipped.extend(stream.next..seq);
        stream.next = seq + 1;
        match payload {
            Payload::Intact => Verdict::Fresh,
            _ => self.record(id, Fault::Corrupt),
        }
    }

    /// Totals, counting every expected delivery not dequeued so far as
    /// missing. Call after the drain deadline.
    pub fn finish(&self) -> Report {
        let missing: u64 = self
            .streams
            .iter()
            .map(|s| (s.sent - (s.next - 1)) as u64 + s.skipped.len() as u64)
            .sum();
        let mut counts = self.counts;
        counts[0] += missing;
        let first_offender = self
            .first_offender
            .or((missing > 0).then_some((-1, Fault::Missing)));
        Report {
            attempted: self.expected + self.gated,
            failed: counts.iter().sum(),
            by_fault: FAULTS.iter().copied().zip(counts).collect(),
            redeliveries: self.redeliveries,
            first_offender,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Publishes seqs 1..=n on (receiver 0, subject 0) of a 2×3 verifier.
    fn sent(n: i64) -> Verifier {
        let mut v = Verifier::new(2, 3);
        for seq in 1..=n {
            v.expect(0, 0, seq);
        }
        v
    }

    fn count(report: &Report, fault: Fault) -> u64 {
        report.by_fault.iter().find(|(f, _)| *f == fault).unwrap().1
    }

    #[test]
    fn clean_run_reports_nothing() {
        let mut v = sent(4);
        v.expect_gated();
        for seq in 1..=4 {
            assert_eq!(
                v.delivered(0, 0, seq, seq + 100, false, Payload::Intact),
                Verdict::Fresh
            );
        }
        let r = v.finish();
        assert_eq!((r.attempted, r.failed, r.first_offender), (5, 0, None));
    }

    #[test]
    fn injected_gap_is_missing_at_the_deadline() {
        let mut v = sent(4);
        for seq in [1, 2, 4] {
            assert_eq!(
                v.delivered(0, 0, seq, seq, false, Payload::Intact),
                Verdict::Fresh
            );
        }
        let r = v.finish();
        assert_eq!((r.failed, count(&r, Fault::Missing)), (1, 1));
        assert_eq!(r.first_offender, Some((-1, Fault::Missing)));
        // A tail never delivered is missing too.
        let r = sent(3).finish();
        assert_eq!(count(&r, Fault::Missing), 3);
    }

    #[test]
    fn injected_duplicate_is_a_failure_unless_flagged_redelivery() {
        let mut v = sent(2);
        v.delivered(0, 0, 1, 10, false, Payload::Intact);
        assert_eq!(
            v.delivered(0, 0, 1, 10, false, Payload::Intact),
            Verdict::Faulty(Fault::Duplicate)
        );
        assert_eq!(
            v.delivered(0, 0, 1, 10, true, Payload::Intact),
            Verdict::Redelivery
        );
        v.delivered(0, 0, 2, 11, false, Payload::Intact);
        let r = v.finish();
        assert_eq!((r.failed, r.redeliveries), (1, 1));
        assert_eq!(r.first_offender, Some((10, Fault::Duplicate)));
    }

    #[test]
    fn injected_reorder_is_counted_once_not_also_as_missing() {
        let mut v = sent(3);
        v.delivered(0, 0, 1, 1, false, Payload::Intact);
        v.delivered(0, 0, 3, 3, false, Payload::Intact);
        assert_eq!(
            v.delivered(0, 0, 2, 2, false, Payload::Intact),
            Verdict::Faulty(Fault::Reordered)
        );
        let r = v.finish();
        assert_eq!((r.failed, count(&r, Fault::Reordered)), (1, 1));
        assert_eq!(count(&r, Fault::Missing), 0);
    }

    #[test]
    fn corrupt_payload_and_predicate_violation_are_failures() {
        let mut v = sent(2);
        assert_eq!(
            v.delivered(0, 0, 1, 7, false, Payload::Corrupt),
            Verdict::Faulty(Fault::Corrupt)
        );
        // A sequence number never published cannot be trusted either.
        assert_eq!(
            v.delivered(0, 0, 9, 8, false, Payload::Intact),
            Verdict::Faulty(Fault::Corrupt)
        );
        v.expect_gated();
        assert_eq!(
            v.delivered(0, 0, 0, 9, false, Payload::Gated),
            Verdict::Faulty(Fault::Predicate)
        );
        let r = v.finish();
        assert_eq!(count(&r, Fault::Corrupt), 2);
        assert_eq!(count(&r, Fault::Predicate), 1);
        assert_eq!(count(&r, Fault::Missing), 1, "seq 2 never arrived");
        assert_eq!(r.first_offender, Some((7, Fault::Corrupt)));
    }

    #[test]
    fn streams_are_independent_per_receiver_and_subject() {
        let mut v = Verifier::new(2, 3);
        v.expect(0, 1, 1);
        v.expect(1, 1, 1);
        v.expect(1, 2, 1);
        assert_eq!(
            v.delivered(1, 1, 1, 0, false, Payload::Intact),
            Verdict::Fresh
        );
        assert_eq!(
            v.delivered(0, 1, 1, 0, false, Payload::Intact),
            Verdict::Fresh
        );
        let r = v.finish();
        assert_eq!((r.attempted, r.failed), (3, 1));
    }
}
