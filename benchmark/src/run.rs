//! One workload run: repeated set-up, warm-up, the open-loop paced
//! phase, the closed-loop saturate phase, drain and verification.
//!
//! One thread (this one) is publisher and consumer; the only other busy
//! thread is the subscriber daemon's reader. Every delivery is checked
//! by the [`Verifier`] as it is dequeued.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

use infobus_core::engine::BusStats;
use infobus_core::{Bytes, Delivery, QoS};
use infobus_types::Value;

use crate::gen::{Generator, Publication};
use crate::spec::Workload;
use crate::sys;
use crate::topo::{Topology, FANOUT_SUBS};
use crate::verify::{Fault, Payload, Report, Verdict, Verifier};

/// Open-loop rate of the paced phase, publishes per second.
const PACED_RATE: f64 = 2_000.0;
/// Closed-loop window of the saturate phase: publications outstanding.
/// The bus has no flow control; an unwindowed blast over loopback
/// overflows the socket buffer into NAK storms and unrecoverable gaps.
const WINDOW: usize = 32;
/// A background subscription is replaced every this many publishes.
const CHURN_EVERY: i64 = 256;
/// How many times a run sets the workload up; `setup_s` is the median.
const SETUPS: usize = 15;
/// Share of `--seconds` spent in the paced phase; the rest saturates.
/// 5 s of a 12 s run gives the 10 000 samples p99.9 needs.
const PACED_SHARE: f64 = 5.0 / 12.0;
/// The saturate phase of a traced run alternates untraced and traced
/// slices so `trace.overhead_ratio` compares like with like.
const TRACE_SLICES: usize = 4;
/// Publications remembered for checking late arrivals (redeliveries
/// come a retry period after the original).
const RING: usize = 1 << 16;
/// A publication still incomplete after this long is given up (the
/// verifier then reports it missing) so a lost message cannot wedge the
/// window.
const ABANDON: Duration = Duration::from_secs(2);
/// The traced run samples the daemons' gauges every this many publishes.
const GAUGE_EVERY: i64 = 512;

/// What to run.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time: paced plus saturate phase.
    pub seconds: f64,
    pub trace: bool,
    /// Where ledger scratch directories and trace files go.
    pub out_dir: PathBuf,
}

/// Timestamps of one traced publication, ns since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct SpanRow {
    pub id: i64,
    pub build_start: u64,
    pub build_end: u64,
    pub publish_start: u64,
    pub publish_end: u64,
    /// 0 when nothing was delivered (a gated publication).
    pub first_dequeue: u64,
    pub consume_end: u64,
}

/// What one phase (or saturate slice) observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub traced: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Publications completed: every expected delivery dequeued.
    pub completed: u64,
    /// Marshalled payload bytes dequeued (headers, retransmits excluded).
    pub payload_bytes: u64,
    /// Origin-to-completion latency per publication, µs; kept in the
    /// paced phase and in traced runs only.
    pub latencies_us: Vec<f64>,
    pub spans: Vec<SpanRow>,
    /// How late the open-loop generator ran at worst, µs.
    pub late_max_us: f64,
}

/// Everything a run measured, before it is turned into metrics.
pub struct Measured {
    pub setups_s: Vec<f64>,
    pub paced: Phase,
    pub saturate: Vec<Phase>,
    /// `Bus::stats()` deltas over the saturate phase.
    pub publisher: StatsDelta,
    pub subscriber: StatsDelta,
    pub deliveries: u64,
    pub redelivered: u64,
    pub gd_pending_max: u64,
    pub queue_depth_max: u64,
    pub report: Report,
}

/// Counter values before and after the saturate phase.
pub struct StatsDelta {
    pub before: BusStats,
    pub after: BusStats,
}

impl StatsDelta {
    pub fn of(&self, field: impl Fn(&BusStats) -> u64) -> f64 {
        field(&self.after).saturating_sub(field(&self.before)) as f64
    }
}

#[derive(Clone, Copy)]
struct Slot {
    publication: Publication,
    /// `ts_ns` as written into the payload.
    stamp_ns: i64,
    /// Where this publication's latency is measured from: its due time
    /// in the paced phase, the start of `publish` otherwise.
    origin_ns: u64,
    /// Deliveries are expected on receivers `rx_lo .. rx_lo + rx_n`.
    rx_lo: usize,
    rx_n: u32,
    /// Bit `i`: the delivery on receiver `rx_lo + i` is accounted for.
    got: u16,
    build_ns: (u64, u64),
    publish_start_ns: u64,
    publish_end_ns: u64,
    first_dequeue_ns: u64,
}

impl Slot {
    const FREE: Slot = Slot {
        publication: Publication {
            id: -1,
            subject: 0,
            seq: 0,
            px: 0.0,
            deliverable: false,
        },
        stamp_ns: 0,
        origin_ns: 0,
        rx_lo: 0,
        rx_n: 0,
        got: 0,
        build_ns: (0, 0),
        publish_start_ns: 0,
        publish_end_ns: 0,
        first_dequeue_ns: 0,
    };

    fn done(&self) -> bool {
        self.got.count_ones() == self.rx_n
    }
}

/// What unmarshalling one payload showed.
struct Decoded {
    payload: Bytes,
    /// As the payload claims them; -1 and 0 when it does not unmarshal.
    id: i64,
    seq: i64,
    /// It unmarshals, `id` names a remembered publication, and every
    /// slot equals what was published.
    intact: bool,
}

/// A generated publication whose value is built and waiting to be sent.
struct Prepared {
    publication: Publication,
    stamp_ns: i64,
    /// When building the value started and ended.
    build_ns: (u64, u64),
}

struct Run {
    workload: Workload,
    qos: QoS,
    topo: Topology,
    gen: Generator,
    value: Value,
    verifier: Verifier,
    ring: Vec<Slot>,
    /// Ids in publish order; completed ones are skipped lazily.
    in_flight: VecDeque<i64>,
    outstanding: usize,
    /// Expected deliveries not yet dequeued, per receiver.
    pending: Vec<u32>,
    /// Receivers with `pending > 0`: the only queues worth polling.
    active: Vec<usize>,
    epoch: Instant,
    tracing: bool,
    keep_latencies: bool,
    phase: Phase,
    deliveries: u64,
    redelivered: u64,
    /// The payload unmarshalled last.
    last: Option<Decoded>,
}

impl Run {
    /// Builds the workload and proves it with one verified round trip.
    fn set_up(opts: &Options, epoch: Instant, ring: Vec<Slot>) -> Run {
        let w = opts.workload;
        let topo = Topology::build(w, opts.seed, &opts.out_dir);
        let gen = Generator::new(w.kind(), w.subjects(), opts.seed, w.accept_from());
        let mut run = Run {
            workload: w,
            qos: w.qos(),
            verifier: Verifier::new(topo.receivers.len(), w.subjects()),
            pending: vec![0; topo.receivers.len()],
            topo,
            value: gen.template(),
            gen,
            ring,
            in_flight: VecDeque::new(),
            outstanding: 0,
            active: Vec::new(),
            epoch,
            tracing: false,
            keep_latencies: false,
            phase: Phase::default(),
            deliveries: 0,
            redelivered: 0,
            last: None,
        };
        // First verified round trip: publish until one deliverable
        // publication has come back (a gated one proves nothing).
        loop {
            let prepared = run.prepare(None);
            let deliverable = prepared.publication.deliverable;
            run.send(prepared, None);
            if deliverable {
                break;
            }
        }
        run.settle(Duration::from_secs(5));
        assert!(
            run.outstanding == 0 && run.verifier.finish().failed == 0,
            "{}: first round trip failed",
            w.name()
        );
        run
    }

    /// Stops the daemons and hands the (cleared) ring back for the next
    /// set-up.
    fn tear_down(self) -> Vec<Slot> {
        let mut ring = self.ring;
        ring.fill(Slot::FREE);
        ring
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Generates the next publication and builds its value, stamped
    /// `due_ns` (or now).
    fn prepare(&mut self, due_ns: Option<u64>) -> Prepared {
        let build_start_ns = self.now_ns();
        let publication = self.gen.next();
        let stamp_ns = due_ns.unwrap_or(build_start_ns) as i64;
        self.gen.fill(&mut self.value, &publication, stamp_ns);
        Prepared {
            publication,
            stamp_ns,
            build_ns: (build_start_ns, self.now_ns()),
        }
    }

    /// Publishes a prepared value and registers what must come back.
    fn send(&mut self, prepared: Prepared, due_ns: Option<u64>) {
        let p = prepared.publication;
        let (rx_lo, rx_n) = match self.workload {
            _ if !p.deliverable => (0, 0),
            Workload::FanoutInproc => (0, FANOUT_SUBS),
            Workload::FilteredUdp => (p.subject, 1),
            _ => (0, 1),
        };
        let at = p.id as usize % RING;
        if !self.ring[at].done() {
            self.abandon(at);
        }
        for r in rx_lo..rx_lo + rx_n {
            self.verifier.expect(r, p.subject, p.seq);
            self.pending[r] += 1;
            if self.pending[r] == 1 {
                self.active.push(r);
            }
        }
        if rx_n == 0 {
            self.verifier.expect_gated();
        }
        let publish_start_ns = self.now_ns();
        self.topo
            .publisher
            .bus()
            .publish(self.gen.subject(p.subject), &self.value, self.qos)
            .expect("publish");
        let publish_end_ns = self.now_ns();
        self.ring[at] = Slot {
            publication: p,
            stamp_ns: prepared.stamp_ns,
            origin_ns: due_ns.unwrap_or(publish_start_ns),
            rx_lo,
            rx_n: rx_n as u32,
            got: 0,
            build_ns: prepared.build_ns,
            publish_start_ns,
            publish_end_ns,
            first_dequeue_ns: 0,
        };
        if rx_n == 0 {
            // Nothing to wait for: complete when `publish` returned.
            self.complete(at, publish_end_ns, 0);
        } else {
            self.outstanding += 1;
            self.in_flight.push_back(p.id);
        }
        if self.gen.generated() % CHURN_EVERY == 0 {
            self.topo.churn();
        }
    }

    fn complete(&mut self, at: usize, end_ns: u64, consume_end_ns: u64) {
        let slot = &self.ring[at];
        self.phase.completed += 1;
        if self.keep_latencies {
            self.phase
                .latencies_us
                .push(end_ns.saturating_sub(slot.origin_ns) as f64 / 1e3);
        }
        if self.tracing {
            self.phase.spans.push(SpanRow {
                id: slot.publication.id,
                build_start: slot.build_ns.0,
                build_end: slot.build_ns.1,
                publish_start: slot.publish_start_ns,
                publish_end: slot.publish_end_ns,
                first_dequeue: slot.first_dequeue_ns,
                consume_end: consume_end_ns,
            });
        }
    }

    /// Gives up on an incomplete publication; the verifier reports its
    /// deliveries missing at the end.
    fn abandon(&mut self, at: usize) {
        let slot = &mut self.ring[at];
        for i in 0..slot.rx_n as usize {
            if slot.got & (1 << i) == 0 {
                let r = slot.rx_lo + i;
                self.pending[r] = self.pending[r].saturating_sub(1);
            }
        }
        slot.got = (1u16 << slot.rx_n) - 1;
        self.outstanding -= 1;
    }

    /// Unmarshals a payload and compares every slot with the publication
    /// its `id` names.
    fn decode(&self, d: &Delivery) -> Decoded {
        let value = d.value();
        let obj = value.as_ref().ok().and_then(Value::as_object);
        let slot_i64 = |name: &str| obj.and_then(|o| o.get(name)).and_then(Value::as_i64);
        let id = slot_i64("id").unwrap_or(-1);
        let slot = &self.ring[id.max(0) as usize % RING];
        Decoded {
            payload: d.payload.clone(),
            id,
            seq: slot_i64("seq").unwrap_or(0),
            intact: obj.is_some_and(|o| {
                slot.publication.id == id
                    && self.gen.payload_intact(o, &slot.publication, slot.stamp_ns)
            }),
        }
    }

    /// Checks one dequeued delivery.
    fn on_delivery(&mut self, r: usize, d: &Delivery, dequeue_ns: u64) {
        self.deliveries += 1;
        self.redelivered += u64::from(d.redelivery);
        // A fan-out hands every receiver the same bytes: unmarshal the
        // first copy, check the others by comparing bytes with it.
        if !self.last.as_ref().is_some_and(|l| l.payload == d.payload) {
            self.last = Some(self.decode(d));
        }
        let Decoded {
            id, seq, intact, ..
        } = *self.last.as_ref().expect("just decoded");
        let consume_end_ns = if self.tracing { self.now_ns() } else { 0 };
        // Subjects are `quotes.nyse.s<i>`.
        let subject = d
            .subject
            .as_str()
            .rsplit_once(".s")
            .and_then(|(_, i)| i.parse::<usize>().ok())
            .filter(|&i| i < self.gen.subject_count() && self.gen.subject(i) == d.subject.as_str());
        let at = id.max(0) as usize % RING;
        let slot = self.ring[at];
        let known = id >= 0 && slot.publication.id == id;
        let expected_here = (slot.rx_lo..slot.rx_lo + slot.rx_n as usize).contains(&r);
        let payload = match subject {
            Some(_) if known && !slot.publication.deliverable => Payload::Gated,
            Some(s) if intact && expected_here && s == slot.publication.subject => Payload::Intact,
            _ => Payload::Corrupt,
        };
        let verdict =
            self.verifier
                .delivered(r, subject.unwrap_or(0), seq, id, d.redelivery, payload);
        let counts = matches!(
            verdict,
            Verdict::Fresh | Verdict::Faulty(Fault::Reordered | Fault::Corrupt)
        );
        if !(counts && known && expected_here) {
            return;
        }
        let bit = 1u16 << (r - slot.rx_lo);
        if slot.got & bit != 0 {
            return;
        }
        let slot = &mut self.ring[at];
        slot.got |= bit;
        if slot.first_dequeue_ns == 0 {
            slot.first_dequeue_ns = dequeue_ns;
        }
        let done = slot.done();
        self.pending[r] = self.pending[r].saturating_sub(1);
        if verdict == Verdict::Fresh {
            self.phase.payload_bytes += d.payload.len() as u64;
        }
        if done {
            self.outstanding -= 1;
            self.complete(at, dequeue_ns, consume_end_ns);
        }
    }

    /// Drains every queue that has something pending, without blocking.
    fn sweep(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            let r = self.active[i];
            while let Ok(d) = self.topo.receivers[r].try_recv() {
                let t = self.now_ns();
                self.on_delivery(r, &d, t);
            }
            if self.pending[r] == 0 {
                self.active.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Blocks up to `timeout` on the queue the oldest outstanding
    /// publication is waiting for.
    fn wait_oldest(&mut self, timeout: Duration) {
        let at = loop {
            let Some(&id) = self.in_flight.front() else {
                return;
            };
            let at = id as usize % RING;
            if self.ring[at].publication.id == id && !self.ring[at].done() {
                break at;
            }
            self.in_flight.pop_front();
        };
        let slot = self.ring[at];
        if self.now_ns().saturating_sub(slot.origin_ns) > ABANDON.as_nanos() as u64 {
            self.abandon(at);
            return;
        }
        let r = slot.rx_lo + slot.got.trailing_ones() as usize;
        match self.topo.receivers[r].recv_timeout(timeout) {
            Ok(d) => {
                let t = self.now_ns();
                self.on_delivery(r, &d, t);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => panic!("subscriber queue disconnected"),
        }
    }

    /// Waits (blocking, not spinning) until nothing is outstanding.
    fn settle(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.outstanding > 0 && Instant::now() < deadline {
            self.wait_oldest(Duration::from_millis(1));
            self.sweep();
        }
    }

    fn begin_phase(&mut self, traced: bool, keep_latencies: bool) {
        self.tracing = traced;
        self.keep_latencies = keep_latencies;
        self.phase = Phase {
            traced,
            ..Phase::default()
        };
    }

    /// Open loop at [`PACED_RATE`]: each publish goes out when it is due
    /// whether or not earlier ones have completed, and its latency runs
    /// from the due time. Between due times this thread spin-polls the
    /// queues, so the consumer's futex wake is not in the number.
    fn paced(&mut self, seconds: f64, traced: bool) -> Phase {
        self.begin_phase(traced, true);
        let count = (seconds * PACED_RATE).round() as u64;
        let period_ns = 1e9 / PACED_RATE;
        let start_ns = self.now_ns() + 1_000_000;
        let mut late_max_ns = 0u64;
        for i in 0..count {
            let due_ns = start_ns + (i as f64 * period_ns) as u64;
            let prepared = self.prepare(Some(due_ns));
            loop {
                let now = self.now_ns();
                if now >= due_ns {
                    late_max_ns = late_max_ns.max(now - due_ns);
                    break;
                }
                self.sweep();
            }
            self.send(prepared, Some(due_ns));
        }
        self.settle(Duration::from_secs(1));
        self.phase.wall_s = (self.now_ns() - start_ns) as f64 / 1e9;
        self.phase.late_max_us = late_max_ns as f64 / 1e3;
        std::mem::take(&mut self.phase)
    }

    /// Closed loop: publish while fewer than [`WINDOW`] publications are
    /// outstanding, else block on the oldest one's queue. CPU time is
    /// the whole process's, so it includes the daemons' threads.
    fn saturate(
        &mut self,
        seconds: f64,
        traced: bool,
        keep_latencies: bool,
        gauges: &mut Gauges,
    ) -> Phase {
        self.begin_phase(traced, keep_latencies);
        let start_ns = self.now_ns();
        let cpu0 = sys::cpu_seconds();
        let deadline_ns = start_ns + (seconds * 1e9) as u64;
        let mut sampled_at = self.gen.generated();
        while self.now_ns() < deadline_ns {
            if self.outstanding < WINDOW {
                let prepared = self.prepare(None);
                self.send(prepared, None);
            } else {
                self.wait_oldest(Duration::from_millis(1));
            }
            self.sweep();
            if traced && self.gen.generated() - sampled_at >= GAUGE_EVERY {
                sampled_at = self.gen.generated();
                gauges.sample(&self.topo);
            }
        }
        self.phase.wall_s = (self.now_ns() - start_ns) as f64 / 1e9;
        self.phase.cpu_s = sys::cpu_seconds() - cpu0;
        std::mem::take(&mut self.phase)
    }

    /// After the drain deadline: takes whatever is still queued anywhere
    /// (stray duplicates included) and closes the books.
    fn finish(mut self) -> (Report, u64, u64) {
        self.begin_phase(false, false);
        self.settle(Duration::from_secs(3));
        std::thread::sleep(Duration::from_millis(20));
        for r in 0..self.topo.receivers.len() {
            while let Ok(d) = self.topo.receivers[r].try_recv() {
                let t = self.now_ns();
                self.on_delivery(r, &d, t);
            }
        }
        (self.verifier.finish(), self.deliveries, self.redelivered)
    }
}

/// Gauges only a snapshot shows; the traced run samples their maxima.
#[derive(Default)]
struct Gauges {
    gd_pending_max: u64,
    queue_depth_max: u64,
}

impl Gauges {
    fn sample(&mut self, topo: &Topology) {
        let gd = topo.publisher.bus().stats().gd_pending;
        let depth = topo.subscriber().bus().stats().sub_queue_depth;
        self.gd_pending_max = self.gd_pending_max.max(gd);
        self.queue_depth_max = self.queue_depth_max.max(depth);
    }
}

/// Runs one workload from set-up to verification.
pub fn run(opts: &Options, epoch: Instant) -> Measured {
    // Set-up, several times over; the last one is kept and used. The
    // harness's own ring is allocated once, outside the timed part.
    let mut ring = vec![Slot::FREE; RING];
    let mut setups_s = Vec::with_capacity(SETUPS);
    let mut run = loop {
        let t = Instant::now();
        let run = Run::set_up(opts, epoch, ring);
        setups_s.push(t.elapsed().as_secs_f64());
        if setups_s.len() == SETUPS {
            break run;
        }
        ring = run.tear_down();
    };
    // From here on the bench thread and the daemons' threads each keep
    // to a CPU of their own (see `sys::place_threads` for why).
    if let Err(why) = sys::place_threads() {
        eprintln!("thread placement left to the scheduler ({why}): latency_p50_us may be bimodal");
    }
    let mut gauges = Gauges::default();

    // Warm-up, discarded (first-run-in-process outliers of 10–50 % were
    // seen without it) but verified like everything else.
    let warm_s = (opts.seconds / 8.0).min(1.5);
    run.saturate(warm_s * 2.0 / 3.0, false, false, &mut gauges);
    run.settle(Duration::from_secs(1));
    run.paced(warm_s / 3.0, false);

    let paced = run.paced(opts.seconds * PACED_SHARE, opts.trace);

    let saturate_s = opts.seconds * (1.0 - PACED_SHARE);
    let before = (
        run.topo.publisher.bus().stats(),
        run.topo.subscriber().bus().stats(),
    );
    let saturate: Vec<Phase> = if opts.trace {
        (0..TRACE_SLICES)
            .map(|i| {
                let traced = i % 2 == 1;
                run.saturate(saturate_s / TRACE_SLICES as f64, traced, true, &mut gauges)
            })
            .collect()
    } else {
        vec![run.saturate(saturate_s, false, false, &mut gauges)]
    };
    let after = (
        run.topo.publisher.bus().stats(),
        run.topo.subscriber().bus().stats(),
    );
    let (report, deliveries, redelivered) = run.finish();
    Measured {
        setups_s,
        paced,
        saturate,
        publisher: StatsDelta {
            before: before.0,
            after: after.0,
        },
        subscriber: StatsDelta {
            before: before.1,
            after: after.1,
        },
        deliveries,
        redelivered,
        gd_pending_max: gauges.gd_pending_max,
        queue_depth_max: gauges.queue_depth_max,
        report,
    }
}
