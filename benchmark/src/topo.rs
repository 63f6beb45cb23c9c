//! Workload set-up: bind the daemons, introduce them, register the
//! message type, subscribe, and wait for the subscription announcements
//! to reach the publisher. `register_type` is not on the `Bus` trait,
//! so the concrete driver types are held here.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use infobus_core::inproc::InprocBus;
use infobus_core::{Bus, BusConfig, BusReceiver, FsyncPolicy, Predicate, QoS, SubscriptionHandle};
use infobus_edge::{EdgeConfig, ReactorBus};
use infobus_net::{UdpBus, UdpConfig};
use infobus_types::TypeDescriptor;

use crate::gen::{Kind, PX_ACCEPT};
use crate::spec::Workload;

/// Background subscriptions on `fanout_inproc` that never match.
pub const BACKGROUND_SUBS: usize = 1_000;
/// Matching subscriptions on `fanout_inproc`.
pub const FANOUT_SUBS: usize = 8;
/// Filtered subscriptions (and subjects) on `filtered_udp`. The full
/// announce is one un-chunked datagram, which caps this near 512.
pub const FILTERED_SUBS: usize = 512;
/// Subjects cycled by every other workload.
const TICK_SUBJECTS: usize = 64;
/// Seeded receive loss on `lossy_udp`.
const RECV_LOSS: f64 = 0.02;

const SUBSCRIBER_HOST: u32 = 1;
const PUBLISHER_HOST: u32 = 2;

impl Workload {
    pub fn kind(self) -> Kind {
        match self {
            Workload::FanoutInproc | Workload::GuaranteedUdp => Kind::Story,
            _ => Kind::Quote,
        }
    }

    pub fn qos(self) -> QoS {
        match self {
            Workload::GuaranteedUdp => QoS::Guaranteed,
            _ => QoS::Reliable,
        }
    }

    pub fn subjects(self) -> usize {
        match self {
            Workload::FilteredUdp => FILTERED_SUBS,
            _ => TICK_SUBJECTS,
        }
    }

    /// `Some(t)` when subscriptions only accept `px >= t`.
    pub fn accept_from(self) -> Option<f64> {
        (self == Workload::FilteredUdp).then_some(PX_ACCEPT)
    }
}

/// A directory under the benchmark's own `out/`, removed on drop — also
/// when a run fails, as long as the failure unwinds. The benchmark may
/// write only inside its checkout, so this is not under `/tmp`.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(root: &Path, tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = root.join(format!(
            "tmp-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A killed run with this pid may have left a ledger here, and a
        // ledger that is found is replayed.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One bus daemon, by its concrete driver type.
pub enum Daemon {
    Udp(UdpBus),
    Reactor(ReactorBus),
    Inproc(InprocBus),
}

impl Daemon {
    pub fn bus(&self) -> &dyn Bus {
        match self {
            Daemon::Udp(b) => b,
            Daemon::Reactor(b) => b,
            Daemon::Inproc(b) => b,
        }
    }

    fn register_type(&self, d: TypeDescriptor) {
        match self {
            Daemon::Udp(b) => b.register_type(d),
            Daemon::Reactor(b) => b.register_type(d),
            Daemon::Inproc(b) => b.register_type(d),
        }
        .expect("register message type");
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Daemon::Udp(b) => b.local_addr(),
            Daemon::Reactor(b) => b.local_addr(),
            Daemon::Inproc(_) => unreachable!("the in-process bus has no socket"),
        }
    }

    fn add_peer(&self, host: u32, addr: SocketAddr) {
        match self {
            Daemon::Udp(b) => b.add_peer(host, addr),
            Daemon::Reactor(b) => b.add_peer(host, addr),
            Daemon::Inproc(_) => unreachable!("the in-process bus has no peers"),
        }
        .expect("add peer");
    }
}

/// A built workload: the daemons and the subscriber's queues.
///
/// Field order is drop order: queues, then daemons (which join their
/// threads and close the ledger), then the ledger's directory.
pub struct Topology {
    /// The queues a publication's deliveries arrive on. `tick_*`: one
    /// (`quotes.>`); `fanout_inproc`: eight, each sees every
    /// publication; `filtered_udp`: one per subject.
    pub receivers: Vec<BusReceiver>,
    background: Vec<(SubscriptionHandle, BusReceiver)>,
    churned: usize,
    pub publisher: Daemon,
    /// `None` when the publisher's daemon is also the subscriber's.
    pub subscriber: Option<Daemon>,
    _ledger: Option<ScratchDir>,
}

impl Topology {
    /// Binds, introduces, registers, subscribes, and waits until the
    /// publisher's daemon has heard every announced filter.
    pub fn build(workload: Workload, seed: u64, out_dir: &Path) -> Topology {
        let ledger =
            (workload == Workload::GuaranteedUdp).then(|| ScratchDir::new(out_dir, "ledger"));
        let sub_cfg = if workload == Workload::TickBatchedUdp {
            BusConfig::throughput()
        } else {
            BusConfig::default()
        };
        let pub_cfg = match &ledger {
            // fsync is off: disk sync latency on a shared sandbox is not
            // ours to measure.
            Some(dir) => sub_cfg
                .clone()
                .with_durable_dir(dir.path())
                .with_fsync(FsyncPolicy::Never),
            None => sub_cfg.clone(),
        };
        let (publisher, subscriber) = match workload {
            Workload::FanoutInproc => (Daemon::Inproc(InprocBus::with_config(pub_cfg)), None),
            Workload::TickReactor => (
                Daemon::Reactor(
                    ReactorBus::bind(EdgeConfig::new(PUBLISHER_HOST).with_bus(pub_cfg))
                        .expect("bind publisher"),
                ),
                Some(Daemon::Reactor(
                    ReactorBus::bind(EdgeConfig::new(SUBSCRIBER_HOST).with_bus(sub_cfg))
                        .expect("bind subscriber"),
                )),
            ),
            _ => {
                let mut sub = UdpConfig::new(SUBSCRIBER_HOST).with_bus(sub_cfg);
                if workload == Workload::LossyUdp {
                    sub = sub.with_recv_loss(RECV_LOSS, seed);
                }
                (
                    Daemon::Udp(
                        UdpBus::bind(UdpConfig::new(PUBLISHER_HOST).with_bus(pub_cfg))
                            .expect("bind publisher"),
                    ),
                    Some(Daemon::Udp(UdpBus::bind(sub).expect("bind subscriber"))),
                )
            }
        };
        if let Some(sub) = &subscriber {
            sub.add_peer(PUBLISHER_HOST, publisher.addr());
            publisher.add_peer(SUBSCRIBER_HOST, sub.addr());
        }
        publisher.register_type(workload.kind().descriptor());

        let sub_bus = subscriber.as_ref().unwrap_or(&publisher).bus();
        let mut background = Vec::new();
        let mut receivers = Vec::new();
        match workload {
            Workload::FanoutInproc => {
                for i in 0..BACKGROUND_SUBS {
                    background.push(sub_bus.subscribe(&background_filter(i)).expect("subscribe"));
                }
                for _ in 0..FANOUT_SUBS {
                    receivers.push(sub_bus.subscribe("quotes.nyse.*").expect("subscribe").1);
                }
            }
            Workload::FilteredUdp => {
                let pred = Predicate::ge("px", PX_ACCEPT);
                for i in 0..FILTERED_SUBS {
                    let filter = format!("quotes.nyse.s{i}");
                    receivers.push(
                        sub_bus
                            .subscribe_filtered(&filter, &pred)
                            .expect("subscribe")
                            .1,
                    );
                }
            }
            _ => receivers.push(sub_bus.subscribe("quotes.>").expect("subscribe").1),
        }

        // Announce convergence. Back-to-back subscribes can overflow the
        // peer's socket buffer and lose announcements until the periodic
        // resync, and a publisher that has not heard a filter sends
        // instead of suppressing — so the gate's work would go missing.
        // `ReactorBus` exposes no peer table; its single filter is
        // confirmed by the first round trip instead.
        if let Daemon::Udp(p) = &publisher {
            let deadline = Instant::now() + Duration::from_secs(10);
            while p.peer_filters().len() < receivers.len() {
                assert!(
                    Instant::now() < deadline,
                    "{}: announcements did not converge",
                    workload.name()
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Topology {
            receivers,
            background,
            churned: 0,
            publisher,
            subscriber,
            _ledger: ledger,
        }
    }

    /// The daemon whose counters describe the receive side.
    pub fn subscriber(&self) -> &Daemon {
        self.subscriber.as_ref().unwrap_or(&self.publisher)
    }

    /// Replaces one background subscription (unsubscribe + subscribe):
    /// the write beside the reads on `fanout_inproc`'s trie. A no-op on
    /// workloads without a background population.
    pub fn churn(&mut self) {
        if self.background.is_empty() {
            return;
        }
        let at = self.churned % self.background.len();
        self.churned += 1;
        let bus = self.subscriber().bus();
        bus.unsubscribe(self.background[at].0);
        let fresh = bus.subscribe(&background_filter(at)).expect("subscribe");
        self.background[at] = fresh;
    }
}

fn background_filter(i: usize) -> String {
    format!("other.s{i}.>")
}
