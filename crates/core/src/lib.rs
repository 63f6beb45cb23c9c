//! The Information Bus: anonymous publish/subscribe with subject-based
//! addressing, two delivery qualities of service, dynamic discovery,
//! remote method invocation, and information routers.
//!
//! This crate implements the communication architecture of the paper on
//! top of the [`infobus_netsim`] substrate:
//!
//! * **Per-host daemon** ([`BusDaemon`]) — applications register with the
//!   daemon on their host; the daemon filters Ethernet-broadcast traffic
//!   through a [`SubjectTrie`](infobus_subject::SubjectTrie) and forwards
//!   matching messages to local applications (§3.1 of the paper).
//! * **Reliable delivery** — per-publisher, per-subject sequencing with
//!   NAK-based retransmission: under normal operation messages arrive
//!   exactly once, in the order sent by each sender; after crashes or
//!   partitions, at most once.
//! * **Guaranteed delivery** — the message is logged to non-volatile
//!   storage *before* it is sent and retransmitted until every interested
//!   daemon acknowledges: at-least-once, across publisher restarts.
//! * **Batching** — the paper's batch parameter: small messages are
//!   gathered into MTU-sized packets to raise throughput (Appendix).
//! * **Dynamic discovery** (§3.2) — "Who's out there?" / "I am" as plain
//!   publications on a subject; no name service anywhere.
//! * **RMI** (§3.3) — servers are named by subjects; clients discover
//!   them with a publication, then invoke operations over a point-to-point
//!   connection; multiple servers per subject support load-balancing and
//!   fail-over policies.
//! * **Information routers** ([`router`]) — application-level bridges
//!   that splice bus segments into the illusion of one large bus,
//!   forwarding only subjects the remote side subscribes to.
//! * **Observability** — every daemon maintains protocol counters
//!   ([`BusStats`]) and, when [`BusConfig::stats_period_us`] is set,
//!   periodically publishes them as a self-describing object on the
//!   reserved subject `_INBUS.STATS.<host>.<daemon>`; any application can
//!   subscribe to `_INBUS.STATS.>` and watch the whole bus introspect
//!   itself through its own publish/subscribe machinery.
//!
//! Everything an application does goes through [`BusCtx`]; applications
//! implement [`BusApp`]. The driver-side [`BusFabric`] installs daemons
//! and attaches applications inside a simulation.
//!
//! The protocol itself — sequencing, NAK repair, guaranteed-delivery
//! ledgers, batching, discovery correlation — lives in the sans-I/O
//! [`engine`] module as pure state machines consuming `(now, Event)` and
//! emitting `Action`s. Two transports drive the same engine: the netsim
//! daemon ([`BusDaemon`]) and the real-thread in-process bus
//! ([`inproc`]), which carries the same envelopes between OS threads and
//! is used by the wall-clock microbenchmarks. New transports implement
//! [`engine::Transport`] and perform each action batch with
//! [`engine::run_actions`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod apps;
pub mod buf;
pub mod bus;
mod calls;
mod config;
mod daemon;
pub mod engine;
mod envelope;
mod fabric;
pub mod inproc;
mod interest;
mod links;
pub mod msg;
pub mod nvstore;
pub mod peers;
pub mod queue;
mod rmi;
pub mod router;

pub use app::{BusApp, BusCtx, BusMessage, DiscoveryReply, SubscriptionHandle};
pub use buf::{BufPool, Bytes, PooledBuf};
pub use bus::{Bus, BusReceiver, Delivery, Receiver};
pub use config::BusConfig;
pub use daemon::{BusDaemon, DAEMON_PORT, RMI_PORT};
pub use engine::filter::{CmpOp, CompiledPredicate, FilterError, Predicate};
pub use engine::{BusStats, RmiLatency, STATS_SUBJECT_PREFIX};
pub use envelope::{Envelope, EnvelopeKind, StreamKey};
pub use fabric::BusFabric;
pub use infobus_router::{SubjectMap, SubjectMapError};
pub use infobus_wal::FsyncPolicy;
pub use nvstore::NvStore;
pub use peers::PeerTable;
pub use rmi::{CallId, RetryMode, RmiError, SelectionPolicy, ServiceObject};

use std::fmt;

/// Delivery quality of service for a publication or subscription.
///
/// The paper (§3.1) offers *reliable* delivery as the usual semantics and
/// *guaranteed* delivery — logged to non-volatile storage before sending,
/// delivered at least once regardless of failures — for cases like
/// feeding a database over an unreliable network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QoS {
    /// Exactly-once, sender-ordered under normal operation; at-most-once
    /// across crashes and long partitions.
    #[default]
    Reliable,
    /// At-least-once, persisted on the publisher until every interested
    /// daemon acknowledges; survives publisher restarts.
    Guaranteed,
}

impl fmt::Display for QoS {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QoS::Reliable => write!(f, "reliable"),
            QoS::Guaranteed => write!(f, "guaranteed"),
        }
    }
}

/// Errors surfaced by bus operations.
///
/// Marked `#[non_exhaustive]`: match with a wildcard arm so new error
/// conditions (like observability-plane failures) compose without
/// breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum BusError {
    /// The subject or filter failed to parse.
    Subject(infobus_subject::SubjectError),
    /// The value could not be marshalled (unknown type).
    Marshal(String),
    /// The underlying network rejected the operation.
    Net(String),
    /// An application or service with this name already exists here.
    Duplicate(String),
    /// Referenced application, subscription, or service does not exist.
    NotFound(String),
    /// A remote method invocation failed.
    Rmi(RmiError),
    /// The configuration violates a cross-field invariant (e.g.
    /// [`BusConfig::batch_bytes`] exceeding the frame budget of
    /// [`BusConfig::path_mtu`]). Rejected when a driver opens, before
    /// any traffic.
    Config(String),
    /// A content predicate was rejected (too deep, too large, malformed
    /// path — see [`engine::filter::FilterError`]).
    Filter(engine::filter::FilterError),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Subject(e) => write!(f, "subject: {e}"),
            BusError::Marshal(e) => write!(f, "marshal: {e}"),
            BusError::Net(e) => write!(f, "network: {e}"),
            BusError::Duplicate(n) => write!(f, "duplicate name {n:?}"),
            BusError::NotFound(n) => write!(f, "not found: {n}"),
            BusError::Rmi(e) => write!(f, "rmi: {e}"),
            BusError::Config(e) => write!(f, "config: {e}"),
            BusError::Filter(e) => write!(f, "filter: {e}"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<infobus_subject::SubjectError> for BusError {
    fn from(e: infobus_subject::SubjectError) -> Self {
        BusError::Subject(e)
    }
}

impl From<RmiError> for BusError {
    fn from(e: RmiError) -> Self {
        BusError::Rmi(e)
    }
}

impl From<engine::filter::FilterError> for BusError {
    fn from(e: engine::filter::FilterError) -> Self {
        BusError::Filter(e)
    }
}
