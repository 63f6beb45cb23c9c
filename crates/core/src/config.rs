//! Tunable parameters of a bus daemon.

use std::path::PathBuf;
use std::sync::Arc;

use infobus_router::SubjectMap;
use infobus_wal::FsyncPolicy;

use crate::engine::Micros;

/// Configuration of one [`BusDaemon`](crate::BusDaemon).
///
/// Defaults reflect the paper's installation: batching available but
/// controlled by a parameter (latency tests turn it off, throughput tests
/// turn it on), NAK-based retransmission tuned for a LAN.
///
/// The struct is `#[non_exhaustive]`: build one from a preset
/// ([`BusConfig::default`], [`BusConfig::latency`],
/// [`BusConfig::throughput`]) and refine it with the chainable setters.
///
/// ```
/// use infobus_core::BusConfig;
/// let cfg = BusConfig::throughput()
///     .with_batch_bytes(1_200)
///     .with_stats_period_us(500_000);
/// assert!(cfg.batch_enabled);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Gather small publications into MTU-sized packets ("the Information
    /// Bus has a batch parameter that increases throughput by delaying
    /// small messages, and gathering them together").
    pub batch_enabled: bool,
    /// Flush the batch once this many payload bytes are queued. Must fit
    /// the frame budget of [`BusConfig::path_mtu`] (checked by
    /// [`BusConfig::validate`] when a datagram driver opens).
    pub batch_bytes: usize,
    /// The datagram size the path is assumed to carry without
    /// fragmentation, in bytes. Batches are flushed so that one
    /// [`Packet::Data`](crate::msg::Packet) frame —
    /// header, wrapper, and envelopes — fits inside it. Defaults to
    /// `1_472` (Ethernet MTU minus IPv4 + UDP headers).
    pub path_mtu: usize,
    /// Flush the batch after this much delay even if not full.
    pub batch_delay_us: Micros,
    /// How long a receiver waits on a sequence gap before NAKing.
    pub nak_delay_us: Micros,
    /// Period of the receiver's gap-scan timer.
    pub nak_check_us: Micros,
    /// Envelopes retained per (publisher, subject) stream for
    /// retransmission.
    pub retain_per_stream: usize,
    /// Retry period for unacknowledged guaranteed messages.
    pub gd_retry_us: Micros,
    /// How long an RMI client collects server offers before choosing.
    pub offer_window_us: Micros,
    /// RMI request timeout before fail-over / failure.
    pub rmi_timeout_us: Micros,
    /// Maximum RMI attempts (initial + fail-overs) for retrying policies.
    pub rmi_max_attempts: u32,
    /// Period of full subscription-table announcements (soft state for
    /// routers and guaranteed delivery).
    pub announce_period_us: Micros,
    /// Period of the publisher's stream-digest timer: idle streams
    /// broadcast their top sequence number a few times so receivers can
    /// detect tail losses.
    pub sync_period_us: Micros,
    /// How many digest rounds an idle stream broadcasts after its last
    /// publication.
    pub sync_rounds: u32,
    /// How long a discovery request collects "I am" announcements.
    pub discovery_window_us: Micros,
    /// Period of the daemon's self-description on the observability
    /// plane: every `stats_period_us` the daemon publishes a snapshot of
    /// its [`BusStats`](crate::BusStats) as a self-describing object on
    /// `_INBUS.STATS.<host>.<daemon>`. `0` (the default) disables the
    /// publication; counters are still maintained and readable through
    /// [`BusDaemon::stats`](crate::BusDaemon::stats).
    pub stats_period_us: Micros,
    /// Backpressure bound for real-thread drivers (the in-process and UDP
    /// buses): the maximum number of undrained messages queued per
    /// subscriber. When a subscriber stalls and its queue reaches the
    /// cap, the *oldest* queued message is dropped to admit the newest
    /// (and counted in
    /// [`BusStats::sub_queue_dropped`](crate::BusStats::sub_queue_dropped)),
    /// so a stalled consumer can no longer grow memory without bound.
    /// `0` (the default) keeps queues unbounded.
    pub subscriber_queue_cap: usize,
    /// Edge-tier session supervision: how long a thin-client session may
    /// go without *any* frame (heartbeat, ack, publish…) before the
    /// session broker evicts it. Defaults to `3_000_000` (3 s) — three
    /// missed default heartbeats.
    pub session_timeout_us: Micros,
    /// Edge-tier session supervision: the heartbeat period the broker
    /// advertises to thin clients in the `welcome` frame, and the period
    /// of its own freshness scan. Defaults to `1_000_000` (1 s).
    pub heartbeat_period_us: Micros,
    /// Edge-tier backpressure: the maximum number of unacknowledged
    /// delivery cursors a session may lag behind before the broker stops
    /// sending (pause) and buffers; a session whose buffer exceeds four
    /// times this lag has its oldest buffered deliveries dropped and
    /// counted ([`BusStats::sess_dropped`](crate::BusStats::sess_dropped)).
    /// Defaults to `64`.
    pub session_cursor_lag: u64,
    /// Period of the information router's self-stabilization pass: every
    /// `router_stabilize_us` a routing daemon revalidates its route and
    /// summary tables against locally-derivable truth, rebuilds what
    /// fails, and rotates its loop-suppression epoch. Defaults to
    /// `2_000_000` (2 s). Only daemons with router links run the pass.
    pub router_stabilize_us: Micros,
    /// Hop budget a routing daemon stamps onto publications entering the
    /// federation; each router crossing spends one hop. Defaults to `16`.
    pub router_max_hops: u8,
    /// Directory of the durable guaranteed-delivery ledger. `None` (the
    /// default) keeps the persist map in memory — guaranteed delivery
    /// then survives engine restarts but not process death. When set,
    /// wall-clock drivers write every `Persist`/`Unpersist` action
    /// through one write-ahead ledger under `<durable_dir>/shard-0` and
    /// replay it at start-up (see `infobus-wal` and
    /// [`NvStore`](crate::NvStore)).
    pub durable_dir: Option<PathBuf>,
    /// Rotation threshold of one ledger segment file, in bytes.
    /// Defaults to 1 MiB.
    pub segment_bytes: u64,
    /// When ledger frames are pushed to stable storage. Defaults to
    /// [`FsyncPolicy::Always`] (the paper's log-before-send contract
    /// taken literally); relax for benches.
    pub fsync: FsyncPolicy,
    /// Ceiling on ledger payload bytes mirrored in memory; entries past
    /// it are kept as disk references and read back on demand, so a
    /// slow subscriber cannot grow the persist map without bound.
    /// `0` keeps every live payload in memory. Defaults to 1 MiB.
    pub durable_mem_bytes: usize,
    /// The semantic subject layer ([`SubjectMap`]): synonym aliases and
    /// taxonomy broadening rules applied above the subject trie. Publish
    /// subjects and subscription filters are canonicalized, and filters
    /// covering a taxonomy category are expanded with the category's
    /// semantic members, so publishers and subscribers with different
    /// vocabularies share one fan-out path. Shared by `Arc` across every
    /// daemon of a segment. `None` (the default) disables the layer.
    pub subject_map: Option<Arc<SubjectMap>>,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            batch_enabled: false,
            batch_bytes: 1_400,
            path_mtu: 1_472,
            batch_delay_us: 2_000,
            nak_delay_us: 8_000,
            nak_check_us: 4_000,
            retain_per_stream: 256,
            gd_retry_us: 400_000,
            offer_window_us: 30_000,
            rmi_timeout_us: 900_000,
            rmi_max_attempts: 3,
            announce_period_us: 2_000_000,
            sync_period_us: 250_000,
            sync_rounds: 2,
            discovery_window_us: 50_000,
            stats_period_us: 0,
            subscriber_queue_cap: 0,
            session_timeout_us: 3_000_000,
            heartbeat_period_us: 1_000_000,
            session_cursor_lag: 64,
            router_stabilize_us: 2_000_000,
            router_max_hops: 16,
            durable_dir: None,
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            durable_mem_bytes: 1 << 20,
            subject_map: None,
        }
    }
}

impl BusConfig {
    /// The latency-test configuration: batching off (as in Figure 5).
    pub fn latency() -> Self {
        BusConfig {
            batch_enabled: false,
            ..BusConfig::default()
        }
    }

    /// The throughput-test configuration: batching on (Figures 6–8).
    pub fn throughput() -> Self {
        BusConfig {
            batch_enabled: true,
            ..BusConfig::default()
        }
    }

    /// Sets whether small publications are gathered into MTU-sized packets.
    pub fn with_batch_enabled(mut self, enabled: bool) -> Self {
        self.batch_enabled = enabled;
        self
    }

    /// Sets the byte threshold at which a batch is flushed.
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = bytes;
        self
    }

    /// Sets the assumed path MTU (the datagram size one framed batch
    /// must fit into).
    pub fn with_path_mtu(mut self, bytes: usize) -> Self {
        self.path_mtu = bytes;
        self
    }

    /// The largest batch payload that still fits one [`BusConfig::path_mtu`]
    /// datagram after the frame header and the data-packet wrapper.
    pub fn max_batch_payload(&self) -> usize {
        self.path_mtu
            .saturating_sub(crate::msg::FRAME_HEADER_LEN + crate::msg::DATA_PACKET_OVERHEAD)
    }

    /// How many marshal buffers a driver's `BufPool` should retain: the
    /// retransmission window pins a payload reference per retained
    /// envelope, so the pool must outsize the window (plus slack for
    /// in-flight deliveries) for steady-state publishes to recycle
    /// instead of allocate.
    pub fn marshal_pool_slots(&self) -> usize {
        self.retain_per_stream + 64
    }

    /// Checks cross-field invariants. Datagram drivers call this before
    /// opening a socket, so a configuration that would emit
    /// fragmenting frames is rejected up front instead of silently
    /// degrading on the wire.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`](crate::BusError) (`Config`) when
    /// [`BusConfig::batch_bytes`] exceeds the frame budget of
    /// [`BusConfig::path_mtu`].
    pub fn validate(&self) -> Result<(), crate::BusError> {
        let budget = self.max_batch_payload();
        if self.batch_bytes > budget {
            return Err(crate::BusError::Config(format!(
                "batch_bytes {} exceeds the {budget}-byte frame budget of path_mtu {}",
                self.batch_bytes, self.path_mtu
            )));
        }
        Ok(())
    }

    /// Sets the maximum delay before a partial batch is flushed.
    pub fn with_batch_delay_us(mut self, us: Micros) -> Self {
        self.batch_delay_us = us;
        self
    }

    /// Sets how long a receiver waits on a sequence gap before NAKing.
    pub fn with_nak_delay_us(mut self, us: Micros) -> Self {
        self.nak_delay_us = us;
        self
    }

    /// Sets the period of the receiver's gap-scan timer.
    pub fn with_nak_check_us(mut self, us: Micros) -> Self {
        self.nak_check_us = us;
        self
    }

    /// Sets how many envelopes each (publisher, subject) stream retains
    /// for retransmission.
    pub fn with_retain_per_stream(mut self, n: usize) -> Self {
        self.retain_per_stream = n;
        self
    }

    /// Sets the retry period for unacknowledged guaranteed messages.
    pub fn with_gd_retry_us(mut self, us: Micros) -> Self {
        self.gd_retry_us = us;
        self
    }

    /// Sets how long an RMI client collects server offers before choosing.
    pub fn with_offer_window_us(mut self, us: Micros) -> Self {
        self.offer_window_us = us;
        self
    }

    /// Sets the RMI request timeout before fail-over / failure.
    pub fn with_rmi_timeout_us(mut self, us: Micros) -> Self {
        self.rmi_timeout_us = us;
        self
    }

    /// Sets the maximum RMI attempts (initial + fail-overs).
    pub fn with_rmi_max_attempts(mut self, n: u32) -> Self {
        self.rmi_max_attempts = n;
        self
    }

    /// Sets the period of full subscription-table announcements.
    pub fn with_announce_period_us(mut self, us: Micros) -> Self {
        self.announce_period_us = us;
        self
    }

    /// Sets the period of the publisher's stream-digest timer.
    pub fn with_sync_period_us(mut self, us: Micros) -> Self {
        self.sync_period_us = us;
        self
    }

    /// Sets how many digest rounds an idle stream broadcasts.
    pub fn with_sync_rounds(mut self, n: u32) -> Self {
        self.sync_rounds = n;
        self
    }

    /// Sets how long a discovery request collects "I am" announcements.
    pub fn with_discovery_window_us(mut self, us: Micros) -> Self {
        self.discovery_window_us = us;
        self
    }

    /// Sets the period of the daemon's [`BusStats`](crate::BusStats)
    /// publication on `_INBUS.STATS.<host>.<daemon>` (`0` disables it).
    pub fn with_stats_period_us(mut self, us: Micros) -> Self {
        self.stats_period_us = us;
        self
    }

    /// Sets the per-subscriber queue cap for real-thread drivers
    /// (drop-oldest once full; `0` = unbounded).
    pub fn with_subscriber_queue_cap(mut self, cap: usize) -> Self {
        self.subscriber_queue_cap = cap;
        self
    }

    /// Sets how long a thin-client session may stay silent before the
    /// edge session broker evicts it.
    pub fn with_session_timeout_us(mut self, us: Micros) -> Self {
        self.session_timeout_us = us;
        self
    }

    /// Sets the heartbeat period the edge session broker advertises to
    /// thin clients (and the period of its freshness scan).
    pub fn with_heartbeat_period_us(mut self, us: Micros) -> Self {
        self.heartbeat_period_us = us;
        self
    }

    /// Sets the maximum unacknowledged delivery-cursor lag before a
    /// session is paused (buffer bounded at four times the lag,
    /// drop-oldest past that).
    pub fn with_session_cursor_lag(mut self, lag: u64) -> Self {
        self.session_cursor_lag = lag;
        self
    }

    /// Sets the period of the information router's self-stabilization
    /// pass (route/summary-table revalidation and epoch rotation).
    pub fn with_router_stabilize_us(mut self, us: Micros) -> Self {
        self.router_stabilize_us = us;
        self
    }

    /// Sets the hop budget stamped onto publications entering the
    /// federation through this daemon's router links.
    pub fn with_router_max_hops(mut self, hops: u8) -> Self {
        self.router_max_hops = hops;
        self
    }

    /// Sets the durable guaranteed-delivery ledger directory (the
    /// write-ahead segments live under it).
    pub fn with_durable_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Sets the ledger segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Sets the ledger fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the in-memory ceiling of the durable persist map (`0` =
    /// keep every live payload in memory).
    pub fn with_durable_mem_bytes(mut self, bytes: usize) -> Self {
        self.durable_mem_bytes = bytes;
        self
    }

    /// Installs the semantic subject layer (synonym aliases + taxonomy
    /// broadening; see [`SubjectMap`]). Pass the same `Arc` to every
    /// daemon of a segment so all of them rewrite identically.
    pub fn with_subject_map(mut self, map: Arc<SubjectMap>) -> Self {
        self.subject_map = Some(map);
        self
    }

    /// The semantic layer, if one is installed and non-empty (drivers
    /// skip the rewrite path entirely otherwise).
    pub fn semantic_map(&self) -> Option<&Arc<SubjectMap>> {
        self.subject_map.as_ref().filter(|m| !m.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn setters_chain_and_presets_hold() {
        let cfg = BusConfig::latency()
            .with_batch_enabled(true)
            .with_batch_bytes(999)
            .with_batch_delay_us(1)
            .with_nak_delay_us(2)
            .with_nak_check_us(3)
            .with_retain_per_stream(4)
            .with_gd_retry_us(5)
            .with_offer_window_us(6)
            .with_rmi_timeout_us(7)
            .with_rmi_max_attempts(8)
            .with_announce_period_us(9)
            .with_sync_period_us(10)
            .with_sync_rounds(11)
            .with_discovery_window_us(12)
            .with_stats_period_us(13)
            .with_subscriber_queue_cap(14)
            .with_session_timeout_us(16)
            .with_heartbeat_period_us(17)
            .with_session_cursor_lag(18)
            .with_router_stabilize_us(21)
            .with_router_max_hops(22)
            .with_durable_dir("/tmp/ledger")
            .with_segment_bytes(19)
            .with_fsync(FsyncPolicy::OnRotate)
            .with_durable_mem_bytes(20);
        assert!(cfg.batch_enabled);
        assert_eq!(cfg.batch_bytes, 999);
        assert_eq!(cfg.rmi_max_attempts, 8);
        assert_eq!(cfg.stats_period_us, 13);
        assert_eq!(cfg.subscriber_queue_cap, 14);
        assert_eq!(cfg.session_timeout_us, 16);
        assert_eq!(cfg.heartbeat_period_us, 17);
        assert_eq!(cfg.session_cursor_lag, 18);
        assert_eq!(cfg.router_stabilize_us, 21);
        assert_eq!(cfg.router_max_hops, 22);
        assert_eq!(cfg.durable_dir.as_deref(), Some(Path::new("/tmp/ledger")));
        assert_eq!(cfg.segment_bytes, 19);
        assert_eq!(cfg.fsync, FsyncPolicy::OnRotate);
        assert_eq!(cfg.durable_mem_bytes, 20);
        assert_eq!(BusConfig::default().durable_dir, None);
        assert_eq!(BusConfig::default().segment_bytes, 1 << 20);
        assert_eq!(BusConfig::default().fsync, FsyncPolicy::Always);
        assert_eq!(BusConfig::default().durable_mem_bytes, 1 << 20);
        assert_eq!(BusConfig::default().stats_period_us, 0);
        assert_eq!(BusConfig::default().subscriber_queue_cap, 0);
        assert_eq!(BusConfig::default().session_timeout_us, 3_000_000);
        assert_eq!(BusConfig::default().heartbeat_period_us, 1_000_000);
        assert_eq!(BusConfig::default().session_cursor_lag, 64);
        assert_eq!(BusConfig::default().router_stabilize_us, 2_000_000);
        assert_eq!(BusConfig::default().router_max_hops, 16);
        assert!(BusConfig::throughput().batch_enabled);
        assert!(!BusConfig::latency().batch_enabled);
        assert_eq!(BusConfig::default().path_mtu, 1_472);
        assert_eq!(BusConfig::default().with_path_mtu(9_000).path_mtu, 9_000);
    }

    #[test]
    fn batch_bytes_must_fit_the_frame_budget() {
        // Default: 1400 payload bytes inside a 1472-byte datagram, with
        // 15 bytes of frame header + data wrapper to spare.
        let cfg = BusConfig::default();
        assert_eq!(cfg.max_batch_payload(), 1_457);
        assert!(cfg.validate().is_ok());
        // A batch threshold the MTU cannot carry is rejected.
        let bad = BusConfig::throughput().with_batch_bytes(1_458);
        assert!(matches!(bad.validate(), Err(crate::BusError::Config(_))));
        // Raising the path MTU restores it.
        assert!(bad.with_path_mtu(9_000).validate().is_ok());
        // Degenerate MTUs cannot underflow.
        assert_eq!(BusConfig::default().with_path_mtu(8).max_batch_payload(), 0);
    }
}
