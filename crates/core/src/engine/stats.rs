//! Protocol counters: the observability face of the engine.
//!
//! [`BusStats`] is maintained by the pure protocol engine and read by
//! drivers, tests, and the bench harness. A snapshot converts to a
//! self-describing [`DataObject`] with [`BusStats::to_object`]; the netsim
//! daemon publishes that object periodically on
//! `_INBUS.STATS.<host>.<daemon>` (see
//! [`STATS_SUBJECT_PREFIX`]).

use infobus_types::{DataObject, TypeDescriptor, TypeRegistry, Value, ValueType};

use super::Micros;

/// Reserved subject prefix of the observability plane: every daemon with
/// [`BusConfig::stats_period_us`](crate::BusConfig::stats_period_us) set
/// publishes its [`BusStats`] snapshot on `_INBUS.STATS.<host>.<daemon>`.
/// Subscribe to `_INBUS.STATS.>` to watch the whole bus.
pub const STATS_SUBJECT_PREFIX: &str = "_INBUS.STATS";

/// A small fixed-bucket histogram of RMI call latencies (request issue
/// to reply delivery, in microseconds).
///
/// Bucket upper bounds are [`RmiLatency::BOUNDS_US`]; the final bucket is
/// unbounded. The histogram also tracks count and sum, so the mean
/// survives the trip through a stats snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RmiLatency {
    buckets: [u64; 8],
    count: u64,
    sum_us: u64,
}

impl RmiLatency {
    /// Upper bounds (inclusive, µs) of the first seven buckets; the
    /// eighth bucket collects everything slower.
    pub const BOUNDS_US: [u64; 7] = [1_000, 2_000, 5_000, 10_000, 50_000, 200_000, 1_000_000];

    /// Records one completed call's latency.
    pub fn record(&mut self, us: Micros) {
        let idx = Self::BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(Self::BOUNDS_US.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    /// Per-bucket counts (aligned with [`RmiLatency::BOUNDS_US`] plus the
    /// overflow bucket).
    pub fn buckets(&self) -> &[u64; 8] {
        &self.buckets
    }

    /// Number of recorded calls.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean recorded latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Adds another histogram into this one, bucket by bucket. Because
    /// every histogram uses the same [`RmiLatency::BOUNDS_US`], merging
    /// loses nothing: counts, sums, and per-bucket tallies all add.
    pub fn merge_from(&mut self, other: &RmiLatency) {
        for (slot, add) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *slot += add;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }
}

/// Counters exposed by a daemon (used by tests and the bench harness).
///
/// A snapshot converts to a self-describing [`DataObject`] with
/// [`BusStats::to_object`]; daemons with
/// [`BusConfig::stats_period_us`](crate::BusConfig::stats_period_us) set
/// publish that object periodically on `_INBUS.STATS.<host>.<daemon>`
/// (see [`STATS_SUBJECT_PREFIX`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Envelopes published by local applications.
    pub published: u64,
    /// Payload bytes published by local applications.
    pub published_bytes: u64,
    /// Messages delivered to local applications.
    pub delivered: u64,
    /// Payload bytes delivered to local applications.
    pub delivered_bytes: u64,
    /// Broadcast envelopes ignored because nothing local matched.
    pub filtered: u64,
    /// NAKs sent (gaps detected).
    pub naks_sent: u64,
    /// NAK packets received and answered as a publisher.
    pub naks_served: u64,
    /// Envelopes retransmitted in answer to NAKs.
    pub retransmitted: u64,
    /// Gap-skips issued (history no longer retained).
    pub gapskips_sent: u64,
    /// Sequences abandoned after a gap-skip (at-most-once path).
    pub gaps_skipped: u64,
    /// Duplicate envelopes dropped.
    pub dups_dropped: u64,
    /// Acks sent for guaranteed envelopes.
    pub acks_sent: u64,
    /// Acks received for guaranteed envelopes we published.
    pub gd_acks_received: u64,
    /// Guaranteed envelopes currently pending acknowledgment.
    pub gd_pending: u64,
    /// Guaranteed envelopes fully acknowledged and released.
    pub gd_completed: u64,
    /// Guaranteed retransmission rounds performed.
    pub gd_retries: u64,
    /// Envelopes whose payload failed to unmarshal.
    pub unmarshal_errors: u64,
    /// Batches flushed to the wire.
    pub batch_flushes: u64,
    /// Envelopes carried by those batches (mean occupancy =
    /// [`BusStats::mean_batch_occupancy`]).
    pub batch_envelopes: u64,
    /// Discovery rounds started by local applications.
    pub discovery_rounds: u64,
    /// RMI calls issued by local applications.
    pub rmi_calls: u64,
    /// RMI requests served.
    pub rmi_served: u64,
    /// RMI duplicate requests answered from the dedup cache.
    pub rmi_deduped: u64,
    /// Latency histogram of completed RMI calls.
    pub rmi_latency: RmiLatency,
    /// Envelopes forwarded over information-router links.
    pub router_forwarded: u64,
    /// Subscription summaries sent over router links.
    pub route_summaries_sent: u64,
    /// Subscription summaries received from router links.
    pub route_summaries_recv: u64,
    /// Forwarded publications dropped by the router's loop suppression
    /// (origin check, dedup window, hop exhaustion).
    pub route_loops_suppressed: u64,
    /// Route entries flushed because their summary aged out without a
    /// soft-state refresh.
    pub route_stale_aged: u64,
    /// Router tables rebuilt by the self-stabilization pass.
    pub route_stab_repairs: u64,
    /// Stats snapshots published on the observability plane.
    pub stats_published: u64,
    /// Messages currently queued across subscriber queues (a gauge,
    /// sampled when the snapshot is taken; real-thread drivers only).
    pub sub_queue_depth: u64,
    /// Messages evicted from full subscriber queues under the drop-oldest
    /// backpressure policy
    /// ([`BusConfig::subscriber_queue_cap`](crate::BusConfig::subscriber_queue_cap)).
    pub sub_queue_dropped: u64,
    /// Datagrams sent by a socket transport (UDP driver).
    pub net_tx_packets: u64,
    /// Bytes sent by a socket transport.
    pub net_tx_bytes: u64,
    /// Datagrams received by a socket transport.
    pub net_rx_packets: u64,
    /// Bytes received by a socket transport.
    pub net_rx_bytes: u64,
    /// Datagrams abandoned after send retries were exhausted.
    pub net_send_errors: u64,
    /// Send retries performed after transient socket errors.
    pub net_send_retries: u64,
    /// Received datagrams that failed frame/packet decoding (truncation,
    /// bad magic, version mismatch, garbage).
    pub net_decode_errors: u64,
    /// Received datagrams deliberately dropped by the transport's
    /// loss-injection knob (testing/fault drills).
    pub net_recv_dropped: u64,
    /// Thin-client sessions currently live on the edge session broker (a
    /// gauge, like `gd_pending`).
    pub sess_active: u64,
    /// Sessions admitted by a `bus-v1` hello handshake.
    pub sess_opened: u64,
    /// Hello frames rejected (wrong protocol, bad capability token, or a
    /// session already bound to the connection).
    pub sess_rejected: u64,
    /// Sessions closed by an explicit client `bye`.
    pub sess_closed: u64,
    /// Sessions evicted by the freshness scan after
    /// [`BusConfig::session_timeout_us`](crate::BusConfig::session_timeout_us)
    /// of silence.
    pub sess_evicted: u64,
    /// Heartbeat frames received from sessions.
    pub sess_heartbeats: u64,
    /// Publications accepted from sessions (edge fan-in).
    pub sess_published: u64,
    /// Deliveries sent to sessions (edge fan-out; one matched publication
    /// delivered to N sessions counts N).
    pub sess_delivered: u64,
    /// Deliveries buffered instead of sent because the session exceeded
    /// its unacknowledged cursor lag
    /// ([`BusConfig::session_cursor_lag`](crate::BusConfig::session_cursor_lag)).
    pub sess_paused: u64,
    /// Buffered deliveries dropped (oldest first) after a paused session's
    /// buffer overflowed its bound.
    pub sess_dropped: u64,
    /// Guaranteed envelopes appended to the durable ledger (drivers with
    /// [`BusConfig::durable_dir`](crate::BusConfig::durable_dir) set).
    pub gd_ledger_appends: u64,
    /// Bytes written to durable ledger segments (frames of both kinds).
    pub gd_ledger_bytes: u64,
    /// Ledger segment files currently on disk (a gauge).
    pub gd_ledger_segments: u64,
    /// Ledger compaction passes performed.
    pub gd_ledger_compactions: u64,
    /// Valid ledger frames replayed by open-time recovery.
    pub gd_ledger_recovered: u64,
    /// Torn or corrupt ledger tails truncated during recovery.
    pub gd_ledger_truncations: u64,
    /// Distinct subjects interned in the daemon's
    /// [`SubjectTable`](infobus_subject::SubjectTable) (a gauge, sampled
    /// at snapshot time).
    pub subj_interned: u64,
    /// Marshal buffers served by recycling a pooled allocation
    /// ([`BufPool`](crate::buf::BufPool) hits; real-thread drivers).
    pub buf_pool_hits: u64,
    /// Marshal buffers that required a fresh allocation (pool misses).
    pub buf_pool_misses: u64,
    /// Content-predicate evaluations performed (publish gate + delivery
    /// gate).
    pub filt_evals: u64,
    /// Publications suppressed at the publisher's daemon because every
    /// matching interest carried a rejecting predicate — never framed,
    /// never sequenced, never sent.
    pub filt_pub_suppressed: u64,
    /// Deliveries suppressed at the delivery gate (a matching
    /// subscription's own predicate rejected the payload).
    pub filt_delivery_suppressed: u64,
    /// Approximate payload bytes the publish gate kept off the wire
    /// (suppressed publications × approximate marshalled size).
    pub filt_suppressed_bytes: u64,
    /// Subjects and filters rewritten by the semantic
    /// [`SubjectMap`](infobus_router::SubjectMap) (synonym
    /// canonicalization at publish/subscribe boundaries).
    pub sem_canonicalized: u64,
    /// Extra trie insertions created by taxonomy broadening (one
    /// subscription fanning out to additional semantic filters).
    pub sem_expanded_filters: u64,
}

/// Attribute names of the `"BusStats"` descriptor, in declaration order.
/// One source of truth for registration, `to_object`, and `from_object`.
const STATS_COUNTERS: &[&str] = &[
    "published",
    "published_bytes",
    "delivered",
    "delivered_bytes",
    "filtered",
    "naks_sent",
    "naks_served",
    "retransmitted",
    "gapskips_sent",
    "gaps_skipped",
    "dups_dropped",
    "acks_sent",
    "gd_acks_received",
    "gd_pending",
    "gd_completed",
    "gd_retries",
    "unmarshal_errors",
    "batch_flushes",
    "batch_envelopes",
    "discovery_rounds",
    "rmi_calls",
    "rmi_served",
    "rmi_deduped",
    "router_forwarded",
    "route_summaries_sent",
    "route_summaries_recv",
    "route_loops_suppressed",
    "route_stale_aged",
    "route_stab_repairs",
    "stats_published",
    "sub_queue_depth",
    "sub_queue_dropped",
    "net_tx_packets",
    "net_tx_bytes",
    "net_rx_packets",
    "net_rx_bytes",
    "net_send_errors",
    "net_send_retries",
    "net_decode_errors",
    "net_recv_dropped",
    "sess_active",
    "sess_opened",
    "sess_rejected",
    "sess_closed",
    "sess_evicted",
    "sess_heartbeats",
    "sess_published",
    "sess_delivered",
    "sess_paused",
    "sess_dropped",
    "gd_ledger_appends",
    "gd_ledger_bytes",
    "gd_ledger_segments",
    "gd_ledger_compactions",
    "gd_ledger_recovered",
    "gd_ledger_truncations",
    "subj_interned",
    "buf_pool_hits",
    "buf_pool_misses",
    "filt_evals",
    "filt_pub_suppressed",
    "filt_delivery_suppressed",
    "filt_suppressed_bytes",
    "sem_canonicalized",
    "sem_expanded_filters",
];

impl BusStats {
    /// Adds every counter of `other` into this snapshot, including the
    /// RMI latency histogram. This is how the snapshots of several
    /// daemons combine into one: monotonic counters sum, and the gauges
    /// (`gd_pending`, `sub_queue_depth`, `sess_active`) sum too because
    /// each daemon owns a disjoint slice of the pending set, the queues,
    /// and the sessions.
    pub fn merge_from(&mut self, other: &BusStats) {
        for name in STATS_COUNTERS {
            let add = other.counter(name);
            if let Some(slot) = self.counter_mut(name) {
                *slot += add;
            }
        }
        self.rmi_latency.merge_from(&other.rmi_latency);
    }

    /// Mean envelopes per flushed batch (0 when batching never flushed).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batch_flushes == 0 {
            0.0
        } else {
            self.batch_envelopes as f64 / self.batch_flushes as f64
        }
    }

    fn counter(&self, name: &str) -> u64 {
        match name {
            "published" => self.published,
            "published_bytes" => self.published_bytes,
            "delivered" => self.delivered,
            "delivered_bytes" => self.delivered_bytes,
            "filtered" => self.filtered,
            "naks_sent" => self.naks_sent,
            "naks_served" => self.naks_served,
            "retransmitted" => self.retransmitted,
            "gapskips_sent" => self.gapskips_sent,
            "gaps_skipped" => self.gaps_skipped,
            "dups_dropped" => self.dups_dropped,
            "acks_sent" => self.acks_sent,
            "gd_acks_received" => self.gd_acks_received,
            "gd_pending" => self.gd_pending,
            "gd_completed" => self.gd_completed,
            "gd_retries" => self.gd_retries,
            "unmarshal_errors" => self.unmarshal_errors,
            "batch_flushes" => self.batch_flushes,
            "batch_envelopes" => self.batch_envelopes,
            "discovery_rounds" => self.discovery_rounds,
            "rmi_calls" => self.rmi_calls,
            "rmi_served" => self.rmi_served,
            "rmi_deduped" => self.rmi_deduped,
            "router_forwarded" => self.router_forwarded,
            "route_summaries_sent" => self.route_summaries_sent,
            "route_summaries_recv" => self.route_summaries_recv,
            "route_loops_suppressed" => self.route_loops_suppressed,
            "route_stale_aged" => self.route_stale_aged,
            "route_stab_repairs" => self.route_stab_repairs,
            "stats_published" => self.stats_published,
            "sub_queue_depth" => self.sub_queue_depth,
            "sub_queue_dropped" => self.sub_queue_dropped,
            "net_tx_packets" => self.net_tx_packets,
            "net_tx_bytes" => self.net_tx_bytes,
            "net_rx_packets" => self.net_rx_packets,
            "net_rx_bytes" => self.net_rx_bytes,
            "net_send_errors" => self.net_send_errors,
            "net_send_retries" => self.net_send_retries,
            "net_decode_errors" => self.net_decode_errors,
            "net_recv_dropped" => self.net_recv_dropped,
            "sess_active" => self.sess_active,
            "sess_opened" => self.sess_opened,
            "sess_rejected" => self.sess_rejected,
            "sess_closed" => self.sess_closed,
            "sess_evicted" => self.sess_evicted,
            "sess_heartbeats" => self.sess_heartbeats,
            "sess_published" => self.sess_published,
            "sess_delivered" => self.sess_delivered,
            "sess_paused" => self.sess_paused,
            "sess_dropped" => self.sess_dropped,
            "gd_ledger_appends" => self.gd_ledger_appends,
            "gd_ledger_bytes" => self.gd_ledger_bytes,
            "gd_ledger_segments" => self.gd_ledger_segments,
            "gd_ledger_compactions" => self.gd_ledger_compactions,
            "gd_ledger_recovered" => self.gd_ledger_recovered,
            "gd_ledger_truncations" => self.gd_ledger_truncations,
            "subj_interned" => self.subj_interned,
            "buf_pool_hits" => self.buf_pool_hits,
            "buf_pool_misses" => self.buf_pool_misses,
            "filt_evals" => self.filt_evals,
            "filt_pub_suppressed" => self.filt_pub_suppressed,
            "filt_delivery_suppressed" => self.filt_delivery_suppressed,
            "filt_suppressed_bytes" => self.filt_suppressed_bytes,
            "sem_canonicalized" => self.sem_canonicalized,
            "sem_expanded_filters" => self.sem_expanded_filters,
            _ => 0,
        }
    }

    fn counter_mut(&mut self, name: &str) -> Option<&mut u64> {
        Some(match name {
            "published" => &mut self.published,
            "published_bytes" => &mut self.published_bytes,
            "delivered" => &mut self.delivered,
            "delivered_bytes" => &mut self.delivered_bytes,
            "filtered" => &mut self.filtered,
            "naks_sent" => &mut self.naks_sent,
            "naks_served" => &mut self.naks_served,
            "retransmitted" => &mut self.retransmitted,
            "gapskips_sent" => &mut self.gapskips_sent,
            "gaps_skipped" => &mut self.gaps_skipped,
            "dups_dropped" => &mut self.dups_dropped,
            "acks_sent" => &mut self.acks_sent,
            "gd_acks_received" => &mut self.gd_acks_received,
            "gd_pending" => &mut self.gd_pending,
            "gd_completed" => &mut self.gd_completed,
            "gd_retries" => &mut self.gd_retries,
            "unmarshal_errors" => &mut self.unmarshal_errors,
            "batch_flushes" => &mut self.batch_flushes,
            "batch_envelopes" => &mut self.batch_envelopes,
            "discovery_rounds" => &mut self.discovery_rounds,
            "rmi_calls" => &mut self.rmi_calls,
            "rmi_served" => &mut self.rmi_served,
            "rmi_deduped" => &mut self.rmi_deduped,
            "router_forwarded" => &mut self.router_forwarded,
            "route_summaries_sent" => &mut self.route_summaries_sent,
            "route_summaries_recv" => &mut self.route_summaries_recv,
            "route_loops_suppressed" => &mut self.route_loops_suppressed,
            "route_stale_aged" => &mut self.route_stale_aged,
            "route_stab_repairs" => &mut self.route_stab_repairs,
            "stats_published" => &mut self.stats_published,
            "sub_queue_depth" => &mut self.sub_queue_depth,
            "sub_queue_dropped" => &mut self.sub_queue_dropped,
            "net_tx_packets" => &mut self.net_tx_packets,
            "net_tx_bytes" => &mut self.net_tx_bytes,
            "net_rx_packets" => &mut self.net_rx_packets,
            "net_rx_bytes" => &mut self.net_rx_bytes,
            "net_send_errors" => &mut self.net_send_errors,
            "net_send_retries" => &mut self.net_send_retries,
            "net_decode_errors" => &mut self.net_decode_errors,
            "net_recv_dropped" => &mut self.net_recv_dropped,
            "sess_active" => &mut self.sess_active,
            "sess_opened" => &mut self.sess_opened,
            "sess_rejected" => &mut self.sess_rejected,
            "sess_closed" => &mut self.sess_closed,
            "sess_evicted" => &mut self.sess_evicted,
            "sess_heartbeats" => &mut self.sess_heartbeats,
            "sess_published" => &mut self.sess_published,
            "sess_delivered" => &mut self.sess_delivered,
            "sess_paused" => &mut self.sess_paused,
            "sess_dropped" => &mut self.sess_dropped,
            "gd_ledger_appends" => &mut self.gd_ledger_appends,
            "gd_ledger_bytes" => &mut self.gd_ledger_bytes,
            "gd_ledger_segments" => &mut self.gd_ledger_segments,
            "gd_ledger_compactions" => &mut self.gd_ledger_compactions,
            "gd_ledger_recovered" => &mut self.gd_ledger_recovered,
            "gd_ledger_truncations" => &mut self.gd_ledger_truncations,
            "subj_interned" => &mut self.subj_interned,
            "buf_pool_hits" => &mut self.buf_pool_hits,
            "buf_pool_misses" => &mut self.buf_pool_misses,
            "filt_evals" => &mut self.filt_evals,
            "filt_pub_suppressed" => &mut self.filt_pub_suppressed,
            "filt_delivery_suppressed" => &mut self.filt_delivery_suppressed,
            "filt_suppressed_bytes" => &mut self.filt_suppressed_bytes,
            "sem_canonicalized" => &mut self.sem_canonicalized,
            "sem_expanded_filters" => &mut self.sem_expanded_filters,
            _ => return None,
        })
    }

    /// Registers the `"BusStats"` type descriptor (idempotent). Every
    /// daemon does this at start-up, so published snapshots travel
    /// self-describing and validate at any receiver.
    pub fn register_type(reg: &mut TypeRegistry) {
        if reg.contains("BusStats") {
            return;
        }
        let mut b = TypeDescriptor::builder("BusStats")
            .attribute("host", ValueType::Str)
            .attribute("daemon", ValueType::Str)
            .attribute("at_us", ValueType::I64);
        for name in STATS_COUNTERS {
            b = b.attribute(*name, ValueType::I64);
        }
        let b = b
            .attribute("rmi_latency_buckets", ValueType::list_of(ValueType::I64))
            .attribute("rmi_latency_count", ValueType::I64)
            .attribute("rmi_latency_sum_us", ValueType::I64);
        // Infallible: the descriptor is built from static attribute names
        // and the duplicate-registration case returned above already.
        reg.register(b.build())
            .expect("BusStats descriptor is well-formed");
    }

    /// Converts the snapshot into a self-describing `"BusStats"` object
    /// stamped with the daemon's identity and the snapshot time.
    pub fn to_object(&self, host: &str, daemon: &str, at_us: Micros) -> DataObject {
        let mut obj = DataObject::new("BusStats")
            .with("host", host)
            .with("daemon", daemon)
            .with("at_us", at_us as i64);
        for name in STATS_COUNTERS {
            obj.set(*name, self.counter(name) as i64);
        }
        obj.set(
            "rmi_latency_buckets",
            Value::List(
                self.rmi_latency
                    .buckets
                    .iter()
                    .map(|&c| Value::I64(c as i64))
                    .collect(),
            ),
        );
        obj.set("rmi_latency_count", self.rmi_latency.count as i64);
        obj.set("rmi_latency_sum_us", self.rmi_latency.sum_us as i64);
        obj
    }

    /// Reconstructs a snapshot from a `"BusStats"` object (the inverse of
    /// [`BusStats::to_object`]); `None` if the object is not one.
    pub fn from_object(obj: &DataObject) -> Option<BusStats> {
        if obj.type_name() != "BusStats" {
            return None;
        }
        let mut stats = BusStats::default();
        for name in STATS_COUNTERS {
            let v = obj.get(name)?.as_i64()?;
            *stats.counter_mut(name)? = v as u64;
        }
        if let Some(items) = obj.get("rmi_latency_buckets").and_then(Value::as_list) {
            for (slot, v) in stats.rmi_latency.buckets.iter_mut().zip(items) {
                *slot = v.as_i64()? as u64;
            }
        }
        stats.rmi_latency.count = obj.get("rmi_latency_count")?.as_i64()? as u64;
        stats.rmi_latency.sum_us = obj.get("rmi_latency_sum_us")?.as_i64()? as u64;
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every counter set to a distinct nonzero value and
    /// a populated latency histogram, so a lossy merge of any field shows
    /// up as an inequality.
    fn dense() -> BusStats {
        let mut s = BusStats::default();
        for (i, name) in STATS_COUNTERS.iter().enumerate() {
            *s.counter_mut(name).expect("known counter") = 100 + i as u64 * 7;
        }
        for us in [500, 1_500, 9_000, 40_000, 3_000_000] {
            s.rmi_latency.record(us);
        }
        s
    }

    /// Splits a snapshot into `k` parts whose counters sum
    /// back to the original: counter value `v` becomes `v / k` per part
    /// plus the remainder on part 0, and each histogram observation goes
    /// to one part round-robin.
    fn split(s: &BusStats, k: usize) -> Vec<BusStats> {
        let mut parts = vec![BusStats::default(); k];
        for name in STATS_COUNTERS {
            let v = s.counter(name);
            for (i, p) in parts.iter_mut().enumerate() {
                let share = v / k as u64 + if i == 0 { v % k as u64 } else { 0 };
                *p.counter_mut(name).expect("known counter") = share;
            }
        }
        for (b, &count) in s.rmi_latency.buckets().iter().enumerate() {
            // Reconstruct per-bucket observations at the bucket's bound
            // (anything past the last bound lands in the overflow bucket;
            // the sums are overwritten below).
            let us = RmiLatency::BOUNDS_US.get(b).copied().unwrap_or(2_000_000);
            for obs in 0..count {
                parts[obs as usize % k].rmi_latency.record(us);
            }
        }
        // record() re-derives sum_us from the reconstructed observations;
        // overwrite the parts' sums so they add up to the original
        // exactly (merge must preserve sums bit-for-bit).
        for p in parts.iter_mut() {
            p.rmi_latency.sum_us = s.rmi_latency.sum_us / k as u64;
        }
        parts[0].rmi_latency.sum_us += s.rmi_latency.sum_us % k as u64;
        parts
    }

    #[test]
    fn merge_of_split_is_identity() {
        let s = dense();
        for k in [1, 2, 4, 7] {
            let mut merged = BusStats::default();
            for p in &split(&s, k) {
                merged.merge_from(p);
            }
            assert_eq!(merged, s, "merge(split(s, {k})) != s");
        }
    }

    #[test]
    fn merge_preserves_sums_and_histogram_buckets() {
        let a = dense();
        let mut b = dense();
        b.naks_sent = 3;
        b.sub_queue_depth = 999;
        b.rmi_latency.record(123);
        let mut merged = a.clone();
        merged.merge_from(&b);
        for name in STATS_COUNTERS {
            assert_eq!(
                merged.counter(name),
                a.counter(name) + b.counter(name),
                "counter {name} did not sum"
            );
        }
        for (i, bucket) in merged.rmi_latency.buckets().iter().enumerate() {
            assert_eq!(
                *bucket,
                a.rmi_latency.buckets()[i] + b.rmi_latency.buckets()[i],
                "histogram bucket {i} did not sum"
            );
        }
        assert_eq!(
            merged.rmi_latency.count(),
            a.rmi_latency.count() + b.rmi_latency.count()
        );
    }

    #[test]
    fn merge_with_default_is_identity() {
        let s = dense();
        let mut m = s.clone();
        m.merge_from(&BusStats::default());
        assert_eq!(m, s);
    }
}
