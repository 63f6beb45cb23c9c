//! The benchmark's vocabulary: workload names and rationales, the
//! end-to-end metrics with their regression bounds, and every per-layer
//! metric. `BENCHMARK.json` at the repo root is generated from these
//! tables (`--describe`), and a unit test keeps the committed file equal
//! to them.

use crate::json;

/// How long one run measures (paced plus saturate phase), in seconds —
/// `run_seconds` in `BENCHMARK.json` and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 12;

/// The seven loopback workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TickUdp,
    TickReactor,
    TickBatchedUdp,
    FanoutInproc,
    FilteredUdp,
    LossyUdp,
    GuaranteedUdp,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::TickUdp,
        Workload::TickReactor,
        Workload::TickBatchedUdp,
        Workload::FanoutInproc,
        Workload::FilteredUdp,
        Workload::LossyUdp,
        Workload::GuaranteedUdp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TickUdp => "tick_udp",
            Workload::TickReactor => "tick_reactor",
            Workload::TickBatchedUdp => "tick_batched_udp",
            Workload::FanoutInproc => "fanout_inproc",
            Workload::FilteredUdp => "filtered_udp",
            Workload::LossyUdp => "lossy_udp",
            Workload::GuaranteedUdp => "guaranteed_udp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TickUdp => {
                "Smallest message across two UdpBus daemons on loopback, unbatched Reliable: \
                 per-packet cost (lock, frame, 1 send_to + 1 recv_from per message) does nearly \
                 all the work; trie, filter, WAL none."
            }
            Workload::TickReactor => {
                "Same traffic on two ReactorBus daemons: same engine, other driver, so it \
                 isolates the reactor loop and its idle poll sleep. A reactor change must move \
                 this and leave tick_udp alone."
            }
            Workload::TickBatchedUdp => {
                "tick_udp with batching on (about 5 envelopes per datagram): uses the net layer \
                 differently, so syscall batching gains little here and a batch-flush change \
                 shows as a latency loss."
            }
            Workload::FanoutInproc => {
                "No socket: 1 KB Story marshal, the fan-out memo, 8 queue pushes per publish, \
                 and subscription churn (writes beside reads on a 1008-filter trie). A net-layer \
                 change predicts no change here."
            }
            Workload::FilteredUdp => {
                "512 content-filtered subscriptions, 90 % of publishes suppressed at the \
                 publisher's gate: the linear peer-filter scan does most of the work. A \
                 counting index must show here; tick_udp bypasses it."
            }
            Workload::LossyUdp => {
                "tick_udp with 2 % seeded receive loss: leaves the fast path for gap detection, \
                 NAK, retransmit and reorder buffer. Repair timers set throughput, so only a \
                 reliable-layer change shows here."
            }
            Workload::GuaranteedUdp => {
                "Guaranteed QoS, durable ledger (FsyncPolicy::Never: disk sync is not ours to \
                 measure), 1 KB Story: WAL append, Ack and unpersist per message plus the \
                 large-message wire path."
            }
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the bus would see; printed by the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, each reported on every workload.
///
/// ISSUE 11 lists eight; `failed_ratio` (0 on a healthy bus) and
/// `wire_bytes_per_msg` (0 on `fanout_inproc`) are reported by the
/// traced run instead, because a gated metric must never be 0. Failures
/// still fail the run: they are the `failed` count of every result.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "msgs_per_s",
        unit: "publications/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_us_per_msg",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "payload_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.15,
    },
];

/// A metric of a single layer; printed by the traced run, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn ns(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, grouped as the README explains them: the
/// stage chain, the driver-boundary spans, the `Bus::stats()` counters,
/// then tails and harness health.
pub const PER_LAYER: [PerLayer; 62] = [
    // Stage chain: median ns per call into one public function.
    ns("subject.intern_ns"),
    ns("subject.trie_match_ns"),
    ns("subject.trie_insert_remove_ns"),
    ns("core.filter.eval_ns"),
    ns("core.filter.gate_scan_ns"),
    ns("types.marshal_quote_ns"),
    ns("types.marshal_story1k_ns"),
    ns("types.unmarshal_quote_ns"),
    ns("types.unmarshal_story1k_ns"),
    ns("core.buf.take_freeze_ns"),
    ns("core.engine.sequence_ns"),
    ns("core.engine.sequence_gd_ns"),
    ns("core.engine.batch_enqueue_ns"),
    ns("core.engine.receive_ns"),
    ns("core.engine.nak_repair_ns"),
    ns("net.frame.encode_ns"),
    ns("net.frame.decode_ns"),
    ns("os.udp_loopback_ns"),
    ns("core.queue.send_recv_ns"),
    ns("wal.append_ns"),
    ns("wal.remove_ns"),
    ns("core.nvstore.persist_ns"),
    ns("edge.session.codec_ns"),
    ns("edge.broker.on_deliver_ns"),
    ns("edge.broker.join_ns"),
    ns("router.route_ns"),
    ns("router.rewrite_ns"),
    ns("router.semantic.canonicalize_ns"),
    // Driver-boundary spans of the traced run.
    ns("bench.build_value_ns"),
    ns("driver.publish_call_ns"),
    ns("driver.transit_ns"),
    ns("bench.consume_ns"),
    ns("driver.publish_residual_ns"),
    higher("trace.overhead_ratio", "ratio"),
    // Counters: Bus::stats() deltas over the saturate phase.
    lower("net.tx_packets_per_msg", "packets"),
    lower("net.rx_packets_per_msg", "packets"),
    lower("net.send_errors", "count"),
    lower("net.decode_errors", "count"),
    higher("core.engine.batch_fill", "envelopes"),
    lower("core.engine.naks_per_kmsg", "naks/kmsg"),
    lower("core.engine.retransmits_per_kmsg", "resends/kmsg"),
    lower("core.engine.gaps_skipped", "count"),
    lower("core.engine.dups_dropped", "count"),
    lower("core.engine.filtered_at_daemon", "count"),
    lower("core.engine.gd_redelivered_ratio", "ratio"),
    lower("core.engine.gd_pending_max", "count"),
    lower("core.filter.evals_per_pub", "evals"),
    higher("core.filter.pub_suppressed_ratio", "ratio"),
    lower("core.filter.delivery_suppressed", "count"),
    higher("core.buf.pool_hit_ratio", "ratio"),
    lower("core.queue.max_depth", "count"),
    lower("core.queue.dropped", "count"),
    lower("wal.appended_bytes_per_msg", "bytes"),
    // Tails and harness health.
    lower("tail.latency_p90_us", "us"),
    lower("tail.latency_p99_us", "us"),
    lower("tail.latency_p999_us", "us"),
    higher("tail.samples", "count"),
    lower("tail.sat_latency_p50_us", "us"),
    lower("tail.repair_latency_p50_us", "us"),
    lower("tail.gen_late_max_us", "us"),
    // End-to-end in ISSUE 11, ungated here because they may be 0.
    lower("wire_bytes_per_msg", "bytes"),
    lower("failed_ratio", "ratio"),
];

/// The unit of the metric called `name`.
///
/// # Panics
///
/// Panics on a name neither table lists: metrics are only ever emitted
/// under a listed name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the spec"))
}

/// The regression bound of an end-to-end metric; `None` for per-layer
/// metrics, which have none.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound)
}

/// Checks that a run emitted exactly the metrics its mode promises —
/// every end-to-end metric untraced, every per-layer metric traced.
///
/// # Panics
///
/// Panics otherwise: that is a bug in the harness.
pub fn assert_complete(emitted: &[(&'static str, f64)], traced: bool) {
    let wanted: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let got: Vec<&str> = emitted.iter().map(|(n, _)| *n).collect();
    assert_eq!(got, wanted, "emitted metrics differ from the spec");
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name()),
                json::quote(w.why())
            )
        })
        .collect();
    let metric = |name: &str, unit: &str, better: Better| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json::quote(name),
            json::quote(unit),
            json::quote(better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{}, \"bound\": {}}}",
                metric(m.name, m.unit, m.better),
                json::num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| metric(m.name, m.unit, m.better) + "}")
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
            assert!(!w.why().contains('\n'));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            names.push(m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate it: run.sh --describe > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
        let doc = json::parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            json::Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
