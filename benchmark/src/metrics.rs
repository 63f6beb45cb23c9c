//! Turns what a run measured into the named metrics of [`crate::spec`],
//! and writes the span file of a traced run.

use std::path::Path;

use infobus_core::engine::BusStats;

use crate::json;
use crate::run::{Measured, Phase, SpanRow};
use crate::spec::Workload;
use crate::summary;
use crate::sys;
use crate::topo::FANOUT_SUBS;

/// A metric value under its `spec` name.
pub type Named = (&'static str, f64);

/// A value for the human tables: enough digits whatever the magnitude
/// (`setup_s` is a fraction of a millisecond, `msgs_per_s` is 10^5).
pub fn show(value: f64) -> String {
    match value.abs() {
        a if a >= 1_000.0 => format!("{value:.1}"),
        a if a >= 1.0 || a == 0.0 => format!("{value:.3}"),
        _ => format!("{value:.6}"),
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn total<'a>(phases: impl Iterator<Item = &'a Phase>) -> (f64, f64, f64, f64) {
    phases.fold((0.0, 0.0, 0.0, 0.0), |acc, p| {
        (
            acc.0 + p.completed as f64,
            acc.1 + p.wall_s,
            acc.2 + p.cpu_s,
            acc.3 + p.payload_bytes as f64,
        )
    })
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measured) -> Vec<Named> {
    let (completed, wall_s, cpu_s, payload_bytes) = total(m.saturate.iter());
    let mut latencies = m.paced.latencies_us.clone();
    let mut setups = m.setups_s.clone();
    vec![
        ("msgs_per_s", ratio(completed, wall_s)),
        ("cpu_us_per_msg", ratio(cpu_s * 1e6, completed)),
        ("latency_p50_us", summary::median(&mut latencies)),
        ("rss_mb", sys::peak_rss_mb()),
        ("setup_s", summary::median(&mut setups)),
        ("payload_mb_per_s", ratio(payload_bytes / 1e6, wall_s)),
    ]
}

fn span_median(rows: &[SpanRow], width: impl Fn(&SpanRow) -> Option<u64>) -> f64 {
    let mut widths: Vec<f64> = rows.iter().filter_map(width).map(|w| w as f64).collect();
    summary::median(&mut widths)
}

/// The publisher-side stages [`driver.publish_residual_ns`] subtracts
/// from the median `Bus::publish` call: what is left is the lock, the
/// syscall and the driver's glue.
fn publisher_stages(
    workload: Workload,
    stage: impl Fn(&str) -> f64,
    tx_packets_per_msg: f64,
) -> f64 {
    if workload == Workload::FilteredUdp {
        // The median publish is a suppressed one: it ends at the gate.
        return stage("core.filter.gate_scan_ns");
    }
    let marshal = match workload {
        Workload::FanoutInproc | Workload::GuaranteedUdp => "types.marshal_story1k_ns",
        _ => "types.marshal_quote_ns",
    };
    let common = stage("subject.intern_ns") + stage(marshal) + stage("core.buf.take_freeze_ns");
    let engine = match workload {
        Workload::TickBatchedUdp => stage("core.engine.batch_enqueue_ns"),
        Workload::GuaranteedUdp => {
            stage("core.engine.sequence_gd_ns") + stage("core.nvstore.persist_ns")
        }
        Workload::FanoutInproc => {
            stage("core.engine.sequence_ns")
                + stage("core.engine.receive_ns")
                + FANOUT_SUBS as f64 * stage("core.queue.send_recv_ns")
        }
        _ => stage("core.engine.sequence_ns"),
    };
    common + engine + tx_packets_per_msg * stage("net.frame.encode_ns")
}

/// The per-layer metrics of a traced run: the stage chain as given, the
/// driver-boundary spans of the paced phase, counter deltas over the
/// saturate phase, tails and harness health.
pub fn per_layer(workload: Workload, m: &Measured, stages: Vec<Named>) -> Vec<Named> {
    let stage = |name: &str| {
        stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (msgs, _, _, _) = total(m.saturate.iter());
    let (traced_msgs, traced_s, _, _) = total(m.saturate.iter().filter(|p| p.traced));
    let (plain_msgs, plain_s, _, _) = total(m.saturate.iter().filter(|p| !p.traced));
    let publisher = |f: fn(&BusStats) -> u64| m.publisher.of(f);
    let subscriber = |f: fn(&BusStats) -> u64| m.subscriber.of(f);
    // One daemon plays both parts on the in-process bus; count it once.
    let both = |f: fn(&BusStats) -> u64| {
        if workload == Workload::FanoutInproc {
            publisher(f)
        } else {
            publisher(f) + subscriber(f)
        }
    };
    let tx_packets_per_msg = ratio(publisher(|s| s.net_tx_packets), msgs);

    let spans = &m.paced.spans;
    let publish_call = span_median(spans, |s| Some(s.publish_end - s.publish_start));
    let mut out = stages.clone();
    out.extend([
        (
            "bench.build_value_ns",
            span_median(spans, |s| Some(s.build_end - s.build_start)),
        ),
        ("driver.publish_call_ns", publish_call),
        (
            "driver.transit_ns",
            span_median(spans, |s| {
                (s.first_dequeue > 0).then(|| s.first_dequeue.saturating_sub(s.publish_end))
            }),
        ),
        (
            "bench.consume_ns",
            span_median(spans, |s| {
                (s.first_dequeue > 0).then(|| s.consume_end.saturating_sub(s.first_dequeue))
            }),
        ),
        (
            "driver.publish_residual_ns",
            publish_call - publisher_stages(workload, stage, tx_packets_per_msg),
        ),
        (
            "trace.overhead_ratio",
            ratio(ratio(traced_msgs, traced_s), ratio(plain_msgs, plain_s)),
        ),
    ]);

    out.extend([
        ("net.tx_packets_per_msg", tx_packets_per_msg),
        (
            "net.rx_packets_per_msg",
            ratio(subscriber(|s| s.net_rx_packets), msgs),
        ),
        ("net.send_errors", both(|s| s.net_send_errors)),
        ("net.decode_errors", both(|s| s.net_decode_errors)),
        (
            "core.engine.batch_fill",
            ratio(
                publisher(|s| s.batch_envelopes),
                publisher(|s| s.batch_flushes),
            ),
        ),
        (
            "core.engine.naks_per_kmsg",
            ratio(subscriber(|s| s.naks_sent) * 1e3, msgs),
        ),
        (
            "core.engine.retransmits_per_kmsg",
            ratio(publisher(|s| s.retransmitted) * 1e3, msgs),
        ),
        ("core.engine.gaps_skipped", subscriber(|s| s.gaps_skipped)),
        ("core.engine.dups_dropped", subscriber(|s| s.dups_dropped)),
        ("core.engine.filtered_at_daemon", subscriber(|s| s.filtered)),
        (
            "core.engine.gd_redelivered_ratio",
            ratio(m.redelivered as f64, m.deliveries as f64),
        ),
        ("core.engine.gd_pending_max", m.gd_pending_max as f64),
        (
            "core.filter.evals_per_pub",
            ratio(both(|s| s.filt_evals), msgs),
        ),
        (
            "core.filter.pub_suppressed_ratio",
            ratio(publisher(|s| s.filt_pub_suppressed), msgs),
        ),
        (
            "core.filter.delivery_suppressed",
            subscriber(|s| s.filt_delivery_suppressed),
        ),
        (
            "core.buf.pool_hit_ratio",
            ratio(
                publisher(|s| s.buf_pool_hits),
                publisher(|s| s.buf_pool_hits + s.buf_pool_misses),
            ),
        ),
        ("core.queue.max_depth", m.queue_depth_max as f64),
        ("core.queue.dropped", subscriber(|s| s.sub_queue_dropped)),
        (
            "wal.appended_bytes_per_msg",
            ratio(publisher(|s| s.gd_ledger_bytes), msgs),
        ),
    ]);

    let mut paced = m.paced.latencies_us.clone();
    summary::sort(&mut paced);
    let tail = |wanted: f64| {
        summary::percentile_sorted(&paced, summary::supported_percentile(paced.len(), wanted))
    };
    // The slowest 2 %: on `lossy_udp`, the publications that waited for
    // a NAK repair.
    let slowest = &paced[paced.len() - paced.len() / 50..];
    let mut saturated: Vec<f64> = m
        .saturate
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    out.extend([
        ("tail.latency_p90_us", tail(90.0)),
        ("tail.latency_p99_us", tail(99.0)),
        ("tail.latency_p999_us", tail(99.9)),
        ("tail.samples", paced.len() as f64),
        ("tail.sat_latency_p50_us", summary::median(&mut saturated)),
        (
            "tail.repair_latency_p50_us",
            summary::median_sorted(slowest),
        ),
        ("tail.gen_late_max_us", m.paced.late_max_us),
        (
            "wire_bytes_per_msg",
            ratio(publisher(|s| s.net_tx_bytes), msgs),
        ),
        (
            "failed_ratio",
            ratio(m.report.failed as f64, m.report.attempted as f64),
        ),
    ]);
    out
}

/// At most this many publications per phase go into the span file,
/// evenly strided; every traced publication feeds the medians.
const FILE_PUBLICATIONS: usize = 1_024;

/// Writes `trace_<workload>.json`: for each sampled publication a root
/// span `bench.publication` and its children in time order —
/// `bench.build_value`, `driver.publish_call`, then (when something was
/// delivered) `driver.transit` and `bench.consume`. Times are ns since
/// process start.
pub fn write_spans(dir: &Path, workload: Workload, seed: u64, m: &Measured) -> std::io::Result<()> {
    let mut spans: Vec<String> = Vec::new();
    let traced = m.saturate.iter().filter(|p| p.traced);
    for (phase, rows) in
        std::iter::once(("paced", &m.paced.spans)).chain(traced.map(|p| ("saturate", &p.spans)))
    {
        let stride = rows.len().div_ceil(FILE_PUBLICATIONS).max(1);
        for s in rows.iter().step_by(stride) {
            let end = s.consume_end.max(s.publish_end);
            let mut family = vec![
                ("bench.publication", s.build_start, end),
                ("bench.build_value", s.build_start, s.build_end),
                ("driver.publish_call", s.publish_start, s.publish_end),
            ];
            if s.first_dequeue > 0 {
                family.push(("driver.transit", s.publish_end, s.first_dequeue));
                family.push(("bench.consume", s.first_dequeue, s.consume_end));
            }
            for (i, (name, start, end)) in family.into_iter().enumerate() {
                spans.push(format!(
                    "\n{{\"name\": \"{name}\", \"id\": {}, \"phase\": \"{phase}\", \"start\": {start}, \"end\": {end}, \"parent\": {}}}",
                    s.id,
                    if i == 0 { "null" } else { "\"bench.publication\"" },
                ));
            }
        }
    }
    let text = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"ns since process start\", \"spans\": [{}\n]}}\n",
        json::quote(workload.name()),
        spans.join(",")
    );
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("trace_{}.json", workload.name())), text)
}
