//! Per-layer measurements shared by the workloads: replays of each
//! crate's public functions on inputs captured in the run, and ratios
//! over the benchmark observer's events.

use crate::classify::{Class, Classed, CLASSES};
use crate::report::{Metric, Outcome};
use crate::sink::BenchSink;
use crate::wrap::{Probe, Trigger};
use crate::Rng;
use bft_net::FRAME_OVERHEAD;
use std::time::Instant;

/// Every per-layer metric with its unit, in print order. A workload that
/// bypasses a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.wall_tx_per_s", "1/s"),
    ("sim.self_ms", "ms"),
    ("sim.events_per_tx", "count"),
    ("core.aba_msgs_per_tx", "count"),
    ("core.aba_bytes_per_tx", "B"),
    ("core.aba_ns_per_msg", "ns"),
    ("core.aba_handler_ns_per_tx", "ns"),
    ("core.aba_rounds_per_instance", "count"),
    ("rbc.batch_msgs_per_tx", "count"),
    ("rbc.batch_bytes_per_tx", "B"),
    ("rbc.batch_handler_ns_per_tx", "ns"),
    ("ec.encode_ns_per_kib", "ns"),
    ("ec.reconstruct_ns_per_kib", "ns"),
    ("order.batch_fill", "1"),
    ("order.empty_epoch_frac", "1"),
    ("order.slots_per_epoch_frac", "1"),
    ("smr.apply_ns_per_slot", "ns"),
    ("smr.snapshot_bytes", "B"),
    ("smr.snapshot_ns", "ns"),
    ("smr.ckpt_msgs_per_tx", "count"),
    ("smr.xfer_bytes", "B"),
    ("smr.catchup_ticks", "ticks"),
    ("codec.encode_ns_per_msg.batch", "ns"),
    ("codec.encode_ns_per_msg.aba", "ns"),
    ("codec.encode_ns_per_msg.ckpt", "ns"),
    ("codec.encode_ns_per_msg.xfer", "ns"),
    ("codec.decode_ns_per_msg.batch", "ns"),
    ("codec.decode_ns_per_msg.aba", "ns"),
    ("codec.decode_ns_per_msg.ckpt", "ns"),
    ("codec.decode_ns_per_msg.xfer", "ns"),
    ("codec.frame_overhead_bytes_per_tx", "B"),
    ("reactor.cpu_ms_per_ktx", "ms"),
    ("reactor.runq_wait_ms_per_ktx", "ms"),
    ("reactor.ctx_switches_per_tx", "count"),
    ("actor.tick_ns_per_tx", "ns"),
    ("actor.runq_wait_ms_per_ktx", "ms"),
    ("gateway.nack_frac", "1"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.cpu_ms", "ms"),
    ("gen.resubmit_frac", "1"),
    ("obs.trace_overhead_frac", "1"),
];

/// Every end-to-end metric with its unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tx_per_s", "1/s"),
    ("commit_mean", "ms"),
    ("commit_tail_mean", "ms"),
    ("wire_bytes_per_tx", "B"),
    ("first_try_frac", "1"),
    ("peak_rss_mib", "MiB"),
];

/// Reorders `out.metrics` to follow `names`, adding a 0 for every name
/// the workload does not exercise. Errors on a metric outside the list,
/// a unit that differs from it, or a value that is not a finite number.
pub fn complete(out: &mut Outcome, names: &[(&str, &'static str)]) -> Result<(), String> {
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} measured {}", m.name, m.value));
        }
        match names.iter().find(|(n, _)| *n == m.name) {
            Some((_, unit)) if *unit == m.unit => {}
            Some((_, unit)) => {
                return Err(format!("metric {} in {} but declared in {unit}", m.name, m.unit))
            }
            None => return Err(format!("metric {} is not declared", m.name)),
        }
    }
    let mut ordered = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let m = out.metrics.iter().find(|m| m.name == name).cloned();
        ordered.push(m.unwrap_or_else(|| Metric::new(name, 0.0, unit)));
    }
    out.metrics = ordered;
    Ok(())
}

/// Agreement, batch-dissemination and codec metrics from the probes of
/// the wrapped nodes (one per world or pass), per committed transaction.
pub fn node_metrics<M: Classed>(
    probes: &[&Probe<M>],
    tx: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let sent = |pick: fn(Class) -> bool| -> (u64, u64) {
        let mut total = (0, 0);
        for p in probes {
            for c in Class::ALL.into_iter().filter(|&c| pick(c)) {
                total.0 += p.sent_msgs[c.index()];
                total.1 += p.sent_bytes[c.index()];
            }
        }
        total
    };
    let ns =
        |pick: fn(Trigger) -> bool| probes.iter().map(|p| p.ns_where(pick)).sum::<u64>() as f64;
    let calls =
        |pick: fn(Trigger) -> bool| probes.iter().map(|p| p.calls_where(pick)).sum::<u64>() as f64;
    let is_aba = |t: Trigger| t == Trigger::Msg(Class::Aba);
    let is_batch = |t: Trigger| matches!(t, Trigger::Msg(c) if c.is_batch());
    let (aba, batch) = (sent(|c| c == Class::Aba), sent(Class::is_batch));
    let rounds =
        probes.iter().map(|p| p.mean_aba_rounds()).sum::<f64>() / probes.len().max(1) as f64;
    out.push(Metric::new("core.aba_msgs_per_tx", aba.0 as f64 / tx, "count"));
    out.push(Metric::new("core.aba_bytes_per_tx", aba.1 as f64 / tx, "B"));
    out.push(Metric::new("core.aba_ns_per_msg", ns(is_aba) / calls(is_aba).max(1.0), "ns"));
    out.push(Metric::new("core.aba_handler_ns_per_tx", ns(is_aba) / tx, "ns"));
    out.push(Metric::new("core.aba_rounds_per_instance", rounds, "count"));
    out.push(Metric::new("rbc.batch_msgs_per_tx", batch.0 as f64 / tx, "count"));
    out.push(Metric::new("rbc.batch_bytes_per_tx", batch.1 as f64 / tx, "B"));
    out.push(Metric::new("rbc.batch_handler_ns_per_tx", ns(is_batch) / tx, "ns"));
    out.push(Metric::new(
        "smr.ckpt_msgs_per_tx",
        sent(|c| c == Class::Ckpt).0 as f64 / tx,
        "count",
    ));
    let all = sent(|_| true);
    out.push(Metric::new(
        "codec.frame_overhead_bytes_per_tx",
        (all.0 * FRAME_OVERHEAD as u64) as f64 / tx,
        "B",
    ));
    let samples: Vec<Vec<&M>> =
        (0..CLASSES).map(|c| probes.iter().flat_map(|p| p.samples[c].iter()).collect()).collect();
    codec_replay(&samples, out)
}

/// The codec group a class is replayed under.
fn group(c: Class) -> &'static str {
    match c {
        Class::Aba => "aba",
        Class::Ckpt => "ckpt",
        Class::Xfer => "xfer",
        _ => "batch",
    }
}

/// Replays `Codec` encode and decode on the sent messages kept per class
/// and reports nanoseconds per message for each group.
fn codec_replay<M: Classed>(samples: &[Vec<&M>], out: &mut Outcome) -> Result<(), String> {
    for g in ["batch", "aba", "ckpt", "xfer"] {
        let msgs: Vec<&M> = (0..CLASSES)
            .filter(|&c| group(Class::ALL[c]) == g)
            .flat_map(|c| samples[c].iter().copied())
            .collect();
        if msgs.is_empty() {
            continue;
        }
        let reps = (4096 / msgs.len()).max(1);
        let mut enc_ns = 0u128;
        let mut dec_ns = 0u128;
        for _ in 0..reps {
            for m in &msgs {
                let t0 = Instant::now();
                let bytes = std::hint::black_box(m.to_bytes());
                let t1 = Instant::now();
                let back = M::from_bytes(std::hint::black_box(&bytes));
                let t2 = Instant::now();
                back.map_err(|e| format!("a sent {g} message does not decode: {e}"))?;
                enc_ns += (t1 - t0).as_nanos();
                dec_ns += (t2 - t1).as_nanos();
            }
        }
        let count = (reps * msgs.len()) as f64;
        out.push(Metric::new(format!("codec.encode_ns_per_msg.{g}"), enc_ns as f64 / count, "ns"));
        out.push(Metric::new(format!("codec.decode_ns_per_msg.{g}"), dec_ns as f64 / count, "ns"));
    }
    Ok(())
}

/// Replays `bft_ec::encode` and `bft_ec::reconstruct` (from the last `k`
/// fragments, so every shard is interpolated) on up to 48 of the payload
/// sizes the run saw, and reports nanoseconds per KiB of payload.
pub fn ec_replay(sizes: &[usize], n: usize, k: usize, out: &mut Outcome) -> Result<(), String> {
    let mut sizes: Vec<usize> = sizes.iter().copied().filter(|&s| s > 0).collect();
    if sizes.is_empty() {
        return Ok(());
    }
    sizes.sort_unstable();
    let picks: Vec<usize> = (0..48).map(|i| sizes[i * sizes.len() / 48]).collect();
    let (mut enc_ns, mut rec_ns, mut kib) = (0u128, 0u128, 0f64);
    let mut rng = Rng::new(sizes.len() as u64);
    for size in picks {
        let payload: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let t0 = Instant::now();
        let coded = bft_ec::encode(std::hint::black_box(&payload), n, k)
            .map_err(|e| format!("ec encode of {size} B: {e:?}"))?;
        let t1 = Instant::now();
        let back = bft_ec::reconstruct(coded.root, n, k, &coded.fragments[n - k..])
            .map_err(|e| format!("ec reconstruct of {size} B: {e:?}"))?;
        rec_ns += t1.elapsed().as_nanos();
        enc_ns += (t1 - t0).as_nanos();
        if back != payload {
            return Err(format!("ec reconstruct of {size} B returned different bytes"));
        }
        kib += size as f64 / 1024.0;
    }
    out.push(Metric::new("ec.encode_ns_per_kib", enc_ns as f64 / kib, "ns"));
    out.push(Metric::new("ec.reconstruct_ns_per_kib", rec_ns as f64 / kib, "ns"));
    Ok(())
}

/// Batch fill, empty epochs and accepted slots, from node 0's commits.
pub fn order_metrics(sinks: &[&BenchSink], n: usize, batch_max: usize, out: &mut Outcome) {
    let (mut epochs, mut slots, mut txs, mut empty) = (0u64, 0u64, 0u64, 0u64);
    for s in sinks {
        for (_, &(_, sl, tx)) in s.commits.range((0, 0)..(1, 0)) {
            epochs += 1;
            slots += sl;
            txs += tx;
            empty += u64::from(tx == 0);
        }
    }
    if epochs == 0 {
        return;
    }
    out.push(Metric::new("order.batch_fill", txs as f64 / (slots * batch_max as u64) as f64, "1"));
    out.push(Metric::new("order.empty_epoch_frac", empty as f64 / epochs as f64, "1"));
    out.push(Metric::new(
        "order.slots_per_epoch_frac",
        slots as f64 / (epochs * n as u64) as f64,
        "1",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let file =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (section, names) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &file[file.find(&format!("\"{section}\"")).expect("section present")..];
            let body = &body[..body.find(']').expect("section closes")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, names.len(), "{section} lists {declared} metrics");
            for (name, unit) in names {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn complete_fills_bypassed_layers_and_rejects_strays() {
        let mut o = Outcome::new(1, 0);
        o.push(Metric::new("gen.cpu_ms", 3.0, "ms"));
        complete(&mut o, PER_LAYER).expect("declared metric");
        assert_eq!(o.metrics.len(), PER_LAYER.len());
        assert_eq!(o.get("gen.cpu_ms"), Some(3.0));
        assert_eq!(o.get("sim.self_ms"), Some(0.0));
        o.push(Metric::new("stray", 1.0, "ms"));
        assert!(complete(&mut o, PER_LAYER).is_err());
    }

    #[test]
    fn ec_replay_round_trips_observed_sizes() {
        let mut o = Outcome::new(1, 0);
        ec_replay(&[4096, 33_000, 0], 4, 2, &mut o).expect("sizes under the cap reconstruct");
        assert!(o.get("ec.encode_ns_per_kib").is_some_and(|v| v > 0.0));
        assert!(o.get("ec.reconstruct_ns_per_kib").is_some_and(|v| v > 0.0));
    }
}
