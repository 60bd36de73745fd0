//! The `tcp-n4-open` workload: a loopback-TCP reactor cluster fronted
//! by client gateways, driven by the open-loop generator at a fixed rate
//! below capacity.

use crate::gate::{self, TcpOutcome};
use crate::gen::{self, GenConfig, GenReport, SlotEnd};
use crate::layers::{node_metrics, order_metrics};
use crate::procfs::{self, ThreadStat};
use crate::report::{Metric, Outcome};
use crate::sink::BenchSink;
use crate::stats::{median, Latencies};
use crate::wrap::{current_tid, Node, Probe, StopCtl, StopHook, Trigger};
use bft_coin::CommonCoin;
use bft_net::frame::{decode_prefix, encode_frame, FrameKind};
use bft_net::gateway::submit_payload;
use bft_net::{GatewayPipe, NetRuntime};
use bft_obs::Obs;
use bft_order::gateway::GatewayProcess;
use bft_order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use bft_rbc::RbcKind;
use bft_runtime::RuntimeReport;
use bft_types::{Config, NodeId};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shape of the TCP workload.
#[derive(Clone, Copy, Debug)]
pub struct TcpSpec {
    /// Cluster size.
    pub n: usize,
    /// Transactions per proposed batch.
    pub batch_max: usize,
    /// Own epochs in flight.
    pub pipeline: usize,
    /// Nodes 0..gateways serve clients.
    pub gateways: usize,
    /// Simulated clients.
    pub clients: u64,
    /// Aggregate offered load, transactions per second.
    pub rate: u64,
    /// Client payload bytes.
    pub tx_bytes: usize,
    /// Longest wait after the load window for outstanding acks: room for
    /// a few rounds of resubmission of a slot lost near the window's end.
    pub drain: Duration,
    /// The cluster's epoch horizon. The run ends earlier, at an epoch
    /// the harness picks after the drain; the guard checks the horizon
    /// was never within reach.
    pub horizon: u64,
}

/// `tcp-n4-open`: n = 4, Bracha RBC, batch 16, pipeline 4, 64 clients
/// at 1000 tx/s of 32 B through gateways 0 and 1.
pub const N4_OPEN: TcpSpec = TcpSpec {
    n: 4,
    batch_max: 16,
    pipeline: 4,
    gateways: 2,
    clients: 64,
    rate: 1000,
    tx_bytes: 32,
    drain: Duration::from_secs(5),
    horizon: 1 << 40,
};

/// Cluster bring-ups per untraced run (the measured ones included)
/// whose median is `setup_s`.
const SETUPS: usize = 31;

type Proc = GatewayProcess<CommonCoin>;

/// A running cluster.
struct Cluster {
    ctl: Arc<StopCtl>,
    addrs: Vec<SocketAddr>,
    monitor_tid: Arc<AtomicU64>,
    handle: JoinHandle<Result<RuntimeReport<OrderLog>, String>>,
    setup_s: f64,
}

fn log_prefix(p: &Proc, below: u64) -> OrderLog {
    p.inner().log().iter().take_while(|e| e.epoch < below).cloned().collect()
}

/// Starts the cluster and waits until every gateway answers a client.
fn start(
    spec: &TcpSpec,
    seed: u64,
    obs: &Obs,
    probe: &Option<Arc<Mutex<Probe<OrderMessage>>>>,
    wire_bytes: &Arc<AtomicU64>,
) -> Result<Cluster, String> {
    let t0 = Instant::now();
    let cfg = Config::new(spec.n, (spec.n - 1) / 3).map_err(|e| format!("config: {e}"))?;
    let order = OrderOptions {
        batch_max: spec.batch_max,
        pipeline_depth: spec.pipeline,
        epochs: spec.horizon,
        rbc: RbcKind::Bracha,
    };
    let ctl = Arc::new(StopCtl::new(spec.n));
    let pipes: Vec<GatewayPipe> = (0..spec.gateways).map(|_| GatewayPipe::new()).collect();
    // The default transport is the poll(2) reactor, the only one that
    // serves gateways. The run timeout only has to outlast the
    // benchmark's own deadline.
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(spec.n).timeout(Duration::from_secs(170));
    for (i, pipe) in pipes.iter().enumerate() {
        rt = rt.gateway(NodeId::new(i), pipe.clone());
    }
    for id in cfg.nodes() {
        let inner =
            OrderProcess::new(cfg, id, order, Vec::new(), move |inst| CommonCoin::new(seed, inst))
                .with_obs(obs.clone());
        let pipe = pipes.get(id.index()).cloned().unwrap_or_default();
        let hook =
            StopHook::new(Arc::clone(&ctl), |p: &Proc| p.inner().committed_epochs(), log_prefix);
        let mut node = Node::new(GatewayProcess::new(inner, pipe), spec.n)
            .stop(hook)
            .count_bytes(Arc::clone(wire_bytes));
        if let Some(probe) = probe {
            node = node.probe(Arc::clone(probe));
        }
        rt.add_process(Box::new(node));
    }
    let monitor_tid = Arc::new(AtomicU64::new(0));
    let tid = Arc::clone(&monitor_tid);
    let handle = std::thread::spawn(move || {
        tid.store(current_tid().map_or(0, u64::from), Ordering::SeqCst);
        rt.try_run().map_err(|e| format!("cluster setup: {e}"))
    });
    let mut addrs = Vec::new();
    while addrs.len() < pipes.len() {
        addrs = pipes.iter().filter_map(GatewayPipe::addr).collect();
        if handle.is_finished() || t0.elapsed() > Duration::from_secs(30) {
            let err = handle.join().map_err(|_| "cluster thread panicked".to_string())?.err();
            return Err(err.unwrap_or_else(|| "gateways never bound".into()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for (i, addr) in addrs.iter().enumerate() {
        probe_gateway(*addr, i as u64)?;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Cluster { ctl, addrs, monitor_tid, handle, setup_s })
}

/// One client round trip through gateway `addr`: a submission that skips
/// ahead of its client's sequence is refused by the node's process with
/// a sequence-gap NACK, without ordering anything.
fn probe_gateway(addr: SocketAddr, i: u64) -> Result<(), String> {
    let client = (1 << 40) + i;
    let mut s = TcpStream::connect(addr).map_err(|e| format!("probe connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("probe timeout: {e}"))?;
    let frame = encode_frame(FrameKind::Submit, 2, 0, &submit_payload(client, b"probe"))
        .map_err(|e| format!("probe frame: {e:?}"))?;
    s.write_all(&frame).map_err(|e| format!("probe write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        if let Some((f, _)) = decode_prefix(&buf).map_err(|e| format!("probe reply: {e}"))? {
            return match f.kind {
                FrameKind::SubmitNack => Ok(()),
                other => Err(format!("gateway answered the probe with {other:?}")),
            };
        }
        let k = s.read(&mut chunk).map_err(|e| format!("probe read: {e}"))?;
        if k == 0 {
            return Err("gateway closed the probe connection".into());
        }
        buf.extend_from_slice(&chunk[..k]);
    }
}

impl Cluster {
    /// Ends the run at the highest epoch any node has committed and
    /// returns the report plus that stop epoch.
    fn stop(self) -> Result<(RuntimeReport<OrderLog>, u64), String> {
        let stop = self.ctl.max_committed();
        self.ctl.stop_epoch.store(stop, Ordering::SeqCst);
        let report = self.handle.join().map_err(|_| "cluster thread panicked".to_string())??;
        Ok((report, stop))
    }
}

/// One measured pass: cluster up, load window, drain, stop, gate.
struct Pass {
    setup_s: f64,
    gen: GenReport,
    gen_cpu_ns: u64,
    cluster_cpu_ns: u64,
    reactor: ThreadStat,
    actor: ThreadStat,
    wire_bytes: u64,
    sink: Option<BenchSink>,
    probe: Option<Probe<OrderMessage>>,
    stop_epoch: u64,
}

fn pass(spec: &TcpSpec, seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let shared = traced.then(|| bft_obs::SharedSink::new(BenchSink::default()));
    let obs = shared.as_ref().map_or_else(Obs::disabled, |s| Obs::to(s).sans_spans());
    let probe = traced.then(|| Arc::new(Mutex::new(Probe::default())));
    let wire = Arc::new(AtomicU64::new(0));
    let cluster = start(spec, seed, &obs, &probe, &wire)?;
    drop(obs);

    let cfg = GenConfig {
        clients: spec.clients,
        rate: spec.rate,
        tx_bytes: spec.tx_bytes,
        window: Duration::from_secs_f64(seconds),
        drain: spec.drain,
        client_window: 64,
        stall: None,
    };
    let me = current_tid().ok_or("cannot read the generator's thread id")?;
    let before = procfs::thread_stat(me).unwrap_or_default();
    let streams = match gen::connect(&cluster.addrs) {
        Ok(streams) => streams,
        Err(e) => {
            let _ = cluster.stop();
            return Err(e);
        }
    };
    // Wire bytes up to the end of the load window: the drain's idle
    // epochs would otherwise add bytes that depend on how long it lasts.
    let mut window_bytes = 0;
    let report = gen::run(streams, &cfg, seed, || window_bytes = wire.load(Ordering::SeqCst));
    let gen_cpu_ns = procfs::thread_stat(me).unwrap_or_default().cpu_ns - before.cpu_ns;

    // Read the cluster's threads before they exit at the stop.
    let threads = procfs::all_threads();
    let actor_tids: BTreeSet<u32> = probe
        .as_ref()
        .map(|p| p.lock().expect("probe lock").tids.iter().copied().collect())
        .unwrap_or_default();
    let monitor = cluster.monitor_tid.load(Ordering::SeqCst) as u32;
    let (mut reactor, mut actor, mut cluster_cpu_ns) =
        (ThreadStat::default(), ThreadStat::default(), 0);
    for (tid, st) in &threads {
        if *tid == me {
            continue;
        }
        cluster_cpu_ns += st.cpu_ns;
        if actor_tids.contains(tid) {
            actor += *st;
        } else if *tid != monitor {
            reactor += *st;
        }
    }
    let setup_s = cluster.setup_s;
    let (rt, stop_epoch) = cluster.stop()?;
    let gen = report?;

    // Epoch-horizon guard: the cluster must still have been running
    // ordinary epochs when the harness stopped it.
    if stop_epoch + 1000 >= spec.horizon {
        return Err(format!("epoch horizon {} reached before the drain ended", spec.horizon));
    }
    let log = rt.unanimous_output();
    gate::tcp(&TcpOutcome {
        agreement: rt.agreement_holds() && rt.all_correct_decided(),
        timed_out: rt.timed_out,
        poisoned: rt.poisoned,
        log: log.as_deref(),
        acked: &gen.acked,
    })?;
    let probe = probe.map(|p| {
        Arc::try_unwrap(p)
            .ok()
            .expect("every probe handle dropped with the cluster")
            .into_inner()
            .expect("probe lock poisoned by a panicking node")
    });
    let sink = shared.map(|s| std::mem::take(&mut *s.lock()));
    Ok(Pass {
        setup_s,
        gen,
        gen_cpu_ns,
        cluster_cpu_ns,
        reactor,
        actor,
        wire_bytes: window_bytes,
        sink,
        probe,
        stop_epoch,
    })
}

/// Brings a cluster up to the gateways' first answer and shuts it down.
fn setup_only(spec: &TcpSpec, seed: u64) -> Result<f64, String> {
    let c = start(spec, seed, &Obs::disabled(), &None, &Arc::new(AtomicU64::new(0)))?;
    let setup = c.setup_s;
    c.stop()?;
    Ok(setup)
}

/// Load windows per untraced run, each on a fresh cluster. The medians
/// over passes damp the spread between cluster instances (one settles
/// at a commit latency 20% off the next) and a burst of outside load
/// that hits one of them.
const PASSES: usize = 15;

/// Runs the workload: `PASSES` passes of `seconds / PASSES` each, or
/// (traced) one untraced and one traced pass of `seconds / 2` each.
pub fn run(spec: &TcpSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let passes = if traced { 1 } else { PASSES };
    let window = seconds / if traced { 2.0 } else { PASSES as f64 };
    let mut plain = Vec::with_capacity(passes);
    for i in 0..passes {
        plain.push(pass(spec, crate::mix(&[seed, i as u64]), window, false)?);
    }
    let due: u64 = plain.iter().map(|p| p.gen.slots.len() as u64).sum();
    let count = |f: &dyn Fn(&gen::Slot) -> bool| -> u64 {
        plain.iter().map(|p| p.gen.slots.iter().filter(|s| f(s)).count() as u64).sum()
    };
    let acked = count(&|s| s.end == SlotEnd::Acked);
    let first_try = count(&|s| s.first_try());
    let mut out = Outcome::new(due, due - acked);
    for p in &plain {
        out.note(format!(
            "{} slots due in {window:.1} s at {}/s: {:?}; stopped at epoch {}",
            p.gen.slots.len(),
            spec.rate,
            gen::tally(&p.gen.slots),
            p.stop_epoch
        ));
    }
    if traced {
        let traced_pass = pass(spec, crate::mix(&[seed, 0]), window, true)?;
        layer_metrics(spec, &plain[0], &traced_pass, &mut out)?;
        return Ok(out);
    }

    let mut setups: Vec<f64> = plain.iter().map(|p| p.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(setup_only(spec, seed)?);
    }
    let acked_in_window = |p: &Pass| {
        let window_us = (window * 1e6) as u64;
        p.gen.slots.iter().filter(|s| s.acked_us.is_some_and(|a| a <= window_us)).count().max(1)
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let lats: Vec<Latencies> =
        plain.iter().map(|p| Latencies::new(gen::latencies_ms(&p.gen.slots))).collect();
    let samples = lats.iter().map(Latencies::count).sum();
    out.push(Metric::new("setup_s", median(&setups), "s").samples(setups.len()));
    out.push(Metric::new("tx_per_s", per_pass(&|p| acked_in_window(p) as f64 / window), "1/s"));
    out.push(
        Metric::new(
            "commit_mean",
            median(&lats.iter().map(Latencies::mean).collect::<Vec<_>>()),
            "ms",
        )
        .samples(samples),
    );
    out.push(
        Metric::new(
            "commit_tail_mean",
            median(&lats.iter().map(|l| l.tail_mean(0.01)).collect::<Vec<_>>()),
            "ms",
        )
        .samples(samples),
    );
    out.push(Metric::new(
        "wire_bytes_per_tx",
        per_pass(&|p| p.wire_bytes as f64 / acked_in_window(p) as f64),
        "B",
    ));
    out.push(Metric::new("first_try_frac", first_try as f64 / due as f64, "1"));
    let pcts: Vec<String> = lats
        .iter()
        .map(|l| format!("p50 {:.3} p99 {:.3} (n={})", l.pct(0.5), l.pct(0.99), l.count()))
        .collect();
    let late = Latencies::new(
        plain.iter().flat_map(|p| gen::resubmit_latencies_ms(&p.gen.slots)).collect(),
    );
    out.note(format!(
        "{} slots acked only after a resubmission (excluded batches): commit mean {:.3} ms",
        late.count(),
        if late.count() > 0 { late.mean() } else { 0.0 }
    ));
    out.note(format!(
        "latency, tx_per_s and wire bytes: median over {PASSES} passes; commit ms per pass: {}",
        pcts.join(", ")
    ));
    Ok(out)
}

fn layer_metrics(spec: &TcpSpec, plain: &Pass, t: &Pass, out: &mut Outcome) -> Result<(), String> {
    let acked = acked_slots(&t.gen).max(1) as f64;
    let ktx = acked / 1000.0;
    let p = t.probe.as_ref().expect("traced pass carries a probe");
    node_metrics(&[p], acked, out)?;
    if let Some(sink) = &t.sink {
        order_metrics(&[sink], spec.n, spec.batch_max, out);
    }
    out.push(Metric::new("reactor.cpu_ms_per_ktx", t.reactor.cpu_ns as f64 / 1e6 / ktx, "ms"));
    out.push(Metric::new(
        "reactor.runq_wait_ms_per_ktx",
        t.reactor.runq_ns as f64 / 1e6 / ktx,
        "ms",
    ));

    out.push(Metric::new(
        "reactor.ctx_switches_per_tx",
        t.reactor.ctx_switches as f64 / acked,
        "count",
    ));
    out.push(Metric::new(
        "actor.tick_ns_per_tx",
        p.ns_where(|tr| tr == Trigger::Tick) as f64 / acked,
        "ns",
    ));
    out.push(Metric::new("actor.runq_wait_ms_per_ktx", t.actor.runq_ns as f64 / 1e6 / ktx, "ms"));
    out.push(Metric::new("gateway.nack_frac", t.gen.nacks as f64 / t.gen.sends.max(1) as f64, "1"));
    out.push(Metric::new(
        "gen.resubmit_frac",
        t.gen.resubmits as f64 / t.gen.slots.len().max(1) as f64,
        "1",
    ));
    out.push(Metric::new(
        "gen.lag_ms_p99",
        Latencies::new(gen::lags_ms(&t.gen.slots)).pct(0.99),
        "ms",
    ));
    out.push(Metric::new("gen.cpu_ms", t.gen_cpu_ns as f64 / 1e6, "ms"));
    let per_tx = |x: &Pass| x.cluster_cpu_ns as f64 / acked_slots(&x.gen).max(1) as f64;
    out.push(Metric::new("obs.trace_overhead_frac", per_tx(t) / per_tx(plain) - 1.0, "1"));
    Ok(())
}

fn acked_slots(g: &GenReport) -> usize {
    g.slots.iter().filter(|s| s.end == SlotEnd::Acked).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_passes_the_gate_and_accounts_every_slot() {
        let spec = TcpSpec { rate: 200, drain: Duration::from_secs(2), ..N4_OPEN };
        let out = run(&spec, 1, 1.5, false).expect("healthy short run");
        assert_eq!(out.attempted, 300);
        assert!(out.get("commit_mean").is_some_and(|v| v > 0.0));
        assert!(out.get("setup_s").is_some_and(|v| v > 0.0));
    }
}
