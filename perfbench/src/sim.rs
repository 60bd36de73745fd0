//! The simulator workloads: `sim-n16-aba` (ordering only, where the
//! agreement layer's message count dominates) and `sim-n4-kv` (the
//! replicated KV service over coded RBC, with a crash and an empty
//! restart that must catch up by state transfer).

use crate::classify::{classify, Class, Classed};
use crate::gate;
use crate::layers::{ec_replay, node_metrics, order_metrics};
use crate::report::{Metric, Outcome};
use crate::sink::BenchSink;
use crate::stats::{median, Latencies};
use crate::wrap::{Node, Probe};
use crate::{mix, Rng};
use bft_coin::CommonCoin;
use bft_obs::{Obs, SharedSink};
use bft_order::{OrderLog, OrderMessage, OrderOptions, OrderProcess};
use bft_rbc::RbcKind;
use bft_sim::{Report, SimTime, UniformDelay, World, WorldConfig};
use bft_smr::{KvOp, SmrMessage, SmrOptions, SmrOutput, SmrProcess};
use bft_types::{Config, NodeId, Process};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Payload bytes of one `sim-n16-aba` transaction.
const TX_BYTES: usize = 32;

/// One simulator workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// Cluster size (f is the largest the size tolerates).
    pub n: usize,
    /// Batch dissemination.
    pub rbc: RbcKind,
    /// Transactions per proposed batch.
    pub batch_max: usize,
    /// Own epochs in flight.
    pub pipeline: usize,
    /// Epochs per world.
    pub epochs: u64,
    /// The replicated KV service, when the workload runs it.
    pub kv: Option<KvSpec>,
}

/// The KV-service part of a workload.
#[derive(Clone, Copy, Debug)]
pub struct KvSpec {
    /// Bytes of each `Put` value.
    pub value_bytes: usize,
    /// Distinct keys the puts spread over.
    pub keys: u64,
    /// Epochs between certified checkpoints.
    pub checkpoint_interval: u64,
    /// The node that crashes and restarts empty. Its mempool starts
    /// empty, so the crash loses no pre-loaded transaction and every
    /// one of them must still commit exactly once.
    pub victim: usize,
    /// Crash tick.
    pub crash_at: u64,
    /// Restart tick.
    pub restart_at: u64,
}

/// `sim-n16-aba`: Bracha RBC, 32 B transactions, common coin.
pub const N16_ABA: SimSpec =
    SimSpec { n: 16, rbc: RbcKind::Bracha, batch_max: 8, pipeline: 2, epochs: 4, kv: None };

/// `sim-n4-kv`: coded RBC, 4 KiB puts over 128 keys, checkpoint every
/// 8 epochs, node 3 down from tick 120 to tick 8000.
pub const N4_KV: SimSpec = SimSpec {
    n: 4,
    rbc: RbcKind::Coded,
    batch_max: 8,
    pipeline: 2,
    epochs: 300,
    kv: Some(KvSpec {
        value_bytes: 4096,
        keys: 128,
        checkpoint_interval: 8,
        victim: 3,
        crash_at: 120,
        restart_at: 8000,
    }),
};

impl SimSpec {
    fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    fn config(&self) -> Config {
        Config::new(self.n, self.f()).expect("workload sizes are valid configurations")
    }

    fn order(&self) -> OrderOptions {
        OrderOptions {
            batch_max: self.batch_max,
            pipeline_depth: self.pipeline,
            epochs: self.epochs,
            rbc: self.rbc,
        }
    }

    /// Transactions pre-loaded into node `node`'s mempool.
    fn preload_len(&self, node: usize) -> usize {
        match self.kv {
            Some(kv) if kv.victim == node => 0,
            _ => self.epochs as usize * self.batch_max,
        }
    }

    /// Transaction `i` of node `node`: a unique `(node, i)` header, then
    /// seeded bytes (a 32 B opaque payload, or a KV `Put`).
    fn tx(&self, seed: u64, node: usize, i: usize) -> Vec<u8> {
        let mut rng = Rng::new(mix(&[seed, node as u64, i as u64]));
        match self.kv {
            None => {
                let mut tx = Vec::with_capacity(TX_BYTES);
                tx.extend_from_slice(&(node as u32).to_le_bytes());
                tx.extend_from_slice(&(i as u32).to_le_bytes());
                while tx.len() < TX_BYTES {
                    tx.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                tx.truncate(TX_BYTES);
                tx
            }
            Some(kv) => {
                let key = format!("key-{:03}", rng.next_u64() % kv.keys).into_bytes();
                let mut value = Vec::with_capacity(kv.value_bytes);
                value.extend_from_slice(&(node as u32).to_le_bytes());
                value.extend_from_slice(&(i as u32).to_le_bytes());
                while value.len() < kv.value_bytes {
                    value.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                value.truncate(kv.value_bytes);
                KvOp::Put { key, value }.encode()
            }
        }
    }

    fn preload(&self, seed: u64) -> Vec<Vec<Vec<u8>>> {
        (0..self.n)
            .map(|p| (0..self.preload_len(p)).map(|i| self.tx(seed, p, i)).collect())
            .collect()
    }
}

/// What the gate established about one world, plus what the metrics
/// need from it.
pub struct Checked {
    /// Transactions pre-loaded into the mempools.
    pub preloaded: u64,
    /// Pre-loaded transactions committed (each exactly once).
    pub committed: u64,
    /// Committed transactions per `(epoch, proposer)` slot.
    pub included: BTreeMap<(u64, usize), u64>,
    /// The committed log rebuilt from outside the program (KV only).
    pub replay: Option<Vec<bft_order::LogEntry>>,
}

/// One finished world.
struct WorldRun<M> {
    /// Wall time of `World::run`.
    run_s: f64,
    /// Simulated duration, seconds (1 tick = 1 ms).
    sim_s: f64,
    report_events: u64,
    bytes_sent: u64,
    msgs_sent: u64,
    sink: BenchSink,
    checked: Checked,
    /// Commit latency samples, ticks.
    ticks: Vec<f64>,
    /// Traced KV worlds: the state-machine replays on the committed log.
    smr: Option<SmrReplay>,
    probe: Option<Probe<M>>,
}

/// `KvState` replays on one world's committed log.
struct SmrReplay {
    apply_ns: u128,
    slots: u64,
    snapshot_ns: Vec<f64>,
    snapshot_bytes: f64,
}

impl SmrReplay {
    fn measure(log: &[bft_order::LogEntry], epochs: u64) -> Self {
        let t0 = Instant::now();
        let state = gate::replay(std::hint::black_box(log), epochs);
        let apply_ns = t0.elapsed().as_nanos();
        let mut snapshot_ns = Vec::new();
        let mut snapshot_bytes = 0.0;
        for _ in 0..5 {
            let t = Instant::now();
            let snap = std::hint::black_box(state.snapshot());
            snapshot_ns.push(t.elapsed().as_nanos() as f64);
            snapshot_bytes = snap.len() as f64;
        }
        SmrReplay { apply_ns, slots: log.len() as u64, snapshot_ns, snapshot_bytes }
    }
}

/// A coin factory for agreement instance numbers.
fn coin(seed: u64) -> impl FnMut(u64) -> CommonCoin + Send + 'static {
    move |inst| CommonCoin::new(seed, inst)
}

type SharedProbe<M> = Option<Arc<Mutex<Probe<M>>>>;

fn boxed<P>(
    p: P,
    n: usize,
    probe: &SharedProbe<P::Msg>,
) -> Box<dyn Process<Msg = P::Msg, Output = P::Output>>
where
    P: Process + 'static,
    P::Msg: Classed,
{
    match probe {
        Some(probe) => Box::new(Node::new(p, n).probe(Arc::clone(probe))),
        None => Box::new(p),
    }
}

/// How one simulator workload builds and checks its worlds.
trait Workload {
    type Msg: Classed + Clone + Debug + 'static;
    type Out: Clone + Debug + PartialEq + 'static;

    /// Installs the nodes (and any scheduled faults) into `world`.
    fn install(
        spec: &SimSpec,
        seed: u64,
        world: &mut World<Self::Msg, Self::Out, UniformDelay>,
        inputs: Vec<Vec<Vec<u8>>>,
        obs: Obs,
        probe: &SharedProbe<Self::Msg>,
    );

    /// The workload's correctness gate.
    fn check(
        spec: &SimSpec,
        report: &Report<Self::Out>,
        sink: &BenchSink,
        preload: &[Vec<Vec<u8>>],
    ) -> Result<Checked, String>;
}

/// `sim-n16-aba`: ordering only.
struct Ordering;

impl Workload for Ordering {
    type Msg = OrderMessage;
    type Out = OrderLog;

    fn install(
        spec: &SimSpec,
        seed: u64,
        world: &mut World<OrderMessage, OrderLog, UniformDelay>,
        inputs: Vec<Vec<Vec<u8>>>,
        obs: Obs,
        probe: &SharedProbe<OrderMessage>,
    ) {
        let cfg = spec.config();
        for (id, txs) in cfg.nodes().zip(inputs) {
            let p = OrderProcess::new(cfg, id, spec.order(), txs, coin(seed)).with_obs(obs.clone());
            world.add_process(boxed(p, spec.n, probe));
        }
    }

    fn check(
        _: &SimSpec,
        report: &Report<OrderLog>,
        _: &BenchSink,
        preload: &[Vec<Vec<u8>>],
    ) -> Result<Checked, String> {
        gate::order_world(report, preload)
    }
}

/// `sim-n4-kv`: the replicated KV service with a crash and a restart.
struct Kv;

impl Workload for Kv {
    type Msg = SmrMessage;
    type Out = SmrOutput;

    fn install(
        spec: &SimSpec,
        seed: u64,
        world: &mut World<SmrMessage, SmrOutput, UniformDelay>,
        inputs: Vec<Vec<Vec<u8>>>,
        obs: Obs,
        probe: &SharedProbe<SmrMessage>,
    ) {
        let kv = spec.kv.expect("the kv workload has a kv spec");
        let cfg = spec.config();
        let n = spec.n;
        let smr = SmrOptions { order: spec.order(), checkpoint_interval: kv.checkpoint_interval };
        for (id, txs) in cfg.nodes().zip(inputs) {
            let p = SmrProcess::new(cfg, id, smr, txs, coin(seed)).with_obs(obs.clone());
            world.add_process(boxed(p, n, probe));
        }
        let victim = NodeId::new(kv.victim);
        world.schedule_crash(victim, SimTime::from_ticks(kv.crash_at));
        let probe = probe.clone();
        world.schedule_restart(
            victim,
            SimTime::from_ticks(kv.restart_at),
            Box::new(move || {
                let p = SmrProcess::new(cfg, victim, smr, Vec::new(), coin(seed))
                    .with_obs(obs)
                    .recovering(true);
                boxed(p, n, &probe)
            }),
        );
    }

    fn check(
        spec: &SimSpec,
        report: &Report<SmrOutput>,
        sink: &BenchSink,
        preload: &[Vec<Vec<u8>>],
    ) -> Result<Checked, String> {
        gate::kv_world(report, sink, preload, spec.epochs)
    }
}

/// A world with the benchmark's classifier and observer installed: the
/// set-up every measured world pays.
fn build<W: Workload>(
    spec: &SimSpec,
    seed: u64,
    inputs: Vec<Vec<Vec<u8>>>,
    obs: &Obs,
    probe: &SharedProbe<W::Msg>,
) -> World<W::Msg, W::Out, UniformDelay> {
    let mut world = World::new(WorldConfig::new(spec.n), UniformDelay::new(1, 20, seed));
    world.set_classifier(classify::<W::Msg>);
    world.set_observer(obs.clone());
    W::install(spec, seed, &mut world, inputs, obs.clone(), probe);
    world
}

/// Builds, runs and checks one world.
fn run_world<W: Workload>(
    spec: &SimSpec,
    seed: u64,
    traced: bool,
) -> Result<WorldRun<W::Msg>, String> {
    let preload = spec.preload(seed);
    let (obs, shared): (Obs, SharedSink<BenchSink>) = Obs::new(BenchSink::default());
    let probe = traced.then(|| Arc::new(Mutex::new(Probe::default())));
    let world = build::<W>(spec, seed, preload.clone(), &obs.sans_spans(), &probe);
    drop(obs);

    let t0 = Instant::now();
    let report = world.run();
    let run_s = t0.elapsed().as_secs_f64();

    let sink = shared.try_into_inner().expect("every observer handle dropped with the world");
    let mut checked = W::check(spec, &report, &sink, &preload)?;
    // The rebuilt log is large (the KV puts); keep only what it measures.
    let log = checked.replay.take();
    let smr = log.filter(|_| traced).map(|log| SmrReplay::measure(&log, spec.epochs));
    let mut ticks = Vec::new();
    commit_ticks(&sink, &checked.included, &mut ticks);
    let probe = probe.map(|p| {
        Arc::try_unwrap(p)
            .ok()
            .expect("every probe handle dropped with the world")
            .into_inner()
            .expect("probe lock poisoned by a panicking node")
    });
    Ok(WorldRun {
        run_s,
        sim_s: report.end_time.ticks() as f64 / 1000.0,
        report_events: report.metrics.events,
        bytes_sent: report.metrics.bytes_sent,
        msgs_sent: report.metrics.sent,
        sink,
        checked,
        ticks,
        smr,
        probe,
    })
}

/// Set-up time is the median over this many world builds.
const SETUPS: usize = 41;

/// Times `SETUPS` builds of the world for `seed` (inputs generated
/// beforehand: they are the benchmark's, not the program's, work).
fn setup_times<W: Workload>(spec: &SimSpec, seed: u64) -> Vec<f64> {
    let preload = spec.preload(seed);
    (0..SETUPS)
        .map(|_| {
            let inputs = preload.clone();
            let (obs, _sink) = Obs::new(BenchSink::default());
            let t0 = Instant::now();
            let world = build::<W>(spec, seed, inputs, &obs.sans_spans(), &None);
            let s = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(world));
            s
        })
        .collect()
}

/// Commit latency samples in ticks: per transaction per node, from its
/// batch's proposal to the epoch's commit at that node.
fn commit_ticks(sink: &BenchSink, included: &BTreeMap<(u64, usize), u64>, out: &mut Vec<f64>) {
    for (&(_node, epoch), &(at, _, _)) in &sink.commits {
        for (&(_, proposer), &count) in included.range((epoch, 0)..(epoch + 1, 0)) {
            if let Some(&(proposed, _, _)) = sink.proposals.get(&(proposer, epoch)) {
                let ticks = at.saturating_sub(proposed) as f64;
                out.extend(std::iter::repeat_n(ticks, count as usize));
            }
        }
    }
}

/// Runs worlds with seeds derived from `seed` until `seconds` of
/// simulation have been measured, then reports end-to-end metrics, or
/// (traced) repeats the same worlds with the wrapper on and reports the
/// per-layer metrics.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    match spec.kv {
        None => measure::<Ordering>(spec, seed, seconds, traced),
        Some(_) => measure::<Kv>(spec, seed, seconds, traced),
    }
}

fn measure<W: Workload>(
    spec: &SimSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let world_seed = |i: usize| mix(&[seed, i as u64]);
    let started = Instant::now();
    let mut plain = Vec::new();
    while plain.is_empty() || started.elapsed().as_secs_f64() < seconds {
        plain.push(run_world::<W>(spec, world_seed(plain.len()), false)?);
    }

    let attempted: u64 = plain.iter().map(|w| w.checked.preloaded).sum();
    let committed: u64 = plain.iter().map(|w| w.checked.committed).sum();
    let mut out = Outcome::new(attempted, attempted - committed);
    if !traced {
        let setups = setup_times::<W>(spec, world_seed(0));
        let sim_s: f64 = plain.iter().map(|w| w.sim_s).sum();
        let lat = Latencies::new(plain.iter().flat_map(|w| w.ticks.iter().copied()).collect());
        let wire: u64 = plain.iter().map(|w| w.bytes_sent).sum();
        out.push(Metric::new("setup_s", median(&setups), "s").samples(setups.len()));
        out.push(Metric::new("tx_per_s", committed as f64 / sim_s, "1/s"));
        out.push(Metric::new("commit_mean", lat.mean(), "ms").samples(lat.count()));
        // Per world, then averaged: within one world the slowest 10% of
        // latencies share a single whole-tick value.
        let tails: Vec<f64> =
            plain.iter().map(|w| Latencies::new(w.ticks.clone()).tail_mean(0.01)).collect();
        let tail = tails.iter().sum::<f64>() / tails.len() as f64;
        out.push(Metric::new("commit_tail_mean", tail, "ms").samples(lat.count()));
        out.push(Metric::new("wire_bytes_per_tx", wire as f64 / committed as f64, "B"));
        // Each pre-loaded transaction is proposed once: committed is first try.
        out.push(Metric::new("first_try_frac", committed as f64 / attempted as f64, "1"));
        out.note(format!(
            "{} worlds, {committed} of {attempted} pre-loaded transactions committed; \
             throughput and latency in simulated time (1 tick = 1 ms of link delay); \
             commit p50 {} ms, p99 {} ms (n={})",
            plain.len(),
            lat.pct(0.5),
            lat.pct(0.99),
            lat.count()
        ));
        let per_world: Vec<String> =
            plain.iter().map(|w| format!("{:.3}s/{}msgs", w.run_s, w.msgs_sent)).collect();
        out.note(format!("world runs: {}", per_world.join(" ")));
        return Ok(out);
    }

    let mut traced_runs = Vec::with_capacity(plain.len());
    for i in 0..plain.len() {
        traced_runs.push(run_world::<W>(spec, world_seed(i), true)?);
    }
    let plain_s: f64 = plain.iter().map(|w| w.run_s).sum();
    let traced_s: f64 = traced_runs.iter().map(|w| w.run_s).sum();
    let wall_rates: Vec<f64> = plain.iter().map(|w| w.checked.committed as f64 / w.run_s).collect();
    out.push(
        Metric::new("sim.wall_tx_per_s", median(&wall_rates), "1/s").samples(wall_rates.len()),
    );
    layer_metrics(spec, &traced_runs, committed, &mut out)?;
    out.push(Metric::new("obs.trace_overhead_frac", traced_s / plain_s - 1.0, "1"));
    Ok(out)
}

/// The per-layer metrics of the traced worlds.
fn layer_metrics<M: Classed + Clone>(
    spec: &SimSpec,
    runs: &[WorldRun<M>],
    committed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let tx = committed.max(1) as f64;
    let probes: Vec<&Probe<M>> = runs.iter().filter_map(|w| w.probe.as_ref()).collect();

    // Self-check of the classifier: the wrapper's own per-recipient
    // encoding of every sent message must match the simulator's bytes.
    for w in runs {
        let p = w.probe.as_ref().expect("traced worlds carry a probe");
        let bytes: u64 = p.sent_bytes.iter().sum();
        let msgs: u64 = p.sent_msgs.iter().sum();
        if bytes != w.bytes_sent || msgs != w.msgs_sent {
            return Err(format!(
                "classifier bytes {} / msgs {} disagree with the encoded sends {bytes} / {msgs}",
                w.bytes_sent, w.msgs_sent
            ));
        }
    }

    let wall_ns: f64 = runs.iter().map(|w| w.run_s * 1e9).sum();
    let handler_ns = probes.iter().map(|p| p.ns_where(|_| true)).sum::<u64>() as f64;
    let worlds = runs.len() as f64;
    out.push(Metric::new("sim.self_ms", (wall_ns - handler_ns) / 1e6 / worlds, "ms"));
    out.push(Metric::new(
        "sim.events_per_tx",
        runs.iter().map(|w| w.report_events).sum::<u64>() as f64 / tx,
        "count",
    ));
    node_metrics(&probes, tx, out)?;

    let sinks: Vec<&BenchSink> = runs.iter().map(|w| &w.sink).collect();
    order_metrics(&sinks, spec.n, spec.batch_max, out);

    // Erasure coding replayed on the batch and snapshot sizes the run saw.
    if spec.rbc == RbcKind::Coded {
        let mut sizes: Vec<usize> = Vec::new();
        for s in &sinks {
            sizes.extend(s.proposals.values().map(|&(_, _, bytes)| bytes as usize));
            sizes.extend(s.transfers.iter().map(|&(_, _, bytes)| bytes as usize));
        }
        ec_replay(&sizes, spec.n, spec.n - 2 * spec.f(), out)?;
    }

    smr_metrics(spec, runs, out);
    Ok(())
}

/// State-machine metrics: apply and snapshot replays on the committed
/// log, state-transfer traffic, and the restarted node's catch-up time.
fn smr_metrics<M>(spec: &SimSpec, runs: &[WorldRun<M>], out: &mut Outcome) {
    let Some(kv) = spec.kv else { return };
    let mut apply_ns = 0u128;
    let mut slots = 0u64;
    let mut snap_ns = Vec::new();
    let mut snap_bytes = Vec::new();
    let mut catchup = Vec::new();
    for w in runs {
        if let Some(r) = &w.smr {
            apply_ns += r.apply_ns;
            slots += r.slots;
            snap_ns.extend_from_slice(&r.snapshot_ns);
            snap_bytes.push(r.snapshot_bytes);
        }
        if let Some(&(_, at, _)) = w.sink.transfers.iter().find(|t| t.0 == kv.victim) {
            catchup.push(at.saturating_sub(kv.restart_at) as f64);
        }
    }
    out.push(Metric::new("smr.apply_ns_per_slot", apply_ns as f64 / slots.max(1) as f64, "ns"));
    out.push(Metric::new("smr.snapshot_bytes", median(&snap_bytes), "B"));
    out.push(Metric::new("smr.snapshot_ns", median(&snap_ns), "ns"));
    let xfer: u64 = runs
        .iter()
        .filter_map(|w| w.probe.as_ref())
        .map(|p| p.sent_bytes[Class::Xfer.index()])
        .sum();
    out.push(Metric::new("smr.xfer_bytes", xfer as f64 / runs.len() as f64, "B"));
    out.push(Metric::new("smr.catchup_ticks", median(&catchup), "ticks"));
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_ORDER: SimSpec =
        SimSpec { n: 4, rbc: RbcKind::Bracha, batch_max: 4, pipeline: 2, epochs: 3, kv: None };

    #[test]
    fn classifier_bytes_equal_encoded_sends() {
        // The traced path cross-checks the classifier against the
        // wrapper's own `Codec::to_bytes` of every sent message and
        // errors on any difference.
        let mut out = Outcome::new(0, 0);
        let w = run_world::<Ordering>(&SMALL_ORDER, 5, true).expect("small world passes the gate");
        let tx = w.checked.committed;
        layer_metrics(&SMALL_ORDER, &[w], tx, &mut out).expect("classifier matches encodings");
    }

    #[test]
    fn kv_world_recovers_and_replays_to_the_same_hash() {
        let spec = SimSpec { epochs: 40, ..N4_KV };
        let spec =
            SimSpec { kv: Some(KvSpec { restart_at: 600, ..spec.kv.expect("kv spec") }), ..spec };
        let w = run_world::<Kv>(&spec, 3, false).expect("kv world passes the gate");
        assert_eq!(w.checked.committed, w.checked.preloaded);
        assert!(w.sink.transfers.iter().any(|t| t.0 == 3), "the victim caught up by transfer");
    }
}
