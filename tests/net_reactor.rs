//! Regression and differential gates for the reactor transport and the
//! client gateway.
//!
//! The transport's oracle is the deterministic simulator: the same
//! seeded ordering workload must commit the byte-identical log, and the
//! same n=16 coded broadcast must deliver the identical payload, in the
//! simulator and over loopback TCP under frame drops and duplication.
//! Alongside ride three bugfix regressions: bind failures surface as
//! typed [`SetupError`]s instead of panics, shutdown is never stalled by
//! in-flight chaos/backoff waits, and a panicked runtime thread is
//! reported via `RuntimeReport::poisoned` instead of being masked by
//! poison-riding mutex locks.
//!
//! These tests open real sockets and real threads; CI runs them
//! single-threaded (`--test-threads=1`) under a hard timeout.

use async_bft::coin::{CommonCoin, LocalCoin};
use async_bft::consensus::{BrachaOptions, BrachaProcess, Wire};
use async_bft::net::{ChaosConfig, NetRuntime, SetupError};
use async_bft::obs::{Event, Obs, Sink};
use async_bft::order::gateway::{GatewayCore, OfferOutcome};
use async_bft::order::{Backpressure, OrderLog, OrderMessage, OrderOptions, OrderProcess};
use async_bft::rbc::CodedProcess;
use async_bft::sim::{UniformDelay, World, WorldConfig};
use async_bft::types::{Config, Effect, NodeId, Process, Value};
use proptest::prelude::*;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// Differential gates: simulator vs reactor
// ---------------------------------------------------------------------

/// The seeded n=4 ordering node `id`: its workload depends only on
/// (seed, node), never on the substrate's scheduling.
fn order_node(cfg: Config, id: NodeId, seed: u64) -> OrderProcess<CommonCoin> {
    let opts =
        OrderOptions { batch_max: 2, pipeline_depth: 2, epochs: 3, ..OrderOptions::default() };
    let per_node = opts.epochs as usize * opts.batch_max;
    let workload: Vec<Vec<u8>> =
        (0..per_node).map(|i| format!("tx-{seed}-{}-{i}", id.index()).into_bytes()).collect();
    OrderProcess::new(cfg, id, opts, workload, move |inst| CommonCoin::new(seed, inst))
}

/// The ordering differential at n=4: the same seeded workload commits
/// the byte-identical log in the deterministic simulator and over
/// loopback TCP with 5% of frame transmissions dropped and 2.5%
/// duplicated.
#[test]
fn sim_and_reactor_commit_identical_ordered_log_under_chaos() {
    let (n, seed) = (4, 17);
    let cfg = Config::new(n, 1).expect("4 >= 3f + 1");

    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, seed));
    for id in cfg.nodes() {
        world.add_process(Box::new(order_node(cfg, id, seed)));
    }
    let sim_report = world.run();
    assert!(sim_report.all_correct_decided(), "sim ordering run stalled");
    let sim_log: OrderLog = sim_report.unanimous_output().expect("sim nodes must agree on one log");

    let chaos = ChaosConfig {
        seed: 0xD1FF,
        drop_per_mille: 50,
        dup_per_mille: 25,
        ..ChaosConfig::default()
    };
    let mut rt: NetRuntime<OrderMessage, OrderLog> =
        NetRuntime::new(n).timeout(TIMEOUT).chaos(chaos);
    for id in cfg.nodes() {
        rt.add_process(Box::new(order_node(cfg, id, seed)));
    }
    let report = rt.run();
    assert!(!report.timed_out, "TCP ordering run stalled");
    assert!(report.agreement_holds(), "TCP nodes diverged");
    assert!(!report.poisoned, "TCP run recorded a thread panic");
    let tcp_log = report.unanimous_output().expect("TCP nodes must agree on one log");

    assert!(!sim_log.is_empty(), "committed log must carry the workload");
    assert_eq!(sim_log, tcp_log, "sim and TCP committed different logs from identical inputs");
}

/// The n=16 differential: a 64 KiB erasure-coded broadcast delivers the
/// identical byte string in the deterministic simulator and over the
/// reactor with 3% of frame transmissions dropped — the full f=5 mesh
/// geometry (240 directed links retransmitting), not just the n=4 smoke
/// mesh. The simulator is the oracle now that the reactor is the only
/// TCP driver.
#[test]
fn reactor_matches_threads_on_coded_rbc_at_n16() {
    let n = 16;
    let cfg = Config::max_resilience(n).expect("16 >= 3f + 1");
    let sender = NodeId::new(0);
    let payload: Vec<u8> =
        (0..64 * 1024).map(|i| (i as u8).wrapping_mul(97).wrapping_add(13)).collect();

    let mut world = World::new(WorldConfig::new(n), UniformDelay::new(1, 20, 0xAB16));
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        world.add_process(Box::new(CodedProcess::new(cfg, id, sender, mine)));
    }
    let sim_report = world.run();
    assert!(sim_report.all_correct_decided(), "sim coded broadcast stalled at n=16");
    let sim_log: Vec<u8> =
        sim_report.unanimous_output().expect("sim nodes must agree on one payload");

    let chaos = ChaosConfig { seed: 0xAB16, drop_per_mille: 30, ..ChaosConfig::default() };
    let mut rt: NetRuntime<_, Vec<u8>> = NetRuntime::new(n).timeout(TIMEOUT).chaos(chaos);
    for id in cfg.nodes() {
        let mine = (id == sender).then(|| payload.clone());
        rt.add_process(Box::new(CodedProcess::new(cfg, id, sender, mine)));
    }
    let report = rt.run();
    assert!(!report.timed_out, "reactor coded broadcast stalled at n=16");
    assert!(!report.poisoned, "reactor run recorded a thread panic");
    let tcp_log = report.unanimous_output().expect("reactor nodes diverged at n=16");

    assert_eq!(sim_log, payload, "simulator corrupted the payload");
    assert_eq!(tcp_log, payload, "reactor corrupted the payload");
    assert_eq!(sim_log, tcp_log);
}

// ---------------------------------------------------------------------
// Gateway sequencing proptest
// ---------------------------------------------------------------------

/// One step of the randomized gateway schedule.
#[derive(Clone, Debug)]
enum GwOp {
    /// A client submission attempt: `(client, seq, mempool_accepts)`.
    Offer(u64, u64, bool),
    /// The log surfaced `(client, seq)` — only applied when that seq
    /// was actually admitted (the log cannot invent entries).
    Commit(u64, u64),
}

fn arb_gw_op() -> impl Strategy<Value = GwOp> {
    prop_oneof![
        (0u64..3, 1u64..12, proptest::bool::ANY).prop_map(|(c, s, ok)| GwOp::Offer(c, s, ok)),
        (0u64..3, 1u64..12).prop_map(|(c, s)| GwOp::Commit(c, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Per-client sequencing never reorders or drops acked submissions,
    /// no matter how offers, backpressure refusals, duplicates, gaps and
    /// commits interleave: the set of seqs admitted to the mempool for
    /// each client is exactly `1..=k` in ascending order, a
    /// backpressured offer never advances the window, and every commit
    /// ack refers to a previously admitted seq.
    #[test]
    fn gateway_sequencing_never_reorders_or_drops(
        ops in proptest::collection::vec(arb_gw_op(), 1..120),
    ) {
        let bp = Backpressure { pending: 8, capacity: 8 };
        let mut core = GatewayCore::new();
        // The mempool tape: every admission, in call order.
        let mut admitted: Vec<(u64, u64)> = Vec::new();
        // Reference model: per-client high-water marks.
        let mut model_admitted = std::collections::BTreeMap::<u64, u64>::new();
        let mut model_committed = std::collections::BTreeMap::<u64, u64>::new();

        for op in &ops {
            match *op {
                GwOp::Offer(client, seq, accepts) => {
                    let hi = model_admitted.get(&client).copied().unwrap_or(0);
                    let before = core.expected(client);
                    let outcome = core.offer(client, seq, || {
                        admitted.push((client, seq));
                        if accepts { Ok(()) } else { Err(bp) }
                    });
                    match outcome {
                        OfferOutcome::Accepted => {
                            prop_assert_eq!(seq, hi + 1, "admitted out of sequence");
                            model_admitted.insert(client, seq);
                        }
                        OfferOutcome::Backpressured(_) => {
                            prop_assert_eq!(seq, hi + 1, "backpressure for a non-next seq");
                            prop_assert_eq!(
                                core.expected(client), before,
                                "backpressure advanced the window"
                            );
                            // The refused admission never reached the
                            // mempool's accepted state; drop it from the
                            // tape the way `OrderProcess::submit` does.
                            prop_assert_eq!(admitted.pop(), Some((client, seq)));
                        }
                        OfferOutcome::DuplicateCommitted => {
                            let committed = model_committed.get(&client).copied().unwrap_or(0);
                            prop_assert!(seq <= committed, "spurious re-ack");
                        }
                        OfferOutcome::DuplicateInFlight => {
                            prop_assert!(seq <= hi, "in-flight duplicate above the window");
                        }
                        OfferOutcome::Gap { expected } => {
                            prop_assert_eq!(expected, hi + 1);
                            prop_assert!(seq > hi + 1, "gap verdict for an in-window seq");
                        }
                    }
                }
                GwOp::Commit(client, seq) => {
                    // Only seqs the gateway admitted can surface in the
                    // replicated log.
                    let hi = model_admitted.get(&client).copied().unwrap_or(0);
                    if seq <= hi {
                        prop_assert!(core.mark_committed(client, seq), "lost an admitted client");
                        let slot = model_committed.entry(client).or_insert(0);
                        *slot = (*slot).max(seq);
                    }
                }
            }
        }

        // The mempool tape holds every acked submission exactly once,
        // per client in ascending contiguous order: nothing reordered,
        // nothing dropped.
        for (client, hi) in &model_admitted {
            let seqs: Vec<u64> =
                admitted.iter().filter(|(c, _)| c == client).map(|&(_, s)| s).collect();
            let expect: Vec<u64> = (1..=*hi).collect();
            prop_assert_eq!(&seqs, &expect, "client {} mempool tape diverged", client);
            prop_assert_eq!(core.expected(*client), hi + 1);
        }
    }
}

// ---------------------------------------------------------------------
// Bugfix regressions
// ---------------------------------------------------------------------

/// A two-node process that chatters forever and never produces an
/// output — traffic to park chaos-delay sleeps on, with no way for the
/// run to end except the timeout.
struct Chatter {
    id: NodeId,
}

impl Process for Chatter {
    type Msg = Vec<u8>;
    type Output = u64;

    fn id(&self) -> NodeId {
        self.id
    }

    fn on_start(&mut self) -> Vec<Effect<Vec<u8>, u64>> {
        vec![Effect::Send { to: NodeId::new(1 - self.id.index()), msg: vec![1] }]
    }

    fn on_message(&mut self, from: NodeId, _msg: &Vec<u8>) -> Vec<Effect<Vec<u8>, u64>> {
        vec![Effect::Send { to: from, msg: vec![1] }]
    }

    fn output(&self) -> Option<u64> {
        None
    }
}

/// Regression for the setup-panic bugfix: pointing every node's
/// listener at an already-claimed concrete port must surface as
/// `Err(SetupError::Bind { node: 0, .. })` from `try_run`, not a panic
/// — and before any cluster thread has started.
#[test]
fn claimed_port_is_a_typed_setup_error_not_a_panic() {
    // Claim an ephemeral port for the duration of the test.
    let claimed = std::net::TcpListener::bind("127.0.0.1:0").expect("claim a port");
    let addr = claimed.local_addr().expect("claimed port has an address");

    let mut rt: NetRuntime<Vec<u8>, u64> = NetRuntime::new(2).timeout(TIMEOUT).bind_addr(addr);
    for i in 0..2 {
        rt.add_process(Box::new(Chatter { id: NodeId::new(i) }));
    }
    match rt.try_run() {
        Err(SetupError::Bind { node, source }) => {
            assert_eq!(node, 0, "the first bind attempt must fail");
            assert_eq!(source.kind(), std::io::ErrorKind::AddrInUse);
        }
        Err(other) => panic!("wrong setup error: {other}"),
        Ok(_) => panic!("binding a claimed port succeeded?"),
    }
}

/// Regression for the uninterruptible-sleep bugfix: with every frame
/// delayed five seconds by chaos, every link sits in a delay wait when
/// the run times out. Shutdown must cut those waits short: the whole
/// run — teardown included — finishes in a fraction of one injected
/// delay, where blocking sleeps would stall teardown for the full five
/// seconds.
#[test]
fn shutdown_interrupts_chaos_and_backoff_sleeps() {
    let chaos = ChaosConfig {
        seed: 5,
        delay_per_mille: 1000,
        max_delay_ms: 5_000,
        ..ChaosConfig::default()
    };
    let started = Instant::now();
    let mut rt: NetRuntime<Vec<u8>, u64> =
        NetRuntime::new(2).timeout(Duration::from_millis(500)).chaos(chaos);
    for i in 0..2 {
        rt.add_process(Box::new(Chatter { id: NodeId::new(i) }));
    }
    let report = rt.run();
    let total = started.elapsed();
    assert!(report.timed_out, "a chatter run can only end by timeout");
    assert!(
        total < Duration::from_secs(4),
        "teardown took {total:?} — shutdown stalled in a chaos/backoff wait"
    );
}

/// A recording sink that panics on the first `LinkLogPeak` it sees —
/// i.e. inside a supervised reactor thread at teardown, after the
/// cluster has decided.
struct PanicOnceSink {
    events: Vec<(u64, NodeId, Event)>,
    armed: bool,
}

impl Sink for PanicOnceSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        if self.armed && matches!(event, Event::LinkLogPeak { .. }) {
            self.armed = false;
            panic!("injected observer failure");
        }
        self.events.push((at, node, event.clone()));
    }
}

/// Regression for the poison-masking bugfix: a panic in a runtime
/// thread (injected here through a sink that blows up mid-teardown)
/// must surface as `RuntimeReport::poisoned` plus a `PoisonDetected`
/// event — not be silently ridden through by the poison-tolerant mutex
/// locks. The run itself still completes: supervision contains the
/// panic, it does not cascade.
#[test]
fn panicked_runtime_thread_is_reported_not_masked() {
    let (obs, shared) = Obs::new(PanicOnceSink { events: Vec::new(), armed: true });
    let cfg = Config::new(4, 1).expect("4 >= 3f + 1");
    let mut rt: NetRuntime<Wire, Value> = NetRuntime::new(4).timeout(TIMEOUT).observer(obs.clone());
    for id in cfg.nodes() {
        rt.add_process(Box::new(BrachaProcess::new(
            cfg,
            id,
            Value::One,
            LocalCoin::new(23, id),
            BrachaOptions::default(),
        )));
    }
    let report = rt.run();
    drop(obs);

    assert!(!report.timed_out, "the injected panic must not stall the run");
    assert!(report.all_correct_decided());
    assert_eq!(report.unanimous_output(), Some(Value::One));
    assert!(report.poisoned, "a panicked runtime thread went unreported");

    let events = std::mem::take(&mut shared.lock().events);
    assert!(
        events.iter().any(|(_, _, ev)| matches!(ev, Event::PoisonDetected { .. })),
        "no PoisonDetected event reached the sink"
    );
}
