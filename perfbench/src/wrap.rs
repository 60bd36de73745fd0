//! The benchmark's `Process` wrapper: per-trigger handler timing and
//! sent-message accounting around an unmodified node, measured from
//! outside the program.

use crate::classify::{encoded_len, Class, Classed, CLASSES};
use bft_types::{Effect, NodeId, Process};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What triggered a handler call: a message of some class, the start
/// hook, or a host tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// `on_message` with a message of this class.
    Msg(Class),
    /// `on_start`.
    Start,
    /// `on_tick` (gateway draining on the TCP host).
    Tick,
}

/// Number of trigger slots: one per class plus start and tick.
pub const TRIGGERS: usize = CLASSES + 2;

impl Trigger {
    fn index(self) -> usize {
        match self {
            Trigger::Msg(c) => c.index(),
            Trigger::Start => CLASSES,
            Trigger::Tick => CLASSES + 1,
        }
    }
}

/// Messages kept per class for the codec replay.
const SAMPLE_CAP: usize = 128;
/// Keep every this-many-th sent message of a class as a replay sample.
const SAMPLE_EVERY: u64 = 97;

/// Measurements of one run, shared by every wrapped node.
pub struct Probe<M> {
    /// Handler wall time per trigger, nanoseconds.
    pub handler_ns: [u64; TRIGGERS],
    /// Handler calls per trigger.
    pub handler_calls: [u64; TRIGGERS],
    /// Messages sent per class, counted per recipient.
    pub sent_msgs: [u64; CLASSES],
    /// Exact encoded bytes sent per class, counted per recipient.
    pub sent_bytes: [u64; CLASSES],
    /// Highest round seen per agreement instance `(epoch, proposer)`.
    pub aba_rounds: BTreeMap<(u64, u32), u64>,
    /// Sent messages kept per class for the codec replay.
    pub samples: Vec<Vec<M>>,
    /// Linux thread ids that ran handlers (the TCP actor threads).
    pub tids: Vec<u32>,
}

impl<M> Default for Probe<M> {
    fn default() -> Self {
        Probe {
            handler_ns: [0; TRIGGERS],
            handler_calls: [0; TRIGGERS],
            sent_msgs: [0; CLASSES],
            sent_bytes: [0; CLASSES],
            aba_rounds: BTreeMap::new(),
            samples: (0..CLASSES).map(|_| Vec::new()).collect(),
            tids: Vec::new(),
        }
    }
}

impl<M> Probe<M> {
    /// Handler time over the triggers selected by `pick`.
    pub fn ns_where(&self, pick: impl Fn(Trigger) -> bool) -> u64 {
        self.sum_where(&self.handler_ns, pick)
    }

    /// Handler calls over the triggers selected by `pick`.
    pub fn calls_where(&self, pick: impl Fn(Trigger) -> bool) -> u64 {
        self.sum_where(&self.handler_calls, pick)
    }

    fn sum_where(&self, arr: &[u64; TRIGGERS], pick: impl Fn(Trigger) -> bool) -> u64 {
        let all =
            Class::ALL.iter().map(|&c| Trigger::Msg(c)).chain([Trigger::Start, Trigger::Tick]);
        all.filter(|&t| pick(t)).map(|t| arr[t.index()]).sum()
    }

    /// Mean of the highest round reached per agreement instance.
    pub fn mean_aba_rounds(&self) -> f64 {
        if self.aba_rounds.is_empty() {
            return 0.0;
        }
        self.aba_rounds.values().sum::<u64>() as f64 / self.aba_rounds.len() as f64
    }
}

/// The Linux id of the calling thread.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Lets the harness end a TCP run at an epoch it picks after the load
/// window: each node publishes its committed-epoch count, and once the
/// harness sets the stop epoch every node outputs its log below it.
pub struct StopCtl {
    /// Epochs fully appended to each node's log.
    pub committed: Vec<AtomicU64>,
    /// Epoch below which nodes output their log; `u64::MAX` until set.
    pub stop_epoch: AtomicU64,
}

impl StopCtl {
    /// A controller for `n` nodes with no stop epoch set.
    pub fn new(n: usize) -> Self {
        StopCtl {
            committed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            stop_epoch: AtomicU64::new(u64::MAX),
        }
    }

    /// The highest committed-epoch count any node published.
    pub fn max_committed(&self) -> u64 {
        self.committed.iter().map(|c| c.load(Ordering::SeqCst)).max().unwrap_or(0)
    }
}

/// How the wrapper reads a node's log for [`StopCtl`].
pub struct StopHook<P: Process> {
    ctl: Arc<StopCtl>,
    committed: fn(&P) -> u64,
    prefix: fn(&P, u64) -> P::Output,
    done: bool,
}

impl<P: Process> StopHook<P> {
    /// A hook reading committed epochs and log prefixes through the two
    /// accessors.
    pub fn new(
        ctl: Arc<StopCtl>,
        committed: fn(&P) -> u64,
        prefix: fn(&P, u64) -> P::Output,
    ) -> Self {
        StopHook { ctl, committed, prefix, done: false }
    }
}

/// A node wrapped for measurement. With neither a probe nor a stop hook
/// it forwards every call unchanged.
pub struct Node<P: Process> {
    inner: P,
    n: usize,
    probe: Option<Arc<Mutex<Probe<P::Msg>>>>,
    bytes: Option<Arc<AtomicU64>>,
    stop: Option<StopHook<P>>,
    tid_recorded: bool,
}

impl<P> Node<P>
where
    P: Process,
    P::Msg: Classed,
{
    /// Wraps `inner` in a cluster of `n` nodes.
    pub fn new(inner: P, n: usize) -> Self {
        Node { inner, n, probe: None, bytes: None, stop: None, tid_recorded: false }
    }

    /// Times handlers and counts sent messages into `probe`.
    pub fn probe(mut self, probe: Arc<Mutex<Probe<P::Msg>>>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Adds the exact encoded bytes of every sent message, counted per
    /// recipient, to `counter`.
    pub fn count_bytes(mut self, counter: Arc<AtomicU64>) -> Self {
        self.bytes = Some(counter);
        self
    }

    /// Ends the node's run at the harness-chosen stop epoch.
    pub fn stop(mut self, hook: StopHook<P>) -> Self {
        self.stop = Some(hook);
        self
    }

    fn call(
        &mut self,
        trigger: Trigger,
        msg: Option<&P::Msg>,
        f: impl FnOnce(&mut P) -> Vec<Effect<P::Msg, P::Output>>,
    ) -> Vec<Effect<P::Msg, P::Output>> {
        let mut out = match &self.probe {
            None => f(&mut self.inner),
            Some(probe) => {
                let t0 = Instant::now();
                let out = f(&mut self.inner);
                let ns = t0.elapsed().as_nanos() as u64;
                let mut p = probe.lock().expect("probe lock poisoned by a panicking node");
                p.handler_ns[trigger.index()] += ns;
                p.handler_calls[trigger.index()] += 1;
                if let Some((inst, round)) = msg.and_then(Classed::aba_round) {
                    let r = p.aba_rounds.entry(inst).or_insert(0);
                    *r = (*r).max(round);
                }
                for effect in &out {
                    let (m, recipients) = match effect {
                        Effect::Send { msg, .. } => (msg, 1),
                        Effect::Broadcast { msg } => (msg, self.n as u64),
                        Effect::Output(_) | Effect::Halt => continue,
                    };
                    let c = m.class().index();
                    let before = p.sent_msgs[c];
                    p.sent_msgs[c] += recipients;
                    p.sent_bytes[c] += encoded_len(m) as u64 * recipients;
                    if before / SAMPLE_EVERY != p.sent_msgs[c] / SAMPLE_EVERY
                        && p.samples[c].len() < SAMPLE_CAP
                    {
                        p.samples[c].push(m.clone());
                    }
                }
                if !self.tid_recorded {
                    self.tid_recorded = true;
                    p.tids.extend(current_tid());
                }
                out
            }
        };
        if let Some(counter) = &self.bytes {
            let sent: u64 = out
                .iter()
                .map(|effect| match effect {
                    Effect::Send { msg, .. } => encoded_len(msg) as u64,
                    Effect::Broadcast { msg } => encoded_len(msg) as u64 * self.n as u64,
                    Effect::Output(_) | Effect::Halt => 0,
                })
                .sum();
            counter.fetch_add(sent, Ordering::Relaxed);
        }
        if let Some(hook) = &mut self.stop {
            let committed = (hook.committed)(&self.inner);
            let id = self.inner.id().index();
            hook.ctl.committed[id].store(committed, Ordering::SeqCst);
            let stop_epoch = hook.ctl.stop_epoch.load(Ordering::SeqCst);
            if !hook.done && committed >= stop_epoch {
                hook.done = true;
                out.push(Effect::Output((hook.prefix)(&self.inner, stop_epoch)));
            }
        }
        out
    }
}

impl<P> Process for Node<P>
where
    P: Process,
    P::Msg: Classed,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn on_start(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        self.call(Trigger::Start, None, |p| p.on_start())
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg) -> Vec<Effect<P::Msg, P::Output>> {
        self.call(Trigger::Msg(msg.class()), Some(msg), |p| p.on_message(from, msg))
    }

    fn on_tick(&mut self) -> Vec<Effect<P::Msg, P::Output>> {
        self.call(Trigger::Tick, None, |p| p.on_tick())
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }

    fn round(&self) -> u64 {
        self.inner.round()
    }
}
