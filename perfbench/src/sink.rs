//! The benchmark's observer: the few ordering and state-machine events
//! its metrics and gates are computed from.

use bft_obs::{Event, Sink};
use bft_types::NodeId;
use std::collections::BTreeMap;

/// Events recorded during one run. Times are the observer clock: ticks
/// in the simulator, microseconds since run start over TCP.
#[derive(Debug, Default)]
pub struct BenchSink {
    /// `(proposer, epoch)` → (proposal time, transactions, batch bytes).
    pub proposals: BTreeMap<(usize, u64), (u64, u64, u64)>,
    /// `(node, epoch)` → (commit time, accepted slots, transactions).
    pub commits: BTreeMap<(usize, u64), (u64, u64, u64)>,
    /// Slots applied by node 0, per `(epoch, proposer)`.
    pub applied: BTreeMap<(u64, usize), u64>,
    /// `(node, time, snapshot bytes)` of every completed state transfer.
    pub transfers: Vec<(usize, u64, u64)>,
}

/// The node whose applied slots are recorded: node 0 never crashes in
/// any workload, so it applies every epoch live.
const REFERENCE: usize = 0;

impl Sink for BenchSink {
    fn on_event(&mut self, at: u64, node: NodeId, event: &Event) {
        let node = node.index();
        match *event {
            Event::BatchSubmitted { epoch, txs, bytes } => {
                self.proposals.insert((node, epoch), (at, txs, bytes));
            }
            Event::EpochCommitted { epoch, slots, txs } => {
                self.commits.insert((node, epoch), (at, slots, txs));
            }
            Event::SlotApplied { epoch, proposer, .. } if node == REFERENCE => {
                *self.applied.entry((epoch, proposer.index())).or_insert(0) += 1;
            }
            Event::StateTransferCompleted { bytes, .. } => self.transfers.push((node, at, bytes)),
            _ => {}
        }
    }
}
