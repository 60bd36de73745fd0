//! Correctness gates. A run whose outcome fails a gate fails the
//! benchmark; nothing here is ever reported as a metric.

use crate::sim::Checked;
use crate::sink::BenchSink;
use bft_order::gateway::parse_stamp;
use bft_order::{LogEntry, OrderLog};
use bft_sim::{Report, StopReason};
use bft_smr::{KvState, SmrOutput};
use bft_types::NodeId;
use std::collections::{BTreeMap, BTreeSet};

fn completed<O: Clone + PartialEq>(report: &Report<O>) -> Result<O, String> {
    if report.stop != StopReason::Completed {
        return Err(format!("world stopped with {:?}", report.stop));
    }
    report
        .unanimous_output()
        .ok_or_else(|| "correct nodes did not output one unanimous value".into())
}

/// The `sim-n16-aba` gate: the run completed with a unanimous log, and
/// the log holds nothing but pre-loaded transactions, each at most once
/// and under the node it was pre-loaded at. A pre-loaded transaction
/// missing from the log is a failed operation, not a gate failure: the
/// order layer drops the batch of a proposer that agreement excludes
/// from an epoch.
pub fn order_world(report: &Report<OrderLog>, preload: &[Vec<Vec<u8>>]) -> Result<Checked, String> {
    let log = completed(report)?;
    let mut seen = BTreeSet::new();
    let mut included = BTreeMap::new();
    for entry in &log {
        let key = entry
            .tx
            .get(..8)
            .map(|h| {
                let node = u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize;
                let i = u32::from_le_bytes([h[4], h[5], h[6], h[7]]) as usize;
                (node, i)
            })
            .filter(|&(node, i)| preload.get(node).and_then(|p| p.get(i)) == Some(&entry.tx))
            .ok_or_else(|| {
                format!("log entry at epoch {} is not a pre-loaded transaction", entry.epoch)
            })?;
        if key.0 != entry.proposer.index() {
            return Err(format!("transaction {key:?} committed under proposer {}", entry.proposer));
        }
        if !seen.insert(key) {
            return Err(format!("transaction {key:?} committed twice"));
        }
        *included.entry((entry.epoch, entry.proposer.index())).or_insert(0) += 1;
    }
    let preloaded: u64 = preload.iter().map(|p| p.len() as u64).sum();
    Ok(Checked { preloaded, committed: seen.len() as u64, included, replay: None })
}

/// Applies `log` (in log order) to a fresh state, sealing every epoch
/// below `epochs`.
pub fn replay(log: &[LogEntry], epochs: u64) -> KvState {
    let mut state = KvState::new();
    let mut next = log.iter().peekable();
    for e in 0..epochs {
        while let Some(entry) = next.next_if(|entry| entry.epoch == e) {
            state.apply_slot(entry);
        }
        state.seal_epoch();
    }
    state
}

/// The `sim-n4-kv` gate: the run completed, every node (the restarted
/// one too) output the same state hash and key count over the whole
/// horizon, and that state is exactly what applying each committed
/// pre-loaded transaction once, in the committed order, produces.
///
/// The committed order is rebuilt from outside the program: each
/// proposer drains its mempool in order, its `BatchSubmitted` events
/// give the batch boundaries, and the reference node's applied slots
/// say which batches each epoch accepted.
pub fn kv_world(
    report: &Report<SmrOutput>,
    sink: &BenchSink,
    preload: &[Vec<Vec<u8>>],
    epochs: u64,
) -> Result<Checked, String> {
    let out = completed(report)?;
    if out.epochs != epochs {
        return Err(format!("state covers {} of {epochs} epochs", out.epochs));
    }
    let mut log: Vec<LogEntry> = Vec::new();
    let mut included = BTreeMap::new();
    for (p, txs) in preload.iter().enumerate().filter(|(_, txs)| !txs.is_empty()) {
        let mut cursor = 0usize;
        for (&(_, epoch), &(_, count, _)) in sink.proposals.range((p, 0)..(p + 1, 0)) {
            let batch = txs
                .get(cursor..cursor + count as usize)
                .ok_or_else(|| format!("node {p} proposed past its pre-loaded mempool"))?;
            cursor += count as usize;
            let applied = sink.applied.get(&(epoch, p)).copied().unwrap_or(0);
            if applied == 0 {
                // Excluded by agreement: the batch is lost (counted as
                // failed operations).
                continue;
            }
            if applied != count {
                return Err(format!(
                    "epoch {epoch} applied {applied} of node {p}'s {count} transactions"
                ));
            }
            included.insert((epoch, p), count);
            let proposer = NodeId::new(p);
            log.extend(batch.iter().map(|tx| LogEntry { epoch, proposer, tx: tx.clone() }));
        }
        if cursor != txs.len() {
            return Err(format!(
                "node {p} proposed {cursor} of {} pre-loaded transactions",
                txs.len()
            ));
        }
    }
    let applied: u64 = sink.applied.values().sum();
    if applied != log.len() as u64 {
        return Err(format!(
            "{applied} slots applied but {} pre-loaded transactions committed",
            log.len()
        ));
    }
    log.sort_by_key(|entry| (entry.epoch, entry.proposer));
    let state = replay(&log, epochs);
    if state.state_hash() != out.state_hash || state.len() as u64 != out.keys {
        return Err(format!(
            "nodes agree on state {:016x} ({} keys) but the committed transactions give {:016x} ({} keys)",
            out.state_hash,
            out.keys,
            state.state_hash(),
            state.len()
        ));
    }
    let preloaded = preload.iter().map(|p| p.len() as u64).sum();
    Ok(Checked { preloaded, committed: log.len() as u64, included, replay: Some(log) })
}

/// One TCP run's outcome as the gate sees it.
pub struct TcpOutcome<'a> {
    /// Every correct node output the same log.
    pub agreement: bool,
    /// The cluster hit its run timeout.
    pub timed_out: bool,
    /// A runtime thread panicked.
    pub poisoned: bool,
    /// The unanimous log, if there is one.
    pub log: Option<&'a [LogEntry]>,
    /// `(client, seq)` of every acknowledged submission.
    pub acked: &'a [(u64, u64)],
}

/// The `tcp-n4-open` gate: agreement, no timeout, no poisoned thread,
/// and every acknowledged `(client, seq)` appears exactly once in the
/// unanimous log — an ack for an absent entry is a lost write.
pub fn tcp(o: &TcpOutcome<'_>) -> Result<(), String> {
    if !o.agreement {
        return Err("nodes output different logs".into());
    }
    if o.timed_out {
        return Err("cluster run timed out".into());
    }
    if o.poisoned {
        return Err("a runtime thread panicked".into());
    }
    let log = o.log.ok_or("no unanimous log")?;
    let mut in_log: BTreeMap<(u64, u64), u32> = BTreeMap::new();
    for entry in log {
        let (client, seq, _) = parse_stamp(&entry.tx)
            .ok_or_else(|| format!("unstamped log entry at epoch {}", entry.epoch))?;
        *in_log.entry((client, seq)).or_insert(0) += 1;
    }
    if let Some((id, _)) = in_log.iter().find(|(_, &c)| c > 1) {
        return Err(format!("submission {id:?} committed more than once"));
    }
    for id in o.acked {
        if !in_log.contains_key(id) {
            return Err(format!("submission {id:?} acknowledged but absent from the log"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_order::gateway::stamp_tx;
    use bft_sim::{Metrics, SimTime};

    fn report<O>(outputs: Vec<O>) -> Report<O> {
        let ids: Vec<NodeId> = (0..outputs.len()).map(NodeId::new).collect();
        Report {
            stop: StopReason::Completed,
            end_time: SimTime::from_ticks(1),
            output_times: BTreeMap::new(),
            output_rounds: BTreeMap::new(),
            outputs: ids.iter().copied().zip(outputs).collect(),
            max_round: 1,
            metrics: Metrics::default(),
            correct: ids,
            trace: Vec::new(),
        }
    }

    #[test]
    fn kv_gate_rejects_one_node_with_a_different_hash() {
        let out = SmrOutput { state_hash: 1, epochs: 0, keys: 0 };
        let empty = KvState::new();
        let honest = SmrOutput { state_hash: empty.state_hash(), ..out };
        let sink = BenchSink::default();
        assert!(kv_world(&report(vec![honest; 4]), &sink, &[], 0).is_ok());
        let mut doctored = vec![honest; 4];
        doctored[3].state_hash ^= 1;
        assert!(kv_world(&report(doctored), &sink, &[], 0).is_err());
    }

    #[test]
    fn order_gate_rejects_foreign_and_duplicate_transactions() {
        let tx = |node: u32, i: u32| {
            let mut t = node.to_le_bytes().to_vec();
            t.extend_from_slice(&i.to_le_bytes());
            t
        };
        let preload = vec![vec![tx(0, 0), tx(0, 1)], vec![tx(1, 0)]];
        let entry =
            |node: usize, t: Vec<u8>| LogEntry { epoch: 0, proposer: NodeId::new(node), tx: t };
        let full = vec![entry(0, tx(0, 0)), entry(0, tx(0, 1)), entry(1, tx(1, 0))];
        let ok =
            order_world(&report(vec![full.clone(), full.clone()]), &preload).expect("valid log");
        assert_eq!(ok.committed, 3);
        assert_eq!(ok.included[&(0, 0)], 2);

        let mut missing = full.clone();
        missing.pop();
        let short =
            order_world(&report(vec![missing.clone(), missing]), &preload).expect("a lost batch");
        assert_eq!(
            (short.preloaded, short.committed),
            (3, 2),
            "a missing transaction is a failure"
        );
        let mut foreign = full.clone();
        foreign[0].tx.push(1);
        assert!(order_world(&report(vec![foreign.clone(), foreign]), &preload).is_err());
        let mut twice = full.clone();
        twice.push(entry(1, tx(1, 0)));
        assert!(order_world(&report(vec![twice.clone(), twice]), &preload).is_err());
        assert!(order_world(&report(vec![full.clone(), Vec::new()]), &preload).is_err());
    }

    #[test]
    fn tcp_gate_rejects_an_ack_whose_entry_was_removed() {
        let log: Vec<LogEntry> = (1..=3)
            .map(|seq| LogEntry {
                epoch: seq,
                proposer: NodeId::new(0),
                tx: stamp_tx(7, seq, b"x"),
            })
            .collect();
        let acked = [(7, 1), (7, 2), (7, 3)];
        fn outcome<'a>(log: &'a [LogEntry], acked: &'a [(u64, u64)]) -> TcpOutcome<'a> {
            TcpOutcome { agreement: true, timed_out: false, poisoned: false, log: Some(log), acked }
        }
        assert!(tcp(&outcome(&log, &acked)).is_ok());
        let mut doctored = log.clone();
        doctored.remove(1);
        assert!(tcp(&outcome(&doctored, &acked)).is_err());
        let mut dup = log.clone();
        dup.push(log[0].clone());
        assert!(tcp(&outcome(&dup, &acked)).is_err());
        assert!(tcp(&TcpOutcome { timed_out: true, ..outcome(&log, &acked) }).is_err());
    }
}
