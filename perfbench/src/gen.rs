//! The open-loop load generator: one thread, one nonblocking connection
//! per gateway, clients submitting on a fixed schedule whatever the
//! cluster does. Every latency is timed from the slot's due time, so a
//! stall anywhere (generator, gateway, cluster) shows in the latencies
//! of every slot that falls due during it.
//!
//! A client resubmits a transaction that has gone unacknowledged for
//! [`RESUBMIT_AFTER`], under its next seq: the ordering engine drops the
//! transactions of a batch that agreement excludes, so a client that
//! waited for every ack would wait for good. Slots that needed a
//! resubmission are counted apart ([`Slot::resubmits`]).

use bft_net::frame::{decode_prefix, encode_frame, FrameKind};
use bft_net::gateway::{parse_submit_nack, parse_submit_ok, submit_payload, NackReason};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long a client waits for an ack before it resubmits the payload
/// under a new seq. Far above the commit latencies of a healthy cluster
/// (about 0.1 s at the benchmark's load), so a slow but ordered
/// submission is almost never sent twice.
pub const RESUBMIT_AFTER: Duration = Duration::from_secs(1);

/// Generator settings.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Simulated clients; client `c` submits through gateway `c % gateways`.
    pub clients: u64,
    /// Aggregate submission rate, per second.
    pub rate: u64,
    /// Client payload bytes per submission.
    pub tx_bytes: usize,
    /// How long slots keep falling due.
    pub window: Duration,
    /// How long after the window to wait for outstanding acks.
    pub drain: Duration,
    /// Unacknowledged submissions a client may have in flight.
    pub client_window: u64,
    /// Test hook: the generator sleeps `(at, for)` into the window.
    pub stall: Option<(Duration, Duration)>,
}

/// Where a due slot ended up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotEnd {
    /// Acknowledged as committed.
    Acked,
    /// Refused for good (an oversize NACK).
    Refused,
    /// Never sent: its client's window stayed full or backing off.
    Throttled,
    /// Sent, never acknowledged by the end of the drain.
    Outstanding,
}

/// One schedule slot.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    /// Due time, µs after the schedule start.
    pub due_us: u64,
    /// When the generator got to the slot, µs after the schedule start.
    pub seen_us: u64,
    /// Ack time, µs after the schedule start.
    pub acked_us: Option<u64>,
    /// Final state.
    pub end: SlotEnd,
    /// Times the client resubmitted the slot's payload under a new seq
    /// after [`RESUBMIT_AFTER`] without an ack.
    pub resubmits: u32,
}

impl Slot {
    /// Acknowledged at its first submission.
    pub fn first_try(&self) -> bool {
        self.end == SlotEnd::Acked && self.resubmits == 0
    }
}

/// What one generator run saw.
#[derive(Clone, Debug, Default)]
pub struct GenReport {
    /// Every slot that fell due, in due order.
    pub slots: Vec<Slot>,
    /// `(client, seq)` of every acknowledged submission.
    pub acked: Vec<(u64, u64)>,
    /// Submit frames written (resends included).
    pub sends: u64,
    /// Backpressure NACKs received.
    pub nacks: u64,
    /// Resubmissions after [`RESUBMIT_AFTER`] without an ack.
    pub resubmits: u64,
}

struct Client {
    /// Slot index of each seq (seq `s` is `slots[s - 1]`); a resubmitted
    /// slot appears again under a later seq.
    slots: Vec<usize>,
    /// Highest seq written to the gateway.
    sent: u64,
    /// Written, unacknowledged seqs with their write time (µs), oldest
    /// first.
    in_flight: VecDeque<(u64, u64)>,
    /// Earliest resend time after a backpressure NACK, µs.
    retry_at_us: u64,
    refused: bool,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
}

impl Conn {
    fn flush(&mut self) -> Result<(), String> {
        while !self.outbuf.is_empty() {
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err("gateway closed the connection".into()),
                Ok(k) => {
                    self.outbuf.drain(..k);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("gateway write: {e}")),
            }
        }
        Ok(())
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("gateway closed the connection".into()),
                Ok(k) => self.inbuf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("gateway read: {e}")),
            }
        }
    }
}

/// Client payload of `(client, seq)`: both ids, then seeded filler.
fn payload(seed: u64, client: u64, seq: u64, len: usize) -> Vec<u8> {
    let mut rng = crate::Rng::new(crate::mix(&[seed, client, seq]));
    let mut tx = Vec::with_capacity(len.max(16));
    tx.extend_from_slice(&client.to_le_bytes());
    tx.extend_from_slice(&seq.to_le_bytes());
    while tx.len() < len {
        tx.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    tx.truncate(len.max(16));
    tx
}

/// Connects one nonblocking socket per gateway address.
pub fn connect(addrs: &[SocketAddr]) -> Result<Vec<TcpStream>, String> {
    addrs
        .iter()
        .map(|a| {
            let s = TcpStream::connect(a).map_err(|e| format!("connect {a}: {e}"))?;
            s.set_nonblocking(true).map_err(|e| format!("nonblocking {a}: {e}"))?;
            let _ = s.set_nodelay(true);
            Ok(s)
        })
        .collect()
}

/// Runs the schedule over `streams` (one per gateway) and returns every
/// slot's fate. `at_window_end` runs once, when the load window closes.
/// Errors if a gateway connection breaks.
pub fn run(
    streams: Vec<TcpStream>,
    cfg: &GenConfig,
    seed: u64,
    mut at_window_end: impl FnMut(),
) -> Result<GenReport, String> {
    let mut conns: Vec<Conn> = streams
        .into_iter()
        .map(|stream| Conn { stream, inbuf: Vec::new(), outbuf: Vec::new() })
        .collect();
    let mut clients: Vec<Client> = (0..cfg.clients)
        .map(|_| Client {
            slots: Vec::new(),
            sent: 0,
            in_flight: VecDeque::new(),
            retry_at_us: 0,
            refused: false,
        })
        .collect();
    let mut report = GenReport::default();
    let total = cfg.rate as u128 * cfg.window.as_micros() / 1_000_000;
    let due_of = |k: u64| (k as u128 * 1_000_000 / cfg.rate as u128) as u64;
    let window_us = cfg.window.as_micros() as u64;
    let end_us = window_us + cfg.drain.as_micros() as u64;
    let resubmit_us = RESUBMIT_AFTER.as_micros() as u64;
    let mut stalled = cfg.stall.is_none();
    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    let mut outstanding = 0u64;

    let mut window_open = true;
    loop {
        let now = now_us();
        if window_open && now >= window_us {
            window_open = false;
            at_window_end();
        }
        if !stalled && cfg.stall.is_some_and(|(at, _)| now >= at.as_micros() as u64) {
            stalled = true;
            std::thread::sleep(cfg.stall.map_or(Duration::ZERO, |(_, d)| d));
            continue;
        }
        // Release every slot now due to its client.
        while (report.slots.len() as u128) < total && due_of(report.slots.len() as u64) <= now {
            let k = report.slots.len();
            let c = k % clients.len();
            clients[c].slots.push(k);
            report.slots.push(Slot {
                due_us: due_of(k as u64),
                seen_us: now,
                acked_us: None,
                end: SlotEnd::Throttled,
                resubmits: 0,
            });
        }
        // Queue every submission unacknowledged for too long again.
        for client in &mut clients {
            while let Some(&(seq, _)) =
                client.in_flight.front().filter(|(_, at)| now >= at + resubmit_us)
            {
                client.in_flight.pop_front();
                let k = client.slots[seq as usize - 1];
                let slot = &mut report.slots[k];
                if slot.end == SlotEnd::Outstanding {
                    slot.resubmits += 1;
                    client.slots.push(k);
                    report.resubmits += 1;
                }
            }
        }
        let released_all = report.slots.len() as u128 == total;
        if now >= end_us
            || (released_all
                && outstanding == 0
                && clients.iter().all(|c| c.sent == c.slots.len() as u64))
        {
            break;
        }

        // Write every released, unsent seq a client's window admits.
        for (c, client) in clients.iter_mut().enumerate() {
            if client.refused || now < client.retry_at_us {
                continue;
            }
            let gateways = conns.len();
            let conn = &mut conns[c % gateways];
            while client.sent < client.slots.len() as u64
                && (client.in_flight.len() as u64) < cfg.client_window
            {
                let seq = client.sent + 1;
                let body = payload(seed, c as u64, seq, cfg.tx_bytes);
                let frame =
                    encode_frame(FrameKind::Submit, seq, 0, &submit_payload(c as u64, &body))
                        .map_err(|e| format!("submit frame: {e:?}"))?;
                conn.outbuf.extend_from_slice(&frame);
                let slot = &mut report.slots[client.slots[client.sent as usize]];
                if slot.end == SlotEnd::Throttled {
                    slot.end = SlotEnd::Outstanding;
                    outstanding += 1;
                }
                client.sent = seq;
                client.in_flight.push_back((seq, now));
                report.sends += 1;
            }
        }

        for conn in &mut conns {
            conn.flush()?;
            conn.fill()?;
            let read_at = now_us();
            let mut used = 0;
            while let Some((frame, len)) =
                decode_prefix(&conn.inbuf[used..]).map_err(|e| format!("gateway frame: {e}"))?
            {
                used += len;
                match frame.kind {
                    FrameKind::SubmitOk => {
                        let c = parse_submit_ok(&frame.payload).map_err(|e| format!("ack: {e}"))?;
                        let client =
                            clients.get_mut(c as usize).ok_or("ack for an unknown client")?;
                        // Acks may skip seqs: a batch that agreement
                        // excludes is dropped, and later seqs still commit.
                        client.in_flight.retain(|&(seq, _)| seq != frame.seq);
                        let slot = slot_of(&mut report.slots, client, c, frame.seq)?;
                        match slot.end {
                            SlotEnd::Outstanding => {
                                slot.acked_us = Some(read_at);
                                slot.end = SlotEnd::Acked;
                                outstanding -= 1;
                                client.sent = client.sent.max(frame.seq);
                                report.acked.push((c, frame.seq));
                            }
                            // A slow original acked after its resubmission.
                            SlotEnd::Acked => report.acked.push((c, frame.seq)),
                            SlotEnd::Refused => {}
                            SlotEnd::Throttled => {
                                return Err(format!(
                                    "client {c} acked seq {} it never sent",
                                    frame.seq
                                ))
                            }
                        }
                    }
                    FrameKind::SubmitNack => {
                        let (c, reason) =
                            parse_submit_nack(&frame.payload).map_err(|e| format!("nack: {e}"))?;
                        let client =
                            clients.get_mut(c as usize).ok_or("nack for an unknown client")?;
                        match reason {
                            NackReason::Backpressure { .. } => {
                                report.nacks += 1;
                                client.sent = client.sent.min(frame.seq.saturating_sub(1));
                                client.in_flight.retain(|&(seq, _)| seq < frame.seq);
                                client.retry_at_us = now + 5_000;
                            }
                            NackReason::SequenceGap { expected } => {
                                client.sent = client.sent.min(expected.saturating_sub(1));
                                client.in_flight.retain(|&(seq, _)| seq < expected);
                            }
                            NackReason::Oversize { .. } => {
                                client.refused = true;
                                let slot = slot_of(&mut report.slots, client, c, frame.seq)?;
                                if slot.end == SlotEnd::Outstanding {
                                    slot.end = SlotEnd::Refused;
                                    outstanding -= 1;
                                }
                            }
                        }
                    }
                    other => return Err(format!("gateway sent a {other:?} frame")),
                }
            }
            conn.inbuf.drain(..used);
        }

        // Park until the next slot is due or a socket is ready.
        let next_due = if released_all { end_us } else { due_of(report.slots.len() as u64) };
        let wait_ms = next_due.saturating_sub(now_us()).div_ceil(1000).min(5) as i32;
        let mut fds: Vec<poll::PollFd> = conns
            .iter()
            .map(|c| {
                let out = if c.outbuf.is_empty() { 0 } else { poll::POLLOUT };
                poll::PollFd::new(c.stream.as_raw_fd(), poll::POLLIN | out)
            })
            .collect();
        poll::poll(&mut fds, wait_ms).map_err(|e| format!("poll: {e}"))?;
    }
    Ok(report)
}

/// The slot of client `c`'s submission `seq`; an error for a seq the
/// client was never given.
fn slot_of<'a>(
    slots: &'a mut [Slot],
    client: &Client,
    c: u64,
    seq: u64,
) -> Result<&'a mut Slot, String> {
    let k = seq
        .checked_sub(1)
        .and_then(|i| client.slots.get(i as usize))
        .ok_or_else(|| format!("gateway answered client {c}'s unknown seq {seq}"))?;
    Ok(&mut slots[*k])
}

/// Latencies from due time to ack of the slots acknowledged at their
/// first submission, milliseconds. Resubmitted slots are counted by
/// [`tally`] and timed by [`resubmit_latencies_ms`].
pub fn latencies_ms(slots: &[Slot]) -> Vec<f64> {
    slots.iter().filter(|s| s.first_try()).filter_map(ack_ms).collect()
}

/// Latencies from due time to ack of the acknowledged slots that needed
/// a resubmission, milliseconds.
pub fn resubmit_latencies_ms(slots: &[Slot]) -> Vec<f64> {
    slots.iter().filter(|s| s.resubmits > 0).filter_map(ack_ms).collect()
}

fn ack_ms(s: &Slot) -> Option<f64> {
    s.acked_us.map(|a| (a - s.due_us) as f64 / 1000.0)
}

/// How late the generator got to each slot, milliseconds.
pub fn lags_ms(slots: &[Slot]) -> Vec<f64> {
    slots.iter().map(|s| s.seen_us.saturating_sub(s.due_us) as f64 / 1000.0).collect()
}

/// How many slots ended in each state.
pub fn tally(slots: &[Slot]) -> BTreeMap<&'static str, u64> {
    let mut t = BTreeMap::new();
    for s in slots {
        let k = match s.end {
            SlotEnd::Acked => "acked",
            SlotEnd::Refused => "refused",
            SlotEnd::Throttled => "throttled",
            SlotEnd::Outstanding => "outstanding",
        };
        *t.entry(k).or_insert(0) += 1;
        if s.resubmits > 0 {
            *t.entry("resubmitted").or_insert(0) += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Latencies;
    use bft_net::gateway::submit_ok_payload;
    use std::net::TcpListener;

    /// A stand-in gateway that acknowledges every submission at once,
    /// except the seqs `lose` picks, which it drops the way an excluded
    /// batch does.
    fn echo_gateway(lose: fn(u64) -> bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let k = match s.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(k) => k,
                };
                buf.extend_from_slice(&chunk[..k]);
                let mut used = 0;
                while let Ok(Some((frame, len))) = decode_prefix(&buf[used..]) {
                    used += len;
                    if lose(frame.seq) {
                        continue;
                    }
                    let client =
                        u64::from_le_bytes(frame.payload[..8].try_into().expect("client id"));
                    let ack =
                        encode_frame(FrameKind::SubmitOk, frame.seq, 0, &submit_ok_payload(client))
                            .expect("ack frame");
                    if s.write_all(&ack).is_err() {
                        return;
                    }
                }
                buf.drain(..used);
            }
        });
        (addr, handle)
    }

    fn run_once(stall: Option<(Duration, Duration)>) -> GenReport {
        run_with(stall, |_| false, Duration::from_millis(500))
    }

    fn run_with(
        stall: Option<(Duration, Duration)>,
        lose: fn(u64) -> bool,
        drain: Duration,
    ) -> GenReport {
        let (addr, gateway) = echo_gateway(lose);
        let cfg = GenConfig {
            clients: 8,
            rate: 500,
            tx_bytes: 32,
            window: Duration::from_millis(600),
            drain,
            client_window: 64,
            stall,
        };
        let report =
            run(connect(&[addr]).expect("connect"), &cfg, 1, || {}).expect("generator run");
        gateway.join().expect("gateway thread");
        report
    }

    #[test]
    fn every_due_slot_is_accounted_for() {
        let r = run_once(None);
        assert_eq!(r.slots.len(), 300);
        assert_eq!(tally(&r.slots).get("acked"), Some(&300));
        assert_eq!(r.acked.len(), 300);
    }

    #[test]
    fn a_lost_submission_is_resubmitted_and_counted_apart() {
        // Every client's seq 2 is never acknowledged.
        let r = run_with(None, |seq| seq == 2, RESUBMIT_AFTER + Duration::from_millis(700));
        assert_eq!(tally(&r.slots).get("acked"), Some(&300), "every slot commits in the end");
        assert_eq!(r.resubmits, 8, "one resubmission per client");
        assert_eq!(r.slots.iter().filter(|s| s.first_try()).count(), 292);
        assert_eq!(latencies_ms(&r.slots).len(), 292);
        let late = resubmit_latencies_ms(&r.slots);
        assert_eq!(late.len(), 8);
        assert!(late.iter().all(|&ms| ms >= RESUBMIT_AFTER.as_millis() as f64));
        assert!(!r.acked.iter().any(|&(_, seq)| seq == 2), "no ack for a lost seq");
    }

    #[test]
    fn an_injected_stall_raises_latency_and_lag() {
        let calm = run_once(None);
        let stalled = run_once(Some((Duration::from_millis(100), Duration::from_millis(200))));
        let (calm_lat, stall_lat) = (
            Latencies::new(latencies_ms(&calm.slots)),
            Latencies::new(latencies_ms(&stalled.slots)),
        );
        // About 100 of the 300 slots fall due during the 200 ms stall.
        assert!(stall_lat.mean() > calm_lat.mean() + 20.0, "commit_mean did not rise");
        assert!(stall_lat.tail_mean(0.01) > calm_lat.tail_mean(0.01) + 100.0, "tail did not rise");
        let lag_p99 = |r: &GenReport| Latencies::new(lags_ms(&r.slots)).pct(0.99);
        assert!(lag_p99(&stalled) > lag_p99(&calm) + 100.0, "gen.lag_ms_p99 did not rise");
        assert_eq!(tally(&stalled.slots).get("acked"), Some(&300), "a stall delays, never drops");
    }
}
