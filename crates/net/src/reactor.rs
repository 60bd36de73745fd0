//! The TCP I/O engine: one nonblocking poll loop per node.
//!
//! Every node runs a **fixed small number of threads** regardless of the
//! cluster size: one reactor thread owning every socket the node touches
//! (peer listener, inbound connections, outbound links, the client
//! gateway, and a loopback wake channel), plus the actor thread running
//! the sans-io process ([`crate::runtime`]). Readiness comes from
//! `poll(2)` via the dependency-free [`poll`] shim.
//!
//! # Connection state machines
//!
//! The reactor speaks the wire protocol of [`crate::frame`] and
//! [`crate::handshake`] (the pure handshake steps) with the per-link
//! sequence/replay/ack-trim discipline described in [`crate::runtime`].
//! The per-frame chaos draw order is fixed (outage → delay → drop loop
//! → duplicate), so a seeded chaos schedule produces the same per-link
//! fault pattern on every run, and the transport reports its lifecycle
//! through the `bft-obs` event vocabulary (`PeerConnected`,
//! `FrameSequenceGap`, `LinkLogPeak`, …).
//!
//! Each connection is a state machine: an outbound link is
//! `Idle → Hello → Up` (with a head-of-line chaos machine
//! `Start → Delayed → Dropping` per frame), an inbound connection is
//! `AwaitHello → AwaitAuth → Up`. Each `poll` both parks the loop and
//! reports per-descriptor readiness; the next pass issues read/accept
//! syscalls **only on the descriptors `revents` flagged**, so an idle
//! connection costs one poll-set entry, not a `read(2)` that returns
//! `EWOULDBLOCK`. Readiness is still only a gate, never a proof:
//! `poll(2)` is level-triggered, every socket is nonblocking, and every
//! pump handles `WouldBlock`, so a spurious bit costs one wasted syscall
//! and a missed bit is re-reported by the next poll — never a stall.
//!
//! # The client gateway
//!
//! A node configured with a [`GatewayPipe`] additionally owns a gateway
//! listener. External clients connect without a handshake and speak
//! `Submit`/`SubmitOk`/`SubmitNack` frames; decoded submissions flow to
//! the actor through the pipe's bounded intake (refusals are answered
//! with a typed backpressure NACK straight from the reactor), and
//! completion notices flow back and are forwarded to the submitting
//! client's connection. The actor learns about queued intake via
//! `Ctrl::Tick`, which invokes the process's `on_tick` hook.

use crate::chaos::{LinkChaos, XorShift};
use crate::clock::{sleep_ms, Clock};
use crate::codec::Codec;
use crate::frame::{decode_prefix, encode_frame, Frame, FrameKind};
use crate::gateway::{
    parse_submit, submit_nack_payload, submit_ok_payload, ClientSubmit, GatewayNotice, GatewayPipe,
    NackReason, INTAKE_CAP,
};
use crate::handshake::{
    auth_payload, challenge_payload, hello_payload, next_nonce, parse_auth, parse_challenge,
    parse_hello, Secret,
};
use crate::runtime::{
    actor_loop, locked, rebind, supervised, BackoffPolicy, Ctrl, FrameBody, InboxChannels,
    LinkFanout, ListenerBounce, NetRuntime, PanicLedger, RestartSpec, ACK_EVERY, MAX_RETRANSMIT,
    RETRANSMIT_RTO_MS,
};
use bft_obs::{Event as ObsEvent, Obs};
use bft_runtime::RuntimeReport;
use bft_types::{Envelope, NodeId};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};

/// How long a half-open handshake (either direction) may sit before the
/// connection is abandoned; the dialer treats expiry as a failed attempt
/// and backs off, the accepter just drops the straggler.
const HANDSHAKE_DEADLINE_MS: u64 = 2_000;

/// Soft cap on a peer connection's pending output buffer: the transmit
/// machine stops encoding past it and resumes once a flush drains it, so
/// a slow receiver bounds our memory instead of growing it.
const OUTBUF_SOFT_CAP: usize = 256 << 10;

/// Upper bound on one poll sleep, so shutdown and new actor output are
/// observed promptly even if a wakeup is lost.
const POLL_CAP_MS: u64 = 10;

// ---- wakeups --------------------------------------------------------------

/// Wakes a node's reactor out of its `poll` sleep by writing one byte
/// into a loopback socket the reactor watches. Clones share the socket;
/// wake errors are ignored (the poll cap bounds the added latency).
#[derive(Clone)]
pub(crate) struct ReactorWaker {
    stream: Option<Arc<TcpStream>>,
}

impl ReactorWaker {
    /// A waker wired to nothing — used when the wake pair could not be
    /// set up; the reactor then relies on its capped poll timeout.
    pub(crate) fn disconnected() -> Self {
        ReactorWaker { stream: None }
    }

    /// Nudges the reactor. Nonblocking and infallible by design: a full
    /// wake socket already guarantees a pending wakeup.
    pub(crate) fn wake(&self) {
        if let Some(stream) = &self.stream {
            let _ = (&**stream).write(&[1u8]);
        }
    }
}

impl fmt::Debug for ReactorWaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReactorWaker(connected={})", self.stream.is_some())
    }
}

/// Builds a loopback wake channel: the read end goes into the reactor's
/// poll set, the write end into the [`ReactorWaker`].
fn wake_pair() -> Option<(TcpStream, ReactorWaker)> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).ok()?;
    let addr = listener.local_addr().ok()?;
    let write_end = TcpStream::connect(addr).ok()?;
    let (read_end, _) = listener.accept().ok()?;
    read_end.set_nonblocking(true).ok()?;
    write_end.set_nonblocking(true).ok()?;
    let _ = write_end.set_nodelay(true);
    Some((read_end, ReactorWaker { stream: Some(Arc::new(write_end)) }))
}

// ---- buffered nonblocking connections -------------------------------------

/// What a fill pass observed on the read side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FillEnd {
    /// Connection still open (drained to `WouldBlock`).
    Open,
    /// Orderly FIN from the peer. For a dial connection this is *not*
    /// immediate death: TCP half-close semantics require pending frames
    /// to keep flowing until a write fails, which is what turns a
    /// skipped replay into the sequence gap the receiver must detect.
    Eof,
    /// Hard transport error.
    Error,
}

/// One nonblocking socket with explicit in/out buffering.
struct BufConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    in_pos: usize,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// The peer sent FIN: stop polling for readability (an EOF socket is
    /// perpetually "readable" and would spin the loop).
    peer_eof: bool,
    /// The last poll flagged the socket readable (set via [`mark_ready`],
    /// consumed by [`fill_ready`]). Starts `true` so a fresh connection
    /// reads whatever raced in before its first poll.
    ready: bool,
}

impl BufConn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(BufConn {
            stream,
            inbuf: Vec::new(),
            in_pos: 0,
            outbuf: Vec::new(),
            out_pos: 0,
            peer_eof: false,
            ready: true,
        })
    }

    /// Records that the last poll reported this socket readable (or
    /// hung up / errored — a read surfaces those too).
    fn mark_ready(&mut self) {
        self.ready = true;
    }

    fn pending_out(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }

    fn out_len(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.outbuf.extend_from_slice(bytes);
    }

    /// Reads everything currently available. Skipped entirely once the
    /// peer has half-closed.
    fn fill(&mut self) -> FillEnd {
        if self.peer_eof {
            return FillEnd::Eof;
        }
        let mut chunk = [0u8; 16 << 10];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    return FillEnd::Eof;
                }
                Ok(k) => self.inbuf.extend_from_slice(chunk.get(..k).unwrap_or_default()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FillEnd::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FillEnd::Error,
            }
        }
    }

    /// Readiness-gated [`fill`](Self::fill): issues the read syscall only
    /// when the last poll flagged the socket (the flag is consumed here
    /// and re-armed by the next poll — level-triggered, so bytes left in
    /// the kernel re-flag immediately). This is what makes an idle
    /// connection free per pass instead of one `EWOULDBLOCK` read.
    fn fill_ready(&mut self) -> FillEnd {
        if self.peer_eof {
            return FillEnd::Eof;
        }
        if !self.ready {
            return FillEnd::Open;
        }
        self.ready = false;
        self.fill()
    }

    /// Pops the next complete frame off the input buffer, if one is
    /// fully buffered.
    fn take_frame(&mut self) -> Result<Option<Frame>, crate::codec::DecodeError> {
        let rest = self.inbuf.get(self.in_pos..).unwrap_or_default();
        match decode_prefix(rest)? {
            Some((frame, used)) => {
                // `used` is bounded by the bytes actually buffered, but
                // keep the cursor arithmetic non-wrapping regardless.
                self.in_pos = self.in_pos.saturating_add(used);
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// Drops consumed input bytes (called once per pump pass, so frame
    /// parsing stays O(bytes) instead of O(bytes × frames)).
    fn compact_in(&mut self) {
        if self.in_pos > 0 {
            self.inbuf.drain(..self.in_pos);
            self.in_pos = 0;
        }
    }

    /// Writes as much pending output as the socket accepts. `false`
    /// means the connection is dead.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.outbuf.len() {
            let rest = self.outbuf.get(self.out_pos..).unwrap_or_default();
            match self.stream.write(rest) {
                Ok(0) => return false,
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > (64 << 10) {
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }

    /// The poll-set entry for this connection, or `None` when there is
    /// nothing to wait for (half-closed and fully flushed).
    fn poll_fd(&self) -> Option<poll::PollFd> {
        let mut events: i16 = 0;
        if !self.peer_eof {
            events |= poll::POLLIN;
        }
        if self.pending_out() {
            events |= poll::POLLOUT;
        }
        if events == 0 {
            return None;
        }
        Some(poll::PollFd::new(self.stream.as_raw_fd(), events))
    }
}

// ---- outbound links -------------------------------------------------------

/// Where an outbound connection is in its lifecycle.
#[derive(Clone, Copy, Debug)]
enum LinkPhase {
    /// No connection (between dials).
    Idle,
    /// Hello sent; waiting for the accepter's Challenge.
    Hello { nonce_me: u64, started_ms: u64 },
    /// Authenticated; frames flow.
    Up,
}

/// The chaos machine for the head-of-line frame, in a fixed per-frame
/// draw order: outage wait (no draw) → one
/// `delay_ms` draw → an `attempt_dropped` loop (≤ [`MAX_RETRANSMIT`],
/// RTO-spaced) → one `duplicate` draw at transmission.
#[derive(Clone, Copy, Debug)]
enum Head {
    /// Nothing drawn yet for the current head frame.
    Start,
    /// Chaos delay in progress.
    Delayed { until_ms: u64 },
    /// Retransmission loop: `attempts` wire losses so far.
    Dropping { attempts: u32, retry_at_ms: u64 },
}

/// Why an outbound connection died — determines the replay reset and
/// the emitted event.
#[derive(Clone, Copy, Debug)]
enum LinkDeath {
    /// Dial/handshake failure: back off and emit `ReconnectBackoff`.
    Handshake,
    /// Peer closed a fully-drained link: full replay (`"peer_closed"`).
    Idle,
    /// Write failure with frames in flight: `sent` is preserved so a
    /// chaos-skipped replay exposes the gap (`"write_failed"`).
    Write,
    /// The ack stream broke or carried a non-ack frame: full replay
    /// (`"ack_failed"`).
    Ack,
}

/// Shared per-node context handed to every link pump.
struct LinkCtx<'a> {
    me: NodeId,
    obs: &'a Obs,
    clock: Clock,
    backoff: BackoffPolicy,
    secret: Secret,
    shutdown: &'a AtomicBool,
    addr_table: &'a Mutex<Vec<SocketAddr>>,
}

/// One directed outbound link: the replay log, the connection state
/// machine, and the chaos head machine.
struct LinkState {
    peer: NodeId,
    rx: Receiver<FrameBody>,
    /// The replay log; `log[i]` carries seq `log_base + i + 1`.
    log: Vec<FrameBody>,
    log_base: u64,
    sent: usize,
    peak: usize,
    draining: bool,
    finished: bool,
    ever_connected: bool,
    /// Failed dial attempts in the current reconnect episode.
    attempt: u64,
    next_dial_at_ms: u64,
    chaos: LinkChaos,
    jitter: XorShift,
    conn: Option<BufConn>,
    phase: LinkPhase,
    head: Head,
}

impl LinkState {
    fn new(me: NodeId, peer: NodeId, rx: Receiver<FrameBody>, chaos: LinkChaos) -> Self {
        // A per-link jitter stream, so backoff schedules are
        // reproducible.
        let mut h = crate::hash::Fnv64::new();
        h.write(b"backoff-jitter");
        h.write(&(me.index() as u32).to_le_bytes());
        h.write(&(peer.index() as u32).to_le_bytes());
        LinkState {
            peer,
            rx,
            log: Vec::new(),
            log_base: 0,
            sent: 0,
            peak: 0,
            draining: false,
            finished: false,
            ever_connected: false,
            attempt: 0,
            next_dial_at_ms: 0,
            chaos,
            jitter: XorShift::new(h.finish()),
            conn: None,
            phase: LinkPhase::Idle,
            head: Head::Start,
        }
    }

    /// One nonblocking pass over this link.
    fn pump(&mut self, ctx: &LinkCtx<'_>, now_ms: u64, deadline: &mut u64) {
        if self.finished {
            return;
        }
        // Absorb newly queued frame bodies from the actor.
        if !self.draining {
            loop {
                match self.rx.try_recv() {
                    Ok(body) => self.log.push(body),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.draining = true;
                        break;
                    }
                }
            }
            self.peak = self.peak.max(self.log.len());
        }

        if let Some(mut conn) = self.conn.take() {
            match self.pump_conn(&mut conn, ctx, now_ms, deadline) {
                None => self.conn = Some(conn),
                Some(death) => self.die(death, ctx, now_ms),
            }
        } else if self.sent < self.log.len() {
            if now_ms >= self.next_dial_at_ms {
                self.dial(ctx, now_ms, deadline);
            } else {
                *deadline = (*deadline).min(self.next_dial_at_ms);
            }
        }

        // The link is complete once the actor hung up and every frame is
        // out of the socket — which is also when the log peak is
        // reported.
        let flushed = self.conn.as_ref().map(|c| !c.pending_out()).unwrap_or(true);
        if self.draining && self.sent == self.log.len() && flushed {
            self.finished = true;
            self.emit_peak(ctx);
        }
    }

    /// Pumps a live connection; `Some(death)` means it must be torn
    /// down (the connection is dropped by the caller).
    fn pump_conn(
        &mut self,
        conn: &mut BufConn,
        ctx: &LinkCtx<'_>,
        now_ms: u64,
        deadline: &mut u64,
    ) -> Option<LinkDeath> {
        let end = conn.fill_ready();

        // Parse whatever arrived, under the current phase.
        loop {
            match self.phase {
                LinkPhase::Idle => break,
                LinkPhase::Hello { nonce_me, started_ms } => match conn.take_frame() {
                    Ok(Some(frame)) => {
                        if frame.kind != FrameKind::Challenge {
                            return Some(LinkDeath::Handshake);
                        }
                        let Ok(nonce_peer) =
                            parse_challenge(&frame.payload, ctx.secret, self.peer, nonce_me)
                        else {
                            return Some(LinkDeath::Handshake);
                        };
                        // The dialer considers the handshake done after
                        // writing Auth.
                        let body = auth_payload(ctx.secret, nonce_peer, ctx.me);
                        let auth = encode_frame(FrameKind::Auth, 0, 0, &body).unwrap_or_default();
                        conn.queue(&auth);
                        self.established(ctx);
                    }
                    Ok(None) => {
                        if now_ms.saturating_sub(started_ms) >= HANDSHAKE_DEADLINE_MS {
                            return Some(LinkDeath::Handshake);
                        }
                        *deadline = (*deadline).min(started_ms + HANDSHAKE_DEADLINE_MS);
                        break;
                    }
                    Err(_) => return Some(LinkDeath::Handshake),
                },
                LinkPhase::Up => match conn.take_frame() {
                    Ok(Some(frame)) if frame.kind == FrameKind::Ack => {
                        // Cumulative ack: trim the acked prefix.
                        if frame.seq > self.log_base {
                            let k = ((frame.seq - self.log_base) as usize).min(self.sent);
                            self.log.drain(..k);
                            self.sent -= k;
                            self.log_base += k as u64;
                        }
                    }
                    Ok(Some(_)) | Err(_) => return Some(LinkDeath::Ack),
                    Ok(None) => break,
                },
            }
        }
        conn.compact_in();

        let sent_before = self.sent;
        if matches!(self.phase, LinkPhase::Up) {
            self.transmit(conn, ctx, now_ms, deadline);
        }
        // Frames transmitted after the peer's FIN are doomed: peers
        // never half-close in this protocol, so nobody will read them.
        // The kernel accepts such frames before the RST lands, so they
        // count as `sent`, and the link then dies on a write failure
        // with `sent` preserved — which is exactly what lets
        // `skip_first_replay` manufacture a sequence gap. So queueing
        // anything onto an EOF'd connection is a Write death.
        let queued_to_dead = conn.peer_eof && self.sent > sent_before;

        if !conn.flush() {
            return Some(match self.phase {
                LinkPhase::Up => LinkDeath::Write,
                _ => LinkDeath::Handshake,
            });
        }
        match end {
            FillEnd::Open => None,
            FillEnd::Error => Some(match self.phase {
                LinkPhase::Up if conn.peer_eof => LinkDeath::Write,
                LinkPhase::Up => LinkDeath::Ack,
                _ => LinkDeath::Handshake,
            }),
            FillEnd::Eof => match self.phase {
                LinkPhase::Up if queued_to_dead => Some(LinkDeath::Write),
                // An idle, fully-flushed link whose peer closed is dead.
                LinkPhase::Up if self.sent == self.log.len() && !conn.pending_out() => {
                    Some(LinkDeath::Idle)
                }
                // Pending work blocked on chaos (outage/delay): hold the
                // connection so those frames still get counted against it.
                LinkPhase::Up => None,
                _ => Some(LinkDeath::Handshake),
            },
        }
    }

    /// The transmit machine: encodes head frames into the output buffer
    /// under the chaos head machine, one fixed draw order per frame.
    fn transmit(&mut self, conn: &mut BufConn, ctx: &LinkCtx<'_>, now_ms: u64, deadline: &mut u64) {
        loop {
            if self.sent >= self.log.len() || conn.out_len() >= OUTBUF_SOFT_CAP {
                break;
            }
            let seq = self.log_base + self.sent as u64 + 1;
            match self.head {
                Head::Start => {
                    // Partition window: frames wait out the outage.
                    if let Some(until) = self.chaos.outage_until(now_ms) {
                        *deadline = (*deadline).min(until);
                        break;
                    }
                    let delay = self.chaos.delay_ms();
                    self.head = if delay > 0 {
                        Head::Delayed { until_ms: now_ms + delay }
                    } else {
                        Head::Dropping { attempts: 0, retry_at_ms: now_ms }
                    };
                }
                Head::Delayed { until_ms } => {
                    if now_ms < until_ms {
                        *deadline = (*deadline).min(until_ms);
                        break;
                    }
                    self.head = Head::Dropping { attempts: 0, retry_at_ms: now_ms };
                }
                Head::Dropping { attempts, retry_at_ms } => {
                    if now_ms < retry_at_ms {
                        *deadline = (*deadline).min(retry_at_ms);
                        break;
                    }
                    if attempts < MAX_RETRANSMIT && self.chaos.attempt_dropped() {
                        let peer = self.peer;
                        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::FrameDropped {
                            to: peer,
                            seq,
                        });
                        self.head = Head::Dropping {
                            attempts: attempts + 1,
                            retry_at_ms: now_ms + RETRANSMIT_RTO_MS,
                        };
                        continue;
                    }
                    let Some((body, trace)) = self.log.get(self.sent) else { break };
                    match encode_frame(FrameKind::Msg, seq, *trace, body) {
                        Ok(bytes) => {
                            let duplicate = self.chaos.duplicate();
                            conn.queue(&bytes);
                            if duplicate {
                                conn.queue(&bytes);
                            }
                        }
                        Err(_) => {
                            // Unreachable (oversize is rejected at the
                            // send boundary); skip to keep the link live.
                            ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || {
                                ObsEvent::FrameDecodeError { reason: "payload_too_large" }
                            });
                        }
                    }
                    self.sent += 1;
                    self.head = Head::Start;
                }
            }
        }
    }

    /// Marks the link authenticated and applies the replay policy.
    fn established(&mut self, ctx: &LinkCtx<'_>) {
        let was_reconnect = self.ever_connected;
        let peer = self.peer;
        let at = ctx.clock.now_us();
        if was_reconnect {
            let attempts = self.attempt;
            ctx.obs.emit_at(at, ctx.me, || ObsEvent::PeerReconnected { peer, attempts });
        } else {
            ctx.obs.emit_at(at, ctx.me, || ObsEvent::PeerConnected { peer });
        }
        self.ever_connected = true;
        if !(was_reconnect && self.chaos.skip_replay_once()) {
            // Fresh connection ⇒ replay the whole log; the receiver
            // dedups by sequence number. The chaos branch resumes from
            // the send counter instead, manufacturing a sequence gap.
            self.sent = 0;
        }
        self.attempt = 0;
        self.phase = LinkPhase::Up;
        self.head = Head::Start;
    }

    /// Tears the connection down along one of the [`LinkDeath`] paths.
    fn die(&mut self, death: LinkDeath, ctx: &LinkCtx<'_>, now_ms: u64) {
        self.conn = None;
        self.head = Head::Start;
        let was_up = matches!(self.phase, LinkPhase::Up);
        self.phase = LinkPhase::Idle;
        let peer = self.peer;
        let shutdown = ctx.shutdown.load(Ordering::Relaxed);
        match death {
            LinkDeath::Handshake => {
                self.attempt += 1;
                let delay_ms = ctx.backoff.delay_ms(self.attempt, &mut self.jitter);
                self.next_dial_at_ms = now_ms + delay_ms;
                if !shutdown {
                    let attempt = self.attempt;
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::ReconnectBackoff {
                        peer,
                        attempt,
                        delay_ms,
                    });
                }
            }
            LinkDeath::Idle => {
                self.sent = 0;
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "peer_closed",
                    });
                }
            }
            LinkDeath::Write => {
                // The frame in flight when the link died was never
                // really sent — uncount it. This
                // keeps `sent < log.len()`, which is what arms the
                // redial; the surviving prefix of `sent` is what a
                // chaos-skipped replay resumes from, manufacturing the
                // receiver-visible sequence gap.
                self.sent = self.sent.saturating_sub(1);
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "write_failed",
                    });
                }
            }
            LinkDeath::Ack => {
                self.sent = 0;
                if !shutdown && was_up {
                    ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::PeerDisconnected {
                        peer,
                        reason: "ack_failed",
                    });
                }
            }
        }
    }

    /// Starts a fresh dial: connect (loopback fails fast), queue Hello,
    /// enter the Hello phase with a deadline.
    fn dial(&mut self, ctx: &LinkCtx<'_>, now_ms: u64, deadline: &mut u64) {
        let addr = locked(ctx.addr_table).get(self.peer.index()).copied();
        let Some(addr) = addr else { return };
        let conn = TcpStream::connect(addr).and_then(BufConn::new);
        match conn {
            Ok(mut conn) => {
                let nonce_me = next_nonce();
                let body = hello_payload(ctx.me, nonce_me);
                let hello = encode_frame(FrameKind::Hello, 0, 0, &body).unwrap_or_default();
                conn.queue(&hello);
                if conn.flush() {
                    self.conn = Some(conn);
                    self.phase = LinkPhase::Hello { nonce_me, started_ms: now_ms };
                    *deadline = (*deadline).min(now_ms + HANDSHAKE_DEADLINE_MS);
                } else {
                    self.die(LinkDeath::Handshake, ctx, now_ms);
                }
            }
            Err(_) => self.die(LinkDeath::Handshake, ctx, now_ms),
        }
    }

    /// Reports the link's replay-log high-water mark (its teardown
    /// event).
    fn emit_peak(&self, ctx: &LinkCtx<'_>) {
        let peer = self.peer;
        let frames = self.peak as u64;
        ctx.obs.emit_at(ctx.clock.now_us(), ctx.me, || ObsEvent::LinkLogPeak { peer, frames });
    }
}

// ---- inbound connections --------------------------------------------------

/// Accepter-side handshake progress for one inbound connection.
#[derive(Clone, Copy, Debug)]
enum InPhase {
    /// Waiting for the dialer's Hello.
    AwaitHello { since_ms: u64 },
    /// Challenge sent; waiting for the Auth proof.
    AwaitAuth { peer: NodeId, nonce_me: u64, since_ms: u64 },
    /// Authenticated: `Msg` frames are delivered, acks flow back.
    Up { peer: NodeId },
}

/// One accepted peer connection.
struct InConn {
    conn: BufConn,
    phase: InPhase,
}

// ---- the client gateway front ---------------------------------------------

/// The reactor-owned half of a node's client gateway: the listener,
/// accepted client connections, and the client → connection routing for
/// completion notices.
struct GatewayFront {
    listener: TcpListener,
    /// The last poll flagged the listener: an `accept` will not block.
    listener_ready: bool,
    pipe: GatewayPipe,
    conns: Vec<(u64, BufConn)>,
    next_conn_id: u64,
    owner: BTreeMap<u64, u64>,
}

// ---- the per-node reactor -------------------------------------------------

/// What one poll-set entry maps back to, so `revents` can be routed to
/// the owning connection's readiness flag after `poll` returns.
#[derive(Clone, Copy, Debug)]
enum PollTarget {
    /// The loopback wake socket.
    Wake,
    /// The peer listener.
    Listener,
    /// `inbound[i]`.
    Inbound(usize),
    /// `links[i]` (the link's live connection).
    Link(usize),
    /// The gateway listener.
    GwListener,
    /// `gateway.conns[i]`.
    GwConn(usize),
}

/// Everything one node's reactor thread owns. `run` is the poll loop.
struct NodeReactor<M> {
    me: NodeId,
    n: usize,
    clock: Clock,
    obs: Obs,
    secret: Secret,
    backoff: BackoffPolicy,
    shutdown: Arc<AtomicBool>,
    addr_table: Arc<Mutex<Vec<SocketAddr>>>,
    inbox: Sender<Ctrl<M>>,
    listener: Option<TcpListener>,
    /// The last poll flagged the peer listener readable.
    listener_ready: bool,
    bounce: Option<ListenerBounce>,
    rebind_at_ms: Option<u64>,
    wake_rx: Option<TcpStream>,
    /// The last poll flagged the wake socket readable.
    wake_ready: bool,
    links: Vec<LinkState>,
    inbound: Vec<InConn>,
    /// Per-peer next-expected seq; survives connection churn so replays
    /// dedup exactly-once (local to this thread — no lock needed).
    // lint: allow(unbounded-map) — keys are handshake-authenticated peer indices < n; the next-seq dedup floor must never be GC'd
    expected: BTreeMap<usize, u64>,
    gateway: Option<GatewayFront>,
}

impl<M: Codec + Clone + fmt::Debug> NodeReactor<M> {
    fn link_ctx(&self) -> LinkCtx<'_> {
        LinkCtx {
            me: self.me,
            obs: &self.obs,
            clock: self.clock,
            backoff: self.backoff,
            secret: self.secret,
            shutdown: &self.shutdown,
            addr_table: &self.addr_table,
        }
    }

    /// The node's whole I/O, one nonblocking pass per iteration, parked
    /// in `poll` between passes.
    fn run(mut self) {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let now_ms = self.clock.now_ms();
            let mut deadline = now_ms + POLL_CAP_MS;
            self.step_bounce(now_ms, &mut deadline);
            self.accept_peers(now_ms);
            self.drain_wake();
            self.pump_inbound(now_ms);
            {
                let ctx = LinkCtx {
                    me: self.me,
                    obs: &self.obs,
                    clock: self.clock,
                    backoff: self.backoff,
                    secret: self.secret,
                    shutdown: &self.shutdown,
                    addr_table: &self.addr_table,
                };
                for link in self.links.iter_mut() {
                    link.pump(&ctx, now_ms, &mut deadline);
                }
            }
            self.pump_gateway();
            self.sleep(deadline);
        }
        // Report the replay-log peaks the finished-link path did not get
        // to: every link reports one at teardown.
        let ctx = self.link_ctx();
        for link in &self.links {
            if !link.finished {
                link.emit_peak(&ctx);
            }
        }
    }

    /// Applies a scheduled listener bounce: down at `at_ms` (severing
    /// live inbound connections), rebound on a fresh ephemeral port
    /// `down_ms` later, with the address table updated for the dialers.
    fn step_bounce(&mut self, now_ms: u64, deadline: &mut u64) {
        if let Some(b) = self.bounce {
            if now_ms >= b.at_ms {
                self.bounce = None;
                self.listener = None;
                for c in self.inbound.drain(..) {
                    if let InPhase::Up { peer } = c.phase {
                        if !self.shutdown.load(Ordering::Relaxed) {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::PeerDisconnected { peer, reason: "read_failed" }
                            });
                        }
                    }
                }
                self.rebind_at_ms = Some(b.at_ms + b.down_ms);
            } else {
                *deadline = (*deadline).min(b.at_ms);
            }
        }
        if let Some(up_at) = self.rebind_at_ms {
            if now_ms >= up_at {
                self.rebind_at_ms = None;
                if let Some((listener, addr)) = rebind(&self.shutdown) {
                    if let Some(slot) = locked(&self.addr_table).get_mut(self.me.index()) {
                        *slot = addr;
                    }
                    self.listener = Some(listener);
                    // A dial may land before the fresh fd's first poll.
                    self.listener_ready = true;
                }
            } else {
                *deadline = (*deadline).min(up_at);
            }
        }
    }

    /// Accepts every pending peer connection (only when the last poll
    /// flagged the listener — an idle listener costs no syscall).
    fn accept_peers(&mut self, now_ms: u64) {
        if !self.listener_ready {
            return;
        }
        self.listener_ready = false;
        let Some(listener) = self.listener.as_ref() else { return };
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(conn) = BufConn::new(stream) {
                self.inbound.push(InConn { conn, phase: InPhase::AwaitHello { since_ms: now_ms } });
            }
        }
    }

    /// Drains the wake socket (the bytes are meaningless; arrival was
    /// the message). Skipped when the last poll saw it silent.
    fn drain_wake(&mut self) {
        if !self.wake_ready {
            return;
        }
        self.wake_ready = false;
        let mut dead = false;
        if let Some(sock) = self.wake_rx.as_mut() {
            let mut buf = [0u8; 256];
            loop {
                match sock.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.wake_rx = None;
        }
    }

    /// Pumps every inbound peer connection, closing the dead ones.
    fn pump_inbound(&mut self, now_ms: u64) {
        let mut i = 0;
        while i < self.inbound.len() {
            if self.pump_one_inbound(i, now_ms) {
                self.inbound.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// One pass over inbound connection `i`; `true` means close it.
    fn pump_one_inbound(&mut self, i: usize, now_ms: u64) -> bool {
        let Some(c) = self.inbound.get_mut(i) else { return false };
        let end = c.conn.fill_ready();
        loop {
            match c.conn.take_frame() {
                Ok(Some(frame)) => match c.phase {
                    InPhase::AwaitHello { .. } => {
                        // Handshake failures are silent on the accepter
                        // side; they surface as backoff on the dialer.
                        if frame.kind != FrameKind::Hello {
                            return true;
                        }
                        let Ok((peer, nonce_peer)) = parse_hello(&frame.payload, self.me, self.n)
                        else {
                            return true;
                        };
                        let nonce_me = next_nonce();
                        let body = challenge_payload(self.secret, self.me, nonce_me, nonce_peer);
                        let challenge =
                            encode_frame(FrameKind::Challenge, 0, 0, &body).unwrap_or_default();
                        c.conn.queue(&challenge);
                        c.phase = InPhase::AwaitAuth { peer, nonce_me, since_ms: now_ms };
                    }
                    InPhase::AwaitAuth { peer, nonce_me, .. } => {
                        if frame.kind != FrameKind::Auth {
                            return true;
                        }
                        if parse_auth(&frame.payload, self.secret, peer, nonce_me).is_err() {
                            return true;
                        }
                        // First-ever connection from this peer ⇒
                        // PeerConnected; later accepts are reconnects,
                        // reported by the dialer with its attempt count.
                        if !self.expected.contains_key(&peer.index()) {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::PeerConnected { peer }
                            });
                        }
                        c.phase = InPhase::Up { peer };
                    }
                    InPhase::Up { peer } => {
                        if frame.kind != FrameKind::Msg {
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::FrameDecodeError { reason: "unexpected_kind" }
                            });
                            return true;
                        }
                        let next = self.expected.entry(peer.index()).or_insert(1);
                        if frame.seq < *next {
                            // Duplicate (chaos) or replayed after
                            // reconnect.
                            continue;
                        }
                        if frame.seq > *next {
                            // Contiguity violation: drop the connection;
                            // the dialer reconnects and replays.
                            let expected = *next;
                            let got = frame.seq;
                            self.obs.emit_at(self.clock.now_us(), self.me, || {
                                ObsEvent::FrameSequenceGap { from: peer, expected, got }
                            });
                            return true;
                        }
                        *next += 1;
                        // Cumulative ack on the same connection so the
                        // dialer can trim its replay log.
                        if frame.seq % ACK_EVERY == 0 {
                            if let Ok(ack) = encode_frame(FrameKind::Ack, frame.seq, 0, &[]) {
                                c.conn.queue(&ack);
                            }
                        }
                        match M::from_bytes(&frame.payload) {
                            Ok(msg) => {
                                let env = Envelope::new(peer, self.me, msg);
                                if self.inbox.send(Ctrl::Deliver(env)).is_err() {
                                    return true;
                                }
                            }
                            Err(err) => {
                                let reason = err.label();
                                self.obs.emit_at(self.clock.now_us(), self.me, || {
                                    ObsEvent::FrameDecodeError { reason }
                                });
                                return true;
                            }
                        }
                    }
                },
                Ok(None) => break,
                Err(err) => {
                    if matches!(c.phase, InPhase::Up { .. }) {
                        let reason = err.label();
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::FrameDecodeError { reason }
                        });
                    }
                    return true;
                }
            }
        }
        c.conn.compact_in();
        // Ack write failures are tolerated: link death surfaces on the
        // read side.
        let _ = c.conn.flush();
        match end {
            FillEnd::Open => match c.phase {
                // Handshake stragglers time out silently.
                InPhase::AwaitHello { since_ms } | InPhase::AwaitAuth { since_ms, .. } => {
                    now_ms.saturating_sub(since_ms) >= HANDSHAKE_DEADLINE_MS
                }
                InPhase::Up { .. } => false,
            },
            FillEnd::Eof => {
                if let InPhase::Up { peer } = c.phase {
                    if !self.shutdown.load(Ordering::Relaxed) {
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::PeerDisconnected { peer, reason: "closed" }
                        });
                    }
                }
                true
            }
            FillEnd::Error => {
                if let InPhase::Up { peer } = c.phase {
                    if !self.shutdown.load(Ordering::Relaxed) {
                        self.obs.emit_at(self.clock.now_us(), self.me, || {
                            ObsEvent::PeerDisconnected { peer, reason: "read_failed" }
                        });
                    }
                }
                true
            }
        }
    }

    /// Pumps the client gateway: accept, decode submissions into the
    /// pipe's intake (refusing with a typed NACK when it is full),
    /// forward completion notices to the owning connections, and nudge
    /// the actor once per pass with queued work.
    fn pump_gateway(&mut self) {
        let Some(gw) = self.gateway.as_mut() else { return };
        if gw.listener_ready {
            gw.listener_ready = false;
            while let Ok((stream, _)) = gw.listener.accept() {
                if let Ok(conn) = BufConn::new(stream) {
                    gw.conns.push((gw.next_conn_id, conn));
                    gw.next_conn_id += 1;
                }
            }
        }
        let mut ticked = false;
        let mut i = 0;
        while i < gw.conns.len() {
            let mut closed = false;
            if let Some((conn_id, conn)) = gw.conns.get_mut(i) {
                let conn_id = *conn_id;
                let end = conn.fill_ready();
                loop {
                    match conn.take_frame() {
                        Ok(Some(frame)) => {
                            // Clients speak Submit only; anything else
                            // (or a malformed payload) is a confused or
                            // hostile peer — drop the connection.
                            if frame.kind != FrameKind::Submit {
                                closed = true;
                                break;
                            }
                            let Ok((client, tx)) = parse_submit(&frame.payload) else {
                                closed = true;
                                break;
                            };
                            let seq = frame.seq;
                            gw.owner.insert(client, conn_id);
                            if gw.pipe.push_intake(ClientSubmit { client, seq, tx }) {
                                ticked = true;
                            } else {
                                // Intake full: refuse straight from the
                                // reactor — external load must never
                                // grow node memory without bound.
                                let pending = gw.pipe.intake_len() as u64;
                                let reason = NackReason::Backpressure {
                                    pending,
                                    capacity: INTAKE_CAP as u64,
                                };
                                let body = submit_nack_payload(client, &reason);
                                if let Ok(bytes) =
                                    encode_frame(FrameKind::SubmitNack, seq, 0, &body)
                                {
                                    conn.queue(&bytes);
                                }
                                let label = reason.label();
                                self.obs.emit_at(self.clock.now_us(), self.me, || {
                                    ObsEvent::GatewayNacked { client, seq, reason: label }
                                });
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                conn.compact_in();
                if !closed && !conn.flush() {
                    closed = true;
                }
                if !closed && !matches!(end, FillEnd::Open) {
                    closed = true;
                }
            }
            if closed {
                gw.conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Completion notices go back to the submitting client's most
        // recent connection; notices for vanished clients are dropped
        // (the client re-learns its state by resubmitting).
        for notice in gw.pipe.drain_notices() {
            let (client, bytes) = match notice {
                GatewayNotice::Committed { client, seq } => {
                    let body = submit_ok_payload(client);
                    (client, encode_frame(FrameKind::SubmitOk, seq, 0, &body))
                }
                GatewayNotice::Rejected { client, seq, reason } => {
                    let body = submit_nack_payload(client, &reason);
                    (client, encode_frame(FrameKind::SubmitNack, seq, 0, &body))
                }
            };
            let Ok(bytes) = bytes else { continue };
            let Some(conn_id) = gw.owner.get(&client).copied() else { continue };
            if let Some((_, conn)) = gw.conns.iter_mut().find(|(id, _)| *id == conn_id) {
                conn.queue(&bytes);
                let _ = conn.flush();
            }
        }
        let live: Vec<u64> = gw.conns.iter().map(|(id, _)| *id).collect();
        gw.owner.retain(|_, conn_id| live.contains(conn_id));
        if ticked {
            let _ = self.inbox.send(Ctrl::Tick);
        }
    }

    /// Parks in `poll(2)` until the earliest deadline, a socket turns
    /// ready, or the wake channel is written — then distributes the
    /// returned `revents` as readiness flags, so the next pass issues
    /// read/accept syscalls only where poll saw something. A poll error
    /// degrades to flagging everything (one wasted `WouldBlock` per
    /// descriptor, same as the pre-readiness behaviour).
    fn sleep(&mut self, deadline_ms: u64) {
        let mut fds: Vec<poll::PollFd> = Vec::new();
        let mut targets: Vec<PollTarget> = Vec::new();
        if let Some(sock) = &self.wake_rx {
            fds.push(poll::PollFd::new(sock.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::Wake);
        }
        if let Some(listener) = &self.listener {
            fds.push(poll::PollFd::new(listener.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::Listener);
        }
        for (i, c) in self.inbound.iter().enumerate() {
            if let Some(fd) = c.conn.poll_fd() {
                fds.push(fd);
                targets.push(PollTarget::Inbound(i));
            }
        }
        for (i, link) in self.links.iter().enumerate() {
            if let Some(fd) = link.conn.as_ref().and_then(BufConn::poll_fd) {
                fds.push(fd);
                targets.push(PollTarget::Link(i));
            }
        }
        if let Some(gw) = &self.gateway {
            fds.push(poll::PollFd::new(gw.listener.as_raw_fd(), poll::POLLIN));
            targets.push(PollTarget::GwListener);
            for (i, (_, conn)) in gw.conns.iter().enumerate() {
                if let Some(fd) = conn.poll_fd() {
                    fds.push(fd);
                    targets.push(PollTarget::GwConn(i));
                }
            }
        }
        let now = self.clock.now_ms();
        let wait = deadline_ms.saturating_sub(now).clamp(1, POLL_CAP_MS) as i32;
        match poll::poll(&mut fds, wait) {
            Ok(0) => {}
            Ok(_) => {
                for (fd, target) in fds.iter().zip(&targets) {
                    if fd.readable() || fd.failed() {
                        self.flag_ready(*target);
                    }
                }
            }
            Err(_) => {
                for target in &targets {
                    self.flag_ready(*target);
                }
            }
        }
    }

    /// Arms the readiness flag behind one poll-set entry. The index-based
    /// targets are valid because nothing mutates the connection vectors
    /// between building the poll set and distributing its results.
    fn flag_ready(&mut self, target: PollTarget) {
        match target {
            PollTarget::Wake => self.wake_ready = true,
            PollTarget::Listener => self.listener_ready = true,
            PollTarget::Inbound(i) => {
                if let Some(c) = self.inbound.get_mut(i) {
                    c.conn.mark_ready();
                }
            }
            PollTarget::Link(i) => {
                if let Some(conn) = self.links.get_mut(i).and_then(|l| l.conn.as_mut()) {
                    conn.mark_ready();
                }
            }
            PollTarget::GwListener => {
                if let Some(gw) = self.gateway.as_mut() {
                    gw.listener_ready = true;
                }
            }
            PollTarget::GwConn(i) => {
                if let Some((_, conn)) = self.gateway.as_mut().and_then(|gw| gw.conns.get_mut(i)) {
                    conn.mark_ready();
                }
            }
        }
    }
}

// ---- the entry point ------------------------------------------------------

/// Runs the cluster: one reactor thread and one actor thread per node,
/// plus the calling thread as the completion monitor, which also fires
/// scheduled restarts and tears everything down.
pub(crate) fn run<M, O>(
    mut rt: NetRuntime<M, O>,
    bound: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    gateways: Vec<Option<(TcpListener, GatewayPipe)>>,
) -> RuntimeReport<O>
where
    M: Codec + Clone + fmt::Debug + Send + Sync + 'static,
    O: Clone + fmt::Debug + PartialEq + Send + 'static,
{
    let n = rt.n;
    let clock = Clock::new();
    let obs = rt.obs.clone();
    let secret = rt.secret;
    let backoff = rt.backoff;
    let timeout = rt.timeout;
    let addr_table = Arc::new(Mutex::new(addrs));

    let (inbox_txs, inbox_rxs): InboxChannels<M> = (0..n).map(|_| mpsc::channel()).unzip();

    // Per-link frame queues: senders fan out from each node's actor,
    // receivers land in the owning node's reactor.
    let mut link_txs: Vec<Vec<Option<Sender<FrameBody>>>> = Vec::with_capacity(n);
    let mut link_rx_rows: Vec<Vec<(usize, Receiver<FrameBody>)>> = Vec::with_capacity(n);
    for from in 0..n {
        let mut tx_row = Vec::with_capacity(n);
        let mut rx_row = Vec::new();
        for to in 0..n {
            if to == from {
                tx_row.push(None);
            } else {
                let (tx, rx) = mpsc::channel();
                tx_row.push(Some(tx));
                rx_row.push((to, rx));
            }
        }
        link_txs.push(tx_row);
        link_rx_rows.push(rx_row);
    }

    let outputs: Arc<Mutex<BTreeMap<NodeId, O>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let ledger = PanicLedger::default();

    let correct: Vec<NodeId> = rt
        .procs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.as_ref().is_some_and(|(_, faulty)| !faulty))
        .map(|(i, _)| NodeId::new(i))
        .collect();

    let mut restart_specs: BTreeMap<usize, RestartSpec<M, O>> = BTreeMap::new();
    for spec in rt.restarts.drain(..) {
        restart_specs.insert(spec.node.index(), spec);
    }
    // Scheduled restarts fire once every correct node without one has
    // output (the survivors keep serving the recovering nodes).
    let mut pending_restarts: Vec<usize> = restart_specs.keys().copied().collect();
    let survivors: Vec<NodeId> =
        correct.iter().copied().filter(|id| !restart_specs.contains_key(&id.index())).collect();

    // One wake channel per node; failure degrades to capped poll sleeps.
    let mut wake_rxs: Vec<Option<TcpStream>> = Vec::with_capacity(n);
    let mut wakers: Vec<ReactorWaker> = Vec::with_capacity(n);
    for _ in 0..n {
        match wake_pair() {
            Some((rx, waker)) => {
                wake_rxs.push(Some(rx));
                wakers.push(waker);
            }
            None => {
                wake_rxs.push(None);
                wakers.push(ReactorWaker::disconnected());
            }
        }
    }

    let mut fronts: Vec<Option<GatewayFront>> = Vec::with_capacity(n);
    for (j, slot) in gateways.into_iter().enumerate() {
        match slot {
            Some((listener, pipe)) => {
                pipe.set_waker(wakers.get(j).cloned().unwrap_or_else(ReactorWaker::disconnected));
                fronts.push(Some(GatewayFront {
                    listener,
                    listener_ready: true,
                    pipe,
                    conns: Vec::new(),
                    next_conn_id: 0,
                    owner: BTreeMap::new(),
                }));
            }
            None => fronts.push(None),
        }
    }

    let mut timed_out = false;
    std::thread::scope(|scope| {
        // Reactor threads: one per node, owning every socket the node
        // touches.
        let per_node = bound.into_iter().zip(link_rx_rows).zip(wake_rxs).zip(fronts);
        for (j, (((listener, rx_row), wake_rx), front)) in per_node.enumerate() {
            let me = NodeId::new(j);
            let links: Vec<LinkState> = rx_row
                .into_iter()
                .map(|(to, rx)| {
                    let peer = NodeId::new(to);
                    LinkState::new(me, peer, rx, rt.chaos.link(me, peer))
                })
                .collect();
            let Some(inbox) = inbox_txs.get(j).cloned() else { continue };
            let node: NodeReactor<M> = NodeReactor {
                me,
                n,
                clock,
                obs: obs.clone(),
                secret,
                backoff,
                shutdown: Arc::clone(&shutdown),
                addr_table: Arc::clone(&addr_table),
                inbox,
                listener: Some(listener),
                listener_ready: true,
                bounce: rt.bounces.iter().copied().find(|b| b.node == me),
                rebind_at_ms: None,
                wake_rx,
                wake_ready: true,
                links,
                inbound: Vec::new(),
                expected: BTreeMap::new(),
                gateway: front,
            };
            let ledger = ledger.clone();
            scope.spawn(move || supervised(&ledger, "reactor", || node.run()));
        }

        // Actor threads: the fan-out wakes this node's reactor after
        // enqueueing frames.
        for (idx, (slot, rx)) in rt.procs.iter_mut().zip(inbox_rxs).enumerate() {
            let Some((mut proc_, _)) = slot.take() else { continue };
            let Some(self_tx) = inbox_txs.get(idx).cloned() else { continue };
            let links = LinkFanout {
                txs: link_txs.get_mut(idx).map(std::mem::take).unwrap_or_default(),
                waker: wakers.get(idx).cloned().unwrap_or_else(ReactorWaker::disconnected),
            };
            let outputs = Arc::clone(&outputs);
            let obs = obs.clone();
            let restart = restart_specs.remove(&idx);
            let ledger = ledger.clone();
            scope.spawn(move || {
                supervised(&ledger, "actor", || {
                    actor_loop(&mut proc_, rx, &self_tx, &links, &outputs, &obs, clock, restart);
                });
            });
        }

        // Completion monitor: poll until all correct nodes decided or
        // the timeout fires, then tear everything down.
        loop {
            obs.set_now(clock.now_us());
            {
                let outs = locked(&outputs);
                if correct.iter().all(|id| outs.contains_key(id)) {
                    break;
                }
                if !pending_restarts.is_empty() && survivors.iter().all(|id| outs.contains_key(id))
                {
                    for idx in pending_restarts.drain(..) {
                        if let Some(tx) = inbox_txs.get(idx) {
                            let _ = tx.send(Ctrl::Restart);
                        }
                    }
                }
            }
            if clock.elapsed() > timeout {
                timed_out = true;
                break;
            }
            sleep_ms(1);
        }
        shutdown.store(true, Ordering::Relaxed);
        for tx in &inbox_txs {
            let _ = tx.send(Ctrl::Stop);
        }
        // Wake every reactor so the ≤10ms poll sleeps cut short; no
        // socket severing is needed — nothing blocks on I/O.
        for waker in &wakers {
            waker.wake();
        }
    });

    let outputs = Arc::try_unwrap(outputs)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_else(|arc| locked(&arc).clone());
    let poisoned = ledger.finish(&obs);
    RuntimeReport { outputs, correct, timed_out, elapsed: clock.elapsed(), poisoned }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pair_wakes_poll() {
        let Some((rx, waker)) = wake_pair() else {
            return; // environment without loopback — nothing to test
        };
        let mut fds = [poll::PollFd::new(rx.as_raw_fd(), poll::POLLIN)];
        let idle = poll::poll(&mut fds, 0).unwrap_or(usize::MAX);
        assert_eq!(idle, 0, "fresh wake channel must be silent");
        waker.wake();
        let woke = poll::poll(&mut fds, 1000).unwrap_or(0);
        assert_eq!(woke, 1, "wake() must make the read end readable");
        assert!(fds.iter().all(poll::PollFd::readable));
    }

    #[test]
    fn disconnected_waker_is_inert() {
        let waker = ReactorWaker::disconnected();
        waker.wake(); // must not panic
        assert_eq!(format!("{waker:?}"), "ReactorWaker(connected=false)");
    }

    #[test]
    fn bufconn_flush_and_fill_round_trip() {
        let Some(listener) = TcpListener::bind(("127.0.0.1", 0)).ok() else { return };
        let Some(addr) = listener.local_addr().ok() else { return };
        let Some(dialer) = TcpStream::connect(addr).ok() else { return };
        let Some((accepted, _)) = listener.accept().ok() else { return };
        let Some(mut a) = BufConn::new(dialer).ok() else { return };
        let Some(mut b) = BufConn::new(accepted).ok() else { return };

        a.queue(b"hello reactor");
        assert!(a.pending_out());
        assert!(a.flush());
        assert!(!a.pending_out());

        // Loopback delivery is fast but asynchronous; poll for arrival.
        for _ in 0..1000 {
            if b.fill() == FillEnd::Open && !b.inbuf.is_empty() {
                break;
            }
            sleep_ms(1);
        }
        assert_eq!(b.inbuf, b"hello reactor");

        drop(a);
        let mut end = FillEnd::Open;
        for _ in 0..1000 {
            b.inbuf.clear();
            end = b.fill();
            if end != FillEnd::Open {
                break;
            }
            sleep_ms(1);
        }
        assert_eq!(end, FillEnd::Eof, "dropping the peer must surface as EOF");
        assert_eq!(b.fill(), FillEnd::Eof, "EOF is sticky");
        assert!(b.poll_fd().is_none(), "an EOF conn with nothing to write leaves the poll set");
    }
}
