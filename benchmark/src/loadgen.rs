//! The benchmark's own UDP load generators, speaking the client half of
//! the `pqs-serve` protocol (`ClientPut`/`ClientGet` frames through
//! `pqs_core::wire`). They do not call `pqs_serve::load`, so an edit to
//! `crates/serve` cannot move the ruler.
//!
//! - **Closed loop**: one thread per client keeps a fixed number of
//!   requests outstanding and sends the next only when a reply arrives.
//!   Latency runs from the send.
//! - **Open loop**: requests are due on a schedule fixed before the
//!   phase starts. A sender thread sends each when it falls due, whether
//!   or not earlier ones were answered; a receiver thread on the same
//!   socket times each reply **from the request's due time**, so a stall
//!   is charged to every request that was due during it.
//!
//! Each client owns a private keyspace, seeded before the mixed phase,
//! so a get that misses or returns a foreign value is the cluster's
//! fault, never a race between clients.

use crate::workloads::value_for;
use pqs_core::transport::{Datagram, OpStatus, WireMsg};
use pqs_core::wire;
use pqs_serve::CLIENT_NODE_ID;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A request is re-sent after this long without an answer...
pub const REQ_TIMEOUT: Duration = Duration::from_millis(250);
/// ...and abandoned (counted as failed) after this many sends.
pub const MAX_ATTEMPTS: u32 = 8;
/// Length of one pass: completions are counted per window.
pub const WINDOW_US: u64 = 250_000;
/// Keys in each client's private keyspace.
pub const KEYS_PER_CLIENT: u64 = 512;

const GET_BIT: u32 = 1 << 31;

/// `(request id, start, end)`, times in ns since the tracer's origin.
pub type RequestSpan = (u64, u64, u64);

/// What a phase sends.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// One put per key of the client's keyspace, in order.
    Seed,
    /// Random keys; this share of the operations are gets.
    Mixed { get_share: f64 },
}

/// When a closed-loop phase stops issuing (it then waits for what is
/// still outstanding).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Ops(u64),
    Seconds(f64),
}

/// Outcome counters of one client over one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub issued: u64,
    pub gets: u64,
    pub ok: u64,
    pub failed: u64,
    pub refused: u64,
    pub timed_out: u64,
    pub mismatched: u64,
    pub retransmits: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.issued += o.issued;
        self.gets += o.gets;
        self.ok += o.ok;
        self.failed += o.failed;
        self.refused += o.refused;
        self.timed_out += o.timed_out;
        self.mismatched += o.mismatched;
        self.retransmits += o.retransmits;
    }

    /// Operations that did not end in a correct answer.
    pub fn bad(&self) -> u64 {
        self.failed + self.refused + self.timed_out + self.mismatched
    }
}

/// What one client records over the measured phases of a run. The
/// sample buffer is allocated and touched once, before any timing, so
/// the process's peak resident set does not grow with the number of
/// operations a faster server completes; completions per window are
/// counted apart from it, so throughput never depends on its capacity.
/// Latencies, lateness and spans accumulate over the phases; the window
/// counts, `answered` and `last_done_us` are those of the latest phase.
#[derive(Debug)]
pub struct Recorder {
    /// Latency in units of 10 ns, with [`GET_BIT`] set on gets.
    samples: Vec<u32>,
    pub windows: Vec<u32>,
    pub latency_sum_us: u64,
    /// Operations answered, and when the last answer came, µs after the
    /// phase began.
    pub answered: u64,
    pub last_done_us: f64,
    /// The tracer's origin and one span per request; only when tracing.
    pub spans: Option<(Instant, Vec<RequestSpan>)>,
    /// How late each request left, µs after its due time (open loop).
    pub late_us: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(samples: usize) -> Recorder {
        let mut buf = vec![u32::MAX; samples];
        buf.clear();
        Recorder {
            samples: buf,
            windows: Vec::new(),
            latency_sum_us: 0,
            answered: 0,
            last_done_us: 0.0,
            spans: None,
            late_us: Vec::new(),
        }
    }

    /// Starts a new phase of `seconds`; spans are recorded against
    /// `trace_origin` if there is one.
    pub fn begin_phase(&mut self, seconds: f64, trace_origin: Option<Instant>) {
        self.windows.clear();
        self.windows
            .resize((seconds * 1e6 / WINDOW_US as f64).ceil() as usize + 1, 0);
        self.answered = 0;
        self.last_done_us = 0.0;
        self.spans = trace_origin.map(|origin| (origin, Vec::new()));
    }

    fn record(&mut self, id: u64, get: bool, begun: Instant, done: Instant, phase_start: Instant) {
        let latency = done.duration_since(begun);
        self.latency_sum_us += latency.as_micros() as u64;
        if self.samples.len() < self.samples.capacity() {
            let clipped = (latency.as_nanos() / 10).min(u128::from(GET_BIT - 1)) as u32;
            self.samples
                .push(if get { clipped | GET_BIT } else { clipped });
        }
        let since_start = done.saturating_duration_since(phase_start);
        self.answered += 1;
        self.last_done_us = self.last_done_us.max(since_start.as_secs_f64() * 1e6);
        let window = (since_start.as_micros() as u64 / WINDOW_US) as usize;
        if let Some(slot) = self.windows.get_mut(window) {
            *slot += 1;
        }
        if let Some((origin, spans)) = &mut self.spans {
            // A due time can precede the tracer's origin only by clock
            // granularity; saturate rather than wrap.
            let ns = |t: Instant| t.saturating_duration_since(*origin).as_nanos() as u64;
            spans.push((id, ns(begun), ns(done)));
        }
    }

    /// `(latency µs, is_get)` of every recorded operation.
    pub fn latencies(&self) -> impl Iterator<Item = (f64, bool)> + '_ {
        self.samples
            .iter()
            .map(|&s| (f64::from(s & !GET_BIT) / 100.0, s & GET_BIT != 0))
    }
}

/// One client: a socket, a private keyspace, a request-id counter.
#[derive(Debug)]
pub struct Client {
    pub id: u64,
    sock: UdpSocket,
    targets: Vec<SocketAddr>,
    rng: StdRng,
    next_req: u64,
}

struct Pending {
    key: u64,
    get: bool,
    target: SocketAddr,
    first_sent: Instant,
    last_sent: Instant,
    attempts: u32,
}

fn frame(msg: WireMsg) -> Vec<u8> {
    wire::encode_frame(&Datagram {
        from: CLIENT_NODE_ID,
        msg,
    })
}

fn request_frame(req: u64, key: u64, get: bool) -> Vec<u8> {
    frame(if get {
        WireMsg::ClientGet { req, key }
    } else {
        WireMsg::ClientPut {
            req,
            key,
            value: value_for(key),
        }
    })
}

/// Decodes a reply into `(request id, status, value if a get)`.
fn parse_reply(buf: &[u8]) -> Option<(u64, OpStatus, Option<u64>)> {
    match wire::decode_frame(buf).ok()?.0.msg {
        WireMsg::ClientPutDone { req, status } => Some((req, status, None)),
        WireMsg::ClientGetDone { req, status, value } => Some((req, status, Some(value))),
        _ => None,
    }
}

fn tally(counts: &mut Counts, key: u64, status: OpStatus, value: Option<u64>) {
    match status {
        OpStatus::Ok if value.is_some_and(|v| v != value_for(key)) => counts.mismatched += 1,
        OpStatus::Ok => counts.ok += 1,
        OpStatus::Failed => counts.failed += 1,
        OpStatus::Refused => counts.refused += 1,
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl Client {
    pub fn new(id: u64, targets: &[SocketAddr], rng: StdRng) -> io::Result<Client> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(Duration::from_millis(1)))?;
        Ok(Client {
            id,
            sock,
            targets: targets.to_vec(),
            rng,
            next_req: 1,
        })
    }

    fn key(&self, i: u64) -> u64 {
        ((self.id + 1) << 40) | i
    }

    /// The next operation of a mixed phase: `(key, is_get)`.
    fn draw(&mut self, get_share: f64) -> (u64, bool) {
        let i = self.rng.gen_range(0..KEYS_PER_CLIENT);
        (self.key(i), self.rng.gen_bool(get_share))
    }

    /// Shift of this client's open-loop schedule, so that several
    /// clients interleave instead of sending in lockstep.
    pub fn offset(&self) -> Duration {
        Duration::from_micros(self.id * 250)
    }

    fn target(&self, req: u64) -> SocketAddr {
        self.targets[((req + self.id) % self.targets.len() as u64) as usize]
    }

    /// One operation on an otherwise idle cluster: send, wait for the
    /// answer. `None` if it did not come back correct within the timeout.
    pub fn one_at_a_time(&mut self, i: u64, get: bool) -> io::Result<Option<Duration>> {
        let req = self.next_req;
        self.next_req += 1;
        let key = self.key(i % KEYS_PER_CLIENT);
        let begun = Instant::now();
        self.sock
            .send_to(&request_frame(req, key, get), self.target(req))?;
        let mut buf = [0u8; 2048];
        while begun.elapsed() < REQ_TIMEOUT {
            match self.sock.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if let Some((r, status, value)) = parse_reply(&buf[..n]) {
                        if r == req {
                            let good =
                                status == OpStatus::Ok && value.is_none_or(|v| v == value_for(key));
                            return Ok(good.then(|| begun.elapsed()));
                        }
                    }
                }
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Closed loop: keeps `outstanding` requests in flight until `until`
    /// is reached (`Mix::Seed` never issues more than the keyspace), then
    /// waits for the stragglers.
    pub fn closed_loop(
        &mut self,
        mix: Mix,
        outstanding: usize,
        until: Until,
        mut recorder: Option<&mut Recorder>,
    ) -> io::Result<Counts> {
        let phase_start = Instant::now();
        let (budget, deadline) = match until {
            Until::Ops(n) => (n, None),
            Until::Seconds(s) => (u64::MAX, Some(phase_start + Duration::from_secs_f64(s))),
        };
        let budget = match mix {
            Mix::Seed => budget.min(KEYS_PER_CLIENT),
            Mix::Mixed { .. } => budget,
        };
        let mut counts = Counts::default();
        let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(outstanding * 2);
        let mut buf = [0u8; 2048];
        let mut last_scan = phase_start;
        loop {
            let mut now = Instant::now();
            let open = deadline.is_none_or(|d| now < d);
            while open && pending.len() < outstanding && counts.issued < budget {
                let (key, get) = match mix {
                    Mix::Seed => (self.key(counts.issued), false),
                    Mix::Mixed { get_share } => self.draw(get_share),
                };
                let req = self.next_req;
                self.next_req += 1;
                counts.issued += 1;
                counts.gets += u64::from(get);
                let target = self.target(req);
                now = Instant::now();
                self.sock.send_to(&request_frame(req, key, get), target)?;
                pending.insert(
                    req,
                    Pending {
                        key,
                        get,
                        target,
                        first_sent: now,
                        last_sent: now,
                        attempts: 1,
                    },
                );
            }
            if pending.is_empty() {
                return Ok(counts);
            }
            match self.sock.recv_from(&mut buf) {
                Ok((n, _)) => {
                    let done = Instant::now();
                    if let Some((req, status, value)) = parse_reply(&buf[..n]) {
                        // A second answer to a retransmitted request finds
                        // nothing pending and is dropped.
                        if let Some(p) = pending.remove(&req) {
                            tally(&mut counts, p.key, status, value);
                            if let Some(r) = recorder.as_deref_mut() {
                                r.record(req, p.get, p.first_sent, done, phase_start);
                            }
                        }
                    }
                }
                Err(e) if is_timeout(&e) => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now.duration_since(last_scan) >= Duration::from_millis(10) {
                last_scan = now;
                let mut abandoned = Vec::new();
                for (&req, p) in &mut pending {
                    if now.duration_since(p.last_sent) < REQ_TIMEOUT {
                        continue;
                    }
                    if p.attempts >= MAX_ATTEMPTS {
                        abandoned.push(req);
                        continue;
                    }
                    p.attempts += 1;
                    p.last_sent = now;
                    counts.retransmits += 1;
                    self.sock
                        .send_to(&request_frame(req, p.key, p.get), p.target)?;
                }
                for req in abandoned {
                    pending.remove(&req);
                    counts.timed_out += 1;
                }
            }
        }
    }

    /// Open loop at `rate` requests per second for `seconds`: see the
    /// module docs. The schedule starts `offset` from now.
    pub fn open_loop(
        &mut self,
        get_share: f64,
        rate: f64,
        seconds: f64,
        offset: Duration,
        mut recorder: Option<&mut Recorder>,
    ) -> io::Result<Counts> {
        let total = (rate * seconds).round() as u64;
        let base_req = self.next_req;
        self.next_req += total;
        // The whole schedule is fixed before the first send.
        let plan: Vec<(u64, bool)> = (0..total).map(|_| self.draw(get_share)).collect();
        let done: Vec<AtomicBool> = (0..total).map(|_| AtomicBool::new(false)).collect();
        let answered = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let receiver_sock = self.sock.try_clone()?;
        let phase_start = Instant::now() + offset;
        let mut schedule = OpenSchedule::new(1e6 / rate, total);
        let due_at = |i: u64| phase_start + Duration::from_micros(schedule_due_us(1e6 / rate, i));

        let mut counts = Counts {
            issued: total,
            gets: plan.iter().filter(|p| p.1).count() as u64,
            ..Counts::default()
        };
        let mut late_us: Vec<u32> = Vec::with_capacity(total as usize);

        let received = std::thread::scope(|scope| -> io::Result<Counts> {
            let receiver = scope.spawn(|| -> io::Result<Counts> {
                let mut got = Counts::default();
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    match receiver_sock.recv_from(&mut buf) {
                        Ok((n, _)) => {
                            let now = Instant::now();
                            let Some((req, status, value)) = parse_reply(&buf[..n]) else {
                                continue;
                            };
                            let Some(i) = req.checked_sub(base_req).filter(|&i| i < total) else {
                                continue; // a straggler of an earlier phase
                            };
                            if done[i as usize].swap(true, Ordering::SeqCst) {
                                continue; // second answer to a retransmit
                            }
                            answered.fetch_add(1, Ordering::SeqCst);
                            let (key, get) = plan[i as usize];
                            tally(&mut got, key, status, value);
                            if let Some(r) = recorder.as_deref_mut() {
                                r.record(req, get, due_at(i), now, phase_start);
                            }
                        }
                        Err(e) if is_timeout(&e) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(got)
            });

            let sent = (|| -> io::Result<()> {
                let mut last_sent: Vec<Instant> = Vec::with_capacity(total as usize);
                let mut attempts: Vec<u32> = Vec::with_capacity(total as usize);
                let mut oldest = 0u64;
                let mut last_scan = Instant::now();
                let give_up =
                    phase_start + Duration::from_secs_f64(seconds) + REQ_TIMEOUT * MAX_ATTEMPTS;
                loop {
                    let now = Instant::now();
                    let now_us = now.saturating_duration_since(phase_start).as_micros() as u64;
                    for i in schedule.take_due(now_us) {
                        let (key, get) = plan[i as usize];
                        let req = base_req + i;
                        self.sock
                            .send_to(&request_frame(req, key, get), self.target(req))?;
                        let late = now_us.saturating_sub(schedule.due_us(i));
                        late_us.push(late.min(u64::from(u32::MAX)) as u32);
                        last_sent.push(now);
                        attempts.push(1);
                    }
                    if now.duration_since(last_scan) >= Duration::from_millis(20) {
                        last_scan = now;
                        while oldest < schedule.sent()
                            && done[oldest as usize].load(Ordering::SeqCst)
                        {
                            oldest += 1;
                        }
                        for i in oldest..schedule.sent() {
                            let slot = i as usize;
                            if done[slot].load(Ordering::SeqCst)
                                || now.duration_since(last_sent[slot]) < REQ_TIMEOUT
                                || attempts[slot] >= MAX_ATTEMPTS
                            {
                                continue;
                            }
                            attempts[slot] += 1;
                            last_sent[slot] = now;
                            counts.retransmits += 1;
                            let (key, get) = plan[slot];
                            let req = base_req + i;
                            self.sock
                                .send_to(&request_frame(req, key, get), self.target(req))?;
                        }
                    }
                    let all_sent = schedule.sent() == total;
                    if (all_sent && answered.load(Ordering::SeqCst) == total) || now >= give_up {
                        return Ok(());
                    }
                    // nanosleep is hrtimer-based: unlike a socket read
                    // timeout it is not rounded up to a scheduler tick.
                    let nap = if all_sent {
                        500
                    } else {
                        let next = schedule.due_us(schedule.sent());
                        next.saturating_sub(now_us).clamp(20, 1_000)
                    };
                    std::thread::sleep(Duration::from_micros(nap));
                }
            })();
            stop.store(true, Ordering::SeqCst);
            let got = receiver
                .join()
                .map_err(|_| io::Error::other("open-loop receiver panicked"))??;
            sent.map(|()| got)
        })?;

        counts.ok = received.ok;
        counts.failed = received.failed;
        counts.refused = received.refused;
        counts.mismatched = received.mismatched;
        counts.timed_out = total - answered.load(Ordering::SeqCst);
        if let Some(r) = recorder {
            r.late_us.extend(late_us);
        }
        Ok(counts)
    }
}

fn schedule_due_us(interval_us: f64, i: u64) -> u64 {
    (i as f64 * interval_us).round() as u64
}

/// The open loop's send schedule: request `i` is due `i · interval`
/// after the phase starts, whatever happens to the requests before it.
/// Pure (the caller supplies the clock), so the stall accounting can be
/// tested without sockets.
#[derive(Debug, Clone)]
pub struct OpenSchedule {
    interval_us: f64,
    total: u64,
    next: u64,
}

impl OpenSchedule {
    pub fn new(interval_us: f64, total: u64) -> Self {
        OpenSchedule {
            interval_us,
            total,
            next: 0,
        }
    }

    /// When request `i` is due, µs after the phase start.
    pub fn due_us(&self, i: u64) -> u64 {
        schedule_due_us(self.interval_us, i)
    }

    /// Requests handed out so far.
    pub fn sent(&self) -> u64 {
        self.next
    }

    /// Every not-yet-sent request due at or before `now_us`. After a
    /// stall this is the whole backlog at once: each keeps its own due
    /// time, so each is charged its share of the stall.
    pub fn take_due(&mut self, now_us: u64) -> Range<u64> {
        let first = self.next;
        while self.next < self.total && self.due_us(self.next) <= now_us {
            self.next += 1;
        }
        first..self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A generator that stalls for 50 ms must charge the stall to the
    /// requests that fell due during it, even though the (instant)
    /// service answered each the moment it was finally sent.
    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        // 2000 requests/s: one every 500 µs.
        let mut schedule = OpenSchedule::new(500.0, 1_000);
        let mut latencies: Vec<(u64, u64)> = Vec::new();
        // An instant service: answered the moment it is sent; latency as
        // the receiver takes it, from the due time, not the send.
        fn serve(schedule: &mut OpenSchedule, now_us: u64, latencies: &mut Vec<(u64, u64)>) {
            for i in schedule.take_due(now_us) {
                latencies.push((i, now_us - schedule.due_us(i)));
            }
        }
        // On time up to 10 ms...
        for now_us in (0..=10_000).step_by(500) {
            serve(&mut schedule, now_us, &mut latencies);
        }
        assert_eq!(latencies.len(), 21);
        assert!(latencies.iter().all(|&(_, l)| l == 0));
        // ...then nothing for 50 ms, then on time again.
        for now_us in (60_000..=70_000).step_by(500) {
            serve(&mut schedule, now_us, &mut latencies);
        }
        // Requests 21..=120 were due at 10.5 ms..60 ms: 100 of them, all
        // sent at 60 ms, charged 49.5 ms down to 0.
        let stalled: Vec<u64> = latencies
            .iter()
            .filter(|&&(i, _)| (21..=120).contains(&i))
            .map(|&(_, l)| l)
            .collect();
        assert_eq!(stalled.len(), 100);
        assert_eq!(stalled[0], 49_500);
        assert_eq!(*stalled.last().unwrap(), 0);
        let charged: u64 = stalled.iter().sum();
        assert_eq!(charged, (0..100u64).map(|k| k * 500).sum::<u64>());
        // Measured from the send instead, every one of them would read 0.
        // After the stall the schedule is back on time.
        assert!(latencies
            .iter()
            .filter(|&&(i, _)| i > 120)
            .all(|&(_, l)| l == 0));
        assert_eq!(schedule.sent(), 141);
    }

    #[test]
    fn schedule_stops_at_its_total() {
        let mut s = OpenSchedule::new(250.0, 4);
        assert_eq!(s.take_due(10_000_000), 0..4);
        assert_eq!(s.take_due(20_000_000), 4..4);
        assert_eq!(s.due_us(3), 750);
    }
}
