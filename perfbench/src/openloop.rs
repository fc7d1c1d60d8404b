//! Load generation for the `serve` workload.
//!
//! **Open loop.** Request `i` of a run is due at `i / rate` seconds after
//! the run starts, whether or not earlier requests were answered. Requests
//! are spread round-robin over a few keep-alive connections and pipelined
//! on each (both server modes answer a connection's requests in order). A
//! request's latency is timed from when it was *due*, so a stall that
//! delays later sends is charged to them, and the generator reports how
//! late it sent each request.
//!
//! **Closed loop** (`rate = f64::INFINITY`). Each connection keeps a fixed window of
//! requests in flight and sends the next one as each answer arrives: the
//! time to answer a fixed batch measures the front door's capacity.
//!
//! The accounting ([`Lane`]) is clock-agnostic so it can be tested on a
//! fake clock; [`drive`] runs it against a real socket.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests a connection may have in flight before the generator stops
/// sending and runs late. Bounds the bytes queued in both directions, so a
/// client blocked in `write` can never deadlock against a server blocked
/// writing responses the client is not reading.
pub const MAX_IN_FLIGHT: usize = 64;

/// One connection's share of an open-loop schedule: every `stride`-th
/// request starting at `first`, due at `index / rate`.
#[derive(Clone, Debug)]
pub struct Lane {
    rate: f64,
    first: usize,
    stride: usize,
    total: usize,
    window: usize,
    /// Next lane-local position to send.
    next: usize,
    /// Lane-local positions sent and not yet answered, oldest first.
    in_flight: VecDeque<usize>,
    /// Per lane-local position: lateness of the send, then latency from
    /// the due time to the answer.
    pub late: Vec<Duration>,
    pub latency: Vec<Duration>,
    answered: usize,
}

impl Lane {
    /// Lane `first` of `stride` over a schedule of `total` requests at
    /// `rate` requests per second; `rate = f64::INFINITY` makes every
    /// request due at once (closed loop, limited by `window`).
    pub fn new(rate: f64, total: usize, first: usize, stride: usize, window: usize) -> Self {
        let len = if first < total {
            (total - first).div_ceil(stride)
        } else {
            0
        };
        Lane {
            rate,
            first,
            stride,
            total: len,
            window: window.max(1),
            next: 0,
            in_flight: VecDeque::new(),
            late: vec![Duration::ZERO; len],
            latency: vec![Duration::ZERO; len],
            answered: 0,
        }
    }

    /// Requests in this lane.
    pub fn len(&self) -> usize {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Global schedule index of lane-local position `k`.
    pub fn global(&self, k: usize) -> usize {
        self.first + k * self.stride
    }

    /// Due time of lane-local position `k`, from the run's start.
    pub fn due(&self, k: usize) -> Duration {
        if self.rate.is_infinite() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(self.global(k) as f64 / self.rate)
        }
    }

    /// Marks every request that is due at `now` (and fits the in-flight
    /// window) as sent, recording its lateness; returns their lane-local
    /// positions.
    pub fn take_due(&mut self, now: Duration) -> std::ops::Range<usize> {
        let start = self.next;
        while self.next < self.total
            && self.in_flight.len() < self.window
            && self.due(self.next) <= now
        {
            self.late[self.next] = now - self.due(self.next);
            self.in_flight.push_back(self.next);
            self.next += 1;
        }
        start..self.next
    }

    /// Records the answer to the oldest request in flight (responses come
    /// back in request order) and returns its lane-local position.
    pub fn answer(&mut self, now: Duration) -> Option<usize> {
        let k = self.in_flight.pop_front()?;
        self.latency[k] = now.saturating_sub(self.due(k));
        self.answered += 1;
        Some(k)
    }

    /// When the next unsent request falls due, if any remain.
    pub fn next_due(&self) -> Option<Duration> {
        (self.next < self.total).then(|| self.due(self.next))
    }

    pub fn answered(&self) -> usize {
        self.answered
    }

    pub fn finished(&self) -> bool {
        self.answered == self.total
    }

    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }
}

/// Incremental HTTP/1.1 response reader over a byte stream: responses carry
/// `Content-Length` (the only framing the servers use).
#[derive(Default)]
pub struct ResponseBuf {
    buf: Vec<u8>,
    /// Bytes at the front already consumed.
    head: usize,
}

/// One parsed response: status and body location in the buffer.
pub struct Parsed {
    pub status: u16,
    body: std::ops::Range<usize>,
}

impl ResponseBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.head > 0 && self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 1 << 20 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if buffered.
    pub fn take_response(&mut self) -> Result<Option<Parsed>, String> {
        let data = &self.buf[self.head..];
        let Some(end) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..end]).map_err(|_| "non-UTF-8 header")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or("response without Content-Length")?;
        let body_start = self.head + end + 4;
        if self.buf.len() < body_start + len {
            return Ok(None);
        }
        self.head = body_start + len;
        Ok(Some(Parsed {
            status,
            body: body_start..body_start + len,
        }))
    }

    pub fn body(&self, p: &Parsed) -> &[u8] {
        &self.buf[p.body.clone()]
    }
}

/// What a lane's run produced, on top of the lane's own timings.
#[derive(Debug, Default)]
pub struct LaneOutcome {
    /// Answers that were not `200` or whose body differed from the
    /// reference.
    pub bad: u64,
    /// Requests never answered (transport error or timeout).
    pub unanswered: u64,
    /// First problem seen, for the log.
    pub first_error: Option<String>,
}

/// The requests of a run, indexed by global schedule position.
pub trait Targets: Sync {
    /// Wire bytes of request `i`.
    fn request(&self, i: usize) -> &[u8];
    /// The reference body request `i` must be answered with.
    fn expected(&self, i: usize) -> &[u8];
}

/// Runs `lane` against `addr` on the real clock started at `t0`: sends the
/// requests as they fall due, reads answers as they arrive, and checks each
/// against its reference body. Gives up `grace` after the last request fell
/// due.
pub fn drive(
    addr: SocketAddr,
    lane: &mut Lane,
    t0: Instant,
    targets: &dyn Targets,
    grace: Duration,
) -> LaneOutcome {
    let mut out = LaneOutcome::default();
    let fail = |out: &mut LaneOutcome, lane: &Lane, msg: String| {
        out.unanswered = (lane.len() - lane.answered()) as u64;
        out.first_error.get_or_insert(msg);
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            fail(&mut out, lane, format!("connect {addr}: {e}"));
            return out;
        }
    };
    stream.set_nodelay(true).ok();
    let last_due = if lane.is_empty() {
        Duration::ZERO
    } else {
        lane.due(lane.len() - 1)
    };
    let deadline = last_due + grace;
    let mut rx = ResponseBuf::default();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut wire = Vec::new();
    while !lane.finished() {
        let now = t0.elapsed();
        if now > deadline {
            fail(
                &mut out,
                lane,
                format!(
                    "{} answers missing at the deadline",
                    lane.len() - lane.answered()
                ),
            );
            return out;
        }
        wire.clear();
        for k in lane.take_due(now) {
            wire.extend_from_slice(targets.request(lane.global(k)));
        }
        if !wire.is_empty() {
            if let Err(e) = stream.write_all(&wire) {
                fail(&mut out, lane, format!("write: {e}"));
                return out;
            }
        }
        if lane.in_flight() == 0 {
            if let Some(due) = lane.next_due() {
                std::thread::sleep(due.saturating_sub(t0.elapsed()));
            }
            continue;
        }
        // Wait for answers, but no longer than until the next send.
        let wait = match lane.next_due() {
            Some(due) if lane.in_flight() < lane.window => due.saturating_sub(t0.elapsed()),
            _ => Duration::from_millis(50),
        };
        stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
            .ok();
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                fail(&mut out, lane, "server closed the connection".into());
                return out;
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                fail(&mut out, lane, format!("read: {e}"));
                return out;
            }
        };
        rx.extend(&chunk[..n]);
        loop {
            let parsed = match rx.take_response() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    fail(&mut out, lane, e);
                    return out;
                }
            };
            let Some(k) = lane.answer(t0.elapsed()) else {
                fail(&mut out, lane, "answer to a request never sent".into());
                return out;
            };
            let i = lane.global(k);
            let body = rx.body(&parsed);
            if parsed.status != 200 || body != targets.expected(i) {
                out.bad += 1;
                out.first_error.get_or_insert_with(|| {
                    format!(
                        "request {i}: status {} or body differs from the reference",
                        parsed.status
                    )
                });
            }
        }
    }
    out
}

/// Result of one open- or closed-loop run over all lanes.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Latency of every answered request, from its due time, in ms.
    pub latency_ms: Vec<f64>,
    /// Lateness of every sent request, in ms.
    pub late_ms: Vec<f64>,
    /// `(due, answered)` instants of every answered request, for spans.
    pub timeline: Vec<(Instant, Instant)>,
    pub attempted: u64,
    pub bad: u64,
    pub unanswered: u64,
    pub wall: Duration,
    pub first_error: Option<String>,
}

impl RunResult {
    pub fn failed(&self) -> u64 {
        self.bad + self.unanswered
    }

    /// Whether latency grew over the run: the median of the last quarter of
    /// requests exceeds the first quarter's by more than half the limit.
    pub fn backlog_growing(&self, limit_ms: f64) -> bool {
        let n = self.latency_ms.len();
        if n < 8 {
            return false;
        }
        let q = n / 4;
        let first = crate::stats::median(&self.latency_ms[..q]);
        let last = crate::stats::median(&self.latency_ms[n - q..]);
        last > first + limit_ms / 2.0
    }
}

/// Runs `total` requests at `rate` over `conns` connections, one thread
/// each; `f64::INFINITY` makes a closed-loop burst with `window` requests
/// in flight per connection.
pub fn run(
    addr: SocketAddr,
    rate: f64,
    total: usize,
    conns: usize,
    window: usize,
    targets: &dyn Targets,
) -> RunResult {
    let grace = Duration::from_secs(10);
    let t0 = Instant::now();
    let lanes: Vec<(Lane, LaneOutcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut lane = Lane::new(rate, total, c, conns, window);
                    let outcome = drive(addr, &mut lane, t0, targets, grace);
                    (lane, outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut result = RunResult {
        attempted: total as u64,
        wall,
        ..Default::default()
    };
    // Order samples by global index so quarters follow the schedule.
    let mut rows: Vec<(usize, Duration, Duration, Duration)> = Vec::with_capacity(total);
    for (lane, outcome) in lanes {
        result.bad += outcome.bad;
        result.unanswered += outcome.unanswered;
        if result.first_error.is_none() {
            result.first_error = outcome.first_error;
        }
        // Positions answered are a prefix of the lane (answers arrive in order).
        for k in 0..lane.answered() {
            rows.push((lane.global(k), lane.due(k), lane.late[k], lane.latency[k]));
        }
    }
    rows.sort_unstable_by_key(|r| r.0);
    for (_, due, late, latency) in rows {
        result.late_ms.push(late.as_secs_f64() * 1e3);
        result.latency_ms.push(latency.as_secs_f64() * 1e3);
        result.timeline.push((t0 + due, t0 + due + latency));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn due_times_follow_the_global_schedule() {
        // 1000 req/s over 2 lanes: lane 1 holds requests 1, 3, 5, ...
        let lane = Lane::new(1000.0, 7, 1, 2, 64);
        assert_eq!(lane.len(), 3);
        assert_eq!((lane.global(0), lane.global(2)), (1, 5));
        assert_eq!((lane.due(0), lane.due(2)), (ms(1), ms(5)));
        assert!(Lane::new(1000.0, 1, 1, 2, 64).is_empty());
    }

    #[test]
    fn lateness_and_latency_are_charged_from_the_due_time() {
        let mut lane = Lane::new(1000.0, 4, 0, 1, 64);
        // The generator wakes at 0 ms and sends request 0 on time.
        assert_eq!(lane.take_due(ms(0)), 0..1);
        // It stalls until 2.5 ms: requests 1 and 2 go out late.
        let now = Duration::from_micros(2500);
        assert_eq!(lane.take_due(now), 1..3);
        assert_eq!(
            lane.late[..3],
            [
                ms(0),
                Duration::from_micros(1500),
                Duration::from_micros(500)
            ]
        );
        assert_eq!(lane.next_due(), Some(ms(3)));
        // Answers arrive in order at 4 ms: each latency counts from its
        // due time, including the time spent waiting to be sent.
        for _ in 0..3 {
            lane.answer(ms(4));
        }
        assert_eq!(lane.latency[..3], [ms(4), ms(3), ms(2)]);
        assert!(!lane.finished());
        assert_eq!(lane.take_due(ms(4)), 3..4);
        assert_eq!(lane.answer(ms(5)), Some(3));
        assert_eq!(lane.latency[3], ms(2));
        assert!(lane.finished());
        assert_eq!(lane.next_due(), None);
        assert_eq!(lane.answer(ms(6)), None);
    }

    #[test]
    fn full_window_holds_back_due_requests_and_they_run_late() {
        let mut lane = Lane::new(1000.0, 5, 0, 1, 2);
        assert_eq!(lane.take_due(ms(10)), 0..2);
        assert_eq!(lane.take_due(ms(10)), 2..2);
        lane.answer(ms(11));
        assert_eq!(lane.take_due(ms(12)), 2..3);
        assert_eq!(lane.late[2], ms(10));
    }

    #[test]
    fn closed_loop_lane_is_all_due_at_once() {
        let mut lane = Lane::new(f64::INFINITY, 10, 0, 1, 4);
        assert_eq!(lane.take_due(Duration::ZERO), 0..4);
        lane.answer(ms(1));
        assert_eq!(lane.take_due(ms(1)), 4..5);
        assert_eq!(lane.latency[0], ms(1));
    }

    #[test]
    fn response_buffer_frames_pipelined_and_split_responses() {
        let mut rx = ResponseBuf::default();
        let one = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        let two = b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nnah";
        let mut wire = one.to_vec();
        wire.extend_from_slice(two);
        rx.extend(&wire[..30]);
        assert!(rx.take_response().unwrap().is_none());
        rx.extend(&wire[30..]);
        let a = rx.take_response().unwrap().unwrap();
        assert_eq!((a.status, rx.body(&a)), (200, &b"hello"[..]));
        let b = rx.take_response().unwrap().unwrap();
        assert_eq!((b.status, rx.body(&b)), (404, &b"nah"[..]));
        assert!(rx.take_response().unwrap().is_none());
        rx.extend(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(rx.take_response().is_err());
    }

    #[test]
    fn backlog_shows_as_latency_growth() {
        let steady = RunResult {
            latency_ms: vec![1.0; 100],
            ..Default::default()
        };
        assert!(!steady.backlog_growing(5.0));
        let growing = RunResult {
            latency_ms: (0..100).map(|i| i as f64 * 0.2).collect(),
            ..Default::default()
        };
        assert!(growing.backlog_growing(5.0));
    }
}
