//! Load generation against a served database over loopback TCP.
//!
//! Two shapes, as the workloads need them:
//!
//! * **closed loop** — each of `connections` clients sends its next
//!   read only after the previous answer arrived; a read is *due* when
//!   its connection's previous answer arrived;
//! * **open loop** — op `i` is due at `start + i / rate` whatever the
//!   server is doing; a sender per connection submits at the due time
//!   (pipelined, never waiting for answers) and a collector per
//!   connection waits for them. Latency runs from the due time, so a
//!   stall also counts against the requests it delayed. Writes all ride
//!   connection 0, in stream order, so the global index each insert is
//!   assigned (and each delete targets) follows from the stream alone.
//!
//! Both take the op stream as an endless iterator and read only the ops
//! they send: the closed loop as fast as the server answers, the open
//! loop as many as its schedule holds.

use crate::workload::Op;
use cned::{Client, ResponseBody};
use std::net::SocketAddr;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One completed op.
#[derive(Debug, Clone)]
pub struct Record {
    /// Position in the op stream.
    pub op: usize,
    /// Due time to answer.
    pub latency: Duration,
    /// How late the generator sent it after it was due.
    pub lag: Duration,
    /// Whether it was due inside the measured window (after warm-up).
    pub measured: bool,
    /// When its answer arrived.
    pub done: Instant,
    /// The answer (`Failed` for refused or lost requests).
    pub body: ResponseBody,
}

/// Everything one load phase produced.
#[derive(Debug)]
pub struct Outcome {
    /// The ops sent, in stream order.
    pub ops: Vec<Op>,
    /// Completed ops, sorted by stream position.
    pub records: Vec<Record>,
    /// Start of the measured window: the end of warm-up.
    pub measure_from: Instant,
    /// Length of the measured window: from the end of warm-up to the
    /// last answer of an op due inside it.
    pub window: Duration,
}

impl Outcome {
    /// Ops whose answer is a typed failure (refusals included).
    pub fn failed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.body, ResponseBody::Failed { .. }))
            .count()
    }
}

/// How long to run: warm-up, then the measured window; or, with
/// `max_ops`, until that many ops were sent.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Unrecorded lead-in.
    pub warmup: Duration,
    /// Measured window.
    pub measure: Duration,
    /// Optional cap on ops sent.
    pub max_ops: Option<usize>,
}

/// One connection's records and the arrival of its last measured answer.
type ConnResult = Result<(Vec<Record>, Option<Instant>), String>;

fn connect(addr: SocketAddr) -> Result<Client<u8>, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// Closed loop over `ops`, `connections` clients.
pub fn closed_loop(
    addr: SocketAddr,
    ops: impl Iterator<Item = Op> + Send,
    connections: usize,
    budget: Budget,
) -> Result<Outcome, String> {
    // The stream and the log of the ops taken from it: an op's position
    // is its index in the log.
    let source = Mutex::new((ops, Vec::new()));
    let start = Instant::now();
    let measure_from = start + budget.warmup;
    let stop_at = measure_from + budget.measure;
    let per_conn: Vec<ConnResult> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                let source = &source;
                s.spawn(move || {
                    let mut client = connect(addr)?;
                    let mut records = Vec::new();
                    let mut last_measured = None;
                    let mut due = Instant::now();
                    loop {
                        if budget.max_ops.is_none() && due >= stop_at {
                            break;
                        }
                        let next = {
                            let mut guard = source.lock().expect("op source poisoned");
                            let (stream, log) = &mut *guard;
                            if budget.max_ops.is_some_and(|max| log.len() >= max) {
                                None
                            } else {
                                stream.next().map(|op| {
                                    let request = op.request();
                                    log.push(op);
                                    (log.len() - 1, request)
                                })
                            }
                        };
                        let Some((i, request)) = next else {
                            break;
                        };
                        let sent = Instant::now();
                        let body = client.call(request).map_err(|e| format!("op {i}: {e}"))?;
                        let done = Instant::now();
                        let measured = due >= measure_from;
                        if measured {
                            last_measured = Some(done);
                        }
                        records.push(Record {
                            op: i,
                            latency: done - due,
                            lag: sent - due,
                            measured,
                            done,
                            body,
                        });
                        due = done;
                    }
                    client.close();
                    Ok((records, last_measured))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker panicked"))
            .collect()
    });
    let (_, log) = source.into_inner().expect("op source poisoned");
    collect(log, per_conn, measure_from)
}

/// Open loop at `rate` ops per second over `ops`, `connections`
/// clients.
pub fn open_loop(
    addr: SocketAddr,
    ops: impl Iterator<Item = Op>,
    connections: usize,
    rate: f64,
    budget: Budget,
) -> Result<Outcome, String> {
    let scheduled = ((budget.warmup + budget.measure).as_secs_f64() * rate).ceil() as usize;
    let stream: Vec<Op> = ops.take(budget.max_ops.unwrap_or(scheduled)).collect();
    let ops = &stream[..];
    let start = Instant::now() + Duration::from_millis(20);
    let measure_from = start + budget.warmup;
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    // Writes on connection 0 (ordered); reads round-robin.
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); connections];
    let mut next_read = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let conn = if op.is_read() {
            next_read += 1;
            next_read % connections
        } else {
            0
        };
        lanes[conn].push(i);
    }
    let per_conn: Vec<ConnResult> = std::thread::scope(|s| {
        let workers: Vec<_> = lanes
            .iter()
            .map(|lane| {
                let due = &due;
                s.spawn(move || -> ConnResult {
                    let mut client = connect(addr)?;
                    let (tx, rx) = mpsc::channel::<(usize, Instant, Duration, cned::Ticket)>();
                    let collector = s.spawn(move || {
                        let mut records = Vec::new();
                        let mut last_measured = None;
                        for (i, due_at, lag, ticket) in rx {
                            let body = ticket.wait().body;
                            let done = Instant::now();
                            let measured = due_at >= measure_from;
                            if measured {
                                last_measured = Some(done);
                            }
                            records.push(Record {
                                op: i,
                                latency: done - due_at,
                                lag,
                                measured,
                                done,
                                body,
                            });
                        }
                        (records, last_measured)
                    });
                    let mut sent = Ok(());
                    for &i in lane {
                        let due_at = due(i);
                        wait_until(due_at);
                        let lag = Instant::now().saturating_duration_since(due_at);
                        let ticket = match client.submit(ops[i].request()) {
                            Ok(t) => t,
                            Err(e) => {
                                sent = Err(format!("op {i}: {e}"));
                                break;
                            }
                        };
                        if let Err(e) = client.flush() {
                            sent = Err(format!("op {i}: {e}"));
                            break;
                        }
                        if tx.send((i, due_at, lag, ticket)).is_err() {
                            sent = Err("collector exited early".into());
                            break;
                        }
                    }
                    drop(tx);
                    let out = collector.join().expect("open-loop collector panicked");
                    client.close();
                    sent.map(|()| out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    collect(stream, per_conn, measure_from)
}

fn collect(
    ops: Vec<Op>,
    per_conn: Vec<ConnResult>,
    measure_from: Instant,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        ops,
        records: Vec::new(),
        measure_from,
        window: Duration::ZERO,
    };
    let mut last = None;
    for conn in per_conn {
        let (records, last_measured) = conn?;
        out.records.extend(records);
        last = last.max(last_measured);
    }
    out.records.sort_by_key(|r| r.op);
    out.window = last.map_or(Duration::ZERO, |t: Instant| {
        t.saturating_duration_since(measure_from)
    });
    Ok(out)
}

/// Sleep until shortly before `at`, then yield until it passes: sleep
/// overshoot would otherwise add ~0.1 ms of generator lag to every op.
fn wait_until(at: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}
