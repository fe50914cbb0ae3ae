//! The untraced run: set-up, load over loopback TCP, correctness and
//! durability gates, and the end-to-end metrics. The server runs in a
//! process of its own ([`ServerProcess`]), so its set-up time and memory
//! are measured apart from the load generator's.

use crate::load::{self, Budget, Outcome};
use crate::oracle::{self, Expected, Oracle};
use crate::server::ServerProcess;
use crate::stats::{median, Latencies, Metric, Summary};
use crate::workload::{self, Op, Spec};
use cned::core::metric::Distance;
use cned::{Database, MetricIndex, ResponseBody, ServerConfig, ServerHandle};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Reads are excluded for host CPU steal by fixed time slots of this
/// length, counted from the first steal sample and assigned by due time,
/// so whether a read is kept never depends on how long it took.
const STEAL_SLOT: Duration = Duration::from_millis(20);

/// The kernel accounts steal at the next tick or wake-up: a slot also
/// counts as stolen when the count moved this soon after it ended.
const STEAL_LAG: Duration = Duration::from_millis(10);

/// Steal is sampled this often.
const STEAL_SAMPLE: Duration = Duration::from_millis(5);

/// On the uniform workloads the kept reads are cut, in order of due
/// time, into blocks of this many; `read_p50_us` is the lower quartile of
/// the blocks' medians. On a shared host the speed of every read shifts
/// by 20–30 % for seconds to tens of seconds at a time as neighbours come
/// and go, often without the hypervisor stealing a tick from us. The
/// lower quartile follows the usual undisturbed speed: it ignores a slow
/// stretch of up to three quarters of a run, and a fast one shorter than
/// a quarter. The count keeps each block's median within a few percent.
const BLOCK_READS: usize = 400;

/// What an untraced run reports.
pub struct Report {
    /// End-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Ops attempted in the load phase.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// A durable server over the workload's database, bound on loopback.
pub fn serve(spec: &Spec, corpus: Vec<Vec<u8>>, dir: &Path) -> Result<ServerHandle<u8>, String> {
    spec.database(corpus, true)
        .serve_with(
            "127.0.0.1:0",
            ServerConfig::default().data_dir(dir.to_path_buf()),
        )
        .map_err(|e| format!("serve: {e}"))
}

/// Start the server process `spec.setup_reps` times, each a fresh
/// process that sets up once; stop all but the last at once and return
/// that one, serving, with every set-up's time.
fn start_server(spec: &Spec, scratch: &Path) -> Result<(ServerProcess, Vec<f64>), String> {
    let reps = spec.setup_reps.max(1);
    let mut times = Vec::new();
    for rep in 0..reps {
        let server = ServerProcess::spawn(spec, &scratch.join(format!("server-{rep}")))?;
        times.push(server.setup_s);
        if rep + 1 == reps {
            return Ok((server, times));
        }
        let dir = server.dir.clone();
        server.stop()?;
        remove_dir(&dir);
    }
    unreachable!("at least one set-up runs")
}

/// Drive the workload's load shape against `addr`.
pub fn drive(
    spec: &Spec,
    addr: std::net::SocketAddr,
    ops: impl Iterator<Item = Op> + Send,
    budget: Budget,
) -> Result<Outcome, String> {
    if spec.workload.has_writes() {
        load::open_loop(addr, ops, spec.connections, workload::HOT_RATE, budget)
    } else {
        load::closed_loop(addr, ops, spec.connections, budget)
    }
}

/// The gates of a load phase: every read of a uniform workload against
/// the linear scan, every write acknowledgement against the stream.
/// Returns the live set after the phase and the writes acknowledged.
fn check(
    spec: &Spec,
    corpus: &[Vec<u8>],
    outcome: &Outcome,
    dist: &dyn Distance<u8>,
) -> Result<(Oracle, usize), String> {
    if !spec.workload.has_writes() {
        check_reads(corpus, outcome, dist)?;
    }
    live_oracle(corpus, outcome, dist)
}

/// Check every read of a uniform workload against the linear scan.
fn check_reads(
    corpus: &[Vec<u8>],
    outcome: &Outcome,
    dist: &dyn Distance<u8>,
) -> Result<(), String> {
    let answered: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| !matches!(r.body, ResponseBody::Failed { .. }))
        .collect();
    let reads: Vec<&Op> = answered.iter().map(|r| &outcome.ops[r.op]).collect();
    let expected = Oracle::new(corpus.to_vec()).reads(&reads, dist);
    for (r, want) in answered.iter().zip(&expected) {
        oracle::check(&format!("read op {}", r.op), &r.body, want)?;
    }
    Ok(())
}

/// The live set after a load phase: a linear scan with every
/// acknowledged write applied in stream order, each acknowledgement
/// checked on the way. Writes ride one connection, so the server
/// applied them in that order too; reads of `hot-mixed` race the writes
/// of other connections and are checked by the quiescent sweep instead.
fn live_oracle(
    corpus: &[Vec<u8>],
    outcome: &Outcome,
    dist: &dyn Distance<u8>,
) -> Result<(Oracle, usize), String> {
    let mut oracle = Oracle::new(corpus.to_vec());
    let mut acked = 0;
    for r in &outcome.records {
        let op = &outcome.ops[r.op];
        if op.is_read() || matches!(r.body, ResponseBody::Failed { .. }) {
            continue;
        }
        let want = oracle.apply(op, dist);
        oracle::check(&format!("write op {}", r.op), &r.body, &want)?;
        acked += 1;
    }
    Ok((oracle, acked))
}

/// Quiescent sweep of `hot-mixed`: every pool query, as kNN and NN,
/// against a linear scan of the live set (acknowledged inserts minus
/// acknowledged deletes).
fn sweep(
    addr: std::net::SocketAddr,
    ops: &[Op],
    oracle: &Oracle,
    dist: &dyn Distance<u8>,
) -> Result<usize, String> {
    let mut client =
        cned::Client::<u8>::connect(addr).map_err(|e| format!("sweep connect: {e}"))?;
    let mut queries: Vec<&Vec<u8>> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Knn { query, .. } | Op::Nn { query } => Some(query),
            _ => None,
        })
        .collect();
    queries.sort();
    queries.dedup();
    let mut checked = 0;
    for q in queries {
        for op in [
            Op::Knn {
                query: q.clone(),
                k: workload::K,
            },
            Op::Nn { query: q.clone() },
        ] {
            let body = client
                .call(op.request())
                .map_err(|e| format!("sweep: {e}"))?;
            oracle::check("post-run sweep", &body, &oracle_read(oracle, &op, dist))?;
            checked += 1;
        }
    }
    client.close();
    Ok(checked)
}

fn oracle_read(oracle: &Oracle, op: &Op, dist: &dyn Distance<u8>) -> Expected {
    oracle
        .reads(&[op], dist)
        .pop()
        .expect("one read in, one answer out")
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the regular files of `from` into `to` (created if missing).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Remove a scratch directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Clean warm restarts `recover_s` takes the fastest of.
const CLEAN_RESTARTS: usize = 10;

/// Warm restarts a run may make to find [`CLEAN_RESTARTS`] clean ones.
const MAX_RESTARTS: usize = 400;

/// The first `spec.restart_reps` warm restarts run in bursts of this
/// many with [`RESTART_PAUSE`] between bursts, so they spread over
/// several seconds: a busy neighbour slows a restart as it slows a read,
/// for seconds at a time, and back to back all 40 took under 2 s and
/// often fell in one busy stretch.
const RESTART_BURST: usize = 5;

/// The idle pause between bursts of warm restarts.
const RESTART_PAUSE: Duration = Duration::from_millis(750);

/// The warm restarts of one run.
struct Restarts {
    /// Time of each to its first answer, in seconds.
    times: Vec<f64>,
    /// The fastest of those during which the host stole no CPU time.
    fastest_clean: f64,
    /// How many were clean.
    clean: usize,
}

/// Warm restarts from a copy of the live data dir taken at run end,
/// each from a fresh copy of it, timed to the first answer: at least
/// `spec.restart_reps` (in bursts of [`RESTART_BURST`]), and more, back
/// to back, until [`CLEAN_RESTARTS`] of them ran
/// with no host CPU steal from their start to the end of their
/// shutdown (every one, where steal cannot be read). Each checks that
/// every item (acknowledged inserts included) is back and every
/// acknowledged delete holds.
fn recover(spec: &Spec, live_copy: &Path, live: &Oracle, probe: &Op) -> Result<Restarts, String> {
    let dist = spec.workload.metric().build::<u8>();
    let want_probe = oracle_read(live, probe, &*dist);
    let mut out = Restarts {
        times: Vec::new(),
        fastest_clean: f64::INFINITY,
        clean: 0,
    };
    while out.times.len() < spec.restart_reps.max(1) || out.clean < CLEAN_RESTARTS {
        if out.times.len() == MAX_RESTARTS {
            return Err(format!(
                "the host stole CPU time during all but {} of {MAX_RESTARTS} warm restarts: the run measured the host, not the program",
                out.clean
            ));
        }
        let made = out.times.len();
        if made > 0 && made.is_multiple_of(RESTART_BURST) && made < spec.restart_reps {
            std::thread::sleep(RESTART_PAUSE);
        }
        let dir = live_copy.with_extension(format!("restart-{made}"));
        copy_dir(live_copy, &dir)?;
        let steal_before = cpu_ticks().map(|(steal, _)| steal);
        let t = Instant::now();
        // A stand-in database: the initialised dir wins and this is dropped.
        let stand_in = Database::builder(vec![b"-".to_vec()])
            .metric(spec.workload.metric())
            .build()
            .map_err(|e| e.to_string())?;
        let handle = stand_in
            .serve_with("127.0.0.1:0", ServerConfig::default().data_dir(dir.clone()))
            .map_err(|e| format!("warm restart: {e}"))?;
        let mut client = cned::Client::<u8>::connect(handle.local_addr())
            .map_err(|e| format!("warm restart connect: {e}"))?;
        let body = client
            .call(probe.request())
            .map_err(|e| format!("warm restart query: {e}"))?;
        let took = t.elapsed().as_secs_f64();
        client.close();
        oracle::check("first answer after restart", &body, &want_probe)?;
        let db = handle.shutdown();
        // The shutdown also outlasts the kernel's steal accounting lag.
        if cpu_ticks().map(|(steal, _)| steal) == steal_before {
            out.clean += 1;
            out.fastest_clean = out.fastest_clean.min(took);
        }
        out.times.push(took);
        oracle::check_state("warm restart", db.index(), live.index())?;
        drop(db);
        remove_dir(&dir);
    }
    Ok(out)
}

/// Run `f` while sampling the host's cumulative CPU steal every few
/// milliseconds; returns `f`'s result and the `(time, steal jiffies)`
/// samples (none where `/proc/stat` is unreadable).
fn sampling_steal<T>(f: impl FnOnce() -> T) -> (T, Vec<(Instant, u64)>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let done = stop.load(Ordering::Relaxed);
                if let Some((steal, _)) = cpu_ticks() {
                    samples.push((Instant::now(), steal));
                }
                if done {
                    return samples;
                }
                std::thread::sleep(STEAL_SAMPLE);
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("steal sampler panicked"))
    })
}

/// Whether the host stole CPU time while a request was outstanding: the
/// steal count moved between the last sample before `from` and the first
/// sample after `to`.
fn stolen(samples: &[(Instant, u64)], from: Instant, to: Instant) -> bool {
    if samples.is_empty() {
        return false;
    }
    let before = samples[samples.partition_point(|s| s.0 <= from).saturating_sub(1)].1;
    let after = samples[samples.partition_point(|s| s.0 < to).min(samples.len() - 1)].1;
    after > before
}

/// The start of the [`STEAL_SLOT`] that holds `at`, slots counted from
/// the first sample.
fn slot_start(samples: &[(Instant, u64)], at: Instant) -> Instant {
    let Some(&(origin, _)) = samples.first() else {
        return at;
    };
    let slot = STEAL_SLOT.as_nanos();
    let index = at.saturating_duration_since(origin).as_nanos() / slot;
    origin + Duration::from_nanos((index * slot) as u64)
}

/// Whether the host stole CPU time in the [`STEAL_SLOT`] that holds
/// `due` (or within [`STEAL_LAG`] after it). Nothing is stolen where no
/// steal could be sampled.
fn slot_stolen(samples: &[(Instant, u64)], due: Instant) -> bool {
    let start = slot_start(samples, due);
    stolen(samples, start, start + STEAL_SLOT + STEAL_LAG)
}

/// The time in `[from, to)` that lies in slots without host CPU steal.
fn clean_time(samples: &[(Instant, u64)], from: Instant, to: Instant) -> Duration {
    let mut clean = Duration::ZERO;
    let mut at = from;
    while at < to {
        let end = if samples.is_empty() {
            to
        } else {
            (slot_start(samples, at) + STEAL_SLOT).min(to)
        };
        if !slot_stolen(samples, at) {
            clean += end - at;
        }
        at = end;
    }
    clean
}

/// One block of [`BLOCK_READS`] kept reads.
struct Block {
    /// Seconds from the start of the measured load to its first due time.
    start_s: f64,
    /// Its kept reads.
    reads: Summary,
}

/// Cut the kept reads, given as `(due time, latency)` in any order,
/// into consecutive blocks of [`BLOCK_READS`] by due time; the remainder
/// joins the last block (fewer than [`BLOCK_READS`] make one block).
fn blocks(from: Instant, kept: &[(Instant, Duration)]) -> Vec<Block> {
    let mut kept = kept.to_vec();
    kept.sort_by_key(|&(due, _)| due);
    let count = (kept.len() / BLOCK_READS).max(1);
    (0..count)
        .map(|i| {
            let last = if i + 1 == count {
                kept.len()
            } else {
                (i + 1) * BLOCK_READS
            };
            let block = &kept[i * BLOCK_READS..last];
            let mut reads = Latencies::default();
            for &(_, latency) in block {
                reads.push(latency);
            }
            Block {
                start_s: block
                    .first()
                    .map_or(0.0, |&(due, _)| (due - from).as_secs_f64()),
                reads: reads.summary(),
            }
        })
        .collect()
}

/// The block at the lower quartile of the blocks' medians: the
/// `len / 4`-th fastest, so the fastest of fewer than four.
fn lower_quartile(blocks: &[Block]) -> Option<&Block> {
    let mut sorted: Vec<&Block> = blocks.iter().filter(|b| b.reads.n > 0).collect();
    sorted.sort_by(|a, b| a.reads.p50.total_cmp(&b.reads.p50));
    sorted.get(sorted.len() / 4).copied()
}

/// `(steal, total)` jiffies of all CPUs, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor gave to others between two
/// [`cpu_ticks`] readings: a run with a large share measured a busy
/// host, not the program.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// A load pass as the untraced run makes it (warm-up, then `measure`)
/// on a fresh in-process durable server over `dir`, gates included: the
/// summary of its measured reads, and the ops attempted and failed.
pub fn untraced_pass(
    spec: &Spec,
    corpus: &[Vec<u8>],
    seed: u64,
    measure: Duration,
    dir: &Path,
) -> Result<(Summary, u64, u64), String> {
    let handle = serve(spec, corpus.to_vec(), dir)?;
    let budget = Budget {
        warmup: spec.warmup,
        measure,
        max_ops: None,
    };
    let ops = workload::op_stream(spec, corpus, seed);
    let outcome = drive(spec, handle.local_addr(), ops, budget);
    drop(handle.shutdown());
    remove_dir(dir);
    let outcome = outcome?;
    let dist = spec.workload.metric().build::<u8>();
    check(spec, corpus, &outcome, &*dist)?;
    let mut reads = Latencies::default();
    for r in &outcome.records {
        if r.measured
            && outcome.ops[r.op].is_read()
            && !matches!(r.body, ResponseBody::Failed { .. })
        {
            reads.push(r.latency);
        }
    }
    let (attempted, failed) = (outcome.records.len(), outcome.failed());
    Ok((reads.summary(), attempted as u64, failed as u64))
}

/// The untraced run.
pub fn run(spec: &Spec, seed: u64, scratch: &Path) -> Result<Report, String> {
    let corpus = spec.corpus();
    let (server, setup_times) = start_server(spec, scratch)?;
    let mut lines = vec![server.plan.clone()];
    let addr = server.addr;
    let budget = Budget {
        warmup: spec.warmup,
        measure: spec.measure,
        max_ops: None,
    };
    let ticks = cpu_ticks();
    let (outcome, steal_samples) =
        sampling_steal(|| drive(spec, addr, workload::op_stream(spec, &corpus, seed), budget));
    let outcome = outcome?;
    let steal = steal_share(ticks, cpu_ticks());

    let dist = spec.workload.metric().build::<u8>();
    let (live, acked) = check(spec, &corpus, &outcome, &*dist)?;
    if spec.workload.has_writes() {
        let checked = sweep(addr, &outcome.ops, &live, &*dist)?;
        lines.push(format!(
            "post-run sweep: {checked} answers match the live-set scan"
        ));
    }

    // Disk footprint and the crash-consistent copy, taken while the
    // server is live and quiescent.
    let disk = dir_bytes(&server.dir) as f64;
    let live_bytes: usize = (0..live.index().len())
        .filter(|&i| !live.index().is_deleted(i))
        .filter_map(|i| live.index().item(i).map(<[u8]>::len))
        .sum();
    let copy = scratch.join("restart-copy");
    copy_dir(&server.dir, &copy)?;
    let stopped = server.stop()?;
    // The same first query on every run, so its cost does not vary
    // with the seed.
    let probe = Op::Nn {
        query: corpus[0].clone(),
    };
    let restarts = recover(spec, &copy, &live, &probe)?;

    let ops = &outcome.ops;
    let mut reads = Latencies::default();
    let mut clean = Latencies::default();
    let mut kept = Vec::new();
    let mut writes = Latencies::default();
    let mut lag = Latencies::default();
    for r in outcome.records.iter().filter(|r| r.measured) {
        if matches!(r.body, ResponseBody::Failed { .. }) {
            continue;
        }
        if ops[r.op].is_read() {
            reads.push(r.latency);
            let due = r.done - r.latency;
            if !slot_stolen(&steal_samples, due) {
                clean.push(r.latency);
                kept.push((due, r.latency));
            }
        } else {
            writes.push(r.latency);
        }
        lag.push(r.lag);
    }
    let read = reads.summary();
    let clean = clean.summary();
    let window_end = outcome.measure_from + outcome.window;
    let clean_secs = clean_time(&steal_samples, outcome.measure_from, window_end).as_secs_f64();
    if read.n == 0 {
        return Err("no read was answered in the measured window".into());
    }
    if clean.n == 0 || clean_secs == 0.0 {
        return Err(format!(
            "the host stole CPU time in every {} ms slot of the run: it measured the host, not the program",
            STEAL_SLOT.as_millis()
        ));
    }
    let attempted = outcome.records.len() as u64;
    let failed = outcome.failed() as u64;
    lines.push(format!(
        "load: {} ops ({} measured reads in {:.3} s, {:.1} reads/s), {} writes acknowledged, error_rate {} ({failed}/{attempted})",
        attempted,
        read.n,
        outcome.window.as_secs_f64(),
        read.n as f64 / outcome.window.as_secs_f64(),
        acked,
        failed as f64 / attempted.max(1) as f64,
    ));
    lines.push(format!(
        "read latency (us, from due time): {}",
        read.describe()
    ));
    lines.push(format!(
        "read_p99_us = {:.1} us over {} reads (reported, not gated: it follows host CPU steal)",
        read.p99, read.n
    ));
    lines.push(format!(
        "cpu time stolen by the host during the load phase: {}",
        steal.map_or("unknown".into(), |s| format!("{:.1}%", s * 100.0))
    ));
    if writes.len() > 0 {
        let w = writes.summary();
        lines.push(format!("write latency (us, fsynced): {}", w.describe()));
        lines.push(format!(
            "write_p50_us = {:.1} us, write_p99_us = {:.1} us",
            w.p50, w.p99
        ));
    }
    lines.push(format!("generator lag (us): {}", lag.summary().describe()));
    lines.push(format!("cache: {}", stopped.cache));
    lines.push(format!("setup_s samples (s): {setup_times:?}"));
    lines.push(format!(
        "recover_s: fastest of {} restarts without host CPU steal, of {} made (s): {:?}",
        restarts.clean,
        restarts.times.len(),
        restarts.times
    ));
    lines.push(format!(
        "data dir {disk} B for {live_bytes} live user bytes"
    ));
    lines.push(format!(
        "server process peak RSS {:.1} MB, of which {:.1} MB resident before its set-up (binary and corpus)",
        stopped.peak_rss_mb, stopped.baseline_mb
    ));
    // The sample read_qps is taken over and the blocks are cut from,
    // and its share.
    lines.push(format!(
        "reads due in {} ms slots without host CPU steal ({:.3} s of the window): {} ({:.1}% of reads kept)",
        STEAL_SLOT.as_millis(),
        clean_secs,
        clean.describe(),
        100.0 * clean.n as f64 / read.n as f64
    ));

    // Blocks assume every read costs alike all run long: true of the
    // uniform workloads, not of `hot-mixed`, whose delta grows, cache
    // churns and shards compact as it runs, so that a block minimum
    // would pick a state of the program rather than a quiet host.
    let read_p50 = if spec.workload.has_writes() {
        clean.p50
    } else {
        let blocks = blocks(outcome.measure_from, &kept);
        let chosen = lower_quartile(&blocks).ok_or("no read was kept")?;
        lines.push(format!(
            "kept reads in blocks of {BLOCK_READS} (start s: p50 us): {}",
            blocks
                .iter()
                .map(|b| format!("{:.1}: {:.1}", b.start_s, b.reads.p50))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        lines.push(format!(
            "read_p50_us from the block at {:.1} s ({} reads), the lower quartile of {} medians",
            chosen.start_s,
            chosen.reads.n,
            blocks.len()
        ));
        chosen.reads.p50
    };

    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_times),
            unit: "s",
        },
        Metric {
            name: "read_qps",
            value: clean.n as f64 / clean_secs,
            unit: "1/s",
        },
        Metric {
            name: "read_p50_us",
            value: read_p50,
            unit: "us",
        },
        Metric {
            name: "recover_s",
            // Interference only ever slows a restart: the fastest clean
            // one is its undisturbed cost.
            value: restarts.fastest_clean,
            unit: "s",
        },
        Metric {
            name: "disk_bytes_per_user_byte",
            value: disk / live_bytes.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: stopped.peak_rss_mb,
            unit: "MB",
        },
    ];
    Ok(Report {
        metrics,
        attempted,
        failed,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_is_stolen_only_if_steal_moved_around_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let samples = [(at(0), 7), (at(5), 7), (at(10), 8), (at(15), 8)];
        assert!(!stolen(&samples, at(1), at(4)));
        assert!(stolen(&samples, at(6), at(9)));
        assert!(stolen(&samples, at(4), at(11)));
        assert!(!stolen(&samples, at(11), at(14)));
        assert!(!stolen(&[], at(0), at(20)));
    }

    /// A read is kept or dropped by the slot of its due time alone.
    #[test]
    fn steal_slots_decide_kept_reads_and_clean_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Steal moves between the samples at 50 and 55 ms.
        let samples: Vec<(Instant, u64)> =
            (0..=20).map(|i| (at(5 * i), u64::from(i >= 11))).collect();
        assert!(!slot_stolen(&samples, at(5)));
        // Slot 20..40 ms, with its lag, ends at 50 ms, before the move.
        assert!(!slot_stolen(&samples, at(25)));
        assert!(!slot_stolen(&samples, at(39)));
        assert!(slot_stolen(&samples, at(40)));
        assert!(slot_stolen(&samples, at(59)));
        assert!(!slot_stolen(&samples, at(60)));
        assert!(!slot_stolen(&[], at(50)));
        // Of 0..100 ms, only the stolen slot 40..60 ms is not clean time.
        assert_eq!(
            clean_time(&samples, at(0), at(100)),
            Duration::from_millis(80)
        );
        assert_eq!(
            clean_time(&samples, at(30), at(50)),
            Duration::from_millis(10)
        );
        assert_eq!(clean_time(&[], at(30), at(50)), Duration::from_millis(20));
    }

    /// Kept reads are cut by due time, whatever order they come in, into
    /// blocks of [`BLOCK_READS`]; the remainder joins the last block, and
    /// the block chosen is the lower quartile of their medians.
    #[test]
    fn blocks_cut_kept_reads_by_due_time() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let n = BLOCK_READS as u64 * 7 / 2;
        let fast = BLOCK_READS as u64..2 * BLOCK_READS as u64;
        // One read due per ms; those of the second block are fastest.
        let mut kept: Vec<(Instant, Duration)> = (0..n)
            .map(|i| (t0 + ms(i), ms(if fast.contains(&i) { 1 } else { 3 })))
            .collect();
        kept.reverse();
        let b = blocks(t0, &kept);
        let sizes: Vec<usize> = b.iter().map(|b| b.reads.n).collect();
        assert_eq!(
            sizes,
            [BLOCK_READS, BLOCK_READS, n as usize - 2 * BLOCK_READS]
        );
        // Fewer than four blocks: the fastest.
        let q = lower_quartile(&b).expect("reads were kept");
        assert_eq!(q.reads.p50, 1_000.0);
        assert_eq!(q.start_s, fast.start as f64 / 1e3);
        assert_eq!(blocks(t0, &kept[..10]).len(), 1);
        assert!(lower_quartile(&blocks(t0, &[])).is_none());
        // Eight blocks taking 8, 7, ..., 1 ms a read: the third fastest.
        let per = BLOCK_READS as u64;
        let kept: Vec<(Instant, Duration)> = (0..8 * per)
            .map(|i| (t0 + ms(i), ms(8 - i / per)))
            .collect();
        let b = blocks(t0, &kept);
        let q = lower_quartile(&b).expect("reads were kept");
        assert_eq!(q.reads.p50, 3_000.0);
    }
}
