//! The traced run: the same op stream replayed one request at a time
//! through each layer's public entry point, every call timed from the
//! benchmark's own code. A layer's cost is its gap to the layer below:
//! `core` → `search` → `database` (cache and plan) → `session` → `wire`
//! → the server at the untraced run's connections.
//!
//! Every layer's answers are checked against the same lockstep linear
//! scan, and every layer above `search` starts from a freshly built
//! database, so each replay meets a cold cache and the same writes.

use crate::e2e;
use crate::load::Budget;
use crate::oracle::{self, Expected, Oracle};
use crate::server;
use crate::stats::{Latencies, Metric, Summary};
use crate::workload::{self, Op, Spec};
use cned::core::metric::Distance;
use cned::plan::{PlanConfig, PlannedBackend};
use cned::serve::ShardedIndex;
use cned::store::{decode_snapshot, encode_snapshot_with, Durable, IndexView, WAL_FILE};
use cned::{Backend, Client, Database, MetricIndex, QueryOptions, ResponseBody, ServerConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a traced run reports.
pub struct Report {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Ops replayed, summed over the layers.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Which end-to-end metric each layer's metrics should move, and where.
pub const MOVES: [(&str, &str); 11] = [
    ("core", "read_qps/read_p50_us on dna-de-uniform most, dict-dc-uniform through the bounded metric; barely hot-mixed"),
    ("search", "read_p50_us on dict-dc-uniform and dna-de-uniform, and setup_s (build_ms)"),
    ("plan", "read_p50_us on dict-dc-uniform, hold it on dna-de-uniform, and setup_s"),
    ("cache", "read_p50_us on hot-mixed; nil on the uniform workloads (misses only)"),
    ("database", "gap over search = the cache and plan layer's cost"),
    ("session", "read_p50_us on hot-mixed"),
    ("wire", "read_p50_us/read_p99_us on hot-mixed, no change on dna-de-uniform"),
    ("server", "read_qps and read_p99_us under the workload's own load shape, all workloads"),
    ("sharded", "write latency (report line) and read_p99_us on hot-mixed"),
    ("store", "write latency (report line), recover_s and disk_bytes_per_user_byte on hot-mixed"),
    ("harness", "none: checks on the benchmark itself (generator lag; traced against untraced server read p50)"),
];

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Time one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The `k` of a read (1 for NN).
fn read_k(op: &Op) -> usize {
    match op {
        Op::Knn { k, .. } => *k,
        _ => 1,
    }
}

fn read_query(op: &Op) -> Option<&[u8]> {
    match op {
        Op::Knn { query, .. } | Op::Nn { query } => Some(query),
        _ => None,
    }
}

/// A read through the `MetricIndex` trait, as a response body.
fn index_read(index: &dyn MetricIndex<u8>, op: &Op, dist: &dyn Distance<u8>) -> ResponseBody {
    let result = match op {
        Op::Knn { query, k } => index
            .knn(query, dist, &QueryOptions::new().k(*k))
            .map(|(neighbours, stats)| ResponseBody::Knn { neighbours, stats }),
        Op::Nn { query } => index
            .nn(query, dist, &QueryOptions::new())
            .map(|(neighbour, stats)| ResponseBody::Nn { neighbour, stats }),
        _ => unreachable!("index_read takes reads"),
    };
    result.unwrap_or_else(|error| ResponseBody::Failed { error })
}

/// Apply a write through the `Database` facade, as a response body.
fn db_write(db: &mut Database<u8>, op: &Op) -> ResponseBody {
    let result = match op {
        Op::Insert { item } => db
            .insert(item.clone())
            .map(|index| ResponseBody::Inserted { index }),
        Op::Delete { index } => db
            .delete(*index)
            .map(|existed| ResponseBody::Deleted { existed }),
        _ => unreachable!("db_write takes writes"),
    };
    result.unwrap_or_else(|error| ResponseBody::Failed { error })
}

fn stats_of(body: &ResponseBody) -> u64 {
    match body {
        ResponseBody::Knn { stats, .. } | ResponseBody::Nn { stats, .. } => {
            stats.distance_computations
        }
        _ => 0,
    }
}

/// One replay's read latencies, with every answer checked.
struct Replay {
    reads: Latencies,
    /// Distance evaluations per read.
    dists: Vec<u64>,
    /// Live items at each read.
    live: Vec<usize>,
}

/// Replay `ops` through `call`, checking each answer against `expected`.
fn replay(
    layer: &str,
    ops: &[Op],
    expected: &[Expected],
    corpus_len: usize,
    mut call: impl FnMut(&Op) -> Result<ResponseBody, String>,
) -> Result<Replay, String> {
    let mut out = Replay {
        reads: Latencies::default(),
        dists: Vec::new(),
        live: Vec::new(),
    };
    let mut live = corpus_len;
    for (i, (op, want)) in ops.iter().zip(expected).enumerate() {
        let (body, took) = timed(|| call(op));
        let body = body?;
        oracle::check(&format!("{layer} op {i}"), &body, want)?;
        match op {
            Op::Insert { .. } => live += 1,
            Op::Delete { .. } => live -= usize::from(matches!(want, Expected::Deleted(true))),
            _ => {
                out.reads.push(took);
                out.dists.push(stats_of(&body));
                out.live.push(live);
            }
        }
    }
    Ok(out)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `core`: kernels scoring queries against the whole corpus — batched,
/// one at a time, and bounded at each query's final k-th radius. Batch
/// and scalar scores must agree bit for bit, and the bounded kernel
/// must return the exact score of every candidate within the radius.
fn core_layer(
    corpus: &[Vec<u8>],
    reads: &[&Op],
    dist: &dyn Distance<u8>,
) -> Result<([f64; 3], Latencies), String> {
    let targets: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let radii = Oracle::new(corpus.to_vec()).reads(reads, dist);
    let mut batch = vec![0.0; targets.len()];
    let mut scalar = vec![0.0; targets.len()];
    let (mut t_batch, mut t_scalar, mut t_bounded) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut per_query = Latencies::default();
    for (op, want) in reads.iter().zip(&radii) {
        let q = read_query(op).expect("core replays reads");
        let Expected::Read(neighbours) = want else {
            unreachable!("reads answer reads")
        };
        let radius = neighbours.last().map_or(f64::INFINITY, |n| n.distance);
        let ((), took) = timed(|| dist.distance_batch(q, &targets, &mut batch));
        t_batch += took;
        per_query.push(took);
        let ((), took) = timed(|| {
            for (s, t) in scalar.iter_mut().zip(&targets) {
                *s = dist.distance(q, t);
            }
        });
        t_scalar += took;
        let (bounded, took) = timed(|| {
            targets
                .iter()
                .map(|t| dist.distance_bounded(q, t, radius))
                .collect::<Vec<_>>()
        });
        t_bounded += took;
        for (j, ((b, s), bd)) in batch.iter().zip(&scalar).zip(&bounded).enumerate() {
            if b.to_bits() != s.to_bits() {
                return Err(format!("core: batch score {b} != scalar {s} for item {j}"));
            }
            if *s <= radius && bd.map(f64::to_bits) != Some(s.to_bits()) {
                return Err(format!(
                    "core: bounded score {bd:?} != {s} within radius {radius}"
                ));
            }
        }
        black_box(&bounded);
    }
    let per_dist =
        |t: Duration| t.as_secs_f64() * 1e9 / (reads.len() * targets.len()).max(1) as f64;
    Ok((
        [per_dist(t_batch), per_dist(t_scalar), per_dist(t_bounded)],
        per_query,
    ))
}

/// Build the index the plan chose, with no cache: the `search` layer
/// of the uniform workloads and the `plan` layer's model check.
fn planned_index(spec: &Spec, corpus: Vec<Vec<u8>>, plan: &cned::Plan) -> Database<u8> {
    let backend = match plan.backend {
        PlannedBackend::Linear => Backend::Linear,
        PlannedBackend::Laesa { pivots } => Backend::Laesa { pivots },
        PlannedBackend::VpTree => Backend::VpTree,
    };
    Database::builder(corpus)
        .metric(spec.workload.metric())
        .backend(backend)
        .shards(plan.shards)
        .build()
        .expect("a planned shape always builds")
}

/// The served sharded shape of `hot-mixed`, built directly.
fn sharded_shape(corpus: Vec<Vec<u8>>, dist: &dyn Distance<u8>) -> ShardedIndex<u8> {
    ShardedIndex::try_build(corpus, workload::hot_shape(), dist)
        .expect("max-sum pivots are always valid")
}

/// Measured window of the untraced pass `harness.trace_overhead`
/// compares the traced server layer with.
const UNTRACED_PASS: Duration = Duration::from_secs(3);

/// The traced run.
pub fn run(spec: &Spec, seed: u64, scratch: &Path) -> Result<Report, String> {
    let corpus = spec.corpus();
    let ops: Vec<Op> = workload::op_stream(spec, &corpus, seed)
        .take(spec.trace_ops)
        .collect();
    let ops = &ops[..];
    let dist = spec.workload.metric().build::<u8>();
    let dist = &*dist;
    let n = corpus.len();
    let mut lines = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The lockstep oracle, which is also the linear-scan baseline.
    let mut scan = Oracle::new(corpus.clone());
    let mut expected = Vec::with_capacity(ops.len());
    let mut linear = Latencies::default();
    for op in ops {
        let (want, took) = timed(|| scan.apply(op, dist));
        if op.is_read() {
            linear.push(took);
        }
        expected.push(want);
    }
    let linear = linear.summary();

    // core
    let core_reads: Vec<&Op> = ops
        .iter()
        .filter(|o| o.is_read())
        .take(spec.core_queries)
        .collect();
    let ([batch_ns, scalar_ns, bounded_ns], core_q) = core_layer(&corpus, &core_reads, dist)?;
    let core_q = core_q.summary();

    // plan, then search over the served shape (uncached).
    let (plan, took) = timed(|| cned::plan::plan(&corpus, dist, &PlanConfig::default()));
    let plan_ms = took.as_secs_f64() * 1e3;
    lines.push(server::plan_line(spec.workload, Some(&plan)));
    let (mut search_db, took) = timed(|| {
        if spec.workload.has_writes() {
            spec.database(corpus.clone(), false)
        } else {
            planned_index(spec, corpus.clone(), &plan)
        }
    });
    let build_ms = took.as_secs_f64() * 1e3;
    let search = replay("search", ops, &expected, n, |op| {
        Ok(if op.is_read() {
            index_read(search_db.index(), op, dist)
        } else {
            db_write(&mut search_db, op)
        })
    })?;
    attempted += ops.len() as u64;
    drop(search_db);
    let search_q = search.reads.summary();
    let dist_per_query = mean(search.dists.iter().map(|&d| d as f64));
    let eval_ratio = mean(
        search
            .dists
            .iter()
            .zip(&search.live)
            .map(|(&d, &l)| d as f64 / l as f64),
    );
    let ns_per_dist = search_q.mean * 1e3 / dist_per_query.max(1.0);

    // plan: predicted against observed distance evaluations, measured on
    // the planned shape over the stream's reads of the initial corpus.
    let predicted = match plan.backend {
        PlannedBackend::Linear => plan.costs.linear,
        PlannedBackend::Laesa { .. } => plan.costs.laesa,
        PlannedBackend::VpTree => plan.costs.vptree,
    };
    let observed = if spec.workload.has_writes() {
        let planned = planned_index(spec, corpus.clone(), &plan);
        mean(
            ops.iter()
                .filter(|o| o.is_read())
                .map(|op| stats_of(&index_read(planned.index(), op, dist)) as f64),
        )
    } else {
        dist_per_query
    };

    // database: the cached facade (cache and plan included).
    let mut db = spec.database(corpus.clone(), true);
    let before = db.cache_stats().unwrap_or_default();
    let mut hits = Latencies::default();
    let mut misses = Latencies::default();
    let database = replay("database", ops, &expected, n, |op| {
        if !op.is_read() {
            return Ok(db_write(&mut db, op));
        }
        let hits_before = db.cache_stats().unwrap_or_default().hits;
        let (body, took) = timed(|| match op {
            Op::Knn { query, k } => db
                .knn(query, *k)
                .map(|(neighbours, stats)| ResponseBody::Knn { neighbours, stats }),
            Op::Nn { query } => db
                .nn(query)
                .map(|(neighbour, stats)| ResponseBody::Nn { neighbour, stats }),
            _ => unreachable!(),
        });
        if db.cache_stats().unwrap_or_default().hits > hits_before {
            hits.push(took);
        } else {
            misses.push(took);
        }
        Ok(body.unwrap_or_else(|error| ResponseBody::Failed { error }))
    })?;
    attempted += ops.len() as u64;
    let after = db.cache_stats().unwrap_or_default();
    // The hit path on every workload: each read repeated at once, with
    // no write in between, must be answered from the cache.
    let mut repeat_hits = Latencies::default();
    for op in ops.iter().filter(|o| o.is_read()).take(400) {
        let query = read_query(op).expect("reads have queries");
        let k = read_k(op);
        db.knn(query, k).map_err(|e| format!("cache probe: {e}"))?;
        let h = db.cache_stats().unwrap_or_default().hits;
        let (_, took) = timed(|| db.knn(query, k));
        if db.cache_stats().unwrap_or_default().hits == h + 1 {
            repeat_hits.push(took);
        }
    }
    hits.extend(repeat_hits);
    drop(db);
    let reads_n = search.reads.len().max(1) as f64;
    let lookups = (after.hits + after.misses - before.hits - before.misses).max(1) as f64;
    let cache_hit_ratio = (after.hits - before.hits) as f64 / lookups;
    let seeded_ratio =
        (after.seeded - before.seeded) as f64 / (after.misses - before.misses).max(1) as f64;
    let probe_per_query = (after.probe_computations - before.probe_computations) as f64 / reads_n;
    let invalidations =
        (after.invalidations - before.invalidations) as f64 * 1e3 / ops.len() as f64;
    let database_q = database.reads.summary();
    let (hit_q, miss_q) = (hits.summary(), misses.summary());

    // session: submit → wait, one request outstanding.
    let session_db = spec.database(corpus.clone(), true).session();
    let mut refused = 0u64;
    let session = replay("session", ops, &expected, n, |op| loop {
        match session_db.submit(op.request()) {
            Ok(ticket) => break Ok(ticket.wait().body),
            Err(cned::SearchError::Overloaded { .. }) => refused += 1,
            Err(error) => break Ok(ResponseBody::Failed { error }),
        }
    })?;
    attempted += ops.len() as u64 + refused;
    failed += refused;
    drop(session_db.shutdown());
    let session_q = session.reads.summary();

    // wire: one client, one request outstanding, in-memory server.
    let wire_server = spec
        .database(corpus.clone(), true)
        .serve_with("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("wire serve: {e}"))?;
    let mut client = Client::<u8>::connect(wire_server.local_addr())
        .map_err(|e| format!("wire connect: {e}"))?;
    let wire = replay("wire", ops, &expected, n, |op| {
        client.call(op.request()).map_err(|e| format!("wire: {e}"))
    })?;
    attempted += ops.len() as u64;
    let wire_q = wire.reads.summary();
    client.close();
    drop(wire_server.shutdown());

    // server: the workload's own load shape and connections, over
    // a durable server as in the untraced run.
    let dir = scratch.join("trace-server");
    let handle = e2e::serve(spec, corpus.clone(), &dir)?;
    let budget = Budget {
        warmup: Duration::ZERO,
        measure: Duration::from_secs(3600),
        max_ops: Some(ops.len()),
    };
    let outcome = e2e::drive(spec, handle.local_addr(), ops.iter().cloned(), budget)?;
    drop(handle.shutdown());
    e2e::remove_dir(&dir);
    attempted += outcome.records.len() as u64;
    failed += outcome.failed() as u64;
    let mut server_reads = Latencies::default();
    let mut lag = Latencies::default();
    for r in &outcome.records {
        if matches!(r.body, ResponseBody::Failed { .. }) {
            continue;
        }
        if spec.workload.has_writes() {
            if !ops[r.op].is_read() {
                oracle::check(&format!("server op {}", r.op), &r.body, &expected[r.op])?;
            }
        } else {
            oracle::check(&format!("server op {}", r.op), &r.body, &expected[r.op])?;
        }
        if ops[r.op].is_read() {
            server_reads.push(r.latency);
        }
        lag.push(r.lag);
    }
    let server_q = server_reads.summary();

    // harness.trace_overhead: the traced server layer's read p50 against
    // an untraced pass of the same stream and load shape in this process:
    // a warm-up, then a measured window, as `--trace 0` drives its load.
    // Both medians take every read, so they differ only in how the load
    // was run.
    let measure = spec.measure.min(UNTRACED_PASS);
    let dir = scratch.join("trace-untraced");
    let (untraced, pass_attempted, pass_failed) =
        e2e::untraced_pass(spec, &corpus, seed, measure, &dir)?;
    attempted += pass_attempted;
    failed += pass_failed;
    let trace_overhead = server_q.p50 / untraced.p50;

    // sharded + store: the write stream through a sharded index and a
    // durable store on a scratch dir.
    let writes = workload::layer_writes(spec, workload::op_stream(spec, &corpus, seed), n);
    let mut write_oracle = Oracle::new(corpus.clone());
    let write_expected: Vec<Expected> =
        writes.iter().map(|w| write_oracle.apply(w, dist)).collect();
    let mut sharded = sharded_shape(corpus.clone(), dist);
    let snapshot = {
        let view =
            IndexView::of(&sharded as &dyn MetricIndex<u8>).expect("sharded indexes persist");
        encode_snapshot_with(spec.workload.metric().codes(), &view, None)
    };
    let mut compact = Latencies::default();
    for (i, (w, want)) in writes.iter().zip(&write_expected).enumerate() {
        let body = match w {
            Op::Insert { item } => {
                let (index, took) = timed(|| sharded.insert(item.clone(), dist));
                if sharded.delta_len() == 0 {
                    compact.push(took);
                }
                ResponseBody::Inserted { index }
            }
            Op::Delete { index } => ResponseBody::Deleted {
                existed: sharded
                    .delete(*index)
                    .map_err(|e| format!("sharded delete: {e}"))?,
            },
            _ => unreachable!("write streams hold writes"),
        };
        oracle::check(&format!("sharded write {i}"), &body, want)?;
    }
    oracle::check_state("sharded", &sharded, write_oracle.index())?;
    drop(sharded);
    let compactions = compact.len();
    let compact_q = compact.summary();

    let (_, stored) = decode_snapshot::<u8>(&snapshot).map_err(|e| format!("decode: {e}"))?;
    let store_dir = scratch.join("trace-store");
    let copy_dir = scratch.join("trace-store-copy");
    let mut durable = Durable::create(&store_dir, spec.workload.metric().codes(), stored, 1024)
        .map_err(|e| format!("store create: {e}"))?;
    let mut commits = Latencies::default();
    for (i, (w, want)) in writes.iter().zip(&write_expected).enumerate() {
        let (result, took) = timed(|| match w {
            Op::Insert { item } => durable
                .insert(item.clone(), dist)
                .map(|index| ResponseBody::Inserted { index }),
            Op::Delete { index } => durable
                .delete(*index)
                .map(|existed| ResponseBody::Deleted { existed }),
            _ => unreachable!("write streams hold writes"),
        });
        let body = result.map_err(|e| format!("store write {i}: {e}"))?;
        oracle::check(&format!("store write {i}"), &body, want)?;
        commits.push(took);
    }
    let wal_bytes = std::fs::metadata(store_dir.join(WAL_FILE)).map_or(0, |m| m.len());
    e2e::remove_dir(&copy_dir);
    e2e::copy_dir(&store_dir, &copy_dir)?;
    let (snap, took) = timed(|| durable.snapshot());
    snap.map_err(|e| format!("store snapshot: {e}"))?;
    let snapshot_ms = took.as_secs_f64() * 1e3;
    drop(durable);
    let (recovered, took) = timed(|| Durable::<u8>::recover(&copy_dir, dist, 1024));
    let (recovered, _) = recovered.map_err(|e| format!("store recover: {e}"))?;
    let recover_ms = took.as_secs_f64() * 1e3;
    oracle::check_state("store recovery", &recovered, write_oracle.index())?;
    drop(recovered);
    e2e::remove_dir(&store_dir);
    e2e::remove_dir(&copy_dir);
    let commit_q = commits.summary();

    // Layer-gap table: each layer's read latency and its gap to the one below.
    lines.push(format!(
        "layer gaps (us per read, {} ops replayed one at a time; server at {} connections):",
        ops.len(),
        spec.connections
    ));
    lines.push(format!(
        "  {:<22} {:>10} {:>10} {:>12} {:>12}",
        "layer", "p50", "p99", "d_p50", "d_p99"
    ));
    let rows: [(&str, Summary); 6] = [
        ("core (batch scan)", core_q),
        ("search", search_q),
        ("database", database_q),
        ("session", session_q),
        ("wire", wire_q),
        ("server", server_q),
    ];
    let mut below: Option<Summary> = None;
    for (name, s) in rows {
        let (dp50, dp99) = below.map_or((String::from("-"), String::from("-")), |b| {
            (
                format!("{:+.1}", s.p50 - b.p50),
                format!("{:+.1}", s.p99 - b.p99),
            )
        });
        lines.push(format!(
            "  {name:<22} {:>10.1} {:>10.1} {dp50:>12} {dp99:>12}   (n={})",
            s.p50, s.p99, s.n
        ));
        below = Some(s);
    }
    lines.push(format!(
        "  linear scan reference  p50 {:.1} us; plan.vs_linear = {:.3}",
        linear.p50,
        search_q.p50 / linear.p50
    ));
    lines.push(format!(
        "  untraced server pass   p50 {:.1} us (n={}, after {:.0} s warm-up); harness.trace_overhead = {trace_overhead:.3}",
        untraced.p50,
        untraced.n,
        spec.warmup.as_secs_f64()
    ));
    lines.push("which end-to-end metric each layer should move:".into());
    for (layer, moves) in MOVES {
        lines.push(format!("  {layer:<9} {moves}"));
    }

    let metrics = vec![
        metric("core.batch_ns_per_dist", batch_ns, "ns"),
        metric("core.scalar_ns_per_dist", scalar_ns, "ns"),
        metric("core.bounded_ns_per_dist", bounded_ns, "ns"),
        metric("search.query_us_p50", search_q.p50, "us"),
        metric("search.query_us_p99", search_q.p99, "us"),
        metric("search.dist_per_query", dist_per_query, "count"),
        metric("search.ns_per_dist", ns_per_dist, "ns"),
        metric("search.eval_ratio", eval_ratio, "ratio"),
        metric("search.linear_query_us_p50", linear.p50, "us"),
        metric("search.build_ms", build_ms, "ms"),
        metric("plan.plan_ms", plan_ms, "ms"),
        metric("plan.predicted_dist_per_query", predicted, "count"),
        metric("plan.model_error", observed / predicted, "ratio"),
        metric("plan.vs_linear", search_q.p50 / linear.p50, "ratio"),
        metric("cache.hit_ratio", cache_hit_ratio, "ratio"),
        metric("cache.seeded_ratio", seeded_ratio, "ratio"),
        metric("cache.probe_dist_per_query", probe_per_query, "count"),
        metric("cache.invalidations_per_1k_ops", invalidations, "count"),
        metric("cache.hit_us_p50", hit_q.p50, "us"),
        metric("cache.miss_us_p50", miss_q.p50, "us"),
        metric("database.query_us_p50", database_q.p50, "us"),
        metric("database.query_us_p99", database_q.p99, "us"),
        metric("session.rtt_us_p50", session_q.p50, "us"),
        metric("session.rtt_us_p99", session_q.p99, "us"),
        metric("session.refused", refused as f64, "count"),
        metric("wire.rtt_us_p50", wire_q.p50, "us"),
        metric("wire.rtt_us_p99", wire_q.p99, "us"),
        metric("server.rtt_us_p50", server_q.p50, "us"),
        metric("server.rtt_us_p99", server_q.p99, "us"),
        metric("sharded.compactions", compactions as f64, "count"),
        metric("sharded.compact_ms_p99", compact_q.p99 / 1e3, "ms"),
        metric("store.commit_us_p50", commit_q.p50, "us"),
        metric("store.commit_us_p99", commit_q.p99, "us"),
        metric("store.snapshot_ms", snapshot_ms, "ms"),
        metric("store.recover_ms", recover_ms, "ms"),
        metric(
            "store.wal_bytes_per_write",
            wal_bytes as f64 / writes.len().max(1) as f64,
            "B",
        ),
        metric("harness.gen_lag_p99_us", lag.summary().p99, "us"),
        metric("harness.trace_overhead", trace_overhead, "ratio"),
    ];
    lines.push(format!(
        "samples: search {}, database {} (hits {}, misses {}), session {}, wire {}, server {}, compactions {}, commits {}",
        search_q.n, database_q.n, hit_q.n, miss_q.n, session_q.n, wire_q.n, server_q.n, compact_q.n, commit_q.n
    ));
    Ok(Report {
        metrics,
        attempted,
        failed,
        lines,
    })
}
