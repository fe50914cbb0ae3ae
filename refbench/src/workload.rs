//! The three workloads: corpus, served shape, and the op stream each
//! run replays, all derived from the run's seed.
//!
//! The corpus of each workload is drawn from a fixed seed, so the
//! planner sees the same corpus and makes the same choice on every run;
//! `--seed` draws the traffic (queries, write items, Zipf ranks and the
//! read/write mix). The served program only ever receives these
//! generated inputs.

use cned::datasets::perturb::{gen_queries, ASCII_LOWER};
use cned::datasets::{dna_sequences, spanish_dictionary};
use cned::serve::ShardConfig;
use cned::{Backend, Database, Metric, Request};
use std::collections::HashSet;
use std::time::Duration;

/// Seed of every workload's corpus (fixed; see the module docs).
pub const CORPUS_SEED: u64 = 0x1CDE_2008;

/// Neighbours per kNN read.
pub const K: usize = 5;

/// Open-loop arrival rate of `hot-mixed`, in ops per second: about 30 %
/// of this workload's closed-loop capacity at two connections on a
/// 2-core x86-64 container (~1 070 ops/s). At half capacity, host CPU
/// steal pushed the server into saturation and the queue grew.
pub const HOT_RATE: f64 = 300.0;

/// The served shape of `hot-mixed`, `serve_demo`'s: sharded LAESA with
/// the default compaction threshold, insertable and persistable.
pub fn hot_shape() -> ShardConfig {
    ShardConfig {
        shards: 2,
        pivots_per_shard: 12,
        ..ShardConfig::default()
    }
}

/// Writes of `hot-mixed` that must lie between an insert and a delete
/// of it, so a delete never overtakes the insert it targets.
const DELETE_MIN_AGE: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dictionary words, `d_C` kNN, `Backend::Auto`, distinct queries.
    DictDc,
    /// DNA sequences, `d_E` kNN, `Backend::Auto`, distinct queries.
    DnaDe,
    /// Dictionary words, `d_E`, sharded LAESA, Zipf reads + writes,
    /// durable, open loop.
    HotMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DictDc, Workload::DnaDe, Workload::HotMixed];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DictDc => "dict-dc-uniform",
            Workload::DnaDe => "dna-de-uniform",
            Workload::HotMixed => "hot-mixed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The served metric.
    pub fn metric(self) -> Metric {
        match self {
            Workload::DictDc => Metric::Contextual { bounded: true },
            Workload::DnaDe | Workload::HotMixed => Metric::Levenshtein,
        }
    }

    /// Whether the op stream carries writes (and is driven open loop).
    pub fn has_writes(self) -> bool {
        self == Workload::HotMixed
    }
}

/// Sizes of one run. [`Spec::full`] is the benchmark; [`Spec::tiny`]
/// is the smoke-test shape of the same workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Whether this is the smoke-test shape.
    pub tiny: bool,
    /// Corpus size.
    pub corpus: usize,
    /// Run length after warm-up.
    pub measure: Duration,
    /// Warm-up before measuring (not recorded, answers still checked).
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Warm restarts per run, at least; `recover_s` is the fastest clean
    /// one.
    pub restart_reps: usize,
    /// Client connections: `nproc` on `hot-mixed`, whose open loop keeps
    /// the server far from saturation, and one on the closed-loop
    /// uniform workloads. With two reads in flight on a 2-vCPU host each
    /// ran 1.2× (`d_C`) to 1.6× (DNA) slower than alone and whole runs
    /// switched between speeds; one read at a time has a core to itself.
    pub connections: usize,
    /// Distinct hot queries of `hot-mixed`.
    pub pool: usize,
    /// Ops replayed per layer in the traced run.
    pub trace_ops: usize,
    /// Queries scored against the whole corpus by the `core` layer.
    pub core_queries: usize,
    /// Writes fed to the `sharded` and `store` layers.
    pub layer_writes: usize,
}

impl Spec {
    /// The benchmark's shape of `workload`, measuring for `measure`.
    pub fn full(workload: Workload, measure: Duration) -> Spec {
        // Set-ups repeat until they take several seconds in all: the
        // parallel LAESA builds of the uniform workloads vary most.
        let (corpus, trace_ops, core_queries, setup_reps) = match workload {
            Workload::DictDc => (5_000, 1_200, 12, 7),
            Workload::DnaDe => (1_000, 1_200, 40, 9),
            Workload::HotMixed => (5_000, 2_400, 120, 15),
        };
        Spec {
            workload,
            tiny: false,
            corpus,
            measure,
            warmup: Duration::from_secs(1),
            setup_reps,
            restart_reps: 40,
            connections: if workload.has_writes() { nproc() } else { 1 },
            pool: 320,
            trace_ops,
            core_queries,
            layer_writes: 256,
        }
    }

    /// A few-second smoke shape of `workload` (`--size tiny`): small
    /// corpus, but still the 1 000 measured reads a p99 needs.
    pub fn tiny(workload: Workload) -> Spec {
        Spec {
            tiny: true,
            corpus: 400,
            warmup: Duration::from_millis(100),
            setup_reps: 2,
            restart_reps: 2,
            connections: if workload.has_writes() { 2 } else { 1 },
            pool: 40,
            trace_ops: 120,
            core_queries: 4,
            layer_writes: 80,
            ..Spec::full(workload, Duration::from_secs(4))
        }
    }

    /// The `--size` of this shape.
    pub fn size(&self) -> &'static str {
        if self.tiny {
            "tiny"
        } else {
            "full"
        }
    }

    /// The workload's corpus (fixed seed).
    pub fn corpus(&self) -> Vec<Vec<u8>> {
        match self.workload {
            Workload::DictDc | Workload::HotMixed => spanish_dictionary(self.corpus, CORPUS_SEED),
            Workload::DnaDe => dna_sequences(self.corpus, CORPUS_SEED),
        }
    }

    /// Build the served database over `corpus`: the workload's metric
    /// and backend, with the hot-query cache when `cached`.
    pub fn database(&self, corpus: Vec<Vec<u8>>, cached: bool) -> Database<u8> {
        let builder = Database::builder(corpus).metric(self.workload.metric());
        let builder = match self.workload {
            Workload::DictDc | Workload::DnaDe => builder.backend(Backend::Auto),
            Workload::HotMixed => {
                let shape = hot_shape();
                builder
                    .backend(Backend::Laesa {
                        pivots: shape.pivots_per_shard,
                    })
                    .shards(shape.shards)
                    .compact_threshold(shape.compact_threshold)
            }
        };
        let builder = if cached { builder.cache() } else { builder };
        builder
            .build()
            .expect("a non-empty corpus with a named metric always builds")
    }
}

/// One operation of a workload's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// k-nearest-neighbour read.
    Knn {
        /// Query string.
        query: Vec<u8>,
        /// Neighbours wanted.
        k: usize,
    },
    /// Nearest-neighbour read.
    Nn {
        /// Query string.
        query: Vec<u8>,
    },
    /// Append an item.
    Insert {
        /// The new item.
        item: Vec<u8>,
    },
    /// Tombstone the item at a global index (always an earlier insert).
    Delete {
        /// Global index.
        index: usize,
    },
}

impl Op {
    /// Whether this op only reads.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Knn { .. } | Op::Nn { .. })
    }

    /// The serving-layer request for this op.
    pub fn request(&self) -> Request<u8> {
        match self {
            Op::Knn { query, k } => Request::Knn {
                query: query.clone(),
                k: *k,
            },
            Op::Nn { query } => Request::Nn {
                query: query.clone(),
            },
            Op::Insert { item } => Request::Insert { item: item.clone() },
            Op::Delete { index } => Request::Delete { index: *index },
        }
    }
}

/// SplitMix64: a tiny seeded generator for the stream's coin flips.
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeded generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(1.0) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n > 0` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Distinct perturbations of corpus items, none equal to a corpus item,
/// generated one at a time as they are read: the queries of the
/// uniform workloads never repeat, so the cache can only miss, and a run
/// generates only the queries it sends. The items perturbed step through
/// the corpus by [`golden_stride`] from a seeded start, so any few
/// hundred consecutive queries spread evenly over the corpus and mix
/// item lengths (and so costs) as the whole corpus does, whatever its
/// order.
pub struct DistinctQueries<'a> {
    corpus: &'a [Vec<u8>],
    edits: usize,
    alphabet: &'static [u8],
    seed: u64,
    start: usize,
    stride: usize,
    drawn: u64,
    seen: HashSet<Vec<u8>>,
}

/// The step nearest `n / φ` (φ the golden ratio) that is coprime to `n`:
/// stepping by it visits every index of `0..n` once per `n` steps, and
/// any run of consecutive steps lands almost evenly spaced.
pub fn golden_stride(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut stride = ((n as f64) * 0.618_033_988_749_895).round().max(1.0) as usize;
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    stride
}

impl<'a> DistinctQueries<'a> {
    /// Queries `edits` random edits away from corpus items, drawn from
    /// `seed`.
    pub fn new(
        corpus: &'a [Vec<u8>],
        edits: usize,
        alphabet: &'static [u8],
        seed: u64,
    ) -> DistinctQueries<'a> {
        DistinctQueries {
            corpus,
            edits,
            alphabet,
            seed,
            start: SplitMix::new(seed).below(corpus.len()),
            stride: golden_stride(corpus.len()),
            drawn: 0,
            seen: corpus.iter().cloned().collect(),
        }
    }
}

impl Iterator for DistinctQueries<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        loop {
            let n = self.corpus.len();
            let i = (self.start + self.drawn as usize % n * self.stride) % n;
            let seed = SplitMix::new(self.seed.wrapping_add(self.drawn)).next_u64();
            self.drawn += 1;
            let q = gen_queries(&self.corpus[i..=i], 1, self.edits, self.alphabet, seed)
                .pop()
                .expect("one query asked, one made");
            if self.seen.insert(q.clone()) {
                return Some(q);
            }
        }
    }
}

/// The op stream of one run over `corpus`, drawn from `seed`. It never
/// ends: a run reads as many ops as it sends.
pub fn op_stream<'a>(
    spec: &Spec,
    corpus: &'a [Vec<u8>],
    seed: u64,
) -> Box<dyn Iterator<Item = Op> + Send + 'a> {
    let seed = seed ^ 0xB5AD_4ECE_DA1C_E2A9;
    let knn = |query| Op::Knn { query, k: K };
    match spec.workload {
        Workload::DictDc => Box::new(DistinctQueries::new(corpus, 2, ASCII_LOWER, seed).map(knn)),
        Workload::DnaDe => Box::new(DistinctQueries::new(corpus, 8, b"ACGT", seed).map(knn)),
        Workload::HotMixed => Box::new(HotMixed::new(spec, corpus, seed)),
    }
}

/// The `hot-mixed` stream: ~95 % reads (4 in 5 kNN, the rest NN) drawn
/// Zipf(1.0) from a fixed pool of perturbed words; ~5 % writes, half
/// inserts of new words and half deletes of earlier inserts.
struct HotMixed<'a> {
    corpus_len: usize,
    pool: Vec<Vec<u8>>,
    zipf: Zipf,
    fresh: DistinctQueries<'a>,
    rng: SplitMix,
    inserts: usize,
    /// Inserted and not yet deleted: (insert ordinal, op position).
    live: Vec<(usize, usize)>,
    pos: usize,
}

impl<'a> HotMixed<'a> {
    fn new(spec: &Spec, corpus: &'a [Vec<u8>], seed: u64) -> HotMixed<'a> {
        let pool: Vec<Vec<u8>> = DistinctQueries::new(corpus, 2, ASCII_LOWER, seed)
            .take(spec.pool)
            .collect();
        HotMixed {
            corpus_len: corpus.len(),
            zipf: Zipf::new(pool.len()),
            pool,
            fresh: DistinctQueries::new(corpus, 3, ASCII_LOWER, seed ^ 0x5EED),
            rng: SplitMix::new(seed),
            inserts: 0,
            live: Vec::new(),
            pos: 0,
        }
    }
}

impl Iterator for HotMixed<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let pos = self.pos;
        self.pos += 1;
        let rng = &mut self.rng;
        if rng.unit() < 0.05 {
            let old_enough = self
                .live
                .iter()
                .filter(|&&(_, at)| at + DELETE_MIN_AGE <= pos)
                .count();
            if old_enough > 0 && rng.unit() < 0.5 {
                let (ordinal, _) = self.live.remove(rng.below(old_enough));
                return Some(Op::Delete {
                    index: self.corpus_len + ordinal,
                });
            }
            self.live.push((self.inserts, pos));
            self.inserts += 1;
            return self.fresh.next().map(|item| Op::Insert { item });
        }
        let query = self.pool[self.zipf.sample(rng)].clone();
        Some(if rng.unit() < 0.8 {
            Op::Knn { query, k: K }
        } else {
            Op::Nn { query }
        })
    }
}

/// The writes the `sharded` and `store` layers replay: the stream's own
/// writes where it has them, else a probe stream — inserts of the
/// stream's first queries, each second one deleted again — since those
/// layers only act on writes.
pub fn layer_writes(spec: &Spec, stream: impl Iterator<Item = Op>, corpus_len: usize) -> Vec<Op> {
    let n = spec.layer_writes;
    if spec.workload.has_writes() {
        return stream.filter(|op| !op.is_read()).take(n).collect();
    }
    let mut writes = Vec::with_capacity(n);
    for (ordinal, op) in stream.filter(Op::is_read).take(n / 3 * 2).enumerate() {
        let (Op::Knn { query, .. } | Op::Nn { query }) = op else {
            unreachable!("filtered to reads");
        };
        writes.push(Op::Insert { item: query });
        if ordinal % 2 == 1 {
            writes.push(Op::Delete {
                index: corpus_len + ordinal - 1,
            });
        }
    }
    writes
}

/// Available parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            let spec = Spec::tiny(w);
            let corpus = spec.corpus();
            let stream = |seed| {
                op_stream(&spec, &corpus, seed)
                    .take(300)
                    .collect::<Vec<_>>()
            };
            let (a, b, c) = (stream(7), stream(7), stream(8));
            assert_eq!(a, b, "{}: same seed must give the same stream", w.name());
            assert_ne!(a, c, "{}: another seed must give another stream", w.name());
            assert_eq!(spec.corpus(), corpus, "{}: the corpus is fixed", w.name());
        }
    }

    #[test]
    fn uniform_queries_never_repeat_and_miss_the_corpus() {
        for w in [Workload::DictDc, Workload::DnaDe] {
            let spec = Spec::tiny(w);
            let corpus = spec.corpus();
            let ops: Vec<Op> = op_stream(&spec, &corpus, 3).take(500).collect();
            let mut seen = HashSet::new();
            for op in &ops {
                let Op::Knn { query, k } = op else {
                    panic!("uniform workloads only read")
                };
                assert_eq!(*k, K);
                assert!(seen.insert(query.clone()), "repeated query");
                assert!(!corpus.contains(query));
            }
        }
    }

    #[test]
    fn hot_mixed_deletes_only_earlier_inserts() {
        let spec = Spec::tiny(Workload::HotMixed);
        let corpus = spec.corpus();
        let ops: Vec<Op> = op_stream(&spec, &corpus, 11).take(4_000).collect();
        let writes = ops.iter().filter(|o| !o.is_read()).count();
        let share = writes as f64 / ops.len() as f64;
        assert!((0.03..0.07).contains(&share), "write share {share}");
        let mut inserted = 0;
        let mut deleted = HashSet::new();
        for op in &ops {
            match op {
                Op::Insert { .. } => inserted += 1,
                Op::Delete { index } => {
                    assert!(*index >= corpus.len() && *index < corpus.len() + inserted);
                    assert!(deleted.insert(*index), "double delete");
                }
                _ => {}
            }
        }
        assert!(!deleted.is_empty());
    }

    #[test]
    fn probe_writes_delete_their_own_inserts() {
        let spec = Spec::tiny(Workload::DictDc);
        let corpus = spec.corpus();
        let writes = layer_writes(&spec, op_stream(&spec, &corpus, 5), corpus.len());
        let mut inserted = 0;
        for op in &writes {
            match op {
                Op::Insert { .. } => inserted += 1,
                Op::Delete { index } => assert!(*index < corpus.len() + inserted),
                _ => panic!("reads in a write stream"),
            }
        }
        assert!(inserted > 0);
    }

    #[test]
    fn golden_stride_visits_every_item_evenly() {
        for n in [1, 2, 400, 1_000, 5_000] {
            let stride = golden_stride(n);
            let mut visited: Vec<usize> = (0..n).map(|k| k * stride % n).collect();
            visited.sort_unstable();
            assert!(visited.iter().copied().eq(0..n), "n = {n}");
        }
        // 400 consecutive steps over 5 000 items leave no gap wider than
        // six times the even spacing of 12.5.
        let stride = golden_stride(5_000);
        let mut seen: Vec<usize> = (0..400).map(|k| (77 + k * stride) % 5_000).collect();
        seen.sort_unstable();
        assert!(seen.windows(2).all(|w| w[1] - w[0] <= 75));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut rng = SplitMix::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
