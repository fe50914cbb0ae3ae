//! The bit-parallel engine vs the scalar two-row loop — the headline
//! numbers behind the engine-selection strategy in
//! `cned_core::levenshtein` and the Performance section of ROADMAP.md.
//!
//! Three groups:
//! * `myers_vs_wagner_fischer` — per-pair throughput of each engine
//!   across string lengths spanning the 64-symbol word boundary;
//! * `batch_pipeline` — a whole-database scan with and without the
//!   per-query `Peq` cache ([`MyersPattern`]) and with the bounded
//!   early-exit path, i.e. what LAESA/linear search actually run;
//! * `index_build` — LAESA/AESA preprocessing (parallelised across
//!   cores; on a single-core runner this measures the serial floor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

use cned_core::levenshtein::{levenshtein, levenshtein_bounded, wagner_fischer, Levenshtein};
use cned_core::myers::{myers, myers_bounded, MyersPattern};
use cned_datasets::dictionary::spanish_dictionary;
use cned_datasets::perturb::{gen_queries, ASCII_LOWER};
use cned_search::laesa::Laesa;
use cned_search::pivots::select_pivots_max_sum;
use cned_search::Aesa;
use cned_search::{LinearIndex, MetricIndex, QueryOptions};

fn random_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = |rng: &mut StdRng| (0..len).map(|_| rng.random_range(0..4u8)).collect();
    (gen(&mut rng), gen(&mut rng))
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("myers_vs_wagner_fischer");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for len in [16usize, 64, 128, 256, 512] {
        let (x, y) = random_pair(len, len as u64);
        group.bench_with_input(BenchmarkId::new("wagner_fischer", len), &len, |b, _| {
            b.iter(|| wagner_fischer(black_box(&x), black_box(&y)))
        });
        group.bench_with_input(BenchmarkId::new("myers", len), &len, |b, _| {
            b.iter(|| myers(black_box(&x), black_box(&y)))
        });
        group.bench_with_input(
            BenchmarkId::new("levenshtein_dispatch", len),
            &len,
            |b, _| b.iter(|| levenshtein(black_box(&x), black_box(&y))),
        );
        let d = wagner_fischer(&x, &y);
        group.bench_with_input(
            BenchmarkId::new("myers_bounded_tight", len),
            &len,
            |b, _| b.iter(|| myers_bounded(black_box(&x), black_box(&y), d / 4)),
        );
        group.bench_with_input(BenchmarkId::new("banded_tight", len), &len, |b, _| {
            b.iter(|| levenshtein_bounded(black_box(&x), black_box(&y), d / 4))
        });
    }
    group.finish();
}

fn bench_batch_pipeline(c: &mut Criterion) {
    const N: usize = 1000;
    let dict = spanish_dictionary(N, 1);
    let queries = gen_queries(&dict, 16, 2, ASCII_LOWER, 2);

    let mut group = c.benchmark_group("batch_pipeline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    // Scan the database per query: one-shot myers per pair (Peq
    // rebuilt n times) vs one prepared pattern per query.
    group.bench_function("scan/one_shot_per_pair", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for q in &queries {
                for w in &dict {
                    acc += myers(black_box(q), black_box(w));
                }
            }
            acc
        })
    });
    group.bench_function("scan/prepared_pattern", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for q in &queries {
                let prepared = MyersPattern::new(q);
                for w in &dict {
                    acc += prepared.distance(black_box(w));
                }
            }
            acc
        })
    });
    // The full production path: prepared + bounded early exit against
    // the running best (what `LinearIndex` does internally).
    let linear = LinearIndex::new(dict.clone());
    let opts = QueryOptions::new();
    group.bench_function("scan/prepared_bounded_nn", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(MetricIndex::nn(&linear, black_box(q), &Levenshtein, &opts).unwrap());
            }
        })
    });
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    const N: usize = 400;
    let dict = spanish_dictionary(N, 3);

    let mut group = c.benchmark_group("index_build");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    let pivots = select_pivots_max_sum(&dict, 32, 0, &Levenshtein);
    group.bench_function("laesa_32p_400", |b| {
        b.iter(|| {
            Laesa::try_build(
                black_box(dict.clone()),
                black_box(pivots.clone()),
                &Levenshtein,
            )
        })
    });
    group.bench_function("aesa_400", |b| {
        b.iter(|| Aesa::build(black_box(dict.clone()), &Levenshtein))
    });
    group.finish();

    eprintln!(
        "[index_build] worker threads: {} (CNED_THREADS overrides)",
        cned_search::num_threads()
    );
}

criterion_group!(
    benches,
    bench_engines,
    bench_batch_pipeline,
    bench_index_build
);
criterion_main!(benches);
