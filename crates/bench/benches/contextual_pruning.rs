//! Exact vs bounded contextual distance — the numbers behind the
//! band-pruned `d_C` engine (`cned_core::contextual::bounded`) and the
//! contextual entries in ROADMAP's Performance section.
//!
//! Three groups:
//! * `dc_pair` — one pair at a time: the exact cubic DP vs the bounded
//!   engine under a rejecting budget (gates fire, DP skipped) and an
//!   accepting budget (banded DP runs);
//! * `dc_linear_scan` — `LinearIndex` NN over a dictionary with the pruned
//!   engine vs the [`Unpruned`] full-evaluation baseline, i.e. what a
//!   `d_C` serving scan actually pays;
//! * `dc_laesa` — the same contrast inside LAESA, where the triangle
//!   inequality already skips candidates and the bounded engine cheapens
//!   the survivors.
//!
//! After the timed groups the bench replays one scan of each flavour
//! and reports how many comparisons actually ran the cubic DP
//! (`dp_runs`) versus being rejected by the cheap gates
//! (`gate_rejections`) — the "fewer full DP evaluations" number quoted
//! in ROADMAP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

use cned_core::contextual::bounded::{contextual_bounded, dp_runs, gate_rejections};
use cned_core::contextual::exact::{contextual_distance, Contextual};
use cned_core::metric::Unpruned;
use cned_datasets::dictionary::spanish_dictionary;
use cned_datasets::perturb::{gen_queries, ASCII_LOWER};
use cned_search::laesa::Laesa;
use cned_search::pivots::select_pivots_max_sum;
use cned_search::{LinearIndex, MetricIndex, QueryOptions};

fn random_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = |rng: &mut StdRng| (0..len).map(|_| rng.random_range(0..4u8)).collect();
    (gen(&mut rng), gen(&mut rng))
}

fn bench_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("dc_pair");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    for len in [16usize, 32, 64, 96] {
        let (x, y) = random_pair(len, len as u64);
        let d = contextual_distance(&x, &y);
        group.bench_with_input(BenchmarkId::new("exact", len), &len, |b, _| {
            b.iter(|| contextual_distance(black_box(&x), black_box(&y)))
        });
        // Rejecting budget (half the true distance): the regime search
        // lives in once a decent best is known — gates only.
        group.bench_with_input(BenchmarkId::new("bounded_reject", len), &len, |b, _| {
            b.iter(|| contextual_bounded(black_box(&x), black_box(&y), d * 0.5))
        });
        // Accepting budget just above the distance: the banded DP runs
        // but the k dimension and corridor stay tight.
        group.bench_with_input(BenchmarkId::new("bounded_accept", len), &len, |b, _| {
            b.iter(|| contextual_bounded(black_box(&x), black_box(&y), d * 1.05))
        });
    }
    group.finish();
}

const DB_SIZE: usize = 300;
const N_QUERIES: usize = 8;
const N_PIVOTS: usize = 16;

fn scan_data() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let db = spanish_dictionary(DB_SIZE, 5);
    let queries = gen_queries(&db, N_QUERIES, 2, ASCII_LOWER, 6);
    (db, queries)
}

fn bench_linear_scan(c: &mut Criterion) {
    let (db, queries) = scan_data();
    let linear = LinearIndex::new(db.clone());
    let opts = QueryOptions::new();
    let mut group = c.benchmark_group("dc_linear_scan");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("bounded", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(linear.nn(black_box(q), &Contextual, &opts).unwrap());
            }
        })
    });
    group.bench_function("unpruned", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(
                    linear
                        .nn(black_box(q), &Unpruned(Contextual), &opts)
                        .unwrap(),
                );
            }
        })
    });
    group.finish();
}

fn bench_laesa(c: &mut Criterion) {
    let (db, queries) = scan_data();
    let pivots = select_pivots_max_sum(&db, N_PIVOTS, 0, &Contextual);
    let index =
        Laesa::try_build(db.clone(), pivots, &Contextual).expect("max-sum pivots are valid");
    let linear = LinearIndex::new(db.clone());
    let opts = QueryOptions::new();

    let mut group = c.benchmark_group("dc_laesa");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("bounded", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(MetricIndex::nn(&index, black_box(q), &Contextual, &opts).unwrap());
            }
        })
    });
    group.bench_function("unpruned", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(
                    MetricIndex::nn(&index, black_box(q), &Unpruned(Contextual), &opts).unwrap(),
                );
            }
        })
    });
    group.finish();

    // One instrumented replay per flavour: how many comparisons paid
    // the cubic DP under the bounded engine, vs the baseline where
    // every comparison is a full DP by construction.
    let replay = |laesa: bool| -> (u64, u64, u64) {
        let (dp0, gate0) = (dp_runs(), gate_rejections());
        let mut comparisons = 0;
        for q in &queries {
            let stats = if laesa {
                MetricIndex::nn(&index, q, &Contextual, &opts).unwrap().1
            } else {
                linear.nn(q, &Contextual, &opts).unwrap().1
            };
            comparisons += stats.distance_computations;
        }
        (comparisons, dp_runs() - dp0, gate_rejections() - gate0)
    };
    let (lin_comp, lin_dp, lin_gate) = replay(false);
    let (la_comp, la_dp, la_gate) = replay(true);
    eprintln!(
        "[dc_pruning] linear scan: {lin_comp} comparisons -> {lin_dp} full DPs \
         ({lin_gate} gate-rejected); unpruned baseline would run {lin_comp} DPs \
         ({:.1}x reduction)",
        lin_comp as f64 / lin_dp.max(1) as f64
    );
    eprintln!(
        "[dc_pruning] LAESA: {la_comp} comparisons -> {la_dp} full DPs \
         ({la_gate} gate-rejected); unpruned baseline would run {la_comp} DPs \
         ({:.1}x reduction)",
        la_comp as f64 / la_dp.max(1) as f64
    );
}

criterion_group!(benches, bench_pair, bench_linear_scan, bench_laesa);
criterion_main!(benches);
