//! The unified-API agreement suite (acceptance gate of the redesign):
//! all five backends — `LinearIndex`, `Laesa`, `Aesa`, `VpTree` and
//! `ShardedIndex` — answer nn / knn / range through `&dyn
//! MetricIndex<u8>` with results **bit-identical** to the exhaustive
//! `LinearIndex` oracle across `d_E`, `d_YB` and `d_C`, including the
//! canonical tie-break on duplicate-heavy corpora, pivot budgets, the
//! empty-corpus edge cases and `k = 0`. Computation counts across
//! commits are pinned separately by `tests/search_golden.rs`.

use cned::core::contextual::exact::Contextual;
use cned::core::levenshtein::Levenshtein;
use cned::core::metric::Distance;
use cned::core::normalized::yujian_bo::YujianBo;
use cned::search::pivots::select_pivots_max_sum;
use cned::search::{Aesa, Laesa, LinearIndex, VpTree};
use cned::serve::{ShardConfig, ShardedIndex};
use cned::{Backend, Database, Metric, MetricIndex, Neighbour, QueryOptions, SearchError};

/// Deterministic pseudo-random word corpus (xorshift).
fn corpus(n: usize, len: usize, alphabet: u8, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let l = 1 + (rng() % len as u64) as usize;
            (0..l)
                .map(|_| b'a' + (rng() % alphabet as u64) as u8)
                .collect()
        })
        .collect()
}

/// All five backends over one corpus, as trait objects.
fn backends(db: &[Vec<u8>], dist: &dyn Distance<u8>) -> Vec<Box<dyn MetricIndex<u8>>> {
    let pivots = select_pivots_max_sum(db, 6, 0, dist);
    vec![
        Box::new(LinearIndex::new(db.to_vec())),
        Box::new(Laesa::try_build(db.to_vec(), pivots, dist).unwrap()),
        Box::new(Aesa::build(db.to_vec(), dist)),
        Box::new(VpTree::build(db.to_vec(), dist)),
        Box::new(
            ShardedIndex::try_build(
                db.to_vec(),
                ShardConfig {
                    shards: 3,
                    pivots_per_shard: 3,
                    compact_threshold: 8,
                    ..ShardConfig::default()
                },
                dist,
            )
            .unwrap(),
        ),
    ]
}

fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
    ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Linear-scan oracles computed with raw `Distance::distance` calls —
/// independent of every code path under test.
fn oracle_sorted(db: &[Vec<u8>], q: &[u8], dist: &dyn Distance<u8>) -> Vec<(usize, f64)> {
    let mut all: Vec<(usize, f64)> = db
        .iter()
        .enumerate()
        .map(|(i, item)| (i, dist.distance(q, item)))
        .collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all
}

#[test]
fn all_backends_agree_on_nn_knn_and_range_for_all_metrics() {
    // Duplicates guarantee distance ties, so this also pins the
    // canonical (distance, ascending index) tie-break behind the
    // trait for every backend.
    let mut db = corpus(36, 6, 3, 41);
    let dups: Vec<Vec<u8>> = db.iter().take(8).cloned().collect();
    db.extend(dups);
    let queries = corpus(6, 6, 3, 411);
    let metrics: [&dyn Distance<u8>; 3] = [&Levenshtein, &YujianBo, &Contextual];
    for dist in metrics {
        let indexes = backends(&db, dist);
        for q in &queries {
            let sorted = oracle_sorted(&db, q, dist);
            let (nn_i, nn_d) = sorted[0];
            let knn_expect: Vec<(usize, u64)> = sorted
                .iter()
                .take(4)
                .map(|&(i, d)| (i, d.to_bits()))
                .collect();
            // Radius at the exact NN distance: boundary ties must be
            // admitted by every backend (elimination slack at work for
            // the real-valued metrics).
            let radius = nn_d;
            let range_expect: Vec<(usize, u64)> = sorted
                .iter()
                .take_while(|&&(_, d)| d <= radius)
                .map(|&(i, d)| (i, d.to_bits()))
                .collect();
            for index in &indexes {
                let label = format!(
                    "backend {} metric {} query {q:?}",
                    index.backend_name(),
                    dist.name()
                );
                let (nn, _) = index.nn(q, dist, &QueryOptions::new()).unwrap();
                let nn = nn.expect("infinite radius always finds");
                assert_eq!(
                    (nn.index, nn.distance.to_bits()),
                    (nn_i, nn_d.to_bits()),
                    "{label}"
                );
                let (knn, _) = index.knn(q, dist, &QueryOptions::new().k(4)).unwrap();
                assert_eq!(key(&knn), knn_expect, "{label}");
                let (range, _) = index
                    .range(q, dist, &QueryOptions::new().radius(radius))
                    .unwrap();
                assert_eq!(key(&range), range_expect, "{label}");
            }
        }
    }
}

#[test]
fn trait_object_results_are_bit_identical_to_the_linear_oracle() {
    // Every backend, behind `&dyn MetricIndex`, reproduces the
    // exhaustive `LinearIndex` answer bit for bit — NN, k-NN and NN
    // under every pivot budget — and never pays more than a scan.
    let db = corpus(50, 7, 3, 43);
    let queries = corpus(8, 7, 3, 431);
    let metrics: [&dyn Distance<u8>; 3] = [&Levenshtein, &YujianBo, &Contextual];
    for dist in metrics {
        let oracle = LinearIndex::new(db.clone());
        for index in backends(&db, dist) {
            for q in &queries {
                let label = format!(
                    "backend {} metric {} query {q:?}",
                    index.backend_name(),
                    dist.name()
                );
                let k5 = QueryOptions::new().k(5);
                let (want, want_stats) = oracle.knn(q, dist, &k5).unwrap();
                assert_eq!(want_stats.distance_computations, db.len() as u64);
                let (got, stats) = index.knn(q, dist, &k5).unwrap();
                assert_eq!(key(&got), key(&want), "{label}");
                assert!(stats.distance_computations <= db.len() as u64, "{label}");
                for budget in [None, Some(0), Some(2), Some(6)] {
                    let mut opts = QueryOptions::new();
                    if let Some(p) = budget {
                        opts = opts.pivot_budget(p);
                    }
                    let (nn, stats) = index.nn(q, dist, &opts).unwrap();
                    let nn: Vec<Neighbour> = nn.into_iter().collect();
                    assert_eq!(key(&nn), key(&want[..1]), "{label} budget {budget:?}");
                    assert!(stats.distance_computations <= db.len() as u64, "{label}");
                }
            }
        }
    }
}

#[test]
fn knn_zero_is_empty_and_free_on_every_backend() {
    // k = 0 asks for nothing, so no backend evaluates anything — not
    // even the tombstone over-fetch of a corpus with deletes.
    let db = corpus(30, 6, 3, 59);
    let opts = QueryOptions::new().k(0);
    for mut index in backends(&db, &Levenshtein) {
        for tombstoned in [false, true] {
            if tombstoned {
                assert_eq!(index.delete(3), Ok(true));
                assert_eq!(index.delete(17), Ok(true));
            }
            let label = format!("{} tombstoned: {tombstoned}", index.backend_name());
            let (hits, stats) = index.knn(b"abc", &Levenshtein, &opts).unwrap();
            assert!(hits.is_empty(), "{label}");
            assert_eq!(stats.distance_computations, 0, "{label}");
        }
    }
}

#[test]
fn empty_corpus_is_a_typed_error_on_every_backend() {
    let empty: Vec<Vec<u8>> = Vec::new();
    for index in backends(&empty, &Levenshtein) {
        let label = index.backend_name();
        assert_eq!(index.len(), 0, "{label}");
        let opts = QueryOptions::new();
        assert_eq!(
            index.nn(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index.knn(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index.range(b"abc", &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(
            index
                .nn_batch(&[b"abc".to_vec()], &Levenshtein, &opts)
                .unwrap_err(),
            SearchError::EmptyDatabase,
            "{label}"
        );
        assert_eq!(index.item(0), None, "{label}");
    }
}

#[test]
fn batch_paths_match_single_paths_behind_the_trait() {
    let db = corpus(40, 7, 3, 47);
    let queries = corpus(10, 7, 3, 471);
    for index in backends(&db, &Levenshtein) {
        let label = index.backend_name();
        let opts = QueryOptions::new().threads(3);
        let nn_batch = index.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        let knn_batch = index
            .knn_batch(&queries, &Levenshtein, &QueryOptions::new().k(3).threads(3))
            .unwrap();
        for (q, ((b_nn, b_stats), (b_knn, b_knn_stats))) in
            queries.iter().zip(nn_batch.iter().zip(&knn_batch))
        {
            let (s_nn, s_stats) = index.nn(q, &Levenshtein, &opts).unwrap();
            let (b_nn, s_nn) = (b_nn.unwrap(), s_nn.unwrap());
            assert_eq!(
                (b_nn.index, b_nn.distance.to_bits(), *b_stats),
                (s_nn.index, s_nn.distance.to_bits(), s_stats),
                "{label} query {q:?}"
            );
            let (s_knn, s_knn_stats) = index
                .knn(q, &Levenshtein, &QueryOptions::new().k(3))
                .unwrap();
            assert_eq!(key(b_knn), key(&s_knn), "{label} query {q:?}");
            assert_eq!(b_knn_stats, &s_knn_stats, "{label} query {q:?}");
        }
    }
}

#[test]
fn facade_end_to_end_with_sharding_and_range() {
    // The acceptance-criteria scenario: Database::builder with shards,
    // plus range queries through a serve session.
    use cned::serve::{Request, Response, ResponseBody, ServeSession, Ticket};
    use std::sync::Arc;
    let words = corpus(60, 6, 3, 53);
    let db = Database::builder(words.clone())
        .metric(Metric::Levenshtein)
        .backend(Backend::Laesa { pivots: 4 })
        .shards(4)
        .build()
        .unwrap();
    assert_eq!(db.index().backend_name(), "sharded");
    let probe = words[11].clone();
    let (nn, _) = db.nn(&probe).unwrap();
    assert_eq!(nn.unwrap().distance, 0.0);
    let (hits, _) = db.range(&probe, 1.0).unwrap();
    let oracle: Vec<(usize, u64)> = oracle_sorted(&words, &probe, db.metric())
        .into_iter()
        .take_while(|&(_, d)| d <= 1.0)
        .map(|(i, d)| (i, d.to_bits()))
        .collect();
    assert_eq!(key(&hits), oracle);
    // Range through a serve session, in order with an insert barrier.
    let index = ShardedIndex::try_build(
        words.clone(),
        ShardConfig {
            shards: 4,
            pivots_per_shard: 4,
            compact_threshold: 16,
            ..ShardConfig::default()
        },
        &Levenshtein,
    )
    .unwrap();
    let session = ServeSession::spawn(index, Arc::new(Levenshtein));
    let far = b"zzzzz".to_vec();
    let tickets = session
        .submit_batch(vec![
            Request::Range {
                query: far.clone(),
                radius: 0.0,
            },
            Request::Insert { item: far.clone() },
            Request::Range {
                query: far.clone(),
                radius: 0.0,
            },
        ])
        .unwrap();
    let responses: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
    session.shutdown();
    let ResponseBody::Range { neighbours, .. } = &responses[0].body else {
        panic!("expected Range, got {:?}", responses[0]);
    };
    assert!(neighbours.is_empty());
    let ResponseBody::Range { neighbours, .. } = &responses[2].body else {
        panic!("expected Range, got {:?}", responses[2]);
    };
    assert_eq!(key(neighbours), vec![(words.len(), 0.0f64.to_bits())]);
}
