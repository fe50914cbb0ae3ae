//! AESA — Approximating and Eliminating Search Algorithm.
//!
//! The quadratic-memory ancestor of LAESA: preprocessing stores the
//! **full pairwise distance matrix** of the database (`O(n²)` time and
//! memory), and at query time *every* computed element acts as a
//! pivot, tightening the lower bound of all remaining candidates. AESA
//! famously achieves an (empirically) constant number of distance
//! computations per query — at a preprocessing price that is
//! prohibitive for large `n`, which is exactly the gap LAESA \[5\]
//! closes. Included as the reference point discussed with \[6\]
//! (Rico-Juan & Micó compare AESA and LAESA with string edit
//! distances).

use crate::collect::{AnyCollector, Collector};
use crate::error::SearchError;
use crate::index::MetricIndex;
use crate::parallel::par_map;
use crate::tombstone::TombstoneSet;
use crate::{sanitise_distance, SearchStats};
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;

/// An AESA index: the full pairwise distance matrix.
pub struct Aesa<S: Symbol> {
    db: Vec<Vec<S>>,
    /// Row-major `n × n` matrix; `matrix[i*n + j] = d(db[i], db[j])`.
    matrix: Vec<f64>,
    preprocessing_computations: u64,
    tombstones: TombstoneSet,
}

impl<S: Symbol> Aesa<S> {
    /// Build the full matrix: `n·(n−1)/2` distance computations,
    /// fanned out across cores (see [`crate::parallel`]; the strided
    /// work split balances the triangle's shrinking rows). Each worker
    /// prepares row `i`'s element once and streams it against
    /// `j > i`, so for `d_E` the Myers `Peq` cache is built `n` times
    /// instead of `n²/2`.
    pub fn build<D: Distance<S> + ?Sized>(db: Vec<Vec<S>>, dist: &D) -> Aesa<S> {
        let n = db.len();
        let upper_rows: Vec<Vec<f64>> = par_map(n, |i| {
            let prepared = dist.prepare(&db[i]);
            ((i + 1)..n).map(|j| prepared.distance_to(&db[j])).collect()
        });
        let mut matrix = vec![0.0f64; n * n];
        for (i, row) in upper_rows.iter().enumerate() {
            for (off, &d) in row.iter().enumerate() {
                let j = i + 1 + off;
                matrix[i * n + j] = d;
                matrix[j * n + i] = d;
            }
        }
        Aesa {
            db,
            matrix,
            preprocessing_computations: (n * n.saturating_sub(1) / 2) as u64,
            tombstones: TombstoneSet::new(),
        }
    }

    /// The database the index was built over.
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Distance computations spent building the matrix.
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The search loop: every element it evaluates is offered to
    /// `collector` (see [`crate::collect`]).
    ///
    /// Every computed element is a pivot in AESA — its exact distance
    /// tightens all remaining lower bounds — so unlike LAESA there is
    /// no bounded-evaluation shortcut to take here; a finite radius
    /// still pays off through earlier candidate elimination. The next
    /// element evaluated is always the live one with the minimal
    /// (lower bound, index).
    fn search_with<C: Collector>(
        &self,
        prepared: &dyn PreparedQuery<S>,
        collector: &mut C,
    ) -> SearchStats {
        let n = self.db.len();
        let mut alive = vec![true; n];
        let mut lower = vec![0.0f64; n];
        let mut n_alive = n;
        let mut computations = 0u64;
        let mut selected = (n > 0).then_some(0usize);

        while let Some(s) = selected.take() {
            let d = sanitise_distance(prepared.distance_to(&self.db[s]));
            computations += 1;
            collector.offer(s, d);
            alive[s] = false;
            n_alive -= 1;

            let bound = collector.budget() + crate::ELIMINATION_SLACK;
            let row = &self.matrix[s * n..(s + 1) * n];
            let mut next: Option<(usize, f64)> = None;
            for u in 0..n {
                if !alive[u] {
                    continue;
                }
                let g = (d - row[u]).abs();
                if g > lower[u] {
                    lower[u] = g;
                }
                if lower[u] > bound {
                    alive[u] = false;
                    n_alive -= 1;
                } else if next.is_none_or(|(_, bg)| lower[u] < bg) {
                    next = Some((u, lower[u]));
                }
            }
            if n_alive == 0 {
                break;
            }
            // `next` may have been eliminated later in the same sweep
            // or missed (eliminated candidates skipped) — re-scan only
            // if needed.
            selected = match next {
                Some((u, _)) if alive[u] => Some(u),
                _ => {
                    let mut fallback: Option<(usize, f64)> = None;
                    for u in 0..n {
                        if alive[u] && fallback.is_none_or(|(_, bg)| lower[u] < bg) {
                            fallback = Some((u, lower[u]));
                        }
                    }
                    fallback.map(|(u, _)| u)
                }
            };
        }

        SearchStats {
            distance_computations: computations,
        }
    }
}

impl<S: Symbol> MetricIndex<S> for Aesa<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "aesa"
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.db.get(i).map(Vec::as_slice)
    }

    fn search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        collector: &mut AnyCollector,
        _pivot_budget: Option<usize>,
    ) -> SearchStats {
        match collector {
            AnyCollector::TopK(c) => self.search_with(prepared, c),
            AnyCollector::Within(c) => self.search_with(prepared, c),
        }
    }

    fn delete(&mut self, index: usize) -> Result<bool, SearchError> {
        if index >= self.db.len() {
            return Ok(false);
        }
        Ok(self.tombstones.insert(index))
    }

    fn deleted(&self) -> usize {
        self.tombstones.count()
    }

    fn is_deleted(&self, i: usize) -> bool {
        self.tombstones.contains(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QueryOptions;
    use crate::laesa::Laesa;
    use crate::linear::LinearIndex;
    use crate::pivots::select_pivots_max_sum;
    use crate::Neighbour;
    use cned_core::levenshtein::Levenshtein;

    fn nn_with(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        opts: &QueryOptions,
    ) -> (Option<Neighbour>, SearchStats) {
        idx.nn(q, &Levenshtein, opts).unwrap()
    }

    fn nn(idx: &dyn MetricIndex<u8>, q: &[u8]) -> (Neighbour, SearchStats) {
        let (nb, stats) = nn_with(idx, q, &QueryOptions::new());
        (nb.expect("infinite radius always finds"), stats)
    }

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

    #[test]
    fn empty_db_is_a_typed_error() {
        let idx: Aesa<u8> = Aesa::build(Vec::new(), &Levenshtein);
        assert_eq!(
            idx.nn(b"x", &Levenshtein, &QueryOptions::new()),
            Err(SearchError::EmptyDatabase)
        );
    }

    #[test]
    fn matrix_preprocessing_count() {
        let db = corpus(20, 6, 3, 9);
        let idx = Aesa::build(db, &Levenshtein);
        assert_eq!(idx.preprocessing_computations(), 20 * 19 / 2);
    }

    #[test]
    fn agrees_with_linear_scan() {
        let db = corpus(100, 9, 3, 19);
        let queries = corpus(30, 9, 3, 191);
        let idx = Aesa::build(db.clone(), &Levenshtein);
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q);
            let (a_nn, _) = nn(&idx, q);
            assert_eq!(a_nn.distance, l_nn.distance, "query {q:?}");
        }
    }

    #[test]
    fn aesa_uses_no_more_computations_than_laesa_on_average() {
        let db = corpus(200, 10, 3, 29);
        let queries = corpus(25, 10, 3, 291);
        let aesa = Aesa::build(db.clone(), &Levenshtein);
        let pivots = select_pivots_max_sum(&db, 12, 0, &Levenshtein);
        let laesa = Laesa::try_build(db, pivots, &Levenshtein).unwrap();
        let (mut a_total, mut l_total) = (0u64, 0u64);
        for q in &queries {
            a_total += nn(&aesa, q).1.distance_computations;
            l_total += nn(&laesa, q).1.distance_computations;
        }
        assert!(
            a_total <= l_total,
            "AESA ({a_total}) should not exceed LAESA ({l_total}) in total computations"
        );
    }

    #[test]
    fn finds_exact_member_with_few_computations() {
        let db = corpus(150, 8, 3, 41);
        let probe = db[42].clone();
        let idx = Aesa::build(db, &Levenshtein);
        let (nn, stats) = nn(&idx, &probe);
        assert_eq!(nn.distance, 0.0);
        assert!(stats.distance_computations < 150);
    }

    #[test]
    fn batch_matches_single_queries() {
        let db = corpus(80, 9, 3, 47);
        let queries = corpus(15, 9, 3, 471);
        let idx = Aesa::build(db, &Levenshtein);
        let opts = QueryOptions::new();
        let batch = idx.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        for (q, (found, stats)) in queries.iter().zip(&batch) {
            let (snn, sstats) = nn(&idx, q);
            assert_eq!(found.unwrap().distance, snn.distance, "query {q:?}");
            assert_eq!(*stats, sstats);
        }
        let empty: Aesa<u8> = Aesa::build(Vec::new(), &Levenshtein);
        assert_eq!(
            empty.nn_batch(&queries, &Levenshtein, &opts).unwrap_err(),
            SearchError::EmptyDatabase
        );
    }

    #[test]
    fn knn_and_range_match_linear_oracles() {
        let db = corpus(90, 9, 3, 61);
        let queries = corpus(15, 9, 3, 611);
        let idx = Aesa::build(db.clone(), &Levenshtein);
        for q in &queries {
            let prepared = cned_core::metric::Distance::<u8>::prepare(&Levenshtein, q);
            let all: Vec<(usize, f64)> = db
                .iter()
                .enumerate()
                .map(|(i, item)| (i, prepared.distance_to(item)))
                .collect();
            // k-NN oracle: sort-and-truncate under the canonical order.
            let mut sorted = all.clone();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let (knn, _) = idx.knn(q, &Levenshtein, &QueryOptions::new().k(5)).unwrap();
            let got: Vec<(usize, f64)> = knn.iter().map(|n| (n.index, n.distance)).collect();
            assert_eq!(got, sorted[..5].to_vec(), "query {q:?}");
            // Range oracle: filter at each radius.
            for radius in [0.0, 1.0, 3.0] {
                let oracle: Vec<(usize, f64)> = sorted
                    .iter()
                    .copied()
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                let (hits, stats) = idx
                    .range(q, &Levenshtein, &QueryOptions::new().radius(radius))
                    .unwrap();
                let got: Vec<(usize, f64)> = hits.iter().map(|n| (n.index, n.distance)).collect();
                assert_eq!(got, oracle, "query {q:?} radius {radius}");
                assert!(stats.distance_computations <= db.len() as u64);
            }
        }
    }

    #[test]
    fn radius_seeded_nn_prunes_and_excludes() {
        let db = corpus(60, 8, 3, 67);
        let idx = Aesa::build(db.clone(), &Levenshtein);
        for q in corpus(8, 8, 3, 671) {
            let (nb, _) = nn(&idx, &q);
            let (at, _) = nn_with(&idx, &q, &QueryOptions::new().radius(nb.distance));
            let at = at.unwrap();
            assert_eq!((at.index, at.distance), (nb.index, nb.distance));
            if nb.distance > 0.0 {
                let below = QueryOptions::new().radius(nb.distance - 0.5);
                let (found, _) = nn_with(&idx, &q, &below);
                assert!(found.is_none(), "query {q:?}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        let db = corpus(60, 8, 3, 51);
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(4));
        let parallel = Aesa::build(db.clone(), &Levenshtein);
        crate::parallel::set_thread_override(Some(1));
        let sequential = Aesa::build(db, &Levenshtein);
        crate::parallel::set_thread_override(None);
        assert_eq!(parallel.matrix, sequential.matrix);
        assert_eq!(
            parallel.preprocessing_computations(),
            sequential.preprocessing_computations()
        );
    }
}
