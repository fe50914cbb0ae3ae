//! LAESA — Linear AESA (Micó, Oncina & Vidal 1994, ref \[5\]).
//!
//! Preprocessing stores the distances from a small set of **pivots**
//! (base prototypes) to every database element: `O(p·n)` distance
//! computations, `O(p·n)` memory — *linear* in `n` for fixed `p`,
//! which is LAESA's improvement over AESA's quadratic matrix.
//!
//! At query time the algorithm interleaves two activities:
//!
//! 1. compute the real distance from the query to a selected element
//!    (pivots first, in order of their current lower bound);
//! 2. after each computed *pivot* distance `d(q, p)`, tighten every
//!    alive candidate's lower bound
//!    `G[u] ← max(G[u], |d(q, p) − d(p, u)|)` using the precomputed
//!    row, then **eliminate** candidates whose bound exceeds the best
//!    distance found so far.
//!
//! With a metric distance the triangle inequality guarantees
//! `G[u] ≤ d(q, u)`, so elimination never discards the true nearest
//! neighbour. With a non-metric (e.g. `d_max`) the bound is merely a
//! heuristic and the answer may be approximate — exactly the effect
//! visible in Table 2 of the paper.

use crate::collect::{AnyCollector, Collector};
use crate::error::SearchError;
use crate::index::MetricIndex;
use crate::parallel::par_map;
use crate::tombstone::TombstoneSet;
use crate::{sanitise_distance, SearchStats};
use cned_core::lanes::LANES;
use cned_core::metric::{Distance, PreparedQuery};
use cned_core::Symbol;
use core::cmp::Reverse;
use std::collections::BinaryHeap;

/// A LAESA index over an owned database of strings.
#[derive(Debug)]
pub struct Laesa<S: Symbol> {
    db: Vec<Vec<S>>,
    /// Indices (into `db`) of the pivot elements.
    pivots: Vec<usize>,
    /// `rows[r][u]` = distance from pivot `pivots[r]` to `db[u]`.
    rows: Vec<Vec<f64>>,
    /// For pivot elements, their row number; `usize::MAX` otherwise.
    pivot_row: Vec<usize>,
    /// Distance computations spent during preprocessing.
    preprocessing_computations: u64,
    /// Logically deleted indices; the pivot table keeps its physical
    /// layout and the dead are filtered at answer emission.
    tombstones: TombstoneSet,
}

impl<S: Symbol> Laesa<S> {
    /// Build the index: store the pivot-to-everything distance rows.
    ///
    /// The `p·n` distance computations are fanned out across cores
    /// (see [`crate::parallel`]); each worker prepares its pivot once
    /// and streams it against its share of the database.
    ///
    /// `pivots` are indices into `db` (typically from
    /// [`crate::pivots::select_pivots_max_sum`]); an out-of-range or
    /// repeated pivot is a typed error
    /// ([`SearchError::PivotOutOfRange`] /
    /// [`SearchError::DuplicatePivot`]), not a panic.
    pub fn try_build<D: Distance<S> + ?Sized>(
        db: Vec<Vec<S>>,
        pivots: Vec<usize>,
        dist: &D,
    ) -> Result<Laesa<S>, SearchError> {
        let n = db.len();
        let pivot_row = pivot_row_of(n, &pivots)?;
        let refs: Vec<&[S]> = db.iter().map(Vec::as_slice).collect();
        let rows: Vec<Vec<f64>> = par_map(pivots.len(), |r| {
            let prepared = dist.prepare(&db[pivots[r]]);
            let mut row = vec![0.0f64; n];
            prepared.distance_to_batch(&refs, &mut row);
            // NaN rows would silently disable elimination for the
            // affected candidates; reject them at build time.
            for d in row.iter_mut() {
                *d = sanitise_distance(*d);
            }
            row
        });
        let preprocessing_computations = (pivots.len() * n) as u64;
        Ok(Laesa {
            db,
            pivots,
            rows,
            pivot_row,
            preprocessing_computations,
            tombstones: TombstoneSet::new(),
        })
    }

    /// The database the index was built over.
    pub fn database(&self) -> &[Vec<S>] {
        &self.db
    }

    /// Unwrap the index back into its database (dropping the pivot
    /// rows) — e.g. for rebuilding merged shards during rebalancing.
    pub fn into_database(self) -> Vec<Vec<S>> {
        self.db
    }

    /// Pivot indices.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Distance computations spent building the index.
    pub fn preprocessing_computations(&self) -> u64 {
        self.preprocessing_computations
    }

    /// The pivot distance table: `rows[r][u]` is the distance from
    /// pivot `pivots()[r]` to `database()[u]`. This is the expensive
    /// `O(p·n)` state a snapshot exists to preserve (`cned-store`
    /// serialises it and feeds it back through [`Laesa::from_parts`]).
    pub fn pivot_rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Reassemble an index from previously exported state — the
    /// snapshot-restore path, skipping the `p·n` distance
    /// computations of [`Laesa::try_build`] entirely.
    ///
    /// `rows` must be the table a build over `(db, pivots)` would have
    /// produced (shape-checked here; values are trusted — a checksum
    /// guards them at the storage layer). `preprocessing` is the
    /// original build's computation count, preserved so a restored
    /// index reports identical statistics.
    pub fn from_parts(
        db: Vec<Vec<S>>,
        pivots: Vec<usize>,
        rows: Vec<Vec<f64>>,
        preprocessing: u64,
    ) -> Result<Laesa<S>, SearchError> {
        let n = db.len();
        let pivot_row = pivot_row_of(n, &pivots)?;
        if rows.len() != pivots.len() || rows.iter().any(|row| row.len() != n) {
            return Err(SearchError::Persistence {
                reason: format!(
                    "pivot table shape {}x{} does not match {} pivots over {} items",
                    rows.len(),
                    rows.first().map_or(0, Vec::len),
                    pivots.len(),
                    n
                ),
            });
        }
        Ok(Laesa {
            db,
            pivots,
            rows,
            pivot_row,
            preprocessing_computations: preprocessing,
            tombstones: TombstoneSet::new(),
        })
    }

    /// The tombstone set (for snapshot encoding).
    pub fn tombstones(&self) -> &TombstoneSet {
        &self.tombstones
    }

    /// Restore a tombstone set (snapshot decode / replica sync).
    pub fn set_tombstones(&mut self, tombstones: TombstoneSet) {
        self.tombstones = tombstones;
    }

    /// The search loop, run once over a prepared query with every
    /// evaluated element offered to `collector` (see
    /// [`crate::collect`]); `pivot_budget` limits it to the first `n`
    /// pivots.
    ///
    /// Because greedy max-sum selection is incremental, the first `p`
    /// pivots of an index built with `P ≥ p` pivots are exactly the
    /// selection a `p`-pivot build would produce — so a pivot-count
    /// sweep (Figures 3–4) can reuse one index instead of rebuilding
    /// per point. Pivots beyond the budget are treated as ordinary
    /// candidates.
    ///
    /// The sharded serving layer (`cned-serve`) calls this directly: it
    /// prepares the query **once** — so the per-query caches (Myers
    /// `Peq` bitmaps, contextual DP scratch) are reused across the
    /// pivot set of *every* shard — and hands each later shard a
    /// collector whose radius is the running cross-shard budget, which
    /// acts exactly like an already-known best: it bounds the
    /// non-pivot candidate evaluations *and* feeds elimination from
    /// the first pivot onwards.
    ///
    /// 1. **Pivots.** Active pivots are evaluated exactly — the first
    ///    in build order, then always the live pivot with the minimal
    ///    (lower bound, index) — even beyond the budget, because their
    ///    exact values are what make the triangle-inequality lower
    ///    bounds (and therefore the answer) correct. After every pivot
    ///    the candidate and pivot live lists are tightened with the
    ///    pivot's precomputed row and **compacted** against the
    ///    budget, so per-round cost tracks the surviving set instead
    ///    of rescanning all `n` elements every round.
    /// 2. **Candidates.** The surviving plain candidates (their bounds
    ///    now frozen: no unevaluated active pivot remains that could
    ///    tighten them) are visited in (bound, index) order via a lazy
    ///    bound-ordered heap and scored through the lane-batched
    ///    bounded path. The budget is refreshed at every chunk
    ///    boundary; a stale budget only admits a superset of what the
    ///    one-at-a-time sweep would, and the collector's canonical
    ///    ordering keeps the final answer identical.
    pub fn search_with<C: Collector>(
        &self,
        prepared: &dyn PreparedQuery<S>,
        pivot_budget: Option<usize>,
        collector: &mut C,
    ) -> SearchStats {
        let limit = pivot_budget.map_or(self.pivots.len(), |p| p.min(self.pivots.len()));
        let n = self.db.len();
        let mut lower = vec![0.0f64; n]; // G[u]
        let mut computations = 0u64;

        // Live plain candidates: everything that is not an active
        // pivot, ascending index (the canonical tie-break order).
        let mut cands: Vec<usize> = (0..n).filter(|&u| self.pivot_row[u] >= limit).collect();
        // Live active pivots, ascending index for the same tie-break.
        let mut live_pivots: Vec<usize> = self.pivots[..limit].to_vec();
        live_pivots.sort_unstable();

        // Phase 1: the first *built* pivot (build order, not index
        // order); afterwards the live pivot with minimal bound.
        let mut selected = (limit > 0).then(|| self.pivots[0]);
        while let Some(s) = selected.take() {
            let pos = live_pivots
                .iter()
                .position(|&u| u == s)
                .expect("live pivot");
            live_pivots.remove(pos);
            // Pivot distances feed the lower-bound updates, so they
            // are computed exactly (never bounded).
            let d = sanitise_distance(prepared.distance_to(&self.db[s]));
            computations += 1;
            collector.offer(s, d);
            let slack = collector.budget() + crate::ELIMINATION_SLACK;

            // Tighten every live bound with the pivot's row and drop
            // eliminated entries in the same pass.
            let row = &self.rows[self.pivot_row[s]];
            let keep = |u: &usize, lower: &mut [f64]| {
                let g = (d - row[*u]).abs();
                if g > lower[*u] {
                    lower[*u] = g;
                }
                lower[*u] <= slack
            };
            cands.retain(|u| keep(u, &mut lower));
            live_pivots.retain(|u| keep(u, &mut lower));

            // Next pivot: minimal (bound, index) — ascending order plus
            // strict `<` keeps the first (smallest-index) minimum.
            let mut next: Option<(usize, f64)> = None;
            for &u in &live_pivots {
                if next.is_none_or(|(_, bg)| lower[u] < bg) {
                    next = Some((u, lower[u]));
                }
            }
            selected = next.map(|(u, _)| u);
        }

        // Phase 2: surviving candidates in frozen (bound, index) order.
        let mut heap = Self::heap_of_frozen_bounds(&cands, &lower);
        let mut chunk = [0usize; LANES];
        let mut targets: [&[S]; LANES] = [&[]; LANES];
        let mut results: [Option<f64>; LANES] = [None; LANES];
        loop {
            let budget = collector.budget();
            let take = Self::pop_chunk(&mut heap, budget + crate::ELIMINATION_SLACK, &mut chunk);
            if take == 0 {
                // The heap's minimum exceeds the budget: every
                // remaining candidate is eliminated too.
                break;
            }
            for (t, &u) in chunk[..take].iter().enumerate() {
                targets[t] = &self.db[u];
            }
            prepared.distance_to_batch_bounded(&targets[..take], budget, &mut results[..take]);
            computations += take as u64;
            for (i, d) in results[..take].iter().enumerate() {
                if let Some(d) = *d {
                    collector.offer(chunk[i], d);
                }
            }
        }

        SearchStats {
            distance_computations: computations,
        }
    }

    /// Lazy bound-ordered candidate feed for the Phase-2 sweep.
    ///
    /// Building the heap is `O(n)` (vs `O(n log n)` for a full sort)
    /// and only the visited prefix pays `log n` per pop — on
    /// low-dimensional corpora the shrinking budget stops the sweep
    /// after a handful of chunks, so almost none of the eliminated tail
    /// is ever ordered.
    ///
    /// Pops arrive in exactly the frozen `(lower bound, index)` order a
    /// sort would produce: bounds are built from `abs()` of sanitised
    /// distances, so they are non-negative and never NaN, which makes
    /// `f64::to_bits` order coincide with numeric (`total_cmp`) order.
    fn heap_of_frozen_bounds(cands: &[usize], lower: &[f64]) -> BinaryHeap<Reverse<(u64, usize)>> {
        cands
            .iter()
            .map(|&u| Reverse((lower[u].to_bits(), u)))
            .collect()
    }

    /// Pop the next lane-width chunk of candidates whose frozen bound
    /// is `<= slack`, in (bound, index) order. Returns the number of
    /// candidates written to `out`; `0` ends the sweep (the heap's
    /// minimum already exceeds the budget, so every remaining
    /// candidate is eliminated).
    fn pop_chunk(
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
        slack: f64,
        out: &mut [usize; LANES],
    ) -> usize {
        let mut take = 0;
        while take < LANES {
            let Some(&Reverse((bits, u))) = heap.peek() else {
                break;
            };
            if f64::from_bits(bits) > slack {
                break;
            }
            heap.pop();
            out[take] = u;
            take += 1;
        }
        take
    }
}

/// Validate a pivot list over `n` items and map each item to its pivot
/// row (`usize::MAX` for non-pivots): an out-of-range or repeated pivot
/// is a typed error.
fn pivot_row_of(n: usize, pivots: &[usize]) -> Result<Vec<usize>, SearchError> {
    let mut pivot_row = vec![usize::MAX; n];
    for (r, &p) in pivots.iter().enumerate() {
        if p >= n {
            return Err(SearchError::PivotOutOfRange { pivot: p, len: n });
        }
        if pivot_row[p] != usize::MAX {
            return Err(SearchError::DuplicatePivot { pivot: p });
        }
        pivot_row[p] = r;
    }
    Ok(pivot_row)
}

impl<S: Symbol> MetricIndex<S> for Laesa<S> {
    fn len(&self) -> usize {
        self.db.len()
    }

    fn backend_name(&self) -> &'static str {
        "laesa"
    }

    fn item(&self, i: usize) -> Option<&[S]> {
        self.db.get(i).map(Vec::as_slice)
    }

    fn search(
        &self,
        prepared: &dyn PreparedQuery<S>,
        collector: &mut AnyCollector,
        pivot_budget: Option<usize>,
    ) -> SearchStats {
        match collector {
            AnyCollector::TopK(c) => self.search_with(prepared, pivot_budget, c),
            AnyCollector::Within(c) => self.search_with(prepared, pivot_budget, c),
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

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::QueryOptions;
    use crate::linear::LinearIndex;
    use crate::pivots::select_pivots_max_sum;
    use crate::Neighbour;
    use cned_core::contextual::heuristic::ContextualHeuristic;
    use cned_core::levenshtein::Levenshtein;
    use cned_core::normalized::yujian_bo::YujianBo;

    /// Deterministic pseudo-random word corpus.
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

    fn build(db: Vec<Vec<u8>>, pivots: Vec<usize>, dist: &dyn Distance<u8>) -> Laesa<u8> {
        Laesa::try_build(db, pivots, dist).unwrap()
    }

    /// Nearest neighbour through the trait, optionally pivot-limited.
    fn nn_with(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
        opts: &QueryOptions,
    ) -> (Neighbour, SearchStats) {
        let (nb, stats) = idx.nn(q, dist, opts).unwrap();
        (nb.expect("infinite radius always finds"), stats)
    }

    fn nn(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
    ) -> (Neighbour, SearchStats) {
        nn_with(idx, q, dist, &QueryOptions::new())
    }

    fn knn(
        idx: &dyn MetricIndex<u8>,
        q: &[u8],
        dist: &dyn Distance<u8>,
        k: usize,
    ) -> (Vec<Neighbour>, SearchStats) {
        idx.knn(q, dist, &QueryOptions::new().k(k)).unwrap()
    }

    fn key(ns: &[Neighbour]) -> Vec<(usize, u64)> {
        ns.iter().map(|n| (n.index, n.distance.to_bits())).collect()
    }

    #[test]
    fn empty_db_is_a_typed_error() {
        let idx: Laesa<u8> = build(Vec::new(), Vec::new(), &Levenshtein);
        assert_eq!(
            idx.nn(b"abc", &Levenshtein, &QueryOptions::new()),
            Err(SearchError::EmptyDatabase)
        );
    }

    #[test]
    fn finds_exact_member() {
        let db = corpus(50, 8, 3, 7);
        let pivots = select_pivots_max_sum(&db, 5, 0, &Levenshtein);
        let probe = db[17].clone();
        let idx = build(db, pivots, &Levenshtein);
        let (nn, _) = nn(&idx, &probe, &Levenshtein);
        assert_eq!(nn.distance, 0.0);
        assert_eq!(idx.database()[nn.index], probe);
    }

    #[test]
    fn agrees_with_linear_scan_for_levenshtein() {
        let db = corpus(120, 10, 3, 11);
        let queries = corpus(40, 10, 3, 99);
        let pivots = select_pivots_max_sum(&db, 8, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q, &Levenshtein);
            let (a_nn, _) = nn(&idx, q, &Levenshtein);
            assert_eq!(a_nn.distance, l_nn.distance, "query {q:?}");
        }
    }

    #[test]
    fn agrees_with_linear_scan_for_yujian_bo() {
        let db = corpus(100, 9, 3, 5);
        let queries = corpus(30, 9, 3, 123);
        let pivots = select_pivots_max_sum(&db, 10, 0, &YujianBo);
        let idx = build(db.clone(), pivots, &YujianBo);
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q, &YujianBo);
            let (a_nn, _) = nn(&idx, q, &YujianBo);
            assert!((a_nn.distance - l_nn.distance).abs() < 1e-12, "query {q:?}");
        }
    }

    #[test]
    fn agrees_with_linear_scan_for_contextual_heuristic() {
        // d_C,h is not formally a metric, but in practice (and in the
        // paper's Table 2) LAESA over it returns the linear-scan result
        // on natural data. If this ever flakes the assertion below
        // should be relaxed — with this fixed corpus it holds.
        let db = corpus(100, 9, 3, 21);
        let queries = corpus(30, 9, 3, 77);
        let pivots = select_pivots_max_sum(&db, 10, 0, &ContextualHeuristic);
        let idx = build(db.clone(), pivots, &ContextualHeuristic);
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q, &ContextualHeuristic);
            let (a_nn, _) = nn(&idx, q, &ContextualHeuristic);
            assert!((a_nn.distance - l_nn.distance).abs() < 1e-9, "query {q:?}");
        }
    }

    #[test]
    fn agrees_with_linear_scan_for_exact_contextual_and_gates_fire() {
        // d_C is a metric, so LAESA must reproduce the linear-scan
        // neighbour; along the way the bounded engine's cheap gates
        // (not the cubic DP) should be absorbing most of the budgeted
        // comparisons. The gate counter is process-global and can only
        // grow concurrently, so `>` is race-safe.
        use cned_core::contextual::bounded::gate_rejections;
        use cned_core::contextual::exact::Contextual;
        let db = corpus(80, 9, 3, 29);
        let queries = corpus(15, 9, 3, 291);
        let pivots = select_pivots_max_sum(&db, 8, 0, &Contextual);
        let idx = build(db.clone(), pivots, &Contextual);
        let gates_before = gate_rejections();
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q, &Contextual);
            let (a_nn, _) = nn(&idx, q, &Contextual);
            assert!((a_nn.distance - l_nn.distance).abs() < 1e-12, "query {q:?}");
        }
        assert!(
            gate_rejections() > gates_before,
            "searching d_C should reject candidates through the bounded gates"
        );
    }

    #[test]
    fn uses_fewer_computations_than_linear_scan() {
        let db = corpus(300, 10, 3, 31);
        let queries = corpus(20, 10, 3, 301);
        let pivots = select_pivots_max_sum(&db, 24, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        let mut total = 0u64;
        for q in &queries {
            let (_, stats) = nn(&idx, q, &Levenshtein);
            total += stats.distance_computations;
        }
        let avg = total as f64 / queries.len() as f64;
        assert!(
            avg < db.len() as f64 * 0.8,
            "LAESA should beat exhaustive scan on average: avg {avg} vs n {}",
            db.len()
        );
    }

    #[test]
    fn computation_count_never_exceeds_db_size() {
        let db = corpus(80, 8, 2, 13);
        let pivots = select_pivots_max_sum(&db, 6, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        for q in corpus(20, 8, 2, 44) {
            let (_, stats) = nn(&idx, &q, &Levenshtein);
            assert!(stats.distance_computations <= db.len() as u64);
        }
    }

    #[test]
    fn knn_matches_linear_scan_distances() {
        let db = corpus(150, 9, 3, 17);
        let queries = corpus(15, 9, 3, 171);
        let pivots = select_pivots_max_sum(&db, 12, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        for q in &queries {
            let (l_knn, _) = knn(&LinearIndex::new(db.clone()), q, &Levenshtein, 5);
            let (a_knn, _) = knn(&idx, q, &Levenshtein, 5);
            assert_eq!(a_knn.len(), 5);
            let ld: Vec<f64> = l_knn.iter().map(|n| n.distance).collect();
            let ad: Vec<f64> = a_knn.iter().map(|n| n.distance).collect();
            assert_eq!(ld, ad, "query {q:?}");
        }
    }

    #[test]
    fn zero_pivots_degenerates_to_near_exhaustive_but_stays_correct() {
        let db = corpus(60, 8, 3, 23);
        let idx = build(db.clone(), Vec::new(), &Levenshtein);
        for q in corpus(10, 8, 3, 67) {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), &q, &Levenshtein);
            let (a_nn, stats) = nn(&idx, &q, &Levenshtein);
            assert_eq!(a_nn.distance, l_nn.distance);
            // Without pivots there are no lower bounds: every element
            // must be computed.
            assert_eq!(stats.distance_computations, db.len() as u64);
        }
    }

    #[test]
    fn preprocessing_count_is_pivots_times_n() {
        let db = corpus(40, 8, 3, 3);
        let pivots = select_pivots_max_sum(&db, 4, 0, &Levenshtein);
        let idx = build(db, pivots, &Levenshtein);
        assert_eq!(idx.preprocessing_computations(), 4 * 40);
    }

    #[test]
    fn pivot_budget_matches_dedicated_builds() {
        // A prefix-limited query over a 20-pivot index must return the
        // same answer (and computation count) as an index built with
        // only the prefix, because greedy selection is incremental.
        let db = corpus(150, 9, 3, 53);
        let queries = corpus(10, 9, 3, 531);
        let pivots20 = select_pivots_max_sum(&db, 20, 0, &Levenshtein);
        let big = build(db.clone(), pivots20.clone(), &Levenshtein);
        for p in [0usize, 3, 8, 20] {
            let small = build(db.clone(), pivots20[..p].to_vec(), &Levenshtein);
            let limited = QueryOptions::new().pivot_budget(p);
            for q in &queries {
                let (nn_a, st_a) = nn_with(&big, q, &Levenshtein, &limited);
                let (nn_b, st_b) = nn(&small, q, &Levenshtein);
                assert_eq!(
                    (nn_a.index, nn_a.distance.to_bits()),
                    (nn_b.index, nn_b.distance.to_bits()),
                    "p={p} q={q:?}"
                );
                assert_eq!(st_a, st_b, "p={p} q={q:?}");
                let (knn_a, kst_a) = big.knn(q, &Levenshtein, &limited.clone().k(4)).unwrap();
                let (knn_b, kst_b) = knn(&small, q, &Levenshtein, 4);
                assert_eq!(key(&knn_a), key(&knn_b), "p={p} q={q:?}");
                assert_eq!(kst_a, kst_b, "p={p} q={q:?}");
            }
        }
    }

    #[test]
    fn more_pivots_monotonically_reduce_computations_on_average() {
        let db = corpus(250, 10, 3, 61);
        let queries = corpus(30, 10, 3, 611);
        let pivots = select_pivots_max_sum(&db, 64, 0, &Levenshtein);
        let idx = build(db, pivots, &Levenshtein);
        let avg = |p: usize| -> f64 {
            let opts = QueryOptions::new().pivot_budget(p);
            let total: u64 = queries
                .iter()
                .map(|q| {
                    nn_with(&idx, q, &Levenshtein, &opts)
                        .1
                        .distance_computations
                })
                .sum();
            total as f64 / queries.len() as f64
        };
        // Not strictly monotone in general, but the large steps are:
        let (a0, a8, a64) = (avg(0), avg(8), avg(64));
        assert!(a8 < a0, "8 pivots ({a8}) should beat none ({a0})");
        assert!(a64 < a0, "64 pivots ({a64}) should beat none ({a0})");
    }

    #[test]
    fn bad_pivots_are_typed_errors() {
        let db = corpus(10, 5, 2, 1);
        assert_eq!(
            Laesa::try_build(db.clone(), vec![1, 1], &Levenshtein).unwrap_err(),
            SearchError::DuplicatePivot { pivot: 1 }
        );
        assert_eq!(
            Laesa::try_build(db, vec![10], &Levenshtein).unwrap_err(),
            SearchError::PivotOutOfRange { pivot: 10, len: 10 }
        );
    }

    #[test]
    fn range_matches_linear_scan_filter() {
        let db = corpus(120, 9, 3, 91);
        let queries = corpus(20, 9, 3, 911);
        let pivots = select_pivots_max_sum(&db, 10, 0, &Levenshtein);
        let idx = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
        for q in &queries {
            for radius in [0.0, 1.0, 2.0, 4.0] {
                let opts = QueryOptions::new().radius(radius);
                let (hits, stats) = MetricIndex::range(&idx, q, &Levenshtein, &opts).unwrap();
                // Oracle: full scan + filter + canonical sort.
                let prepared = cned_core::metric::Distance::<u8>::prepare(&Levenshtein, q);
                let mut oracle: Vec<(usize, f64)> = db
                    .iter()
                    .enumerate()
                    .map(|(i, item)| (i, prepared.distance_to(item)))
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let oracle: Vec<(usize, u64)> =
                    oracle.into_iter().map(|(i, d)| (i, d.to_bits())).collect();
                let got: Vec<(usize, u64)> = hits
                    .iter()
                    .map(|n| (n.index, n.distance.to_bits()))
                    .collect();
                assert_eq!(got, oracle, "query {q:?} radius {radius}");
                assert!(stats.distance_computations <= db.len() as u64);
            }
        }
    }

    #[test]
    fn range_pruning_saves_computations_at_small_radii() {
        let db = corpus(300, 10, 3, 93);
        let queries = corpus(15, 10, 3, 931);
        let pivots = select_pivots_max_sum(&db, 24, 0, &Levenshtein);
        let idx = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
        let opts = QueryOptions::new().radius(1.0);
        let total: u64 = queries
            .iter()
            .map(|q| {
                MetricIndex::range(&idx, q, &Levenshtein, &opts)
                    .unwrap()
                    .1
                    .distance_computations
            })
            .sum();
        let avg = total as f64 / queries.len() as f64;
        assert!(
            avg < db.len() as f64 * 0.8,
            "triangle pruning should skip most of the database: avg {avg} vs n {}",
            db.len()
        );
    }

    #[test]
    fn answers_match_the_linear_oracle_at_every_pivot_budget() {
        let db = corpus(100, 9, 3, 95);
        let queries = corpus(15, 9, 3, 951);
        let pivots = select_pivots_max_sum(&db, 8, 0, &Levenshtein);
        let idx = Laesa::try_build(db.clone(), pivots, &Levenshtein).unwrap();
        let oracle = LinearIndex::new(db.clone());
        for q in &queries {
            let (want_knn, _) = knn(&oracle, q, &Levenshtein, 4);
            for limit in [None, Some(0), Some(3), Some(8)] {
                let mut opts = QueryOptions::new();
                if let Some(p) = limit {
                    opts = opts.pivot_budget(p);
                }
                let (nb, stats) = nn_with(&idx, q, &Levenshtein, &opts);
                assert_eq!(
                    key(&[nb]),
                    key(&want_knn[..1]),
                    "query {q:?} limit {limit:?}"
                );
                assert!(stats.distance_computations <= db.len() as u64);
                let (got, _) = idx.knn(q, &Levenshtein, &opts.k(4)).unwrap();
                assert_eq!(key(&got), key(&want_knn), "query {q:?} limit {limit:?}");
            }
        }
    }

    #[test]
    fn batch_queries_match_single_queries() {
        let db = corpus(120, 10, 3, 57);
        let queries = corpus(25, 10, 3, 571);
        let pivots = select_pivots_max_sum(&db, 10, 0, &Levenshtein);
        let idx = build(db, pivots, &Levenshtein);
        let opts = QueryOptions::new();
        let batch = idx.nn_batch(&queries, &Levenshtein, &opts).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, (nb, stats)) in queries.iter().zip(&batch) {
            let (snn, sstats) = nn(&idx, q, &Levenshtein);
            assert_eq!(key(&[nb.unwrap()]), key(&[snn]), "query {q:?}");
            assert_eq!(*stats, sstats);
        }
        let kbatch = idx
            .knn_batch(&queries, &Levenshtein, &opts.clone().k(4))
            .unwrap();
        for (q, (nns, _)) in queries.iter().zip(&kbatch) {
            let (snns, _) = knn(&idx, q, &Levenshtein, 4);
            assert_eq!(key(nns), key(&snns), "query {q:?}");
        }
    }

    #[test]
    fn ties_resolve_to_ascending_index_with_duplicate_strings() {
        // Seed the corpus with duplicated strings so equal distances
        // are guaranteed; the LAESA visit order (pivot-driven) differs
        // from the linear scan's index order, so agreement here proves
        // the tie-break is by database index, not by visit order.
        let mut db = corpus(60, 6, 2, 41);
        let dups: Vec<Vec<u8>> = db.iter().take(10).cloned().collect();
        db.extend(dups);
        let queries = corpus(20, 6, 2, 411);
        let pivots = select_pivots_max_sum(&db, 6, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        for q in &queries {
            let (l_nn, _) = nn(&LinearIndex::new(db.clone()), q, &Levenshtein);
            let (a_nn, _) = nn(&idx, q, &Levenshtein);
            assert_eq!(a_nn.index, l_nn.index, "nn index mismatch on {q:?}");
            assert_eq!(a_nn.distance, l_nn.distance);
            let (l_knn, _) = knn(&LinearIndex::new(db.clone()), q, &Levenshtein, 5);
            let (a_knn, _) = knn(&idx, q, &Levenshtein, 5);
            assert_eq!(key(&a_knn), key(&l_knn), "knn mismatch on {q:?}");
        }
    }

    #[test]
    fn radius_seeded_queries_match_plain_queries() {
        // At the exact best distance the neighbour is still found (<=
        // admission); just below it nothing is.
        let db = corpus(80, 8, 3, 47);
        let queries = corpus(10, 8, 3, 471);
        let pivots = select_pivots_max_sum(&db, 8, 0, &Levenshtein);
        let idx = build(db.clone(), pivots, &Levenshtein);
        for q in &queries {
            let (best, _) = nn(&idx, q, &Levenshtein);
            let at = QueryOptions::new().radius(best.distance);
            let (found, _) = idx.nn(q, &Levenshtein, &at).unwrap();
            assert_eq!(key(&[found.unwrap()]), key(&[best]), "query {q:?}");
            if best.distance > 0.0 {
                let below = QueryOptions::new().radius(best.distance - 0.5);
                let (found, _) = idx.nn(q, &Levenshtein, &below).unwrap();
                assert!(found.is_none(), "query {q:?}");
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential_build() {
        // Force a multi-threaded build even on a single-core box and
        // check the index is bit-identical to the sequential one.
        let db = corpus(90, 9, 3, 63);
        let pivots = select_pivots_max_sum(&db, 8, 0, &Levenshtein);
        let _guard = crate::TEST_ENV_LOCK.lock().unwrap();
        crate::parallel::set_thread_override(Some(4));
        let parallel = build(db.clone(), pivots.clone(), &Levenshtein);
        crate::parallel::set_thread_override(Some(1));
        let sequential = build(db.clone(), pivots, &Levenshtein);
        crate::parallel::set_thread_override(None);
        assert_eq!(parallel.rows, sequential.rows);
        assert_eq!(
            parallel.preprocessing_computations(),
            sequential.preprocessing_computations()
        );
        for q in corpus(10, 9, 3, 631) {
            let (a, _) = nn(&parallel, &q, &Levenshtein);
            let (b, _) = nn(&sequential, &q, &Levenshtein);
            assert_eq!(a.distance, b.distance);
            assert_eq!(a.index, b.index);
        }
    }
}
