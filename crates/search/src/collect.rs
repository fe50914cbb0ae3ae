//! Result collectors: what a search keeps, and how far it still has to
//! look.
//!
//! Every backend answers every query kind with **one** search loop,
//! generic over a [`Collector`]. The loop asks the collector for its
//! current [budget](Collector::budget) — the largest distance that can
//! still enter the answer — prunes with it (triangle-inequality
//! elimination, early-exit bounded evaluation, subtree skipping), and
//! [offers](Collector::offer) every distance it computes. Two
//! collectors cover the query surface:
//!
//! * [`TopK`] (k-NN): the budget is the radius until `k` hits are held,
//!   then the `k`-th best distance, so it shrinks as the search runs;
//! * [`Within`] (range): the budget is the fixed radius.
//!
//! Nearest neighbour has no collector of its own: it is `TopK` with
//! `k = 1` (see [`crate::MetricIndex`]). The collector is a type
//! parameter of each loop, so both instances compile to straight-line
//! code; [`AnyCollector`] is the object-safe form in which
//! [`crate::MetricIndex::search`] receives one.

use crate::Neighbour;

/// The state a search loop threads through its candidates.
pub trait Collector {
    /// The largest distance that can still enter the answer: loops
    /// eliminate candidates whose lower bound exceeds it and bound
    /// their evaluations by it.
    fn budget(&self) -> f64;

    /// Offer database item `index` at `distance`. Non-finite distances
    /// (a rejected bounded evaluation surfaces as `+inf`) and distances
    /// beyond the radius are ignored.
    fn offer(&mut self, index: usize, distance: f64);

    /// An empty collector of the same kind whose radius is this one's
    /// current budget — how the sharded index queries each shard under
    /// the running cross-shard bound.
    fn narrowed(&self) -> Self;

    /// The hits, in the canonical (distance, index) order.
    fn into_hits(self) -> Vec<Neighbour>;
}

/// The `k` nearest hits within a radius.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    radius: f64,
    /// Current best, sorted canonically, never longer than `k`.
    hits: Vec<Neighbour>,
}

impl TopK {
    /// Collect the `k` nearest hits at distance `<= radius`.
    pub fn new(k: usize, radius: f64) -> TopK {
        TopK {
            k,
            radius,
            hits: Vec::new(),
        }
    }
}

impl Collector for TopK {
    #[inline]
    fn budget(&self) -> f64 {
        // Until k hits are held the radius caps admission; afterwards
        // the k-th best does. (With k = 0 nothing is ever held.)
        self.hits
            .get(self.k.wrapping_sub(1))
            .map_or(self.radius, |kth| kth.distance)
    }

    #[inline]
    fn offer(&mut self, index: usize, distance: f64) {
        // lint:allow(float-compare) — NaN and +inf fail `is_finite`
        // first; radius admission is inclusive by contract.
        if !(distance.is_finite() && distance <= self.radius) {
            return;
        }
        let candidate = Neighbour { index, distance };
        // Sorted insertion under the canonical ordering: equal
        // distances resolve to the smaller index whatever the visit
        // order, and a candidate tying the k-th lands after it.
        let pos = self
            .hits
            .binary_search_by(|nb| nb.ordering(&candidate))
            .unwrap_or_else(|e| e);
        if pos < self.k {
            self.hits.insert(pos, candidate);
            self.hits.truncate(self.k);
        }
    }

    fn narrowed(&self) -> TopK {
        TopK::new(self.k, self.budget())
    }

    fn into_hits(self) -> Vec<Neighbour> {
        self.hits
    }
}

/// Every hit within a fixed radius.
#[derive(Debug, Clone)]
pub struct Within {
    radius: f64,
    hits: Vec<Neighbour>,
}

impl Within {
    /// Collect every hit at distance `<= radius`.
    pub fn new(radius: f64) -> Within {
        Within {
            radius,
            hits: Vec::new(),
        }
    }
}

impl Collector for Within {
    #[inline]
    fn budget(&self) -> f64 {
        self.radius
    }

    #[inline]
    fn offer(&mut self, index: usize, distance: f64) {
        // lint:allow(float-compare) — NaN and +inf fail `is_finite`
        // first; radius admission is inclusive by contract.
        if distance.is_finite() && distance <= self.radius {
            self.hits.push(Neighbour { index, distance });
        }
    }

    fn narrowed(&self) -> Within {
        Within::new(self.radius)
    }

    fn into_hits(mut self) -> Vec<Neighbour> {
        self.hits.sort_by(|a, b| a.ordering(b));
        self.hits
    }
}

/// One of the two collectors, chosen at run time. Backends match on it
/// once per query and run their generic loop with the collector inside.
#[derive(Debug, Clone)]
pub enum AnyCollector {
    /// k-NN (and NN, at `k = 1`).
    TopK(TopK),
    /// Range search.
    Within(Within),
}

impl AnyCollector {
    /// The hits, in canonical order.
    pub fn into_hits(self) -> Vec<Neighbour> {
        match self {
            AnyCollector::TopK(c) => c.into_hits(),
            AnyCollector::Within(c) => c.into_hits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(hits: &[Neighbour]) -> Vec<(usize, f64)> {
        hits.iter().map(|n| (n.index, n.distance)).collect()
    }

    #[test]
    fn top_k_budget_shrinks_once_full() {
        let mut c = TopK::new(2, 5.0);
        assert_eq!(c.budget(), 5.0);
        c.offer(7, 3.0);
        assert_eq!(c.budget(), 5.0);
        c.offer(2, 4.0);
        assert_eq!(c.budget(), 4.0);
        c.offer(9, 1.0);
        assert_eq!(c.budget(), 3.0);
        assert_eq!(key(&c.clone().into_hits()), vec![(9, 1.0), (7, 3.0)]);
        // The narrowed collector starts empty at the current budget.
        assert_eq!(c.narrowed().budget(), 3.0);
        assert!(c.narrowed().into_hits().is_empty());
    }

    #[test]
    fn top_k_ties_resolve_to_ascending_index() {
        let mut c = TopK::new(2, f64::INFINITY);
        for i in [5, 3, 8, 1] {
            c.offer(i, 2.0);
        }
        assert_eq!(key(&c.into_hits()), vec![(1, 2.0), (3, 2.0)]);
    }

    #[test]
    fn non_finite_and_out_of_radius_offers_are_ignored() {
        let mut c = TopK::new(3, f64::INFINITY);
        c.offer(0, f64::INFINITY);
        assert!(c.into_hits().is_empty());
        let mut w = Within::new(1.0);
        w.offer(0, 1.5);
        w.offer(1, f64::INFINITY);
        w.offer(4, 1.0);
        w.offer(2, 0.5);
        assert_eq!(w.budget(), 1.0);
        assert_eq!(key(&w.into_hits()), vec![(2, 0.5), (4, 1.0)]);
    }

    #[test]
    fn zero_k_holds_nothing() {
        let mut c = TopK::new(0, 2.0);
        c.offer(0, 1.0);
        assert_eq!(c.budget(), 2.0);
        assert!(c.into_hits().is_empty());
    }
}
