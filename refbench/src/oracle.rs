//! The correctness gates: every answer is compared with a linear scan.
//!
//! A mismatch fails the whole run; it is never turned into a metric.

use crate::workload::Op;
use cned::core::metric::Distance;
use cned::search::LinearIndex;
use cned::{InsertableIndex, MetricIndex, Neighbour, QueryOptions, ResponseBody};

/// The expected answer to one op.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Neighbours of a read, in canonical (distance, index) order.
    Read(Vec<Neighbour>),
    /// Global index an insert must be assigned.
    Inserted(usize),
    /// Whether a delete's target was live.
    Deleted(bool),
}

/// A linear scan that follows the op stream: the reference every
/// served answer must equal, bit for bit.
pub struct Oracle {
    index: LinearIndex<u8>,
}

impl Oracle {
    /// Oracle over `corpus`.
    pub fn new(corpus: Vec<Vec<u8>>) -> Oracle {
        Oracle {
            index: LinearIndex::new(corpus),
        }
    }

    /// The scan, with every applied write.
    pub fn index(&self) -> &LinearIndex<u8> {
        &self.index
    }

    /// Answer one op, applying writes.
    pub fn apply(&mut self, op: &Op, dist: &dyn Distance<u8>) -> Expected {
        match op {
            Op::Knn { query, k } => Expected::Read(
                self.index
                    .knn(query, dist, &QueryOptions::new().k(*k))
                    .expect("the oracle corpus is never empty")
                    .0,
            ),
            Op::Nn { query } => Expected::Read(
                self.index
                    .nn(query, dist, &QueryOptions::new())
                    .expect("the oracle corpus is never empty")
                    .0
                    .into_iter()
                    .collect(),
            ),
            Op::Insert { item } => Expected::Inserted(
                self.index
                    .insert(item.clone(), dist)
                    .expect("linear scans accept inserts"),
            ),
            Op::Delete { index } => Expected::Deleted(
                self.index
                    .delete(*index)
                    .expect("linear scans accept deletes"),
            ),
        }
    }

    /// Answers to a batch of reads (no writes), scanned in parallel.
    pub fn reads(&self, ops: &[&Op], dist: &dyn Distance<u8>) -> Vec<Expected> {
        cned::search::par_map(ops.len(), |i| match ops[i] {
            Op::Knn { query, k } => Expected::Read(
                self.index
                    .knn(query, dist, &QueryOptions::new().k(*k).threads(1))
                    .expect("the oracle corpus is never empty")
                    .0,
            ),
            Op::Nn { query } => Expected::Read(
                self.index
                    .nn(query, dist, &QueryOptions::new().threads(1))
                    .expect("the oracle corpus is never empty")
                    .0
                    .into_iter()
                    .collect(),
            ),
            _ => panic!("Oracle::reads takes reads only"),
        })
    }
}

/// The neighbours a served read answered with, if it was a read answer.
pub fn neighbours(body: &ResponseBody) -> Option<Vec<Neighbour>> {
    match body {
        ResponseBody::Knn { neighbours, .. } => Some(neighbours.clone()),
        ResponseBody::Nn { neighbour, .. } => Some(neighbour.iter().copied().collect()),
        _ => None,
    }
}

/// Compare a served answer with the expected one: same indices, in the
/// same order, at bit-identical distances.
pub fn check(what: &str, got: &ResponseBody, want: &Expected) -> Result<(), String> {
    match (want, got) {
        (Expected::Read(want), _) => match neighbours(got) {
            Some(got) => same_neighbours(&got, want).map_err(|e| format!("{what}: {e}")),
            None => Err(format!("{what}: expected a read answer, got {got:?}")),
        },
        (Expected::Inserted(want), ResponseBody::Inserted { index }) if index == want => Ok(()),
        (Expected::Deleted(want), ResponseBody::Deleted { existed }) if existed == want => Ok(()),
        _ => Err(format!("{what}: expected {want:?}, got {got:?}")),
    }
}

/// Neighbour lists agree: indices, order and distances bit for bit.
pub fn same_neighbours(got: &[Neighbour], want: &[Neighbour]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} neighbours, expected {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.index != w.index || g.distance.to_bits() != w.distance.to_bits() {
            return Err(format!(
                "rank {rank}: got #{} at {}, expected #{} at {}",
                g.index, g.distance, w.index, w.distance
            ));
        }
    }
    Ok(())
}

/// The index holds exactly the oracle's items and tombstones.
pub fn check_state(
    layer: &str,
    got: &dyn MetricIndex<u8>,
    want: &dyn MetricIndex<u8>,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{layer}: {} items, expected {}",
            got.len(),
            want.len()
        ));
    }
    for i in 0..want.len() {
        if got.item(i) != want.item(i) || got.is_deleted(i) != want.is_deleted(i) {
            return Err(format!(
                "{layer}: item {i} differs from the acknowledged writes"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cned::core::levenshtein::Levenshtein;
    use cned::SearchStats;

    fn words() -> Vec<Vec<u8>> {
        ["casa", "cosa", "masa", "taza", "caso", "cesa"]
            .iter()
            .map(|w| w.as_bytes().to_vec())
            .collect()
    }

    fn knn_body(neighbours: Vec<Neighbour>) -> ResponseBody {
        ResponseBody::Knn {
            neighbours,
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn the_checker_accepts_the_oracles_own_answer() {
        let mut oracle = Oracle::new(words());
        let op = Op::Knn {
            query: b"cusa".to_vec(),
            k: 3,
        };
        let want = oracle.apply(&op, &Levenshtein);
        let Expected::Read(n) = &want else {
            panic!("read")
        };
        assert!(check("q", &knn_body(n.clone()), &want).is_ok());
    }

    #[test]
    fn the_checker_rejects_injected_wrong_answers() {
        let mut oracle = Oracle::new(words());
        let op = Op::Knn {
            query: b"cusa".to_vec(),
            k: 3,
        };
        let want = oracle.apply(&op, &Levenshtein);
        let Expected::Read(right) = want.clone() else {
            panic!("read")
        };
        // A wrong neighbour.
        let mut wrong = right.clone();
        wrong[2].index = 3;
        assert!(check("q", &knn_body(wrong), &want).is_err());
        // A distance off by one ulp.
        let mut wrong = right.clone();
        wrong[0].distance = f64::from_bits(wrong[0].distance.to_bits() + 1);
        assert!(check("q", &knn_body(wrong), &want).is_err());
        // Tied neighbours in the wrong order.
        let mut wrong = right.clone();
        assert_eq!(wrong[0].distance, wrong[1].distance, "fixture has a tie");
        wrong.swap(0, 1);
        assert!(check("q", &knn_body(wrong), &want).is_err());
        // A missing neighbour, and an answer of the wrong kind.
        assert!(check("q", &knn_body(right[..2].to_vec()), &want).is_err());
        assert!(check("q", &ResponseBody::Inserted { index: 0 }, &want).is_err());
    }

    #[test]
    fn the_oracle_follows_writes() {
        let mut oracle = Oracle::new(words());
        let n = words().len();
        let insert = Op::Insert {
            item: b"cusa".to_vec(),
        };
        assert_eq!(oracle.apply(&insert, &Levenshtein), Expected::Inserted(n));
        let read = Op::Nn {
            query: b"cusa".to_vec(),
        };
        let Expected::Read(hit) = oracle.apply(&read, &Levenshtein) else {
            panic!("read")
        };
        assert_eq!((hit[0].index, hit[0].distance), (n, 0.0));
        let delete = Op::Delete { index: n };
        assert_eq!(oracle.apply(&delete, &Levenshtein), Expected::Deleted(true));
        assert!(check(
            "d",
            &ResponseBody::Deleted { existed: false },
            &Expected::Deleted(true)
        )
        .is_err());
        let Expected::Read(after) = oracle.apply(&read, &Levenshtein) else {
            panic!("read")
        };
        assert_ne!(after[0].index, n);
    }
}
