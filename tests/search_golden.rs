//! Cross-commit pin of every backend's answers and statistics.
//!
//! The agreement suites compare backends with each other and with the
//! linear-scan oracle at run time, so a refactor that changes a shared
//! search loop can move every backend at once and still pass them.
//! This suite compares against a committed record instead:
//! `tests/golden/search_golden.txt` holds, for a fixed seeded corpus
//! with duplicates, every hit (`index:distance`, distances printed with
//! `{:?}`, which round-trips `f64` bit-exactly) and the
//! `distance_computations` of each query over the grid
//!
//! * backends: linear, LAESA, AESA, vp-tree, and a sharded LAESA index
//!   with a delta shard and tombstones;
//! * metrics: `d_E`, `d_YB`, `d_C`, `d_C,h`;
//! * query kinds: nn, knn with k ∈ {1, 5}, range;
//! * radii: ∞, 0.3, 1, 2;
//! * pivot budget: none, 0, 3.
//!
//! Each distinct hit list is written once (`A<n> = …`) and the grid
//! rows refer to it by name, one row per combination with one
//! `answer/computations` cell per query.
//!
//! After an intended change of answers or counts, rewrite the file
//! with `cargo test --release --test search_golden -- --ignored` and
//! review the diff.

use cned::core::contextual::exact::Contextual;
use cned::core::contextual::heuristic::ContextualHeuristic;
use cned::core::levenshtein::Levenshtein;
use cned::core::metric::Distance;
use cned::core::normalized::yujian_bo::YujianBo;
use cned::search::pivots::select_pivots_max_sum;
use cned::search::{Aesa, Laesa, LinearIndex, VpTree};
use cned::serve::{ShardConfig, ShardedIndex};
use cned::{MetricIndex, Neighbour, QueryOptions, SearchStats};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/search_golden.txt"
);

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

/// 32 random words plus 8 duplicates (guaranteed distance ties).
fn database() -> Vec<Vec<u8>> {
    let mut db = corpus(32, 7, 3, 1207);
    let dups: Vec<Vec<u8>> = db.iter().step_by(4).cloned().collect();
    db.extend(dups);
    db
}

/// Four random queries plus one database member.
fn queries(db: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut qs = corpus(4, 7, 3, 12071);
    qs.push(db[9].clone());
    qs
}

/// The five backends over `db`. The sharded index is built over the
/// first 32 items; the 8 duplicates land in its delta shard, and three
/// items (two indexed, one in the delta) are tombstoned.
fn backends(db: &[Vec<u8>], dist: &dyn Distance<u8>) -> Vec<Box<dyn MetricIndex<u8>>> {
    let pivots = select_pivots_max_sum(db, 6, 0, dist);
    let mut sharded = ShardedIndex::try_build(
        db[..32].to_vec(),
        ShardConfig {
            shards: 3,
            pivots_per_shard: 4,
            compact_threshold: 64,
            ..ShardConfig::default()
        },
        dist,
    )
    .unwrap();
    for item in &db[32..] {
        sharded.insert(item.clone(), dist);
    }
    assert_eq!(sharded.delta_len(), 8);
    for dead in [4, 21, 36] {
        assert_eq!(MetricIndex::delete(&mut sharded, dead), Ok(true));
    }
    vec![
        Box::new(LinearIndex::new(db.to_vec())),
        Box::new(Laesa::try_build(db.to_vec(), pivots, dist).unwrap()),
        Box::new(Aesa::build(db.to_vec(), dist)),
        Box::new(VpTree::build(db.to_vec(), dist)),
        Box::new(sharded),
    ]
}

/// Interns hit lists so each distinct one is written once.
#[derive(Default)]
struct Answers {
    rendered: Vec<String>,
}

impl Answers {
    fn name(&mut self, hits: &[Neighbour]) -> String {
        let mut text = String::new();
        for (i, nb) in hits.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            write!(text, "{}:{:?}", nb.index, nb.distance).unwrap();
        }
        let at = match self.rendered.iter().position(|r| *r == text) {
            Some(at) => at,
            None => {
                self.rendered.push(text);
                self.rendered.len() - 1
            }
        };
        format!("A{at}")
    }
}

/// Run the whole grid and render it in the golden file's format.
fn render() -> String {
    let db = database();
    let queries = queries(&db);
    let metrics: [(&str, &dyn Distance<u8>); 4] = [
        ("d_E", &Levenshtein),
        ("d_YB", &YujianBo),
        ("d_C", &Contextual),
        ("d_C,h", &ContextualHeuristic),
    ];
    let kinds = ["nn", "knn1", "knn5", "range"];
    let radii = [f64::INFINITY, 0.3, 1.0, 2.0];
    let budgets = [None, Some(0), Some(3)];

    let mut answers = Answers::default();
    let mut rows = String::new();
    for (metric, dist) in metrics {
        for index in backends(&db, dist) {
            for kind in kinds {
                for radius in radii {
                    for budget in budgets {
                        let mut opts = QueryOptions::new().radius(radius);
                        if let Some(p) = budget {
                            opts = opts.pivot_budget(p);
                        }
                        let budget = budget.map_or("none".to_string(), |p| p.to_string());
                        write!(
                            rows,
                            "{} {metric} {kind} r={radius} pb={budget} |",
                            index.backend_name()
                        )
                        .unwrap();
                        for q in &queries {
                            let (hits, stats): (Vec<Neighbour>, SearchStats) = match kind {
                                "nn" => {
                                    let (nb, stats) = index.nn(q, dist, &opts).unwrap();
                                    (nb.into_iter().collect(), stats)
                                }
                                "knn1" => index.knn(q, dist, &opts.clone().k(1)).unwrap(),
                                "knn5" => index.knn(q, dist, &opts.clone().k(5)).unwrap(),
                                _ => index.range(q, dist, &opts).unwrap(),
                            };
                            write!(
                                rows,
                                " {}/{}",
                                answers.name(&hits),
                                stats.distance_computations
                            )
                            .unwrap();
                        }
                        rows.push('\n');
                    }
                }
            }
        }
    }
    let mut out = String::new();
    for (i, text) in answers.rendered.iter().enumerate() {
        writeln!(out, "A{i} = {text}").unwrap();
    }
    out.push_str(&rows);
    out
}

#[test]
fn answers_and_counts_match_the_committed_record() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let got = render();
    let want: Vec<&str> = golden.lines().collect();
    let have: Vec<&str> = got.lines().collect();
    let differing: Vec<String> = want
        .iter()
        .zip(&have)
        .filter(|(w, h)| w != h)
        .take(10)
        .map(|(w, h)| format!("  want {w}\n  have {h}"))
        .collect();
    assert!(
        differing.is_empty() && want.len() == have.len(),
        "{} lines recorded, {} produced; first differences:\n{}",
        want.len(),
        have.len(),
        differing.join("\n")
    );
}

#[test]
#[ignore = "rewrites the golden file"]
fn rewrite_golden_file() {
    std::fs::write(GOLDEN, render()).unwrap();
}
