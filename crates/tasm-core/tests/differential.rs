//! The differential matrix: **one** loop over the plan axes, every run
//! pinned to the `tasm_naive` oracle down to subtree ids.
//!
//! Every evaluation beyond the paper's reference algorithms goes through
//! `execute(plan)`, so the matrix is the cross product of the plan's
//! axes, plus the paper's reproductions under the same settings:
//!
//! ```text
//! source ∈ {materialized tree, postorder stream, .pqi index}
//!   × threads ∈ {1, 2, 4, 7}
//!   × cascade ∈ {on, off}
//!   × kernel ∈ {zs, strategy, auto}
//!   × cost ∈ {unit, per-label weighted}
//!   (+ tasm_dynamic and tasm_postorder per kernel × cascade × cost)
//! ```
//!
//! The corpus source (with its degraded-corpus axis) has its own file,
//! `corpus_differential.rs`. A new source gets full coverage by adding
//! one arm to [`Src`].
//!
//! Equality is on `(root id, distance, size)` — not just the distance
//! sequence — so tie-breaking must agree everywhere too. Every case is
//! a batch; a single query is a batch of one. An end-to-end case feeds
//! the executor from a real `XmlPostorderQueue` with **no** materialized
//! document.
//!
//! The seeded variant (`differential_matrix_seeded`) re-runs the matrix
//! on a deterministic seed sweep; CI shifts the sweep with the
//! `TASM_DIFF_SEED` environment variable (shuffle-style seeds) under
//! `--test-threads=1`.

use proptest::prelude::*;
use tasm_core::{
    execute, tasm_dynamic, tasm_naive, tasm_postorder, BatchQuery, BatchWorkspace, Match, Plan,
    Source, TasmOptions, TedKernel,
};
use tasm_index::IndexedDocument;
use tasm_ted::{CostModel, PerLabelCost, UnitCost};
use tasm_tree::{LabelDict, LabelId, Tree, TreeBuilder, TreeQueue, VecQueue};

/// Thread counts of the parallel axis.
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// The TED-kernel axis: the classic left-path DP, the mirrored
/// right-path kernel, and the per-query shape estimator. All three must
/// return identical rankings everywhere.
const KERNELS: [TedKernel; 3] = [TedKernel::Zs, TedKernel::Strategy, TedKernel::Auto];

/// The source axis of a single-document plan.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A materialized tree behind a `TreeQueue`.
    Tree,
    /// A postorder stream that hides the tree (`VecQueue`).
    Stream,
    /// The `.pqi` index, after an on-disk format round trip.
    Index,
}

const SOURCES: [Src; 3] = [Src::Tree, Src::Stream, Src::Index];

/// Per-label weights of the weighted-cost axis: label `Li` costs
/// `WEIGHTS[i]`, every other label 1.
const WEIGHTS: [u64; 4] = [2, 3, 1, 5];

/// Builds a uniformly-shaped random tree of exactly `n` nodes by random
/// attachment (node `i` picks a uniformly random existing parent), over
/// `n_labels` distinct labels.
fn random_tree(seed: u64, n: usize, n_labels: u32) -> Tree {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut labels: Vec<u32> = Vec::with_capacity(n);
    labels.push(rng.gen_range(0..n_labels));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        children[parent].push(i);
        labels.push(rng.gen_range(0..n_labels));
    }
    fn rec(node: usize, children: &[Vec<usize>], labels: &[u32], b: &mut TreeBuilder) {
        b.start(LabelId(labels[node]));
        for &c in &children[node] {
            rec(c, children, labels, b);
        }
        b.end().expect("balanced");
    }
    let mut b = TreeBuilder::with_capacity(n);
    rec(0, &children, &labels, &mut b);
    b.finish().expect("single root")
}

/// The full rank key — id, distance AND size must agree.
fn key(ms: &[Match]) -> Vec<(u32, u64, u32)> {
    ms.iter()
        .map(|m| (m.root.post(), m.distance.halves(), m.size))
        .collect()
}

/// Builds the `.pqi` index of `doc` through a full in-memory file
/// round trip — the indexed rows of the matrix exercise the on-disk
/// format, not just the in-memory builder. Synthesizes a dictionary
/// covering every label id in play (the generator hands out raw
/// `LabelId`s; names only have to be consistent).
fn index_of(doc: &Tree, q_labels: &[LabelId]) -> (IndexedDocument, LabelDict) {
    let max_label = doc
        .labels()
        .iter()
        .chain(q_labels)
        .map(|l| l.0)
        .max()
        .unwrap_or(0);
    let mut dict = LabelDict::new();
    for i in 0..=max_label {
        dict.intern(&format!("L{i}"));
    }
    let mut bytes = Vec::new();
    IndexedDocument::build(doc, &dict)
        .write_to(&mut bytes)
        .expect("write .pqi");
    let idx = IndexedDocument::from_reader(bytes.as_slice()).expect("read .pqi back");
    (idx, dict)
}

/// The weighted model in the label space `id_of` maps label names into.
fn weighted(id_of: impl Fn(usize) -> Option<LabelId>) -> PerLabelCost {
    let mut model = PerLabelCost::new(1);
    for (i, w) in WEIGHTS.into_iter().enumerate() {
        if let Some(id) = id_of(i) {
            model = model.with(id, w);
        }
    }
    model
}

/// Runs one plan over `src` and returns its rankings.
fn run_plan(
    src: Src,
    doc: &Tree,
    index: &(IndexedDocument, LabelDict),
    queries: &[BatchQuery<'_>],
    cost: (&(dyn CostModel + Sync), u64),
    opts: TasmOptions,
    threads: usize,
) -> Vec<Vec<Match>> {
    let mut ws = BatchWorkspace::new();
    let (mut tree_q, mut stream_q) = (TreeQueue::new(doc), VecQueue::from_tree(doc));
    let source = match src {
        Src::Tree => Source::Stream(&mut tree_q as &mut dyn tasm_tree::PostorderQueue),
        Src::Stream => Source::Stream(&mut stream_q as &mut dyn tasm_tree::PostorderQueue),
        Src::Index => Source::index(&index.0, &index.1),
    };
    let plan = Plan {
        cost,
        opts,
        threads,
        ..Plan::new(source, queries)
    };
    execute(plan, &mut ws)
        .expect("complete stream, no deadline")
        .rankings
}

/// Runs the whole plan matrix for a batch of `(query, k)` pairs over
/// `doc`: every lane of every run must equal the oracle ranking of that
/// query alone. With the cascade off, the runs also keep their match
/// subtrees, and every stream plan must return the whole `Match` of
/// `tasm_postorder` — kept subtree included, so segments rebuilt by
/// sharded workers are checked node for node.
fn check_matrix(queries: &[(Tree, usize)], doc: &Tree) -> Result<(), String> {
    let bqs: Vec<BatchQuery<'_>> = queries
        .iter()
        .map(|(query, k)| BatchQuery { query, k: *k })
        .collect();
    let q_labels: Vec<LabelId> = queries
        .iter()
        .flat_map(|(q, _)| q.labels().iter().copied())
        .collect();
    let index = index_of(doc, &q_labels);
    // The index re-encodes labels by frequency, so a label-keyed model
    // is rebuilt in index space: same names, the index's ids.
    let doc_weighted = weighted(|i| Some(LabelId(i as u32)));
    let idx_weighted = weighted(|i| index.0.dict().get(&format!("L{i}")));
    for weighted_cost in [false, true] {
        let (model, idx_model, c_t): (&(dyn CostModel + Sync), &(dyn CostModel + Sync), u64) =
            if weighted_cost {
                (&doc_weighted, &idx_weighted, *WEIGHTS.iter().max().unwrap())
            } else {
                (&UnitCost, &UnitCost, 1)
            };
        let oracles: Vec<Vec<(u32, u64, u32)>> = queries
            .iter()
            .map(|(q, k)| key(&tasm_naive(q, doc, *k, model, TasmOptions::default(), None)))
            .collect();
        let check = |name: &str, lane: usize, got: &[Match]| -> Result<(), String> {
            let got = key(got);
            if got != oracles[lane] {
                let cost = if weighted_cost { "weighted" } else { "unit" };
                return Err(format!(
                    "{name}/{cost} lane {lane}: {got:?} != oracle {:?}",
                    oracles[lane]
                ));
            }
            Ok(())
        };
        for kernel in KERNELS {
            for use_cascade in [true, false] {
                let opts = TasmOptions {
                    use_cascade,
                    kernel,
                    keep_trees: !use_cascade,
                    ..Default::default()
                };
                let tag = format!(
                    "{kernel}/cascade-{}",
                    if use_cascade { "on" } else { "off" }
                );
                // The paper's reproductions, per query.
                let mut postorders = Vec::with_capacity(queries.len());
                for (lane, (q, k)) in queries.iter().enumerate() {
                    let dynamic = tasm_dynamic(q, doc, *k, model, opts, None);
                    check(&format!("dynamic/{tag}"), lane, &dynamic)?;
                    let mut stream = VecQueue::from_tree(doc);
                    let postorder = tasm_postorder(q, &mut stream, *k, model, c_t, opts, None);
                    check(&format!("postorder/{tag}"), lane, &postorder)?;
                    postorders.push(postorder);
                }
                // Every plan.
                for src in SOURCES {
                    let m = if matches!(src, Src::Index) {
                        idx_model
                    } else {
                        model
                    };
                    for threads in THREADS {
                        let got = run_plan(src, doc, &index, &bqs, (m, c_t), opts, threads);
                        if got.len() != queries.len() {
                            return Err(format!("{src:?}: {} lanes", got.len()));
                        }
                        for (lane, ranking) in got.iter().enumerate() {
                            let name = format!("{src:?}/t{threads}/{tag}");
                            check(&name, lane, ranking)?;
                            // Index plans keep index-space labels.
                            if opts.keep_trees
                                && !matches!(src, Src::Index)
                                && ranking != &postorders[lane]
                            {
                                return Err(format!("{name} lane {lane}: kept matches differ"));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    // Each case runs the full matrix (~300 plans) under both cost
    // models; the seeded CI sweep shifts coverage every run.
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn differential_matrix_single_query(
        doc_seed in any::<u64>(),
        doc_n in 1usize..150,
        q_seed in any::<u64>(),
        q_n in 1usize..10,
        k in 1usize..8,
    ) {
        let doc = random_tree(doc_seed, doc_n, 4);
        let q = random_tree(q_seed, q_n, 4);
        if let Err(e) = check_matrix(&[(q, k)], &doc) {
            panic!("{e}");
        }
    }

    #[test]
    fn differential_matrix_multi_query(
        doc_seed in any::<u64>(),
        doc_n in 1usize..120,
        specs in proptest::collection::vec((any::<u64>(), 1usize..9, 1usize..7), 1..5),
    ) {
        let doc = random_tree(doc_seed, doc_n, 4);
        let queries: Vec<(Tree, usize)> = specs
            .iter()
            .map(|&(seed, n, k)| (random_tree(seed, n, 4), k))
            .collect();
        if let Err(e) = check_matrix(&queries, &doc) {
            panic!("{e}");
        }
    }
}

/// Deterministic seed-sweep version of the matrix for CI: the base seed
/// shifts with `TASM_DIFF_SEED`, so repeated CI runs cover different
/// corners while any failure reproduces with the printed seed.
#[test]
fn differential_matrix_seeded() {
    let base: u64 = std::env::var("TASM_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1FF);
    for round in 0..12u64 {
        let s = base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round);
        let doc = random_tree(s, 20 + (s % 120) as usize, 4);
        let single = [(
            random_tree(s ^ 0xABCD, 1 + (s % 9) as usize, 4),
            1 + (s % 7) as usize,
        )];
        if let Err(e) = check_matrix(&single, &doc) {
            panic!("seed {base} round {round}: {e}");
        }
        let queries = vec![
            (
                random_tree(s ^ 1, 1 + (s % 8) as usize, 4),
                1 + (s % 5) as usize,
            ),
            (random_tree(s ^ 2, 1 + (s % 6) as usize, 4), 2),
        ];
        if let Err(e) = check_matrix(&queries, &doc) {
            panic!("seed {base} round {round}: {e}");
        }
    }
}

/// End-to-end acceptance: plans fed from a **real XML stream** — parsed
/// on the fly, never materialized — return, per lane, rankings
/// identical to `tasm_naive` on the parsed tree, down to subtree ids.
#[test]
fn xml_stream_matches_naive_down_to_ids() {
    use tasm_xml::{parse_tree_str, XmlPostorderQueue};

    // A DBLP-shaped document with enough repetition for ties.
    let mut xml = String::from("<dblp>");
    for i in 0..70 {
        xml.push_str(&format!(
            "<article><auth>A{}</auth><title>T{}</title></article>",
            i % 6,
            i % 4
        ));
        if i % 5 == 0 {
            xml.push_str(&format!("<book><title>T{}</title></book>", i % 3));
        }
    }
    xml.push_str("</dblp>");

    let mut dict = LabelDict::new();
    let query = parse_tree_str(
        "<article><auth>A3</auth><title>T2</title></article>",
        &mut dict,
    )
    .unwrap();
    let query2 = parse_tree_str("<book><title>T1</title></book>", &mut dict).unwrap();
    // The oracle parses the document once (same dictionary, so label ids
    // line up with the streaming runs below).
    let doc = parse_tree_str(&xml, &mut dict).unwrap();

    for k in [1usize, 4, 9] {
        let batches: [&[BatchQuery<'_>]; 2] = [
            &[BatchQuery { query: &query, k }],
            &[
                BatchQuery { query: &query, k },
                BatchQuery {
                    query: &query2,
                    k: 3,
                },
            ],
        ];
        for bqs in batches {
            let wants: Vec<_> = bqs
                .iter()
                .map(|bq| {
                    let opts = TasmOptions::default();
                    key(&tasm_naive(bq.query, &doc, bq.k, &UnitCost, opts, None))
                })
                .collect();
            for threads in THREADS {
                // Fresh queue per run: the parser streams, nothing is kept.
                let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
                let plan = Plan {
                    threads,
                    ..Plan::new(Source::Stream(&mut queue), bqs)
                };
                let out = execute(plan, &mut BatchWorkspace::new()).expect("complete stream");
                assert!(queue.is_ok());
                for (lane, (g, want)) in out.rankings.iter().zip(&wants).enumerate() {
                    assert_eq!(&key(g), want, "k = {k}, lane {lane}, threads = {threads}");
                }
            }
        }
    }
}

/// The matrix holds on hand-shaped corner cases the generator is
/// unlikely to hit exactly: single nodes, deep paths, wide-flat trees.
#[test]
fn differential_matrix_corner_shapes() {
    use tasm_tree::bracket;
    let mut dict = LabelDict::new();
    let corners = [
        "{a}",
        "{a{a{a{a{a{a{a{a}}}}}}}}",
        "{r{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}{a}}",
        "{r{x{a{b}}}{x{a{b}}}{x{a{b}}}}",
    ];
    for doc_s in corners {
        let doc = bracket::parse(doc_s, &mut dict).unwrap();
        for q_s in ["{a}", "{x{a{b}}}", "{r{a}}"] {
            let q = bracket::parse(q_s, &mut dict).unwrap();
            for k in [1usize, 3, 30] {
                check_matrix(&[(q.clone(), k)], &doc)
                    .unwrap_or_else(|e| panic!("doc {doc_s}, q {q_s}, k {k}: {e}"));
            }
        }
    }
}
