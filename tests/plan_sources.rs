//! One fast case per plan source, each pinned to the `tasm_naive` oracle
//! down to node ids: a broken ranking on any `execute` path fails the
//! facade's own test run.

use tasm::core::{
    execute, tasm_naive, BatchQuery, BatchWorkspace, Match, Output, Plan, Source, TasmOptions,
};
use tasm::data::{dblp_tree, random_query, DblpConfig};
use tasm::index::{Corpus, IndexedDocument};
use tasm::ted::UnitCost;
use tasm::tree::{LabelDict, Tree, TreeQueue};
use tasm::xml::{tree_to_xml, XmlPostorderQueue};

/// The comparable projection of a ranking: shard, root id, distance, size.
fn key(ms: &[Match]) -> Vec<(u32, u32, u64, u32)> {
    ms.iter()
        .map(|m| (m.shard, m.root.post(), m.distance.halves(), m.size))
        .collect()
}

/// A small DBLP-shaped document and two queries drawn from it.
fn workload(dict: &mut LabelDict) -> (Tree, Vec<Tree>) {
    let doc = dblp_tree(dict, &DblpConfig::new(11, 1_500));
    let queries = [(6, 1), (9, 2)]
        .into_iter()
        .map(|(size, seed)| random_query(&doc, size, seed).0)
        .collect();
    (doc, queries)
}

/// The oracle ranking of every query against `doc`.
fn oracle(queries: &[BatchQuery<'_>], doc: &Tree) -> Vec<Vec<(u32, u32, u64, u32)>> {
    queries
        .iter()
        .map(|bq| {
            let opts = TasmOptions::default();
            key(&tasm_naive(bq.query, doc, bq.k, &UnitCost, opts, None))
        })
        .collect()
}

fn assert_pinned(out: &Output, want: &[Vec<(u32, u32, u64, u32)>], what: &str) {
    let got: Vec<_> = out.rankings.iter().map(|r| key(r)).collect();
    assert_eq!(got, want, "{what} diverged from tasm_naive");
}

#[test]
fn tree_stream_matches_naive_at_one_and_two_threads() {
    let mut dict = LabelDict::new();
    let (doc, queries) = workload(&mut dict);
    let bqs: Vec<_> = queries
        .iter()
        .map(|query| BatchQuery { query, k: 5 })
        .collect();
    let want = oracle(&bqs, &doc);
    let mut ws = BatchWorkspace::new();
    for threads in [1, 2] {
        let mut queue = TreeQueue::new(&doc);
        let plan = Plan {
            threads,
            ..Plan::new(Source::Stream(&mut queue), &bqs)
        };
        let out = execute(plan, &mut ws).unwrap();
        assert_pinned(&out, &want, &format!("tree stream, {threads} thread(s)"));
    }
}

#[test]
fn xml_stream_matches_naive() {
    let mut dict = LabelDict::new();
    let (doc, queries) = workload(&mut dict);
    let bqs: Vec<_> = queries
        .iter()
        .map(|query| BatchQuery { query, k: 4 })
        .collect();
    let want = oracle(&bqs, &doc);
    let xml = tree_to_xml(&doc, &dict);
    let mut queue = XmlPostorderQueue::new(xml.as_bytes(), &mut dict);
    let out = execute(
        Plan::new(Source::Stream(&mut queue), &bqs),
        &mut BatchWorkspace::new(),
    )
    .unwrap();
    assert!(queue.is_ok());
    assert_pinned(&out, &want, "XML stream");
}

#[test]
fn index_matches_naive() {
    let mut dict = LabelDict::new();
    let (doc, queries) = workload(&mut dict);
    let bqs: Vec<_> = queries
        .iter()
        .map(|query| BatchQuery { query, k: 6 })
        .collect();
    let want = oracle(&bqs, &doc);
    let idx = IndexedDocument::build(&doc, &dict);
    let out = execute(
        Plan::new(Source::index(&idx, &dict), &bqs),
        &mut BatchWorkspace::new(),
    )
    .unwrap();
    assert_pinned(&out, &want, "index");
}

#[test]
fn corpus_with_a_quarantined_shard_matches_naive_over_the_survivors() {
    let dir = std::env::temp_dir().join(format!("tasm-plan-sources-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut dict = LabelDict::new();
    let mut corpus = Corpus::create(&dir).unwrap();
    for seed in 0..3 {
        let doc = dblp_tree(&mut dict, &DblpConfig::new(20 + seed, 600));
        corpus
            .add(&format!("doc-{seed}"), &doc, &dict, None)
            .unwrap();
    }
    drop(corpus);
    // Flip one bit in the middle shard: it must be quarantined, and the
    // answer must come from the other two alone.
    let victim = dir.join("doc-1.pqi");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();
    let corpus = Corpus::open(&dir).unwrap();

    let query = dblp_tree(&mut dict, &DblpConfig::new(20, 600));
    let query = random_query(&query, 7, 3).0;
    let k = 5;
    let bqs = [BatchQuery { query: &query, k }];
    let out = execute(
        Plan::new(Source::corpus(&corpus, &dict), &bqs),
        &mut BatchWorkspace::new(),
    )
    .unwrap();
    assert_eq!(out.status.unwrap().marker(), "2/3");

    // Oracle: per surviving shard, the query re-encoded into the shard's
    // label space, merged on (distance, shard, postorder, size).
    let mut want: Vec<Match> = Vec::new();
    for (shard, _, doc) in corpus.healthy() {
        let (encoded, _) = doc.encode_query(&query, &dict);
        let hits = tasm_naive(&encoded, doc.tree(), k, &UnitCost, Default::default(), None);
        let shard = shard as u32;
        want.extend(hits.into_iter().map(|m| Match { shard, ..m }));
    }
    want.sort_by_key(|m| (m.distance, m.shard, m.root.post(), m.size));
    want.truncate(k);
    assert!(want.iter().all(|m| m.shard != 1));
    assert_pinned(&out, &[key(&want)], "degraded corpus");
    std::fs::remove_dir_all(&dir).unwrap();
}
