//! `stream`: one caller, one `tasm query --doc <f.xml>` process per op
//! over one of two ~200k-node XML documents. Each op carries b ∈ {1,2,4}
//! random-subtree queries of |Q| ∈ {4,8,16} nodes with one k ∈ {5,20}.
//! This is the paper's one-pass streaming case: the XML parse dominates,
//! the index and the server do nothing.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use tasm_tree::Tree;

use crate::inputs::{rows, Doc, Shape};
use crate::oneshot::{closed_loop, end_to_end, traced_ops, Op};
use crate::proc::run_timed;
use crate::speed::{scaled_setup, Reference};
use crate::stats::median;
use crate::trace::{self, Layers, Tracer};
use crate::{mix, Opts, Report, SETUP_REPS, THREADS};

pub const QUERY_SIZES: [u32; 3] = [4, 8, 16];
const BATCHES: [usize; 3] = [1, 2, 4];
const KS: [usize; 2] = [5, 20];
const VARIANTS: usize = 3;

/// The two resident/streamed documents of `stream` and `serve`.
pub fn documents(o: &Opts, dir: &Path) -> Vec<Doc> {
    let nodes = if o.tiny { 3_000 } else { 200_000 };
    vec![
        Doc::generate(dir, "xmark", Shape::Xmark, mix(o.seed, 1), nodes),
        Doc::generate(dir, "dblp", Shape::Dblp, mix(o.seed, 2), nodes),
    ]
}

/// Median over `reps` parses of every document with `tasm_xml`, in
/// seconds.
pub fn parse_seconds(docs: &[Doc], reps: usize) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for d in docs {
                let mut dict = tasm_tree::LabelDict::new();
                std::hint::black_box(tasm_xml::parse_tree(&d.xml[..], &mut dict).expect("parses"));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

/// One single-shard corpus per document, built with `tasm corpus build`:
/// the index a workload without one would open.
pub fn single_shard_corpora(tasm: &Path, docs: &[Doc], dir: &Path) -> Vec<PathBuf> {
    docs.iter()
        .map(|d| {
            let cdir = dir.join(format!("index-{}", d.name));
            let out = run_timed(
                Command::new(tasm)
                    .args(["corpus", "build", "--dir"])
                    .arg(&cdir)
                    .arg("--doc")
                    .arg(format!("{}={}", d.name, d.path.display())),
                Duration::from_secs(120),
            )
            .expect("spawn tasm corpus build");
            assert!(out.success, "corpus build of {} succeeds", d.name);
            cdir
        })
        .collect()
}

struct StreamOp {
    doc: usize,
    k: usize,
    texts: Vec<String>,
    queries: Vec<Tree>,
}

pub fn run(o: &Opts, dir: &Path, reference: &Reference) -> Report {
    let docs = documents(o, dir);
    let setup = scaled_setup(reference, SETUP_REPS, || parse_seconds(&docs, 1));

    let mut specs = Vec::new();
    let mut pool = Vec::new();
    for (d, doc) in docs.iter().enumerate() {
        for &b in &BATCHES {
            for &k in &KS {
                for v in 0..VARIANTS {
                    let texts: Vec<String> = (0..b)
                        .map(|j| {
                            let size = QUERY_SIZES[(v + j) % QUERY_SIZES.len()];
                            let tag = (specs.len() * 8 + j) as u64;
                            doc.random_query_text(size, mix(o.seed, 100 + tag))
                        })
                        .collect();
                    let queries: Vec<Tree> = texts.iter().map(|t| doc.parse_query(t)).collect();
                    let expected = queries
                        .iter()
                        .map(|q| rows(&doc.reference(q, k), ""))
                        .collect();
                    let mut args = vec!["query".to_string(), "--doc".to_string()];
                    args.push(doc.path.display().to_string());
                    for t in &texts {
                        args.push("--query-str".into());
                        args.push(t.clone());
                    }
                    args.extend(["--k".into(), k.to_string()]);
                    args.extend(["--threads".into(), THREADS.to_string()]);
                    pool.push(Op {
                        args,
                        expected,
                        nodes: doc.nodes(),
                    });
                    specs.push(StreamOp {
                        doc: d,
                        k,
                        texts,
                        queries,
                    });
                }
            }
        }
    }
    let corpora = o.trace.then(|| single_shard_corpora(&o.tasm, &docs, dir));

    let origin = Instant::now();
    let records = closed_loop(o, reference, &mut pool);
    let attempted = records.len() as u64;
    let failed = records.iter().filter(|r| !r.ok).count() as u64;
    let xml_bytes: usize = docs.iter().map(|d| d.xml.len()).sum();
    let nodes: usize = docs.iter().map(Doc::nodes).sum();

    let mut facts = vec![
        (
            "doc_nodes",
            format!("[{}, {}]", docs[0].nodes(), docs[1].nodes()),
        ),
        (
            "doc_bytes",
            format!("[{}, {}]", docs[0].xml.len(), docs[1].xml.len()),
        ),
        ("ops_in_pool", pool.len().to_string()),
    ];
    let (metrics, tracer) = if let Some(corpora) = corpora {
        let mut tr = Tracer::new(origin);
        let mut layers = Layers::default();
        layers.absorb(&traced_ops(&records));
        let traced: Vec<_> = records
            .iter()
            .filter(|r| r.ok && r.funnel.is_some())
            .collect();
        for (op, &i) in trace::sample(traced.len(), trace::REPLAY_OPS)
            .iter()
            .enumerate()
        {
            let r = traced[i];
            let spec = &specs[r.pool];
            let doc = &docs[spec.doc];
            let root = tr.add(op, None, "cli", "measured", r.start, r.end);
            let (_, xml_ms, _) =
                tr.time(op, Some(root), "xml.parse", || trace::drain_xml(&doc.xml));
            layers.xml_parse_ms.push(xml_ms);
            layers.xml_share.push(xml_ms / r.latency_ms);
            let (mut scan, mut eval, mut cands) = (0f64, 0f64, 0f64);
            // The engine runs on the worker threads beside the parse, so
            // its replay is a probe, not a child of the op.
            for (q, text) in spec.queries.iter().zip(&spec.texts) {
                let (hits, s, e, c) = layers.replay_engine(&mut tr, op, None, q, &doc.tree, spec.k);
                layers.heap_job(&doc.path, text, spec.k);
                // One shared scan serves the whole batch in the program.
                scan = scan.max(s);
                cands = cands.max(c);
                eval += e;
                layers.sample_ted(&mut tr, op, q, &doc.tree, &hits);
            }
            layers.scan_ms.push(scan);
            layers.eval_ms.push(eval);
            layers.candidates.push(cands);
            layers.outer_self_ms.push(tr.self_ms(root));
            let (open_ms, _) = trace::open_corpus(&mut tr, op, None, &corpora[spec.doc]);
            layers.open_ms.push(open_ms);
            layers.open_share.push(open_ms / r.latency_ms);
            let f = trace::corpus_query_stats(
                &o.tasm,
                &corpora[spec.doc],
                &spec.texts[0],
                spec.k,
                THREADS,
            );
            layers.shard_ms.push(f.shard_ms);
            layers
                .examined_ratio
                .push(f.nodes_seen / doc.nodes() as f64);
        }
        layers.measure_heap();
        layers.cli_self_ms = trace::cli_self_ms(&o.tasm, dir);
        facts.push(("replayed_ops", layers.xml_parse_ms.len().to_string()));
        (layers.metrics(), Some(tr))
    } else {
        (
            end_to_end(
                &pool,
                &records,
                setup.scaled_s,
                xml_bytes as f64 / nodes as f64,
            ),
            None,
        )
    };
    Report {
        attempted,
        failed,
        sound: true,
        metrics,
        facts,
        tracer,
    }
}
