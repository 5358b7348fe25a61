//! `corpus`: set-up runs `tasm corpus build` over 8 generated shards of
//! ~50k nodes (xmark-like and dblp-like in turn); then one caller spawns
//! one `tasm corpus query` per op with |Q| ∈ {4,8,16} and k ∈ {10,50}.
//! The one-shot user pays the corpus open and verification, then
//! index-driven candidate generation, on every query; there is no XML
//! document parse and no ring-buffer scan.

use std::fs;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use tasm_tree::Tree;

use crate::inputs::{dir_bytes, merge_shards, Doc, Shape};
use crate::oneshot::{closed_loop, end_to_end, traced_ops, Op};
use crate::proc::run_timed;
use crate::speed::{scaled_setup, Reference, Setup};
use crate::stats::{median, ms};
use crate::stream::QUERY_SIZES;
use crate::trace::{self, Layers, Tracer};
use crate::{mix, Opts, Report, SETUP_REPS, THREADS};

const KS: [usize; 2] = [10, 50];
const VARIANTS: usize = 4;

struct CorpusOp {
    k: usize,
    text: String,
    /// The query parsed into each shard's dictionary.
    per_shard: Vec<Tree>,
}

/// Builds the corpus into `cdir` `SETUP_REPS` times, each into a fresh
/// directory.
fn build(tasm: &Path, shards: &[Doc], cdir: &Path, reference: &Reference) -> Setup {
    scaled_setup(reference, SETUP_REPS, || {
        let _ = fs::remove_dir_all(cdir);
        let mut cmd = Command::new(tasm);
        cmd.args(["corpus", "build", "--dir"]).arg(cdir);
        for s in shards {
            cmd.arg("--doc")
                .arg(format!("{}={}", s.name, s.path.display()));
        }
        let out = run_timed(&mut cmd, Duration::from_secs(300)).expect("spawn tasm corpus build");
        assert!(out.success && !out.timed_out, "tasm corpus build succeeds");
        out.latency.as_secs_f64()
    })
}

pub fn run(o: &Opts, dir: &Path, reference: &Reference) -> Report {
    let (n_shards, shard_nodes) = if o.tiny { (2, 1_500) } else { (8, 50_000) };
    let shards: Vec<Doc> = (0..n_shards)
        .map(|i| {
            let shape = if i % 2 == 0 {
                Shape::Xmark
            } else {
                Shape::Dblp
            };
            Doc::generate(
                dir,
                &format!("s{i}"),
                shape,
                mix(o.seed, 10 + i as u64),
                shard_nodes,
            )
        })
        .collect();
    let total_nodes: usize = shards.iter().map(Doc::nodes).sum();
    let cdir = dir.join("corpus");
    let setup = build(&o.tasm, &shards, &cdir, reference);

    let mut specs = Vec::new();
    let mut pool = Vec::new();
    for (si, &size) in QUERY_SIZES.iter().enumerate() {
        for &k in &KS {
            for v in 0..VARIANTS {
                let source = &shards[(si * VARIANTS + v) % shards.len()];
                let text = source.random_query_text(size, mix(o.seed, 200 + specs.len() as u64));
                let per_shard: Vec<Tree> = shards.iter().map(|s| s.parse_query(&text)).collect();
                let hits: Vec<_> = shards
                    .iter()
                    .zip(&per_shard)
                    .map(|(s, q)| (s.name.clone(), s.reference(q, k)))
                    .collect();
                let mut args = vec!["corpus".to_string(), "query".into(), "--dir".into()];
                args.push(cdir.display().to_string());
                args.extend(["--query-str".into(), text.clone()]);
                args.extend(["--k".into(), k.to_string()]);
                args.extend(["--threads".into(), THREADS.to_string()]);
                pool.push(Op {
                    args,
                    expected: vec![merge_shards(&hits, k)],
                    nodes: total_nodes,
                });
                specs.push(CorpusOp { k, text, per_shard });
            }
        }
    }

    let origin = Instant::now();
    let records = closed_loop(o, reference, &mut pool);
    let attempted = records.len() as u64;
    let failed = records.iter().filter(|r| !r.ok).count() as u64;
    let corpus_bytes = dir_bytes(&cdir).expect("corpus directory is readable");

    let mut facts = vec![
        ("shards", n_shards.to_string()),
        (
            "shard_nodes",
            format!(
                "[{}]",
                shards
                    .iter()
                    .map(|s| s.nodes().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("corpus_bytes", corpus_bytes.to_string()),
        ("ops_in_pool", pool.len().to_string()),
    ];
    let (metrics, tracer) = if o.trace {
        let mut tr = Tracer::new(origin);
        let mut layers = Layers::default();
        layers.absorb(&traced_ops(&records));
        // The build's parse: every shard's XML, drained `SETUP_REPS` times.
        let parse: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t0 = Instant::now();
                for s in &shards {
                    trace::drain_xml(&s.xml);
                }
                ms(t0.elapsed())
            })
            .collect();
        layers.xml_parse_ms.push(median(&parse));
        layers.xml_share.push(median(&parse) / (setup.raw_s * 1e3));
        let traced: Vec<_> = records
            .iter()
            .filter(|r| r.ok && r.funnel.is_some())
            .collect();
        for (op, &i) in trace::sample(traced.len(), trace::REPLAY_OPS)
            .iter()
            .enumerate()
        {
            let r = traced[i];
            let f = r.funnel.as_ref().expect("traced op");
            let spec = &specs[r.pool];
            let root = tr.add(op, None, "cli", "measured", r.start, r.end);
            let (open_ms, _) = trace::open_corpus(&mut tr, op, Some(root), &cdir);
            layers.open_ms.push(open_ms);
            layers.open_share.push(open_ms / r.latency_ms);
            layers.shard_ms.push(f.shard_ms);
            layers
                .examined_ratio
                .push(f.nodes_seen / total_nodes as f64);
            layers.outer_self_ms.push(tr.self_ms(root));
            // What a scan executor would do instead of the index: the
            // engine over every shard, as probes outside the op's tree.
            let (mut scan, mut eval, mut cands) = (0f64, 0f64, 0f64);
            let mut shard_hits = Vec::new();
            for (shard, q) in shards.iter().zip(&spec.per_shard) {
                let (hits, sc, ev, c) =
                    layers.replay_engine(&mut tr, op, None, q, &shard.tree, spec.k);
                layers.heap_job(&shard.path, &spec.text, spec.k);
                scan += sc;
                eval += ev;
                cands += c;
                shard_hits.push(hits);
            }
            layers.scan_ms.push(scan);
            layers.eval_ms.push(eval);
            layers.candidates.push(cands);
            // TED samples from the shard that holds the top row.
            let top = &pool[r.pool].expected[0][0].doc;
            let s = shards
                .iter()
                .position(|d| &d.name == top)
                .expect("top row names a shard");
            layers.sample_ted(
                &mut tr,
                op,
                &spec.per_shard[s],
                &shards[s].tree,
                &shard_hits[s],
            );
        }
        layers.measure_heap();
        layers.cli_self_ms = trace::cli_self_ms(&o.tasm, dir);
        facts.push(("replayed_ops", layers.open_ms.len().to_string()));
        (layers.metrics(), Some(tr))
    } else {
        (
            end_to_end(
                &pool,
                &records,
                setup.scaled_s,
                corpus_bytes as f64 / total_nodes as f64,
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
