//! `serve`: a `tasm serve --tcp 127.0.0.1:0` daemon with default flags
//! holds the two ~200k-node documents resident; 2 client threads, one
//! connection each, send their next `QUERY` when the previous `END`
//! arrives. Requests come from a seeded pool of 64 queries: |Q| ∈
//! {4,8,16} and k ∈ {5,100}, and 1 in 8 is a right comb of 17 nodes. No
//! document is parsed per request: the ring-buffer scan, the cascade,
//! the TED kernels and the server/transport do all the work.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use tasm_tree::Tree;

use crate::inputs::{corrupt, rows, schedule, Doc, Row};
use crate::oneshot::{latency_metrics, traced_ops, Record};
use crate::proc::{vm_hwm_kib, Daemon};
use crate::speed::{scaled_setup, Reference};
use crate::stats::ms;
use crate::stream::{documents, parse_seconds, single_shard_corpora, QUERY_SIZES};
use crate::trace::{self, Funnel, Layers, Tracer};
use crate::{mix, Opts, Report, SETUP_REPS, THREADS};

const KS: [usize; 2] = [5, 100];
/// Right-comb depth: 2·8 + 1 = 17 nodes.
const COMB_DEPTH: usize = 8;
/// The daemon's default `--workers`.
const DAEMON_WORKERS: usize = 2;

struct Request {
    doc: usize,
    k: usize,
    line: String,
    query: Tree,
    expected: Vec<Row>,
}

/// Reads one response; `Err` for `ERR`, `BUSY`, a malformed frame or a
/// transport failure.
fn read_response(reader: &mut impl BufRead) -> Result<(Vec<Row>, Option<Funnel>), String> {
    let mut line = String::new();
    let mut next = |line: &mut String| -> Result<(), String> {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        }
    };
    next(&mut line)?;
    let n: usize = line
        .trim_end()
        .strip_prefix("OK ")
        .and_then(|r| r.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| line.trim_end().to_string())?;
    let mut got = Vec::with_capacity(n);
    for _ in 0..n {
        next(&mut line)?;
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 4 {
            return Err(format!("bad row: {line}"));
        }
        got.push(Row {
            doc: String::new(),
            node: f[1].parse().map_err(|_| format!("bad row: {line}"))?,
            distance: f[2].to_string(),
        });
    }
    next(&mut line)?;
    let mut funnel = None;
    if line.starts_with("STATS ") {
        funnel = Funnel::parse(&line);
        next(&mut line)?;
    }
    if line.trim_end() != "END" {
        return Err(format!("expected END, got {line}"));
    }
    Ok((got, funnel))
}

/// One client connection's closed loop.
fn client(
    o: &Opts,
    addr: std::net::SocketAddr,
    pool: &[Request],
    order: &[usize],
    next: &AtomicUsize,
    t0: Instant,
) -> Vec<Record> {
    let deadline = Duration::from_secs_f64(o.seconds);
    let connect = || -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        let r = BufReader::new(s.try_clone()?);
        Ok((s, r))
    };
    let mut conn = connect().ok();
    let mut out = Vec::new();
    // A traced run sends each request twice, back to back: as is, then
    // with `stats=1`.
    let passes: &[bool] = if o.trace { &[false, true] } else { &[false] };
    while t0.elapsed() < deadline {
        let p = order[next.fetch_add(1, Ordering::Relaxed) % order.len()];
        let req = &pool[p];
        for &traced in passes {
            let line = if traced {
                req.line.replacen("QUERY ", "QUERY stats=1 ", 1)
            } else {
                req.line.clone()
            };
            let start = Instant::now();
            let result = match conn.as_mut() {
                None => Err("not connected".to_string()),
                Some((w, r)) => w
                    .write_all(line.as_bytes())
                    .map_err(|e| e.to_string())
                    .and_then(|()| read_response(r)),
            };
            let end = Instant::now();
            let (ok, funnel) = match result {
                Ok((got, funnel)) => (got == req.expected, funnel),
                Err(e) => {
                    eprintln!("perfbench: request failed: {e}");
                    conn = connect().ok();
                    (false, None)
                }
            };
            out.push(Record {
                pool: p,
                ok,
                latency_ms: ms(end - start),
                scaled_ms: 0.0,
                rss_kib: 0,
                start,
                end,
                funnel,
            });
        }
    }
    out
}

pub fn run(o: &Opts, dir: &Path, reference: &Reference) -> Report {
    let docs = documents(o, dir);
    let mut daemon_args = Vec::new();
    for d in &docs {
        daemon_args.push("--doc".to_string());
        daemon_args.push(format!("{}={}", d.name, d.path.display()));
    }
    let mut daemon: Option<Daemon> = None;
    let setup = scaled_setup(reference, SETUP_REPS, || {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d);
        }
        let (d, took) = Daemon::launch(&o.tasm, &daemon_args).expect("daemon starts");
        daemon = Some(d);
        took.as_secs_f64()
    });
    let daemon = daemon.expect("launched");

    let (n_random, n_comb) = if o.tiny { (14, 2) } else { (56, 8) };
    let mut pool = Vec::new();
    for i in 0..n_random + n_comb {
        let d = i % docs.len();
        let doc = &docs[d];
        let (text, k) = if i < n_random {
            let size = QUERY_SIZES[(i / 2) % QUERY_SIZES.len()];
            let k = KS[(i / 6) % KS.len()];
            (doc.random_query_text(size, mix(o.seed, 300 + i as u64)), k)
        } else {
            let k = KS[(i / 2) % KS.len()];
            (
                doc.comb_query_text(COMB_DEPTH, mix(o.seed, 300 + i as u64)),
                k,
            )
        };
        let query = doc.parse_query(&text);
        let expected = rows(&doc.reference(&query, k), "");
        pool.push(Request {
            doc: d,
            k,
            line: format!("QUERY doc={} k={k} q={text}\n", doc.name),
            query,
            expected,
        });
    }
    let order = schedule(pool.len(), 1 << 16, mix(o.seed, 0x5e7));
    if o.corrupt {
        corrupt(std::slice::from_mut(&mut pool[order[0]].expected));
    }

    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<Vec<Record>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| s.spawn(|| client(o, daemon.addr, &pool, &order, &next, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut records: Vec<&Record> = per_client.iter().flatten().collect();
    records.sort_by_key(|r| r.start);
    let rss_kib = vm_hwm_kib(daemon.pid()).unwrap_or(0);
    let drained = daemon.shutdown();

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
        ("daemon_workers", DAEMON_WORKERS.to_string()),
        ("connections", THREADS.to_string()),
        ("requests_in_pool", pool.len().to_string()),
        ("daemon_drained", drained.to_string()),
    ];
    let ok: Vec<&Record> = records.iter().copied().filter(|r| r.ok).collect();
    let (metrics, tracer) = if o.trace {
        let mut tr = Tracer::new(t0);
        let mut layers = Layers::default();
        for recs in &per_client {
            layers.absorb(&traced_ops(recs));
        }
        // The daemon's set-up parse of its resident documents.
        let parse_ms = parse_seconds(&docs, SETUP_REPS) * 1e3;
        layers.xml_parse_ms.push(parse_ms);
        layers.xml_share.push(parse_ms / (setup.raw_s * 1e3));
        let corpora = single_shard_corpora(&o.tasm, &docs, dir);
        let traced: Vec<&&Record> = ok.iter().filter(|r| r.funnel.is_some()).collect();
        for (op, &i) in trace::sample(traced.len(), trace::REPLAY_OPS)
            .iter()
            .enumerate()
        {
            let r = traced[i];
            let req = &pool[r.pool];
            let doc = &docs[req.doc];
            let root = tr.add(op, None, "server", "measured", r.start, r.end);
            let (hits, scan, eval, cands) =
                layers.replay_engine(&mut tr, op, Some(root), &req.query, &doc.tree, req.k);
            layers.scan_ms.push(scan);
            layers.eval_ms.push(eval);
            layers.candidates.push(cands);
            layers.outer_self_ms.push(tr.self_ms(root));
            layers.sample_ted(&mut tr, op, &req.query, &doc.tree, &hits);
            let text = req.line.split_once(" q=").expect("query line").1.trim_end();
            layers.heap_job(&doc.path, text, req.k);
            let (open_ms, _) = trace::open_corpus(&mut tr, op, None, &corpora[req.doc]);
            layers.open_ms.push(open_ms);
            layers.open_share.push(open_ms / r.latency_ms);
            let f = trace::corpus_query_stats(&o.tasm, &corpora[req.doc], text, req.k, THREADS);
            layers.shard_ms.push(f.shard_ms);
            layers
                .examined_ratio
                .push(f.nodes_seen / doc.nodes() as f64);
        }
        layers.measure_heap();
        layers.cli_self_ms = trace::cli_self_ms(&o.tasm, dir);
        facts.push(("replayed_ops", layers.scan_ms.len().to_string()));
        (layers.metrics(), Some(tr))
    } else {
        let lat: Vec<(usize, f64)> = ok.iter().map(|r| (r.pool, r.latency_ms)).collect();
        let searched: f64 = ok
            .iter()
            .map(|r| docs[pool[r.pool].doc].nodes() as f64)
            .sum();
        let secs = elapsed.as_secs_f64();
        let mut m = vec![
            ("setup_s", setup.scaled_s),
            ("nodes_per_s", searched / secs),
            ("requests_per_s", ok.len() as f64 / secs),
            ("rss_mib", rss_kib as f64 / 1024.0),
            ("bytes_per_node", xml_bytes as f64 / nodes as f64),
        ];
        m.extend(latency_metrics(&lat));
        (m, None)
    };
    Report {
        attempted,
        failed,
        sound: drained,
        metrics,
        facts,
        tracer,
    }
}
