//! The traced run: spans recorded around in-process layer replays, the
//! program's own funnel counts, and the per-layer metrics built from
//! both.
//!
//! Each traced op gets a root span whose duration is the op's measured
//! latency. Replays of the layers on the op's critical path are its
//! children; the root's self time (duration minus its children) is the
//! part of the latency the replays do not explain. Probes, such as TED
//! samples and the counterfactual index of a workload that has none, are
//! root-level spans of the op outside that tree. Replays call only
//! `XmlPostorderQueue`, `prb_pruning_stats`, `tasm_postorder`,
//! `ted_with_kernel` and `Corpus::open`.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufReader, Write as _};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use tasm_core::{prb_pruning_stats, tasm_postorder, threshold_for_query, Match, TasmOptions};
use tasm_index::Corpus;
use tasm_ted::{ted_with_kernel, TedKernel, UnitCost};
use tasm_tree::{LabelDict, PostorderQueue, Tree, TreeQueue};
use tasm_xml::XmlPostorderQueue;

use crate::proc::run_timed;
use crate::stats::{median, ms};

/// Ops replayed per traced run, sampled evenly from the traced ops.
pub const REPLAY_OPS: usize = 16;

pub struct Span {
    op: usize,
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    source: &'static str,
    start: Duration,
    end: Duration,
}

/// In-memory span store, written out once when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span. `source` says where its interval comes from:
    /// `measured` (the op as the client saw it) or `replay` (an
    /// in-process call).
    pub fn add(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        source: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            source,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        id
    }

    /// Times `f` as a replay span.
    pub fn time<T>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64, usize) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.add(op, parent, name, "replay", t0, t1);
        (out, ms(t1 - t0), id)
    }

    fn dur_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        ms(s.end.saturating_sub(s.start))
    }

    /// A span's duration minus its direct children's durations.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| self.dur_ms(s.id))
            .sum();
        self.dur_ms(id) - children
    }

    /// Writes one JSON object per line: a header with the run facts, then
    /// every span.
    pub fn write(&self, path: &Path, facts_json: &str) -> io::Result<()> {
        let mut out = format!("{{\"facts\": {facts_json}}}\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"source\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}}}",
                s.op,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.source,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// The program's own funnel counts, summed over traced ops: from
/// `--stats` lines of the CLI or the daemon's `STATS` line.
#[derive(Debug, Default, Clone)]
pub struct Funnel {
    pub ops: u64,
    pub nodes_seen: f64,
    pub pruned_histogram: f64,
    pub pruned_sed: f64,
    pub evaluated: f64,
    pub evaluated_strategy: f64,
    /// Sum of the per-shard times of `corpus query --stats`.
    pub shard_ms: f64,
}

/// The number right after `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

impl Funnel {
    /// Parses one op's statistics; returns `None` if the funnel lines are
    /// missing.
    pub fn parse(text: &str) -> Option<Funnel> {
        let mut f = Funnel {
            ops: 1,
            ..Funnel::default()
        };
        let mut seen = false;
        for line in text.lines() {
            if line.starts_with("# scan:") {
                f.nodes_seen = number_after(line, "candidates from ")?;
            } else if line.starts_with("# prune funnel:") {
                f.pruned_histogram = number_after(line, "histogram-pruned ")?;
                f.pruned_sed = number_after(line, "sed-pruned ")?;
                f.evaluated = number_after(line, "evaluated ")?;
                seen = true;
            } else if line.starts_with("# kernel funnel:") {
                f.evaluated_strategy = number_after(line, "strategy=")?;
            } else if line.starts_with("# shard ") {
                f.shard_ms += number_after(line, "): ")?;
            } else if line.starts_with("STATS ") {
                f.nodes_seen = number_after(line, "nodes_seen=")?;
                f.pruned_histogram = number_after(line, "pruned_histogram=")?;
                f.pruned_sed = number_after(line, "pruned_sed=")?;
                f.evaluated = number_after(line, " evaluated=")?;
                f.evaluated_strategy = number_after(line, "evaluated_strategy=")?;
                seen = true;
            }
        }
        seen.then_some(f)
    }

    pub fn add(&mut self, o: &Funnel) {
        self.ops += o.ops;
        self.nodes_seen += o.nodes_seen;
        self.pruned_histogram += o.pruned_histogram;
        self.pruned_sed += o.pruned_sed;
        self.evaluated += o.evaluated;
        self.evaluated_strategy += o.evaluated_strategy;
        self.shard_ms += o.shard_ms;
    }
}

/// Per-op samples of every layer, reduced to the per-layer metrics.
#[derive(Default)]
pub struct Layers {
    pub xml_parse_ms: Vec<f64>,
    pub xml_share: Vec<f64>,
    pub scan_ms: Vec<f64>,
    pub candidates: Vec<f64>,
    pub eval_ms: Vec<f64>,
    pub funnel: Funnel,
    pub ted_ns: f64,
    pub ted_samples: f64,
    pub outer_self_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    pub open_share: Vec<f64>,
    pub shard_ms: Vec<f64>,
    pub examined_ratio: Vec<f64>,
    pub cli_self_ms: f64,
    /// `perfbench-heap` jobs: `<k>\t<document>\t<query>` lines.
    pub heap_jobs: String,
    pub heap_peak_bytes: usize,
    /// Traced minus untraced latency of the same op, run back to back.
    pub overhead_ms: Vec<f64>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl Layers {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let f = &self.funnel;
        let ops = f.ops.max(1) as f64;
        vec![
            ("xml.parse_ms", median(&self.xml_parse_ms)),
            ("xml.share", median(&self.xml_share)),
            ("ring_buffer.scan_ms", median(&self.scan_ms)),
            ("ring_buffer.candidates", median(&self.candidates)),
            ("engine.eval_ms", median(&self.eval_ms)),
            (
                "cascade.evaluated_ratio",
                ratio(f.evaluated, f.evaluated + f.pruned_histogram + f.pruned_sed),
            ),
            ("cascade.pruned_histogram", f.pruned_histogram / ops),
            ("cascade.pruned_sed", f.pruned_sed / ops),
            ("ted.ns_per_call", ratio(self.ted_ns, self.ted_samples)),
            ("ted.calls", f.evaluated / ops),
            (
                "ted.strategy_share",
                ratio(f.evaluated_strategy, f.evaluated),
            ),
            ("server.self_ms_p50", median(&self.outer_self_ms)),
            ("index.open_ms", median(&self.open_ms)),
            ("index.open_share", median(&self.open_share)),
            ("corpus.shard_ms", median(&self.shard_ms)),
            ("index.nodes_examined_ratio", median(&self.examined_ratio)),
            ("cli.self_ms", self.cli_self_ms),
            ("heap.peak_kib", self.heap_peak_bytes as f64 / 1024.0),
            ("trace.overhead_ms", median(&self.overhead_ms)),
        ]
    }

    /// Replays one query's engine layer: `tasm_postorder` over a
    /// `TreeQueue`, and as its child the ring-buffer scan alone at the
    /// query's τ. Returns the ranking, the scan time, the engine time
    /// minus the scan, and the candidate count.
    pub fn replay_engine(
        &mut self,
        tr: &mut Tracer,
        op: usize,
        parent: Option<usize>,
        query: &Tree,
        doc: &Tree,
        k: usize,
    ) -> (Vec<Match>, f64, f64, f64) {
        let (matches, post_ms, engine) = tr.time(op, parent, "engine", || {
            tasm_postorder(
                query,
                &mut TreeQueue::new(doc),
                k,
                &UnitCost,
                1,
                TasmOptions::default(),
                None,
            )
        });
        let tau = threshold_for_query(query, &UnitCost, 1, k as u64);
        let tau = u32::try_from(tau).unwrap_or(u32::MAX);
        let (pruning, scan_ms, _) = tr.time(op, Some(engine), "ring_buffer.scan", || {
            prb_pruning_stats(&mut TreeQueue::new(doc), tau, None)
        });
        (
            matches,
            scan_ms,
            post_ms - scan_ms,
            pruning.candidates as f64,
        )
    }

    /// Takes in ops run as back-to-back (untraced, traced) pairs of the
    /// same request, in run order: sums the traced ops' funnels and keeps
    /// each pair's latency difference as the tracing overhead.
    pub fn absorb(&mut self, ops: &[(usize, bool, f64, Option<&Funnel>)]) {
        for &(_, ok, _, funnel) in ops {
            if let (true, Some(f)) = (ok, funnel) {
                self.funnel.add(f);
            }
        }
        for w in ops.windows(2) {
            let ((pa, oka, la, fa), (pb, okb, lb, fb)) = (w[0], w[1]);
            if pa == pb && oka && okb && fa.is_none() && fb.is_some() {
                self.overhead_ms.push(lb - la);
            }
        }
    }

    /// Queues one `tasm_postorder` run for the heap probe.
    pub fn heap_job(&mut self, doc: &Path, query: &str, k: usize) {
        let _ = writeln!(self.heap_jobs, "{k}\t{}\t{query}", doc.display());
    }

    /// Runs the queued jobs in `perfbench-heap` (the counting allocator
    /// lives there, away from the timed replays) and keeps the largest
    /// peak.
    pub fn measure_heap(&mut self) {
        let exe = std::env::current_exe().expect("own path");
        let probe = exe.with_file_name("perfbench-heap");
        let mut child = Command::new(&probe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot run {}: {e}", probe.display()));
        let jobs = std::mem::take(&mut self.heap_jobs);
        let mut stdin = child.stdin.take().expect("piped stdin");
        let writer = std::thread::spawn(move || stdin.write_all(jobs.as_bytes()));
        let out = child.wait_with_output().expect("heap probe runs");
        writer.join().expect("writer").expect("jobs written");
        assert!(out.status.success(), "heap probe succeeds");
        self.heap_peak_bytes = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .expect("heap probe prints a byte count");
    }

    /// Times `ted_with_kernel` between the query and each matched
    /// subtree, as a probe span.
    pub fn sample_ted(
        &mut self,
        tr: &mut Tracer,
        op: usize,
        query: &Tree,
        doc: &Tree,
        hits: &[Match],
    ) {
        let subtrees: Vec<Tree> = hits.iter().take(8).map(|m| doc.subtree(m.root)).collect();
        let (_, took, _) = tr.time(op, None, "ted.sample", || {
            for t in &subtrees {
                std::hint::black_box(ted_with_kernel(query, t, &UnitCost, TedKernel::Auto));
            }
        });
        self.ted_ns += took * 1e6;
        self.ted_samples += subtrees.len() as f64;
    }
}

/// Drains an `XmlPostorderQueue` over a document's bytes and returns the
/// node count.
pub fn drain_xml(xml: &[u8]) -> usize {
    let mut dict = LabelDict::new();
    let mut queue = XmlPostorderQueue::new(BufReader::new(xml), &mut dict);
    let mut n = 0;
    while queue.dequeue().is_some() {
        n += 1;
    }
    assert!(queue.is_ok(), "generated XML drains cleanly");
    n
}

/// Times `Corpus::open` on `dir` (verifying every shard).
pub fn open_corpus(tr: &mut Tracer, op: usize, parent: Option<usize>, dir: &Path) -> (f64, usize) {
    let (corpus, took, id) = tr.time(op, parent, "index.open", || Corpus::open(dir));
    let corpus = corpus.expect("benchmark corpus opens");
    assert_eq!(
        corpus.healthy_count(),
        corpus.total_shards(),
        "no shard quarantined"
    );
    (took, id)
}

/// Runs `tasm corpus query --stats` and returns its funnel (with the
/// per-shard time sum).
pub fn corpus_query_stats(
    tasm: &Path,
    dir: &Path,
    query: &str,
    k: usize,
    threads: usize,
) -> Funnel {
    let out = run_timed(
        Command::new(tasm)
            .args(["corpus", "query", "--dir"])
            .arg(dir)
            .args(["--query-str", query, "--k", &k.to_string()])
            .args(["--threads", &threads.to_string(), "--stats"]),
        Duration::from_secs(60),
    )
    .expect("spawn tasm corpus query");
    assert!(out.success, "corpus query --stats succeeds");
    Funnel::parse(&out.stdout).expect("corpus query prints its funnel")
}

/// The fixed process cost: median of `tasm query` over a one-node
/// document.
pub fn cli_self_ms(tasm: &Path, dir: &Path) -> f64 {
    let doc = dir.join("one-node.xml");
    fs::write(&doc, "<a/>").expect("write one-node document");
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let out = run_timed(
                Command::new(tasm).args(["query", "--doc"]).arg(&doc).args([
                    "--query-str",
                    "<a/>",
                    "--k",
                    "1",
                ]),
                Duration::from_secs(30),
            )
            .expect("spawn tasm query");
            assert!(out.success, "one-node query succeeds");
            ms(out.latency)
        })
        .collect();
    median(&times)
}

/// Evenly spaced indices of at most `n` items out of `len`.
pub fn sample(len: usize, n: usize) -> Vec<usize> {
    if len <= n {
        return (0..len).collect();
    }
    (0..n).map(|i| i * len / n).collect()
}
