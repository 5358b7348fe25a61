//! Cross-document top-k over a [`Corpus`] — the
//! [`Source::Corpus`](crate::Source::Corpus) arm of
//! [`execute`](crate::execute): every healthy shard answers through the
//! index driver, and the per-shard rankings merge into one corpus-wide
//! top-k per query.
//!
//! # The corpus is the parallel unit
//!
//! Shards are independent documents, so the natural work unit is
//! (shard × query-batch). The scheduler splits the thread budget
//! *across* shards first: `workers = min(threads, shards)` scoped
//! worker threads pull shard indices from a shared counter, each
//! answering the whole query batch over its shards. Leftover budget
//! falls back *inside* the shards — each worker passes
//! `threads / workers` lanes down to the per-shard indexed pass — so a
//! two-shard corpus on eight threads still uses all eight. With one
//! thread (or one shard) the loop runs inline on the caller's thread.
//!
//! # Degraded mode is explicit, never silent
//!
//! A corpus opened with quarantined shards still answers: the healthy
//! shards are queried normally and the result carries a
//! [`CorpusStatus`] stating exactly how many shards participated.
//! Callers (the CLI's `--stats`, the daemon's `OK`/`STATS` lines)
//! surface the `healthy/total` marker so a degraded answer can never be
//! mistaken for a complete one.
//!
//! # Determinism
//!
//! Every match carries its manifest shard index in [`Match::shard`],
//! and the rank key `(distance, shard, postorder, size)` is a **total**
//! order over all corpus matches (shard + postorder is unique). Every
//! per-shard ranking is thread-count-invariant and each lane keeps
//! exactly the `k` smallest keys of the union in a [`TopKHeap`] — so
//! the merged ranking is independent of shard evaluation order, worker
//! count and inner lane count, and identical to concatenating
//! per-document index runs and sorting (pinned by
//! `tests/corpus_differential.rs`). Memory per lane is O(k), not
//! O(shards · k).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use crate::batch::BatchQuery;
use crate::engine::ScanStats;
use crate::exec::{ExecError, Output};
use crate::indexed::indexed_batch;
use crate::ranking::{Match, TopKHeap};
use crate::server::deadline::{Deadline, DeadlineExceeded};
use crate::tasm_dynamic::TasmOptions;
use tasm_index::{Corpus, IndexedDocument};
use tasm_ted::{CostModel, TedStats};
use tasm_tree::LabelDict;

/// How much of the corpus answered: `healthy` of `total` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStatus {
    /// Shards that passed verification and were queried.
    pub healthy: usize,
    /// Shards listed by the manifest.
    pub total: usize,
}

impl CorpusStatus {
    /// Whether any shard was quarantined — the answer misses whatever
    /// the damaged shards contained.
    pub fn is_degraded(&self) -> bool {
        self.healthy < self.total
    }

    /// The `healthy/total` marker surfaced by `--stats` and the daemon.
    pub fn marker(&self) -> String {
        format!("{}/{}", self.healthy, self.total)
    }
}

/// Where the time of one corpus answer went: per-shard wall clock and
/// scan funnel, in manifest shard order (healthy shards only).
#[derive(Debug, Clone)]
pub struct CorpusShardStats {
    /// Manifest shard index.
    pub shard: usize,
    /// Document name of the shard.
    pub name: String,
    /// Wall-clock nanoseconds the shard's indexed pass took (measured
    /// on whichever worker ran it, so overlapping shards each report
    /// their own time).
    pub nanos: u64,
    /// The shard's own [`ScanStats`] funnel.
    pub scan: ScanStats,
}

impl CorpusShardStats {
    /// The shard's wall-clock time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

/// Everything one worker accumulated over the shards it pulled.
struct CorpusWorkerOutput {
    /// Per-query top-k heaps over this worker's shards.
    lanes: Vec<TopKHeap>,
    /// Per-query funnels, summed over this worker's shards.
    lane_scans: Vec<ScanStats>,
    /// Merged funnel over this worker's shards.
    scan: ScanStats,
    /// Timing + funnel per shard this worker ran.
    shard_stats: Vec<CorpusShardStats>,
    /// TED counters, collected only when the caller asked for them.
    ted: Option<TedStats>,
}

/// One top-k heap per query, sized by its `k` (clamped to `>= 1`).
fn lane_heaps(queries: &[BatchQuery<'_>]) -> Vec<TopKHeap> {
    queries
        .iter()
        .map(|bq| TopKHeap::new(bq.k.max(1)))
        .collect()
}

/// One scheduler worker: pulls shard indices from the shared counter
/// until the corpus is drained, the deadline expires, or another worker
/// cancels the batch. Runs the whole query batch over each shard with
/// `inner` intra-shard lanes.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    shards: &[(usize, &str, &IndexedDocument)],
    next: &AtomicUsize,
    cancelled: &AtomicBool,
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    inner: usize,
    want_ted: bool,
    expiry: Option<Instant>,
) -> Result<CorpusWorkerOutput, ExecError> {
    // `Deadline` is deliberately not `Sync`, so each worker mints its
    // own token from the shared expiry instant.
    let deadline = match expiry {
        Some(at) => Deadline::at(at),
        None => Deadline::none(),
    };
    let mut out = CorpusWorkerOutput {
        lanes: lane_heaps(queries),
        lane_scans: vec![ScanStats::default(); queries.len()],
        scan: ScanStats::default(),
        shard_stats: Vec::new(),
        ted: want_ted.then(TedStats::new),
    };
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= shards.len() {
            return Ok(out);
        }
        if cancelled.load(Ordering::Relaxed) {
            return Err(DeadlineExceeded.into());
        }
        let (shard, name, doc) = shards[idx];
        let started = Instant::now();
        let run = indexed_batch(
            queries,
            src_dict,
            doc,
            model,
            c_t,
            opts,
            inner,
            out.ted.as_mut(),
            &deadline,
        );
        let (rankings, shard_scan, shard_lanes) = match run {
            Ok(r) => r,
            Err(e) => {
                cancelled.store(true, Ordering::Relaxed);
                return Err(e);
            }
        };
        out.scan.merge(&shard_scan);
        for (lane, shard_lane) in out.lane_scans.iter_mut().zip(&shard_lanes) {
            lane.merge(shard_lane);
        }
        out.shard_stats.push(CorpusShardStats {
            shard,
            name: name.to_string(),
            nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            scan: shard_scan,
        });
        let shard = u32::try_from(shard).expect("manifest shard index fits u32");
        for (heap, ranking) in out.lanes.iter_mut().zip(rankings) {
            for m in ranking {
                heap.offer(Match { shard, ..m });
            }
        }
    }
}

/// Answers every query of `queries` over every healthy shard of
/// `corpus` with `threads >= 1` threads, under a cooperative
/// `deadline`: the deadline is polled *inside* each shard at
/// candidate-region granularity, so even a single large shard cannot
/// overrun the budget by its whole evaluation time. Once any worker
/// trips it, the batch is cancelled: the remaining workers stop at
/// their next shard pull and no partial ranking is returned.
#[allow(clippy::too_many_arguments)]
pub(crate) fn corpus_batch(
    queries: &[BatchQuery<'_>],
    src_dict: &LabelDict,
    corpus: &Corpus,
    model: &(dyn CostModel + Sync),
    c_t: u64,
    opts: TasmOptions,
    threads: usize,
    mut stats: Option<&mut TedStats>,
    deadline: &Deadline,
) -> Result<Output, ExecError> {
    let status = Some(CorpusStatus {
        healthy: corpus.healthy_count(),
        total: corpus.total_shards(),
    });
    let shards: Vec<(usize, &str, &IndexedDocument)> = corpus.healthy().collect();
    if queries.is_empty() || shards.is_empty() {
        return Ok(Output {
            rankings: vec![Vec::new(); queries.len()],
            lanes: vec![ScanStats::default(); queries.len()],
            status,
            ..Output::default()
        });
    }
    if deadline.expired_now() {
        return Err(DeadlineExceeded.into());
    }

    // Split the budget across shards first; leftover threads become
    // intra-shard lanes inside each worker's indexed pass.
    let threads = threads.max(1);
    let workers = threads.min(shards.len());
    let inner = (threads / workers).max(1);
    let want_ted = stats.is_some();
    let expiry = deadline.instant();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let run = || {
        run_worker(
            &shards, &next, &cancelled, queries, src_dict, model, c_t, opts, inner, want_ted,
            expiry,
        )
    };

    let outputs: Vec<CorpusWorkerOutput> = if workers <= 1 {
        // One worker runs inline on the caller's thread — no thread
        // machinery.
        vec![run()?]
    } else {
        let joined: Result<Vec<CorpusWorkerOutput>, ExecError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("corpus worker panicked"))
                .collect()
        });
        joined?
    };

    // Cross-worker merge: the rank key is a total order, so folding the
    // per-worker heaps in any order yields the same k-smallest-of-union.
    let mut heaps = lane_heaps(queries);
    let mut scan = ScanStats::default();
    let mut lanes = vec![ScanStats::default(); queries.len()];
    let mut shard_stats: Vec<CorpusShardStats> = Vec::with_capacity(shards.len());
    for out in outputs {
        scan.merge(&out.scan);
        for (lane, w) in lanes.iter_mut().zip(&out.lane_scans) {
            lane.merge(w);
        }
        shard_stats.extend(out.shard_stats);
        if let (Some(dst), Some(src)) = (stats.as_deref_mut(), out.ted.as_ref()) {
            dst.merge(src);
        }
        for (heap, wheap) in heaps.iter_mut().zip(out.lanes) {
            heap.merge(wheap);
        }
    }
    shard_stats.sort_by_key(|s| s.shard);
    Ok(Output {
        rankings: heaps.into_iter().map(TopKHeap::into_sorted).collect(),
        scan,
        lanes,
        shards: shard_stats,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, Plan, Source};
    use crate::BatchWorkspace;
    use std::fs;
    use std::path::PathBuf;
    use tasm_tree::bracket;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tasm-core-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn empty_corpus_answers_empty() {
        let dir = tmp_dir("empty");
        let corpus = Corpus::create(&dir).unwrap();
        let mut qdict = LabelDict::new();
        let q = bracket::parse("{a{b}}", &mut qdict).unwrap();
        let queries = [BatchQuery { query: &q, k: 3 }];
        let plan = Plan::new(Source::corpus(&corpus, &qdict), &queries);
        let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
        assert!(out.rankings[0].is_empty());
        let status = out.status.unwrap();
        assert_eq!(status.marker(), "0/0");
        assert!(!status.is_degraded());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_interrupts_mid_shard() {
        // One large shard: a loop that only polled *between* shards
        // would ignore a deadline expiring mid-shard and evaluate the
        // whole shard anyway. The region-granular poll must fail the
        // request instead.
        let dir = tmp_dir("midshard");
        let mut corpus = Corpus::create(&dir).unwrap();
        let mut src = String::from("{r");
        for i in 0..20_000 {
            src.push_str(if i % 2 == 0 { "{a{b}{c}}" } else { "{a{b}{d}}" });
        }
        src.push('}');
        let mut dict = LabelDict::new();
        let tree = bracket::parse(&src, &mut dict).unwrap();
        corpus.add("big", &tree, &dict, None).unwrap();

        let mut qdict = LabelDict::new();
        let q = bracket::parse("{a{b}{c}}", &mut qdict).unwrap();
        let queries = [BatchQuery { query: &q, k: 5 }];
        let mut ws = BatchWorkspace::new();

        // Sanity: without a deadline the single-shard corpus answers.
        let plan = Plan::new(Source::corpus(&corpus, &qdict), &queries);
        assert!(execute(plan, &mut ws).is_ok());

        // A deadline far shorter than the shard's evaluation time must
        // abort mid-shard — there is no between-shards poll to save it.
        let plan = Plan {
            deadline: Deadline::after(std::time::Duration::from_micros(100)),
            ..Plan::new(Source::corpus(&corpus, &qdict), &queries)
        };
        let err = execute(plan, &mut ws).unwrap_err();
        assert_eq!(err, ExecError::Deadline(DeadlineExceeded));
        fs::remove_dir_all(&dir).unwrap();
    }
}
