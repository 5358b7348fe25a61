//! One plan, one executor: every TASM evaluation beyond the paper's
//! reference algorithms runs through [`execute`].
//!
//! A [`Plan`] names *what* to match — a batch of [`BatchQuery`]s under
//! one cost model — and *where*: a [`Source`]. The executor picks the
//! driver from the source and the thread budget:
//!
//! | source | threads resolve to 1 | threads resolve to > 1 |
//! |---|---|---|
//! | [`Source::Stream`] | one shared ring-buffer scan, every query a lane of it | the same scan on the calling thread, candidate segments handed to workers |
//! | [`Source::Index`] | candidate regions from the `.pqi` postings, most promising first | the same, with the filtered remainder sharded across workers |
//! | [`Source::Corpus`] | every healthy shard through the index driver | shards scheduled across workers, leftover threads inside the shards |
//!
//! A single query is a batch of one. A materialized tree is a stream:
//! wrap it in a [`TreeQueue`](tasm_tree::TreeQueue). Every composition
//! returns **exactly** the per-query ranking of the sequential
//! [`tasm_postorder`](crate::tasm_postorder) — and of the
//! [`tasm_naive`](crate::tasm_naive) oracle, down to node ids — because
//! the rank key `(distance, shard, postorder, size)` is a total order
//! and every per-worker heap merges with [`TopKHeap::merge`](crate::TopKHeap::merge)
//! (pinned by the differential matrix in `tests/differential.rs`).
//!
//! No driver ever returns a partial ranking: a stream that ends
//! abnormally, a stream longer than the `u32` node ids, and an expired
//! [`Deadline`] all surface as an [`ExecError`].

use crate::batch::{shared_scan, BatchQuery, BatchWorkspace};
use crate::corpus::{corpus_batch, CorpusShardStats, CorpusStatus};
use crate::engine::ScanStats;
use crate::indexed::indexed_batch;
use crate::ranking::Match;
use crate::server::deadline::{Deadline, DeadlineExceeded};
use crate::stream_shard::sharded_stream;
use crate::tasm_dynamic::TasmOptions;
use tasm_index::{Corpus, IndexedDocument};
use tasm_ted::{CostModel, TedStats, UnitCost};
use tasm_tree::{LabelDict, PostorderQueue};

/// Where a [`Plan`] finds its document(s).
///
/// The stream arm is generic over the queue type so a concrete queue
/// (the daemon's [`TreeQueue`](tasm_tree::TreeQueue)) keeps a
/// monomorphized scan loop; the default `dyn PostorderQueue` only
/// names the type of index and corpus sources, which never touch it —
/// build those with [`Source::index`] and [`Source::corpus`].
pub enum Source<'a, Q: PostorderQueue + ?Sized = dyn PostorderQueue + 'a> {
    /// A postorder stream, consumed once: an XML or `.pq` reader, or a
    /// materialized tree behind a [`TreeQueue`](tasm_tree::TreeQueue).
    /// After the scan drains it, the queue's
    /// [`integrity_error`](PostorderQueue::integrity_error) is checked.
    Stream(&'a mut Q),
    /// A prebuilt `.pqi` label index. `dict` is the dictionary the
    /// queries were parsed with: they are re-encoded by label name into
    /// the index's label space, so label-dependent cost models must be
    /// defined over [`IndexedDocument::dict`], and kept match subtrees
    /// carry index-space labels.
    Index {
        /// The indexed document.
        idx: &'a IndexedDocument,
        /// The dictionary the queries were parsed with.
        dict: &'a LabelDict,
    },
    /// Every healthy shard of a crash-safe corpus; quarantined shards
    /// are reported through [`Output::status`], never silently dropped.
    /// Each match's [`Match::shard`] is its manifest shard index
    /// (resolve names with [`Corpus::shard_name`]).
    Corpus {
        /// The opened corpus.
        corpus: &'a Corpus,
        /// The dictionary the queries were parsed with.
        dict: &'a LabelDict,
    },
}

impl<'a> Source<'a> {
    /// An index source (see [`Source::Index`]).
    pub fn index(idx: &'a IndexedDocument, dict: &'a LabelDict) -> Self {
        Source::Index { idx, dict }
    }

    /// A corpus source (see [`Source::Corpus`]).
    pub fn corpus(corpus: &'a Corpus, dict: &'a LabelDict) -> Self {
        Source::Corpus { corpus, dict }
    }
}

/// One evaluation request: a query batch over one [`Source`].
///
/// Start from [`Plan::new`] and override fields with struct-update
/// syntax:
///
/// ```
/// use tasm_core::{execute, BatchQuery, BatchWorkspace, Plan, Source};
/// use tasm_tree::{bracket, LabelDict, TreeQueue};
///
/// let mut dict = LabelDict::new();
/// let q = bracket::parse("{a{b}{c}}", &mut dict).unwrap();
/// let doc = bracket::parse("{x{a{b}{d}}{a{b}{c}}}", &mut dict).unwrap();
/// let queries = [BatchQuery { query: &q, k: 2 }];
/// let mut queue = TreeQueue::new(&doc);
/// let plan = Plan { threads: 2, ..Plan::new(Source::Stream(&mut queue), &queries) };
/// let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
/// // Example 2 of the paper: R = (H6, H3).
/// assert_eq!(out.rankings[0][0].root.post(), 6);
/// assert_eq!(out.rankings[0][1].root.post(), 3);
/// ```
pub struct Plan<'a, Q: PostorderQueue + ?Sized = dyn PostorderQueue + 'a> {
    /// Where the documents come from.
    pub source: Source<'a, Q>,
    /// The queries, each with its own `k`; rankings come back in this
    /// order.
    pub queries: &'a [BatchQuery<'a>],
    /// The cost model (shared by worker threads, hence `Sync`) and
    /// `c_t`, the maximum document node cost under it (Theorem 3 needs
    /// it up front; 1 under [`UnitCost`]). One field, so a plan cannot
    /// swap the model and keep a stale `c_t`.
    pub cost: (&'a (dyn CostModel + Sync), u64),
    /// Kernel, cascade and keep-trees settings.
    pub opts: TasmOptions,
    /// Worker threads (`0` = one per available core, `1` = run on the
    /// calling thread). Rankings are identical for every value.
    pub threads: usize,
    /// Cooperative cancellation; [`Deadline::none`] for one-shot runs.
    pub deadline: Deadline,
    /// Distance-computation counters, merged over every worker. Opt-in:
    /// recording costs a map insert per relevant subtree.
    pub ted_stats: Option<&'a mut TedStats>,
}

impl<'a, Q: PostorderQueue + ?Sized> Plan<'a, Q> {
    /// A plan with the defaults of a one-shot run: [`UnitCost`] (so
    /// `c_t = 1`), default [`TasmOptions`], one thread, no deadline and
    /// no distance counters.
    pub fn new(source: Source<'a, Q>, queries: &'a [BatchQuery<'a>]) -> Self {
        Plan {
            source,
            queries,
            cost: (&UnitCost, 1),
            opts: TasmOptions::default(),
            threads: 1,
            deadline: Deadline::none(),
            ted_stats: None,
        }
    }
}

/// What [`execute`] returns.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// One ranking per query, in query order, each sorted ascending on
    /// the rank key and at most `k` long.
    pub rankings: Vec<Vec<Match>>,
    /// The scan counters of the pass plus the pruning funnel summed over
    /// every query lane (a corpus sums its shards).
    pub scan: ScanStats,
    /// Per-query statistics in query order: the scan-layer counters of
    /// the pass plus that lane's own pruning funnel.
    pub lanes: Vec<ScanStats>,
    /// Per-shard wall clock and funnel, in manifest order (corpus
    /// sources only; empty otherwise).
    pub shards: Vec<CorpusShardStats>,
    /// How many corpus shards answered (`None` for stream and index
    /// sources).
    pub status: Option<CorpusStatus>,
}

/// The postorder stream ended abnormally: the queue reports the
/// document is incomplete (truncated `.pq`/`.pqi` file, malformed XML,
/// an I/O error mid-stream, …), or it held more nodes than the `u32`
/// node ids can number.
///
/// A ranking built from a partial document could miss better subtrees
/// in the lost suffix, so none is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamIntegrityError(pub(crate) String);

impl StreamIntegrityError {
    /// The description of the abnormal end.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for StreamIntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "incomplete document stream: {}", self.0)
    }
}

impl std::error::Error for StreamIntegrityError {}

/// Why [`execute`] refused to return a ranking. Neither case carries a
/// partial result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The postorder stream ended abnormally or held more than
    /// `u32::MAX` nodes.
    Integrity(StreamIntegrityError),
    /// The plan's deadline expired before the evaluation completed.
    Deadline(DeadlineExceeded),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Integrity(e) => e.fmt(f),
            ExecError::Deadline(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StreamIntegrityError> for ExecError {
    fn from(e: StreamIntegrityError) -> Self {
        ExecError::Integrity(e)
    }
}

impl From<DeadlineExceeded> for ExecError {
    fn from(e: DeadlineExceeded) -> Self {
        ExecError::Deadline(e)
    }
}

/// Resolves a `threads` argument: `0` means "one per available core".
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `plan` to completion and returns one ranking per query.
///
/// `ws` is reused by the single-threaded stream scan: with warm buffers
/// a whole pass costs O(#queries) heap allocations, independent of the
/// document's length. Sharded runs give every worker its own state and
/// leave `ws` untouched.
///
/// # Errors
///
/// [`ExecError::Integrity`] if a stream ends abnormally or holds more
/// than `u32::MAX` nodes; [`ExecError::Deadline`] if `plan.deadline`
/// expires first. A deadline outranks an integrity report (a cancelled
/// scan naturally leaves its queue incomplete).
pub fn execute<Q: PostorderQueue + ?Sized>(
    plan: Plan<'_, Q>,
    ws: &mut BatchWorkspace,
) -> Result<Output, ExecError> {
    let Plan {
        source,
        queries,
        cost: (model, c_t),
        opts,
        threads,
        deadline,
        ted_stats,
    } = plan;
    let (rankings, scan, lanes) = match source {
        Source::Stream(_) if queries.is_empty() => Default::default(),
        Source::Stream(queue) => {
            let threads = resolve_threads(threads);
            if threads <= 1 {
                let out = shared_scan(queries, queue, model, c_t, opts, ws, ted_stats, &deadline)?;
                if let Some(msg) = queue.integrity_error() {
                    return Err(StreamIntegrityError(msg).into());
                }
                out
            } else {
                sharded_stream(
                    queries, queue, model, c_t, opts, threads, ted_stats, &deadline,
                )?
            }
        }
        Source::Index { idx, dict } => indexed_batch(
            queries,
            dict,
            idx,
            model,
            c_t,
            opts,
            resolve_threads(threads),
            ted_stats,
            &deadline,
        )?,
        Source::Corpus { corpus, dict } => {
            return corpus_batch(
                queries,
                dict,
                corpus,
                model,
                c_t,
                opts,
                resolve_threads(threads),
                ted_stats,
                &deadline,
            )
        }
    };
    Ok(Output {
        rankings,
        scan,
        lanes,
        ..Output::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasm_postorder::tasm_postorder;
    use tasm_tree::{bracket, PostorderEntry, Tree, TreeQueue};

    fn wide_doc(dict: &mut LabelDict, records: usize) -> Tree {
        let mut s = String::from("{dblp");
        for i in 0..records {
            match i % 3 {
                0 => s.push_str("{article{a}{t}}"),
                1 => s.push_str("{book{t}}"),
                _ => s.push_str("{article{a}{t}{y}}"),
            }
        }
        s.push('}');
        bracket::parse(&s, dict).unwrap()
    }

    fn run(doc: &Tree, queries: &[BatchQuery<'_>], threads: usize) -> Output {
        let mut queue = TreeQueue::new(doc);
        let plan = Plan {
            threads,
            ..Plan::new(Source::Stream(&mut queue), queries)
        };
        execute(plan, &mut BatchWorkspace::new()).unwrap()
    }

    #[test]
    fn empty_query_list_consumes_nothing() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 5);
        for threads in [1usize, 4] {
            let mut q = TreeQueue::new(&doc);
            let plan = Plan {
                threads,
                ..Plan::new(Source::Stream(&mut q), &[])
            };
            let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
            assert!(out.rankings.is_empty() && out.lanes.is_empty());
            assert!(q.dequeue().is_some(), "queue untouched");
            let idx = IndexedDocument::build(&doc, &dict);
            let plan = Plan {
                threads,
                ..Plan::new(Source::index(&idx, &dict), &[])
            };
            let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
            assert!(out.rankings.is_empty() && out.lanes.is_empty());
            assert_eq!(out.scan, ScanStats::default());
        }
    }

    #[test]
    fn warm_workspace_reruns_are_identical() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 30);
        let q1 = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{t}}", &mut dict).unwrap();
        let queries = [
            BatchQuery { query: &q1, k: 4 },
            BatchQuery { query: &q2, k: 2 },
        ];
        let mut ws = BatchWorkspace::new();
        let mut once = || {
            let mut queue = TreeQueue::new(&doc);
            let plan = Plan::new(Source::Stream(&mut queue), &queries);
            execute(plan, &mut ws).unwrap()
        };
        let (first, second) = (once(), once());
        assert_eq!(first.rankings, second.rankings);
        assert_eq!(first.lanes, second.lanes);
        assert_eq!(first.rankings, run(&doc, &queries, 1).rankings);
    }

    #[test]
    fn lane_stats_share_the_scan_and_sum_to_the_funnel() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 60);
        let q1 = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let q2 = bracket::parse("{book{t}}", &mut dict).unwrap();
        let q3 = bracket::parse("{y}", &mut dict).unwrap();
        let queries = [
            BatchQuery { query: &q1, k: 4 },
            BatchQuery { query: &q2, k: 1 },
            BatchQuery { query: &q3, k: 9 },
        ];
        for threads in [1usize, 2, 4, 7] {
            let out = run(&doc, &queries, threads);
            assert_eq!(out.lanes.len(), 3);
            assert_eq!(out.scan.nodes_seen as usize, doc.len());
            let funnel: u64 = out.lanes.iter().map(|l| l.evaluated).sum();
            assert_eq!(funnel, out.scan.evaluated, "threads = {threads}");
            for lane in &out.lanes {
                assert_eq!(lane.candidates, out.scan.candidates);
            }
        }
    }

    #[test]
    fn ted_stats_merge_over_workers() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 40);
        let query = bracket::parse("{book{t}}", &mut dict).unwrap();
        let queries = [BatchQuery {
            query: &query,
            k: 2,
        }];
        let mut solo = TedStats::new();
        let mut q = TreeQueue::new(&doc);
        tasm_postorder(
            &query,
            &mut q,
            2,
            &UnitCost,
            1,
            TasmOptions::default(),
            Some(&mut solo),
        );
        for threads in [1usize, 3] {
            let mut ted = TedStats::new();
            let mut q = TreeQueue::new(&doc);
            let plan = Plan {
                threads,
                ted_stats: Some(&mut ted),
                ..Plan::new(Source::Stream(&mut q), &queries)
            };
            let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
            assert_eq!(out.rankings[0].len(), 2);
            assert!(ted.ted_calls > 0, "threads = {threads}");
        }
        assert!(solo.ted_calls > 0);
    }

    #[test]
    fn single_node_document_works() {
        let mut dict = LabelDict::new();
        let doc = bracket::parse("{a}", &mut dict).unwrap();
        let query = bracket::parse("{a}", &mut dict).unwrap();
        let queries = [BatchQuery {
            query: &query,
            k: 1,
        }];
        for threads in [0usize, 1, 4] {
            let got = &run(&doc, &queries, threads).rankings[0];
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].distance, tasm_ted::Cost::ZERO);
        }
    }

    /// A queue that serves a fixed prefix of a larger document, then
    /// reports the difference as an integrity error — the in-memory
    /// analogue of a truncated `.pq` file.
    struct TruncatedQueue {
        entries: Vec<PostorderEntry>,
        next: usize,
        missing: usize,
    }

    impl PostorderQueue for TruncatedQueue {
        fn dequeue(&mut self) -> Option<PostorderEntry> {
            let e = self.entries.get(self.next).copied();
            self.next += e.is_some() as usize;
            e
        }

        fn integrity_error(&self) -> Option<String> {
            (self.next >= self.entries.len() && self.missing > 0)
                .then(|| format!("postorder file truncated: {} nodes missing", self.missing))
        }
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_partial_ranking() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 30);
        let query = bracket::parse("{article{a}{t}}", &mut dict).unwrap();
        let queries = [BatchQuery {
            query: &query,
            k: 3,
        }];
        let cut = doc.len() / 2; // leaves a valid forest prefix
        for threads in [1usize, 4] {
            let mut q = TruncatedQueue {
                entries: doc
                    .postorder()
                    .take(cut)
                    .map(|(l, s)| PostorderEntry::new(l, s))
                    .collect(),
                next: 0,
                missing: doc.len() - cut,
            };
            let plan = Plan {
                threads,
                ..Plan::new(Source::Stream(&mut q), &queries)
            };
            let err = execute(plan, &mut BatchWorkspace::new()).unwrap_err();
            assert!(
                matches!(&err, ExecError::Integrity(e) if e.message().contains("truncated")),
                "threads = {threads}: {err}"
            );
        }
    }

    #[test]
    fn expired_deadline_fails_every_source_arm() {
        let mut dict = LabelDict::new();
        let doc = wide_doc(&mut dict, 20);
        let query = bracket::parse("{book{t}}", &mut dict).unwrap();
        let queries = [BatchQuery {
            query: &query,
            k: 2,
        }];
        let idx = IndexedDocument::build(&doc, &dict);
        let dir = std::env::temp_dir().join(format!("tasm-exec-deadline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::create(&dir).unwrap();
        corpus.add("a", &doc, &dict, None).unwrap();
        corpus.add("b", &doc, &dict, None).unwrap();
        for threads in [1usize, 3] {
            let mut q = TreeQueue::new(&doc);
            let stream = Plan {
                threads,
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..Plan::new(Source::Stream(&mut q), &queries)
            };
            let index = Plan {
                threads,
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..Plan::new(Source::index(&idx, &dict), &queries)
            };
            let corpus = Plan {
                threads,
                deadline: Deadline::after(std::time::Duration::ZERO),
                ..Plan::new(Source::corpus(&corpus, &dict), &queries)
            };
            std::thread::sleep(std::time::Duration::from_millis(1));
            let mut ws = BatchWorkspace::new();
            for err in [
                execute(stream, &mut ws).unwrap_err(),
                execute(index, &mut ws).unwrap_err(),
                execute(corpus, &mut ws).unwrap_err(),
            ] {
                assert_eq!(err, ExecError::Deadline(DeadlineExceeded));
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
