//! TASM: Top-k Approximate Subtree Matching (Augsten, Böhlen, Barbosa,
//! Palpanas — ICDE 2010).
//!
//! Given a small query tree `Q` and a large document tree `T`, find the `k`
//! subtrees of `T` closest to `Q` under the tree edit distance (Def. 1).
//! This crate implements the paper's contribution:
//!
//! * [`threshold`] — the query-only upper bound
//!   `τ = |Q|(c_Q + 1) + k·c_T` on answer subtree sizes (Theorem 3);
//! * [`PrefixRingBuffer`] / [`prb_pruning`] — candidate-set computation in
//!   one postorder scan with `O(τ)` memory (Sec. V, Algorithms 1–2);
//! * [`tasm_postorder`] — the single-pass, document-size-independent-memory
//!   TASM algorithm (Algorithm 3);
//! * [`tasm_dynamic`] — the state-of-the-art baseline (Sec. IV-F) and
//!   [`tasm_naive`] — the ground-truth oracle;
//! * [`simple_pruning`] — the O(n)-buffer pruning baseline of Sec. V-B;
//! * [`ScanEngine`] / [`CandidateSink`] — the streaming scan layer the
//!   algorithms above are built on, reusable for custom evaluations;
//! * [`execute`] — the one executor behind the CLI, the daemon and the
//!   `tasm` facade. A [`Plan`] carries a batch of [`BatchQuery`]s (a
//!   single query is a batch of one), a [`Source`], the cost model,
//!   [`TasmOptions`], a thread budget, a [`Deadline`] and optional
//!   [`TedStats`](tasm_ted::TedStats); the [`Output`] holds one ranking
//!   per query plus the [`ScanStats`] funnel. The source is one of
//!   - [`Source::Stream`] — any [`PostorderQueue`](tasm_tree::PostorderQueue)
//!     (XML, `.pq`, or a materialized tree behind a
//!     [`TreeQueue`](tasm_tree::TreeQueue)), scanned once with `O(τ)`
//!     memory; with more threads the candidates travel to workers as
//!     pooled postorder segments, so memory stays
//!     `O(threads · τ + Σ m_i²)`;
//!   - [`Source::Index`] — scan-free candidate generation from a
//!     persistent `.pqi` label index
//!     ([`IndexedDocument`](tasm_index::IndexedDocument)): candidate
//!     regions come from the subtree-size column and the label postings
//!     bound each region before it is ever materialized;
//!   - [`Source::Corpus`] — cross-document top-k over a crash-safe
//!     corpus store ([`Corpus`](tasm_index::Corpus)): every healthy
//!     shard answers via the index path, rankings merge on the
//!     `(distance, shard, postorder, size)` key, and quarantined shards
//!     surface as an explicit `healthy/total` [`CorpusStatus`].
//!
//!   Every plan returns exactly the [`tasm_naive`] ranking, down to
//!   node ids, for every source, thread count, kernel and cascade
//!   setting.
//!
//! Between the scan and every evaluation sits the admissible
//! lower-bound **pruning cascade**
//! ([`LowerBoundCascade`](tasm_ted::LowerBoundCascade)): once the top-k
//! heap is full, each in-bound subtree is first tested against the
//! current cutoff `max(R)` with a label-histogram deficit and a banded
//! substring edit distance; refuted subtrees never reach the `O(m²·n²)`
//! DP, and surviving ones are evaluated zero-copy as
//! [`TreeView`](tasm_tree::TreeView) slices of the candidate arena.
//! [`ScanStats`] reports the per-tier funnel.
//!
//! # Quick start
//!
//! ```
//! use tasm_tree::{bracket, LabelDict, TreeQueue};
//! use tasm_ted::UnitCost;
//! use tasm_core::{tasm_postorder, TasmOptions};
//!
//! let mut dict = LabelDict::new();
//! let query = bracket::parse("{article{auth}{title}}", &mut dict).unwrap();
//! let doc = bracket::parse(
//!     "{dblp{article{auth{John}}{title{X1}}}{book{title{X2}}}}",
//!     &mut dict,
//! ).unwrap();
//!
//! let mut stream = TreeQueue::new(&doc); // any postorder queue works
//! let top1 = tasm_postorder(&query, &mut stream, 1, &UnitCost, 1,
//!                           TasmOptions::default(), None);
//! assert_eq!(top1[0].root.post(), 5); // the article subtree
//!
//! // The same query through the executor, on two threads.
//! use tasm_core::{execute, BatchQuery, BatchWorkspace, Plan, Source};
//! let queries = [BatchQuery { query: &query, k: 1 }];
//! let mut stream = TreeQueue::new(&doc);
//! let plan = Plan { threads: 2, ..Plan::new(Source::Stream(&mut stream), &queries) };
//! let out = execute(plan, &mut BatchWorkspace::new()).unwrap();
//! assert_eq!(out.rankings[0], top1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod corpus;
mod engine;
mod exec;
mod indexed;
mod lane;
mod naive;
mod ranking;
mod ring_buffer;
mod server;
mod simple_pruning;
mod stream_shard;
mod tasm_dynamic;
mod tasm_postorder;
mod threshold;
mod workspace;

pub use batch::{BatchQuery, BatchWorkspace};
pub use corpus::{CorpusShardStats, CorpusStatus};
pub use engine::{CandidateSink, ScanEngine, ScanStats};
pub use exec::{execute, ExecError, Output, Plan, Source, StreamIntegrityError};
pub use naive::tasm_naive;
pub use ranking::{Match, TopKHeap};
pub use ring_buffer::{
    candidate_set_reference, prb_pruning, prb_pruning_stats, Candidate, PrefixRingBuffer,
    PruningStats,
};
pub use server::deadline::{Deadline, DeadlineExceeded};
pub use server::{Doc, DocStore, QueryParser, Server, ServerConfig};
pub use simple_pruning::simple_pruning;
pub use tasm_dynamic::{tasm_dynamic, tasm_dynamic_with_workspace, TasmOptions};
pub use tasm_postorder::{process_candidate, tasm_postorder, tasm_postorder_with_workspace};
pub use tasm_ted::TedKernel;
pub use threshold::{refined_threshold, threshold, threshold_for_query};
pub use workspace::{TasmWorkspace, RESERVE_CAP_BYTES};
