//! Multi-query batching: N TASM queries answered in **one** document
//! scan — the single-threaded stream arm of [`execute`](crate::execute).
//!
//! A production matcher rarely serves one query at a time. The scan
//! layer's work — ring-buffer maintenance, candidate materialization,
//! stream decoding — depends only on the document and the size
//! threshold, so it can be shared: the [`ScanEngine`] runs once at
//! `τ_scan = max_i τ_i` and every candidate is offered to one
//! evaluation *lane* per query, each with its own
//! [`QueryContext`](tasm_ted::QueryContext), its own Theorem 3/Lemma 4
//! pruning bound and its own [`TopKHeap`](crate::TopKHeap). A query
//! whose own τ is smaller than `τ_scan`
//! simply prunes harder inside each candidate; the per-lane bounds are
//! exactly the sequential ones, so every lane returns **exactly** the
//! ranking [`tasm_postorder`](crate::tasm_postorder) would (pinned by
//! the differential matrix in `tests/differential.rs`).
//!
//! Memory stays document-independent: `O(Σ m_i² + τ_scan · Σ m_i)` for
//! the lane matrices plus the shared `O(τ_scan)` ring — and with a warm
//! [`BatchWorkspace`] a scan performs O(#queries) allocations total,
//! regardless of the document's length (regression-tested with the
//! counting allocator in `tasm-bench`).

use crate::engine::{CandidateSink, ScanEngine, ScanStats};
use crate::exec::ExecError;
use crate::lane::{build_lanes, fan_out, reserve_lanes, EvalLane, Ranked};
use crate::server::deadline::Deadline;
use crate::tasm_dynamic::TasmOptions;
use crate::workspace::scratch_fits_cap;
use tasm_ted::{CascadeScratch, CostModel, TedStats, TedWorkspace};
use tasm_tree::{NodeId, PostorderQueue, Tree};

/// One query of a batch: the query tree and its ranking size.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The query tree.
    pub query: &'a Tree,
    /// The ranking size `k` for this query (clamped to `>= 1`).
    pub k: usize,
}

impl<'a> BatchQuery<'a> {
    /// A batch of `queries`, each ranked top-`k`.
    pub fn all(queries: &'a [Tree], k: usize) -> Vec<Self> {
        queries
            .iter()
            .map(|query| BatchQuery { query, k })
            .collect()
    }
}

/// Reusable scratch state for [`execute`](crate::execute): the shared
/// scan engine plus one distance workspace per lane. All buffers grow
/// but never shrink; reuse across streams for an allocation profile of
/// O(#queries) per scan.
#[derive(Debug)]
pub struct BatchWorkspace {
    engine: ScanEngine,
    /// Lower-bound cascade scratch (only one lane checks at a time, so
    /// it is shared).
    lb: CascadeScratch,
    /// One distance workspace per lane; grown to the batch width.
    lanes: Vec<TedWorkspace>,
}

impl Default for BatchWorkspace {
    fn default() -> Self {
        BatchWorkspace::new()
    }
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace {
            engine: ScanEngine::new(1),
            lb: CascadeScratch::new(),
            lanes: Vec::new(),
        }
    }
}

/// [`CandidateSink`] fanning each candidate out to every query lane.
struct MultiQuerySink<'a> {
    lanes: Vec<EvalLane<'a>>,
    teds: &'a mut [TedWorkspace],
    lb: &'a mut CascadeScratch,
    opts: TasmOptions,
    stats: Option<&'a mut TedStats>,
}

impl CandidateSink for MultiQuerySink<'_> {
    fn consume(&mut self, cand: &Tree, root: NodeId, _scan: &mut ScanStats) {
        let offset = root.post() - cand.len() as u32;
        fan_out(
            &mut self.lanes,
            self.teds,
            self.lb,
            cand,
            offset,
            self.opts,
            self.stats.as_deref_mut(),
        );
    }
}

/// Answers every query of `queries` over **one** pass of `queue`: the
/// rankings in query order, the aggregate statistics (the shared scan
/// plus every lane's funnel) and the per-lane statistics. Expiry of
/// `deadline` mid-pass returns no partial ranking.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shared_scan<Q: PostorderQueue + ?Sized>(
    queries: &[BatchQuery<'_>],
    queue: &mut Q,
    model: &dyn CostModel,
    c_t: u64,
    opts: TasmOptions,
    ws: &mut BatchWorkspace,
    stats: Option<&mut TedStats>,
    deadline: &Deadline,
) -> Result<Ranked, ExecError> {
    if ws.lanes.len() < queries.len() {
        ws.lanes.resize_with(queries.len(), TedWorkspace::new);
    }

    // Per-query contexts and bounds; the scan must cover the widest τ.
    let (mut lanes, scan_tau) = build_lanes(queries, model, c_t, opts.kernel);

    // Reserve lanes for the widest candidate the scan can emit; the same
    // byte cap as `TasmWorkspace::reserve` guards pathological τ.
    let teds = &mut ws.lanes[..queries.len()];
    reserve_lanes(&lanes, teds, &mut ws.lb, scan_tau);
    ws.engine.set_tau(scan_tau);
    if scratch_fits_cap(scan_tau as usize) {
        ws.engine.reserve();
    }

    let mut sink = MultiQuerySink {
        lanes,
        teds,
        lb: &mut ws.lb,
        opts,
        stats,
    };
    let shared = ws.engine.scan_with_deadline(queue, &mut sink, deadline)?;
    lanes = sink.lanes;

    // Stats: every lane saw the one shared pass; the aggregate sums the
    // per-lane funnels on top of it.
    let mut aggregate = shared;
    let mut lane_stats = Vec::with_capacity(lanes.len());
    for lane in &mut lanes {
        lane.stats.adopt_scan_layer(&shared);
        aggregate.merge_funnel(&lane.stats);
        lane_stats.push(lane.stats);
    }
    let rankings = lanes
        .into_iter()
        .map(|lane| lane.heap.into_sorted())
        .collect();
    Ok((rankings, aggregate, lane_stats))
}
