//! The closed loop shared by the one-shot workloads (`stream`,
//! `corpus`): one caller spawns one `tasm` process per op, waits for it,
//! and checks its rows before the next op starts. `serve` shares the op
//! record and the metric helpers.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::inputs::{parse_cli_tables, schedule, Row};
use crate::proc::run_timed;
use crate::speed::{local_scales, Reference};
use crate::stats::{median, ms, percentile};
use crate::trace::Funnel;
use crate::{mix, Opts, OP_TIMEOUT};

/// One op of a pool: the `tasm` arguments and the expected tables.
pub struct Op {
    pub args: Vec<String>,
    pub expected: Vec<Vec<Row>>,
    /// Document nodes the op searches.
    pub nodes: usize,
}

/// One op as run: `rss_kib` is 0 where it is not sampled (`serve`).
pub struct Record {
    pub pool: usize,
    pub ok: bool,
    pub latency_ms: f64,
    /// `latency_ms` at the reference host speed; 0 where it is not
    /// scaled (`serve`, traced runs).
    pub scaled_ms: f64,
    pub rss_kib: u64,
    pub start: Instant,
    pub end: Instant,
    /// The program's funnel, on traced ops.
    pub funnel: Option<Funnel>,
}

/// Runs ops from `pool` in a seeded round-robin order until `o.seconds`
/// have passed. An untraced run follows each op with a reference sample
/// and scales the op's latency to the reference speed. A traced run runs
/// each op twice, back to back: as is, then with `--stats`.
pub fn closed_loop(o: &Opts, reference: &Reference, pool: &mut [Op]) -> Vec<Record> {
    let order = schedule(pool.len(), 1 << 16, mix(o.seed, 0x0b5));
    if o.corrupt {
        crate::inputs::corrupt(&mut pool[order[0]].expected);
    }
    let t0 = Instant::now();
    let deadline = Duration::from_secs_f64(o.seconds);
    let mut records = Vec::new();
    let mut refs = Vec::new();
    let passes: &[bool] = if o.trace { &[false, true] } else { &[false] };
    for (&p, &traced) in order
        .iter()
        .flat_map(|p| passes.iter().map(move |t| (p, t)))
    {
        if !traced && t0.elapsed() >= deadline {
            break;
        }
        let op = &pool[p];
        let mut cmd = Command::new(&o.tasm);
        cmd.args(&op.args);
        if traced {
            cmd.arg("--stats");
        }
        let start = Instant::now();
        let rec = match run_timed(&mut cmd, OP_TIMEOUT) {
            Ok(out) => {
                let tables = parse_cli_tables(&out.stdout);
                Record {
                    pool: p,
                    ok: out.success && !out.timed_out && tables == op.expected,
                    latency_ms: ms(out.latency),
                    scaled_ms: 0.0,
                    rss_kib: out.peak_rss_kib,
                    start,
                    end: start + out.latency,
                    funnel: if traced {
                        Funnel::parse(&out.stdout)
                    } else {
                        None
                    },
                }
            }
            Err(e) => {
                eprintln!("perfbench: cannot run tasm: {e}");
                Record {
                    pool: p,
                    ok: false,
                    latency_ms: 0.0,
                    scaled_ms: 0.0,
                    rss_kib: 0,
                    start,
                    end: Instant::now(),
                    funnel: None,
                }
            }
        };
        records.push(rec);
        if !o.trace {
            refs.push(reference.sample());
        }
    }
    if !o.trace {
        for (r, scale) in records.iter_mut().zip(local_scales(&refs)) {
            r.scaled_ms = r.latency_ms * scale;
        }
    }
    records
}

/// Latency percentiles over the successful ops, given as (pool entry,
/// latency) pairs. `latency_ms_p50` is the median of every sample.
/// `latency_ms_p90` is the 90th percentile over the pool's entries of
/// each entry's median latency: it follows the slow requests of the mix
/// (big batches, large k, deep queries), while a scheduler spike on the
/// shared host hits one repeat of an entry and not its median. A 30 s run
/// repeats every entry about 7 to 13 times.
pub fn latency_metrics(samples: &[(usize, f64)]) -> Vec<(&'static str, f64)> {
    let all: Vec<f64> = samples.iter().map(|&(_, l)| l).collect();
    let mut by_entry: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(p, l) in samples {
        by_entry.entry(p).or_default().push(l);
    }
    let entry_medians: Vec<f64> = by_entry.values().map(|l| median(l)).collect();
    vec![
        ("latency_ms_p50", median(&all)),
        ("latency_ms_p90", percentile(&entry_medians, 90.0)),
    ]
}

/// The ops of a traced run, as `Layers::absorb` takes them.
pub fn traced_ops(records: &[Record]) -> Vec<(usize, bool, f64, Option<&Funnel>)> {
    records
        .iter()
        .map(|r| (r.pool, r.ok, r.latency_ms, r.funnel.as_ref()))
        .collect()
}

/// The end-to-end metrics of a one-shot run, from scaled latencies. The
/// single caller's rates are per second of op time, which leaves out the
/// reference samples between the ops.
pub fn end_to_end(
    pool: &[Op],
    records: &[Record],
    setup_s: f64,
    bytes_per_node: f64,
) -> Vec<(&'static str, f64)> {
    let ok: Vec<&Record> = records.iter().filter(|r| r.ok).collect();
    let lat: Vec<(usize, f64)> = ok.iter().map(|r| (r.pool, r.scaled_ms)).collect();
    let nodes: f64 = ok.iter().map(|r| pool[r.pool].nodes as f64).sum();
    let busy_s: f64 = lat.iter().map(|&(_, l)| l).sum::<f64>() / 1e3;
    // Each op's sampled peak is a lower bound of its true peak. The 90th
    // percentile over ops keeps the larger document's peak without
    // chasing a rare spike.
    let rss: Vec<f64> = ok.iter().map(|r| r.rss_kib as f64 / 1024.0).collect();
    let mut m = vec![
        ("setup_s", setup_s),
        (
            "nodes_per_s",
            if busy_s > 0.0 { nodes / busy_s } else { 0.0 },
        ),
        (
            "requests_per_s",
            if busy_s > 0.0 {
                ok.len() as f64 / busy_s
            } else {
                0.0
            },
        ),
        ("rss_mib", percentile(&rss, 90.0)),
        ("bytes_per_node", bytes_per_node),
    ];
    m.extend(latency_metrics(&lat));
    m
}
