//! End-to-end benchmark of the `tasm` binary and daemon.
//!
//! ```text
//! perfbench --tasm <path/to/tasm> --workload stream|corpus|serve \
//!     --seed N --seconds S --trace 0|1 [--profile P] [--size full|tiny]
//!     [--corrupt-expected] [--work-dir D]
//! ```
//!
//! Inputs are generated from `--seed`; every op's answer is checked
//! against a reference ranking computed in-process. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The line before it stamps the run facts. A traced run
//! also writes its spans to `<work-dir>/trace/<workload>-seed<N>.jsonl`.
//! See `README.md` for the workloads and what each metric should move.

mod corpus;
mod inputs;
mod oneshot;
mod proc;
mod serve;
mod speed;
mod stats;
mod stream;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// End-to-end metrics and units, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("nodes_per_s", "nodes/s"),
    ("requests_per_s", "req/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("rss_mib", "MiB"),
    ("bytes_per_node", "B/node"),
];

/// Per-layer metrics and units, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.parse_ms", "ms"),
    ("xml.share", "ratio"),
    ("ring_buffer.scan_ms", "ms"),
    ("ring_buffer.candidates", "count"),
    ("engine.eval_ms", "ms"),
    ("cascade.evaluated_ratio", "ratio"),
    ("cascade.pruned_histogram", "count"),
    ("cascade.pruned_sed", "count"),
    ("ted.ns_per_call", "ns"),
    ("ted.calls", "count"),
    ("ted.strategy_share", "ratio"),
    ("server.self_ms_p50", "ms"),
    ("index.open_ms", "ms"),
    ("index.open_share", "ratio"),
    ("corpus.shard_ms", "ms"),
    ("index.nodes_examined_ratio", "ratio"),
    ("cli.self_ms", "ms"),
    ("heap.peak_kib", "KiB"),
    ("trace.overhead_ms", "ms"),
];

/// Worker threads of every `tasm` invocation, and the client connections
/// of the serve workload: the benchmark box has two cores.
pub const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Hard per-op timeout; an op that hits it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tasm: PathBuf,
    pub profile: String,
    /// Tiny inputs for the self-test; never used for measurements.
    pub tiny: bool,
    /// Spoil one expected row: the correctness gate's self-test.
    pub corrupt: bool,
    pub work: PathBuf,
}

/// What a workload hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when something outside the counted ops went wrong (for
    /// example a daemon that did not drain).
    pub sound: bool,
    pub metrics: Vec<(&'static str, f64)>,
    pub facts: Vec<(&'static str, String)>,
    pub tracer: Option<Tracer>,
}

/// Mixes the run seed with a tag, so every input gets its own stream.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tasm: PathBuf::new(),
        profile: "unknown".into(),
        tiny: false,
        corrupt: false,
        work: PathBuf::from(".perfbench"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-expected" {
            o.corrupt = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => o.workload = value,
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => o.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => o.trace = value != "0",
            "--tasm" => o.tasm = PathBuf::from(value),
            "--profile" => o.profile = value,
            "--size" => o.tiny = value == "tiny",
            "--work-dir" => o.work = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !o.tasm.is_file() {
        return Err(format!("no tasm binary at '{}'", o.tasm.display()));
    }
    Ok(o)
}

/// The commit, when the checkout itself is a git repository (git is not
/// allowed to find a repository above it).
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the program's sources (`Cargo.toml`, `Cargo.lock` and
/// every file under `crates/`, in path order), so runs of the same code
/// are recognisable even where the checkout is not a git repository.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(entries) = fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = fs::read(f) else { continue };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let scratch = match proc::Scratch::new(opts.work.join(format!(
        "tmp-{}-{}",
        opts.workload,
        std::process::id()
    ))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match opts.workload.as_str() {
        "stream" => stream::run,
        "corpus" => corpus::run,
        "serve" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload '{other}' (stream|corpus|serve)");
            return ExitCode::from(2);
        }
    };
    let reference = speed::Reference::new(scratch.path());
    let report = run(&opts, scratch.path(), &reference);
    let (ref_ms, ref_samples) = reference.summary();
    drop(scratch);

    let mut facts: Vec<(&str, String)> = vec![
        ("workload", json_str(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("threads", THREADS.to_string()),
        ("git_commit", json_str(&git_commit())),
        ("source_fingerprint", json_str(&source_fingerprint())),
        ("build_profile", json_str(&opts.profile)),
        ("size", json_str(if opts.tiny { "tiny" } else { "full" })),
        ("ref_ms_nominal", speed::REF_MS.to_string()),
        ("ref_ms_median", ref_ms.to_string()),
        ("ref_samples", ref_samples.to_string()),
    ];
    facts.extend(report.facts.iter().map(|(k, v)| (*k, v.clone())));
    facts.push(("wall_s", started.elapsed().as_secs_f64().to_string()));
    let facts_json = format!(
        "{{{}}}",
        facts
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(tracer) = &report.tracer {
        let path = opts
            .work
            .join("trace")
            .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write(&path, &facts_json) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let table = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let Some(&(_, value)) = report.metrics.iter().find(|(n, _)| n == name) else {
            eprintln!("perfbench: workload did not measure {name}");
            return ExitCode::from(3);
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return ExitCode::from(3);
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = report.sound && report.failed == 0 && report.attempted > 0;
    println!("# facts: {facts_json}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
