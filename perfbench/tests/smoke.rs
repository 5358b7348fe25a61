//! Tiny-size smoke runs of every workload, untraced and traced: every
//! metric that `BENCHMARK.json` names must print with its unit, every op
//! must pass the correctness gate, and a spoiled expected row must be
//! counted as a failed op.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! The `tasm` binary is built from the checkout into this test's own
//! target directory, unless `PERFBENCH_TASM` names one.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn tasm_binary() -> &'static Path {
    static TASM: OnceLock<PathBuf> = OnceLock::new();
    TASM.get_or_init(|| {
        if let Some(p) = std::env::var_os("PERFBENCH_TASM") {
            return PathBuf::from(p);
        }
        // A target directory of its own: the one this test runs from is
        // locked by the cargo invocation that runs it.
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tasm-build");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "tasm-cli",
            ])
            .arg("--manifest-path")
            .arg(repo_root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "tasm builds");
        target.join("release").join("tasm")
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|chunk| {
            let name = chunk[..chunk.find('"').unwrap()].to_string();
            let unit_at = chunk.find("\"unit\": \"").expect("metric has a unit") + 9;
            let unit = chunk[unit_at..unit_at + chunk[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

struct Run {
    result: String,
    work: PathBuf,
}

fn run(workload: &str, trace: bool, corrupt: bool) -> Run {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "work-{workload}-{}-{}",
        u8::from(trace),
        u8::from(corrupt)
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.arg("--tasm")
        .arg(tasm_binary())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--work-dir")
        .arg(&work)
        .current_dir(repo_root());
    if corrupt {
        cmd.arg("--corrupt-expected");
    }
    let out = cmd.output().expect("perfbench runs");
    assert!(
        out.status.success(),
        "perfbench {workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "facts and result lines: {stdout}");
    let facts = lines[lines.len() - 2];
    for key in ["nproc", "threads", "seed", "git_commit", "build_profile"] {
        assert!(
            facts.contains(&format!("\"{key}\": ")),
            "facts lack {key}: {facts}"
        );
    }
    Run {
        result: lines[lines.len() - 1].to_string(),
        work,
    }
}

fn number(result: &str, key: &str) -> f64 {
    let at = result.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let rest = &result[at..];
    rest[..rest.find([',', '}']).unwrap()]
        .trim()
        .parse()
        .expect("a number")
}

fn check(workload: &str) {
    for trace in [false, true] {
        let r = run(workload, trace, false);
        assert!(r.result.starts_with("{\"correct\": true, "), "{}", r.result);
        assert!(number(&r.result, "attempted") >= 1.0);
        assert_eq!(number(&r.result, "failed"), 0.0, "{}", r.result);
        let section = if trace { "per_layer" } else { "end_to_end" };
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for (name, unit) in metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = r
                .result
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing: {}", r.result));
            let tail = &r.result[at..];
            assert!(
                tail[..tail.find('}').unwrap()].ends_with(&format!("\"unit\": \"{unit}\"")),
                "{name} lacks unit {unit}: {}",
                r.result
            );
        }
        if trace {
            let spans = r.work.join("trace").join(format!("{workload}-seed7.jsonl"));
            let text = std::fs::read_to_string(&spans).expect("span file written");
            assert!(text.lines().count() > 1, "spans recorded");
        }
    }
    let spoiled = run(workload, false, true);
    assert!(
        spoiled.result.starts_with("{\"correct\": false, "),
        "{}",
        spoiled.result
    );
    assert!(
        number(&spoiled.result, "failed") >= 1.0,
        "{}",
        spoiled.result
    );
}

#[test]
fn stream_smoke() {
    check("stream");
}

#[test]
fn corpus_smoke() {
    check("corpus");
}

#[test]
fn serve_smoke() {
    check("serve");
}
