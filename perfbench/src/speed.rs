//! Scaling times to a fixed host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed changes
//! by up to 2x over tens of seconds, so a fixed command's wall time tells
//! the host's state as much as the program's. Beside the measured ops the
//! benchmark runs a reference op, `perfbench-ref run` over a fixed input:
//! the benchmark's own code, never the program's, so no change to the
//! program moves it. The one-shot workloads' op times and every set-up
//! time are measured times multiplied by `REF_MS / r`, where `r` is the
//! reference op's time around the measurement: the time it would take on
//! a host where the reference op takes `REF_MS`. `serve`'s request times
//! are not scaled (see the README).

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use crate::proc::run_timed;
use crate::stats::{median, ms};

/// About the reference op's time on a quiet host of the 2-core
/// reference machine (Intel Xeon at 2.1 GHz), in ms.
pub const REF_MS: f64 = 20.0;

/// Reference samples on each side of a measurement that its scale uses.
const HALF_WINDOW: usize = 2;

pub struct Reference {
    exe: PathBuf,
    input: PathBuf,
    checksum: String,
    /// Every sample taken, for the run facts.
    samples: RefCell<Vec<f64>>,
}

impl Reference {
    /// Writes the reference input into `dir` and runs the op once.
    pub fn new(dir: &Path) -> Reference {
        let exe = std::env::current_exe()
            .expect("own path")
            .with_file_name("perfbench-ref");
        let input = dir.join("reference.xml");
        let written = Command::new(&exe)
            .arg("write")
            .arg(&input)
            .status()
            .expect("spawn perfbench-ref");
        assert!(written.success(), "perfbench-ref writes its input");
        let mut r = Reference {
            exe,
            input,
            checksum: String::new(),
            samples: RefCell::new(Vec::new()),
        };
        r.checksum = r.run().1;
        r
    }

    fn run(&self) -> (f64, String) {
        let out = run_timed(
            Command::new(&self.exe).arg("run").arg(&self.input),
            Duration::from_secs(60),
        )
        .expect("spawn perfbench-ref");
        assert!(out.success && !out.timed_out, "perfbench-ref runs");
        (ms(out.latency), out.stdout)
    }

    /// One timed run of the reference op, in ms.
    pub fn sample(&self) -> f64 {
        let (took, sum) = self.run();
        assert_eq!(sum, self.checksum, "perfbench-ref is deterministic");
        self.samples.borrow_mut().push(took);
        took
    }

    /// Median and count of the samples taken so far.
    pub fn summary(&self) -> (f64, usize) {
        let s = self.samples.borrow();
        (median(&s), s.len())
    }
}

/// The scale of each of a run's measurements, in order, given the
/// reference samples taken right after each: `REF_MS` over the median of
/// the samples within `HALF_WINDOW` places of it.
pub fn local_scales(refs: &[f64]) -> Vec<f64> {
    (0..refs.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(refs.len());
            REF_MS / median(&refs[lo..hi])
        })
        .collect()
}

/// A set-up's median time in seconds, scaled and as measured.
pub struct Setup {
    pub scaled_s: f64,
    pub raw_s: f64,
}

/// Runs a set-up `reps` times with a reference sample before the first
/// and after each, and scales each rep's time by the two samples around
/// it.
pub fn scaled_setup(reference: &Reference, reps: usize, mut setup: impl FnMut() -> f64) -> Setup {
    let mut before = reference.sample();
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let took = setup();
        let after = reference.sample();
        raw.push(took);
        scaled.push(took * 2.0 * REF_MS / (before + after));
        before = after;
    }
    Setup {
        scaled_s: median(&scaled),
        raw_s: median(&raw),
    }
}
