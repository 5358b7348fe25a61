//! Child processes: timed one-shot runs with a hard timeout and peak-RSS
//! sampling, the daemon's life cycle, and scratch directories that are
//! always removed.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A one-shot run that did not exceed its hard timeout.
pub struct Outcome {
    pub latency: Duration,
    pub stdout: String,
    pub success: bool,
    pub timed_out: bool,
    /// Highest `VmHWM` sampled while the process ran, in KiB.
    pub peak_rss_kib: u64,
}

/// Reads `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// Runs `cmd` to completion and times it from spawn to reap. A watchdog
/// samples the child's peak RSS every few milliseconds and kills it at
/// `timeout`; the child is always reaped before this returns.
pub fn run_timed(cmd: &mut Command, timeout: Duration) -> io::Result<Outcome> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let peak = Arc::new(AtomicU64::new(0));
    let fired = Arc::new(AtomicBool::new(false));
    let watchdog = {
        let (peak, fired) = (peak.clone(), fired.clone());
        thread::spawn(move || loop {
            if let Some(kib) = vm_hwm_kib(pid) {
                peak.fetch_max(kib, Ordering::Relaxed);
            }
            match done_rx.recv_timeout(Duration::from_millis(5)) {
                Err(mpsc::RecvTimeoutError::Timeout) if t0.elapsed() < timeout => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    fired.store(true, Ordering::Relaxed);
                    kill(pid);
                    return;
                }
                _ => return,
            }
        })
    };
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let latency = t0.elapsed();
    let _ = done_tx.send(());
    let _ = watchdog.join();
    let status = status?;
    read?;
    Ok(Outcome {
        latency,
        stdout,
        success: status.success(),
        timed_out: fired.load(Ordering::Relaxed),
        peak_rss_kib: peak.load(Ordering::Relaxed),
    })
}

/// A scratch directory removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(path: PathBuf) -> io::Result<Scratch> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running `tasm serve --tcp 127.0.0.1:0` daemon. Dropping it without
/// [`Daemon::shutdown`] kills and reaps the process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Launches the daemon and waits for its `listening on tcp` line;
    /// returns it with the launch-to-listening time.
    pub fn launch(tasm: &Path, args: &[String]) -> io::Result<(Daemon, Duration)> {
        let t0 = Instant::now();
        let mut child = Command::new(tasm)
            .arg("serve")
            .args(["--tcp", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel::<String>();
        // Forwards the listening address, then keeps draining stderr so
        // the daemon never blocks on a full pipe.
        let reader = thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("tasm serve: listening on tcp ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx.recv_timeout(Duration::from_secs(120)).map_err(|_| {
            io::Error::new(io::ErrorKind::TimedOut, "daemon never reported listening")
        })?;
        let elapsed = t0.elapsed();
        daemon.addr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{addr}: {e}")))?;
        Ok((daemon, elapsed))
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Sends `SHUTDOWN`, waits for the drain, and kills the daemon if it
    /// has not exited in time. Returns whether it drained by itself.
    pub fn shutdown(mut self) -> bool {
        let asked = TcpStream::connect(self.addr).and_then(|mut s| {
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            s.write_all(b"SHUTDOWN\n")?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line.starts_with("OK draining"))
        });
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut clean = false;
        if matches!(asked, Ok(true)) {
            while Instant::now() < deadline {
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean = status.success();
                        break;
                    }
                    Ok(None) => thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
        }
        if !clean {
            let _ = child.kill();
        }
        let _ = child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        clean
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}
