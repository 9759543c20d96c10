//! Running `hddpred` as a subprocess and reading its resource use from
//! `/proc`.
//!
//! CPU time comes from `/proc/<pid>/schedstat` (nanoseconds, main thread)
//! cross-checked against `utime + stime` in `/proc/<pid>/stat` (whole
//! process, 10 ms ticks): every `hddpred` process here runs with
//! `--threads 1`, so the two agree and the finer one is used; should
//! another thread ever burn CPU, the tick count wins. Bytes written are
//! `wchar` from `/proc/<pid>/io`. Both files stay readable after the
//! process exits until it is reaped, so end-of-run numbers are read from
//! the zombie before `wait`. Peak memory is `VmHWM`, which disappears at
//! exit, so it is polled while the process lives.

use std::io::{BufRead, BufReader, Read as _};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `/proc` reports `utime`/`stime` in USER_HZ ticks, which Linux fixes
/// at 100 per second.
const TICK_NS: u64 = 10_000_000;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub cpu_ns: u64,
    pub wchar: u64,
}

impl Sample {
    /// The counters of `pid`, or `None` once it has been reaped.
    pub fn read(pid: u32) -> Option<Sample> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
        let ticks: u64 =
            fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
        let sched: u64 = std::fs::read_to_string(format!("/proc/{pid}/schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let tick_ns = ticks * TICK_NS;
        let cpu_ns = if tick_ns > sched + 2 * TICK_NS {
            tick_ns
        } else {
            sched
        };
        let io = std::fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
        let wchar = io
            .lines()
            .find_map(|l| l.strip_prefix("wchar:"))
            .and_then(|v| v.trim().parse().ok())?;
        Some(Sample { cpu_ns, wchar })
    }
}

/// `VmHWM` of `pid` in kB (`None` for a zombie or a reaped process).
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Whether `pid` has exited but not been reaped.
fn is_zombie(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit_once(')')
                .map(|(_, rest)| rest.trim_start().starts_with('Z'))
        })
        .unwrap_or(true)
}

/// How a finished process ended, with its final counters.
#[derive(Debug)]
pub struct Finished {
    pub status: ExitStatus,
    /// When the bench first saw the process gone.
    pub at: Instant,
    pub last: Sample,
    pub hwm_kb: u64,
    pub stderr: String,
}

/// A spawned `hddpred` process.
pub struct Proc {
    child: Child,
    pub spawned: Instant,
    stderr: Option<BufReader<ChildStderr>>,
    drain: Option<JoinHandle<String>>,
    early_stderr: String,
    hwm_kb: u64,
}

impl Proc {
    /// Spawn `bin args...` with stderr captured and stdout sent to
    /// `stdout` (a file, or null).
    pub fn spawn(bin: &Path, args: &[String], stdout: Stdio) -> Result<Proc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().map(BufReader::new);
        Ok(Proc {
            child,
            spawned,
            stderr,
            drain: None,
            early_stderr: String::new(),
            hwm_kb: 0,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain stderr from the start, for processes that print no ready
    /// line.
    pub fn drain_stderr(&mut self) {
        if let Some(reader) = self.stderr.take() {
            self.start_drain(reader);
        }
    }

    /// Block until a stderr line starting with `marker` appears and
    /// return when it was read; stderr is then drained on a helper
    /// thread so the process never blocks on a full pipe.
    pub fn wait_ready(&mut self, marker: &str) -> Result<Instant, String> {
        let mut reader = self.stderr.take().ok_or("stderr already consumed")?;
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("reading stderr: {e}"))?;
            if n == 0 {
                let _ = self.child.wait();
                return Err(format!(
                    "process exited before printing `{marker}`:\n{}",
                    self.early_stderr
                ));
            }
            let ready = line.starts_with(marker);
            let at = Instant::now();
            self.early_stderr.push_str(&line);
            if ready {
                self.start_drain(reader);
                self.poll_hwm();
                return Ok(at);
            }
        }
    }

    fn start_drain(&mut self, mut reader: BufReader<ChildStderr>) {
        self.drain = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        }));
    }

    /// Current counters (`None` once reaped).
    pub fn sample(&mut self) -> Option<Sample> {
        self.poll_hwm();
        Sample::read(self.pid())
    }

    /// Fold the current `VmHWM` into the running peak.
    pub fn poll_hwm(&mut self) {
        if let Some(kb) = vm_hwm_kb(self.pid()) {
            self.hwm_kb = self.hwm_kb.max(kb);
        }
    }

    /// If the process has exited, read its final counters, reap it and
    /// return how it ended.
    pub fn try_finish(&mut self) -> Result<Option<Finished>, String> {
        let pid = self.pid();
        if !is_zombie(pid) {
            self.poll_hwm();
            return Ok(None);
        }
        let at = Instant::now();
        let last = Sample::read(pid).unwrap_or_default();
        self.finish(at, last).map(Some)
    }

    fn finish(&mut self, at: Instant, last: Sample) -> Result<Finished, String> {
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for {}: {e}", self.pid()))?;
        if let Some(reader) = self.stderr.take() {
            self.start_drain(reader);
        }
        let mut stderr = std::mem::take(&mut self.early_stderr);
        if let Some(drain) = self.drain.take() {
            stderr.push_str(&drain.join().unwrap_or_default());
        }
        Ok(Finished {
            status,
            at,
            last,
            hwm_kb: self.hwm_kb,
            stderr,
        })
    }

    /// Poll until the process exits (at most `timeout`), sampling its
    /// memory every `poll`.
    pub fn wait_exit(&mut self, timeout: Duration, poll: Duration) -> Result<Finished, String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(done) = self.try_finish()? {
                return Ok(done);
            }
            if Instant::now() > deadline {
                self.kill();
                return Err(format!(
                    "process {} did not exit within {timeout:?}",
                    self.pid()
                ));
            }
            std::thread::sleep(poll);
        }
    }

    /// SIGKILL the process and reap it.
    pub fn kill(&mut self) -> Finished {
        self.poll_hwm();
        let last = Sample::read(self.pid()).unwrap_or_default();
        let _ = self.child.kill();
        let at = Instant::now();
        match self.finish(at, last) {
            Ok(done) => done,
            Err(_) => Finished {
                status: ExitStatus::default(),
                at,
                last,
                hwm_kb: self.hwm_kb,
                stderr: String::new(),
            },
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // A benchmark that bails out early must not leave a daemon behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}
