//! Starting and stopping a real `slicerd` process.

use slicer_daemon::{DaemonClient, Endpoint};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Key-derivation seed of every deployment the benchmark boots. The
/// workload seed only shapes data and requests.
pub const KEY_SEED: u64 = 7;

/// Pool size pinned for the daemon and the in-process replay. `run.py`
/// pins the driver and every daemon to one CPU, so the reference loop
/// (see `reference`) runs where the measured work runs; a second worker
/// would only queue behind the first.
pub const THREADS: usize = 1;

/// A running `slicerd` child with one client connection. Dropping it
/// kills and reaps the process, so no error path leaves it running.
#[derive(Debug)]
pub struct Slicerd {
    child: Child,
    /// Held open: slicerd prints a line on shutdown and must not meet a
    /// closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    /// The connection requests travel over.
    pub client: DaemonClient,
    /// The daemon's `READY` line.
    pub ready: String,
}

impl Slicerd {
    /// Boots `slicerd` on `data`, waits for its `READY` line and
    /// connects. The socket lives at `sock`; stderr goes to `log`.
    pub fn start(bin: &Path, data: &Path, sock: &Path, log: &Path) -> Result<Self, String> {
        let endpoint = format!("unix://{}", sock.display());
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg(&endpoint)
            .arg("--data")
            .arg(data)
            .args(["--seed", &KEY_SEED.to_string(), "--bits", "16"])
            .args(["--log-level", "warn"])
            .env("SLICER_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut ready = String::new();
        let mut stdout = child.stdout.take().map(BufReader::new);
        let read = stdout.as_mut().map(|out| out.read_line(&mut ready));
        if !matches!(read, Some(Ok(n)) if n > 0) || !ready.starts_with("READY ") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "slicerd did not come up (see {}): {ready:?}",
                log.display()
            ));
        }
        let connected = Endpoint::parse(&endpoint).and_then(|ep| DaemonClient::connect(&ep));
        match connected {
            Ok(client) => Ok(Slicerd {
                child,
                _stdout: stdout,
                client,
                ready: ready.trim_end().to_string(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("connect to slicerd: {e}"))
            }
        }
    }

    /// CPU time the daemon has used so far (user plus system, all
    /// threads), from `/proc/<pid>/stat`. Time the hypervisor steals from
    /// the machine is not charged to it, so it stays steady where wall
    /// time does not.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        // /proc reports in USER_HZ, which Linux fixes at 100 per second.
        const TICKS_PER_SECOND: f64 = 100.0;
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name: state is the 3rd
        // field overall, utime the 14th and stime the 15th.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / TICKS_PER_SECOND),
            _ => Err(format!("{path}: unexpected format")),
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("slicerd exited with {status}"))
        }
    }
}

impl Drop for Slicerd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// A scratch directory for one run, removed when dropped.
#[derive(Debug)]
pub struct Workdir(PathBuf);

impl Workdir {
    /// Creates `path` afresh.
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Workdir(path))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
