//! The `dido-server` child process: spawned pinned, found by its ready
//! line, killed and reaped on every way out.

use crate::spec::{Proto, STORE_MB};
use crate::sys::{self, CpuLayout};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The fixed topology every workload runs against. One shard, one
/// dispatcher, one reactor, one SD writer on epoll: the smallest server
/// that exercises every plane, so thread placement cannot differ
/// between runs.
pub const SERVER_FLAGS: [&str; 16] = [
    "--batched",
    "--shards",
    "1",
    "--dispatchers",
    "1",
    "--readers",
    "1",
    "--sd-writers",
    "1",
    "--io-backend",
    "epoll",
    "--max-batch-delay-us",
    "200",
    "--latency-us",
    "1000",
    "--store-mb",
];

/// How long the ready line may take.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `dido-server`. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `binary` on the server CPUs of `layout` and wait for its
    /// "listening on" line. stdout and stderr go to
    /// `<log_dir>/server.{stdout,stderr}.log`.
    ///
    /// The calling thread's affinity is widened to the server CPUs for
    /// the fork (the child inherits it) and then put back on the load
    /// generator's CPU.
    pub fn spawn(
        binary: &Path,
        proto: Proto,
        layout: &CpuLayout,
        log_dir: &Path,
    ) -> Result<ServerProc, String> {
        std::fs::create_dir_all(log_dir).map_err(|e| format!("{}: {e}", log_dir.display()))?;
        let stdout_path = log_dir.join("server.stdout.log");
        let open =
            |p: &PathBuf| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let stdout = open(&stdout_path)?;
        let stderr = open(&log_dir.join("server.stderr.log"))?;
        let mut cmd = Command::new(binary);
        cmd.args(SERVER_FLAGS)
            .arg(STORE_MB.to_string())
            .args(["--proto", proto.kind().as_str(), "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr);
        // SAFETY: the hook runs between fork and exec and only makes one
        // async-signal-safe prctl call.
        unsafe {
            cmd.pre_exec(sys::die_with_parent);
        }
        sys::pin_current_thread(&layout.server).map_err(|e| format!("pin to server CPUs: {e}"))?;
        let spawned = cmd.spawn();
        sys::pin_current_thread(&[layout.loadgen])
            .map_err(|e| format!("pin to loadgen CPU: {e}"))?;
        let child = spawned.map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        server.addr = server.wait_ready(&stdout_path)?;
        Ok(server)
    }

    fn wait_ready(&mut self, stdout_path: &Path) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let out = std::fs::read_to_string(stdout_path).unwrap_or_default();
            let addr = out
                .lines()
                .find_map(|l| l.strip_prefix("dido-server listening on "))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok());
            if let Some(addr) = addr {
                return Ok(addr);
            }
            self.check_alive()?;
            if Instant::now() > deadline {
                return Err("dido-server printed no ready line".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Process id, for `/proc`.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Error if the server has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("dido-server died: {status}")),
            Err(e) => Err(format!("dido-server wait: {e}")),
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Already-exited children make kill fail; wait reaps either way.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
