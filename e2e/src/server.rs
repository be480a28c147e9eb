//! Building and running the real `sna serve` binary, and reading its
//! resource use from `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;

/// Builds the release `sna` binary from the repository sources into
/// `target_dir` and returns its path.
pub fn build_sna(repo: &Path, target_dir: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "sna-cli", "--bin", "sna"])
        .current_dir(repo)
        .env("CARGO_TARGET_DIR", target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sna failed ({status})"));
    }
    Ok(target_dir.join("release").join("sna"))
}

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `sna serve --listen 127.0.0.1:0 --workers <workers>` and
    /// waits until it reports its address.
    pub fn spawn(sna: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(sna)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sna.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = match read_listen_line(&mut stderr) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep draining stderr so the server can never block on it.
        let stderr = std::thread::spawn(move || drain(stderr));
        Ok(Server {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the server and waits for it and its stderr reader to end.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn read_listen_line(stderr: &mut BufReader<ChildStderr>) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading server stderr: {e}"))?;
        if n == 0 {
            return Err("server exited before listening".to_string());
        }
        if let Some(rest) = line.trim().strip_prefix("sna serve: listening on ") {
            return rest
                .parse()
                .map_err(|e| format!("bad listen address `{rest}`: {e}"));
        }
    }
}

fn drain(mut stderr: BufReader<ChildStderr>) {
    let mut sink = Vec::new();
    while matches!(stderr.read_until(b'\n', &mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`,
/// fixed at 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) the process has used.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in status".to_string())
}
