//! Child server processes: spawn `kdv serve` / `kdv cluster`, time them
//! to readiness, read their peak memory, and stop them cleanly.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client;

/// How long a server may take to become ready before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a SIGTERM drain may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running server tier: one `kdv serve`, or a `kdv cluster`
/// supervisor with its router and shard children.
pub struct Server {
    child: Child,
    /// Where clients send requests (the router, for a cluster).
    pub addr: SocketAddr,
    /// Shard addresses behind a cluster router (empty for `kdv serve`).
    pub shards: Vec<SocketAddr>,
    /// Seconds from spawn until every `/readyz` answered 200.
    pub setup_s: f64,
    stdout: Option<JoinHandle<()>>,
}

fn poll_ready(addr: SocketAddr, deadline: Instant) -> Result<(), String> {
    loop {
        if let Ok(resp) = client::get_once(addr, "/readyz") {
            if resp.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Starts `kdv serve --store store` with `flags` and waits for
/// `/readyz`. The port file lands in `scratch`.
pub fn spawn_serve(
    kdv: &Path,
    store: &Path,
    flags: &[String],
    scratch: &Path,
) -> Result<Server, String> {
    let port_file = scratch.join(format!("serve-{}.port", unique()));
    let started = Instant::now();
    let child = Command::new(kdv)
        .arg("serve")
        .arg("--store")
        .arg(store)
        .args(["--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", kdv.display()))?;
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        shards: Vec::new(),
        setup_s: 0.0,
        stdout: None,
    };
    let deadline = started + READY_TIMEOUT;
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|s| s.trim().parse::<SocketAddr>().ok())
        {
            break addr;
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            return Err(format!("kdv serve exited during start-up: {status}"));
        }
        if Instant::now() > deadline {
            return Err("kdv serve never wrote its port file".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    server.addr = addr;
    poll_ready(addr, deadline)?;
    server.setup_s = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&port_file);
    Ok(server)
}

/// Starts `kdv cluster --shards N` over `store` and waits until the
/// router and every shard answer `/readyz` with 200.
pub fn spawn_cluster(
    kdv: &Path,
    store: &Path,
    shards: usize,
    router_flags: &[String],
    shard_flags: &[String],
    scratch: &Path,
) -> Result<Server, String> {
    let port_dir: PathBuf = scratch.join(format!("ports-{}", unique()));
    let started = Instant::now();
    let child = Command::new(kdv)
        .arg("cluster")
        .args(["--shards", &shards.to_string(), "--store"])
        .arg(store)
        .args(["--addr", "127.0.0.1:0", "--port-dir"])
        .arg(&port_dir)
        .args(router_flags)
        .arg("--shard-flags")
        .arg(shard_flags.join(" "))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", kdv.display()))?;
    let mut server = Server {
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        shards: Vec::new(),
        setup_s: 0.0,
        stdout: None,
    };
    // The supervisor announces shard and router addresses on stdout;
    // the pipe is drained until exit so the child never blocks on it.
    let (tx, rx) = mpsc::channel::<String>();
    let out = server.child.stdout.take().expect("stdout is piped");
    server.stdout = Some(std::thread::spawn(move || {
        for line in BufReader::new(out).lines() {
            let Ok(line) = line else { break };
            let _ = tx.send(line);
        }
    }));
    let deadline = started + READY_TIMEOUT;
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let line = rx
            .recv_timeout(wait)
            .map_err(|_| "kdv cluster never announced its router address".to_string())?;
        if let Some(rest) = line.strip_prefix("spawned ") {
            let list = rest.split_once(": ").map_or("", |(_, l)| l);
            server.shards = list
                .split(',')
                .filter_map(|a| a.trim().parse().ok())
                .collect();
        } else if let Some(rest) = line.strip_prefix("cluster at http://") {
            let addr = rest.split('/').next().unwrap_or("");
            server.addr = addr
                .parse()
                .map_err(|_| format!("unparseable router address in {line:?}"))?;
            break;
        }
    }
    if server.shards.len() != shards {
        return Err(format!(
            "expected {shards} shard addresses, got {:?}",
            server.shards
        ));
    }
    poll_ready(server.addr, deadline)?;
    for &shard in &server.shards {
        poll_ready(shard, deadline)?;
    }
    server.setup_s = started.elapsed().as_secs_f64();
    Ok(server)
}

/// A process-unique suffix for scratch file names.
fn unique() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// `pid` and every process below it.
fn descendants(pid: u32) -> Vec<u32> {
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let p = out[i];
        if let Ok(tasks) = std::fs::read_dir(format!("/proc/{p}/task")) {
            for task in tasks.flatten() {
                if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
                    out.extend(
                        text.split_whitespace()
                            .filter_map(|c| c.parse::<u32>().ok()),
                    );
                }
            }
        }
        i += 1;
    }
    out
}

/// `VmHWM` (peak resident set) of one process, in kB.
fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Whether `pid` still runs (exists and is not a zombie).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rsplit_once(')')
                .map(|(_, rest)| rest.trim_start().starts_with('Z'))
        })
        .is_some_and(|zombie| !zombie)
}

/// Sends `sig` (`TERM`, `KILL`) to `pid`; a process that is already
/// gone is not an error here.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill")
        .args([format!("-{sig}"), pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

fn kill_all(pids: &[u32]) {
    for &pid in pids {
        signal(pid, "KILL");
    }
}

impl Server {
    /// Peak resident memory summed over the server's processes, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        descendants(self.child.id())
            .into_iter()
            .map(vm_hwm_kb)
            .sum::<u64>() as f64
            / 1024.0
    }

    /// SIGTERM (the servers drain and exit 0), then SIGKILL after
    /// [`STOP_TIMEOUT`]; waits for the process and its output reader.
    pub fn stop(mut self) -> Result<(), String> {
        let status = self.terminate();
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("server exited with {s}")),
            None => Err("server did not drain and was killed".into()),
        }
    }

    fn terminate(&mut self) -> Option<std::process::ExitStatus> {
        if let Ok(Some(status)) = self.child.try_wait() {
            self.join_stdout();
            return Some(status);
        }
        // Shards are the supervisor's children: remember them before
        // the signal so they can be waited for after it exits.
        let family = descendants(self.child.id());
        signal(self.child.id(), "TERM");
        let deadline = Instant::now() + STOP_TIMEOUT;
        let result = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    kill_all(&family);
                    let _ = self.child.wait();
                    break None;
                }
            }
        };
        let others = &family[1..];
        while others.iter().any(|&p| alive(p)) {
            if Instant::now() > deadline {
                kill_all(others);
                std::thread::sleep(Duration::from_millis(50));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.join_stdout();
        result
    }

    fn join_stdout(&mut self) {
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Error paths still must leave no process behind.
        let _ = self.terminate();
    }
}
