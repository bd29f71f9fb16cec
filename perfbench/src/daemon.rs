//! `preinferd` lifecycle and the `/proc` readings taken from outside it.

use server::json::{self, Json};
use server::protocol::{read_frame, render_ping, render_stats, write_frame};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running daemon, spawned with its shipped defaults and only the listen
/// address set.
pub struct Daemon {
    child: Child,
    pub addr: String,
    /// Drains the daemon's stdout; ends when the daemon exits.
    reader: Option<JoinHandle<()>>,
}

/// How a daemon ended after SIGTERM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Drained and exited 0.
    Clean,
    /// Exited with a non-zero status or by a signal.
    Failed,
    /// Did not exit within the drain budget; killed.
    Hung,
}

const START_BUDGET: Duration = Duration::from_secs(20);
const DRAIN_BUDGET: Duration = Duration::from_secs(20);

impl Daemon {
    /// Spawns `bin --addr 127.0.0.1:0`, waits for its `listening on` line
    /// and for a `ping` answer.
    pub fn start(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader keeps draining stdout so the daemon never blocks on a
        // full pipe; it ends when the daemon closes stdout at exit.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon { child, addr: String::new(), reader: Some(reader) };
        match rx.recv_timeout(START_BUDGET) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => {
                daemon.kill();
                return Err("preinferd printed no `listening on` line".to_string());
            }
        }
        let deadline = Instant::now() + START_BUDGET;
        loop {
            match daemon.request(&render_ping(None)) {
                Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    daemon.kill();
                    return Err("preinferd did not answer ping".to_string());
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on a fresh connection.
    pub fn request(&self, payload: &str) -> Result<Json, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        write_frame(&mut s, payload).map_err(|e| e.to_string())?;
        let reply = read_frame(&mut s).map_err(|e| e.to_string())?;
        json::parse(&reply).map_err(|e| e.to_string())
    }

    /// The daemon's `stats` verb.
    pub fn stats(&self) -> Result<Json, String> {
        self.request(&render_stats(None))
    }

    /// Sends SIGTERM and waits for the graceful drain.
    pub fn stop(mut self) -> Exit {
        // SAFETY: `kill(2)` takes a pid and a signal number and touches no
        // memory of this process; the pid is our own unreaped child, so it
        // cannot name an unrelated process.
        let sent = unsafe { kill(self.child.id() as i32, SIGTERM) } == 0;
        let deadline = Instant::now() + DRAIN_BUDGET;
        while sent && Instant::now() < deadline {
            let exit = match self.child.try_wait() {
                Ok(Some(status)) if status.success() => Exit::Clean,
                Ok(Some(_)) | Err(_) => Exit::Failed,
                Ok(None) => {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
            };
            self.join_reader();
            return exit;
        }
        self.kill();
        Exit::Hung
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_reader();
    }

    fn join_reader(&mut self) {
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path; `stop` has already reaped.
        if self.reader.is_some() {
            self.kill();
        }
    }
}

const SIGTERM: i32 = 15;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in kB.
pub fn status_kb(pid: &str, field: &str) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// CPU time of every live thread of `pid`, in nanoseconds, summed from
/// `/proc/<pid>/task/*/schedstat`.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
