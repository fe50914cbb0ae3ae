//! The served program of the untraced run, in a process of its own.
//!
//! The benchmark re-executes itself as `cned-refbench serve --workload W
//! --size S --dir D`: that child generates the workload's corpus, sets
//! up its durable server once (timed), binds it on loopback and reports
//! on stdout, one `key value` line each:
//!
//! ```text
//! plan <the plan the workload resolved to>
//! setup <seconds of the set-up>
//! ready <address>
//! ```
//!
//! It then serves until its stdin closes, shuts the server down and
//! reports `cache <counters>` and `rss <peak MB> <baseline MB>`: its own
//! peak resident set, so `peak_rss_mb` holds one set-up and the serving
//! of the load and none of the load generator's memory, and its resident
//! set before the set-up (the binary and the corpus). The parent side is
//! [`ServerProcess`]; dropping it kills the child if it still runs and
//! waits for it to end.

use crate::workload::{self, Spec, Workload};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The child's side: serve `spec`'s workload from `dir` until stdin
/// closes.
pub fn child(spec: &Spec, dir: &Path) -> Result<(), String> {
    let corpus = spec.corpus();
    let baseline = status_mb("VmRSS:");
    // From the corpus in hand to a bound server: plan, index build,
    // data-dir init, bind.
    let t = Instant::now();
    let handle = crate::e2e::serve(spec, corpus, dir)?;
    let setup_s = t.elapsed().as_secs_f64();
    say(format!("plan {}", plan_line(spec.workload, handle.plan())))?;
    say(format!("setup {setup_s:?}"))?;
    say(format!("ready {}", handle.local_addr()))?;
    // Serve until the benchmark closes stdin (or goes away).
    let mut rest = String::new();
    let _ = std::io::stdin().read_line(&mut rest);
    let cache = handle.cache_stats();
    drop(handle.shutdown());
    say(match cache {
        Some(c) => format!(
            "cache {} hits, {} misses, {} seeded, {} invalidations",
            c.hits, c.misses, c.seeded, c.invalidations
        ),
        None => "cache none".into(),
    })?;
    say(format!("rss {:?} {:?}", status_mb("VmHWM:"), baseline))
}

/// One line of the child's report to the benchmark.
fn say(line: String) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("report to the benchmark: {e}"))
}

/// A `/proc/self/status` size field, in MB (0 where unreadable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The plan a workload resolved to, for the report.
pub fn plan_line(workload: Workload, plan: Option<&cned::Plan>) -> String {
    match plan {
        Some(p) => format!(
            "plan: backend={:?} shards={} rho={:.3} predicted dist/query linear={:.0} laesa={:.0} vptree={:.0}",
            p.backend, p.shards, p.rho, p.costs.linear, p.costs.laesa, p.costs.vptree
        ),
        None => match workload {
            Workload::HotMixed => {
                let shape = workload::hot_shape();
                format!(
                    "plan: explicit sharded LAESA, {} shards x {} pivots, compaction every {} inserts",
                    shape.shards, shape.pivots_per_shard, shape.compact_threshold
                )
            }
            _ => "plan: none".into(),
        },
    }
}

/// The server process, seen from the benchmark.
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Its data dir.
    pub dir: PathBuf,
    /// Its set-up time, in seconds.
    pub setup_s: f64,
    /// The report line of the plan it resolved to.
    pub plan: String,
}

/// What the server process reports when it stops.
pub struct Stopped {
    /// The hot-query cache's counters, for the report.
    pub cache: String,
    /// Its peak resident set (`VmHWM`), in MB.
    pub peak_rss_mb: f64,
    /// Its resident set before the first set-up, in MB.
    pub baseline_mb: f64,
}

impl ServerProcess {
    /// Start the server of `spec` with its data dir at `dir` and wait
    /// until it listens.
    pub fn spawn(spec: &Spec, dir: &Path) -> Result<ServerProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--workload", spec.workload.name()])
            .args(["--size", spec.size()])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start the server process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProcess {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: dir.to_path_buf(),
            setup_s: 0.0,
            plan: String::new(),
        };
        server.plan = server.line("plan")?;
        let setup = server.line("setup")?;
        server.setup_s = setup
            .parse()
            .map_err(|_| format!("bad set-up time {setup}"))?;
        let addr = server.line("ready")?;
        server.addr = addr
            .parse()
            .map_err(|_| format!("bad server address {addr}"))?;
        Ok(server)
    }

    /// The next line of the child's report, which must start with `key`.
    fn line(&mut self, key: &str) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read the server process: {e}"))?;
        if n == 0 {
            let status = self.child.wait().map_err(|e| e.to_string())?;
            return Err(format!("the server process ended early ({status})"));
        }
        line.trim_end()
            .strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| format!("the server process said {line:?}, expected {key}"))
    }

    /// Shut the server down and collect its report.
    pub fn stop(mut self) -> Result<Stopped, String> {
        drop(self.stdin.take());
        let cache = self.line("cache")?;
        let rss = self.line("rss")?;
        let mut mb = rss.split_whitespace().map(str::parse::<f64>);
        let (Some(Ok(peak_rss_mb)), Some(Ok(baseline_mb))) = (mb.next(), mb.next()) else {
            return Err(format!("bad rss report {rss:?}"));
        };
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("the server process failed ({status})"));
        }
        Ok(Stopped {
            cache,
            peak_rss_mb,
            baseline_mb,
        })
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
