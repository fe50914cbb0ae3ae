//! Reference benchmark of the `cned` serving stack.
//!
//! ```text
//! cargo run --release --manifest-path refbench/Cargo.toml -- \
//!     --workload <dict-dc-uniform|dna-de-uniform|hot-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]
//! ```
//!
//! `--trace 0` serves the workload from a server process of its own over
//! loopback TCP and reports the end-to-end metrics; `--trace 1` replays
//! the same op stream through every layer and reports the per-layer
//! metrics. `--size tiny` is the few-second smoke shape the tests run.
//! The server process is this program again, as `serve --workload <w>
//! --size <s> --dir <d>` (see `server.rs`). Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the human-readable report (provenance, plan, layer gaps). Any
//! wrong answer or lost acknowledged write fails the run: it exits 1.
//! Scratch data lives under `.bench_run/` in the working directory and
//! is removed before exit.

mod e2e;
mod load;
mod oracle;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{Spec, Workload};

const USAGE: &str = "usage: cned-refbench --workload <dict-dc-uniform|dna-de-uniform|hot-mixed> \
                     --seed <u64> --seconds <1..=600> --trace <0|1> [--size <full|tiny>]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

impl Args {
    /// The run's shape.
    fn spec(&self) -> Spec {
        let measure = Duration::from_secs(self.seconds);
        let spec = if self.tiny {
            Spec::tiny(self.workload)
        } else {
            Spec::full(self.workload, measure)
        };
        Spec { measure, ..spec }
    }
}

fn parse_size(value: &str) -> Result<bool, String> {
    match value {
        "full" => Ok(false),
        "tiny" => Ok(true),
        _ => Err(format!("bad size {value}")),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds {s} out of 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--size" => tiny = parse_size(value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// The server process's role: `serve --workload <w> --size <s> --dir <d>`.
fn serve(args: &[String]) -> Result<(), String> {
    let (mut workload, mut tiny, mut dir) = (None, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--size" => tiny = parse_size(value)?,
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("serve needs a known --workload")?;
    let spec = if tiny {
        Spec::tiny(workload)
    } else {
        Spec::full(workload, Duration::ZERO)
    };
    server::child(&spec, &dir.ok_or("serve needs --dir")?)
}

/// The commit of the checkout, when it is a git checkout.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        let head = dir.join(".git/HEAD");
        if let Ok(head) = std::fs::read_to_string(&head) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(dir.join(".git").join(reference)) {
                return rev.trim().to_string();
            }
            let packed = std::fs::read_to_string(dir.join(".git/packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("unknown")
                .to_string();
        }
        if !dir.pop() {
            return "unknown (not a git checkout)".into();
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how this result was measured.
fn provenance(args: &Args, spec: &Spec) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "provenance: workload={} seed={} seconds={} trace={} git={} cpu=\"{}\" nproc={} lanes={} \
         workers={} CNED_THREADS={} CNED_BENCH_FAST={} connections={} corpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        cpu_model(),
        workload::nproc(),
        cned::core::lanes::Backend::active().label(),
        cned::search::num_threads(),
        env("CNED_THREADS"),
        env("CNED_BENCH_FAST"),
        spec.connections,
        spec.corpus,
    )
}

/// Run one workload into `scratch`; the report lines and the result.
fn run(args: &Args, spec: &Spec, scratch: &Path) -> Result<(Vec<String>, String), String> {
    let mut lines = vec![provenance(args, spec)];
    let (metrics, attempted, failed) = if args.trace {
        let r = trace::run(spec, args.seed, scratch)?;
        lines.extend(r.lines);
        (r.metrics, r.attempted, r.failed)
    } else {
        let r = e2e::run(spec, args.seed, scratch)?;
        lines.extend(r.lines);
        (r.metrics, r.attempted, r.failed)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        lines.push(format!("{:<34} {:>16.4} {}", m.name, m.value, m.unit));
    }
    Ok((lines, stats::result_line(true, attempted, failed, &metrics)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        if let Err(e) = serve(&argv[1..]) {
            eprintln!("server process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = args.spec();
    let scratch = PathBuf::from(".bench_run").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    e2e::remove_dir(&scratch);
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("create {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &spec, &scratch));
    e2e::remove_dir(&scratch);
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok((lines, result)) => {
            for l in lines {
                println!("{l}");
            }
            println!("{result}");
        }
        Err(e) => {
            eprintln!("{}: run failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload hot-mixed --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::HotMixed,
                seed: 42,
                seconds: 10,
                trace: true,
                tiny: false,
            }
        );
        let tiny = parse(&argv(
            "--workload dna-de-uniform --seed 1 --seconds 2 --trace 0 --size tiny",
        ))
        .unwrap();
        assert!(tiny.tiny);
        assert_eq!(tiny.spec().measure, Duration::from_secs(2));
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload hot-mixed --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload hot-mixed --seed 1 --seconds 1")).is_err());
        assert!(parse(&argv("--workload hot-mixed --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse(&argv(
            "--workload hot-mixed --seed 1 --seconds 1 --trace 0 --size big"
        ))
        .is_err());
    }
}
