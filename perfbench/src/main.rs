//! `perfbench` — the ordering service's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Workloads (why each exists is in `BENCHMARK.json`):
//!
//! * `sim-n16-aba` — simulator, n = 16, Bracha RBC, pre-loaded 32 B
//!   transactions: the agreement layer's Θ(n⁴) messages per epoch.
//! * `sim-n4-kv` — simulator, n = 4, coded RBC, 4 KiB KV puts, a crash
//!   and an empty restart caught up by erasure-coded state transfer.
//! * `tcp-n4-open` — loopback TCP, n = 4, an open-loop generator at a
//!   fixed rate through two client gateways.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` measures the
//! same work untraced and then traced (handler timing, captured inputs
//! for replays) and prints the per-layer metrics, including the tracing
//! overhead. Every run checks the program's outputs first: a failed
//! check prints the reason and exits 1 without a result. `--workload all` runs every
//! workload in its own process and prints each table.

mod classify;
mod gate;
mod gen;
mod layers;
mod procfs;
mod report;
mod sim;
mod sink;
mod stats;
mod tcp;
mod wrap;

use report::{Metric, Outcome};

/// The workload names, in run order.
const WORKLOADS: [&str; 3] = ["sim-n16-aba", "sim-n4-kv", "tcp-n4-open"];

/// SplitMix64: the benchmark's input generator.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derives one seed from several words.
pub fn mix(words: &[u64]) -> u64 {
    words.iter().fold(0x5EED, |acc, &w| Rng::new(acc ^ w).next_u64())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "sim-n16-aba" => sim::run(&sim::N16_ABA, args.seed, args.seconds, args.trace)?,
        "sim-n4-kv" => sim::run(&sim::N4_KV, args.seed, args.seconds, args.trace)?,
        "tcp-n4-open" => tcp::run(&tcp::N4_OPEN, args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.trace {
        layers::complete(&mut out, layers::PER_LAYER)?;
    } else {
        let rss = procfs::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        out.push(Metric::new("peak_rss_mib", rss, "MiB"));
        layers::complete(&mut out, layers::END_TO_END)?;
    }
    Ok(out)
}

/// Runs every workload, each in its own child process.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawning {w}: {e}"))?;
        if !status.success() {
            failed.push(w);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads failed: {failed:?}"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        if let Err(e) = run_all(&args) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&args) {
        Ok(out) => {
            print!("{}", out.table());
            println!("{}", out.json(true));
        }
        Err(e) => {
            eprintln!("perfbench: {}: run failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
