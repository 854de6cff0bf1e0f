//! `perfbench`: the end-to-end and per-layer benchmark of the labchip
//! pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <assay_cycle_320|scan_320|farm_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it times calls into every layer
//! from this package's own code, writes the spans as Chrome Trace Event
//! JSON under `perfbench/out/`, and prints the per-layer metrics. The last
//! line of standard output is always one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! Any failed output check makes the command exit with code 1.

mod closed;
mod farm;
mod layers;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::{calib_ms, Outcome};

/// The benchmark's workloads; see `perfbench/README.md` for why each one
/// was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The canned sort cycle at the paper's 320² array, closed loop.
    AssayCycle320,
    /// A monitoring assay at 320²: hold route, four 16-frame scans,
    /// reference recovery, closed loop.
    Scan320,
    /// E15-shaped jobs from three tenants through a one-worker farm,
    /// open loop.
    FarmMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "assay_cycle_320" => Some(Self::AssayCycle320),
            "scan_320" => Some(Self::Scan320),
            "farm_mix" => Some(Self::FarmMix),
            _ => None,
        }
    }

    /// The workload's name as the command line spells it.
    pub fn name(self) -> &'static str {
        match self {
            Self::AssayCycle320 => "assay_cycle_320",
            Self::Scan320 => "scan_320",
            Self::FarmMix => "farm_mix",
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <assay_cycle_320|scan_320|farm_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let calib_start = calib_ms();
    let mut outcome: Outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        match args.workload {
            Workload::AssayCycle320 | Workload::Scan320 => {
                closed::run(&closed::spec(args.workload, args.seed), args.seconds)
            }
            Workload::FarmMix => farm::run(&farm::spec(args.seed), args.seconds, None).outcome,
        }
    };
    let calib_end = calib_ms();
    // The host's speed drifts between and within runs; this fixed kernel
    // is timed next to the metrics so drift can be told from a real
    // change. No metric is normalised by it.
    println!(
        "host.calib_ms start={calib_start:.3} end={calib_end:.3} workload={} seed={}",
        args.workload.name(),
        args.seed
    );
    if args.trace {
        outcome
            .metrics
            .push("host.calib_ms", 0.5 * (calib_start + calib_end), "ms");
    }
    for error in &outcome.errors {
        eprintln!("perfbench: check failed: {error}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
