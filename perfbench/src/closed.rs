//! The closed-loop workloads at the paper's 320² array: one client runs
//! the next protocol only after the previous one returned.

use std::time::{Duration, Instant};

use labchip::workload::{
    BatchDriver, CycleReport, ForceEnvelope, PhaseSpec, Protocol, ProtocolOutcome, RecoveryPolicy,
    RouteTarget, WorkloadConfig,
};
use labchip_units::GridDims;

use crate::report::{median, peak_rss_mb, percentile, timed, Metrics, Outcome};
use crate::Workload;

/// Array side of the closed-loop workloads: the DATE'05 chip.
pub const SIDE: u32 = 320;
/// Cells the sort cycle requests.
pub const SORT_REQUESTED: usize = 10_000;
/// Cells placed on the 320² array: the sort capacity clamps the sort
/// cycle's 10,000 to this, and the scan loads exactly this many.
pub const PLACED: usize = 4_320;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// One closed-loop workload: a configuration, a protocol and how many
/// distinct jobs (cycle indices) its fixed job list holds.
#[derive(Debug, Clone)]
pub struct ClosedSpec {
    pub workload: Workload,
    pub config: WorkloadConfig,
    pub protocol: Protocol,
    /// Jobs `0..distinct_jobs` run first, in order; the run then repeats
    /// them until its time is up.
    pub distinct_jobs: usize,
}

/// The fixed job list of a closed-loop workload for `seed`.
pub fn spec(workload: Workload, seed: u64) -> ClosedSpec {
    let dims = GridDims::square(SIDE);
    match workload {
        Workload::AssayCycle320 => {
            let config = WorkloadConfig {
                array_side: SIDE,
                seed,
                ..WorkloadConfig::default()
            };
            ClosedSpec {
                workload,
                protocol: Protocol::canned_cycle(
                    dims,
                    config.min_separation.max(1),
                    SORT_REQUESTED,
                ),
                config,
                // The problems' makespans differ by up to 1.5x between
                // seeds; four jobs keep the per-seed mean of chip time
                // within the bound.
                distinct_jobs: 4,
            }
        }
        Workload::Scan320 => {
            let reference = RecoveryPolicy::date05_reference();
            let mut protocol = Protocol::new("scan-320")
                .with_phase(PhaseSpec::Load {
                    particles: PLACED,
                    capacity_clamp: None,
                })
                .with_phase(PhaseSpec::Route {
                    target: RouteTarget::Hold,
                });
            for _ in 0..4 {
                protocol = protocol.with_phase(PhaseSpec::Sense { frames: Some(16) });
            }
            ClosedSpec {
                workload,
                config: WorkloadConfig {
                    array_side: SIDE,
                    noise_scale: 4.0,
                    recovery: reference,
                    seed,
                    ..WorkloadConfig::default()
                },
                protocol: protocol
                    .with_phase(PhaseSpec::Recover {
                        policy: Some(reference),
                    })
                    .with_phase(PhaseSpec::Flush),
                distinct_jobs: 8,
            }
        }
        Workload::FarmMix => unreachable!("farm_mix is an open-loop workload"),
    }
}

/// A one-thread planner pool: routing and scans run on the calling thread
/// only, so a closed-loop run keeps one core busy.
pub fn single_thread_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim always builds a pool")
}

/// Builds the envelope and driver `SETUP_REPS` times; returns the last
/// driver and the median set-up time in seconds.
pub fn setup(config: WorkloadConfig) -> (BatchDriver, f64) {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut driver = None;
    for _ in 0..SETUP_REPS {
        let (built, ms) =
            timed(|| BatchDriver::with_envelope(config, ForceEnvelope::date05_reference()));
        seconds.push(ms / 1e3);
        driver = Some(built);
    }
    (driver.expect("SETUP_REPS is positive"), median(&seconds))
}

/// Checks one finished job: every phase completed, the plan is
/// conflict-free, `placed` cells were loaded and the detection stats cover
/// every site of every full-array scan. Returns one line per failure.
pub fn check(
    label: &str,
    protocol: &Protocol,
    placed: usize,
    outcome: &ProtocolOutcome,
) -> Vec<String> {
    let mut errors = Vec::new();
    let report = &outcome.report;
    if let Some(aborted) = outcome
        .phases
        .iter()
        .find(|p| p.phase.starts_with("aborted:"))
    {
        errors.push(format!("{label}: {} ({})", aborted.phase, aborted.detail));
    } else if outcome.phases.len() != protocol.len() {
        errors.push(format!(
            "{label}: {} of {} phases ran",
            outcome.phases.len(),
            protocol.len()
        ));
    }
    if !report.conflict_free {
        errors.push(format!("{label}: the plan is not conflict-free"));
    }
    if report.requested != placed {
        errors.push(format!(
            "{label}: {} cells placed, expected {placed}",
            report.requested
        ));
    }
    let scans = protocol
        .phases
        .iter()
        .filter(|p| matches!(p, PhaseSpec::Sense { .. }))
        .count() as u64;
    let sites = outcome.state.dims().count();
    if report.detection.total() != scans * sites {
        errors.push(format!(
            "{label}: detection stats cover {} site reads, expected {scans} scans x {sites} sites",
            report.detection.total()
        ));
    }
    errors
}

/// Quality figures summed over the distinct jobs of a run; they depend
/// only on the seed.
#[derive(Debug, Default)]
pub struct Quality {
    jobs: usize,
    cells: usize,
    route_requests: usize,
    routed: usize,
    chip_time_s: f64,
    sensed_correct: u64,
    sensed: u64,
    true_mismatches: usize,
}

impl Quality {
    /// Adds one job of `protocol`. Every route phase routes every cell on
    /// the array, so a job requests `cells × route phases` routes.
    pub fn add(&mut self, protocol: &Protocol, report: &CycleReport) {
        let routes = protocol
            .phases
            .iter()
            .filter(|p| matches!(p, PhaseSpec::Route { .. }))
            .count();
        self.jobs += 1;
        self.cells += report.requested;
        self.route_requests += report.requested * routes;
        self.routed += report.routed;
        self.chip_time_s += report.time.total().get();
        self.sensed_correct += report.detection.true_positives + report.detection.true_negatives;
        self.sensed += report.detection.total();
        self.true_mismatches += report.true_mismatches_final;
    }

    /// Pushes the quality metrics in `BENCHMARK.json` order.
    pub fn push_metrics(&self, metrics: &mut Metrics) {
        metrics.push(
            "routed_fraction",
            self.routed as f64 / self.route_requests.max(1) as f64,
            "fraction",
        );
        metrics.push(
            "chip_time_s",
            self.chip_time_s / self.jobs.max(1) as f64,
            "sim_s",
        );
        metrics.push(
            "detection_accuracy",
            self.sensed_correct as f64 / self.sensed.max(1) as f64,
            "fraction",
        );
        // A misplaced cell mismatches at most two sites (where it is and
        // the plan site it left empty), so this stays within 0..=1; unlike
        // the mismatch fraction it is never 0.
        metrics.push(
            "final_match_fraction",
            1.0 - self.true_mismatches as f64 / (2 * self.cells.max(1)) as f64,
            "fraction",
        );
    }
}

/// Pushes the end-to-end metrics shared by every workload, in
/// `BENCHMARK.json` order.
pub fn push_end_to_end(
    outcome: &mut Outcome,
    setup_s: f64,
    latencies_ms: &[f64],
    quality: &Quality,
) {
    // The tail is printed for the record only: in a closed-loop run it is
    // the slowest of a few dozen jobs, and on the farm a few host stalls
    // decide it, so it carries no bound.
    println!(
        "job latency: n={} p50={:.3} ms p99={:.3} ms",
        latencies_ms.len(),
        median(latencies_ms),
        percentile(latencies_ms, 0.99)
    );
    let metrics = &mut outcome.metrics;
    metrics.push("setup_s", setup_s, "s");
    metrics.push("job_latency_p50_ms", median(latencies_ms), "ms");
    quality.push_metrics(metrics);
    metrics.push(
        "completed_fraction",
        (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64,
        "fraction",
    );
    match peak_rss_mb() {
        Some(mb) => outcome.metrics.push("peak_rss_mb", mb, "MB"),
        None => outcome.error("peak resident memory is not readable".into()),
    }
}

/// Runs a closed-loop workload untraced for about `seconds` (at least one
/// pass over its distinct jobs).
pub fn run(spec: &ClosedSpec, seconds: Duration) -> Outcome {
    single_thread_pool().install(|| {
        let mut outcome = Outcome::default();
        let (driver, setup_s) = setup(spec.config);
        let runner = driver.runner();
        let mut latencies = Vec::new();
        let mut quality = Quality::default();
        let mut hashes = Vec::with_capacity(spec.distinct_jobs);
        let start = Instant::now();
        let mut k = 0;
        while k < spec.distinct_jobs || start.elapsed() < seconds {
            let cycle = k % spec.distinct_jobs;
            let (job, ms) = timed(|| runner.run(&spec.protocol, cycle));
            latencies.push(ms);
            outcome.attempted += 1;
            let label = format!("{} job {cycle}", spec.workload.name());
            let mut errors = check(&label, &spec.protocol, PLACED, &job);
            let hash = job.state.state_hash();
            if k < spec.distinct_jobs {
                quality.add(&spec.protocol, &job.report);
                hashes.push(hash);
            } else if hashes[cycle] != hash {
                errors.push(format!("{label}: a repeat ended in a different state"));
            }
            if !errors.is_empty() {
                outcome.failed += 1;
                outcome.errors.extend(errors);
            }
            k += 1;
        }
        push_end_to_end(&mut outcome, setup_s, &latencies, &quality);
        outcome
    })
}
