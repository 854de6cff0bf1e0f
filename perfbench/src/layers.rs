//! The traced run: times calls into each layer's public functions from the
//! benchmark's own code, records them as spans, writes the spans as a
//! Chrome trace and returns the per-layer metrics.

use std::time::Duration;

use labchip::workload::{
    sort_problem, BatchDriver, ForceEnvelope, NeverStop, PhaseCtx, PhaseReport, PhaseSpec,
    Protocol, ProtocolOutcome, ProtocolRunner, RouteTarget, RunControl, WorkloadConfig,
};
use labchip_array::addressing::ProgrammingInterface;
use labchip_manipulation::journal::Journal;
use labchip_manipulation::routing::{RoutingOutcome, RoutingProblem, RoutingRequest};
use labchip_manipulation::sharding::{IncrementalRouter, RouterCache};
use labchip_manipulation::state::ChipState;
use labchip_sensing::array_scan::ArrayScanner;
use labchip_sensing::scan::ScanTiming;

use crate::closed::{self, check, single_thread_pool, PLACED};
use crate::farm::{self, PARTICLES};
use crate::report::{median, percentile, Metrics, Outcome};
use crate::trace::{PhaseTracer, Recorder};
use crate::Workload;

/// Span names of the phases (as the runner reports them) and of the gaps
/// between phases, with their metrics.
const PHASES: [(&str, &str); 6] = [
    ("load", "workload.load_ms"),
    ("route", "workload.route_ms"),
    ("sense", "workload.sense_ms"),
    ("recover", "workload.recover_ms"),
    ("flush", "workload.flush_ms"),
    ("boundary", "workload.boundary_ms"),
];
/// Repetitions of the cheap envelope and driver-build calls.
const SETUP_CALLS: usize = 3;

/// How much work one traced run does on a workload.
struct Plan {
    /// Jobs run traced, and again untraced for `trace.overhead_pct`.
    jobs: usize,
    /// Repetitions of each layer call; the metric is the median.
    calls: usize,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        // One 320² sort cycle takes over ten seconds.
        Workload::AssayCycle320 => Plan { jobs: 1, calls: 1 },
        Workload::Scan320 => Plan { jobs: 3, calls: 5 },
        Workload::FarmMix => Plan {
            jobs: 30,
            calls: 25,
        },
    }
}

/// Runs the traced measurement of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Outcome {
    let recorder = Recorder::new();
    let mut outcome = Outcome::default();
    let plan = plan(workload);
    let farm_spec = (workload == Workload::FarmMix).then(|| farm::spec(seed));
    let closed_spec = farm_spec.is_none().then(|| closed::spec(workload, seed));
    // The layer calls probe the first job: the canned sort cycle on
    // `farm_mix`.
    let (config, protocol) = match (&farm_spec, &closed_spec) {
        (Some(spec), _) => {
            let job = spec.job(0);
            let config = WorkloadConfig {
                seed: job.seed,
                ..spec.workload
            };
            (config, job.protocol)
        }
        (None, Some(spec)) => (spec.config, spec.protocol.clone()),
        (None, None) => unreachable!("every workload is closed-loop or the farm"),
    };

    let mut m = Metrics::default();
    single_thread_pool().install(|| {
        let setup = recorder.open("setup", None, "setup");
        let envelope_ms = median_of(SETUP_CALLS, || {
            let call = ForceEnvelope::date05_reference;
            recorder
                .time("physics.envelope", Some(setup), "setup", call)
                .1
        });
        let envelope = ForceEnvelope::date05_reference();
        let driver_ms = median_of(SETUP_CALLS, || {
            let call = || BatchDriver::with_envelope(config, envelope);
            recorder
                .time("workload.driver_build", Some(setup), "setup", call)
                .1
        });
        recorder.close(setup);

        // The layer calls run right before the traced jobs, so the solve is
        // timed close to the route phase it is compared with.
        let layer = layer_calls(config, envelope, &protocol, &plan, &recorder);
        let jobs = match (&farm_spec, &closed_spec) {
            (Some(spec), _) => farm_jobs(spec, envelope, &plan, &recorder, &mut outcome),
            (None, Some(spec)) => closed_jobs(spec, &plan, &recorder, &mut outcome),
            (None, None) => unreachable!("every workload is closed-loop or the farm"),
        };
        for (phase, metric) in PHASES {
            m.push(metric, jobs.phase_ms(&recorder, phase), "ms");
        }
        match layer {
            Ok(layer) => layer.push(&mut m),
            Err(error) => outcome.error(error),
        }
        m.push("sensing.rescan_sites", jobs.rescan_sites, "count");
        m.push("journal.events_per_job", jobs.events_per_job, "count");
        m.push("journal.overhead_pct", jobs.journal_overhead_pct, "%");
        m.push("trace.overhead_pct", jobs.trace_overhead_pct, "%");

        // The closed loops have no farm and no load generator, and their
        // runs hold far fewer than the 1,000 jobs a p99 needs: their farm
        // rows read 0.
        let l = match &farm_spec {
            Some(spec) => {
                let run = farm::run(spec, seconds, Some(&recorder));
                outcome.attempted += run.outcome.attempted;
                outcome.failed += run.outcome.failed;
                outcome.errors.extend(run.outcome.errors);
                run.layer
            }
            None => farm::FarmLayer::default(),
        };
        m.push("job_latency_p99_ms", percentile(&l.latency_ms, 0.99), "ms");
        m.push("farm.queue_wait_ms_p50", median(&l.queue_ms), "ms");
        m.push(
            "farm.queue_wait_ms_p99",
            percentile(&l.queue_ms, 0.99),
            "ms",
        );
        m.push("farm.service_ms_p50", median(&l.run_ms), "ms");
        m.push("farm.unrecorded_ms_p50", median(&l.unrecorded_ms), "ms");
        m.push("farm.queue_depth_max", l.queue_depth_max as f64, "count");
        m.push("farm.resumes", l.resumes as f64, "count");
        m.push("farm.rejected", l.rejected as f64, "count");
        m.push("generator.lag_ms_max", l.lag_ms_max, "ms");
        m.push("physics.envelope_ms", envelope_ms, "ms");
        m.push("workload.driver_build_ms", driver_ms, "ms");
    });
    outcome.metrics = m;

    print_table(workload, &outcome.metrics);
    let path = format!("perfbench/out/trace-{}-{seed}.json", workload.name());
    match std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&path, recorder.chrome_json()))
    {
        Ok(()) => println!("trace written to {path}"),
        Err(error) => outcome.error(format!("writing {path}: {error}")),
    }
    outcome
}

/// What the traced jobs of a run measured.
#[derive(Debug, Default)]
struct TracedJobs {
    /// Root span of each traced job.
    roots: Vec<usize>,
    events_per_job: f64,
    rescan_sites: f64,
    journal_overhead_pct: f64,
    trace_overhead_pct: f64,
}

impl TracedJobs {
    /// Mean per job of the total time in spans named `name`.
    fn phase_ms(&self, recorder: &Recorder, name: &str) -> f64 {
        let total: f64 = self.roots.iter().map(|&r| recorder.total_ms(name, r)).sum();
        total / self.roots.len().max(1) as f64
    }
}

/// Sites the first recovery round re-reads: the mismatches against the
/// plan of the scan the recover phase starts from (0 when recovery runs no
/// round).
fn rescan_sites(reports: &[PhaseReport]) -> Option<usize> {
    let recover = reports.iter().position(|r| r.phase == "recover")?;
    let rounds: usize = reports[recover].detail.split(' ').next()?.parse().ok()?;
    if rounds == 0 {
        return Some(0);
    }
    let sense = reports[..recover]
        .iter()
        .rev()
        .find(|r| r.phase == "sense")?;
    // "{occupied} occupied detected, {mismatches} mismatches vs plan (…)"
    sense
        .detail
        .split(", ")
        .nth(1)?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

/// Percent by which `slower_ms` exceeds `base_ms`.
fn overhead_pct(slower_ms: f64, base_ms: f64) -> f64 {
    100.0 * (slower_ms - base_ms) / base_ms
}

/// One job through `run_controlled` under a given control.
type ControlledRun<'a> = dyn Fn(&dyn RunControl) -> Result<(ProtocolOutcome, Journal), String> + 'a;

/// Times and checks one job four ways: traced and untraced through
/// `run_controlled`, then through `run` and `run_journaled`.
struct JobRuns<'a> {
    label: String,
    protocol: &'a Protocol,
    placed: usize,
    controlled: &'a ControlledRun<'a>,
    runner: ProtocolRunner<'a>,
    cycle: usize,
}

/// Accumulates [`TracedJobs`] over the jobs of a traced run.
#[derive(Default)]
struct Tally {
    jobs: TracedJobs,
    traced_ms: f64,
    untraced_ms: f64,
    plain_ms: f64,
    journaled_ms: f64,
    events: usize,
    rescans: usize,
}

impl Tally {
    fn record(&mut self, recorder: &Recorder, job: &JobRuns<'_>, outcome: &mut Outcome) {
        let label = &job.label;
        let mut errors = Vec::new();
        let mut checked = |result: Result<ProtocolOutcome, String>| match result {
            Ok(run) => errors.extend(check(label, job.protocol, job.placed, &run)),
            Err(error) => errors.push(error),
        };
        let root = recorder.open("job", None, label);
        let tracer = PhaseTracer::new(recorder, root, label);
        let traced = (job.controlled)(&tracer);
        recorder.close(root);
        let reports = tracer.reports.take();
        match traced {
            Ok((run, journal)) => {
                self.traced_ms += recorder.span_ms(root);
                self.jobs.roots.push(root);
                self.events += journal.len();
                self.rescans += rescan_sites(&reports).unwrap_or(0);
                checked(Ok(run));
            }
            Err(error) => checked(Err(error)),
        }
        let (untraced, ms) =
            recorder.time("job.untraced", None, label, || (job.controlled)(&NeverStop));
        self.untraced_ms += ms;
        checked(untraced.map(|(run, _)| run));
        let (plain, ms) = recorder.time("job.run", None, label, || {
            job.runner.run(job.protocol, job.cycle)
        });
        self.plain_ms += ms;
        checked(Ok(plain));
        let (journaled, ms) = recorder.time("job.run_journaled", None, label, || {
            job.runner.run_journaled(job.protocol, job.cycle)
        });
        self.journaled_ms += ms;
        checked(Ok(journaled.0));
        outcome.attempted += 4;
        if !errors.is_empty() {
            outcome.failed += 1;
            outcome.errors.extend(errors);
        }
    }

    fn finish(mut self) -> TracedJobs {
        let n = self.jobs.roots.len().max(1) as f64;
        self.jobs.events_per_job = self.events as f64 / n;
        self.jobs.rescan_sites = self.rescans as f64 / n;
        self.jobs.trace_overhead_pct = overhead_pct(self.traced_ms, self.untraced_ms);
        self.jobs.journal_overhead_pct = overhead_pct(self.journaled_ms, self.plain_ms);
        self.jobs
    }
}

fn closed_jobs(
    spec: &closed::ClosedSpec,
    plan: &Plan,
    recorder: &Recorder,
    outcome: &mut Outcome,
) -> TracedJobs {
    let driver = BatchDriver::new(spec.config);
    let mut tally = Tally::default();
    for cycle in 0..plan.jobs {
        let runner = driver.runner();
        let controlled = |control: &dyn RunControl| {
            runner
                .run_controlled(&spec.protocol, cycle, None, control)
                .map_err(|s| {
                    format!(
                        "{} job {cycle}: stopped: {:?}",
                        spec.workload.name(),
                        s.cause
                    )
                })
        };
        let job = JobRuns {
            label: format!("{}/{cycle}", spec.workload.name()),
            protocol: &spec.protocol,
            placed: PLACED,
            controlled: &controlled,
            runner,
            cycle,
        };
        tally.record(recorder, &job, outcome);
    }
    tally.finish()
}

fn farm_jobs(
    spec: &farm::FarmSpec,
    envelope: ForceEnvelope,
    plan: &Plan,
    recorder: &Recorder,
    outcome: &mut Outcome,
) -> TracedJobs {
    let mut tally = Tally::default();
    for k in 0..plan.jobs {
        let def = spec.job(k);
        // The farm rebuilds a driver for every job; `run` and
        // `run_journaled` share one built outside their spans.
        let driver = BatchDriver::with_envelope(
            WorkloadConfig {
                seed: def.seed,
                ..spec.workload
            },
            envelope,
        );
        let controlled = |control: &dyn RunControl| spec.direct(envelope, k, control);
        let job = JobRuns {
            label: format!("farm_mix/{k}"),
            protocol: &def.protocol,
            placed: PARTICLES,
            controlled: &controlled,
            runner: driver.runner(),
            cycle: 0,
        };
        tally.record(recorder, &job, outcome);
    }
    tally.finish()
}

/// Per-layer figures of the direct layer calls.
struct LayerCalls {
    solve_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
    hit_ratio: f64,
    outcome: RoutingOutcome,
    requests: usize,
    conflict_ms: f64,
    plan_check_ms: f64,
    scan_ms: f64,
    snapshot_ms: f64,
}

impl LayerCalls {
    fn push(&self, m: &mut Metrics) {
        m.push("sharding.solve_ms", self.solve_ms, "ms");
        m.push("sharding.solve_cached_cold_ms", self.cold_ms, "ms");
        m.push("sharding.solve_cached_warm_ms", self.warm_ms, "ms");
        m.push("sharding.cache_hit_ratio", self.hit_ratio, "fraction");
        m.push("sharding.requests", self.requests as f64, "count");
        m.push("sharding.routed", self.outcome.paths.len() as f64, "count");
        m.push(
            "sharding.makespan_steps",
            self.outcome.makespan as f64,
            "count",
        );
        m.push(
            "sharding.total_moves",
            self.outcome.total_moves as f64,
            "count",
        );
        m.push("routing.conflict_check_ms", self.conflict_ms, "ms");
        m.push("array.plan_check_ms", self.plan_check_ms, "ms");
        m.push("sensing.scan_ms", self.scan_ms, "ms");
        m.push("state.snapshot_ms", self.snapshot_ms, "ms");
    }
}

/// The cycle seed the protocol runner derives for cycle `cycle`.
fn cycle_seed(seed: u64, cycle: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cycle as u64 + 1))
}

/// The state after `protocol`'s load phase at cycle 0, and the problem its
/// first route phase solves.
fn route_problem(
    runner: &ProtocolRunner<'_>,
    config: &WorkloadConfig,
    protocol: &Protocol,
) -> Result<(ChipState, RoutingProblem), String> {
    let (Some(load @ PhaseSpec::Load { particles, .. }), Some(target)) = (
        protocol.phases.first(),
        protocol.phases.iter().find_map(|p| match p {
            PhaseSpec::Route { target } => Some(target),
            _ => None,
        }),
    ) else {
        return Err(format!(
            "{}: no load and route phase to probe",
            protocol.name
        ));
    };
    let loaded = runner
        .run(&Protocol::new("load-only").with_phase(load.clone()), 0)
        .state;
    let dims = loaded.dims();
    let sep = loaded.grid().min_separation();
    let positions: Vec<RoutingRequest> = loaded
        .grid()
        .iter_particles()
        .map(|(id, at)| RoutingRequest {
            id,
            start: at,
            goal: at,
        })
        .collect();
    let problem = match target {
        RouteTarget::Hold => {
            let mut problem = RoutingProblem::new(dims, positions);
            problem.min_separation = sep;
            problem
        }
        RouteTarget::SortSplit => {
            let problem = sort_problem(dims, *particles, sep, cycle_seed(config.seed, 0));
            let starts_match = problem.requests.len() == positions.len()
                && problem
                    .requests
                    .iter()
                    .zip(&positions)
                    .all(|(a, b)| a.id == b.id && a.start == b.start);
            if !starts_match {
                return Err(format!(
                    "{}: the probed sort problem does not start from the loaded cells",
                    protocol.name
                ));
            }
            problem
        }
        RouteTarget::MergePairs => {
            return Err(format!("{}: merge routes are not probed", protocol.name));
        }
    };
    Ok((loaded, problem))
}

fn median_of(calls: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..calls).map(|_| f()).collect::<Vec<_>>())
}

fn layer_calls(
    config: WorkloadConfig,
    envelope: ForceEnvelope,
    protocol: &Protocol,
    plan: &Plan,
    recorder: &Recorder,
) -> Result<LayerCalls, String> {
    let driver = BatchDriver::with_envelope(config, envelope);
    let runner = driver.runner();
    let (mut loaded, problem) = route_problem(&runner, &config, protocol)?;
    let dims = problem.dims;
    let sep = problem.min_separation;
    let job = "layers";
    let root = recorder.open("layers", None, job);
    let router = IncrementalRouter::new(config.shards);

    // The cached solves first, so the uncached solve and the conflict
    // check run right before the traced job whose route phase they are
    // compared with.
    let (mut cold_ms, mut warm_ms, mut cached) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0u64, 0u64);
    for _ in 0..plan.calls {
        let mut cache = RouterCache::new();
        let (cold, ms) = recorder.time("sharding.solve_cached_cold", Some(root), job, || {
            router.solve_cached(&problem, &mut cache)
        });
        cold_ms.push(ms);
        let (warm, ms) = recorder.time("sharding.solve_cached_warm", Some(root), job, || {
            router.solve_cached(&problem, &mut cache)
        });
        warm_ms.push(ms);
        let stats = cache.stats();
        hits += stats.hits;
        lookups += stats.hits + stats.misses;
        cached.extend([cold, warm]);
    }

    let mut solved = None;
    let solve_ms = median_of(plan.calls, || {
        let (outcome, ms) =
            recorder.time("sharding.solve", Some(root), job, || router.solve(&problem));
        solved = Some(outcome);
        ms
    });
    let outcome = solved
        .expect("plan.calls is positive")
        .map_err(|e| format!("probed route problem rejected: {e}"))?;
    if cached.iter().any(|c| c.as_ref().ok() != Some(&outcome)) {
        return Err("a cached solve differs from the uncached one".into());
    }

    let mut conflict_free = true;
    let conflict_ms = median_of(plan.calls, || {
        let (free, ms) = recorder.time("routing.conflict_check", Some(root), job, || {
            outcome.is_conflict_free(sep)
        });
        conflict_free &= free;
        ms
    });
    if !conflict_free {
        return Err("the probed plan is not conflict-free".into());
    }

    let programming = ProgrammingInterface::date05_reference();
    let scan_timing = ScanTiming::date05_reference();
    let scanner = ArrayScanner::date05_reference(dims, config.noise_scale, config.seed);
    let plan_check_ms = median_of(plan.calls, || {
        let mut ctx = PhaseCtx::new(
            &config,
            &envelope,
            &router,
            &programming,
            &scan_timing,
            &scanner,
            None,
            0,
            config.seed,
        );
        recorder
            .time("array.plan_check", Some(root), job, || {
                ctx.check_planned_moves(&outcome, dims)
            })
            .1
    });

    let truth = loaded.occupancy().clone();
    let frames = config.detection_frames.max(1);
    let mut pass = 0u64;
    let mut sensed = 0u64;
    let scan_ms = median_of(plan.calls, || {
        pass += 1;
        let (scan, ms) = recorder.time("sensing.scan", Some(root), job, || {
            scanner.scan(&truth, frames, pass)
        });
        sensed += scan.stats.total();
        ms
    });
    if sensed != plan.calls as u64 * dims.count() {
        return Err("a probed scan does not cover every site".into());
    }
    let snapshot_ms = median_of(plan.calls.max(5), || {
        recorder
            .time("state.snapshot", Some(root), job, || loaded.snapshot())
            .1
    });
    recorder.close(root);

    Ok(LayerCalls {
        solve_ms,
        cold_ms: median(&cold_ms),
        warm_ms: median(&warm_ms),
        hit_ratio: hits as f64 / lookups.max(1) as f64,
        requests: problem.requests.len(),
        outcome,
        conflict_ms,
        plan_check_ms,
        scan_ms,
        snapshot_ms,
    })
}

/// Prints the per-layer table, the share of the route phase that the solve
/// and the conflict check cover, and the largest phase.
fn print_table(workload: Workload, m: &Metrics) {
    println!("per-layer metrics, {}:", workload.name());
    for (name, value, unit) in m.iter() {
        println!("  {name:<32} {value:>14.3} {unit}");
    }
    let get = |name| m.get(name).unwrap_or(0.0);
    let route = get("workload.route_ms");
    if route > 0.0 {
        println!(
            "  route coverage: (sharding.solve_ms + routing.conflict_check_ms) / workload.route_ms = {:.1}%",
            100.0 * (get("sharding.solve_ms") + get("routing.conflict_check_ms")) / route
        );
    }
    if let Some((largest, _)) = PHASES
        .iter()
        .filter(|(phase, _)| *phase != "boundary")
        .max_by(|a, b| get(a.1).total_cmp(&get(b.1)))
    {
        println!("  largest phase: {largest}");
    }
}
