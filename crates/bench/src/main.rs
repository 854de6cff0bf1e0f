//! `report` — drives the scenario engine of the DATE'05 reproduction, and
//! emits the machine-readable field-kernel benchmark file.
//!
//! Usage:
//!
//! ```text
//! report list                          # enumerate the registered scenarios
//! report run --all                     # every experiment, markdown tables
//! report run e2 e5                     # a subset
//! report run --all --json              # one JSON document covering every scenario
//! report run e3 --set threads=2        # key=value overrides onto the typed config
//! report run --all --seed 7 --serial   # derived per-scenario seeds, serial order
//! report bench-fields [OUT.json]       # field-kernel benchmark trajectory
//! report bench-workload [OUT.json]     # workload/driver/farm benchmark trajectory
//! report journal-diff A.json B.json    # first divergence between two journals
//! report journal-diff --demo [--seed N] [--noise X] [--side N] [--particles N] [--save PREFIX]
//! report journal-diff --farm DIR JOB   # saved farm job vs a fresh baseline run
//! report journal-diff --fleet [--seed N] [--side N] [--particles N] [--grid CxR]
//!                                      # monolithic vs sharded global journal (E16)
//! report farm demo [...]               # run a demo workload on an in-process farm
//! report farm submit P.json [...]      # run one protocol JSON as a farm job
//! report farm status --dir DIR JOB     # one saved job record, as JSON
//! report farm history --dir DIR [...]  # saved job records, filtered, as JSON
//! report [e2 e5 ...]                   # legacy spelling of `run`
//! ```
//!
//! The markdown output is what `EXPERIMENTS.md` quotes; `--json` emits the
//! same tables (plus full typed outputs, configs, seeds and wall-clock
//! times) as one JSON document from the same source. While scenarios run,
//! row-level progress streams to stderr so long runs never go dark. The
//! `bench-fields` and `bench-workload` subcommands are the benchmark
//! harness: they time the physics, fluidics and routing kernels and the
//! workload pipeline, and write `BENCH_fields.json` / `BENCH_workload.json`
//! (one row per measurement: the median ns per call with its p10/p90 and
//! sample count) so successive changes accumulate a perf trajectory.

use labchip::scenario::{outcomes_to_json, Progress, ProgressEvent, RunOutcome, Runner};
use labchip_bench::{cage_field, cage_plane, populated_simulator};
use labchip_farm::full_registry;
use labchip_physics::field::cache::FieldCache;
use labchip_physics::field::FieldModel;
use labchip_units::Vec3;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-fields") => {
            let out = args
                .get(1)
                .cloned()
                .unwrap_or_else(|| "BENCH_fields.json".into());
            bench_fields(&out);
        }
        Some("bench-workload") => {
            let out = args
                .get(1)
                .cloned()
                .unwrap_or_else(|| "BENCH_workload.json".into());
            bench_workload(&out);
        }
        Some("journal-diff") => {
            if let Err(message) = journal_diff(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        Some("farm") => {
            if let Err(message) = farm_command(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        Some("list") => list_scenarios(),
        Some("run") => {
            if let Err(message) = run_scenarios(&args[1..]) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
        // Legacy spelling: bare ids (or nothing for everything), markdown.
        // Long-standing contract: unknown ids warn and are skipped (exit 0),
        // unlike the `run` subcommand's hard errors.
        _ => {
            let registry = full_registry();
            let mut legacy: Vec<String> = Vec::with_capacity(args.len());
            for id in &args {
                if registry.get(id).is_some() {
                    legacy.push(id.clone());
                } else {
                    eprintln!(
                        "unknown experiment id `{id}` (expected {})",
                        registry.id_range()
                    );
                }
            }
            if args.is_empty() {
                legacy.push("--all".into());
            } else if legacy.is_empty() {
                // All ids were unknown: keep the legacy empty report.
                print_markdown_report(&[]);
                return;
            }
            legacy.push("--quiet".into());
            if let Err(message) = run_scenarios(&legacy) {
                eprintln!("error: {message}");
                std::process::exit(2);
            }
        }
    }
}

/// `report list` — one line per registered scenario.
fn list_scenarios() {
    let registry = full_registry();
    for scenario in registry.iter() {
        println!("{}  {}", scenario.id(), scenario.describe());
    }
    println!("{} scenarios", registry.len());
}

/// Streams scenario progress to stderr, one line per event.
struct StderrProgress;

impl Progress for StderrProgress {
    fn on_event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::ScenarioStarted { scenario } => {
                eprintln!("[{scenario}] started");
            }
            ProgressEvent::Row {
                scenario,
                index,
                summary,
            } => {
                eprintln!("[{scenario}] row {index}: {summary}");
            }
            ProgressEvent::SimSteps {
                scenario,
                steps,
                elapsed_s,
                particles,
            } => {
                eprintln!(
                    "[{scenario}] sim t={elapsed_s:.2} s (+{steps} steps, {particles} particles)"
                );
            }
            ProgressEvent::ScenarioFinished {
                scenario,
                rows,
                wall_ms,
            } => {
                eprintln!("[{scenario}] done: {rows} rows in {wall_ms:.1} ms");
            }
        }
    }
}

/// `report run ...` — executes a scenario subset through the engine.
fn run_scenarios(args: &[String]) -> Result<(), String> {
    let mut ids: Vec<String> = Vec::new();
    let mut all = false;
    let mut json = false;
    let mut quiet = false;
    let mut runner = Runner::new(full_registry());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--json" => json = true,
            "--serial" => {
                runner.set_parallel(false);
            }
            "--quiet" => quiet = true,
            "--set" => {
                let spec = iter
                    .next()
                    .ok_or_else(|| "--set needs a key=value argument".to_owned())?;
                runner.set_override(spec).map_err(|e| e.to_string())?;
            }
            "--seed" => {
                let seed = iter
                    .next()
                    .ok_or_else(|| "--seed needs an integer argument".to_owned())?;
                runner.set_base_seed(seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`"));
            }
            id => ids.push(id.to_owned()),
        }
    }
    if !quiet {
        runner.set_progress(Arc::new(StderrProgress));
    }

    let outcomes = if all {
        if !ids.is_empty() {
            return Err("pass either explicit ids or --all, not both".to_owned());
        }
        runner.run_all().map_err(|e| e.to_string())?
    } else if ids.is_empty() {
        return Err("no scenarios selected (pass ids like `e3`, or --all)".to_owned());
    } else {
        runner.run(&ids).map_err(|e| e.to_string())?
    };

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&outcomes_to_json(&outcomes))
        );
    } else {
        print_markdown_report(&outcomes);
    }
    Ok(())
}

fn print_markdown_report(outcomes: &[RunOutcome]) {
    println!("# labchip experiment report");
    println!();
    println!(
        "Reproduction of \"New Perspectives and Opportunities From the Wild West of \
         Microelectronic Biochips\" (Manaresi et al., DATE 2005)."
    );
    println!();
    for outcome in outcomes {
        println!("{}", outcome.table);
    }
}

/// Timing statistics of one benchmark row, in ns per call: the median and
/// the 10th/90th percentiles of `n` samples.
#[derive(Clone, Copy)]
struct Stats {
    median: f64,
    p10: f64,
    p90: f64,
    n: usize,
}

impl Stats {
    /// Summarises per-call samples (nearest-rank percentiles; an even count
    /// takes the upper median).
    fn of(mut ns: Vec<f64>) -> Self {
        ns.sort_by(f64::total_cmp);
        let at = |q: f64| ns[((ns.len() - 1) as f64 * q).round() as usize];
        Self {
            median: at(0.5),
            p10: at(0.1),
            p90: at(0.9),
            n: ns.len(),
        }
    }
}

/// Times `samples` samples of `f` (at least one). A closure whose single
/// call takes under 1 ms is batched: the batch doubles until one batch takes
/// at least 1 ms, and a sample is a batch's time divided by its size.
fn measure(samples: usize, mut f: impl FnMut()) -> Stats {
    let mut time = |batch: u32| {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        t0.elapsed()
    };
    let mut batch = 1;
    let mut elapsed = time(batch);
    while elapsed < Duration::from_millis(1) {
        batch *= 2;
        elapsed = time(batch);
    }
    let mut ns = vec![elapsed.as_nanos() as f64 / f64::from(batch)];
    while ns.len() < samples {
        ns.push(time(batch).as_nanos() as f64 / f64::from(batch));
    }
    Stats::of(ns)
}

/// One timed `benchmarks` row; `extra` holds further pre-rendered
/// `, "key": value` fields.
fn timed_row(id: &str, stats: &Stats, extra: &str) -> String {
    format!(
        "{{\"id\": \"{id}\", \"ns_per_op\": {:.2}, \"p10_ns\": {:.2}, \"p90_ns\": {:.2}, \"n\": {}{extra}}}",
        stats.median, stats.p10, stats.p90, stats.n
    )
}

/// One derived or counted `benchmarks` row.
fn value_row(id: &str, value: f64, extra: &str) -> String {
    format!("{{\"id\": \"{id}\", \"value\": {value:.4}{extra}}}")
}

/// Exits with code 1 unless `out_path` is writable — the measurements take
/// a minute and would otherwise be thrown away at the final write.
fn ensure_writable(out_path: &str) {
    if let Err(err) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
    {
        eprintln!("cannot write benchmark output `{out_path}`: {err}");
        std::process::exit(1);
    }
}

/// Writes a `BENCH_*.json` document: a `meta` object (its pre-rendered
/// members) and the `benchmarks` rows.
fn write_bench(out_path: &str, meta: &str, rows: &[String]) {
    let json = format!(
        "{{\n  \"meta\": {{{meta}}},\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
        rows.join(",\n    ")
    );
    std::fs::write(out_path, json).expect("write benchmark json");
    println!("wrote {out_path} ({} entries)", rows.len());
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `report bench-fields OUT.json` — the kernel perf trajectory: field
/// evaluation, the physics kernels, the channel-network solver, the cage
/// router and simulator step throughput.
fn bench_fields(out_path: &str) {
    use labchip_fluidics::channel::{ChannelNetwork, NodeId};
    use labchip_fluidics::flow::RectangularChannel;
    use labchip_manipulation::routing::{Router, RoutingStrategy};
    use labchip_physics::dep::DepForceModel;
    use labchip_physics::dynamics::{ForceBalance, OverdampedIntegrator, ParticleState};
    use labchip_physics::field::laplace::LaplaceSolver;
    use labchip_physics::medium::Medium;
    use labchip_physics::particle::Particle;
    use labchip_units::{
        GridCoord, GridRect, Hertz, Meters, PascalSeconds, Pascals, Seconds, WATER_VISCOSITY,
    };
    use rand::SeedableRng;

    const SAMPLES: usize = 32;
    ensure_writable(out_path);
    let mut rows: Vec<String> = Vec::new();
    let mut row = |id: &str, stats: Stats| {
        rows.push(timed_row(id, &stats, ""));
        stats
    };

    // Analytic single-pass Hessian kernel vs the 6-point finite-difference
    // chain it replaced, side by side as the speedup reference.
    let mut grad = [0.0; 2];
    for side in [16u32, 320] {
        let field = cage_field(side);
        let probe = Vec3::new(
            field.plane().width() / 2.0,
            field.plane().height() / 2.0,
            30e-6,
        );
        let kernel = |name: &str| format!("kernel_field_evaluation/{name}/{side}");
        row(
            &kernel("potential"),
            measure(SAMPLES, || {
                black_box(field.potential(black_box(probe)));
            }),
        );
        row(
            &kernel("e_squared"),
            measure(SAMPLES, || {
                black_box(field.e_squared(black_box(probe)));
            }),
        );
        let analytic = row(
            &kernel("grad_e_squared"),
            measure(SAMPLES, || {
                black_box(field.grad_e_squared(black_box(probe)));
            }),
        );
        let fd = row(
            &kernel("grad_e_squared_fd"),
            measure(SAMPLES, || {
                black_box(field.grad_e_squared_fd(black_box(probe)));
            }),
        );
        grad = [analytic.median, fd.median];
    }

    let field = cage_field(16);
    let cache = FieldCache::build(&field);
    let probe = Vec3::new(163.1e-6, 157.7e-6, 31e-6);
    row(
        "kernel_field_evaluation/field_cache_grad_lookup",
        measure(SAMPLES, || {
            black_box(cache.grad_e_squared(black_box(probe)));
        }),
    );

    let medium = Medium::physiological_low_conductivity();
    let cell = Particle::viable_cell(Meters::from_micrometers(10.0));
    row(
        "kernel_clausius_mossotti/viable_cell_spectrum_50_points",
        measure(SAMPLES, || {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += cell.cm_re(&medium, Hertz::new(1e3 * 10f64.powf(i as f64 * 0.12)));
            }
            black_box(acc);
        }),
    );

    let plane = cage_plane(7);
    let region = GridRect::new(GridCoord::new(0, 0), GridCoord::new(6, 6));
    row(
        "kernel_laplace_solver/7x7_region",
        measure(SAMPLES, || {
            black_box(LaplaceSolver::solve(&plane, region).expect("converges"));
        }),
    );

    let balance = ForceBalance::new(&cell, &medium, Hertz::from_kilohertz(10.0));
    let integrator = OverdampedIntegrator::new(
        Seconds::from_millis(1.0),
        Meters::from_micrometers(10.0),
        Meters::from_micrometers(70.0),
    );
    let start = ParticleState::at(Vec3::new(170e-6, 170e-6, 30e-6));
    row(
        "kernel_particle_dynamics/100_steps",
        measure(SAMPLES, || {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
            black_box(integrator.run(&field, &balance, start, 100, &mut rng));
        }),
    );

    let dep = DepForceModel::new(&cell, &medium, Hertz::from_kilohertz(10.0));
    let probe = Vec3::new(170e-6, 170e-6, 30e-6);
    row(
        "kernel_dep_force/single_point",
        measure(SAMPLES, || {
            black_box(dep.force(&field, black_box(probe)));
        }),
    );

    // A ladder network: two rails joined by a rung at every node.
    let geometry = RectangularChannel::new(
        Meters::from_micrometers(200.0),
        Meters::from_micrometers(50.0),
        Meters::from_millimeters(2.0),
    )
    .expect("valid channel");
    for n in [8u32, 32] {
        row(
            &format!("kernel_channel_network/ladder/{n}"),
            measure(SAMPLES, || {
                let mut net = ChannelNetwork::new();
                net.set_viscosity(PascalSeconds::new(WATER_VISCOSITY));
                for i in 0..n {
                    net.add_segment(NodeId(i), NodeId(i + 1), geometry);
                    net.add_segment(NodeId(100 + i), NodeId(100 + i + 1), geometry);
                    net.add_segment(NodeId(i), NodeId(100 + i), geometry);
                }
                net.set_pressure(NodeId(0), Pascals::new(1_000.0));
                net.set_pressure(NodeId(100 + n), Pascals::new(0.0));
                black_box(net.solve().expect("well posed"));
            }),
        );
    }

    let e7 = labchip::experiments::e7_routing::Config {
        array_side: 48,
        ..labchip::experiments::e7_routing::Config::default()
    };
    for particles in [16usize, 48] {
        let problem = labchip::experiments::e7_routing::generate_problem(&e7, particles);
        for (name, strategy) in [
            ("astar", RoutingStrategy::PrioritizedAStar),
            ("greedy", RoutingStrategy::Greedy),
        ] {
            row(
                &format!("kernel_router/{name}/{particles}"),
                measure(SAMPLES, || {
                    black_box(
                        Router::new(strategy)
                            .solve(&problem)
                            .expect("valid problem"),
                    );
                }),
            );
        }
    }

    // Simulator step throughput, 1000 particles. The `threads/1` vs
    // `threads/all_cores` comparison is meaningless without knowing how
    // many cores "all" resolved to on the machine that ran it (a 1-core
    // runner legitimately reports a 1.0x speedup), so the machine's
    // parallelism is recorded alongside every row and in `meta`.
    let cores = available_parallelism();
    for threads in [1usize, 0] {
        let mut sim = populated_simulator(threads, 1000);
        let step = measure(SAMPLES, || sim.run(1));
        let (label, resolved) = match threads {
            0 => (format!("all_cores({cores})"), cores),
            n => (n.to_string(), n),
        };
        let extra = format!(", \"threads\": {resolved}");
        rows.push(timed_row(
            &format!("simulator_step_1000_particles/threads/{label}"),
            &step,
            &extra,
        ));
        rows.push(value_row(
            &format!("particle_steps_per_second/threads/{label}"),
            1000.0 / (step.median * 1e-9),
            &extra,
        ));
    }

    write_bench(
        out_path,
        &format!("\"available_parallelism\": {cores}"),
        &rows,
    );
    let [analytic, fd] = grad;
    println!(
        "analytic grad_e_squared speedup over finite differences (side 320): {:.1}x",
        fd / analytic
    );
}

/// `report bench-workload OUT.json` — the workload-pipeline perf
/// trajectory: incremental-router planning, full driver cycles with and
/// without the event journal attached, journal replay, and the farm and
/// sharded-fleet sweeps.
///
/// The cycle variants run the *identical* deterministic cycle sequence
/// (same seeds, same routing problems) and are sampled interleaved, so
/// their medians are directly comparable. CI bounds the journal write
/// overhead (< 2% of a live cycle) and requires replay to be faster than
/// live execution — the property that makes the journal a usable
/// crash-recovery and debugging artifact.
fn bench_workload(out_path: &str) {
    use labchip::scenario::{Scenario, ScenarioContext};
    use labchip::workload::{sort_problem, BatchDriver, ForceEnvelope, Protocol, WorkloadConfig};
    use labchip_manipulation::journal::replay;
    use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};
    use labchip_units::GridDims;

    const SAMPLES: usize = 5;
    const CYCLES: usize = 4;
    // The journal-overhead gate resolves 2% of a cycle, far finer than the
    // cycle-to-cycle spread of a loaded machine (p10–p90 about ±8% on a
    // shared 2-vCPU VM, where medians of 11 still swung by ±2.4% between
    // runs and medians of 21 by 0.1%), so cycles take more samples.
    const CYCLE_SAMPLES: usize = 21;
    ensure_writable(out_path);
    let mut rows: Vec<String> = Vec::new();

    // Incremental-router planning alone (no execution, no sensing).
    let defaults = WorkloadConfig::default();
    let router = IncrementalRouter::new(defaults.shards);
    let plan = |side: u32, particles: usize| {
        let problem = sort_problem(
            GridDims::square(side),
            particles,
            defaults.min_separation,
            2005,
        );
        black_box(
            router
                .solve(&problem)
                .expect("generated problems are always well-formed"),
        );
    };
    for (side, particles) in [(128u32, 500usize), (256, 1000)] {
        rows.push(timed_row(
            &format!("workload/incremental_plan/{side}x{particles}"),
            &measure(SAMPLES, || plan(side, particles)),
            "",
        ));
    }

    // Warm-start replanning at full chip scale on a pinned single-thread
    // pool: cold solves of the 320² sort (the E10 headline problem), each on
    // a fresh plan cache, then warm re-solves of the identical problem
    // against the last primed cache. Warm output is bit-identical to cold by
    // the cache's content-key construction, so the ratio is a pure speed
    // figure. `sort_problem` clamps the request to the sort lattice's
    // capacity, so the ids carry the count actually placed.
    const REQUESTED: usize = 10_000;
    let problem = sort_problem(GridDims::square(320), REQUESTED, 2, 2005);
    let placed = problem.requests.len();
    let sort_router = IncrementalRouter::new(ShardConfig::default());
    let (cold, warm, routed_fraction) = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread pool construction is infallible");
        let mut cache = RouterCache::new();
        let mut routed = 0;
        let mut solve = |cache: &mut RouterCache| {
            let outcome = sort_router
                .solve_cached(&problem, cache)
                .expect("generated problems are always well-formed");
            routed = outcome.paths.len();
            black_box(outcome);
        };
        let cold = pool.install(|| {
            measure(SAMPLES, || {
                cache = RouterCache::new();
                solve(&mut cache);
            })
        });
        let warm = pool.install(|| measure(SAMPLES, || solve(&mut cache)));
        (cold, warm, routed as f64 / placed as f64)
    };
    let quality =
        format!(", \"requested\": {REQUESTED}, \"routed_fraction\": {routed_fraction:.4}");
    rows.push(timed_row(
        &format!("workload/incremental_plan_cold/320x{placed}"),
        &cold,
        &quality,
    ));
    rows.push(timed_row(
        &format!("workload/incremental_plan_warm/320x{placed}"),
        &warm,
        &quality,
    ));
    let warm_cold_ratio = warm.median / cold.median;

    // The SoA tile-membership build alone: the per-window counting sort
    // over the same 320² scatter (margin freezing included), isolated from
    // the A* so the partition-build lever of the cold solve is tracked.
    let positions: Vec<_> = problem
        .requests
        .iter()
        .map(|request| request.start)
        .collect();
    rows.push(timed_row(
        &format!("workload/partition_build/320x{placed}"),
        &measure(SAMPLES, || {
            black_box(sort_router.partition_build_probe(GridDims::square(320), 2, &positions));
        }),
        "",
    ));

    // Thread-pinned planning: the 128²/500 problem under explicit rayon
    // pools, so the trajectory records a measured scaling curve (threads +
    // speedup per row) instead of whatever pool the ambient environment
    // happened to provide.
    let pinned: Vec<(usize, Stats)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction is infallible");
            (
                threads,
                pool.install(|| measure(SAMPLES, || plan(128, 500))),
            )
        })
        .collect();
    let serial = pinned[0].1.median;
    for (threads, stats) in &pinned {
        rows.push(timed_row(
            &format!("workload/incremental_plan_pinned/128x500/threads/{threads}"),
            stats,
            &format!(
                ", \"threads\": {threads}, \"speedup\": {:.3}",
                serial / stats.median
            ),
        ));
    }

    // Full driver cycles: live (no journal) vs journaled, then replay of the
    // recorded journals back into chip states — sampled interleaved so
    // machine-load drift hits all three alike. Each sample covers CYCLES
    // cycles and is reported per cycle.
    let cycle_config = WorkloadConfig {
        array_side: 96,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(cycle_config.array_side);
    let sep = cycle_config.min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, 200);
    let driver = BatchDriver::with_envelope(cycle_config, ForceEnvelope::date05_reference());
    let live_cycles = || {
        for cycle in 0..CYCLES {
            black_box(driver.runner().run(&protocol, cycle));
        }
    };
    // Warm the field caches and the allocator before measuring.
    live_cycles();
    let mut journals = Vec::with_capacity(CYCLES);
    let (mut live, mut journaled, mut replayed) = (Vec::new(), Vec::new(), Vec::new());
    let per_cycle = |stats: Stats| stats.median / CYCLES as f64;
    for _ in 0..CYCLE_SAMPLES {
        live.push(per_cycle(measure(1, live_cycles)));
        // Drop the previous sample's journals outside the timed region.
        journals.clear();
        journaled.push(per_cycle(measure(1, || {
            journals = (0..CYCLES)
                .map(|cycle| driver.runner().run_journaled(&protocol, cycle).1)
                .collect();
        })));
        replayed.push(per_cycle(measure(1, || {
            for journal in &journals {
                black_box(replay(journal, dims, sep).expect("recorded journals replay cleanly"));
            }
        })));
    }
    let (live, journaled, replayed) = (Stats::of(live), Stats::of(journaled), Stats::of(replayed));
    rows.push(timed_row("workload/driver_cycle_live/96x200", &live, ""));
    rows.push(timed_row(
        "workload/driver_cycle_journaled/96x200",
        &journaled,
        "",
    ));
    rows.push(timed_row("workload/cycle_replay/96x200", &replayed, ""));
    let journal_overhead_pct = 100.0 * (journaled.median / live.median - 1.0);
    let replay_vs_live_pct = 100.0 * (replayed.median / live.median - 1.0);

    // Farm fleet benchmark: the E15 scenario's worker-count sweep, folded
    // into the same trajectory file — jobs/sec and latency percentiles per
    // fleet size, plus the sweep's divergence tripwire.
    let farm = labchip_farm::FarmScenario.run(
        &labchip_farm::scenario::Config::default(),
        &mut ScenarioContext::silent("E15"),
    );
    for row in &farm.fleet {
        let workers = format!(", \"threads\": {}", row.workers);
        for (metric, value) in [
            ("jobs_per_sec", row.jobs_per_sec),
            ("latency_p50_ms", row.latency_p50_ms),
            ("latency_p99_ms", row.latency_p99_ms),
        ] {
            let id = format!("workload/farm/{metric}/workers/{}", row.workers);
            rows.push(value_row(&id, value, &workers));
        }
    }

    // Sharded-fleet benchmark: a reduced E16 sweep (the default 320² sweep
    // belongs to `report run e16`), recording wall clock and handoff
    // traffic per shard grid plus the equivalence tripwire.
    let fleet = labchip_farm::FleetScenario.run(
        &labchip_farm::fleet_scenario::Config {
            array_side: 96,
            particles: 200,
            ..labchip_farm::fleet_scenario::Config::default()
        },
        &mut ScenarioContext::silent("E16"),
    );
    for row in &fleet.grids {
        let shards = format!(", \"threads\": {}", row.shards);
        let id = |metric: &str| format!("workload/fleet/{metric}/grid/{}", row.grid);
        rows.push(value_row(&id("wall_ms"), row.wall_ms, &shards));
        rows.push(value_row(&id("handoffs"), row.handoffs as f64, &shards));
    }
    for (id, value) in [
        ("workload/farm/divergences", farm.total_divergences as f64),
        ("workload/fleet/divergences", fleet.total_divergences as f64),
        ("workload/plan_warm_cold_ratio", warm_cold_ratio),
        ("workload/journal_overhead_pct", journal_overhead_pct),
        ("workload/replay_vs_live_pct", replay_vs_live_pct),
    ] {
        rows.push(value_row(id, value, ""));
    }
    write_bench(
        out_path,
        &format!(
            "\"available_parallelism\": {}, \"cycles\": {CYCLES}",
            available_parallelism()
        ),
        &rows,
    );

    println!(
        "warm/cold replan ratio (320x{placed} of {REQUESTED} requested, routed {:.1}%, 1 thread): \
         {warm_cold_ratio:.4}",
        100.0 * routed_fraction
    );
    let curve: Vec<String> = pinned
        .iter()
        .map(|(threads, stats)| format!("{threads}t {:.2}x", serial / stats.median))
        .collect();
    println!(
        "pinned incremental-plan scaling (128x500): {}",
        curve.join(", ")
    );
    println!(
        "journal write overhead vs live cycle: {journal_overhead_pct:+.3}% \
         ({:.1} ms journaled vs {:.1} ms live per cycle)",
        journaled.median / 1e6,
        live.median / 1e6
    );
    println!(
        "journal replay vs live execution: {replay_vs_live_pct:+.3}% \
         ({:.3} ms replay per cycle)",
        replayed.median / 1e6
    );
    println!(
        "divergences: farm {}, sharded fleet {}",
        farm.total_divergences, fleet.total_divergences
    );
}

/// `report journal-diff` — where do two chip-state journals first diverge?
///
/// File mode (`report journal-diff A.json B.json`) compares two saved
/// journals event by event and prints the common-prefix length and the
/// first divergent pair. Demo mode (`--demo`) runs the canned cycle twice
/// at the *same* seed — open-loop (recovery disabled) versus closed-loop
/// (the DATE'05 reference policy) — and diffs the two journals: the
/// divergence point is exactly where the recovery loop first acted on a
/// detection mismatch, the E12 debugging question the journal was built to
/// answer. `--save PREFIX` writes both demo journals for later file-mode
/// diffs. Fleet mode (`--fleet`) runs the canned cycle monolithic and
/// sharded at the same seed and diffs the two *global* journals — the E16
/// contract says they are byte-identical, so anything but "journals are
/// identical" is a sharding bug, localised to its first event.
fn journal_diff(args: &[String]) -> Result<(), String> {
    use labchip::workload::{BatchDriver, Protocol, RecoveryPolicy, WorkloadConfig};
    use labchip_manipulation::journal::{diff, Journal};
    use labchip_units::GridDims;

    // Farm mode: a saved job's committed journal vs a fresh baseline run
    // of the same record. The record carries protocol + effective config,
    // so a `Done` job must diff clean — any divergence localises exactly
    // where the farm's execution (including any kill/resume history)
    // departed from a straight-through run.
    if args.first().map(String::as_str) == Some("--farm") {
        let [_, dir, job] = args else {
            return Err("usage: report journal-diff --farm DIR JOB".into());
        };
        let id = labchip_farm::JobId::parse(job)
            .ok_or_else(|| format!("`{job}` is not a job id (expected `7` or `job-7`)"))?;
        let store = labchip_farm::HistoryStore::new(dir.as_str());
        let record = store
            .load_record(id)
            .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
        let saved = store
            .load_journal(id)
            .map_err(|err| format!("cannot load {id}'s journal from `{dir}`: {err}"))?;
        let driver = BatchDriver::new(record.config);
        let (_, baseline) = driver.runner().run_journaled(&record.protocol, 0);
        println!(
            "{id} (`{}`, tenant {}, status {}, {} resumes): committed journal vs fresh baseline\n",
            record.protocol.name,
            record.tenant,
            record.status.label(),
            record.resumes
        );
        println!("{}", diff(&saved, &baseline));
        return Ok(());
    }

    // Fleet mode: the same canned cycle run monolithic and sharded; the
    // sharded run's global journal must be byte-identical (the E16
    // equivalence contract), so this diff is expected to print
    // "journals are identical" — CI greps for exactly that.
    if args.first().map(String::as_str) == Some("--fleet") {
        use labchip_manipulation::fleet::{FleetTopology, ShardedState};
        let mut seed = 2005u64;
        let mut side = 48u32;
        let mut particles = 60usize;
        let mut grid = (2u32, 1u32);
        let mut rest = args[1..].iter();
        while let Some(flag) = rest.next() {
            let mut value = |name: &str| -> Result<&String, String> {
                rest.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--side" => {
                    side = value("--side")?
                        .parse()
                        .map_err(|e| format!("--side: {e}"))?
                }
                "--particles" => {
                    particles = value("--particles")?
                        .parse()
                        .map_err(|e| format!("--particles: {e}"))?;
                }
                "--grid" => {
                    let raw = value("--grid")?;
                    let (cols, rows) = raw
                        .split_once('x')
                        .ok_or_else(|| format!("--grid expects COLSxROWS, got `{raw}`"))?;
                    grid = (
                        cols.parse().map_err(|e| format!("--grid cols: {e}"))?,
                        rows.parse().map_err(|e| format!("--grid rows: {e}"))?,
                    );
                }
                other => return Err(format!("unknown journal-diff --fleet flag `{other}`")),
            }
        }
        let config = WorkloadConfig {
            array_side: side,
            seed,
            ..WorkloadConfig::default()
        };
        let dims = GridDims::square(side);
        let sep = config.min_separation.max(1);
        let protocol = Protocol::canned_cycle(dims, sep, particles);
        let driver = BatchDriver::new(config);
        let topology = FleetTopology::new(dims, sep, grid.0, grid.1)
            .map_err(|err| format!("--grid: {err}"))?;
        let (_, monolithic) = driver.runner().run_journaled(&protocol, 0);
        let fleet = ShardedState::new(topology);
        let (_, sharded, fleet) = driver.runner().run_sharded(&protocol, 0, fleet);
        let outcome = fleet.into_outcome();
        println!(
            "canned cycle, seed {seed}, {side}x{side}, {particles} particles:\n\
             monolithic global journal vs sharded ({}x{} grid, {} handoffs) global journal\n",
            grid.0,
            grid.1,
            outcome.handoffs()
        );
        println!("{}", diff(&monolithic, &sharded));
        return Ok(());
    }

    if args.first().map(String::as_str) != Some("--demo") {
        let [path_a, path_b] = args else {
            return Err(
                "usage: report journal-diff A.json B.json  |  report journal-diff --demo \
                 [--seed N] [--noise X] [--side N] [--particles N] [--save PREFIX]  |  \
                 report journal-diff --farm DIR JOB  |  report journal-diff --fleet \
                 [--seed N] [--side N] [--particles N] [--grid CxR]"
                    .into(),
            );
        };
        let load = |path: &String| -> Result<Journal, String> {
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("cannot read journal `{path}`: {err}"))?;
            serde_json::from_str(&text)
                .map_err(|err| format!("`{path}` is not a journal JSON: {err}"))
        };
        let a = load(path_a)?;
        let b = load(path_b)?;
        println!("{}", diff(&a, &b));
        return Ok(());
    }

    // Demo mode: open- vs closed-loop at the same seed.
    let mut seed = 2005u64;
    let mut noise = 8.0f64;
    let mut side = 48u32;
    let mut particles = 60usize;
    let mut save: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            rest.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--noise" => {
                noise = value("--noise")?
                    .parse()
                    .map_err(|e| format!("--noise: {e}"))?;
            }
            "--side" => {
                side = value("--side")?
                    .parse()
                    .map_err(|e| format!("--side: {e}"))?
            }
            "--particles" => {
                particles = value("--particles")?
                    .parse()
                    .map_err(|e| format!("--particles: {e}"))?;
            }
            "--save" => save = Some(value("--save")?.clone()),
            other => return Err(format!("unknown journal-diff flag `{other}`")),
        }
    }

    let base = WorkloadConfig {
        array_side: side,
        seed,
        noise_scale: noise,
        detection_frames: 2,
        recovery: RecoveryPolicy::disabled(),
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(side);
    let sep = base.min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, particles);
    let run = |config: WorkloadConfig| {
        let driver = BatchDriver::new(config);
        driver.runner().run_journaled(&protocol, 0).1
    };
    let open = run(base);
    let closed = run(WorkloadConfig {
        recovery: RecoveryPolicy::date05_reference(),
        ..base
    });
    println!(
        "canned cycle, seed {seed}, noise {noise}, {side}x{side}, {particles} particles:\n\
         open-loop (recovery off) vs closed-loop (DATE'05 reference policy)\n"
    );
    println!("{}", diff(&open, &closed));
    if let Some(prefix) = save {
        for (suffix, journal) in [("open", &open), ("closed", &closed)] {
            let path = format!("{prefix}-{suffix}.json");
            std::fs::write(&path, serde_json::to_string(journal))
                .map_err(|err| format!("cannot write `{path}`: {err}"))?;
            println!("wrote {path} ({} events)", journal.len());
        }
    }
    Ok(())
}

/// `report farm ...` — job control against an in-process chip farm.
///
/// The farm is a library service, not a daemon, so `demo` and `submit`
/// spin a fleet up, drive it to drain and tear it down in one invocation;
/// `--out DIR` persists every terminal job's record + committed journal
/// through the [`HistoryStore`](labchip_farm::HistoryStore), and `status`
/// / `history` read such a directory back — the same files
/// `report journal-diff --farm` consumes.
fn farm_command(args: &[String]) -> Result<(), String> {
    use labchip_farm::{Farm, FarmConfig, HistoryFilter, HistoryStore, JobId, JobSpec};

    let usage = "usage: report farm demo [--workers N] [--tenants N] [--jobs-per-tenant N] \
                 [--kill N] [--side N] [--particles N] [--seed N] [--out DIR]  |  \
                 report farm submit PROTOCOL.json [--tenant T] [--workers N] [--seed N] \
                 [--side N] [--out DIR]  |  report farm status --dir DIR JOB  |  \
                 report farm history --dir DIR [--tenant T] [--depth N] [--terminal]";
    match args.first().map(String::as_str) {
        Some("demo") => {
            let mut workers = 2usize;
            let mut tenants = 3usize;
            let mut jobs_per_tenant = 2usize;
            let mut kill = 1usize;
            let mut side = 32u32;
            let mut particles = 24usize;
            let mut seed = 2005u64;
            let mut out: Option<String> = None;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--workers" => workers = parse_flag(value("--workers")?, "--workers")?,
                    "--tenants" => tenants = parse_flag(value("--tenants")?, "--tenants")?,
                    "--jobs-per-tenant" => {
                        jobs_per_tenant =
                            parse_flag(value("--jobs-per-tenant")?, "--jobs-per-tenant")?;
                    }
                    "--kill" => kill = parse_flag(value("--kill")?, "--kill")?,
                    "--side" => side = parse_flag(value("--side")?, "--side")?,
                    "--particles" => particles = parse_flag(value("--particles")?, "--particles")?,
                    "--seed" => seed = parse_flag(value("--seed")?, "--seed")?,
                    "--out" => out = Some(value("--out")?.clone()),
                    other => return Err(format!("unknown farm demo flag `{other}`\n{usage}")),
                }
            }
            run_farm_demo(
                workers,
                tenants.max(1),
                jobs_per_tenant.max(1),
                kill,
                side,
                particles,
                seed,
                out.as_deref(),
            )
        }
        Some("submit") => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| format!("submit needs a PROTOCOL.json path\n{usage}"))?;
            let mut tenant = "cli".to_owned();
            let mut workers = 1usize;
            let mut side = 32u32;
            let mut seed: Option<u64> = None;
            let mut out: Option<String> = None;
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--tenant" => tenant = value("--tenant")?.clone(),
                    "--workers" => workers = parse_flag(value("--workers")?, "--workers")?,
                    "--side" => side = parse_flag(value("--side")?, "--side")?,
                    "--seed" => seed = Some(parse_flag(value("--seed")?, "--seed")?),
                    "--out" => out = Some(value("--out")?.clone()),
                    other => return Err(format!("unknown farm submit flag `{other}`\n{usage}")),
                }
            }
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("cannot read protocol `{path}`: {err}"))?;
            let protocol: labchip::workload::Protocol = serde_json::from_str(&text)
                .map_err(|err| format!("`{path}` is not a protocol JSON: {err}"))?;
            let farm = Farm::new(FarmConfig {
                workers,
                workload: labchip::workload::WorkloadConfig {
                    array_side: side,
                    ..labchip::workload::WorkloadConfig::default()
                },
                ..FarmConfig::default()
            });
            let mut spec = JobSpec::tenant(tenant);
            if let Some(seed) = seed {
                spec = spec.with_seed(seed);
            }
            let id = farm
                .submit(protocol, spec)
                .map_err(|err| format!("submit failed: {err}"))?;
            farm.wait_idle();
            let record = farm.record(id).expect("submitted job has a record");
            println!("{}", serde_json::to_string_pretty(&record));
            if let Some(dir) = out {
                save_farm_history(&farm, &HistoryStore::new(dir.as_str()))?;
            }
            farm.shutdown();
            Ok(())
        }
        Some("status") => {
            let (dir, positional) = take_dir_flag(&args[1..])?;
            let dir = dir.ok_or_else(|| format!("status needs --dir DIR\n{usage}"))?;
            let [job] = positional.as_slice() else {
                return Err(format!("status needs exactly one JOB id\n{usage}"));
            };
            let id = JobId::parse(job)
                .ok_or_else(|| format!("`{job}` is not a job id (expected `7` or `job-7`)"))?;
            let record = HistoryStore::new(dir.as_str())
                .load_record(id)
                .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
            println!("{}", serde_json::to_string_pretty(&record));
            Ok(())
        }
        Some("history") => {
            let mut dir: Option<String> = None;
            let mut filter = HistoryFilter::all();
            let mut depth = 0usize;
            let mut rest = args[1..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| -> Result<&String, String> {
                    rest.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--dir" => dir = Some(value("--dir")?.clone()),
                    "--tenant" => filter.tenant = Some(value("--tenant")?.clone()),
                    "--depth" => depth = parse_flag(value("--depth")?, "--depth")?,
                    "--terminal" => filter.terminal_only = true,
                    other => return Err(format!("unknown farm history flag `{other}`\n{usage}")),
                }
            }
            let dir = dir.ok_or_else(|| format!("history needs --dir DIR\n{usage}"))?;
            let store = HistoryStore::new(dir.as_str());
            let ids = store
                .list()
                .map_err(|err| format!("cannot list `{dir}`: {err}"))?;
            let mut records = Vec::new();
            for id in ids.into_iter().rev() {
                let record = store
                    .load_record(id)
                    .map_err(|err| format!("cannot load {id} from `{dir}`: {err}"))?;
                if filter.matches(&record) {
                    records.push(record);
                }
                if depth > 0 && records.len() == depth {
                    break;
                }
            }
            println!("{}", serde_json::to_string_pretty(&records));
            Ok(())
        }
        _ => Err(usage.into()),
    }
}

fn parse_flag<T: std::str::FromStr>(text: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|err| format!("{name}: invalid value `{text}`: {err}"))
}

fn take_dir_flag(args: &[String]) -> Result<(Option<String>, Vec<String>), String> {
    let mut dir = None;
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--dir" {
            dir = Some(
                iter.next()
                    .ok_or_else(|| "--dir needs a value".to_owned())?
                    .clone(),
            );
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((dir, positional))
}

fn save_farm_history(
    farm: &labchip_farm::Farm,
    store: &labchip_farm::HistoryStore,
) -> Result<(), String> {
    let records = farm.history(&labchip_farm::HistoryFilter::all(), 0);
    for record in &records {
        let journal = farm
            .accumulated_journal(record.id)
            .expect("recorded jobs have journals");
        store.save(record, &journal).map_err(|err| {
            format!(
                "cannot save {} to `{}`: {err}",
                record.id,
                store.dir().display()
            )
        })?;
    }
    println!(
        "saved {} job records to {}",
        records.len(),
        store.dir().display()
    );
    Ok(())
}

/// `report farm demo` — a multi-tenant workload with an injected mid-run
/// kill, printed as a job table.
#[allow(clippy::too_many_arguments)]
fn run_farm_demo(
    workers: usize,
    tenants: usize,
    jobs_per_tenant: usize,
    kill: usize,
    side: u32,
    particles: usize,
    seed: u64,
    out: Option<&str>,
) -> Result<(), String> {
    use labchip::workload::{BatchDriver, WorkloadConfig};
    use labchip_farm::{
        scenario::protocol_mix, Farm, FarmConfig, HistoryFilter, HistoryStore, JobSpec,
    };
    use labchip_manipulation::journal::FaultPlan;
    use labchip_units::GridDims;

    let workload = WorkloadConfig {
        array_side: side,
        seed,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(side);
    let sep = workload.min_separation.max(1);
    let mix = protocol_mix(dims, sep, particles);
    let farm = Farm::new(FarmConfig {
        workers,
        workload,
        start_paused: true,
        ..FarmConfig::default()
    });
    let total = tenants * jobs_per_tenant;
    println!(
        "farm demo: {workers} workers, {tenants} tenants x {jobs_per_tenant} jobs, \
         {} protocols, {kill} injected kill(s)\n",
        mix.len()
    );
    for index in 0..total {
        let protocol = mix[index % mix.len()].clone();
        let job_seed = seed + index as u64;
        let mut spec =
            JobSpec::tenant(format!("tenant-{}", index / jobs_per_tenant)).with_seed(job_seed);
        if index < kill {
            // Arm the kill at half the job's uninterrupted journal so the
            // demo always exercises the checkpoint-resume path.
            let mut config = workload;
            config.seed = job_seed;
            let (_, journal) = BatchDriver::new(config)
                .runner()
                .run_journaled(&protocol, 0);
            spec = spec.with_fault(FaultPlan::after((journal.len() as u64 / 2).max(1)));
        }
        farm.submit(protocol, spec)
            .map_err(|err| format!("submit failed: {err}"))?;
    }
    let started = std::time::Instant::now();
    farm.start();
    farm.wait_idle();
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    println!("| job | tenant | protocol | status | phases | resumes | latency ms | state hash |");
    println!("|---|---|---|---|---|---|---|---|");
    let records = farm.history(&HistoryFilter::all(), 0);
    for record in records.iter().rev() {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.1} | {} |",
            record.id,
            record.tenant,
            record.protocol.name,
            record.status.label(),
            record.phases_completed,
            record.resumes,
            record.latency_ms(),
            record.state_hash.as_deref().unwrap_or("-")
        );
    }
    let done = records
        .iter()
        .filter(|r| matches!(r.status, labchip_farm::JobStatus::Done))
        .count();
    println!(
        "\n{done}/{total} jobs done in {wall_ms:.0} ms ({:.1} jobs/s)",
        done as f64 / (wall_ms / 1e3)
    );
    if let Some(dir) = out {
        save_farm_history(&farm, &HistoryStore::new(dir))?;
    }
    farm.shutdown();
    Ok(())
}
