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
//! `bench-fields` subcommand times the field-evaluation kernels and the
//! particle-stepping loop and writes `BENCH_fields.json` (one object per
//! kernel with ns/op, plus simulator step throughput per thread count) so
//! successive PRs accumulate a perf trajectory.

use labchip::scenario::{outcomes_to_json, Progress, ProgressEvent, RunOutcome, Runner};
use labchip_bench::{cage_field, populated_simulator};
use labchip_farm::full_registry;
use labchip_physics::field::cache::FieldCache;
use labchip_physics::field::FieldModel;
use labchip_units::Vec3;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

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

/// Median ns/op of `f`, adaptively batched.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Calibrate a batch size costing ≳1 ms.
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed().as_micros() >= 1_000 {
            break;
        }
        batch *= 2;
    }
    let mut samples = Vec::with_capacity(32);
    for _ in 0..32 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn bench_fields(out_path: &str) {
    // Fail fast on an unwritable destination — the measurements below take
    // a minute and would otherwise be thrown away at the final write.
    if let Err(err) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
    {
        eprintln!("cannot write benchmark output `{out_path}`: {err}");
        std::process::exit(1);
    }
    let mut entries: Vec<(String, f64)> = Vec::new();

    for side in [16u32, 320] {
        let field = cage_field(side);
        let probe = Vec3::new(
            field.plane().width() / 2.0,
            field.plane().height() / 2.0,
            30e-6,
        );
        entries.push((
            format!("kernel_field_evaluation/potential/{side}"),
            time_ns(|| {
                black_box(field.potential(black_box(probe)));
            }),
        ));
        entries.push((
            format!("kernel_field_evaluation/e_squared/{side}"),
            time_ns(|| {
                black_box(field.e_squared(black_box(probe)));
            }),
        ));
        entries.push((
            format!("kernel_field_evaluation/grad_e_squared/{side}"),
            time_ns(|| {
                black_box(field.grad_e_squared(black_box(probe)));
            }),
        ));
        entries.push((
            format!("kernel_field_evaluation/grad_e_squared_fd/{side}"),
            time_ns(|| {
                black_box(field.grad_e_squared_fd(black_box(probe)));
            }),
        ));
    }

    {
        let field = cage_field(16);
        let cache = FieldCache::build(&field);
        let probe = Vec3::new(163.1e-6, 157.7e-6, 31e-6);
        entries.push((
            "kernel_field_evaluation/field_cache_grad_lookup".into(),
            time_ns(|| {
                black_box(cache.grad_e_squared(black_box(probe)));
            }),
        ));
    }

    // Simulator step throughput: particle-steps per second, 1000 particles.
    // The `threads/1` vs `threads/all_cores` comparison is meaningless
    // without knowing how many cores "all" resolved to on the machine that
    // ran it (a 1-core runner legitimately reports a 1.0x speedup), so the
    // machine's parallelism is recorded alongside every row and in the
    // document's `meta` block.
    let available_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut throughput: Vec<(String, f64, usize)> = Vec::new();
    for threads in [1usize, 0] {
        let mut sim = populated_simulator(threads, 1000);
        let ns_per_step = time_ns(|| sim.run(1));
        let resolved = if threads == 0 {
            available_parallelism
        } else {
            threads
        };
        let label = if threads == 0 {
            format!("all_cores({resolved})")
        } else {
            threads.to_string()
        };
        throughput.push((
            format!("simulator_step_1000_particles/threads/{label}"),
            ns_per_step,
            resolved,
        ));
        throughput.push((
            format!("particle_steps_per_second/threads/{label}"),
            1000.0 / (ns_per_step * 1e-9),
            resolved,
        ));
    }

    let mut json = format!(
        "{{\n  \"meta\": {{\"available_parallelism\": {available_parallelism}}},\n  \"benchmarks\": [\n"
    );
    for (i, (id, ns)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() || !throughput.is_empty() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "    {{\"id\": \"{id}\", \"ns_per_op\": {ns:.2}}}{sep}\n"
        ));
    }
    for (i, (id, value, threads)) in throughput.iter().enumerate() {
        let sep = if i + 1 < throughput.len() { "," } else { "" };
        let key = if id.starts_with("particle_steps") {
            "value"
        } else {
            "ns_per_op"
        };
        json.push_str(&format!(
            "    {{\"id\": \"{id}\", \"{key}\": {value:.1}, \"threads\": {threads}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark json");

    let speedup = {
        let find = |needle: &str| {
            entries
                .iter()
                .find(|(id, _)| id == needle)
                .map(|(_, ns)| *ns)
        };
        match (
            find("kernel_field_evaluation/grad_e_squared_fd/320"),
            find("kernel_field_evaluation/grad_e_squared/320"),
        ) {
            (Some(fd), Some(analytic)) if analytic > 0.0 => fd / analytic,
            _ => f64::NAN,
        }
    };
    println!(
        "wrote {out_path} ({} entries)",
        entries.len() + throughput.len()
    );
    println!("analytic grad_e_squared speedup over finite differences (side 320): {speedup:.1}x");
}

/// `report bench-workload OUT.json` — the workload-pipeline perf
/// trajectory: incremental-router planning, full driver cycles with and
/// without the event journal attached, and journal replay.
///
/// All cycle variants run the *identical* deterministic cycle sequence
/// (same seeds, same routing problems), so their wall-clock totals are
/// directly comparable; the minimum over repetitions filters scheduler
/// noise out of the overhead figures. CI bounds the journal write overhead
/// (< 2% of a live cycle) and requires replay to be faster than live
/// execution — the property that makes the journal a usable crash-recovery
/// and debugging artifact.
fn bench_workload(out_path: &str) {
    use labchip::workload::{sort_problem, BatchDriver, ForceEnvelope, Protocol, WorkloadConfig};
    use labchip_manipulation::journal::{replay, Journal};
    use labchip_manipulation::sharding::{IncrementalRouter, RouterCache, ShardConfig};
    use labchip_units::GridDims;

    if let Err(err) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out_path)
    {
        eprintln!("cannot write benchmark output `{out_path}`: {err}");
        std::process::exit(1);
    }

    let envelope = ForceEnvelope::date05_reference();
    let mut entries: Vec<(String, f64)> = Vec::new();

    // Incremental-router planning alone (no execution, no sensing).
    for (side, particles) in [(128u32, 500usize), (256, 1000)] {
        let driver = BatchDriver::with_envelope(
            WorkloadConfig {
                array_side: side,
                ..WorkloadConfig::default()
            },
            envelope,
        );
        let mut samples = Vec::with_capacity(8);
        for _ in 0..8 {
            let t0 = Instant::now();
            black_box(driver.plan_only(particles, 2005));
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        entries.push((
            format!("workload/incremental_plan/{side}x{particles}"),
            samples[samples.len() / 2],
        ));
    }

    // Warm-start replanning at full chip scale: one cold solve of the
    // 320²/10k sort (the E10 headline problem) on a pinned single-thread
    // pool, then warm re-solves of the identical problem against the primed
    // plan cache. Warm output is bit-identical to cold by the cache's
    // content-key construction, so the ratio row is a pure speed figure.
    let warm_cold_ratio = {
        let problem = sort_problem(GridDims::square(320), 10_000, 2, 2005);
        let router = IncrementalRouter::new(ShardConfig::default());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("thread pool construction is infallible");
        let mut cache = RouterCache::new();
        let t0 = Instant::now();
        pool.install(|| {
            black_box(
                router
                    .solve_cached(&problem, &mut cache)
                    .expect("generated problems are always well-formed"),
            )
        });
        let cold = t0.elapsed().as_secs_f64();
        let mut samples = Vec::with_capacity(3);
        for _ in 0..3 {
            let t0 = Instant::now();
            pool.install(|| {
                black_box(
                    router
                        .solve_cached(&problem, &mut cache)
                        .expect("generated problems are always well-formed"),
                )
            });
            samples.push(t0.elapsed().as_secs_f64());
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let warm = samples[samples.len() / 2];
        entries.push((
            "workload/incremental_plan_cold/320x10000".into(),
            cold * 1e9,
        ));
        entries.push((
            "workload/incremental_plan_warm/320x10000".into(),
            warm * 1e9,
        ));
        warm / cold
    };

    // The SoA tile-membership build alone: the per-window counting sort
    // over the 320²/10k scatter (margin freezing included), isolated from
    // the A* so the partition-build lever of the cold solve is tracked.
    {
        let problem = sort_problem(GridDims::square(320), 10_000, 2, 2005);
        let positions: Vec<_> = problem
            .requests
            .iter()
            .map(|request| request.start)
            .collect();
        let router = IncrementalRouter::new(ShardConfig::default());
        let mut samples = Vec::with_capacity(16);
        for _ in 0..16 {
            let t0 = Instant::now();
            black_box(router.partition_build_probe(GridDims::square(320), 2, &positions));
            samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        entries.push((
            "workload/partition_build/320x10000".into(),
            samples[samples.len() / 2],
        ));
    }

    // Thread-pinned planning: the same problem under explicit rayon pools,
    // so the trajectory records a measured scaling curve (threads + speedup
    // per row) instead of whatever pool the ambient environment happened to
    // provide.
    let pinned: Vec<(String, f64, usize)> = {
        let driver = BatchDriver::with_envelope(
            WorkloadConfig {
                array_side: 128,
                ..WorkloadConfig::default()
            },
            envelope,
        );
        [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("thread pool construction is infallible");
                let mut samples = Vec::with_capacity(8);
                for _ in 0..8 {
                    let t0 = Instant::now();
                    pool.install(|| black_box(driver.plan_only(500, 2005)));
                    samples.push(t0.elapsed().as_secs_f64() * 1e9);
                }
                samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
                (
                    format!("workload/incremental_plan_pinned/128x500/threads/{threads}"),
                    samples[samples.len() / 2],
                    threads,
                )
            })
            .collect()
    };

    // Full driver cycles: live (no journal) vs journaled, the same
    // deterministic cycle sequence each way, then replay of the recorded
    // journals back into chip states.
    const CYCLES: usize = 4;
    const REPS: usize = 3;
    let cycle_config = WorkloadConfig {
        array_side: 96,
        ..WorkloadConfig::default()
    };
    let dims = GridDims::square(cycle_config.array_side);
    let sep = cycle_config.min_separation.max(1);
    let protocol = Protocol::canned_cycle(dims, sep, 200);
    let time_cycles = |journaled: bool| -> (f64, Vec<Journal>) {
        // Minimum total over repetitions: identical work each repetition,
        // so min is the cleanest noise filter.
        let mut best = f64::INFINITY;
        let mut journals = Vec::new();
        for _ in 0..REPS {
            let driver = BatchDriver::with_envelope(cycle_config, envelope);
            let mut run_journals = Vec::with_capacity(CYCLES);
            let t0 = Instant::now();
            for cycle in 0..CYCLES {
                if journaled {
                    let (outcome, journal) = driver.runner().run_journaled(&protocol, cycle);
                    black_box(outcome);
                    run_journals.push(journal);
                } else {
                    black_box(driver.runner().run(&protocol, cycle));
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            if elapsed < best {
                best = elapsed;
                journals = run_journals;
            }
        }
        (best, journals)
    };
    // Warm both paths once (field caches, allocator) before measuring.
    time_cycles(false);
    let (live_total, _) = time_cycles(false);
    let (journaled_total, journals) = time_cycles(true);
    let replay_total = {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            for journal in &journals {
                black_box(replay(journal, dims, sep).expect("recorded journals replay cleanly"));
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let per_cycle = |total: f64| total / CYCLES as f64 * 1e9;
    entries.push((
        "workload/driver_cycle_live/96x200".into(),
        per_cycle(live_total),
    ));
    entries.push((
        "workload/driver_cycle_journaled/96x200".into(),
        per_cycle(journaled_total),
    ));
    entries.push((
        "workload/cycle_replay/96x200".into(),
        per_cycle(replay_total),
    ));
    let journal_overhead_pct = if live_total > 0.0 {
        100.0 * (journaled_total / live_total - 1.0)
    } else {
        f64::NAN
    };
    let replay_vs_live_pct = if live_total > 0.0 {
        100.0 * (replay_total / live_total - 1.0)
    } else {
        f64::NAN
    };

    // Farm fleet benchmark: the E15 scenario's worker-count sweep, folded
    // into the same trajectory file — jobs/sec and latency percentiles per
    // fleet size, plus the sweep's divergence tripwire.
    let farm_rows: Vec<(String, f64, usize)> = {
        use labchip::scenario::{Scenario, ScenarioContext};
        let scenario = labchip_farm::FarmScenario;
        let config = labchip_farm::scenario::Config::default();
        let results = scenario.run(&config, &mut ScenarioContext::silent("E15"));
        let mut rows = Vec::new();
        for row in &results.fleet {
            rows.push((
                format!("workload/farm/jobs_per_sec/workers/{}", row.workers),
                row.jobs_per_sec,
                row.workers,
            ));
            rows.push((
                format!("workload/farm/latency_p50_ms/workers/{}", row.workers),
                row.latency_p50_ms,
                row.workers,
            ));
            rows.push((
                format!("workload/farm/latency_p99_ms/workers/{}", row.workers),
                row.latency_p99_ms,
                row.workers,
            ));
        }
        rows.push((
            "workload/farm/divergences".into(),
            results.total_divergences as f64,
            0,
        ));
        rows
    };

    // Sharded-fleet benchmark: a reduced E16 sweep (the default 320²/10k
    // sweep belongs to `report run e16`), recording wall clock and handoff
    // traffic per shard grid plus the equivalence tripwire.
    let fleet_rows: Vec<(String, f64, usize)> = {
        use labchip::scenario::{Scenario, ScenarioContext};
        let scenario = labchip_farm::FleetScenario;
        let config = labchip_farm::fleet_scenario::Config {
            array_side: 96,
            particles: 200,
            ..labchip_farm::fleet_scenario::Config::default()
        };
        let results = scenario.run(&config, &mut ScenarioContext::silent("E16"));
        let mut rows = Vec::new();
        for row in &results.grids {
            rows.push((
                format!("workload/fleet/wall_ms/grid/{}", row.grid),
                row.wall_ms,
                row.shards,
            ));
            rows.push((
                format!("workload/fleet/handoffs/grid/{}", row.grid),
                row.handoffs as f64,
                row.shards,
            ));
        }
        rows.push((
            "workload/fleet/divergences".into(),
            results.total_divergences as f64,
            0,
        ));
        rows
    };

    let available_parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut json = format!(
        "{{\n  \"meta\": {{\"available_parallelism\": {available_parallelism}, \"cycles\": {CYCLES}, \"reps\": {REPS}}},\n  \"benchmarks\": [\n"
    );
    for (id, ns) in &entries {
        json.push_str(&format!(
            "    {{\"id\": \"{id}\", \"ns_per_op\": {ns:.2}}},\n"
        ));
    }
    let pinned_baseline = pinned.first().map(|(_, ns, _)| *ns).unwrap_or(f64::NAN);
    for (id, ns, threads) in &pinned {
        let speedup = pinned_baseline / ns;
        json.push_str(&format!(
            "    {{\"id\": \"{id}\", \"ns_per_op\": {ns:.2}, \"threads\": {threads}, \"speedup\": {speedup:.3}}},\n"
        ));
    }
    for (id, value, workers) in farm_rows.iter().chain(&fleet_rows) {
        json.push_str(&format!(
            "    {{\"id\": \"{id}\", \"value\": {value:.3}, \"threads\": {workers}}},\n"
        ));
    }
    json.push_str(&format!(
        "    {{\"id\": \"workload/plan_warm_cold_ratio\", \"value\": {warm_cold_ratio:.4}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"id\": \"workload/journal_overhead_pct\", \"value\": {journal_overhead_pct:.3}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"id\": \"workload/replay_vs_live_pct\", \"value\": {replay_vs_live_pct:.3}}}\n"
    ));
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write benchmark json");

    println!(
        "wrote {out_path} ({} entries)",
        entries.len() + pinned.len() + farm_rows.len() + fleet_rows.len() + 3
    );
    println!("warm/cold replan ratio (320x10000, 1 thread): {warm_cold_ratio:.4}");
    if let Some((_, _, _)) = pinned.last() {
        let curve: Vec<String> = pinned
            .iter()
            .map(|(_, ns, threads)| format!("{threads}t {:.2}x", pinned_baseline / ns))
            .collect();
        println!(
            "pinned incremental-plan scaling (128x500): {}",
            curve.join(", ")
        );
    }
    for (id, value, _) in farm_rows.iter().chain(&fleet_rows) {
        if id.contains("jobs_per_sec") || id.contains("wall_ms") || id.ends_with("divergences") {
            println!("{id}: {value:.2}");
        }
    }
    println!(
        "journal write overhead vs live cycle: {journal_overhead_pct:+.3}% \
         ({:.1} ms journaled vs {:.1} ms live per cycle)",
        per_cycle(journaled_total) / 1e6,
        per_cycle(live_total) / 1e6
    );
    println!(
        "journal replay vs live execution: {replay_vs_live_pct:+.3}% \
         ({:.3} ms replay per cycle)",
        per_cycle(replay_total) / 1e6
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
