//! `farm_mix`: E15-shaped jobs from three tenants through a one-worker
//! [`Farm`], submitted by an open loop on the main thread at a fixed rate.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use labchip::scenario::{Progress, ProgressEvent};
use labchip::workload::{
    BatchDriver, ForceEnvelope, Protocol, ProtocolOutcome, RecoveryPolicy, RunControl,
    WorkloadConfig,
};
use labchip_farm::scenario::protocol_mix;
use labchip_farm::{Farm, FarmConfig, JobId, JobSpec, JobStatus};
use labchip_manipulation::journal::{FaultPlan, Journal};
use labchip_units::GridDims;

use crate::closed::{check, push_end_to_end, single_thread_pool, Quality};
use crate::report::{median, ms_since, timed, Outcome};
use crate::trace::Recorder;

/// Array side of the farm jobs (E15's).
pub const SIDE: u32 = 32;
/// Cells each job loads (E15's).
pub const PARTICLES: usize = 24;
/// Submissions per second: about half the one-worker capacity measured on
/// a 2-core x86 host (see `perfbench/README.md`).
pub const RATE_PER_S: f64 = 50.0;
/// The first `SAMPLE` jobs give the quality metrics and have their final
/// state checked against a direct run.
pub const SAMPLE: usize = 60;
/// Every `KILL_EVERY`-th job (2%) carries an injected kill and takes the
/// checkpoint→resume path.
pub const KILL_EVERY: usize = 50;
/// Farm set-ups per run (each takes about 0.1 s); `setup_s` is their
/// median.
const SETUP_REPS: usize = 15;
const TENANTS: usize = 3;
const QUEUE_DEPTH: usize = 512;

/// The farm workload for one seed.
#[derive(Debug, Clone)]
pub struct FarmSpec {
    pub seed: u64,
    pub workload: WorkloadConfig,
    pub mix: Vec<Protocol>,
}

pub fn spec(seed: u64) -> FarmSpec {
    let workload = WorkloadConfig {
        array_side: SIDE,
        detection_frames: 2,
        noise_scale: 8.0,
        recovery: RecoveryPolicy::date05_reference(),
        seed,
        ..WorkloadConfig::default()
    };
    FarmSpec {
        seed,
        mix: protocol_mix(
            GridDims::square(SIDE),
            workload.min_separation.max(1),
            PARTICLES,
        ),
        workload,
    }
}

/// Job `k` of the fixed job list: tenants take turns, each tenant cycles
/// through the protocol mix, and every job has its own seed.
#[derive(Debug, Clone)]
pub struct JobDef {
    pub tenant: String,
    pub protocol: Protocol,
    pub seed: u64,
}

impl FarmSpec {
    pub fn job(&self, k: usize) -> JobDef {
        JobDef {
            tenant: format!("tenant-{}", k % TENANTS),
            protocol: self.mix[(k / TENANTS) % self.mix.len()].clone(),
            seed: self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(k as u64),
        }
    }

    /// Runs job `k` directly, outside the farm, through the same
    /// journaled and checkpointed path a farm worker takes.
    pub fn direct(
        &self,
        envelope: ForceEnvelope,
        k: usize,
        control: &dyn RunControl,
    ) -> Result<(ProtocolOutcome, Journal), String> {
        let def = self.job(k);
        let config = WorkloadConfig {
            seed: def.seed,
            ..self.workload
        };
        let driver = BatchDriver::with_envelope(config, envelope);
        driver
            .runner()
            .run_controlled(&def.protocol, 0, None, control)
            .map_err(|stopped| format!("farm_mix job {k}: direct run stopped: {:?}", stopped.cause))
    }
}

fn is_kill(k: usize) -> bool {
    k % KILL_EVERY == KILL_EVERY / 2
}

/// The final state a job must reach, from a direct run.
struct Baseline {
    hash: String,
    events: usize,
}

/// Records when each job's `ScenarioFinished` progress event arrives.
#[derive(Default)]
struct FinishTimes(Mutex<BTreeMap<JobId, Instant>>);

impl Progress for FinishTimes {
    fn on_event(&self, event: &ProgressEvent) {
        if let ProgressEvent::ScenarioFinished { scenario, .. } = event {
            if let Some(id) = JobId::parse(scenario) {
                self.0
                    .lock()
                    .expect("finish-time lock poisoned")
                    .insert(id, Instant::now());
            }
        }
    }
}

/// Farm-layer figures of one run, for the traced per-layer metrics.
#[derive(Debug, Default)]
pub struct FarmLayer {
    pub queue_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub unrecorded_ms: Vec<f64>,
    pub queue_depth_max: usize,
    pub resumes: usize,
    pub rejected: usize,
    pub lag_ms_max: f64,
    /// Job latencies from due time to `ScenarioFinished`.
    pub latency_ms: Vec<f64>,
}

/// The end-to-end outcome of a farm run plus its farm-layer figures.
pub struct FarmRun {
    pub outcome: Outcome,
    pub layer: FarmLayer,
}

fn farm_config(spec: &FarmSpec) -> FarmConfig {
    FarmConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        planner_threads: 1,
        workload: spec.workload,
        start_paused: false,
        pause_on_fault: false,
    }
}

/// Runs `farm_mix` for `seconds` of submissions. With a recorder, each
/// job's due-to-finished interval is recorded as a span.
pub fn run(spec: &FarmSpec, seconds: Duration, recorder: Option<&Recorder>) -> FarmRun {
    let mut outcome = Outcome::default();
    let mut layer = FarmLayer::default();
    let total = ((RATE_PER_S * seconds.as_secs_f64()).ceil() as usize).max(SAMPLE);

    // Direct runs, before any timing: the quality sample and every job
    // that will be killed (its kill point is half its journal).
    let envelope = ForceEnvelope::date05_reference();
    let mut quality = Quality::default();
    let mut baselines: BTreeMap<usize, Baseline> = BTreeMap::new();
    single_thread_pool().install(|| {
        for k in (0..total).filter(|&k| k < SAMPLE || is_kill(k)) {
            match spec.direct(envelope, k, &labchip::workload::NeverStop) {
                Ok((job, journal)) => {
                    if k < SAMPLE {
                        quality.add(&spec.job(k).protocol, &job.report);
                    }
                    let label = format!("farm_mix job {k} (direct)");
                    outcome
                        .errors
                        .extend(check(&label, &spec.job(k).protocol, PARTICLES, &job));
                    baselines.insert(
                        k,
                        Baseline {
                            hash: format!("{:#018x}", job.state.state_hash()),
                            events: journal.len(),
                        },
                    );
                }
                Err(error) => outcome.error(error),
            }
        }
    });

    let finish = Arc::new(FinishTimes::default());
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut farm = None;
    for _ in 0..SETUP_REPS {
        drop(farm.take());
        let progress: Arc<dyn Progress> = finish.clone();
        let (built, ms) = timed(|| Farm::with_progress(farm_config(spec), progress));
        setup_s.push(ms / 1e3);
        farm = Some(built);
    }
    let farm = farm.expect("SETUP_REPS is positive");

    // The open loop: job k is due at k / RATE_PER_S; the generator waits
    // until then and submits, however far behind the farm is. It spins
    // rather than sleeps, so a late wake-up does not delay a submission;
    // with the one worker, two threads are busy.
    let mut submitted: Vec<(usize, JobId, Instant)> = Vec::with_capacity(total);
    let start = Instant::now();
    for k in 0..total {
        let due = start + Duration::from_secs_f64(k as f64 / RATE_PER_S);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        layer.lag_ms_max = layer.lag_ms_max.max(ms_since(due));
        let def = spec.job(k);
        let mut job = JobSpec::tenant(def.tenant).with_seed(def.seed);
        if is_kill(k) {
            if let Some(base) = baselines.get(&k) {
                job = job.with_fault(FaultPlan::after((base.events as u64 / 2).max(1)));
            }
        }
        outcome.attempted += 1;
        match farm.submit(def.protocol, job) {
            Ok(id) => submitted.push((k, id, due)),
            Err(error) => {
                layer.rejected += 1;
                outcome.failed += 1;
                outcome.error(format!("farm_mix job {k}: {error}"));
            }
        }
        layer.queue_depth_max = layer.queue_depth_max.max(farm.queued());
    }
    farm.wait_idle();

    let finished = finish.0.lock().expect("finish-time lock poisoned").clone();
    let mut latencies = Vec::with_capacity(submitted.len());
    for (k, id, due) in submitted {
        let record = farm.record(id).expect("submitted jobs have records");
        let mut errors = Vec::new();
        if record.status != JobStatus::Done {
            errors.push(format!(
                "ended {} ({})",
                record.status.label(),
                record.detail
            ));
        }
        if let Some(base) = baselines.get(&k) {
            if record.state_hash.as_deref() != Some(base.hash.as_str())
                || record.journal_events != base.events
            {
                errors.push(format!(
                    "final state {:?} with {} events, direct run {} with {} events",
                    record.state_hash, record.journal_events, base.hash, base.events
                ));
            }
        }
        if is_kill(k) && record.resumes == 0 {
            errors.push("carried a kill but was never resumed".into());
        }
        match finished.get(&id) {
            Some(&done) => {
                let latency = done.saturating_duration_since(due).as_secs_f64() * 1e3;
                latencies.push(latency);
                layer.queue_ms.push(record.queue_ms);
                layer.run_ms.push(record.run_ms);
                layer
                    .unrecorded_ms
                    .push(latency - record.queue_ms - record.run_ms);
                if let Some(recorder) = recorder {
                    recorder.add("farm.job", due, done, None, &format!("farm_mix/{k}"));
                }
            }
            None => errors.push("no ScenarioFinished event".into()),
        }
        layer.resumes += record.resumes;
        if !errors.is_empty() {
            outcome.failed += 1;
            outcome
                .errors
                .extend(errors.into_iter().map(|e| format!("farm_mix job {k}: {e}")));
        }
    }
    drop(farm);

    push_end_to_end(&mut outcome, median(&setup_s), &latencies, &quality);
    layer.latency_ms = latencies;
    FarmRun { outcome, layer }
}
