//! The simulated cluster: executes jobs and accounts their cost.
//!
//! Execution is *real* — every map, combine and reduce function actually
//! runs, in parallel across worker threads when cores allow — while
//! *time* is simulated with the [`CostConfig`] model so scalability
//! experiments are reproducible on any host (see DESIGN.md,
//! substitution 1).
//!
//! Scheduling model (see the crate-private `sched` module and DESIGN.md,
//! "Fault model & recovery"):
//! * one map task per input split, preferring the split's home machine
//!   (data locality); tasks fall back to the earliest-available healthy
//!   machine when their home node is dead or blacklisted;
//! * intermediate keys are hash-partitioned into `reduce_tasks`
//!   partitions; reduce task `p` homes on machine `p % machines`;
//! * tasks on one machine run serially, machines run in parallel, and
//!   the phases (map+combine → shuffle → reduce) are barriers;
//! * under a [`FaultPlan`] the scheduler replays node crashes (killing
//!   in-flight attempts and re-executing lost map outputs), persistent
//!   slowness, flaky attempts, retry budgets with exponential backoff,
//!   node blacklisting and speculative execution — all deterministic in
//!   the job seed, and none of it able to change job *results*, because
//!   task outputs are computed before the schedule is replayed.
//!
//! Without a fault plan the schedule degenerates to the original
//! back-to-back model and the simulated makespan is
//! `job_overhead + max_machine(map work) + max_partition(shuffle) +
//!  max_machine(reduce work)`.

use crate::chaos::FaultPlan;
use crate::cost::{CostConfig, SimTime};
use crate::job::{mix_seed, CombineJob, Emitter, Job, NoCombiner, TaskCtx};
use crate::sched;
use crate::split::InputSplit;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::time::Instant;
use stratmr_telemetry::{Registry, TraceEvent, TracePhase, TraceSink};

/// Record/byte counters and timings of one executed job.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobStats {
    /// Input records consumed by the map phase.
    pub map_input_records: u64,
    /// Intermediate pairs emitted by the map phase.
    pub map_output_records: u64,
    /// `(key, value)` pairs leaving combiners (one per task×key).
    pub combine_output_pairs: u64,
    /// Bytes crossing the simulated network in the shuffle.
    pub shuffle_bytes: u64,
    /// Values consumed by the reduce phase.
    pub reduce_input_values: u64,
    /// Number of distinct keys reduced.
    pub distinct_keys: u64,
    /// Map tasks executed (one per input split).
    pub map_tasks: u64,
    /// Reduce tasks executed (one per partition).
    pub reduce_tasks: u64,
    /// Map-task attempts that failed their roll and were retried.
    pub map_task_retries: u64,
    /// Reduce-task attempts that failed their roll and were retried.
    pub reduce_task_retries: u64,
    /// Map tasks re-executed because a node crash lost their outputs.
    pub map_task_reexecutions: u64,
    /// Speculative backup attempts launched (map + reduce).
    pub speculative_attempts: u64,
    /// Speculative backups that finished before their primary.
    pub speculation_wins: u64,
    /// Nodes that crashed during the job.
    pub nodes_crashed: u64,
    /// Nodes blacklisted for repeated attempt failures.
    pub nodes_blacklisted: u64,
    /// Unscaled µs of work that produced no surviving output: failed
    /// attempts, crash-killed attempts, speculative losers and map
    /// executions whose outputs were later lost.
    pub wasted_us: f64,
    /// Simulated time breakdown.
    pub sim: SimTime,
    /// Real wall-clock execution time in seconds (host-dependent;
    /// reported for reference only).
    pub wall_secs: f64,
}

/// Combiner output pairs of one map task, or one shuffle partition.
type Combined<J> = Vec<(<J as CombineJob>::Key, <J as CombineJob>::CombOut)>;

/// Reduce output pairs, one per key.
type Reduced<J> = Vec<(<J as CombineJob>::Key, <J as CombineJob>::ReduceOut)>;

/// Result of a job: per-key outputs plus execution statistics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, O> {
    /// One `(key, reduce output)` pair per distinct intermediate key,
    /// in deterministic (partition, first-arrival) order.
    pub results: Vec<(K, O)>,
    /// Execution statistics.
    pub stats: JobStats,
}

/// Why a job could not complete. Returned by [`Cluster::try_run`] and
/// [`Cluster::try_run_with_combiner`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A task failed more attempts than the retry budget allows
    /// ([`Cluster::with_retry_budget`]; an internal safety valve bounds
    /// even "unbounded" budgets so certainly-failing tasks terminate).
    RetriesExhausted {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// The task that ran out of attempts.
        task: usize,
        /// Failed attempts consumed.
        attempts: u32,
    },
    /// Every machine is dead or blacklisted — the task cannot be placed.
    NoHealthyMachines {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// The unplaceable task.
        task: usize,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::RetriesExhausted {
                phase,
                task,
                attempts,
            } => write!(
                f,
                "{phase} task {task} exhausted its retry budget after {attempts} failed attempts"
            ),
            JobError::NoHealthyMachines { phase, task } => write!(
                f,
                "{phase} task {task} cannot be placed: every machine is dead or blacklisted"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// A simulated cluster of worker machines.
#[derive(Debug, Clone)]
pub struct Cluster {
    machines: usize,
    reduce_tasks: usize,
    costs: CostConfig,
    /// Per-machine slowness factor (1.0 = nominal); lets experiments
    /// model heterogeneous fleets and stragglers.
    speeds: Vec<f64>,
    /// Probability that any task attempt fails and is retried.
    failure_prob: f64,
    /// Node-level faults replayed by the scheduler.
    fault_plan: Option<FaultPlan>,
    /// Max failed attempts per task before `RetriesExhausted`; `None`
    /// is unbounded (up to an internal safety valve).
    retry_budget: Option<u32>,
    /// Base delay before a retry; doubles with each failure.
    retry_backoff_us: f64,
    /// Blacklist a node after this many failed attempts on it.
    blacklist_after: Option<u32>,
    /// Launch speculative backups for successful attempts on machines
    /// at least this slow (effective slowness factor).
    speculation_threshold: Option<f64>,
    /// Optional metrics sink; clones of the cluster share it.
    telemetry: Option<Registry>,
    /// Optional per-task trace sink; clones of the cluster share it.
    trace: Option<TraceSink>,
    /// Name recorded on traced jobs (e.g. `sqe`, `cps/residual#0`).
    job_name: Option<String>,
}

impl Cluster {
    /// A cluster of `machines` identical workers with default costs and
    /// one reduce task per machine.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "cluster needs at least one machine");
        Self {
            machines,
            reduce_tasks: machines,
            costs: CostConfig::default(),
            speeds: vec![1.0; machines],
            failure_prob: 0.0,
            fault_plan: None,
            retry_budget: None,
            retry_backoff_us: 0.0,
            blacklist_after: None,
            speculation_threshold: None,
            telemetry: None,
            trace: None,
            job_name: None,
        }
    }

    /// Override the cost model.
    pub fn with_costs(mut self, costs: CostConfig) -> Self {
        self.costs = costs;
        self
    }

    /// Override the number of reduce tasks.
    pub fn with_reduce_tasks(mut self, reduce_tasks: usize) -> Self {
        assert!(reduce_tasks > 0, "need at least one reduce task");
        self.reduce_tasks = reduce_tasks;
        self
    }

    /// Set per-machine slowness factors: a task on machine `m` takes
    /// `factors[m]` times its nominal simulated time. Factors must be
    /// positive; `1.0` is nominal, `2.0` is half speed.
    ///
    /// # Panics
    /// Panics if the length differs from the machine count or a factor
    /// is not positive.
    pub fn with_machine_slowness(mut self, factors: Vec<f64>) -> Self {
        assert_eq!(factors.len(), self.machines, "one factor per machine");
        assert!(factors.iter().all(|&f| f > 0.0), "factors must be positive");
        self.speeds = factors;
        self
    }

    /// Inject task failures: each task *attempt* fails independently
    /// with probability `prob` and is retried, exactly as Hadoop re-runs
    /// failed tasks. Failures are deterministic in the job seed, and a
    /// retry re-executes the task with the same task seed, so job
    /// *results* are identical with and without failures — only the
    /// simulated time, the schedule and the retry counters change.
    ///
    /// `prob = 1.0` makes every attempt fail; the job then terminates
    /// with [`JobError::RetriesExhausted`] once the retry budget (or the
    /// internal safety valve) is consumed.
    ///
    /// # Panics
    /// Panics unless `0.0 ≤ prob ≤ 1.0`.
    pub fn with_failures(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        self.failure_prob = prob;
        self
    }

    /// Replay a node-level [`FaultPlan`] (crashes, slowness, flakiness)
    /// during every job run on this cluster. Faults change the schedule,
    /// the simulated times and the counters — never the results.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Cap the failed attempts any single task may consume; the job
    /// fails with [`JobError::RetriesExhausted`] when a task exceeds it.
    /// Crash-killed and speculative attempts do not consume budget.
    ///
    /// # Panics
    /// Panics if `max_failures` is zero.
    pub fn with_retry_budget(mut self, max_failures: u32) -> Self {
        assert!(max_failures > 0, "retry budget must allow one attempt");
        self.retry_budget = Some(max_failures);
        self
    }

    /// Delay retries with exponential backoff: the `k`-th retry of a
    /// task waits `base_us × 2^(k-1)` simulated µs before restarting.
    ///
    /// # Panics
    /// Panics if `base_us` is negative.
    pub fn with_retry_backoff(mut self, base_us: f64) -> Self {
        assert!(base_us >= 0.0, "backoff must be non-negative");
        self.retry_backoff_us = base_us;
        self
    }

    /// Blacklist a node once `failures` attempts have failed on it; its
    /// pending and future tasks move to healthy machines (Hadoop's
    /// per-job tasktracker blacklist).
    ///
    /// # Panics
    /// Panics if `failures` is zero.
    pub fn with_blacklist_after(mut self, failures: u32) -> Self {
        assert!(failures > 0, "blacklist threshold must be positive");
        self.blacklist_after = Some(failures);
        self
    }

    /// Enable speculative execution: a successful attempt on a machine
    /// whose effective slowness factor is at least `threshold` races a
    /// backup attempt on the earliest-available other machine; the first
    /// finisher wins and the loser is killed.
    ///
    /// # Panics
    /// Panics unless `threshold ≥ 1.0`.
    pub fn with_speculation(mut self, threshold: f64) -> Self {
        assert!(threshold >= 1.0, "speculation threshold must be ≥ 1");
        self.speculation_threshold = Some(threshold);
        self
    }

    /// Attach a telemetry registry. Every job run on this cluster then
    /// records per-phase spans (`mr.job/{map,combine,shuffle,reduce}`)
    /// and, once it has finished, publishes its [`JobStats`] as `mr.*`
    /// counters and `mr.sim.*` histograms. A job that fails adds only
    /// `mr.jobs`, `mr.jobs.failed` and `mr.<phase>.retries_exhausted`.
    /// Counters are cumulative across jobs.
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Registry> {
        self.telemetry.as_ref()
    }

    /// Attach a per-task trace sink. Every job run on this cluster then
    /// records a [`stratmr_telemetry::JobTrace`]: one [`TraceEvent`]
    /// per map/combine/shuffle-transfer/reduce attempt (including
    /// failed, crash-killed and speculative attempts) with simulated
    /// start times from the scheduler's replay, so the trace *is* the
    /// schedule. Events are assembled on the driver thread and
    /// batch-appended once per job — the parallel sections never touch
    /// the sink.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Set the job name recorded on traces from this cluster.
    pub fn with_job_name(mut self, name: impl Into<String>) -> Self {
        self.job_name = Some(name.into());
        self
    }

    /// A handle to the same cluster (shared sinks) running jobs under
    /// `name`, overriding any previously set name. Used by drivers that
    /// run several logical jobs on one cluster (e.g. CPS phases).
    pub fn named(&self, name: &str) -> Self {
        self.clone().with_job_name(name)
    }

    /// Like [`Cluster::named`], but keeps an already-set name, so an
    /// outer driver's more specific name wins over a library default.
    pub fn named_or(&self, default: &str) -> Self {
        if self.job_name.is_some() {
            self.clone()
        } else {
            self.named(default)
        }
    }

    /// Number of worker machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The active cost model.
    pub fn costs(&self) -> &CostConfig {
        &self.costs
    }

    /// Run a combiner-less job, surfacing scheduling failures as
    /// [`JobError`].
    pub fn try_run<J: Job>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
    ) -> Result<JobOutput<J::Key, J::ReduceOut>, JobError>
    where
        J::MapOut: Send + Sync,
        J::ReduceOut: Send,
    {
        self.try_run_with_combiner(&NoCombiner(job), splits, seed)
    }

    /// Run a job with a combiner, surfacing scheduling failures as
    /// [`JobError`]. The job's [`JobStats`], trace events and `mr.*`
    /// counters are all read from one record of the finished job.
    pub fn try_run_with_combiner<J: CombineJob>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
    ) -> Result<JobOutput<J::Key, J::ReduceOut>, JobError>
    where
        J::CombOut: Send + Sync,
        J::ReduceOut: Send,
    {
        let start = Instant::now();
        let tel = self.telemetry.as_ref();
        let job_span = tel.map(|t| t.span("mr.job"));
        if let Some(t) = tel {
            t.counter("mr.jobs").inc();
        }
        let (results, record) = self
            .execute(job, splits, seed, job_span.as_ref().map(|s| s.path()))
            .map_err(|e| self.job_failed(e))?;
        let mut stats = record.stats(&self.costs);
        stats.wall_secs = start.elapsed().as_secs_f64();
        if let Some(sink) = &self.trace {
            sink.record_job(
                self.job_name.as_deref().unwrap_or("job"),
                self.costs.job_overhead_us,
                stats.sim.makespan_us,
                self.machines as u64,
                record.trace_events(job.has_combiner(), &self.costs),
            );
        }
        if let Some(t) = tel {
            publish(t, &stats);
        }
        Ok(JobOutput { results, stats })
    }

    /// Run the phases of one job and replay them on the simulated
    /// machines. Outputs are computed before the schedule is replayed, so
    /// faults can only move time around.
    fn execute<J: CombineJob>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
        job_path: Option<&str>,
    ) -> Result<(Reduced<J>, JobRecord), JobError>
    where
        J::CombOut: Send + Sync,
        J::ReduceOut: Send,
    {
        let costs = &self.costs;
        let (map, outputs) = self.map_phase(job, splits, seed, job_path);

        // ---- replay the map schedule ---------------------------------
        let knobs = sched::Knobs {
            base_fail_prob: self.failure_prob,
            task_overhead_us: costs.task_overhead_us,
            retry_budget: self.retry_budget,
            retry_backoff_us: self.retry_backoff_us,
            blacklist_after: self.blacklist_after,
            speculation_threshold: self.speculation_threshold,
        };
        // the simulated job starts once its fixed overhead has passed
        let t0 = costs.job_overhead_us;
        let mut machines = sched::MachineState::build(&self.speeds, self.fault_plan.as_ref(), t0);
        let map_sched = map.iter().map(|t| t.sched).collect();
        let mut map_run = sched::PhaseRun::new(knobs, map_sched, "map", 0, seed, t0, true);
        map_run.drain(&mut machines)?;

        let (partitions, partition_bytes) = self.shuffle(job, outputs);
        let partition_records = partitions.iter().map(|p| p.len() as u64).collect();
        let shuffle_makespan = partition_bytes
            .iter()
            .map(|&b| b as f64 * costs.network_us_per_byte)
            .fold(0.0f64, f64::max);
        // the map phase is a barrier: every shuffle transfer starts once
        // the last map task has finished. Nodes crashing before their
        // outputs cross the network lose them — re-execute the affected
        // map tasks until the barrier is stable.
        while map_run.reexecute_lost(map_run.barrier() + shuffle_makespan, &mut machines)? {}

        let (reduce, results) = self.reduce_phase(job, partitions, seed);

        // ---- replay the reduce schedule -------------------------------
        // the shuffle is a barrier too: reduce tasks start once the
        // largest partition has finished transferring. Reduce outputs are
        // durable (HDFS-style), so a later crash never re-runs them.
        let reduce_start = map_run.barrier() + shuffle_makespan;
        let reduce_sched = reduce.iter().map(|t| t.sched).collect();
        let mut reduce_run =
            sched::PhaseRun::new(knobs, reduce_sched, "reduce", 1, seed, reduce_start, false);
        reduce_run.drain(&mut machines)?;

        let record = JobRecord {
            map,
            reduce,
            map_run,
            reduce_run,
            partition_bytes,
            partition_records,
            machines,
        };
        Ok((results, record))
    }

    /// Map and fold every split, one parallel task per split, and report
    /// the summed `finish` time as the job's `combine` span.
    fn map_phase<J: CombineJob>(
        &self,
        job: &J,
        splits: &[InputSplit<J::Input>],
        seed: u64,
        job_path: Option<&str>,
    ) -> (Vec<MapTask>, Vec<Combined<J>>)
    where
        J::CombOut: Send + Sync,
    {
        let span = self.telemetry.as_ref().map(|t| t.span("map"));
        let tasks: Vec<(MapTask, Combined<J>)> = splits
            .par_iter()
            .map(|split| map_task(job, split, seed, &self.costs))
            .collect();
        drop(span);
        let (map, outputs): (Vec<MapTask>, Vec<_>) = tasks.into_iter().unzip();
        // the only combine-only work left is `finish`; report its summed
        // per-task wall time as a sibling of the job's map span
        if let (Some(t), Some(path)) = (&self.telemetry, job_path) {
            if job.has_combiner() {
                let finish_wall_us = map.iter().fold(0.0, |sum, t| sum + t.finish_wall_us);
                t.observe_span(&format!("{path}/combine"), finish_wall_us * 1e-6);
            }
        }
        (map, outputs)
    }

    /// Hash-partition the combiner outputs of every map task, in task
    /// order. Returns the partitions and their simulated wire bytes.
    fn shuffle<J: CombineJob>(
        &self,
        job: &J,
        outputs: Vec<Combined<J>>,
    ) -> (Vec<Combined<J>>, Vec<u64>) {
        let _span = self.telemetry.as_ref().map(|t| t.span("shuffle"));
        let mut partitions: Vec<Combined<J>> = (0..self.reduce_tasks).map(|_| Vec::new()).collect();
        let mut bytes = vec![0u64; self.reduce_tasks];
        for (k, c) in outputs.into_iter().flatten() {
            let p = partition_of(&k, self.reduce_tasks);
            bytes[p] += job.comb_bytes(&k, &c);
            partitions[p].push((k, c));
        }
        (partitions, bytes)
    }

    /// Reduce every partition, one parallel task per partition. Keys are
    /// grouped in arrival order, and the `gi`-th key of partition `p`
    /// gets `mix(partition seed, gi)`. Results come back in
    /// (partition, first-arrival) order.
    fn reduce_phase<J: CombineJob>(
        &self,
        job: &J,
        partitions: Vec<Combined<J>>,
        seed: u64,
    ) -> (Vec<ReduceTask>, Reduced<J>)
    where
        J::CombOut: Send + Sync,
        J::ReduceOut: Send,
    {
        let _span = self.telemetry.as_ref().map(|t| t.span("reduce"));
        let costs = &self.costs;
        let tasks: Vec<(ReduceTask, Reduced<J>)> = partitions
            .into_par_iter()
            .enumerate()
            .map(|(p, pairs)| {
                let machine = p % self.machines;
                let clock = Instant::now();
                let in_values = pairs.len() as u64;
                let mut groups = FirstSight::new();
                for (k, c) in pairs {
                    groups.entry(k, |_, _| Vec::new()).push(c);
                }
                let base_seed = mix_seed(seed, 0x5ED0_C000_0000_0000 | p as u64);
                let results: Reduced<J> = groups
                    .groups
                    .into_iter()
                    .enumerate()
                    .map(|(gi, (k, cs))| {
                        let ctx = TaskCtx {
                            job_seed: seed,
                            task_id: p,
                            machine,
                            seed: mix_seed(base_seed, gi as u64),
                        };
                        let o = job.reduce(&ctx, &k, cs);
                        (k, o)
                    })
                    .collect();
                let body_us = costs.task_overhead_us
                    + in_values as f64 * costs.reduce_cpu_us_per_record
                    + clock.elapsed().as_secs_f64() * 1e6 * costs.cpu_slowdown;
                let task = ReduceTask {
                    sched: sched::SchedTask {
                        body_us,
                        tail_us: 0.0,
                        home: machine,
                    },
                    keys: results.len() as u64,
                };
                (task, results)
            })
            .collect();
        let (reduce, results): (Vec<ReduceTask>, Vec<_>) = tasks.into_iter().unzip();
        (reduce, results.into_iter().flatten().collect())
    }

    /// Count a scheduling failure on the telemetry registry and pass the
    /// error through.
    fn job_failed(&self, e: JobError) -> JobError {
        if let Some(t) = &self.telemetry {
            t.counter("mr.jobs.failed").inc();
            if let JobError::RetriesExhausted { phase, .. } = &e {
                t.counter(&format!("mr.{phase}.retries_exhausted")).inc();
            }
        }
        e
    }
}

/// One map task: map every record of `split` and fold each emitted pair
/// into its key's accumulator. Keys are numbered by first sight, which
/// fixes each combiner's seed (and thus whole runs).
fn map_task<J: CombineJob>(
    job: &J,
    split: &InputSplit<J::Input>,
    seed: u64,
    costs: &CostConfig,
) -> (MapTask, Combined<J>) {
    let task_seed = mix_seed(seed, split.id as u64);
    let ctx = TaskCtx {
        job_seed: seed,
        task_id: split.id,
        machine: split.home_machine,
        seed: task_seed,
    };
    let mut emitter = Emitter::new();
    let mut groups = FirstSight::new();
    let mut scan_bytes = 0u64;
    let mut out_records = 0u64;
    let clock = Instant::now();
    for record in &split.records {
        scan_bytes += job.input_bytes(record);
        job.map(&ctx, record, &mut emitter);
        out_records += emitter.len() as u64;
        for (k, v) in emitter.drain() {
            let acc = groups.entry(k, |g, k| {
                let seed = mix_seed(task_seed, g as u64 + 1);
                job.init(&TaskCtx { seed, ..ctx }, k)
            });
            job.observe(acc, v);
        }
    }
    let fold_us = clock.elapsed().as_secs_f64() * 1e6;
    let combined: Combined<J> = groups
        .groups
        .into_iter()
        .map(|(k, acc)| {
            let c = job.finish(&k, acc);
            (k, c)
        })
        .collect();
    let real_us = clock.elapsed().as_secs_f64() * 1e6;
    let in_records = split.records.len() as u64;

    // map and combine work are interleaved, so all measured CPU time is
    // charged to map; the combiner's simulated cost is the per-pair
    // model term alone
    let sched = sched::SchedTask {
        body_us: costs.task_overhead_us
            + scan_bytes as f64 * costs.scan_us_per_byte
            + in_records as f64 * costs.map_cpu_us_per_record
            + real_us * costs.cpu_slowdown,
        tail_us: if job.has_combiner() {
            out_records as f64 * costs.combine_cpu_us_per_record
        } else {
            0.0
        },
        home: split.home_machine,
    };
    let task = MapTask {
        sched,
        in_records,
        out_records,
        scan_bytes,
        finish_wall_us: real_us - fold_us,
    };
    (task, combined)
}

/// What one map task did: its simulated map (body) and combine (tail)
/// work on its home machine, and its record counts.
struct MapTask {
    sched: sched::SchedTask,
    in_records: u64,
    out_records: u64,
    scan_bytes: u64,
    /// Measured wall µs of the accumulators' `finish` calls.
    finish_wall_us: f64,
}

/// What one reduce task (one partition) did: its simulated work and the
/// distinct keys it reduced.
struct ReduceTask {
    sched: sched::SchedTask,
    keys: u64,
}

/// The one record of a finished job: the task facts, the scheduled
/// attempts of both phases, the shuffle's partition sizes and the
/// machines' final state.
struct JobRecord {
    map: Vec<MapTask>,
    reduce: Vec<ReduceTask>,
    map_run: sched::PhaseRun,
    reduce_run: sched::PhaseRun,
    partition_bytes: Vec<u64>,
    /// Combiner pairs per partition: what its reduce task consumes.
    partition_records: Vec<u64>,
    machines: Vec<sched::MachineState>,
}

impl JobRecord {
    /// The job's statistics, with `wall_secs` left at zero.
    fn stats(&self, costs: &CostConfig) -> JobStats {
        let (map_run, reduce_run) = (&self.map_run, &self.reduce_run);
        let mut s = JobStats {
            map_tasks: self.map.len() as u64,
            reduce_tasks: self.reduce.len() as u64,
            map_task_retries: map_run.retries,
            reduce_task_retries: reduce_run.retries,
            map_task_reexecutions: map_run.reexecutions,
            speculative_attempts: map_run.spec_attempts + reduce_run.spec_attempts,
            speculation_wins: map_run.spec_wins + reduce_run.spec_wins,
            combine_output_pairs: self.partition_records.iter().sum(),
            shuffle_bytes: self.partition_bytes.iter().sum(),
            reduce_input_values: self.partition_records.iter().sum(),
            distinct_keys: self.reduce.iter().map(|t| t.keys).sum(),
            ..JobStats::default()
        };
        for t in &self.map {
            s.map_input_records += t.in_records;
            s.map_output_records += t.out_records;
        }
        // a successful attempt is charged its task's work, any other the
        // work it consumed; a success whose outputs a crash later lost
        // (not its task's last success) is wasted
        let mut last_success = vec![usize::MAX; self.map.len()];
        for (i, a) in map_run.attempts.iter().enumerate() {
            if a.outcome == sched::Outcome::Success {
                last_success[a.task] = i;
            }
        }
        for (i, a) in map_run.attempts.iter().enumerate() {
            let t = &self.map[a.task].sched;
            if a.outcome == sched::Outcome::Success {
                s.sim.map_us += t.body_us;
                s.sim.combine_us += t.tail_us;
                if last_success[a.task] != i {
                    s.wasted_us += t.body_us + t.tail_us;
                }
            } else {
                s.sim.map_us += a.nominal_us;
                s.wasted_us += a.nominal_us;
            }
        }
        for a in &reduce_run.attempts {
            if a.outcome == sched::Outcome::Success {
                s.sim.reduce_us += self.reduce[a.task].sched.body_us;
            } else {
                s.sim.reduce_us += a.nominal_us;
                s.wasted_us += a.nominal_us;
            }
        }
        s.sim.shuffle_us = s.shuffle_bytes as f64 * costs.network_us_per_byte;
        s.sim.makespan_us = reduce_run.barrier();
        s.nodes_crashed = self
            .machines
            .iter()
            .filter(|m| m.dead || m.crash_at < s.sim.makespan_us)
            .count() as u64;
        s.nodes_blacklisted = self.machines.iter().filter(|m| m.blacklisted).count() as u64;
        s
    }

    /// The job's trace: one event per scheduled attempt (a successful
    /// map attempt of a combining job splits into its map body and
    /// combine tail) and one shuffle transfer per partition, sorted by
    /// (phase, machine, task, attempt), which is unique per event.
    fn trace_events(&self, has_combiner: bool, costs: &CostConfig) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for a in &self.map_run.attempts {
            if a.outcome != sched::Outcome::Success {
                events.push(event(TracePhase::Map, a));
                continue;
            }
            let t = &self.map[a.task];
            let body_us = t.sched.body_us * self.machines[a.machine].speed;
            events.push(TraceEvent {
                dur_us: body_us,
                records: t.in_records,
                bytes: t.scan_bytes,
                ..event(TracePhase::Map, a)
            });
            if has_combiner {
                events.push(TraceEvent {
                    start_us: a.start_us + body_us,
                    // subtract so the combine ends exactly where the
                    // scheduled attempt does
                    dur_us: a.dur_us - body_us,
                    records: t.out_records,
                    ..event(TracePhase::Combine, a)
                });
            }
        }
        for (p, &bytes) in self.partition_bytes.iter().enumerate() {
            events.push(TraceEvent {
                phase: TracePhase::Shuffle,
                task: p as u64,
                machine: (p % self.machines.len()) as u64,
                partition: Some(p as u64),
                attempt: 0,
                failed: false,
                speculative: false,
                start_us: self.map_run.barrier(),
                dur_us: bytes as f64 * costs.network_us_per_byte,
                records: self.partition_records[p],
                bytes,
            });
        }
        for a in &self.reduce_run.attempts {
            let ok = a.outcome == sched::Outcome::Success;
            events.push(TraceEvent {
                partition: Some(a.task as u64),
                records: if ok {
                    self.partition_records[a.task]
                } else {
                    0
                },
                bytes: if ok { self.partition_bytes[a.task] } else { 0 },
                ..event(TracePhase::Reduce, a)
            });
        }
        events.sort_unstable_by_key(|e| (e.phase, e.machine, e.task, e.attempt));
        events
    }
}

/// The trace event of one scheduled attempt, with no records or bytes.
fn event(phase: TracePhase, a: &sched::Attempt) -> TraceEvent {
    TraceEvent {
        phase,
        task: a.task as u64,
        machine: a.machine as u64,
        partition: None,
        attempt: a.attempt,
        failed: a.outcome != sched::Outcome::Success,
        speculative: a.speculative,
        start_us: a.start_us,
        dur_us: a.dur_us,
        records: 0,
        bytes: 0,
    }
}

/// Add one finished job's stats to the telemetry: the base `mr.*`
/// counters (registered even at zero; `mr.jobs` is counted when the job
/// starts, so failed jobs count too), the `mr.sim.*` histograms in
/// integer µs, and the recovery counters, which exist only once recovery
/// happened so fault-free snapshots keep their legacy shape.
fn publish(t: &Registry, s: &JobStats) {
    for (name, v, always) in [
        ("mr.map.tasks", s.map_tasks, true),
        ("mr.map.input_records", s.map_input_records, true),
        ("mr.map.output_records", s.map_output_records, true),
        ("mr.combine.output_pairs", s.combine_output_pairs, true),
        ("mr.shuffle.bytes", s.shuffle_bytes, true),
        ("mr.map.task_retries", s.map_task_retries, true),
        ("mr.reduce.tasks", s.reduce_tasks, true),
        ("mr.reduce.input_values", s.reduce_input_values, true),
        ("mr.distinct_keys", s.distinct_keys, true),
        ("mr.reduce.task_retries", s.reduce_task_retries, true),
        ("mr.map.task_reexecutions", s.map_task_reexecutions, false),
        ("mr.spec.attempts", s.speculative_attempts, false),
        ("mr.spec.wins", s.speculation_wins, false),
        ("mr.nodes.crashed", s.nodes_crashed, false),
        ("mr.nodes.blacklisted", s.nodes_blacklisted, false),
    ] {
        if always || v > 0 {
            t.counter(name).add(v);
        }
    }
    for (name, us) in [
        ("mr.sim.map_us", s.sim.map_us),
        ("mr.sim.combine_us", s.sim.combine_us),
        ("mr.sim.shuffle_us", s.sim.shuffle_us),
        ("mr.sim.reduce_us", s.sim.reduce_us),
        ("mr.sim.makespan_us", s.sim.makespan_us),
    ] {
        t.record(name, us.round() as u64);
    }
}

/// Deterministic hash partitioner (SipHash with the fixed default keys —
/// stable across runs and threads).
fn partition_of<K: Hash>(key: &K, parts: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % parts as u64) as usize
}

/// Values grouped by key in first-sight order, for the map task's fold
/// and the reduce task's grouping. The index is only ever looked up,
/// never iterated, so the group order (and every seed derived from a
/// group's position) does not depend on the hasher.
struct FirstSight<K, V> {
    index: HashMap<K, usize, BuildHasherDefault<FxHasher>>,
    groups: Vec<(K, V)>,
}

impl<K: Clone + Eq + Hash, V> FirstSight<K, V> {
    fn new() -> Self {
        Self {
            index: HashMap::default(),
            groups: Vec::new(),
        }
    }

    /// The value of `key`'s group; a new key becomes group
    /// `g = groups.len()` with value `init(g, &key)`.
    #[inline]
    fn entry(&mut self, key: K, init: impl FnOnce(usize, &K) -> V) -> &mut V {
        let g = match self.index.get(&key) {
            Some(&g) => g,
            None => {
                let g = self.groups.len();
                let value = init(g, &key);
                self.index.insert(key.clone(), g);
                self.groups.push((key, value));
                g
            }
        };
        &mut self.groups[g].1
    }
}

/// A small multiply-rotate hasher (the Fx hash of rustc) for
/// [`FirstSight`]'s index, where the hash affects speed and nothing else.
#[derive(Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::make_splits;

    /// Classic word count, no combiner.
    struct WordCount;

    impl Job for WordCount {
        type Input = String;
        type Key = String;
        type MapOut = u64;
        type ReduceOut = u64;

        fn map(&self, _ctx: &TaskCtx, record: &String, out: &mut Emitter<String, u64>) {
            for w in record.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }

        fn reduce(&self, _ctx: &TaskCtx, _key: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn pair_bytes(&self, key: &String, _v: &u64) -> u64 {
            key.len() as u64 + 8
        }
    }

    /// Word count with a summing combiner.
    struct WordCountCombined;

    impl CombineJob for WordCountCombined {
        type Input = String;
        type Key = String;
        type MapOut = u64;
        type Acc = u64;
        type CombOut = u64;
        type ReduceOut = u64;

        fn map(&self, _ctx: &TaskCtx, record: &String, out: &mut Emitter<String, u64>) {
            for w in record.split_whitespace() {
                out.emit(w.to_string(), 1);
            }
        }

        fn init(&self, _ctx: &TaskCtx, _key: &String) -> u64 {
            0
        }

        fn observe(&self, acc: &mut u64, v: u64) {
            *acc += v;
        }

        fn finish(&self, _key: &String, acc: u64) -> u64 {
            acc
        }

        fn reduce(&self, _ctx: &TaskCtx, _key: &String, values: Vec<u64>) -> u64 {
            values.into_iter().sum()
        }

        fn comb_bytes(&self, key: &String, _v: &u64) -> u64 {
            key.len() as u64 + 8
        }
    }

    fn corpus() -> Vec<String> {
        vec![
            "a b a".to_string(),
            "b c".to_string(),
            "a c c c".to_string(),
            "d".to_string(),
        ]
    }

    fn counts_of(results: &[(String, u64)]) -> HashMap<String, u64> {
        results.iter().cloned().collect()
    }

    #[test]
    fn word_count_without_combiner() {
        let cluster = Cluster::new(3).with_costs(CostConfig::zero_overhead());
        let splits = make_splits(corpus(), 4, 3);
        let out = cluster.try_run(&WordCount, &splits, 1).unwrap();
        let counts = counts_of(&out.results);
        assert_eq!(counts["a"], 3);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 4);
        assert_eq!(counts["d"], 1);
        assert_eq!(out.stats.map_input_records, 4);
        assert_eq!(out.stats.map_output_records, 10);
        assert_eq!(out.stats.distinct_keys, 4);
    }

    #[test]
    fn combiner_gives_same_answer_with_less_shuffle() {
        let costs = CostConfig::zero_overhead();
        let cluster = Cluster::new(2).with_costs(costs);
        let splits = make_splits(corpus(), 2, 2);
        let plain = cluster.try_run(&WordCount, &splits, 7).unwrap();
        let combined = cluster
            .try_run_with_combiner(&WordCountCombined, &splits, 7)
            .unwrap();
        assert_eq!(counts_of(&plain.results), counts_of(&combined.results));
        assert!(
            combined.stats.shuffle_bytes < plain.stats.shuffle_bytes,
            "combiner should reduce shuffle: {} vs {}",
            combined.stats.shuffle_bytes,
            plain.stats.shuffle_bytes
        );
        // each (task, key) yields exactly one combiner output
        assert!(combined.stats.combine_output_pairs <= plain.stats.map_output_records);
        // combiner CPU charged only when a combiner exists
        assert_eq!(plain.stats.sim.combine_us, 0.0);
        assert!(combined.stats.sim.combine_us > 0.0);
    }

    #[test]
    fn results_are_deterministic_given_seed() {
        let cluster = Cluster::new(4);
        let splits = make_splits(corpus(), 3, 4);
        let a = cluster.try_run(&WordCount, &splits, 99).unwrap();
        let b = cluster.try_run(&WordCount, &splits, 99).unwrap();
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn makespan_shrinks_with_more_machines() {
        // a scan-heavy job: 64 splits of large records
        struct Scan;
        impl Job for Scan {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit((*r % 4) as u8, *r);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.into_iter().sum()
            }
            fn input_bytes(&self, _r: &u64) -> u64 {
                100_000
            }
            fn pair_bytes(&self, _k: &u8, _v: &u64) -> u64 {
                16
            }
        }
        let records: Vec<u64> = (0..4096).collect();
        let mut prev = f64::INFINITY;
        for machines in [1usize, 5, 10] {
            let cluster = Cluster::new(machines);
            let splits = make_splits(records.clone(), 64, machines);
            let out = cluster.try_run(&Scan, &splits, 0).unwrap();
            let mk = out.stats.sim.makespan_us;
            assert!(
                mk < prev,
                "makespan should shrink with machines: {mk} !< {prev}"
            );
            prev = mk;
        }
    }

    #[test]
    fn scan_dominated_makespan_scales_nearly_linearly() {
        struct Scan;
        impl Job for Scan {
            type Input = u64;
            type Key = u8;
            type MapOut = u64;
            type ReduceOut = u64;
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
                out.emit(0, *r);
            }
            fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
                v.len() as u64
            }
            fn input_bytes(&self, _r: &u64) -> u64 {
                1_000_000
            }
        }
        let records: Vec<u64> = (0..1000).collect();
        let zero = CostConfig {
            task_overhead_us: 0.0,
            job_overhead_us: 0.0,
            network_us_per_byte: 0.0,
            reduce_cpu_us_per_record: 0.0,
            ..CostConfig::default()
        };
        let run = |machines: usize| {
            let cluster = Cluster::new(machines).with_costs(zero);
            let splits = make_splits(records.clone(), machines * 4, machines);
            let out = cluster.try_run(&Scan, &splits, 0).unwrap();
            out.stats.sim.makespan_us
        };
        let m1 = run(1);
        let m10 = run(10);
        let speedup = m1 / m10;
        assert!(
            (8.0..=10.5).contains(&speedup),
            "expected near-linear speedup, got {speedup}"
        );
    }

    #[test]
    fn reduce_partition_placement_is_stable() {
        // keys must land in the same partition regardless of machine count
        // changes? No — partition count changes partitioning. But two runs
        // with identical config must agree bit-for-bit.
        let cluster = Cluster::new(2).with_reduce_tasks(5);
        let splits = make_splits(corpus(), 2, 2);
        let a = cluster.try_run(&WordCount, &splits, 3).unwrap();
        let b = cluster.try_run(&WordCount, &splits, 3).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.stats.shuffle_bytes, b.stats.shuffle_bytes);
    }

    /// A scan-heavy job shared by the fault-model tests below.
    struct Scan;
    impl Job for Scan {
        type Input = u64;
        type Key = u8;
        type MapOut = u64;
        type ReduceOut = u64;
        fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u8, u64>) {
            out.emit(0, *r);
        }
        fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<u64>) -> u64 {
            v.len() as u64
        }
        fn input_bytes(&self, _r: &u64) -> u64 {
            500_000
        }
    }

    #[test]
    fn straggler_dominates_makespan() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let makespan = |c: Cluster| c.try_run(&Scan, &splits, 0).unwrap().stats.sim.makespan_us;
        let uniform = makespan(Cluster::new(4));
        let straggling = makespan(Cluster::new(4).with_machine_slowness(vec![1.0, 1.0, 1.0, 3.0]));
        // one machine at 1/3 speed holds the whole job back (fixed job
        // overhead dampens the ratio below the full 3×)
        assert!(
            straggling > uniform * 1.5,
            "straggler ignored: {straggling} vs {uniform}"
        );
    }

    #[test]
    fn failures_change_time_but_not_results() {
        let splits = make_splits(corpus(), 4, 2);
        let clean = Cluster::new(2);
        // high failure rate so retries certainly occur
        let flaky = Cluster::new(2).with_failures(0.4);
        let a = clean.try_run(&WordCount, &splits, 11).unwrap();
        let b = flaky.try_run(&WordCount, &splits, 11).unwrap();
        assert_eq!(
            counts_of(&a.results),
            counts_of(&b.results),
            "retries must not change results"
        );
        assert!(
            b.stats.map_task_retries + b.stats.reduce_task_retries > 0,
            "expected some retries at p = 0.4"
        );
        assert!(
            b.stats.sim.makespan_us > a.stats.sim.makespan_us,
            "retries must cost simulated time"
        );
        assert_eq!(a.stats.map_task_retries, 0);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let splits = make_splits(corpus(), 3, 2);
        let flaky = Cluster::new(2).with_failures(0.3);
        let a = flaky.try_run(&WordCount, &splits, 5).unwrap();
        let b = flaky.try_run(&WordCount, &splits, 5).unwrap();
        assert_eq!(a.stats.map_task_retries, b.stats.map_task_retries);
        assert_eq!(
            a.stats.map_task_retries + a.stats.reduce_task_retries,
            b.stats.map_task_retries + b.stats.reduce_task_retries
        );
    }

    #[test]
    fn certain_failure_returns_typed_retry_exhaustion() {
        // prob = 1.0 is now legal: with a budget the job fails fast with
        // a typed error instead of silently capping at 16 attempts
        let splits = make_splits(corpus(), 2, 2);
        let cluster = Cluster::new(2).with_failures(1.0).with_retry_budget(4);
        let err = cluster.try_run(&WordCount, &splits, 1).unwrap_err();
        assert_eq!(
            err,
            JobError::RetriesExhausted {
                phase: "map",
                task: 0,
                attempts: 4
            }
        );
        assert_eq!(
            err.to_string(),
            "map task 0 exhausted its retry budget after 4 failed attempts"
        );
    }

    #[test]
    fn certain_failure_without_budget_hits_the_safety_valve() {
        let splits = make_splits(corpus(), 1, 1);
        let cluster = Cluster::new(1).with_failures(1.0);
        let err = cluster.try_run(&WordCount, &splits, 1).unwrap_err();
        assert!(
            matches!(
                err,
                JobError::RetriesExhausted {
                    phase: "map",
                    task: 0,
                    ..
                }
            ),
            "no silent cap: {err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "prob must be in [0, 1]")]
    fn failure_prob_validated() {
        let _ = Cluster::new(1).with_failures(1.5);
    }

    #[test]
    #[should_panic(expected = "one factor per machine")]
    fn slowness_arity_checked() {
        let _ = Cluster::new(3).with_machine_slowness(vec![1.0]);
    }

    #[test]
    fn crash_loses_map_outputs_and_reexecutes() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let healthy = Cluster::new(4).try_run(&Scan, &splits, 3).unwrap();
        // crash machine 0 shortly after the job starts: its finished map
        // outputs are lost and re-executed on the survivors
        let plan = FaultPlan::new().crash(0, 7_000_000.0);
        let crashed = Cluster::new(4)
            .with_fault_plan(plan)
            .try_run(&Scan, &splits, 3)
            .unwrap();
        assert_eq!(
            counts_of_u8(&healthy.results),
            counts_of_u8(&crashed.results),
            "crash recovery must not change results"
        );
        assert_eq!(crashed.stats.nodes_crashed, 1);
        assert!(
            crashed.stats.map_task_reexecutions > 0,
            "lost outputs must be re-executed: {:?}",
            crashed.stats
        );
        assert!(crashed.stats.wasted_us > 0.0);
        assert!(
            crashed.stats.sim.makespan_us > healthy.stats.sim.makespan_us,
            "recovery costs time"
        );
    }

    fn counts_of_u8(results: &[(u8, u64)]) -> HashMap<u8, u64> {
        results.iter().cloned().collect()
    }

    #[test]
    fn crash_of_every_machine_is_a_typed_error() {
        let splits = make_splits((0..40).collect::<Vec<u64>>(), 2, 2);
        let plan = FaultPlan::new().crash(0, 0.0).crash(1, 0.0);
        let err = Cluster::new(2)
            .with_fault_plan(plan)
            .try_run(&Scan, &splits, 1)
            .unwrap_err();
        assert!(matches!(err, JobError::NoHealthyMachines { .. }));
    }

    #[test]
    fn speculation_beats_a_straggling_node() {
        let records: Vec<u64> = (0..400).collect();
        let splits = make_splits(records, 8, 4);
        let plan = FaultPlan::new().slow(3, 8.0);
        let slow = Cluster::new(4)
            .with_fault_plan(plan.clone())
            .try_run(&Scan, &splits, 0)
            .unwrap();
        let speculating = Cluster::new(4)
            .with_fault_plan(plan)
            .with_speculation(2.0)
            .try_run(&Scan, &splits, 0)
            .unwrap();
        assert_eq!(
            counts_of_u8(&slow.results),
            counts_of_u8(&speculating.results)
        );
        assert!(speculating.stats.speculative_attempts > 0);
        assert!(speculating.stats.speculation_wins > 0);
        assert!(
            speculating.stats.sim.makespan_us < slow.stats.sim.makespan_us,
            "winning backups must shorten the job: {} !< {}",
            speculating.stats.sim.makespan_us,
            slow.stats.sim.makespan_us
        );
    }

    #[test]
    fn blacklisting_is_counted_and_preserves_results() {
        let splits = make_splits(corpus(), 4, 2);
        let plan = FaultPlan::new().flaky(0, 0.95);
        let out = Cluster::new(2)
            .with_fault_plan(plan)
            .with_blacklist_after(3)
            .try_run(&WordCount, &splits, 11)
            .unwrap();
        let clean = Cluster::new(2).try_run(&WordCount, &splits, 11).unwrap();
        assert_eq!(counts_of(&clean.results), counts_of(&out.results));
        assert_eq!(out.stats.nodes_blacklisted, 1);
    }

    #[test]
    fn backoff_extends_the_makespan_without_changing_retries() {
        let splits = make_splits(corpus(), 4, 2);
        let base = Cluster::new(2).with_failures(0.4);
        let backed = Cluster::new(2)
            .with_failures(0.4)
            .with_retry_backoff(500_000.0);
        let a = base.try_run(&WordCount, &splits, 11).unwrap();
        let b = backed.try_run(&WordCount, &splits, 11).unwrap();
        assert!(a.stats.map_task_retries + a.stats.reduce_task_retries > 0);
        assert_eq!(a.stats.map_task_retries, b.stats.map_task_retries);
        assert_eq!(a.stats.reduce_task_retries, b.stats.reduce_task_retries);
        assert!(b.stats.sim.makespan_us > a.stats.sim.makespan_us);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let cluster = Cluster::new(2);
        let splits: Vec<InputSplit<String>> = make_splits(vec![], 2, 2);
        let out = cluster.try_run(&WordCount, &splits, 0).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.map_input_records, 0);
        assert_eq!(out.stats.distinct_keys, 0);
    }

    #[test]
    fn task_ctx_seeds_differ_across_groups() {
        use std::sync::Mutex;
        struct SeedSpy(Mutex<Vec<u64>>);
        impl Job for &SeedSpy {
            type Input = u64;
            type Key = u64;
            type MapOut = u64;
            type ReduceOut = ();
            fn map(&self, _c: &TaskCtx, r: &u64, out: &mut Emitter<u64, u64>) {
                out.emit(*r, *r);
            }
            fn reduce(&self, ctx: &TaskCtx, _k: &u64, _v: Vec<u64>) {
                self.0.lock().unwrap().push(ctx.seed);
            }
        }
        let spy = SeedSpy(Mutex::new(Vec::new()));
        let cluster = Cluster::new(1);
        let splits = make_splits((0..20).collect(), 2, 1);
        cluster.try_run(&&spy, &splits, 5).unwrap();
        let mut seeds = spy.0.into_inner().unwrap();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "reduce seeds must be unique per key");
    }
}
