//! The `mr.*` counters are a projection of `JobStats`: each finished
//! job publishes its stats once, on the driver, after its schedule has
//! been replayed. These tests guard that projection. Summed over every
//! job, the counters must equal the summed `JobStats`, for every cluster
//! shape, under injected failures and under node faults with recovery.
//! A job that fails publishes nothing but its failure counters.

use stratmr_mapreduce::{
    make_splits, Cluster, CombineJob, CostConfig, Emitter, FaultPlan, Job, JobError, JobStats,
    TaskCtx,
};
use stratmr_telemetry::Registry;

struct SumJob;

impl Job for SumJob {
    type Input = (u8, i64);
    type Key = u8;
    type MapOut = i64;
    type ReduceOut = i64;
    fn map(&self, _c: &TaskCtx, r: &(u8, i64), out: &mut Emitter<u8, i64>) {
        out.emit(r.0, r.1);
    }
    fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<i64>) -> i64 {
        v.into_iter().sum()
    }
    fn pair_bytes(&self, _k: &u8, _v: &i64) -> u64 {
        9
    }
}

struct SumJobCombined;

impl CombineJob for SumJobCombined {
    type Input = (u8, i64);
    type Key = u8;
    type MapOut = i64;
    type Acc = i64;
    type CombOut = i64;
    type ReduceOut = i64;
    fn map(&self, _c: &TaskCtx, r: &(u8, i64), out: &mut Emitter<u8, i64>) {
        out.emit(r.0, r.1);
    }
    fn init(&self, _c: &TaskCtx, _k: &u8) -> i64 {
        0
    }
    fn observe(&self, acc: &mut i64, v: i64) {
        *acc += v;
    }
    fn finish(&self, _k: &u8, acc: i64) -> i64 {
        acc
    }
    fn reduce(&self, _c: &TaskCtx, _k: &u8, v: Vec<i64>) -> i64 {
        v.into_iter().sum()
    }
    fn comb_bytes(&self, _k: &u8, _v: &i64) -> u64 {
        9
    }
}

fn records(n: u64) -> Vec<(u8, i64)> {
    (0..n).map(|i| ((i % 13) as u8, (i as i64) - 40)).collect()
}

/// Sum of the JobStats fields the counters must reproduce.
#[derive(Default)]
struct Expected {
    jobs: u64,
    map_input_records: u64,
    map_output_records: u64,
    combine_output_pairs: u64,
    shuffle_bytes: u64,
    reduce_input_values: u64,
    distinct_keys: u64,
    map_tasks: u64,
    reduce_tasks: u64,
    map_task_retries: u64,
    reduce_task_retries: u64,
    map_task_reexecutions: u64,
    speculative_attempts: u64,
    speculation_wins: u64,
    nodes_crashed: u64,
    nodes_blacklisted: u64,
}

impl Expected {
    fn absorb(&mut self, s: &JobStats) {
        self.jobs += 1;
        self.map_input_records += s.map_input_records;
        self.map_output_records += s.map_output_records;
        self.combine_output_pairs += s.combine_output_pairs;
        self.shuffle_bytes += s.shuffle_bytes;
        self.reduce_input_values += s.reduce_input_values;
        self.distinct_keys += s.distinct_keys;
        self.map_tasks += s.map_tasks;
        self.reduce_tasks += s.reduce_tasks;
        self.map_task_retries += s.map_task_retries;
        self.reduce_task_retries += s.reduce_task_retries;
        self.map_task_reexecutions += s.map_task_reexecutions;
        self.speculative_attempts += s.speculative_attempts;
        self.speculation_wins += s.speculation_wins;
        self.nodes_crashed += s.nodes_crashed;
        self.nodes_blacklisted += s.nodes_blacklisted;
    }

    fn assert_matches(&self, registry: &Registry) {
        let snap = registry.snapshot();
        let pairs = [
            ("mr.jobs", self.jobs),
            ("mr.map.input_records", self.map_input_records),
            ("mr.map.output_records", self.map_output_records),
            ("mr.combine.output_pairs", self.combine_output_pairs),
            ("mr.shuffle.bytes", self.shuffle_bytes),
            ("mr.reduce.input_values", self.reduce_input_values),
            ("mr.distinct_keys", self.distinct_keys),
            ("mr.map.tasks", self.map_tasks),
            ("mr.reduce.tasks", self.reduce_tasks),
            ("mr.map.task_retries", self.map_task_retries),
            ("mr.reduce.task_retries", self.reduce_task_retries),
            ("mr.map.task_reexecutions", self.map_task_reexecutions),
            ("mr.spec.attempts", self.speculative_attempts),
            ("mr.spec.wins", self.speculation_wins),
            ("mr.nodes.crashed", self.nodes_crashed),
            ("mr.nodes.blacklisted", self.nodes_blacklisted),
        ];
        for (name, want) in pairs {
            assert_eq!(
                snap.counter(name),
                want,
                "counter `{name}` disagrees with JobStats accounting"
            );
        }
    }
}

#[test]
fn counters_agree_with_job_stats_on_every_job() {
    let registry = Registry::new();
    let mut expected = Expected::default();
    // machine 0 crashes after its first map task, machine 1 runs at an
    // eighth of its speed, machine 2 fails most attempts
    let faulty = Cluster::new(4)
        .with_costs(CostConfig {
            cpu_slowdown: 0.0,
            ..CostConfig::default()
        })
        .with_fault_plan(
            FaultPlan::new()
                .crash(0, 6_500_000.0)
                .slow(1, 8.0)
                .flaky(2, 0.9),
        )
        .with_speculation(2.0)
        .with_blacklist_after(2);

    for (cluster, splits_n, seed) in [
        (Cluster::new(1), 1usize, 7u64),
        (Cluster::new(3), 5, 8),
        (Cluster::new(4), 9, 9),
        (faulty, 12, 10),
    ] {
        let cluster = cluster.with_telemetry(registry.clone());
        let splits = make_splits(records(200), splits_n, cluster.machines());
        let out = cluster.try_run(&SumJob, &splits, seed).unwrap();
        expected.absorb(&out.stats);
        expected.assert_matches(&registry);

        let out = cluster
            .try_run_with_combiner(&SumJobCombined, &splits, seed ^ 0xABCD)
            .unwrap();
        expected.absorb(&out.stats);
        expected.assert_matches(&registry);
    }
    for (what, n) in [
        ("re-executions", expected.map_task_reexecutions),
        ("speculative attempts", expected.speculative_attempts),
        ("speculation wins", expected.speculation_wins),
        ("crashed nodes", expected.nodes_crashed),
        ("blacklisted nodes", expected.nodes_blacklisted),
    ] {
        assert!(
            n > 0,
            "the fault plan caused no {what}; the check is vacuous"
        );
    }
}

#[test]
fn retry_counters_agree_under_failures() {
    let registry = Registry::new();
    let mut expected = Expected::default();
    let cluster = Cluster::new(2)
        .with_costs(CostConfig {
            cpu_slowdown: 0.0,
            ..CostConfig::default()
        })
        .with_failures(0.4)
        .with_telemetry(registry.clone());
    let splits = make_splits(records(120), 6, 2);
    for seed in 0..10u64 {
        let out = cluster.try_run(&SumJob, &splits, seed).unwrap();
        expected.absorb(&out.stats);
    }
    assert!(
        expected.map_task_retries + expected.reduce_task_retries > 0,
        "failure injection produced no retries; the cross-check is vacuous"
    );
    expected.assert_matches(&registry);
}

/// Every counter and histogram a failed job leaves in a fresh registry.
fn failed_job_telemetry(cluster: Cluster, want: JobError) -> Vec<(String, u64)> {
    let registry = Registry::new();
    let cluster = cluster.with_telemetry(registry.clone());
    let splits = make_splits(records(40), 2, 2);
    let err = cluster.try_run(&SumJob, &splits, 1).unwrap_err();
    assert_eq!(err, want);
    let snap = registry.snapshot();
    for name in [
        "mr.sim.map_us",
        "mr.sim.combine_us",
        "mr.sim.shuffle_us",
        "mr.sim.reduce_us",
        "mr.sim.makespan_us",
    ] {
        assert!(snap.histogram(name).is_none(), "failed job recorded {name}");
    }
    let mut counters: Vec<(String, u64)> = snap
        .counter_names()
        .map(|n| (n.to_string(), snap.counter(n)))
        .collect();
    counters.sort();
    counters
}

#[test]
fn failed_jobs_publish_only_their_failure() {
    let exhausted = failed_job_telemetry(
        Cluster::new(2).with_failures(1.0).with_retry_budget(2),
        JobError::RetriesExhausted {
            phase: "map",
            task: 0,
            attempts: 2,
        },
    );
    assert_eq!(
        exhausted,
        [
            ("mr.jobs", 1),
            ("mr.jobs.failed", 1),
            ("mr.map.retries_exhausted", 1)
        ]
        .map(|(n, v)| (n.to_string(), v))
    );

    let all_crashed = FaultPlan::new().crash(0, 0.0).crash(1, 0.0);
    let unplaceable = failed_job_telemetry(
        Cluster::new(2).with_fault_plan(all_crashed),
        JobError::NoHealthyMachines {
            phase: "map",
            task: 0,
        },
    );
    assert_eq!(
        unplaceable,
        [("mr.jobs", 1), ("mr.jobs.failed", 1)].map(|(n, v)| (n.to_string(), v))
    );
}

#[test]
fn phase_spans_cover_the_job() {
    let registry = Registry::new();
    let cluster = Cluster::new(2).with_telemetry(registry.clone());
    let splits = make_splits(records(50), 4, 2);
    cluster
        .try_run_with_combiner(&SumJobCombined, &splits, 3)
        .unwrap();
    cluster.try_run(&SumJob, &splits, 4).unwrap();

    let snap = registry.snapshot();
    assert_eq!(snap.span_calls("mr.job"), 2);
    assert_eq!(snap.span_calls("mr.job/map"), 2);
    assert_eq!(snap.span_calls("mr.job/shuffle"), 2);
    assert_eq!(snap.span_calls("mr.job/reduce"), 2);
    // combine is only reported for jobs that actually have a combiner
    assert_eq!(snap.span_calls("mr.job/combine"), 1);
}

#[test]
fn combine_span_fits_inside_its_job() {
    // enough records per task that folding them is real work; the combine
    // span holds only the per-task `finish` time, so even summed over
    // tasks running in parallel it stays inside the job's wall time
    let registry = Registry::new();
    let cluster = Cluster::new(4).with_telemetry(registry.clone());
    let splits = make_splits(records(200_000), 16, 4);
    for seed in 0..3 {
        cluster
            .try_run_with_combiner(&SumJobCombined, &splits, seed)
            .unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.span_calls("mr.job/combine"), 3);
    let combine = snap.span_wall_secs("mr.job/combine");
    let job = snap.span_wall_secs("mr.job");
    assert!(
        combine <= job,
        "combine span {combine} s exceeds its parent mr.job {job} s"
    );
}

#[test]
fn cluster_without_telemetry_emits_nothing() {
    let registry = Registry::new();
    let cluster = Cluster::new(2);
    let splits = make_splits(records(30), 2, 2);
    cluster.try_run(&SumJob, &splits, 1).unwrap();
    assert_eq!(registry.snapshot().counter_names().count(), 0);
    assert!(cluster.telemetry().is_none());
}
