//! The one file through which the benchmark runs the program: the
//! population generator, split building, the query-group generator, the
//! `Cluster` builder, the fallible sampling entry points and the
//! single-layer passes (stratum matching, stratum selections).
//!
//! Everything here returns plain values read off what the program
//! returns; the rest of the benchmark never names a sampling entry point
//! or a cluster builder, so a redesign of those APIs is absorbed here.

use std::hint::black_box;
use std::time::Instant;
use stratmr_mapreduce::{Cluster, CostConfig, InputSplit, JobStats, Registry, TraceSink};
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::{Individual, Placement};
use stratmr_query::{CostModel, GroupSpec, MssdAnswer, MssdQuery, QueryGenerator};
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::mqe::try_mr_mqe_on_splits;
use stratmr_sampling::sst::StratumSelection;

/// Simulated machines, as in the paper's 10-slave cluster.
pub const MACHINES: usize = 10;
/// MapReduce input splits the population is cut into.
pub const SPLITS: usize = 40;

/// Which algorithm answers a query group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// MR-MQE (§5.1): one independent sample per SSD.
    Mqe,
    /// MR-CPS (§5.2) with the LP solver.
    Cps,
}

/// The paper's query groups, by name.
pub fn group_spec(name: &str) -> GroupSpec {
    match name {
        "Medium" => GroupSpec::MEDIUM,
        "Large" => GroupSpec::LARGE,
        other => panic!("no query group named {other}"),
    }
}

/// Wall seconds of each set-up step.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub distribute_s: f64,
    pub to_splits_s: f64,
    pub group_gen_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate_s + self.distribute_s + self.to_splits_s + self.group_gen_s
    }
}

/// The inputs every answer runs on.
pub struct Inputs {
    pub splits: Vec<InputSplit<Individual>>,
    pub groups: Vec<MssdQuery>,
    pub population: usize,
}

/// Generate a DBLP-like population from `data_seed`, distribute it
/// round-robin over the cluster, build the input splits and generate
/// one query group of `spec` per group seed, with proportional
/// allocation over the population.
pub fn set_up(
    population: usize,
    data_seed: u64,
    spec: &GroupSpec,
    sample_size: usize,
    group_seeds: &[u64],
) -> (Inputs, SetupTimes) {
    let t = Instant::now();
    let data = DblpGenerator::new(DblpConfig::default()).generate(population, data_seed);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let dist = data.distribute(MACHINES, SPLITS, Placement::RoundRobin);
    let distribute_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let splits = stratmr_sampling::to_input_splits(&dist);
    let to_splits_s = t.elapsed().as_secs_f64();
    drop(dist);

    let t = Instant::now();
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let groups = group_seeds
        .iter()
        .map(|&s| qgen.generate_paper_group_on(spec, sample_size, data.tuples(), s))
        .collect();
    let group_gen_s = t.elapsed().as_secs_f64();

    let inputs = Inputs {
        splits,
        groups,
        population,
    };
    let times = SetupTimes {
        generate_s,
        distribute_s,
        to_splits_s,
        group_gen_s,
    };
    (inputs, times)
}

/// A `Cluster::new(MACHINES)` whose cost model charges no measured CPU
/// time (`cpu_slowdown = 0`), so simulated time depends only on the
/// inputs. With `observed`, a fresh telemetry registry and trace sink
/// are attached and returned for reading after the answer.
pub fn cluster(observed: bool) -> (Cluster, Option<(Registry, TraceSink)>) {
    let costs = CostConfig {
        cpu_slowdown: 0.0,
        ..CostConfig::default()
    };
    let cluster = Cluster::new(MACHINES).with_costs(costs);
    if !observed {
        return (cluster, None);
    }
    let (registry, sink) = (Registry::new(), TraceSink::new());
    let cluster = cluster
        .with_telemetry(registry.clone())
        .with_trace(sink.clone());
    (cluster, Some((registry, sink)))
}

/// What a CPS run reports beyond its answer.
#[derive(Debug, Clone, Copy)]
pub struct CpsFacts {
    pub relevant_selections: usize,
    pub residual_selections: usize,
    pub variables: usize,
    pub constraints: usize,
    pub formulate_s: f64,
    pub solve_s: f64,
}

/// One answered MSSD query.
pub struct Answer {
    pub answer: MssdAnswer,
    /// Every MapReduce job the answer ran, labelled, in run order.
    pub jobs: Vec<(String, JobStats)>,
    pub cps: Option<CpsFacts>,
}

/// Answer `group` with `algo` through the fallible entry points.
pub fn answer(
    cluster: &Cluster,
    inputs: &Inputs,
    group: &MssdQuery,
    algo: Algo,
    seed: u64,
) -> Result<Answer, String> {
    match algo {
        Algo::Mqe => {
            let run = try_mr_mqe_on_splits(cluster, &inputs.splits, group.queries(), None, seed)
                .map_err(|e| e.to_string())?;
            Ok(Answer {
                answer: run.answer,
                jobs: vec![("MR-MQE".to_string(), run.stats)],
                cps: None,
            })
        }
        Algo::Cps => {
            let run =
                try_mr_cps_on_splits(cluster, &inputs.splits, group, CpsConfig::mr_cps(), seed)
                    .map_err(|e| e.to_string())?;
            Ok(Answer {
                answer: run.answer,
                jobs: run.phase_stats,
                cps: Some(CpsFacts {
                    relevant_selections: run.relevant_selections,
                    residual_selections: run.residual_selections,
                    variables: run.variables,
                    constraints: run.constraints,
                    formulate_s: run.timings.formulate_secs,
                    solve_s: run.timings.solve_secs,
                }),
            })
        }
    }
}

/// Realised cost `C_A` under the group's cost model and under
/// indifference to sharing (the same interview costs, no discount).
pub fn costs(answer: &MssdAnswer, group: &MssdQuery) -> (f64, f64) {
    let model = group.costs();
    let interview = (0..model.n_surveys())
        .map(|i| model.interview_cost(i))
        .collect();
    (
        answer.cost(model),
        answer.cost(&CostModel::indifferent(interview)),
    )
}

/// Single-thread `SsdQuery::matching_stratum` pass over every row and
/// every SSD of `group`: nanoseconds per (row, SSD) and matches per row.
pub fn match_pass(inputs: &Inputs, group: &MssdQuery) -> (f64, f64) {
    let queries = group.queries();
    let t = Instant::now();
    let mut matches = 0u64;
    for split in &inputs.splits {
        for row in &split.records {
            for q in queries {
                matches += black_box(q.matching_stratum(black_box(row))).is_some() as u64;
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let rows = inputs.population as f64;
    (
        secs * 1e9 / (rows * queries.len() as f64),
        matches as f64 / rows,
    )
}

/// Single-thread `StratumSelection::of` pass over every row:
/// nanoseconds per row.
pub fn selection_pass(inputs: &Inputs, group: &MssdQuery) -> f64 {
    let queries = group.queries();
    let t = Instant::now();
    for split in &inputs.splits {
        for row in &split.records {
            black_box(StratumSelection::of(black_box(row), queries));
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / inputs.population as f64
}

/// What a telemetry-attached answer left in its registry and trace sink.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Distinct counters the answer registered.
    pub counters: usize,
    /// Chrome-trace task events recorded.
    pub trace_events: usize,
    /// Wall seconds of the registry's `mr.job/{map,shuffle,reduce}`
    /// spans, summed over the answer's jobs.
    pub map_s: f64,
    pub shuffle_s: f64,
    pub reduce_s: f64,
    /// The registry's `mr.job/combine` value: per-task combiner thread
    /// time summed over tasks, so it can exceed its parent `mr.job`.
    pub combine_task_s_sum: f64,
}

/// Read back a registry and trace sink after an answer.
pub fn observed(registry: &Registry, sink: &TraceSink) -> Result<Observed, String> {
    let snapshot = registry.snapshot();
    let json = serde_json::parse_value_str(&snapshot.to_json()).map_err(|e| e.to_string())?;
    let walls = json
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "host"))
        .and_then(|(_, host)| host.as_object())
        .and_then(|h| h.iter().find(|(k, _)| k == "span_wall_secs"))
        .and_then(|(_, w)| w.as_object())
        .ok_or("telemetry JSON has no host.span_wall_secs")?;
    let mut out = Observed {
        counters: snapshot.counter_names().count(),
        trace_events: sink.jobs().iter().map(|j| j.events.len()).sum(),
        ..Observed::default()
    };
    for (path, wall) in walls {
        let wall = match wall {
            serde::Value::Float(x) => *x,
            serde::Value::Int(x) => *x as f64,
            serde::Value::UInt(x) => *x as f64,
            _ => return Err(format!("span {path} has a non-numeric wall time")),
        };
        let slot = match path.rsplit_once("mr.job") {
            Some((_, "/map")) => &mut out.map_s,
            Some((_, "/shuffle")) => &mut out.shuffle_s,
            Some((_, "/reduce")) => &mut out.reduce_s,
            Some((_, "/combine")) => &mut out.combine_task_s_sum,
            _ => continue,
        };
        *slot += wall;
    }
    Ok(out)
}

/// Worker threads the vendored rayon runs map and reduce tasks on.
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}
