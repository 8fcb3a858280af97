//! MR-MQE — answering many SSD queries in one pass (§5.1).
//!
//! Running MR-SQE once per SSD would scan the dataset `n` times. MR-MQE
//! instead keys the intermediate pairs by `(Q_i, s_k)`: the map phase
//! emits one pair per query a tuple matches, and the combine/reduce
//! phases are exactly MR-SQE's, applied per `(query, stratum)` key.
//! Semantically equivalent to `n` independent MR-SQE runs, so it answers
//! the MSSD query — but oblivious to survey costs (no sharing
//! optimization); the paper uses it as the cost benchmark for MR-CPS and
//! as CPS's representative first phase.

use crate::audit::{publish, StratumTrail};
use crate::combiner::{try_sample, Router};
use std::collections::HashSet;
use stratmr_mapreduce::{Cluster, Emitter, InputSplit, JobError, JobStats};
use stratmr_population::Individual;
use stratmr_query::{MssdAnswer, SsdAnswer, SsdQuery, StratumId};

/// MR-MQE's mapping schema: a tuple goes to `(i, s_k)` for every query
/// `i` it matches and is not excluded from, in query order.
///
/// `exclusions[i]` (optional) is a set of individual ids that must not be
/// sampled for query `i`.
struct MqeRouter<'a> {
    queries: &'a [SsdQuery],
    exclusions: Option<&'a [HashSet<u64>]>,
}

impl Router for MqeRouter<'_> {
    type Key = (usize, StratumId);

    fn route(&self, t: &Individual, out: &mut Emitter<(usize, StratumId), Individual>) {
        for (i, q) in self.queries.iter().enumerate() {
            if let Some(ex) = self.exclusions {
                if ex[i].contains(&t.id) {
                    continue;
                }
            }
            if let Some(k) = q.matching_stratum(t) {
                out.emit((i, k), t.clone());
            }
        }
    }

    fn frequency(&self, &(i, k): &(usize, StratumId)) -> usize {
        self.queries[i].stratum(k).frequency
    }
}

/// Result of an MR-MQE run.
#[derive(Debug, Clone)]
pub struct MqeRun {
    /// One answer per SSD query.
    pub answer: MssdAnswer,
    /// MapReduce execution statistics.
    pub stats: JobStats,
}

/// Run MR-MQE on input splits, with optional per-query exclusion sets:
/// `exclusions[i]` holds ids that must not be sampled for query `i`.
/// Scheduling failures come back as [`JobError`].
///
/// With telemetry attached, a successful run publishes one
/// `mqe.q<i>.s<k>.*` audit trail per `(query, stratum)` pair (see
/// [`crate::audit`]).
///
/// # Panics
/// Panics if `exclusions` is given and `exclusions.len() != queries.len()`.
pub fn try_mr_mqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    queries: &[SsdQuery],
    exclusions: Option<&[HashSet<u64>]>,
    seed: u64,
) -> Result<MqeRun, JobError> {
    if let Some(ex) = exclusions {
        assert_eq!(ex.len(), queries.len(), "one exclusion set per query");
    }
    let cluster = cluster.named_or("mqe");
    let _span = cluster.telemetry().map(|t| t.span("mqe.run"));
    let router = MqeRouter {
        queries,
        exclusions,
    };
    let out = try_sample(&cluster, &router, splits, seed)?;
    let mut answers: Vec<SsdAnswer> = queries.iter().map(|q| SsdAnswer::empty(q.len())).collect();
    let mut candidates: Vec<Vec<u64>> = queries.iter().map(|q| vec![0; q.len()]).collect();
    for ((i, k), (sample, seen)) in out.results {
        *answers[i].stratum_mut(k) = sample;
        candidates[i][k] = seen;
    }
    if let Some(registry) = cluster.telemetry() {
        for (i, q) in queries.iter().enumerate() {
            let job = format!("mqe.q{i}");
            publish(
                registry,
                (0..q.len()).map(|k| {
                    let (f, sampled) = (q.stratum(k).frequency, answers[i].stratum(k).len());
                    StratumTrail::stratum(&job, k, f, sampled, candidates[i][k])
                }),
            );
        }
    }
    Ok(MqeRun {
        answer: MssdAnswer::new(answers),
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::sqe::try_mr_sqe_on_splits;
    use stratmr_population::{AttrDef, AttrId, Dataset, DistributedDataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn run_mqe(cluster: &Cluster, data: &DistributedDataset, qs: &[SsdQuery], seed: u64) -> MqeRun {
        try_mr_mqe_on_splits(cluster, &to_input_splits(data), qs, None, seed).unwrap()
    }

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 1000))
            .collect();
        Dataset::new(schema, tuples)
    }

    fn queries() -> Vec<SsdQuery> {
        let x = AttrId(0);
        vec![
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x, 50), 4),
                StratumConstraint::new(Formula::ge(x, 50), 6),
            ]),
            SsdQuery::new(vec![
                StratumConstraint::new(Formula::lt(x, 20), 3),
                StratumConstraint::new(Formula::between(x, 20, 79), 5),
                StratumConstraint::new(Formula::ge(x, 80), 2),
            ]),
        ]
    }

    #[test]
    fn every_query_is_satisfied() {
        let data = dataset(2000).distribute(4, 8, Placement::RoundRobin);
        let cluster = Cluster::new(4);
        let qs = queries();
        let run = run_mqe(&cluster, &data, &qs, 5);
        for (i, q) in qs.iter().enumerate() {
            assert!(run.answer.answer(i).satisfies(q), "query {i} unsatisfied");
        }
    }

    #[test]
    fn single_pass_scans_data_once() {
        let data = dataset(1000).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2);
        let qs = queries();
        let run = run_mqe(&cluster, &data, &qs, 5);
        // one scan: map input records equals the dataset size, even with
        // two queries (each tuple emits up to 2 pairs instead)
        assert_eq!(run.stats.map_input_records, 1000);
        assert_eq!(run.stats.map_output_records, 2000);
    }

    #[test]
    fn equivalent_to_independent_sqe_runs_statistically() {
        // Same stratum constraint as a solo SQE run: answer sizes match.
        let data = dataset(800).distribute(3, 6, Placement::RoundRobin);
        let cluster = Cluster::new(3);
        let qs = queries();
        let mqe = run_mqe(&cluster, &data, &qs, 8);
        for (i, q) in qs.iter().enumerate() {
            let solo = try_mr_sqe_on_splits(&cluster, &to_input_splits(&data), q, 8).unwrap();
            for k in 0..q.len() {
                assert_eq!(
                    mqe.answer.answer(i).stratum(k).len(),
                    solo.answer.stratum(k).len()
                );
            }
        }
    }

    #[test]
    fn telemetry_counts_per_query_strata() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let data = dataset(1000).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2).with_telemetry(registry.clone());
        let qs = queries();
        let run = run_mqe(&cluster, &data, &qs, 5);
        let snap = registry.snapshot();
        let mut candidates_total = 0;
        for (i, q) in qs.iter().enumerate() {
            for k in 0..q.len() {
                let sampled = snap.counter(&format!("mqe.q{i}.s{k}.sampled"));
                let rejected = snap.counter(&format!("mqe.q{i}.s{k}.rejected"));
                let candidates = snap.counter(&format!("mqe.q{i}.s{k}.candidates"));
                assert_eq!(sampled, run.answer.answer(i).stratum(k).len() as u64);
                assert_eq!(candidates, sampled + rejected);
                candidates_total += candidates;
            }
        }
        // one emitted pair per (tuple, matching query)
        assert_eq!(candidates_total, snap.counter("mr.map.output_records"));
        assert_eq!(snap.span_calls("mqe.run"), 1);
        assert_eq!(snap.span_calls("mqe.run/mr.job"), 1);
    }

    /// A stratum no tuple matches still gets its trail: requested `f`,
    /// zero candidates, and the ledger counts it as starved.
    #[test]
    fn unmatched_stratum_keeps_its_trail() {
        use crate::audit::QualityReport;
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let data = dataset(500).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2).with_telemetry(registry.clone());
        let x = AttrId(0);
        let mut qs = queries();
        qs.push(SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 10), 2),
            StratumConstraint::new(Formula::eq(x, 100), 3), // x < 100 everywhere
        ]));
        run_mqe(&cluster, &data, &qs, 4);
        let report = QualityReport::from_snapshot(&registry.snapshot());
        let strata: usize = qs.iter().map(SsdQuery::len).sum();
        assert_eq!(
            report.trails.len(),
            strata,
            "one trail per (query, stratum)"
        );
        let empty = report
            .trails
            .iter()
            .find(|t| t.key == "mqe.q2.s1")
            .expect("the unmatched stratum keeps its trail");
        assert_eq!(
            (empty.requested, empty.candidates, empty.sampled),
            (3, 0, 0)
        );
        assert_eq!(report.starved_strata(), 1);
    }

    #[test]
    fn exclusions_are_respected() {
        let data = dataset(200).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2);
        let x = AttrId(0);
        let qs = vec![
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 50), 10)]),
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 50), 10)]),
        ];
        // exclude ids 0..80 for query 0 only
        let ex0: HashSet<u64> = (0..80).collect();
        let exclusions = vec![ex0.clone(), HashSet::new()];
        let splits = to_input_splits(&data);
        let run = try_mr_mqe_on_splits(&cluster, &splits, &qs, Some(&exclusions), 3).unwrap();
        assert!(run.answer.answer(0).iter().all(|t| !ex0.contains(&t.id)));
        assert_eq!(run.answer.answer(0).len(), 10);
        assert_eq!(run.answer.answer(1).len(), 10);
    }

    #[test]
    fn sharing_between_independent_answers_is_rare() {
        // MR-MQE selects independently per query: overlap happens only by
        // chance. With 10 of 100 eligible individuals per query, expected
        // overlap is ~1 individual.
        let data = dataset(100).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2);
        let x = AttrId(0);
        let qs = vec![
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 100), 10)]),
            SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 100), 10)]),
        ];
        let mut shared_total = 0usize;
        let runs = 50;
        for s in 0..runs {
            let run = run_mqe(&cluster, &data, &qs, s);
            let hist = run.answer.sharing_histogram(2);
            shared_total += hist[1];
        }
        let avg = shared_total as f64 / runs as f64;
        assert!(
            (0.2..3.0).contains(&avg),
            "expected ~1 shared individual on average, got {avg}"
        );
    }
}
