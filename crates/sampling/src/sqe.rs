//! MR-SQE — the paper's single-query MapReduce sampler (Figure 2, §4.2.2).
//!
//! ```text
//! map    (null, t)            → [(s_k, t)]              if t satisfies s_k
//! combine(s_k, [t_1…t_N])     → (SRS([t_1…t_N], f_k), N)
//! reduce (s_k, [(S̄_1,N̄_1)…]) → unified-sampler({…}, f_k)
//! ```
//!
//! The combiner runs Algorithm R on each map task's local stream, so only
//! `min(f_k, N̄_i)` tuples per (task, stratum) cross the network; the
//! reducer merges the intermediate samples without bias via the unified
//! sampler (Algorithm 1).

use crate::audit::{publish, StratumTrail};
use crate::combiner::{try_sample, Router};
use stratmr_mapreduce::{Cluster, Emitter, InputSplit, JobError};
use stratmr_population::Individual;
use stratmr_query::{SsdAnswer, SsdQuery, StratumId};

pub use crate::naive::SqeRun;

/// Figure 2's mapping schema: a tuple goes to the one stratum it
/// satisfies, which wants its frequency `f_k`.
struct SqeRouter<'a>(&'a SsdQuery);

impl Router for SqeRouter<'_> {
    type Key = StratumId;

    fn route(&self, t: &Individual, out: &mut Emitter<StratumId, Individual>) {
        if let Some(k) = self.0.matching_stratum(t) {
            out.emit(k, t.clone());
        }
    }

    fn frequency(&self, k: &StratumId) -> usize {
        self.0.stratum(*k).frequency
    }
}

/// Run MR-SQE on input splits (build them once per dataset with
/// [`crate::to_input_splits`]). Scheduling failures — retry exhaustion,
/// no healthy machine under a fault plan — come back as [`JobError`].
///
/// With telemetry attached, a successful run publishes one
/// `sqe.s<k>.*` audit trail per stratum (see [`crate::audit`]).
pub fn try_mr_sqe_on_splits(
    cluster: &Cluster,
    splits: &[InputSplit<Individual>],
    query: &SsdQuery,
    seed: u64,
) -> Result<SqeRun, JobError> {
    let cluster = cluster.named_or("sqe");
    let _span = cluster.telemetry().map(|t| t.span("sqe.run"));
    let out = try_sample(&cluster, &SqeRouter(query), splits, seed)?;
    let mut answer = SsdAnswer::empty(query.len());
    let mut candidates = vec![0; query.len()];
    for (k, (sample, seen)) in out.results {
        *answer.stratum_mut(k) = sample;
        candidates[k] = seen;
    }
    if let Some(registry) = cluster.telemetry() {
        publish(
            registry,
            (0..query.len()).map(|k| {
                let (f, sampled) = (query.stratum(k).frequency, answer.stratum(k).len());
                StratumTrail::stratum("sqe", k, f, sampled, candidates[k])
            }),
        );
    }
    Ok(SqeRun {
        answer,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::to_input_splits;
    use crate::naive::try_naive_sqe_on_splits;
    use crate::stats::{chi2_critical_999, chi2_uniform};
    use stratmr_population::{AttrDef, AttrId, Dataset, DistributedDataset, Placement, Schema};
    use stratmr_query::{Formula, StratumConstraint};

    fn run_sqe(cluster: &Cluster, data: &DistributedDataset, q: &SsdQuery, seed: u64) -> SqeRun {
        try_mr_sqe_on_splits(cluster, &to_input_splits(data), q, seed).unwrap()
    }

    fn dataset(n: usize) -> Dataset {
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        let tuples = (0..n as u64)
            .map(|i| Individual::new(i, vec![(i % 100) as i64], 1000))
            .collect();
        Dataset::new(schema, tuples)
    }

    fn two_strata_query(f1: usize, f2: usize) -> SsdQuery {
        let x = AttrId(0);
        SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), f1),
            StratumConstraint::new(Formula::ge(x, 50), f2),
        ])
    }

    #[test]
    fn answer_satisfies_query() {
        let data = dataset(2000).distribute(5, 10, Placement::RoundRobin);
        let cluster = Cluster::new(5);
        let q = two_strata_query(10, 20);
        let run = run_sqe(&cluster, &data, &q, 11);
        assert!(run.answer.satisfies(&q));
    }

    #[test]
    fn combiner_cuts_shuffle_relative_to_naive() {
        let data = dataset(5000).distribute(5, 20, Placement::RoundRobin);
        let cluster = Cluster::new(5);
        let q = two_strata_query(5, 5);
        let naive = try_naive_sqe_on_splits(&cluster, &to_input_splits(&data), &q, 11).unwrap();
        let sqe = run_sqe(&cluster, &data, &q, 11);
        assert_eq!(naive.answer.stratum(0).len(), sqe.answer.stratum(0).len());
        assert!(
            sqe.stats.shuffle_bytes * 10 < naive.stats.shuffle_bytes,
            "combiner should slash shuffle: {} vs {}",
            sqe.stats.shuffle_bytes,
            naive.stats.shuffle_bytes
        );
        // at most f tuples per (task, stratum) cross the network
        assert!(sqe.stats.combine_output_pairs <= 20 * 2);
    }

    #[test]
    fn deficient_stratum_collects_all() {
        let data = dataset(30).distribute(3, 6, Placement::RoundRobin); // x = 0..29
        let x = AttrId(0);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::lt(x, 4), 50)]);
        let cluster = Cluster::new(3);
        let run = run_sqe(&cluster, &data, &q, 2);
        assert_eq!(run.answer.stratum(0).len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = dataset(500).distribute(2, 4, Placement::RoundRobin);
        let cluster = Cluster::new(2);
        let q = two_strata_query(5, 5);
        assert_eq!(
            run_sqe(&cluster, &data, &q, 7).answer,
            run_sqe(&cluster, &data, &q, 7).answer
        );
    }

    /// The central §4.2 claim: MR-SQE is unbiased even when the data
    /// placement is skewed so machines hold very different stratum
    /// populations. Every individual of a stratum must be selected
    /// equally often.
    #[test]
    fn unbiased_under_skewed_placement() {
        let x = AttrId(0);
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 99)]);
        // 24 "men" (x = 0), placed so machine 1 holds 4 and machine 2
        // holds 20 — the unequal-blocks scenario of §4.2.
        let tuples: Vec<Individual> = (0..24u64)
            .map(|i| Individual::new(i, vec![0], 10))
            .collect();
        let data = Dataset::new(schema, tuples).distribute(2, 2, Placement::Contiguous);
        let q = SsdQuery::new(vec![StratumConstraint::new(Formula::eq(x, 0), 2)]);
        let cluster = Cluster::new(2);
        let trials = 8_000usize;
        let mut counts = vec![0u64; 24];
        for s in 0..trials {
            let run = run_sqe(&cluster, &data, &q, s as u64);
            for t in run.answer.stratum(0) {
                counts[t.id as usize] += 1;
            }
        }
        let chi2 = chi2_uniform(&counts);
        let crit = chi2_critical_999(23);
        assert!(
            chi2 < crit,
            "MR-SQE biased: chi2 {chi2} >= {crit}\n{counts:?}"
        );
    }

    /// Per-stratum telemetry: `candidates = sampled + rejected`, the
    /// sampled counters equal the answer sizes, and the run's spans nest
    /// under `sqe.run`.
    #[test]
    fn telemetry_counts_candidates_and_samples() {
        use stratmr_telemetry::Registry;
        let registry = Registry::new();
        let data = dataset(1000).distribute(3, 6, Placement::RoundRobin);
        let cluster = Cluster::new(3).with_telemetry(registry.clone());
        let q = two_strata_query(7, 9);
        let run = run_sqe(&cluster, &data, &q, 13);
        let snap = registry.snapshot();
        for k in 0..2 {
            let candidates = snap.counter(&format!("sqe.s{k}.candidates"));
            let sampled = snap.counter(&format!("sqe.s{k}.sampled"));
            let rejected = snap.counter(&format!("sqe.s{k}.rejected"));
            assert_eq!(candidates, 500, "x is uniform over 0..100");
            assert_eq!(sampled, run.answer.stratum(k).len() as u64);
            assert_eq!(candidates, sampled + rejected);
        }
        // map-phase matches across strata equal the job's emitted records
        assert_eq!(
            snap.counter("sqe.s0.candidates") + snap.counter("sqe.s1.candidates"),
            snap.counter("mr.map.output_records")
        );
        assert_eq!(snap.span_calls("sqe.run"), 1);
        assert_eq!(snap.span_calls("sqe.run/mr.job"), 1);
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
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::lt(x, 50), 5),
            StratumConstraint::new(Formula::eq(x, 100), 4), // x < 100 everywhere
        ]);
        run_sqe(&cluster, &data, &q, 3);
        let report = QualityReport::from_snapshot(&registry.snapshot());
        let keys: Vec<&str> = report.trails.iter().map(|t| t.key.as_str()).collect();
        assert_eq!(keys, ["sqe.s0", "sqe.s1"]);
        let empty = &report.trails[1];
        assert_eq!(
            (empty.requested, empty.candidates, empty.sampled),
            (4, 0, 0)
        );
        assert_eq!(report.starved_strata(), 1);
    }

    /// Example 5 of the paper, verbatim: 64 individuals (30 men, 34
    /// women) on two machines; 5 men and 6 women requested.
    #[test]
    fn paper_example_5() {
        use stratmr_population::dataset::Split;
        let x = AttrId(0); // 0 = man, 1 = woman
        let schema = Schema::new(vec![AttrDef::numeric("x", 0, 1)]);
        // machine 1: 20 men, 16 women; machine 2: 10 men, 18 women
        let mut id = 0u64;
        let mut splits = Vec::new();
        for (machine, &(men, women)) in [(20, 16), (10, 18)].iter().enumerate() {
            let mut tuples = Vec::new();
            for _ in 0..men {
                tuples.push(Individual::new(id, vec![0], 10));
                id += 1;
            }
            for _ in 0..women {
                tuples.push(Individual::new(id, vec![1], 10));
                id += 1;
            }
            splits.push(Split {
                id: machine,
                home_machine: machine,
                tuples,
            });
        }
        let data = DistributedDataset::from_splits(schema, 2, splits);
        assert_eq!(data.splits()[0].tuples.len(), 36);
        let q = SsdQuery::new(vec![
            StratumConstraint::new(Formula::eq(x, 0), 5),
            StratumConstraint::new(Formula::eq(x, 1), 6),
        ]);
        let cluster = Cluster::new(2);
        let run = run_sqe(&cluster, &data, &q, 3);
        assert_eq!(run.answer.stratum(0).len(), 5);
        assert_eq!(run.answer.stratum(1).len(), 6);
        assert!(run.answer.satisfies(&q));
    }
}
