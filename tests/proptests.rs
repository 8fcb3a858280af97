//! Property-based tests over the full stack.
//!
//! Random populations, random disjoint stratified designs and random
//! cluster shapes; the invariants of §3.2 (answer satisfaction), §4.2.3
//! (sample sizes and membership) and §5.2.4 (cost ordering) must hold
//! for every instance.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stratmr::mapreduce::Cluster;
use stratmr::population::{AttrDef, AttrId, Dataset, Individual, Placement, Schema};
use stratmr::query::{CostModel, Formula, MssdQuery, SsdQuery, StratumConstraint};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::to_input_splits;
use stratmr::sampling::unified::{unified_sampler, IntermediateSample};

fn schema() -> Schema {
    Schema::new(vec![AttrDef::numeric("x", 0, 99)])
}

fn x() -> AttrId {
    AttrId(0)
}

/// A population whose attribute values are the proptest-chosen vector.
fn population(values: &[i64]) -> Dataset {
    let tuples = values
        .iter()
        .enumerate()
        .map(|(i, &v)| Individual::new(i as u64, vec![v], 10))
        .collect();
    Dataset::new(schema(), tuples)
}

/// Split [0, 100) into disjoint strata at the given sorted cut points
/// and attach the requested frequencies.
fn banded_query(cuts: &[i64], freqs: &[usize]) -> SsdQuery {
    let mut constraints = Vec::new();
    let mut lo = 0i64;
    for (i, &hi) in cuts.iter().chain(std::iter::once(&100)).enumerate() {
        if hi > lo {
            constraints.push(StratumConstraint::new(
                Formula::between(x(), lo, hi - 1),
                freqs[i % freqs.len()],
            ));
        }
        lo = hi;
    }
    SsdQuery::new(constraints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MR-SQE returns min(f_k, N_k) tuples per stratum, each matching
    /// its stratum, with no duplicate individuals within a stratum.
    #[test]
    fn sqe_answer_invariants(
        values in prop::collection::vec(0i64..100, 1..400),
        cut in 1i64..99,
        f1 in 1usize..12,
        f2 in 1usize..12,
        machines in 1usize..6,
        seed in any::<u64>(),
    ) {
        let data = population(&values);
        let q = banded_query(&[cut], &[f1, f2]);
        let splits = to_input_splits(&data.distribute(machines, machines * 2, Placement::RoundRobin));
        let run = try_mr_sqe_on_splits(&Cluster::new(machines), &splits, &q, seed).unwrap();
        let sizes: Vec<usize> = q
            .constraints()
            .iter()
            .map(|s| values.iter().filter(|&&v| {
                s.matches(&Individual::new(0, vec![v], 0))
            }).count())
            .collect();
        prop_assert!(run.answer.satisfies_clamped(&q, Some(&sizes)));
        for (k, s) in q.constraints().iter().enumerate() {
            let sample = run.answer.stratum(k);
            let mut ids: Vec<u64> = sample.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), sample.len(), "duplicates in stratum");
            prop_assert!(sample.iter().all(|t| s.matches(t)));
        }
    }

    /// The unified sampler returns exactly min(n, Σ|S̄_i|) items, all
    /// drawn from the inputs, no duplicates.
    #[test]
    fn unified_sampler_invariants(
        block_sizes in prop::collection::vec(1usize..30, 1..8),
        n in 0usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut next = 0u32;
        let samples: Vec<IntermediateSample<u32>> = block_sizes
            .iter()
            .map(|&size| {
                let keep = n.min(size);
                let items: Vec<u32> = (next..next + keep as u32).collect();
                next += size as u32; // ids unique across blocks
                IntermediateSample::new(items, size)
            })
            .collect();
        let available: usize = samples.iter().map(|s| s.sample.len()).sum();
        let out = unified_sampler(samples, n, &mut rng);
        prop_assert_eq!(out.len(), n.min(available));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), out.len(), "duplicates");
    }

    /// CPS never costs more than cost-oblivious MQE on the same
    /// (satisfiable) MSSD, and both satisfy every query.
    #[test]
    fn cps_dominates_mqe(
        cut1 in 20i64..50,
        cut2 in 50i64..85,
        f in 2usize..8,
        penalty_on in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // dense population: 4 copies of every value
        let values: Vec<i64> = (0..400).map(|i| i % 100).collect();
        let data = population(&values);
        let q1 = banded_query(&[cut1], &[f, f]);
        let q2 = banded_query(&[cut2], &[f, f]);
        let penalties: &[(usize, usize)] = if penalty_on { &[(0, 1)] } else { &[] };
        let costs = CostModel::paper_style(2, 4.0, penalties, 10.0);
        let mssd = MssdQuery::new(vec![q1, q2], costs);
        let splits = to_input_splits(&data.distribute(3, 6, Placement::RoundRobin));
        let cluster = Cluster::new(3);
        let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), seed).unwrap();
        let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, seed).unwrap();
        prop_assert!(cps.answer.satisfies(&mssd));
        prop_assert!(mqe.answer.satisfies(&mssd));
        prop_assert!(cps.cost <= mqe.answer.cost(mssd.costs()) + 1e-9);
        // the LP bound holds
        prop_assert!(cps.solver_objective <= cps.cost + 1e-6);
    }

    /// An answer's per-stratum frequencies are placement-invariant:
    /// whatever the distribution of tuples over machines, the sample
    /// sizes match the design.
    #[test]
    fn placement_invariance(
        shuffle_seed in any::<u64>(),
        machines in 1usize..8,
        seed in any::<u64>(),
    ) {
        let values: Vec<i64> = (0..300).map(|i| i % 100).collect();
        let data = population(&values);
        let q = banded_query(&[33, 66], &[5, 7, 3]);
        for placement in [
            Placement::RoundRobin,
            Placement::Contiguous,
            Placement::SortedBy(x()),
            Placement::Shuffled(shuffle_seed),
        ] {
            let splits = to_input_splits(&data.distribute(machines, machines * 2, placement));
            let run = try_mr_sqe_on_splits(&Cluster::new(machines), &splits, &q, seed).unwrap();
            prop_assert!(run.answer.satisfies(&q));
        }
    }
}
