//! Differential test against the sequential oracle (§4.1). MR-SQE and
//! MR-MQE answer three SSDs over a DBLP-like population, and
//! `sequential_ssd` answers each SSD in one pass over the same tuples.
//! The strata are cut at quantiles of the data, so that each holds a
//! sizeable share of the population; one stratum asks for more
//! individuals than it has.
//!
//! * Every stratum's sample has the oracle's size, for every seed.
//! * Each stratum's inclusions, counted per input split over all seeds,
//!   fit a uniform sample of the stratum. Split `j` holding `m_j` of the
//!   stratum's `N_k` members expects `m_j · f_k · seeds / N_k`. The
//!   fit is checked with `chi2_gof_ok`, for the oracle as well as for
//!   both MapReduce samplers.
//!
//! The population is placed sorted by first-publication year, so the
//! splits hold very different shares of most strata. A sampler that
//! weighted splits rather than individuals would fail the fit.
//!
//! The default case (4,000 individuals, 50 seeds) runs in seconds in a
//! debug build. The full case runs at 100,000 individuals over 400 seeds:
//!
//! ```text
//! cargo test --release --test oracle -- --ignored
//! ```

use std::collections::HashMap;
use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::{AttrId, Individual, Placement};
use stratmr::query::{Formula, SsdAnswer, SsdQuery, StratumConstraint};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::sequential::sequential_ssd;
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::stats::chi2_gof_ok;
use stratmr::sampling::to_input_splits;

const MACHINES: usize = 5;
const SPLITS: usize = 10;
const METHODS: [&str; 3] = ["sequential oracle", "MR-SQE", "MR-MQE"];

/// Bins whose expectation is below this are pooled, so that the
/// chi-square approximation holds.
const MIN_EXPECTED: f64 = 5.0;

fn differential_check(population: usize, seeds: u64) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(population, 11);
    let fy = DblpGenerator::schema().attr_id("fy").unwrap();
    let splits = to_input_splits(&data.distribute(MACHINES, SPLITS, Placement::SortedBy(fy)));
    let queries = &queries(data.tuples());

    // members[i][k][j]: individuals of query i's stratum k in split j
    let zeros: Vec<Vec<Vec<u64>>> = queries
        .iter()
        .map(|q| vec![vec![0; splits.len()]; q.len()])
        .collect();
    let mut members = zeros.clone();
    let mut split_of = HashMap::new();
    for (j, split) in splits.iter().enumerate() {
        for t in &split.records {
            split_of.insert(t.id, j);
            for (i, q) in queries.iter().enumerate() {
                if let Some(k) = q.matching_stratum(t) {
                    members[i][k][j] += 1;
                }
            }
        }
    }

    // inclusions[m][i][k][j]: method m's inclusions from split j
    let mut inclusions = vec![zeros; METHODS.len()];
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    let cluster = Cluster::new(MACHINES);
    for seed in 0..seeds {
        let mqe = try_mr_mqe_on_splits(&cluster, &splits, queries, None, seed).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let oracle = sequential_ssd(data.tuples(), q, seed);
            let sqe = try_mr_sqe_on_splits(&cluster, &splits, q, seed).unwrap();
            let oracle_sizes: Vec<usize> = (0..q.len()).map(|k| oracle.stratum(k).len()).collect();
            if seed == 0 {
                sizes.push(oracle_sizes.clone());
            }
            assert_eq!(oracle_sizes, sizes[i], "oracle sizes moved at seed {seed}");
            let answers: [&SsdAnswer; 3] = [&oracle, &sqe.answer, mqe.answer.answer(i)];
            for (m, answer) in answers.into_iter().enumerate() {
                for (k, &size) in oracle_sizes.iter().enumerate() {
                    let sample = answer.stratum(k);
                    assert_eq!(
                        sample.len(),
                        size,
                        "{} drew {} from stratum {k} of query {i} at seed {seed}; the oracle drew {size}",
                        METHODS[m],
                        sample.len()
                    );
                    for t in sample {
                        inclusions[m][i][k][split_of[&t.id]] += 1;
                    }
                }
            }
        }
    }

    let mut fitted = 0;
    for (i, query_members) in members.iter().enumerate() {
        for (k, in_split) in query_members.iter().enumerate() {
            let n_k: u64 = in_split.iter().sum();
            if n_k == 0 {
                continue;
            }
            let drawn = (sizes[i][k] as u64 * seeds) as f64;
            let expected: Vec<f64> = in_split
                .iter()
                .map(|&m_j| m_j as f64 * drawn / n_k as f64)
                .collect();
            for (m, method) in METHODS.iter().enumerate() {
                let (observed, expected) = pooled(&inclusions[m][i][k], &expected);
                if observed.len() < 2 {
                    continue;
                }
                assert!(
                    chi2_gof_ok(&observed, &expected),
                    "{method}: inclusions of stratum {k} of query {i} do not fit its split \
                     shares: observed {observed:?}, expected {expected:?}"
                );
                fitted += 1;
            }
        }
    }
    assert!(
        fitted >= METHODS.len() * 8,
        "only {fitted} stratum fits had two or more bins; the check is too weak"
    );
}

/// Three SSDs: `fy` quartiles (the placement's sort key, so each stratum
/// lives on a few splits in unequal shares); `ndcc` × `ly` halves (spread
/// over every split); `accpp` tertiles plus a `cc` tail that holds fewer
/// individuals than it asks for.
fn queries(tuples: &[Individual]) -> Vec<SsdQuery> {
    let schema = DblpGenerator::schema();
    let attr = |name| schema.attr_id(name).unwrap();
    let (fy, ndcc, ly, accpp, cc) = (
        attr("fy"),
        attr("ndcc"),
        attr("ly"),
        attr("accpp"),
        attr("cc"),
    );
    let cuts = |a, parts| quantile_cuts(tuples, a, parts);
    let ranges = |a, parts| {
        let mut bounds = vec![i64::MIN];
        bounds.extend(cuts(a, parts));
        bounds.push(i64::MAX);
        bounds
            .windows(2)
            .map(|w| Formula::ge(a, w[0]).and(Formula::lt(a, w[1])))
            .collect::<Vec<_>>()
    };
    let ssd = |strata: Vec<(Formula, usize)>| {
        SsdQuery::new(
            strata
                .into_iter()
                .map(|(f, n)| StratumConstraint::new(f, n))
                .collect(),
        )
    };
    let fy_q = ranges(fy, 4);
    let ndcc_h = ranges(ndcc, 2);
    let ly_h = ranges(ly, 2);
    let accpp_t = ranges(accpp, 3);
    let cc_tail = *cuts(cc, 1000).last().unwrap();
    vec![
        ssd(fy_q.into_iter().zip([4, 8, 16, 32]).collect()),
        ssd(vec![
            (ndcc_h[0].clone().and(ly_h[0].clone()), 10),
            (ndcc_h[0].clone().and(ly_h[1].clone()), 5),
            (ndcc_h[1].clone().and(ly_h[0].clone()), 20),
            (ndcc_h[1].clone().and(ly_h[1].clone()), 15),
        ]),
        ssd(vec![
            (accpp_t[0].clone().and(Formula::lt(cc, cc_tail)), 6),
            (accpp_t[1].clone().and(Formula::lt(cc, cc_tail)), 12),
            (accpp_t[2].clone().and(Formula::lt(cc, cc_tail)), 3),
            (Formula::ge(cc, cc_tail), 10_000),
        ]),
    ]
}

/// The values of `attr` at the `1/parts, 2/parts, …` quantiles.
fn quantile_cuts(tuples: &[Individual], attr: AttrId, parts: usize) -> Vec<i64> {
    let mut values: Vec<i64> = tuples.iter().map(|t| t.get(attr)).collect();
    values.sort_unstable();
    (1..parts)
        .map(|p| values[p * values.len() / parts])
        .collect()
}

/// Pool the bins expecting fewer than [`MIN_EXPECTED`] inclusions into one
/// bin, and fold that bin into the last one if it is still too small.
/// Splits holding no member of the stratum must have no inclusion.
fn pooled(observed: &[u64], expected: &[f64]) -> (Vec<u64>, Vec<f64>) {
    let (mut obs, mut exp) = (Vec::new(), Vec::new());
    let (mut rest_obs, mut rest_exp) = (0u64, 0.0f64);
    for (&o, &e) in observed.iter().zip(expected) {
        if e == 0.0 {
            assert_eq!(o, 0, "inclusion from a split with no member of the stratum");
        } else if e >= MIN_EXPECTED {
            obs.push(o);
            exp.push(e);
        } else {
            rest_obs += o;
            rest_exp += e;
        }
    }
    if rest_exp > 0.0 {
        match (obs.last_mut(), exp.last_mut()) {
            (Some(o), Some(e)) if rest_exp < MIN_EXPECTED => {
                *o += rest_obs;
                *e += rest_exp;
            }
            _ => {
                obs.push(rest_obs);
                exp.push(rest_exp);
            }
        }
    }
    (obs, exp)
}

#[test]
fn mr_samplers_match_the_sequential_oracle() {
    differential_check(4_000, 50);
}

#[test]
#[ignore = "release-mode scale run: cargo test --release --test oracle -- --ignored"]
fn mr_samplers_match_the_sequential_oracle_at_100k() {
    differential_check(100_000, 400);
}
