//! End-to-end over a synthetic *social network*: stratify on structural
//! attributes (degree) and estimate graph statistics from the sample —
//! the paper's §3.1 note that properties "may relate to edges of the
//! network, such as … the number of neighbors of an individual".

use stratmr::mapreduce::Cluster;
use stratmr::population::graph::SocialGraph;
use stratmr::population::Placement;
use stratmr::query::{design_ssd, Allocation, Formula};
use stratmr::sampling::estimate::{stratified_mean, stratified_proportion};
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::to_input_splits;

#[test]
fn degree_stratified_survey_over_a_social_graph() {
    let graph = SocialGraph::generate_ba(20_000, 4, 99);
    let population = graph.to_population(50_000);
    let schema = population.schema().clone();
    let degree = schema.attr_id("degree").unwrap();

    // stratify users into ordinary members, connectors and hubs —
    // hubs are rare but behaviourally distinct, the Example 1 situation
    let strata = vec![
        Formula::le(degree, 8),
        Formula::between(degree, 9, 49),
        Formula::ge(degree, 50),
    ];
    let query = design_ssd(
        strata.clone(),
        300,
        Allocation::Proportional,
        population.tuples(),
    );
    assert!(query
        .validate_satisfiable(population.tuples().iter())
        .is_ok());

    let stratum_sizes: Vec<usize> = query
        .constraints()
        .iter()
        .map(|s| population.tuples().iter().filter(|t| s.matches(t)).count())
        .collect();

    let splits = to_input_splits(&population.distribute(8, 16, Placement::RoundRobin));
    let run = try_mr_sqe_on_splits(&Cluster::new(8), &splits, &query, 5).unwrap();
    assert!(run.answer.satisfies(&query));

    // estimate the mean degree from the sample; must agree with the
    // graph's true mean degree (2m fringe effects aside)
    let truth = 2.0 * graph.num_edges() as f64 / graph.len() as f64;
    let est = stratified_mean(&run.answer, &stratum_sizes, degree);
    let (lo, hi) = est.interval(4.0);
    assert!(
        lo <= truth && truth <= hi,
        "true mean degree {truth} outside [{lo}, {hi}]"
    );

    // estimate the triangle-rich fraction
    let triangles = schema.attr_id("triangles").unwrap();
    let true_frac = population
        .tuples()
        .iter()
        .filter(|t| t.get(triangles) >= 10)
        .count() as f64
        / population.len() as f64;
    let est_frac = stratified_proportion(&run.answer, &stratum_sizes, |t| t.get(triangles) >= 10);
    assert!(
        (est_frac.value - true_frac).abs() < 5.0 * est_frac.std_error + 0.03,
        "estimated {est_frac:?} vs true {true_frac}"
    );
}

#[test]
fn hub_stratum_guarantees_rare_group_representation() {
    // with a simple random sample of 300 from 20k, hubs (say, top ~1%)
    // get ~3 seats in expectation and often fewer; a dedicated stratum
    // guarantees exactly the designed count
    let graph = SocialGraph::generate_ba(20_000, 4, 123);
    let population = graph.to_population(1_000);
    let schema = population.schema().clone();
    let degree = schema.attr_id("degree").unwrap();
    let hubs = population
        .tuples()
        .iter()
        .filter(|t| t.get(degree) >= 50)
        .count();
    assert!(hubs >= 30, "graph should have hubs, found {hubs}");

    let query = stratmr::query::SsdQuery::new(vec![
        stratmr::query::StratumConstraint::new(Formula::lt(degree, 50), 270),
        stratmr::query::StratumConstraint::new(Formula::ge(degree, 50), 30.min(hubs)),
    ]);
    let splits = to_input_splits(&population.distribute(4, 8, Placement::RoundRobin));
    let run = try_mr_sqe_on_splits(&Cluster::new(4), &splits, &query, 9).unwrap();
    assert_eq!(run.answer.stratum(1).len(), 30.min(hubs));
    assert!(run.answer.stratum(1).iter().all(|t| t.get(degree) >= 50));
}
