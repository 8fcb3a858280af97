//! Surveying a synthetic social network: stratify on *network position*
//! (degree), sample with MR-SQE, and estimate graph statistics from the
//! tiny sample.
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use stratmr::mapreduce::Cluster;
use stratmr::population::graph::SocialGraph;
use stratmr::population::Placement;
use stratmr::query::{design_ssd, Allocation, Formula};
use stratmr::sampling::estimate::{srs_mean, stratified_mean};
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::srs::try_mr_srs_on_splits;
use stratmr::sampling::to_input_splits;

fn main() {
    // a 100k-member social network with preferential attachment
    let graph = SocialGraph::generate_ba(100_000, 5, 2024);
    let population = graph.to_population(100_000);
    let schema = population.schema().clone();
    let degree = schema.attr_id("degree").unwrap();
    let true_mean_degree = 2.0 * graph.num_edges() as f64 / graph.len() as f64;
    println!(
        "network: {} members, {} friendships, mean degree {:.2}",
        graph.len(),
        graph.num_edges(),
        true_mean_degree
    );

    // strata by connectivity: members / connectors / hubs
    let strata = vec![
        Formula::le(degree, 10),
        Formula::between(degree, 11, 99),
        Formula::ge(degree, 100),
    ];
    let names = [
        "members (deg ≤ 10)",
        "connectors (11-99)",
        "hubs (deg ≥ 100)",
    ];
    let sizes: Vec<usize> = strata
        .iter()
        .map(|f| population.tuples().iter().filter(|t| f.eval(t)).count())
        .collect();
    for (name, n) in names.iter().zip(&sizes) {
        println!("  {name:<22} {n:>7} members");
    }

    // Neyman allocation: hubs are few but high-variance, so they get a
    // disproportionate share of the 400 interviews
    let query = design_ssd(strata, 400, Allocation::Neyman(degree), population.tuples());
    println!("\nNeyman allocation of 400 interviews:");
    for (k, s) in query.constraints().iter().enumerate() {
        println!("  {:<22} {:>5}", names[k], s.frequency);
    }

    let splits = to_input_splits(&population.distribute(10, 40, Placement::RoundRobin));
    let cluster = Cluster::new(10);
    let run = try_mr_sqe_on_splits(&cluster, &splits, &query, 7)
        .expect("a fault-free cluster completes every job");
    assert!(run.answer.satisfies(&query));

    let stratum_sizes: Vec<usize> = query
        .constraints()
        .iter()
        .map(|s| population.tuples().iter().filter(|t| s.matches(t)).count())
        .collect();
    let strat_est = stratified_mean(&run.answer, &stratum_sizes, degree);
    let (lo, hi) = strat_est.interval(1.96);
    println!(
        "\nstratified estimate of mean degree: {:.2} ± {:.2}  (95% CI [{lo:.2}, {hi:.2}]; truth {true_mean_degree:.2})",
        strat_est.value,
        1.96 * strat_est.std_error
    );

    // same budget, simple random sample — noisier on this heavy-tailed
    // attribute (the Example 1 phenomenon)
    let (srs_sample, _) = try_mr_srs_on_splits(&cluster, &splits, 400, 7)
        .expect("a fault-free cluster completes every job");
    let srs_est = srs_mean(&srs_sample, population.len(), degree);
    println!(
        "simple-random estimate          : {:.2} ± {:.2}",
        srs_est.value,
        1.96 * srs_est.std_error
    );
    println!(
        "\ndesign effect (SRS var / stratified var): {:.1}× — stratification \
         buys the same precision with a far smaller survey",
        (srs_est.std_error / strat_est.std_error).powi(2)
    );
}
