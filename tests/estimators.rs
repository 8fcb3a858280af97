//! Statistical behaviour of the estimators over real sampler output:
//! error scaling, coverage, and design-effect claims.

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{design_ssd, Allocation, Formula};
use stratmr::sampling::estimate::stratified_mean;
use stratmr::sampling::sqe::try_mr_sqe_on_splits;
use stratmr::sampling::to_input_splits;

/// Standard errors must shrink roughly as 1/√n when the budget grows.
#[test]
fn standard_error_scales_with_sample_size() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(40_000, 11);
    let schema = data.schema().clone();
    let cc = schema.attr_id("cc").unwrap();
    let strata = vec![Formula::le(cc, 10), Formula::gt(cc, 10)];
    let sizes: Vec<usize> = strata
        .iter()
        .map(|f| data.tuples().iter().filter(|t| f.eval(t)).count())
        .collect();
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);

    let mut errors = Vec::new();
    for budget in [100usize, 400, 1600] {
        let q = design_ssd(
            strata.clone(),
            budget,
            Allocation::Proportional,
            data.tuples(),
        );
        let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 3).unwrap();
        let est = stratified_mean(&run.answer, &sizes, cc);
        errors.push(est.std_error);
    }
    // 4× the budget → roughly half the error (allow generous slack)
    assert!(
        errors[1] < errors[0] * 0.75,
        "100→400 should cut the error: {errors:?}"
    );
    assert!(
        errors[2] < errors[1] * 0.75,
        "400→1600 should cut the error: {errors:?}"
    );
}

/// Nominal coverage: across many independent samples, the 95% interval
/// should contain the truth in roughly 95% of runs (we accept ≥ 85% to
/// keep the test cheap and robust).
#[test]
fn confidence_intervals_cover_nominally() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(20_000, 13);
    let schema = data.schema().clone();
    // fy is bounded with mild tails, so the normal approximation is
    // trustworthy at this budget (heavy-tailed attributes like nop need
    // far larger tail-stratum samples for nominal coverage)
    let fy = schema.attr_id("fy").unwrap();
    let truth = data.tuples().iter().map(|t| t.get(fy) as f64).sum::<f64>() / data.len() as f64;
    let strata = vec![Formula::lt(fy, 2000), Formula::ge(fy, 2000)];
    let sizes: Vec<usize> = strata
        .iter()
        .map(|f| data.tuples().iter().filter(|t| f.eval(t)).count())
        .collect();
    let q = design_ssd(strata, 400, Allocation::Proportional, data.tuples());
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);

    let runs: u64 = 60;
    let covered = (0..runs)
        .filter(|&s| {
            let run = try_mr_sqe_on_splits(&cluster, &splits, &q, 1000 + s).unwrap();
            let est = stratified_mean(&run.answer, &sizes, fy);
            let (lo, hi) = est.interval(1.96);
            lo <= truth && truth <= hi
        })
        .count();
    assert!(
        covered as u64 * 100 >= runs * 85,
        "95% CI covered the truth only {covered}/{runs} times"
    );
}
