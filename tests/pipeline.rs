//! End-to-end pipeline tests over the full stack: synthetic DBLP
//! population → §6.1.2 query groups → MR-MQE / MR-CPS → answer
//! invariants.

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::uniform::generate_uniform;
use stratmr::population::Placement;
use stratmr::query::{GroupSpec, QueryGenerator};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::to_input_splits;

#[test]
fn small_group_end_to_end() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(10_000, 3);
    let dist = data.distribute(5, 10, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(5);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 100, data.tuples(), 17);

    let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, 5).unwrap();
    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 5).unwrap();

    // every survey gets exactly its requested per-stratum counts, for
    // both algorithms (population is large enough for proportional
    // allocation to be satisfiable)
    for (i, q) in mssd.queries().iter().enumerate() {
        assert!(mqe.answer.answer(i).satisfies(q), "MQE misses query {i}");
        assert!(cps.answer.answer(i).satisfies(q), "CPS misses query {i}");
    }
    // the optimizer can only help
    let mqe_cost = mqe.answer.cost(mssd.costs());
    assert!(
        cps.cost <= mqe_cost + 1e-9,
        "CPS (${}) worse than MQE (${mqe_cost})",
        cps.cost
    );
    // the realized cost is bounded below by the LP objective
    assert!(cps.solver_objective <= cps.cost + 1e-6);
    // residuals stay a small fraction (paper: ≤ 5.5%)
    let residual_frac =
        cps.residual_selections as f64 / cps.answer.total_selections().max(1) as f64;
    assert!(
        residual_frac < 0.25,
        "residual fraction suspiciously high: {residual_frac}"
    );
}

#[test]
fn medium_group_sharing_statistics() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(12_000, 4);
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::MEDIUM, 80, data.tuples(), 23);

    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 9).unwrap();
    let hist = cps.answer.sharing_histogram(mssd.len());
    assert_eq!(hist.len(), 6);
    let unique: usize = hist.iter().sum();
    assert_eq!(unique, cps.answer.unique_individuals());
    // weighted degrees must sum to total selections
    let weighted: usize = hist.iter().enumerate().map(|(i, &c)| (i + 1) * c).sum();
    assert_eq!(weighted, cps.answer.total_selections());
    // CPS should achieve nontrivial sharing on overlapping surveys
    let shared: usize = hist.iter().skip(1).sum();
    assert!(shared > 0, "no sharing at all is implausible: {hist:?}");
}

#[test]
fn uniform_dataset_pipeline_works_too() {
    // §6.2.1's synthetic-uniform rerun
    let data = generate_uniform(8_000, 9, 100);
    let dist = data.distribute(3, 6, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(3);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 60, data.tuples(), 31);

    let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, 2).unwrap();
    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 2).unwrap();
    for (i, q) in mssd.queries().iter().enumerate() {
        assert!(cps.answer.answer(i).satisfies(q), "query {i}");
    }
    assert!(cps.cost <= mqe.answer.cost(mssd.costs()) + 1e-9);
}

#[test]
fn skewed_placement_does_not_change_satisfaction() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(6_000, 8);
    let schema = DblpGenerator::schema();
    let fy = schema.attr_id("fy").unwrap();
    // all early authors on machine 0 — maximal skew
    let dist = data.distribute(4, 8, Placement::SortedBy(fy));
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(4);
    let qgen = QueryGenerator::new(schema);
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 50, data.tuples(), 44);
    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 3).unwrap();
    for (i, q) in mssd.queries().iter().enumerate() {
        assert!(cps.answer.answer(i).satisfies(q), "query {i} under skew");
    }
}

#[test]
fn ip_solver_end_to_end_on_small_group() {
    let data = DblpGenerator::new(DblpConfig::default()).generate(5_000, 5);
    let dist = data.distribute(2, 4, Placement::RoundRobin);
    let splits = to_input_splits(&dist);
    let cluster = Cluster::new(2);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 40, data.tuples(), 12);

    let lp = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 6).unwrap();
    let ip = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::exact(), 6).unwrap();
    // §6.2.2 ordering: C_LP ≤ C_IP ≤ C_A(ip-run)
    assert!(lp.solver_objective <= ip.solver_objective + 1e-6);
    assert!(ip.solver_objective <= ip.cost + 1e-6);
    assert_eq!(ip.residual_selections, 0);
    assert!(ip.answer.satisfies(&mssd));
}
