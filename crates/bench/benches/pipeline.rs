//! End-to-end benchmarks: whole MapReduce sampling jobs on a synthetic
//! population (real execution time on this host, not the simulated
//! cluster clock).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;
use stratmr_mapreduce::Cluster;
use stratmr_population::dblp::{DblpConfig, DblpGenerator};
use stratmr_population::{Individual, Placement};
use stratmr_query::{GroupSpec, QueryGenerator};
use stratmr_sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr_sampling::mqe::try_mr_mqe_on_splits;
use stratmr_sampling::sqe::try_mr_sqe_on_splits;
use stratmr_sampling::to_input_splits;

struct Env {
    splits: Vec<stratmr_mapreduce::InputSplit<Individual>>,
    cluster: Cluster,
    tuples: Vec<Individual>,
}

fn env(pop: usize) -> Env {
    let data = DblpGenerator::new(DblpConfig::default()).generate(pop, 11);
    let dist = data.distribute(4, 8, Placement::RoundRobin);
    Env {
        splits: to_input_splits(&dist),
        cluster: Cluster::new(4),
        tuples: data.into_tuples(),
    }
}

fn bench_sqe(c: &mut Criterion) {
    let e = env(20_000);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mut rng = rand::SeedableRng::seed_from_u64(5);
    let query = qgen.generate_ssd_proportional(&GroupSpec::SMALL, 100, &e.tuples, &mut rng);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("mr_sqe_small_20k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(try_mr_sqe_on_splits(&e.cluster, &e.splits, &query, seed).unwrap())
        })
    });
    group.finish();
}

fn bench_mqe_and_cps(c: &mut Criterion) {
    let e = env(20_000);
    let qgen = QueryGenerator::new(DblpGenerator::schema());
    let mssd = qgen.generate_paper_group_on(&GroupSpec::SMALL, 100, &e.tuples, 7);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("mr_mqe_small_20k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                try_mr_mqe_on_splits(&e.cluster, &e.splits, mssd.queries(), None, seed)
                    .expect("bench MR-MQE jobs meet no unrecoverable fault"),
            )
        })
    });
    group.bench_function("mr_cps_small_20k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(
                try_mr_cps_on_splits(&e.cluster, &e.splits, &mssd, CpsConfig::mr_cps(), seed)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .without_plots()
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(3));
    targets = bench_sqe, bench_mqe_and_cps);
criterion_main!(benches);
