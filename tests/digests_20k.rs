//! Fixed-seed answer digests at 20,000 individuals, ten times the
//! bench-suite scale: MR-MQE and MR-CPS over one Medium and one Small
//! query group of a DBLP-like population. The expected digests were
//! recorded before the combiner became a per-task fold and before
//! stratum matching used compiled range tables. A change to the engine, the
//! combiner or stratum matching that keeps every answer bit-identical
//! keeps these digests; any other change to which individuals are
//! sampled moves them.

use stratmr::mapreduce::Cluster;
use stratmr::population::dblp::{DblpConfig, DblpGenerator};
use stratmr::population::Placement;
use stratmr::query::{GroupSpec, MssdAnswer, QueryGenerator};
use stratmr::sampling::cps::{try_mr_cps_on_splits, CpsConfig};
use stratmr::sampling::mqe::try_mr_mqe_on_splits;
use stratmr::sampling::to_input_splits;

/// FNV-1a over each survey's strata, stratum by stratum, with each
/// stratum's sampled ids in sorted order (so the digest names the set
/// selected, not the order the reducer produced it in).
fn answer_digest(answer: &MssdAnswer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, a) in answer.answers().iter().enumerate() {
        for k in 0..a.num_strata() {
            let mut ids: Vec<u64> = a.stratum(k).iter().map(|t| t.id).collect();
            ids.sort_unstable();
            feed(i as u64);
            feed(k as u64);
            feed(ids.len() as u64);
            ids.into_iter().for_each(&mut feed);
        }
    }
    h
}

/// `(MR-MQE digest, MR-CPS digest, CPS residual selections)` for one
/// generated group of `spec`.
fn digests(spec: &GroupSpec, group_seed: u64) -> (u64, u64, usize) {
    let data = DblpGenerator::new(DblpConfig::default()).generate(20_000, 11);
    let splits = to_input_splits(&data.distribute(5, 20, Placement::RoundRobin));
    let cluster = Cluster::new(5);
    let mssd = QueryGenerator::new(DblpGenerator::schema()).generate_paper_group_on(
        spec,
        200,
        data.tuples(),
        group_seed,
    );
    let mqe = try_mr_mqe_on_splits(&cluster, &splits, mssd.queries(), None, 7).unwrap();
    let cps = try_mr_cps_on_splits(&cluster, &splits, &mssd, CpsConfig::mr_cps(), 7).unwrap();
    assert!(
        mqe.answer.satisfies(&mssd),
        "MR-MQE answer misses the design"
    );
    assert!(
        cps.answer.satisfies(&mssd),
        "MR-CPS answer misses the design"
    );
    (
        answer_digest(&mqe.answer),
        answer_digest(&cps.answer),
        cps.residual_selections,
    )
}

#[test]
fn medium_group_answers_are_pinned() {
    let (mqe, cps, residual) = digests(&GroupSpec::MEDIUM, 1);
    // this group's LP rounding leaves deficits, so the pinned CPS answer
    // covers the residual MR-MQE phase too
    assert!(
        residual > 0,
        "the group no longer exercises CPS's residual phase"
    );
    assert_eq!(
        (format!("{mqe:016x}"), format!("{cps:016x}")),
        (
            "a6ea5fb61dc8b9c8".to_string(),
            "a8f00bc6bd4b28a8".to_string()
        )
    );
}

#[test]
fn small_group_answers_are_pinned() {
    let (mqe, cps, _) = digests(&GroupSpec::SMALL, 1);
    assert_eq!(
        (format!("{mqe:016x}"), format!("{cps:016x}")),
        (
            "048f775049b2d9e4".to_string(),
            "72e5a5ba08981321".to_string()
        )
    );
}
