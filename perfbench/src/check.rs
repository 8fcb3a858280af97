//! Correctness of one answered MSSD query, and the self-test that shows
//! the check rejects corrupted answers.

use std::collections::HashSet;
use stratmr_query::{MssdAnswer, MssdQuery};

/// The first way `answer` fails to answer `group`, if any.
///
/// Every SSD answer must hold exactly `f_k` individuals in stratum `k`,
/// each matching the stratum it is filed under, with no id twice in one
/// survey. With `cps`, the realised cost `C_A` (`costs.0`) must also not
/// exceed the same answer's cost without sharing (`costs.1`).
pub fn check(
    answer: &MssdAnswer,
    group: &MssdQuery,
    cps: bool,
    costs: (f64, f64),
) -> Result<(), String> {
    if answer.len() != group.len() {
        return Err(format!(
            "{} SSD answers for {} SSDs",
            answer.len(),
            group.len()
        ));
    }
    for (i, (a, q)) in answer.answers().iter().zip(group.queries()).enumerate() {
        if a.num_strata() != q.len() {
            return Err(format!(
                "SSD {i}: {} strata answered, {} asked",
                a.num_strata(),
                q.len()
            ));
        }
        let mut ids = HashSet::new();
        for (k, s) in q.constraints().iter().enumerate() {
            let got = a.stratum(k);
            if got.len() != s.frequency {
                return Err(format!(
                    "SSD {i} stratum {k}: {} sampled, {} requested",
                    got.len(),
                    s.frequency
                ));
            }
            for t in got {
                if !s.matches(t) {
                    return Err(format!(
                        "SSD {i}: individual {} does not match stratum {k}",
                        t.id
                    ));
                }
                if !ids.insert(t.id) {
                    return Err(format!("SSD {i}: individual {} sampled twice", t.id));
                }
            }
        }
    }
    if !answer.satisfies(group) {
        return Err("MssdAnswer::satisfies rejects the answer".to_string());
    }
    if cps && costs.0 > costs.1 * (1.0 + 1e-12) {
        return Err(format!(
            "C_A {} exceeds the unshared cost {}",
            costs.0, costs.1
        ));
    }
    Ok(())
}

/// Corruptions of a correct answer the check must reject: one tuple of
/// SSD 0 moved to another stratum, and two tuples of SSD 0 swapped
/// between strata (stratum sizes unchanged, so only the membership test
/// can catch it).
fn corruptions(answer: &MssdAnswer) -> Vec<(&'static str, MssdAnswer)> {
    let ssd = &answer.answers()[0];
    let filled: Vec<usize> = (0..ssd.num_strata())
        .filter(|&k| !ssd.stratum(k).is_empty())
        .collect();
    assert!(
        filled.len() >= 2,
        "self-test needs two non-empty strata in SSD 0"
    );
    let (k, j) = (filled[0], filled[1]);

    let with_ssd0 = |ssd0| {
        let mut all = answer.answers().to_vec();
        all[0] = ssd0;
        MssdAnswer::new(all)
    };
    let mut moved = ssd.clone();
    let t = moved.stratum_mut(k).pop().expect("stratum is non-empty");
    moved.stratum_mut(j).push(t);

    let mut swapped = ssd.clone();
    let a = swapped.stratum_mut(k).pop().expect("stratum is non-empty");
    let b = swapped.stratum_mut(j).pop().expect("stratum is non-empty");
    swapped.stratum_mut(k).push(b);
    swapped.stratum_mut(j).push(a);

    vec![
        ("one tuple moved to another stratum", with_ssd0(moved)),
        ("two tuples swapped between strata", with_ssd0(swapped)),
    ]
}

/// Run [`check`] on every corruption of a correct `answer` whose costs
/// are `costs`, and, with `cps`, on the answer with a realised cost
/// above the unshared cost; an error names the corruption the check let
/// through.
pub fn self_test(
    answer: &MssdAnswer,
    group: &MssdQuery,
    cps: bool,
    costs: (f64, f64),
) -> Result<(), String> {
    check(answer, group, cps, costs)
        .map_err(|e| format!("self-test needs a correct answer: {e}"))?;
    for (what, bad) in corruptions(answer) {
        if check(&bad, group, cps, costs).is_ok() {
            return Err(format!("check accepted a corrupted answer ({what})"));
        }
    }
    let overpriced = (costs.1 * 1.01 + 1.0, costs.1);
    if cps && check(answer, group, cps, overpriced).is_ok() {
        return Err("check accepted C_A above the unshared cost".to_string());
    }
    Ok(())
}
