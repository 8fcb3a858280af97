//! Stratum matching through a compiled range table.
//!
//! Most strata are conjunctions of range predicates (the §6.1.2 query
//! groups are products of one subrange per attribute). Such a query's
//! strata compile to a flat table of inclusive `(attr, lo, hi)` rows,
//! one per conjunct, which [`SsdQuery::matching_stratum`] scans in
//! stratum order instead of walking each stratum's [`Formula`] tree; the
//! first stratum whose rows all hold wins, as with `Formula::eval`. A
//! query with any other stratum shape (`∨`, `¬`, `≠`) is not compiled
//! and keeps evaluating its formulas.
//!
//! [`SsdQuery::matching_stratum`]: crate::SsdQuery::matching_stratum

use crate::formula::{CmpOp, Formula};
use crate::ssd::{StratumConstraint, StratumId};

/// One conjunct: `lo ≤ values[attr] ≤ hi`.
type Row = (usize, i64, i64);

/// The compiled strata of one SSD query.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RangeTable {
    /// Every stratum's rows, stratum after stratum.
    rows: Vec<Row>,
    /// `(stratum, end of its rows in rows)`, in stratum order. Strata
    /// that no tuple can satisfy are left out.
    strata: Vec<(StratumId, usize)>,
}

impl RangeTable {
    /// Compile `constraints`, or `None` if some stratum is not a
    /// conjunction of ranges and comparisons other than `≠`.
    pub(crate) fn compile(constraints: &[StratumConstraint]) -> Option<Self> {
        let mut rows = Vec::new();
        let mut strata = Vec::new();
        for (k, s) in constraints.iter().enumerate() {
            let start = rows.len();
            if push_conjuncts(&s.formula, &mut rows)? {
                strata.push((k, rows.len()));
            } else {
                rows.truncate(start);
            }
        }
        Some(Self { rows, strata })
    }

    /// The first stratum whose rows all hold on `values`.
    #[inline]
    pub(crate) fn matching(&self, values: &[i64]) -> Option<StratumId> {
        let mut start = 0;
        for &(k, end) in &self.strata {
            let hit = self.rows[start..end].iter().all(|&(attr, lo, hi)| {
                let v = values[attr];
                lo <= v && v <= hi
            });
            if hit {
                return Some(k);
            }
            start = end;
        }
        None
    }
}

/// Append `f`'s conjuncts to `rows` as ranges. `None` when `f` is not a
/// conjunction of ranges; `Some(false)` when it can never hold.
fn push_conjuncts(f: &Formula, rows: &mut Vec<Row>) -> Option<bool> {
    let (attr, lo, hi) = match *f {
        Formula::Const(b) => return Some(b),
        Formula::And(ref fs) => {
            let mut satisfiable = true;
            for g in fs {
                satisfiable &= push_conjuncts(g, rows)?;
            }
            return Some(satisfiable);
        }
        Formula::InRange(attr, lo, hi) => (attr, lo, hi),
        Formula::Atom(attr, op, c) => match op {
            CmpOp::Eq => (attr, c, c),
            CmpOp::Le => (attr, i64::MIN, c),
            CmpOp::Ge => (attr, c, i64::MAX),
            // `< i64::MIN` and `> i64::MAX` hold for no value
            CmpOp::Lt => match c.checked_sub(1) {
                Some(hi) => (attr, i64::MIN, hi),
                None => return Some(false),
            },
            CmpOp::Gt => match c.checked_add(1) {
                Some(lo) => (attr, lo, i64::MAX),
                None => return Some(false),
            },
            CmpOp::Ne => return None,
        },
        Formula::Or(_) | Formula::Not(_) => return None,
    };
    if lo > hi {
        return Some(false);
    }
    rows.push((attr.index(), lo, hi));
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stratmr_population::{AttrId, Individual};

    const X: AttrId = AttrId(0);
    const Y: AttrId = AttrId(1);

    fn constraints(formulas: Vec<Formula>) -> Vec<StratumConstraint> {
        formulas
            .into_iter()
            .map(|f| StratumConstraint::new(f, 1))
            .collect()
    }

    /// The table answers exactly as evaluating the formulas in order.
    fn assert_agrees(cs: &[StratumConstraint], table: &RangeTable) {
        let probes = [
            i64::MIN,
            i64::MIN + 1,
            -7,
            -1,
            0,
            1,
            3,
            7,
            i64::MAX - 1,
            i64::MAX,
        ];
        for &x in &probes {
            for &y in &probes {
                let t = Individual::new(0, vec![x, y], 0);
                let want = cs.iter().position(|s| s.formula.eval(&t));
                assert_eq!(table.matching(t.values()), want, "x = {x}, y = {y}");
            }
        }
    }

    fn compiled(formulas: Vec<Formula>) -> (Vec<StratumConstraint>, RangeTable) {
        let cs = constraints(formulas);
        let table = RangeTable::compile(&cs).expect("conjunction of ranges compiles");
        assert_agrees(&cs, &table);
        (cs, table)
    }

    #[test]
    fn lt_min_and_gt_max_never_match() {
        let (_, table) = compiled(vec![
            Formula::lt(X, i64::MIN),
            Formula::gt(Y, i64::MAX),
            Formula::le(X, i64::MIN),
            Formula::ge(Y, i64::MAX),
        ]);
        // the two empty strata are dropped; the other two stay in order
        assert_eq!(table.strata.iter().map(|s| s.0).collect::<Vec<_>>(), [2, 3]);
        assert_eq!(table.matching(&[i64::MIN, 0]), Some(2));
        assert_eq!(table.matching(&[0, i64::MAX]), Some(3));
        assert_eq!(table.matching(&[0, 0]), None);
    }

    #[test]
    fn ne_falls_back_to_formula_evaluation() {
        let cs = constraints(vec![Formula::lt(X, 3), Formula::ne(Y, 1)]);
        assert_eq!(RangeTable::compile(&cs), None);
    }

    #[test]
    fn or_and_not_fall_back() {
        let or = constraints(vec![Formula::lt(X, 3).or(Formula::gt(Y, 1))]);
        assert_eq!(RangeTable::compile(&or), None);
        let not = constraints(vec![Formula::lt(X, 3).not()]);
        assert_eq!(RangeTable::compile(&not), None);
        // a fallback anywhere inside a conjunction spoils the stratum
        let nested = constraints(vec![Formula::And(vec![
            Formula::Const(false),
            Formula::ne(X, 0),
        ])]);
        assert_eq!(RangeTable::compile(&nested), None);
    }

    #[test]
    fn constants() {
        let (_, table) = compiled(vec![
            Formula::Const(false),
            Formula::And(vec![Formula::eq(X, 1), Formula::Const(false)]),
            Formula::Const(true),
            Formula::eq(X, 1),
        ]);
        // `true` has no rows and matches everything; later strata are
        // never reached
        assert_eq!(table.strata, [(2, 0), (3, 1)]);
        assert_eq!(table.matching(&[1, 0]), Some(2));
        assert_eq!(table.matching(&[5, 5]), Some(2));
    }

    #[test]
    fn nested_and_flattens_to_one_row_per_conjunct() {
        let (_, table) = compiled(vec![
            Formula::And(vec![
                Formula::ge(X, -1),
                Formula::And(vec![
                    Formula::lt(X, 7),
                    Formula::And(vec![Formula::between(Y, 0, 3), Formula::Const(true)]),
                ]),
            ]),
            Formula::And(vec![]),
        ]);
        assert_eq!(table.rows, [(0, -1, i64::MAX), (0, i64::MIN, 6), (1, 0, 3)]);
        assert_eq!(table.matching(&[6, 3]), Some(0));
        assert_eq!(table.matching(&[7, 3]), Some(1));
        assert_eq!(table.matching(&[-1, 4]), Some(1));
    }

    #[test]
    fn empty_range_never_matches() {
        let (_, table) = compiled(vec![Formula::between(X, 5, 4), Formula::eq(Y, 0)]);
        assert_eq!(table.strata, [(1, 1)]);
    }
}
