//! Property tests for the formula algebra: random formula trees must
//! evaluate without panicking, respect Boolean identities, and survive a
//! display → parse round trip where the syntax allows it. SSD stratum
//! matching must agree with evaluating the strata's formulas in order.

use proptest::prelude::*;
use stratmr_population::{AttrDef, AttrId, Individual, Schema};
use stratmr_query::{parse_formula, CmpOp, Formula, SsdQuery, StratumConstraint};

fn schema() -> Schema {
    Schema::new(vec![
        AttrDef::numeric("a", -100, 100),
        AttrDef::numeric("b", -100, 100),
        AttrDef::numeric("c", -100, 100),
    ])
}

/// Strategy for arbitrary formulas over 3 numeric attributes.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = (0u16..3, 0usize..6, -100i64..=100).prop_map(|(attr, op, v)| {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][op];
        Formula::Atom(AttrId(attr), op, v)
    });
    let range = (0u16..3, -100i64..=100, -100i64..=100)
        .prop_map(|(attr, lo, hi)| Formula::between(AttrId(attr), lo.min(hi), lo.max(hi)));
    let leaf = prop_oneof![
        atom,
        range,
        Just(Formula::tautology()),
        Just(Formula::contradiction()),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Formula::not),
        ]
    })
}

fn tuple_strategy() -> impl Strategy<Value = Individual> {
    prop::collection::vec(-100i64..=100, 3).prop_map(|vals| Individual::new(0, vals, 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Double negation is the identity under evaluation.
    #[test]
    fn double_negation(f in formula_strategy(), t in tuple_strategy()) {
        let ff = f.clone().not().not();
        prop_assert_eq!(f.eval(&t), ff.eval(&t));
    }

    /// De Morgan: ¬(a ∧ b) ≡ ¬a ∨ ¬b and ¬(a ∨ b) ≡ ¬a ∧ ¬b.
    #[test]
    fn de_morgan(
        a in formula_strategy(),
        b in formula_strategy(),
        t in tuple_strategy(),
    ) {
        let lhs = a.clone().and(b.clone()).not();
        let rhs = a.clone().not().or(b.clone().not());
        prop_assert_eq!(lhs.eval(&t), rhs.eval(&t));
        let lhs2 = a.clone().or(b.clone()).not();
        let rhs2 = a.not().and(b.not());
        prop_assert_eq!(lhs2.eval(&t), rhs2.eval(&t));
    }

    /// Conjunction/disjunction with constants behave like identities.
    #[test]
    fn constant_identities(f in formula_strategy(), t in tuple_strategy()) {
        prop_assert_eq!(f.clone().and(Formula::tautology()).eval(&t), f.eval(&t));
        prop_assert_eq!(f.clone().or(Formula::contradiction()).eval(&t), f.eval(&t));
        prop_assert!(!f.clone().and(Formula::contradiction()).eval(&t));
        prop_assert!(f.clone().or(Formula::tautology()).eval(&t));
        // excluded middle
        prop_assert!(f.clone().or(f.clone().not()).eval(&t));
        prop_assert!(!f.clone().and(f.not()).eval(&t));
    }

    /// simplify() is evaluation-equivalent on arbitrary trees.
    #[test]
    fn simplify_preserves_semantics(f in formula_strategy(), t in tuple_strategy()) {
        prop_assert_eq!(f.clone().simplify().eval(&t), f.eval(&t));
        // idempotent
        let once = f.clone().simplify();
        prop_assert_eq!(once.clone().simplify(), once);
    }

    /// Displaying a formula and re-parsing it preserves semantics.
    /// (`InRange` displays as `lo ≤ attr ≤ hi`, which the parser does not
    /// accept, so the strategy here is atoms/and/or/not only.)
    #[test]
    fn display_parse_round_trip(
        ops in prop::collection::vec((0u16..3, 0usize..6, -100i64..=100), 1..5),
        t in tuple_strategy(),
    ) {
        let s = schema();
        let mut f = Formula::tautology();
        for (attr, op, v) in ops {
            let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][op];
            f = f.and(Formula::Atom(AttrId(attr), op, v));
        }
        let text = f
            .display(&s)
            .to_string()
            .replace('∧', "&&")
            .replace('∨', "||")
            .replace('≤', "<=")
            .replace('≥', ">=")
            .replace('≠', "!=")
            .replace('¬', "!")
            .replace('⊤', "true")
            .replace('⊥', "false");
        let parsed = parse_formula(&text, &s)
            .unwrap_or_else(|e| panic!("cannot re-parse {text:?}: {e}"));
        prop_assert_eq!(parsed.eval(&t), f.eval(&t), "{}", text);
    }
}

proptest! {
    // about 4 in 10 generated queries compile to a range table, and a
    // compiled `<` or `>` bound is rarer still, so this property needs
    // more cases than the algebra above to reach each kind of row
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `matching_stratum` is the first stratum whose formula holds,
    /// whether the query's strata compile to a range table (conjunctions
    /// of ranges and comparisons) or fall back to formula evaluation.
    /// Besides a random tuple, every tuple that puts one attribute on a
    /// constant of the strata or next to it is checked, since off-by-one
    /// bounds show only there.
    #[test]
    fn matching_stratum_is_the_first_satisfied_stratum(
        strata in prop::collection::vec(formula_strategy(), 1..5),
        t in tuple_strategy(),
    ) {
        let q = SsdQuery::new(
            strata.into_iter().map(|f| StratumConstraint::new(f, 1)).collect(),
        );
        let mut edges = Vec::new();
        for s in q.constraints() {
            constants(&s.formula, &mut edges);
        }
        let mut probes = vec![t.clone()];
        for c in edges {
            for v in [c - 1, c, c + 1] {
                for attr in 0..t.arity() {
                    let mut values = t.values().to_vec();
                    values[attr] = v;
                    probes.push(Individual::new(0, values, 0));
                }
            }
        }
        for p in &probes {
            let want = q.constraints().iter().position(|s| s.formula.eval(p));
            prop_assert_eq!(q.matching_stratum(p), want, "{:?}", p.values());
        }
    }
}

/// Every constant `f` compares an attribute with.
fn constants(f: &Formula, out: &mut Vec<i64>) {
    match f {
        Formula::Atom(_, _, c) => out.push(*c),
        Formula::InRange(_, lo, hi) => out.extend([*lo, *hi]),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| constants(g, out)),
        Formula::Not(g) => constants(g, out),
        Formula::Const(_) => {}
    }
}
