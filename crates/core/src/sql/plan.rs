//! The planner step of the executor: compile a conjunctive predicate
//! once per statement, and extract from it the primary-key bounds the
//! index cursor can answer itself.
//!
//! Push-down rules: every `pk = v`, `pk < v`, `pk <= v`, `pk > v`,
//! `pk >= v` condition tightens the bounds (`=` pins the key; several
//! conditions intersect); `pk <> v` and conditions on other columns do
//! not, and form the *residual* each row the cursor yields is tested
//! against ([`Filter::plan`]). The bounds enforce their conditions
//! exactly — a literal is coerced to the key column's type before it is
//! encoded, and memcomparable key bytes order like the values — so a row
//! that needs no residual test needs no decoding either.

use std::cmp::Ordering;

use immortaldb_common::{Error, Result};

use super::ast::{CmpOp, Predicate};
use crate::row::{PkBounds, Schema, Value};

/// A predicate resolved against a schema: column positions looked up and
/// literals coerced to the column types, once.
#[derive(Default)]
pub struct Filter(Vec<(usize, CmpOp, Value)>);

impl Filter {
    pub fn compile(schema: &Schema, predicate: &Predicate) -> Result<Filter> {
        predicate
            .iter()
            .map(|cond| {
                let idx = schema.col_index(&cond.column)?;
                let rhs = cond.value.coerce(schema.columns[idx].ctype)?;
                Ok((idx, cond.op, rhs))
            })
            .collect::<Result<_>>()
            .map(Filter)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn matches(&self, row: &[Value]) -> bool {
        self.0.iter().all(|(idx, op, rhs)| {
            // Same-typed after coercion, so always comparable.
            row[*idx].partial_cmp(rhs).is_some_and(|ord| op.eval(ord))
        })
    }

    /// The primary-key bounds this predicate implies.
    pub fn pk_bounds(&self, schema: &Schema) -> Result<PkBounds> {
        let mut bounds = PkBounds::all();
        for (idx, op, rhs) in &self.0 {
            if let Some((ord, inclusive)) = key_bound(schema, *idx, *op) {
                bounds.tighten(schema, ord, inclusive, rhs)?;
            }
        }
        Ok(bounds)
    }

    /// The primary-key bounds this predicate implies, and its residual:
    /// the conditions those bounds do not enforce, to be tested on each
    /// row the cursor yields.
    pub fn plan(self, schema: &Schema) -> Result<(PkBounds, Filter)> {
        let bounds = self.pk_bounds(schema)?;
        let residual = self
            .0
            .into_iter()
            .filter(|(idx, op, _)| key_bound(schema, *idx, *op).is_none())
            .collect();
        Ok((bounds, Filter(residual)))
    }

    /// Bounds of a predicate that must consist of primary-key bounds
    /// alone (`DIFF TABLE … WHERE`: there is no single row image to
    /// evaluate anything else against).
    pub fn pk_bounds_only(&self, schema: &Schema) -> Result<PkBounds> {
        if self
            .0
            .iter()
            .any(|(idx, op, _)| *idx != schema.pk || *op == CmpOp::Ne)
        {
            return Err(Error::Sql(
                "DIFF TABLE … WHERE takes only =, <, <=, >, >= on the primary key".into(),
            ));
        }
        self.pk_bounds(schema)
    }
}

/// How a condition on column `idx` bounds the primary key — the side
/// ([`PkBounds::tighten`]'s `ord`) and whether the value itself is in —
/// or `None` when it does not.
fn key_bound(schema: &Schema, idx: usize, op: CmpOp) -> Option<(Ordering, bool)> {
    if idx != schema.pk {
        return None;
    }
    match op {
        CmpOp::Eq => Some((Ordering::Equal, true)),
        CmpOp::Lt => Some((Ordering::Less, false)),
        CmpOp::Le => Some((Ordering::Less, true)),
        CmpOp::Gt => Some((Ordering::Greater, false)),
        CmpOp::Ge => Some((Ordering::Greater, true)),
        CmpOp::Ne => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{ColType, Column, Pushdown};
    use crate::sql::ast::Condition;

    fn schema() -> Schema {
        let col = |name: &str| Column {
            name: name.into(),
            ctype: ColType::Int,
        };
        Schema::new(vec![col("Oid"), col("X")], 0).unwrap()
    }

    fn cond(column: &str, op: CmpOp, v: i64) -> Condition {
        Condition {
            column: column.into(),
            op,
            value: Value::BigInt(v),
        }
    }

    fn key(v: i32) -> Vec<u8> {
        crate::row::encode_key(&Value::Int(v)).unwrap()
    }

    #[test]
    fn pk_conditions_become_bounds_and_the_rest_does_not() {
        let s = schema();
        let bounds = |p: &Predicate| Filter::compile(&s, p).unwrap().pk_bounds(&s).unwrap();
        assert_eq!(bounds(&vec![]).pushdown(), Pushdown::None);
        assert_eq!(
            bounds(&vec![cond("X", CmpOp::Eq, 1)]).pushdown(),
            Pushdown::None
        );
        assert_eq!(
            bounds(&vec![cond("oid", CmpOp::Ne, 1)]).pushdown(),
            Pushdown::None
        );
        let b = bounds(&vec![cond("X", CmpOp::Gt, 0), cond("OID", CmpOp::Eq, 7)]);
        assert_eq!(b.pushdown(), Pushdown::Point);
        assert_eq!(b.as_range().as_point(), Some(key(7).as_slice()));
        // Range conditions intersect; the tighter one wins on each side.
        let b = bounds(&vec![
            cond("Oid", CmpOp::Ge, 10),
            cond("Oid", CmpOp::Gt, 10),
            cond("Oid", CmpOp::Lt, 20),
            cond("Oid", CmpOp::Le, 25),
        ]);
        assert_eq!(b.pushdown(), Pushdown::Range);
        let r = b.as_range();
        assert!(!r.contains(&key(10)) && r.contains(&key(11)));
        assert!(r.contains(&key(19)) && !r.contains(&key(20)));
        // Negative keys order below positive ones in key bytes too.
        let r = bounds(&vec![cond("Oid", CmpOp::Lt, 0)]);
        assert!(r.as_range().contains(&key(-5)) && !r.as_range().contains(&key(0)));
    }

    #[test]
    fn the_residual_keeps_exactly_what_the_bounds_do_not_enforce() {
        let s = schema();
        let plan = |p: &Predicate| {
            let (bounds, residual) = Filter::compile(&s, p).unwrap().plan(&s).unwrap();
            (bounds.pushdown(), residual.0.len())
        };
        assert_eq!(plan(&vec![]), (Pushdown::None, 0));
        assert_eq!(plan(&vec![cond("Oid", CmpOp::Eq, 7)]), (Pushdown::Point, 0));
        assert_eq!(
            plan(&vec![cond("Oid", CmpOp::Ge, 1), cond("oid", CmpOp::Lt, 9)]),
            (Pushdown::Range, 0)
        );
        assert_eq!(plan(&vec![cond("Oid", CmpOp::Ne, 7)]), (Pushdown::None, 1));
        assert_eq!(
            plan(&vec![cond("X", CmpOp::Eq, 1), cond("Oid", CmpOp::Gt, 3)]),
            (Pushdown::Range, 1)
        );
        // What stays is tested on the row's values, not on its key.
        let (_, residual) = Filter::compile(&s, &vec![cond("X", CmpOp::Le, 5)])
            .unwrap()
            .plan(&s)
            .unwrap();
        assert!(residual.matches(&[Value::Int(100), Value::Int(5)]));
        assert!(!residual.matches(&[Value::Int(1), Value::Int(6)]));
    }

    #[test]
    fn compile_rejects_unknown_columns_and_misfit_literals() {
        let s = schema();
        assert!(Filter::compile(&s, &vec![cond("Nope", CmpOp::Eq, 1)]).is_err());
        assert!(Filter::compile(&s, &vec![cond("Oid", CmpOp::Eq, 1 << 40)]).is_err());
        let f = Filter::compile(&s, &vec![cond("X", CmpOp::Eq, 1)]).unwrap();
        assert!(f.pk_bounds_only(&s).is_err());
    }
}
