//! The planner step of the executor: compile a conjunctive predicate
//! once per statement, and extract from it the primary-key bounds the
//! index cursor can answer itself.
//!
//! Push-down rules: every `pk = v`, `pk < v`, `pk <= v`, `pk > v`,
//! `pk >= v` condition tightens the bounds (`=` pins the key; several
//! conditions intersect); `pk <> v` and conditions on other columns do
//! not. The *whole* predicate is still evaluated on each row the cursor
//! yields, so the bounds only ever have to be sound, not complete.

use std::cmp::Ordering;

use immortaldb_common::{Error, Result};

use super::ast::{CmpOp, Predicate};
use crate::row::{PkBounds, Schema, Value};

/// A predicate resolved against a schema: column positions looked up and
/// literals coerced to the column types, once.
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
            let (ord, inclusive) = match op {
                CmpOp::Eq => (Ordering::Equal, true),
                CmpOp::Lt => (Ordering::Less, false),
                CmpOp::Le => (Ordering::Less, true),
                CmpOp::Gt => (Ordering::Greater, false),
                CmpOp::Ge => (Ordering::Greater, true),
                CmpOp::Ne => continue,
            };
            if *idx == schema.pk {
                bounds.tighten(schema, ord, inclusive, rhs)?;
            }
        }
        Ok(bounds)
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
    fn compile_rejects_unknown_columns_and_misfit_literals() {
        let s = schema();
        assert!(Filter::compile(&s, &vec![cond("Nope", CmpOp::Eq, 1)]).is_err());
        assert!(Filter::compile(&s, &vec![cond("Oid", CmpOp::Eq, 1 << 40)]).is_err());
        let f = Filter::compile(&s, &vec![cond("X", CmpOp::Eq, 1)]).unwrap();
        assert!(f.pk_bounds_only(&s).is_err());
    }
}
