//! Row values, schemas, and the memcomparable key / row-image codecs.

use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use immortaldb_btree::{Flow, KeyRange};
use immortaldb_common::codec::{truncated, unconsumed, Writer};
use immortaldb_common::{Error, Result};

/// Column types of the SQL dialect (matching the paper's example schema:
/// `Oid smallint PRIMARY KEY, LocationX int, LocationY int`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    SmallInt,
    Int,
    BigInt,
    /// Bounded variable-length string.
    Varchar(u16),
}

/// The tag a value's tagged form starts with ([`Value::encode`]).
const SMALLINT: u8 = 1;
const INT: u8 = 2;
const BIGINT: u8 = 3;
const VARCHAR: u8 = 4;

impl ColType {
    /// The tag this column's values are stored under, and the bytes that
    /// follow it in a fixed-width value (0 for a VARCHAR, whose length
    /// is stored).
    fn layout(self) -> (u8, u8) {
        match self {
            ColType::SmallInt => (SMALLINT, 2),
            ColType::Int => (INT, 4),
            ColType::BigInt => (BIGINT, 8),
            ColType::Varchar(_) => (VARCHAR, 0),
        }
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColType::SmallInt => write!(f, "SMALLINT"),
            ColType::Int => write!(f, "INT"),
            ColType::BigInt => write!(f, "BIGINT"),
            ColType::Varchar(n) => write!(f, "VARCHAR({n})"),
        }
    }
}

/// A column value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Value {
    SmallInt(i16),
    Int(i32),
    BigInt(i64),
    Varchar(String),
}

impl Value {
    /// Integer view (for predicate evaluation and generators).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::SmallInt(v) => Some(*v as i64),
            Value::Int(v) => Some(*v as i64),
            Value::BigInt(v) => Some(*v),
            Value::Varchar(_) => None,
        }
    }

    /// Coerce an integer literal into the column's type (SQL-style).
    pub fn coerce(&self, target: ColType) -> Result<Value> {
        let err = || Error::Sql(format!("cannot coerce {self:?} to {target}"));
        Ok(match (self, target) {
            (Value::Varchar(s), ColType::Varchar(max)) => {
                if s.len() > max as usize {
                    return Err(Error::Sql(format!(
                        "string of length {} exceeds VARCHAR({max})",
                        s.len()
                    )));
                }
                Value::Varchar(s.clone())
            }
            (v, ColType::SmallInt) => {
                let n = v.as_i64().ok_or_else(err)?;
                Value::SmallInt(i16::try_from(n).map_err(|_| err())?)
            }
            (v, ColType::Int) => {
                let n = v.as_i64().ok_or_else(err)?;
                Value::Int(i32::try_from(n).map_err(|_| err())?)
            }
            (v, ColType::BigInt) => Value::BigInt(v.as_i64().ok_or_else(err)?),
            _ => return Err(err()),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::SmallInt(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::BigInt(v) => write!(f, "{v}"),
            Value::Varchar(s) => write!(f, "{s}"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ctype: ColType,
}

/// Table schema: columns plus the (single-column) primary key. Built
/// only by [`Schema::new`], which derives the tag table from `columns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub columns: Vec<Column>,
    /// Index into `columns` of the primary key.
    pub pk: usize,
    /// Each column's value tag and fixed width ([`ColType::layout`]),
    /// in column order: what [`Schema::check_image`] expects to find.
    tags: Box<[(u8, u8)]>,
}

impl Schema {
    pub fn new(columns: Vec<Column>, pk: usize) -> Result<Schema> {
        if columns.is_empty() {
            return Err(Error::Sql("a table needs at least one column".into()));
        }
        if pk >= columns.len() {
            return Err(Error::Sql("primary key column out of range".into()));
        }
        let mut names: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::Sql("duplicate column name".into()));
        }
        let tags = columns.iter().map(|c| c.ctype.layout()).collect();
        Ok(Schema { columns, pk, tags })
    }

    pub fn col_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::Sql(format!("unknown column {name}")))
    }

    /// Validate a full row against this schema, coercing literals.
    pub fn check_row(&self, mut values: Vec<Value>) -> Result<Vec<Value>> {
        if values.len() != self.columns.len() {
            return Err(Error::Sql(format!(
                "expected {} values, got {}",
                self.columns.len(),
                values.len()
            )));
        }
        for (v, c) in values.iter_mut().zip(&self.columns) {
            *v = v.coerce(c.ctype)?;
        }
        Ok(values)
    }

    /// Memcomparable key bytes for the row's primary key, in one shared
    /// allocation (see [`encode_shared_key`]).
    pub fn key_of_row(&self, values: &[Value]) -> Result<Arc<[u8]>> {
        encode_shared_key(&values[self.pk])
    }

    /// Encode the full row image (stored as the record data).
    pub fn encode_row(&self, values: &[Value]) -> Vec<u8> {
        // Room for an integer row, grown once for strings.
        let mut out = Vec::with_capacity(16 * values.len());
        encode_values(&mut out, values);
        out
    }

    /// Decode a row image.
    pub fn decode_row(&self, data: &[u8]) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(self.columns.len());
        self.decode_row_into(data, &mut out)?;
        Ok(out)
    }

    /// Decode a row image over `out` (see [`decode_values_into`]): a scan
    /// decodes every record into one scratch row.
    pub fn decode_row_into(&self, data: &[u8], out: &mut Vec<Value>) -> Result<()> {
        decode_image_into(data, self.columns.len(), out)
    }

    /// Check, without decoding or allocating, that `image` is a row of
    /// this table: one tagged value of each column's type, in column
    /// order, every length within the image and every string UTF-8, and
    /// no byte after the last. An image that passes decodes; the engine
    /// checks every stored image it hands on undecoded. One pass over the
    /// tag table; the errors are those of [`decode_image_into`], and a
    /// tag of the wrong type names its column.
    pub fn check_image(&self, image: &[u8]) -> Result<()> {
        let mut at = 0;
        for (i, &(tag, width)) in self.tags.iter().enumerate() {
            match image.get(at) {
                Some(&t) if t == tag => at += 1,
                Some(&t) => return Err(self.bad_tag(t, i)),
                None => return Err(truncated(1, at, image.len())),
            }
            at = match width {
                0 => text(image, at)?.1,
                w => take(image, at, w as usize)?.1,
            };
        }
        match image.len() - at {
            0 => Ok(()),
            n => Err(unconsumed(n)),
        }
    }

    #[cold]
    fn bad_tag(&self, t: u8, i: usize) -> Error {
        let c = &self.columns[i];
        Error::Corruption(format!(
            "bad value tag {t} for {} column {}",
            c.ctype, c.name
        ))
    }
}

/// Decode an image of `n` tagged values — a stored row, or a result row
/// as a [`RowSink`] is handed it — over `out`, the previous row of the
/// same shape or empty (see [`decode_values_into`]); bytes left over are
/// corruption.
pub fn decode_image_into(image: &[u8], n: usize, out: &mut Vec<Value>) -> Result<()> {
    match image.len() - decode_values_into(image, n, out)? {
        0 => Ok(()),
        left => Err(unconsumed(left)),
    }
}

/// Append the tagged form of `values` to `out`: a result row's image.
pub fn encode_values<'v>(out: &mut Vec<u8>, values: impl IntoIterator<Item = &'v Value>) {
    let mut w = Writer::from(std::mem::take(out));
    for v in values {
        v.encode(&mut w);
    }
    *out = w.finish();
}

impl Value {
    /// Append this value in its tagged form — `1` SMALLINT (`i16`), `2`
    /// INT (`i32`), `3` BIGINT (`i64`), `4` VARCHAR (`u32` length +
    /// bytes), integers little-endian — the form row images are stored
    /// in and rows cross the wire in.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Value::SmallInt(x) => w.u8(SMALLINT).u16(*x as u16),
            Value::Int(x) => w.u8(INT).u32(*x as u32),
            Value::BigInt(x) => w.u8(BIGINT).u64(*x as u64),
            Value::Varchar(s) => w.u8(VARCHAR).bytes(s.as_bytes()),
        };
    }
}

/// Decode the first `n` tagged values (see [`Value::encode`]) of `buf`
/// over `out` — the previous row of the same shape, or empty — and
/// answer how many bytes they took. Decoding a run of rows into one
/// scratch row allocates nothing for integers and reuses the buffer of
/// each string it replaces; decoding into an empty row allocates it at
/// its exact size. One pass, indexing `buf` directly.
pub fn decode_values_into(buf: &[u8], n: usize, out: &mut Vec<Value>) -> Result<usize> {
    out.truncate(n);
    out.reserve_exact(n - out.len());
    let mut at = 0;
    for i in 0..n {
        let Some(&tag) = buf.get(at) else {
            return Err(truncated(1, at, buf.len()));
        };
        let value = match tag {
            SMALLINT => {
                let (b, end) = take(buf, at + 1, 2)?;
                at = end;
                Value::SmallInt(i16::from_le_bytes([b[0], b[1]]))
            }
            INT => {
                let (b, end) = take(buf, at + 1, 4)?;
                at = end;
                Value::Int(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            BIGINT => {
                let (b, end) = take(buf, at + 1, 8)?;
                at = end;
                let mut le = [0u8; 8];
                le.copy_from_slice(b);
                Value::BigInt(i64::from_le_bytes(le))
            }
            VARCHAR => {
                let (s, end) = text(buf, at + 1)?;
                at = end;
                if let Some(Value::Varchar(old)) = out.get_mut(i) {
                    old.clear();
                    old.push_str(s);
                    continue;
                }
                Value::Varchar(s.to_owned())
            }
            t => return Err(bad_value_tag(t)),
        };
        match out.get_mut(i) {
            Some(slot) => *slot = value,
            None => out.push(value),
        }
    }
    Ok(at)
}

/// The `n` bytes of `buf` at `at`, and where they end.
#[inline(always)]
fn take(buf: &[u8], at: usize, n: usize) -> Result<(&[u8], usize)> {
    match buf.get(at..).and_then(|rest| rest.get(..n)) {
        Some(b) => Ok((b, at + n)),
        None => Err(truncated(n, at, buf.len())),
    }
}

/// The text of the VARCHAR whose length prefix is at `at`, and where it
/// ends.
#[inline(always)]
fn text(buf: &[u8], at: usize) -> Result<(&str, usize)> {
    let (len, at) = take(buf, at, 4)?;
    let (bytes, end) = take(
        buf,
        at,
        u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize,
    )?;
    match std::str::from_utf8(bytes) {
        Ok(s) => Ok((s, end)),
        Err(_) => Err(not_utf8()),
    }
}

#[cold]
fn bad_value_tag(t: u8) -> Error {
    Error::Corruption(format!("bad value tag {t}"))
}

#[cold]
fn not_utf8() -> Error {
    Error::Corruption("non-UTF8 varchar".into())
}

/// Where a row-returning statement writes its result: the column names
/// once, then every row as it is produced, as its image — the tagged
/// values of [`Value::encode`], the form rows are stored in and cross the
/// wire in. A `SELECT *` row is the stored image itself, straight from
/// the page the cursor read; a sink that wants values decodes
/// ([`decode_image_into`]). Nothing is collected unless the sink
/// collects. [`RowSink::row`] is called inside the index cursor, with
/// latches held, so a sink never blocks.
pub trait RowSink {
    /// The result's column names; called once, before the first row.
    fn columns(&mut self, names: Vec<String>) -> Result<()>;

    /// One result row's image, borrowed for the call. [`Flow::Stop`]
    /// says the sink is full: this row is in, and the statement's step
    /// ends — a walk returns [`crate::Step::Paused`], to be resumed once
    /// the sink has room. A result that is in memory whole before its
    /// first row is sent (`HISTORY OF`, `SHOW`) is written whole.
    fn row(&mut self, image: &[u8]) -> Result<Flow>;
}

/// Memcomparable encoding of a single (key) value: a type tag followed by
/// an order-preserving byte string. The tag keeps differently typed keys
/// from comparing as equal byte strings.
pub fn encode_key(v: &Value) -> Result<Vec<u8>> {
    let (head, n, tail) = key_parts(v);
    Ok([&head[..n], tail].concat())
}

/// [`encode_key`] into one shared allocation: a write hands it to the
/// lock table, which keeps it, and lends it to the index.
pub fn encode_shared_key(v: &Value) -> Result<Arc<[u8]>> {
    let (head, n, tail) = key_parts(v);
    Ok(head[..n].iter().chain(tail).copied().collect())
}

/// A key's encoding in two parts: the tag and any fixed-width body (the
/// first `n` bytes of the array), then a string's bytes.
fn key_parts(v: &Value) -> ([u8; 9], usize, &[u8]) {
    let mut head = [0u8; 9];
    let (tag, body, tail): (u8, &[u8], &[u8]) = match v {
        Value::SmallInt(x) => (1, &((*x as u16) ^ 0x8000).to_be_bytes(), &[]),
        Value::Int(x) => (2, &((*x as u32) ^ 0x8000_0000).to_be_bytes(), &[]),
        Value::BigInt(x) => (3, &((*x as u64) ^ (1 << 63)).to_be_bytes(), &[]),
        Value::Varchar(s) => (4, &[], s.as_bytes()),
    };
    head[0] = tag;
    head[1..=body.len()].copy_from_slice(body);
    (head, 1 + body.len(), tail)
}

/// Bounds on a table's primary key, in memcomparable key bytes: what a
/// read hands the index cursor so it touches only the keys asked for.
/// Built from literals by [`PkBounds::point`] / [`PkBounds::tighten`]
/// (the SQL planner feeds it a predicate's primary-key conditions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PkBounds {
    lo: Bound<Vec<u8>>,
    hi: Bound<Vec<u8>>,
    /// Set by [`PkBounds::resume_after`]: these bounds continue a read
    /// that has already begun.
    resumed: bool,
}

/// How much of a read's predicate reached the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushdown {
    Point,
    Range,
    None,
}

impl PkBounds {
    /// Every key: a whole-table read.
    pub fn all() -> PkBounds {
        PkBounds {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
            resumed: false,
        }
    }

    /// Exactly the key of `pk`, coerced to the primary-key column's type.
    pub fn point(schema: &Schema, pk: &Value) -> Result<PkBounds> {
        let mut b = PkBounds::all();
        b.tighten(schema, std::cmp::Ordering::Equal, true, pk)?;
        Ok(b)
    }

    /// Intersect with `pk <ord> value`: `Equal` pins the key, `Less`
    /// (`Greater`) bounds it above (below), `inclusive` admitting
    /// `value` itself. Fails if `value` does not coerce to the key type.
    pub fn tighten(
        &mut self,
        schema: &Schema,
        ord: std::cmp::Ordering,
        inclusive: bool,
        value: &Value,
    ) -> Result<()> {
        use std::cmp::Ordering::*;
        let key = encode_key(&value.coerce(schema.columns[schema.pk].ctype)?)?;
        let bound = |k: Vec<u8>| {
            if inclusive {
                Bound::Included(k)
            } else {
                Bound::Excluded(k)
            }
        };
        // Of two bounds on the same side keep the tighter: the greater
        // low / lesser high key, and at equal keys the exclusive one.
        let tighter = |old: &Bound<Vec<u8>>, new: &Bound<Vec<u8>>, want: std::cmp::Ordering| {
            let (Bound::Included(o) | Bound::Excluded(o)) = old else {
                return true;
            };
            let (Bound::Included(n) | Bound::Excluded(n)) = new else {
                return false;
            };
            match n.cmp(o) {
                Equal => matches!(new, Bound::Excluded(_)),
                ord => ord == want,
            }
        };
        if ord != Less {
            let new = bound(key.clone());
            if tighter(&self.lo, &new, Greater) {
                self.lo = new;
            }
        }
        if ord != Greater {
            let new = bound(key);
            if tighter(&self.hi, &new, Less) {
                self.hi = new;
            }
        }
        Ok(())
    }

    /// Drop every key up to and including `key`: where a scan that
    /// stopped at `key` picks up again.
    pub fn resume_after(&mut self, key: Vec<u8>) {
        self.lo = Bound::Excluded(key);
        self.resumed = true;
    }

    /// The walk of a write over many keys: `chunk` walks the index
    /// cursor from these bounds until its write set is full, writes it
    /// once the cursor has returned — so with no latch held — and answers
    /// the last key walked if it stopped there. The next walk resumes
    /// after that key, so no statement holds more than one chunk of its
    /// write set.
    pub(crate) fn chunked(
        mut self,
        mut chunk: impl FnMut(&PkBounds) -> Result<Option<Vec<u8>>>,
    ) -> Result<()> {
        while let Some(last) = chunk(&self)? {
            self.resume_after(last);
        }
        Ok(())
    }

    /// Whether these bounds pick up a read that stopped
    /// ([`Self::resume_after`]) rather than start one.
    pub fn is_resumed(&self) -> bool {
        self.resumed
    }

    /// The borrowed form the index cursor takes.
    pub fn as_range(&self) -> KeyRange<'_> {
        KeyRange {
            lo: self.lo.as_ref().map(Vec::as_slice),
            hi: self.hi.as_ref().map(Vec::as_slice),
        }
    }

    pub fn pushdown(&self) -> Pushdown {
        if self.as_range().as_point().is_some() {
            Pushdown::Point
        } else if *self == PkBounds::all() {
            Pushdown::None
        } else {
            Pushdown::Range
        }
    }
}

/// Inverse of [`encode_key`]: recover the key value from its
/// memcomparable bytes (used to label tombstone rows in temporal
/// results, where no row image survives to decode).
pub fn decode_key(data: &[u8]) -> Result<Value> {
    let (&tag, rest) = data
        .split_first()
        .ok_or_else(|| Error::Corruption("empty key".into()))?;
    let fixed = |n: usize| -> Result<&[u8]> {
        if rest.len() == n {
            Ok(rest)
        } else {
            Err(Error::Corruption(format!(
                "key tag {tag} wants {n} bytes, got {}",
                rest.len()
            )))
        }
    };
    Ok(match tag {
        1 => {
            let b: [u8; 2] = fixed(2)?.try_into().unwrap();
            Value::SmallInt((u16::from_be_bytes(b) ^ 0x8000) as i16)
        }
        2 => {
            let b: [u8; 4] = fixed(4)?.try_into().unwrap();
            Value::Int((u32::from_be_bytes(b) ^ 0x8000_0000) as i32)
        }
        3 => {
            let b: [u8; 8] = fixed(8)?.try_into().unwrap();
            Value::BigInt((u64::from_be_bytes(b) ^ (1 << 63)) as i64)
        }
        4 => Value::Varchar(
            String::from_utf8(rest.to_vec())
                .map_err(|_| Error::Corruption("non-UTF8 varchar key".into()))?,
        ),
        t => return Err(Error::Corruption(format!("bad key tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column {
                    name: "Oid".into(),
                    ctype: ColType::SmallInt,
                },
                Column {
                    name: "LocationX".into(),
                    ctype: ColType::Int,
                },
                Column {
                    name: "Name".into(),
                    ctype: ColType::Varchar(20),
                },
            ],
            0,
        )
        .unwrap()
    }

    #[test]
    fn row_roundtrip() {
        let s = schema();
        let row = vec![
            Value::SmallInt(7),
            Value::Int(-12345),
            Value::Varchar("hello".into()),
        ];
        let enc = s.encode_row(&row);
        assert_eq!(s.decode_row(&enc).unwrap(), row);
    }

    #[test]
    fn check_image_accepts_rows_and_rejects_what_would_not_decode() {
        let s = schema();
        let row = |name: &str| {
            s.encode_row(&[
                Value::SmallInt(-3),
                Value::Int(40_000),
                Value::Varchar(name.into()),
            ])
        };
        for name in ["", "ascii", "żółć 日本"] {
            s.check_image(&row(name)).unwrap();
        }
        let good = row("abc");
        let is_corruption =
            |image: &[u8]| matches!(s.check_image(image), Err(Error::Corruption(_)));
        // A bad tag, and a valid tag of another column's type.
        let mut bad = good.clone();
        bad[0] = 9;
        assert!(is_corruption(&bad));
        bad[0] = 2;
        assert!(is_corruption(&bad));
        // Truncated: inside a fixed-size value, inside a string, and
        // before the last column.
        assert!(is_corruption(&good[..2]));
        assert!(is_corruption(&good[..good.len() - 1]));
        assert!(is_corruption(&good[..3 + 5]));
        assert!(is_corruption(&[]));
        // A byte after the last column.
        let mut long = good.clone();
        long.push(0);
        assert!(is_corruption(&long));
        // Text that is not UTF-8.
        let mut text = good.clone();
        let last = text.len() - 1;
        text[last] = 0xFF;
        assert!(is_corruption(&text));
        // What passes decodes.
        assert_eq!(
            s.decode_row(&good).unwrap()[2],
            Value::Varchar("abc".into())
        );
    }

    #[test]
    fn keys_roundtrip_through_decode_key() {
        for v in [
            Value::SmallInt(-7),
            Value::Int(123_456),
            Value::BigInt(-9_999_999_999),
            Value::Varchar("obj-17".into()),
        ] {
            assert_eq!(decode_key(&encode_key(&v).unwrap()).unwrap(), v);
        }
        assert!(decode_key(&[]).is_err());
        assert!(decode_key(&[9, 1, 2]).is_err());
        assert!(decode_key(&[2, 1]).is_err());
    }

    #[test]
    fn keys_order_like_values() {
        for (a, b) in [
            (Value::SmallInt(-5), Value::SmallInt(3)),
            (Value::Int(-100), Value::Int(0)),
            (Value::BigInt(i64::MIN), Value::BigInt(i64::MAX)),
            (Value::Varchar("abc".into()), Value::Varchar("abd".into())),
        ] {
            assert!(
                encode_key(&a).unwrap() < encode_key(&b).unwrap(),
                "{a:?} < {b:?}"
            );
        }
    }

    #[test]
    fn schema_validation() {
        assert!(Schema::new(vec![], 0).is_err());
        let cols = vec![
            Column {
                name: "a".into(),
                ctype: ColType::Int,
            },
            Column {
                name: "A".into(),
                ctype: ColType::Int,
            },
        ];
        // Case-insensitive duplicate... allowed? Names differ by case only;
        // col_index is case-insensitive, so exact duplicates are rejected
        // while case variants are permitted (documented quirk).
        let _ = cols;
        let s = schema();
        assert_eq!(s.col_index("locationx").unwrap(), 1);
        assert!(s.col_index("nope").is_err());
    }

    #[test]
    fn check_row_coerces_and_rejects() {
        let s = schema();
        let ok = s
            .check_row(vec![
                Value::BigInt(7),
                Value::BigInt(3),
                Value::Varchar("x".into()),
            ])
            .unwrap();
        assert_eq!(ok[0], Value::SmallInt(7));
        assert_eq!(ok[1], Value::Int(3));
        assert!(s.check_row(vec![Value::BigInt(7)]).is_err());
        assert!(s
            .check_row(vec![
                Value::BigInt(1 << 40), // overflows smallint
                Value::BigInt(3),
                Value::Varchar("x".into()),
            ])
            .is_err());
        assert!(s
            .check_row(vec![
                Value::BigInt(1),
                Value::BigInt(3),
                Value::Varchar("a string that is way past twenty characters".into()),
            ])
            .is_err());
    }

    #[test]
    fn value_display_and_as_i64() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Varchar("v".into()).to_string(), "v");
        assert_eq!(Value::SmallInt(2).as_i64(), Some(2));
        assert_eq!(Value::Varchar("v".into()).as_i64(), None);
    }
}
