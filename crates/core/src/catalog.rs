//! The system catalog: table definitions persisted in a dedicated B-tree
//! (`TreeId::CATALOG`, name → serialized [`TableDef`]).
//!
//! A table's *kind* mirrors §4.1 of the paper: `Immortal` tables keep
//! persistent versions forever and enable AS OF queries; conventional
//! tables can be `SnapshotEnabled` (recent versions for snapshot isolation
//! concurrency control, garbage collected at the oldest-active-snapshot
//! watermark) or plain `Conventional` (in-place storage, no versions).

use immortaldb_common::codec::{Reader, Writer};
use immortaldb_common::{Error, Result, Timestamp, TreeId};

use crate::row::{ColType, Column, Schema};

/// How a table treats versions (the `IMMORTAL` keyword / snapshot
/// `ALTER TABLE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Transaction-time table: versions are immortal, AS OF enabled.
    Immortal,
    /// Conventional table with snapshot versioning for concurrency
    /// control; old versions are garbage collected.
    SnapshotEnabled,
    /// Conventional table: in-place updates, no versions.
    Conventional,
}

impl TableKind {
    pub fn is_versioned(self) -> bool {
        !matches!(self, TableKind::Conventional)
    }

    fn to_u8(self) -> u8 {
        match self {
            TableKind::Immortal => 1,
            TableKind::SnapshotEnabled => 2,
            TableKind::Conventional => 3,
        }
    }

    fn from_u8(v: u8) -> Result<TableKind> {
        Ok(match v {
            1 => TableKind::Immortal,
            2 => TableKind::SnapshotEnabled,
            3 => TableKind::Conventional,
            other => return Err(Error::Corruption(format!("bad table kind {other}"))),
        })
    }
}

/// A table definition as stored in the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub tree: TreeId,
    pub kind: TableKind,
    pub schema: Schema,
}

/// The index byte of a catalog entry. Every table is page-chain indexed;
/// `2` named the TSB-tree, which was removed, so an entry holding it
/// cannot be opened.
const CHAIN_INDEX: u8 = 1;
const REMOVED_TSB_INDEX: u8 = 2;

impl TableDef {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.kind.to_u8())
            .u8(CHAIN_INDEX)
            .u32(self.tree.0)
            .u16(self.schema.pk as u16)
            .u16(self.schema.columns.len() as u16);
        for col in &self.schema.columns {
            w.bytes(col.name.as_bytes());
            match col.ctype {
                ColType::SmallInt => {
                    w.u8(1);
                }
                ColType::Int => {
                    w.u8(2);
                }
                ColType::BigInt => {
                    w.u8(3);
                }
                ColType::Varchar(n) => {
                    w.u8(4).u16(n);
                }
            }
        }
        w.finish()
    }

    pub fn decode(name: &str, data: &[u8]) -> Result<TableDef> {
        let mut r = Reader::new(data);
        let kind = TableKind::from_u8(r.u8()?)?;
        match r.u8()? {
            CHAIN_INDEX => {}
            REMOVED_TSB_INDEX => {
                return Err(Error::Catalog(format!(
                    "table {name} is on the TSB-tree index, which was removed; \
                     only page-chain tables can be opened"
                )))
            }
            other => return Err(Error::Corruption(format!("bad index kind {other}"))),
        }
        let tree = TreeId(r.u32()?);
        let pk = r.u16()? as usize;
        let ncols = r.u16()? as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| Error::Corruption("non-UTF8 column name".into()))?;
            let ctype = match r.u8()? {
                1 => ColType::SmallInt,
                2 => ColType::Int,
                3 => ColType::BigInt,
                4 => ColType::Varchar(r.u16()?),
                t => return Err(Error::Corruption(format!("bad column type tag {t}"))),
            };
            columns.push(Column { name: cname, ctype });
        }
        r.expect_end()?;
        Ok(TableDef {
            name: name.to_string(),
            tree,
            kind,
            schema: Schema::new(columns, pk)?,
        })
    }
}

/// Named snapshots share the catalog tree with table definitions but
/// live under this reserved control-byte key prefix. SQL identifiers
/// never start with a control byte, so the two key spaces cannot
/// collide; catalog loaders skip prefixed rows when decoding tables.
pub const SNAPSHOT_KEY_PREFIX: u8 = 0x01;

/// Catalog key for the named snapshot `name`.
pub fn snapshot_key(name: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + name.len());
    k.push(SNAPSHOT_KEY_PREFIX);
    k.extend_from_slice(name.as_bytes());
    k
}

/// A named snapshot as stored in the catalog: a stable name bound to a
/// fixed transaction-time timestamp, usable anywhere an `AS OF` operand
/// is. Persisted in the catalog tree, so snapshots survive restarts and
/// ship to replicas through the WAL like any other catalog change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDef {
    pub name: String,
    /// The fixed point in transaction time the snapshot pins.
    pub ts: Timestamp,
    /// Wall-clock creation time (diagnostics only).
    pub created_ms: u64,
}

impl SnapshotDef {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.ts.ttime)
            .u32(self.ts.sn)
            .u64(self.created_ms)
            .bytes(self.name.as_bytes());
        w.finish()
    }

    pub fn decode(data: &[u8]) -> Result<SnapshotDef> {
        let mut r = Reader::new(data);
        let ts = Timestamp::new(r.u64()?, r.u32()?);
        let created_ms = r.u64()?;
        let name = String::from_utf8(r.bytes()?.to_vec())
            .map_err(|_| Error::Corruption("non-UTF8 snapshot name".into()))?;
        r.expect_end()?;
        Ok(SnapshotDef {
            name,
            ts,
            created_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_and_key_space() {
        let def = SnapshotDef {
            name: "before_migration".into(),
            ts: Timestamp::new(12_340, 7),
            created_ms: 99_999,
        };
        assert_eq!(SnapshotDef::decode(&def.encode()).unwrap(), def);
        // Snapshot keys sort below every possible table name.
        let k = snapshot_key("zzz");
        assert_eq!(k[0], SNAPSHOT_KEY_PREFIX);
        assert!(k.as_slice() < "A".as_bytes());
        assert!(SnapshotDef::decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn def_roundtrip() {
        let def = TableDef {
            name: "MovingObjects".into(),
            tree: TreeId(17),
            kind: TableKind::Immortal,
            schema: Schema::new(
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
                        name: "Note".into(),
                        ctype: ColType::Varchar(64),
                    },
                ],
                0,
            )
            .unwrap(),
        };
        let enc = def.encode();
        assert_eq!(
            enc[1], CHAIN_INDEX,
            "the index byte a chain table always had"
        );
        let dec = TableDef::decode("MovingObjects", &enc).unwrap();
        assert_eq!(def, dec);

        // An entry written for a TSB table names the removal.
        let mut tsb = enc;
        tsb[1] = REMOVED_TSB_INDEX;
        let err = TableDef::decode("MovingObjects", &tsb).unwrap_err();
        assert!(matches!(err, Error::Catalog(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("TSB-tree index, which was removed"),
            "{err}"
        );
    }

    #[test]
    fn kind_properties() {
        assert!(TableKind::Immortal.is_versioned());
        assert!(TableKind::SnapshotEnabled.is_versioned());
        assert!(!TableKind::Conventional.is_versioned());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(TableDef::decode("t", &[9, 9, 9]).is_err());
        assert!(TableDef::decode("t", &[]).is_err());
    }
}
