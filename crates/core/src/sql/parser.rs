//! Recursive-descent parser for the SQL dialect.
//!
//! Supported statements (keywords case-insensitive):
//!
//! ```sql
//! CREATE [IMMORTAL] TABLE t (col TYPE [PRIMARY KEY], ...) [ON [PRIMARY]]
//! ALTER TABLE t ENABLE SNAPSHOT
//! BEGIN TRAN [AS OF "M/D/YYYY HH:MM:SS" | AS OF ms(N)]
//!            [ISOLATION SNAPSHOT | ISOLATION SERIALIZABLE]
//! COMMIT [TRAN] | ROLLBACK [TRAN]
//! INSERT INTO t VALUES (v, ...), (v, ...), ...
//! UPDATE t SET col = lit [, ...] [WHERE conds]
//! DELETE FROM t [WHERE conds]
//! SELECT * | col[, col...] FROM t [WHERE conds]
//! SELECT * | col[, col...] FROM t VERSIONS BETWEEN time AND time [WHERE conds]
//! DIFF TABLE t BETWEEN time AND time
//! HISTORY OF t WHERE pkcol = lit
//! RESTORE TABLE t AS OF time
//! CREATE SNAPSHOT s [AS OF time]
//! DROP SNAPSHOT s
//! CHECKPOINT
//! SHOW STATS | SHOW SNAPSHOTS
//! ```
//!
//! where `time` is `"M/D/YYYY HH:MM:SS"`, `ms(N)`, or `SNAPSHOT name`
//! (a named snapshot; also valid after `BEGIN TRAN AS OF`).

use immortaldb_common::{Error, Result};

use crate::catalog::TableKind;
use crate::row::{ColType, Value};
use crate::txn::Isolation;

use super::ast::{AsOfSpec, CmpOp, Condition, Predicate, Statement};
use super::lexer::{tokenize_spanned, Token};

pub struct Parser {
    tokens: Vec<Token>,
    /// Byte offset of each token's first character in the input.
    spans: Vec<usize>,
    /// Total input length (offset reported for "unexpected end").
    end: usize,
    pos: usize,
}

impl Parser {
    pub fn parse(input: &str) -> Result<Statement> {
        let spanned = tokenize_spanned(input)?;
        let (tokens, spans): (Vec<Token>, Vec<usize>) = spanned.into_iter().unzip();
        let mut p = Parser {
            tokens,
            spans,
            end: input.len(),
            pos: 0,
        };
        let stmt = p.statement()?;
        if p.pos != p.tokens.len() {
            return Err(p.err(format!(
                "trailing input after statement: {:?}",
                &p.tokens[p.pos..]
            )));
        }
        Ok(stmt)
    }

    /// Byte offset of the token at the cursor (input length at EOF).
    fn offset(&self) -> usize {
        self.spans.get(self.pos).copied().unwrap_or(self.end)
    }

    /// A parse error anchored at the current token.
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of statement"))?;
        self.pos += 1;
        Ok(t)
    }

    /// Consume the next token if it is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, tok: Token) -> Result<()> {
        let t = self.next()?;
        if t == tok {
            Ok(())
        } else {
            Err(self.err_prev(format!("expected {tok:?}, found {t:?}")))
        }
    }

    /// A parse error anchored at the token just consumed.
    fn err_prev(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            offset: self
                .spans
                .get(self.pos.saturating_sub(1))
                .copied()
                .unwrap_or(self.end),
            message: message.into(),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.err_prev(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("SNAPSHOT") {
                return self.create_snapshot();
            }
            return self.create_table();
        }
        if self.eat_kw("DROP") {
            self.expect_kw("SNAPSHOT")?;
            let name = self.ident()?;
            return Ok(Statement::DropSnapshot { name });
        }
        if self.eat_kw("ALTER") {
            return self.alter_table();
        }
        if self.eat_kw("BEGIN") {
            return self.begin();
        }
        if self.eat_kw("COMMIT") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("SELECT") {
            return self.select();
        }
        if self.eat_kw("DIFF") {
            return self.diff();
        }
        if self.eat_kw("HISTORY") {
            return self.history();
        }
        if self.eat_kw("RESTORE") {
            return self.restore();
        }
        if self.eat_kw("CHECKPOINT") {
            return Ok(Statement::Checkpoint);
        }
        if self.eat_kw("VACUUM") {
            return Ok(Statement::Vacuum);
        }
        if self.eat_kw("SHOW") {
            if self.eat_kw("STATS") {
                return Ok(Statement::ShowStats);
            }
            if self.eat_kw("SNAPSHOTS") {
                return Ok(Statement::ShowSnapshots);
            }
            return Err(self.err("SHOW expects STATS or SNAPSHOTS"));
        }
        Err(self.err(format!("unknown statement start: {:?}", self.peek())))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let kind = if self.eat_kw("IMMORTAL") {
            TableKind::Immortal
        } else {
            TableKind::Conventional
        };
        self.expect_kw("TABLE")?;
        let name = self.ident()?;
        self.expect(Token::LParen)?;
        let mut columns = Vec::new();
        let mut pk: Option<usize> = None;
        loop {
            let cname = self.ident()?;
            let ctype = self.col_type()?;
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                if pk.replace(columns.len()).is_some() {
                    return Err(self.err_prev("multiple PRIMARY KEY columns"));
                }
            }
            columns.push((cname, ctype));
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                other => return Err(self.err_prev(format!("expected , or ), found {other:?}"))),
            }
        }
        // Optional filegroup clause from the paper's example: ON [PRIMARY].
        if self.eat_kw("ON") {
            let _ = self.ident()?;
        }
        if self.eat_kw("USING") {
            return Err(self.err_prev(
                "USING: the TSB-tree index was removed; every table uses the page-chain index",
            ));
        }
        let pk = pk.ok_or_else(|| self.err("a PRIMARY KEY column is required"))?;
        Ok(Statement::CreateTable {
            name,
            kind,
            columns,
            pk,
        })
    }

    fn col_type(&mut self) -> Result<ColType> {
        let t = self.ident()?;
        Ok(match t.to_ascii_uppercase().as_str() {
            "SMALLINT" => ColType::SmallInt,
            "INT" | "INTEGER" => ColType::Int,
            "BIGINT" => ColType::BigInt,
            "VARCHAR" => {
                self.expect(Token::LParen)?;
                let n = match self.next()? {
                    Token::Number(n) if n > 0 && n <= u16::MAX as i64 => n as u16,
                    other => return Err(self.err_prev(format!("bad VARCHAR length {other:?}"))),
                };
                self.expect(Token::RParen)?;
                ColType::Varchar(n)
            }
            other => return Err(self.err_prev(format!("unknown type {other}"))),
        })
    }

    fn alter_table(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let table = self.ident()?;
        self.expect_kw("ENABLE")?;
        self.expect_kw("SNAPSHOT")?;
        Ok(Statement::AlterEnableSnapshot { table })
    }

    fn begin(&mut self) -> Result<Statement> {
        let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
        let mut as_of = None;
        let mut isolation = Isolation::Serializable;
        loop {
            if self.eat_kw("AS") {
                self.expect_kw("OF")?;
                as_of = Some(self.as_of_spec()?);
            } else if self.eat_kw("ISOLATION") {
                isolation = if self.eat_kw("SNAPSHOT") {
                    Isolation::Snapshot
                } else if self.eat_kw("SERIALIZABLE") {
                    Isolation::Serializable
                } else {
                    return Err(self.err("ISOLATION expects SNAPSHOT or SERIALIZABLE"));
                };
            } else {
                break;
            }
        }
        Ok(Statement::Begin { as_of, isolation })
    }

    /// The time operand shared by `BEGIN TRAN AS OF`, `RESTORE TABLE …
    /// AS OF`, `VERSIONS BETWEEN` and `DIFF TABLE`: a datetime string,
    /// `ms(N)`, or `SNAPSHOT name` (a named snapshot's pinned time).
    fn as_of_spec(&mut self) -> Result<AsOfSpec> {
        if self.eat_kw("SNAPSHOT") {
            let name = self.ident()?;
            return Ok(AsOfSpec::Snapshot(name));
        }
        match self.next()? {
            Token::Str(s) => Ok(AsOfSpec::DateTime(s)),
            Token::Ident(f) if f.eq_ignore_ascii_case("ms") => {
                self.expect(Token::LParen)?;
                let n = match self.next()? {
                    Token::Number(n) if n >= 0 => n as u64,
                    other => return Err(self.err_prev(format!("bad ms() value {other:?}"))),
                };
                self.expect(Token::RParen)?;
                Ok(AsOfSpec::Millis(n))
            }
            other => Err(self.err_prev(format!(
                "AS OF expects a datetime string, ms(N) or SNAPSHOT name, found {other:?}"
            ))),
        }
    }

    fn create_snapshot(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        let mut as_of = None;
        if self.eat_kw("AS") {
            self.expect_kw("OF")?;
            as_of = Some(self.as_of_spec()?);
        }
        Ok(Statement::CreateSnapshot { name, as_of })
    }

    fn diff(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let table = self.ident()?;
        self.expect_kw("BETWEEN")?;
        let (t1, t2) = self.window_bounds()?;
        let predicate = self.opt_where()?;
        Ok(Statement::DiffTable {
            table,
            t1,
            t2,
            predicate,
        })
    }

    /// `time AND time` after BETWEEN. Rejects a reversed window at
    /// parse time when both bounds are literals (the error points at
    /// the upper bound's byte offset); snapshot bounds resolve at
    /// execution instead.
    fn window_bounds(&mut self) -> Result<(AsOfSpec, AsOfSpec)> {
        let t1 = self.as_of_spec()?;
        self.expect_kw("AND")?;
        let t2_off = self.offset();
        let t2 = self.as_of_spec()?;
        if let (Some(a), Some(b)) = (literal_ms(&t1), literal_ms(&t2)) {
            if b < a {
                return Err(Error::Parse {
                    offset: t2_off,
                    message: format!(
                        "reversed time window: upper bound ms({b}) is below lower bound ms({a})"
                    ),
                });
            }
        }
        Ok((t1, t2))
    }

    fn restore(&mut self) -> Result<Statement> {
        self.expect_kw("TABLE")?;
        let table = self.ident()?;
        self.expect_kw("AS")?;
        self.expect_kw("OF")?;
        let as_of = self.as_of_spec()?;
        Ok(Statement::RestoreTable { table, as_of })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                match self.next()? {
                    Token::Comma => continue,
                    Token::RParen => break,
                    other => return Err(self.err_prev(format!("expected , or ), found {other:?}"))),
                }
            }
            rows.push(row);
            if let Some(Token::Comma) = self.peek() {
                self.pos += 1;
                continue;
            }
            break;
        }
        Ok(Statement::Insert { table, rows })
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            sets.push((col, self.literal()?));
            if let Some(Token::Comma) = self.peek() {
                self.pos += 1;
                continue;
            }
            break;
        }
        let predicate = self.opt_where()?;
        Ok(Statement::Update {
            table,
            sets,
            predicate,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = self.opt_where()?;
        Ok(Statement::Delete { table, predicate })
    }

    fn select(&mut self) -> Result<Statement> {
        let columns = if let Some(Token::Star) = self.peek() {
            self.pos += 1;
            None
        } else {
            let mut cols = vec![self.ident()?];
            while let Some(Token::Comma) = self.peek() {
                self.pos += 1;
                cols.push(self.ident()?);
            }
            Some(cols)
        };
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        if self.eat_kw("VERSIONS") {
            self.expect_kw("BETWEEN")?;
            let (t1, t2) = self.window_bounds()?;
            let predicate = self.opt_where()?;
            return Ok(Statement::VersionsBetween {
                table,
                columns,
                t1,
                t2,
                predicate,
            });
        }
        let predicate = self.opt_where()?;
        Ok(Statement::Select {
            table,
            columns,
            predicate,
        })
    }

    fn history(&mut self) -> Result<Statement> {
        self.expect_kw("OF")?;
        let table = self.ident()?;
        self.expect_kw("WHERE")?;
        let _pk_col = self.ident()?;
        self.expect(Token::Eq)?;
        let pk = self.literal()?;
        Ok(Statement::History { table, pk })
    }

    fn opt_where(&mut self) -> Result<Predicate> {
        if !self.eat_kw("WHERE") {
            return Ok(Vec::new());
        }
        let mut conds = vec![self.condition()?];
        while self.eat_kw("AND") {
            conds.push(self.condition()?);
        }
        Ok(conds)
    }

    fn condition(&mut self) -> Result<Condition> {
        let column = self.ident()?;
        let op = match self.next()? {
            Token::Eq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            other => return Err(self.err_prev(format!("expected comparison, found {other:?}"))),
        };
        let value = self.literal()?;
        Ok(Condition { column, op, value })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next()? {
            Token::Number(n) => Ok(Value::BigInt(n)),
            Token::Minus => match self.next()? {
                Token::Number(n) => Ok(Value::BigInt(-n)),
                other => Err(self.err_prev(format!("expected number after -, found {other:?}"))),
            },
            Token::Str(s) => Ok(Value::Varchar(s)),
            other => Err(self.err_prev(format!("expected literal, found {other:?}"))),
        }
    }
}

/// Milliseconds of a bound known at parse time (`None` for snapshot
/// names and unparseable datetimes, which resolve — or fail — at
/// execution).
fn literal_ms(spec: &AsOfSpec) -> Option<u64> {
    match spec {
        AsOfSpec::Millis(ms) => Some(*ms),
        AsOfSpec::DateTime(s) => super::parse_datetime_ms(s).ok(),
        AsOfSpec::Snapshot(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_create_table() {
        let stmt = Parser::parse(
            "Create IMMORTAL Table MovingObjects \
             (Oid smallint PRIMARY KEY, LocationX int, LocationY int) ON [PRIMARY]",
        )
        .unwrap();
        assert_eq!(
            stmt,
            Statement::CreateTable {
                name: "MovingObjects".into(),
                kind: TableKind::Immortal,
                columns: vec![
                    ("Oid".into(), ColType::SmallInt),
                    ("LocationX".into(), ColType::Int),
                    ("LocationY".into(), ColType::Int),
                ],
                pk: 0,
            }
        );
    }

    #[test]
    fn parses_paper_as_of_query_pair() {
        let begin = Parser::parse("Begin Tran AS OF \"8/12/2004 10:15:20\"").unwrap();
        assert_eq!(
            begin,
            Statement::Begin {
                as_of: Some(AsOfSpec::DateTime("8/12/2004 10:15:20".into())),
                isolation: Isolation::Serializable,
            }
        );
        let select = Parser::parse("SELECT * FROM MovingObjects WHERE Oid < 10").unwrap();
        assert_eq!(
            select,
            Statement::Select {
                table: "MovingObjects".into(),
                columns: None,
                predicate: vec![Condition {
                    column: "Oid".into(),
                    op: CmpOp::Lt,
                    value: Value::BigInt(10),
                }],
            }
        );
        assert_eq!(Parser::parse("Commit Tran").unwrap(), Statement::Commit);
    }

    #[test]
    fn parses_dml() {
        let ins = Parser::parse("INSERT INTO t VALUES (1, 2, 'x'), (3, -4, 'y')").unwrap();
        match ins {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], Value::BigInt(-4));
            }
            other => panic!("{other:?}"),
        }
        let upd = Parser::parse("UPDATE t SET a = 5, b = 'z' WHERE id = 3 AND a >= 2").unwrap();
        match upd {
            Statement::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets.len(), 2);
                assert_eq!(predicate.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        let del = Parser::parse("DELETE FROM t").unwrap();
        assert_eq!(
            del,
            Statement::Delete {
                table: "t".into(),
                predicate: vec![],
            }
        );
    }

    #[test]
    fn parses_begin_variants() {
        assert_eq!(
            Parser::parse("BEGIN TRAN ISOLATION SNAPSHOT").unwrap(),
            Statement::Begin {
                as_of: None,
                isolation: Isolation::Snapshot,
            }
        );
        assert_eq!(
            Parser::parse("BEGIN TRAN AS OF ms(123456)").unwrap(),
            Statement::Begin {
                as_of: Some(AsOfSpec::Millis(123456)),
                isolation: Isolation::Serializable,
            }
        );
    }

    #[test]
    fn parses_history_and_misc() {
        assert_eq!(
            Parser::parse("HISTORY OF t WHERE Oid = 7").unwrap(),
            Statement::History {
                table: "t".into(),
                pk: Value::BigInt(7),
            }
        );
        assert_eq!(Parser::parse("CHECKPOINT").unwrap(), Statement::Checkpoint);
        assert_eq!(
            Parser::parse("RESTORE TABLE t AS OF ms(42)").unwrap(),
            Statement::RestoreTable {
                table: "t".into(),
                as_of: AsOfSpec::Millis(42),
            }
        );
        assert_eq!(
            Parser::parse("RESTORE TABLE t AS OF \"8/12/2004 10:15:20\"").unwrap(),
            Statement::RestoreTable {
                table: "t".into(),
                as_of: AsOfSpec::DateTime("8/12/2004 10:15:20".into()),
            }
        );
        assert!(Parser::parse("RESTORE TABLE t").is_err());
        assert_eq!(
            Parser::parse("ALTER TABLE t ENABLE SNAPSHOT").unwrap(),
            Statement::AlterEnableSnapshot { table: "t".into() }
        );
    }

    #[test]
    fn parses_temporal_statements() {
        assert_eq!(
            Parser::parse("SELECT * FROM t VERSIONS BETWEEN ms(100) AND ms(200) WHERE Oid = 1")
                .unwrap(),
            Statement::VersionsBetween {
                table: "t".into(),
                columns: None,
                t1: AsOfSpec::Millis(100),
                t2: AsOfSpec::Millis(200),
                predicate: vec![Condition {
                    column: "Oid".into(),
                    op: CmpOp::Eq,
                    value: Value::BigInt(1),
                }],
            }
        );
        assert_eq!(
            Parser::parse("SELECT a, b FROM t VERSIONS BETWEEN SNAPSHOT s1 AND ms(99)").unwrap(),
            Statement::VersionsBetween {
                table: "t".into(),
                columns: Some(vec!["a".into(), "b".into()]),
                t1: AsOfSpec::Snapshot("s1".into()),
                t2: AsOfSpec::Millis(99),
                predicate: vec![],
            }
        );
        assert_eq!(
            Parser::parse("DIFF TABLE t BETWEEN \"1/1/1970 00:00:01\" AND SNAPSHOT end").unwrap(),
            Statement::DiffTable {
                table: "t".into(),
                t1: AsOfSpec::DateTime("1/1/1970 00:00:01".into()),
                t2: AsOfSpec::Snapshot("end".into()),
                predicate: vec![],
            }
        );
        assert_eq!(
            Parser::parse("CREATE SNAPSHOT s1").unwrap(),
            Statement::CreateSnapshot {
                name: "s1".into(),
                as_of: None,
            }
        );
        assert_eq!(
            Parser::parse("CREATE SNAPSHOT s1 AS OF ms(42)").unwrap(),
            Statement::CreateSnapshot {
                name: "s1".into(),
                as_of: Some(AsOfSpec::Millis(42)),
            }
        );
        assert_eq!(
            Parser::parse("DROP SNAPSHOT s1").unwrap(),
            Statement::DropSnapshot { name: "s1".into() }
        );
        assert_eq!(
            Parser::parse("SHOW SNAPSHOTS").unwrap(),
            Statement::ShowSnapshots
        );
        assert_eq!(
            Parser::parse("BEGIN TRAN AS OF SNAPSHOT s1").unwrap(),
            Statement::Begin {
                as_of: Some(AsOfSpec::Snapshot("s1".into())),
                isolation: Isolation::Serializable,
            }
        );
    }

    #[test]
    fn temporal_parse_errors_report_byte_offsets() {
        // Reversed literal bounds: the error points at the upper bound.
        match Parser::parse("SELECT * FROM t VERSIONS BETWEEN ms(200) AND ms(100)") {
            Err(e) => {
                assert_eq!(e.parse_offset(), Some(45), "{e}");
                assert!(e.to_string().contains("reversed"), "{e}");
            }
            Ok(s) => panic!("parsed {s:?}"),
        }
        match Parser::parse("DIFF TABLE t BETWEEN ms(9) AND ms(3)") {
            Err(e) => assert_eq!(e.parse_offset(), Some(31), "{e}"),
            Ok(s) => panic!("parsed {s:?}"),
        }
        // Missing AND: anchored at the offending token.
        match Parser::parse("SELECT * FROM t VERSIONS BETWEEN ms(1) ms(2)") {
            Err(e) => assert_eq!(e.parse_offset(), Some(39), "{e}"),
            Ok(s) => panic!("parsed {s:?}"),
        }
        // Snapshot bounds defer ordering to execution.
        assert!(Parser::parse("DIFF TABLE t BETWEEN SNAPSHOT b AND SNAPSHOT a").is_ok());
        assert!(Parser::parse("DIFF TABLE t BETWEEN ms(5)").is_err());
        assert!(Parser::parse("CREATE SNAPSHOT").is_err());
        assert!(Parser::parse("DROP SNAPSHOT").is_err());
        assert!(Parser::parse("SHOW NOTHING").is_err());
    }

    #[test]
    fn parse_errors_report_byte_offsets() {
        // "FORM" lexes as an identifier; expect_kw(FROM) fails at its
        // position (byte 9).
        match Parser::parse("SELECT * FORM t") {
            Err(e) => {
                assert_eq!(e.parse_offset(), Some(9), "{e}");
                assert!(e.to_string().contains("at byte 9"), "{e}");
            }
            Ok(s) => panic!("parsed {s:?}"),
        }
        // Offset of a bad literal inside a longer statement.
        match Parser::parse("INSERT INTO t VALUES (1, FROM)") {
            Err(e) => assert_eq!(e.parse_offset(), Some(25), "{e}"),
            Ok(s) => panic!("parsed {s:?}"),
        }
        // Truncated input points one past the end.
        match Parser::parse("SELECT * FROM") {
            Err(e) => assert_eq!(e.parse_offset(), Some(13), "{e}"),
            Ok(s) => panic!("parsed {s:?}"),
        }
        // Trailing garbage points at the first unconsumed token.
        match Parser::parse("CHECKPOINT now") {
            Err(e) => assert_eq!(e.parse_offset(), Some(11), "{e}"),
            Ok(s) => panic!("parsed {s:?}"),
        }
    }

    #[test]
    fn using_an_index_names_the_removal_at_its_offset() {
        for sql in [
            "CREATE IMMORTAL TABLE t (a int PRIMARY KEY) USING TSB",
            "CREATE IMMORTAL TABLE t (a int PRIMARY KEY) using chain",
        ] {
            match Parser::parse(sql) {
                Err(e) => {
                    assert_eq!(e.parse_offset(), Some(44), "{e}");
                    assert!(e.to_string().contains("TSB-tree index was removed"), "{e}");
                }
                Ok(s) => panic!("parsed {s:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(Parser::parse("CREATE TABLE t (a int)").is_err()); // no pk
        assert!(Parser::parse("SELECT FROM t").is_err());
        assert!(Parser::parse("INSERT INTO t VALUES 1, 2").is_err());
        assert!(Parser::parse("SELECT * FROM t WHERE a ! 3").is_err());
        assert!(Parser::parse("SELECT * FROM t extra garbage ,").is_err());
        assert!(Parser::parse("CREATE TABLE t (a int PRIMARY KEY, b int PRIMARY KEY)").is_err());
    }
}
