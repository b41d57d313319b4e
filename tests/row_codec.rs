//! The row codec against the one it replaced: `Schema::check_image` and
//! `decode_values_into` index the image themselves in one pass, and must
//! accept, reject and decode exactly what the field-at-a-time `Reader`
//! versions did. Those versions live here, as the oracle, and every
//! image below goes through both: each accepted image must decode to the
//! same values, and each rejected one must fail with the same error.

use immortaldb::row::{decode_image_into, decode_values_into};
use immortaldb::{ColType, Column, Error, Result, Schema, Value};
use immortaldb_common::codec::Reader;

/// The oracle's check: the `Reader` walk over the schema's columns.
fn oracle_check(schema: &Schema, image: &[u8]) -> Result<()> {
    let mut r = Reader::new(image);
    for c in &schema.columns {
        match (r.u8()?, c.ctype) {
            (1, ColType::SmallInt) => r.raw(2).map(drop)?,
            (2, ColType::Int) => r.raw(4).map(drop)?,
            (3, ColType::BigInt) => r.raw(8).map(drop)?,
            (4, ColType::Varchar(_)) => {
                std::str::from_utf8(r.bytes()?)
                    .map_err(|_| Error::Corruption("non-UTF8 varchar".into()))?;
            }
            (t, ctype) => {
                return Err(Error::Corruption(format!(
                    "bad value tag {t} for {ctype} column {}",
                    c.name
                )))
            }
        }
    }
    r.expect_end()
}

/// The oracle's decode of `n` values, one `Reader` call per field.
fn oracle_values(r: &mut Reader<'_>, n: usize) -> Result<Vec<Value>> {
    (0..n)
        .map(|_| {
            Ok(match r.u8()? {
                1 => Value::SmallInt(r.u16()? as i16),
                2 => Value::Int(r.u32()? as i32),
                3 => Value::BigInt(r.u64()? as i64),
                4 => Value::Varchar(
                    std::str::from_utf8(r.bytes()?)
                        .map_err(|_| Error::Corruption("non-UTF8 varchar".into()))?
                        .to_owned(),
                ),
                t => return Err(Error::Corruption(format!("bad value tag {t}"))),
            })
        })
        .collect()
}

/// What the oracle makes of a whole image: its values, or its error.
fn oracle_image(image: &[u8], n: usize) -> Result<Vec<Value>> {
    let mut r = Reader::new(image);
    let values = oracle_values(&mut r, n)?;
    r.expect_end()?;
    Ok(values)
}

/// An outcome as text, so that two errors compare by what they say.
fn said<T: std::fmt::Debug>(r: &Result<T>) -> String {
    match r {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("err {e}"),
    }
}

/// Run `image` through both codecs under `schema` and assert they agree:
/// the check, the whole-image decode (into an empty row and over a row
/// of other values), and the prefix decode that a result frame uses.
fn agree(schema: &Schema, image: &[u8]) {
    let n = schema.columns.len();
    assert_eq!(
        said(&schema.check_image(image)),
        said(&oracle_check(schema, image)),
        "check of {image:?}"
    );
    let want = oracle_image(image, n);
    let mut fresh = Vec::new();
    let got = decode_image_into(image, n, &mut fresh).map(|()| fresh);
    assert_eq!(said(&got), said(&want), "decode of {image:?}");
    // Over a previous row: integers and strings alike are replaced.
    let mut reused = vec![Value::Varchar("previous".into()); n];
    if decode_image_into(image, n, &mut reused).is_ok() {
        assert_eq!(Ok(reused), want.map_err(|e| e.to_string()));
    }
    // As a prefix of a longer buffer: the bytes used are where the
    // oracle's reader stopped.
    let mut r = Reader::new(image);
    let want = oracle_values(&mut r, n).map(|v| (v, image.len() - r.remaining()));
    let mut row = Vec::new();
    let got = decode_values_into(image, n, &mut row).map(|used| (row, used));
    assert_eq!(said(&got), said(&want), "prefix decode of {image:?}");
}

fn column(name: &str, ctype: ColType) -> Column {
    Column {
        name: name.into(),
        ctype,
    }
}

/// A schema of each type alone, and two that mix them.
fn schemas() -> Vec<Schema> {
    let one = |ctype| Schema::new(vec![column("k", ctype)], 0).unwrap();
    vec![
        one(ColType::SmallInt),
        one(ColType::Int),
        one(ColType::BigInt),
        one(ColType::Varchar(40)),
        Schema::new(
            vec![
                column("Oid", ColType::Int),
                column("LocationX", ColType::Int),
                column("LocationY", ColType::Int),
            ],
            0,
        )
        .unwrap(),
        Schema::new(
            vec![
                column("a", ColType::SmallInt),
                column("b", ColType::Varchar(40)),
                column("c", ColType::BigInt),
                column("d", ColType::Int),
                column("e", ColType::Varchar(40)),
            ],
            0,
        )
        .unwrap(),
    ]
}

/// SplitMix64: the test's seeded randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A value of `ctype`: extremes often, otherwise anything; text mixes
/// ASCII and multi-byte characters.
fn value(rng: &mut Rng, ctype: ColType) -> Value {
    let x = rng.next();
    let pick = |edges: &[i64]| match x % 4 {
        0 => edges[(x >> 8) as usize % edges.len()],
        _ => (x >> 2) as i64,
    };
    match ctype {
        ColType::SmallInt => {
            Value::SmallInt(pick(&[0, -1, i16::MIN as i64, i16::MAX as i64]) as i16)
        }
        ColType::Int => Value::Int(pick(&[0, -1, i32::MIN as i64, i32::MAX as i64]) as i32),
        ColType::BigInt => Value::BigInt(pick(&[0, -1, i64::MIN, i64::MAX])),
        ColType::Varchar(_) => {
            let chars = ['a', 'Z', '0', ' ', 'é', 'ж', '日', '🦀'];
            let len = rng.below(12);
            Value::Varchar((0..len).map(|_| chars[rng.below(chars.len())]).collect())
        }
    }
}

/// A row of `schema`, its image and where each column's tag sits.
fn row(rng: &mut Rng, schema: &Schema) -> (Vec<u8>, Vec<usize>) {
    let values: Vec<Value> = schema.columns.iter().map(|c| value(rng, c.ctype)).collect();
    let mut tags = Vec::new();
    let mut image = Vec::new();
    for v in &values {
        tags.push(image.len());
        image.extend_from_slice(&schema.encode_row(std::slice::from_ref(v)));
    }
    assert_eq!(image, schema.encode_row(&values));
    (image, tags)
}

#[test]
fn the_one_pass_codec_agrees_with_the_reader_codec() {
    let mut rng = Rng(0x5EED_0001);
    for schema in schemas() {
        for _ in 0..20 {
            let (image, tags) = row(&mut rng, &schema);
            agree(&schema, &image);
            // Every truncation point.
            for cut in 0..image.len() {
                agree(&schema, &image[..cut]);
            }
            // A wrong tag at every column: every other tag, and bytes
            // that are no tag at all.
            for &at in &tags {
                for tag in [0u8, 1, 2, 3, 4, 5, 9, 0x80, 0xFF] {
                    let mut bad = image.clone();
                    bad[at] = tag;
                    agree(&schema, &bad);
                }
            }
            // One trailing byte, and a few.
            for tail in [&[0u8][..], &[2], &[4, 0, 0, 0]] {
                agree(&schema, &[&image[..], tail].concat());
            }
        }
    }
}

#[test]
fn text_that_is_not_utf8_is_rejected_by_both() {
    let schema = &schemas()[5];
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..20 {
        let (image, tags) = row(&mut rng, schema);
        // Column `b` is the first VARCHAR: after its tag comes a u32
        // length, then the text.
        let text = tags[1] + 5..tags[2];
        for (at, byte) in text
            .clone()
            .flat_map(|at| [0x80u8, 0xC3, 0xFF].map(|b| (at, b)))
        {
            let mut bad = image.clone();
            bad[at] = byte;
            agree(schema, &bad);
        }
        // A length that runs past the image, and one that stops short.
        for len in [
            u32::MAX,
            text.len() as u32 + 1,
            text.len().saturating_sub(1) as u32,
        ] {
            let mut bad = image.clone();
            bad[tags[1] + 1..tags[1] + 5].copy_from_slice(&len.to_le_bytes());
            agree(schema, &bad);
        }
    }
    // A lone invalid string, accepted by neither.
    let one = &schemas()[3];
    agree(one, &[4, 2, 0, 0, 0, 0xC3, 0x28]);
}

#[test]
fn seeded_random_images_get_the_same_answer_from_both() {
    let schemas = schemas();
    for seed in 0..8u64 {
        let mut rng = Rng(0xC0DE_C000 + seed);
        for _ in 0..400 {
            let schema = &schemas[rng.below(schemas.len())];
            let (mut image, _) = row(&mut rng, schema);
            match rng.below(3) {
                // Bytes changed anywhere.
                0 => {
                    for _ in 0..1 + rng.below(3) {
                        let at = rng.below(image.len());
                        image[at] = rng.next() as u8;
                    }
                }
                // Noise of any length, tagged or not.
                1 => {
                    let len = rng.below(40);
                    image = (0..len).map(|_| rng.next() as u8 % 6).collect();
                }
                // A row of another schema.
                _ => {
                    let other = &schemas[rng.below(schemas.len())];
                    image = row(&mut rng, other).0;
                }
            }
            agree(schema, &image);
        }
    }
}
