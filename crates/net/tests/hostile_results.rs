//! A result the client cannot trust: a fake server answers HELLO like
//! the real one, then answers the query with a `ROWS` frame that is cut
//! short, carries a value tag that names no type, or holds text that is
//! not UTF-8. `Client::query` and `Client::query_rows` must return a
//! typed error for each — never panic, and never hand back a `Response`
//! built from part of a result.

use std::borrow::Cow;
use std::io::Write;
use std::net::TcpListener;
use std::thread;

use immortaldb::row::encode_values;
use immortaldb::Value;
use immortaldb_common::Error;
use immortaldb_net::proto::{op, FrameBuffer, Reply, RowsEncoder};
use immortaldb_net::Client;

/// The rows of the honest result: an integer and a string column.
fn rows() -> Vec<Vec<Value>> {
    (0..3)
        .map(|i| vec![Value::Int(i), Value::Varchar(format!("row {i} é"))])
        .collect()
}

/// The honest result as one `ROWS` frame, and where each row's two
/// value tags sit in it.
fn result_frame() -> (Vec<u8>, Vec<usize>) {
    let mut wire = Vec::new();
    let mut enc = RowsEncoder::begin(&mut wire, false, &["id".into(), "name".into()]);
    let mut tags = Vec::new();
    for row in rows() {
        let mut image = Vec::new();
        encode_values(&mut image, &row);
        tags.push(wire.len());
        tags.push(wire.len() + 5);
        enc.row(&mut wire, &image);
    }
    enc.finish(&mut wire, false, None, "3 rows");
    (wire, tags)
}

/// `payload` sent as a whole `ROWS` frame: its own length, the opcode.
fn rows_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = ((payload.len() + 1) as u32).to_le_bytes().to_vec();
    frame.push(op::ROWS);
    frame.extend_from_slice(payload);
    frame
}

/// Serve one connection per reply in `replies`: answer its HELLO, read
/// its query, write the reply's bytes and close.
fn fake_server(replies: Vec<Vec<u8>>) -> (std::net::SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = thread::spawn(move || {
        for reply in replies {
            let (mut peer, _) = listener.accept().unwrap();
            let mut inbox = FrameBuffer::new();
            let hello = inbox.read_frame(&mut peer, |op, _| op).unwrap();
            assert_eq!(hello, op::HELLO);
            let mut ok = Vec::new();
            Reply::Ok {
                txn_open: false,
                ts: None,
                affected: 0,
                message: Cow::Borrowed("hello"),
            }
            .encode_into(&mut ok);
            peer.write_all(&ok).unwrap();
            // The query, whatever it says; a client that gave up on the
            // connection early sends none.
            if inbox.read_frame(&mut peer, |_, _| ()).is_ok() {
                let _ = peer.write_all(&reply);
            }
        }
    });
    (addr, serve)
}

/// Every reply in `replies` makes both calls fail with a typed error.
fn refused(replies: Vec<Vec<u8>>, what: &str) {
    let n = replies.len();
    // Each reply is served twice: once to `query`, once to `query_rows`.
    let twice = replies.into_iter().flat_map(|r| [r.clone(), r]).collect();
    let (addr, serve) = fake_server(twice);
    for i in 0..n {
        let mut client = Client::connect(addr).unwrap();
        let got = client.query("SELECT * FROM t");
        assert!(
            matches!(got, Err(Error::Corruption(_) | Error::Io(_))),
            "{what} {i}: query gave {got:?}"
        );
        let mut client = Client::connect(addr).unwrap();
        let mut seen = 0;
        let got = client.query_rows("SELECT * FROM t", |_| seen += 1);
        assert!(
            matches!(got, Err(Error::Corruption(_) | Error::Io(_))),
            "{what} {i}: query_rows gave {got:?} after {seen} rows"
        );
    }
    serve.join().unwrap();
}

#[test]
fn the_honest_result_is_read_whole() {
    let (frame, _) = result_frame();
    let (addr, serve) = fake_server(vec![frame]);
    let got = Client::connect(addr)
        .unwrap()
        .query("SELECT * FROM t")
        .unwrap();
    assert_eq!(got.columns, ["id", "name"]);
    assert_eq!(got.rows, rows());
    assert_eq!(got.message, "3 rows");
    serve.join().unwrap();
}

#[test]
fn a_rows_frame_cut_at_any_byte_is_an_error() {
    let (frame, _) = result_frame();
    let payload = &frame[5..];
    // A whole frame whose payload stops early: the decoder runs out.
    let short = (0..payload.len()).map(|cut| rows_frame(&payload[..cut]));
    refused(short.collect(), "payload cut at");
    // The stream itself stops early and the server hangs up.
    let hung_up = (1..frame.len()).map(|cut| frame[..cut].to_vec());
    refused(hung_up.collect(), "stream cut at");
}

#[test]
fn a_value_tag_that_names_no_type_is_an_error() {
    let (frame, tags) = result_frame();
    let mut bad = Vec::new();
    for &at in &tags {
        for tag in [0u8, 5, 9, 0xFF] {
            let mut frame = frame.clone();
            frame[at] = tag;
            bad.push(frame);
        }
    }
    refused(bad, "bad tag");
}

#[test]
fn text_that_is_not_utf8_is_an_error() {
    let (frame, tags) = result_frame();
    let mut bad = Vec::new();
    // Each row's string: its tag, a u32 length, then "row N é".
    for &at in tags.iter().skip(1).step_by(2) {
        for (offset, byte) in [(5, 0xFF), (10, 0xC3), (11, 0x28)] {
            let mut frame = frame.clone();
            frame[at + offset] = byte;
            bad.push(frame);
        }
    }
    refused(bad, "bad text");
}
