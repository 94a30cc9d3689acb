//! The wire protocol: length-prefixed frames, each carrying one message.
//!
//! A frame is a little-endian `u32` payload length followed by the
//! payload; the first payload byte is the opcode. Requests use opcodes
//! `0x01..=0x06`, responses set the high bit (`0x81..=0x86`) so a
//! captured byte stream reads unambiguously. Values and column types
//! reuse `redsim_common::codec`'s primitives — the same Writer/Reader
//! the block format uses — so the protocol inherits its bounds checks.
//!
//! Errors cross the wire as `(code, message, retryable)` and come back
//! as the *same* [`RsError`] variant: [`decode_error`] inverts
//! [`RsError::code`], so `is_retryable()` survives the round trip and a
//! client-side retry loop behaves exactly like a leader-local one.

use redsim_common::codec::{Reader, Writer};
use redsim_common::{DataType, Result, Row, RsError, Value};
use redsim_sql::plan::OutCol;

/// Frames larger than this are rejected before allocation — a corrupt
/// length prefix must not OOM the server.
pub const MAX_FRAME: usize = 16 << 20;

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the session. Must be the first message on a connection.
    Hello { user: String, user_group: Option<String> },
    /// Run a SELECT/EXPLAIN; the response is [`Response::Rows`].
    Query { sql: String },
    /// Run any statement; the response is [`Response::Summary`].
    Execute { sql: String },
    /// `SET`-style session setting.
    Set { name: String, value: String },
    /// Liveness probe.
    Ping,
    /// Graceful goodbye (an abrupt disconnect works too; this one gets
    /// an acknowledgement before the server closes).
    Bye,
}

/// Result rows as they cross the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRows {
    pub columns: Vec<OutCol>,
    pub rows: Vec<Row>,
    /// Compiled-plan cache hit on the leader.
    pub cache_hit: bool,
    /// Served from the leader result cache (no admission/compile/exec).
    pub result_cache_hit: bool,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    HelloOk { session: u64, userid: u32 },
    Rows(WireRows),
    Summary { rows_affected: u64, message: String },
    Err { code: String, message: String, retryable: bool },
    Pong,
    ByeOk,
}

const OP_HELLO: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_EXECUTE: u8 = 0x03;
const OP_SET: u8 = 0x04;
const OP_PING: u8 = 0x05;
const OP_BYE: u8 = 0x06;

const OP_HELLO_OK: u8 = 0x81;
const OP_ROWS: u8 = 0x82;
const OP_SUMMARY: u8 = 0x83;
const OP_ERR: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_BYE_OK: u8 = 0x86;

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

/// Prefix `payload` with its length and write the frame.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary (the
/// peer closed); an EOF inside a frame is an error.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        let n = r.read(&mut len[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside frame header",
            ));
        }
        filled += n;
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

// ----------------------------------------------------------------------
// Message codec
// ----------------------------------------------------------------------

pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match req {
        Request::Hello { user, user_group } => {
            w.put_u8(OP_HELLO);
            w.put_str(user);
            w.put_bool(user_group.is_some());
            if let Some(g) = user_group {
                w.put_str(g);
            }
        }
        Request::Query { sql } => {
            w.put_u8(OP_QUERY);
            w.put_str(sql);
        }
        Request::Execute { sql } => {
            w.put_u8(OP_EXECUTE);
            w.put_str(sql);
        }
        Request::Set { name, value } => {
            w.put_u8(OP_SET);
            w.put_str(name);
            w.put_str(value);
        }
        Request::Ping => w.put_u8(OP_PING),
        Request::Bye => w.put_u8(OP_BYE),
    }
    w.into_bytes()
}

pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut r = Reader::new(payload);
    let req = match r.get_u8()? {
        OP_HELLO => {
            let user = r.get_str()?;
            let user_group = if r.get_bool()? { Some(r.get_str()?) } else { None };
            Request::Hello { user, user_group }
        }
        OP_QUERY => Request::Query { sql: r.get_str()? },
        OP_EXECUTE => Request::Execute { sql: r.get_str()? },
        OP_SET => Request::Set { name: r.get_str()?, value: r.get_str()? },
        OP_PING => Request::Ping,
        OP_BYE => Request::Bye,
        op => return Err(RsError::Codec(format!("unknown request opcode {op:#04x}"))),
    };
    expect_exhausted(&r)?;
    Ok(req)
}

pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match resp {
        Response::HelloOk { session, userid } => {
            w.put_u8(OP_HELLO_OK);
            w.put_u64(*session);
            w.put_u32(*userid);
        }
        Response::Rows(rows) => {
            w.put_u8(OP_ROWS);
            w.put_u32(rows.columns.len() as u32);
            for c in &rows.columns {
                w.put_str(&c.name);
                put_dtype(&mut w, c.ty);
            }
            w.put_u32(rows.rows.len() as u32);
            for row in &rows.rows {
                w.put_u32(row.len() as u32);
                for v in row.values() {
                    put_value(&mut w, v);
                }
            }
            w.put_bool(rows.cache_hit);
            w.put_bool(rows.result_cache_hit);
        }
        Response::Summary { rows_affected, message } => {
            w.put_u8(OP_SUMMARY);
            w.put_u64(*rows_affected);
            w.put_str(message);
        }
        Response::Err { code, message, retryable } => {
            w.put_u8(OP_ERR);
            w.put_str(code);
            w.put_str(message);
            w.put_bool(*retryable);
        }
        Response::Pong => w.put_u8(OP_PONG),
        Response::ByeOk => w.put_u8(OP_BYE_OK),
    }
    w.into_bytes()
}

pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut r = Reader::new(payload);
    let resp = match r.get_u8()? {
        OP_HELLO_OK => Response::HelloOk { session: r.get_u64()?, userid: r.get_u32()? },
        OP_ROWS => {
            // A column is at least a name length and a type tag, a row an
            // arity, a value a tag.
            let ncols = r.get_count(5)?;
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let name = r.get_str()?;
                let ty = get_dtype(&mut r)?;
                columns.push(OutCol { name, ty });
            }
            let nrows = r.get_count(4)?;
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let arity = r.get_count(1)?;
                let mut values = Vec::with_capacity(arity);
                for _ in 0..arity {
                    values.push(get_value(&mut r)?);
                }
                rows.push(Row::new(values));
            }
            let cache_hit = r.get_bool()?;
            let result_cache_hit = r.get_bool()?;
            Response::Rows(WireRows { columns, rows, cache_hit, result_cache_hit })
        }
        OP_SUMMARY => Response::Summary { rows_affected: r.get_u64()?, message: r.get_str()? },
        OP_ERR => Response::Err {
            code: r.get_str()?,
            message: r.get_str()?,
            retryable: r.get_bool()?,
        },
        OP_PONG => Response::Pong,
        OP_BYE_OK => Response::ByeOk,
        op => return Err(RsError::Codec(format!("unknown response opcode {op:#04x}"))),
    };
    expect_exhausted(&r)?;
    Ok(resp)
}

fn expect_exhausted(r: &Reader<'_>) -> Result<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(RsError::Codec(format!("{} trailing bytes after message", r.remaining())))
    }
}

// ----------------------------------------------------------------------
// Scalar codecs
// ----------------------------------------------------------------------

fn put_dtype(w: &mut Writer, ty: DataType) {
    match ty {
        DataType::Bool => w.put_u8(0),
        DataType::Int2 => w.put_u8(1),
        DataType::Int4 => w.put_u8(2),
        DataType::Int8 => w.put_u8(3),
        DataType::Float8 => w.put_u8(4),
        DataType::Varchar => w.put_u8(5),
        DataType::Date => w.put_u8(6),
        DataType::Timestamp => w.put_u8(7),
        DataType::Decimal(p, s) => {
            w.put_u8(8);
            w.put_u8(p);
            w.put_u8(s);
        }
    }
}

fn get_dtype(r: &mut Reader<'_>) -> Result<DataType> {
    Ok(match r.get_u8()? {
        0 => DataType::Bool,
        1 => DataType::Int2,
        2 => DataType::Int4,
        3 => DataType::Int8,
        4 => DataType::Float8,
        5 => DataType::Varchar,
        6 => DataType::Date,
        7 => DataType::Timestamp,
        8 => DataType::Decimal(r.get_u8()?, r.get_u8()?),
        t => return Err(RsError::Codec(format!("unknown data-type tag {t}"))),
    })
}

fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_bool(*b);
        }
        Value::Int2(i) => {
            w.put_u8(2);
            w.put_i32(*i as i32);
        }
        Value::Int4(i) => {
            w.put_u8(3);
            w.put_i32(*i);
        }
        Value::Int8(i) => {
            w.put_u8(4);
            w.put_i64(*i);
        }
        Value::Float8(f) => {
            w.put_u8(5);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(6);
            w.put_str(s);
        }
        Value::Date(d) => {
            w.put_u8(7);
            w.put_i32(*d);
        }
        Value::Timestamp(t) => {
            w.put_u8(8);
            w.put_i64(*t);
        }
        Value::Decimal { units, scale } => {
            w.put_u8(9);
            w.put_i128(*units);
            w.put_u8(*scale);
        }
    }
}

fn get_value(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.get_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.get_bool()?),
        2 => Value::Int2(i16::try_from(r.get_i32()?).map_err(|e| RsError::Codec(format!("INT2: {e}")))?),
        3 => Value::Int4(r.get_i32()?),
        4 => Value::Int8(r.get_i64()?),
        5 => Value::Float8(r.get_f64()?),
        6 => Value::Str(r.get_str()?),
        7 => Value::Date(r.get_i32()?),
        8 => Value::Timestamp(r.get_i64()?),
        9 => Value::Decimal { units: r.get_i128()?, scale: r.get_u8()? },
        t => return Err(RsError::Codec(format!("unknown value tag {t}"))),
    })
}

// ----------------------------------------------------------------------
// Error transport
// ----------------------------------------------------------------------

/// Flatten an [`RsError`] into its wire triple.
pub fn encode_error(e: &RsError) -> Response {
    Response::Err {
        code: e.code().to_string(),
        message: e.message().to_string(),
        retryable: e.is_retryable(),
    }
}

/// Rebuild the typed error from its wire triple — the inverse of
/// [`RsError::code`], so retryability classification survives transport.
/// Unknown codes (a newer server) degrade to `Execution`.
pub fn decode_error(code: &str, message: String) -> RsError {
    match code {
        "PARSE" => RsError::Parse(message),
        "ANALYSIS" => RsError::Analysis(message),
        "PLAN" => RsError::Plan(message),
        "EXEC" => RsError::Execution(message),
        "STORAGE" => RsError::Storage(message),
        "NOT_FOUND" => RsError::NotFound(message),
        "ALREADY_EXISTS" => RsError::AlreadyExists(message),
        "CODEC" => RsError::Codec(message),
        "REPL" => RsError::Replication(message),
        "CRYPTO" => RsError::Crypto(message),
        "CTRL" => RsError::ControlPlane(message),
        "FAULT" => RsError::FaultInjected(message),
        "STATE" => RsError::InvalidState(message),
        "TXN" => RsError::TxnConflict(message),
        "SERIALIZABLE" => RsError::Serializable(message),
        "UNSUPPORTED" => RsError::Unsupported(message),
        "THROTTLE" => RsError::Throttled(message),
        _ => RsError::Execution(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello { user: "ada".into(), user_group: None });
        roundtrip_req(Request::Hello {
            user: "etl".into(),
            user_group: Some("etl_users".into()),
        });
        roundtrip_req(Request::Query { sql: "SELECT 'it''s' FROM t".into() });
        roundtrip_req(Request::Execute { sql: "COPY t FROM 's3://in/'".into() });
        roundtrip_req(Request::Set {
            name: "enable_result_cache_for_session".into(),
            value: "off".into(),
        });
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn responses_roundtrip_every_value_variant() {
        roundtrip_resp(Response::HelloOk { session: 42, userid: 101 });
        roundtrip_resp(Response::Summary { rows_affected: 9, message: "COPY 9".into() });
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::ByeOk);
        let columns = vec![
            OutCol { name: "b".into(), ty: DataType::Bool },
            OutCol { name: "i2".into(), ty: DataType::Int2 },
            OutCol { name: "i4".into(), ty: DataType::Int4 },
            OutCol { name: "i8".into(), ty: DataType::Int8 },
            OutCol { name: "f".into(), ty: DataType::Float8 },
            OutCol { name: "s".into(), ty: DataType::Varchar },
            OutCol { name: "d".into(), ty: DataType::Date },
            OutCol { name: "ts".into(), ty: DataType::Timestamp },
            OutCol { name: "dec".into(), ty: DataType::Decimal(18, 4) },
            OutCol { name: "n".into(), ty: DataType::Varchar },
        ];
        let row = Row::new(vec![
            Value::Bool(true),
            Value::Int2(-7),
            Value::Int4(123_456),
            Value::Int8(-9_876_543_210),
            Value::Float8(2.5),
            Value::Str("héllo".into()),
            Value::Date(-365),
            Value::Timestamp(1_433_066_400_000_000),
            Value::Decimal { units: -1_234_567, scale: 4 },
            Value::Null,
        ]);
        roundtrip_resp(Response::Rows(WireRows {
            columns,
            rows: vec![row],
            cache_hit: true,
            result_cache_hit: false,
        }));
    }

    #[test]
    fn errors_preserve_type_and_retryability() {
        let originals = vec![
            RsError::Parse("p".into()),
            RsError::Analysis("a".into()),
            RsError::Plan("pl".into()),
            RsError::Execution("e".into()),
            RsError::Storage("s".into()),
            RsError::NotFound("n".into()),
            RsError::AlreadyExists("ae".into()),
            RsError::Codec("c".into()),
            RsError::Replication("r".into()),
            RsError::Crypto("cr".into()),
            RsError::ControlPlane("cp".into()),
            RsError::FaultInjected("f".into()),
            RsError::InvalidState("is".into()),
            RsError::TxnConflict("t".into()),
            RsError::Serializable("si".into()),
            RsError::Unsupported("u".into()),
            RsError::Throttled("th".into()),
        ];
        for original in originals {
            let Response::Err { code, message, retryable } = encode_error(&original) else {
                panic!("encode_error must produce Response::Err");
            };
            assert_eq!(retryable, original.is_retryable());
            let back = decode_error(&code, message);
            assert_eq!(back, original, "decode must invert encode exactly");
            assert_eq!(back.is_retryable(), original.is_retryable());
        }
    }

    #[test]
    fn framing_rejects_oversized_and_detects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        // Clean EOF at a frame boundary → None.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // Truncated payload → error, not a silent partial frame.
        let mut truncated = std::io::Cursor::new(buf[..buf.len() - 2].to_vec());
        assert!(read_frame(&mut truncated).is_err());
        // A length prefix past the cap is rejected before allocating.
        let mut huge = std::io::Cursor::new(((MAX_FRAME + 1) as u32).to_le_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
    }

    #[test]
    fn garbage_opcodes_are_typed_codec_errors() {
        assert!(matches!(decode_request(&[0x7f]), Err(RsError::Codec(_))));
        assert!(matches!(decode_response(&[0x01]), Err(RsError::Codec(_))));
        // Trailing bytes after a well-formed message are rejected too.
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(matches!(decode_request(&bytes), Err(RsError::Codec(_))));
    }

    /// A `u32::MAX` column, row or value count in a Rows frame is a typed
    /// error, not an allocation that aborts the process.
    #[test]
    fn a_corrupt_count_is_a_codec_error() {
        let max = u32::MAX.to_le_bytes();
        let frames = [
            [&[OP_ROWS][..], &max].concat(),
            [&[OP_ROWS][..], &0u32.to_le_bytes(), &max].concat(),
            [&[OP_ROWS][..], &0u32.to_le_bytes(), &1u32.to_le_bytes(), &max].concat(),
        ];
        for frame in frames {
            let err = decode_response(&frame).unwrap_err();
            assert!(matches!(err, RsError::Codec(_)), "{frame:?}: {err}");
        }
    }

    /// An INT2 cell carries an `i32` on the wire; one outside `i16` is a
    /// corrupt frame, not a value to wrap.
    #[test]
    fn an_out_of_range_int2_is_a_codec_error() {
        let rows = |v: i16| {
            Response::Rows(WireRows {
                columns: vec![OutCol { name: "s".into(), ty: DataType::Int2 }],
                rows: vec![Row::new(vec![Value::Int2(v)])],
                cache_hit: false,
                result_cache_hit: false,
            })
        };
        for v in [i16::MIN, -1, 0, i16::MAX] {
            roundtrip_resp(rows(v));
        }
        let frame = encode_response(&rows(7));
        let cell = [&[2u8][..], &7i32.to_le_bytes()].concat();
        let at = frame.windows(cell.len()).rposition(|w| w == cell).expect("the INT2 cell");
        for wide in [70_000i32, i16::MAX as i32 + 1, i16::MIN as i32 - 1] {
            let mut corrupt = frame.clone();
            corrupt[at + 1..at + 5].copy_from_slice(&wide.to_le_bytes());
            let err = decode_response(&corrupt).unwrap_err();
            assert!(matches!(err, RsError::Codec(_)), "{wide}: {err}");
        }
    }
}
