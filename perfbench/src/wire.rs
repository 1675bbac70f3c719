//! A raw client connection: writes pre-encoded requests and reads whole
//! replies, so the timed round trip holds no client-side decoding. Replies
//! are checked afterwards, outside the timer.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pte_serve::codec_bin::{self, kind, BinReader, BinWriter, FrameReadError};
use pte_serve::json::{fnv1a64, Json};

use crate::gen::Prepared;

/// Which codec a connection speaks (sticky, like the daemons' detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    Json,
    Binary,
}

impl Codec {
    pub fn name(self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }
}

/// A reply as it came off the wire.
pub enum Raw {
    Line(Vec<u8>),
    Frame(u8, Vec<u8>),
}

/// A checked search reply.
pub struct Served {
    pub hit: bool,
    pub coalesced: bool,
    /// FNV-1a 64 of the payload bytes as served: canonical JSON on a JSON
    /// connection, the packed binary payload on a binary one.
    pub digest: u64,
}

pub struct Conn {
    codec: Codec,
    stream: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, codec: Codec) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        // A reply slower than this is a hung server, not a slow search.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { codec, stream: BufReader::new(stream) })
    }

    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one search and reads its whole reply.
    pub fn round_trip(&mut self, request: &Prepared) -> Result<Raw, String> {
        match self.codec {
            Codec::Json => self.json_round_trip(&request.json_line).map(Raw::Line),
            Codec::Binary => {
                let stream = self.stream.get_mut();
                stream.write_all(&request.bin_frame).map_err(|e| format!("write: {e}"))?;
                read_frame(&mut self.stream).map(|(k, body)| Raw::Frame(k, body))
            }
        }
    }

    fn json_round_trip(&mut self, line: &[u8]) -> Result<Vec<u8>, String> {
        self.stream.get_mut().write_all(line).map_err(|e| format!("write: {e}"))?;
        let mut reply = Vec::new();
        self.stream.read_until(b'\n', &mut reply).map_err(|e| format!("read: {e}"))?;
        if reply.last() != Some(&b'\n') {
            return Err("connection closed mid-reply".into());
        }
        reply.pop();
        Ok(reply)
    }

    /// Sends a control op (`{"op":...}`) over JSON and returns the parsed
    /// reply.
    pub fn op(&mut self, op: &str) -> Result<Json, String> {
        assert_eq!(self.codec, Codec::Json, "control ops go over JSON connections");
        let reply = self.json_round_trip(format!("{{\"op\":\"{op}\"}}\n").as_bytes())?;
        let text = std::str::from_utf8(&reply).map_err(|_| "reply is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| format!("{op} reply: {}", e.message))?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(doc),
            _ => Err(format!("{op} failed: {text}")),
        }
    }
}

fn read_frame(stream: &mut BufReader<TcpStream>) -> Result<(u8, Vec<u8>), String> {
    codec_bin::read_frame(stream).map_err(|e| match e {
        FrameReadError::Io(e) => format!("read: {e}"),
        FrameReadError::Closed => "server closed the connection".into(),
        FrameReadError::Malformed(m) => format!("malformed frame: {m}"),
    })
}

const PAYLOAD_MARK: &[u8] = b",\"payload\":";

/// Checks a reply's envelope against the request it answers and digests the
/// payload. Any server error (including an `overloaded` shed) is a failure.
pub fn check(raw: &Raw, request: &Prepared) -> Result<Served, String> {
    match raw {
        Raw::Line(line) => check_line(line, request.key),
        Raw::Frame(frame_kind, body) => check_frame(*frame_kind, body, request.key),
    }
}

/// The daemons splice the cached payload bytes verbatim after the envelope
/// head, so the payload is the reply's tail and the head parses on its own.
fn check_line(line: &[u8], key: u64) -> Result<Served, String> {
    let text = || String::from_utf8_lossy(&line[..line.len().min(200)]).into_owned();
    if !line.starts_with(b"{\"ok\":true") {
        return Err(format!("server error: {}", text()));
    }
    let at = line
        .windows(PAYLOAD_MARK.len())
        .position(|w| w == PAYLOAD_MARK)
        .ok_or_else(|| format!("reply without payload: {}", text()))?;
    let mut head = String::from_utf8(line[..at].to_vec()).map_err(|_| "head is not UTF-8")?;
    head.push('}');
    let head = Json::parse(&head).map_err(|e| format!("bad envelope: {}", e.message))?;
    let claimed = head.get("request_key").and_then(Json::as_str).unwrap_or("");
    if claimed != format!("{key:016x}") {
        return Err(format!("request key mismatch: {claimed} vs {key:016x}"));
    }
    let cache = head.get("cache").ok_or("envelope without cache")?;
    let payload = &line[at + PAYLOAD_MARK.len()..line.len() - 1];
    Ok(Served {
        hit: cache.get("hit").and_then(Json::as_bool).unwrap_or(false),
        coalesced: cache.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
        digest: fnv1a64(payload),
    })
}

/// The binary reply header is re-encoded from its decoded fields and must
/// match byte for byte; the payload is digested as the packed bytes it
/// arrived as (the codec's encoding is canonical), so checking a reply costs
/// a hash, not a decode.
fn check_frame(frame_kind: u8, body: &[u8], key: u64) -> Result<Served, String> {
    match frame_kind {
        kind::REPLY_SEARCH => {
            let mut r = BinReader::new(body);
            let claimed = r.varint().map_err(|e| e.message)?;
            let hit = r.bool().map_err(|e| e.message)?;
            let coalesced = r.bool().map_err(|e| e.message)?;
            let elapsed_ms = r.f64().map_err(|e| e.message)?;
            let len = r.varint().map_err(|e| e.message)?;
            if claimed != key {
                return Err(format!("request key mismatch: {claimed:016x} vs {key:016x}"));
            }
            let mut header = BinWriter::new();
            header.put_varint(claimed);
            header.put_bool(hit);
            header.put_bool(coalesced);
            header.put_f64(elapsed_ms);
            header.put_varint(len);
            let header = header.into_bytes();
            // Header, payload, then the one-byte "no trace" tag.
            let payload = usize::try_from(len)
                .ok()
                .and_then(|len| body.get(header.len()..header.len() + len))
                .filter(|payload| header.len() + payload.len() + 1 == body.len())
                .filter(|_| body.starts_with(&header) && body.last() == Some(&0))
                .ok_or("malformed search reply frame")?;
            Ok(Served { hit, coalesced, digest: fnv1a64(payload) })
        }
        kind::REPLY_ERROR => {
            let error = codec_bin::decode_error(body).map_err(|e| e.message)?;
            Err(format!("server error: {}", error.message))
        }
        other => Err(format!("unexpected reply kind 0x{other:02X}")),
    }
}
