//! Client library for both wire protocols: line-delimited JSON and the
//! length-prefixed binary frames of [`codec_bin`].
//!
//! A [`Client`] owns one persistent connection and speaks one codec for its
//! lifetime (the server detects which from the first byte); requests are
//! synchronous (one message out, one back). Whatever the wire format, the
//! canonical payload bytes of a search reply are recovered by re-encoding
//! the decoded payload — the codecs' byte-stability contracts make that
//! identical to the bytes the server holds in its cache, and the e2e suite
//! asserts it across both codecs.
//!
//! Transport errors are strictly separated from protocol errors: a
//! connection dropped *between the bytes of a reply* surfaces as
//! [`ClientError::Io`] (never a parse error on a truncated message), and
//! explicit server rejections — `{"ok":false}` lines, `REPLY_ERROR` frames
//! — carry the server's `retryable` verdict as [`ClientError::Server`];
//! the two signals [`RetryClient`](crate::retry) heals from, identically
//! for either codec.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::codec::{CodecError, PlanPayload, SearchRequest};
use crate::codec_bin::{self, kind, FrameReadError};
use crate::fault::FaultyStream;
use crate::json::Json;

/// The transport a [`Client`] runs over: any bidirectional byte stream with
/// a settable read timeout. Production uses [`TcpStream`]; the chaos suite
/// substitutes [`FaultyStream`] to inject seeded wire faults.
pub trait Conn: Read + Write + Send {
    /// Sets the read timeout (None blocks forever).
    ///
    /// # Errors
    /// Propagates the socket option failure.
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
}

impl Conn for FaultyStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        FaultyStream::set_read_timeout(self, dur)
    }
}

/// Client-side error: transport, protocol, or an explicit server rejection.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure — including a connection dropped mid-reply or
    /// before any reply (a retry over a fresh connection may succeed; the
    /// content-hash request keys make that retry idempotent).
    Io(std::io::Error),
    /// The server answered something undecodable or self-inconsistent.
    /// Not retryable: the bytes arrived intact but are wrong.
    Protocol(String),
    /// The server answered `{"ok":false,...}`.
    Server {
        /// The server's `error` string (e.g. `deadline`, `overloaded`).
        error: String,
        /// The server's verdict on whether a verbatim retry can succeed.
        retryable: bool,
        /// Server-suggested retry delay (set for `overloaded`).
        retry_after_ms: Option<u64>,
    },
}

impl ClientError {
    /// Whether a retry (possibly over a fresh connection) can succeed.
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Protocol(_) => false,
            ClientError::Server { retryable, .. } => *retryable,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { error, retryable, .. } => {
                write!(f, "server error: {error} (retryable: {retryable})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<crate::json::JsonError> for ClientError {
    fn from(e: crate::json::JsonError) -> Self {
        ClientError::Protocol(e.message)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Protocol(e.message)
    }
}

/// Convenience result alias.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// One search reply, decoded.
#[derive(Debug, Clone)]
pub struct SearchReply {
    /// Canonical content-hash key the server cached under.
    pub request_key: String,
    /// Whether the reply was served from the cache.
    pub cache_hit: bool,
    /// Whether the reply shared another request's in-flight search.
    pub coalesced: bool,
    /// Server-side handling time (ms).
    pub elapsed_ms: f64,
    /// The decoded plan payload.
    pub payload: PlanPayload,
    /// The payload's canonical bytes (re-encoded from the parse;
    /// byte-identical to what the server holds in its cache).
    pub payload_canonical: String,
    /// Span tree for this request, present only when tracing was requested
    /// ([`Client::set_trace`]). Diagnostic data outside the canonical
    /// payload: the payload bytes of a traced reply equal the untraced ones.
    pub trace: Option<Json>,
}

/// Which wire format a [`Client`] speaks. The server auto-detects from the
/// connection's first byte, so no negotiation round trip exists — a codec
/// is simply chosen at construction and is sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientCodec {
    /// Line-delimited JSON documents.
    Json,
    /// Length-prefixed binary frames ([`codec_bin`]).
    Binary,
}

/// A synchronous connection to a `pte-serve` daemon.
pub struct Client {
    /// Single stream object: reads are buffered, writes go straight to
    /// the underlying connection via `get_mut` (requests are one small
    /// message; the strict write-then-read protocol never interleaves the
    /// two).
    conn: BufReader<Box<dyn Conn>>,
    /// The wire format this connection speaks.
    codec: ClientCodec,
    /// Optional op-level deadline attached to every search request.
    deadline_ms: Option<u64>,
    /// Whether to request a span-tree trace with every search request.
    trace: bool,
}

impl Client {
    /// Connects to a daemon, speaking JSON lines.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with(addr, ClientCodec::Json)
    }

    /// Connects to a daemon, speaking binary frames.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with(addr, ClientCodec::Binary)
    }

    /// Connects to a daemon with an explicit codec.
    ///
    /// # Errors
    /// Propagates connection failures.
    pub fn connect_with(addr: impl ToSocketAddrs, codec: ClientCodec) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self::from_conn_with(Box::new(stream), codec))
    }

    /// Wraps an already-established transport (how the chaos suite mounts a
    /// [`FaultyStream`]), speaking JSON lines.
    pub fn from_conn(conn: Box<dyn Conn>) -> Self {
        Self::from_conn_with(conn, ClientCodec::Json)
    }

    /// Wraps an already-established transport with an explicit codec.
    pub fn from_conn_with(conn: Box<dyn Conn>, codec: ClientCodec) -> Self {
        Client { conn: BufReader::new(conn), codec, deadline_ms: None, trace: false }
    }

    /// The wire format this connection speaks.
    pub fn codec(&self) -> ClientCodec {
        self.codec
    }

    /// Sets the per-reply read timeout (searches can be slow; default none).
    /// A timeout expiring mid-reply surfaces as [`ClientError::Io`] with
    /// kind `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> ClientResult<()> {
        self.conn.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Attaches a deadline (ms) to every subsequent search request: the
    /// server aborts the search at the next stage boundary once it expires
    /// and replies `{"ok":false,"error":"deadline"}`.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Asks the server to record and return a span-tree trace with every
    /// subsequent search request. Like the deadline, the flag rides outside
    /// the canonical request subtree, so the cache key — and the payload
    /// bytes served — are identical with or without it.
    pub fn set_trace(&mut self, trace: bool) {
        self.trace = trace;
    }

    /// Sends one raw line and reads one reply line.
    ///
    /// EOF handling is strict: a clean close before any reply byte is
    /// `Io(ConnectionAborted)`, a close **mid-line** is `Io(UnexpectedEof)`
    /// — truncated bytes are never handed to the JSON parser.
    ///
    /// # Errors
    /// Transport failures or a closed connection.
    pub fn round_trip(&mut self, line: &str) -> ClientResult<String> {
        let writer = self.conn.get_mut();
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut reply: Vec<u8> = Vec::new();
        let n = self.conn.read_until(b'\n', &mut reply)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )));
        }
        if reply.last() != Some(&b'\n') {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            )));
        }
        let text = std::str::from_utf8(&reply)
            .map_err(|_| ClientError::Protocol("reply is not valid UTF-8".into()))?;
        Ok(text.trim_end().to_string())
    }

    /// Sends one frame and reads one reply frame, surfacing `REPLY_ERROR`
    /// frames as [`ClientError::Server`] — the binary analogue of
    /// [`Client::op`]'s `{"ok":false}` handling.
    ///
    /// EOF semantics mirror [`Client::round_trip`]: a clean close before
    /// any reply byte is `Io(ConnectionAborted)`, a close **mid-frame** is
    /// `Io(UnexpectedEof)` — truncated bytes are never handed to the body
    /// decoders.
    fn frame_op(&mut self, frame_kind: u8, body: &[u8]) -> ClientResult<(u8, Vec<u8>)> {
        codec_bin::write_frame(self.conn.get_mut(), frame_kind, body)?;
        match codec_bin::read_frame(&mut self.conn) {
            Ok((kind::REPLY_ERROR, reply)) => {
                let error = codec_bin::decode_error(&reply)?;
                Err(ClientError::Server {
                    error: error.message,
                    retryable: error.retryable,
                    retry_after_ms: error.retry_after_ms,
                })
            }
            Ok(reply) => Ok(reply),
            Err(FrameReadError::Closed) => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            ))),
            Err(FrameReadError::Io(e)) => Err(ClientError::Io(e)),
            Err(FrameReadError::Malformed(message)) => Err(ClientError::Protocol(message)),
        }
    }

    /// Sends a ping/shutdown op; over binary frames the ack is a
    /// `REPLY_OK` echoing the request kind.
    fn ack(&mut self, op: &str, frame_kind: u8) -> ClientResult<()> {
        if self.codec == ClientCodec::Json {
            return self.op(&Json::obj(vec![("op", Json::Str(op.into()))])).map(|_| ());
        }
        let (reply_kind, body) = self.frame_op(frame_kind, &[])?;
        if reply_kind != kind::REPLY_OK || body != [frame_kind] {
            return Err(ClientError::Protocol(format!(
                "expected ack for kind 0x{frame_kind:02X}, got kind 0x{reply_kind:02X}"
            )));
        }
        Ok(())
    }

    /// Runs a search over binary frames.
    fn search_binary(&mut self, request: &SearchRequest) -> ClientResult<SearchReply> {
        let body = codec_bin::encode_search_request(request, self.deadline_ms, self.trace);
        let (reply_kind, reply) = self.frame_op(kind::SEARCH, &body)?;
        if reply_kind != kind::REPLY_SEARCH {
            return Err(ClientError::Protocol(format!(
                "expected search reply, got kind 0x{reply_kind:02X}"
            )));
        }
        let decoded = codec_bin::decode_search_reply(&reply)?;
        // Integrity check: the reply's key must be the content hash of the
        // request we actually sent (same check as the JSON path, on the
        // raw u64 the hex key renders).
        let (_, expected) =
            request.canonical_key().map_err(|e| ClientError::Protocol(e.message))?;
        if decoded.key != expected {
            return Err(ClientError::Protocol(format!(
                "request key mismatch: canonical bytes hash to {expected:016x}, reply claims {:016x}",
                decoded.key
            )));
        }
        let payload_canonical =
            decoded.payload.encode().map_err(|e| ClientError::Protocol(e.message))?;
        let trace = match decoded.trace_json {
            None => None,
            Some(text) => Some(Json::parse(&text)?),
        };
        Ok(SearchReply {
            request_key: format!("{:016x}", decoded.key),
            cache_hit: decoded.hit,
            coalesced: decoded.coalesced,
            elapsed_ms: decoded.elapsed_ms,
            payload: decoded.payload,
            payload_canonical,
            trace,
        })
    }

    /// Reads the stats or metrics document. Over binary frames the reply
    /// body is the same canonical JSON text the JSON codec serves.
    fn document(&mut self, op: &str, frame_kind: u8, expected: u8) -> ClientResult<Json> {
        if self.codec == ClientCodec::Json {
            return self.op(&Json::obj(vec![("op", Json::Str(op.into()))]));
        }
        let (reply_kind, body) = self.frame_op(frame_kind, &[])?;
        if reply_kind != expected {
            return Err(ClientError::Protocol(format!(
                "expected {op} reply, got kind 0x{reply_kind:02X}"
            )));
        }
        let text = std::str::from_utf8(&body)
            .map_err(|_| ClientError::Protocol(format!("{op} reply is not valid UTF-8")))?;
        Ok(Json::parse(text)?)
    }

    /// Sends one op document and decodes the reply envelope, surfacing
    /// `{"ok":false}` replies as [`ClientError::Server`].
    fn op(&mut self, doc: &Json) -> ClientResult<Json> {
        let line = doc.write().map_err(|e| ClientError::Protocol(e.message))?;
        let reply = self.round_trip(&line)?;
        let parsed = Json::parse(&reply)?;
        match parsed.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(parsed),
            Some(false) => Err(ClientError::Server {
                error: parsed
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
                retryable: parsed.get("retryable").and_then(Json::as_bool).unwrap_or(false),
                retry_after_ms: parsed.get("retry_after_ms").and_then(Json::as_u64),
            }),
            None => Err(ClientError::Protocol("reply without `ok` field".into())),
        }
    }

    /// Runs a search over whichever codec this connection speaks.
    ///
    /// # Errors
    /// Transport failures or a server-side rejection.
    pub fn search(&mut self, request: &SearchRequest) -> ClientResult<SearchReply> {
        match self.codec {
            ClientCodec::Json => self.search_json(request),
            ClientCodec::Binary => self.search_binary(request),
        }
    }

    /// Runs a search over the JSON line protocol.
    fn search_json(&mut self, request: &SearchRequest) -> ClientResult<SearchReply> {
        let mut fields = vec![("op", Json::Str("search".into())), ("request", request.to_json())];
        if let Some(deadline_ms) = self.deadline_ms {
            // Op-level, deliberately outside the `request` subtree: the
            // deadline must not change the canonical bytes or cache key.
            fields.push(("deadline_ms", Json::Int(deadline_ms as i64)));
        }
        if self.trace {
            // Same placement rule as the deadline: op-level, never keyed.
            fields.push(("trace", Json::Bool(true)));
        }
        let doc = Json::obj(fields);
        let reply = self.op(&doc)?;
        let field = |name: &str| {
            reply.get(name).ok_or_else(|| ClientError::Protocol(format!("reply missing `{name}`")))
        };
        let cache = field("cache")?;
        let payload_doc = field("payload")?;
        let payload = PlanPayload::from_json(payload_doc)?;
        let request_key = field("request_key")?
            .as_str()
            .ok_or_else(|| ClientError::Protocol("request_key must be a string".into()))?
            .to_string();
        // Integrity check: the reply's key must be the content hash of the
        // request we actually sent.
        let canonical = request.encode().map_err(|e| ClientError::Protocol(e.message))?;
        crate::codec::check_key(&canonical, &request_key)?;
        Ok(SearchReply {
            request_key,
            cache_hit: cache.get("hit").and_then(Json::as_bool).unwrap_or(false),
            coalesced: cache.get("coalesced").and_then(Json::as_bool).unwrap_or(false),
            elapsed_ms: field("elapsed_ms")?.as_f64().unwrap_or(0.0),
            payload_canonical: payload_doc.write().map_err(|e| ClientError::Protocol(e.message))?,
            payload,
            trace: reply.get("trace").cloned(),
        })
    }

    /// Reads the server's stats document.
    ///
    /// # Errors
    /// Transport failures.
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.document("stats", kind::STATS, kind::REPLY_STATS)
    }

    /// Reads the server's metrics document: the stats fields plus a
    /// `prometheus` member holding the text exposition page.
    ///
    /// # Errors
    /// Transport failures.
    pub fn metrics(&mut self) -> ClientResult<Json> {
        self.document("metrics", kind::METRICS, kind::REPLY_METRICS)
    }

    /// Liveness check.
    ///
    /// # Errors
    /// Transport failures.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.ack("ping", kind::PING)
    }

    /// Asks the daemon to shut down.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        self.ack("shutdown", kind::SHUTDOWN)
    }
}
