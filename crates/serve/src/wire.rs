//! The one request pipeline the daemon ([`crate::server`]) and the router
//! ([`crate::router`]) share:
//!
//! ```text
//! bytes ─► Inbox::next ─► Message ─► decode ─► Op ─► handle ─► Reply ─► encode ─► bytes
//!          (this module)          (this module)   (server / router)   (this module)
//! ```
//!
//! An [`Inbox`] detects a connection's codec from its first byte and cuts
//! its stream into [`Message`]s, each kept as the exact bytes that arrived
//! (the router forwards a search's bytes verbatim). [`Message::decode`] is
//! the only code that knows which wire format carried a request: everything
//! after it sees an [`Op`]. A handler answers with a [`Reply`], and
//! [`Reply::encode`] renders it in the connection's codec. Both endpoints
//! therefore frame, reject and answer byte-identically.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::cache::CachedPlan;
use crate::codec::{CodecError, SearchRequest};
use crate::codec_bin::{self, kind, FRAME_MAGIC, MAX_FRAME_BYTES};
use crate::json::Json;

/// Maximum JSON request-line length. Custom networks are a few KiB;
/// anything near this bound is hostile, and without a cap one newline-less
/// client could grow a connection's buffer without limit. Binary frames
/// carry the same bound ([`MAX_FRAME_BYTES`]), enforced from the declared
/// length before the body arrives.
pub(crate) const MAX_LINE_BYTES: usize = MAX_FRAME_BYTES;

/// The wire codec a connection speaks, fixed by its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Wire {
    /// One JSON document per line.
    Json,
    /// Length-prefixed [`codec_bin`] frames.
    Binary,
}

/// One complete message, kept as the exact bytes that arrived.
pub struct Message {
    /// The codec that carried it.
    pub(crate) wire: Wire,
    /// A JSON line with its newline, or a whole frame.
    raw: Vec<u8>,
    /// Where a frame's body starts; its kind byte sits just before.
    body: usize,
}

/// A connection's inbound bytes not yet cut into messages.
#[derive(Default)]
pub(crate) struct Inbox {
    buf: Vec<u8>,
    wire: Option<Wire>,
}

impl Inbox {
    /// An inbox whose codec is known up front (a shard's replies).
    pub(crate) fn speaking(wire: Wire) -> Inbox {
        Inbox { buf: Vec::new(), wire: Some(wire) }
    }

    /// Appends bytes read from the connection.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Cuts the next complete message off the front, detecting the codec
    /// from the first byte on first use. Blank JSON lines are keep-alives,
    /// not requests, and are skipped.
    ///
    /// # Errors
    /// Framing is lost (a line over [`MAX_LINE_BYTES`], or a bad frame
    /// header): the stream cannot be resynchronised, so the caller sends
    /// the returned error reply and closes.
    pub(crate) fn next(&mut self) -> Result<Option<Message>, Vec<u8>> {
        loop {
            let Some(&first) = self.buf.first() else { return Ok(None) };
            let wire = *self.wire.get_or_insert(if first == FRAME_MAGIC {
                Wire::Binary
            } else {
                Wire::Json
            });
            let (body, end) = match wire {
                Wire::Json => match self.buf.iter().position(|&b| b == b'\n') {
                    Some(newline) if self.buf[..newline].iter().all(u8::is_ascii_whitespace) => {
                        self.buf.drain(..=newline);
                        continue;
                    }
                    Some(newline) => (0, newline + 1),
                    None if self.buf.len() > MAX_LINE_BYTES => {
                        return Err(
                            Reply::error("request line exceeds 1 MiB", false, None).encode(wire)
                        )
                    }
                    None => return Ok(None),
                },
                Wire::Binary => match codec_bin::frame_extent(&self.buf) {
                    Ok(Some(extent)) => extent,
                    Ok(None) => return Ok(None),
                    Err(e) => return Err(Reply::error(e.to_string(), false, None).encode(wire)),
                },
            };
            // The common case is one whole message per read: take the
            // buffer instead of copying out of it.
            let raw = if end == self.buf.len() {
                std::mem::take(&mut self.buf)
            } else {
                self.buf.drain(..end).collect()
            };
            return Ok(Some(Message { wire, raw, body }));
        }
    }
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// A request, whichever codec carried it.
pub(crate) enum Op {
    /// A plan search.
    Search(SearchOp),
    /// An op every endpoint answers itself.
    Control(Control),
}

/// A decoded search: the request and its key, plus the op-level fields
/// that sit outside it, so they never change its canonical bytes or key.
pub(crate) struct SearchOp {
    pub(crate) request: SearchRequest,
    /// The request's canonical bytes: the daemon caches under them.
    pub(crate) canonical: String,
    /// Their content hash: the daemon's cache key, the router's ring key.
    pub(crate) key: u64,
    pub(crate) deadline_ms: Option<u64>,
    pub(crate) trace: bool,
}

/// A decoded search request with its key: both codecs key here, once.
fn keyed_search(
    request: SearchRequest,
    deadline_ms: Option<u64>,
    trace: bool,
) -> Result<Op, Rejected> {
    let (canonical, key) = request.canonical_key().map_err(Rejected::search)?;
    Ok(Op::Search(SearchOp { request, canonical, key, deadline_ms, trace }))
}

/// The ops answered without a search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Control {
    Stats,
    Metrics,
    Ping,
    Shutdown,
}

impl Control {
    const ALL: [Control; 4] = [Control::Stats, Control::Metrics, Control::Ping, Control::Shutdown];

    fn name(self) -> &'static str {
        match self {
            Control::Stats => "stats",
            Control::Metrics => "metrics",
            Control::Ping => "ping",
            Control::Shutdown => "shutdown",
        }
    }

    /// The request frame kind.
    fn kind(self) -> u8 {
        match self {
            Control::Stats => kind::STATS,
            Control::Metrics => kind::METRICS,
            Control::Ping => kind::PING,
            Control::Shutdown => kind::SHUTDOWN,
        }
    }
}

/// A message that did not decode into an [`Op`].
pub(crate) struct Rejected {
    pub(crate) message: String,
    /// The message was a search whose request failed to decode (it still
    /// counts as a search for latency accounting).
    pub(crate) search: bool,
}

impl Rejected {
    fn new(message: impl Into<String>) -> Rejected {
        Rejected { message: message.into(), search: false }
    }

    fn search(e: CodecError) -> Rejected {
        Rejected { message: e.to_string(), search: true }
    }
}

impl From<Rejected> for Reply {
    fn from(rejected: Rejected) -> Reply {
        Reply::error(rejected.message, false, None)
    }
}

impl Message {
    /// The message's bytes as they arrived.
    pub(crate) fn raw(&self) -> &[u8] {
        &self.raw
    }

    pub(crate) fn into_raw(self) -> Vec<u8> {
        self.raw
    }

    /// Decodes the message into the codec-free [`Op`], keying a search.
    ///
    /// # Errors
    /// Malformed requests; the connection survives them.
    pub(crate) fn decode(&self) -> Result<Op, Rejected> {
        match self.wire {
            Wire::Json => decode_line(&self.raw),
            Wire::Binary => decode_frame(self.raw[self.body - 1], &self.raw[self.body..]),
        }
    }
}

fn decode_line(line: &[u8]) -> Result<Op, Rejected> {
    let text =
        std::str::from_utf8(line).map_err(|_| Rejected::new("request line is not valid UTF-8"))?;
    let doc = Json::parse(text.trim()).map_err(|e| Rejected::new(e.to_string()))?;
    let op =
        doc.get("op").and_then(Json::as_str).ok_or_else(|| Rejected::new("missing `op` field"))?;
    if op != "search" {
        return Control::ALL
            .into_iter()
            .find(|control| control.name() == op)
            .map(Op::Control)
            .ok_or_else(|| Rejected::new(format!("unknown op `{op}`")));
    }
    let request =
        doc.get("request").ok_or_else(|| Rejected::new("search needs a `request` field"))?;
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(value) => Some(
            value
                .as_u64()
                .ok_or_else(|| Rejected::new("deadline_ms must be a non-negative integer"))?,
        ),
    };
    let trace = match doc.get("trace") {
        None => false,
        Some(value) => value.as_bool().ok_or_else(|| Rejected::new("trace must be a boolean"))?,
    };
    let request = SearchRequest::from_json(request).map_err(Rejected::search)?;
    keyed_search(request, deadline_ms, trace)
}

fn decode_frame(frame_kind: u8, body: &[u8]) -> Result<Op, Rejected> {
    if frame_kind == kind::SEARCH {
        let (request, deadline_ms, trace) =
            codec_bin::decode_search_request(body).map_err(Rejected::search)?;
        return keyed_search(request, deadline_ms, trace);
    }
    Control::ALL
        .into_iter()
        .find(|control| control.kind() == frame_kind)
        .map(Op::Control)
        .ok_or_else(|| Rejected::new(format!("unknown frame kind 0x{frame_kind:02X}")))
}

// ---------------------------------------------------------------------------
// Reply + encode
// ---------------------------------------------------------------------------

/// A handler's answer, whichever codec will carry it.
pub(crate) enum Reply {
    /// A served search.
    Served(Served),
    /// The `stats` or `metrics` document.
    Document(Control, String),
    /// `ping` or `shutdown` acknowledged.
    Ack(Control),
    /// `{"ok":false}` / `REPLY_ERROR`.
    Error { message: String, retryable: bool, retry_after_ms: Option<u64> },
    /// A shard's reply, relayed verbatim (router only).
    Relayed(Vec<u8>),
}

/// What a search produced: the cached plan (borrowed until encode, never
/// re-encoded from a parse) plus the reply's envelope fields.
pub(crate) struct Served {
    /// The raw content-hash key (rendered as 16 hex digits in JSON, as a
    /// varint in binary).
    pub(crate) key: u64,
    pub(crate) hit: bool,
    pub(crate) coalesced: bool,
    pub(crate) elapsed_ms: f64,
    pub(crate) plan: Arc<CachedPlan>,
    /// Rendered span-tree JSON, present only when the request asked for a
    /// trace. Never part of the payload: the payload bytes of a traced
    /// reply are bit-identical to the untraced ones.
    pub(crate) trace_json: Option<String>,
}

impl Reply {
    pub(crate) fn error(
        message: impl Into<String>,
        retryable: bool,
        retry_after_ms: Option<u64>,
    ) -> Reply {
        Reply::Error { message: message.into(), retryable, retry_after_ms }
    }

    pub(crate) fn is_error(&self) -> bool {
        matches!(self, Reply::Error { .. })
    }

    /// Renders the reply in `wire`: a JSON line with its newline, or a
    /// whole frame.
    pub(crate) fn encode(self, wire: Wire) -> Vec<u8> {
        match (self, wire) {
            (Reply::Relayed(bytes), _) => bytes,
            (Reply::Served(served), Wire::Json) => served_line(&served),
            (Reply::Served(served), Wire::Binary) => match served.plan.packed() {
                Ok(payload) => codec_bin::frame_bytes(
                    kind::REPLY_SEARCH,
                    &codec_bin::encode_search_reply(
                        served.key,
                        served.hit,
                        served.coalesced,
                        served.elapsed_ms,
                        payload,
                        served.trace_json.as_deref(),
                    ),
                ),
                Err(e) => Reply::error(e.to_string(), false, None).encode(wire),
            },
            (Reply::Document(_, text), Wire::Json) => {
                let mut line = text.into_bytes();
                line.push(b'\n');
                line
            }
            (Reply::Document(control, text), Wire::Binary) => {
                let reply_kind = if control == Control::Metrics {
                    kind::REPLY_METRICS
                } else {
                    kind::REPLY_STATS
                };
                codec_bin::frame_bytes(reply_kind, text.as_bytes())
            }
            (Reply::Ack(control), Wire::Json) => {
                format!("{{\"ok\":true,\"op\":\"{}\"}}\n", control.name()).into_bytes()
            }
            (Reply::Ack(control), Wire::Binary) => {
                codec_bin::frame_bytes(kind::REPLY_OK, &[control.kind()])
            }
            (Reply::Error { message, retryable, retry_after_ms }, Wire::Json) => {
                let mut fields = vec![
                    ("ok", Json::Bool(false)),
                    ("error", Json::Str(message)),
                    ("retryable", Json::Bool(retryable)),
                ];
                if let Some(hint) = retry_after_ms {
                    fields.push(("retry_after_ms", json_count(hint)));
                }
                let mut line =
                    Json::obj(fields).write().expect("error envelope has no floats").into_bytes();
                line.push(b'\n');
                line
            }
            (Reply::Error { message, retryable, retry_after_ms }, Wire::Binary) => {
                codec_bin::frame_bytes(
                    kind::REPLY_ERROR,
                    &codec_bin::encode_error(&message, retryable, retry_after_ms),
                )
            }
        }
    }
}

/// The JSON success envelope, written in one pass around the cached
/// payload bytes: the payload is embedded verbatim, and the trace (when
/// asked for) sits next to `elapsed_ms`, never inside the payload.
fn served_line(served: &Served) -> Vec<u8> {
    let payload = served.plan.json();
    let trace = served.trace_json.as_deref();
    let mut line = String::with_capacity(128 + payload.len() + trace.map_or(0, |t| t.len() + 9));
    // `{:?}` is the JSON writer's float form; elapsed time is finite.
    let _ = write!(
        line,
        "{{\"ok\":true,\"request_key\":\"{:016x}\",\"cache\":{{\"hit\":{},\"coalesced\":{}}},\
         \"elapsed_ms\":{:?}",
        served.key, served.hit, served.coalesced, served.elapsed_ms
    );
    if let Some(trace) = trace {
        line.push_str(",\"trace\":");
        line.push_str(trace);
    }
    line.push_str(",\"payload\":");
    line.push_str(payload);
    line.push_str("}\n");
    line.into_bytes()
}

// ---------------------------------------------------------------------------
// Control ops and the stats/metrics envelope
// ---------------------------------------------------------------------------

/// A `u64` counter as a JSON integer, saturating at `i64::MAX` instead of
/// wrapping negative.
pub(crate) fn json_count(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Answers a control op from an endpoint's stats document. `stats` serves
/// the document; `metrics` serves it with a `prometheus` member appended,
/// holding the document's own leaves, the process-wide telemetry registry,
/// then `extra_metrics`; `shutdown` raises `stop`.
pub(crate) fn control(
    control: Control,
    stats: impl FnOnce() -> Json,
    extra_metrics: impl FnOnce(&mut String),
    stop: &AtomicBool,
) -> Reply {
    match control {
        Control::Stats => {
            Reply::Document(control, stats().write().expect("stats documents are finite"))
        }
        Control::Metrics => {
            let mut doc = stats();
            let mut page = String::new();
            render_stats_prometheus(&doc, &mut page);
            pte_telemetry::global().render_prometheus(&mut page);
            extra_metrics(&mut page);
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("prometheus".to_string(), Json::Str(page)));
            }
            Reply::Document(control, doc.write().expect("stats documents are finite"))
        }
        Control::Ping => Reply::Ack(control),
        Control::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Reply::Ack(control)
        }
    }
}

/// Walks a stats document and emits one Prometheus line per numeric or
/// boolean leaf, named by its field path (`cache.hits` → `pte_cache_hits`).
/// Deriving the names from the served tree — instead of hand-writing them a
/// second time — is what keeps the `stats` and `metrics` exposition
/// structurally in sync.
fn render_stats_prometheus(doc: &Json, out: &mut String) {
    fn walk(value: &Json, path: &mut Vec<String>, out: &mut String) {
        match value {
            Json::Obj(pairs) => {
                for (key, child) in pairs {
                    if path.is_empty() && key == "ok" {
                        continue; // envelope plumbing, not a metric
                    }
                    path.push(key.clone());
                    walk(child, path, out);
                    path.pop();
                }
            }
            Json::Int(v) => emit(path, &v.to_string(), out),
            Json::Float(v) => emit(path, &format!("{v}"), out),
            Json::Bool(v) => emit(path, if *v { "1" } else { "0" }, out),
            _ => {}
        }
    }
    fn emit(path: &[String], value: &str, out: &mut String) {
        out.push_str("pte_");
        out.push_str(&path.join("_"));
        out.push(' ');
        out.push_str(value);
        out.push('\n');
    }
    walk(doc, &mut Vec::new(), out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::bench_request;

    fn messages(bytes: &[u8]) -> Vec<Result<Message, Vec<u8>>> {
        let mut inbox = Inbox::default();
        inbox.push(bytes);
        std::iter::from_fn(|| inbox.next().transpose()).take(8).collect()
    }

    fn search_key(message: &Message) -> u64 {
        match message.decode() {
            Ok(Op::Search(search)) => search.key,
            _ => panic!("expected a search"),
        }
    }

    #[test]
    fn one_request_has_one_key_over_both_codecs() {
        // The daemon caches and the router routes under the key decode
        // gives; op-level fields stay outside it.
        let request = bench_request(7);
        let line = format!(
            "{{\"op\":\"search\",\"deadline_ms\":5,\"request\":{}}}\n",
            request.encode().expect("encode")
        );
        let frame = codec_bin::frame_bytes(
            kind::SEARCH,
            &codec_bin::encode_search_request(&request, None, true),
        );
        let json = messages(line.as_bytes()).remove(0).expect("line");
        let binary = messages(&frame).remove(0).expect("frame");
        assert_eq!((json.wire, binary.wire), (Wire::Json, Wire::Binary));
        assert_eq!(search_key(&json), search_key(&binary));
        assert_eq!(search_key(&json), request.canonical_key().expect("key").1);
    }

    #[test]
    fn blank_lines_are_skipped_and_lines_keep_their_bytes() {
        let cut = messages(b"\n \r\n{\"op\":\"ping\"}\r\n\n{\"op\":\"stats\"}\n");
        let raws: Vec<&[u8]> =
            cut.iter().map(|m| m.as_ref().expect("line").raw.as_slice()).collect();
        assert_eq!(raws, [&b"{\"op\":\"ping\"}\r\n"[..], &b"{\"op\":\"stats\"}\n"[..]]);
    }
}
