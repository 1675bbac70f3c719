//! Golden wire bytes: every reply the daemon and the router put on the
//! wire, for both codecs, pinned byte for byte.
//!
//! Each suite boots a fresh fleet, drives one fixed script of requests over
//! raw sockets, renders every reply, and compares the rendering with its
//! fixture in `tests/golden/`. Renderings are exact bytes (non-printable
//! bytes escaped as `\xNN`) except for three masks:
//!
//! * `elapsed_ms` and `uptime_ms` values and span `start_us`/`elapsed_us`
//!   values read `*` (wall-clock readings);
//! * plan payloads read `<payload len=N fnv=H>` (length and FNV-1a 64 of
//!   their exact bytes), which keeps the fixtures small without loosening
//!   them;
//! * stats and metrics documents render as their key set (their values are
//!   live counters).
//!
//! A binary search reply is rendered field by field (its frame length
//! carries the width of the masked span durations); every other frame is
//! rendered whole. Rows whose connection must close after the reply end in
//! `| closed` or `| open`.
//!
//! On a mismatch the actual rendering is written under the cargo target
//! temp dir (`wire_golden/<suite>.txt`) and the test names it: diff it
//! against the fixture, and copy it over only for a deliberate wire change.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pte_serve::codec::SearchRequest;
use pte_serve::codec_bin::{self, kind, MAX_FRAME_BYTES};
use pte_serve::fault::{FaultAction, FaultPoint};
use pte_serve::json::{fnv1a64, Json};
use pte_serve::router::{route, Router, RouterConfig};
use pte_serve::server::{serve, ServerConfig, ServerHandle};
use pte_serve::workload::bench_request;

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// A daemon whose cache-miss computes can be stalled on demand (to pin the
/// single admission slot), optionally fronted by a router.
struct Fleet {
    daemon: ServerHandle,
    router: Option<Router>,
    stall: Arc<AtomicBool>,
    stalls_entered: Arc<AtomicU64>,
}

impl Fleet {
    fn start(routed: bool) -> Fleet {
        let stall = Arc::new(AtomicBool::new(false));
        let stalls_entered = Arc::new(AtomicU64::new(0));
        let hook = {
            let stall = Arc::clone(&stall);
            let stalls_entered = Arc::clone(&stalls_entered);
            Arc::new(move |point: FaultPoint| match point {
                FaultPoint::Compute { .. } if stall.load(Ordering::SeqCst) => {
                    stalls_entered.fetch_add(1, Ordering::SeqCst);
                    FaultAction::StallMs(400)
                }
                _ => FaultAction::None,
            })
        };
        let daemon = serve(&ServerConfig {
            workers: 4,
            max_pending_searches: 1,
            retry_after_ms: 75,
            fault_hook: Some(hook),
            ..ServerConfig::default()
        })
        .expect("bind daemon");
        let router = routed.then(|| {
            route(&RouterConfig {
                shards: vec![daemon.addr().to_string()],
                ..RouterConfig::default()
            })
            .expect("bind router")
        });
        Fleet { daemon, router, stall, stalls_entered }
    }

    /// Where clients connect: the router when there is one.
    fn addr(&self) -> SocketAddr {
        self.router.as_ref().map_or_else(|| self.daemon.addr(), Router::addr)
    }

    fn join(self) {
        if let Some(router) = self.router {
            router.join();
        }
        self.daemon.join();
    }
}

/// A router whose only shard is an address nothing listens on.
fn dead_router() -> Router {
    let dead = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    route(&RouterConfig { shards: vec![dead.to_string()], ..RouterConfig::default() })
        .expect("bind router")
}

// ---------------------------------------------------------------------------
// Raw connections
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
    eof: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        Conn { stream, pending: Vec::new(), eof: false }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// Reads more bytes; false once the peer closed (or reset).
    fn fill(&mut self) -> bool {
        if self.eof {
            return false;
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                self.eof = true;
                false
            }
            Ok(n) => {
                self.pending.extend_from_slice(&chunk[..n]);
                true
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => true,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("timed out waiting for a reply")
            }
            Err(_) => {
                self.eof = true;
                false
            }
        }
    }

    /// One JSON reply line (newline included), or `None` on close.
    fn line(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                return Some(self.pending.drain(..=pos).collect());
            }
            if !self.fill() {
                return None;
            }
        }
    }

    /// One whole reply frame, or `None` on close.
    fn frame(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some(len) = frame_len(&self.pending) {
                return Some(self.pending.drain(..len).collect());
            }
            if !self.fill() {
                return None;
            }
        }
    }

    /// Whether the peer closes the connection after its reply.
    fn close_state(&mut self) -> &'static str {
        self.stream.set_read_timeout(Some(Duration::from_millis(300))).expect("timeout");
        let mut byte = [0u8; 1];
        let state = match self.stream.read(&mut byte) {
            Ok(0) => "closed",
            Ok(_) => "extra bytes",
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => "open",
            Err(_) => "closed",
        };
        self.stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        state
    }
}

/// The total length of the frame at the front of `buf`, once it is whole.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let mut len = 0usize;
    let mut cursor = 1;
    loop {
        let byte = *buf.get(cursor)?;
        len |= usize::from(byte & 0x7F) << (7 * (cursor - 1));
        cursor += 1;
        if byte & 0x80 == 0 {
            break;
        }
    }
    (buf.len() >= cursor + len).then_some(cursor + len)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Printable ASCII verbatim (backslash doubled), everything else `\xNN`.
fn escape(bytes: &[u8]) -> String {
    let mut out = String::new();
    for &b in bytes {
        match b {
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7E => out.push(char::from(b)),
            _ => out.push_str(&format!("\\x{b:02X}")),
        }
    }
    out
}

fn payload_mark(bytes: &[u8]) -> String {
    format!("<payload len={} fnv={:016x}>", bytes.len(), fnv1a64(bytes))
}

/// Replaces the numeric value after each masked key with `*`.
fn mask(text: &str) -> String {
    let mut out = text.to_string();
    for key in ["\"elapsed_ms\":", "\"uptime_ms\":", "\"start_us\":", "\"elapsed_us\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = out[start..]
                .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
                .map_or(out.len(), |n| start + n);
            out.replace_range(start..end, "*");
            from = start + 1;
        }
    }
    out
}

/// The key set of a JSON document: objects as `{k,k:{...}}`, arrays by
/// their first element.
fn key_set(value: &Json) -> String {
    match value {
        Json::Obj(pairs) => {
            let keys: Vec<String> = pairs
                .iter()
                .map(|(key, child)| match child {
                    Json::Obj(_) | Json::Arr(_) => format!("{key}:{}", key_set(child)),
                    _ => key.clone(),
                })
                .collect();
            format!("{{{}}}", keys.join(","))
        }
        Json::Arr(items) => format!("[{}]", items.first().map(key_set).unwrap_or_default()),
        _ => String::new(),
    }
}

fn document_keys(text: &[u8]) -> String {
    let text = std::str::from_utf8(text).expect("document is UTF-8");
    format!("keys {}", key_set(&Json::parse(text.trim_end()).expect("document parses")))
}

/// A JSON reply line: the payload cut out and fingerprinted, the rest
/// masked and escaped.
fn render_line(line: Option<Vec<u8>>) -> String {
    let Some(line) = line else { return "<closed>".into() };
    const PAYLOAD: &[u8] = b",\"payload\":";
    if let Some(at) = line.windows(PAYLOAD.len()).position(|w| w == PAYLOAD) {
        // The payload runs to the envelope's closing `}` before the newline.
        let start = at + PAYLOAD.len();
        let end = line.len() - 2;
        let head = mask(&String::from_utf8_lossy(&line[..start]));
        return format!("{head}{}{}", payload_mark(&line[start..end]), escape(&line[end..]));
    }
    mask(&escape(&line))
}

fn render_json_doc(line: Option<Vec<u8>>) -> String {
    line.map_or_else(|| "<closed>".into(), |line| document_keys(&line))
}

/// A reply frame. Search replies are rendered field by field, document
/// replies as their key set, everything else whole.
fn render_frame(frame: Option<Vec<u8>>) -> String {
    let Some(frame) = frame else { return "<closed>".into() };
    let mut cursor = 1;
    while frame[cursor] & 0x80 != 0 {
        cursor += 1;
    }
    let frame_kind = frame[cursor + 1];
    let body = &frame[cursor + 2..];
    match frame_kind {
        kind::REPLY_SEARCH => render_search_body(body),
        kind::REPLY_STATS | kind::REPLY_METRICS => {
            format!("frame 0x{frame_kind:02X} {}", document_keys(body))
        }
        _ => escape(&frame),
    }
}

fn render_search_body(body: &[u8]) -> String {
    let mut at = 0;
    let varint = |at: &mut usize| {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let byte = body[*at];
            *at += 1;
            value |= u64::from(byte & 0x7F) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                return value;
            }
        }
    };
    let key_end = {
        let mut probe = at;
        varint(&mut probe);
        probe
    };
    let key = escape(&body[at..key_end]);
    at = key_end;
    let (hit, coalesced) = (body[at], body[at + 1]);
    at += 2 + 8; // the elapsed_ms f64
    let payload_len = varint(&mut at) as usize;
    let payload = payload_mark(&body[at..at + payload_len]);
    at += payload_len;
    let trace = match body[at] {
        0 => {
            at += 1;
            "none".to_string()
        }
        _ => {
            at += 1;
            let len = varint(&mut at) as usize;
            let text = mask(std::str::from_utf8(&body[at..at + len]).expect("trace is UTF-8"));
            at += len;
            text
        }
    };
    let tail = if at == body.len() { "" } else { " TRAILING BYTES" };
    format!(
        "frame 0x81 key={key} hit={hit} coalesced={coalesced} elapsed_ms=* payload={payload} \
         trace={trace}{tail}"
    )
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The script's search requests: the served one, the one that runs into
/// its deadline, and the pinned and shed ones of the overload row.
fn requests() -> [SearchRequest; 4] {
    let mut deadline = bench_request(0xD1);
    deadline.trials = 64;
    [bench_request(0x601D), deadline, bench_request(0x0A12), bench_request(0x0A13)]
}

fn json_search(request: &SearchRequest, extra: &str) -> Vec<u8> {
    let body = request.encode().expect("encode request");
    format!("{{\"op\":\"search\"{extra},\"request\":{body}}}\n").into_bytes()
}

fn bin_search(request: &SearchRequest, deadline_ms: Option<u64>, trace: bool) -> Vec<u8> {
    codec_bin::frame_bytes(
        kind::SEARCH,
        &codec_bin::encode_search_request(request, deadline_ms, trace),
    )
}

/// Pins the admission slot with a stalled cold search on its own
/// connection, runs `shed` while it is pinned, then lets it finish.
fn while_pinned(
    fleet: &Fleet,
    pinned: Vec<u8>,
    binary: bool,
    shed: impl FnOnce() -> String,
) -> String {
    fleet.stall.store(true, Ordering::SeqCst);
    let addr = fleet.addr();
    let pinned = std::thread::spawn(move || {
        let mut conn = Conn::open(addr);
        conn.send(&pinned);
        if binary {
            conn.frame()
        } else {
            conn.line()
        }
    });
    while fleet.stalls_entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let rendered = shed();
    assert!(pinned.join().expect("pinned client").is_some(), "pinned search must complete");
    fleet.stall.store(false, Ordering::SeqCst);
    rendered
}

type Rows = Vec<(&'static str, String)>;

fn json_script(fleet: &Fleet, routed: bool) -> Rows {
    let [served, deadline, pinned, shed] = requests();
    let addr = fleet.addr();
    let mut rows: Rows = Vec::new();
    let mut conn = Conn::open(addr);
    let ask = |conn: &mut Conn, bytes: &[u8]| {
        conn.send(bytes);
        render_line(conn.line())
    };

    rows.push(("ping", ask(&mut conn, b"{\"op\":\"ping\"}\n")));
    rows.push(("missing_op", ask(&mut conn, b"{\"nop\":1}\n")));
    rows.push(("unknown_op", ask(&mut conn, b"{\"op\":\"frobnicate\"}\n")));
    rows.push(("json_error", ask(&mut conn, b"{\"op\":\n")));
    rows.push(("search_without_request", ask(&mut conn, b"{\"op\":\"search\"}\n")));
    rows.push(("invalid_request", ask(&mut conn, b"{\"op\":\"search\",\"request\":{\"v\":1}}\n")));
    rows.push((
        "bad_deadline_ms",
        ask(&mut conn, &json_search(&served, ",\"deadline_ms\":\"soon\"")),
    ));
    rows.push(("bad_trace", ask(&mut conn, &json_search(&served, ",\"trace\":\"yes\""))));
    rows.push(("search_cold", ask(&mut conn, &json_search(&served, ""))));
    rows.push(("search_hit", ask(&mut conn, &json_search(&served, ""))));
    rows.push(("search_traced", ask(&mut conn, &json_search(&served, ",\"trace\":true"))));
    rows.push(("deadline", ask(&mut conn, &json_search(&deadline, ",\"deadline_ms\":1"))));
    let overloaded = while_pinned(fleet, json_search(&pinned, ""), false, || {
        ask(&mut conn, &json_search(&shed, ""))
    });
    rows.push(("overloaded", overloaded));
    conn.send(b"{\"op\":\"stats\"}\n");
    rows.push(("stats", render_json_doc(conn.line())));
    conn.send(b"{\"op\":\"metrics\"}\n");
    rows.push(("metrics", render_json_doc(conn.line())));

    let mut fresh = Conn::open(addr);
    rows.push(("blank_line_then_ping", ask(&mut fresh, b"\n{\"op\":\"ping\"}\n")));

    let mut fresh = Conn::open(addr);
    let reply = ask(&mut fresh, b"\xFF\xFE\n");
    rows.push(("non_utf8_line", format!("{reply} | {}", fresh.close_state())));

    let mut fresh = Conn::open(addr);
    let reply = ask(&mut fresh, &vec![b'a'; (1 << 20) + 1]);
    rows.push(("oversized_line", format!("{reply} | {}", fresh.close_state())));

    if routed {
        let router = dead_router();
        let mut fresh = Conn::open(router.addr());
        rows.push(("no_shard_available", ask(&mut fresh, &json_search(&served, ""))));
        router.join();
    }

    rows.push(("shutdown", ask(&mut conn, b"{\"op\":\"shutdown\"}\n")));
    rows
}

fn binary_script(fleet: &Fleet, routed: bool) -> Rows {
    let [served, deadline, pinned, shed] = requests();
    let addr = fleet.addr();
    let mut rows: Rows = Vec::new();
    let mut conn = Conn::open(addr);
    let ask = |conn: &mut Conn, bytes: &[u8]| {
        conn.send(bytes);
        render_frame(conn.frame())
    };
    let frame = codec_bin::frame_bytes;
    let served_body = codec_bin::encode_search_request(&served, None, false);

    rows.push(("ping", ask(&mut conn, &frame(kind::PING, &[]))));
    rows.push(("unknown_kind", ask(&mut conn, &frame(0x7E, &[]))));
    rows.push(("invalid_request", ask(&mut conn, &frame(kind::SEARCH, &[0x00, 0x01]))));
    let mut bad_deadline = vec![0x01];
    bad_deadline.extend_from_slice(&[0xFF; 11]);
    rows.push(("bad_deadline_ms", ask(&mut conn, &frame(kind::SEARCH, &bad_deadline))));
    let mut bad_flags = served_body.clone();
    bad_flags[0] = 0x04;
    rows.push(("bad_trace", ask(&mut conn, &frame(kind::SEARCH, &bad_flags))));
    rows.push(("search_cold", ask(&mut conn, &bin_search(&served, None, false))));
    rows.push(("search_hit", ask(&mut conn, &bin_search(&served, None, false))));
    rows.push(("search_traced", ask(&mut conn, &bin_search(&served, None, true))));
    rows.push(("deadline", ask(&mut conn, &bin_search(&deadline, Some(1), false))));
    let overloaded = while_pinned(fleet, bin_search(&pinned, None, false), true, || {
        ask(&mut conn, &bin_search(&shed, None, false))
    });
    rows.push(("overloaded", overloaded));
    rows.push(("stats", ask(&mut conn, &frame(kind::STATS, &[]))));
    rows.push(("metrics", ask(&mut conn, &frame(kind::METRICS, &[]))));

    let mut fresh = Conn::open(addr);
    let reply = ask(&mut fresh, &[codec_bin::FRAME_MAGIC, 0x00]);
    rows.push(("zero_length_frame", format!("{reply} | {}", fresh.close_state())));

    let mut oversized = vec![codec_bin::FRAME_MAGIC];
    let mut len = MAX_FRAME_BYTES + 1;
    while len >= 0x80 {
        oversized.push((len as u8 & 0x7F) | 0x80);
        len >>= 7;
    }
    oversized.push(len as u8);
    let mut fresh = Conn::open(addr);
    let reply = ask(&mut fresh, &oversized);
    rows.push(("oversized_frame", format!("{reply} | {}", fresh.close_state())));

    if routed {
        let router = dead_router();
        let mut fresh = Conn::open(router.addr());
        rows.push(("no_shard_available", ask(&mut fresh, &bin_search(&served, None, false))));
        router.join();
    }

    rows.push(("shutdown", ask(&mut conn, &frame(kind::SHUTDOWN, &[]))));
    rows
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn check(suite: &str, rows: &Rows) {
    let actual: String =
        rows.iter().map(|(name, rendered)| format!("{name}\t{rendered}\n")).collect();
    let path = format!("{}/tests/golden/{suite}.txt", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let expected_rows: Vec<&str> = expected.lines().collect();
    let diffs: Vec<String> = actual
        .lines()
        .filter(|line| !expected_rows.contains(line))
        .map(|line| format!("  {}", line.split('\t').next().unwrap_or(line)))
        .collect();
    let dir = format!("{}/wire_golden", env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("create actual dir");
    let actual_path = format!("{dir}/{suite}.txt");
    std::fs::write(&actual_path, &actual).expect("write actual");
    panic!(
        "wire bytes of `{suite}` differ from {path}; rows that changed:\n{}\nactual written to {actual_path}",
        diffs.join("\n")
    );
}

#[test]
fn daemon_json_wire_bytes_match_the_fixtures() {
    let fleet = Fleet::start(false);
    let rows = json_script(&fleet, false);
    fleet.join();
    check("daemon_json", &rows);
}

#[test]
fn daemon_binary_wire_bytes_match_the_fixtures() {
    let fleet = Fleet::start(false);
    let rows = binary_script(&fleet, false);
    fleet.join();
    check("daemon_binary", &rows);
}

#[test]
fn router_json_wire_bytes_match_the_fixtures() {
    let fleet = Fleet::start(true);
    let rows = json_script(&fleet, true);
    fleet.join();
    check("router_json", &rows);
}

#[test]
fn router_binary_wire_bytes_match_the_fixtures() {
    let fleet = Fleet::start(true);
    let rows = binary_script(&fleet, true);
    fleet.join();
    check("router_binary", &rows);
}

#[test]
fn router_answers_a_blank_line_then_a_search_with_exactly_one_reply() {
    // A blank keep-alive line is not a request: a pipelining client that
    // sends one must not find every later reply one behind.
    let fleet = Fleet::start(true);
    let mut conn = Conn::open(fleet.addr());
    let mut pipelined = b"\n".to_vec();
    pipelined.extend_from_slice(&json_search(&requests()[0], ""));
    pipelined.extend_from_slice(b"{\"op\":\"ping\"}\n");
    conn.send(&pipelined);
    let search = render_line(conn.line());
    assert!(search.starts_with("{\"ok\":true,\"request_key\""), "first reply: {search}");
    assert_eq!(render_line(conn.line()), "{\"ok\":true,\"op\":\"ping\"}\\x0A");
    drop(conn);
    fleet.join();
}
