//! Length-prefixed binary frame codec — the compact wire format served
//! alongside line-delimited JSON.
//!
//! The paper's framing makes plans *programs*: a served plan is a short
//! stream of transformation-grammar tokens plus a handful of metrics, which
//! is a near-ideal candidate for flat binary encoding. Steps pack as an
//! opcode byte plus varint factors (the sequence-buffer shape), integers as
//! LEB128 varints, floats as their raw IEEE-754 bits — ~5-10× fewer payload
//! bytes than the JSON text.
//!
//! Framing: every message is `[0xB1][varint length][kind][body]`. The magic
//! byte `0xB1` can never begin a JSON request (those start with `{` or
//! whitespace), so the server auto-detects the codec per connection from
//! the first byte a client sends. Frames are bounded at [`MAX_FRAME_BYTES`]
//! — the binary mirror of the JSON 1 MiB line cap.
//!
//! The load-bearing invariant: **binary is a transport, not a second
//! identity.** A binary request decodes to the same [`SearchRequest`] the
//! JSON path parses, re-encodes to the same canonical JSON bytes, and hashes
//! to the same content-hash request key — the two wire formats share one
//! cache namespace, and one request key maps to one cache entry regardless
//! of codec. Likewise a binary payload decodes to a [`PlanPayload`] whose
//! canonical re-encoding is byte-identical to the JSON the server caches.
//! `tests/codec_roundtrip.rs` pins both directions property-wise.
//!
//! Decoding is as strict as the JSON path: truncated bodies, trailing
//! garbage, overlong varints, unknown tags, wrong schema versions and
//! grammar-invalid steps are all errors, never best-effort repairs.

use std::io::{self, Read, Write};

use pte_core::ir::GpuAxis;
use pte_core::transform::TransformStep;

use crate::codec::{
    CodecError, CodecResult, PlanPayload, PlatformId, SearchRequest, StatsDoc, Strategy,
    SCHEMA_VERSION,
};
use crate::codec::{LayerPlanDoc, LayerSpec, NetworkSpec};

/// First byte of every binary frame. `{` (0x7B) opens a JSON line, so the
/// two wire formats are distinguishable from the first byte alone.
pub const FRAME_MAGIC: u8 = 0xB1;

/// Maximum frame length (kind + body). Mirrors the JSON line cap: anything
/// near this bound is hostile, and a declared length beyond it is rejected
/// before any allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Frame kinds. Requests are low, replies have the high bit set.
pub mod kind {
    /// Search request: flags + optional deadline + [`super::SearchRequest`].
    pub const SEARCH: u8 = 0x01;
    /// Stats request (empty body).
    pub const STATS: u8 = 0x02;
    /// Liveness request (empty body).
    pub const PING: u8 = 0x03;
    /// Shutdown request (empty body).
    pub const SHUTDOWN: u8 = 0x04;
    /// Metrics request (empty body): stats plus the Prometheus-style page.
    pub const METRICS: u8 = 0x05;
    /// Search reply: key + cache flags + elapsed + packed payload.
    pub const REPLY_SEARCH: u8 = 0x81;
    /// Generic ack (ping/shutdown): body echoes the request kind.
    pub const REPLY_OK: u8 = 0x82;
    /// Stats reply: body is the canonical JSON stats document (diagnostic
    /// data — reuses the JSON rendering rather than duplicating the schema).
    pub const REPLY_STATS: u8 = 0x83;
    /// Metrics reply: body is the canonical JSON metrics document, which
    /// embeds the Prometheus text page (diagnostic data, same reasoning as
    /// [`REPLY_STATS`]).
    pub const REPLY_METRICS: u8 = 0x84;
    /// Error reply: message + retryable + optional retry hint.
    pub const REPLY_ERROR: u8 = 0xE1;
}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only byte-buffer writer for frame bodies.
#[derive(Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        BinWriter { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// LEB128 varint (7 bits per byte, high bit = continuation).
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Signed integer as zigzag varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Raw IEEE-754 bits, little-endian — exact, no text round-trip.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Strict cursor over a frame body: every read is bounds-checked and
/// [`BinReader::finish`] rejects trailing bytes (the binary analogue of the
/// JSON codec's unknown-field errors).
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Wraps a frame body.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    fn truncated(&self) -> CodecError {
        CodecError::new("binary frame truncated")
    }

    /// LEB128 varint, rejecting encodings longer than 10 bytes.
    pub fn varint(&mut self) -> CodecResult<u64> {
        let mut value: u64 = 0;
        for shift in 0..10u32 {
            let byte = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
            self.pos += 1;
            let bits = u64::from(byte & 0x7F);
            if shift == 9 && byte > 0x01 {
                return Err(CodecError::new("varint overflows u64"));
            }
            value |= bits << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::new("varint longer than 10 bytes"))
    }

    /// Zigzag-decoded signed integer.
    pub fn i64(&mut self) -> CodecResult<i64> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Raw IEEE-754 bits, little-endian.
    pub fn f64(&mut self) -> CodecResult<f64> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.truncated())?;
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Single byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        let byte = *self.buf.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(byte)
    }

    /// Strict bool (exactly 0 or 1).
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid bool byte {other}"))),
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let len = self.varint()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(CodecError::new("string length exceeds frame bound"));
        }
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| self.truncated())?;
        let text = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| CodecError::new("string is not valid UTF-8"))?;
        self.pos = end;
        Ok(text.to_string())
    }

    /// Rejects trailing bytes.
    pub fn finish(self) -> CodecResult<()> {
        if self.pos != self.buf.len() {
            return Err(CodecError::new(format!(
                "binary frame has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Step tokens
// ---------------------------------------------------------------------------

/// Verbatim-text fallback token: the step text parses through the grammar
/// but is not in canonical `Display` form (e.g. embedded whitespace), so it
/// must survive byte-for-byte to keep the canonical JSON re-encoding
/// identical across codecs.
const STEP_VERBATIM: u8 = 0;

fn axis_code(axis: GpuAxis) -> u8 {
    match axis {
        GpuAxis::Block(i) => i,
        GpuAxis::Thread(i) => 3 + i,
        GpuAxis::VThread => 6,
    }
}

fn axis_from_code(code: u8) -> CodecResult<GpuAxis> {
    match code {
        0..=2 => Ok(GpuAxis::Block(code)),
        3..=5 => Ok(GpuAxis::Thread(code - 3)),
        6 => Ok(GpuAxis::VThread),
        other => Err(CodecError::new(format!("unknown GPU axis code {other}"))),
    }
}

/// Packs one step token: opcode byte + varint/string operands for steps in
/// canonical `Display` form, [`STEP_VERBATIM`] + text otherwise. Rejects
/// text outside the grammar — same strictness as the JSON path.
fn put_step(w: &mut BinWriter, text: &str) -> CodecResult<()> {
    let step: TransformStep =
        text.parse().map_err(|e: pte_core::transform::sequence::ParseStepError| {
            CodecError::new(e.to_string())
        })?;
    if step.to_string() != text {
        w.put_u8(STEP_VERBATIM);
        w.put_str(text);
        return Ok(());
    }
    match &step {
        TransformStep::Interchange(a, b) => {
            w.put_u8(1);
            w.put_str(a);
            w.put_str(b);
        }
        TransformStep::Reorder(names) => {
            w.put_u8(2);
            w.put_varint(names.len() as u64);
            for name in names {
                w.put_str(name);
            }
        }
        TransformStep::Split { iter, factor } => {
            w.put_u8(3);
            w.put_str(iter);
            w.put_i64(*factor);
        }
        TransformStep::Fuse(a, b) => {
            w.put_u8(4);
            w.put_str(a);
            w.put_str(b);
        }
        TransformStep::Tile { iter, factor } => {
            w.put_u8(5);
            w.put_str(iter);
            w.put_i64(*factor);
        }
        TransformStep::Unroll(iter) => {
            w.put_u8(6);
            w.put_str(iter);
        }
        TransformStep::Vectorize(iter) => {
            w.put_u8(7);
            w.put_str(iter);
        }
        TransformStep::Parallel(iter) => {
            w.put_u8(8);
            w.put_str(iter);
        }
        TransformStep::Prefetch { tensor, iter } => {
            w.put_u8(9);
            w.put_str(tensor);
            w.put_str(iter);
        }
        TransformStep::Bind { iter, axis } => {
            w.put_u8(10);
            w.put_str(iter);
            w.put_u8(axis_code(*axis));
        }
        TransformStep::Bottleneck { iter, factor } => {
            w.put_u8(11);
            w.put_str(iter);
            w.put_i64(*factor);
        }
        TransformStep::Group { factor } => {
            w.put_u8(12);
            w.put_i64(*factor);
        }
        TransformStep::Depthwise => w.put_u8(13),
        TransformStep::SplitDomain { part, parts } => {
            w.put_u8(14);
            w.put_i64(*part);
            w.put_i64(*parts);
        }
    }
    Ok(())
}

/// Unpacks one step token back to its text form.
fn read_step(r: &mut BinReader<'_>) -> CodecResult<String> {
    let opcode = r.u8()?;
    let step = match opcode {
        STEP_VERBATIM => {
            let text = r.str()?;
            // Verbatim tokens still must replay through the grammar.
            text.parse::<TransformStep>().map_err(|e| CodecError::new(e.to_string()))?;
            return Ok(text);
        }
        1 => TransformStep::Interchange(r.str()?, r.str()?),
        2 => {
            let n = r.varint()? as usize;
            if n > MAX_FRAME_BYTES {
                return Err(CodecError::new("reorder token count exceeds frame bound"));
            }
            let names = (0..n).map(|_| r.str()).collect::<CodecResult<Vec<_>>>()?;
            TransformStep::Reorder(names)
        }
        3 => TransformStep::Split { iter: r.str()?, factor: r.i64()? },
        4 => TransformStep::Fuse(r.str()?, r.str()?),
        5 => TransformStep::Tile { iter: r.str()?, factor: r.i64()? },
        6 => TransformStep::Unroll(r.str()?),
        7 => TransformStep::Vectorize(r.str()?),
        8 => TransformStep::Parallel(r.str()?),
        9 => TransformStep::Prefetch { tensor: r.str()?, iter: r.str()? },
        10 => TransformStep::Bind { iter: r.str()?, axis: axis_from_code(r.u8()?)? },
        11 => TransformStep::Bottleneck { iter: r.str()?, factor: r.i64()? },
        12 => TransformStep::Group { factor: r.i64()? },
        13 => TransformStep::Depthwise,
        14 => TransformStep::SplitDomain { part: r.i64()?, parts: r.i64()? },
        other => return Err(CodecError::new(format!("unknown step opcode {other}"))),
    };
    Ok(step.to_string())
}

// ---------------------------------------------------------------------------
// Schema encodings
// ---------------------------------------------------------------------------

fn platform_code(p: PlatformId) -> u8 {
    match p {
        PlatformId::Cpu => 0,
        PlatformId::Gpu => 1,
        PlatformId::Mcpu => 2,
        PlatformId::Mgpu => 3,
    }
}

fn platform_from_code(code: u8) -> CodecResult<PlatformId> {
    match code {
        0 => Ok(PlatformId::Cpu),
        1 => Ok(PlatformId::Gpu),
        2 => Ok(PlatformId::Mcpu),
        3 => Ok(PlatformId::Mgpu),
        other => Err(CodecError::new(format!("unknown platform code {other}"))),
    }
}

fn strategy_code(s: Strategy) -> u8 {
    match s {
        Strategy::Unified => 0,
        Strategy::Baseline => 1,
        Strategy::Evolve => 2,
    }
}

fn strategy_from_code(code: u8) -> CodecResult<Strategy> {
    match code {
        0 => Ok(Strategy::Unified),
        1 => Ok(Strategy::Baseline),
        2 => Ok(Strategy::Evolve),
        other => Err(CodecError::new(format!("unknown strategy code {other}"))),
    }
}

fn put_layer_spec(w: &mut BinWriter, layer: &LayerSpec) {
    w.put_str(&layer.name);
    for v in [
        layer.c_in,
        layer.c_out,
        layer.kernel,
        layer.stride,
        layer.padding,
        layer.groups,
        layer.h,
        layer.w,
    ] {
        w.put_varint(v);
    }
    w.put_bool(layer.mutable);
}

fn read_layer_spec(r: &mut BinReader<'_>) -> CodecResult<LayerSpec> {
    Ok(LayerSpec {
        name: r.str()?,
        c_in: r.varint()?,
        c_out: r.varint()?,
        kernel: r.varint()?,
        stride: r.varint()?,
        padding: r.varint()?,
        groups: r.varint()?,
        h: r.varint()?,
        w: r.varint()?,
        mutable: r.bool()?,
    })
}

const NETWORK_PRESET: u8 = 0;
const NETWORK_CUSTOM: u8 = 1;

fn put_network(w: &mut BinWriter, network: &NetworkSpec) {
    match network {
        NetworkSpec::Preset(name) => {
            w.put_u8(NETWORK_PRESET);
            w.put_str(name);
        }
        NetworkSpec::Custom { name, dataset, classifier_in, base_error, convs } => {
            w.put_u8(NETWORK_CUSTOM);
            w.put_str(name);
            w.put_str(dataset);
            w.put_varint(*classifier_in);
            w.put_f64(*base_error);
            w.put_varint(convs.len() as u64);
            for conv in convs {
                put_layer_spec(w, conv);
            }
        }
    }
}

fn read_network(r: &mut BinReader<'_>) -> CodecResult<NetworkSpec> {
    match r.u8()? {
        NETWORK_PRESET => Ok(NetworkSpec::Preset(r.str()?)),
        NETWORK_CUSTOM => {
            let name = r.str()?;
            let dataset = r.str()?;
            let classifier_in = r.varint()?;
            let base_error = r.f64()?;
            let n = r.varint()? as usize;
            if n > 4096 {
                return Err(CodecError::new("custom network has too many layers"));
            }
            let convs = (0..n).map(|_| read_layer_spec(r)).collect::<CodecResult<Vec<_>>>()?;
            Ok(NetworkSpec::Custom { name, dataset, classifier_in, base_error, convs })
        }
        other => Err(CodecError::new(format!("unknown network tag {other}"))),
    }
}

/// Packs a [`SearchRequest`] body (without the op-level deadline).
fn put_request(w: &mut BinWriter, request: &SearchRequest) {
    w.put_varint(SCHEMA_VERSION as u64);
    put_network(w, &request.network);
    w.put_u8(platform_code(request.platform));
    w.put_u8(strategy_code(request.strategy));
    w.put_varint(request.random_per_layer);
    w.put_varint(request.trials);
    w.put_varint(request.tune_seed);
    w.put_f64(request.class_tolerance);
    w.put_f64(request.network_tolerance);
    w.put_varint(request.seed);
}

fn read_request(r: &mut BinReader<'_>) -> CodecResult<SearchRequest> {
    let version = r.varint()? as i64;
    if version != SCHEMA_VERSION {
        return Err(CodecError::new(format!("unsupported schema version {version}")));
    }
    let request = SearchRequest {
        network: read_network(r)?,
        platform: platform_from_code(r.u8()?)?,
        strategy: strategy_from_code(r.u8()?)?,
        random_per_layer: r.varint()?,
        trials: r.varint()?,
        tune_seed: r.varint()?,
        class_tolerance: r.f64()?,
        network_tolerance: r.f64()?,
        seed: r.varint()?,
    };
    // Same bounds the JSON decoder enforces.
    request.validate()?;
    Ok(request)
}

fn put_stats_doc(w: &mut BinWriter, stats: &StatsDoc) {
    for v in [
        stats.attempted,
        stats.structurally_invalid,
        stats.cost_rejected,
        stats.fisher_rejected,
        stats.survivors,
        stats.improvements,
    ] {
        w.put_varint(v);
    }
}

fn read_stats_doc(r: &mut BinReader<'_>) -> CodecResult<StatsDoc> {
    Ok(StatsDoc {
        attempted: r.varint()?,
        structurally_invalid: r.varint()?,
        cost_rejected: r.varint()?,
        fisher_rejected: r.varint()?,
        survivors: r.varint()?,
        improvements: r.varint()?,
    })
}

fn put_layer_plan(w: &mut BinWriter, doc: &LayerPlanDoc) -> CodecResult<()> {
    put_layer_spec(w, &doc.layer);
    w.put_varint(doc.multiplicity);
    w.put_f64(doc.latency_ms);
    w.put_f64(doc.fisher);
    w.put_varint(doc.params);
    match &doc.named_sequence {
        None => w.put_u8(0),
        Some(name) => {
            w.put_u8(1);
            w.put_str(name);
        }
    }
    w.put_varint(doc.schedules.len() as u64);
    for schedule in &doc.schedules {
        w.put_varint(schedule.len() as u64);
        for step in schedule {
            put_step(w, step)?;
        }
    }
    Ok(())
}

fn read_layer_plan(r: &mut BinReader<'_>) -> CodecResult<LayerPlanDoc> {
    let layer = read_layer_spec(r)?;
    let multiplicity = r.varint()?;
    let latency_ms = r.f64()?;
    let fisher = r.f64()?;
    let params = r.varint()?;
    let named_sequence = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        other => return Err(CodecError::new(format!("unknown named_sequence tag {other}"))),
    };
    let schedule_count = r.varint()? as usize;
    if schedule_count > MAX_FRAME_BYTES {
        return Err(CodecError::new("schedule count exceeds frame bound"));
    }
    let mut schedules = Vec::with_capacity(schedule_count.min(64));
    for _ in 0..schedule_count {
        let step_count = r.varint()? as usize;
        if step_count > MAX_FRAME_BYTES {
            return Err(CodecError::new("step count exceeds frame bound"));
        }
        let steps = (0..step_count).map(|_| read_step(r)).collect::<CodecResult<Vec<_>>>()?;
        schedules.push(steps);
    }
    Ok(LayerPlanDoc { layer, multiplicity, latency_ms, fisher, params, named_sequence, schedules })
}

/// Packs a [`PlanPayload`] to its binary body.
///
/// # Errors
/// Steps outside the transformation grammar.
pub fn encode_payload(payload: &PlanPayload) -> CodecResult<Vec<u8>> {
    let mut w = BinWriter::new();
    w.put_varint(SCHEMA_VERSION as u64);
    w.put_str(&payload.network);
    w.put_u8(platform_code(payload.platform));
    w.put_u8(strategy_code(payload.strategy));
    w.put_f64(payload.latency_ms);
    w.put_varint(payload.params);
    w.put_f64(payload.fisher);
    w.put_f64(payload.original_fisher);
    put_stats_doc(&mut w, &payload.stats);
    w.put_varint(payload.layers.len() as u64);
    for layer in &payload.layers {
        put_layer_plan(&mut w, layer)?;
    }
    Ok(w.into_bytes())
}

/// Unpacks a [`PlanPayload`] body (strict: trailing bytes are an error).
///
/// # Errors
/// Any schema violation or truncation.
pub fn decode_payload(body: &[u8]) -> CodecResult<PlanPayload> {
    let mut r = BinReader::new(body);
    let version = r.varint()? as i64;
    if version != SCHEMA_VERSION {
        return Err(CodecError::new(format!("unsupported schema version {version}")));
    }
    let network = r.str()?;
    let platform = platform_from_code(r.u8()?)?;
    let strategy = strategy_from_code(r.u8()?)?;
    let latency_ms = r.f64()?;
    let params = r.varint()?;
    let fisher = r.f64()?;
    let original_fisher = r.f64()?;
    let stats = read_stats_doc(&mut r)?;
    let layer_count = r.varint()? as usize;
    if layer_count > 4096 {
        return Err(CodecError::new("payload has too many layers"));
    }
    let layers =
        (0..layer_count).map(|_| read_layer_plan(&mut r)).collect::<CodecResult<Vec<_>>>()?;
    r.finish()?;
    Ok(PlanPayload {
        network,
        platform,
        strategy,
        latency_ms,
        params,
        fisher,
        original_fisher,
        stats,
        layers,
    })
}

// ---------------------------------------------------------------------------
// Request / reply bodies
// ---------------------------------------------------------------------------

/// Packs a search request body: flags byte (bit 0 = deadline present,
/// bit 1 = trace requested), optional varint deadline, then the request.
/// The flags live outside the request encoding for the same reason the
/// deadline lives outside the JSON `request` subtree: they must not change
/// the canonical bytes or cache key.
pub fn encode_search_request(
    request: &SearchRequest,
    deadline_ms: Option<u64>,
    trace: bool,
) -> Vec<u8> {
    let mut w = BinWriter::new();
    let mut flags = 0u8;
    if deadline_ms.is_some() {
        flags |= 1;
    }
    if trace {
        flags |= 2;
    }
    w.put_u8(flags);
    if let Some(ms) = deadline_ms {
        w.put_varint(ms);
    }
    put_request(&mut w, request);
    w.into_bytes()
}

/// Unpacks a search request body into `(request, deadline_ms, trace)`.
///
/// # Errors
/// Any schema violation or truncation.
pub fn decode_search_request(body: &[u8]) -> CodecResult<(SearchRequest, Option<u64>, bool)> {
    let mut r = BinReader::new(body);
    let flags = r.u8()?;
    if flags > 3 {
        return Err(CodecError::new(format!("unknown search flags {flags}")));
    }
    let deadline_ms = if flags & 1 != 0 { Some(r.varint()?) } else { None };
    let trace = flags & 2 != 0;
    let request = read_request(&mut r)?;
    r.finish()?;
    Ok((request, deadline_ms, trace))
}

/// A decoded binary search reply.
#[derive(Debug, Clone)]
pub struct BinSearchReply {
    /// The content-hash request key (the u64 the hex key renders).
    pub key: u64,
    /// Served from cache.
    pub hit: bool,
    /// Shared another request's in-flight search.
    pub coalesced: bool,
    /// Server-side handling time (ms).
    pub elapsed_ms: f64,
    /// The plan payload.
    pub payload: PlanPayload,
    /// Span-tree JSON, present only when the request asked for a trace.
    /// Carried as rendered JSON text: trace shape is diagnostic data, not
    /// part of the canonical payload, so it reuses the JSON rendering.
    pub trace_json: Option<String>,
}

/// Packs a search reply body around an already-encoded binary payload.
pub fn encode_search_reply(
    key: u64,
    hit: bool,
    coalesced: bool,
    elapsed_ms: f64,
    payload_body: &[u8],
    trace_json: Option<&str>,
) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.put_varint(key);
    w.put_bool(hit);
    w.put_bool(coalesced);
    w.put_f64(elapsed_ms);
    w.put_varint(payload_body.len() as u64);
    let mut buf = w.into_bytes();
    buf.extend_from_slice(payload_body);
    let mut tail = BinWriter::new();
    match trace_json {
        None => tail.put_u8(0),
        Some(text) => {
            tail.put_u8(1);
            tail.put_str(text);
        }
    }
    buf.extend_from_slice(&tail.into_bytes());
    buf
}

/// Unpacks a search reply body.
///
/// # Errors
/// Any schema violation or truncation.
pub fn decode_search_reply(body: &[u8]) -> CodecResult<BinSearchReply> {
    let mut r = BinReader::new(body);
    let key = r.varint()?;
    let hit = r.bool()?;
    let coalesced = r.bool()?;
    let elapsed_ms = r.f64()?;
    let payload_len = r.varint()? as usize;
    let start = r.pos;
    let end = start.checked_add(payload_len).filter(|&e| e <= r.buf.len());
    let end = end.ok_or_else(|| CodecError::new("binary frame truncated"))?;
    let payload = decode_payload(&r.buf[start..end])?;
    r.pos = end;
    let trace_json = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        other => return Err(CodecError::new(format!("unknown trace tag {other}"))),
    };
    r.finish()?;
    Ok(BinSearchReply { key, hit, coalesced, elapsed_ms, payload, trace_json })
}

/// A decoded binary error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// The server's error string (e.g. `deadline`, `overloaded`).
    pub message: String,
    /// Whether a verbatim retry can succeed.
    pub retryable: bool,
    /// Server-suggested retry delay.
    pub retry_after_ms: Option<u64>,
}

/// Packs an error reply body.
pub fn encode_error(message: &str, retryable: bool, retry_after_ms: Option<u64>) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.put_str(message);
    w.put_bool(retryable);
    match retry_after_ms {
        None => w.put_u8(0),
        Some(ms) => {
            w.put_u8(1);
            w.put_varint(ms);
        }
    }
    w.into_bytes()
}

/// Unpacks an error reply body.
///
/// # Errors
/// Any schema violation or truncation.
pub fn decode_error(body: &[u8]) -> CodecResult<BinError> {
    let mut r = BinReader::new(body);
    let message = r.str()?;
    let retryable = r.bool()?;
    let retry_after_ms = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        other => return Err(CodecError::new(format!("unknown retry tag {other}"))),
    };
    r.finish()?;
    Ok(BinError { message, retryable, retry_after_ms })
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Assembles a complete frame: magic, varint length of `kind + body`, kind,
/// body.
pub fn frame_bytes(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.put_u8(FRAME_MAGIC);
    w.put_varint(1 + body.len() as u64);
    w.put_u8(kind);
    let mut buf = w.into_bytes();
    buf.extend_from_slice(body);
    buf
}

/// Writes one frame to a blocking stream.
///
/// # Errors
/// Propagates write failures.
pub fn write_frame(out: &mut impl Write, kind: u8, body: &[u8]) -> io::Result<()> {
    out.write_all(&frame_bytes(kind, body))?;
    out.flush()
}

/// Tries to extract one complete frame from an accumulation buffer (the
/// event loop's incremental read path).
///
/// Returns `Ok(None)` while the frame is still incomplete,
/// `Ok(Some((kind, body, consumed)))` once a whole frame is buffered.
///
/// # Errors
/// As [`frame_extent`].
pub fn try_extract_frame(buf: &[u8]) -> CodecResult<Option<(u8, Vec<u8>, usize)>> {
    Ok(frame_extent(buf)?.map(|(body, end)| (buf[body - 1], buf[body..end].to_vec(), end)))
}

/// Locates the frame at the front of an accumulation buffer without copying
/// it: `Ok(Some((body_start, end)))` once it is whole (its kind byte sits at
/// `body_start - 1`), `Ok(None)` while it is incomplete.
///
/// # Errors
/// A declared length over [`MAX_FRAME_BYTES`], a zero-length frame, a
/// malformed varint, or a wrong magic byte — all fatal for the connection
/// (framing is lost).
pub fn frame_extent(buf: &[u8]) -> CodecResult<Option<(usize, usize)>> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != FRAME_MAGIC {
        return Err(CodecError::new(format!("bad frame magic 0x{:02x}", buf[0])));
    }
    // Decode the length varint incrementally.
    let mut len: u64 = 0;
    let mut cursor = 1usize;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(cursor) else { return Ok(None) };
        cursor += 1;
        len |= u64::from(byte & 0x7F) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            break;
        }
        if shift > 28 {
            return Err(CodecError::new("frame length varint too long"));
        }
    }
    let len = len as usize;
    if len == 0 {
        return Err(CodecError::new("zero-length frame"));
    }
    if len > MAX_FRAME_BYTES {
        return Err(CodecError::new(format!("frame length {len} exceeds 1 MiB cap")));
    }
    let end = cursor.checked_add(len).ok_or_else(|| CodecError::new("frame length overflow"))?;
    Ok((buf.len() >= end).then_some((cursor + 1, end)))
}

/// Frame-level read failure on the blocking client path.
#[derive(Debug)]
pub enum FrameReadError {
    /// Socket-level failure (includes truncation mid-frame).
    Io(io::Error),
    /// The stream closed cleanly before any frame byte.
    Closed,
    /// The bytes arrived intact but do not frame (bad magic, oversized
    /// declared length, malformed varint).
    Malformed(String),
}

/// Reads one complete frame from a blocking stream.
///
/// EOF semantics mirror the JSON client: a clean close before any byte is
/// [`FrameReadError::Closed`], a close mid-frame is an
/// [`io::ErrorKind::UnexpectedEof`] I/O error — truncated bytes are never
/// handed to the body decoders.
///
/// # Errors
/// See [`FrameReadError`].
pub fn read_frame(reader: &mut impl Read) -> Result<(u8, Vec<u8>), FrameReadError> {
    let mut first = [0u8; 1];
    match reader.read(&mut first) {
        Ok(0) => return Err(FrameReadError::Closed),
        Ok(_) => {}
        Err(e) => return Err(FrameReadError::Io(e)),
    }
    if first[0] != FRAME_MAGIC {
        return Err(FrameReadError::Malformed(format!("bad frame magic 0x{:02x}", first[0])));
    }
    let mut len: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            } else {
                FrameReadError::Io(e)
            }
        })?;
        len |= u64::from(byte[0] & 0x7F) << shift;
        shift += 7;
        if byte[0] & 0x80 == 0 {
            break;
        }
        if shift > 28 {
            return Err(FrameReadError::Malformed("frame length varint too long".into()));
        }
    }
    let len = len as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(FrameReadError::Malformed(format!("frame length {len} out of bounds")));
    }
    // The kind byte, then the body straight into its own buffer.
    let mut kind = [0u8; 1];
    let mut body = vec![0u8; len - 1];
    reader.read_exact(&mut kind).and_then(|()| reader.read_exact(&mut body)).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameReadError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ))
        } else {
            FrameReadError::Io(e)
        }
    })?;
    Ok((kind[0], body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{self, request_key};
    use crate::json::fnv1a64;

    fn tiny_request() -> SearchRequest {
        crate::workload::bench_request(7)
    }

    #[test]
    fn varints_round_trip() {
        let mut w = BinWriter::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn zigzag_round_trips_signed_extremes() {
        let mut w = BinWriter::new();
        let values = [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN];
        for &v in &values {
            w.put_i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.i64().unwrap(), v);
        }
    }

    #[test]
    fn request_round_trips_and_keys_match_json() {
        let request = tiny_request();
        let body = encode_search_request(&request, Some(250), false);
        let (decoded, deadline, trace) = decode_search_request(&body).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(deadline, Some(250));
        assert!(!trace);
        // The trace flag rides the flags byte without touching the request
        // encoding, so the canonical bytes — and the cache key — are
        // unchanged.
        let traced = encode_search_request(&request, Some(250), true);
        let (decoded_traced, deadline_traced, trace_traced) =
            decode_search_request(&traced).unwrap();
        assert_eq!(decoded_traced, decoded);
        assert_eq!(deadline_traced, deadline);
        assert!(trace_traced);
        assert_eq!(traced[1..], body[1..], "trace flag must only flip the flags byte");
        // The invariant: binary decode → canonical JSON → same key as the
        // JSON path computes.
        let canonical = request.encode().unwrap();
        assert_eq!(decoded.encode().unwrap(), canonical);
        assert_eq!(request_key(&decoded.encode().unwrap()), request_key(&canonical));
        assert_eq!(fnv1a64(canonical.as_bytes()), fnv1a64(decoded.encode().unwrap().as_bytes()));
    }

    #[test]
    fn payload_round_trips_bit_identically_and_packs_smaller() {
        let request = tiny_request();
        let canonical = codec::execute(&request).unwrap();
        let payload = PlanPayload::parse(&canonical).unwrap();
        let body = encode_payload(&payload).unwrap();
        let decoded = decode_payload(&body).unwrap();
        assert_eq!(decoded.encode().unwrap(), canonical, "binary round-trip changed the bytes");
        assert!(
            body.len() * 4 <= canonical.len(),
            "binary payload {} bytes vs JSON {} — expected at least 4x smaller",
            body.len(),
            canonical.len()
        );
    }

    #[test]
    fn canonical_and_verbatim_steps_both_survive() {
        // Canonical form packs structurally; a parseable-but-noncanonical
        // form (whitespace) survives verbatim.
        for text in ["split(i,4)", "split( i, 4 )", "depthwise", "bind(j,threadIdx.x)"] {
            let mut w = BinWriter::new();
            put_step(&mut w, text).unwrap();
            let bytes = w.into_bytes();
            let mut r = BinReader::new(&bytes);
            assert_eq!(read_step(&mut r).unwrap(), text);
            r.finish().unwrap();
        }
        // The canonical form is one opcode + operands, not the text.
        let mut w = BinWriter::new();
        put_step(&mut w, "depthwise").unwrap();
        assert_eq!(w.into_bytes(), vec![13]);
        // Out-of-grammar text is rejected outright.
        let mut w = BinWriter::new();
        assert!(put_step(&mut w, "frobnicate(co)").is_err());
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let request = tiny_request();
        let body = encode_search_request(&request, None, false);
        for cut in [0, 1, body.len() / 2, body.len() - 1] {
            assert!(decode_search_request(&body[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Unknown flag bits are rejected before any payload parsing.
        let mut bad_flags = body.clone();
        bad_flags[0] = 4;
        assert!(decode_search_request(&bad_flags).is_err());
        let payload = PlanPayload::parse(&codec::execute(&request).unwrap()).unwrap();
        let body = encode_payload(&payload).unwrap();
        assert!(decode_payload(&body[..body.len() - 1]).is_err());
        // Trailing garbage is as fatal as truncation.
        let mut padded = body.clone();
        padded.push(0);
        assert!(decode_payload(&padded).is_err());
    }

    #[test]
    fn frame_extraction_is_incremental_and_bounded() {
        let body = vec![1u8, 2, 3, 4];
        let frame = frame_bytes(kind::SEARCH, &body);
        // Every prefix is "incomplete", the whole frame extracts exactly.
        for cut in 0..frame.len() {
            assert!(matches!(try_extract_frame(&frame[..cut]), Ok(None)), "prefix {cut}");
        }
        let (kind, extracted, consumed) = try_extract_frame(&frame).unwrap().unwrap();
        assert_eq!(kind, kind::SEARCH);
        assert_eq!(extracted, body);
        assert_eq!(consumed, frame.len());
        // A declared length over the cap is rejected as soon as it is read.
        let mut w = BinWriter::new();
        w.put_u8(FRAME_MAGIC);
        w.put_varint((MAX_FRAME_BYTES + 1) as u64);
        assert!(try_extract_frame(&w.into_bytes()).is_err());
        // A JSON byte is not a frame.
        assert!(try_extract_frame(b"{\"op\":\"ping\"}").is_err());
    }

    #[test]
    fn error_replies_round_trip() {
        let body = encode_error("overloaded", true, Some(200));
        let decoded = decode_error(&body).unwrap();
        assert_eq!(
            decoded,
            BinError { message: "overloaded".into(), retryable: true, retry_after_ms: Some(200) }
        );
        let body = encode_error("bad request", false, None);
        let decoded = decode_error(&body).unwrap();
        assert!(!decoded.retryable);
        assert_eq!(decoded.retry_after_ms, None);
    }
}
