//! Stable wire schemas: [`SearchRequest`], plan payloads, and canonical
//! content-hash request keys.
//!
//! The codec is the serving layer's determinism boundary. A request is
//! decoded, validated, and **re-encoded canonically** (fixed field order, no
//! whitespace, shortest-form floats) before anything else happens, so two
//! textually different but semantically identical requests share one cache
//! key. A plan payload is encoded once, cached as bytes, and served
//! verbatim — byte-identical across cold, warm, and single-flight-coalesced
//! responses, and byte-identical to what a direct in-process search encodes
//! (`serve/tests/serve_e2e.rs` pins both; perfbench checks every served
//! reply against the in-process digest).
//!
//! Schema versioning: every request and payload carries `"v":1`; decoding
//! rejects other versions, unknown fields, and structurally invalid
//! networks, so a daemon never runs a search it cannot faithfully answer.

use std::fmt;

use pte_core::autotune::TuneOptions;
use pte_core::fisher::FisherLegality;
use pte_core::machine::Platform;
use pte_core::nn::{ConvLayer, DatasetKind, Network};
use pte_core::search::eval::SearchStats;
use pte_core::search::evolve::EvolveOptions;
use pte_core::search::unified::UnifiedOptions;
use pte_core::search::{CancelToken, NetworkPlan, SearchCtx};
use pte_core::transform::TransformStep;

use crate::json::{fnv1a64, Json, JsonResult};

/// Wire-format version embedded in every request and payload.
pub const SCHEMA_VERSION: i64 = 1;

/// Why a request failed, coarsely — the bit the wire envelope and the
/// retrying client key off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorClass {
    /// Schema/validation/spec failure: retrying the same bytes fails
    /// identically, so the client must not retry.
    #[default]
    Invalid,
    /// The request's deadline expired mid-search. Retrying buys a fresh
    /// budget, but the envelope says so explicitly (`"error":"deadline"`)
    /// so callers can distinguish "too slow" from "wrong".
    Deadline,
    /// This request coalesced behind a single-flight leader that failed
    /// (erred or panicked). Retryable: the retry runs (or coalesces behind)
    /// a fresh computation and surfaces the *real* outcome.
    Leader,
}

/// Error raised while decoding, validating, resolving, or running a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description.
    pub message: String,
    /// Coarse failure class (drives the envelope's `retryable` flag).
    pub class: ErrorClass,
}

impl CodecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CodecError { message: message.into(), class: ErrorClass::Invalid }
    }

    /// The error a deadline expiry surfaces as (`execute_cancellable`).
    pub fn deadline() -> Self {
        CodecError { message: "deadline".into(), class: ErrorClass::Deadline }
    }

    /// Whether a verbatim retry of the same request can succeed.
    pub fn retryable(&self) -> bool {
        !matches!(self.class, ErrorClass::Invalid)
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.message)
    }
}

impl std::error::Error for CodecError {}

impl From<crate::json::JsonError> for CodecError {
    fn from(e: crate::json::JsonError) -> Self {
        CodecError { message: e.message, class: ErrorClass::Invalid }
    }
}

impl From<crate::cache::LeaderFailure> for CodecError {
    fn from(failure: crate::cache::LeaderFailure) -> Self {
        CodecError { message: failure.message, class: ErrorClass::Leader }
    }
}

/// Convenience result alias for codec operations.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// The platforms a request may target (the paper's §6.1 suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Intel i7 server CPU.
    Cpu,
    /// GTX 1080Ti GPU.
    Gpu,
    /// ARM A57 mobile CPU.
    Mcpu,
    /// Maxwell-class mobile GPU.
    Mgpu,
}

impl PlatformId {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlatformId::Cpu => "cpu",
            PlatformId::Gpu => "gpu",
            PlatformId::Mcpu => "mcpu",
            PlatformId::Mgpu => "mgpu",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> CodecResult<Self> {
        match s {
            "cpu" => Ok(PlatformId::Cpu),
            "gpu" => Ok(PlatformId::Gpu),
            "mcpu" => Ok(PlatformId::Mcpu),
            "mgpu" => Ok(PlatformId::Mgpu),
            other => Err(CodecError::new(format!("unknown platform `{other}`"))),
        }
    }

    /// The platform model this id names.
    pub fn resolve(&self) -> Platform {
        match self {
            PlatformId::Cpu => Platform::intel_i7(),
            PlatformId::Gpu => Platform::gtx_1080ti(),
            PlatformId::Mcpu => Platform::arm_a57(),
            PlatformId::Mgpu => Platform::maxwell_mgpu(),
        }
    }
}

/// Which search the request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The unified transformation-exploration search (the paper's "Ours").
    Unified,
    /// TVM-style baseline: every layer autotuned, architecture untouched.
    Baseline,
    /// Grammar-compiled evolutionary search over sequence buffers; the
    /// request's `random_per_layer` is its per-class evaluation budget.
    Evolve,
}

impl Strategy {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Strategy::Unified => "unified",
            Strategy::Baseline => "baseline",
            Strategy::Evolve => "evolve",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> CodecResult<Self> {
        match s {
            "unified" => Ok(Strategy::Unified),
            "baseline" => Ok(Strategy::Baseline),
            "evolve" => Ok(Strategy::Evolve),
            other => Err(CodecError::new(format!("unknown strategy `{other}`"))),
        }
    }
}

/// One convolution layer of a custom network spec (mirrors
/// [`pte_core::nn::ConvLayer`] field-for-field).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Layer name, unique within the network.
    pub name: String,
    /// Input channels.
    pub c_in: u64,
    /// Output channels.
    pub c_out: u64,
    /// Square kernel extent.
    pub kernel: u64,
    /// Spatial stride.
    pub stride: u64,
    /// Symmetric zero padding.
    pub padding: u64,
    /// Channel groups.
    pub groups: u64,
    /// Input spatial height.
    pub h: u64,
    /// Input spatial width.
    pub w: u64,
    /// Whether the search may restructure this layer.
    pub mutable: bool,
}

impl LayerSpec {
    /// Captures a [`ConvLayer`]'s definition.
    pub fn from_layer(layer: &ConvLayer) -> Self {
        LayerSpec {
            name: layer.name.clone(),
            c_in: layer.c_in as u64,
            c_out: layer.c_out as u64,
            kernel: layer.kernel as u64,
            stride: layer.stride as u64,
            padding: layer.padding as u64,
            groups: layer.groups as u64,
            h: layer.h as u64,
            w: layer.w as u64,
            mutable: layer.mutable,
        }
    }

    /// Validates and lowers the spec to a [`ConvLayer`].
    ///
    /// # Errors
    /// Rejects geometry the engine cannot execute (zero extents, groups that
    /// do not divide both channel counts, kernels larger than the padded
    /// input) instead of letting a malformed request panic a worker.
    pub fn resolve(&self) -> CodecResult<ConvLayer> {
        let err = |reason: String| CodecError::new(format!("layer `{}`: {reason}", self.name));
        if self.name.is_empty() {
            return Err(CodecError::new("layer with empty name"));
        }
        for (field, v) in [
            ("c_in", self.c_in),
            ("c_out", self.c_out),
            ("kernel", self.kernel),
            ("stride", self.stride),
            ("groups", self.groups),
            ("h", self.h),
            ("w", self.w),
        ] {
            if v == 0 {
                return Err(err(format!("{field} must be >= 1")));
            }
            if v > 1 << 20 {
                return Err(err(format!("{field} = {v} is implausibly large")));
            }
        }
        if self.padding > 1 << 20 {
            return Err(err("padding is implausibly large".into()));
        }
        if !self.c_in.is_multiple_of(self.groups) || !self.c_out.is_multiple_of(self.groups) {
            return Err(err(format!("groups {} must divide c_in and c_out", self.groups)));
        }
        if self.h + 2 * self.padding < self.kernel || self.w + 2 * self.padding < self.kernel {
            return Err(err("kernel larger than padded input".into()));
        }
        Ok(ConvLayer::new(
            self.name.clone(),
            self.c_in as usize,
            self.c_out as usize,
            self.kernel as usize,
            self.stride as usize,
            self.padding as usize,
            self.h as usize,
            self.w as usize,
        )
        .with_groups(self.groups as usize)
        .with_mutable(self.mutable))
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("c_in", Json::Int(self.c_in as i64)),
            ("c_out", Json::Int(self.c_out as i64)),
            ("kernel", Json::Int(self.kernel as i64)),
            ("stride", Json::Int(self.stride as i64)),
            ("padding", Json::Int(self.padding as i64)),
            ("groups", Json::Int(self.groups as i64)),
            ("h", Json::Int(self.h as i64)),
            ("w", Json::Int(self.w as i64)),
            ("mutable", Json::Bool(self.mutable)),
        ])
    }

    fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "layer")?;
        let spec = LayerSpec {
            name: fields.string("name")?,
            c_in: fields.uint("c_in")?,
            c_out: fields.uint("c_out")?,
            kernel: fields.uint("kernel")?,
            stride: fields.uint("stride")?,
            padding: fields.uint("padding")?,
            groups: fields.uint("groups")?,
            h: fields.uint("h")?,
            w: fields.uint("w")?,
            mutable: fields.bool("mutable")?,
        };
        fields.finish()?;
        Ok(spec)
    }
}

/// The network a request targets: a named preset or an explicit layer list.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkSpec {
    /// A named builder (e.g. `resnet18-cifar10`).
    Preset(String),
    /// An explicit network definition.
    Custom {
        /// Network name (reporting only).
        name: String,
        /// `cifar10` or `imagenet`.
        dataset: String,
        /// Classifier input features.
        classifier_in: u64,
        /// Anchored top-1 error (%) of the trained original.
        base_error: f64,
        /// Convolution layers in execution order.
        convs: Vec<LayerSpec>,
    },
}

/// The named presets [`NetworkSpec::Preset`] accepts.
pub const PRESETS: &[&str] = &[
    "resnet18-cifar10",
    "resnet18-imagenet",
    "resnet34-cifar10",
    "resnet34-imagenet",
    "resnext29-2x64d",
    "densenet161-cifar10",
];

fn parse_dataset(s: &str) -> CodecResult<DatasetKind> {
    match s {
        "cifar10" => Ok(DatasetKind::Cifar10),
        "imagenet" => Ok(DatasetKind::ImageNet),
        other => Err(CodecError::new(format!("unknown dataset `{other}`"))),
    }
}

impl NetworkSpec {
    /// Builds the network this spec describes.
    ///
    /// # Errors
    /// Unknown preset, unknown dataset, or an invalid custom layer.
    pub fn resolve(&self) -> CodecResult<Network> {
        match self {
            NetworkSpec::Preset(name) => match name.as_str() {
                "resnet18-cifar10" => Ok(pte_core::nn::resnet18(DatasetKind::Cifar10)),
                "resnet18-imagenet" => Ok(pte_core::nn::resnet18(DatasetKind::ImageNet)),
                "resnet34-cifar10" => Ok(pte_core::nn::resnet34(DatasetKind::Cifar10)),
                "resnet34-imagenet" => Ok(pte_core::nn::resnet34(DatasetKind::ImageNet)),
                "resnext29-2x64d" => Ok(pte_core::nn::resnext29_2x64d()),
                "densenet161-cifar10" => Ok(pte_core::nn::densenet161(DatasetKind::Cifar10)),
                other => Err(CodecError::new(format!("unknown network preset `{other}`"))),
            },
            NetworkSpec::Custom { name, dataset, classifier_in, base_error, convs } => {
                let dataset = parse_dataset(dataset)?;
                if convs.is_empty() {
                    return Err(CodecError::new("custom network has no layers"));
                }
                if convs.len() > 4096 {
                    return Err(CodecError::new("custom network has too many layers"));
                }
                if !(0.0..=100.0).contains(base_error) {
                    return Err(CodecError::new("base_error must be in [0, 100]"));
                }
                if *classifier_in == 0 || *classifier_in > 1 << 24 {
                    return Err(CodecError::new("classifier_in out of range"));
                }
                let layers: Vec<ConvLayer> =
                    convs.iter().map(LayerSpec::resolve).collect::<CodecResult<_>>()?;
                Ok(Network::new(
                    name.clone(),
                    dataset,
                    layers,
                    *classifier_in as usize,
                    *base_error,
                ))
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            NetworkSpec::Preset(name) => Json::obj(vec![("preset", Json::Str(name.clone()))]),
            NetworkSpec::Custom { name, dataset, classifier_in, base_error, convs } => {
                Json::obj(vec![(
                    "custom",
                    Json::obj(vec![
                        ("name", Json::Str(name.clone())),
                        ("dataset", Json::Str(dataset.clone())),
                        ("classifier_in", Json::Int(*classifier_in as i64)),
                        ("base_error", Json::Float(*base_error)),
                        ("convs", Json::Arr(convs.iter().map(LayerSpec::to_json).collect())),
                    ]),
                )])
            }
        }
    }

    fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "network")?;
        let spec = if fields.has("preset") {
            NetworkSpec::Preset(fields.string("preset")?)
        } else {
            let custom = fields.child("custom")?;
            let mut inner = Fields::new(&custom, "network.custom")?;
            let spec = NetworkSpec::Custom {
                name: inner.string("name")?,
                dataset: inner.string("dataset")?,
                classifier_in: inner.uint("classifier_in")?,
                base_error: inner.float("base_error")?,
                convs: inner
                    .array("convs")?
                    .iter()
                    .map(LayerSpec::from_json)
                    .collect::<CodecResult<_>>()?,
            };
            inner.finish()?;
            spec
        };
        fields.finish()?;
        Ok(spec)
    }
}

/// A complete search request: what to optimize, where, and with what budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Network to optimize.
    pub network: NetworkSpec,
    /// Target platform.
    pub platform: PlatformId,
    /// Search strategy.
    pub strategy: Strategy,
    /// Random sequences sampled per layer class (unified strategy).
    pub random_per_layer: u64,
    /// Autotuner trials per candidate.
    pub trials: u64,
    /// Autotuner / probe seed.
    pub tune_seed: u64,
    /// Per-layer-class Fisher tolerance.
    pub class_tolerance: f64,
    /// Whole-network Fisher tolerance.
    pub network_tolerance: f64,
    /// Master seed for candidate sampling.
    pub seed: u64,
}

impl SearchRequest {
    /// A quick-budget unified request for `network` on `platform` — the
    /// defaults the bins and tests build on.
    pub fn quick(network: NetworkSpec, platform: PlatformId) -> Self {
        SearchRequest {
            network,
            platform,
            strategy: Strategy::Unified,
            random_per_layer: 8,
            trials: 16,
            tune_seed: 0,
            class_tolerance: 0.35,
            network_tolerance: 0.15,
            seed: 0xA5F1,
        }
    }

    /// The unified-search options this request asks for.
    pub fn unified_options(&self) -> UnifiedOptions {
        UnifiedOptions {
            random_per_layer: self.random_per_layer as usize,
            tune: self.tune_options(),
            class_legality: FisherLegality { tolerance: self.class_tolerance },
            network_legality: FisherLegality { tolerance: self.network_tolerance },
            seed: self.seed,
        }
    }

    /// The evolutionary-search options this request asks for. The wire
    /// schema is unchanged: `random_per_layer` doubles as the per-class
    /// buffer-evaluation budget, so `unified` and `evolve` requests with the
    /// same fields spend the same budget.
    pub fn evolve_options(&self) -> EvolveOptions {
        EvolveOptions {
            tune: self.tune_options(),
            class_legality: FisherLegality { tolerance: self.class_tolerance },
            network_legality: FisherLegality { tolerance: self.network_tolerance },
            seed: self.seed,
            ..EvolveOptions::with_budget(self.random_per_layer as usize)
        }
    }

    /// The search driver strategy, with its options, this request asks for.
    pub fn search_strategy(&self) -> pte_core::search::Strategy {
        use pte_core::search::Strategy as Search;
        match self.strategy {
            Strategy::Baseline => Search::Baseline(self.tune_options()),
            Strategy::Unified => Search::Unified(self.unified_options()),
            Strategy::Evolve => Search::Evolve(self.evolve_options()),
        }
    }

    /// The tuner options this request asks for.
    pub fn tune_options(&self) -> TuneOptions {
        TuneOptions { trials: self.trials as usize, seed: self.tune_seed }
    }

    /// Validates request-level bounds (search budgets, tolerances).
    ///
    /// # Errors
    /// Rejects budgets that would let one request monopolise the daemon and
    /// tolerances outside `[0, 1)`.
    pub fn validate(&self) -> CodecResult<()> {
        if self.random_per_layer > 4096 {
            return Err(CodecError::new("random_per_layer above the 4096 budget cap"));
        }
        if self.trials == 0 || self.trials > 4096 {
            return Err(CodecError::new("trials must be in [1, 4096]"));
        }
        for (name, v) in [
            ("class_tolerance", self.class_tolerance),
            ("network_tolerance", self.network_tolerance),
        ] {
            if !(0.0..1.0).contains(&v) {
                return Err(CodecError::new(format!("{name} must be in [0, 1)")));
            }
        }
        Ok(())
    }

    /// Encodes the request to its canonical bytes (fixed field order).
    ///
    /// # Errors
    /// Non-finite tolerances (rejected by [`SearchRequest::validate`] too).
    pub fn encode(&self) -> JsonResult<String> {
        self.to_json().write()
    }

    /// The request's JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("v", Json::Int(SCHEMA_VERSION)),
            ("network", self.network.to_json()),
            ("platform", Json::Str(self.platform.as_str().to_string())),
            ("strategy", Json::Str(self.strategy.as_str().to_string())),
            ("random_per_layer", Json::Int(self.random_per_layer as i64)),
            ("trials", Json::Int(self.trials as i64)),
            ("tune_seed", Json::Int(self.tune_seed as i64)),
            ("class_tolerance", Json::Float(self.class_tolerance)),
            ("network_tolerance", Json::Float(self.network_tolerance)),
            ("seed", Json::Int(self.seed as i64)),
        ])
    }

    /// Decodes and validates a request document (strict: unknown fields,
    /// wrong versions, and invalid specs are errors).
    ///
    /// # Errors
    /// Any schema violation, with the offending field named.
    pub fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "request")?;
        let version = fields.uint("v")? as i64;
        if version != SCHEMA_VERSION {
            return Err(CodecError::new(format!("unsupported schema version {version}")));
        }
        let network = NetworkSpec::from_json(&fields.child("network")?)?;
        let request = SearchRequest {
            network,
            platform: PlatformId::parse(&fields.string("platform")?)?,
            strategy: Strategy::parse(&fields.string("strategy")?)?,
            random_per_layer: fields.uint("random_per_layer")?,
            trials: fields.uint("trials")?,
            tune_seed: fields.uint("tune_seed")?,
            class_tolerance: fields.float("class_tolerance")?,
            network_tolerance: fields.float("network_tolerance")?,
            seed: fields.uint("seed")?,
        };
        fields.finish()?;
        request.validate()?;
        Ok(request)
    }

    /// Parses a request from text and returns it with its canonical bytes
    /// and content-hash key: textually different but semantically identical
    /// requests normalise to the same `(canonical, key)`.
    ///
    /// # Errors
    /// Propagates JSON and schema errors.
    pub fn parse_canonical(text: &str) -> CodecResult<(SearchRequest, String, String)> {
        let request = SearchRequest::from_json(&Json::parse(text)?)?;
        let (canonical, hash) = request.canonical_key()?;
        Ok((request, canonical, format!("{hash:016x}")))
    }

    /// The request's canonical bytes and their FNV-1a 64 content hash: the
    /// key a plan is cached under by the daemons and routed under by the
    /// router, whatever wire format carried the request (the canonical
    /// bytes are independent of field order, whitespace and codec).
    ///
    /// # Errors
    /// As [`SearchRequest::encode`].
    pub fn canonical_key(&self) -> CodecResult<(String, u64)> {
        let canonical = self.encode()?;
        let hash = fnv1a64(canonical.as_bytes());
        Ok((canonical, hash))
    }
}

/// The canonical content-hash key of a request's canonical bytes (16 hex
/// digits of FNV-1a 64).
pub fn request_key(canonical: &str) -> String {
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

/// Validates a claimed request key against canonical request bytes: the key
/// must be well-formed (16 lowercase hex digits) and match the content
/// hash. The client library runs this on every reply, so a daemon answering
/// under the wrong key (or a corrupted envelope) is caught at the edge.
///
/// # Errors
/// Malformed or mismatched keys.
pub fn check_key(canonical: &str, claimed: &str) -> CodecResult<()> {
    if claimed.len() != 16
        || !claimed.chars().all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
    {
        return Err(CodecError::new(format!("malformed request key `{claimed}`")));
    }
    let expected = request_key(canonical);
    if claimed != expected {
        return Err(CodecError::new(format!(
            "request key mismatch: claimed {claimed}, content hashes to {expected}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Plan payloads
// ---------------------------------------------------------------------------

/// Mirror of [`SearchStats`] with a stable wire schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsDoc {
    /// Candidate sequences attempted.
    pub attempted: u64,
    /// Structurally invalid sequences.
    pub structurally_invalid: u64,
    /// Candidates dropped by the cost gate.
    pub cost_rejected: u64,
    /// Candidates rejected by the Fisher check.
    pub fisher_rejected: u64,
    /// Candidates that reached autotuning.
    pub survivors: u64,
    /// Survivors that beat the incumbent.
    pub improvements: u64,
}

impl StatsDoc {
    /// Captures a [`SearchStats`].
    pub fn from_stats(stats: &SearchStats) -> Self {
        StatsDoc {
            attempted: stats.attempted as u64,
            structurally_invalid: stats.structurally_invalid as u64,
            cost_rejected: stats.cost_rejected as u64,
            fisher_rejected: stats.fisher_rejected as u64,
            survivors: stats.survivors as u64,
            improvements: stats.improvements as u64,
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("attempted", Json::Int(self.attempted as i64)),
            ("structurally_invalid", Json::Int(self.structurally_invalid as i64)),
            ("cost_rejected", Json::Int(self.cost_rejected as i64)),
            ("fisher_rejected", Json::Int(self.fisher_rejected as i64)),
            ("survivors", Json::Int(self.survivors as i64)),
            ("improvements", Json::Int(self.improvements as i64)),
        ])
    }

    fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "stats")?;
        let stats = StatsDoc {
            attempted: fields.uint("attempted")?,
            structurally_invalid: fields.uint("structurally_invalid")?,
            cost_rejected: fields.uint("cost_rejected")?,
            fisher_rejected: fields.uint("fisher_rejected")?,
            survivors: fields.uint("survivors")?,
            improvements: fields.uint("improvements")?,
        };
        fields.finish()?;
        Ok(stats)
    }
}

/// One layer class's chosen implementation, serialized: the layer identity,
/// the per-schedule transformation step sequences (the compact
/// [`TransformStep`] text grammar), and the tuned metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlanDoc {
    /// The original layer (first instance of its class).
    pub layer: LayerSpec,
    /// Instances of this class in the network.
    pub multiplicity: u64,
    /// Tuned per-instance latency (ms).
    pub latency_ms: f64,
    /// Per-instance Fisher Potential.
    pub fisher: f64,
    /// Per-instance parameter count of the implementation.
    pub params: u64,
    /// Named sequence the choice realises, if any.
    pub named_sequence: Option<String>,
    /// Transformation steps per schedule (more than one schedule when the
    /// output domain was split).
    pub schedules: Vec<Vec<String>>,
}

impl LayerPlanDoc {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("layer", self.layer.to_json()),
            ("multiplicity", Json::Int(self.multiplicity as i64)),
            ("latency_ms", Json::Float(self.latency_ms)),
            ("fisher", Json::Float(self.fisher)),
            ("params", Json::Int(self.params as i64)),
            (
                "named_sequence",
                match &self.named_sequence {
                    Some(name) => Json::Str(name.clone()),
                    None => Json::Null,
                },
            ),
            (
                "schedules",
                Json::Arr(
                    self.schedules
                        .iter()
                        .map(|steps| {
                            Json::Arr(steps.iter().map(|s| Json::Str(s.clone())).collect())
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "layer plan")?;
        let named_sequence = match fields.take("named_sequence")? {
            Json::Null => None,
            Json::Str(s) => Some(s),
            _ => return Err(CodecError::new("named_sequence must be a string or null")),
        };
        let schedules = fields
            .array("schedules")?
            .iter()
            .map(|schedule| {
                schedule
                    .as_arr()
                    .ok_or_else(|| CodecError::new("schedule must be an array of steps"))?
                    .iter()
                    .map(|step| {
                        let text = step
                            .as_str()
                            .ok_or_else(|| CodecError::new("step must be a string"))?;
                        // Steps must replay through the TransformStep
                        // grammar; opaque strings are malformed payloads.
                        text.parse::<TransformStep>()
                            .map_err(|e| CodecError::new(e.to_string()))?;
                        Ok(text.to_string())
                    })
                    .collect::<CodecResult<Vec<String>>>()
            })
            .collect::<CodecResult<Vec<_>>>()?;
        let doc = LayerPlanDoc {
            layer: LayerSpec::from_json(&fields.child("layer")?)?,
            multiplicity: fields.uint("multiplicity")?,
            latency_ms: fields.float("latency_ms")?,
            fisher: fields.float("fisher")?,
            params: fields.uint("params")?,
            named_sequence,
            schedules,
        };
        fields.finish()?;
        Ok(doc)
    }
}

/// A serialized search result: the deterministic portion of a response,
/// cached and served as canonical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPayload {
    /// Network name.
    pub network: String,
    /// Target platform.
    pub platform: PlatformId,
    /// Strategy that produced the plan.
    pub strategy: Strategy,
    /// End-to-end latency (ms).
    pub latency_ms: f64,
    /// Total parameters (convs + classifier).
    pub params: u64,
    /// Network Fisher Potential of the plan.
    pub fisher: f64,
    /// Fisher Potential of the original network.
    pub original_fisher: f64,
    /// Search statistics.
    pub stats: StatsDoc,
    /// Per-layer-class choices.
    pub layers: Vec<LayerPlanDoc>,
}

impl PlanPayload {
    /// Serializes a finished plan. `original_fisher` is the pre-search
    /// network score (equal to the plan's own score for baseline requests).
    pub fn from_plan(
        request: &SearchRequest,
        plan: &NetworkPlan,
        stats: &SearchStats,
        original_fisher: f64,
    ) -> Self {
        let layers = plan
            .choices()
            .iter()
            .map(|choice| LayerPlanDoc {
                layer: LayerSpec::from_layer(&choice.layer),
                multiplicity: choice.multiplicity as u64,
                latency_ms: choice.latency_ms,
                fisher: choice.fisher,
                params: choice.params(),
                named_sequence: choice.named_sequence.map(str::to_string),
                schedules: choice
                    .schedules
                    .iter()
                    .map(|s| s.steps().iter().map(|step| step.to_string()).collect())
                    .collect(),
            })
            .collect();
        PlanPayload {
            network: plan.network().name().to_string(),
            platform: request.platform,
            strategy: request.strategy,
            latency_ms: plan.latency_ms(),
            params: plan.params(),
            fisher: plan.fisher(),
            original_fisher,
            stats: StatsDoc::from_stats(stats),
            layers,
        }
    }

    /// Encodes the payload to its canonical bytes.
    ///
    /// # Errors
    /// Non-finite metrics (cannot occur for real plans).
    pub fn encode(&self) -> JsonResult<String> {
        self.to_json().write()
    }

    /// The payload's JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("v", Json::Int(SCHEMA_VERSION)),
            ("network", Json::Str(self.network.clone())),
            ("platform", Json::Str(self.platform.as_str().to_string())),
            ("strategy", Json::Str(self.strategy.as_str().to_string())),
            ("latency_ms", Json::Float(self.latency_ms)),
            ("params", Json::Int(self.params as i64)),
            ("fisher", Json::Float(self.fisher)),
            ("original_fisher", Json::Float(self.original_fisher)),
            ("stats", self.stats.to_json()),
            ("layers", Json::Arr(self.layers.iter().map(LayerPlanDoc::to_json).collect())),
        ])
    }

    /// Decodes a payload document (strict, like request decoding).
    ///
    /// # Errors
    /// Any schema violation.
    pub fn from_json(value: &Json) -> CodecResult<Self> {
        let mut fields = Fields::new(value, "payload")?;
        let version = fields.uint("v")? as i64;
        if version != SCHEMA_VERSION {
            return Err(CodecError::new(format!("unsupported schema version {version}")));
        }
        let payload = PlanPayload {
            network: fields.string("network")?,
            platform: PlatformId::parse(&fields.string("platform")?)?,
            strategy: Strategy::parse(&fields.string("strategy")?)?,
            latency_ms: fields.float("latency_ms")?,
            params: fields.uint("params")?,
            fisher: fields.float("fisher")?,
            original_fisher: fields.float("original_fisher")?,
            stats: StatsDoc::from_json(&fields.child("stats")?)?,
            layers: fields
                .array("layers")?
                .iter()
                .map(LayerPlanDoc::from_json)
                .collect::<CodecResult<_>>()?,
        };
        fields.finish()?;
        Ok(payload)
    }

    /// Parses a payload from text.
    ///
    /// # Errors
    /// Propagates JSON and schema errors.
    pub fn parse(text: &str) -> CodecResult<Self> {
        PlanPayload::from_json(&Json::parse(text)?)
    }
}

/// Resolves and runs a request in-process, returning the canonical payload
/// bytes — the function the server's cache computes misses with. Cold TCP
/// responses, warm cache hits, and direct in-process searches all bottom out
/// here (or in the same search driver it calls), which is why they are
/// byte-identical.
///
/// # Errors
/// Spec resolution errors; the search itself is infallible.
pub fn execute(request: &SearchRequest) -> CodecResult<String> {
    execute_cancellable(request, &CancelToken::never())
}

/// [`execute`] under a cooperative [`CancelToken`] — the deadline path. The
/// token is threaded into the search driver's stage-boundary polls; an
/// expired deadline surfaces as [`CodecError::deadline`]. A token that never
/// fires produces bytes identical to [`execute`] (the polls are pure control
/// flow), so the determinism contract is untouched.
///
/// Baseline requests poll only on entry: compiling the baseline plan is one
/// bounded autotune pass per layer class, far below any sane deadline, and
/// keeping it atomic means a published baseline payload is never partial.
///
/// # Errors
/// Spec resolution errors, or [`CodecError::deadline`] once the token fires.
pub fn execute_cancellable(request: &SearchRequest, cancel: &CancelToken) -> CodecResult<String> {
    request.validate()?;
    let network = request.network.resolve()?;
    let platform = request.platform.resolve();
    let ctx = SearchCtx::parallel().with_cancel(cancel.clone());
    let outcome = pte_core::search::run(&network, &platform, &request.search_strategy(), &ctx)
        .map_err(|_cancelled| CodecError::deadline())?;
    let payload =
        PlanPayload::from_plan(request, &outcome.plan, &outcome.stats, outcome.original_fisher);
    Ok(payload.encode()?)
}

// ---------------------------------------------------------------------------
// Strict field reading
// ---------------------------------------------------------------------------

/// Strict object reader: every field must be consumed exactly once, and
/// [`Fields::finish`] rejects leftovers — the mechanism behind the codec's
/// unknown-field errors.
struct Fields {
    context: &'static str,
    pairs: Vec<(String, Json)>,
}

impl Fields {
    fn new(value: &Json, context: &'static str) -> CodecResult<Self> {
        match value {
            Json::Obj(pairs) => Ok(Fields { context, pairs: pairs.clone() }),
            _ => Err(CodecError::new(format!("{context}: expected an object"))),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn take(&mut self, key: &str) -> CodecResult<Json> {
        match self.pairs.iter().position(|(k, _)| k == key) {
            Some(ix) => Ok(self.pairs.remove(ix).1),
            None => Err(CodecError::new(format!("{}: missing field `{key}`", self.context))),
        }
    }

    fn string(&mut self, key: &str) -> CodecResult<String> {
        match self.take(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(self.type_err(key, "a string")),
        }
    }

    fn uint(&mut self, key: &str) -> CodecResult<u64> {
        match self.take(key)? {
            Json::Int(v) if v >= 0 => Ok(v as u64),
            _ => Err(self.type_err(key, "a non-negative integer")),
        }
    }

    fn float(&mut self, key: &str) -> CodecResult<f64> {
        let value = self.take(key)?;
        value.as_f64().ok_or_else(|| self.type_err(key, "a number"))
    }

    fn bool(&mut self, key: &str) -> CodecResult<bool> {
        self.take(key)?.as_bool().ok_or_else(|| self.type_err(key, "a bool"))
    }

    fn child(&mut self, key: &str) -> CodecResult<Json> {
        let value = self.take(key)?;
        match value {
            Json::Obj(_) => Ok(value),
            _ => Err(self.type_err(key, "an object")),
        }
    }

    fn array(&mut self, key: &str) -> CodecResult<Vec<Json>> {
        match self.take(key)? {
            Json::Arr(items) => Ok(items),
            _ => Err(self.type_err(key, "an array")),
        }
    }

    fn finish(self) -> CodecResult<()> {
        if let Some((key, _)) = self.pairs.first() {
            return Err(CodecError::new(format!("{}: unknown field `{key}`", self.context)));
        }
        Ok(())
    }

    fn type_err(&self, key: &str, want: &str) -> CodecError {
        CodecError::new(format!("{}: field `{key}` must be {want}", self.context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_custom() -> NetworkSpec {
        NetworkSpec::Custom {
            name: "tiny".into(),
            dataset: "cifar10".into(),
            classifier_in: 16,
            base_error: 7.5,
            convs: vec![
                LayerSpec {
                    name: "stem".into(),
                    c_in: 3,
                    c_out: 16,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    h: 8,
                    w: 8,
                    mutable: false,
                },
                LayerSpec {
                    name: "body".into(),
                    c_in: 16,
                    c_out: 16,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    groups: 1,
                    h: 8,
                    w: 8,
                    mutable: true,
                },
            ],
        }
    }

    #[test]
    fn request_canonicalises_field_order_and_whitespace() {
        let request = SearchRequest::quick(NetworkSpec::Preset("resnet18-cifar10".into()), {
            PlatformId::Cpu
        });
        let canonical = request.encode().unwrap();
        // Shuffle the field order and add whitespace: same canonical bytes,
        // same key.
        let shuffled = canonical.replacen("{\"v\":1,\"network\"", "{ \"network\"", 1).replacen(
            "\"platform\":\"cpu\"",
            "\"platform\" : \"cpu\", \"v\": 1",
            1,
        );
        let (decoded, renormalised, key) = SearchRequest::parse_canonical(&shuffled).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(renormalised, canonical);
        assert_eq!(key, request_key(&canonical));
    }

    #[test]
    fn custom_networks_resolve() {
        let net = tiny_custom().resolve().unwrap();
        assert_eq!(net.convs().len(), 2);
        assert_eq!(net.name(), "tiny");
        assert_eq!(net.classifier_in(), 16);
    }

    #[test]
    fn invalid_layers_are_rejected_not_panicked() {
        let mut bad_groups = tiny_custom();
        if let NetworkSpec::Custom { convs, .. } = &mut bad_groups {
            convs[1].groups = 3; // does not divide 16
        }
        assert!(bad_groups.resolve().is_err());

        let mut zero_channels = tiny_custom();
        if let NetworkSpec::Custom { convs, .. } = &mut zero_channels {
            convs[0].c_in = 0;
        }
        assert!(zero_channels.resolve().is_err());

        let mut huge_kernel = tiny_custom();
        if let NetworkSpec::Custom { convs, .. } = &mut huge_kernel {
            convs[0].kernel = 64; // larger than padded 8x8 input
        }
        assert!(huge_kernel.resolve().is_err());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let canonical = request.encode().unwrap();
        let with_extra = canonical.replacen("{\"v\":1", "{\"v\":1,\"bogus\":true", 1);
        let err = SearchRequest::parse_canonical(&with_extra).unwrap_err();
        assert!(err.message.contains("unknown field `bogus`"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let canonical = request.encode().unwrap();
        let v2 = canonical.replacen("\"v\":1", "\"v\":2", 1);
        assert!(SearchRequest::parse_canonical(&v2).is_err());
    }

    #[test]
    fn all_presets_resolve() {
        for preset in PRESETS {
            NetworkSpec::Preset(preset.to_string())
                .resolve()
                .unwrap_or_else(|e| panic!("preset {preset}: {e}"));
        }
        assert!(NetworkSpec::Preset("vgg16".into()).resolve().is_err());
    }

    #[test]
    fn budget_caps_are_enforced() {
        let mut request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        request.trials = 0;
        assert!(request.validate().is_err());
        request.trials = 16;
        request.random_per_layer = 1 << 20;
        assert!(request.validate().is_err());
        request.random_per_layer = 8;
        request.class_tolerance = 1.5;
        assert!(request.validate().is_err());
    }

    #[test]
    fn payload_round_trips_for_a_real_search() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let encoded = execute(&request).unwrap();
        let payload = PlanPayload::parse(&encoded).unwrap();
        assert_eq!(payload.network, "tiny");
        assert_eq!(payload.layers.len(), 2);
        // Byte-stable re-encoding: the codec's core contract.
        assert_eq!(payload.encode().unwrap(), encoded);
        // Steps replay through the TransformStep grammar.
        for layer in &payload.layers {
            for schedule in &layer.schedules {
                for step in schedule {
                    step.parse::<TransformStep>().unwrap();
                }
            }
        }
    }

    #[test]
    fn uncancelled_execute_is_byte_identical_to_plain_execute() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let plain = execute(&request).unwrap();
        let with_token = execute_cancellable(&request, &CancelToken::never()).unwrap();
        assert_eq!(plain, with_token);
    }

    #[test]
    fn fired_token_surfaces_as_deadline_error() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let token = CancelToken::new();
        token.cancel();
        let err = execute_cancellable(&request, &token).unwrap_err();
        assert_eq!(err.class, ErrorClass::Deadline);
        assert_eq!(err.message, "deadline");
        assert!(err.retryable());
        // Validation failures still win over the deadline (and are final).
        let mut bad = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        bad.trials = 0;
        let err = execute_cancellable(&bad, &token).unwrap_err();
        assert_eq!(err.class, ErrorClass::Invalid);
        assert!(!err.retryable());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        let request = SearchRequest::quick(tiny_custom(), PlatformId::Cpu);
        let encoded = execute(&request).unwrap();
        // Truncation.
        assert!(PlanPayload::parse(&encoded[..encoded.len() / 2]).is_err());
        // A step that is not in the TransformStep grammar.
        let bad_step =
            encoded.replacen("\"schedules\":[", "\"schedules\":[[\"frobnicate(co)\"],", 1);
        if bad_step != encoded {
            assert!(PlanPayload::parse(&bad_step).is_err());
        }
        // Unknown field.
        let extra = encoded.replacen("{\"v\":1", "{\"v\":1,\"extra\":0", 1);
        assert!(PlanPayload::parse(&extra).is_err());
    }
}
