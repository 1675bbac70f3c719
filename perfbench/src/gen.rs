//! Workloads and their seeded request generators.
//!
//! Every request a run sends is a pure function of `(workload, seed, client,
//! index)`, so the same seed replays the same traffic. The daemons only ever
//! see the generated requests, never the seed.

use pte_serve::codec::{NetworkSpec, PlatformId, SearchRequest, Strategy};
use pte_serve::codec_bin::{self, kind};
use pte_serve::fault::SplitMix64;
use pte_serve::json::fnv1a64;
use pte_serve::workload::bench_request;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One JSON client, every request a distinct preset search: plan cache
    /// and probe memo both miss.
    ColdSearch,
    /// One JSON and one binary client over a prefilled hot set of preset
    /// plans: every request is a plan-cache hit.
    WarmHits,
    /// One JSON and one binary client through `pte-route` to two daemons
    /// with plan logs: ~9 in 10 requests repeat a hot key, the rest are
    /// fresh custom-net keys sharing one `tune_seed`.
    RoutedMixed,
}

pub const WORKLOADS: [Workload; 3] =
    [Workload::ColdSearch, Workload::WarmHits, Workload::RoutedMixed];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSearch => "cold_search",
            Workload::WarmHits => "warm_hits",
            Workload::RoutedMixed => "routed_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, in order: client 0 speaks JSON, client 1 binary.
    pub fn clients(self) -> usize {
        match self {
            Workload::ColdSearch => 1,
            Workload::WarmHits | Workload::RoutedMixed => 2,
        }
    }

    /// Daemons behind the entry point (routed: behind `pte-route`).
    pub fn daemons(self) -> usize {
        match self {
            Workload::RoutedMixed => 2,
            _ => 1,
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::RoutedMixed
    }

    /// Set-ups per measured run (`setup_s` is their median): more where a
    /// set-up is only process start-up, so the median stays steady.
    pub fn setups(self) -> usize {
        match self {
            Workload::ColdSearch => 9,
            Workload::WarmHits => 3,
            Workload::RoutedMixed => 5,
        }
    }

    /// Requests replayed in-process by the traced ledger.
    pub fn ledger_samples(self) -> usize {
        match self {
            Workload::RoutedMixed => 4,
            _ => 2,
        }
    }
}

/// The Figure 4 presets the preset workloads search.
pub const PRESETS: [&str; 3] = ["resnet18-cifar10", "resnet34-cifar10", "resnext29-2x64d"];
/// The strategies the preset workloads alternate.
pub const STRATEGIES: [Strategy; 2] = [Strategy::Unified, Strategy::Evolve];
/// Preset search budget: random sequences (or evolve buffers) per class.
const PRESET_RANDOM_PER_LAYER: u64 = 2;
/// Preset search budget: autotuner trials per candidate.
const PRESET_TRIALS: u64 = 4;
/// Seed of the fixed `warm_hits` hot set.
const WARM_HOT_SEED: u64 = 0xA5F1;
/// Hot keys of `routed_mixed`.
const ROUTED_HOT_KEYS: u64 = 16;
/// One in this many `routed_mixed` requests is a fresh key.
const ROUTED_FRESH_ONE_IN: u64 = 10;
/// The `tune_seed` every `routed_mixed` request shares. Fixed rather than
/// drawn from the run seed: all of a run's plans would otherwise share one
/// draw of the tuner, and `plan_speedup` would swing with that single draw.
const ROUTED_TUNE_SEED: u64 = 0;

/// A stream-separated value from the run seed, kept below 2^53 so it
/// survives the JSON integer codec unchanged.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let a = rng.next_u64();
    let mut rng = SplitMix64::new(a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    rng.next_u64() & ((1 << 53) - 1)
}

fn preset_request(combo: usize, seed: u64, tune_seed: u64) -> SearchRequest {
    let preset = PRESETS[combo % PRESETS.len()];
    let strategy = STRATEGIES[(combo / PRESETS.len()) % STRATEGIES.len()];
    let mut request = SearchRequest::quick(NetworkSpec::Preset(preset.into()), PlatformId::Cpu);
    request.strategy = strategy;
    request.random_per_layer = PRESET_RANDOM_PER_LAYER;
    request.trials = PRESET_TRIALS;
    request.seed = seed;
    request.tune_seed = tune_seed;
    request
}

/// The `index`-th request of the `cold_search` sequence: the preset ×
/// strategy combinations in a fixed cycle, each with its own `seed` and
/// `tune_seed`, so neither the plan cache nor the probe memo can help.
pub fn cold_request(seed: u64, index: u64) -> SearchRequest {
    let combos = (PRESETS.len() * STRATEGIES.len()) as u64;
    preset_request((index % combos) as usize, mix(seed, 1, index), mix(seed, 2, index))
}

/// The hot set a workload prefills during set-up (empty for `cold_search`).
/// The `warm_hits` hot set is the same six plans in every run (the seed
/// drives which key each request picks): six plans are too few for
/// `plan_speedup` and the prefill time to be steady across seed draws.
pub fn hot_set(workload: Workload, seed: u64) -> Vec<SearchRequest> {
    match workload {
        Workload::ColdSearch => Vec::new(),
        Workload::WarmHits => (0..PRESETS.len() * STRATEGIES.len())
            .map(|combo| {
                let draw = combo as u64;
                preset_request(combo, mix(WARM_HOT_SEED, 3, draw), mix(WARM_HOT_SEED, 4, draw))
            })
            .collect(),
        Workload::RoutedMixed => (0..ROUTED_HOT_KEYS).map(|k| custom_request(seed, 5, k)).collect(),
    }
}

/// A `serve::workload` custom-net request; all of them share one
/// `tune_seed`, so their probes hit the daemons' probe memo.
fn custom_request(seed: u64, stream: u64, index: u64) -> SearchRequest {
    let mut request = bench_request(mix(seed, stream, index));
    request.tune_seed = ROUTED_TUNE_SEED;
    request
}

/// A request ready for the wire: its content-hash key plus both encodings.
#[derive(Clone)]
pub struct Prepared {
    pub request: SearchRequest,
    pub key: u64,
    pub json_line: Vec<u8>,
    pub bin_frame: Vec<u8>,
}

impl Prepared {
    pub fn new(request: SearchRequest) -> Prepared {
        let canonical = request.encode().expect("generated requests have finite tolerances");
        let key = fnv1a64(canonical.as_bytes());
        let mut json_line = format!("{{\"op\":\"search\",\"request\":{canonical}}}").into_bytes();
        json_line.push(b'\n');
        let body = codec_bin::encode_search_request(&request, None, false);
        let bin_frame = codec_bin::frame_bytes(kind::SEARCH, &body);
        Prepared { request, key, json_line, bin_frame }
    }
}

/// One client's request stream.
pub struct Generator {
    workload: Workload,
    seed: u64,
    client: u64,
    next: u64,
    rng: SplitMix64,
    hot: Vec<Prepared>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, client: usize, hot: &[Prepared]) -> Generator {
        let client = client as u64;
        Generator {
            workload,
            seed,
            client,
            next: 0,
            rng: SplitMix64::new(mix(seed, 100 + client, 0)),
            hot: hot.to_vec(),
        }
    }

    /// The next request this client sends.
    pub fn next_request(&mut self) -> Prepared {
        let index = self.next;
        self.next += 1;
        match self.workload {
            // A single client, so the sequence index is the request index.
            Workload::ColdSearch => Prepared::new(cold_request(self.seed, index)),
            Workload::WarmHits => self.hot[self.rng.below(self.hot.len() as u64) as usize].clone(),
            Workload::RoutedMixed => {
                if self.rng.below(ROUTED_FRESH_ONE_IN) == 0 {
                    Prepared::new(custom_request(self.seed, 7 + self.client, index))
                } else {
                    self.hot[self.rng.below(self.hot.len() as u64) as usize].clone()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Vec<u8>> {
        let hot: Vec<Prepared> = hot_set(workload, seed).into_iter().map(Prepared::new).collect();
        let mut gen = Generator::new(workload, seed, client, &hot);
        (0..n).map(|_| gen.next_request().json_line).collect()
    }

    #[test]
    fn same_seed_replays_the_same_requests() {
        for workload in WORKLOADS {
            for client in 0..workload.clients() {
                assert_eq!(stream(workload, 7, client, 64), stream(workload, 7, client, 64));
            }
        }
    }

    #[test]
    fn another_seed_changes_the_requests() {
        for workload in WORKLOADS {
            assert_ne!(stream(workload, 7, 0, 16), stream(workload, 8, 0, 16));
        }
    }

    #[test]
    fn cold_requests_never_repeat_a_key_seed_or_tune_seed() {
        let requests: Vec<SearchRequest> = (0..600).map(|i| cold_request(3, i)).collect();
        let distinct = |f: &dyn Fn(&SearchRequest) -> u64| {
            requests.iter().map(f).collect::<std::collections::HashSet<_>>().len()
        };
        assert_eq!(distinct(&|r| r.seed), requests.len());
        assert_eq!(distinct(&|r| r.tune_seed), requests.len());
        assert_eq!(distinct(&|r| Prepared::new(r.clone()).key), requests.len());
    }

    #[test]
    fn routed_mix_is_about_one_fresh_key_in_ten() {
        let seed = 11;
        let hot: Vec<Prepared> =
            hot_set(Workload::RoutedMixed, seed).into_iter().map(Prepared::new).collect();
        let hot_keys: std::collections::HashSet<u64> = hot.iter().map(|p| p.key).collect();
        let mut gen = Generator::new(Workload::RoutedMixed, seed, 1, &hot);
        let fresh = (0..10_000).filter(|_| !hot_keys.contains(&gen.next_request().key)).count();
        assert!((800..1200).contains(&fresh), "{fresh} fresh keys in 10000");
        let shared =
            hot.iter().map(|p| p.request.tune_seed).collect::<std::collections::HashSet<_>>();
        assert_eq!(shared.len(), 1, "hot keys share one tune_seed");
    }

    #[test]
    fn requests_round_trip_through_both_codecs() {
        let prepared = Prepared::new(cold_request(5, 4));
        let (frame_kind, body, used) =
            codec_bin::try_extract_frame(&prepared.bin_frame).unwrap().unwrap();
        assert_eq!((frame_kind, used), (kind::SEARCH, prepared.bin_frame.len()));
        let (decoded, deadline, trace) = codec_bin::decode_search_request(&body).unwrap();
        assert_eq!(decoded, prepared.request);
        assert_eq!((deadline, trace), (None, false));
        let line = std::str::from_utf8(&prepared.json_line).unwrap();
        let doc = pte_serve::json::Json::parse(line.trim_end()).unwrap();
        let request = SearchRequest::from_json(doc.get("request").unwrap()).unwrap();
        assert_eq!(request, prepared.request);
    }
}
