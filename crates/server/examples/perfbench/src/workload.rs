//! The four workloads and the request streams they send.
//!
//! The study population is fixed: the Q&A corpus at full scale (39.5k
//! snippets, 18.6k unique Solidity originals) and the 3,233 contracts of
//! `generate_contracts` at scale 0.01 that clone checks match against.
//! The seed picks everything a workload varies: the visiting order, the
//! Type II/III mutations, the Zipf draws and the contracts the ingest
//! writer inserts. Request `i` of a stream is a pure function of the seed
//! and `i`, so concurrent clients can share one counter, the oracle can
//! rebuild any sampled request after the run, and the traced run replays
//! exactly the first requests of the measured one.

use corpus::contracts::{generate_contracts, SanctuaryConfig};
use corpus::qa::{generate_qa, QaConfig, QaCorpus, SnippetTruth};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::Write;
use std::time::Duration;

/// Seed of the fixed Q&A population (the generator's default).
pub const QA_SEED: u64 = 0x50DD;
/// Scale and seed of the fixed clone corpus: 3,233 contracts.
pub const CORPUS_SCALE: f64 = 0.01;
pub const CORPUS_SEED: u64 = 0xC0DE;
/// Scans per `/v1/batch` request on `scan_cold`.
pub const BATCH: u64 = 16;
/// Share of `qa_zipf` requests that are clone checks.
pub const CLONE_SHARE: f64 = 0.10;
/// The `ingest_mixed` writer's schedule, inserts per second.
pub const INSERT_RATE: u64 = 200;
/// Inserted documents get ids from here up, clear of the corpus ids.
pub const INSERT_ID_BASE: u64 = 1_000_000;
/// Contracts in the paper's full deployment corpus.
pub const FULL_CONTRACTS: f64 = 323_328.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    CloneCold,
    QaZipf,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ScanCold,
        Workload::CloneCold,
        Workload::QaZipf,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::CloneCold => "clone_cold",
            Workload::QaZipf => "qa_zipf",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Unmeasured load before the window: long enough on the Zipf
    /// workloads for the 2,048-entry caches to reach steady state.
    pub fn warmup(self) -> Duration {
        match self {
            Workload::ScanCold | Workload::CloneCold => Duration::from_secs(3),
            Workload::QaZipf | Workload::IngestMixed => Duration::from_secs(5),
        }
    }

    /// Closed-loop reader threads (`ingest_mixed` adds the open-loop
    /// writer as the second client).
    pub fn readers(self) -> usize {
        match self {
            Workload::IngestMixed => 1,
            _ => 2,
        }
    }

    /// Whether the daemon serves the clone corpus.
    pub fn has_corpus(self) -> bool {
        self != Workload::ScanCold
    }

    /// Whether popular requests repeat, so the caches must fill before
    /// hit ratios are read.
    pub fn repeats(self) -> bool {
        matches!(self, Workload::QaZipf | Workload::IngestMixed)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Scan,
    Clone,
}

/// One analysis item of a request, as the daemon should decode it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Item {
    pub kind: Kind,
    pub source: String,
}

/// Where a request body goes and how many analysis items it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    pub path: &'static str,
    pub items: u32,
}

/// A contract the `ingest_mixed` writer inserts.
pub struct Insert {
    pub id: u64,
    pub source: String,
    escaped: String,
}

impl Insert {
    /// Write the `/v1/index/insert` body.
    pub fn request(&self, body: &mut Vec<u8>) {
        body.clear();
        write!(
            body,
            "{{\"v\":1,\"id\":{},\"source\":\"{}\"}}",
            self.id, self.escaped
        )
        .expect("writing to a Vec cannot fail");
    }
}

/// Everything a workload sends, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    seed: u64,
    /// The sources requests draw from, raw and JSON-escaped.
    pool: Vec<String>,
    escaped: Vec<String>,
    /// Cyclic workloads: the seeded visiting order over `pool`.
    order: Vec<usize>,
    /// Zipf workloads: cumulative popularity over `pool`, which is sorted
    /// by descending `adoption_weight`.
    cdf: Vec<f64>,
    /// The clone corpus the daemon serves, `(doc id, contract source)`.
    pub corpus: Vec<(u64, String)>,
    pub inserts: Vec<Insert>,
    /// `ingest_mixed`: one more contract, inserted after the writer stops.
    pub fence: Option<Insert>,
}

/// The fixed Q&A population.
pub fn population() -> QaCorpus {
    generate_qa(QaConfig {
        seed: QA_SEED,
        scale: 1.0,
    })
}

/// `(id, source)` of the contracts `generate_contracts` deploys at `scale`.
pub fn contracts(qa: &QaCorpus, scale: f64, seed: u64) -> Vec<(u64, String)> {
    let config = SanctuaryConfig {
        seed,
        scale,
        ..SanctuaryConfig::default()
    };
    generate_contracts(config, qa)
        .contracts
        .into_iter()
        .map(|c| (c.id, c.source))
        .collect()
}

/// Unique Solidity originals, in corpus order.
fn unique_solidity(qa: &QaCorpus) -> impl Iterator<Item = &str> {
    qa.snippets
        .iter()
        .filter(|s| {
            matches!(
                s.truth,
                SnippetTruth::Solidity {
                    duplicate_of: None,
                    ..
                }
            )
        })
        .map(|s| s.text.as_str())
}

/// All Solidity snippets, exact duplicates included, most adopted first.
fn ranked_solidity(qa: &QaCorpus) -> Vec<String> {
    let mut ranked: Vec<_> = qa.snippets.iter().filter(|s| s.is_solidity()).collect();
    ranked.sort_by(|a, b| {
        b.adoption_weight
            .total_cmp(&a.adoption_weight)
            .then(a.id.cmp(&b.id))
    });
    ranked.into_iter().map(|s| s.text.clone()).collect()
}

/// Zipf(s = 1) cumulative distribution over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    cdf.iter_mut().for_each(|c| *c /= total);
    cdf
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` that depends only on `(seed, stream, i)`.
fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    let x = mix(mix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ i);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// JSON string escaping for request bodies. The benchmark encodes its
/// own bodies so that the measuring stick does not move with the
/// service's encoder.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Inputs {
    /// Generate a workload's inputs. `seconds` sizes the insert schedule
    /// of `ingest_mixed`.
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
        Inputs::from_population(&population(), workload, seed, seconds)
    }

    /// [`Inputs::generate`] over an already generated population.
    pub fn from_population(qa: &QaCorpus, workload: Workload, seed: u64, seconds: u64) -> Inputs {
        let corpus = if workload.has_corpus() {
            contracts(qa, CORPUS_SCALE, CORPUS_SEED)
        } else {
            Vec::new()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (pool, order, cdf) = match workload {
            Workload::ScanCold | Workload::CloneCold => {
                // One seeded mutation pass; the per-request `// r<i>`
                // suffix keeps every later pass byte-unique.
                let mutate = if workload == Workload::ScanCold {
                    corpus::mutate::type_ii
                } else {
                    corpus::mutate::type_iii
                };
                let pool: Vec<String> = unique_solidity(qa)
                    .map(|text| mutate(text, &mut rng))
                    .collect();
                let mut order: Vec<usize> = (0..pool.len()).collect();
                order.shuffle(&mut rng);
                (pool, order, Vec::new())
            }
            Workload::QaZipf | Workload::IngestMixed => {
                let pool = ranked_solidity(qa);
                let cdf = zipf_cdf(pool.len());
                (pool, Vec::new(), cdf)
            }
        };
        let mut inserts: Vec<Insert> = if workload == Workload::IngestMixed {
            // The schedule, plus one more contract for the fence.
            let wanted = INSERT_RATE * seconds + 1;
            let scale = (wanted as f64 + 1.0) / FULL_CONTRACTS;
            contracts(qa, scale, seed.wrapping_add(1))
                .into_iter()
                .take(wanted as usize)
                .enumerate()
                .map(|(k, (_, source))| Insert {
                    id: INSERT_ID_BASE + k as u64,
                    escaped: escape(&source),
                    source,
                })
                .collect()
        } else {
            Vec::new()
        };
        let fence = inserts.pop();
        let escaped = pool.iter().map(|s| escape(s)).collect();
        Inputs {
            workload,
            seed,
            pool,
            escaped,
            order,
            cdf,
            corpus,
            inserts,
            fence,
        }
    }

    /// The corpus as the `(id, source)` pairs `CorpusBuilder` takes.
    pub fn corpus_docs(&self) -> impl Iterator<Item = (u64, &str)> {
        self.corpus
            .iter()
            .map(|(id, source)| (*id, source.as_str()))
    }

    fn zipf(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.pool.len() - 1)
    }

    /// Item `j` of the stream: its kind, pool index and unique suffix.
    /// `j` counts scans on `scan_cold` and requests elsewhere.
    fn item_at(&self, j: u64) -> (Kind, usize, Option<u64>) {
        match self.workload {
            Workload::ScanCold | Workload::CloneCold => {
                let kind = if self.batched() {
                    Kind::Scan
                } else {
                    Kind::Clone
                };
                let k = self.order[(j % self.order.len() as u64) as usize];
                (kind, k, Some(j))
            }
            Workload::QaZipf => {
                let kind = if unit(self.seed, 1, j) < CLONE_SHARE {
                    Kind::Clone
                } else {
                    Kind::Scan
                };
                (kind, self.zipf(unit(self.seed, 2, j)), None)
            }
            Workload::IngestMixed => (Kind::Clone, self.zipf(unit(self.seed, 2, j)), None),
        }
    }

    fn item_indices(&self, i: u64) -> Vec<u64> {
        if self.batched() {
            (i * BATCH..(i + 1) * BATCH).collect()
        } else {
            vec![i]
        }
    }

    /// Write request `i`'s body into `body` and say where it goes.
    pub fn request(&self, i: u64, body: &mut Vec<u8>) -> Call {
        body.clear();
        let indices = self.item_indices(i);
        let batch = self.batched();
        if batch {
            body.push(b'[');
        }
        let mut path = "/v1/batch";
        for (n, j) in indices.iter().enumerate() {
            if n > 0 {
                body.push(b',');
            }
            let (kind, k, suffix) = self.item_at(*j);
            let name = match kind {
                Kind::Scan => "scan",
                Kind::Clone => "clone_check",
            };
            body.extend_from_slice(b"{\"v\":1,\"kind\":\"");
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(b"\",\"source\":\"");
            body.extend_from_slice(self.escaped[k].as_bytes());
            if let Some(j) = suffix {
                write!(body, "\\n// r{j}").expect("writing to a Vec cannot fail");
            }
            body.extend_from_slice(b"\"}");
            if !batch {
                path = match kind {
                    Kind::Scan => "/v1/scan",
                    Kind::Clone => "/v1/clone-check",
                };
            }
        }
        if batch {
            body.push(b']');
        }
        Call {
            path,
            items: indices.len() as u32,
        }
    }

    /// The items of request `i`, as the daemon should decode its body.
    pub fn items(&self, i: u64) -> Vec<Item> {
        self.item_indices(i)
            .into_iter()
            .map(|j| {
                let (kind, k, suffix) = self.item_at(j);
                let mut source = self.pool[k].clone();
                if let Some(j) = suffix {
                    source.push_str(&format!("\n// r{j}"));
                }
                Item { kind, source }
            })
            .collect()
    }

    /// Whether requests are `/v1/batch` arrays.
    pub fn batched(&self) -> bool {
        self.workload == Workload::ScanCold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::api::{batch_from_json, AnalysisRequest};
    use std::collections::HashSet;
    use std::sync::OnceLock;

    fn qa() -> &'static QaCorpus {
        static QA: OnceLock<QaCorpus> = OnceLock::new();
        QA.get_or_init(population)
    }

    fn inputs(workload: Workload, seed: u64) -> &'static Inputs {
        static CACHE: OnceLock<Vec<Inputs>> = OnceLock::new();
        let all = CACHE.get_or_init(|| {
            [1, 2]
                .into_iter()
                .flat_map(|seed| Workload::ALL.map(|w| Inputs::from_population(qa(), w, seed, 2)))
                .collect()
        });
        all.iter()
            .find(|i| i.workload == workload && i.seed == seed)
            .expect("generated above")
    }

    fn stream(inputs: &Inputs, n: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let mut body = Vec::new();
        for i in 0..n {
            let call = inputs.request(i, &mut body);
            out.extend_from_slice(call.path.as_bytes());
            out.extend_from_slice(&body);
        }
        for insert in inputs.inserts.iter().chain(&inputs.fence) {
            insert.request(&mut body);
            out.extend_from_slice(&body);
        }
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_streams() {
        for workload in Workload::ALL {
            let again = Inputs::from_population(qa(), workload, 1, 2);
            assert_eq!(
                stream(inputs(workload, 1), 2000),
                stream(&again, 2000),
                "{workload:?}"
            );
            assert_ne!(
                stream(inputs(workload, 1), 2000),
                stream(inputs(workload, 2), 2000)
            );
        }
    }

    #[test]
    fn cold_workloads_never_repeat_an_item() {
        for workload in [Workload::ScanCold, Workload::CloneCold] {
            let inputs = inputs(workload, 1);
            let requests = 3 * inputs.pool.len() as u64 / inputs.item_indices(0).len() as u64;
            let mut seen = HashSet::new();
            for i in 0..requests {
                for item in inputs.items(i) {
                    assert!(
                        seen.insert(item.source),
                        "{workload:?} repeated an item at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn bodies_decode_to_the_listed_items() {
        for workload in Workload::ALL {
            let inputs = inputs(workload, 1);
            let mut body = Vec::new();
            for i in 0..200 {
                let call = inputs.request(i, &mut body);
                let text = std::str::from_utf8(&body).unwrap();
                let decoded: Vec<AnalysisRequest> = if inputs.batched() {
                    batch_from_json(text)
                        .unwrap()
                        .into_iter()
                        .map(Result::unwrap)
                        .collect()
                } else {
                    vec![AnalysisRequest::from_json(text).unwrap()]
                };
                let expected: Vec<AnalysisRequest> = inputs
                    .items(i)
                    .into_iter()
                    .map(|item| match item.kind {
                        Kind::Scan => AnalysisRequest::scan(item.source),
                        Kind::Clone => AnalysisRequest::clone_check(item.source),
                    })
                    .collect();
                assert_eq!(decoded, expected, "{workload:?} request {i}");
                assert_eq!(call.items as usize, expected.len());
            }
        }
        let ingest = inputs(Workload::IngestMixed, 1);
        assert_eq!(ingest.inserts.len() as u64, 2 * INSERT_RATE);
        assert!(ingest
            .fence
            .as_ref()
            .is_some_and(|f| f.id == INSERT_ID_BASE + 2 * INSERT_RATE));
        let mut body = Vec::new();
        ingest.inserts[3].request(&mut body);
        let id = ingest.inserts[3].id;
        let value = telemetry::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(value.get("id").and_then(|v| v.as_f64()), Some(id as f64));
        assert_eq!(
            value.get("source").and_then(|v| v.as_str()),
            Some(ingest.inserts[3].source.as_str())
        );
    }

    #[test]
    fn zipf_ranks_follow_adoption_weight() {
        let qa = qa();
        let inputs = inputs(Workload::QaZipf, 1);
        let solidity = || qa.snippets.iter().filter(|s| s.is_solidity());
        assert_eq!(inputs.pool.len(), solidity().count());
        let most = solidity().max_by(|a, b| a.adoption_weight.total_cmp(&b.adoption_weight));
        let least = solidity().min_by(|a, b| a.adoption_weight.total_cmp(&b.adoption_weight));
        assert_eq!(inputs.pool[0], most.unwrap().text);
        assert_eq!(inputs.pool[inputs.pool.len() - 1], least.unwrap().text);
        let mut counts = vec![0u32; inputs.pool.len()];
        for i in 0..200_000 {
            let (_, k, _) = inputs.item_at(i);
            counts[k] += 1;
        }
        // Zipf(1): rank 1 is drawn about twice as often as rank 2 and
        // ten times as often as rank 10.
        let ratio = |a: usize, b: usize| counts[a] as f64 / counts[b] as f64;
        assert!((1.7..2.3).contains(&ratio(0, 1)), "{}", ratio(0, 1));
        assert!((7.0..13.0).contains(&ratio(0, 9)), "{}", ratio(0, 9));
        let head: u32 = counts[..100].iter().sum();
        let tail: u32 = counts[counts.len() - 100..].iter().sum();
        assert!(head > 50 * tail.max(1));
        let clones = (0..20_000)
            .filter(|i| inputs.item_at(*i).0 == Kind::Clone)
            .count();
        assert!((1_600..2_400).contains(&clones), "{clones}");
    }
}
