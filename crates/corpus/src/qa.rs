//! Synthetic Q&A website corpus (§6.1 of the paper).
//!
//! Generates posts and code snippets with the composition the paper
//! measured on Stack Overflow and the Ethereum Stack Exchange (Table 4):
//! a mix of genuine Solidity (contract-, function- and statement-level),
//! pseudo-code that mentions Solidity keywords but does not parse,
//! JavaScript (web3 client code), and prose — plus exact-duplicate
//! snippets, heavy-tailed view counts and posting timestamps.
//!
//! Everything is deterministic in the seed; the `scale` factor shrinks the
//! full-scale population (25,653 posts / 39,434 snippets) for tests and
//! grows it back for the full study run.

use crate::templates::{benign_templates, vulnerable_templates, Level, Template};
use ccc::QueryId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Q&A site of a post (Table 4 splits counts by site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Site {
    /// stackoverflow.com
    StackOverflow,
    /// ethereum.stackexchange.com
    EthereumStackExchange,
}

impl Site {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Site::StackOverflow => "Stack Overflow",
            Site::EthereumStackExchange => "Ethereum Stack Exchange",
        }
    }
}

/// Ground truth of a generated snippet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SnippetTruth {
    /// Genuine Solidity from a template.
    Solidity {
        /// Template family (clone ground truth).
        family: String,
        /// Seeded vulnerability, if the template is vulnerable.
        vuln: Option<QueryId>,
        /// Exact duplicate of an earlier snippet id, if deduplication
        /// should collapse it.
        duplicate_of: Option<u64>,
    },
    /// Solidity-keyword-bearing pseudo-code (passes the keyword filter,
    /// fails parsing).
    Pseudo,
    /// JavaScript / web3 client code (fails the keyword filter).
    JavaScript,
    /// Plain prose (fails the keyword filter).
    Prose,
}

/// A Q&A post.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QaPost {
    /// Post id.
    pub id: u64,
    /// Hosting site.
    pub site: Site,
    /// View count ν (heavy-tailed).
    pub views: u64,
    /// Posting day on the study timeline (0 = genesis, ~3000 = crawl date).
    pub created_day: u32,
}

/// A code snippet extracted from a post.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QaSnippet {
    /// Snippet id.
    pub id: u64,
    /// Owning post id.
    pub post: u64,
    /// Raw snippet text.
    pub text: String,
    /// Generator ground truth.
    pub truth: SnippetTruth,
    /// Latent adoption propensity: how attractive the snippet is for
    /// copy-pasting developers. Correlated with (but not determined by)
    /// the post's view count — the mechanism behind Table 5's weak
    /// Spearman correlations.
    pub adoption_weight: f64,
}

impl QaSnippet {
    /// Whether this snippet is genuine Solidity per ground truth.
    pub fn is_solidity(&self) -> bool {
        matches!(self.truth, SnippetTruth::Solidity { .. })
    }

    /// The seeded vulnerability, if any.
    pub fn seeded_vuln(&self) -> Option<QueryId> {
        match &self.truth {
            SnippetTruth::Solidity { vuln, .. } => *vuln,
            _ => None,
        }
    }
}

/// The generated corpus.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QaCorpus {
    /// All posts.
    pub posts: Vec<QaPost>,
    /// All snippets, in post order.
    pub snippets: Vec<QaSnippet>,
}

impl QaCorpus {
    /// Posts of one site.
    pub fn posts_of(&self, site: Site) -> impl Iterator<Item = &QaPost> {
        self.posts.iter().filter(move |p| p.site == site)
    }

    /// Snippets of one site.
    pub fn snippets_of(&self, site: Site) -> impl Iterator<Item = &QaSnippet> {
        let site_posts: std::collections::HashSet<u64> =
            self.posts_of(site).map(|p| p.id).collect();
        self.snippets.iter().filter(move |s| site_posts.contains(&s.post))
    }

    /// The post of a snippet.
    pub fn post_of(&self, snippet: &QaSnippet) -> &QaPost {
        &self.posts[snippet.post as usize]
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QaConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of the paper's full-scale corpus to generate (1.0 ≈
    /// 39,434 snippets).
    pub scale: f64,
}

impl Default for QaConfig {
    fn default() -> Self {
        QaConfig { seed: 0x50DD, scale: 0.05 }
    }
}

/// Paper-reported full-scale post counts (Table 4).
const FULL_POSTS_SO: f64 = 7_370.0;
const FULL_POSTS_ESE: f64 = 18_283.0;
/// Snippets per post, per site (12,111/7,370 and 27,323/18,283).
const SNIPPETS_PER_POST_SO: f64 = 1.643;
const SNIPPETS_PER_POST_ESE: f64 = 1.494;

/// Timeline length in days (posts until 2023-06-30).
pub const TIMELINE_DAYS: u32 = 3_000;

/// Generate a corpus.
pub fn generate_qa(config: QaConfig) -> QaCorpus {
    static STAGE: telemetry::Stage = telemetry::Stage::new("corpus/generate_qa");
    let _stage = STAGE.enter();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut corpus = QaCorpus::default();
    let vulnerable = vulnerable_templates();
    let benign = benign_templates();

    let n_so = (FULL_POSTS_SO * config.scale).round().max(1.0) as usize;
    let n_ese = (FULL_POSTS_ESE * config.scale).round().max(1.0) as usize;

    // Parsable snippet texts seen so far, for duplicate injection.
    let mut parsable_pool: Vec<(u64, String, String, Option<QueryId>)> = Vec::new();

    for (site, n_posts, per_post) in [
        (Site::StackOverflow, n_so, SNIPPETS_PER_POST_SO),
        (Site::EthereumStackExchange, n_ese, SNIPPETS_PER_POST_ESE),
    ] {
        for _ in 0..n_posts {
            let post_id = corpus.posts.len() as u64;
            // Heavy-tailed views: log-uniform between 30 and ~300k.
            let views = 10f64.powf(rng.gen_range(1.5..5.5)) as u64;
            let created_day = rng.gen_range(0..TIMELINE_DAYS);
            corpus.posts.push(QaPost { id: post_id, site, views, created_day });

            // 1 or 2+ snippets per post, expectation = per_post.
            let n_snippets = if rng.gen_bool((per_post - 1.0).clamp(0.05, 0.95)) { 2 } else { 1 };
            for _ in 0..n_snippets {
                let id = corpus.snippets.len() as u64;
                let snippet =
                    gen_snippet(id, post_id, views, &mut rng, &vulnerable, &benign, &mut parsable_pool);
                corpus.snippets.push(snippet);
            }
        }
    }
    corpus
}

#[allow(clippy::too_many_arguments)]
fn gen_snippet(
    id: u64,
    post: u64,
    views: u64,
    rng: &mut StdRng,
    vulnerable: &[Template],
    benign: &[Template],
    parsable_pool: &mut Vec<(u64, String, String, Option<QueryId>)>,
) -> QaSnippet {
    // Adoption propensity: weakly monotone in views, noised — this is
    // what makes the Table 5 correlations low but nonzero.
    let noise = (rng.gen_range(-1.2f64..1.2)).exp();
    let adoption_weight = (views as f64).powf(0.5) * noise;

    // Content mix calibrated to the Table 4 funnel:
    //   ~20% JavaScript, ~15% prose (fail the keyword filter)
    //   ~15% pseudo-code (passes the filter, fails parsing)
    //   ~50% genuine Solidity, of which ~6% exact duplicates.
    let roll: f64 = rng.gen();
    if roll < 0.20 {
        return QaSnippet {
            id,
            post,
            text: javascript_snippet(rng),
            truth: SnippetTruth::JavaScript,
            adoption_weight,
        };
    }
    if roll < 0.348 {
        return QaSnippet {
            id,
            post,
            text: prose_snippet(rng),
            truth: SnippetTruth::Prose,
            adoption_weight,
        };
    }
    if roll < 0.498 {
        return QaSnippet {
            id,
            post,
            text: pseudo_snippet(rng),
            truth: SnippetTruth::Pseudo,
            adoption_weight,
        };
    }

    // Genuine Solidity. ~6% duplicates of an earlier snippet.
    if !parsable_pool.is_empty() && rng.gen_bool(0.061) {
        let (orig_id, text, family, vuln) =
            parsable_pool[rng.gen_range(0..parsable_pool.len())].clone();
        return QaSnippet {
            id,
            post,
            text,
            truth: SnippetTruth::Solidity {
                family,
                vuln,
                duplicate_of: Some(orig_id),
            },
            adoption_weight,
        };
    }

    // Vulnerable with the Table 7 rate (4,596 / 18,660 ≈ 24.6%).
    let template = if rng.gen_bool(0.246) {
        &vulnerable[rng.gen_range(0..vulnerable.len())]
    } else {
        &benign[rng.gen_range(0..benign.len())]
    };
    // Hierarchy-level mix (§6.1): 54.2% contract, 38% function, 7.8%
    // statements.
    let level = match rng.gen_range(0..1000) {
        0..=541 => Level::Contract,
        542..=921 => Level::Function,
        _ => Level::Statements,
    };
    let generated = template.render(rng, level);
    // Author jitter: different posters write *different code* for the same
    // problem — extra helper functions, extra statements, changed
    // constants, renamed identifiers, different formatting. This keeps
    // snippets of one family from being textual clones of each other (they
    // are merely similar), so clone matches attach to individual snippets
    // rather than whole families.
    let with_extras = add_author_extras(&generated.text, level, rng);
    let text = match rng.gen_range(0..10) {
        0..=4 => crate::mutate::type_iii(&with_extras, rng),
        5..=7 => crate::mutate::type_ii(&with_extras, rng),
        8 => crate::mutate::type_i(&with_extras, rng),
        _ => with_extras,
    };
    parsable_pool.push((
        id,
        text.clone(),
        generated.family.to_string(),
        generated.vuln,
    ));
    QaSnippet {
        id,
        post,
        text,
        truth: SnippetTruth::Solidity {
            family: generated.family.to_string(),
            vuln: generated.vuln,
            duplicate_of: None,
        },
        adoption_weight,
    }
}

/// Append 0–2 author-specific helper functions (or statements) to a
/// snippet. The helpers are self-contained, trigger no CCC query and
/// mitigate none, but change the snippet's *function composition* — the
/// structural identity clone detection keys on.
fn add_author_extras(text: &str, level: Level, rng: &mut StdRng) -> String {
    // At least one extra: no two authors post the exact same project
    // context, and single-function snippets of ubiquitous idioms would
    // otherwise "appear" in half the chain.
    let count = rng.gen_range(1..=2);
    let mut extras = Vec::new();
    for _ in 0..count {
        let magic = rng.gen_range(2..5000);
        let extra = match rng.gen_range(0..6) {
            0 => format!(
                "    function version() public returns (uint) {{\n        return {magic};\n    }}"
            ),
            1 => format!(
                "    uint window;\n\n    function configure() public {{\n        window = {magic};\n        ready = window > {};\n    }}",
                magic / 2
            ),
            2 => format!(
                "    event Trace{magic}(address who);\n\n    function trace() public {{\n        emit Trace{magic}(msg.sender);\n    }}"
            ),
            3 => format!(
                "    function threshold() public returns (uint) {{\n        if (level > {magic}) {{\n            return level;\n        }}\n        return {magic};\n    }}"
            ),
            4 => format!(
                "    uint step;\n\n    function advance() public {{\n        step = {magic};\n    }}"
            ),
            _ => format!(
                "    function whoami() public returns (address, uint) {{\n        return (msg.sender, {magic});\n    }}"
            ),
        };
        extras.push(extra);
    }
    let extras = extras.join("\n\n");
    match level {
        Level::Contract => match text.rfind('}') {
            Some(pos) => format!("{}\n{extras}\n}}", &text[..pos].trim_end()),
            None => format!("{text}\n{extras}"),
        },
        Level::Function | Level::CoreFunction => format!("{text}\n\n{extras}"),
        // Statement-level snippets get extra surrounding statements
        // instead of helper functions.
        Level::Statements => {
            let mut out = text.to_string();
            for _ in 0..count {
                let magic = rng.gen_range(2..5000);
                let line = match rng.gen_range(0..4) {
                    0 => format!("uint checkpoint = {magic};"),
                    1 => format!("round = {magic};"),
                    2 => "lastSeen = block.timestamp;".to_string(),
                    _ => format!("limit = {magic};"),
                };
                if rng.gen_bool(0.5) {
                    out = format!("{line}\n{out}");
                } else {
                    out = format!("{out}\n{line}");
                }
            }
            out
        }
    }
}

fn javascript_snippet(rng: &mut StdRng) -> String {
    let variants = [
        "const balance = await web3.eth.getBalance(account);\nconsole.log(balance);",
        "const instance = await MyContract.deployed();\nconst result = await instance.get.call();\nconsole.log(result.toNumber());",
        "web3.eth.sendTransaction({from: accounts[0], to: receiver, value: amount}, (err, hash) => {\n  if (err) console.error(err);\n});",
        "const signer = provider.getSigner();\nconst tx = await wallet.connect(signer).deposit({value: ethers.utils.parseEther(\"1.0\")});\nawait tx.wait();",
        "module.exports = function(deployer) {\n  deployer.deploy(Bank);\n};",
        "const Web3 = require('web3');\nconst web3 = new Web3('http://localhost:8545');",
    ];
    variants[rng.gen_range(0..variants.len())].to_string()
}

fn prose_snippet(rng: &mut StdRng) -> String {
    let variants = [
        "You should check the balance before sending the transaction, otherwise it will fail silently.",
        "Error: VM Exception while processing transaction: out of gas",
        "truffle migrate --network ropsten\ntruffle console",
        "The gas cost depends on how much storage your method touches.",
        "1) deploy the proxy 2) point it at the implementation 3) initialize",
        "Deploy failed with: invalid opcode. Check your constructor arguments.",
    ];
    variants[rng.gen_range(0..variants.len())].to_string()
}

fn pseudo_snippet(rng: &mut StdRng) -> String {
    let variants = [
        "mapping of address to uint balances\nif balance too low then revert the transaction\nelse transfer the amount using msg",
        "contract MyToken\n  when transfer called with more than balance => revert\n  otherwise update mapping and emit",
        "function withdraw:\n  check balances mapping for msg caller\n  if ok then send the ether using delegatecall maybe?",
        "pragma something\ncontract ??? is Ownable but also must keccak256 the seed somehow",
        "use msg to get the caller, then selfdestruct if owner (pseudo code, adapt to your contract)",
        "for each holder in holders do transfer(holder, dividend) // how do I write this in solidity with mapping?",
    ];
    variants[rng.gen_range(0..variants.len())].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::looks_like_solidity;

    fn small_corpus() -> QaCorpus {
        generate_qa(QaConfig { seed: 1, scale: 0.02 })
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_qa(QaConfig { seed: 5, scale: 0.01 });
        let b = generate_qa(QaConfig { seed: 5, scale: 0.01 });
        assert_eq!(a.snippets.len(), b.snippets.len());
        assert_eq!(a.snippets[0].text, b.snippets[0].text);
        let c = generate_qa(QaConfig { seed: 6, scale: 0.01 });
        assert_ne!(
            a.snippets.iter().map(|s| &s.text).collect::<Vec<_>>(),
            c.snippets.iter().map(|s| &s.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn site_split_matches_table_4_ratio() {
        let corpus = small_corpus();
        let so = corpus.posts_of(Site::StackOverflow).count() as f64;
        let ese = corpus.posts_of(Site::EthereumStackExchange).count() as f64;
        let ratio = ese / so;
        // Paper: 18,283 / 7,370 ≈ 2.48.
        assert!((2.0..3.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ground_truth_agrees_with_keyword_filter() {
        let corpus = small_corpus();
        let mut sol_pass = 0usize;
        let mut sol_total = 0usize;
        let mut other_pass = 0usize;
        let mut other_total = 0usize;
        for snippet in &corpus.snippets {
            let passes = looks_like_solidity(&snippet.text);
            match snippet.truth {
                // JavaScript and prose should rarely pass the filter; a
                // few false passes are realistic (English prose mentioning
                // `storage` or `payable` fools the real filter too).
                SnippetTruth::JavaScript | SnippetTruth::Prose => {
                    other_total += 1;
                    if passes {
                        other_pass += 1;
                    }
                }
                // Genuine Solidity and pseudo-code should mostly pass; the
                // filter legitimately loses keyword-poor statement-level
                // snippets (the paper's funnel has the same loss).
                SnippetTruth::Solidity { .. } | SnippetTruth::Pseudo => {
                    sol_total += 1;
                    if passes {
                        sol_pass += 1;
                    }
                }
            }
        }
        assert!(
            sol_pass as f64 / sol_total as f64 > 0.75,
            "{sol_pass}/{sol_total}"
        );
        assert!(
            (other_pass as f64) < other_total as f64 * 0.25,
            "too many false passes: {other_pass}/{other_total}"
        );
    }

    #[test]
    fn solidity_snippets_parse_pseudo_does_not() {
        let corpus = small_corpus();
        let mut sol_parse = 0usize;
        let mut sol_total = 0usize;
        for snippet in &corpus.snippets {
            match &snippet.truth {
                SnippetTruth::Solidity { .. } => {
                    sol_total += 1;
                    if solidity::parse_snippet(&snippet.text).is_ok() {
                        sol_parse += 1;
                    }
                }
                SnippetTruth::Pseudo => {
                    assert!(
                        solidity::parse_snippet(&snippet.text).is_err(),
                        "pseudo parses: {}",
                        snippet.text
                    );
                }
                _ => {}
            }
        }
        assert_eq!(sol_parse, sol_total, "all template snippets parse");
    }

    #[test]
    fn vulnerable_rate_near_paper() {
        let corpus = generate_qa(QaConfig { seed: 2, scale: 0.1 });
        let solidity: Vec<_> = corpus.snippets.iter().filter(|s| s.is_solidity()).collect();
        let vulnerable = solidity.iter().filter(|s| s.seeded_vuln().is_some()).count();
        let rate = vulnerable as f64 / solidity.len() as f64;
        // Paper: 4,596 / 18,660 ≈ 24.6%.
        assert!((0.18..0.32).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn duplicates_reference_existing_snippets() {
        let corpus = generate_qa(QaConfig { seed: 3, scale: 0.1 });
        let mut dupes = 0;
        for snippet in &corpus.snippets {
            if let SnippetTruth::Solidity { duplicate_of: Some(orig), .. } = &snippet.truth {
                dupes += 1;
                let original = &corpus.snippets[*orig as usize];
                assert_eq!(original.text, snippet.text);
            }
        }
        assert!(dupes > 0, "expected some duplicates at this scale");
    }

    #[test]
    fn views_are_heavy_tailed() {
        let corpus = small_corpus();
        let mut views: Vec<u64> = corpus.posts.iter().map(|p| p.views).collect();
        views.sort_unstable();
        let median = views[views.len() / 2];
        let max = *views.last().unwrap();
        assert!(max > median * 20, "median {median}, max {max}");
    }
}
