//! Synthetic deployed-contract corpus — the Smart Contract Sanctuary
//! substitute (§6.1 of the paper).
//!
//! Contracts are assembled from benign template instances; a controlled
//! fraction additionally embeds a (Type I/II/III-mutated) clone of a Q&A
//! snippet, optionally with a *mitigation patch* applied — the mechanism
//! behind contracts that contain a vulnerable snippet but validate as not
//! vulnerable (§6.4: 17,852 of 21,047 validated vulnerable; the rest
//! mitigated or diverged).
//!
//! Deployment timestamps mostly follow the snippet's posting date
//! (disseminator direction); a fraction of snippets is marked as coming
//! from a third-party source, in which case clones appear on both sides of
//! the posting date — washing out the view/adoption correlation for the
//! "All Snippets" group exactly as §6.2 hypothesizes.

use crate::mutate::{mutate, CloneType};
use crate::qa::{QaCorpus, QaSnippet, TIMELINE_DAYS};
use crate::templates::{benign_templates, Level};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Solidity compiler minor version of a deployed contract (§6.1 reports
/// the distribution 0.8: 59%, 0.6: 16%, 0.4: 13%, 0.5: 7.4%, 0.7: 4%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// pragma solidity ^0.4.x
    V04,
    /// pragma solidity ^0.5.x
    V05,
    /// pragma solidity ^0.6.x
    V06,
    /// pragma solidity ^0.7.x
    V07,
    /// pragma solidity ^0.8.x
    V08,
}

impl Compiler {
    /// Pragma text.
    pub fn pragma(self) -> &'static str {
        match self {
            Compiler::V04 => "pragma solidity ^0.4.24;",
            Compiler::V05 => "pragma solidity ^0.5.17;",
            Compiler::V06 => "pragma solidity ^0.6.12;",
            Compiler::V07 => "pragma solidity ^0.7.6;",
            Compiler::V08 => "pragma solidity ^0.8.19;",
        }
    }

    /// Whether arithmetic is checked by default.
    pub fn checked_arithmetic(self) -> bool {
        matches!(self, Compiler::V08)
    }
}

/// Ground truth of an embedded snippet clone.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddedClone {
    /// The embedded snippet's id.
    pub snippet: u64,
    /// Mutation applied during embedding.
    pub clone_type: CloneType,
    /// Whether a mitigation patch was applied on top.
    pub mitigated: bool,
}

/// A deployed contract.
#[derive(Debug, Clone)]
pub struct DeployedContract {
    /// Contract id.
    pub id: u64,
    /// Deployment day on the study timeline.
    pub created_day: u32,
    /// Compiler version.
    pub compiler: Compiler,
    /// Full source code.
    pub source: String,
    /// Embedded snippet clones (ground truth).
    pub embedded: Vec<EmbeddedClone>,
    /// Exact duplicate of an earlier contract, if any (the §6.3
    /// deduplication step collapses these).
    pub duplicate_of: Option<u64>,
}

/// The generated contract corpus.
#[derive(Debug, Clone, Default)]
pub struct ContractCorpus {
    /// All contracts.
    pub contracts: Vec<DeployedContract>,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SanctuaryConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of the full-scale corpus (1.0 ≈ 323,328 contracts — far
    /// more than any in-process analysis needs; studies run at 0.01–0.1).
    pub scale: f64,
    /// Fraction of contracts embedding a snippet clone (paper: 135,408 /
    /// 323,328 ≈ 0.42).
    pub clone_rate: f64,
    /// Probability that an embedded vulnerable snippet is mitigated during
    /// adaptation.
    pub mitigation_rate: f64,
}

impl Default for SanctuaryConfig {
    fn default() -> Self {
        SanctuaryConfig { seed: 0xC0DE, scale: 0.01, clone_rate: 0.42, mitigation_rate: 0.15 }
    }
}

const FULL_CONTRACTS: f64 = 323_328.0;

/// Deployment runs two weeks past the snippet crawl (§6.1: contracts until
/// July 14, snippets until June 30).
const DEPLOY_DAYS: u32 = TIMELINE_DAYS + 14;

/// Generate the contract corpus against a Q&A corpus.
pub fn generate_contracts(config: SanctuaryConfig, qa: &QaCorpus) -> ContractCorpus {
    static STAGE: telemetry::Stage = telemetry::Stage::new("corpus/generate_contracts");
    let _stage = STAGE.enter();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = (FULL_CONTRACTS * config.scale).round().max(1.0) as usize;
    let benign = benign_templates();

    // Candidate snippets: genuine Solidity, originals only.
    let candidates: Vec<&QaSnippet> = qa
        .snippets
        .iter()
        .filter(|s| {
            matches!(
                &s.truth,
                crate::qa::SnippetTruth::Solidity { duplicate_of: None, .. }
            )
        })
        .collect();

    // Sampling weights: the adoption propensity, super-linearly
    // concentrated — a handful of canonical snippets accounts for most
    // copies (the paper's 135,408 containing contracts spread over only
    // 3,963 snippets).
    let weights: Vec<f64> = candidates.iter().map(|s| s.adoption_weight.powf(2.2)).collect();
    let total_weight: f64 = weights.iter().sum();

    // ~20% of snippets duplicate a third-party source: their clones are
    // spread over the whole timeline, including before the posting.
    let third_party: Vec<bool> = candidates
        .iter()
        .map(|_| rng.gen_bool(0.2))
        .collect();

    let mut corpus = ContractCorpus::default();
    for id in 0..n as u64 {
        // ~8% of clone-bearing contracts are exact re-deployments.
        if rng.gen_bool(0.05) {
            if let Some(original) = corpus
                .contracts
                .iter()
                .rev()
                .take(50)
                .find(|c| !c.embedded.is_empty())
            {
                let mut dup = original.clone();
                dup.id = id;
                dup.duplicate_of = Some(original.id);
                dup.created_day =
                    (original.created_day + rng.gen_range(1..200)).min(DEPLOY_DAYS - 1);
                corpus.contracts.push(dup);
                continue;
            }
        }

        let embeds_clone = rng.gen_bool(config.clone_rate) && !candidates.is_empty();
        let contract = if embeds_clone {
            let snippet = weighted_pick(&mut rng, &candidates, &weights, total_weight);
            let is_third_party = third_party[candidates
                .iter()
                .position(|s| s.id == snippet.id)
                .unwrap_or(0)];
            build_clone_contract(id, snippet, is_third_party, qa, config, &mut rng)
        } else {
            build_background_contract(id, &benign, &mut rng)
        };
        corpus.contracts.push(contract);
    }
    corpus
}

fn weighted_pick<'a>(
    rng: &mut StdRng,
    candidates: &[&'a QaSnippet],
    weights: &[f64],
    total_weight: f64,
) -> &'a QaSnippet {
    let mut target = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
    for (snippet, weight) in candidates.iter().zip(weights) {
        if target < *weight {
            return snippet;
        }
        target -= weight;
    }
    candidates[candidates.len() - 1]
}

fn compiler_for_day(day: u32, rng: &mut StdRng) -> Compiler {
    // Era-appropriate compiler with some stragglers on old versions.
    let base = match day {
        0..=799 => Compiler::V04,
        800..=1199 => Compiler::V05,
        1200..=1799 => Compiler::V06,
        1800..=2099 => Compiler::V07,
        _ => Compiler::V08,
    };
    if rng.gen_bool(0.09) {
        // The §6.1 observation: 9% of recent deployments use old compilers.
        match rng.gen_range(0..4) {
            0 => Compiler::V04,
            1 => Compiler::V05,
            2 => Compiler::V06,
            _ => Compiler::V07,
        }
    } else {
        base
    }
}

fn build_background_contract(
    id: u64,
    benign: &[crate::templates::Template],
    rng: &mut StdRng,
) -> DeployedContract {
    // Background deployments skew recent (the 0.8 era dominates, §6.1).
    let created_day = sample_recent_day(rng);
    let compiler = compiler_for_day(created_day, rng);
    let mut parts = vec![compiler.pragma().to_string()];
    let n_templates = rng.gen_range(1..=3);
    for _ in 0..n_templates {
        parts.push(benign[rng.gen_range(0..benign.len())].render(rng, Level::Contract).text);
    }
    DeployedContract {
        id,
        created_day,
        compiler,
        source: parts.join("\n\n"),
        embedded: vec![],
        duplicate_of: None,
    }
}

fn sample_recent_day(rng: &mut StdRng) -> u32 {
    // Quadratic skew towards the present: matches the compiler
    // distribution of §6.1 (59% of contracts on 0.8).
    let u: f64 = rng.gen();
    (u.sqrt() * DEPLOY_DAYS as f64) as u32
}

fn build_clone_contract(
    id: u64,
    snippet: &QaSnippet,
    third_party: bool,
    qa: &QaCorpus,
    config: SanctuaryConfig,
    rng: &mut StdRng,
) -> DeployedContract {
    let post_day = qa.post_of(snippet).created_day;
    let created_day = if third_party {
        rng.gen_range(0..DEPLOY_DAYS)
    } else {
        // Adoption lag after posting, exponential-ish.
        let lag = (rng.gen_range(0.0f64..1.0).ln() * -250.0) as u32;
        (post_day + 1 + lag).min(DEPLOY_DAYS - 1)
    };
    let compiler = compiler_for_day(created_day, rng);

    let clone_type = match rng.gen_range(0..10) {
        0..=2 => CloneType::TypeI,
        3..=6 => CloneType::TypeII,
        _ => CloneType::TypeIII,
    };
    let mut text = snippet.text.clone();
    let mut mitigated = false;
    if snippet.seeded_vuln().is_some() && rng.gen_bool(config.mitigation_rate) {
        if let crate::qa::SnippetTruth::Solidity { family, .. } = &snippet.truth {
            if let Some(patched) = mitigate_family(family, &text) {
                text = patched;
                mitigated = true;
            }
        }
    }
    let mutated = mutate(&text, clone_type, rng);

    // Wrap the snippet to its deployable form.
    let body = match solidity::parse_snippet(&mutated)
        .map(|u| u.snippet_level())
        .unwrap_or(solidity::SnippetLevel::Contract)
    {
        solidity::SnippetLevel::Contract => mutated,
        solidity::SnippetLevel::Function => {
            format!("contract Wrapped{id} {{\n{mutated}\n}}")
        }
        solidity::SnippetLevel::Statement => format!(
            "contract Wrapped{id} {{\n    function run() public payable {{\n{mutated}\n    }}\n}}"
        ),
    };

    let mut parts = vec![compiler.pragma().to_string(), body];
    // Surrounding project code.
    let benign = benign_templates();
    for _ in 0..rng.gen_range(0..=2) {
        parts.push(benign[rng.gen_range(0..benign.len())].render(rng, Level::Contract).text);
    }
    // A small fraction of contracts are huge (many filler contracts) —
    // these drive the validation timeouts of §6.4.
    if rng.gen_bool(0.02) {
        for _ in 0..rng.gen_range(12..30) {
            parts.push(benign[rng.gen_range(0..benign.len())].render(rng, Level::Contract).text);
        }
    }

    DeployedContract {
        id,
        created_day,
        compiler,
        source: parts.join("\n\n"),
        embedded: vec![EmbeddedClone { snippet: snippet.id, clone_type, mitigated }],
        duplicate_of: None,
    }
}

/// Family-specific mitigation patches: the small edits adapting developers
/// apply that defuse the vulnerability while keeping the code a clear
/// textual clone.
pub fn mitigate_family(family: &str, text: &str) -> Option<String> {
    let patched = match family {
        // Checks-effects-interactions: zero the balance before the call.
        "reentrancy_withdraw" => reorder_reentrancy(text)?,
        // Wrap the bare send in a require.
        "unchecked_send" => {
            let line = text.lines().find(|l| l.contains(".send("))?;
            let code = code_part(line);
            let wrapped = format!(
                "{}require({});",
                " ".repeat(line.len() - line.trim_start().len()),
                code.trim().trim_end_matches(';')
            );
            text.replacen(line, &wrapped, 1)
        }
        // The canonical fix: authenticate with msg.sender.
        "tx_origin_auth" => text.replace("tx.origin", "msg.sender"),
        // Guard the destructor / the owner write / the payout.
        "open_selfdestruct" => guard_before(text, "selfdestruct(")?,
        "open_owner_write" => guard_owner_write(text)?,
        "guessing_game" => guard_before(text, ".transfer(")?,
        // Validate the payload length.
        "short_address_pay" => insert_before(text, ".transfer(", "require(msg.data.length == 68);")?,
        // Reject unexpected calldata before delegating.
        "proxy_delegate" => insert_before(text, ".delegatecall(", "require(msg.data.length == 0);")?,
        // Guard the subtraction with a balance check.
        "overflow_token" => {
            let line = code_part(text.lines().find(|l| l.contains("-="))?)
                .trim()
                .to_string();
            let lhs = line.split("-=").next()?.trim().to_string();
            let rhs = line.split("-=").nth(1)?.trim().trim_end_matches(';').to_string();
            insert_before(text, "-=", &format!("require({lhs} >= {rhs});"))?
        }
        // Explicit memory location.
        "storage_pointer" => {
            let line = text.lines().find(|l| {
                let t = l.trim();
                t.split_whitespace().count() == 2
                    && t.ends_with("d;")
                    && !t.contains('=')
            })?;
            let ty = line.split_whitespace().next()?;
            text.replacen(
                &format!("{ty} d;"),
                &format!("{ty} memory d;"),
                1,
            )
        }
        // Fixed iteration bound.
        "payout_loop" => {
            let needle = text
                .lines()
                .find(|l| l.contains("for (") && l.contains(".length"))?;
            let from = needle.split("i < ").nth(1)?.split(';').next()?;
            text.replacen(from, "10", 1)
        }
        // Don't revert on refund failure (pull-payment-ish degradation).
        "king_of_ether" => text.replacen(".transfer(", ".send(", 1),
        // Don't gamble on miner-controlled entropy: use a stored seed.
        "block_lottery" => text
            .replace("block.timestamp", "seedValue")
            .replace("block.difficulty", "seedValue")
            .replace("block.number", "seedValue"),
        "timestamp_payout" => text.replace("block.timestamp", "roundCounter").replace("now", "roundCounter"),
        // Stop clearing the payout collection.
        "clearable_payees" => {
            let line = text.lines().find(|l| l.trim().starts_with("delete "))?;
            text.replacen(line.trim(), "paused = true;", 1)
        }
        _ => return None,
    };
    Some(patched)
}

/// Move the `X[msg.sender] = 0;` zeroing before the external call.
fn reorder_reentrancy(text: &str) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let call_idx = lines.iter().position(|l| l.contains(".call{value:") || l.contains(".call.value("))?;
    let zero_idx = lines.iter().position(|l| l.contains("] = 0;"))?;
    if zero_idx <= call_idx {
        return None;
    }
    let mut reordered: Vec<&str> = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if i == call_idx {
            reordered.push(lines[zero_idx]);
            reordered.push(line);
        } else if i == zero_idx {
            continue;
        } else {
            reordered.push(line);
        }
    }
    Some(reordered.join("\n"))
}

/// The code part of a line, trailing `//` comments stripped.
fn code_part(line: &str) -> &str {
    line.split("//").next().unwrap_or(line)
}

/// Insert `stmt` on its own line right before the first line containing
/// `needle`.
fn insert_before(text: &str, needle: &str, stmt: &str) -> Option<String> {
    let line = text.lines().find(|l| l.contains(needle))?;
    let indent = " ".repeat(line.len() - line.trim_start().len());
    Some(text.replacen(line, &format!("{indent}{stmt}\n{line}"), 1))
}

/// Insert an owner check before the first line containing `needle`.
fn guard_before(text: &str, needle: &str) -> Option<String> {
    insert_before(text, needle, "require(msg.sender == owner);")
}

/// Guard the owner-write function (the line assigning the new owner).
fn guard_owner_write(text: &str) -> Option<String> {
    let line = text
        .lines()
        .find(|l| l.trim().ends_with("= newOwner;"))?;
    let target = line.trim().split('=').next()?.trim().to_string();
    insert_before(text, "= newOwner;", &format!("require(msg.sender == {target});"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qa::{generate_qa, QaConfig};
    use crate::templates::vulnerable_templates;
    use ccc::Checker;

    fn tiny() -> (QaCorpus, ContractCorpus) {
        let qa = generate_qa(QaConfig { seed: 11, scale: 0.01 });
        let contracts = generate_contracts(
            SanctuaryConfig { seed: 12, scale: 0.003, ..SanctuaryConfig::default() },
            &qa,
        );
        (qa, contracts)
    }

    #[test]
    fn corpus_is_deterministic_and_scaled() {
        let (_, a) = tiny();
        let (_, b) = tiny();
        assert_eq!(a.contracts.len(), b.contracts.len());
        assert_eq!(a.contracts.len(), 970); // 323,328 * 0.003
        assert_eq!(a.contracts[5].source, b.contracts[5].source);
    }

    #[test]
    fn all_contracts_parse() {
        let (_, corpus) = tiny();
        for contract in &corpus.contracts {
            assert!(
                solidity::parse_snippet(&contract.source).is_ok(),
                "contract {} does not parse:\n{}",
                contract.id,
                contract.source
            );
        }
    }

    #[test]
    fn clone_rate_is_respected() {
        let (_, corpus) = tiny();
        let with_clones = corpus.contracts.iter().filter(|c| !c.embedded.is_empty()).count();
        let rate = with_clones as f64 / corpus.contracts.len() as f64;
        assert!((0.3..0.55).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn duplicates_share_source() {
        let qa = generate_qa(QaConfig { seed: 11, scale: 0.02 });
        let corpus = generate_contracts(
            SanctuaryConfig { seed: 12, scale: 0.01, ..SanctuaryConfig::default() },
            &qa,
        );
        let mut found = 0;
        for contract in &corpus.contracts {
            if let Some(orig) = contract.duplicate_of {
                found += 1;
                let original = corpus.contracts.iter().find(|c| c.id == orig).unwrap();
                assert_eq!(original.source, contract.source);
            }
        }
        assert!(found > 0);
    }

    #[test]
    fn compiler_distribution_skews_to_08() {
        let qa = generate_qa(QaConfig { seed: 11, scale: 0.02 });
        let corpus = generate_contracts(
            SanctuaryConfig { seed: 12, scale: 0.02, ..SanctuaryConfig::default() },
            &qa,
        );
        let v08 = corpus
            .contracts
            .iter()
            .filter(|c| c.compiler == Compiler::V08)
            .count() as f64;
        let share = v08 / corpus.contracts.len() as f64;
        // Paper: 59% — clone-bearing contracts pull it down a bit since
        // they follow snippet posting dates.
        assert!((0.35..0.75).contains(&share), "share = {share}");
    }

    #[test]
    fn mitigation_patches_defuse_every_family() {
        let mut rng = StdRng::seed_from_u64(33);
        let checker = Checker::new();
        for template in vulnerable_templates() {
            let g = template.render(&mut rng, Level::Contract);
            let Some(patched) = mitigate_family(template.name, &g.text) else {
                panic!("no mitigation patch for family {}", template.name);
            };
            assert!(
                solidity::parse_snippet(&patched).is_ok(),
                "patched {} does not parse:\n{patched}",
                template.name
            );
            let findings = checker.check_snippet(&patched).unwrap();
            let query = template.vuln.unwrap();
            assert!(
                !findings.iter().any(|f| f.query == query),
                "family {} still triggers {query:?} after mitigation:\n{patched}",
                template.name
            );
        }
    }

    #[test]
    fn mitigated_clones_stay_textually_similar() {
        use ccd::{order_independent_similarity, CloneDetector};
        let mut rng = StdRng::seed_from_u64(34);
        for template in vulnerable_templates() {
            let g = template.render(&mut rng, Level::Contract);
            let patched = mitigate_family(template.name, &g.text).unwrap();
            let a = CloneDetector::fingerprint_source(&g.text).unwrap();
            let b = CloneDetector::fingerprint_source(&patched).unwrap();
            let score = order_independent_similarity(&a, &b);
            // Patches on one-liner functions can halve that function's
            // sub-fingerprint; the contract still reads as a near-miss
            // clone overall.
            assert!(
                score >= 45.0,
                "family {} mitigation breaks clone-ness: {score}\n{patched}",
                template.name
            );
        }
    }

    #[test]
    fn disseminator_timing_mostly_after_post() {
        let (qa, corpus) = tiny();
        let mut after = 0usize;
        let mut total = 0usize;
        for contract in &corpus.contracts {
            for clone in &contract.embedded {
                let post = qa.post_of(&qa.snippets[clone.snippet as usize]);
                total += 1;
                if contract.created_day >= post.created_day {
                    after += 1;
                }
            }
        }
        assert!(total > 0);
        let share = after as f64 / total as f64;
        assert!(share > 0.7, "after-share = {share}");
    }
}
