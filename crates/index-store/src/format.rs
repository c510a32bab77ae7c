//! Snapshot format v1: a flat encoding of a fingerprint corpus plus its
//! prebuilt N-gram index.
//!
//! ```text
//! header (72 bytes, little-endian)
//!   0  magic      8B  "SODDIDX\0"
//!   8  version    u32 format version (1)
//!   12 n          u32 N-gram size the postings were built with
//!   16 generation u64 snapshot generation
//!   24 doc_count  u64 documents
//!   32 gram_count u64 distinct N-grams
//!   40 post_count u64 total posting entries
//!   48 fp_blob    u64 fingerprint string-blob length in bytes
//!   56 gram_blob  u64 gram string-blob length in bytes
//!   64 checksum   u64 FNV-1a over every byte after the header
//! doc table    doc_count  x 24B  (doc_id u64, fp_off u32, fp_len u32,
//!                                 gram_count u32, reserved u32)
//! gram table   gram_count x 16B  (str_off u32, str_len u32,
//!                                 post_off u32, post_len u32)
//! postings     post_count x 4B   u32 doc-table positions
//! fp blob      fp_blob bytes     UTF-8, interned (deduplicated) strings
//! gram blob    gram_blob bytes   UTF-8, interned (deduplicated) strings
//! ```
//!
//! Every table is fixed-width and every string is an `(offset, length)`
//! into an interned blob ([`intern::StrTable`]), so a reader seeks
//! directly without parsing; postings reference doc-table *positions*
//! (u32), not 8-byte doc ids, halving the dominant section. Doc-table
//! position *i* is slot *i* of the in-memory [`NgramIndex`], so postings
//! are written and read back as slots with no translation. The decoder
//! trusts nothing: lengths, offsets, UTF-8 boundaries, positions and the
//! checksum are all validated and every failure is a typed
//! [`AnalysisError`] (`index_corrupt` / `index_version`) — hostile bytes
//! can never panic the loader.

use ccd::Fingerprint;
use intern::StrTable;
use ngram_index::{DocId, NgramIndex};
use solidity::AnalysisError;

/// File magic: identifies a snapshot regardless of version.
pub const MAGIC: [u8; 8] = *b"SODDIDX\0";
/// Format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 72;

const DOC_ENTRY: usize = 24;
const GRAM_ENTRY: usize = 16;
const POST_ENTRY: usize = 4;

fn corrupt(message: impl Into<String>) -> AnalysisError {
    AnalysisError::index_corrupt(message)
}

/// A fully decoded and validated snapshot, ready to assemble into a
/// [`ccd::CloneDetector`] without re-fingerprinting or re-gramming.
#[derive(Debug)]
pub struct Decoded {
    /// Snapshot generation from the header.
    pub generation: u64,
    /// N-gram size the postings were built with.
    pub n: usize,
    /// `(doc id, fingerprint)` in original corpus (slot) order.
    pub fingerprints: Vec<(DocId, Fingerprint)>,
    /// `(doc id, distinct-gram count)` in slot order, as stored.
    pub doc_grams: Vec<(DocId, usize)>,
    /// Postings lists keyed by gram, as slots (doc-table positions).
    pub postings: Vec<(Box<str>, Vec<u32>)>,
}

impl Decoded {
    /// Rebuild the N-gram index from the decoded flat parts.
    pub fn into_index_and_corpus(self) -> (NgramIndex, Vec<(DocId, Fingerprint)>) {
        let index = NgramIndex::from_parts(self.n, self.doc_grams, self.postings);
        (index, self.fingerprints)
    }
}

/// Encode a corpus and its index into snapshot bytes.
///
/// `docs` is the corpus in slot order (preserved on decode, so a detector
/// rebuilt from the snapshot holds every document in the slot it had in
/// the original); `index` must be the N-gram index built over exactly
/// those documents, slot *i* holding `docs[i]`.
pub fn encode(
    generation: u64,
    docs: &[(DocId, Fingerprint)],
    index: &NgramIndex,
) -> Result<Vec<u8>, AnalysisError> {
    u32::try_from(docs.len())
        .map_err(|_| AnalysisError::internal("snapshot exceeds u32 documents"))?;
    if index.len() != docs.len() {
        return Err(AnalysisError::internal(format!(
            "index covers {} docs, corpus has {}",
            index.len(),
            docs.len()
        )));
    }
    let mut seen = intern::FxHashSet::default();
    for (slot, ((doc, _), id)) in docs.iter().zip(index.ids()).enumerate() {
        if !seen.insert(*doc) {
            return Err(AnalysisError::internal(format!("duplicate doc id {doc} in corpus")));
        }
        if doc != id {
            return Err(AnalysisError::internal(format!(
                "index slot {slot} holds doc {id}, corpus position {slot} is doc {doc}"
            )));
        }
    }

    // String sections: every distinct fingerprint and gram written once.
    let mut fp_table = StrTable::new();
    let mut doc_table = Vec::with_capacity(docs.len() * DOC_ENTRY);
    for ((doc, fp), (_, count)) in docs.iter().zip(index.documents()) {
        let id = fp_table.intern(fp.as_str());
        let (off, len) = fp_table.spans()[id as usize];
        let count = u32::try_from(count)
            .map_err(|_| AnalysisError::internal("gram count exceeds u32"))?;
        doc_table.extend_from_slice(&doc.to_le_bytes());
        doc_table.extend_from_slice(&off.to_le_bytes());
        doc_table.extend_from_slice(&len.to_le_bytes());
        doc_table.extend_from_slice(&count.to_le_bytes());
        doc_table.extend_from_slice(&0u32.to_le_bytes());
    }

    let sorted = index.postings_sorted();
    let mut gram_table = Vec::with_capacity(sorted.len() * GRAM_ENTRY);
    let mut postings = Vec::new();
    let mut gram_strings = StrTable::new();
    for (gram, slots) in &sorted {
        let id = gram_strings.intern(gram);
        let (off, len) = gram_strings.spans()[id as usize];
        let post_off = u32::try_from(postings.len() / POST_ENTRY)
            .map_err(|_| AnalysisError::internal("postings exceed u32 entries"))?;
        let post_len = u32::try_from(slots.len())
            .map_err(|_| AnalysisError::internal("postings list exceeds u32 entries"))?;
        for slot in *slots {
            postings.extend_from_slice(&slot.to_le_bytes());
        }
        gram_table.extend_from_slice(&off.to_le_bytes());
        gram_table.extend_from_slice(&len.to_le_bytes());
        gram_table.extend_from_slice(&post_off.to_le_bytes());
        gram_table.extend_from_slice(&post_len.to_le_bytes());
    }

    let post_count = (postings.len() / POST_ENTRY) as u64;
    let mut payload = doc_table;
    payload.extend_from_slice(&gram_table);
    payload.extend_from_slice(&postings);
    payload.extend_from_slice(fp_table.blob().as_bytes());
    payload.extend_from_slice(gram_strings.blob().as_bytes());

    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(index.n() as u32).to_le_bytes());
    bytes.extend_from_slice(&generation.to_le_bytes());
    bytes.extend_from_slice(&(docs.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&post_count.to_le_bytes());
    bytes.extend_from_slice(&(fp_table.blob().len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(gram_strings.blob().len() as u64).to_le_bytes());
    bytes.extend_from_slice(&telemetry::fnv1a(&payload).to_le_bytes());
    debug_assert_eq!(bytes.len(), HEADER_LEN);
    bytes.extend_from_slice(&payload);
    Ok(bytes)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("caller checked bounds"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("caller checked bounds"))
}

/// Slice `(off, len)` out of a validated UTF-8 blob, rejecting
/// out-of-bounds spans and char-splitting offsets.
fn span<'b>(blob: &'b str, off: u32, len: u32, what: &str) -> Result<&'b str, AnalysisError> {
    let (start, end) = (off as usize, off as usize + len as usize);
    if end > blob.len() || !blob.is_char_boundary(start) || !blob.is_char_boundary(end) {
        return Err(corrupt(format!("{what} span {off}+{len} outside its blob")));
    }
    Ok(&blob[start..end])
}

/// Decode and validate snapshot bytes (a snapshot file's contents).
pub fn decode(bytes: &[u8]) -> Result<Decoded, AnalysisError> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!("{} bytes is shorter than the header", bytes.len())));
    }
    if bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic (not a snapshot file)"));
    }
    let version = read_u32(bytes, 8);
    if version != FORMAT_VERSION {
        return Err(AnalysisError::index_version(version, FORMAT_VERSION));
    }
    let n = read_u32(bytes, 12) as usize;
    let generation = read_u64(bytes, 16);
    let doc_count = read_u64(bytes, 24);
    let gram_count = read_u64(bytes, 32);
    let post_count = read_u64(bytes, 40);
    let fp_blob_len = read_u64(bytes, 48);
    let gram_blob_len = read_u64(bytes, 56);
    let checksum = read_u64(bytes, 64);
    if n == 0 {
        return Err(corrupt("header n = 0"));
    }

    // Section layout, with overflow-checked arithmetic: the total must
    // match the file length exactly (a short file is truncation, a long
    // one trailing garbage).
    let section = |count: u64, width: usize, what: &str| -> Result<usize, AnalysisError> {
        usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(width))
            .ok_or_else(|| corrupt(format!("{what} count {count} overflows")))
    };
    let doc_table_len = section(doc_count, DOC_ENTRY, "doc")?;
    let gram_table_len = section(gram_count, GRAM_ENTRY, "gram")?;
    let postings_len = section(post_count, POST_ENTRY, "posting")?;
    let blob = |len: u64, what: &str| -> Result<usize, AnalysisError> {
        usize::try_from(len).map_err(|_| corrupt(format!("{what} blob length overflows")))
    };
    let fp_blob_bytes = blob(fp_blob_len, "fingerprint")?;
    let gram_blob_bytes = blob(gram_blob_len, "gram")?;
    let expected = [doc_table_len, gram_table_len, postings_len, fp_blob_bytes, gram_blob_bytes]
        .iter()
        .try_fold(HEADER_LEN, |acc, len| acc.checked_add(*len))
        .ok_or_else(|| corrupt("section lengths overflow"))?;
    if bytes.len() != expected {
        return Err(corrupt(format!(
            "file is {} bytes, header describes {expected}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    if telemetry::fnv1a(payload) != checksum {
        return Err(corrupt("payload checksum mismatch"));
    }

    let doc_table = &payload[..doc_table_len];
    let gram_table = &payload[doc_table_len..doc_table_len + gram_table_len];
    let postings_bytes =
        &payload[doc_table_len + gram_table_len..doc_table_len + gram_table_len + postings_len];
    let blobs_at = doc_table_len + gram_table_len + postings_len;
    let fp_blob = std::str::from_utf8(&payload[blobs_at..blobs_at + fp_blob_bytes])
        .map_err(|_| corrupt("fingerprint blob is not UTF-8"))?;
    let gram_blob = std::str::from_utf8(&payload[blobs_at + fp_blob_bytes..])
        .map_err(|_| corrupt("gram blob is not UTF-8"))?;

    let doc_count = doc_count as usize;
    let mut fingerprints = Vec::with_capacity(doc_count);
    let mut doc_grams = Vec::with_capacity(doc_count);
    let mut seen = intern::FxHashSet::default();
    for entry in 0..doc_count {
        let at = entry * DOC_ENTRY;
        let doc = read_u64(doc_table, at);
        let fp = span(fp_blob, read_u32(doc_table, at + 8), read_u32(doc_table, at + 12),
            "fingerprint")?;
        let grams = read_u32(doc_table, at + 16) as usize;
        if !seen.insert(doc) {
            return Err(corrupt(format!("duplicate doc id {doc}")));
        }
        fingerprints.push((doc, Fingerprint(fp.to_string())));
        doc_grams.push((doc, grams));
    }

    let gram_count = gram_count as usize;
    let mut postings = Vec::with_capacity(gram_count);
    for entry in 0..gram_count {
        let at = entry * GRAM_ENTRY;
        let gram = span(gram_blob, read_u32(gram_table, at), read_u32(gram_table, at + 4),
            "gram")?;
        let post_off = read_u32(gram_table, at + 8) as usize;
        let post_len = read_u32(gram_table, at + 12) as usize;
        let end = post_off
            .checked_add(post_len)
            .filter(|end| *end <= post_count as usize)
            .ok_or_else(|| corrupt(format!("postings range {post_off}+{post_len} out of range")))?;
        let mut slots = Vec::with_capacity(post_len);
        for pos in post_off..end {
            let slot = read_u32(postings_bytes, pos * POST_ENTRY);
            if slot as usize >= doc_count {
                return Err(corrupt(format!("posting references doc position {slot}")));
            }
            slots.push(slot);
        }
        postings.push((gram.into(), slots));
    }

    Ok(Decoded { generation, n, fingerprints, doc_grams, postings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccd::{CcdParams, CloneDetector};

    /// `d`'s corpus and index, encoded as `generation`.
    fn encoded(generation: u64, d: &CloneDetector) -> Vec<u8> {
        let docs: Vec<(DocId, Fingerprint)> =
            d.iter_fingerprints().map(|(doc, fp)| (doc, fp.clone())).collect();
        encode(generation, &docs, d.index()).unwrap()
    }

    fn sample_detector() -> CloneDetector {
        let mut d = CloneDetector::new(CcdParams::best());
        assert!(d.insert_source(
            0,
            "contract A { function w(uint v) public { msg.sender.transfer(v); } }"
        ));
        assert!(d.insert_source(
            1,
            "contract B { uint total; function add(uint v) public { total += v; } }"
        ));
        d
    }

    #[test]
    fn encode_decode_roundtrip_preserves_matches() {
        let d = sample_detector();
        let decoded = decode(&encoded(7, &d)).unwrap();
        assert_eq!(decoded.generation, 7);
        assert_eq!(decoded.n, d.params().ngram_size);
        assert!(decoded.fingerprints.iter().map(|(doc, fp)| (*doc, fp)).eq(d.iter_fingerprints()));
        let (index, corpus) = decoded.into_index_and_corpus();
        let rebuilt = CloneDetector::from_parts(d.params(), corpus, index).unwrap();
        let q = CloneDetector::fingerprint_source(
            "contract C { function out(uint x) public { msg.sender.transfer(x); } }",
        )
        .unwrap();
        assert_eq!(rebuilt.matches(&q), d.matches(&q));
    }

    /// Snapshot v1 bytes of a fixed three-contract corpus whose ids are
    /// not in corpus order, pinned by length and header checksum (which
    /// covers every payload byte). The values were computed when postings
    /// were still id lists translated to positions on write; slots must
    /// encode to the same bytes.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let mut d = CloneDetector::new(CcdParams::best());
        for (id, source) in [
            (5, "contract A { function w(uint v) public { msg.sender.transfer(v); } }"),
            (2, "contract B { uint total; function add(uint v) public { total += v; } }"),
            (9, "contract C { uint t; function put(uint v) public { t += v; msg.sender.transfer(v); } }"),
        ] {
            assert!(d.insert_source(id, source));
        }
        let bytes = encoded(4, &d);
        assert_eq!((bytes.len(), read_u64(&bytes, 64)), (420, 14_947_281_628_143_646_273));
    }

    #[test]
    fn encoding_is_deterministic() {
        let (a, b) = (sample_detector(), sample_detector());
        assert_eq!(encoded(1, &a), encoded(1, &b));
    }

    #[test]
    fn truncation_anywhere_is_typed_corruption() {
        let d = sample_detector();
        let bytes = encoded(1, &d);
        for cut in [0, 8, HEADER_LEN - 1, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err.code(), "index_corrupt", "cut at {cut}: {err}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let d = sample_detector();
        let bytes = encoded(1, &d);
        // Flipping any bit of the payload must trip the checksum; flips in
        // the header are caught by magic/version/length checks or produce
        // a decode that fails validation. A flip may never panic.
        for at in (0..bytes.len()).step_by(17) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            match decode(&bad) {
                Err(e) => assert!(
                    matches!(e.code(), "index_corrupt" | "index_version"),
                    "byte {at}: {e}"
                ),
                // A header flip that enlarges a count is caught by the
                // total-length check; one that survives decode entirely
                // (e.g. the generation field) is fine — payload bits are
                // always checksummed.
                Ok(_) => assert!(at == 16 || at == 17 || (18..24).contains(&at),
                    "undetected flip at byte {at}"),
            }
        }
    }

    #[test]
    fn wrong_version_is_a_version_error() {
        let d = sample_detector();
        let mut bytes = encoded(1, &d);
        bytes[8] = 9;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.code(), "index_version");
        assert!(err.to_string().contains("v9"));
    }

    #[test]
    fn wrong_magic_is_corruption() {
        let d = sample_detector();
        let mut bytes = encoded(1, &d);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes).unwrap_err().code(), "index_corrupt");
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 7, 72, 100, 4096] {
            let garbage: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert!(decode(&garbage).is_err());
            // Same garbage under a valid magic + version prefix.
            if len >= HEADER_LEN {
                let mut disguised = garbage;
                disguised[0..8].copy_from_slice(&MAGIC);
                disguised[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
                assert!(decode(&disguised).is_err());
            }
        }
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let d = CloneDetector::new(CcdParams::best());
        let bytes = encoded(1, &d);
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.fingerprints.is_empty());
        assert!(decoded.postings.is_empty());
    }
}
