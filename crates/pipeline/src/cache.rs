//! The service's one cache type: a full-key S3-FIFO cache behind the
//! engine's response cache and both front-cache tiers.
//!
//! * **Full keys.** Entries live in a std `HashMap` under its randomly
//!   seeded SipHash, so a hit compares the whole key: two inputs can share
//!   a bucket but never an answer, and a caller who cannot see the seed
//!   cannot craft collisions that cost time.
//! * **No invalidation.** Nothing empties the cache. A scan's answer is
//!   a pure function of its key, and a cached clone-check answer records
//!   how many corpus slots it covers and is completed on its next hit
//!   ([`crate::corpus_index`]), so no value goes stale.
//! * **S3-FIFO eviction** (Yang et al., "FIFO queues are all you need for
//!   cache eviction", SOSP 2023). Copy-paste traffic repeats a few popular
//!   snippets among many one-time ones, and under recency order every
//!   one-time key pushed a popular answer out. Here a new key enters a
//!   small FIFO holding a tenth of the capacity, and a hit only bumps the
//!   entry's 2-bit counter. An entry leaving the small FIFO moves to the
//!   main FIFO if it was hit; otherwise it is evicted and its 64-bit hash
//!   enters a ghost FIFO as long as main, and a key whose hash is there
//!   when it is inserted again goes straight into main. Main re-queues an
//!   entry with a non-zero counter after decrementing it and evicts the
//!   first entry whose counter is zero. The ghost holds hashes only: it
//!   never serves a value and keeps no evicted key.
//!
//! The cache is off at capacity 0 and while a fault plan is armed (every
//! `get` misses, every `insert` is dropped), so chaos runs always reach
//! the real pipeline stages.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::{Mutex, MutexGuard};

/// The largest hit counter: a 2-bit count.
const MAX_HITS: u8 = 3;

/// A thread-safe S3-FIFO cache keyed by the full key — see the module
/// docs. Keys are stored twice (in the map and in their slab entry), so
/// use a key whose clone shares its bytes, such as `Arc<str>`.
pub struct Cache<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

struct State<K, V> {
    slots: HashMap<K, usize>,
    /// Every entry, by slot; an evicted entry's slot takes the next key.
    entries: Vec<Entry<K, V>>,
    /// Slots of the entries not yet hit past their first pass, oldest
    /// first.
    small: VecDeque<usize>,
    /// Slots of the entries that were hit in `small` or came back from
    /// the ghost, oldest first.
    main: VecDeque<usize>,
    /// Hashes of the keys `small` evicted unhit, oldest first, and the
    /// same hashes as a set.
    ghost: VecDeque<u64>,
    ghosts: HashSet<u64>,
}

struct Entry<K, V> {
    key: K,
    value: V,
    /// The key's hash under the map's hasher, which the ghost keeps.
    hash: u64,
    hits: u8,
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// An empty cache holding at most `capacity` entries (0 turns it off).
    pub fn new(capacity: usize) -> Cache<K, V> {
        Cache {
            capacity,
            state: Mutex::new(State {
                slots: HashMap::new(),
                entries: Vec::new(),
                small: VecDeque::new(),
                main: VecDeque::new(),
                ghost: VecDeque::new(),
                ghosts: HashSet::new(),
            }),
        }
    }

    /// The value cached under `key`, whose hit counter is bumped.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.enabled() {
            return None;
        }
        let mut state = self.state();
        let slot = *state.slots.get(key)?;
        let entry = &mut state.entries[slot];
        entry.hits = (entry.hits + 1).min(MAX_HITS);
        Some(entry.value.clone())
    }

    /// Cache `value` under `key`, evicting one entry when full. A cached
    /// key only has its value replaced.
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state();
        if let Some(&slot) = state.slots.get(&key) {
            state.entries[slot].value = value;
            return;
        }
        let hash = state.slots.hasher().hash_one(&key);
        let entry = Entry { key: key.clone(), value, hash, hits: 0 };
        let slot = if state.entries.len() < self.capacity {
            state.entries.push(entry);
            state.entries.len() - 1
        } else {
            let small = self.small_capacity();
            let slot = state.victim(small, self.capacity - small);
            let evicted = std::mem::replace(&mut state.entries[slot], entry);
            state.slots.remove(&evicted.key);
            slot
        };
        if state.ghosts.contains(&hash) {
            state.main.push_back(slot);
        } else {
            state.small.push_back(slot);
        }
        state.slots.insert(key, slot);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn enabled(&self) -> bool {
        self.capacity > 0 && !faultinject::active()
    }

    /// The small FIFO's share of the capacity: a tenth, at least one.
    /// Main's share, the rest, is also the ghost's length.
    fn small_capacity(&self) -> usize {
        (self.capacity / 10).max(1)
    }

    /// The locked state. A panic under the lock may have left an entry
    /// in neither queue, so a poisoned cache starts over empty.
    fn state(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut state = poisoned.into_inner();
            state.reset();
            self.state.clear_poison();
            state
        })
    }
}

impl<K, V> State<K, V> {
    fn reset(&mut self) {
        self.slots.clear();
        self.entries.clear();
        self.small.clear();
        self.main.clear();
        self.ghost.clear();
        self.ghosts.clear();
    }

    /// The slot to evict from a full cache, taken out of its queue. While
    /// the small FIFO holds its share it gives up its oldest entry:
    /// to main if it was hit, else as the victim, whose hash the ghost
    /// keeps (the newest `ghost_capacity` of them). Otherwise main gives
    /// up its oldest entry: re-queued with one hit fewer if it has any,
    /// else the victim.
    fn victim(&mut self, small_capacity: usize, ghost_capacity: usize) -> usize {
        loop {
            let from_small = self.small.len() >= small_capacity;
            let queue = if from_small { &mut self.small } else { &mut self.main };
            // A full cache holds at least `small_capacity` entries, so
            // main is not empty while small is under its share.
            let slot = queue.pop_front().expect("a full cache has an entry to evict");
            let entry = &mut self.entries[slot];
            if entry.hits == 0 {
                if from_small {
                    let hash = entry.hash;
                    self.remember(hash, ghost_capacity);
                }
                return slot;
            }
            if !from_small {
                entry.hits -= 1;
            }
            self.main.push_back(slot);
        }
    }

    /// Add `hash` to the ghost, which keeps the newest `capacity` hashes.
    fn remember(&mut self, hash: u64, capacity: usize) {
        if self.ghosts.insert(hash) {
            self.ghost.push_back(hash);
        }
        while self.ghost.len() > capacity {
            let oldest = self.ghost.pop_front().expect("the ghost is over its capacity");
            self.ghosts.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::Hasher;

    /// A key whose hash is the same for every value: every entry shares
    /// one bucket, so only the full-key comparison tells them apart.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(0x8017_2218_226d_4bfd);
        }
    }

    #[test]
    fn colliding_keys_keep_their_own_values() {
        let cache: Cache<Colliding, u32> = Cache::new(8);
        for k in 0..8 {
            cache.insert(Colliding(k), k * 10);
        }
        for k in 0..8 {
            assert_eq!(cache.get(&Colliding(k)), Some(k * 10));
        }
        assert_eq!(cache.get(&Colliding(8)), None);
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn a_poisoned_cache_starts_over_empty() {
        let cache: Cache<u32, u32> = Cache::new(2);
        cache.insert(1, 1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.state.lock().unwrap();
            panic!("poison the lock");
        }));
        assert_eq!((cache.get(&1), cache.len()), (None, 0));
        cache.insert(2, 2);
        assert_eq!(cache.get(&2), Some(2));
    }

    /// Look `key` up and insert it on a miss, as the engine does; whether
    /// it hit.
    fn lookup(cache: &Cache<u32, u32>, key: u32) -> bool {
        let hit = cache.get(&key).is_some();
        if !hit {
            cache.insert(key, key);
        }
        hit
    }

    #[test]
    fn a_key_hit_once_survives_a_burst_of_one_time_keys() {
        let capacity = 64;
        let cache: Cache<u32, u32> = Cache::new(capacity);
        cache.insert(0, 0);
        assert!(cache.get(&0).is_some());
        // Recency order would evict key 0 at the last of these.
        for key in 1..=capacity as u32 {
            assert!(!lookup(&cache, key));
        }
        assert_eq!(cache.get(&0), Some(0));
        assert_eq!(cache.len(), capacity);
    }

    #[test]
    fn a_key_evicted_unhit_from_the_small_fifo_returns_to_main() {
        let capacity = 20;
        let cache: Cache<u32, u32> = Cache::new(capacity);
        for key in 0..=capacity as u32 {
            cache.insert(key, key);
        }
        // Key 0, the oldest and never hit, made room for the last key.
        assert_eq!(cache.get(&0), None);
        cache.insert(0, 0);
        let state = cache.state();
        let slot = state.slots[&0];
        assert!(state.main.contains(&slot) && !state.small.contains(&slot));
        assert_eq!(state.ghost.len(), 2, "key 0's hash and the one its return evicted");
    }

    #[test]
    fn a_cyclic_stream_of_eight_times_the_capacity_hits_under_five_percent() {
        let capacity = 256;
        let cache: Cache<u32, u32> = Cache::new(capacity);
        let keys = 8 * capacity as u32;
        let lookups = 4 * keys;
        let hits = (0..lookups).filter(|&i| lookup(&cache, i % keys)).count();
        assert!(hits * 20 < lookups as usize, "{hits} hits in {lookups} lookups");
    }

    /// `n` draws of a Zipf(1) law over ranks `0..ranks` (rank r drawn with
    /// weight 1/(r+1)), from a SplitMix64 stream seeded with `seed`.
    fn zipf(ranks: usize, n: usize, seed: u64) -> Vec<u32> {
        let mut total = 0.0;
        let cumulative: Vec<f64> = (1..=ranks)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let draw = (z >> 11) as f64 / (1u64 << 53) as f64 * total;
                cumulative.partition_point(|&c| c <= draw).min(ranks - 1) as u32
            })
            .collect()
    }

    /// Hits of a least-recently-used cache of `capacity` over `stream`.
    fn lru_hits(stream: &[u32], capacity: usize) -> usize {
        let mut last_use: HashMap<u32, usize> = HashMap::new();
        let mut by_age: BTreeMap<usize, u32> = BTreeMap::new();
        let mut hits = 0;
        for (tick, &key) in stream.iter().enumerate() {
            if let Some(previous) = last_use.insert(key, tick) {
                by_age.remove(&previous);
                hits += 1;
            } else if last_use.len() > capacity {
                let (_, oldest) = by_age.pop_first().expect("a full cache has an oldest key");
                last_use.remove(&oldest);
            }
            by_age.insert(tick, key);
        }
        hits
    }

    /// Copy-paste traffic at the service's capacity: 200k Zipf(1) lookups
    /// over the 19,812 unique snippets of a full-scale Q&A corpus. The hit
    /// count is pinned, and recency order hits less on the same stream.
    #[test]
    fn a_zipf_replay_beats_recency_order() {
        let capacity = 2048;
        let stream = zipf(19_812, 200_000, 1);
        let cache: Cache<u32, u32> = Cache::new(capacity);
        let hits = stream.iter().filter(|&&key| lookup(&cache, key)).count();
        let lru = lru_hits(&stream, capacity);
        assert_eq!((hits, lru), (149_261, 139_140));
        assert!(hits > lru, "S3-FIFO {hits} hits, LRU {lru}");
    }

    /// S3-FIFO in plain vectors, every queue ordered oldest first. Its
    /// ghost keeps keys where the cache keeps their hashes.
    struct Model {
        capacity: usize,
        small: Vec<(u8, u32, u8)>,
        main: Vec<(u8, u32, u8)>,
        ghost: Vec<u8>,
    }

    impl Model {
        fn len(&self) -> usize {
            self.small.len() + self.main.len()
        }

        fn find(&mut self, key: u8) -> Option<&mut (u8, u32, u8)> {
            self.small.iter_mut().chain(self.main.iter_mut()).find(|(k, _, _)| *k == key)
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            let entry = self.find(key)?;
            entry.2 = (entry.2 + 1).min(3);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32) {
            if self.capacity == 0 {
                return;
            }
            if let Some(entry) = self.find(key) {
                entry.1 = value;
                return;
            }
            let small_capacity = (self.capacity / 10).max(1);
            while self.len() == self.capacity {
                if self.small.len() >= small_capacity {
                    let (k, v, hits) = self.small.remove(0);
                    if hits > 0 {
                        self.main.push((k, v, hits));
                    } else {
                        if !self.ghost.contains(&k) {
                            self.ghost.push(k);
                        }
                        while self.ghost.len() > self.capacity - small_capacity {
                            self.ghost.remove(0);
                        }
                    }
                } else {
                    let (k, v, hits) = self.main.remove(0);
                    if hits > 0 {
                        self.main.push((k, v, hits - 1));
                    }
                }
            }
            if self.ghost.contains(&key) {
                self.main.push((key, value, 0));
            } else {
                self.small.push((key, value, 0));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Ops: 0 = get, 1 = insert. Capacities up to 24 give the small
        /// FIFO one or two slots; 40 keys overflow every capacity.
        #[test]
        fn agrees_with_a_model_s3_fifo(
            capacity in 0usize..=24,
            ops in proptest::collection::vec((0u8..2, 0u8..40, 0u32..1000), 0..200),
        ) {
            let cache: Cache<u8, u32> = Cache::new(capacity);
            let mut model = Model { capacity, small: Vec::new(), main: Vec::new(), ghost: Vec::new() };
            for (op, key, value) in ops {
                if op == 0 {
                    prop_assert_eq!(cache.get(&key), model.get(key));
                } else {
                    cache.insert(key, value);
                    model.insert(key, value);
                }
                prop_assert_eq!(cache.len(), model.len());
            }
        }
    }
}
