//! The service's one cache type: a full-key LRU behind the engine's
//! response cache and both front-cache tiers.
//!
//! * **Full keys.** Entries live in a std `HashMap` under its randomly
//!   seeded SipHash, so a hit compares the whole key: two inputs can share
//!   a bucket but never an answer, and a caller who cannot see the seed
//!   cannot craft collisions that cost time.
//! * **No invalidation.** Nothing empties the cache. A scan's answer is
//!   a pure function of its key, and a cached clone-check answer records
//!   how many corpus slots it covers and is completed on its next hit
//!   ([`crate::corpus_index`]), so no value goes stale.
//! * **Exact LRU order in O(1).** Entries sit in a slab `Vec` threaded by
//!   an index-linked recency list.
//!
//! The cache is off at capacity 0 and while a fault plan is armed (every
//! `get` misses, every `insert` is dropped), so chaos runs always reach
//! the real pipeline stages.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard};

/// Slab index that ends the recency list.
const NIL: usize = usize::MAX;

/// A thread-safe LRU cache keyed by the full key — see the module docs.
/// Keys are stored twice (in the map and in their slab entry), so use a
/// key whose clone shares its bytes, such as `Arc<str>`.
pub struct Lru<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

struct State<K, V> {
    slots: HashMap<K, usize>,
    entries: Vec<Entry<K, V>>,
    /// Most recently used entry, `NIL` when empty.
    head: usize,
    /// Least recently used entry: the next to evict.
    tail: usize,
}

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (0 turns it off).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            state: Mutex::new(State {
                slots: HashMap::new(),
                entries: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
        }
    }

    /// The value cached under `key`, which becomes the most recently used.
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
        state.touch(slot);
        Some(state.entries[slot].value.clone())
    }

    /// Cache `value` under `key` as the most recently used entry,
    /// evicting the least recently used one when full.
    pub fn insert(&self, key: K, value: V) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state();
        if let Some(&slot) = state.slots.get(&key) {
            state.entries[slot].value = value;
            state.touch(slot);
            return;
        }
        let entry = Entry { key: key.clone(), value, prev: NIL, next: NIL };
        let slot = if state.entries.len() < self.capacity {
            state.entries.push(entry);
            state.entries.len() - 1
        } else {
            let slot = state.tail;
            state.unlink(slot);
            let evicted = std::mem::replace(&mut state.entries[slot], entry);
            state.slots.remove(&evicted.key);
            slot
        };
        state.push_front(slot);
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

    /// The locked state. A panic under the lock may have left the list
    /// half linked, so a poisoned cache starts over empty.
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
        self.head = NIL;
        self.tail = NIL;
    }

    fn touch(&mut self, slot: usize) {
        self.unlink(slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let Entry { prev, next, .. } = self.entries[slot];
        match prev {
            NIL => self.head = next,
            prev => self.entries[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.entries[next].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.entries[slot].prev = NIL;
        self.entries[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            head => self.entries[head].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::Hasher;

    #[test]
    fn cache_evicts_least_recently_used() {
        let cache: Lru<u32, &str> = Lru::new(2);
        cache.insert(1, "one");
        cache.insert(2, "two");
        assert_eq!(cache.get(&1), Some("one")); // refresh 1 → 2 becomes LRU
        cache.insert(3, "three");
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some("one"));
        assert_eq!(cache.get(&3), Some("three"));
        assert_eq!(cache.len(), 2);
    }

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
        let cache: Lru<Colliding, u32> = Lru::new(8);
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
        let cache: Lru<u32, u32> = Lru::new(2);
        cache.insert(1, 1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.state.lock().unwrap();
            panic!("poison the lock");
        }));
        assert_eq!((cache.get(&1), cache.len()), (None, 0));
        cache.insert(2, 2);
        assert_eq!(cache.get(&2), Some(2));
    }

    /// The obvious LRU: a vector ordered from least to most recently used.
    struct Model {
        capacity: usize,
        entries: Vec<(u8, u32)>,
    }

    impl Model {
        fn get(&mut self, key: u8) -> Option<u32> {
            let at = self.entries.iter().position(|(k, _)| *k == key)?;
            let entry = self.entries.remove(at);
            self.entries.push(entry);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32) {
            if self.capacity == 0 {
                return;
            }
            if let Some(at) = self.entries.iter().position(|(k, _)| *k == key) {
                self.entries.remove(at);
            } else if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, value));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Ops: 0 = get, 1 = insert.
        #[test]
        fn agrees_with_a_model_lru(
            capacity in 0usize..=4,
            ops in proptest::collection::vec((0u8..2, 0u8..6, 0u32..1000), 0..80),
        ) {
            let cache: Lru<u8, u32> = Lru::new(capacity);
            let mut model = Model { capacity, entries: Vec::new() };
            for (op, key, value) in ops {
                if op == 0 {
                    prop_assert_eq!(cache.get(&key), model.get(key));
                } else {
                    cache.insert(key, value);
                    model.insert(key, value);
                }
                prop_assert_eq!(cache.len(), model.entries.len());
            }
        }
    }
}
