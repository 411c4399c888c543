//! A small bounded LRU cache and the content hasher that keys it.
//!
//! The cache holds a few dozen prepared sessions at most (32 by default),
//! so a recency-ordered `Vec` scanned linearly is both the simplest and a
//! fast enough structure: every operation touches at most `capacity`
//! entries.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a content hasher.
///
/// Deterministic across processes and platforms (unlike `DefaultHasher`,
/// whose algorithm is explicitly unspecified), so cache keys are stable
/// enough to log and compare between runs.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Starts a fresh hash.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a UTF-8 string (length-prefixed so `"ab","c"` ≠ `"a","bc"`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// Feeds an `f64` by its exact bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    /// Feeds a `usize`.
    pub fn usize(&mut self, x: usize) -> &mut Self {
        self.bytes(&(x as u64).to_le_bytes())
    }

    /// Feeds a `bool`.
    pub fn bool(&mut self, x: bool) -> &mut Self {
        self.bytes(&[u8::from(x)])
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// A bounded least-recently-used map from `u64` keys to values.
///
/// Entries sit in recency order, least recent first; a touch moves its
/// entry to the back and an insertion past `capacity` drops the front.
/// Not thread-safe by itself — the engine wraps it in a `Mutex`.
#[derive(Debug)]
pub struct Lru<V> {
    capacity: usize,
    entries: Vec<(u64, V)>,
}

impl<V: Clone> Lru<V> {
    /// Creates a cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: Vec::new(),
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<V> {
        let i = self.entries.iter().position(|&(k, _)| k == key)?;
        let entry = self.entries.remove(i);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }

    /// Inserts `key → value` as most-recently-used.
    ///
    /// If the key is already present the *existing* value wins (so
    /// concurrent builders racing on the same key converge on one shared
    /// session) and is returned. The second element reports the key an
    /// insertion evicted, if any.
    pub fn insert(&mut self, key: u64, value: V) -> (V, Option<u64>) {
        if let Some(existing) = self.get(key) {
            return (existing, None);
        }
        self.entries.push((key, value.clone()));
        let evicted = (self.entries.len() > self.capacity).then(|| self.entries.remove(0).0);
        (value, evicted)
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Keys from most- to least-recently-used (for tests and stats).
    pub fn keys(&self) -> Vec<u64> {
        self.entries.iter().rev().map(|&(k, _)| k).collect()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_deterministic_and_separates() {
        let h = |f: &dyn Fn(&mut ContentHasher)| {
            let mut hasher = ContentHasher::new();
            f(&mut hasher);
            hasher.finish()
        };
        assert_eq!(
            h(&|x| {
                x.str("abc");
            }),
            h(&|x| {
                x.str("abc");
            })
        );
        // Length prefixing keeps concatenations apart.
        assert_ne!(
            h(&|x| {
                x.str("ab").str("c");
            }),
            h(&|x| {
                x.str("a").str("bc");
            })
        );
        assert_ne!(
            h(&|x| {
                x.f64(1.0);
            }),
            h(&|x| {
                x.f64(-1.0);
            })
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(lru.get(1), Some("a"));
        let (_, evicted) = lru.insert(3, "c");
        assert_eq!(evicted, Some(2));
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(1), Some("a"));
        assert_eq!(lru.get(3), Some("c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_insert_keeps_existing_value() {
        let mut lru = Lru::new(4);
        lru.insert(7, "first");
        let (winner, evicted) = lru.insert(7, "second");
        assert_eq!(winner, "first");
        assert_eq!(evicted, None);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn lru_survives_heavy_re_touching_without_queue_growth() {
        // Many repeated gets on the same keys must still leave eviction
        // picking the true LRU entry.
        let mut lru = Lru::new(3);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(3, "c");
        for _ in 0..10_000 {
            assert_eq!(lru.get(2), Some("b"));
            assert_eq!(lru.get(3), Some("c"));
        }
        // Key 1 has not been touched since insert: it is the LRU entry.
        let (_, evicted) = lru.insert(4, "d");
        assert_eq!(evicted, Some(1));
        assert_eq!(lru.keys(), vec![4, 3, 2]);
    }

    #[test]
    fn lru_capacity_is_at_least_one() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        lru.insert(1, 1);
        let (_, evicted) = lru.insert(2, 2);
        assert_eq!(evicted, Some(1));
        assert!(!lru.is_empty());
        assert_eq!(lru.keys(), vec![2]);
        lru.clear();
        assert!(lru.is_empty());
    }
}
