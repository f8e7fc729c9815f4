//! The warm session cache: live solver cores in an LRU checkout cache.
//!
//! A [`VerifySession`] owns everything expensive about a case: the DC
//! operating point, the asserted base encoding, the retained learned
//! clauses and the warmed simplex basis. The service keeps up to
//! `capacity` of them alive, keyed by `(case, topology, certify)` — the
//! three inputs that change the base encoding itself. Scenario deltas do
//! not key the cache; they are exactly what a session absorbs cheaply.
//!
//! The cache hands out *ownership* ([`SessionCache::take`] removes the
//! entry) rather than borrows: the worker that checked a session out is
//! its only user until [`SessionCache::put`] returns it. Two concurrent
//! requests for the same key therefore both make progress — the second
//! simply builds a fresh session and the put-back past capacity evicts
//! the least-recently-used entry. That trades a rebuild under contention
//! for never blocking a worker on another request's solve, and keeps
//! results independent of scheduling (a session always produces the same
//! verdict, warm or cold).

use sta_core::attack::VerifySession;
use sta_smt::CertifyLevel;

/// What a cached session is keyed by: case name (or case-file path),
/// topology-attack encoding, certification level.
pub type SessionKey = (String, bool, CertifyLevel);

/// An LRU checkout cache of live [`VerifySession`]s.
#[derive(Debug)]
pub struct SessionCache {
    /// LRU order: index 0 is the least recently used entry, the back is
    /// the most recent. Linear scans are fine — capacity is single-digit
    /// to low-double-digit (one entry per distinct case configuration).
    entries: Vec<(SessionKey, VerifySession)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (at least one).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Checks the session for `key` out of the cache, transferring
    /// ownership to the caller. Counts a hit or a miss; a miss means the
    /// caller builds a cold session and [`SessionCache::put`]s it back
    /// after use.
    pub fn take(&mut self, key: &SessionKey) -> Option<VerifySession> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.hits += 1;
                Some(self.entries.remove(i).1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns a session to the cache as the most recently used entry,
    /// evicting from the LRU end once past capacity. A session already
    /// cached under the same key (a concurrent rebuild raced this one) is
    /// replaced rather than duplicated.
    pub fn put(&mut self, key: SessionKey, session: VerifySession) {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push((key, session));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
    }

    /// Sessions currently resident (checked-out sessions are not counted).
    pub fn live(&self) -> usize {
        self.entries.len()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Checkouts that found a warm session.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checkouts that found nothing and forced a cold build.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sessions dropped by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The resident keys in LRU→MRU order (test observability).
    pub fn keys(&self) -> Vec<SessionKey> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_grid::ieee14;

    fn key(name: &str) -> SessionKey {
        (name.to_string(), false, CertifyLevel::Off)
    }

    fn session() -> VerifySession {
        let sys = ieee14::system();
        VerifySession::new(&sys, false).unwrap()
    }

    #[test]
    fn take_put_counts_and_recovers_the_same_session() {
        let mut cache = SessionCache::new(2);
        assert!(cache.take(&key("a")).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.put(key("a"), session());
        assert_eq!(cache.live(), 1);
        assert!(cache.take(&key("a")).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The session is checked out, not resident.
        assert_eq!(cache.live(), 0);
    }

    #[test]
    fn put_evicts_in_lru_order() {
        let mut cache = SessionCache::new(2);
        cache.put(key("a"), session());
        cache.put(key("b"), session());
        // Touch "a": it becomes most recent, so "b" is now the LRU.
        let s = cache.take(&key("a")).expect("warm");
        cache.put(key("a"), s);
        cache.put(key("c"), session());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(
            cache.keys(),
            vec![key("a"), key("c")],
            "the untouched \"b\" must be the evicted entry"
        );
    }

    #[test]
    fn capacity_one_thrashes_but_never_grows() {
        let mut cache = SessionCache::new(1);
        for name in ["a", "b", "a", "b"] {
            assert!(cache.take(&key(name)).is_none(), "capacity 1 alternation never hits");
            cache.put(key(name), session());
            assert_eq!(cache.live(), 1);
        }
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn same_key_put_replaces_not_duplicates() {
        let mut cache = SessionCache::new(4);
        cache.put(key("a"), session());
        cache.put(key("a"), session());
        assert_eq!(cache.live(), 1);
        assert_eq!(cache.evictions(), 0);
    }
}
