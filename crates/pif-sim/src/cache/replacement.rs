//! True least-recently-used replacement, the paper's L1-I policy (§2.1)
//! and the policy of every set-associative structure in the model.
//!
//! A set's recency order is packed into one `u64` of 4-bit way fields,
//! most-recently-used in the low nibble, so the cache stores it inline
//! in a flat array (no per-set heap object). The packing caps sets at
//! [`LruOrder::MAX_WAYS`] ways; the cache rejects wider geometries with a
//! `ConfigError`.

/// Packed LRU recency order of one cache set.
#[derive(Debug, Clone, Copy)]
pub(super) struct LruOrder(u64);

impl LruOrder {
    /// Widest set the packed word can order.
    pub(super) const MAX_WAYS: usize = 16;

    /// The order of a fresh `ways`-way set: way 0 is MRU, way
    /// `ways - 1` is LRU.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ways <= MAX_WAYS`; the cache constructor
    /// validates first.
    pub(super) fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways <= Self::MAX_WAYS,
            "packed LRU supports 1..=16 ways"
        );
        // Nibble i holds way i.
        let mut state = 0u64;
        for way in 0..ways as u64 {
            state |= way << (4 * way);
        }
        LruOrder(state)
    }

    /// Makes `way` the most recently used (demand hit or new fill).
    #[inline]
    pub(super) fn touch(&mut self, ways: usize, way: usize) {
        let state = &mut self.0;
        let w = way as u64;
        let mut pos = 0;
        while pos < ways && (*state >> (4 * pos)) & 0xF != w {
            pos += 1;
        }
        if pos == ways {
            return; // way not tracked (cannot happen under cache invariants)
        }
        // Remove the nibble at `pos`, slide lower nibbles up, insert at MRU.
        let below = *state & ((1u64 << (4 * pos)) - 1);
        let above = if 4 * (pos + 1) >= 64 {
            0
        } else {
            *state & !((1u64 << (4 * (pos + 1))) - 1)
        };
        *state = above | (below << 4) | w;
    }

    /// The least recently used way, the next to evict (the fill that
    /// follows touches it).
    #[inline]
    pub(super) fn victim(self, ways: usize) -> usize {
        ((self.0 >> (4 * (ways - 1))) & 0xF) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = LruOrder::new(3);
        s.touch(3, 0);
        s.touch(3, 1);
        s.touch(3, 2);
        assert_eq!(s.victim(3), 0);
        s.touch(3, 0); // 0 becomes MRU
        assert_eq!(s.victim(3), 1);
    }

    #[test]
    fn lru_initial_order_is_way_order() {
        // No touches: way 3 is the initial LRU.
        assert_eq!(LruOrder::new(4).victim(4), 3);
    }

    #[test]
    fn lru_victim_is_idempotent_without_touch() {
        let mut s = LruOrder::new(2);
        s.touch(2, 1);
        assert_eq!(s.victim(2), 0);
        assert_eq!(s.victim(2), 0);
    }

    #[test]
    fn lru_supports_sixteen_ways() {
        let mut s = LruOrder::new(16);
        assert_eq!(s.victim(16), 15);
        // Touch ways 15 down to 0: way 0 ends up MRU, way 15 LRU.
        for way in (0..16).rev() {
            s.touch(16, way);
        }
        assert_eq!(s.victim(16), 15);
        s.touch(16, 15);
        assert_eq!(s.victim(16), 14);
    }

    #[test]
    fn array_lru_matches_packed_lru() {
        // Oracle: the recency order as a plain MRU-first array. Drive
        // both with the same touch sequence; they must agree on the
        // victim at every step.
        for ways in [1usize, 2, 3, 7, 16] {
            let mut packed = LruOrder::new(ways);
            let mut order: Vec<usize> = (0..ways).collect();
            let mut x = 0x1234_5678_u64;
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let way = (x % ways as u64) as usize;
                packed.touch(ways, way);
                let pos = order.iter().position(|&w| w == way).expect("tracked");
                order.remove(pos);
                order.insert(0, way);
                assert_eq!(
                    packed.victim(ways),
                    order[ways - 1],
                    "ways={ways} way={way}"
                );
            }
        }
    }
}
