//! A minimal open-addressing hash map from `u64` page numbers to `u32` slot
//! indices, specialized for the first level of the shadow tables.
//!
//! Both shadow structures look a page number up on (nearly) every access, so
//! this map is on the hottest path of the whole detector. It uses Fibonacci
//! hashing, linear probing, power-of-two capacity and no deletion (shadow
//! pages are never freed during a run), which makes a lookup a handful of
//! instructions.

const EMPTY: u32 = u32::MAX;

/// Open-addressing `u64 → u32` map without deletion.
#[derive(Clone, Debug)]
pub struct PageMap {
    /// (key, value) slots; value == EMPTY marks a free slot.
    slots: Box<[(u64, u32)]>,
    mask: usize,
    /// `64 - log2(capacity)`: Fibonacci hashing keeps the top bits.
    shift: u32,
    len: usize,
}

impl Default for PageMap {
    fn default() -> Self {
        Self::new()
    }
}

impl PageMap {
    pub fn new() -> Self {
        Self::with_capacity_pow2(64)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        PageMap {
            slots: vec![(0, EMPTY); cap].into_boxed_slice(),
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held by the slot array.
    #[inline]
    pub fn heap_bytes(&self) -> u64 {
        (self.slots.len() * std::mem::size_of::<(u64, u32)>()) as u64
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and take the top bits.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> self.shift) as usize & self.mask
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut i = self.bucket(key);
        loop {
            let (k, v) = self.slots[i];
            if v == EMPTY {
                return None;
            }
            if k == key {
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Look up `key`, inserting `make()` if absent. Returns the value.
    #[inline]
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> u32) -> u32 {
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            let (k, v) = self.slots[i];
            if v == EMPTY {
                let val = make();
                debug_assert_ne!(val, EMPTY, "EMPTY sentinel is reserved");
                self.slots[i] = (key, val);
                self.len += 1;
                return val;
            }
            if k == key {
                return v;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![(0, EMPTY); new_cap].into_boxed_slice(),
        );
        self.mask = new_cap - 1;
        self.shift -= 1;
        for (k, v) in old.iter().copied() {
            if v != EMPTY {
                let mut i = self.bucket(k);
                while self.slots[i].1 != EMPTY {
                    i = (i + 1) & self.mask;
                }
                self.slots[i] = (k, v);
            }
        }
    }

    /// Iterate over (key, value) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots.iter().copied().filter(|&(_, v)| v != EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_and_get() {
        let mut m = PageMap::new();
        assert_eq!(m.get(42), None);
        let v = m.get_or_insert_with(42, || 7);
        assert_eq!(v, 7);
        assert_eq!(m.get(42), Some(7));
        // Second insert returns the existing value.
        let v = m.get_or_insert_with(42, || 99);
        assert_eq!(v, 7);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_and_matches_reference() {
        let mut m = PageMap::new();
        let mut r = HashMap::new();
        let mut state: u64 = 1;
        for i in 0..10_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Adversarial-ish keys: clustered pages plus random spray.
            let key = if i % 3 == 0 {
                (i / 3) as u64
            } else {
                state >> 16
            };
            let v = m.get_or_insert_with(key, || i);
            let rv = *r.entry(key).or_insert(i);
            assert_eq!(v, rv, "key {key}");
        }
        assert_eq!(m.len(), r.len());
        for (&k, &v) in &r {
            assert_eq!(m.get(k), Some(v));
        }
        // Iterator yields exactly the reference contents.
        let mut got: Vec<_> = m.iter().collect();
        let mut want: Vec<_> = r.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn dense_sequential_keys() {
        let mut m = PageMap::new();
        for k in 0..5000u64 {
            m.get_or_insert_with(k, || k as u32);
        }
        for k in 0..5000u64 {
            assert_eq!(m.get(k), Some(k as u32));
        }
        assert_eq!(m.get(5000), None);
    }
}
