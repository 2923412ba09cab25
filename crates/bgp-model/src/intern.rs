//! Dictionary interning: dense `u32` ids for sparse value sets.
//!
//! The dimensional-analysis kernel (`coanalysis::analysis::fda`) works over
//! columns of *ids*, not values: every distinct value of a dimension
//! (midplane, user, project, executable, …) is mapped to its rank in the
//! sorted distinct-value set. Interning through a **sorted** dictionary —
//! rather than a hash map — is what keeps downstream reductions
//! deterministic: id order *is* value order, so "iterate the dictionary"
//! and "iterate values ascending" are the same loop, and no hash-iteration
//! order can leak into results.

/// A sorted dictionary of distinct values with dense-id lookup.
///
/// Ids are `u32` ranks into the sorted distinct-value list: `id(v)` is the
/// binary-search position of `v`, `value(id)` the inverse. Construction
/// sorts and dedups once; lookups never hash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interner<T> {
    values: Vec<T>,
}

impl<T: Ord + Copy> Interner<T> {
    /// Build a dictionary over every value yielded by `iter` (duplicates
    /// welcome; they dedup away).
    pub fn from_values<I: IntoIterator<Item = T>>(iter: I) -> Interner<T> {
        let mut values: Vec<T> = iter.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        Interner { values }
    }

    /// The dense id of `v`, if `v` is in the dictionary.
    pub fn id(&self, v: T) -> Option<u32> {
        self.values.binary_search(&v).ok().map(|i| i as u32)
    }

    /// The value behind `id`, if `id` is in range.
    pub fn value(&self, id: u32) -> Option<T> {
        self.values.get(id as usize).copied()
    }

    /// The sorted distinct values (id order).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of distinct values (= one past the largest id).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Interner<u64> {
    /// Intern a whole column at once: the dictionary of its distinct keys
    /// and each key's id, as [`Interner::from_values`] then [`Interner::id`]
    /// per key would give. Keys no larger than the column's length (or
    /// 2^16) are ranked directly through a presence table over `0..=max`;
    /// larger ones fall back to the sort and one binary search per key.
    pub fn from_column(keys: &[u64]) -> (Interner<u64>, Vec<u32>) {
        let max = keys.iter().copied().max().unwrap_or(0);
        if max >= (keys.len() as u64).max(1 << 16) {
            let dict = Interner::from_values(keys.iter().copied());
            let ids = keys.iter().map(|&k| dict.id(k).unwrap_or(0)).collect();
            return (dict, ids);
        }
        // `rank[k]`: first 1 where key `k` occurs, then its id.
        let mut rank = vec![0u32; max as usize + 1];
        for &k in keys {
            rank[k as usize] = 1;
        }
        let mut values = Vec::new();
        for (k, r) in rank.iter_mut().enumerate() {
            if *r != 0 {
                *r = values.len() as u32;
                values.push(k as u64);
            }
        }
        let ids = keys.iter().map(|&k| rank[k as usize]).collect();
        (Interner { values }, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_column_matches_per_key_lookups() {
        let small: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 97).collect();
        let large: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 97 * (1 << 40)).collect();
        for keys in [small, large, vec![3], Vec::new()] {
            let (dict, ids) = Interner::from_column(&keys);
            let want = Interner::from_values(keys.iter().copied());
            assert_eq!(dict, want);
            let want_ids: Vec<u32> = keys.iter().map(|&k| want.id(k).unwrap()).collect();
            assert_eq!(ids, want_ids);
        }
    }

    #[test]
    fn ids_are_sorted_ranks() {
        let i = Interner::from_values([30u64, 10, 20, 10, 30]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.values(), &[10, 20, 30]);
        assert_eq!(i.id(10), Some(0));
        assert_eq!(i.id(20), Some(1));
        assert_eq!(i.id(30), Some(2));
        assert_eq!(i.id(25), None);
    }

    #[test]
    fn value_inverts_id() {
        let i = Interner::from_values([5u32, 1, 9]);
        for v in [1u32, 5, 9] {
            assert_eq!(i.value(i.id(v).unwrap()), Some(v));
        }
        assert_eq!(i.value(3), None);
    }

    #[test]
    fn empty_dictionary() {
        let i: Interner<u64> = Interner::from_values([]);
        assert!(i.is_empty());
        assert_eq!(i.id(0), None);
        assert_eq!(i.value(0), None);
    }
}
