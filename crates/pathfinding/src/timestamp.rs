//! Epoch-stamped scratch arrays with O(1) logical reset.
//!
//! Maintenance algorithms run thousands of small searches per update batch.
//! Clearing a `Vec<Dist>` of `|V|` entries per search would dominate the cost
//! (a search settles a few hundred vertices, a clear touches all `|V|`), so
//! scratch state is validity-stamped instead: bumping the epoch invalidates
//! every slot at once.

/// A fixed-size array whose entries logically reset to a default in O(1).
#[derive(Debug, Clone)]
pub struct TimestampedArray<T: Copy> {
    values: Vec<T>,
    stamps: Vec<u32>,
    epoch: u32,
    default: T,
}

impl<T: Copy> TimestampedArray<T> {
    /// Create an array of `n` slots, all holding `default`.
    pub fn new(n: usize, default: T) -> Self {
        Self { values: vec![default; n], stamps: vec![0; n], epoch: 1, default }
    }

    /// Number of slots.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the array has zero slots.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Invalidate all entries (O(1) amortised; full clear on epoch wrap).
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Read slot `i`, returning the default when stale.
    #[inline(always)]
    pub fn get(&self, i: usize) -> T {
        if self.stamps[i] == self.epoch {
            self.values[i]
        } else {
            self.default
        }
    }

    /// Whether slot `i` holds a value written since the last [`reset`](Self::reset).
    #[inline(always)]
    pub fn is_set(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Write slot `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: T) {
        self.stamps[i] = self.epoch;
        self.values[i] = v;
    }

    /// Grow (or shrink) the array, invalidating all content.
    pub fn resize(&mut self, n: usize) {
        self.values.clear();
        self.values.resize(n, self.default);
        self.stamps.clear();
        self.stamps.resize(n, 0);
        self.epoch = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_until_set() {
        let mut a = TimestampedArray::new(4, u32::MAX);
        assert_eq!(a.get(2), u32::MAX);
        assert!(!a.is_set(2));
        a.set(2, 7);
        assert_eq!(a.get(2), 7);
        assert!(a.is_set(2));
    }

    #[test]
    fn reset_invalidates_everything() {
        let mut a = TimestampedArray::new(3, 0i64);
        a.set(0, 1);
        a.set(1, 2);
        a.reset();
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(1), 0);
        assert!(!a.is_set(0));
        a.set(1, 9);
        assert_eq!(a.get(1), 9);
    }

    #[test]
    fn epoch_wraparound_safe() {
        let mut a = TimestampedArray::new(2, 0u8);
        a.epoch = u32::MAX - 1;
        a.set(0, 5);
        a.reset(); // epoch == MAX
        assert!(!a.is_set(0));
        a.set(1, 6);
        a.reset(); // wraps: full stamp clear
        assert!(!a.is_set(1));
        assert_eq!(a.get(1), 0);
        a.set(0, 3);
        assert_eq!(a.get(0), 3);
    }

    #[test]
    fn resize_invalidates() {
        let mut a = TimestampedArray::new(2, -1i32);
        a.set(1, 10);
        a.resize(5);
        assert_eq!(a.len(), 5);
        assert_eq!(a.get(1), -1);
        a.set(4, 3);
        assert_eq!(a.get(4), 3);
    }

    #[test]
    fn many_reset_cycles_stay_correct() {
        let mut a = TimestampedArray::new(8, 0u32);
        for round in 1..=1000u32 {
            a.set((round % 8) as usize, round);
            assert_eq!(a.get((round % 8) as usize), round);
            a.reset();
            for i in 0..8 {
                assert!(!a.is_set(i), "slot {i} leaked at round {round}");
            }
        }
    }
}
