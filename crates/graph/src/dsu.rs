//! Union–find (disjoint-set union).

/// A union–find structure with path halving and union by size.
///
/// The Section-IV greedy connector algorithm repeatedly asks "how many
/// connected components does `G[I ∪ C]` have, and which of them touch a
/// candidate node `w`?" — `DisjointSets` answers both in near-constant
/// amortized time.
///
/// ```
/// use mcds_graph::DisjointSets;
/// let mut dsu = DisjointSets::new(4);
/// dsu.union(0, 1);
/// dsu.union(2, 3);
/// assert_eq!(dsu.num_sets(), 2);
/// assert!(dsu.same_set(0, 1));
/// assert!(!dsu.same_set(1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    num_sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the structure has no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Representative of the set containing `x` (with path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x as usize
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `true` if a merge happened (they were in different sets).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        self.num_sets -= 1;
        true
    }

    /// Makes every element a singleton again by resetting only the
    /// elements of `touched`, which must include every element that
    /// shares a set with another one (every element a union has merged
    /// since the structure was new or last reset).
    ///
    /// ```
    /// use mcds_graph::DisjointSets;
    /// let mut dsu = DisjointSets::new(6);
    /// dsu.union(4, 1);
    /// dsu.reset([1, 4]);
    /// assert_eq!(dsu.num_sets(), 6);
    /// assert!(!dsu.same_set(1, 4));
    /// ```
    pub fn reset(&mut self, touched: impl IntoIterator<Item = usize>) {
        for x in touched {
            self.parent[x] = x as u32;
            self.size[x] = 1;
        }
        self.num_sets = self.parent.len();
        debug_assert!((0..self.parent.len()).all(|x| self.parent[x] as usize == x));
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_merges() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.num_sets(), 5);
        assert_eq!(d.len(), 5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2)); // already merged
        assert_eq!(d.num_sets(), 3);
    }

    #[test]
    fn transitivity_of_same_set() {
        let mut d = DisjointSets::new(6);
        d.union(0, 1);
        d.union(2, 3);
        d.union(1, 3);
        for a in 0..4 {
            for b in 0..4 {
                assert!(d.same_set(a, b));
            }
        }
        assert!(!d.same_set(0, 4));
    }

    #[test]
    fn empty_structure() {
        let d = DisjointSets::new(0);
        assert!(d.is_empty());
        assert_eq!(d.num_sets(), 0);
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut d = DisjointSets::new(n);
        for i in 1..n {
            d.union(i - 1, i);
        }
        assert_eq!(d.num_sets(), 1);
        let r = d.find(n - 1);
        assert_eq!(d.find(0), r);
    }
}
