//! Order-statistics multiset of per-flow rate caps.
//!
//! The max–min fair allocation over a shared link reduces to finding the
//! *water level* `w` with `Σ min(cᵢ, w) = C`: flows whose cap is below the
//! level are frozen at their cap, everyone else shares the rest equally.
//! The progressive-filling formulation recomputes that from scratch in
//! O(n²); this structure answers it in O(log n) by keeping the caps of all
//! active flows in a balanced search tree whose nodes carry subtree counts
//! and subtree cap-sums, so prefix sums `S(≤ c)` and prefix counts
//! `cnt(≤ c)` are available along any root-to-leaf path.
//!
//! The tree is a treap whose priorities are a hash of the key itself, which
//! makes the shape a pure function of the *set* of caps — independent of
//! insertion order — so every float accumulation over the tree is
//! bit-reproducible across runs, thread counts and op interleavings.
//!
//! Caps are keyed by their IEEE-754 bit pattern.  All stored caps are
//! finite and non-negative, for which the bit order coincides with the
//! numeric order; callers keep infinite caps (flows that can never be
//! individually limited) out of the tree and pass their count to
//! [`CapMultiset::water_level`] instead.

/// Sentinel for "no child".
const NIL: u32 = u32::MAX;

/// Deterministic 64-bit mix (splitmix64 finalizer) used for treap
/// priorities.  Depends only on the key, never on insertion history.
fn priority_of(key_bits: u64) -> u64 {
    let mut x = key_bits.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Clone)]
struct Node {
    /// Cap value as non-negative finite f64 bits (bit order == numeric order).
    key_bits: u64,
    priority: u64,
    /// Multiplicity of this exact cap value.
    count: u64,
    left: u32,
    right: u32,
    /// Number of caps in this subtree (with multiplicity).
    total_count: u64,
    /// Sum of cap values in this subtree (with multiplicity).
    total_sum: f64,
}

/// A multiset of finite non-negative caps with O(log n) insert, remove and
/// water-level queries.
///
/// # Examples
///
/// ```
/// use mfc_simnet::capset::CapMultiset;
///
/// let mut caps = CapMultiset::new();
/// caps.insert(100.0);
/// caps.insert(100.0);
/// caps.insert(900.0);
/// // 1000 B/s split over the three flows: the two 100 B/s caps saturate,
/// // the third flow takes the remaining 800 B/s (its cap exceeds that).
/// assert_eq!(caps.water_level(1_000.0, 3), 800.0);
/// ```
#[derive(Debug, Clone)]
pub struct CapMultiset {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
}

impl Default for CapMultiset {
    // Not derivable: an empty tree's root is the NIL sentinel, not 0.
    fn default() -> Self {
        CapMultiset::new()
    }
}

impl CapMultiset {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        CapMultiset {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }

    /// Number of caps stored (with multiplicity).
    pub fn len(&self) -> u64 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].total_count
        }
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Sum of all stored caps (with multiplicity).
    pub fn sum(&self) -> f64 {
        if self.root == NIL {
            0.0
        } else {
            self.nodes[self.root as usize].total_sum
        }
    }

    /// Inserts one instance of `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not finite or is negative (infinite caps belong in
    /// the caller's uncapped count, not in the tree).
    pub fn insert(&mut self, cap: f64) {
        assert!(
            cap.is_finite() && cap >= 0.0,
            "cap must be finite and non-negative, got {cap}"
        );
        self.root = self.insert_at(self.root, cap.to_bits());
    }

    /// Removes one instance of `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not present.
    pub fn remove(&mut self, cap: f64) {
        self.root = self.remove_at(self.root, cap.to_bits());
    }

    /// Computes the max–min water level for a link of `capacity` bytes/s
    /// shared by `flow_count` flows: the caps in this multiset plus
    /// `flow_count - len()` flows with no individual cap.  Every flow whose
    /// cap is at or below the level runs at its cap; the others run at the
    /// level.  `f64::INFINITY` when every flow is capped below its share
    /// (the link has spare capacity and nobody can use it).
    ///
    /// # Panics
    ///
    /// Panics if `flow_count` is smaller than the number of stored caps.
    pub fn water_level(&self, capacity: f64, flow_count: u64) -> f64 {
        assert!(
            flow_count >= self.len(),
            "flow_count {flow_count} below stored cap count {}",
            self.len()
        );
        // Descend for the largest cap c with F(c) = S(<c) + c·(n − cnt(<c))
        // ≤ capacity, i.e. the largest cap that stays saturated.  F is
        // monotone in c, so this is a standard partition-point walk; the
        // count and sum of the saturated caps accumulate along the path in
        // a fixed order, which keeps the float result deterministic.
        let n = flow_count;
        let mut node = self.root;
        let mut saturated_count = 0u64;
        let mut saturated_sum = 0.0f64;
        while node != NIL {
            let nd = &self.nodes[node as usize];
            let (lc, ls) = self.child_aggregates(nd.left);
            let count_below = saturated_count + lc;
            let sum_below = saturated_sum + ls;
            let c = f64::from_bits(nd.key_bits);
            let f = sum_below + c * (n - count_below) as f64;
            if f <= capacity {
                saturated_count = count_below + nd.count;
                saturated_sum = sum_below + c * nd.count as f64;
                node = nd.right;
            } else {
                node = nd.left;
            }
        }
        if saturated_count >= n {
            f64::INFINITY
        } else {
            (capacity - saturated_sum) / (n - saturated_count) as f64
        }
    }

    /// Count and sum of all caps `<=` the cap encoded by `cap_bits`
    /// (IEEE-754 bit pattern of a finite non-negative f64).  O(log n), with
    /// the same fixed root-to-leaf accumulation order as
    /// [`CapMultiset::water_level`], so the float result is reproducible.
    ///
    /// This is the building block the multi-link network allocator uses: a
    /// link's *demand* at a candidate water level `w` is
    /// `sum(<=w) + w·(flows − count(<=w))`, and the allocator evaluates it
    /// across every route sharing the link.
    pub fn prefix(&self, cap_bits: u64) -> (u64, f64) {
        let mut node = self.root;
        let mut count = 0u64;
        let mut sum = 0.0f64;
        while node != NIL {
            let nd = &self.nodes[node as usize];
            if nd.key_bits <= cap_bits {
                let (lc, ls) = self.child_aggregates(nd.left);
                count += lc + nd.count;
                sum += ls + f64::from_bits(nd.key_bits) * nd.count as f64;
                node = nd.right;
            } else {
                node = nd.left;
            }
        }
        (count, sum)
    }

    /// Largest stored cap (bit pattern) for which the monotone predicate
    /// holds, or `None` when it holds for no stored cap.  `pred` must be
    /// monotone decreasing in the cap (true for small caps, false beyond
    /// some threshold) — exactly the shape of "is this cap still saturated
    /// at the link's water level".  O(log n) predicate evaluations.
    pub fn partition_max(&self, mut pred: impl FnMut(f64) -> bool) -> Option<u64> {
        let mut node = self.root;
        let mut best = None;
        while node != NIL {
            let nd = &self.nodes[node as usize];
            if pred(f64::from_bits(nd.key_bits)) {
                best = Some(nd.key_bits);
                node = nd.right;
            } else {
                node = nd.left;
            }
        }
        best
    }

    fn child_aggregates(&self, node: u32) -> (u64, f64) {
        if node == NIL {
            (0, 0.0)
        } else {
            let nd = &self.nodes[node as usize];
            (nd.total_count, nd.total_sum)
        }
    }

    fn alloc(&mut self, key_bits: u64) -> u32 {
        let node = Node {
            key_bits,
            priority: priority_of(key_bits),
            count: 1,
            left: NIL,
            right: NIL,
            total_count: 1,
            total_sum: f64::from_bits(key_bits),
        };
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn update(&mut self, node: u32) {
        let (left, right, key_bits, count) = {
            let nd = &self.nodes[node as usize];
            (nd.left, nd.right, nd.key_bits, nd.count)
        };
        let (lc, ls) = self.child_aggregates(left);
        let (rc, rs) = self.child_aggregates(right);
        let nd = &mut self.nodes[node as usize];
        nd.total_count = lc + count + rc;
        // Fixed left-to-right accumulation order: the tree shape is a pure
        // function of the key set, so this sum is reproducible.
        nd.total_sum = ls + f64::from_bits(key_bits) * count as f64 + rs;
    }

    fn rotate_right(&mut self, node: u32) -> u32 {
        let pivot = self.nodes[node as usize].left;
        self.nodes[node as usize].left = self.nodes[pivot as usize].right;
        self.nodes[pivot as usize].right = node;
        self.update(node);
        self.update(pivot);
        pivot
    }

    fn rotate_left(&mut self, node: u32) -> u32 {
        let pivot = self.nodes[node as usize].right;
        self.nodes[node as usize].right = self.nodes[pivot as usize].left;
        self.nodes[pivot as usize].left = node;
        self.update(node);
        self.update(pivot);
        pivot
    }

    fn insert_at(&mut self, node: u32, key_bits: u64) -> u32 {
        if node == NIL {
            return self.alloc(key_bits);
        }
        let node_key = self.nodes[node as usize].key_bits;
        let mut node = node;
        if key_bits == node_key {
            self.nodes[node as usize].count += 1;
        } else if key_bits < node_key {
            let child = self.insert_at(self.nodes[node as usize].left, key_bits);
            self.nodes[node as usize].left = child;
            if self.nodes[child as usize].priority > self.nodes[node as usize].priority {
                node = self.rotate_right(node);
                self.update(node);
                return node;
            }
        } else {
            let child = self.insert_at(self.nodes[node as usize].right, key_bits);
            self.nodes[node as usize].right = child;
            if self.nodes[child as usize].priority > self.nodes[node as usize].priority {
                node = self.rotate_left(node);
                self.update(node);
                return node;
            }
        }
        self.update(node);
        node
    }

    fn remove_at(&mut self, node: u32, key_bits: u64) -> u32 {
        assert!(node != NIL, "cap not present in multiset");
        let node_key = self.nodes[node as usize].key_bits;
        if key_bits < node_key {
            let child = self.remove_at(self.nodes[node as usize].left, key_bits);
            self.nodes[node as usize].left = child;
        } else if key_bits > node_key {
            let child = self.remove_at(self.nodes[node as usize].right, key_bits);
            self.nodes[node as usize].right = child;
        } else {
            if self.nodes[node as usize].count > 1 {
                self.nodes[node as usize].count -= 1;
                self.update(node);
                return node;
            }
            let (left, right) = {
                let nd = &self.nodes[node as usize];
                (nd.left, nd.right)
            };
            self.free.push(node);
            return self.merge(left, right);
        }
        self.update(node);
        node
    }

    /// Merges two subtrees where every key in `a` is below every key in `b`.
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].priority > self.nodes[b as usize].priority {
            let merged = self.merge(self.nodes[a as usize].right, b);
            self.nodes[a as usize].right = merged;
            self.update(a);
            a
        } else {
            let merged = self.merge(a, self.nodes[b as usize].left);
            self.nodes[b as usize].left = merged;
            self.update(b);
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force water level over a plain sorted Vec, for cross-checking.
    fn naive_water(caps: &[f64], capacity: f64, flow_count: u64) -> f64 {
        let mut sorted = caps.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = flow_count;
        let mut k = 0u64;
        let mut s = 0.0;
        for &c in &sorted {
            // c saturated iff Σ min(cᵢ, c) ≤ capacity.
            let f: f64 = sorted.iter().map(|&x| x.min(c)).sum::<f64>()
                + c * (n - sorted.len() as u64) as f64;
            if f <= capacity {
                k += 1;
                s += c;
            } else {
                break;
            }
        }
        if k >= n {
            f64::INFINITY
        } else {
            (capacity - s) / (n - k) as f64
        }
    }

    #[test]
    fn empty_set_has_equal_shares() {
        let caps = CapMultiset::new();
        assert_eq!(caps.water_level(1_000.0, 4), 250.0);
    }

    #[test]
    fn all_caps_saturated_leaves_infinite_level() {
        let mut caps = CapMultiset::new();
        caps.insert(10.0);
        caps.insert(20.0);
        assert_eq!(caps.water_level(1_000.0, 2), f64::INFINITY);
    }

    #[test]
    fn no_cap_saturated_when_share_is_tiny() {
        let mut caps = CapMultiset::new();
        caps.insert(500.0);
        caps.insert(600.0);
        // 100 B/s over two flows: share 50 each, below both caps.
        assert_eq!(caps.water_level(100.0, 2), 50.0);
    }

    #[test]
    fn duplicates_count_with_multiplicity() {
        let mut caps = CapMultiset::new();
        for _ in 0..5 {
            caps.insert(100.0);
        }
        assert_eq!(caps.len(), 5);
        assert_eq!(caps.sum(), 500.0);
        caps.remove(100.0);
        assert_eq!(caps.len(), 4);
        // Four capped flows at 100, two uncapped sharing 600.
        assert_eq!(caps.water_level(1_000.0, 6), 300.0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn removing_missing_cap_panics() {
        let mut caps = CapMultiset::new();
        caps.insert(1.0);
        caps.remove(2.0);
    }

    #[test]
    fn matches_naive_water_level_on_random_sets() {
        // Deterministic LCG; no external rand in this workspace.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..200 {
            let mut caps = CapMultiset::new();
            let mut mirror = Vec::new();
            let len = (next() * 40.0) as usize;
            for _ in 0..len {
                // Quantize so duplicates occur.
                let cap = (next() * 20.0).floor() * 50.0;
                caps.insert(cap);
                mirror.push(cap);
            }
            let extra = (next() * 5.0) as u64;
            let capacity = next() * 10_000.0 + 1.0;
            let n = mirror.len() as u64 + extra;
            let level = caps.water_level(capacity, n);
            let expect = naive_water(&mirror, capacity, n);
            if expect.is_finite() {
                assert!((level - expect).abs() < 1e-6, "case {case}");
            } else {
                assert_eq!(level, f64::INFINITY, "case {case}");
            }
            // Remove half and re-check internal consistency.
            for cap in mirror.iter().step_by(2) {
                caps.remove(*cap);
            }
            let remaining: Vec<f64> = mirror.iter().skip(1).step_by(2).copied().collect();
            assert_eq!(caps.len(), remaining.len() as u64);
            let sum: f64 = remaining.iter().sum();
            assert!((caps.sum() - sum).abs() < 1e-6);
        }
    }

    #[test]
    fn prefix_matches_linear_scan() {
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for case in 0..100 {
            let mut caps = CapMultiset::new();
            let mut mirror = Vec::new();
            for _ in 0..(next() * 50.0) as usize {
                let cap = (next() * 12.0).floor() * 25.0;
                caps.insert(cap);
                mirror.push(cap);
            }
            for _ in 0..8 {
                let probe = next() * 400.0;
                let (count, sum) = caps.prefix(probe.to_bits());
                let expect_count = mirror.iter().filter(|&&c| c <= probe).count() as u64;
                let expect_sum: f64 = mirror.iter().filter(|&&c| c <= probe).sum();
                assert_eq!(count, expect_count, "case {case}");
                assert!((sum - expect_sum).abs() < 1e-6, "case {case}");
            }
        }
    }

    #[test]
    fn partition_max_finds_the_monotone_threshold() {
        let mut caps = CapMultiset::new();
        for c in [10.0, 20.0, 30.0, 40.0, 50.0] {
            caps.insert(c);
        }
        assert_eq!(
            caps.partition_max(|c| c <= 35.0),
            Some(30.0f64.to_bits()),
            "largest stored cap at or below the threshold"
        );
        assert_eq!(caps.partition_max(|c| c <= 5.0), None);
        assert_eq!(caps.partition_max(|_| true), Some(50.0f64.to_bits()));
        assert_eq!(CapMultiset::new().partition_max(|_| true), None);
    }

    #[test]
    fn shape_is_independent_of_insertion_order() {
        let mut a = CapMultiset::new();
        let mut b = CapMultiset::new();
        let values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        for &v in &values {
            a.insert(v);
        }
        for &v in values.iter().rev() {
            b.insert(v);
        }
        // Same set => same deterministic shape => bit-identical aggregates.
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        assert_eq!(
            a.water_level(20.0, 7).to_bits(),
            b.water_level(20.0, 7).to_bits()
        );
    }
}
