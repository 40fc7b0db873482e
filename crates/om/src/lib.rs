//! Order-maintenance (OM) lists.
//!
//! An order-maintenance list supports three operations:
//!
//! * [`OmList::insert_first`] — seed an empty list with its first element,
//! * [`OmList::insert_after`] — insert a new element immediately after an
//!   existing one,
//! * [`OmList::precedes`] — ask whether element `a` comes before element `b`
//!   in the list, in O(1).
//!
//! This is the substrate underneath SP-Order reachability [Bender et al.,
//! SPAA 2004]: SP-Order maintains two OM lists (the *English* and *Hebrew*
//! orders) and answers series/parallel queries about strands with two O(1)
//! order queries.
//!
//! # Implementation
//!
//! We use the classic *list-labelling* scheme ("Two Simplified Algorithms for
//! Maintaining Order in a List", Bender, Cole, Demaine, Farach-Colton, Zito,
//! ESA 2002): every element carries a 64-bit *tag* and order queries compare
//! tags. Insertion between two elements picks the midpoint tag; when no tag is
//! available the smallest enclosing power-of-two tag range whose *density* is
//! below a geometrically decreasing threshold is relabelled uniformly. This
//! gives O(log n) amortized insertion and O(1) queries (the OM lists are
//! never the bottleneck — see the `om` Criterion bench).
//!
//! Elements are never removed (SP-Order never deletes strands), so node
//! handles are plain indices into an arena and stay valid for the lifetime of
//! the list.
//!
//! # Fault injection & exhaustion
//!
//! Constructors sample the process-wide [`stint_faults`] plan: `om-tags=N`
//! narrows the tag universe to `2^N` tags (forcing the relabelling machinery
//! to work at toy scales) and `om-storm=N` forces a relabel pass every ~N
//! insertions. When even a full-universe relabel cannot restore the spacing
//! an insertion needs, the list is genuinely out of tags; instead of looping
//! forever it raises [`stint_faults::DetectorError::ResourceExhausted`] as a
//! typed panic payload, which the panic-safe detection session upstream
//! converts into a structured error.

/// Handle to an element of an [`OmList`].
///
/// Handles are only meaningful for the list that created them; they remain
/// valid forever (elements are never removed).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct OmNode(u32);

impl OmNode {
    /// Arena index of this node (stable for the lifetime of the list).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const NIL: u32 = u32::MAX;

// Observability (all no-ops costing one relaxed load while `stint-obs` is
// disabled). `om.occupancy_permille` tracks the high-water fill of the tag
// space against the `max_tag / 4` spacing capacity at which the universe is
// declared exhausted.
static OBS_INSERTS: stint_obs::Counter = stint_obs::Counter::new("om.inserts");
static OBS_LEN: stint_obs::Gauge = stint_obs::Gauge::new("om.len");
static OBS_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("om.bytes");
static OBS_RELABELS: stint_obs::Counter = stint_obs::Counter::new("om.relabels");
static OBS_RELABEL_MOVED: stint_obs::Counter = stint_obs::Counter::new("om.relabel_moved");
static OBS_FULL_RELABELS: stint_obs::Counter = stint_obs::Counter::new("om.full_relabels");
static OBS_STORM_RELABELS: stint_obs::Counter = stint_obs::Counter::new("om.storm_relabels");
static OBS_OCCUPANCY: stint_obs::Counter = stint_obs::Counter::new("om.occupancy_permille");
static OBS_RELABEL_WIDTH: stint_obs::Histogram = stint_obs::Histogram::new("om.relabel_width");

/// Density threshold ratio: a tag range of size 2^i may be relabelled into
/// when it holds at most `2^i * TAU^i` elements. `TAU = 3/4` is the standard
/// choice (any value in (1/2, 1) works; smaller values relabel more eagerly
/// but leave larger gaps).
const TAU: f64 = 0.75;

#[derive(Clone, Debug)]
struct Node {
    tag: u64,
    prev: u32,
    next: u32,
}

/// An order-maintenance list over an internal arena.
///
/// ```
/// use stint_om::OmList;
///
/// let mut list = OmList::new();
/// let a = list.insert_first();
/// let c = list.insert_after(a);
/// let b = list.insert_after(a); // squeezes between a and c
/// assert!(list.precedes(a, b));
/// assert!(list.precedes(b, c));
/// assert!(!list.precedes(c, a));
/// ```
#[derive(Debug)]
pub struct OmList {
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    /// Number of relabelling passes performed (exposed for benchmarking the
    /// amortization claim).
    relabels: u64,
    /// Total number of nodes moved across all relabelling passes.
    relabel_moved: u64,
    /// Top of the tag universe (`u64::MAX` normally; smaller under an
    /// `om-tags` fault plan, which shrinks the universe to `2^bits - 1`).
    max_tag: u64,
    /// Bits in the tag universe (64 normally); bounds the relabel levels.
    tag_bits: u32,
    /// Forced-relabel period (`om-storm` fault); 0 when disabled.
    storm_period: u64,
    /// Insertions until the next forced relabel (seed-derived phase).
    storm_countdown: u64,
    /// Bytes/elements last reported to the `om.bytes`/`om.len` gauges (zero
    /// while obs is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
    owned_len: u64,
}

impl Default for OmList {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for OmList {
    fn clone(&self) -> Self {
        // A clone owns fresh heap storage, so it starts with nothing
        // reported and publishes its own footprint — copying the `owned_*`
        // shadows would make the clone's drop subtract bytes it never added.
        let mut l = OmList {
            nodes: self.nodes.clone(),
            head: self.head,
            tail: self.tail,
            relabels: self.relabels,
            relabel_moved: self.relabel_moved,
            max_tag: self.max_tag,
            tag_bits: self.tag_bits,
            storm_period: self.storm_period,
            storm_countdown: self.storm_countdown,
            owned_bytes: 0,
            owned_len: 0,
        };
        l.note_mem();
        l
    }
}

impl Drop for OmList {
    fn drop(&mut self) {
        OBS_LEN.reconcile(&mut self.owned_len, 0);
        OBS_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl OmList {
    /// Create an empty list. Samples the installed fault plan (if any), so
    /// plans must be installed before the structures they should affect are
    /// built.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty list with capacity for `n` elements.
    pub fn with_capacity(n: usize) -> Self {
        let mut l = OmList {
            nodes: Vec::with_capacity(n),
            head: NIL,
            tail: NIL,
            relabels: 0,
            relabel_moved: 0,
            max_tag: u64::MAX,
            tag_bits: 64,
            storm_period: 0,
            storm_countdown: 0,
            owned_bytes: 0,
            owned_len: 0,
        };
        if stint_faults::is_active() {
            if let Some(bits) = stint_faults::om_tag_bits() {
                l.set_tag_bits(bits);
            }
            if let Some((period, phase)) = stint_faults::om_relabel_storm() {
                l.storm_period = period;
                l.storm_countdown = phase;
            }
        }
        l
    }

    /// Create an empty list with a narrowed tag universe of `2^bits` tags,
    /// independent of any fault plan (used by tests to drive the relabel and
    /// exhaustion paths directly).
    pub fn with_tag_bits(bits: u32) -> Self {
        let mut l = Self::with_capacity(0);
        l.set_tag_bits(bits);
        l
    }

    fn set_tag_bits(&mut self, bits: u32) {
        assert!((4..=64).contains(&bits), "tag bits must be in 4..=64");
        self.tag_bits = bits;
        self.max_tag = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
    }

    /// Bits in this list's tag universe (64 unless narrowed by a fault).
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Number of elements in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the list has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of relabelling passes performed so far.
    pub fn relabels(&self) -> u64 {
        self.relabels
    }

    /// Total number of node moves across all relabelling passes.
    pub fn relabel_moved(&self) -> u64 {
        self.relabel_moved
    }

    /// Insert the first element into an empty list.
    ///
    /// # Panics
    /// Panics if the list is not empty.
    pub fn insert_first(&mut self) -> OmNode {
        assert!(self.is_empty(), "insert_first on non-empty OmList");
        let idx = self.alloc(self.max_tag / 2 + 1, NIL, NIL);
        self.head = idx;
        self.tail = idx;
        OmNode(idx)
    }

    /// Insert a new element immediately after `x` and return its handle.
    pub fn insert_after(&mut self, x: OmNode) -> OmNode {
        let xi = x.0;
        debug_assert!((xi as usize) < self.nodes.len(), "foreign OmNode");
        // `om-storm` fault: periodically force a relabel pass even when the
        // midpoint insertion would have succeeded, exercising the relabel
        // machinery under load. One predictable branch when disabled.
        if self.storm_period != 0 {
            if self.storm_countdown == 0 {
                self.storm_countdown = self.storm_period;
                OBS_STORM_RELABELS.incr();
                stint_obs::event("fault.om_storm");
                self.relabel_around(xi);
            } else {
                self.storm_countdown -= 1;
            }
        }
        loop {
            let xt = self.nodes[xi as usize].tag;
            let ni = self.nodes[xi as usize].next;
            if ni == NIL {
                // Insert after the last element: take the midpoint between
                // x's tag and the end of the tag universe.
                let gap = self.max_tag - xt;
                if gap >= 2 {
                    let idx = self.alloc(xt + gap / 2, xi, NIL);
                    self.nodes[xi as usize].next = idx;
                    self.tail = idx;
                    return OmNode(idx);
                }
            } else {
                let nt = self.nodes[ni as usize].tag;
                debug_assert!(nt > xt);
                let gap = nt - xt;
                if gap >= 2 {
                    let idx = self.alloc(xt + gap / 2, xi, ni);
                    self.nodes[xi as usize].next = idx;
                    self.nodes[ni as usize].prev = idx;
                    return OmNode(idx);
                }
            }
            // No room: relabel the neighbourhood of x and retry.
            self.relabel_around(xi);
        }
    }

    /// True if `a` strictly precedes `b` in the list. O(1).
    #[inline]
    pub fn precedes(&self, a: OmNode, b: OmNode) -> bool {
        self.nodes[a.0 as usize].tag < self.nodes[b.0 as usize].tag
    }

    /// The current tag of `x` (exposed for tests and debugging; tags change
    /// across insertions, only their relative order is meaningful).
    pub fn tag(&self, x: OmNode) -> u64 {
        self.nodes[x.0 as usize].tag
    }

    /// Iterate over the elements of the list in order.
    pub fn iter(&self) -> impl Iterator<Item = OmNode> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let out = OmNode(cur);
                cur = self.nodes[cur as usize].next;
                Some(out)
            }
        })
    }

    /// Heap bytes currently owned by the node arena.
    pub fn heap_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<Node>()) as u64
    }

    /// Publish the arena's live footprint to the `om.*` gauges (no-op while
    /// obs is disabled; the `owned_*` shadows stay untouched so a mid-life
    /// enable can't underflow).
    #[inline]
    fn note_mem(&mut self) {
        let (len, bytes) = (self.nodes.len() as u64, self.heap_bytes());
        OBS_LEN.reconcile(&mut self.owned_len, len);
        OBS_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    #[inline]
    fn alloc(&mut self, tag: u64, prev: u32, next: u32) -> u32 {
        let idx = self.nodes.len();
        assert!(idx < NIL as usize, "OmList capacity exceeded (u32 indices)");
        self.nodes.push(Node { tag, prev, next });
        if stint_obs::is_enabled() {
            OBS_INSERTS.incr();
            self.note_mem();
        }
        idx as u32
    }

    /// Fill of the tag space in permille of the `max_tag / 4` spacing
    /// capacity at which a full-universe relabel declares exhaustion.
    fn occupancy_permille(&self) -> u64 {
        let capacity = (self.max_tag / 4).max(1);
        ((self.nodes.len() as u128 * 1000) / capacity as u128).min(1000) as u64
    }

    /// Relabel the smallest tag range enclosing `x` whose density is below the
    /// level threshold, spreading its elements uniformly.
    fn relabel_around(&mut self, xi: u32) {
        let xt = self.nodes[xi as usize].tag;
        for level in 1..self.tag_bits {
            let size: u64 = 1 << level;
            let min = xt & !(size - 1);
            let max = min + (size - 1);
            // Walk to the leftmost node inside [min, max].
            let mut left = xi;
            loop {
                let p = self.nodes[left as usize].prev;
                if p == NIL || self.nodes[p as usize].tag < min {
                    break;
                }
                left = p;
            }
            // Count nodes inside the range (and detect overflow of the count
            // relative to the density threshold as early as possible).
            //
            // Two conditions must hold for the range to "fit":
            // * the amortization density bound `count <= size * TAU^level`;
            // * spacing `size / count >= 4`, which guarantees that after the
            //   uniform redistribution every node — including the last one,
            //   whose successor may lie *outside* the range or be the virtual
            //   end of the tag universe (u64::MAX) — keeps a gap of at least
            //   2 to its successor, so the retried insertion succeeds.
            //   (Without the spacing bound, a tail node sitting at the very
            //   top of the universe is "relabelled" to its own tag forever.)
            let threshold = ((size as f64) * TAU.powi(level as i32)).min(size as f64 / 4.0);
            let mut count: u64 = 0;
            let mut cur = left;
            let mut fits = true;
            while cur != NIL && self.nodes[cur as usize].tag <= max {
                count += 1;
                if (count as f64) > threshold {
                    fits = false;
                    break;
                }
                cur = self.nodes[cur as usize].next;
            }
            if !fits {
                continue;
            }
            debug_assert!(count >= 1);
            // Spread the `count` nodes uniformly across [min, min+size).
            self.relabels += 1;
            self.relabel_moved += count;
            if stint_obs::is_enabled() {
                OBS_RELABELS.incr();
                OBS_RELABEL_MOVED.add(count);
                OBS_RELABEL_WIDTH.observe(count);
                OBS_OCCUPANCY.record_max(self.occupancy_permille());
            }
            let mut cur = left;
            for j in 0..count {
                let t = min + ((j as u128 * size as u128) / count as u128) as u64;
                self.nodes[cur as usize].tag = t;
                cur = self.nodes[cur as usize].next;
            }
            return;
        }
        // Fall back to relabelling the entire list across the full universe.
        // The same spacing bound as above applies: the uniform spread only
        // guarantees the retried insertion succeeds if every node gets a gap
        // of at least 4 tags. Below that the universe is genuinely exhausted
        // — raise the structured error instead of retrying forever (the
        // insert/relabel retry loop would otherwise spin).
        let n = self.nodes.len() as u64;
        if n >= self.max_tag / 4 {
            OBS_OCCUPANCY.record_max(1000);
            stint_obs::event("fault.om_tags_exhausted");
            stint_faults::DetectorError::ResourceExhausted {
                resource: stint_faults::Resource::OmTags,
                limit: self.max_tag,
                at_word: None,
            }
            .raise();
        }
        self.relabels += 1;
        self.relabel_moved += n;
        if stint_obs::is_enabled() {
            OBS_RELABELS.incr();
            OBS_FULL_RELABELS.incr();
            OBS_RELABEL_MOVED.add(n);
            OBS_RELABEL_WIDTH.observe(n);
            OBS_OCCUPANCY.record_max(self.occupancy_permille());
        }
        let mut cur = self.head;
        let mut j: u64 = 0;
        while cur != NIL {
            let t = ((j as u128 * self.max_tag as u128) / n as u128) as u64;
            self.nodes[cur as usize].tag = t;
            j += 1;
            cur = self.nodes[cur as usize].next;
        }
    }

    /// Internal consistency check: links and tags agree and tags are strictly
    /// increasing. Used by tests.
    pub fn check_invariants(&self) {
        if self.head == NIL {
            assert!(self.nodes.is_empty());
            return;
        }
        let mut cur = self.head;
        let mut prev = NIL;
        let mut last_tag: Option<u64> = None;
        let mut seen = 0usize;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            assert_eq!(n.prev, prev, "prev link broken at {cur}");
            if let Some(t) = last_tag {
                assert!(n.tag > t, "tags not strictly increasing at {cur}");
            }
            last_tag = Some(n.tag);
            prev = cur;
            cur = n.next;
            seen += 1;
        }
        assert_eq!(prev, self.tail, "tail link broken");
        assert_eq!(seen, self.nodes.len(), "arena/list length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        let mut l = OmList::new();
        let a = l.insert_first();
        assert_eq!(l.len(), 1);
        assert!(!l.precedes(a, a));
        l.check_invariants();
    }

    #[test]
    fn append_chain_preserves_order() {
        let mut l = OmList::new();
        let mut nodes = vec![l.insert_first()];
        for _ in 0..1000 {
            let last = *nodes.last().unwrap();
            nodes.push(l.insert_after(last));
        }
        for w in nodes.windows(2) {
            assert!(l.precedes(w[0], w[1]));
            assert!(!l.precedes(w[1], w[0]));
        }
        l.check_invariants();
    }

    #[test]
    fn insert_always_after_head_forces_relabels() {
        let mut l = OmList::new();
        let a = l.insert_first();
        let mut inserted = Vec::new();
        for _ in 0..5000 {
            inserted.push(l.insert_after(a));
        }
        // Every new node lands right after `a`, so the list order is `a`
        // followed by the inserted nodes in reverse insertion order.
        for w in inserted.windows(2) {
            assert!(l.precedes(w[1], w[0]));
        }
        for &n in &inserted {
            assert!(l.precedes(a, n));
        }
        assert!(l.relabels() > 0, "dense insertion must trigger relabelling");
        l.check_invariants();
    }

    #[test]
    fn list_iteration_matches_reference() {
        // Mirror the list with a Vec of handles; insert at random positions.
        let mut l = OmList::new();
        let mut order = vec![l.insert_first()];
        let mut state: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % order.len();
            let n = l.insert_after(order[pos]);
            order.insert(pos + 1, n);
        }
        let iterated: Vec<OmNode> = l.iter().collect();
        assert_eq!(iterated, order);
        // Pairwise agreement on a sample.
        for i in (0..order.len()).step_by(97) {
            for j in (0..order.len()).step_by(131) {
                assert_eq!(l.precedes(order[i], order[j]), i < j, "i={i} j={j}");
            }
        }
        l.check_invariants();
    }

    #[test]
    #[should_panic(expected = "insert_first on non-empty")]
    fn insert_first_twice_panics() {
        let mut l = OmList::new();
        l.insert_first();
        l.insert_first();
    }

    #[test]
    fn narrowed_universe_stays_ordered_then_exhausts_structurally() {
        let mut l = OmList::with_tag_bits(8);
        let mut last = l.insert_first();
        let mut chain = vec![last];
        // 2^8 tags with a spacing bound of 4 hold at most ~64 nodes; appends
        // beyond that must raise the structured exhaustion error, never spin.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..1000 {
                last = l.insert_after(last);
                chain.push(last);
            }
        }));
        let err = stint_faults::DetectorError::from_panic(result.unwrap_err());
        assert_eq!(
            err,
            stint_faults::DetectorError::ResourceExhausted {
                resource: stint_faults::Resource::OmTags,
                limit: (1 << 8) - 1,
                at_word: None,
            }
        );
        // Everything inserted before exhaustion is still correctly ordered.
        assert!(chain.len() > 16, "should hold a few dozen nodes first");
        for w in chain.windows(2) {
            assert!(l.precedes(w[0], w[1]));
        }
        l.check_invariants();
    }

    #[test]
    fn relabel_amortization_is_sane() {
        // Appending n elements should move far fewer than n log n nodes.
        let mut l = OmList::new();
        let mut last = l.insert_first();
        let n = 100_000u64;
        for _ in 0..n {
            last = l.insert_after(last);
        }
        // Appends use midpoint splitting of a huge right gap; relabels should
        // be rare.
        assert!(
            l.relabel_moved() < 64 * n,
            "relabel work {} too high for {} appends",
            l.relabel_moved(),
            n
        );
    }
}
