//! Per-set cache replacement policies.
//!
//! The paper's system (Table 1) uses tree-PLRU in the L1/L2 and a
//! hierarchy-aware policy in the LLC (CHAR, which we approximate with SRRIP —
//! the re-reference predictor CHAR builds on). The temporal-prefetcher
//! metadata table uses SRRIP at runtime (Triangel replaced Triage's Hawkeye
//! with SRRIP to save storage, Section 2.1.2), and we also provide a
//! Hawkeye-style OPT-learning policy so the Triage configuration of the
//! ablation (Figure 19) can be built faithfully.
//!
//! All policies operate on way indices within a single set; the cache owns
//! one policy state per set. Victim selection always prefers an invalid way
//! before consulting policy state.

/// Plain-data image of one set's replacement state, for warm-up
/// checkpointing (`prophet-store` serializes these; the fields mirror the
/// policy structs exactly so a restore is bit-faithful).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplSnapshot {
    Lru { stamp: Vec<u64>, clock: u64 },
    Plru { bits: Vec<bool> },
    Srrip { rrpv: Vec<u8> },
    Hawkeye { rrpv: Vec<u8>, friendly: Vec<bool> },
    Random { seed: u64 },
}

/// Identifies a replacement policy family; used in cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplKind {
    /// True least-recently-used (stack) replacement.
    Lru,
    /// Tree pseudo-LRU (used by the paper's L1/L2, Table 1).
    Plru,
    /// Static re-reference interval prediction with 2-bit RRPVs
    /// (Jaleel et al.; used by Triangel's metadata table and our LLC).
    Srrip,
    /// Hawkeye-style policy driven by a sampled OPT oracle (used by Triage's
    /// metadata table in the original paper).
    Hawkeye,
    /// Uniform-pseudo-random victim selection (deterministic xorshift).
    Random,
}

/// Replacement state for one cache set.
///
/// The enum dispatch keeps the cache free of generics and keeps all policy
/// state inline (no boxing) — replacement updates are on the hot path of the
/// simulator.
#[derive(Debug, Clone)]
pub enum ReplState {
    Lru(LruState),
    Plru(PlruState),
    Srrip(SrripState),
    Hawkeye(HawkeyeState),
    Random(RandomState),
}

impl ReplState {
    /// Creates fresh state for a set with `ways` ways.
    pub fn new(kind: ReplKind, ways: usize) -> Self {
        match kind {
            ReplKind::Lru => ReplState::Lru(LruState::new(ways)),
            ReplKind::Plru => ReplState::Plru(PlruState::new(ways)),
            ReplKind::Srrip => ReplState::Srrip(SrripState::new(ways)),
            ReplKind::Hawkeye => ReplState::Hawkeye(HawkeyeState::new(ways)),
            ReplKind::Random => ReplState::Random(RandomState::new(ways)),
        }
    }

    /// Records a demand hit on `way`.
    pub fn on_hit(&mut self, way: usize) {
        match self {
            ReplState::Lru(s) => s.touch(way),
            ReplState::Plru(s) => s.touch(way),
            ReplState::Srrip(s) => s.on_hit(way),
            ReplState::Hawkeye(s) => s.on_hit(way),
            ReplState::Random(_) => {}
        }
    }

    /// Records a fill into `way` (after victim selection).
    pub fn on_fill(&mut self, way: usize) {
        match self {
            ReplState::Lru(s) => s.touch(way),
            ReplState::Plru(s) => s.touch(way),
            ReplState::Srrip(s) => s.on_fill(way),
            ReplState::Hawkeye(s) => s.on_fill(way),
            ReplState::Random(_) => {}
        }
    }

    /// Captures the state as plain data for checkpointing.
    pub fn snapshot(&self) -> ReplSnapshot {
        match self {
            ReplState::Lru(s) => ReplSnapshot::Lru {
                stamp: s.stamp.clone(),
                clock: s.clock,
            },
            ReplState::Plru(s) => ReplSnapshot::Plru {
                bits: s.bits.clone(),
            },
            ReplState::Srrip(s) => ReplSnapshot::Srrip {
                rrpv: s.rrpv.clone(),
            },
            ReplState::Hawkeye(s) => ReplSnapshot::Hawkeye {
                rrpv: s.rrpv.clone(),
                friendly: s.friendly.clone(),
            },
            ReplState::Random(s) => ReplSnapshot::Random { seed: s.seed },
        }
    }

    /// Rebuilds policy state from a snapshot taken on a set with the same
    /// geometry (`ways` reconstructs the PLRU tree shape).
    ///
    /// # Panics
    /// Panics if the snapshot's per-way vectors do not match `ways` (a
    /// checkpoint from a differently-configured system; the store keys
    /// checkpoints by configuration digest precisely so this cannot happen
    /// on the disk path).
    pub fn restore(snap: &ReplSnapshot, ways: usize) -> ReplState {
        match snap {
            ReplSnapshot::Lru { stamp, clock } => {
                assert_eq!(stamp.len(), ways, "LRU snapshot geometry mismatch");
                ReplState::Lru(LruState {
                    stamp: stamp.clone(),
                    clock: *clock,
                })
            }
            ReplSnapshot::Plru { bits } => {
                let leaves = ways.next_power_of_two().max(2);
                assert_eq!(bits.len(), leaves - 1, "PLRU snapshot geometry mismatch");
                ReplState::Plru(PlruState {
                    bits: bits.clone(),
                    leaves,
                    ways,
                })
            }
            ReplSnapshot::Srrip { rrpv } => {
                assert_eq!(rrpv.len(), ways, "SRRIP snapshot geometry mismatch");
                ReplState::Srrip(SrripState { rrpv: rrpv.clone() })
            }
            ReplSnapshot::Hawkeye { rrpv, friendly } => {
                assert_eq!(rrpv.len(), ways, "Hawkeye snapshot geometry mismatch");
                assert_eq!(friendly.len(), ways, "Hawkeye snapshot geometry mismatch");
                ReplState::Hawkeye(HawkeyeState {
                    rrpv: rrpv.clone(),
                    friendly: friendly.clone(),
                })
            }
            ReplSnapshot::Random { seed } => ReplState::Random(RandomState { seed: *seed }),
        }
    }

    /// Selects a victim among ways `[lo, hi)`. The caller guarantees the
    /// range is non-empty and that every way in it holds a valid line
    /// (invalid ways are preferred by the cache before asking the policy).
    pub fn victim(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        match self {
            ReplState::Lru(s) => s.victim(lo, hi),
            ReplState::Plru(s) => s.victim(lo, hi),
            ReplState::Srrip(s) => s.victim(lo, hi),
            ReplState::Hawkeye(s) => s.victim(lo, hi),
            ReplState::Random(s) => s.victim(lo, hi),
        }
    }
}

/// True-LRU state: per-way logical timestamps.
#[derive(Debug, Clone)]
pub struct LruState {
    stamp: Vec<u64>,
    clock: u64,
}

impl LruState {
    fn new(ways: usize) -> Self {
        LruState {
            stamp: vec![0; ways],
            clock: 0,
        }
    }

    fn touch(&mut self, way: usize) {
        self.clock += 1;
        self.stamp[way] = self.clock;
    }

    fn victim(&self, lo: usize, hi: usize) -> usize {
        (lo..hi)
            .min_by_key(|&w| self.stamp[w])
            .expect("non-empty way range")
    }

    /// Logical timestamp of `way` (larger = more recent). Exposed so the
    /// Prophet replacement policy can apply LRU *within* a priority class
    /// (Section 4.2: "Prophet applies LRU among these victim candidates").
    pub fn stamp(&self, way: usize) -> u64 {
        self.stamp[way]
    }
}

/// Tree pseudo-LRU. For non-power-of-two way counts the tree is built over
/// the next power of two and out-of-range leaves are never chosen.
#[derive(Debug, Clone)]
pub struct PlruState {
    /// One bit per internal node of the binary tree; `true` points to the
    /// right child as the colder half.
    bits: Vec<bool>,
    leaves: usize,
    ways: usize,
}

impl PlruState {
    fn new(ways: usize) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        PlruState {
            bits: vec![false; leaves - 1],
            leaves,
            ways,
        }
    }

    fn touch(&mut self, way: usize) {
        debug_assert!(way < self.ways);
        // Walk from the root to the leaf, flipping each node away from the
        // path taken so the tree points at the colder sibling.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.bits[node] = true; // cold side is the right half
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn victim(&mut self, lo_way: usize, hi_way: usize) -> usize {
        // Follow the cold pointers; if the tree leads outside the allowed
        // way range (possible with partitioned or non-power-of-two sets),
        // fall back to scanning the range for the coldest-looking way.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        let candidate = lo;
        if candidate >= lo_way && candidate < hi_way {
            candidate
        } else {
            // Deterministic fallback: rotate through the range.
            let span = hi_way - lo_way;
            lo_way + candidate % span
        }
    }
}

/// SRRIP re-reference prediction value for a brand-new line.
pub const SRRIP_LONG: u8 = 2;
/// Maximum (distant) RRPV with 2-bit counters.
pub const SRRIP_MAX: u8 = 3;

/// Static RRIP with 2-bit re-reference prediction values.
#[derive(Debug, Clone)]
pub struct SrripState {
    rrpv: Vec<u8>,
}

impl SrripState {
    fn new(ways: usize) -> Self {
        SrripState {
            rrpv: vec![SRRIP_MAX; ways],
        }
    }

    fn on_hit(&mut self, way: usize) {
        self.rrpv[way] = 0;
    }

    fn on_fill(&mut self, way: usize) {
        self.rrpv[way] = SRRIP_LONG;
    }

    fn victim(&mut self, lo: usize, hi: usize) -> usize {
        loop {
            if let Some(w) = (lo..hi).find(|&w| self.rrpv[w] == SRRIP_MAX) {
                return w;
            }
            for w in lo..hi {
                self.rrpv[w] = (self.rrpv[w] + 1).min(SRRIP_MAX);
            }
        }
    }

    /// Current RRPV of `way`; exposed for tests and for Prophet's reuse of
    /// the runtime replacement state.
    pub fn rrpv(&self, way: usize) -> u8 {
        self.rrpv[way]
    }
}

/// Hawkeye-style state: a per-way "cache friendly" bit trained by a sampled
/// OPT oracle plus an RRIP backing store. This is a behavioural reduction of
/// Hawkeye sufficient for the Triage configuration: lines predicted friendly
/// are inserted with high priority, lines predicted averse are inserted at
/// distant RRPV and evicted first.
#[derive(Debug, Clone)]
pub struct HawkeyeState {
    rrpv: Vec<u8>,
    friendly: Vec<bool>,
}

impl HawkeyeState {
    fn new(ways: usize) -> Self {
        HawkeyeState {
            rrpv: vec![SRRIP_MAX; ways],
            friendly: vec![false; ways],
        }
    }

    fn on_hit(&mut self, way: usize) {
        self.rrpv[way] = 0;
        self.friendly[way] = true;
    }

    fn on_fill(&mut self, way: usize) {
        self.rrpv[way] = SRRIP_LONG;
        self.friendly[way] = false;
    }

    /// Marks `way` as trained cache-averse by the OPT oracle: it becomes the
    /// first candidate for eviction.
    pub fn set_averse(&mut self, way: usize) {
        self.rrpv[way] = SRRIP_MAX;
        self.friendly[way] = false;
    }

    fn victim(&mut self, lo: usize, hi: usize) -> usize {
        // Prefer cache-averse lines at max RRPV, then any line at max RRPV.
        if let Some(w) = (lo..hi).find(|&w| !self.friendly[w] && self.rrpv[w] == SRRIP_MAX) {
            return w;
        }
        loop {
            if let Some(w) = (lo..hi).find(|&w| self.rrpv[w] == SRRIP_MAX) {
                return w;
            }
            for w in lo..hi {
                self.rrpv[w] = (self.rrpv[w] + 1).min(SRRIP_MAX);
            }
        }
    }
}

/// Replacement state for *every* set of one cache, flattened into
/// contiguous per-kind arrays.
///
/// [`ReplState`] keeps each set's policy behind an enum holding per-set
/// heap vectors, so every replacement update costs an extra pointer chase
/// into a tiny allocation. A cache runs one policy across all sets, which
/// lets the per-set vectors concatenate into single arrays indexed by
/// `set * ways + way` — one predictable stride instead of one dereference
/// per access. Behaviour is bit-identical to a `Vec<ReplState>` (each
/// set's state evolves independently, and [`FlatRepl::snapshot_set`]
/// reproduces the exact [`ReplSnapshot`] images the store serializes).
#[derive(Debug, Clone)]
pub struct FlatRepl {
    kind: ReplKind,
    ways: usize,
    /// PLRU tree leaves (`ways.next_power_of_two().max(2)`).
    leaves: usize,
    /// PLRU: per way, the tree nodes on the root-to-leaf path…
    plru_path: Vec<u64>,
    /// …and the values a touch of that way writes to them.
    plru_cold: Vec<u64>,
    /// LRU: `sets × ways` logical timestamps.
    stamp: Vec<u64>,
    /// LRU: one logical clock per set.
    clock: Vec<u64>,
    /// PLRU: one tree per set, node `n` in bit `n` (`true` points to the
    /// right child as the colder half).
    tree: Vec<u64>,
    /// SRRIP/Hawkeye: `sets × ways` re-reference prediction values.
    rrpv: Vec<u8>,
    /// Hawkeye: `sets × ways` cache-friendly bits.
    friendly: Vec<bool>,
    /// Random: one xorshift seed per set.
    seed: Vec<u64>,
}

impl FlatRepl {
    /// Fresh state for `sets` sets of `ways` ways each.
    ///
    /// # Panics
    /// Panics if a PLRU cache has more than 64 ways (its tree must fit one
    /// word per set).
    pub fn new(kind: ReplKind, sets: usize, ways: usize) -> Self {
        let leaves = ways.next_power_of_two().max(2);
        let mut r = FlatRepl {
            kind,
            ways,
            leaves,
            plru_path: Vec::new(),
            plru_cold: Vec::new(),
            stamp: Vec::new(),
            clock: Vec::new(),
            tree: Vec::new(),
            rrpv: Vec::new(),
            friendly: Vec::new(),
            seed: Vec::new(),
        };
        match kind {
            ReplKind::Lru => {
                r.stamp = vec![0; sets * ways];
                r.clock = vec![0; sets];
            }
            ReplKind::Plru => {
                assert!(leaves <= 64, "PLRU supports at most 64 ways");
                r.tree = vec![0; sets];
                (r.plru_path, r.plru_cold) = (0..ways).map(|w| plru_path(w, leaves)).unzip();
            }
            ReplKind::Srrip => r.rrpv = vec![SRRIP_MAX; sets * ways],
            ReplKind::Hawkeye => {
                r.rrpv = vec![SRRIP_MAX; sets * ways];
                r.friendly = vec![false; sets * ways];
            }
            ReplKind::Random => r.seed = vec![0x9E37_79B9_7F4A_7C15 ^ (ways as u64); sets],
        }
        r
    }

    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// Records a demand hit on `way` of `set`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        let i = self.base(set) + way;
        match self.kind {
            ReplKind::Lru => self.lru_touch(set, way),
            ReplKind::Plru => self.plru_touch(set, way),
            ReplKind::Srrip => self.rrpv[i] = 0,
            ReplKind::Hawkeye => {
                self.rrpv[i] = 0;
                self.friendly[i] = true;
            }
            ReplKind::Random => {}
        }
    }

    /// Records a fill into `way` of `set` (after victim selection).
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        let i = self.base(set) + way;
        match self.kind {
            ReplKind::Lru => self.lru_touch(set, way),
            ReplKind::Plru => self.plru_touch(set, way),
            ReplKind::Srrip => self.rrpv[i] = SRRIP_LONG,
            ReplKind::Hawkeye => {
                self.rrpv[i] = SRRIP_LONG;
                self.friendly[i] = false;
            }
            ReplKind::Random => {}
        }
    }

    /// Selects a victim among ways `[lo, hi)` of `set` (same contract as
    /// [`ReplState::victim`]).
    #[inline]
    pub fn victim(&mut self, set: usize, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        match self.kind {
            ReplKind::Lru => {
                let base = self.base(set);
                (lo..hi)
                    .min_by_key(|&w| self.stamp[base + w])
                    .expect("non-empty way range")
            }
            ReplKind::Plru => self.plru_victim(set, lo, hi),
            ReplKind::Srrip => self.srrip_aged_victim(set, lo, hi),
            ReplKind::Hawkeye => {
                let base = self.base(set);
                if let Some(w) =
                    (lo..hi).find(|&w| !self.friendly[base + w] && self.rrpv[base + w] == SRRIP_MAX)
                {
                    return w;
                }
                self.srrip_aged_victim(set, lo, hi)
            }
            ReplKind::Random => {
                let s = &mut self.seed[set];
                *s ^= *s << 13;
                *s ^= *s >> 7;
                *s ^= *s << 17;
                lo + (*s as usize) % (hi - lo)
            }
        }
    }

    /// SRRIP aging collapsed to two sweeps. The textbook loop repeats
    /// (scan for `SRRIP_MAX`, increment every way) until a way reaches the
    /// maximum; after `SRRIP_MAX - max_rrpv` rounds the first way holding
    /// the maximum RRPV is the victim and every counter has gained exactly
    /// that many rounds (none saturate, since all values are ≤ the max).
    /// Computing the max in one sweep and applying the bump in a second
    /// produces bit-identical state and the identical victim index.
    fn srrip_aged_victim(&mut self, set: usize, lo: usize, hi: usize) -> usize {
        let base = self.base(set);
        let mut max_w = lo;
        let mut max_v = self.rrpv[base + lo];
        for w in (lo + 1)..hi {
            let v = self.rrpv[base + w];
            if v > max_v {
                max_v = v;
                max_w = w;
            }
        }
        let bump = SRRIP_MAX - max_v;
        if bump > 0 {
            for w in lo..hi {
                self.rrpv[base + w] += bump;
            }
        }
        max_w
    }

    #[inline]
    fn lru_touch(&mut self, set: usize, way: usize) {
        self.clock[set] += 1;
        self.stamp[set * self.ways + way] = self.clock[set];
    }

    #[inline]
    fn plru_touch(&mut self, set: usize, way: usize) {
        let t = &mut self.tree[set];
        *t = (*t & !self.plru_path[way]) | self.plru_cold[way];
    }

    fn plru_victim(&self, set: usize, lo_way: usize, hi_way: usize) -> usize {
        let tree = self.tree[set];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if tree >> node & 1 == 1 {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        let candidate = lo;
        if candidate >= lo_way && candidate < hi_way {
            candidate
        } else {
            let span = hi_way - lo_way;
            lo_way + candidate % span
        }
    }

    /// Captures one set's state as the [`ReplSnapshot`] image the store
    /// serializes (identical to `Vec<ReplState>`'s per-set snapshots).
    pub fn snapshot_set(&self, set: usize) -> ReplSnapshot {
        let base = self.base(set);
        match self.kind {
            ReplKind::Lru => ReplSnapshot::Lru {
                stamp: self.stamp[base..base + self.ways].to_vec(),
                clock: self.clock[set],
            },
            ReplKind::Plru => ReplSnapshot::Plru {
                bits: (0..self.leaves - 1)
                    .map(|n| self.tree[set] >> n & 1 == 1)
                    .collect(),
            },
            ReplKind::Srrip => ReplSnapshot::Srrip {
                rrpv: self.rrpv[base..base + self.ways].to_vec(),
            },
            ReplKind::Hawkeye => ReplSnapshot::Hawkeye {
                rrpv: self.rrpv[base..base + self.ways].to_vec(),
                friendly: self.friendly[base..base + self.ways].to_vec(),
            },
            ReplKind::Random => ReplSnapshot::Random {
                seed: self.seed[set],
            },
        }
    }

    /// Restores one set from a snapshot taken under the same policy and
    /// geometry.
    ///
    /// # Panics
    /// Panics if the snapshot's policy family or per-way vectors do not
    /// match this cache's configuration (the store keys checkpoints by
    /// configuration digest, so this indicates caller error).
    pub fn restore_set(&mut self, set: usize, snap: &ReplSnapshot) {
        let base = self.base(set);
        match (self.kind, snap) {
            (ReplKind::Lru, ReplSnapshot::Lru { stamp, clock }) => {
                assert_eq!(stamp.len(), self.ways, "LRU snapshot geometry mismatch");
                self.stamp[base..base + self.ways].copy_from_slice(stamp);
                self.clock[set] = *clock;
            }
            (ReplKind::Plru, ReplSnapshot::Plru { bits }) => {
                assert_eq!(
                    bits.len(),
                    self.leaves - 1,
                    "PLRU snapshot geometry mismatch"
                );
                self.tree[set] = bits
                    .iter()
                    .enumerate()
                    .fold(0, |t, (n, &b)| t | (b as u64) << n);
            }
            (ReplKind::Srrip, ReplSnapshot::Srrip { rrpv }) => {
                assert_eq!(rrpv.len(), self.ways, "SRRIP snapshot geometry mismatch");
                self.rrpv[base..base + self.ways].copy_from_slice(rrpv);
            }
            (ReplKind::Hawkeye, ReplSnapshot::Hawkeye { rrpv, friendly }) => {
                assert_eq!(rrpv.len(), self.ways, "Hawkeye snapshot geometry mismatch");
                assert_eq!(
                    friendly.len(),
                    self.ways,
                    "Hawkeye snapshot geometry mismatch"
                );
                self.rrpv[base..base + self.ways].copy_from_slice(rrpv);
                self.friendly[base..base + self.ways].copy_from_slice(friendly);
            }
            (ReplKind::Random, ReplSnapshot::Random { seed }) => self.seed[set] = *seed,
            (kind, snap) => panic!("replacement snapshot policy mismatch: {kind:?} vs {snap:?}"),
        }
    }
}

/// The PLRU tree nodes a touch of `way` rewrites, as `(path, cold)` masks
/// over a tree of `leaves` leaves packed one node per bit: walking from
/// the root to the leaf, each node on the path is pointed away from the
/// half taken, so the tree points at the colder sibling.
fn plru_path(way: usize, leaves: usize) -> (u64, u64) {
    let (mut path, mut cold) = (0u64, 0u64);
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = leaves;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        path |= 1 << node;
        if way < mid {
            cold |= 1 << node; // cold side is the right half
            node = 2 * node + 1;
            hi = mid;
        } else {
            node = 2 * node + 2;
            lo = mid;
        }
    }
    (path, cold)
}

/// Deterministic pseudo-random replacement (xorshift64*).
#[derive(Debug, Clone)]
pub struct RandomState {
    seed: u64,
}

impl RandomState {
    fn new(ways: usize) -> Self {
        RandomState {
            seed: 0x9E37_79B9_7F4A_7C15 ^ (ways as u64),
        }
    }

    fn victim(&mut self, lo: usize, hi: usize) -> usize {
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        lo + (self.seed as usize) % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = LruState::new(4);
        for w in 0..4 {
            s.touch(w);
        }
        s.touch(0); // order now 1,2,3,0 from oldest
        assert_eq!(s.victim(0, 4), 1);
        s.touch(1);
        assert_eq!(s.victim(0, 4), 2);
    }

    #[test]
    fn lru_respects_range() {
        let mut s = LruState::new(8);
        for w in 0..8 {
            s.touch(w);
        }
        // Only ways 4..8 allowed; way 4 is the oldest among them.
        assert_eq!(s.victim(4, 8), 4);
    }

    #[test]
    fn plru_victim_is_not_most_recent() {
        let mut s = PlruState::new(4);
        for w in 0..4 {
            s.touch(w);
        }
        s.touch(2);
        let v = s.victim(0, 4);
        assert_ne!(v, 2, "PLRU must never evict the most recently used way");
    }

    #[test]
    fn plru_tracks_single_hot_way() {
        let mut s = PlruState::new(8);
        for _ in 0..100 {
            s.touch(3);
        }
        assert_ne!(s.victim(0, 8), 3);
    }

    #[test]
    fn plru_non_power_of_two() {
        let mut s = PlruState::new(6);
        for w in 0..6 {
            s.touch(w);
        }
        let v = s.victim(0, 6);
        assert!(v < 6);
    }

    #[test]
    fn srrip_new_lines_evicted_before_reused_lines() {
        let mut s = SrripState::new(4);
        for w in 0..4 {
            s.on_fill(w);
        }
        s.on_hit(0);
        s.on_hit(1);
        // Ways 2,3 still at long RRPV; aging promotes them to MAX first.
        let v = s.victim(0, 4);
        assert!(v == 2 || v == 3);
    }

    #[test]
    fn srrip_aging_terminates() {
        let mut s = SrripState::new(2);
        s.on_hit(0);
        s.on_hit(1);
        let v = s.victim(0, 2);
        assert!(v < 2);
    }

    #[test]
    fn hawkeye_prefers_averse_lines() {
        let mut s = HawkeyeState::new(4);
        for w in 0..4 {
            s.on_fill(w);
        }
        s.on_hit(1);
        s.set_averse(3);
        assert_eq!(s.victim(0, 4), 3);
    }

    #[test]
    fn random_stays_in_range() {
        let mut s = RandomState::new(16);
        for _ in 0..1000 {
            let v = s.victim(4, 12);
            assert!((4..12).contains(&v));
        }
    }

    #[test]
    fn snapshot_round_trips_every_policy() {
        for kind in [
            ReplKind::Lru,
            ReplKind::Plru,
            ReplKind::Srrip,
            ReplKind::Hawkeye,
            ReplKind::Random,
        ] {
            let mut s = ReplState::new(kind, 6);
            for w in 0..6 {
                s.on_fill(w);
            }
            s.on_hit(2);
            s.on_hit(4);
            let snap = s.snapshot();
            let mut restored = ReplState::restore(&snap, 6);
            assert_eq!(restored.snapshot(), snap, "{kind:?} snapshot is lossless");
            // Identical state ⇒ identical victim choice.
            assert_eq!(restored.victim(0, 6), s.victim(0, 6), "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn restore_rejects_wrong_geometry() {
        let s = ReplState::new(ReplKind::Lru, 4);
        let _ = ReplState::restore(&s.snapshot(), 8);
    }

    #[test]
    fn repl_state_dispatch_smoke() {
        for kind in [
            ReplKind::Lru,
            ReplKind::Plru,
            ReplKind::Srrip,
            ReplKind::Hawkeye,
            ReplKind::Random,
        ] {
            let mut s = ReplState::new(kind, 8);
            s.on_fill(0);
            s.on_hit(0);
            let v = s.victim(0, 8);
            assert!(v < 8, "{kind:?} victim out of range");
        }
    }
}
