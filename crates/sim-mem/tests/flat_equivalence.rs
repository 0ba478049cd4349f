//! Equivalence suite for the flattened hot-path structures (Issue 7).
//!
//! The per-instruction rewrite replaced `HashMap`-backed state with
//! index-addressed structures: [`FlatMap`], [`InflightTable`], [`FlatRepl`]
//! and the `FlatMap`-based Hawkeye sampler. Figures are pinned bit-identical
//! by the golden tests; this suite pins the *structural* claim directly by
//! replaying randomized operation streams against retained map-based
//! reference models and asserting identical observable decisions — every
//! lookup, victim choice, OPT verdict, and snapshot image.

use std::collections::HashMap;

use prophet_sim_mem::addr::{Line, Pc};
use prophet_sim_mem::{FlatMap, FlatRepl, Hawkeye, InflightTable, OptGen, ReplKind, ReplState};

/// Deterministic splitmix64 stream — the tests need reproducible
/// randomness without a dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// FlatMap vs HashMap
// ---------------------------------------------------------------------------

#[test]
fn flatmap_matches_hashmap_on_random_streams() {
    for seed in 0..8u64 {
        let mut rng = Rng(0xF1A7 ^ seed);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..20_000u64 {
            // A small key universe forces overwrites and probe-chain reuse;
            // shifting keys into high bits stresses the hash fold.
            let key = rng.below(512) << (8 * (seed % 5));
            match rng.below(100) {
                0..=39 => {
                    let val = rng.next();
                    assert_eq!(
                        flat.insert(key, val),
                        reference.insert(key, val),
                        "insert return diverged at step {step} (seed {seed})"
                    );
                }
                40..=69 => {
                    assert_eq!(
                        flat.get(key),
                        reference.get(&key),
                        "get diverged at step {step} (seed {seed})"
                    );
                }
                70..=84 => {
                    let fresh = rng.next();
                    let f = flat.get_or_insert_with(key, || fresh);
                    let r = reference.entry(key).or_insert(fresh);
                    assert_eq!(*f, *r, "get_or_insert diverged at step {step}");
                    // Mutate through both handles identically.
                    *f = f.wrapping_add(1);
                    *r = r.wrapping_add(1);
                }
                85..=98 => {
                    assert_eq!(flat.contains_key(key), reference.contains_key(&key));
                    if let Some(v) = flat.get_mut(key) {
                        *v ^= 0xFF;
                        *reference.get_mut(&key).unwrap() ^= 0xFF;
                    }
                }
                _ => {
                    // Rare full reset — FlatMap's only removal primitive.
                    flat.clear();
                    reference.clear();
                }
            }
            assert_eq!(flat.len(), reference.len(), "len diverged at step {step}");
        }
        // Final content sweep: same entries regardless of iteration order.
        let mut got: Vec<(u64, u64)> = flat.iter().map(|(k, &v)| (k, v)).collect();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "content diverged (seed {seed})");
    }
}

#[test]
fn flatmap_survives_adversarial_collisions() {
    // Keys that collapse to few distinct hash slots exercise long probe
    // chains and growth-time rehashing together.
    let mut flat: FlatMap<u64> = FlatMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    for k in 0..4_096u64 {
        let key = k << 33; // dies in the `key >> 33` fold's low half
        flat.insert(key, k);
        reference.insert(key, k);
    }
    for (&k, &v) in &reference {
        assert_eq!(flat.get(k), Some(&v));
    }
    assert_eq!(flat.len(), reference.len());
}

#[test]
fn flatmap_epoch_clear_matches_hashmap_across_generations() {
    // `clear()` is now an epoch bump (no memset): a slot written in an
    // earlier generation must be invisible afterwards even though its
    // key/value bytes are still physically present. A clear-heavy stream
    // with a reused key universe is exactly the workload that would
    // surface a stale-stamp bug.
    for seed in 0..4u64 {
        let mut rng = Rng(0xEC0C ^ seed);
        let mut flat: FlatMap<u64> = FlatMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..50_000u64 {
            if rng.below(200) == 0 {
                flat.clear();
                reference.clear();
            }
            let key = rng.below(256);
            if rng.below(2) == 0 {
                let val = rng.next();
                assert_eq!(
                    flat.insert(key, val),
                    reference.insert(key, val),
                    "insert diverged at step {step} (seed {seed})"
                );
            } else {
                assert_eq!(
                    flat.get(key),
                    reference.get(&key),
                    "get saw a stale generation at step {step} (seed {seed})"
                );
            }
            assert_eq!(flat.len(), reference.len());
        }
    }
}

// ---------------------------------------------------------------------------
// InflightTable vs insertion-ordered reference
// ---------------------------------------------------------------------------

/// The pre-flattening semantics: a map for lookups plus insertion order,
/// with the MSHR query answered by a linear sweep (`full_sweep`). The
/// table keeps its entries ordered by ready cycle instead, so the two are
/// compared on content and on every query's answer, not on order.
#[derive(Default)]
struct InflightRef {
    entries: Vec<(Line, u64)>,
}

impl InflightRef {
    fn get(&self, line: Line) -> Option<u64> {
        self.entries
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, r)| r)
    }

    fn insert(&mut self, line: Line, ready: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
            e.1 = ready;
        } else {
            self.entries.push((line, ready));
        }
    }

    fn retain_ready_after(&mut self, now: u64) {
        self.entries.retain(|&(_, ready)| ready > now);
    }

    /// The MSHR query as the hierarchy used to compute it: one sweep over
    /// every entry, counting the fills outstanding at `now` and keeping
    /// the earliest ready cycle among them.
    fn full_sweep(&self, now: u64) -> (usize, Option<u64>) {
        let mut outstanding = 0usize;
        let mut min_ready: Option<u64> = None;
        for &(_, ready) in &self.entries {
            if ready > now {
                outstanding += 1;
                min_ready = Some(min_ready.map_or(ready, |m| m.min(ready)));
            }
        }
        (outstanding, min_ready)
    }

    /// Content sorted by line, for order-free comparison.
    fn sorted(&self) -> Vec<(Line, u64)> {
        let mut v = self.entries.clone();
        v.sort_unstable();
        v
    }
}

/// The table's content sorted by line, checking on the way that its own
/// iteration order is ascending by ready cycle.
fn sorted_table(table: &InflightTable) -> Vec<(Line, u64)> {
    let mut v: Vec<(Line, u64)> = table.iter().collect();
    assert!(
        v.windows(2).all(|w| (w[0].1, w[0].0) < (w[1].1, w[1].0)),
        "iteration must ascend by (ready, line)"
    );
    v.sort_unstable();
    v
}

#[test]
fn inflight_table_matches_reference_model() {
    for seed in 0..4u64 {
        let mut rng = Rng(0x1F11 ^ seed);
        let mut table = InflightTable::new();
        let mut reference = InflightRef::default();
        let mut now = 0u64;
        for step in 0..30_000u64 {
            now += rng.below(4);
            match rng.below(100) {
                0..=59 => {
                    let line = Line(rng.below(800));
                    let ready = now + rng.below(400);
                    table.insert(line, ready);
                    reference.insert(line, ready);
                }
                60..=89 => {
                    let line = Line(rng.below(800));
                    assert_eq!(
                        table.get(line),
                        reference.get(line),
                        "get diverged at step {step} (seed {seed})"
                    );
                }
                _ => {
                    table.retain_ready_after(now);
                    reference.retain_ready_after(now);
                }
            }
            assert_eq!(table.len(), reference.entries.len());
        }
        assert_eq!(
            sorted_table(&table),
            reference.sorted(),
            "content diverged (seed {seed})"
        );
    }
}

/// The MSHR query (`outstanding_after`: how many fills are outstanding at
/// `now`, and the earliest ready cycle among them) against the linear
/// sweep, under a clock that sometimes steps backwards — the simulator
/// drains events out of timestamp order, so a query's `now` can be
/// earlier than the previous query's or the previous purge's. New lines,
/// overwrites of recorded lines (to earlier or later ready cycles, some
/// already complete), purges and queries are mixed; every query must
/// agree exactly, and so must the MSHR delay the hierarchy derives from
/// it at several MSHR counts.
#[test]
fn mshr_query_matches_full_sweep_under_backward_clock() {
    fn delay((outstanding, first): (usize, Option<u64>), now: u64, mshrs: usize) -> u64 {
        if outstanding < mshrs {
            0
        } else {
            first.map_or(0, |r| r - now)
        }
    }

    for seed in 0..6u64 {
        let mut rng = Rng(0x0517 ^ seed);
        let mut table = InflightTable::new();
        let mut reference = InflightRef::default();
        let mut base = 0u64;
        let mut queries_under_pressure = 0u64;
        for step in 0..30_000u64 {
            base += rng.below(3);
            // Jittered clock: steps backwards about half the time.
            let now = base + rng.below(8);
            match rng.below(100) {
                0..=49 => {
                    let line = Line(rng.below(600));
                    let ready = now + rng.below(300);
                    table.insert(line, ready);
                    reference.insert(line, ready);
                }
                50..=59 => {
                    // Overwrite a recorded line, sometimes to a ready cycle
                    // at or before `now`.
                    if !reference.entries.is_empty() {
                        let i = rng.below(reference.entries.len() as u64) as usize;
                        let line = reference.entries[i].0;
                        let ready = (now + rng.below(300)).saturating_sub(40);
                        table.insert(line, ready);
                        reference.insert(line, ready);
                    }
                }
                60..=69 => {
                    table.retain_ready_after(now);
                    reference.retain_ready_after(now);
                }
                _ => {
                    let got = table.outstanding_after(now);
                    let want = reference.full_sweep(now);
                    assert_eq!(
                        got,
                        want,
                        "MSHR query diverged at step {step} (seed {seed}, now {now}, len {})",
                        table.len()
                    );
                    for mshrs in [1, 16, 32] {
                        assert_eq!(delay(got, now, mshrs), delay(want, now, mshrs));
                    }
                    if got.0 >= 16 {
                        queries_under_pressure += 1;
                    }
                }
            }
            assert_eq!(table.len(), reference.entries.len());
        }
        assert_eq!(sorted_table(&table), reference.sorted(), "seed {seed}");
        assert!(
            queries_under_pressure > 100,
            "stream never built MSHR pressure (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------------
// FlatRepl vs per-set ReplState
// ---------------------------------------------------------------------------

const REPL_KINDS: [ReplKind; 5] = [
    ReplKind::Lru,
    ReplKind::Plru,
    ReplKind::Srrip,
    ReplKind::Hawkeye,
    ReplKind::Random,
];

/// Replays one random stream of hit/fill/victim/snapshot operations
/// against both implementations and asserts identical behavior.
fn check_flat_repl(kind: ReplKind, sets: usize, ways: usize, seed: u64) {
    let mut flat = FlatRepl::new(kind, sets, ways);
    let mut reference: Vec<ReplState> = (0..sets).map(|_| ReplState::new(kind, ways)).collect();
    let mut rng = Rng(0xBEEF ^ seed ^ ((ways as u64) << 32));
    for step in 0..20_000u64 {
        let set = rng.below(sets as u64) as usize;
        let way = rng.below(ways as u64) as usize;
        match rng.below(10) {
            0..=3 => {
                flat.on_hit(set, way);
                reference[set].on_hit(way);
            }
            4..=6 => {
                flat.on_fill(set, way);
                reference[set].on_fill(way);
            }
            7..=8 => {
                // Victim over a random non-empty way range, including the
                // partitioned `[way_lo, ways)` ranges the cache uses for
                // reserved-way exclusion.
                let lo = rng.below(ways as u64) as usize;
                let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
                assert_eq!(
                    flat.victim(set, lo, hi),
                    reference[set].victim(lo, hi),
                    "victim diverged at step {step} ({kind:?}, set {set}, [{lo},{hi}))"
                );
            }
            _ => {
                assert_eq!(
                    flat.snapshot_set(set),
                    reference[set].snapshot(),
                    "snapshot diverged at step {step} ({kind:?}, set {set})"
                );
            }
        }
    }
    // Full-state sweep, then a restore round-trip into fresh instances.
    let mut flat2 = FlatRepl::new(kind, sets, ways);
    for (set, r) in reference.iter().enumerate() {
        let snap = r.snapshot();
        assert_eq!(flat.snapshot_set(set), snap, "final snapshot, set {set}");
        flat2.restore_set(set, &snap);
    }
    // Restored state must continue identically (victim consumes/permutes
    // Random and SRRIP-aging state, so run a post-restore stream too).
    for _ in 0..2_000u64 {
        let set = rng.below(sets as u64) as usize;
        let lo = rng.below(ways as u64) as usize;
        let hi = lo + 1 + rng.below((ways - lo) as u64) as usize;
        assert_eq!(flat2.victim(set, lo, hi), reference[set].victim(lo, hi));
        let way = rng.below(ways as u64) as usize;
        flat2.on_fill(set, way);
        reference[set].on_fill(way);
    }
}

#[test]
fn flat_repl_matches_per_set_states() {
    for kind in REPL_KINDS {
        for seed in 0..3u64 {
            check_flat_repl(kind, 16, 8, seed);
        }
    }
}

#[test]
fn flat_repl_matches_on_non_power_of_two_ways() {
    // PLRU pads its tree to the next power of two; 6 and 12 ways exercise
    // the padded-leaf exclusion logic in both implementations.
    for kind in REPL_KINDS {
        check_flat_repl(kind, 8, 6, 7);
        check_flat_repl(kind, 4, 12, 11);
    }
}

// ---------------------------------------------------------------------------
// Hawkeye sampler vs map-based reference
// ---------------------------------------------------------------------------

/// A from-the-paper reimplementation of `OptGen` over `HashMap`, mirroring
/// the pre-flattening structure.
struct OptGenRef {
    capacity: usize,
    occupancy: Vec<u8>,
    last_access: HashMap<u64, u64>,
    now: u64,
}

const HISTORY: usize = 128; // mirrors hawkeye::HISTORY

impl OptGenRef {
    fn new(capacity: usize) -> Self {
        OptGenRef {
            capacity,
            occupancy: vec![0; HISTORY],
            last_access: HashMap::new(),
            now: 0,
        }
    }

    fn access(&mut self, line: Line) -> Option<bool> {
        let t = self.now;
        self.now += 1;
        self.occupancy[(t as usize) % HISTORY] = 0;
        let prev = self.last_access.insert(line.0, t)?;
        if t - prev >= HISTORY as u64 {
            return Some(false);
        }
        let fits =
            (prev..t).all(|step| self.occupancy[(step as usize) % HISTORY] < self.capacity as u8);
        if fits {
            for step in prev..t {
                self.occupancy[(step as usize) % HISTORY] += 1;
            }
        }
        Some(fits)
    }
}

/// Map-based Hawkeye reference: same predictor table, `HashMap` sampler
/// state.
struct HawkeyeRef {
    counters: Vec<u8>,
    oracles: HashMap<usize, OptGenRef>,
    last_pc: HashMap<u64, u64>,
    sample_mask: usize,
    ways: usize,
}

impl HawkeyeRef {
    fn new(ways: usize, sample: usize) -> Self {
        HawkeyeRef {
            counters: vec![4; 8192],
            oracles: HashMap::new(),
            last_pc: HashMap::new(),
            sample_mask: sample - 1,
            ways,
        }
    }

    fn counter_of(&mut self, pc: Pc) -> &mut u8 {
        let idx = ((pc.0 ^ (pc.0 >> 13)) as usize) & (self.counters.len() - 1);
        &mut self.counters[idx]
    }

    fn observe(&mut self, set: usize, line: Line, pc: Pc) -> bool {
        if set & self.sample_mask == 0 {
            let ways = self.ways;
            let oracle = self
                .oracles
                .entry(set)
                .or_insert_with(|| OptGenRef::new(ways));
            let verdict = oracle.access(line);
            let trainee = self.last_pc.insert(line.0, pc.0).map(Pc).unwrap_or(pc);
            if let Some(opt_hit) = verdict {
                let c = self.counter_of(trainee);
                if opt_hit {
                    *c = (*c + 1).min(7);
                } else {
                    *c = c.saturating_sub(1);
                }
            }
        }
        *self.counter_of(pc) >= 4
    }
}

#[test]
fn optgen_matches_map_reference() {
    for seed in 0..4u64 {
        let mut rng = Rng(0x0197 ^ seed);
        let mut flat = OptGen::new(8);
        let mut reference = OptGenRef::new(8);
        for step in 0..40_000u64 {
            // Zipf-ish mix: a hot core of lines plus a cold stream, so
            // verdicts cover hit/miss/first-touch and window expiry.
            let line = if rng.below(4) == 0 {
                Line(rng.below(16))
            } else {
                Line(64 + rng.below(4_096))
            };
            assert_eq!(
                flat.access(line),
                reference.access(line),
                "OPT verdict diverged at step {step} (seed {seed})"
            );
        }
    }
}

#[test]
fn hawkeye_matches_map_reference() {
    for seed in 0..4u64 {
        let mut rng = Rng(0x4A3B_4E7E ^ seed);
        let mut flat = Hawkeye::new(8, 4);
        let mut reference = HawkeyeRef::new(8, 4);
        for step in 0..60_000u64 {
            let set = rng.below(64) as usize;
            // Per-PC locality: each PC walks a distinct line neighborhood,
            // giving the predictor real friendly/averse structure.
            let pc = Pc(rng.below(24) * 0x40);
            let line = Line((pc.0 << 8) | rng.below(96));
            assert_eq!(
                flat.observe(set, line, pc),
                reference.observe(set, line, pc),
                "friendliness verdict diverged at step {step} (seed {seed})"
            );
        }
        // The learned counters must agree for every PC seen.
        for pc in 0..24u64 {
            let pc = Pc(pc * 0x40);
            assert_eq!(flat.is_friendly(pc), *reference.counter_of(pc) >= 4);
        }
    }
}
