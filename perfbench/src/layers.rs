//! The traced run (`--trace 1`): where each workload's host time goes.
//!
//! Everything here times calls into the crates' public functions from
//! outside. The pieces:
//!
//! * decorators around the boxed `L1Prefetcher`/`L2Prefetcher` trait
//!   objects (calls, host time, requests issued) and a counting
//!   `TraceSource` wrapper (cursors opened, instructions pulled);
//! * spans around every cell, pass, analysis, store call and service
//!   call, kept in memory and written to `.perfbench/trace-*.jsonl` at the
//!   end, with a self-time summary on stderr;
//! * subtractive ablation: drain the trace → engine over a fixed-latency
//!   backend → + hierarchy → + L1 prefetcher → + each scheme; the
//!   differences are the per-layer costs;
//! * store and service probes over the workload's own inputs and
//!   profiles.
//!
//! Every traced cell's `SimReport` must equal the untraced `Harness`
//! cell's, so the numbers describe the path the figures take. Every layer
//! is measured on both workloads (on their own inputs), so the per-layer
//! metric set is the same for each.

use crate::inputs::spec_input;
use crate::matrix::{
    check_rows, crono_harness, crono_inputs, default_row, spec_inputs, stored_row, Steps, SCHEMES,
};
use crate::out::{percentile, secs, Outcome, Scratch};
use crate::service::{self, ProfileSet, ServiceNumbers};
use crate::Args;
use prophet::{
    profile_workload, AnalysisConfig, HintSet, LearnedProfile, ProfileCounters, Prophet,
    ProphetConfig,
};
use prophet_bench::{Harness, SchemeRow};
use prophet_prefetch::{
    L1PrefetchList, L1Prefetcher, L2Decision, L2Prefetcher, MetaTableStats, NoL1Prefetch,
    NoL2Prefetch, StridePrefetcher,
};
use prophet_sim_core::{
    issue_path_stats, simulate, Engine, MemBackend, SimReport, TraceCursor, TraceInst, TraceSource,
};
use prophet_sim_mem::addr::{Addr, Cycle, Pc};
use prophet_sim_mem::hierarchy::L2Event;
use prophet_store::{
    config_digest, decode_checkpoint, encode_checkpoint, ArtifactStore, ProfileArtifact,
    WarmupCheckpoint,
};
use prophet_temporal::{Triangel, TriangelConfig};
use prophet_workloads::GCC_INPUTS;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Spans

struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder. Spans nest by thread: a span opened while
/// another is open on the same thread is its child.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span list");
            spans.push(Span {
                name: name.to_string(),
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let r = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("span list")[id].end = end;
        r
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span list");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one JSON line and prints each span name's
    /// total and self time (duration minus the time its children cover).
    pub fn write(&self, path: &std::path::Path) {
        let spans = self.spans.lock().expect("span list");
        let mut child_time = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, f64, f64)> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += s.end - s.start - child_time[i];
        }
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::File::create(path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                for (i, s) in spans.iter().enumerate() {
                    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                    writeln!(
                        w,
                        "{{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                        s.name, s.start, s.end
                    )?;
                }
                w.flush()
            });
        match written {
            Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
        eprintln!(
            "{:<28} {:>8} {:>10} {:>10}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, total, own)) in by_name {
            eprintln!("{name:<28} {n:>8} {total:>10.4} {own:>10.4}");
        }
    }
}

// ---------------------------------------------------------------------------
// Decorators

/// Calls into one boxed prefetcher.
#[derive(Debug, Clone, Copy, Default)]
struct CallStats {
    calls: u64,
    ns: u64,
    reqs: u64,
    meta_dram: u64,
}

impl CallStats {
    fn add(&mut self, o: CallStats) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.reqs += o.reqs;
        self.meta_dram += o.meta_dram;
    }

    fn per_call(&self, x: u64) -> f64 {
        x as f64 / self.calls.max(1) as f64
    }
}

struct TimedL1 {
    inner: Box<dyn L1Prefetcher>,
    stats: Rc<Cell<CallStats>>,
}

impl L1Prefetcher for TimedL1 {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_l1_access(&mut self, pc: Pc, addr: Addr, hit: bool) -> L1PrefetchList {
        let t = Instant::now();
        let r = self.inner.on_l1_access(pc, addr, hit);
        let mut s = self.stats.get();
        s.ns += t.elapsed().as_nanos() as u64;
        s.calls += 1;
        s.reqs += r.len() as u64;
        self.stats.set(s);
        r
    }
}

struct TimedL2 {
    inner: Box<dyn L2Prefetcher>,
    stats: Rc<Cell<CallStats>>,
}

impl L2Prefetcher for TimedL2 {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_l2_access(&mut self, ev: &L2Event) -> L2Decision {
        let t = Instant::now();
        let d = self.inner.on_l2_access(ev);
        let mut s = self.stats.get();
        s.ns += t.elapsed().as_nanos() as u64;
        s.calls += 1;
        s.reqs += d.prefetches.len() as u64;
        s.meta_dram += u64::from(d.metadata_dram_accesses);
        self.stats.set(s);
        d
    }

    fn meta_ways(&self) -> usize {
        self.inner.meta_ways()
    }

    fn meta_stats(&self) -> MetaTableStats {
        self.inner.meta_stats()
    }
}

/// A `TraceSource` that counts the cursors opened on it and the
/// instructions pulled through them.
struct Counted<'a> {
    inner: &'a dyn TraceSource,
    cursors: Cell<u64>,
    pulled: Rc<Cell<u64>>,
}

impl<'a> Counted<'a> {
    fn new(inner: &'a dyn TraceSource) -> Self {
        Counted {
            inner,
            cursors: Cell::new(0),
            pulled: Rc::new(Cell::new(0)),
        }
    }
}

impl TraceSource for Counted<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cursor(&self) -> Box<dyn TraceCursor + '_> {
        self.cursors.set(self.cursors.get() + 1);
        Box::new(CountedCursor {
            inner: self.inner.cursor(),
            pulled: Rc::clone(&self.pulled),
        })
    }
}

struct CountedCursor<'a> {
    inner: Box<dyn TraceCursor + 'a>,
    pulled: Rc<Cell<u64>>,
}

impl TraceCursor for CountedCursor<'_> {
    fn next_inst(&mut self) -> Option<TraceInst> {
        let inst = self.inner.next_inst();
        if inst.is_some() {
            self.pulled.set(self.pulled.get() + 1);
        }
        inst
    }
}

/// The riscv-sim style constant-latency memory: every access costs the
/// L1 hit latency, so an engine pass over it times the core model alone.
struct FixedMem(Cycle);

impl MemBackend for FixedMem {
    fn access(&mut self, _pc: Pc, _addr: Addr, _is_store: bool, _now: Cycle) -> Cycle {
        self.0
    }
}

// ---------------------------------------------------------------------------
// The traced matrix

/// Scheme indices into per-scheme arrays (the `SCHEMES` order).
const BASE: usize = 0;
const RPG2: usize = 1;
const TRIANGEL: usize = 2;
const PROPHET: usize = 3;

/// Everything a traced pass accumulates besides its spans.
#[derive(Default)]
struct Acc {
    l1: CallStats,
    l2: [CallStats; 4],
    dedup_drops: u64,
    inflight_drops: u64,
    pulled: u64,
    cursors: [u64; 4],
    hinted_pcs: u64,
    qualified_pcs: u64,
    /// `(input name, profile counters)` of every Prophet cell.
    profiles: Vec<(String, ProfileCounters)>,
}

impl Acc {
    /// Runs one simulation with decorated prefetchers over a counted
    /// source, attributing everything to `scheme`.
    fn sim(
        &mut self,
        scheme: usize,
        w: &dyn TraceSource,
        l1: Box<dyn L1Prefetcher>,
        l2: Box<dyn L2Prefetcher>,
        run: impl FnOnce(&dyn TraceSource, Box<dyn L1Prefetcher>, Box<dyn L2Prefetcher>) -> SimReport,
    ) -> SimReport {
        let src = Counted::new(w);
        let l1s = Rc::new(Cell::new(CallStats::default()));
        let l2s = Rc::new(Cell::new(CallStats::default()));
        let before = issue_path_stats();
        let report = run(
            &src,
            Box::new(TimedL1 {
                inner: l1,
                stats: Rc::clone(&l1s),
            }),
            Box::new(TimedL2 {
                inner: l2,
                stats: Rc::clone(&l2s),
            }),
        );
        let after = issue_path_stats();
        self.dedup_drops += after.filter_suppressed - before.filter_suppressed;
        self.inflight_drops += after.inflight_fast_drops - before.inflight_fast_drops;
        self.l1.add(l1s.get());
        self.l2[scheme].add(l2s.get());
        self.count(scheme, &src);
        report
    }

    fn count(&mut self, scheme: usize, src: &Counted) {
        self.pulled += src.pulled.get();
        self.cursors[scheme] += src.cursors.get();
    }
}

/// One traced default-path row; equal to `default_row` by construction.
/// RPG2 is the public `Harness::rpg2` over a counted source; the other
/// cells are built here from public calls because their boxed
/// prefetchers are wrapped in decorators (Prophet's mirrors
/// `ProphetPipeline::run_optimized`).
fn traced_default_row(h: &Harness, w: &dyn TraceSource, t: &Tracer, acc: &mut Acc) -> SchemeRow {
    let (sys, warmup, measure) = (&h.sys, h.warmup, h.measure);
    let base = t.span("cell.baseline", || {
        acc.sim(
            BASE,
            w,
            h.l1.build(),
            Box::new(NoL2Prefetch),
            |s, l1, l2| simulate(sys, s, l1, l2, warmup, measure),
        )
    });
    let rpg2 = t.span("cell.rpg2", || {
        let src = Counted::new(w);
        let r = t.span("rpg2.pipeline", || h.rpg2(&src));
        acc.count(RPG2, &src);
        acc.qualified_pcs += r.qualified_pcs.len() as u64;
        r
    });
    let triangel = t.span("cell.triangel", || {
        let tp = Box::new(Triangel::new(TriangelConfig::default()));
        acc.sim(TRIANGEL, w, h.l1.build(), tp, |s, l1, l2| {
            simulate(sys, s, l1, l2, warmup, measure)
        })
    });
    let prophet = t.span("cell.prophet", || {
        let src = Counted::new(w);
        let mut pl = h.prophet_pipeline();
        let profile = t.span("core.profile", || pl.learn_input(&src));
        acc.count(PROPHET, &src);
        acc.profiles
            .push((w.name(), ProfileCounters::from_report(&profile)));
        let hints = t.span("core.analysis", || pl.hints());
        acc.hinted_pcs += hints.pc_hints.len() as u64;
        let prophet = Box::new(Prophet::new(pl.prophet_config().clone(), &hints));
        t.span("core.optimized", || {
            acc.sim(
                PROPHET,
                w,
                Box::new(StridePrefetcher::default()),
                prophet,
                |s, l1, l2| simulate(sys, s, l1, l2, warmup, measure),
            )
        })
    });
    SchemeRow {
        workload: w.name(),
        base,
        rpg2,
        triangel,
        prophet,
    }
}

/// The checkpoint a cold `checkpoint_via_store` returns (built, saved,
/// and round-tripped through the codec), with store spans. Composed here
/// from the public calls `checkpoint_via_store` makes, so that building
/// and saving are timed apart.
fn traced_cold_checkpoint(
    h: &Harness,
    w: &dyn TraceSource,
    store: &ArtifactStore,
    t: &Tracer,
) -> WarmupCheckpoint {
    let key = h.checkpoint_key(w);
    let built = t.span("store.ckpt_build", || h.build_checkpoint(w));
    let bytes = encode_checkpoint(&key, &built);
    let (_, ckpt) = decode_checkpoint(&bytes).expect("freshly encoded checkpoint decodes");
    t.span("store.ckpt_save", || store.save_checkpoint(&key, &built))
        .expect("save a checkpoint");
    ckpt
}

/// One traced warm-store row of the rerun, whose profiles are in the
/// store; equal to `stored_row` by construction. RPG2 is the public
/// `Harness::rpg2_warm` over a counted source; the other cells are built
/// here from public calls because their boxed prefetchers are wrapped in
/// decorators (Prophet's mirrors the load branch of
/// `Harness::prophet_warm_stored`).
fn traced_stored_row(
    h: &Harness,
    w: &dyn TraceSource,
    ckpt: &WarmupCheckpoint,
    store: &ArtifactStore,
    t: &Tracer,
    acc: &mut Acc,
) -> SchemeRow {
    let (sys, measure) = (&h.sys, h.measure);
    let base = t.span("cell.baseline", || {
        acc.sim(
            BASE,
            w,
            h.l1.build(),
            Box::new(NoL2Prefetch),
            |s, l1, l2| ckpt.warm.simulate(sys, s, l1, l2, measure),
        )
    });
    let rpg2 = t.span("cell.rpg2", || {
        let src = Counted::new(w);
        let r = t.span("rpg2.pipeline", || h.rpg2_warm(&src, ckpt));
        acc.count(RPG2, &src);
        acc.qualified_pcs += r.qualified_pcs.len() as u64;
        r
    });
    let triangel = t.span("cell.triangel", || {
        let mut tp = Triangel::new(TriangelConfig::default());
        tp.seed_warmup(&ckpt.temporal);
        acc.sim(TRIANGEL, w, h.l1.build(), Box::new(tp), |s, l1, l2| {
            ckpt.warm.simulate(sys, s, l1, l2, measure)
        })
    });
    let prophet = t.span("cell.prophet", || {
        let src = Counted::new(w);
        let window = h.materialize_window(&src, ckpt.warm.warmup);
        acc.count(PROPHET, &src);
        let key = h.profile_key(w);
        let counters = t
            .span("store.profile_load", || store.load_profile(&key))
            .ok()
            .flatten()
            .map(|a| a.counters)
            .unwrap_or_default();
        acc.profiles.push((w.name(), counters.clone()));
        let mut learned = LearnedProfile::new();
        learned.learn(counters);
        let hints = t.span("core.analysis", || {
            learned.build_hints(&AnalysisConfig::default())
        });
        acc.hinted_pcs += hints.pc_hints.len() as u64;
        let mut prophet = Prophet::new(ProphetConfig::default(), &hints);
        prophet.seed_warmup(&ckpt.temporal);
        t.span("core.optimized", || {
            acc.sim(PROPHET, w, h.l1.build(), Box::new(prophet), |s, l1, l2| {
                ckpt.warm.simulate_window(sys, &s.name(), &window, l1, l2)
            })
        })
    });
    SchemeRow {
        workload: w.name(),
        base,
        rpg2,
        triangel,
        prophet,
    }
}

// ---------------------------------------------------------------------------
// Ablation

/// Host seconds of each ablation stage, summed over the inputs.
#[derive(Default)]
struct Ablation {
    insts: u64,
    mem_ops: u64,
    drain: f64,
    engine: f64,
    hierarchy: f64,
    l1: f64,
    triangel: f64,
    prophet: f64,
}

/// drain → engine + fixed latency → + hierarchy → + L1 prefetcher → +
/// scheme, each over the first `measure` instructions of every input from
/// a cold machine (no warm-up: the stages time per-instruction cost, and
/// the shorter window keeps the traced run inside its time limit).
/// `hints` are the traced pass's Prophet hints per input.
fn ablate<W: TraceSource>(
    h: &Harness,
    inputs: &[W],
    hints: &[prophet::HintSet],
    t: &Tracer,
) -> Ablation {
    let window = h.measure;
    let mut a = Ablation::default();
    for (w, hints) in inputs.iter().zip(hints) {
        t.span("ablate.input", || {
            let start = Instant::now();
            let mut c = w.cursor();
            let mut n = 0;
            while n < window {
                let Some(inst) = c.next_inst() else { break };
                n += 1;
                a.mem_ops += u64::from(inst.op.is_some());
                std::hint::black_box(inst);
            }
            a.drain += secs(start);
            a.insts += n;
            a.engine += t.span("ablate.engine", || {
                let start = Instant::now();
                let mut engine = Engine::new(h.sys.core);
                let mut mem = FixedMem(h.sys.l1d.hit_latency);
                let mut c = w.cursor();
                for _ in 0..window {
                    let Some(inst) = c.next_inst() else { break };
                    engine.step(&inst, &mut mem);
                }
                std::hint::black_box(engine.stats());
                secs(start)
            });
            let stage = |name: &str, l1: Box<dyn L1Prefetcher>, l2: Box<dyn L2Prefetcher>| {
                t.span(name, || {
                    let start = Instant::now();
                    std::hint::black_box(simulate(&h.sys, w, l1, l2, 0, window));
                    secs(start)
                })
            };
            a.hierarchy += stage(
                "ablate.hierarchy",
                Box::new(NoL1Prefetch),
                Box::new(NoL2Prefetch),
            );
            a.l1 += stage("ablate.l1", h.l1.build(), Box::new(NoL2Prefetch));
            a.triangel += stage(
                "ablate.triangel",
                h.l1.build(),
                Box::new(Triangel::new(TriangelConfig::default())),
            );
            a.prophet += stage(
                "ablate.prophet",
                h.l1.build(),
                Box::new(Prophet::new(ProphetConfig::default(), hints)),
            );
        });
    }
    a
}

// ---------------------------------------------------------------------------
// Store and service probes

/// Store-layer numbers (from the workload's own store use, or a probe).
#[derive(Default)]
struct StoreNumbers {
    bytes: u64,
    reused: u64,
    created: u64,
}

/// Saves and reloads every input's checkpoint and profile in a fresh
/// store (the default-path workloads never touch one otherwise).
fn store_probe<W: TraceSource>(
    h: &Harness,
    inputs: &[W],
    profiles: &[(String, ProfileCounters)],
    t: &Tracer,
    out: &mut Outcome,
) -> StoreNumbers {
    let dir = Scratch::new("store-probe");
    let store = ArtifactStore::open(&dir.0).expect("open a probe store");
    for (w, (_, counters)) in inputs.iter().zip(profiles) {
        let ckpt = traced_cold_checkpoint(h, w, &store, t);
        let loaded = t.span("store.ckpt_load", || {
            store.load_checkpoint(&h.checkpoint_key(w))
        });
        out.check(matches!(loaded, Ok(Some(ref l)) if *l == ckpt), || {
            format!("{}: reloaded checkpoint differs", w.name())
        });
        let key = h.profile_key(w);
        let artifact = ProfileArtifact {
            counters: counters.clone(),
            loops: 1,
        };
        t.span("store.profile_save", || store.save_profile(&key, &artifact))
            .expect("save a profile");
        let loaded = t.span("store.profile_load", || store.load_profile(&key));
        out.check(matches!(loaded, Ok(Some(ref l)) if *l == artifact), || {
            format!("{}: reloaded profile differs", w.name())
        });
    }
    let a = store.activity();
    StoreNumbers {
        bytes: dir.bytes(),
        reused: a.checkpoints_reused + a.profiles_reused,
        created: a.checkpoints_created + a.profiles_created,
    }
}

// ---------------------------------------------------------------------------
// Reporting

/// Pooled modelled numbers of one scheme over a matrix's rows.
fn pooled(rows: &[SchemeRow], pick: impl Fn(&SchemeRow) -> &SimReport) -> SimReport {
    let mut p = SimReport::default();
    for r in rows {
        let s = pick(r);
        p.instructions += s.instructions;
        p.issued_prefetches += s.issued_prefetches;
        p.useful_prefetches += s.useful_prefetches;
        p.l2.demand_misses += s.l2.demand_misses;
        p.llc.demand_misses += s.llc.demand_misses;
        p.dram.reads += s.dram.reads;
        p.dram.writes += s.dram.writes;
    }
    p
}

/// Everything one traced run measured, turned into the per-layer metrics.
struct Report<'a> {
    t: &'a Tracer,
    rows: &'a [SchemeRow],
    acc: &'a Acc,
    ablation: &'a Ablation,
    store: StoreNumbers,
    service: ServiceNumbers,
    /// Host seconds of Prophet's profiling passes.
    profile_s: f64,
    overhead: f64,
}

fn us(xs: &mut [f64], p: f64) -> f64 {
    percentile(xs, p) * 1e6
}

impl Report<'_> {
    fn emit(mut self, out: &mut Outcome) {
        let (t, acc, a) = (self.t, self.acc, self.ablation);
        out.metric(
            "workloads.ns_per_inst",
            a.drain * 1e9 / a.insts as f64,
            "ns",
        );
        out.metric("workloads.insts_pulled", acc.pulled as f64, "count");
        for (i, s) in SCHEMES.iter().enumerate() {
            out.metric(
                format!("workloads.cursors_opened.{s}"),
                acc.cursors[i] as f64,
                "count",
            );
        }
        out.metric(
            "sim-core.engine_ns_per_inst",
            (a.engine - a.drain) * 1e9 / a.insts as f64,
            "ns",
        );
        out.metric(
            "sim-core.issue_dedup_drops",
            acc.dedup_drops as f64,
            "count",
        );
        out.metric(
            "sim-core.issue_inflight_drops",
            acc.inflight_drops as f64,
            "count",
        );
        let reqs: u64 = acc.l2.iter().map(|s| s.reqs).sum();
        out.metric(
            "sim-core.issue_admit_ratio",
            (reqs - acc.dedup_drops) as f64 / reqs.max(1) as f64,
            "ratio",
        );
        out.metric(
            "sim-mem.hierarchy_ns_per_access",
            (a.hierarchy - a.engine) * 1e9 / a.mem_ops.max(1) as f64,
            "ns",
        );
        let picks: [fn(&SchemeRow) -> &SimReport; 4] = [
            |r| &r.base,
            |r| &r.rpg2.report,
            |r| &r.triangel,
            |r| &r.prophet,
        ];
        let pooled: Vec<SimReport> = picks.iter().map(|p| pooled(self.rows, p)).collect();
        for (s, p) in SCHEMES.iter().zip(&pooled) {
            out.metric(format!("sim-mem.l2_mpki.{s}"), p.l2_mpki(), "mpki");
            let llc = p.llc.demand_misses as f64 * 1000.0 / p.instructions.max(1) as f64;
            out.metric(format!("sim-mem.llc_mpki.{s}"), llc, "mpki");
        }
        for (i, s) in SCHEMES.iter().enumerate().skip(1) {
            out.metric(
                format!("sim-mem.dram_traffic_ratio.{s}"),
                pooled[i].traffic_ratio_over(&pooled[BASE]),
                "ratio",
            );
        }
        out.metric("prefetch.l1_calls", acc.l1.calls as f64, "count");
        out.metric("prefetch.l1_ns_per_call", acc.l1.per_call(acc.l1.ns), "ns");
        out.metric(
            "prefetch.l1_reqs_per_call",
            acc.l1.per_call(acc.l1.reqs),
            "count",
        );
        out.metric(
            "prefetch.l1_added_ns_per_inst",
            (a.l1 - a.hierarchy) * 1e9 / a.insts as f64,
            "ns",
        );
        let tri = &acc.l2[TRIANGEL];
        out.metric("temporal.calls.triangel", tri.calls as f64, "count");
        out.metric("temporal.ns_per_call.triangel", tri.per_call(tri.ns), "ns");
        out.metric(
            "temporal.prefetches_per_call.triangel",
            tri.per_call(tri.reqs),
            "count",
        );
        out.metric(
            "temporal.meta_dram_per_call.triangel",
            tri.per_call(tri.meta_dram),
            "count",
        );
        out.metric(
            "temporal.accuracy.triangel",
            pooled[TRIANGEL].accuracy(),
            "ratio",
        );
        out.metric(
            "temporal.coverage.triangel",
            pooled[TRIANGEL].coverage(),
            "ratio",
        );
        out.metric(
            "temporal.added_ns_per_inst.triangel",
            (a.triangel - a.l1) * 1e9 / a.insts as f64,
            "ns",
        );
        let pro = &acc.l2[PROPHET];
        out.metric("core.profile_s", self.profile_s, "s");
        out.metric("core.analysis_s", t.total("core.analysis"), "s");
        out.metric("core.optimized_s", t.total("core.optimized"), "s");
        out.metric("core.calls.prophet", pro.calls as f64, "count");
        out.metric("core.ns_per_call.prophet", pro.per_call(pro.ns), "ns");
        out.metric(
            "core.prefetches_per_call.prophet",
            pro.per_call(pro.reqs),
            "count",
        );
        out.metric("core.hinted_pcs", acc.hinted_pcs as f64, "count");
        out.metric("core.accuracy.prophet", pooled[PROPHET].accuracy(), "ratio");
        out.metric("core.coverage.prophet", pooled[PROPHET].coverage(), "ratio");
        out.metric(
            "core.added_ns_per_inst.prophet",
            (a.prophet - a.l1) * 1e9 / a.insts as f64,
            "ns",
        );
        out.metric("rpg2.pipeline_s", t.total("rpg2.pipeline"), "s");
        out.metric("rpg2.qualified_pcs", acc.qualified_pcs as f64, "count");
        out.metric("store.ckpt_build_s", t.total("store.ckpt_build"), "s");
        out.metric("store.ckpt_save_s", t.total("store.ckpt_save"), "s");
        out.metric("store.ckpt_load_s", t.total("store.ckpt_load"), "s");
        out.metric("store.profile_load_s", t.total("store.profile_load"), "s");
        out.metric("store.bytes", self.store.bytes as f64, "bytes");
        out.metric("store.reused", self.store.reused as f64, "count");
        out.metric("store.created", self.store.created as f64, "count");
        let n = &mut self.service;
        out.metric(
            "service.state_submit_us",
            us(&mut n.state_submit_s, 50.0),
            "us",
        );
        out.metric(
            "service.state_fetch_us",
            us(&mut n.state_fetch_s, 50.0),
            "us",
        );
        out.metric("service.fresh", n.fresh as f64, "count");
        out.metric("service.duplicate", n.duplicate as f64, "count");
        out.metric("service.optimizes", n.optimizes as f64, "count");
        out.metric("service.submit_p50_us", us(&mut n.submit_s, 50.0), "us");
        out.metric("service.submit_p95_us", us(&mut n.submit_s, 95.0), "us");
        out.metric("service.fetch_p50_us", us(&mut n.fetch_s, 50.0), "us");
        out.metric("service.fetch_p99_us", us(&mut n.fetch_s, 99.0), "us");
        out.metric(
            "service.submit_per_s",
            n.submit_s.len() as f64 / n.submit_wall_s,
            "1/s",
        );
        out.metric(
            "service.fetch_per_s",
            n.fetch_s.len() as f64 / n.fetch_wall_s,
            "1/s",
        );
        out.metric("trace_overhead", self.overhead, "ratio");
    }
}

fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(".perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

/// The Prophet hints each traced row's optimized pass ran with.
fn hints_of(acc: &Acc) -> Vec<HintSet> {
    acc.profiles
        .iter()
        .map(|(_, c)| {
            let mut l = LearnedProfile::new();
            l.learn(c.clone());
            l.build_hints(&AnalysisConfig::default())
        })
        .collect()
}

/// The service probes' profile set: one key per input, and for
/// `spec-default` also the nine gcc inputs under one key.
fn service_set(h: &Harness, profiles: &[(String, ProfileCounters)]) -> ProfileSet {
    ProfileSet::new(profiles, config_digest(&h.sys), h.warmup, h.measure)
}

/// `spec-default`, traced: the matrix untraced then traced, ablation,
/// and the store and service probes.
pub fn spec_default(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t = Tracer::new();
    let h = Harness::default();
    let inputs = t.span("setup", || spec_inputs(&h, args.seed));
    let start = Instant::now();
    let want: Vec<SchemeRow> = inputs
        .iter()
        .map(|w| default_row(&h, w, &mut Vec::new(), &mut || ()))
        .collect();
    let untraced = secs(start);
    let mut acc = Acc::default();
    let start = Instant::now();
    let rows: Vec<SchemeRow> = t.span("pass.traced", || {
        inputs
            .iter()
            .map(|w| traced_default_row(&h, w, &t, &mut acc))
            .collect()
    });
    let traced = secs(start);
    check_rows(&mut out, "traced cell vs Harness cell", &rows, &want);
    let ablation = ablate(&h, &inputs, &hints_of(&acc), &t);
    let store = store_probe(&h, &inputs, &acc.profiles, &t, &mut out);
    let mut profiles = acc.profiles.clone();
    let window = h.warmup + h.measure;
    for name in GCC_INPUTS {
        let w = spec_input(name, args.seed, window);
        let (counters, _) = t.span("core.profile_gcc", || {
            profile_workload(&h.sys, &w, h.warmup, h.measure)
        });
        profiles.push(("gcc-inputs".to_string(), counters));
    }
    let service = service::probe(&service_set(&h, &profiles), &t, &mut out);
    Report {
        t: &t,
        rows: &rows,
        acc: &acc,
        ablation: &ablation,
        store,
        service,
        profile_s: t.total("core.profile"),
        overhead: traced / untraced,
    }
    .emit(&mut out);
    t.write(&spans_path(args));
    out
}

/// `crono-store`, traced: a cold run into a fresh store (checkpoints
/// built and saved with store spans, cells through the public calls),
/// then the warm rerun untraced and traced. The warm rows must equal the
/// cold rows, and the traced warm cells the untraced warm cells.
///
/// `core.profile_s` is the cold Prophet cells' time (profile, save,
/// optimized run) minus the untraced warm ones' (load, optimized run):
/// the stored profiling pass is private to `Harness`, and this times it
/// through the public `prophet_warm_stored` without copying it.
pub fn crono_store(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let t = Tracer::new();
    let h = crono_harness();
    let dir = Scratch::new("crono-traced");
    let mut cold_steps = Steps::new();
    let (cold_rows, created) = t.span("pass.cold", || {
        let inputs = t.span("setup.inputs", || crono_inputs(&h, args.seed));
        let store = ArtifactStore::open(&dir.0).expect("open a fresh store");
        let ckpts: Vec<WarmupCheckpoint> = inputs
            .iter()
            .map(|w| traced_cold_checkpoint(&h, w, &store, &t))
            .collect();
        let rows: Vec<SchemeRow> = inputs
            .iter()
            .zip(&ckpts)
            .map(|(w, c)| stored_row(&h, w, c, &store, &mut cold_steps, &mut || ()))
            .collect();
        let a = store.activity();
        (rows, a.checkpoints_created + a.profiles_created)
    });
    let bytes = dir.bytes();

    let mut warm_steps = Steps::new();
    let start = Instant::now();
    let warm_rows: Vec<SchemeRow> = {
        let inputs = crono_inputs(&h, args.seed);
        let store = ArtifactStore::open(&dir.0).expect("reopen the store");
        inputs
            .iter()
            .map(|w| {
                let ckpt = h.checkpoint_via_store(&store, w);
                stored_row(&h, w, &ckpt, &store, &mut warm_steps, &mut || ())
            })
            .collect()
    };
    let untraced = secs(start);
    check_rows(&mut out, "warm rerun vs cold run", &warm_rows, &cold_rows);
    let prophet_s = |steps: &Steps| -> f64 {
        steps
            .iter()
            .filter(|(scheme, _)| *scheme == Some(PROPHET))
            .map(|(_, s)| s)
            .sum()
    };
    let profile_s = prophet_s(&cold_steps) - prophet_s(&warm_steps);

    let mut acc = Acc::default();
    let start = Instant::now();
    let (inputs, rows, reused) = t.span("pass.traced", || {
        let inputs = t.span("setup.inputs", || crono_inputs(&h, args.seed));
        let store = ArtifactStore::open(&dir.0).expect("reopen the store");
        let rows: Vec<SchemeRow> = inputs
            .iter()
            .map(|w| {
                let ckpt = t.span("store.ckpt_load", || h.checkpoint_via_store(&store, w));
                traced_stored_row(&h, w, &ckpt, &store, &t, &mut acc)
            })
            .collect();
        let a = store.activity();
        out.check(a.checkpoints_created + a.profiles_created == 0, || {
            "traced rerun rebuilt an artifact".into()
        });
        (inputs, rows, a.checkpoints_reused + a.profiles_reused)
    });
    let traced = secs(start);
    check_rows(
        &mut out,
        "traced warm cell vs Harness cell",
        &rows,
        &warm_rows,
    );

    let ablation = ablate(&h, &inputs, &hints_of(&acc), &t);
    let service = service::probe(&service_set(&h, &acc.profiles), &t, &mut out);
    Report {
        t: &t,
        rows: &rows,
        acc: &acc,
        ablation: &ablation,
        store: StoreNumbers {
            bytes,
            reused,
            created,
        },
        service,
        profile_s,
        overhead: traced / untraced,
    }
    .emit(&mut out);
    t.write(&spans_path(args));
    out
}
