//! # prophet-bench
//!
//! The benchmark harness reproducing every table and figure of the Prophet
//! paper. One binary per experiment lives in `src/bin/` (see EXPERIMENTS.md
//! for the index); this library holds the shared runners.

pub mod metrics;
pub mod runner;

use prophet::{
    AnalysisConfig, LearnedProfile, ProfileCounters, Prophet, ProphetConfig, ProphetPipeline,
    RunLengths, SimplifiedTp,
};
use prophet_prefetch::{IpcpPrefetcher, L1Prefetcher, NoL2Prefetch, StridePrefetcher};
use prophet_rpg2::{Rpg2Pipeline, Rpg2Result};
use prophet_sim_core::{
    simulate, Engine, MemBackend, SimReport, TraceInst, TraceSource, WarmStart,
};
use prophet_sim_mem::addr::{Addr, Cycle, Pc};
use prophet_sim_mem::{Hierarchy, SystemConfig};
use prophet_store::{
    config_digest, decode_checkpoint, decode_profile, encode_checkpoint, encode_profile,
    store_warn, ArtifactStore, ProfileArtifact, StoreKey, WarmupCheckpoint,
};
use prophet_temporal::{TemporalConfig, TemporalEngine, Triage, Triangel, TriangelConfig};

// The silenceable warning funnel now lives in `prophet-store` (the service
// shares it); re-exported here so existing `prophet_bench::
// set_store_warnings` callers keep compiling.
pub use prophet_store::set_store_warnings;

/// Which L1 prefetcher a run uses (Figure 17 swaps stride for IPCP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Scheme {
    Stride,
    Ipcp,
}

impl L1Scheme {
    /// Instantiates the prefetcher.
    pub fn build(self) -> Box<dyn L1Prefetcher> {
        match self {
            L1Scheme::Stride => Box::new(StridePrefetcher::default()),
            L1Scheme::Ipcp => Box::new(IpcpPrefetcher::default()),
        }
    }

    /// Stable tag used in store keys.
    fn tag(self) -> &'static str {
        match self {
            L1Scheme::Stride => "stride",
            L1Scheme::Ipcp => "ipcp",
        }
    }
}

/// Shared experiment runner: system config + run lengths + L1 scheme.
#[derive(Debug, Clone)]
pub struct Harness {
    pub sys: SystemConfig,
    pub warmup: u64,
    pub measure: u64,
    pub l1: L1Scheme,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            sys: SystemConfig::isca25(),
            warmup: 200_000,
            measure: 650_000,
            l1: L1Scheme::Stride,
        }
    }
}

impl Harness {
    /// The baseline without a temporal prefetcher (denominator of every
    /// speedup in the paper).
    pub fn baseline(&self, w: &dyn TraceSource) -> SimReport {
        simulate(
            &self.sys,
            w,
            self.l1.build(),
            Box::new(NoL2Prefetch),
            self.warmup,
            self.measure,
        )
    }

    /// Triage at degree 4 with Triangel's metadata format — the Figure 19
    /// ablation baseline.
    pub fn triage4(&self, w: &dyn TraceSource) -> SimReport {
        simulate(
            &self.sys,
            w,
            self.l1.build(),
            Box::new(Triage::degree4()),
            self.warmup,
            self.measure,
        )
    }

    /// Triangel (the hardware state of the art).
    pub fn triangel(&self, w: &dyn TraceSource) -> SimReport {
        simulate(
            &self.sys,
            w,
            self.l1.build(),
            Box::new(Triangel::new(TriangelConfig::default())),
            self.warmup,
            self.measure,
        )
    }

    /// RPG2 with its identify → instrument → tune pipeline.
    ///
    /// Multi-pass pipelines deliberately re-stream the generator on every
    /// pass: the synthetic workloads' working set (the graph itself) is
    /// cache-resident, so regeneration is cheaper than replaying a
    /// materialized multi-megabyte instruction buffer from DRAM.
    pub fn rpg2(&self, w: &dyn TraceSource) -> Rpg2Result {
        let pl = Rpg2Pipeline::new(self.sys.clone(), self.warmup, self.measure);
        pl.run(w)
    }

    /// A fresh Prophet pipeline bound to this harness's configuration.
    pub fn prophet_pipeline(&self) -> ProphetPipeline {
        self.prophet_pipeline_with(AnalysisConfig::default(), ProphetConfig::default())
    }

    /// Prophet pipeline with explicit analysis/prefetcher configs
    /// (sensitivity and ablation sweeps).
    pub fn prophet_pipeline_with(
        &self,
        analysis: AnalysisConfig,
        prophet: ProphetConfig,
    ) -> ProphetPipeline {
        ProphetPipeline::new(
            self.sys.clone(),
            analysis,
            prophet,
            RunLengths {
                warmup: self.warmup,
                measure: self.measure,
            },
        )
    }

    /// Full Prophet on one workload: profile it, analyze, run optimized.
    /// (Single-input "Direct" mode; the learning figures drive the pipeline
    /// manually.)
    pub fn prophet(&self, w: &dyn TraceSource) -> SimReport {
        self.prophet_with(w, AnalysisConfig::default(), ProphetConfig::default())
    }

    /// Prophet with explicit configs.
    pub fn prophet_with(
        &self,
        w: &dyn TraceSource,
        analysis: AnalysisConfig,
        prophet: ProphetConfig,
    ) -> SimReport {
        let mut pl = self.prophet_pipeline_with(analysis, prophet);
        pl.learn_input(w);
        if self.l1 == L1Scheme::Ipcp {
            // The pipeline's optimized run uses the stride L1; rebuild with
            // the harness's L1 scheme instead.
            simulate(
                &self.sys,
                w,
                self.l1.build(),
                Box::new(pl.build_prophet()),
                self.warmup,
                self.measure,
            )
        } else {
            pl.run_optimized(w)
        }
    }
}

/// The scheme-independent warm-up machine: the baseline memory system (L1
/// prefetcher on, no L2 prefetcher, unpartitioned LLC) plus a *passive*
/// temporal observer — a simplified-configuration engine that trains on the
/// L2 stream but never prefetches and never partitions. Its post-warm-up
/// state is exactly what a [`WarmupCheckpoint`] persists; every scheme then
/// applies its own partition/policies at the measurement boundary (the
/// checkpoint-validity rule, DESIGN.md §6).
struct WarmupMachine {
    mem: Hierarchy,
    l1pf: Box<dyn L1Prefetcher>,
    observer: TemporalEngine,
}

impl WarmupMachine {
    fn observe(&mut self, ev: &prophet_sim_mem::hierarchy::L2Event) {
        // Train and look up (lookups refresh replacement recency exactly as
        // the profiling prefetcher would) but discard all decisions.
        let _ = self.observer.on_access(ev, None);
        self.observer.drain_evictions();
    }
}

impl MemBackend for WarmupMachine {
    fn access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Cycle {
        let out = self.mem.demand_access(pc, addr.line(), is_store, now);
        if let Some(ev) = out.l2_event {
            self.observe(&ev);
        }
        // Mirror the live simulator's wiring: L1-prefetch requests that
        // propagate past the L1 appear in the L2 stream too (Section 5.1).
        for target in self.l1pf.on_l1_access(pc, addr, out.l1_hit) {
            if let Some(ev) = self.mem.l1_prefetch(pc, target.line(), now) {
                self.observe(&ev);
            }
        }
        out.latency
    }
}

impl Harness {
    /// The workload spec string used in store keys: the registry name plus
    /// everything else that shapes the generated trace (window sizing — a
    /// longer window can change a CRONO graph, not just its length — and
    /// the L1 scheme).
    fn workload_spec(&self, w: &dyn TraceSource) -> String {
        format!(
            "{}@{}+l1={}",
            w.name(),
            self.warmup + self.measure,
            self.l1.tag()
        )
    }

    /// Store key of this harness's warm-up checkpoint for `w`. Checkpoints
    /// are measurement-length independent only through the spec string's
    /// sizing (a different `--insts` can regenerate a different trace), so
    /// the explicit `measure` field stays zero.
    pub fn checkpoint_key(&self, w: &dyn TraceSource) -> StoreKey {
        StoreKey {
            workload: self.workload_spec(w),
            config: config_digest(&self.sys),
            warmup: self.warmup,
            measure: 0,
        }
    }

    /// Store key of a profile artifact for `w` (profiles depend on the
    /// measurement window too).
    pub fn profile_key(&self, w: &dyn TraceSource) -> StoreKey {
        StoreKey {
            workload: self.workload_spec(w),
            config: config_digest(&self.sys),
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// Simulates the scheme-independent warm-up of `w` and captures it as
    /// a checkpoint: machine state ([`WarmStart`]) plus the passively
    /// trained temporal state. The warm-up is cycle-accurate (engine +
    /// timing hierarchy): exactly the state a measurement phase would have
    /// seen mid-run.
    pub fn build_checkpoint(&self, w: &dyn TraceSource) -> WarmupCheckpoint {
        let mut engine = Engine::new(self.sys.core);
        let mut machine = WarmupMachine {
            mem: Hierarchy::new(&self.sys),
            l1pf: self.l1.build(),
            observer: TemporalEngine::new(TemporalConfig::simplified_profiling()),
        };
        let mut cursor = w.cursor();
        let mut fed = 0u64;
        while fed < self.warmup {
            match cursor.next_inst() {
                Some(inst) => engine.step(&inst, &mut machine),
                None => break,
            }
            fed += 1;
        }
        WarmupCheckpoint {
            warm: WarmStart {
                engine: engine.snapshot(),
                memory: machine.mem.snapshot(),
                warmup: self.warmup,
            },
            temporal: machine.observer.warmup_snapshot(),
        }
    }

    /// Loads `w`'s checkpoint from the store, or builds and saves it. The
    /// built checkpoint is returned *through the codec* (encode → decode),
    /// so a cold run and a later warm run restore bit-identical state —
    /// the property the warm-start golden test pins.
    pub fn checkpoint_via_store(
        &self,
        store: &ArtifactStore,
        w: &dyn TraceSource,
    ) -> WarmupCheckpoint {
        let key = self.checkpoint_key(w);
        match store.load_checkpoint(&key) {
            Ok(Some(ckpt)) => return ckpt,
            Ok(None) => {}
            Err(e) => store_warn(format_args!(
                "store: ignoring unreadable checkpoint for {}: {e}",
                key.workload
            )),
        }
        let ckpt = self.build_checkpoint(w);
        let bytes = encode_checkpoint(&key, &ckpt);
        let (_, round_tripped) =
            decode_checkpoint(&bytes).expect("freshly encoded checkpoint must decode");
        if let Err(e) = store.save_checkpoint(&key, &ckpt) {
            store_warn(format_args!(
                "store: could not save checkpoint for {}: {e}",
                key.workload
            ));
        }
        round_tripped
    }

    /// Baseline measurement from a shared warm-up checkpoint.
    pub fn baseline_warm(&self, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> SimReport {
        ckpt.warm.simulate(
            &self.sys,
            w,
            self.l1.build(),
            Box::new(NoL2Prefetch),
            self.measure,
        )
    }

    /// [`Harness::baseline_warm`] over a pre-materialized window
    /// (bit-identical to the cursor path — `WarmStart::simulate_window`).
    pub fn baseline_warm_window(
        &self,
        name: &str,
        window: &[TraceInst],
        ckpt: &WarmupCheckpoint,
    ) -> SimReport {
        ckpt.warm.simulate_window(
            &self.sys,
            name,
            window,
            self.l1.build(),
            Box::new(NoL2Prefetch),
        )
    }

    /// Triangel measurement from a shared warm-up checkpoint (table +
    /// trainer seeded from the checkpoint's passive training).
    pub fn triangel_warm(&self, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> SimReport {
        let mut tp = Triangel::new(TriangelConfig::default());
        tp.seed_warmup(&ckpt.temporal);
        ckpt.warm
            .simulate(&self.sys, w, self.l1.build(), Box::new(tp), self.measure)
    }

    /// [`Harness::triangel_warm`] over a pre-materialized window.
    pub fn triangel_warm_window(
        &self,
        name: &str,
        window: &[TraceInst],
        ckpt: &WarmupCheckpoint,
    ) -> SimReport {
        let mut tp = Triangel::new(TriangelConfig::default());
        tp.seed_warmup(&ckpt.temporal);
        ckpt.warm
            .simulate_window(&self.sys, name, window, self.l1.build(), Box::new(tp))
    }

    /// RPG2's identify → instrument → tune pipeline from a shared warm-up
    /// checkpoint (every internal pass warm-starts).
    pub fn rpg2_warm(&self, w: &dyn TraceSource, ckpt: &WarmupCheckpoint) -> Rpg2Result {
        Rpg2Pipeline::new(self.sys.clone(), self.warmup, self.measure).run_warm(w, &ckpt.warm)
    }

    /// Materializes the measurement window of `w` once: skip `skip`
    /// instructions, then collect up to `self.measure`. Multi-pass
    /// pipelines replay the buffer instead of regenerating the trace per
    /// pass (`WarmStart::simulate_window` pins the replay bit-identical to
    /// the cursor path). Public so the bench runner's warm cells can
    /// hoist this scheme-independent work out of the cell wall clocks.
    pub fn materialize_window(&self, w: &dyn TraceSource, skip: u64) -> Vec<TraceInst> {
        let mut cursor = w.cursor();
        let mut skipped = 0u64;
        while skipped < skip {
            if cursor.next_inst().is_none() {
                break;
            }
            skipped += 1;
        }
        let mut window = Vec::with_capacity(self.measure.min(1 << 24) as usize);
        let mut got = 0u64;
        while got < self.measure {
            match cursor.next_inst() {
                Some(inst) => window.push(inst),
                None => break,
            }
            got += 1;
        }
        window
    }

    /// Prophet's profiling pass from a shared warm-up over a materialized
    /// window (the paper profiles under the stride L1).
    fn prophet_profile_pass(
        &self,
        name: &str,
        ckpt: &WarmupCheckpoint,
        window: &[TraceInst],
    ) -> ProfileCounters {
        let mut tp = SimplifiedTp::new();
        tp.seed_warmup(&ckpt.temporal);
        let profile_report = ckpt.warm.simulate_window(
            &self.sys,
            name,
            window,
            Box::new(StridePrefetcher::default()),
            Box::new(tp),
        );
        ProfileCounters::from_report(&profile_report)
    }

    /// Prophet's learn → analyze → optimized run from a shared warm-up
    /// over a materialized window.
    fn prophet_optimized_pass(
        &self,
        name: &str,
        ckpt: &WarmupCheckpoint,
        window: &[TraceInst],
        counters: ProfileCounters,
    ) -> SimReport {
        let mut learned = LearnedProfile::new();
        learned.learn(counters);
        let hints = learned.build_hints(&AnalysisConfig::default());
        let mut prophet = Prophet::new(ProphetConfig::default(), &hints);
        prophet.seed_warmup(&ckpt.temporal);
        ckpt.warm
            .simulate_window(&self.sys, name, window, self.l1.build(), Box::new(prophet))
    }

    /// Full Prophet from a shared warm-up checkpoint over a
    /// pre-materialized window: the profiling pass runs the simplified
    /// prefetcher seeded with the checkpoint's temporal state, analysis
    /// derives the hints, and the optimized pass runs Prophet seeded the
    /// same way. Mirrors [`Harness::prophet`], minus the per-phase warm-up
    /// re-simulation; both passes replay `window` (the bench runner's warm
    /// cells hold it already).
    pub fn prophet_warm_window(
        &self,
        name: &str,
        window: &[TraceInst],
        ckpt: &WarmupCheckpoint,
    ) -> SimReport {
        let counters = self.prophet_profile_pass(name, ckpt, window);
        self.prophet_optimized_pass(name, ckpt, window, counters)
    }

    /// [`Harness::prophet_warm_window`] with store-backed profile reuse: the
    /// learned counters are loaded from the store when present, otherwise
    /// computed by the profiling pass and saved. Freshly computed counters
    /// round-trip through the codec before use — exactly like
    /// [`Harness::checkpoint_via_store`] — so a cold run and a later warm
    /// run learn from bit-identical counter images and produce
    /// bit-identical reports. A warm run skips the profiling simulation
    /// entirely (half of Prophet's measured work).
    pub fn prophet_warm_stored(
        &self,
        w: &dyn TraceSource,
        ckpt: &WarmupCheckpoint,
        store: &ArtifactStore,
    ) -> SimReport {
        let key = self.profile_key(w);
        let window = self.materialize_window(w, ckpt.warm.warmup);
        let counters = match store.load_profile(&key) {
            Ok(Some(artifact)) => artifact.counters,
            other => {
                if let Err(e) = other {
                    store_warn(format_args!(
                        "store: ignoring unreadable profile for {}: {e}",
                        key.workload
                    ));
                }
                let counters = self.prophet_profile_pass(&w.name(), ckpt, &window);
                let artifact = ProfileArtifact { counters, loops: 1 };
                let bytes = encode_profile(&key, &artifact);
                let (_, round_tripped) =
                    decode_profile(&bytes).expect("freshly encoded profile must decode");
                if let Err(e) = store.save_profile(&key, &round_tripped) {
                    store_warn(format_args!(
                        "store: could not save profile for {}: {e}",
                        key.workload
                    ));
                }
                round_tripped.counters
            }
        };
        self.prophet_optimized_pass(&w.name(), ckpt, &window, counters)
    }
}

/// One cell of the scheme×workload matrix ([`Harness::run_matrix`] fans
/// these across workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    Baseline,
    Rpg2,
    Triangel,
    Prophet,
}

const MATRIX_SCHEMES: [Scheme; 4] = [
    Scheme::Baseline,
    Scheme::Rpg2,
    Scheme::Triangel,
    Scheme::Prophet,
];

/// What one matrix cell produced (RPG2 keeps its pipeline diagnostics —
/// qualified PCs and tuned distance — not just the report).
enum Cell {
    Sim(SimReport),
    Rpg2(Rpg2Result),
}

impl Cell {
    fn sim(self) -> SimReport {
        match self {
            Cell::Sim(r) => r,
            Cell::Rpg2(r) => r.report,
        }
    }

    fn rpg2(self) -> Rpg2Result {
        match self {
            Cell::Rpg2(r) => r,
            Cell::Sim(_) => unreachable!("rpg2 cells carry Cell::Rpg2"),
        }
    }
}

/// Fans `count` independent tasks across `jobs` scoped worker threads and
/// returns the results in task order. Tasks must be order-independent —
/// the determinism tests pin that `jobs = 1` and `jobs = N` agree.
fn parallel_tasks<T: Send>(count: usize, jobs: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let jobs = jobs.min(count).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<T>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= count {
                    break;
                }
                *results[i].lock().unwrap() = Some(run(i));
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("every task ran"))
        .collect()
}

impl Harness {
    /// Worker count used when the caller passes `jobs = 0`: every core the
    /// host reports.
    pub fn default_jobs() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Runs the full scheme×workload grid, fanning the cells (one
    /// simulation per scheme per workload) across `jobs` scoped threads,
    /// and returns one [`SchemeRow`] per workload *in input order*.
    ///
    /// Determinism: every cell simulates a fresh cursor of a deterministic
    /// workload on a fresh machine, so no cell depends on which worker runs
    /// it or when — `jobs = 1` and `jobs = N` produce bit-identical rows
    /// (the integration test in `crates/bench/tests/determinism.rs` pins
    /// this). `jobs = 0` means [`Harness::default_jobs`].
    pub fn run_matrix<W: TraceSource + Sync>(
        &self,
        workloads: &[W],
        jobs: usize,
    ) -> Vec<SchemeRow> {
        self.run_matrix_stored(workloads, jobs, None)
    }

    /// [`Harness::run_matrix`] with an optional artifact store. With a
    /// store, the grid shares **one scheme-independent warm-up per
    /// workload**: phase 1 loads (or builds and saves) each workload's
    /// [`WarmupCheckpoint`], phase 2 fans the scheme cells out from those
    /// checkpoints — instead of re-simulating the warm-up up to six times
    /// per workload (baseline, Triangel, Prophet's two passes, RPG2's
    /// identification + distance sweep). A later run against the same
    /// store skips phase 1's simulations entirely and, because cold runs
    /// round-trip their checkpoints through the codec before use, produces
    /// bit-identical rows.
    pub fn run_matrix_stored<W: TraceSource + Sync>(
        &self,
        workloads: &[W],
        jobs: usize,
        store: Option<&ArtifactStore>,
    ) -> Vec<SchemeRow> {
        let jobs = if jobs == 0 {
            Self::default_jobs()
        } else {
            jobs
        };
        let ckpts: Option<Vec<WarmupCheckpoint>> = store.map(|store| {
            parallel_tasks(workloads.len(), jobs, |i| {
                self.checkpoint_via_store(store, &workloads[i])
            })
        });
        let cells = workloads.len() * MATRIX_SCHEMES.len();
        let mut reports: Vec<Cell> = parallel_tasks(cells, jobs, |cell| {
            let w = &workloads[cell / MATRIX_SCHEMES.len()];
            let scheme = MATRIX_SCHEMES[cell % MATRIX_SCHEMES.len()];
            match &ckpts {
                None => match scheme {
                    Scheme::Baseline => Cell::Sim(self.baseline(w)),
                    Scheme::Rpg2 => Cell::Rpg2(self.rpg2(w)),
                    Scheme::Triangel => Cell::Sim(self.triangel(w)),
                    Scheme::Prophet => Cell::Sim(self.prophet(w)),
                },
                Some(ckpts) => {
                    let ckpt = &ckpts[cell / MATRIX_SCHEMES.len()];
                    let store = store.expect("checkpoints imply a store");
                    match scheme {
                        Scheme::Baseline => Cell::Sim(self.baseline_warm(w, ckpt)),
                        Scheme::Rpg2 => Cell::Rpg2(self.rpg2_warm(w, ckpt)),
                        Scheme::Triangel => Cell::Sim(self.triangel_warm(w, ckpt)),
                        Scheme::Prophet => Cell::Sim(self.prophet_warm_stored(w, ckpt, store)),
                    }
                }
            }
        });
        workloads
            .iter()
            .map(|w| {
                let mut four = reports.drain(..MATRIX_SCHEMES.len());
                SchemeRow {
                    workload: w.name(),
                    base: four.next().unwrap().sim(),
                    rpg2: four.next().unwrap().rpg2(),
                    triangel: four.next().unwrap().sim(),
                    prophet: four.next().unwrap().sim(),
                }
            })
            .collect()
    }
}

/// One row of a Figure 10/11/12-style comparison. RPG2 keeps its full
/// pipeline result (qualified PCs, tuned distance) alongside the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRow {
    pub workload: String,
    pub base: SimReport,
    pub rpg2: Rpg2Result,
    pub triangel: SimReport,
    pub prophet: SimReport,
}

impl SchemeRow {
    /// Runs all four schemes on `w`.
    pub fn run(h: &Harness, w: &dyn TraceSource) -> SchemeRow {
        SchemeRow {
            workload: w.name(),
            base: h.baseline(w),
            rpg2: h.rpg2(w),
            triangel: h.triangel(w),
            prophet: h.prophet(w),
        }
    }

    /// `(rpg2, triangel, prophet)` speedups over the baseline.
    pub fn speedups(&self) -> (f64, f64, f64) {
        (
            self.rpg2.report.speedup_over(&self.base),
            self.triangel.speedup_over(&self.base),
            self.prophet.speedup_over(&self.base),
        )
    }

    /// `(rpg2, triangel, prophet)` DRAM traffic normalized to baseline.
    pub fn traffic(&self) -> (f64, f64, f64) {
        (
            self.rpg2.report.traffic_ratio_over(&self.base),
            self.triangel.traffic_ratio_over(&self.base),
            self.prophet.traffic_ratio_over(&self.base),
        )
    }
}

/// Windowing/parallelism/persistence flags shared by the experiment
/// binaries: `--insts N` (measured instructions), `--warmup N`, `--jobs N`
/// (`0` = all cores), `--store DIR` (artifact store for checkpointed
/// warm-up reuse). Positional arguments pass through in `rest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    pub insts: Option<u64>,
    pub warmup: Option<u64>,
    pub jobs: usize,
    pub store: Option<String>,
    /// Graph-vertex override for the CRONO figures (`--vertices N`):
    /// floors every graph at N vertices so the paper-scale 1 M+ runs
    /// don't disturb the default workload registry.
    pub vertices: Option<usize>,
    pub rest: Vec<String>,
}

impl RunArgs {
    /// Parses `args` (without the program name). Returns an error message
    /// for an unknown `--flag` or a malformed value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            insts: None,
            warmup: None,
            jobs: 0,
            store: None,
            vertices: None,
            rest: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            let mut take = |name: &str| -> Result<u64, String> {
                let v = args.next().ok_or_else(|| format!("{name} needs a value"))?;
                v.parse().map_err(|_| format!("{name}: not a number: {v}"))
            };
            match a.as_str() {
                "--insts" => out.insts = Some(take("--insts")?),
                "--warmup" => out.warmup = Some(take("--warmup")?),
                "--jobs" => out.jobs = take("--jobs")? as usize,
                "--vertices" => out.vertices = Some(take("--vertices")? as usize),
                "--store" => {
                    out.store = Some(args.next().ok_or("--store needs a directory")?);
                }
                f if f.starts_with("--") => return Err(format!("unknown flag: {f}")),
                _ => out.rest.push(a),
            }
        }
        Ok(out)
    }

    /// Opens the `--store` directory, if one was given; prints the error
    /// and exits 2 when it cannot be created.
    pub fn open_store(&self) -> Option<ArtifactStore> {
        self.store
            .as_ref()
            .map(|dir| match ArtifactStore::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot open artifact store at {dir}: {e}");
                    std::process::exit(2);
                }
            })
    }

    /// [`RunArgs::parse`] for binary `main`s: prints the error plus
    /// `usage` and exits 2 on a bad flag — and, unless
    /// `allow_positionals`, on any positional argument too.
    pub fn parse_or_exit(usage: &str, allow_positionals: bool) -> RunArgs {
        match RunArgs::parse(std::env::args().skip(1)) {
            Ok(a) if allow_positionals || a.rest.is_empty() => a,
            Ok(a) => {
                eprintln!("unexpected argument: {}\n{usage}", a.rest[0]);
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("{e}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// A harness with this window applied over `default` (flags that were
    /// not given keep the default's values).
    pub fn harness(&self, default: Harness) -> Harness {
        Harness {
            warmup: self.warmup.unwrap_or(default.warmup),
            measure: self.insts.unwrap_or(default.measure),
            ..default
        }
    }
}

/// Prints the store's session activity to **stderr** (stdout is reserved
/// for figure tables, which must stay bit-identical between cold and warm
/// runs).
pub fn report_store_activity(store: &ArtifactStore) {
    let a = store.activity();
    eprintln!(
        "store {}: {} checkpoint(s) reused, {} created; {} profile(s) reused, {} created",
        store.dir().display(),
        a.checkpoints_reused,
        a.checkpoints_created,
        a.profiles_reused,
        a.profiles_created
    );
    report_fast_path_activity();
}

/// Prints the issue-path fast-path engagement to **stderr** (same rule as
/// [`report_store_activity`]: stdout carries only figure tables).
/// Cumulative process-wide counters — a zero dedup count after a measured
/// run means the fast path never engaged, which is itself worth seeing in
/// the logs.
pub fn report_fast_path_activity() {
    let issue = prophet_sim_core::issue_path_stats();
    eprintln!(
        "fast paths: {} duplicate prefetch(es) dedup-filtered, {} inflight drop(s) \
         short-circuited",
        issue.filter_suppressed, issue.inflight_fast_drops
    );
}

/// Formats a header + rows + geomean table the way the paper's bar charts
/// read (one row per workload, one column per scheme).
pub fn print_speedup_table(title: &str, rows: &[SchemeRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<18} {:>8} {:>10} {:>9}",
        "workload", "RPG2", "Triangel", "Prophet"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for r in rows {
        let (a, b, c) = r.speedups();
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        println!("{:<18} {:>8.3} {:>10.3} {:>9.3}", r.workload, a, b, c);
    }
    println!(
        "{:<18} {:>8.3} {:>10.3} {:>9.3}",
        "geomean",
        prophet_sim_core::geomean(&cols[0]),
        prophet_sim_core::geomean(&cols[1]),
        prophet_sim_core::geomean(&cols[2]),
    );
}
