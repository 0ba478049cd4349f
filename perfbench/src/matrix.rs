//! The two figure workloads, end to end.
//!
//! `spec-default` is the Figure 10 matrix on the default path (no store):
//! every cell is one `Harness::{baseline, rpg2, triangel, prophet}` call,
//! which simulates its own warm-up. `crono-store` is the Figure 15 matrix
//! against an artifact store: set-up is the cold `run_matrix_stored` that
//! populates a fresh store, the measured pass is the warm rerun, cell by
//! cell through the same public calls `run_matrix_stored` makes.

use crate::inputs::{crono_input, describe, drain, input_traffic, spec_input};
use crate::out::{median, peak_rss_mb, secs, timed, Outcome, Scratch};
use crate::probe::{Probe, PROBE_MB};
use crate::Args;
use prophet_bench::{Harness, SchemeRow};
use prophet_sim_core::{geomean, TraceSource};
use prophet_store::ArtifactStore;
use prophet_workloads::{workload_sized, CronoSpec, MixSpec, CRONO_WORKLOADS, SPEC_WORKLOADS};
use std::time::Instant;

/// The paper's geomean speedups (Prophet, Triangel) the simulated matrix
/// is compared against. Figure 10 (SPEC) and Figure 15 (CRONO); the model
/// is otherwise unvalidated against hardware.
pub const FIG10_REF: (f64, f64) = (1.346, 1.204);
pub const FIG15_REF: (f64, f64) = (1.149, 1.084);

/// The scheme order of a matrix row (the order `run_matrix` uses).
pub const SCHEMES: [&str; 4] = ["baseline", "rpg2", "triangel", "prophet"];

/// The Figure 15 harness: one traversal of warm-up, 1 M measured.
pub fn crono_harness() -> Harness {
    Harness {
        warmup: 1_100_000,
        measure: 1_000_000,
        ..Harness::default()
    }
}

pub fn spec_inputs(h: &Harness, seed: u64) -> Vec<MixSpec> {
    let window = h.warmup + h.measure;
    SPEC_WORKLOADS
        .iter()
        .map(|n| spec_input(n, seed, window))
        .collect()
}

pub fn crono_inputs(h: &Harness, seed: u64) -> Vec<CronoSpec> {
    let window = h.warmup + h.measure;
    CRONO_WORKLOADS
        .iter()
        .map(|n| crono_input(n, seed, window))
        .collect()
}

/// `(prophet, triangel)` geomean speedups of a matrix.
pub fn geomeans(rows: &[SchemeRow]) -> (f64, f64) {
    let sp: Vec<(f64, f64, f64)> = rows.iter().map(SchemeRow::speedups).collect();
    (
        geomean(&sp.iter().map(|s| s.2).collect::<Vec<_>>()),
        geomean(&sp.iter().map(|s| s.1).collect::<Vec<_>>()),
    )
}

/// Relative error of a simulated geomean against the paper's.
pub fn rel_err(sim: f64, paper: f64) -> f64 {
    (sim - paper).abs() / paper
}

/// The stdout table `print_speedup_table` writes, as a string.
pub fn speedup_table(title: &str, rows: &[SchemeRow]) -> String {
    let mut s = format!("\n=== {title} ===\n");
    s += &format!(
        "{:<18} {:>8} {:>10} {:>9}\n",
        "workload", "RPG2", "Triangel", "Prophet"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for r in rows {
        let (a, b, c) = r.speedups();
        cols[0].push(a);
        cols[1].push(b);
        cols[2].push(c);
        s += &format!("{:<18} {:>8.3} {:>10.3} {:>9.3}\n", r.workload, a, b, c);
    }
    s += &format!(
        "{:<18} {:>8.3} {:>10.3} {:>9.3}\n",
        "geomean",
        geomean(&cols[0]),
        geomean(&cols[1]),
        geomean(&cols[2]),
    );
    s
}

/// Runs a figure's golden window at the registry seeds through the public
/// `Harness::run_matrix` and diffs the table against the snapshot that
/// was committed with this benchmark.
fn golden(out: &mut Outcome, fig: &str, title: &str, h: &Harness, names: &[&str], want: &str) {
    let ws: Vec<_> = names
        .iter()
        .map(|n| workload_sized(n, h.warmup + h.measure))
        .collect();
    let got = speedup_table(title, &h.run_matrix(&ws, 1));
    out.check(got == want, || {
        format!("{fig} golden window diverged:\n--- want\n{want}--- got\n{got}")
    });
}

pub fn golden_fig10(out: &mut Outcome) {
    golden(
        out,
        "fig10",
        "Figure 10: IPC speedup (paper geomeans: RPG2 1.001, Triangel 1.204, Prophet 1.346)",
        &Harness {
            warmup: 60_000,
            measure: 120_000,
            ..Harness::default()
        },
        &SPEC_WORKLOADS,
        include_str!("../golden/fig10_speedup.txt"),
    );
}

pub fn golden_fig15(out: &mut Outcome) {
    golden(
        out,
        "fig15",
        "Figure 15: CRONO speedups (paper: RPG2 +9.1%, Triangel +8.4%, Prophet +14.9%)",
        &Harness {
            warmup: 150_000,
            measure: 120_000,
            ..Harness::default()
        },
        &CRONO_WORKLOADS,
        include_str!("../golden/fig15_crono.txt"),
    );
}

/// The timed steps of one pass in a fixed order: `(scheme index, host
/// seconds)`, the scheme `None` for steps that are not cells (input
/// generation, checkpoint loads).
pub type Steps = Vec<(Option<usize>, f64)>;

/// Times one cell as scheme `i`, then runs `between` outside its clock.
fn cell<R>(i: usize, steps: &mut Steps, between: &mut dyn FnMut(), f: impl FnOnce() -> R) -> R {
    let (r, t) = timed(f);
    steps.push((Some(i), t));
    between();
    r
}

/// One timed default-path row: each cell is one `prophet_cli run`.
/// `between` runs after every cell (fields evaluate in written order).
pub fn default_row(
    h: &Harness,
    w: &dyn TraceSource,
    steps: &mut Steps,
    between: &mut dyn FnMut(),
) -> SchemeRow {
    SchemeRow {
        workload: w.name(),
        base: cell(0, steps, between, || h.baseline(w)),
        rpg2: cell(1, steps, between, || h.rpg2(w)),
        triangel: cell(2, steps, between, || h.triangel(w)),
        prophet: cell(3, steps, between, || h.prophet(w)),
    }
}

/// One timed warm-store row (phase 2 of `run_matrix_stored`, one cell at
/// a time). `between` runs after every cell.
pub fn stored_row(
    h: &Harness,
    w: &dyn TraceSource,
    ckpt: &prophet_store::WarmupCheckpoint,
    store: &ArtifactStore,
    steps: &mut Steps,
    between: &mut dyn FnMut(),
) -> SchemeRow {
    SchemeRow {
        workload: w.name(),
        base: cell(0, steps, between, || h.baseline_warm(w, ckpt)),
        rpg2: cell(1, steps, between, || h.rpg2_warm(w, ckpt)),
        triangel: cell(2, steps, between, || h.triangel_warm(w, ckpt)),
        prophet: cell(3, steps, between, || h.prophet_warm_stored(w, ckpt, store)),
    }
}

/// Compares a pass's rows with the reference rows, one check per cell.
pub fn check_rows(out: &mut Outcome, what: &str, got: &[SchemeRow], want: &[SchemeRow]) {
    out.check(got.len() == want.len(), || format!("{what}: row count"));
    for (g, w) in got.iter().zip(want) {
        let cells = [
            g.base == w.base,
            g.rpg2 == w.rpg2,
            g.triangel == w.triangel,
            g.prophet == w.prophet,
        ];
        for (scheme, ok) in SCHEMES.iter().zip(cells) {
            out.check(ok, || format!("{what}: {} {scheme} differs", g.workload));
        }
    }
}

/// What the measured passes of one run produced.
pub struct Passes {
    /// Each pass's steps (same order in every pass).
    pub steps: Vec<Steps>,
    pub rows: Vec<SchemeRow>,
    /// Sampled after every cell.
    pub probe: Probe,
}

/// Host seconds one pass takes on a 2-vCPU x86 host, rounded up. Only
/// `--seconds` and these constants decide the pass count, so a faster
/// program is measured with as many samples per step as a slower one.
const SPEC_PASS_S: f64 = 10.0;
const CRONO_PASS_S: f64 = 15.0;

/// Probe samples after each cold `crono-store` input (36 in a set-up).
const SETUP_SAMPLES: usize = 4;

/// Runs `max(2, seconds / nominal_pass_s)` whole passes. Every later pass
/// must reproduce the first pass's rows.
pub fn measure_passes(
    args: &Args,
    nominal_pass_s: f64,
    probe: Probe,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Steps, &mut Probe) -> Vec<SchemeRow>,
) -> Passes {
    let mut p = Passes {
        steps: Vec::new(),
        rows: Vec::new(),
        probe,
    };
    let want = ((args.seconds / nominal_pass_s) as usize).max(2);
    while p.steps.len() < want {
        let mut steps = Steps::new();
        let t = Instant::now();
        let rows = pass(&mut steps, &mut p.probe);
        let wall = secs(t);
        eprintln!("pass {}: {wall:.3} s", p.steps.len() + 1);
        if p.rows.is_empty() {
            out.attempted += 4 * rows.len() as u64;
            p.rows = rows;
        } else {
            check_rows(out, "repeat pass", &rows, &p.rows);
        }
        p.steps.push(steps);
    }
    p
}

/// Emits the end-to-end metrics; call after every check has run.
///
/// Host times sum each step's median time over the run's passes. Other
/// tenants of a shared host
/// slow single steps by up to a half at random, so a median over samples
/// that fall seconds apart is steadier from run to run than any one
/// sample, and than the fastest of a few. Slowdowns that last longer are
/// divided out with the probe: every pass time is scaled by the passes'
/// `Probe::scale`, and the raw `setup` seconds by `setup_scale`. Standard
/// error gets the raw times.
pub fn report(out: &mut Outcome, p: Passes, setup: f64, setup_scale: f64, paper: (f64, f64)) {
    let first = &p.steps[0];
    let typical: Vec<f64> = (0..first.len())
        .map(|i| median(p.steps.iter().map(|s| s[i].1).collect()))
        .collect();
    let scale = p.probe.scale();
    let wall = typical.iter().sum::<f64>();
    eprintln!(
        "raw host times: wall {wall:.4} s, setup {setup:.4} s; probe median {:.5} s, scale {scale:.4}, setup scale {setup_scale:.4}",
        p.probe.median_s()
    );
    out.metric("wall_s", wall * scale, "s");
    out.metric("setup_s", setup * setup_scale, "s");
    // The probe's buffers were resident from the start of the run.
    out.metric("peak_rss_mb", peak_rss_mb() - PROBE_MB, "MB");
    out.metric("ok_ratio", out.ok_ratio(), "ratio");
    for (i, s) in SCHEMES.iter().enumerate() {
        let cells = first
            .iter()
            .zip(&typical)
            .filter(|((scheme, _), _)| *scheme == Some(i));
        out.metric(
            format!("cell_s.{s}"),
            cells.map(|(_, t)| t).sum::<f64>() * scale,
            "s",
        );
    }
    let (prophet, triangel) = geomeans(&p.rows);
    out.metric("speedup_err.prophet", rel_err(prophet, paper.0), "ratio");
    out.metric("speedup_err.triangel", rel_err(triangel, paper.1), "ratio");
}

/// `spec-default`, untraced.
pub fn spec_default(args: &Args) -> Outcome {
    let probe = Probe::new();
    let mut out = Outcome::default();
    let h = Harness::default();
    // Set-up: make the seeded inputs and pull each window once (what a
    // user's first pass pays in generator work). Done once before the
    // passes and again at the start of each, so that the samples fall
    // seconds apart; `setup_s` is their median. Only the program's work is timed; the traffic
    // dimensions and the window check are counted afterwards.
    let window = h.warmup + h.measure;
    let set_up = || {
        timed(|| {
            let inputs = spec_inputs(&h, args.seed);
            for w in &inputs {
                drain(w, window);
            }
            inputs
        })
    };
    let (inputs, t) = set_up();
    let mut setups = vec![t];
    let tr = input_traffic("spec-default", &h, &inputs, &mut out);
    eprintln!("{}", describe("spec-default", &h, &tr));
    let passes = measure_passes(args, SPEC_PASS_S, probe, &mut out, |steps, probe| {
        let (inputs, t) = set_up();
        setups.push(t);
        inputs
            .iter()
            .map(|w| default_row(&h, w, steps, &mut || probe.sample()))
            .collect()
    });
    golden_fig10(&mut out);
    // The set-ups are interleaved with the passes: one scale for both.
    let scale = passes.probe.scale();
    report(&mut out, passes, median(setups), scale, FIG10_REF);
    out
}

/// `crono-store`, untraced.
pub fn crono_store(args: &Args) -> Outcome {
    let mut probe = Probe::new();
    let mut out = Outcome::default();
    let h = crono_harness();
    // Set-up: the cold run — fresh inputs (graph generation and window
    // sizing) into a fresh store through `run_matrix_stored`, one input
    // at a time (the same work) so that the probe can be sampled between
    // inputs. The set-up is scaled by those samples, taken while it ran.
    // Once: it costs about a third of the run.
    let dir = Scratch::new("crono-store");
    let t = Instant::now();
    let inputs = crono_inputs(&h, args.seed);
    let store = ArtifactStore::open(&dir.0).expect("open a fresh store");
    let mut setup = secs(t);
    let mut cold_rows = Vec::new();
    for w in &inputs {
        let (rows, t) = timed(|| h.run_matrix_stored(std::slice::from_ref(w), 1, Some(&store)));
        setup += t;
        cold_rows.extend(rows);
        for _ in 0..SETUP_SAMPLES {
            probe.sample();
        }
    }
    let setup_scale = probe.restart();
    let a = store.activity();
    let n = inputs.len() as u64;
    out.check(
        a.checkpoints_created == n && a.profiles_created == n,
        || format!("cold run activity {a:?}"),
    );
    let tr = input_traffic("crono-store", &h, &inputs, &mut out);
    eprintln!("{}", describe("crono-store", &h, &tr));
    drop((inputs, store));
    // The measured pass is what a second invocation does: fresh inputs,
    // the store reopened, every artifact loaded instead of rebuilt.
    let mut reuse_ok = true;
    let passes = measure_passes(args, CRONO_PASS_S, probe, &mut out, |steps, probe| {
        let (inputs, t) = timed(|| crono_inputs(&h, args.seed));
        steps.push((None, t));
        let store = ArtifactStore::open(&dir.0).expect("reopen the store");
        let rows = inputs
            .iter()
            .map(|w| {
                let (ckpt, t) = timed(|| h.checkpoint_via_store(&store, w));
                steps.push((None, t));
                stored_row(&h, w, &ckpt, &store, steps, &mut || probe.sample())
            })
            .collect();
        let a = store.activity();
        reuse_ok &= a.checkpoints_created == 0 && a.profiles_created == 0;
        rows
    });
    check_rows(&mut out, "warm rerun vs cold run", &passes.rows, &cold_rows);
    out.check(reuse_ok, || "a warm rerun rebuilt a store artifact".into());
    golden_fig15(&mut out);
    report(&mut out, passes, setup, setup_scale, FIG15_REF);
    out
}
