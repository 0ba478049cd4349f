//! Single-core throughput measurement over the scheme×workload grid.
//!
//! Where `Harness::run_matrix` exists to produce *figures* fast (cells fan
//! across worker threads), this runner exists to measure the *simulator*:
//! every cell runs sequentially on the calling thread with a wall clock
//! around it, so the numbers mean single-core instructions per second and
//! survive comparison across PRs (the `BENCH_*.json` trajectory).

use crate::metrics::{BenchCell, BenchWindow};
use crate::{Harness, WarmupCheckpoint};
use prophet_sim_core::{TraceInst, TraceSource};
use std::time::Instant;

/// The scheme names measured per workload, in run order. Matches the
/// figure matrix (`Harness::run_matrix`).
pub const BENCH_SCHEMES: [&str; 4] = ["baseline", "rpg2", "triangel", "prophet"];

/// Runs one scheme on one workload from the workload's shared warm-up
/// checkpoint and materialized measurement window, returning the cell
/// wall time. RPG2 takes the trace, not the window: its kernel scan walks
/// the warm-up prefix too, and that identification work is the scheme's
/// own — it stays on the clock.
fn time_cell(
    h: &Harness,
    scheme: &str,
    w: &dyn TraceSource,
    ckpt: &WarmupCheckpoint,
    window: &[TraceInst],
) -> f64 {
    let start = Instant::now();
    match scheme {
        "baseline" => {
            h.baseline_warm_window(&w.name(), window, ckpt);
        }
        "rpg2" => {
            h.rpg2_warm(w, ckpt);
        }
        "triangel" => {
            h.triangel_warm_window(&w.name(), window, ckpt);
        }
        "prophet" => {
            h.prophet_warm_window(&w.name(), window, ckpt);
        }
        other => panic!("unknown bench scheme: {other}"),
    }
    start.elapsed().as_secs_f64()
}

/// Measures every scheme×workload cell sequentially and returns the
/// window. `insts` per cell is the figure window (`warmup + measure`);
/// multi-pass schemes carry their pipeline passes in the wall clock (see
/// the schema notes in `metrics`). One scheme-independent warm-up
/// checkpoint per workload is shared by all four schemes — the
/// `run_matrix_stored` figure pipeline, and what `BENCH_9.json` onward
/// records. Its build runs between cells, outside every wall clock, and is
/// reported on stderr; the cells time the measured passes only.
pub fn run_bench_window(
    h: &Harness,
    name: &str,
    workloads: &[Box<dyn TraceSource + Send + Sync>],
) -> BenchWindow {
    let insts = h.warmup + h.measure;
    let mut cells = Vec::with_capacity(workloads.len() * BENCH_SCHEMES.len());
    for w in workloads {
        let start = Instant::now();
        let ckpt = h.build_checkpoint(w.as_ref());
        let window = h.materialize_window(w.as_ref(), ckpt.warm.warmup);
        eprintln!(
            "bench: warm-up    {:<18} {:>9.3}s  (checkpoint + window, outside cells)",
            w.name(),
            start.elapsed().as_secs_f64()
        );
        for scheme in BENCH_SCHEMES {
            let wall_secs = time_cell(h, scheme, w.as_ref(), &ckpt, &window);
            let insts_per_sec = if wall_secs > 0.0 {
                insts as f64 / wall_secs
            } else {
                0.0
            };
            eprintln!(
                "bench: {:<10} {:<18} {:>9.3}s  {:>12.0} insts/s",
                scheme,
                w.name(),
                wall_secs,
                insts_per_sec
            );
            cells.push(BenchCell {
                scheme: scheme.to_string(),
                workload: w.name(),
                insts,
                wall_secs,
                insts_per_sec,
            });
        }
    }
    BenchWindow {
        name: name.to_string(),
        warmup: h.warmup,
        measure: h.measure,
        cells,
    }
}

/// Runs the window `repeat` times and returns the run whose overall
/// geomean is the median. Container wall clocks are noisy (±20–30%
/// between otherwise identical runs); the median of an odd repeat count
/// keeps one *actual* run's internally consistent cells — unlike a
/// per-cell average, which would mix runs — while discarding the
/// outliers. `repeat = 1` is a plain [`run_bench_window`].
pub fn run_bench_window_median(
    h: &Harness,
    name: &str,
    workloads: &[Box<dyn TraceSource + Send + Sync>],
    repeat: usize,
) -> BenchWindow {
    let repeat = repeat.max(1);
    let mut runs: Vec<BenchWindow> = (0..repeat)
        .map(|i| {
            if repeat > 1 {
                eprintln!("bench: repeat {}/{repeat}", i + 1);
            }
            run_bench_window(h, name, workloads)
        })
        .collect();
    runs.sort_by(|a, b| {
        a.geomean_insts_per_sec()
            .total_cmp(&b.geomean_insts_per_sec())
    });
    let median = runs.swap_remove(runs.len() / 2);
    if repeat > 1 {
        eprintln!(
            "bench: median of {repeat} runs: {:.0} insts/s geomean",
            median.geomean_insts_per_sec()
        );
    }
    median
}

/// Formats a window as the human-readable table the runner prints.
pub fn format_window_table(w: &BenchWindow) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "bench window '{}' (warmup {} + measure {}):",
        w.name, w.warmup, w.measure
    );
    let _ = writeln!(
        s,
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "workload", "baseline", "rpg2", "triangel", "prophet"
    );
    let mut by_workload: Vec<String> = Vec::new();
    for c in &w.cells {
        if !by_workload.contains(&c.workload) {
            by_workload.push(c.workload.clone());
        }
    }
    for wl in &by_workload {
        let _ = write!(s, "{wl:<18}");
        for scheme in BENCH_SCHEMES {
            let v = w
                .cells
                .iter()
                .find(|c| &c.workload == wl && c.scheme == scheme)
                .map(|c| c.insts_per_sec)
                .unwrap_or(0.0);
            let _ = write!(s, " {v:>12.0}");
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(
        s,
        "{:<18} {:>12.0} insts/s overall geomean",
        "geomean",
        w.geomean_insts_per_sec()
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_workloads::workload_sized;

    #[test]
    fn tiny_window_produces_all_cells() {
        let h = Harness {
            warmup: 2_000,
            measure: 2_000,
            ..Harness::default()
        };
        let workloads: Vec<Box<dyn TraceSource + Send + Sync>> =
            vec![workload_sized("bfs_80000_8", h.warmup + h.measure)];
        let w = run_bench_window(&h, "test", &workloads);
        assert_eq!(w.cells.len(), BENCH_SCHEMES.len());
        assert!(w.cells.iter().all(|c| c.insts == 4_000));
        assert!(w.cells.iter().all(|c| c.insts_per_sec > 0.0));
        let table = format_window_table(&w);
        assert!(table.contains("bfs"));
        assert!(table.contains("geomean"));
    }

    #[test]
    fn warm_cells_share_one_checkpoint_per_workload() {
        let h = Harness {
            warmup: 2_000,
            measure: 2_000,
            ..Harness::default()
        };
        let workloads: Vec<Box<dyn TraceSource + Send + Sync>> = vec![
            workload_sized("bfs_80000_8", h.warmup + h.measure),
            workload_sized("mcf", h.warmup + h.measure),
        ];
        let w = run_bench_window(&h, "test", &workloads);
        assert_eq!(w.cells.len(), workloads.len() * BENCH_SCHEMES.len());
        assert!(w.cells.iter().all(|c| c.insts == 4_000));
        assert!(w.cells.iter().all(|c| c.insts_per_sec > 0.0));
        // Each workload's checkpoint serves all four schemes before the
        // next workload is warmed: its cells are contiguous, in scheme order.
        for (wl, chunk) in workloads.iter().zip(w.cells.chunks(BENCH_SCHEMES.len())) {
            assert!(chunk.iter().all(|c| c.workload == wl.name()));
            let schemes: Vec<&str> = chunk.iter().map(|c| c.scheme.as_str()).collect();
            assert_eq!(schemes, BENCH_SCHEMES);
        }
    }

    #[test]
    fn median_repeat_produces_a_window() {
        let h = Harness {
            warmup: 2_000,
            measure: 2_000,
            ..Harness::default()
        };
        let workloads: Vec<Box<dyn TraceSource + Send + Sync>> =
            vec![workload_sized("bfs_80000_8", h.warmup + h.measure)];
        let w = run_bench_window_median(&h, "test", &workloads, 3);
        assert_eq!(w.cells.len(), BENCH_SCHEMES.len());
        assert!(w.cells.iter().all(|c| c.insts_per_sec > 0.0));
    }
}
