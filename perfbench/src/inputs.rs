//! Seeded inputs and their traffic dimensions.
//!
//! Every input is a registry workload whose generator seed is XORed with
//! the benchmark seed (`--seed 0` reproduces the registry, and therefore
//! the committed figures). The program under test only ever receives the
//! generated specs.

use crate::out::Outcome;
use prophet_bench::Harness;
use prophet_sim_core::TraceSource;
use prophet_workloads::{crono_workload, spec_workload, CronoSpec, MixSpec};
use std::collections::HashSet;

/// A Figure 10 input: the registry mix with its seed perturbed and its
/// length covering `min_insts` (what `workload_sized` does for mixes).
pub fn spec_input(name: &str, seed: u64, min_insts: u64) -> MixSpec {
    let mut w = spec_workload(name);
    w.seed ^= seed;
    w.total_insts = w.total_insts.max(min_insts);
    w
}

/// A Figure 15 input: the registry CRONO kernel on a graph drawn from the
/// perturbed seed, sized like `workload_sized` (this builds the graph).
pub fn crono_input(name: &str, seed: u64, min_insts: u64) -> CronoSpec {
    let mut spec = crono_workload(name);
    spec.seed ^= seed;
    spec.with_min_insts(min_insts)
}

/// What one input asks of the memory system over a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Traffic {
    pub insts: u64,
    pub mem_ops: u64,
    pub distinct_lines: u64,
}

/// Pulls `window` instructions of `w` and counts memory operations and
/// distinct cache lines touched.
fn traffic(w: &dyn TraceSource, window: u64) -> Traffic {
    let mut c = w.cursor();
    let mut t = Traffic::default();
    let mut lines = HashSet::new();
    while t.insts < window {
        let Some(inst) = c.next_inst() else { break };
        t.insts += 1;
        if let Some(op) = inst.op {
            t.mem_ops += 1;
            lines.insert(op.addr().line().0);
        }
    }
    t.distinct_lines = lines.len() as u64;
    t
}

/// One summary line of traffic dimensions over a set of inputs.
pub fn describe(label: &str, h: &Harness, per_input: &[Traffic]) -> String {
    let insts: u64 = per_input.iter().map(|t| t.insts).sum();
    let mem: u64 = per_input.iter().map(|t| t.mem_ops).sum();
    let llc_lines = h.sys.llc.size_bytes / 64;
    let footprint: Vec<String> = per_input
        .iter()
        .map(|t| format!("{:.2}", t.distinct_lines as f64 / llc_lines as f64))
        .collect();
    format!(
        "{label}: {} inputs, {insts} insts, memory-op share {:.3}, distinct lines / LLC lines \
         [{}], warm-up share {:.3}",
        per_input.len(),
        mem as f64 / insts.max(1) as f64,
        footprint.join(" "),
        h.warmup as f64 / (h.warmup + h.measure) as f64
    )
}

/// Pulls up to `window` instructions of `w` and returns how many it got:
/// the generator work a user's first pass pays, with nothing added.
pub fn drain(w: &dyn TraceSource, window: u64) -> u64 {
    let mut c = w.cursor();
    let mut n = 0;
    while n < window {
        let Some(inst) = c.next_inst() else { break };
        std::hint::black_box(inst);
        n += 1;
    }
    n
}

/// Per-input traffic over the harness window. Fails a check unless every
/// input carries its full window: a short trace would make every timing in
/// the run measure less work than it claims.
pub fn input_traffic<W: TraceSource>(
    label: &str,
    h: &Harness,
    inputs: &[W],
    out: &mut Outcome,
) -> Vec<Traffic> {
    let window = h.warmup + h.measure;
    let t: Vec<Traffic> = inputs.iter().map(|w| traffic(w, window)).collect();
    out.check(t.iter().all(|t| t.insts == window), || {
        format!("{label}: an input is shorter than its {window}-instruction window")
    });
    t
}
