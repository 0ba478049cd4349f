//! Warm-start golden test: `fig15_crono --store DIR` run twice must (a)
//! build every checkpoint and profile on the first (cold) run, (b) reuse
//! every checkpoint and profile on the second (warm) run, and (c) produce
//! **bit-identical stdout**.
//!
//! (c) holds by construction — a cold run with a store round-trips its
//! freshly built checkpoints and profiles through the codec before
//! simulating from them ([`Harness::checkpoint_via_store`]), so both runs
//! measure from byte-identical restored state — and this test is what
//! pins the construction. (a) and (b) read the store activity line
//! (`report_store_activity`) rather than a wall clock: the reuse counts
//! say directly that the warm run skipped every warm-up simulation and
//! every profiling pass, without depending on scheduler noise.

use std::process::Command;

const ARGS: [&str; 6] = ["--insts", "30000", "--warmup", "600000", "--jobs", "2"];

struct Run {
    stdout: Vec<u8>,
    stderr: String,
}

fn run_fig15(store: &std::path::Path) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_fig15_crono"))
        .args(ARGS)
        .arg("--store")
        .arg(store)
        .output()
        .expect("failed to launch fig15_crono");
    assert!(
        out.status.success(),
        "fig15_crono exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Run {
        stdout: out.stdout,
        stderr: String::from_utf8(out.stderr).expect("store activity is UTF-8"),
    }
}

#[test]
fn warm_start_is_bit_identical_to_cold_start_and_faster() {
    let dir = std::env::temp_dir().join(format!("prophet-warmstart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let cold = run_fig15(&dir);
    assert!(
        cold.stderr.contains("0 checkpoint(s) reused, 9 created"),
        "cold run must build all nine CRONO checkpoints, reported:\n{}",
        cold.stderr
    );
    assert!(
        cold.stderr.contains("0 profile(s) reused, 9 created"),
        "cold run must profile all nine CRONO workloads, reported:\n{}",
        cold.stderr
    );

    let warm = run_fig15(&dir);
    assert!(
        warm.stderr.contains("9 checkpoint(s) reused, 0 created"),
        "warm run must reuse all nine checkpoints, reported:\n{}",
        warm.stderr
    );
    assert!(
        warm.stderr.contains("9 profile(s) reused, 0 created"),
        "warm run must reuse all nine profiles, reported:\n{}",
        warm.stderr
    );

    assert!(
        cold.stdout == warm.stdout,
        "warm-start stdout diverged from cold-start:\n--- cold ---\n{}\n--- warm ---\n{}",
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
    );
    assert!(
        !cold.stdout.is_empty(),
        "fig15_crono printed nothing — the identity check above is vacuous"
    );

    std::fs::remove_dir_all(&dir).ok();
}
