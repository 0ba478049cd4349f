//! The Prophet reproduction's benchmark: what users run, end to end and
//! layer by layer. See README.md for the workloads and every metric.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-default|crono-store --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the JSON report; everything else goes to
//! stderr. Exit code 0 means the run completed (its `correct` field says
//! whether every output check passed); 2 means bad arguments.

mod inputs;
mod layers;
mod matrix;
mod out;
mod probe;
mod service;

pub struct Args {
    pub workload: String,
    /// XORed into every generator seed; 0 reproduces the registry.
    pub seed: u64,
    /// Sets the number of measured passes (see `matrix::measure_passes`).
    pub seconds: f64,
    /// `--trace 1`: the separate traced run reporting per-layer metrics.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload spec-default|crono-store --seed N --seconds S --trace 0|1";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            // Any integer: negative seeds keep their two's-complement bits.
            "--seed" => {
                args.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|v| v as u64))
                    .map_err(|_| bad())?
            }
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = match (args.workload.as_str(), args.trace) {
        ("spec-default", false) => matrix::spec_default(&args),
        ("crono-store", false) => matrix::crono_store(&args),
        ("spec-default", true) => layers::spec_default(&args),
        ("crono-store", true) => layers::crono_store(&args),
        (other, _) => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.to_json());
}
