//! `enginebench` — runs one workload of the engine benchmark and prints
//! its metrics, the last line being one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path enginebench/Cargo.toml -- \
//!     --workload suite_accel --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` the per-layer metrics of a separate traced run. The exit
//! code is nonzero if any output check failed.

use dim_enginebench::{report, run, Options, Size, Workload};
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("enginebench: {e}");
            eprintln!(
                "usage: enginebench --workload <suite_scalar|suite_accel|region_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&opts);
    print!("{}", report::render_text(&opts, &result));
    println!("{}", report::render_json(&result));
    if result.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
