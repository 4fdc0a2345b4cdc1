//! The repository's benchmark: end-to-end scan rates of three periphery
//! workloads, plus a traced run that splits the cost over the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lossy_retry_scan --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every workload is a closed batch job generated from `--seed` and run
//! in a loop for `--seconds`; each repetition builds its world, scanner
//! or executor afresh. End-to-end metrics (`--trace 0`):
//!
//! - `probes_per_cpu_s`, `targets_per_cpu_s`, `peripheries_per_cpu_s`:
//!   probes sent (retransmissions included), distinct targets settled and
//!   unique peripheries found, per second of process CPU time from the
//!   first probe to the return of the entry point, summed over the
//!   repetitions. CPU time, because a shared virtual machine's wall clock
//!   runs on while the host lends its CPUs to other guests. The rates
//!   per wall second are printed on a `#` line.
//! - `setup_s`: from the start of a repetition (world construction) to
//!   its first probe; median over the repetitions.
//! - `peak_rss_mb`: the process's `VmHWM`.
//! - `peripheries_found`, `probes_per_periphery`: per seed, identical in
//!   every repetition.
//!
//! Every repetition's output is checked: each record against a fresh
//! fault-free copy of the world, the scanner's counter invariants, and
//! for the campaign that nothing was poisoned or interrupted. The
//! targets of failing records and of lost blocks are the `failed` count
//! of the result line, over the targets `attempted`; their ratio is
//! printed as `failed_frac` (it is kept out of the metrics because it
//! reads 0 when all is well).
//!
//! `--trace 1` runs half the seconds untraced and half traced and prints
//! the per-layer metrics instead; spans go to
//! `perfbench/out/spans-<workload>-<seed>.ndjson`.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. The lines before it, each
//! starting with `#`, state every metric with its unit, the failure
//! fraction and an order-independent digest of the records.

mod adapter;
mod alloc;
mod ledger;
mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

use workloads::{Args, Workload};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let line = workloads::run(&args);
    println!("{line}");
    ExitCode::SUCCESS
}
