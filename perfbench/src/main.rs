//! The repository's benchmark: three workloads over the recovery
//! architectures' public APIs, end-to-end metrics by default and
//! per-layer metrics with `--trace 1`. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <oltp-bank|crash-restart|lsm-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits 1
//! when an operation failed or an output was wrong.

mod bank;
mod crash;
mod lsm;
mod oltp;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("spans-{}.tsv", args.workload))
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <oltp-bank|crash-restart|lsm-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut rep = report::Report::default();
    match args.workload.as_str() {
        "oltp-bank" => oltp::run(&args, &mut rep),
        "crash-restart" => crash::run(&args, &mut rep),
        "lsm-mixed" => lsm::run(&args, &mut rep),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    }
    std::process::exit(rep.emit(args.trace));
}
