//! `dbtoaster-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use dbtoaster_benchmark::report::{render_log, render_result};
use dbtoaster_benchmark::run::{run, Options};
use dbtoaster_benchmark::spec::RUN_SECONDS;
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        shrink: 1,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let outcome = match parse_args().and_then(|opts| run(&opts)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dbtoaster-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A failed generator self-check is reported in the log (`INVALID ...`)
    // and does not change the exit code: lateness is charged to freshness, so
    // it can only make the system look worse, and the driver takes a run that
    // exits non-zero for a broken benchmark.
    print!("{}", render_log(&outcome));
    println!("{}", render_result(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
