//! `perfbench` — runs one workload and prints its result line, or checks
//! how steady the figures are across seeds.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--daemon PATH]
//! perfbench steady --runs N [--workload NAME]... [--first-seed N]
//!                  --seconds S --trace 0|1 [--daemon PATH]
//! ```
//!
//! `perfbench/run.sh` builds `preinferd` and this binary and passes
//! `--daemon`. The last line of standard output is the result: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use perfbench::{Args, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--daemon PATH]\n\
         \x20      perfbench steady --runs N [--workload NAME]... [--first-seed N]\n\
         \x20                       --seconds S --trace 0|1 [--daemon PATH]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `run.sh` puts `--daemon PATH` before the subcommand.
    let steady = match argv.iter().position(|a| a == "steady") {
        Some(i) => {
            argv.remove(i);
            true
        }
        None => false,
    };
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        daemon: None,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let (mut runs, mut first_seed, mut workloads, mut passthrough) = (0u64, 1u64, vec![], vec![]);
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        if matches!(flag.as_str(), "--seconds" | "--trace" | "--daemon") {
            passthrough.extend([flag.clone(), value.clone()]);
        }
        match flag.as_str() {
            "--workload" if steady => workloads.push(value),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--runs" => runs = value.parse().unwrap_or_else(|_| usage()),
            "--first-seed" => first_seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds =
                    value.parse().ok().filter(|&s: &f64| s > 0.0).unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        usage();
    }
    if steady {
        if runs == 0 {
            usage();
        }
        if workloads.is_empty() {
            workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
        }
        let exe = std::env::current_exe().expect("own executable path");
        return match perfbench::steady::run(&exe, &workloads, runs, first_seed, &passthrough) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench steady: {e}");
                ExitCode::from(1)
            }
        };
    }
    match perfbench::run(&args) {
        Ok(out) => {
            for note in &out.notes {
                eprintln!("perfbench {}: {note}", args.workload);
            }
            println!("{}", out.metrics.render(out.correct, out.attempted, out.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
