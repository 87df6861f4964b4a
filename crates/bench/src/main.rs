//! `pqs-bench <figure>` regenerates one table or figure of the paper,
//! `pqs-bench all` every one in registry order (a fresh report each),
//! `pqs-bench summary [dir] [out]` folds the exports under `dir`
//! (default: `PQS_BENCH_DIR`) into `out` (default `BENCH_SUMMARY.json`).

#![forbid(unsafe_code)]

mod figures;
mod summary;

use pqs_bench::{Bench, Env};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let env = match Env::from_env() {
        Ok(env) => env,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let selected = match command.as_str() {
        "summary" => {
            let dir = args
                .next()
                .map_or_else(|| env.out_dir().to_owned(), PathBuf::from);
            let out = args
                .next()
                .map_or_else(|| "BENCH_SUMMARY.json".into(), PathBuf::from);
            return summary::run(&dir, &out);
        }
        "all" => figures::ALL,
        name => match figures::ALL.iter().find(|(n, _)| *n == name) {
            Some(figure) => std::slice::from_ref(figure),
            None => {
                eprintln!("usage: pqs-bench <figure>|all|summary [dir] [out]\nfigures:");
                for (name, _) in figures::ALL {
                    eprintln!("  {name}");
                }
                return ExitCode::from(2);
            }
        },
    };
    for (name, run) in selected {
        let started = std::time::Instant::now();
        let mut bench = Bench::new(env.clone());
        run(&mut bench);
        bench.finish(name).expect("write bench json");
        // For the human at the terminal only: nothing wall-clock is
        // written to disk (`BENCHMARK.json` is where time is measured).
        eprintln!("{name}: {:.1} s", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
