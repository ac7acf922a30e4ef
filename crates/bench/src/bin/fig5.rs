//! Reproduces Figure 5 (unbounded buses).
//!
//! Usage: `fig5 [--clusters 2|4] [--quick]`
//!
//! Without `--clusters` both the 2- and 4-cluster panels are produced; any
//! value other than 2 or 4 is a usage error (exit code 2).

use mvp_bench::report::arg;
use mvp_workloads::suite::SuiteParams;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let clusters = match arg(&args, "--clusters") {
        None => vec![2, 4],
        Some(c @ (2 | 4)) => vec![c],
        Some(c) => {
            eprintln!("invalid value for --clusters: {c} (expected 2 or 4)");
            std::process::exit(2);
        }
    };
    let params = if quick {
        SuiteParams::small()
    } else {
        SuiteParams::default()
    };
    for c in clusters {
        let output = if quick {
            mvp_bench::fig5::run_quick(c, &params)
        } else {
            mvp_bench::fig5::run(c, &params)
        }
        .expect("the bundled workloads are schedulable on every configuration");
        println!("{}", mvp_bench::fig5::render(&output));
    }
}
