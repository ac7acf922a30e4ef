//! Reproduces the motivating example of Section 3 (Figure 3).
//!
//! Usage: `fig3 [--iterations N]`
//!
//! `N` (default 256) is the trip count; a missing, unparsable or zero
//! value is a usage error (exit code 2).

use mvp_bench::report::{arg, print_report};
use mvp_workloads::motivating::MotivatingParams;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut params = MotivatingParams::default();
    if let Some(n) = arg::<u64>(&args, "--iterations") {
        if n == 0 {
            eprintln!("invalid value for --iterations: 0 (must be positive)");
            std::process::exit(2);
        }
        params.iterations = n;
    }
    let output = mvp_bench::fig3::run(&params);
    print_report(&mvp_bench::fig3::render(&output));
}
