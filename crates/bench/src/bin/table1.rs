//! Prints Table 1 of the paper (machine configurations and latencies).

fn main() {
    mvp_bench::report::print_report(&mvp_bench::table1::render());
}
