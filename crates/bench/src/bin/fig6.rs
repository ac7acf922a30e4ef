//! Reproduces Figure 6 (realistic bus configurations).
//!
//! Usage: `fig6 [--clusters 2|4] [--quick]` (see `mvp_bench::fig5::cli`).

fn main() {
    mvp_bench::fig5::cli(mvp_bench::fig5::Figure::Realistic);
}
