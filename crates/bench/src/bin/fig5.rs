//! Reproduces Figure 5 (unbounded buses).
//!
//! Usage: `fig5 [--clusters 2|4] [--quick]` (see `mvp_bench::fig5::cli`).

fn main() {
    mvp_bench::fig5::cli(mvp_bench::fig5::Figure::Unbounded);
}
