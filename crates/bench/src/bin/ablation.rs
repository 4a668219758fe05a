//! Runs the approximate-search seed-quality measurement the paper
//! discusses in prose (§III-B).
fn main() {
    let scale = messi_bench::Scale::from_env();
    messi_bench::figures::ablations::ablation_approx_quality(&scale).emit();
}
