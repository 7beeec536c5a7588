//! Runs the benchmark's self-test (use `--release`: it boots the
//! workload several times).

#[test]
fn every_workload_emits_every_metric_and_catches_a_corrupted_golden() {
    if let Err(e) = perfbench::selftest::run_all() {
        panic!("{e}");
    }
}
