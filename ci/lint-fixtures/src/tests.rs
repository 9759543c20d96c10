//! Test code: the R3 header is `not(test)`, so tests may unwrap and
//! index freely (r3_good_test_module_unwraps_freely). The R1 and R2
//! bans reach test code too; a test that times itself says so with an
//! `#[expect]`.

fn first(v: &[u32]) -> u32 {
    v[0]
}

#[test]
fn unwraps_and_indexes_freely() {
    assert_eq!(first(&[1]), "1".parse::<u32>().unwrap());
}

#[test]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "fixture: must fire"
)]
fn timing() {
    let t = std::time::Instant::now();
    let _ = t.elapsed();
}
