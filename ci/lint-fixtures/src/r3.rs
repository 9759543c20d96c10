//! R3: no panic surface in production code of hdd-serve, hdd-par and
//! hdd-lifecycle (`unwrap`, `expect`, `panic!`, `todo!`,
//! `unimplemented!`, unchecked indexing and slicing). Built only
//! without `cfg(test)`, where the header denies these lints.

/// r3_bad_panics_in_hot_path
pub fn hot(v: &[u32], o: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "fixture: must fire")]
    let a = o.unwrap();
    #[expect(clippy::expect_used, reason = "fixture: must fire")]
    let b = o.expect("present");
    if v.is_empty() {
        #[expect(clippy::panic, reason = "fixture: must fire")]
        {
            panic!("no rows");
        }
    }
    #[expect(clippy::indexing_slicing, reason = "fixture: must fire")]
    let c = v[0];
    #[expect(clippy::indexing_slicing, reason = "fixture: must fire")]
    let rest = &v[1..];
    a + b + c + rest.len() as u32
}

/// r3_bad_todo_and_unimplemented
#[expect(clippy::todo, reason = "fixture: must fire")]
pub fn later() {
    todo!()
}

/// r3_bad_todo_and_unimplemented
#[expect(clippy::unimplemented, reason = "fixture: must fire")]
pub fn never() {
    unimplemented!()
}

/// r3_good_fallible_and_total_forms
pub fn total(v: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap_or(0);
    let b = v.first().copied().unwrap_or_default();
    let c = v.get(1..).map_or(0, <[u32]>::len) as u32;
    a + b + c
}

/// r3_good_attributes_and_slice_patterns
#[derive(Debug, Clone)]
pub struct S {
    /// Constant indices into a fixed-size array are checked at compile
    /// time.
    pub x: [u8; 4],
}

/// r3_good_attributes_and_slice_patterns
pub fn pair(parts: &[u32], s: &S) -> u32 {
    let head = u32::from(s.x[0]);
    if let [a, b] = parts {
        a + b + head
    } else {
        head
    }
}

/// r3_suppressed_index_with_reason: a suppression names its lint and
/// its reason.
pub fn pick(scores: &[f64], idx: usize) -> f64 {
    #[expect(
        clippy::indexing_slicing,
        reason = "idx produced by enumerate over scores"
    )]
    scores[idx]
}

/// s0_good_multiline_block_directive: the reason may span lines.
pub fn validated(o: Option<u32>) -> u32 {
    #[expect(
        clippy::unwrap_used,
        reason = "validated at enqueue time, \
                  so the value is always present"
    )]
    o.unwrap()
}
