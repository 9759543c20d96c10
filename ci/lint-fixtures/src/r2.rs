//! R2: no `HashMap`/`HashSet`; their iteration order is randomized per
//! process. The types themselves are banned, not just their iteration,
//! so lookup-only use is a bad case too.

/// r2_bad_hashmap_iteration_in_merge
pub mod merge {
    #[expect(clippy::disallowed_types, reason = "fixture: must fire")]
    use std::collections::HashMap;

    #[expect(clippy::disallowed_types, reason = "fixture: must fire")]
    pub fn emit(pending: HashMap<u64, u64>) -> u64 {
        let mut sum = 0;
        for (k, v) in &pending {
            sum += k + v;
        }
        sum + pending.keys().count() as u64 + pending.values().count() as u64
    }
}

/// r2_bad_hashset_drain_in_json
pub fn drain(items: &[u64]) -> u64 {
    #[expect(clippy::disallowed_types, reason = "fixture: must fire")]
    let mut seen = std::collections::HashSet::new();
    seen.extend(items.iter().copied());
    seen.drain().sum()
}

/// r2_good_keyed_lookup_only is a bad case: the type is banned, not just
/// its iteration.
#[expect(clippy::disallowed_types, reason = "fixture: must fire")]
pub fn lookup(m: &std::collections::HashMap<u64, u64>) -> Option<&u64> {
    m.get(&7)
}

/// r2_good_out_of_scope_crate is a bad case: the ban covers every crate.
#[expect(clippy::disallowed_types, reason = "fixture: must fire")]
pub fn features(m: std::collections::HashMap<u64, u64>) -> u64 {
    m.into_iter().map(|(k, v)| k ^ v).sum()
}

/// A `HashMap` iterated through a type alias: the ban fires at the
/// alias, which a token matcher misses.
#[expect(clippy::disallowed_types, reason = "fixture: must fire")]
type Pending = std::collections::HashMap<u64, u64>;

/// Iterates the alias; the ban fires once, at the alias.
pub fn emit_aliased(pending: &Pending) -> u64 {
    pending.iter().map(|(k, v)| k + v).sum()
}

/// r2_good_btreemap_iteration_is_ordered
pub fn emit_ordered(pending: std::collections::BTreeMap<u64, u64>) -> u64 {
    let mut sum = 0;
    for (k, v) in &pending {
        sum += k + v;
    }
    sum + pending.keys().count() as u64
}
