//! Fixture: `pub` items that are reached, or suppressed with a reason.
//! None is a finding.

/// Named by `lib.rs`.
pub fn used_elsewhere() -> u32 {
    reading().0
}

/// Named by the benchmark, which builds against the `pub` API.
pub fn probed_by_benchmark() -> Reading {
    reading()
}

/// Named by no other file, but the return type of a reached item, so it
/// must stay `pub`.
pub struct Reading(pub u32);

fn reading() -> Reading {
    Reading(1)
}

/// The slow reference a fast kernel is checked against.
// analyze:allow(pub-reach): reference oracle the kernel tests compare against
pub fn oracle_naive() -> u32 {
    1
}
