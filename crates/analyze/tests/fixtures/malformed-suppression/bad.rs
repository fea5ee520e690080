//! Fixture: suppressions that do not parse or name no rule. A typo'd
//! `analyze:allow` must surface as a deny finding — never silently
//! suppress nothing.

use std::time::Instant;

pub fn stamp() -> Instant {
    // analyze:allow(no-wallclock-in-engine)
    Instant::now()
}

pub fn stamp_again() -> Instant {
    // analyze:allow(): empty rule name
    Instant::now()
}

pub fn stamp_misspelled() -> Instant {
    // analyze:allow(no-wallclok-in-engine): the rule name is misspelled
    Instant::now()
}
