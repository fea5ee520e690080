//! Positive fixture: polling loops that never give the core back.

use std::sync::atomic::{AtomicBool, Ordering};

/// Waits for as long as the flag's owner stays descheduled.
pub fn wait_for(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// The same with the condition inside the body.
pub fn wait_in_a_loop(flag: &AtomicBool) {
    loop {
        if flag.load(Ordering::Acquire) {
            break;
        }
        core::hint::spin_loop();
    }
}

/// A bound around the outside does not bound the poll itself.
pub fn four_unbounded_waits(flags: &[AtomicBool; 4]) {
    for flag in flags {
        while !flag.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }
}
