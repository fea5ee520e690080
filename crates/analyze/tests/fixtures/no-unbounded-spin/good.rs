//! Negative fixture: every poll is bounded or backed by a parked wait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A single pause is not a loop.
pub fn relax() {
    std::hint::spin_loop();
}

/// Bounded: gives up after 512 rounds whatever the flag says.
pub fn poll_briefly(flag: &AtomicBool) -> bool {
    for _ in 0..512 {
        if flag.load(Ordering::Acquire) {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

/// A bounded poll inside an endless loop that parks between polls.
pub fn poll_then_park(flag: &AtomicBool, lock: &Mutex<()>, woken: &Condvar) {
    loop {
        for _ in 0..64 {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::hint::spin_loop();
        }
        let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        drop(woken.wait(guard));
    }
}

/// One pause per round, and the round ends in a parked wait.
pub fn pause_then_wait(flag: &AtomicBool, lock: &Mutex<()>, woken: &Condvar) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
        let guard = lock.lock().unwrap_or_else(|p| p.into_inner());
        drop(woken.wait(guard));
    }
}
