//! Fixture: the benchmark's uses keep an item `pub`.

fn main() {
    let _ = fixture::items::probed_by_benchmark();
}
