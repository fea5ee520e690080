//! Fixture: an example is live code.

fn main() {
    println!("{}", fixture::total());
}
