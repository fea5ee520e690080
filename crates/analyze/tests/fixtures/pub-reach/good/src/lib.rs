//! Fixture crate root: live code naming an item of another file.

pub mod items;

/// Named by the example.
pub fn total() -> u32 {
    items::used_elsewhere()
}
