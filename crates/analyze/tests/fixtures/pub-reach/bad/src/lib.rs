//! Fixture crate root: declares the modules and re-exports one item.

mod items;
mod other;

pub use items::ReExported;
