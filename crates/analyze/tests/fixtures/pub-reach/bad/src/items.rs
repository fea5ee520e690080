//! Fixture: four `pub` items no other file's live code names. Each one is
//! a finding.

/// Named only in this file.
pub fn own_file_only() -> u32 {
    1
}

/// Named elsewhere only by the `pub use` in `lib.rs`.
pub struct ReExported;

/// Named elsewhere only by an integration test.
pub fn integration_test_only() -> u32 {
    own_file_only()
}

/// Named elsewhere only by another file's unit tests.
pub fn unit_test_only() -> u32 {
    2
}
