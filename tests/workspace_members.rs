//! The root `Cargo.toml` lists every workspace member in
//! `default-members`, so a bare `cargo test` at the root runs every
//! crate's suites. A member missing from that list drops out of the test
//! loop without a word; this test names it instead.

/// The strings of the manifest's top-level array `key = [ ... ]`: one
/// quoted string per item, as the root manifest writes its two member
/// lists.
fn string_array<'a>(manifest: &'a str, key: &str) -> Vec<&'a str> {
    let open = format!("\n{key} = [");
    let start = manifest
        .find(&open)
        .unwrap_or_else(|| panic!("no `{key}` array in the root Cargo.toml"))
        + open.len();
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("the array is closed")];
    body.split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(|item| {
            item.strip_prefix('"')
                .and_then(|item| item.strip_suffix('"'))
                .unwrap_or_else(|| panic!("`{item}` in `{key}` is not a quoted string"))
        })
        .collect()
}

#[test]
fn every_workspace_member_is_a_default_member() {
    let manifest = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .expect("read the root Cargo.toml");
    let members = string_array(&manifest, "members");
    let defaults = string_array(&manifest, "default-members");
    assert!(members.contains(&"crates/serve"), "{members:?}");
    assert!(defaults.contains(&"."), "the root package: {defaults:?}");
    let missing: Vec<&str> = members
        .into_iter()
        .filter(|member| !defaults.contains(member))
        .collect();
    assert!(
        missing.is_empty(),
        "workspace members a bare `cargo test` would skip (add them to `default-members`): {missing:?}"
    );
}
