//! Fixture: an integration test is test code, however public its calls.

#[test]
fn names_it() {
    assert_eq!(fixture::integration_test_only(), 1);
}
