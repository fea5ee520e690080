//! Fixture: names an item from `#[cfg(test)]` code only.

#[cfg(test)]
mod tests {
    #[test]
    fn names_it() {
        assert_eq!(crate::items::unit_test_only(), 2);
    }
}
