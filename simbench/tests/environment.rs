//! Environment pinning. A test binary of its own: it mutates the process
//! environment, which no other test may observe.

use simbench::{pin_environment, PINNED_ENV};

#[test]
fn inherited_knobs_cannot_change_what_is_measured() {
    std::env::set_var("ASCC_BATCH", "0");
    std::env::set_var("ASCC_INSTRS", "123");
    std::env::set_var("ASCC_SOMETHING_NEW", "1");
    pin_environment();
    for (key, value) in PINNED_ENV {
        let now = std::env::var(key).ok();
        if value.is_empty() {
            assert_eq!(now, None, "{key} must be unset");
        } else {
            assert_eq!(now.as_deref(), Some(value), "{key}");
        }
    }
    assert!(std::env::var("ASCC_SOMETHING_NEW").is_err());
}
