//! Placeholder library target for the opt-in extras package; the
//! content lives in `tests/` (proptest suites). See
//! `extras/Cargo.toml` for why this package sits outside the
//! workspace.
