//! Seeded property checks: the workspace's zero-dependency property
//! harness.
//!
//! [`check`] runs a property over many random cases. Case `i` of the
//! property named `name` draws all its input from one [`Rng`] seeded
//! with [`case_seed`]`(name, i)`, so every case is reproducible on its
//! own, and adding a case or a property never changes the input of
//! another. A failing case panics again with the property name, the
//! case index and the case seed; a property body run on
//! `Rng::from_seed(seed)` replays it. There is no shrinking: a failing
//! case is reported as drawn.
//!
//! The generators below cover the collection shapes the properties
//! draw; scalars come straight from [`Rng`].
//!
//! # Examples
//!
//! ```
//! use eps_sim::check::{check, vec_of, CASES};
//!
//! check("sorting_is_idempotent", CASES, |rng| {
//!     let mut v = vec_of(rng, 0..50, |r| r.random_below(100));
//!     v.sort_unstable();
//!     let once = v.clone();
//!     v.sort_unstable();
//!     assert_eq!(v, once);
//! });
//! ```

use std::any::Any;
use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{Rng, RngFactory};

/// The default number of cases per property: the count property-test
/// frameworks conventionally run.
pub const CASES: u64 = 256;

/// The seed of case `case` of the property named `name`.
pub fn case_seed(name: &str, case: u64) -> u64 {
    RngFactory::new(case).stream_seed(name)
}

/// Runs `property` on `cases` seeded random cases, in case order.
///
/// # Panics
///
/// Panics on the first case whose body panics, naming the property,
/// the case index and the case seed, followed by the body's message.
pub fn check(name: &str, cases: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = Rng::from_seed(seed);
        if let Err(cause) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            panic!(
                "property `{name}` failed at case {case} of {cases} (seed {seed:#018x}): {}",
                message(cause.as_ref())
            );
        }
    }
}

fn message(cause: &(dyn Any + Send)) -> &str {
    if let Some(s) = cause.downcast_ref::<&str>() {
        s
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// A vector whose length is uniform in `len`, each item drawn by
/// `item`.
///
/// # Panics
///
/// Panics if `len` is empty.
pub fn vec_of<T>(rng: &mut Rng, len: Range<usize>, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = rng.random_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A set whose size is uniform in `len`, filled by drawing `item`
/// until it holds that many distinct values.
///
/// # Panics
///
/// Panics if `len` is empty, or if `item` cannot produce enough
/// distinct values (a million draws without reaching the size).
pub fn set_of<T: Ord>(
    rng: &mut Rng,
    len: Range<usize>,
    mut item: impl FnMut(&mut Rng) -> T,
) -> BTreeSet<T> {
    let n = rng.random_range(len);
    let mut set = BTreeSet::new();
    for _ in 0..1_000_000 {
        if set.len() == n {
            return set;
        }
        set.insert(item(rng));
    }
    panic!("set_of: generator yields fewer than {n} distinct values");
}

/// `None` or `Some(item)`, each with probability one half.
pub fn option_of<T>(rng: &mut Rng, item: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    rng.random_bool(0.5).then(|| item(rng))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_depend_on_name_and_case() {
        assert_eq!(case_seed("p", 3), case_seed("p", 3));
        assert_ne!(case_seed("p", 3), case_seed("p", 4));
        assert_ne!(case_seed("p", 3), case_seed("q", 3));
    }

    #[test]
    fn every_case_runs_on_its_own_seed() {
        let mut firsts = Vec::new();
        check("records_first_draws", 5, |rng| firsts.push(rng.next_u64()));
        let expected: Vec<u64> = (0..5)
            .map(|case| Rng::from_seed(case_seed("records_first_draws", case)).next_u64())
            .collect();
        assert_eq!(firsts, expected);
    }

    #[test]
    fn a_failing_case_names_property_case_and_seed() {
        let mut case = 0;
        let cause = catch_unwind(AssertUnwindSafe(|| {
            check("fails_at_three", 10, |_| {
                assert!(case != 3, "boom");
                case += 1;
            })
        }))
        .expect_err("case 3 fails");
        let text = message(cause.as_ref()).to_string();
        let seed = case_seed("fails_at_three", 3);
        assert!(text.contains("`fails_at_three`"), "{text}");
        assert!(text.contains("case 3 of 10"), "{text}");
        assert!(text.contains(&format!("{seed:#018x}")), "{text}");
        assert!(text.ends_with("boom"), "{text}");
    }

    #[test]
    fn generators_respect_their_sizes() {
        check("generator_sizes", CASES, |rng| {
            let v = vec_of(rng, 2..7, |r| r.random_below(3));
            assert!((2..7).contains(&v.len()));
            let s = set_of(rng, 1..4, |r| r.random_below(5));
            assert!((1..4).contains(&s.len()));
            assert!(s.iter().all(|&x| x < 5));
        });
    }
}
