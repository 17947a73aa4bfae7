//! Offline shim for [`proptest`](https://docs.rs/proptest).
//!
//! Supports the subset the integration tests use: the `proptest!` macro
//! with an optional `#![proptest_config(...)]` header, range and
//! `any::<T>()` strategies, `prop::collection::vec`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` result macros.
//!
//! Differences from real proptest: generation is driven by a fixed-seed
//! deterministic RNG (so CI failures reproduce exactly), and failing cases
//! are reported without shrinking.

use std::fmt;

pub use crate::strategy::{Any, Strategy};

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is retried.
    Reject,
    /// An assertion failed; the test panics with this message.
    Fail(String),
}

/// Result type each generated case evaluates to.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only `cases` is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of passing cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config requiring `cases` passing cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic RNG handed to strategies (fixed seed per test fn).
pub mod test_runner {
    pub use super::ProptestConfig as Config;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fixed-seed generator so every run explores the same cases.
    #[derive(Debug)]
    pub struct TestRng(pub StdRng);

    impl TestRng {
        /// Seeds from the test name so sibling tests draw different data.
        pub fn deterministic(salt: &str) -> Self {
            let mut seed = 0xC0FF_EE00_5EED_u64;
            for b in salt.bytes() {
                seed = seed.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
            }
            TestRng(StdRng::seed_from_u64(seed))
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type this strategy produces.
        type Value;
        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            rng.0.gen_range(self.clone())
        }
    }

    impl Strategy for Range<usize> {
        type Value = usize;
        fn new_value(&self, rng: &mut TestRng) -> usize {
            rng.0.gen_range(self.clone())
        }
    }

    impl Strategy for Range<u64> {
        type Value = u64;
        fn new_value(&self, rng: &mut TestRng) -> u64 {
            rng.0.gen_range(self.clone())
        }
    }

    impl Strategy for Range<i32> {
        type Value = i32;
        fn new_value(&self, rng: &mut TestRng) -> i32 {
            rng.0.gen_range(self.clone())
        }
    }

    /// Strategy returned by [`super::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) PhantomData<T>);

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.0.gen_range(0usize..2) == 1
        }
    }

    impl Arbitrary for u8 {
        fn arbitrary(rng: &mut TestRng) -> u8 {
            rng.0.gen_range(0u64..256) as u8
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> u64 {
            rng.0.gen_range(0u64..u64::MAX)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.0.gen_range(-1e12f64..1e12)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// The strategy for "any value of `T`".
pub fn any<T: strategy::Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Namespaced strategy constructors (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use rand::Rng;
        use std::ops::Range;

        /// Acceptable `size` arguments for [`vec()`]: a fixed length or a
        /// half-open range of lengths.
        pub trait IntoSizeRange {
            /// Draws a concrete length.
            fn pick_len(&self, rng: &mut TestRng) -> usize;
        }

        impl IntoSizeRange for usize {
            fn pick_len(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl IntoSizeRange for Range<usize> {
            fn pick_len(&self, rng: &mut TestRng) -> usize {
                rng.0.gen_range(self.clone())
            }
        }

        /// Strategy producing `Vec`s of values drawn from `element`.
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        /// `Vec` strategy over an element strategy and a size spec.
        pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
            VecStrategy { element, len: size }
        }

        impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.pick_len(rng);
                (0..n).map(|_| self.element.new_value(rng)).collect()
            }
        }
    }
}

/// Glob-import surface matching `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Any, Arbitrary, Strategy};
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig,
        TestCaseError, TestCaseResult,
    };
}

#[doc(hidden)]
pub fn __format_failure(args: fmt::Arguments<'_>) -> TestCaseError {
    TestCaseError::Fail(args.to_string())
}

#[doc(hidden)]
pub fn __run_cases(
    name: &str,
    cases: u32,
    mut case: impl FnMut(&mut test_runner::TestRng) -> TestCaseResult,
) {
    let mut rng = test_runner::TestRng::deterministic(name);
    let mut passed = 0u32;
    let mut attempts = 0u32;
    let max_attempts = cases.saturating_mul(20).max(100);
    while passed < cases {
        attempts += 1;
        assert!(
            attempts <= max_attempts,
            "proptest shim: `{name}` rejected too many cases ({passed}/{cases} passed \
             after {attempts} attempts)"
        );
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest case failed (case {passed}, attempt {attempts}): {msg}")
            }
        }
    }
}

/// Rejects the current case unless `cond` holds (the case is re-drawn).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::__format_failure(format_args!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{} == {}` (left: `{:?}`, right: `{:?}`)",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Declares property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cfg).cases; $($rest)*);
    };
    (@cases $cases:expr; ) => {};
    (@cases $cases:expr;
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__run_cases(stringify!($name), $cases, |__rng| {
                $(let $arg = $crate::strategy::Strategy::new_value(&($strat), __rng);)*
                $body
                Ok(())
            });
        }
        $crate::proptest!(@cases $cases; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cases $crate::ProptestConfig::default().cases; $($rest)*);
    };
}

// Re-export for `tac_amr`-style paths used inside test bodies.
pub use prop::collection;

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, f in -1.0f64..1.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_follow_size_spec(
            v in prop::collection::vec(any::<bool>(), 4..12),
            w in prop::collection::vec(0u64..5, 7),
        ) {
            prop_assert!((4..12).contains(&v.len()));
            prop_assert_eq!(w.len(), 7);
            for x in &w {
                prop_assert!(*x < 5);
            }
        }

        #[test]
        fn assume_rejects_and_retries(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn failing_assertion_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]
            #[allow(unused)]
            fn inner(x in 0u64..10) {
                prop_assert!(x > 1000, "x was {}", x);
            }
        }
        inner();
    }
}
