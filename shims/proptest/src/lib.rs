//! Offline stand-in for `proptest`: randomized property testing with the
//! same surface this workspace uses (`proptest!`, range/tuple/vec/bool
//! strategies, `prop_assert*`, `ProptestConfig::with_cases`).
//!
//! Differences from the real crate, deliberately accepted:
//! - no shrinking — a failing case reports its values (via the assertion
//!   message) and the case number, but is not minimized;
//! - cases are generated from a fixed per-test seed (hash of the test's
//!   module path and name), so runs are fully deterministic with no
//!   `PROPTEST_*` environment knobs.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};

/// A generator of random values for one test argument.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SmallRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Uniformly random booleans.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The strategy value usually imported.
    pub const ANY: Any = Any;

    impl crate::Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut SmallRng) -> bool {
            rng.random()
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: exact, or uniform in a half-open
    /// range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        /// Exclusive.
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of another strategy's values.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` strategy with the given element strategy and length.
    pub fn vec<S: crate::Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: crate::Strategy> crate::Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Self::Value {
            let len = rng.random_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Test-runner types (`TestCaseError`).
pub mod test_runner {
    /// A test-case failure with a reason.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        /// A failed case with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError(reason.into())
        }

        /// The failure reason.
        pub fn message(&self) -> &str {
            &self.0
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Commonly-imported names (`ProptestConfig`).
pub mod prelude {
    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real crate runs 256; 64 keeps simulation-heavy
            // properties fast while still exercising variety.
            ProptestConfig { cases: 64 }
        }
    }
}

/// Drive one property: `cases` deterministic random cases seeded from the
/// test's full path. Panics (failing the `#[test]`) on the first `Err`.
pub fn run_cases<F>(test_path: &str, config: &prelude::ProptestConfig, mut case: F)
where
    F: FnMut(&mut SmallRng) -> Result<(), test_runner::TestCaseError>,
{
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    test_path.hash(&mut hasher);
    let base = hasher.finish();
    for i in 0..config.cases {
        let mut rng =
            SmallRng::seed_from_u64(base ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if let Err(e) = case(&mut rng) {
            panic!(
                "property {test_path} failed at case {i}/{}: {}",
                config.cases,
                e.message()
            );
        }
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written in the block, as
/// throughout this workspace) running [`run_cases`] over its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::prelude::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::run_cases(
                concat!(module_path!(), "::", stringify!($name)),
                &__config,
                |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

/// Assert inside a property body; failure aborts only the current case
/// with a reportable reason.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!(
                            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                            stringify!($left),
                            stringify!($right),
                            __l,
                            __r
                        ),
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                        format!($($fmt)+),
                    ));
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::proptest! {
        #![proptest_config(crate::prelude::ProptestConfig::with_cases(40))]
        /// Strategies respect their ranges and sizes.
        #[test]
        fn ranges_and_vecs_in_bounds(
            x in 3u64..17,
            b in crate::bool::ANY,
            mut v in crate::collection::vec((0u8..=4, -2i64..3), 2..9),
        ) {
            crate::prop_assert!((3..17).contains(&x));
            crate::prop_assert!(matches!(b, true | false));
            crate::prop_assert!((2..9).contains(&v.len()), "len {}", v.len());
            for (a, c) in &v {
                crate::prop_assert!(*a <= 4);
                crate::prop_assert!((-2..3).contains(c));
            }
            v.clear();
            crate::prop_assert_eq!(v.len(), 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let collect = || {
            let mut out = Vec::new();
            crate::run_cases(
                "det-check",
                &crate::prelude::ProptestConfig::with_cases(10),
                |rng| {
                    out.push(crate::Strategy::generate(&(0u64..1000), rng));
                    Ok(())
                },
            );
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::run_cases(
            "fail-check",
            &crate::prelude::ProptestConfig::with_cases(3),
            |_| Err(crate::test_runner::TestCaseError::fail("boom")),
        );
    }
}
