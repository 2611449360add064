//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of proptest's API its property tests use: the
//! [`proptest!`] macro, `prop_assert*`, range/tuple/collection/option
//! strategies, and [`ProptestConfig::with_cases`]. Differences from the
//! real crate, by design:
//!
//! - **No shrinking.** A failing case reports the sampled inputs via the
//!   panic message; it is not minimized.
//! - **Deterministic.** Case `i` of a test derives its RNG seed from the
//!   test name and `i`, so failures reproduce without a regressions file
//!   (`*.proptest-regressions` files are ignored).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy trait: a recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Samples one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Types with a canonical full-range strategy (the real crate's
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Samples one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<bool>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<f64>()
    }
}

/// Full-range strategy for `T` — the real crate's `any::<T>()`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(core::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// An inclusive-exclusive size bound, convertible from `a..b` and
    /// `a..=b`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl SizeRange {
        fn sample(&self, rng: &mut StdRng) -> usize {
            assert!(self.lo < self.hi, "empty collection size range");
            rng.gen_range(self.lo..self.hi)
        }
    }

    /// Vec of values from `element`, with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// BTreeSet of values from `element` with a size in `size` (distinct
    /// elements; sampling retries until the set is full, like the real
    /// crate's rejection sampling).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut set = std::collections::BTreeSet::new();
            // Bounded retries so a too-narrow element domain degrades to a
            // smaller set instead of hanging.
            for _ in 0..target * 20 {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.sample(rng));
            }
            set
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// `None` about a quarter of the time, otherwise `Some` of `inner` —
    /// matching the real crate's default weighting.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// Test-runner types (`proptest::test_runner`).
pub mod test_runner {
    use super::{SeedableRng, StdRng};

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// A failed property assertion (carries the formatted message).
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    /// Drives one property: `cases` deterministic iterations.
    ///
    /// `body` receives the per-case RNG and returns `Err` on a failed
    /// `prop_assert*`. Panics (with the case number and seed) on failure
    /// so the surrounding `#[test]` fails normally.
    pub fn run(
        name: &str,
        config: Config,
        mut body: impl FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    ) {
        for case in 0..config.cases {
            let seed = fnv1a(name) ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = StdRng::seed_from_u64(seed);
            if let Err(TestCaseError(msg)) = body(&mut rng) {
                panic!("property failed at case {case} (seed {seed:#x}): {msg}");
            }
        }
    }

    // A private copy: this crate stands in for the published `proptest`
    // and must not depend on any `msnap-*` crate.
    fn fnv1a(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

pub use test_runner::Config as ProptestConfig;

/// The macro and strategy prelude; `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };

    /// Namespaced strategy modules (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Defines property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    // With a config attribute.
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                $crate::test_runner::run(stringify!($name), config, |prop_rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), prop_rng);)+
                    $body
                    Ok(())
                });
            }
        )+
    };
    // Without: default config.
    ($($(#[$meta:meta])*
       fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)+
        }
    };
}

/// Asserts a condition inside a property, failing the case (not the
/// process) on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs_compose(
            xs in prop::collection::vec((0u64..100, any::<u8>()), 1..50),
            frac in 0.0f64..1.0,
        ) {
            prop_assert!(!xs.is_empty());
            prop_assert!(xs.len() < 50);
            for (a, _b) in &xs {
                prop_assert!(*a < 100, "a = {}", a);
            }
            prop_assert!((0.0..1.0).contains(&frac));
        }

        #[test]
        fn btree_sets_are_bounded(s in prop::collection::btree_set(0u64..1000, 1..20)) {
            prop_assert!(s.len() < 20);
            prop_assert!(s.iter().all(|&v| v < 1000));
        }

        #[test]
        fn options_mix(o in prop::option::of(0u8..10)) {
            if let Some(v) = o {
                prop_assert!(v < 10);
            }
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first = Vec::new();
        crate::test_runner::run("det", ProptestConfig::with_cases(5), |rng| {
            first.push(crate::Strategy::sample(&(0u64..1_000_000), rng));
            Ok(())
        });
        let mut second = Vec::new();
        crate::test_runner::run("det", ProptestConfig::with_cases(5), |rng| {
            second.push(crate::Strategy::sample(&(0u64..1_000_000), rng));
            Ok(())
        });
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic_with_case_info() {
        crate::test_runner::run("fail", ProptestConfig::with_cases(3), |_rng| {
            Err(crate::test_runner::TestCaseError::fail("boom"))
        });
    }
}
