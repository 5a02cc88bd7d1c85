#![forbid(unsafe_code)]

//! An API-compatible subset of the `proptest` crate. The build container
//! has no access to crates.io, so the workspace vendors the surface its
//! property tests use: the `proptest!`/`prop_assert!`/`prop_assert_eq!`/
//! `prop_oneof!` macros, [`strategy::Strategy`] with `prop_map`/`boxed`,
//! integer-range and tuple strategies, [`arbitrary::any`], [`Just`],
//! [`collection::vec`], and [`test_runner::ProptestConfig`].
//!
//! Differences from upstream, deliberately accepted:
//! - Case generation is seeded from the test's module path + case index,
//!   so every run explores the same inputs (fully reproducible, never
//!   flaky — a feature for this repo's determinism-focused test suite).
//! - There is no shrinking: a failing case reports its seed and values
//!   via the panic message instead of a minimized counterexample.

pub use strategy::Just;

pub mod test_runner {
    //! Configuration, error type, and the deterministic case RNG.

    use std::fmt;

    /// Per-`proptest!` block configuration. Only `cases` is honoured;
    /// `max_shrink_iters` exists so upstream-style functional-record-update
    /// construction (`.. ProptestConfig::default()`) keeps compiling.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
        /// Ignored: this implementation never shrinks.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_shrink_iters: 0,
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the property is falsified.
        Fail(String),
        /// The input was rejected (unused here, kept for API parity).
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Build a rejection with the given reason.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }

    /// Deterministic splitmix64 stream, seeded from the test's fully
    /// qualified name and the case index.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed for case `case` of the named test.
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; panics if `bound == 0`.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "TestRng::below(0)");
            (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};
    use std::rc::Rc;

    /// A recipe for generating values of `Self::Value`. Unlike upstream
    /// there is no value tree / shrinking: `generate` draws one value.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value from the deterministic stream.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Type-erase this strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Uniform choice among alternative strategies (`prop_oneof!`).
    #[derive(Clone)]
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from the (non-empty) list of alternatives.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Integers drawable uniformly from a closed range.
    pub trait SampleInt: Copy + PartialOrd {
        /// Uniform draw from `[lo, hi]`; caller guarantees `lo <= hi`.
        fn draw(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
        /// `self - 1`, for converting exclusive upper bounds.
        fn minus_one(self) -> Self;
    }

    macro_rules! impl_sample_int {
        ($($ty:ty),*) => {$(
            impl SampleInt for $ty {
                fn draw(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                    let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                    if span == 0 {
                        return rng.next_u64() as $ty;
                    }
                    let off = ((rng.next_u64() as u128) * span) >> 64;
                    lo.wrapping_add(off as $ty)
                }
                fn minus_one(self) -> Self { self - 1 }
            }
        )*};
    }

    impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl<T: SampleInt> Strategy for Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(self.start < self.end, "strategy on empty range");
            T::draw(rng, self.start, self.end.minus_one())
        }
    }

    impl<T: SampleInt> Strategy for RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "strategy on empty range");
            T::draw(rng, lo, hi)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod arbitrary {
    //! `any::<T>()` and the [`Arbitrary`] trait.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy for the full domain of `T`.
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            *self
        }
    }

    impl<T> Copy for Any<T> {}

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`, e.g. `any::<u8>()`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec<S::Value>` with length in a [`SizeRange`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias so `prop::collection::vec(..)` resolves as upstream.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        { $body }
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__err) = __result {
                    ::std::panic!(
                        "proptest case {}/{} of `{}` failed: {}",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                        __err
                    );
                }
            }
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}

/// Assert inside a proptest body; failure fails the current case (the
/// enclosing generated closure must return `Result<_, TestCaseError>`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{}\n  left: {:?}\n right: {:?}",
                    ::std::format!($($fmt)+), __l, __r
                ),
            ));
        }
    }};
}

/// Inequality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} != {}`\n  both: {:?}",
                    stringify!($left), stringify!($right), __l
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{}\n  both: {:?}",
                    ::std::format!($($fmt)+), __l
                ),
            ));
        }
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = prop::collection::vec((0u32..10, any::<u8>()), 1..5);
        let mut a = TestRng::deterministic("x", 3);
        let mut b = TestRng::deterministic("x", 3);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

        #[test]
        fn ranges_respect_bounds(x in 3usize..7, y in 10u64..=12, v in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!((3..7).contains(&x));
            prop_assert!((10..=12).contains(&y), "y={} escaped", y);
            prop_assert!(v.len() < 4);
        }

        #[test]
        fn question_mark_propagates(n in 1usize..5) {
            let check = |k: usize| {
                prop_assert!(k >= 1, "k underflow");
                Ok(())
            };
            check(n)?;
            prop_assert_eq!(n.min(4), n);
        }

        #[test]
        fn oneof_and_just_cover_arms(pick in prop_oneof![Just(1u8), Just(2u8), any::<u8>().prop_map(|b| b % 3)]) {
            prop_assert!(pick <= 2 || pick == 1 || pick == 2 || pick < u8::MAX);
        }
    }
}
