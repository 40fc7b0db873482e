//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace uses: the [`strategy::Strategy`]
//! trait with `prop_map`/`boxed`, range and tuple strategies, [`Just`](strategy::Just),
//! `any::<T>()`, `collection::vec`, weighted/unweighted `prop_oneof!`, and
//! the `proptest!` test macro with `prop_assert!`/`prop_assert_eq!`/
//! `prop_assume!`.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports the case index and the test's
//!   deterministic seed; cases are perfectly reproducible (the RNG stream is
//!   a pure function of the test name), so a failure can be replayed and
//!   printed by the test body itself.
//! * **`*.proptest-regressions` files are ignored** — there is no persistence
//!   layer.
//! * `PROPTEST_CASES` in the environment overrides the configured case count
//!   (same escape hatch real proptest offers).

pub mod strategy {
    use std::sync::Arc;

    pub use rand::rngs::StdRng as TestRng;
    use rand::RngExt;

    /// A generator of values of type `Value`. Generation-only: no value
    /// trees, no shrinking.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// Object-safe view of [`Strategy`] used by [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A cheaply clonable type-erased strategy.
    pub struct BoxedStrategy<T>(Arc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
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

    /// Result of [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Whole-domain uniform strategy returned by [`any`].
    #[derive(Clone, Copy, Debug, Default)]
    pub struct AnyStrategy<T>(core::marker::PhantomData<T>);

    /// `any::<T>()` — uniform over `T`'s whole domain.
    pub fn any<T: rand::Standard>() -> AnyStrategy<T> {
        AnyStrategy(core::marker::PhantomData)
    }

    impl<T: rand::Standard> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.random()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($S:ident . $v:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$v.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

    /// Weighted choice over same-typed arms; built by `prop_oneof!`.
    pub struct OneOf<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u32,
    }

    impl<T> OneOf<T> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| *w).sum();
            assert!(total > 0, "prop_oneof! needs positive total weight");
            OneOf { arms, total }
        }
    }

    impl<T> Clone for OneOf<T> {
        fn clone(&self) -> Self {
            OneOf {
                arms: self.arms.clone(),
                total: self.total,
            }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.random_range(0..self.total);
            for (w, arm) in &self.arms {
                if pick < *w {
                    return arm.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights exhausted")
        }
    }
}

pub mod collection {
    use super::strategy::{Strategy, TestRng};
    use rand::RngExt;

    /// Inclusive length bounds for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }
    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }
    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    pub use super::strategy::TestRng;

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the input; not a failure.
        Reject(String),
        /// A `prop_assert*` fired.
        Fail(String),
    }

    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..Default::default()
            }
        }

        /// Case count after applying the `PROPTEST_CASES` env override.
        pub fn resolved_cases(&self) -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(self.cases)
        }
    }

    /// Deterministic per-test seed: FNV-1a of the test's full path.
    pub fn seed_for(test_path: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($arm))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                    l, r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!(
                    "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
                    l, r, ::std::format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// The test harness macro. Each `fn name(pat in strategy, ...) { body }`
/// becomes an ordinary `#[test]` (the user writes the `#[test]` attribute
/// inside the block; it passes through like any other attribute, exactly as
/// in real proptest).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!($crate::test_runner::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __cases = __cfg.resolved_cases();
            let __path = concat!(module_path!(), "::", stringify!($name));
            let __seed = $crate::test_runner::seed_for(__path);
            let mut __rng =
                <$crate::test_runner::TestRng as ::rand::SeedableRng>::seed_from_u64(__seed);
            let mut __rejects: u32 = 0;
            let mut __case: u32 = 0;
            while __case < __cases {
                let __r = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(let $p = $crate::strategy::Strategy::generate(&($s), &mut __rng);)+
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __r {
                    ::std::result::Result::Ok(()) => __case += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {
                        __rejects += 1;
                        if __rejects > __cfg.max_global_rejects {
                            panic!(
                                "{}: too many prop_assume! rejections ({})",
                                __path, __rejects
                            );
                        }
                    }
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "{}: case {} failed (seed {:#x}): {}",
                            __path, __case, __seed, msg
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Toy {
        Pair(u64, bool),
        Stop,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(x in 3u64..17, (y, b) in (1u32..=4, any::<bool>())) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
            let _ = b;
        }

        #[test]
        fn vec_and_oneof(v in crate::collection::vec(
            prop_oneof![
                3 => (0u64..10, any::<bool>()).prop_map(|(a, b)| Toy::Pair(a, b)),
                1 => Just(Toy::Stop),
            ],
            1..8,
        )) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            for t in &v {
                if let Toy::Pair(a, _) = t {
                    prop_assert!(*a < 10, "a = {}", a);
                }
            }
        }

        #[test]
        fn assume_filters(mut n in 0u64..100) {
            prop_assume!(n % 2 == 0);
            n += 2;
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn boxed_is_clone_and_deterministic() {
        use crate::strategy::{Strategy, TestRng};
        use ::rand::SeedableRng;
        let s = (0u64..50).prop_map(|x| x * 2).boxed();
        let s2 = s.clone();
        let mut r1 = TestRng::seed_from_u64(9);
        let mut r2 = TestRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut r1), s2.generate(&mut r2));
        }
    }
}
