//! Offline drop-in replacement for the subset of the `proptest` 1.x API
//! this workspace uses.
//!
//! The build environment cannot reach crates.io, so the real `proptest`
//! cannot be fetched. This shim keeps the property tests *running*: the
//! `proptest!` macro expands each property into a plain `#[test]` that
//! draws `cases` deterministic random inputs from the declared strategies
//! and executes the body. There is no shrinking — a failing case reports
//! the assertion directly.

pub mod test_runner {
    //! Test-case configuration and the deterministic input generator.

    /// Number of random cases each property runs (`with_cases`).
    #[derive(Clone, Copy, Debug)]
    pub struct Config {
        /// How many inputs to draw per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` inputs per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic xoshiro256++ generator used to drive strategies.
    /// Seeded per property from the test name, so runs are reproducible.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// A generator seeded from an arbitrary label (the test name).
        pub fn deterministic(label: &str) -> Self {
            // FNV-1a over the label, then SplitMix64 state expansion.
            let mut h = 0xCBF29CE484222325u64;
            for b in label.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001B3);
            }
            let mut x = h;
            let mut next = move || {
                x = x.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`.
        ///
        /// # Panics
        ///
        /// Panics if `bound` is zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty range");
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    //! Value-generation strategies: ranges, tuples, maps, collections.

    use crate::test_runner::TestRng;

    /// Generates random values of `Value` (no shrinking in this shim).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// A strategy applying `f` to every generated value.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// A strategy that feeds each generated value into `f` and draws
        /// from the strategy `f` returns — the standard way to make one
        /// dimension of a value (e.g. a vector length) depend on another.
        fn prop_flat_map<T: Strategy, F: Fn(Self::Value) -> T>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    /// A constant strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// The [`Strategy::prop_flat_map`] adapter.
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            let mid = self.inner.generate(rng);
            (self.f)(mid).generate(rng)
        }
    }

    /// Primitive types whose ranges act as strategies. A single blanket
    /// `Strategy` impl over this trait keeps unsuffixed literals
    /// (`0..10`, `-1.0..1.0`) inferable via the default numeric fallback.
    pub trait RangeValue: Copy + PartialOrd {
        /// Uniform draw from `[lo, hi)` (`hi` included when `inclusive`).
        fn draw(lo: Self, hi: Self, inclusive: bool, rng: &mut TestRng) -> Self;
    }

    macro_rules! int_range_value {
        ($($t:ty),*) => {$(
            impl RangeValue for $t {
                fn draw(lo: Self, hi: Self, inclusive: bool, rng: &mut TestRng) -> Self {
                    let span = (hi as i128 - lo as i128) as u128 + inclusive as u128;
                    let v = (rng.next_u64() as u128 % span) as i128;
                    (lo as i128 + v) as $t
                }
            }
        )*};
    }

    int_range_value!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

    macro_rules! float_range_value {
        ($($t:ty),*) => {$(
            impl RangeValue for $t {
                fn draw(lo: Self, hi: Self, _inclusive: bool, rng: &mut TestRng) -> Self {
                    lo + rng.unit_f64() as $t * (hi - lo)
                }
            }
        )*};
    }

    float_range_value!(f64, f32);

    impl<T: RangeValue> Strategy for core::ops::Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(self.start < self.end, "empty strategy range");
            T::draw(self.start, self.end, false, rng)
        }
    }

    impl<T: RangeValue> Strategy for core::ops::RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty strategy range");
            T::draw(lo, hi, true, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $idx:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (S0/0);
        (S0/0, S1/1);
        (S0/0, S1/1, S2/2);
        (S0/0, S1/1, S2/2, S3/3);
        (S0/0, S1/1, S2/2, S3/3, S4/4);
        (S0/0, S1/1, S2/2, S3/3, S4/4, S5/5);
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
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

    /// A strategy generating `Vec`s of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                self.size.lo + rng.below((self.size.hi - self.size.lo + 1) as u64) as usize
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies (`prop::bool::ANY`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A uniformly random boolean.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// The uniform boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! The glob-import surface: `use proptest::prelude::*;`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    pub mod prop {
        //! The `prop::` namespace (collections, booleans).
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Declares property tests. Each `fn name(arg in strategy, ...)` item
/// expands to a plain `#[test]` drawing `cases` deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            $crate::test_runner::Config::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng = $crate::test_runner::TestRng::deterministic(
                concat!(module_path!(), "::", stringify!($name)),
            );
            // Bundle the argument strategies into one tuple strategy so
            // arguments may be arbitrary patterns, not just identifiers.
            let __strategies = ($($strat,)*);
            for __case in 0..__config.cases {
                let ($($arg,)*) =
                    $crate::strategy::Strategy::generate(&__strategies, &mut __rng);
                // Bodies may `return Ok(())` early (upstream proptest
                // wraps them in a TestCaseResult closure), so run each
                // case inside a Result-returning closure.
                let __case_fn = || {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                };
                let __outcome: ::core::result::Result<(), ::std::string::String> =
                    __case_fn();
                if let ::core::result::Result::Err(__e) = __outcome {
                    panic!("property case {} returned Err: {}", __case, __e);
                }
            }
        }
        $crate::__proptest_items! { $cfg; $($rest)* }
    };
}

/// `assert!` under a name the property tests expect.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// `assert_eq!` under a name the property tests expect.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 0..10usize, y in -2.0..2.0f64) {
            prop_assert!(x < 10);
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn maps_and_vecs_compose(
            v in prop::collection::vec((0..5usize).prop_map(|n| n * 2), 3),
            flag in prop::bool::ANY,
        ) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!(v.iter().all(|&n| n % 2 == 0 && n < 10));
            let toggled = !flag;
            prop_assert!(flag != toggled);
        }
    }

    #[test]
    fn deterministic_rng_is_reproducible() {
        let mut a = crate::test_runner::TestRng::deterministic("label");
        let mut b = crate::test_runner::TestRng::deterministic("label");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
