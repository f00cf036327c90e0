//! Offline drop-in subset of the `proptest` API.
//!
//! The workspace must build without network access, so the real proptest is
//! replaced by this shim implementing the surface the test suite uses:
//!
//! * the [`proptest!`] macro (multiple `#[test] fn name(pat in strategy)`
//!   items per invocation),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`],
//! * integer-range, tuple, `any::<T>()` and `prop::collection::vec`
//!   strategies.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **No shrinking.** A failing case is reported with its concrete inputs
//!   but not minimized. Regressions worth pinning should be written out as
//!   explicit unit tests (see `tests/properties.rs`).
//! * **Deterministic generation.** Each case's RNG is seeded from the test
//!   name and the attempt index, so runs are reproducible without a
//!   `proptest-regressions` seed file (the file is still honored as
//!   documentation of historical failures).
//! * Case count comes from `PROPTEST_CASES` (default 128).

use std::fmt::Debug;
use std::ops::Range;

pub mod test_runner {
    //! Deterministic RNG, case counting and test-case errors.

    /// Outcome of one generated case, produced by the assertion macros.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; the case is re-generated.
        Reject(String),
        /// `prop_assert*!` failed; the test fails with this message.
        Fail(String),
    }

    /// Number of cases to run per property, from `PROPTEST_CASES`.
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(128)
    }

    /// SplitMix64 — small, fast, and good enough for test-case generation.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Deterministic RNG for one attempt of one named test.
        pub fn for_case(name: &str, attempt: u32) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Self(h ^ ((attempt as u64) << 1) ^ 0x9e37_79b9_7f4a_7c15)
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            self.next_u64() % n
        }
    }
}

use test_runner::TestRng;

/// A source of generated values (the shim keeps proptest's name but samples
/// directly instead of building value trees — no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

pub mod arbitrary {
    //! `any::<T>()` for types with a canonical full-range strategy.

    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" generator.
    pub trait Arbitrary: Debug {
        /// Generate an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy produced by [`any`].
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Inclusive-exclusive length bound accepted by [`vec()`]: a `usize` is an
    /// exact length, a `Range<usize>` is `[start, end)`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.lo + rng.below((self.size.hi - self.size.lo) as u64) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::test_runner::TestCaseError;
    pub use crate::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};

    /// Namespaced strategy modules (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Define property tests. Each `#[test] fn name(arg in strategy, ...)` body
/// runs for [`test_runner::cases`] generated cases; `prop_assume!` rejections
/// re-generate with a fresh seed, bounded by a global attempt cap.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::cases();
                let max_attempts = cases.saturating_mul(16).max(64);
                let mut passed = 0u32;
                let mut attempt = 0u32;
                while passed < cases {
                    assert!(
                        attempt < max_attempts,
                        "gave up after {attempt} attempts ({passed} cases passed): \
                         prop_assume! rejects too much"
                    );
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        attempt,
                    );
                    attempt += 1;
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)*
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, ",)*),
                        $(&$arg),*
                    );
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property `{}` failed at attempt #{}: {}\n  inputs: {}",
                                stringify!($name),
                                attempt - 1,
                                msg,
                                inputs
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fallible assertion: fails the current generated case with its inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fallible equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n  {}",
            stringify!($a), stringify!($b), a, b, format!($($fmt)*)
        );
    }};
}

/// Reject the current case (it is re-generated, not failed).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0u64..5, z in 1usize..2) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert_eq!(z, 1);
        }

        #[test]
        fn vec_respects_size_range(v in prop::collection::vec(0u64..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn exact_vec_len(v in prop::collection::vec(any::<bool>(), 4)) {
            prop_assert_eq!(v.len(), 4);
        }

        #[test]
        fn tuples_and_assume(t in (0u32..4, 0u64..8, any::<bool>())) {
            prop_assume!(t.1 < 6);
            prop_assert!(t.0 < 4 && t.1 < 6);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::test_runner::TestRng;
        use crate::Strategy;
        let s = (0u32..100, 0u64..1000);
        let a = s.sample(&mut TestRng::for_case("det", 7));
        let b = s.sample(&mut TestRng::for_case("det", 7));
        assert_eq!(a, b);
        let c = s.sample(&mut TestRng::for_case("det", 8));
        assert_ne!((a, c.0), (c, a.0), "different attempts should differ");
    }

    #[test]
    #[should_panic(expected = "property `always_fails` failed")]
    fn failures_report_inputs() {
        proptest! {
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
