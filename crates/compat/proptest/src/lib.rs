//! Offline stand-in for `proptest`.
//!
//! Supports the subset of the DSL the workspace's property tests use:
//!
//! * `proptest! { #[test] fn name(x in strategy, ...) { ... } }`
//! * range strategies (`0u8..=1`, `0.0f64..100.0`, `1usize..20`, ...)
//! * tuples of strategies (`(0u8..3, any::<u64>())`), up to arity 4
//! * `prop::collection::vec(strategy, len)` with a fixed or ranged length
//! * `prop::array::uniform3(strategy)` fixed-size array strategies
//! * `any::<bool>()` / `any::<u64>()` (and the other unsigned widths) and
//!   `prop::bool::ANY`
//! * `prop_assert!` / `prop_assert_eq!`
//!
//! Each generated test runs its body over [`CASES`] deterministically seeded
//! random inputs (seeded from the test name), so failures reproduce across
//! runs. There is no shrinking: a failing case panics with the ordinary
//! assertion message behind the case number and its inputs, as in
//! `case 7/64: x = 12, flags = [true, false]: assertion failed: ...`. Swap
//! the workspace path dependency for crates.io `proptest = "1"` to restore
//! shrinking and persistence; the test sources compile unchanged.

#![deny(missing_docs)]

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases each `proptest!`-generated test executes.
pub const CASES: usize = 64;

/// The deterministic generator threaded through strategies.
pub type TestRng = StdRng;

/// Builds the per-test generator. Used by the [`proptest!`] expansion; not
/// part of the public API surface mirrored from the real crate.
pub fn test_rng(test_name: &str) -> TestRng {
    // FNV-1a over the test name keeps distinct tests on distinct streams.
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(hash)
}

/// Runs case `case` (0-based) of a [`proptest!`] test, whose inputs
/// `inputs` lists as `name = value` pairs; if `body` panics, panics again
/// with the case and its inputs ahead of the original message. Used by the
/// [`proptest!`] expansion; not part of the public API surface mirrored
/// from the real crate.
pub fn run_case(case: usize, inputs: &str, body: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        let message = match payload.downcast_ref::<String>() {
            Some(message) => message.as_str(),
            None => payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("(no message)"),
        };
        panic!("case {}/{CASES}: {inputs}: {message}", case + 1);
    }
}

/// A generator of random values for one test parameter.
pub trait Strategy {
    /// The type of value the strategy produces.
    type Value;
    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// Tuples of strategies draw each element in order, mirroring the real
// crate's tuple `Strategy` impls (used as `prop::collection::vec` elements).
macro_rules! tuple_strategy {
    ($($s:ident : $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Mirror of `proptest::prelude::any`: the canonical strategy for a type.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Types with a canonical [`any`] strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<u64>() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Length specification accepted by [`collection::vec`]: either an exact
/// `usize` or a half-open `Range<usize>`.
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::{SizeRange, Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Mirror of `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod array {
    //! Fixed-size array strategies (`prop::array::uniform3`).

    use super::{Strategy, TestRng};

    /// Strategy producing `[S::Value; 3]` arrays whose elements are drawn
    /// in order from one element strategy.
    pub struct UniformArray3<S>(S);

    /// Mirror of `proptest::array::uniform3`.
    pub fn uniform3<S: Strategy>(element: S) -> UniformArray3<S> {
        UniformArray3(element)
    }

    impl<S: Strategy> Strategy for UniformArray3<S> {
        type Value = [S::Value; 3];
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            [
                self.0.new_value(rng),
                self.0.new_value(rng),
                self.0.new_value(rng),
            ]
        }
    }
}

pub mod bool {
    //! Boolean strategies (`prop::bool::ANY`).

    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy drawing `true`/`false` uniformly, mirroring
    /// `proptest::bool::Any`.
    pub struct Any;

    /// Mirror of `proptest::bool::ANY`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.gen()
        }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Strategy,
    };

    /// Mirror of the `prop` module alias exposed by the real prelude
    /// (`prop::collection::vec`, ...).
    pub use crate as prop;
}

/// Assertion that fails the current case, mirroring `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion, mirroring `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion, mirroring `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Generates `#[test]` functions that run their body over many random
/// inputs, mirroring `proptest::proptest!`.
///
/// The incoming `#[test]` attribute (and any doc comments) are re-emitted on
/// the generated zero-argument test function.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::new_value(&$strategy, &mut rng);)+
                    let inputs = [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", ");
                    $crate::run_case(case, &inputs, || $body);
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        fn fails_from_fifty(x in 0u32..100, flag in any::<bool>()) {
            let _ = flag;
            prop_assert!(x < 50, "x is too large");
        }
    }

    #[test]
    fn a_failing_case_names_itself_and_its_inputs() {
        let payload = std::panic::catch_unwind(fails_from_fifty).expect_err("some x >= 50");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        let (case, rest) = message
            .strip_prefix("case ")
            .and_then(|m| m.split_once("/64: x = "))
            .expect(message);
        assert!(
            (1..=64).contains(&case.parse::<usize>().unwrap()),
            "{message}"
        );
        let (x, rest) = rest.split_once(", flag = ").expect(message);
        assert!(x.parse::<u32>().unwrap() >= 50, "{message}");
        assert!(
            rest.ends_with(": x is too large") && rest.starts_with(['t', 'f']),
            "{message}"
        );
    }
}
