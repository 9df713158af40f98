//! Monoids: the algebraic contract behind reducers.
//!
//! §5 of the paper: a reducer works because its update operation is
//! *associative* — "if we append a list L1 to a list L2 and append the
//! result to L3, it is the same as if we appended list L1 to the result of
//! appending L2 to L3". A [`Monoid`] packages an associative `reduce`
//! with its identity element.

/// An associative operation with identity, defining a reducer's semantics.
///
/// # Laws
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
///
/// * **associativity**: `reduce(reduce(a, b), c) == reduce(a, reduce(b, c))`
/// * **identity**: `reduce(identity(), a) == a == reduce(a, identity())`
///
/// The runtime may reduce views in any parenthesization (it never reorders
/// operands), so only associativity — not commutativity — is required; this
/// is what lets a list-append reducer preserve the exact serial order.
pub trait Monoid: Send + Sync + 'static {
    /// The carried value type (the "view" state).
    type Value: Send + 'static;

    /// The identity element: the state of a freshly created view.
    fn identity(&self) -> Self::Value;

    /// Folds `right` into `left`, in order: `left = left ⊗ right`.
    fn reduce(&self, left: &mut Self::Value, right: Self::Value);
}

/// Addition with zero identity (the paper's "add" reducer).
///
/// # Examples
///
/// ```
/// use cilk_hyper::{Monoid, Sum};
///
/// let m = Sum::<u64>::new();
/// let mut acc = m.identity();
/// m.reduce(&mut acc, 5);
/// m.reduce(&mut acc, 7);
/// assert_eq!(acc, 12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum<T>(std::marker::PhantomData<fn() -> T>);

impl<T> Sum<T> {
    /// Creates the addition monoid.
    pub fn new() -> Self {
        Sum(std::marker::PhantomData)
    }
}

impl<T> Monoid for Sum<T>
where
    T: std::ops::AddAssign + Default + Send + 'static,
{
    type Value = T;

    fn identity(&self) -> T {
        T::default()
    }

    fn reduce(&self, left: &mut T, right: T) {
        *left += right;
    }
}

/// Minimum, with "no value yet" identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Min<T>(std::marker::PhantomData<fn() -> T>);

impl<T> Min<T> {
    /// Creates the minimum monoid.
    pub fn new() -> Self {
        Min(std::marker::PhantomData)
    }
}

impl<T> Monoid for Min<T>
where
    T: Ord + Send + 'static,
{
    type Value = Option<T>;

    fn identity(&self) -> Option<T> {
        None
    }

    fn reduce(&self, left: &mut Option<T>, right: Option<T>) {
        match (left.take(), right) {
            (Some(a), Some(b)) => *left = Some(a.min(b)),
            (a, b) => *left = a.or(b),
        }
    }
}

/// Maximum, with "no value yet" identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Max<T>(std::marker::PhantomData<fn() -> T>);

impl<T> Max<T> {
    /// Creates the maximum monoid.
    pub fn new() -> Self {
        Max(std::marker::PhantomData)
    }
}

impl<T> Monoid for Max<T>
where
    T: Ord + Send + 'static,
{
    type Value = Option<T>;

    fn identity(&self) -> Option<T> {
        None
    }

    fn reduce(&self, left: &mut Option<T>, right: Option<T>) {
        match (left.take(), right) {
            (Some(a), Some(b)) => *left = Some(a.max(b)),
            (a, b) => *left = a.or(b),
        }
    }
}

/// Logical AND with `true` identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct And;

impl Monoid for And {
    type Value = bool;

    fn identity(&self) -> bool {
        true
    }

    fn reduce(&self, left: &mut bool, right: bool) {
        *left = *left && right;
    }
}

/// Logical OR with `false` identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Or;

impl Monoid for Or {
    type Value = bool;

    fn identity(&self) -> bool {
        false
    }

    fn reduce(&self, left: &mut bool, right: bool) {
        *left = *left || right;
    }
}

/// List append — the paper's flagship `reducer_list_append` (§5, Fig. 7):
/// concatenation preserves the serial order of appended elements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListAppend<T>(std::marker::PhantomData<fn() -> T>);

impl<T> ListAppend<T> {
    /// Creates the list-append monoid.
    pub fn new() -> Self {
        ListAppend(std::marker::PhantomData)
    }
}

impl<T> Monoid for ListAppend<T>
where
    T: Send + 'static,
{
    type Value = Vec<T>;

    fn identity(&self) -> Vec<T> {
        Vec::new()
    }

    fn reduce(&self, left: &mut Vec<T>, right: Vec<T>) {
        // An empty left takes the right's buffer instead of copying it.
        if left.is_empty() {
            *left = right;
        } else {
            left.extend(right);
        }
    }
}

/// String concatenation (order-preserving, like list append).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrCat;

impl Monoid for StrCat {
    type Value = String;

    fn identity(&self) -> String {
        String::new()
    }

    fn reduce(&self, left: &mut String, right: String) {
        // As for `ListAppend`: an empty left takes the right's buffer.
        if left.is_empty() {
            *left = right;
        } else {
            left.push_str(&right);
        }
    }
}

/// A *holder* hyperobject: per-strand scratch state with no meaningful
/// combination — `reduce` keeps the left view, so after a sync the view
/// holds whatever the serially-earliest strand left in it. Useful for
/// reusing expensive temporary buffers without races.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Holder<T>(std::marker::PhantomData<fn() -> T>);

impl<T> Holder<T> {
    /// Creates the holder pseudo-monoid.
    pub fn new() -> Self {
        Holder(std::marker::PhantomData)
    }
}

impl<T> Monoid for Holder<T>
where
    T: Default + Send + 'static,
{
    type Value = T;

    fn identity(&self) -> T {
        T::default()
    }

    fn reduce(&self, _left: &mut T, right: T) {
        drop(right); // keep-left
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monoid_laws<M: Monoid>(m: &M, a: M::Value, b: M::Value, c: M::Value)
    where
        M::Value: Clone + PartialEq + std::fmt::Debug,
    {
        // (a ⊗ b) ⊗ c == a ⊗ (b ⊗ c)
        let mut lhs = a.clone();
        m.reduce(&mut lhs, b.clone());
        m.reduce(&mut lhs, c.clone());
        let mut bc = b;
        m.reduce(&mut bc, c);
        let mut rhs = a.clone();
        m.reduce(&mut rhs, bc);
        assert_eq!(lhs, rhs, "associativity");
        // identity laws
        let mut left_id = m.identity();
        m.reduce(&mut left_id, a.clone());
        assert_eq!(left_id, a, "left identity");
        let mut right_id = a.clone();
        m.reduce(&mut right_id, m.identity());
        assert_eq!(right_id, a, "right identity");
    }

    #[test]
    fn sum_laws() {
        check_monoid_laws(&Sum::<i64>::new(), 3, -4, 11);
    }

    #[test]
    fn min_max_laws() {
        check_monoid_laws(&Min::<i32>::new(), Some(3), Some(-1), Some(7));
        check_monoid_laws(&Max::<i32>::new(), Some(3), None, Some(7));
    }

    #[test]
    fn bool_laws() {
        check_monoid_laws(&And, true, false, true);
        check_monoid_laws(&Or, false, true, false);
    }

    #[test]
    fn list_append_preserves_order() {
        check_monoid_laws(&ListAppend::<u8>::new(), vec![1, 2], vec![3], vec![4, 5]);
        let m = ListAppend::<u8>::new();
        let mut v = vec![1, 2];
        m.reduce(&mut v, vec![3, 4]);
        assert_eq!(v, vec![1, 2, 3, 4]);
    }

    #[test]
    fn strcat_laws() {
        check_monoid_laws(&StrCat, "a".into(), "b".into(), "c".into());
    }

    #[test]
    fn holder_keeps_left() {
        let m = Holder::<u32>::new();
        let mut v = 7;
        m.reduce(&mut v, 99);
        assert_eq!(v, 7);
    }
}
