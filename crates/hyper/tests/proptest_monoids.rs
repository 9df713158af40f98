//! Property-based monoid-law and reduction-shape tests.
//!
//! §5's correctness argument is exactly associativity: "This
//! parallelization takes advantage of the fact that list appending is
//! associative." These tests check the laws on randomized values and
//! verify that *any* parenthesization of reduces produced by a random
//! join tree equals the linear left fold.

use std::rc::Rc;

use cilk_hyper::{And, ListAppend, Max, Min, Monoid, Or, StrCat, Sum};
use cilk_testkit::forall;
use cilk_testkit::prop::{
    any_bool, any_int, just, map, option_of, recursive, string_of, vec_of, weighted, SharedGen,
};

fn assoc_and_identity<M: Monoid>(m: &M, a: M::Value, b: M::Value, c: M::Value)
where
    M::Value: Clone + PartialEq + std::fmt::Debug,
{
    let mut lhs = a.clone();
    m.reduce(&mut lhs, b.clone());
    m.reduce(&mut lhs, c.clone());
    let mut bc = b.clone();
    m.reduce(&mut bc, c.clone());
    let mut rhs = a.clone();
    m.reduce(&mut rhs, bc);
    assert_eq!(&lhs, &rhs, "associativity");

    let mut left_id = m.identity();
    m.reduce(&mut left_id, a.clone());
    assert_eq!(&left_id, &a, "left identity");
    let mut right_id = a.clone();
    m.reduce(&mut right_id, m.identity());
    assert_eq!(&right_id, &a, "right identity");
}

forall! {
    fn sum_laws(a in any_int::<i64>(), b in any_int::<i64>(), c in any_int::<i64>()) {
        // Use wrapping-friendly domain to avoid overflow panics.
        let (a, b, c) = (a >> 2, b >> 2, c >> 2);
        assoc_and_identity(&Sum::<i64>::new(), a, b, c);
    }

    fn min_max_laws(
        a in option_of(any_int::<i32>()),
        b in option_of(any_int::<i32>()),
        c in option_of(any_int::<i32>()),
    ) {
        assoc_and_identity(&Min::<i32>::new(), a, b, c);
        assoc_and_identity(&Max::<i32>::new(), a, b, c);
    }

    fn bool_laws(a in any_bool(), b in any_bool(), c in any_bool()) {
        assoc_and_identity(&And, a, b, c);
        assoc_and_identity(&Or, a, b, c);
    }

    fn list_laws(
        a in vec_of(any_int::<u8>(), 0..8),
        b in vec_of(any_int::<u8>(), 0..8),
        c in vec_of(any_int::<u8>(), 0..8),
    ) {
        assoc_and_identity(&ListAppend::<u8>::new(), a, b, c);
    }

    fn string_laws(a in string_of(0..9), b in string_of(0..9), c in string_of(0..9)) {
        assoc_and_identity(&StrCat, a, b, c);
    }

    /// An empty left view takes the right one's buffer instead of copying
    /// it: same elements, same allocation.
    fn empty_left_takes_right_by_move(list in vec_of(any_int::<u8>(), 1..64), text in string_of(1..64)) {
        let (expected, buffer) = (list.clone(), list.as_ptr());
        let mut left = Vec::new();
        ListAppend::<u8>::new().reduce(&mut left, list);
        assert_eq!(left, expected);
        assert_eq!(left.as_ptr(), buffer, "list moved, not copied");

        let (expected, buffer) = (text.clone(), text.as_ptr());
        let mut left = String::new();
        StrCat.reduce(&mut left, text);
        assert_eq!(left, expected);
        assert_eq!(left.as_ptr(), buffer, "string moved, not copied");
    }
}

/// A random binary reduction tree over a sequence of singleton views.
#[derive(Debug, Clone)]
enum Tree {
    Leaf,
    Node(Box<Tree>, Box<Tree>),
}

fn tree_gen() -> SharedGen<Tree> {
    recursive(6, just(Tree::Leaf), |inner| {
        Rc::new(weighted(vec![
            (1, Rc::new(just(Tree::Leaf)) as SharedGen<Tree>),
            (2, Rc::new(map((inner.clone(), inner), |(a, b)| {
                Tree::Node(Box::new(a), Box::new(b))
            }))),
        ]))
    })
}

fn leaves(t: &Tree) -> usize {
    match t {
        Tree::Leaf => 1,
        Tree::Node(a, b) => leaves(a) + leaves(b),
    }
}

/// Reduces singleton lists `[0], [1], …` according to the tree shape.
fn reduce_by_tree(t: &Tree, next: &mut u32) -> Vec<u32> {
    match t {
        Tree::Leaf => {
            let v = vec![*next];
            *next += 1;
            v
        }
        Tree::Node(a, b) => {
            let m = ListAppend::<u32>::new();
            let mut left = reduce_by_tree(a, next);
            let right = reduce_by_tree(b, next);
            m.reduce(&mut left, right);
            left
        }
    }
}

forall! {
    /// Any reduction tree shape yields the left-to-right sequence — the
    /// §5 guarantee that the runtime may reduce views at arbitrary sync
    /// points without changing the outcome.
    fn any_parenthesization_preserves_order(t in tree_gen()) {
        let mut next = 0;
        let reduced = reduce_by_tree(&t, &mut next);
        let expected: Vec<u32> = (0..leaves(&t) as u32).collect();
        assert_eq!(reduced, expected);
    }
}
