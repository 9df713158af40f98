//! # cilk-hyper: reducer hyperobjects
//!
//! §5 of Leiserson, *The Cilk++ concurrency platform* (DAC 2009):
//! reducers "mitigate races on nonlocal variables without creating lock
//! contention or requiring code restructuring". Each strand gets a private
//! *view* of the hyperobject; views are combined with an associative
//! [`Monoid::reduce`] when strands join, and "Cilk++ carefully maintains
//! the proper ordering so that the resulting list contains the identical
//! elements in the same order as in a serial execution".
//!
//! Use the reducer-aware control constructs of this crate ([`join`],
//! [`scope`], [`for_each_index`]) — or the `cilk` facade, which re-exports
//! them — so that the view protocol tracks the runtime's steals.
//!
//! # Example: the paper's Fig. 7 tree walk
//!
//! ```
//! use cilk_hyper::{join, ReducerList};
//!
//! struct Node { value: u32, left: Option<Box<Node>>, right: Option<Box<Node>> }
//!
//! fn walk(x: &Option<Box<Node>>, out: &ReducerList<u32>) {
//!     if let Some(node) = x {
//!         if node.value % 2 == 0 {
//!             out.push_back(node.value); // no lock, no race
//!         }
//!         join(|| walk(&node.left, out), || walk(&node.right, out));
//!     }
//! }
//!
//! let tree = Some(Box::new(Node {
//!     value: 2,
//!     left: Some(Box::new(Node { value: 4, left: None, right: None })),
//!     right: Some(Box::new(Node { value: 5, left: None, right: None })),
//! }));
//! let output_list = ReducerList::<u32>::list();
//! walk(&tree, &output_list);
//! // Serial (pre-order) order, regardless of how work was stolen:
//! assert_eq!(output_list.into_value(), vec![2, 4]);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod control;
mod frames;
mod monoid;
mod reducer;

pub use control::{for_each_index, join, scope, Scope};
pub use frames::{follow_steals, live_views};
pub use monoid::{And, Holder, ListAppend, Max, Min, Monoid, Or, StrCat, Sum};
pub use reducer::{
    Reducer, ReducerAnd, ReducerList, ReducerMax, ReducerMin, ReducerOr, ReducerString,
    ReducerSum,
};
