//! A vector that holds its first few elements inline.
//!
//! The compile path builds many short lists per instruction, operand or
//! access: the terms of an address, the operands of a CSE key, a walk's
//! work stack. [`InlineVec`] keeps up to `N` elements in place and moves
//! to the heap only past that, so the common short list costs no
//! allocation. Equality and hashing are those of the element slice,
//! whichever way the elements are stored.
//!
//! The IR also keeps lists in it: an instruction's operands
//! ([`crate::Inst::args`], three in place) and a value's uses in
//! [`crate::UseMap`] (two in place), so building, cloning and logging
//! them allocates only for the rare long list.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements, inline up to `N`, on the heap past that.
#[derive(Clone)]
pub struct InlineVec<T: Copy, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// `buf[..len]` are the elements. A `u32` length lets a three-`u32`
    /// buffer share the `Vec`'s 24 bytes.
    Inline { len: u32, buf: [T; N] },
    /// The elements; an empty `Vec` owns no allocation, so this is also
    /// the empty state (there is no `T` to fill an inline buffer with).
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub const fn new() -> Self {
        InlineVec { repr: Repr::Heap(Vec::new()) }
    }

    /// Append `x`, moving to the heap once more than `N` elements are held.
    pub fn push(&mut self, x: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } if (*len as usize) < N => {
                buf[*len as usize] = x;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N.max(1));
                v.extend_from_slice(buf);
                v.push(x);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) if v.is_empty() && v.capacity() == 0 && N > 0 => {
                self.repr = Repr::Inline { len: 1, buf: [x; N] };
            }
            Repr::Heap(v) => v.push(x),
        }
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                *len = len.checked_sub(1)?;
                Some(buf[*len as usize])
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Remove and return the element at `index`, shifting the later ones
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> T {
        let x = self[index];
        self.as_mut_slice()[index..].rotate_left(1);
        self.pop();
        x
    }

    /// Insert `x` at `index`, shifting the later elements up.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, x: T) {
        assert!(index <= self.len(), "insertion index {index} out of bounds");
        self.push(x);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The elements, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Whether the elements have moved to the heap.
    #[cfg(test)]
    fn spilled(&self) -> bool {
        matches!(&self.repr, Repr::Heap(v) if v.capacity() > 0)
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(xs: &[T]) -> Self {
        match xs.first() {
            Some(&x) if xs.len() <= N => {
                let mut buf = [x; N];
                buf[..xs.len()].copy_from_slice(xs);
                InlineVec { repr: Repr::Inline { len: xs.len() as u32, buf } }
            }
            _ => InlineVec { repr: Repr::Heap(xs.to_vec()) },
        }
    }
}

impl<T: Copy, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(xs: [T; M]) -> Self {
        InlineVec::from(&xs[..])
    }
}

/// Keeps the `Vec`'s allocation when the elements do not fit in place.
impl<T: Copy, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(xs: Vec<T>) -> Self {
        if xs.len() <= N {
            InlineVec::from(&xs[..])
        } else {
            InlineVec { repr: Repr::Heap(xs) }
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FoldState;
    use std::hash::BuildHasher;

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        assert!(v.is_empty() && !v.spilled());
        v.extend([1, 2, 3]);
        assert_eq!(&v[..], &[1, 2, 3]);
        assert!(!v.spilled());
        v.push(4);
        assert!(v.spilled());
        assert_eq!(&v[..], &[1, 2, 3, 4]);
        assert_eq!(v.pop(), Some(4));
        v[0] = 9;
        assert_eq!(&v[..], &[9, 2, 3]);
        assert_eq!(v.remove(1), 2);
        assert_eq!(&v[..], &[9, 3]);
    }

    #[test]
    fn equality_and_hash_follow_the_elements_not_the_storage() {
        let inline: InlineVec<u32, 3> = [1, 2].into_iter().collect();
        let mut spilled: InlineVec<u32, 3> = [1, 2, 3, 4].into_iter().collect();
        spilled.pop();
        spilled.pop();
        assert!(spilled.spilled() && !inline.spilled());
        assert_eq!(inline, spilled);
        let s = FoldState::default();
        assert_eq!(s.hash_one(&inline), s.hash_one(&spilled));
        assert_eq!(s.hash_one(&inline), s.hash_one(&[1u32, 2][..]));
        assert_eq!(format!("{inline:?}"), "[1, 2]");
    }

    #[test]
    fn conversions_stay_inline_when_they_fit() {
        let a: InlineVec<u32, 3> = [1, 2, 3].into();
        assert!(!a.spilled());
        let v: InlineVec<u32, 3> = vec![1, 2].into();
        assert!(!v.spilled());
        assert_eq!(&v[..], &[1, 2]);
        let s: InlineVec<u32, 3> = (&[5u32][..]).into();
        assert_eq!(&s[..], &[5]);
        let e: InlineVec<u32, 3> = Vec::new().into();
        assert!(e.is_empty() && !e.spilled());
        let long: InlineVec<u32, 3> = vec![1, 2, 3, 4].into();
        assert!(long.spilled());
        assert_eq!(long, [1, 2, 3, 4].into());
    }

    #[test]
    fn insert_shifts_in_either_representation() {
        let mut v: InlineVec<u32, 3> = InlineVec::new();
        v.insert(0, 2);
        v.insert(0, 1);
        v.insert(2, 4);
        assert_eq!(&v[..], &[1, 2, 4]);
        v.insert(2, 3);
        assert!(v.spilled());
        assert_eq!(&v[..], &[1, 2, 3, 4]);
        for x in &mut v {
            *x *= 10;
        }
        assert_eq!((&v).into_iter().copied().sum::<u32>(), 100);
    }

    #[test]
    fn pop_empties_both_representations() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert_eq!(v.pop(), None);
        v.push(7);
        assert_eq!(v.pop(), Some(7));
        assert_eq!(v.pop(), None);
        let mut w: InlineVec<u8, 0> = InlineVec::new();
        w.push(1);
        assert!(w.spilled());
        assert_eq!(w.pop(), Some(1));
    }
}
