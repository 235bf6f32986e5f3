//! Per-thread scratch for what a convolution pass needs only while it runs:
//! the unfolded input (`N × K` f32) and, in a reuse layer, its LSH
//! signatures (`N × ⌈K/L⌉` u64) and the cluster outputs `y_c` of one band
//! of sub-matrices (f32, at most the larger of the band budget and the
//! layer's `N × M` output).
//!
//! An eval forward of `adr_nn::conv::Conv2d` reads its unfold once, for
//! the one GEMM; a reuse forward's are dead once its sub-matrix fan-out has
//! grouped and summed them, and a band's cluster outputs once they are
//! added to the output rows. So no layer owns them: every convolution on a
//! thread borrows the thread's one buffer of each. The one unfold a layer
//! keeps is a training forward's, which its backward reads for `∇W`.
//! Between forward passes the unfold buffer also lends the reuse backward's
//! input-gradient fold its rows. A buffer only grows. A pass borrows a
//! prefix of exactly its own length, so layers of different shapes taking
//! turns neither reallocate nor zero-fill again once the buffer has reached
//! the largest pass the thread has run. Pool workers never touch them: the
//! dispatching thread lends its prefix to the fan-out.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

thread_local! {
    static UNFOLDED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static SIGNATURES: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static CLUSTER_ROWS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` elements of this thread's unfold scratch, until dropped.
/// Contents are whatever the last pass left: the unfold overwrites them.
pub fn unfolded(len: usize) -> Scratch<f32> {
    Scratch::borrow(&UNFOLDED, len)
}

/// The first `len` elements of this thread's signature scratch, until
/// dropped. Contents are whatever the last pass left: the hasher overwrites
/// them.
pub fn signatures(len: usize) -> Scratch<u64> {
    Scratch::borrow(&SIGNATURES, len)
}

/// The first `len` elements of this thread's cluster-row scratch, until
/// dropped. Contents are whatever the last band left: the band's products
/// and cache copies overwrite them.
pub fn cluster_rows(len: usize) -> Scratch<f32> {
    Scratch::borrow(&CLUSTER_ROWS, len)
}

/// A thread's scratch buffer, taken out of its slot and handed back on drop.
/// A second borrow of the same slot while one is out finds it empty and
/// grows a buffer of its own; whichever is dropped last stays.
pub struct Scratch<T: 'static> {
    home: &'static LocalKey<RefCell<Vec<T>>>,
    buf: Vec<T>,
    len: usize,
}

impl<T: Copy + Default> Scratch<T> {
    fn borrow(home: &'static LocalKey<RefCell<Vec<T>>>, len: usize) -> Self {
        let mut buf = home.take();
        if buf.len() < len {
            buf.resize(len, T::default());
        }
        Self { home, buf, len }
    }
}

impl<T> Deref for Scratch<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T> DerefMut for Scratch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T> Drop for Scratch<T> {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // During thread teardown the slot may be gone; the buffer is then
        // simply freed.
        let _ = self.home.try_with(|slot| slot.replace(buf));
    }
}
