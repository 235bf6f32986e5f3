//! NHWC 4-D tensor used for images and activation maps.

/// A dense 4-D tensor with NHWC layout: `[batch, height, width, channels]`.
///
/// NHWC keeps a pixel's channels contiguous, which matches the im2col row
/// layout used throughout the workspace (see [`crate::im2col`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor4 {
    n: usize,
    h: usize,
    w: usize,
    c: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Creates an all-zero tensor of the given shape.
    ///
    /// # Shape
    /// Output is `n × h × w × c` in NHWC layout.
    pub fn zeros(n: usize, h: usize, w: usize, c: usize) -> Self {
        Self { n, h, w, c, data: vec![0.0; n * h * w * c] }
    }

    /// Wraps an existing NHWC buffer; `None` if the length disagrees.
    ///
    /// # Shape
    /// `data` holds `n × h × w × c` elements in NHWC order.
    pub fn from_vec(n: usize, h: usize, w: usize, c: usize, data: Vec<f32>) -> Option<Self> {
        (data.len() == n * h * w * c).then_some(Self { n, h, w, c, data })
    }

    /// Builds a tensor by evaluating `f(n, y, x, c)` for every element.
    ///
    /// # Shape
    /// Output is `n × h × w × c`; `f` receives indices below each bound.
    pub fn from_fn(
        n: usize,
        h: usize,
        w: usize,
        c: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(n * h * w * c);
        for b in 0..n {
            for y in 0..h {
                for x in 0..w {
                    for ch in 0..c {
                        data.push(f(b, y, x, ch));
                    }
                }
            }
        }
        Self { n, h, w, c, data }
    }

    /// Batch size.
    #[inline]
    pub fn batch(&self) -> usize {
        self.n
    }

    /// Spatial height.
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Spatial width.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Channel count.
    #[inline]
    pub fn channels(&self) -> usize {
        self.c
    }

    /// `(n, h, w, c)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.h, self.w, self.c)
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of `(n, y, x, c)`.
    ///
    /// # Shape
    /// Indices must satisfy `n < batch`, `y < height`, `x < width`,
    /// `c < channels`; the result indexes the flat NHWC buffer.
    #[inline]
    pub fn offset(&self, n: usize, y: usize, x: usize, c: usize) -> usize {
        debug_assert!(n < self.n && y < self.h && x < self.w && c < self.c);
        ((n * self.h + y) * self.w + x) * self.c + c
    }

    /// Element accessor.
    ///
    /// # Shape
    /// Indices as in [`Tensor4::offset`]: `(n, y, x, c)` within the NHWC
    /// bounds.
    #[inline]
    pub fn get(&self, n: usize, y: usize, x: usize, c: usize) -> f32 {
        self.data[self.offset(n, y, x, c)]
    }

    /// Mutable element accessor.
    ///
    /// # Shape
    /// Indices as in [`Tensor4::offset`]: `(n, y, x, c)` within the NHWC
    /// bounds.
    #[inline]
    pub fn get_mut(&mut self, n: usize, y: usize, x: usize, c: usize) -> &mut f32 {
        let off = self.offset(n, y, x, c);
        &mut self.data[off]
    }

    /// Borrows the flat NHWC storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat NHWC storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Copies one image (all channels) out of the batch.
    ///
    /// # Panics
    /// Panics when `n >= batch`.
    pub fn image(&self, n: usize) -> Tensor4 {
        assert!(n < self.n, "image index out of bounds");
        let per = self.h * self.w * self.c;
        Tensor4 {
            n: 1,
            h: self.h,
            w: self.w,
            c: self.c,
            data: self.data[n * per..(n + 1) * per].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_nhwc() {
        let t = Tensor4::zeros(2, 3, 4, 5);
        assert_eq!(t.offset(0, 0, 0, 0), 0);
        assert_eq!(t.offset(0, 0, 0, 1), 1);
        assert_eq!(t.offset(0, 0, 1, 0), 5);
        assert_eq!(t.offset(0, 1, 0, 0), 20);
        assert_eq!(t.offset(1, 0, 0, 0), 60);
    }

    #[test]
    fn from_fn_and_get_round_trip() {
        let t = Tensor4::from_fn(2, 2, 2, 3, |n, y, x, c| (n * 1000 + y * 100 + x * 10 + c) as f32);
        assert_eq!(t.get(1, 0, 1, 2), 1012.0);
        assert_eq!(t.get(0, 1, 1, 0), 110.0);
    }

    #[test]
    fn image_extracts_single_batch_entry() {
        let t = Tensor4::from_fn(3, 2, 2, 1, |n, _, _, _| n as f32);
        let img = t.image(2);
        assert_eq!(img.shape(), (1, 2, 2, 1));
        assert!(img.as_slice().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor4::from_vec(1, 2, 2, 1, vec![0.0; 3]).is_none());
        assert!(Tensor4::from_vec(1, 2, 2, 1, vec![0.0; 4]).is_some());
    }
}
