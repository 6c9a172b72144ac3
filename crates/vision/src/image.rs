//! Grayscale and RGB image types with tensor interop and PPM/PGM export.

use std::io::{self, Write};
use std::path::Path;

use sf_tensor::Tensor;

/// A single-channel floating-point image with values nominally in
/// `[0, 1]`, stored row-major.
///
/// # Examples
///
/// ```
/// use sf_vision::GrayImage;
///
/// let img = GrayImage::from_fn(4, 2, |x, y| (x + y) as f32 / 4.0);
/// assert_eq!(img.width(), 4);
/// assert_eq!(img.get(3, 1), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        GrayImage {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "buffer length {} does not match {width}x{height}",
            data.len()
        );
        GrayImage {
            width,
            height,
            data,
        }
    }

    /// Builds an image from a rank-2 `[H, W]` (or rank-3 `[1, H, W]`)
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics on any other rank.
    pub fn from_tensor(t: &Tensor) -> Self {
        let (h, w) = match t.shape() {
            [h, w] => (*h, *w),
            [1, h, w] => (*h, *w),
            other => panic!("GrayImage::from_tensor: expected [H,W] or [1,H,W], got {other:?}"),
        };
        GrayImage::from_raw(w, h, t.data().to_vec())
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixels.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw row-major pixels.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Pixel accessor clamping coordinates to the border (replicate
    /// padding), used by the filters.
    pub fn get_clamped(&self, x: isize, y: isize) -> f32 {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets one pixel.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Converts to a `[H, W]` tensor.
    ///
    /// The tensor's buffer comes from the scratch pool when one is
    /// available, so streaming pipelines that recycle their frame
    /// tensors (the chaos engine's rig traffic) run at a bounded arena
    /// footprint.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = sf_tensor::scratch::take_spare(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor::from_vec(data, &[self.height, self.width]).expect("length matches by construction")
    }

    /// Min–max normalises the image into `[0, 1]`; constant images map
    /// to all zeros.
    pub fn normalized(&self) -> GrayImage {
        let (lo, hi) = self
            .data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let range = hi - lo;
        if range <= f32::EPSILON {
            return GrayImage::new(self.width, self.height);
        }
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| (v - lo) / range).collect(),
        }
    }

    /// Writes a binary PGM (P5) file, clamping values to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation or writing.
    pub fn write_pgm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        write!(f, "P5\n{} {}\n255\n", self.width, self.height)?;
        let bytes: Vec<u8> = self
            .data
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        f.write_all(&bytes)
    }
}

/// A three-channel floating-point image stored as separate planes
/// (channel-major, matching the `CHW` tensor layout).
#[derive(Debug, Clone, PartialEq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    planes: [Vec<f32>; 3],
}

impl RgbImage {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        RgbImage {
            width,
            height,
            planes: std::array::from_fn(|_| vec![0.0; width * height]),
        }
    }

    /// Creates an image by evaluating `f(x, y) -> [r, g, b]`.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [f32; 3],
    ) -> Self {
        let mut img = RgbImage::new(width, height);
        for y in 0..height {
            for x in 0..width {
                img.set(x, y, f(x, y));
            }
        }
        img
    }

    /// Builds an image from a `[3, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics on any other shape.
    pub fn from_tensor(t: &Tensor) -> Self {
        let (h, w) = match t.shape() {
            [3, h, w] => (*h, *w),
            other => panic!("RgbImage::from_tensor: expected [3,H,W], got {other:?}"),
        };
        let plane = h * w;
        RgbImage {
            width: w,
            height: h,
            planes: std::array::from_fn(|c| t.data()[c * plane..(c + 1) * plane].to_vec()),
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, x: usize, y: usize) -> [f32; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = y * self.width + x;
        [self.planes[0][i], self.planes[1][i], self.planes[2][i]]
    }

    /// Sets one pixel.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, x: usize, y: usize, rgb: [f32; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = y * self.width + x;
        for (plane, v) in self.planes.iter_mut().zip(rgb) {
            plane[i] = v;
        }
    }

    /// Rec.601 luma conversion to grayscale.
    pub fn to_gray(&self) -> GrayImage {
        let mut data = Vec::with_capacity(self.width * self.height);
        for i in 0..self.width * self.height {
            data.push(
                0.299 * self.planes[0][i] + 0.587 * self.planes[1][i] + 0.114 * self.planes[2][i],
            );
        }
        GrayImage::from_raw(self.width, self.height, data)
    }

    /// Converts to a `[3, H, W]` tensor.
    ///
    /// Pool-backed like [`GrayImage::to_tensor`]: the buffer is drawn
    /// from the scratch arena when a spare of the right size exists.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = sf_tensor::scratch::take_spare(3 * self.width * self.height);
        for plane in &self.planes {
            data.extend_from_slice(plane);
        }
        Tensor::from_vec(data, &[3, self.height, self.width])
            .expect("length matches by construction")
    }

    /// Writes a binary PPM (P6) file, clamping values to `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from file creation or writing.
    pub fn write_ppm(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        write!(f, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut bytes = Vec::with_capacity(3 * self.width * self.height);
        for i in 0..self.width * self.height {
            for plane in &self.planes {
                bytes.push((plane[i].clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        f.write_all(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_roundtrip_tensor() {
        let img = GrayImage::from_fn(3, 2, |x, y| (x * 10 + y) as f32);
        let t = img.to_tensor();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(GrayImage::from_tensor(&t), img);
    }

    #[test]
    fn rgb_roundtrip_tensor_and_gray() {
        let img = RgbImage::from_fn(4, 3, |x, y| [x as f32, y as f32, 1.0]);
        let t = img.to_tensor();
        assert_eq!(t.shape(), &[3, 3, 4]);
        assert_eq!(RgbImage::from_tensor(&t), img);
        let gray = img.to_gray();
        let [r, g, b] = img.get(2, 1);
        assert!((gray.get(2, 1) - (0.299 * r + 0.587 * g + 0.114 * b)).abs() < 1e-6);
    }

    #[test]
    fn clamped_access_replicates_border() {
        let img = GrayImage::from_fn(2, 2, |x, y| (y * 2 + x) as f32);
        assert_eq!(img.get_clamped(-5, 0), 0.0);
        assert_eq!(img.get_clamped(5, 5), 3.0);
    }

    #[test]
    fn normalize_maps_to_unit_range() {
        let img = GrayImage::from_fn(3, 1, |x, _| x as f32 * 10.0 - 5.0);
        let n = img.normalized();
        assert_eq!(n.get(0, 0), 0.0);
        assert_eq!(n.get(2, 0), 1.0);
        let flat = GrayImage::from_fn(3, 1, |_, _| 7.0).normalized();
        assert!(flat.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pgm_and_ppm_files_have_headers() {
        let dir = std::env::temp_dir();
        let gpath = dir.join("sf_vision_test.pgm");
        let cpath = dir.join("sf_vision_test.ppm");
        GrayImage::from_fn(4, 2, |x, _| x as f32 / 3.0)
            .write_pgm(&gpath)
            .unwrap();
        RgbImage::from_fn(4, 2, |_, _| [1.0, 0.0, 0.5])
            .write_ppm(&cpath)
            .unwrap();
        let g = std::fs::read(&gpath).unwrap();
        assert!(g.starts_with(b"P5\n4 2\n255\n"));
        assert_eq!(g.len(), 11 + 8);
        let c = std::fs::read(&cpath).unwrap();
        assert!(c.starts_with(b"P6\n4 2\n255\n"));
        assert_eq!(c.len(), 11 + 24);
        let _ = std::fs::remove_file(gpath);
        let _ = std::fs::remove_file(cpath);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        GrayImage::new(2, 2).get(2, 0);
    }
}
