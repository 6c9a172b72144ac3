//! One dataset sample: an aligned RGB / depth / ground-truth triple.

use sf_scene::{
    depth_image_from_cloud, render_view, surface_normals_from_depth, LidarSpec, Lighting,
    PinholeCamera, PointCloud, Rig, RoadCategory, SceneBuilder, Weather,
};
use sf_tensor::{Tensor, TensorRng};
use sf_vision::GrayImage;

/// Knobs for [`Sample::render_with`] beyond the defaults: traffic, the
/// LiDAR model, weather, rig size and the depth densification effort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Vehicles placed on the road (occluding the drivable surface).
    pub traffic: usize,
    /// The LiDAR geometry/noise model (ignored when `rig_size > 1`,
    /// where the [`Rig`] preset supplies per-mount specs).
    pub lidar: LidarSpec,
    /// Hole-filling iterations for the dense depth image.
    pub fill_iterations: usize,
    /// Weather applied to the RGB render and the LiDAR scan.
    /// [`Weather::clear`] (the default) is bit-identical to the
    /// pre-weather pipeline.
    pub weather: Weather,
    /// LiDAR mounts: 1 (default, the classic roof sensor driven by
    /// `lidar`), 2 or 3 ([`Rig`] presets whose independently-seeded
    /// clouds are merged before densification).
    pub rig_size: usize,
}

impl RenderOptions {
    /// Scales the LiDAR angular density and the densification effort by
    /// an integer factor — used when rendering probe samples at a higher
    /// camera resolution than the default sensor supports.
    pub fn for_resolution_factor(factor: usize) -> RenderOptions {
        let mut lidar = LidarSpec::default();
        lidar.rings *= factor.max(1);
        lidar.azimuth_steps *= factor.max(1);
        RenderOptions {
            lidar,
            fill_iterations: 3 * factor.max(1),
            ..RenderOptions::default()
        }
    }
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            traffic: 0,
            lidar: LidarSpec::default(),
            fill_iterations: 3,
            weather: Weather::clear(),
            rig_size: 1,
        }
    }
}

/// An aligned RGB / depth / ground-truth triple plus provenance.
///
/// Tensors use the `CHW` layout: `rgb` is `[3, H, W]`, `depth` and `gt`
/// are `[1, H, W]`. The ground truth is binary (1 = drivable road).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Camera image, `[3, H, W]`, values in `[0, 1]`.
    pub rgb: Tensor,
    /// Dense LiDAR-derived inverse-depth image, `[1, H, W]`.
    pub depth: Tensor,
    /// Binary drivable-road mask, `[1, H, W]`.
    pub gt: Tensor,
    /// Scene category the sample was drawn from.
    pub category: RoadCategory,
    /// Name of the lighting preset used for the RGB render.
    pub lighting: &'static str,
    /// The scene seed (for exact regeneration).
    pub seed: u64,
}

impl Sample {
    /// Renders one sample from scratch: builds the scene for `seed`,
    /// renders RGB under `lighting`, scans the LiDAR and densifies the
    /// depth image, and rasterises the ground truth.
    pub fn render(
        category: RoadCategory,
        seed: u64,
        lighting_name: &'static str,
        lighting: Lighting,
        camera: &PinholeCamera,
    ) -> Sample {
        Sample::render_with_traffic(category, seed, lighting_name, lighting, camera, 0)
    }

    /// Like [`Sample::render`], but places `traffic` vehicles on the road
    /// (they occlude the drivable surface in all three maps).
    pub fn render_with_traffic(
        category: RoadCategory,
        seed: u64,
        lighting_name: &'static str,
        lighting: Lighting,
        camera: &PinholeCamera,
        traffic: usize,
    ) -> Sample {
        Sample::render_with(
            category,
            seed,
            lighting_name,
            lighting,
            camera,
            &RenderOptions {
                traffic,
                ..RenderOptions::default()
            },
        )
    }

    /// The fully configurable renderer behind the convenience
    /// constructors.
    pub fn render_with(
        category: RoadCategory,
        seed: u64,
        lighting_name: &'static str,
        lighting: Lighting,
        camera: &PinholeCamera,
        options: &RenderOptions,
    ) -> Sample {
        let scene = SceneBuilder::new(category, seed)
            .traffic(options.traffic)
            .build();
        let (rgb, gt) = render_view(&scene, camera, lighting, options.weather);
        let lidar_seed = seed ^ 0x11DA_5EED;
        let (cloud, max_range) = if options.rig_size <= 1 {
            // The classic single-sensor path: same spec, same RNG stream
            // as before rigs existed — bit-identical in clear weather.
            let mut lidar_rng = TensorRng::seed_from(lidar_seed);
            let spec = options.lidar;
            (
                spec.scan_with(&scene, options.weather, &mut lidar_rng),
                spec.max_range,
            )
        } else {
            // Multi-LiDAR: every mount scans from its own pose with its
            // own RNG stream; the merged cloud densifies into one image.
            let rig = Rig::of_size(options.rig_size.min(3)).expect("rig sizes 2 and 3 exist");
            let mut merged = PointCloud::new();
            let mut max_range = options.lidar.max_range;
            for mount in rig.mounts() {
                let stream = Rig::stream_seed(lidar_seed, 0, mount.source);
                let mut rng = TensorRng::seed_from(stream);
                for &p in mount
                    .spec
                    .scan_with(&scene, options.weather, &mut rng)
                    .points()
                {
                    merged.push(p);
                }
                max_range = max_range.max(mount.spec.max_range);
            }
            (merged, max_range)
        };
        let depth = depth_image_from_cloud(&cloud, camera, max_range, options.fill_iterations);
        let (h, w) = (camera.height(), camera.width());
        Sample {
            rgb: rgb.to_tensor(),
            depth: depth
                .to_tensor()
                .reshape(&[1, h, w])
                .expect("depth reshapes to [1,H,W]"),
            gt: gt
                .to_tensor()
                .reshape(&[1, h, w])
                .expect("gt reshapes to [1,H,W]"),
            category,
            lighting: lighting_name,
            seed,
        }
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.rgb.shape()[1]
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.rgb.shape()[2]
    }

    /// Fraction of ground-truth pixels that are road.
    pub fn road_fraction(&self) -> f32 {
        self.gt.mean()
    }

    /// A copy whose depth channel is replaced by SNE surface normals
    /// (`[3, H, W]`), the preprocessing of the paper's baseline lineage
    /// (SNE-RoadSeg). Use with a network built with
    /// `depth_channels = 3`.
    ///
    /// # Panics
    ///
    /// Panics if the sample's depth is not single-channel or the frame is
    /// smaller than 3×3.
    pub fn with_surface_normals(&self, camera: &PinholeCamera, max_range: f32) -> Sample {
        assert_eq!(
            self.depth.shape()[0],
            1,
            "sample depth is already multi-channel"
        );
        let (h, w) = (self.height(), self.width());
        let depth_img = GrayImage::from_raw(w, h, self.depth.data().to_vec());
        Sample {
            depth: surface_normals_from_depth(&depth_img, camera, max_range),
            ..self.clone()
        }
    }

    /// A horizontally mirrored copy — the standard segmentation
    /// augmentation. All three aligned maps flip together, so the pair
    /// stays consistent.
    pub fn flipped(&self) -> Sample {
        Sample {
            rgb: self.rgb.flip_last_axis(),
            depth: self.depth.flip_last_axis(),
            gt: self.gt.flip_last_axis(),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_aligned_shapes() {
        let cam = PinholeCamera::kitti_like(64, 24);
        let s = Sample::render(RoadCategory::UrbanMarked, 3, "day", Lighting::day(), &cam);
        assert_eq!(s.rgb.shape(), &[3, 24, 64]);
        assert_eq!(s.depth.shape(), &[1, 24, 64]);
        assert_eq!(s.gt.shape(), &[1, 24, 64]);
        assert_eq!(s.width(), 64);
        assert_eq!(s.height(), 24);
        let road = s.road_fraction();
        assert!(road > 0.05 && road < 0.8, "road fraction {road}");
    }

    #[test]
    fn same_seed_same_sample() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let a = Sample::render(RoadCategory::UrbanUnmarked, 9, "day", Lighting::day(), &cam);
        let b = Sample::render(RoadCategory::UrbanUnmarked, 9, "day", Lighting::day(), &cam);
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.gt, b.gt);
    }

    #[test]
    fn surface_normal_encoding_has_three_channels() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let s = Sample::render(RoadCategory::UrbanMarked, 33, "day", Lighting::day(), &cam);
        let n = s.with_surface_normals(&cam, 60.0);
        assert_eq!(n.depth.shape(), &[3, 16, 48]);
        assert_eq!(n.gt, s.gt);
        assert_eq!(n.rgb, s.rgb);
        // Components bounded to [-1, 1].
        assert!(n.depth.data().iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn traffic_reduces_road_fraction() {
        let cam = PinholeCamera::kitti_like(96, 32);
        let quiet = Sample::render(
            RoadCategory::UrbanMultipleMarked,
            21,
            "day",
            Lighting::day(),
            &cam,
        );
        let busy = Sample::render_with_traffic(
            RoadCategory::UrbanMultipleMarked,
            21,
            "day",
            Lighting::day(),
            &cam,
            4,
        );
        assert!(busy.road_fraction() < quiet.road_fraction());
    }

    #[test]
    fn flipped_sample_stays_aligned() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let s = Sample::render(RoadCategory::UrbanMarked, 7, "day", Lighting::day(), &cam);
        let f = s.flipped();
        assert_eq!(f.rgb.shape(), s.rgb.shape());
        // Flipping twice recovers the original.
        assert_eq!(f.flipped().rgb, s.rgb);
        assert_eq!(f.flipped().gt, s.gt);
        // Road fraction is mirror-invariant.
        assert!((f.road_fraction() - s.road_fraction()).abs() < 1e-6);
        // Left column of the flip equals the right column of the
        // original ground truth.
        let w = s.width();
        for y in 0..s.height() {
            assert_eq!(f.gt.at(&[0, y, 0]), s.gt.at(&[0, y, w - 1]));
        }
    }

    #[test]
    fn clear_weather_options_are_bit_identical_to_default() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let base = Sample::render(RoadCategory::UrbanMarked, 5, "day", Lighting::day(), &cam);
        let opts = RenderOptions {
            weather: Weather::clear(),
            rig_size: 1,
            ..RenderOptions::default()
        };
        let explicit = Sample::render_with(
            RoadCategory::UrbanMarked,
            5,
            "day",
            Lighting::day(),
            &cam,
            &opts,
        );
        assert_eq!(base.rgb, explicit.rgb);
        assert_eq!(base.depth, explicit.depth);
        assert_eq!(base.gt, explicit.gt);
    }

    #[test]
    fn fog_degrades_both_modalities_but_not_gt() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let clear = Sample::render(RoadCategory::UrbanMarked, 5, "day", Lighting::day(), &cam);
        let opts = RenderOptions {
            weather: Weather::fog(0.9),
            ..RenderOptions::default()
        };
        let foggy = Sample::render_with(
            RoadCategory::UrbanMarked,
            5,
            "day",
            Lighting::day(),
            &cam,
            &opts,
        );
        assert_ne!(clear.rgb, foggy.rgb, "fog must change the camera");
        assert_ne!(clear.depth, foggy.depth, "fog must change the LiDAR");
        assert_eq!(clear.gt, foggy.gt, "ground truth is weather-invariant");
        // The foggy depth image carries less signal (fewer/nearer returns).
        assert!(foggy.depth.sum() < clear.depth.sum());
    }

    #[test]
    fn bigger_rigs_densify_the_depth_image() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let render = |rig_size| {
            let opts = RenderOptions {
                rig_size,
                fill_iterations: 0,
                ..RenderOptions::default()
            };
            Sample::render_with(
                RoadCategory::UrbanMarked,
                11,
                "day",
                Lighting::day(),
                &cam,
                &opts,
            )
        };
        let single = render(1);
        let triple = render(3);
        let observed = |s: &Sample| s.depth.data().iter().filter(|&&v| v > 0.0).count();
        assert!(
            observed(&triple) >= observed(&single),
            "extra mounts must not lose coverage: {} vs {}",
            observed(&triple),
            observed(&single)
        );
        assert_ne!(single.depth, triple.depth);
        // Deterministic: same options, same depths.
        assert_eq!(triple.depth, render(3).depth);
    }

    #[test]
    fn lighting_changes_rgb_but_not_depth_or_gt() {
        let cam = PinholeCamera::kitti_like(48, 16);
        let day = Sample::render(RoadCategory::UrbanMarked, 5, "day", Lighting::day(), &cam);
        let night = Sample::render(
            RoadCategory::UrbanMarked,
            5,
            "night",
            Lighting::night(),
            &cam,
        );
        assert_ne!(day.rgb, night.rgb);
        assert_eq!(day.depth, night.depth);
        assert_eq!(day.gt, night.gt);
    }
}
