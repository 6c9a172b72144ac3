//! Spinning-LiDAR simulation and the point-cloud → dense-depth-image
//! preprocessing used by the fusion networks.
//!
//! The paper's baseline (RoadSeg) consumes *depth images* generated from
//! KITTI's Velodyne point clouds. We reproduce the same pipeline on the
//! synthetic scene: ray-cast a ring/azimuth pattern, perturb ranges with
//! sensor noise, drop returns at random, project the surviving points into
//! the camera, and densify with iterative neighbourhood filling.

use sf_tensor::TensorRng;
use sf_vision::GrayImage;

use crate::camera::PinholeCamera;
use crate::geometry::{Ray, Vec3};
use crate::scene::{Scene, Surface};
use crate::weather::Weather;

/// A set of 3-D LiDAR returns in world coordinates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Vec3>,
}

impl PointCloud {
    /// Creates an empty cloud.
    pub fn new() -> Self {
        PointCloud::default()
    }

    /// The stored returns.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Number of returns.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the scan produced no returns.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Adds a return.
    pub fn push(&mut self, p: Vec3) {
        self.points.push(p);
    }
}

impl FromIterator<Vec3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Vec3>>(iter: I) -> Self {
        PointCloud {
            points: iter.into_iter().collect(),
        }
    }
}

/// Geometry and noise model of the simulated spinning LiDAR.
///
/// Defaults mimic a 64-ring sensor restricted to the camera's forward
/// field of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LidarSpec {
    /// Number of elevation rings.
    pub rings: usize,
    /// Azimuth samples across the horizontal field of view.
    pub azimuth_steps: usize,
    /// Lowest ring elevation in radians (negative looks down).
    pub elevation_min: f32,
    /// Highest ring elevation in radians.
    pub elevation_max: f32,
    /// Horizontal field of view half-angle in radians.
    pub azimuth_half_fov: f32,
    /// Sensor mount height in metres.
    pub mount_height: f32,
    /// Lateral mount offset in metres (positive = right of the ego
    /// centreline). 0 for the classic roof mount.
    pub mount_lateral: f32,
    /// Forward mount offset in metres (positive = ahead of the ego
    /// origin). 0 for the classic roof mount.
    pub mount_forward: f32,
    /// Maximum usable range in metres.
    pub max_range: f32,
    /// Gaussian range noise sigma in metres.
    pub range_noise: f32,
    /// Probability of dropping an individual return.
    pub dropout: f64,
}

impl Default for LidarSpec {
    fn default() -> Self {
        LidarSpec {
            rings: 48,
            azimuth_steps: 160,
            elevation_min: -0.42,
            elevation_max: 0.03,
            azimuth_half_fov: 0.70,
            mount_height: 1.73,
            mount_lateral: 0.0,
            mount_forward: 0.0,
            max_range: 60.0,
            range_noise: 0.02,
            dropout: 0.05,
        }
    }
}

impl LidarSpec {
    /// Scans `scene` in clear weather, returning the noisy point cloud.
    /// Deterministic given the RNG state.
    pub fn scan(&self, scene: &Scene, rng: &mut TensorRng) -> PointCloud {
        self.scan_with(scene, Weather::clear(), rng)
    }

    /// Scans `scene` under `weather`. Beyond the sensor's own dropout and
    /// range noise, non-clear weather applies range-dependent return
    /// dropout (two-way extinction), backscatter ghost returns from
    /// droplets/flakes near the sensor, and extra range jitter. With
    /// [`Weather::clear`] this is bit-identical to [`LidarSpec::scan`] —
    /// including the RNG stream, since clear weather draws nothing.
    pub fn scan_with(&self, scene: &Scene, weather: Weather, rng: &mut TensorRng) -> PointCloud {
        let origin = Vec3::new(self.mount_lateral, self.mount_height, self.mount_forward);
        let clear = weather.is_clear();
        // The pattern's trigonometry, once per scan instead of once per ray.
        let azimuths: Vec<(f32, f32)> = (0..self.azimuth_steps)
            .map(|step| {
                let azim = -self.azimuth_half_fov
                    + 2.0 * self.azimuth_half_fov * step as f32
                        / (self.azimuth_steps.max(2) - 1) as f32;
                azim.sin_cos()
            })
            .collect();
        let mut cloud = PointCloud::new();
        for ring in 0..self.rings {
            let elev = self.elevation_min
                + (self.elevation_max - self.elevation_min) * ring as f32
                    / (self.rings.max(2) - 1) as f32;
            let (sin_elev, cos_elev) = elev.sin_cos();
            for &(sin_azim, cos_azim) in &azimuths {
                let dir = Vec3::new(sin_azim * cos_elev, sin_elev, cos_azim * cos_elev);
                let ray = Ray::new(origin, dir);
                let hit = scene.hit(&ray);
                if hit.surface == Surface::Sky || hit.t > self.max_range {
                    continue;
                }
                if rng.chance(self.dropout) {
                    continue;
                }
                let noisy_t = (hit.t + rng.normal_scalar() * self.range_noise).max(0.1);
                if clear {
                    cloud.push(ray.at(noisy_t));
                    continue;
                }
                // Two-way extinction: far returns die first.
                if rng.chance(weather.lidar_dropout(hit.t)) {
                    continue;
                }
                // Backscatter: the pulse reflects off a droplet/flake a
                // few metres out instead of the true surface.
                if rng.chance(weather.ghost_probability()) {
                    let ghost_t = rng.uniform_scalar(1.0, 8.0).min(noisy_t);
                    cloud.push(ray.at(ghost_t));
                    continue;
                }
                let jitter = rng.normal_scalar() * weather.range_jitter();
                cloud.push(ray.at((noisy_t + jitter).max(0.1)));
            }
        }
        cloud
    }
}

/// Projects a LiDAR cloud into the camera and densifies it into the depth
/// image the fusion network consumes.
///
/// Output pixels hold *normalised inverse depth*: near surfaces bright,
/// far surfaces dark, unobserved sky 0 — the conventional encoding for
/// LiDAR-derived depth images. Densification runs `fill_iterations` of
/// 8-neighbour averaging over empty pixels (the standard sparse-to-dense
/// completion step of the RoadSeg preprocessing).
pub fn depth_image_from_cloud(
    cloud: &PointCloud,
    camera: &PinholeCamera,
    max_range: f32,
    fill_iterations: usize,
) -> GrayImage {
    let (w, h) = (camera.width(), camera.height());
    let mut depth = vec![f32::INFINITY; w * h];
    for &p in cloud.points() {
        if let Some((u, v, z)) = camera.project(p) {
            let i = v * w + u;
            if z < depth[i] {
                depth[i] = z;
            }
        }
    }
    // Iterative hole filling: empty pixels take the mean of their valid
    // 8-neighbourhood.
    for _ in 0..fill_iterations {
        let snapshot = depth.clone();
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if snapshot[i].is_finite() {
                    continue;
                }
                let mut sum = 0.0f32;
                let mut count = 0usize;
                for dy in -1i32..=1 {
                    for dx in -1i32..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = x as i32 + dx;
                        let ny = y as i32 + dy;
                        if nx < 0 || ny < 0 || nx >= w as i32 || ny >= h as i32 {
                            continue;
                        }
                        let n = snapshot[ny as usize * w + nx as usize];
                        if n.is_finite() {
                            sum += n;
                            count += 1;
                        }
                    }
                }
                if count >= 2 {
                    depth[i] = sum / count as f32;
                }
            }
        }
    }
    GrayImage::from_raw(
        w,
        h,
        depth
            .into_iter()
            .map(|d| {
                if d.is_finite() {
                    (1.0 - d / max_range).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{RoadCategory, SceneBuilder};

    fn test_scene() -> Scene {
        SceneBuilder::new(RoadCategory::UrbanMarked, 31).build()
    }

    #[test]
    fn scan_produces_returns_in_range() {
        let scene = test_scene();
        let mut rng = TensorRng::seed_from(1);
        let spec = LidarSpec::default();
        let cloud = spec.scan(&scene, &mut rng);
        assert!(cloud.len() > 1000, "only {} returns", cloud.len());
        let origin = Vec3::new(0.0, spec.mount_height, 0.0);
        for &p in cloud.points() {
            let range = (p - origin).length();
            assert!(range <= spec.max_range + 1.0);
            assert!(p.z > 0.0, "return behind the sensor");
        }
    }

    #[test]
    fn scan_is_deterministic_by_seed() {
        let scene = test_scene();
        let a = LidarSpec::default().scan(&scene, &mut TensorRng::seed_from(2));
        let b = LidarSpec::default().scan(&scene, &mut TensorRng::seed_from(2));
        assert_eq!(a, b);
    }

    #[test]
    fn dropout_reduces_return_count() {
        let scene = test_scene();
        let dense_spec = LidarSpec {
            dropout: 0.0,
            ..LidarSpec::default()
        };
        let sparse_spec = LidarSpec {
            dropout: 0.5,
            ..LidarSpec::default()
        };
        let dense = dense_spec.scan(&scene, &mut TensorRng::seed_from(3));
        let sparse = sparse_spec.scan(&scene, &mut TensorRng::seed_from(3));
        assert!(sparse.len() < dense.len() * 3 / 4);
    }

    #[test]
    fn depth_image_is_near_bright_far_dark() {
        let scene = test_scene();
        let cam = PinholeCamera::kitti_like(96, 32);
        let cloud = LidarSpec::default().scan(&scene, &mut TensorRng::seed_from(4));
        let depth = depth_image_from_cloud(&cloud, &cam, 60.0, 3);
        // Road directly ahead: bottom rows must be brighter (closer) than
        // the rows just below the horizon.
        let row_mean = |y: usize| (0..96).map(|x| depth.get(x, y)).sum::<f32>() / 96.0;
        assert!(row_mean(30) > row_mean(12) + 0.1);
        // All values in [0, 1].
        assert!(depth.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn densification_fills_holes() {
        let scene = test_scene();
        let cam = PinholeCamera::kitti_like(96, 32);
        let cloud = LidarSpec::default().scan(&scene, &mut TensorRng::seed_from(5));
        let sparse = depth_image_from_cloud(&cloud, &cam, 60.0, 0);
        let dense = depth_image_from_cloud(&cloud, &cam, 60.0, 4);
        let nonzero = |im: &GrayImage| im.data().iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero(&dense) > nonzero(&sparse));
    }

    #[test]
    fn empty_cloud_gives_black_image() {
        let cam = PinholeCamera::kitti_like(32, 16);
        let depth = depth_image_from_cloud(&PointCloud::new(), &cam, 60.0, 3);
        assert!(depth.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clear_weather_scan_is_bit_identical_to_plain_scan() {
        let scene = test_scene();
        let spec = LidarSpec::default();
        let plain = spec.scan(&scene, &mut TensorRng::seed_from(6));
        let clear = spec.scan_with(&scene, Weather::clear(), &mut TensorRng::seed_from(6));
        assert_eq!(plain, clear);
    }

    #[test]
    fn fog_thins_the_cloud_with_range() {
        let scene = test_scene();
        let spec = LidarSpec::default();
        let clear = spec.scan(&scene, &mut TensorRng::seed_from(7));
        let foggy = spec.scan_with(&scene, Weather::fog(0.9), &mut TensorRng::seed_from(7));
        assert!(
            foggy.len() < clear.len() / 2,
            "fog kept {} of {} returns",
            foggy.len(),
            clear.len()
        );
        // Far returns die preferentially: the foggy cloud's far fraction
        // must shrink relative to clear.
        let far_fraction = |cloud: &PointCloud| {
            let far = cloud.points().iter().filter(|p| p.z > 20.0).count();
            far as f32 / cloud.len().max(1) as f32
        };
        assert!(far_fraction(&foggy) < far_fraction(&clear));
    }

    #[test]
    fn snow_produces_near_sensor_ghost_returns() {
        let scene = test_scene();
        // No base dropout/noise so extra near returns are attributable to
        // backscatter ghosts alone.
        let spec = LidarSpec {
            dropout: 0.0,
            range_noise: 0.0,
            ..LidarSpec::default()
        };
        let clear = spec.scan(&scene, &mut TensorRng::seed_from(8));
        let snowy = spec.scan_with(&scene, Weather::snow(1.0), &mut TensorRng::seed_from(8));
        // The nearest true surface (the ground under the lowest ring) sits
        // beyond range ≈ 4.2 m, so anything closer can only be a ghost.
        let origin = Vec3::new(0.0, spec.mount_height, 0.0);
        let ghost_only = |cloud: &PointCloud| {
            cloud
                .points()
                .iter()
                .filter(|&&p| (p - origin).length() < 3.5)
                .count()
        };
        assert_eq!(ghost_only(&clear), 0, "clear scan has no near phantoms");
        assert!(
            ghost_only(&snowy) > 0,
            "snow must produce backscatter ghosts near the sensor"
        );
    }

    #[test]
    fn weather_scan_is_deterministic_by_seed() {
        let scene = test_scene();
        let spec = LidarSpec::default();
        let a = spec.scan_with(&scene, Weather::rain(0.7), &mut TensorRng::seed_from(9));
        let b = spec.scan_with(&scene, Weather::rain(0.7), &mut TensorRng::seed_from(9));
        assert_eq!(a, b);
    }

    /// The scan as first written — the trigonometry of every ray computed
    /// at that ray — kept as the reference for the hoisted loop.
    fn scan_per_ray_reference(
        spec: &LidarSpec,
        scene: &Scene,
        weather: Weather,
        rng: &mut TensorRng,
    ) -> PointCloud {
        let origin = Vec3::new(spec.mount_lateral, spec.mount_height, spec.mount_forward);
        let mut cloud = PointCloud::new();
        for ring in 0..spec.rings {
            let elev = spec.elevation_min
                + (spec.elevation_max - spec.elevation_min) * ring as f32
                    / (spec.rings.max(2) - 1) as f32;
            for step in 0..spec.azimuth_steps {
                let azim = -spec.azimuth_half_fov
                    + 2.0 * spec.azimuth_half_fov * step as f32
                        / (spec.azimuth_steps.max(2) - 1) as f32;
                let dir = Vec3::new(azim.sin() * elev.cos(), elev.sin(), azim.cos() * elev.cos());
                let ray = Ray::new(origin, dir);
                let hit = scene.hit(&ray);
                if hit.surface == Surface::Sky || hit.t > spec.max_range {
                    continue;
                }
                if rng.chance(spec.dropout) {
                    continue;
                }
                let noisy_t = (hit.t + rng.normal_scalar() * spec.range_noise).max(0.1);
                if weather.is_clear() {
                    cloud.push(ray.at(noisy_t));
                    continue;
                }
                if rng.chance(weather.lidar_dropout(hit.t)) {
                    continue;
                }
                if rng.chance(weather.ghost_probability()) {
                    let ghost_t = rng.uniform_scalar(1.0, 8.0).min(noisy_t);
                    cloud.push(ray.at(ghost_t));
                    continue;
                }
                let jitter = rng.normal_scalar() * weather.range_jitter();
                cloud.push(ray.at((noisy_t + jitter).max(0.1)));
            }
        }
        cloud
    }

    #[test]
    fn scan_equals_the_per_ray_reference_returns_and_rng_draws() {
        let scene = test_scene();
        let weathers = [
            Weather::clear(),
            Weather::rain(0.6),
            Weather::fog(0.5),
            Weather::snow(0.8),
        ];
        for mount in crate::Rig::triple().mounts() {
            for weather in weathers {
                let (mut rng, mut reference_rng) =
                    (TensorRng::seed_from(12), TensorRng::seed_from(12));
                let cloud = mount.spec.scan_with(&scene, weather, &mut rng);
                let reference =
                    scan_per_ray_reference(&mount.spec, &scene, weather, &mut reference_rng);
                let bits = |cloud: &PointCloud| -> Vec<[u32; 3]> {
                    let point = |p: &Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
                    cloud.points().iter().map(point).collect()
                };
                assert_eq!(
                    bits(&cloud),
                    bits(&reference),
                    "{} under {weather}",
                    mount.name
                );
                // Same number of draws: the streams continue in step.
                assert_eq!(
                    rng.index(usize::MAX),
                    reference_rng.index(usize::MAX),
                    "{} under {weather}",
                    mount.name
                );
            }
        }
    }

    #[test]
    fn mount_offsets_shift_the_scan_origin() {
        let scene = test_scene();
        let offset = LidarSpec {
            mount_lateral: -0.85,
            mount_forward: 0.9,
            range_noise: 0.0,
            dropout: 0.0,
            ..LidarSpec::default()
        };
        let roof = LidarSpec {
            range_noise: 0.0,
            dropout: 0.0,
            ..LidarSpec::default()
        };
        let a = roof.scan(&scene, &mut TensorRng::seed_from(10));
        let b = offset.scan(&scene, &mut TensorRng::seed_from(10));
        assert_ne!(a, b, "distinct mounts must see distinct clouds");
    }

    #[test]
    fn cloud_collects_from_iterator() {
        let cloud: PointCloud = vec![Vec3::new(0.0, 0.0, 5.0), Vec3::new(1.0, 0.0, 6.0)]
            .into_iter()
            .collect();
        assert_eq!(cloud.len(), 2);
        assert!(!cloud.is_empty());
    }
}
