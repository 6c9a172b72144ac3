//! Procedural driving-scene generation: the reproduction's substitute for
//! the KITTI road dataset's sensor stack.
//!
//! A [`Scene`] is a parametric 3-D road world (road geometry, lane
//! markings, sidewalks, obstacles) sampled from a seed. Two "sensors"
//! observe it:
//!
//! - [`render_rgb`] — a pinhole-camera ray-cast renderer with procedural
//!   materials and a configurable [`Lighting`] model (day, night,
//!   over-exposure, hard shadows). Lighting affects **only** this
//!   modality, mirroring the paper's motivating observation.
//! - [`LidarSpec::scan`] — a spinning-LiDAR simulator that ray-casts
//!   azimuth×ring directions, adds range noise and dropout, and returns a
//!   [`PointCloud`]. [`depth_image_from_cloud`] then projects the cloud
//!   into the camera frame and densifies it into the depth image the
//!   fusion networks consume (the RoadSeg preprocessing step).
//!
//! Pixel-perfect ground truth comes from [`render_ground_truth`], which
//! ray-casts the same geometry and marks drivable road pixels.
//!
//! # Examples
//!
//! ```
//! use sf_scene::{Lighting, PinholeCamera, RoadCategory, SceneBuilder};
//!
//! let scene = SceneBuilder::new(RoadCategory::UrbanMarked, 42).build();
//! let camera = PinholeCamera::kitti_like(96, 32);
//! let rgb = sf_scene::render_rgb(&scene, &camera, Lighting::day());
//! let gt = sf_scene::render_ground_truth(&scene, &camera);
//! assert_eq!(rgb.width(), 96);
//! // Some of the lower image is drivable road.
//! assert!(gt.data().iter().sum::<f32>() > 0.0);
//! ```

mod camera;
mod geometry;
mod lidar;
mod lighting;
mod normals;
mod occluder;
mod render;
mod rig;
mod scene;
mod weather;

pub use camera::PinholeCamera;
pub use geometry::{Aabb, Ray, Vec3, VerticalCylinder};
pub use lidar::{depth_image_from_cloud, LidarSpec, PointCloud};
pub use lighting::Lighting;
pub use normals::surface_normals_from_depth;
pub use occluder::{Occluder, OCCLUDER_Z_MAX, OCCLUDER_Z_MIN};
pub use render::{overlay_mask, render_ground_truth, render_rgb, render_rgb_with, render_view};
pub use rig::{Rig, RigMount};
pub use scene::{Obstacle, RoadCategory, Scene, SceneBuilder, Surface};
pub use weather::{ParseWeatherError, Weather, WeatherKind};
