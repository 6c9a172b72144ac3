//! The parametric road world and its builder.

use sf_tensor::TensorRng;

use crate::geometry::{Aabb, Ray, Vec3, VerticalCylinder};

/// KITTI road-benchmark scene category.
///
/// The categories differ in geometry and difficulty exactly as in the
/// benchmark: `UrbanMultipleMarked` (UMM) is the easiest (wide road, many
/// markings), `UrbanUnmarked` (UU) the hardest (no markings, road albedo
/// close to the surroundings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadCategory {
    /// UM — urban marked two-way road.
    UrbanMarked,
    /// UMM — urban road with multiple marked lanes.
    UrbanMultipleMarked,
    /// UU — urban unmarked road.
    UrbanUnmarked,
}

impl RoadCategory {
    /// All categories in benchmark order.
    pub const ALL: [RoadCategory; 3] = [
        RoadCategory::UrbanMarked,
        RoadCategory::UrbanMultipleMarked,
        RoadCategory::UrbanUnmarked,
    ];

    /// The benchmark's short code (`UM`/`UMM`/`UU`).
    pub fn code(self) -> &'static str {
        match self {
            RoadCategory::UrbanMarked => "UM",
            RoadCategory::UrbanMultipleMarked => "UMM",
            RoadCategory::UrbanUnmarked => "UU",
        }
    }
}

impl std::fmt::Display for RoadCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// What a ray hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Surface {
    /// Drivable road asphalt (the positive segmentation class).
    Road,
    /// Painted lane marking (also drivable).
    LaneMarking,
    /// Raised sidewalk bordering the road.
    Sidewalk,
    /// Grass / dirt / far ground.
    Terrain,
    /// An obstacle (building, parked car, pole, trunk).
    Obstacle,
    /// No geometry (above the horizon).
    Sky,
}

impl Surface {
    /// True for surfaces that count as drivable road in the ground truth.
    pub fn is_drivable(self) -> bool {
        matches!(self, Surface::Road | Surface::LaneMarking)
    }
}

/// A static scene object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Obstacle {
    /// An axis-aligned box (building, parked car) with a base albedo.
    Block {
        /// Geometry.
        aabb: Aabb,
        /// Base diffuse albedo in `[0, 1]`.
        albedo: f32,
    },
    /// A vertical pole or trunk with a base albedo.
    Pole {
        /// Geometry.
        cylinder: VerticalCylinder,
        /// Base diffuse albedo in `[0, 1]`.
        albedo: f32,
    },
}

impl Obstacle {
    /// Ray intersection: parameter, outward normal and albedo.
    pub fn hit(&self, ray: &Ray) -> Option<(f32, Vec3, f32)> {
        match self {
            Obstacle::Block { aabb, albedo } => aabb.hit(ray).map(|(t, n)| (t, n, *albedo)),
            Obstacle::Pole { cylinder, albedo } => cylinder.hit(ray).map(|(t, n)| (t, n, *albedo)),
        }
    }

    /// The obstacle's extent on the ground plane: `[x_min, x_max, z_min,
    /// z_max]`.
    fn footprint(&self) -> [f32; 4] {
        match self {
            Obstacle::Block { aabb, .. } => [aabb.min.x, aabb.max.x, aabb.min.z, aabb.max.z],
            Obstacle::Pole { cylinder, .. } => {
                let (c, r) = (cylinder.center, cylinder.radius);
                [c.x - r, c.x + r, c.z - r, c.z + r]
            }
        }
    }
}

/// Metres a footprint is widened by before its obstacle is skipped: more
/// than an exact test can place a hit outside it. A box's slab test is an
/// ulp off (8e-6 m measured at 40–58 m); a pole's quadratic cancels
/// `|origin − axis|²` (up to 3 600 m², ulp 2.4e-4) against `radius²` —
/// 3.8 mm at worst over 3 million rays grazing far poles, ~9 mm with every
/// rounding error aligned on the thinnest pole (0.1 m) at 60 m. 5 cm is
/// five times that and free: 40 more of 270 336 exact tests than 1 cm.
const FOOTPRINT_PAD: f32 = 0.05;

/// The result of casting a ray into a [`Scene`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Ray parameter (distance, since directions are unit length).
    pub t: f32,
    /// World-space hit point.
    pub point: Vec3,
    /// Surface classification.
    pub surface: Surface,
    /// Outward surface normal.
    pub normal: Vec3,
    /// Base diffuse albedo before texturing.
    pub albedo: f32,
}

/// A complete parametric driving scene.
///
/// Construct via [`SceneBuilder`]; all geometry is deterministic in the
/// builder seed.
#[derive(Debug, Clone)]
pub struct Scene {
    category: RoadCategory,
    /// Lateral curvature coefficient: centreline `x_c(z) = curvature·(z/10)²`.
    curvature: f32,
    half_width: f32,
    lane_count: usize,
    has_markings: bool,
    sidewalk_width: f32,
    road_albedo: f32,
    terrain_albedo: f32,
    sidewalk_albedo: f32,
    marking_albedo: f32,
    obstacles: Vec<Obstacle>,
    max_range: f32,
}

impl Scene {
    /// The scene's road category.
    pub fn category(&self) -> RoadCategory {
        self.category
    }

    /// Number of marked lanes.
    pub fn lane_count(&self) -> usize {
        self.lane_count
    }

    /// The static obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Road half width in metres.
    pub fn half_width(&self) -> f32 {
        self.half_width
    }

    /// Lateral position of the road centreline at longitudinal distance
    /// `z`.
    pub fn road_center(&self, z: f32) -> f32 {
        self.curvature * (z / 10.0) * (z / 10.0)
    }

    /// True if ground point `(x, z)` lies on drivable road.
    pub fn is_drivable(&self, x: f32, z: f32) -> bool {
        z > 0.0 && z <= self.max_range && (x - self.road_center(z)).abs() <= self.half_width
    }

    /// Classifies a ground-plane point.
    pub fn classify_ground(&self, x: f32, z: f32) -> Surface {
        if z <= 0.0 || z > self.max_range {
            return Surface::Terrain;
        }
        let offset = x - self.road_center(z);
        let lateral = offset.abs();
        if lateral <= self.half_width {
            if self.has_markings && self.on_marking(offset, z) {
                return Surface::LaneMarking;
            }
            return Surface::Road;
        }
        if lateral <= self.half_width + self.sidewalk_width {
            return Surface::Sidewalk;
        }
        Surface::Terrain
    }

    /// True if the lateral `offset` from the centreline at distance `z`
    /// falls on a painted marking.
    fn on_marking(&self, offset: f32, z: f32) -> bool {
        const MARK_HALF: f32 = 0.10;
        // Solid edge lines just inside the road border.
        let edge = self.half_width - 0.25;
        if (offset.abs() - edge).abs() <= MARK_HALF {
            return true;
        }
        // Dashed separators between lanes: 3 m painted, 3 m gap.
        let dashed_on = (z / 3.0).floor() as i64 % 2 == 0;
        if !dashed_on || self.lane_count < 2 {
            return false;
        }
        let lane_width = 2.0 * edge / self.lane_count as f32;
        for k in 1..self.lane_count {
            let sep = -edge + k as f32 * lane_width;
            if (offset - sep).abs() <= MARK_HALF {
                return true;
            }
        }
        false
    }

    /// Casts a ray into the scene, returning the nearest hit. Rays that
    /// escape the world return a [`Surface::Sky`] hit at `max_range`.
    pub fn hit(&self, ray: &Ray) -> Hit {
        let mut best: Option<Hit> = None;
        // Ground plane.
        if let Some(t) = ray.hit_ground(0.0) {
            if t <= self.max_range {
                let p = ray.at(t);
                let surface = self.classify_ground(p.x, p.z);
                let albedo = match surface {
                    Surface::Road => self.road_albedo,
                    Surface::LaneMarking => self.marking_albedo,
                    Surface::Sidewalk => self.sidewalk_albedo,
                    _ => self.terrain_albedo,
                };
                best = Some(Hit {
                    t,
                    point: p,
                    surface,
                    normal: Vec3::new(0.0, 1.0, 0.0),
                    albedo,
                });
            }
        }
        // Obstacles: only a hit nearer than the ground (or `max_range`) wins.
        let limit = best.map_or(self.max_range, |b| b.t);
        for obstacle in self.reachable(ray, limit) {
            if let Some((t, normal, albedo)) = obstacle.hit(ray) {
                if t <= self.max_range && best.is_none_or(|b| t < b.t) {
                    best = Some(Hit {
                        t,
                        point: ray.at(t),
                        surface: Surface::Obstacle,
                        normal,
                        albedo,
                    });
                }
            }
        }
        best.unwrap_or(Hit {
            t: self.max_range,
            point: ray.at(self.max_range),
            surface: Surface::Sky,
            normal: -ray.direction,
            albedo: 0.0,
        })
    }

    /// The obstacles `ray` can touch at a parameter in `[0, limit]`: all
    /// but those whose ground footprint, padded by [`FOOTPRINT_PAD`], lies
    /// wholly to one side of that segment in x or in z. A hit at
    /// `t ≤ limit` is a point of the segment inside the obstacle, hence
    /// over its footprint, so a skipped obstacle has none: skipping never
    /// changes which hit wins. Only a *true* comparison skips — a NaN
    /// origin or direction falls through to the exact test.
    fn reachable<'a>(&'a self, ray: &Ray, limit: f32) -> impl Iterator<Item = &'a Obstacle> {
        let (from, to) = (ray.origin, ray.at(limit));
        let outside = |lo: f32, hi: f32, a: f32, b: f32| {
            (a > hi + FOOTPRINT_PAD && b > hi + FOOTPRINT_PAD)
                || (a < lo - FOOTPRINT_PAD && b < lo - FOOTPRINT_PAD)
        };
        self.obstacles.iter().filter(move |obstacle| {
            let [x_lo, x_hi, z_lo, z_hi] = obstacle.footprint();
            !(outside(x_lo, x_hi, from.x, to.x) || outside(z_lo, z_hi, from.z, to.z))
        })
    }

    /// True if the segment from `point` towards `sun_dir` is blocked by an
    /// obstacle (used for hard shadows).
    pub fn occluded_towards(&self, point: Vec3, sun_dir: Vec3) -> bool {
        let ray = Ray::new(point + sun_dir * 0.05, sun_dir);
        self.reachable(&ray, self.max_range).any(|o| {
            o.hit(&ray)
                .map(|(t, _, _)| t < self.max_range)
                .unwrap_or(false)
        })
    }

    /// Maximum simulated range in metres.
    pub fn max_range(&self) -> f32 {
        self.max_range
    }

    /// A copy of the scene with the given occluders materialised as
    /// on-road blocks at their `frame` positions. The boxes occlude
    /// ground-truth road pixels and shadow LiDAR returns through the
    /// ordinary [`Scene::hit`] path; replaying the same frame always
    /// reproduces the same geometry.
    pub fn with_occluders(&self, occluders: &[crate::Occluder], frame: u64) -> Scene {
        let mut scene = self.clone();
        for occluder in occluders {
            scene.obstacles.push(Obstacle::Block {
                aabb: occluder.aabb_at(self, frame),
                albedo: occluder.albedo,
            });
        }
        scene
    }
}

/// Deterministic builder for [`Scene`]s.
///
/// # Examples
///
/// ```
/// use sf_scene::{RoadCategory, SceneBuilder};
///
/// let a = SceneBuilder::new(RoadCategory::UrbanUnmarked, 7).build();
/// let b = SceneBuilder::new(RoadCategory::UrbanUnmarked, 7).build();
/// assert_eq!(a.lane_count(), b.lane_count()); // same seed → same scene
/// ```
#[derive(Debug)]
pub struct SceneBuilder {
    category: RoadCategory,
    seed: u64,
    obstacle_density: f32,
    traffic: usize,
}

impl SceneBuilder {
    /// Starts a builder for the given category and seed.
    pub fn new(category: RoadCategory, seed: u64) -> Self {
        SceneBuilder {
            category,
            seed,
            obstacle_density: 1.0,
            traffic: 0,
        }
    }

    /// Scales how many roadside obstacles are placed (1.0 = default).
    pub fn obstacle_density(mut self, density: f32) -> Self {
        self.obstacle_density = density.max(0.0);
        self
    }

    /// Places up to `vehicles` car-sized boxes *on* the road ahead. They
    /// occlude the drivable surface, so the rasterised ground truth
    /// excludes their pixels — like parked/leading vehicles in KITTI
    /// frames. Defaults to 0.
    pub fn traffic(mut self, vehicles: usize) -> Self {
        self.traffic = vehicles;
        self
    }

    /// Samples the scene.
    pub fn build(self) -> Scene {
        let mut rng = TensorRng::seed_from(self.seed ^ 0x5CE0_5CE0);
        let category = self.category;
        let (lane_count, half_width, has_markings) = match category {
            RoadCategory::UrbanMarked => (2, rng.uniform_scalar(3.2, 4.2), true),
            RoadCategory::UrbanMultipleMarked => {
                (2 + rng.index(3), rng.uniform_scalar(5.5, 7.5), true)
            }
            RoadCategory::UrbanUnmarked => (1, rng.uniform_scalar(2.6, 3.6), false),
        };
        let curvature = rng.uniform_scalar(-0.6, 0.6);
        // UU terrain is deliberately close in albedo to the road — that is
        // what makes the category hard.
        let road_albedo = rng.uniform_scalar(0.25, 0.35);
        let terrain_albedo = match category {
            RoadCategory::UrbanUnmarked => road_albedo + rng.uniform_scalar(0.03, 0.10),
            _ => rng.uniform_scalar(0.45, 0.60),
        };
        let sidewalk_width = match category {
            RoadCategory::UrbanUnmarked => rng.uniform_scalar(0.0, 0.8),
            _ => rng.uniform_scalar(1.0, 2.0),
        };
        let max_range = 60.0;
        let mut scene = Scene {
            category,
            curvature,
            half_width,
            lane_count,
            has_markings,
            sidewalk_width,
            road_albedo,
            terrain_albedo,
            sidewalk_albedo: rng.uniform_scalar(0.5, 0.65),
            marking_albedo: rng.uniform_scalar(0.85, 0.95),
            obstacles: Vec::new(),
            max_range,
        };
        // Roadside obstacles: buildings/parked cars (blocks) and poles.
        let n_obstacles = (rng.index(4) as f32 + 4.0) * self.obstacle_density;
        for i in 0..n_obstacles as usize {
            let z = rng.uniform_scalar(8.0, max_range * 0.9);
            let side = if rng.chance(0.5) { 1.0 } else { -1.0 };
            let clearance = scene.half_width + scene.sidewalk_width;
            let obstacle = if rng.chance(0.6) {
                let w = rng.uniform_scalar(1.5, 5.0);
                let d = rng.uniform_scalar(2.0, 8.0);
                let h = rng.uniform_scalar(1.5, 7.0);
                // Keep the road-facing edge clear of the curving road over
                // the block's whole depth extent.
                let margin = rng.uniform_scalar(0.8, 4.0);
                let worst_center = [z - d / 2.0, z + d / 2.0]
                    .into_iter()
                    .map(|zz| scene.road_center(zz) * side)
                    .fold(f32::NEG_INFINITY, f32::max);
                let centre_x = side * (worst_center + clearance + margin + w / 2.0);
                Obstacle::Block {
                    aabb: Aabb::new(
                        Vec3::new(centre_x - w / 2.0, 0.0, z - d / 2.0),
                        Vec3::new(centre_x + w / 2.0, h, z + d / 2.0),
                    ),
                    albedo: rng.uniform_scalar(0.3, 0.8),
                }
            } else {
                let radius = rng.uniform_scalar(0.1, 0.4);
                let margin = rng.uniform_scalar(0.5, 3.0);
                let centre_x = scene.road_center(z) + side * (clearance + margin + radius);
                Obstacle::Pole {
                    cylinder: VerticalCylinder {
                        center: Vec3::new(centre_x, 0.0, z),
                        radius,
                        height: rng.uniform_scalar(2.5, 6.0),
                    },
                    albedo: rng.uniform_scalar(0.2, 0.5),
                }
            };
            // Avoid blocking the road itself.
            let _ = i;
            scene.obstacles.push(obstacle);
        }
        // On-road traffic: car-sized boxes inside the drivable corridor.
        for _ in 0..self.traffic {
            let z = rng.uniform_scalar(14.0, max_range * 0.7);
            let (w, d, h) = (1.8, 4.2, 1.5);
            let lane_offset = rng.uniform_scalar(-(scene.half_width - w), scene.half_width - w);
            let cx = scene.road_center(z) + lane_offset;
            scene.obstacles.push(Obstacle::Block {
                aabb: Aabb::new(
                    Vec3::new(cx - w / 2.0, 0.0, z - d / 2.0),
                    Vec3::new(cx + w / 2.0, h, z + d / 2.0),
                ),
                albedo: rng.uniform_scalar(0.2, 0.7),
            });
        }
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let a = SceneBuilder::new(RoadCategory::UrbanMarked, 5).build();
        let b = SceneBuilder::new(RoadCategory::UrbanMarked, 5).build();
        assert_eq!(a.half_width(), b.half_width());
        assert_eq!(a.obstacles().len(), b.obstacles().len());
        let c = SceneBuilder::new(RoadCategory::UrbanMarked, 6).build();
        assert!(a.half_width() != c.half_width() || a.obstacles().len() != c.obstacles().len());
    }

    #[test]
    fn categories_have_expected_structure() {
        let um = SceneBuilder::new(RoadCategory::UrbanMarked, 1).build();
        let umm = SceneBuilder::new(RoadCategory::UrbanMultipleMarked, 1).build();
        let uu = SceneBuilder::new(RoadCategory::UrbanUnmarked, 1).build();
        assert_eq!(um.lane_count(), 2);
        assert!(umm.lane_count() >= 2);
        assert!(umm.half_width() > um.half_width());
        assert_eq!(uu.lane_count(), 1);
        // UU has no markings anywhere.
        for z in [5.0f32, 10.0, 20.0] {
            for dx in [-1.0f32, 0.0, 1.0] {
                let x = uu.road_center(z) + dx;
                assert_ne!(uu.classify_ground(x, z), Surface::LaneMarking);
            }
        }
    }

    #[test]
    fn marked_road_has_markings_and_road() {
        let um = SceneBuilder::new(RoadCategory::UrbanMarked, 2).build();
        let mut kinds = std::collections::HashSet::new();
        for zi in 1..400 {
            let z = zi as f32 * 0.1;
            for xi in -60..=60 {
                let x = um.road_center(z) + xi as f32 * 0.1;
                kinds.insert(um.classify_ground(x, z));
            }
        }
        assert!(kinds.contains(&Surface::Road));
        assert!(kinds.contains(&Surface::LaneMarking));
        assert!(kinds.contains(&Surface::Sidewalk));
        assert!(kinds.contains(&Surface::Terrain));
    }

    #[test]
    fn drivable_matches_classification() {
        let scene = SceneBuilder::new(RoadCategory::UrbanMultipleMarked, 3).build();
        for zi in 1..100 {
            let z = zi as f32 * 0.5;
            for xi in -80..=80 {
                let x = xi as f32 * 0.2;
                let drivable = scene.is_drivable(x, z);
                let classified = scene.classify_ground(x, z).is_drivable();
                assert_eq!(drivable, classified, "mismatch at ({x}, {z})");
            }
        }
    }

    #[test]
    fn ray_hits_road_ahead() {
        let scene = SceneBuilder::new(RoadCategory::UrbanMarked, 4).build();
        let ray = Ray::new(Vec3::new(0.0, 1.6, 0.0), Vec3::new(0.0, -0.2, 1.0));
        let hit = scene.hit(&ray);
        assert!(hit.surface.is_drivable() || hit.surface == Surface::LaneMarking);
        assert!(hit.t > 0.0 && hit.t < scene.max_range());
    }

    #[test]
    fn sky_above_horizon() {
        let scene = SceneBuilder::new(RoadCategory::UrbanMarked, 4).build();
        let ray = Ray::new(Vec3::new(0.0, 1.6, 0.0), Vec3::new(0.0, 0.5, 1.0));
        assert_eq!(scene.hit(&ray).surface, Surface::Sky);
    }

    #[test]
    fn obstacles_do_not_sit_on_the_road() {
        for seed in 0..20 {
            let scene = SceneBuilder::new(RoadCategory::UrbanMarked, seed).build();
            for obstacle in scene.obstacles() {
                let (x, z) = match obstacle {
                    Obstacle::Block { aabb, .. } => {
                        // Check the road-facing edge of the block.
                        let z = (aabb.min.z + aabb.max.z) / 2.0;
                        let x = if aabb.min.x > 0.0 {
                            aabb.min.x
                        } else {
                            aabb.max.x
                        };
                        (x, z)
                    }
                    Obstacle::Pole { cylinder, .. } => (cylinder.center.x, cylinder.center.z),
                };
                assert!(
                    !scene.is_drivable(x, z),
                    "obstacle edge at ({x}, {z}) is on the road (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn traffic_places_vehicles_on_the_road() {
        let quiet = SceneBuilder::new(RoadCategory::UrbanMarked, 8).build();
        let busy = SceneBuilder::new(RoadCategory::UrbanMarked, 8)
            .traffic(3)
            .build();
        assert_eq!(busy.obstacles().len(), quiet.obstacles().len() + 3);
        // At least one traffic vehicle footprint is on drivable ground.
        let on_road = busy
            .obstacles()
            .iter()
            .skip(quiet.obstacles().len())
            .any(|o| {
                if let Obstacle::Block { aabb, .. } = o {
                    let cx = (aabb.min.x + aabb.max.x) / 2.0;
                    let cz = (aabb.min.z + aabb.max.z) / 2.0;
                    busy.is_drivable(cx, cz)
                } else {
                    false
                }
            });
        assert!(on_road, "traffic should occupy the road");
    }

    #[test]
    fn traffic_shrinks_visible_road_in_ground_truth() {
        // Occluding vehicles must remove road pixels from the rasterised
        // ground truth (the renderer resolves occlusion by depth).
        use crate::camera::PinholeCamera;
        use crate::render::render_ground_truth;
        let camera = PinholeCamera::kitti_like(96, 32);
        let quiet = SceneBuilder::new(RoadCategory::UrbanMultipleMarked, 12).build();
        let busy = SceneBuilder::new(RoadCategory::UrbanMultipleMarked, 12)
            .traffic(4)
            .build();
        let road = |scene: &Scene| render_ground_truth(scene, &camera).to_tensor().sum();
        assert!(
            road(&busy) < road(&quiet),
            "busy {} vs quiet {}",
            road(&busy),
            road(&quiet)
        );
    }

    #[test]
    fn shadow_occlusion_detects_blocks() {
        let scene = Scene {
            category: RoadCategory::UrbanMarked,
            curvature: 0.0,
            half_width: 3.5,
            lane_count: 2,
            has_markings: true,
            sidewalk_width: 1.0,
            road_albedo: 0.3,
            terrain_albedo: 0.5,
            sidewalk_albedo: 0.6,
            marking_albedo: 0.9,
            obstacles: vec![Obstacle::Block {
                aabb: Aabb::new(Vec3::new(4.0, 0.0, 9.0), Vec3::new(8.0, 6.0, 11.0)),
                albedo: 0.5,
            }],
            max_range: 60.0,
        };
        // Point on the road just west of the block, sun from the east.
        let sun_east = Vec3::new(1.0, 0.6, 0.0).normalized();
        assert!(scene.occluded_towards(Vec3::new(1.0, 0.0, 10.0), sun_east));
        // Sun from the west: unobstructed.
        let sun_west = Vec3::new(-1.0, 0.6, 0.0).normalized();
        assert!(!scene.occluded_towards(Vec3::new(1.0, 0.0, 10.0), sun_west));
    }

    /// The reference [`Scene::hit`] is checked against: the ground, then
    /// every obstacle for every ray.
    fn hit_testing_every_obstacle(scene: &Scene, ray: &Ray) -> Hit {
        let mut best: Option<Hit> = None;
        if let Some(t) = ray.hit_ground(0.0) {
            if t <= scene.max_range {
                let p = ray.at(t);
                let surface = scene.classify_ground(p.x, p.z);
                let albedo = match surface {
                    Surface::Road => scene.road_albedo,
                    Surface::LaneMarking => scene.marking_albedo,
                    Surface::Sidewalk => scene.sidewalk_albedo,
                    _ => scene.terrain_albedo,
                };
                best = Some(Hit {
                    t,
                    point: p,
                    surface,
                    normal: Vec3::new(0.0, 1.0, 0.0),
                    albedo,
                });
            }
        }
        for obstacle in &scene.obstacles {
            if let Some((t, normal, albedo)) = obstacle.hit(ray) {
                if t <= scene.max_range && best.is_none_or(|b| t < b.t) {
                    best = Some(Hit {
                        t,
                        point: ray.at(t),
                        surface: Surface::Obstacle,
                        normal,
                        albedo,
                    });
                }
            }
        }
        best.unwrap_or(Hit {
            t: scene.max_range,
            point: ray.at(scene.max_range),
            surface: Surface::Sky,
            normal: -ray.direction,
            albedo: 0.0,
        })
    }

    /// The reference for [`Scene::occluded_towards`].
    fn occluded_testing_every_obstacle(scene: &Scene, point: Vec3, sun_dir: Vec3) -> bool {
        let ray = Ray::new(point + sun_dir * 0.05, sun_dir);
        scene
            .obstacles
            .iter()
            .any(|o| o.hit(&ray).is_some_and(|(t, _, _)| t < scene.max_range))
    }

    fn assert_same_hit(scene: &Scene, ray: &Ray) -> Hit {
        let (got, want) = (scene.hit(ray), hit_testing_every_obstacle(scene, ray));
        let bits = |h: &Hit| {
            let v = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
            (h.t.to_bits(), v(h.point), v(h.normal), h.albedo.to_bits())
        };
        assert_eq!(got.surface, want.surface, "{ray:?}");
        assert_eq!(bits(&got), bits(&want), "{ray:?}: {got:?} vs {want:?}");
        got
    }

    /// The three sensor poses of [`crate::Rig::triple`] and the camera's.
    fn sensor_origins() -> Vec<Vec3> {
        let mounts = crate::Rig::triple();
        let mounts = mounts.mounts().iter().map(|m| {
            Vec3::new(
                m.spec.mount_lateral,
                m.spec.mount_height,
                m.spec.mount_forward,
            )
        });
        let camera = crate::PinholeCamera::kitti_like(96, 32).position();
        mounts.chain([camera]).collect()
    }

    /// The LiDAR pattern's ray at `azim` / `elev` radians.
    fn pattern_ray(origin: Vec3, azim: f32, elev: f32) -> Ray {
        let dir = Vec3::new(azim.sin() * elev.cos(), elev.sin(), azim.cos() * elev.cos());
        Ray::new(origin, dir)
    }

    #[test]
    fn hit_equals_the_every_obstacle_reference_bit_for_bit() {
        use crate::camera::PinholeCamera;
        use sf_tensor::testkit::check_cases;
        let camera = PinholeCamera::kitti_like(24, 8);
        let suns = [
            Vec3::new(1.0, 0.6, 0.0),
            Vec3::new(-0.4, 0.25, 0.7),
            Vec3::new(0.1, 1.0, -0.3),
        ];
        check_cases(96, |c| {
            let category = RoadCategory::ALL[c.usize_in(0, 3)];
            let base = SceneBuilder::new(category, c.seed())
                .obstacle_density(c.usize_in(0, 4) as f32)
                .traffic(c.usize_in(0, 5))
                .build();
            let convoy = crate::Occluder::convoy(&base, c.usize_in(0, 4), c.seed());
            let scene = base.with_occluders(&convoy, c.usize_in(0, 2000) as u64);
            let mut rays = Vec::new();
            for v in 0..camera.height() {
                rays.extend((0..camera.width()).map(|u| camera.pixel_ray(u, v)));
            }
            for origin in sensor_origins() {
                // The scan pattern's envelope, and rays grazing every
                // footprint corner from a few centimetres either side of it.
                for _ in 0..64 {
                    let (azim, elev) = (c.f32_in(-0.85, 0.85), c.f32_in(-0.42, 0.10));
                    rays.push(pattern_ray(origin, azim, elev));
                }
                for obstacle in scene.obstacles() {
                    let [x_lo, x_hi, z_lo, z_hi] = obstacle.footprint();
                    for (x, z) in [(x_lo, z_lo), (x_lo, z_hi), (x_hi, z_lo), (x_hi, z_hi)] {
                        let nudge = |c: &mut sf_tensor::testkit::CaseCtx| c.f32_in(-0.03, 0.03);
                        let target = Vec3::new(x + nudge(c), c.f32_in(0.0, 2.0), z + nudge(c));
                        rays.push(Ray::new(origin, target - origin));
                    }
                }
            }
            for obstacle in scene.obstacles() {
                let [x_lo, x_hi, z_lo, z_hi] = obstacle.footprint();
                let (x, z) = (c.f32_in(x_lo, x_hi), c.f32_in(z_lo, z_hi));
                // Inside the obstacle, and over its footprint but above it.
                for y in [0.5, 9.0] {
                    let origin = Vec3::new(x, y, z);
                    rays.push(Ray::new(origin, Vec3::new(0.3, -0.2, 1.0)));
                    rays.push(Ray::new(origin, Vec3::new(-1.0, -1.0, -0.2)));
                    rays.push(Ray::new(origin, Vec3::new(0.0, -1.0, 0.0)));
                    rays.push(Ray::new(origin, Vec3::new(0.0, 1.0, 0.0)));
                }
            }
            let origin = Vec3::new(
                c.f32_in(-12.0, 12.0),
                c.f32_in(0.2, 3.0),
                c.f32_in(-5.0, 55.0),
            );
            for axis in 0..3 {
                for sign in [-1.0, 1.0] {
                    let mut d = [0.0; 3];
                    d[axis] = sign;
                    rays.push(Ray::new(origin, Vec3::new(d[0], d[1], d[2])));
                }
                // Not rays at all: `Ray::new` would refuse them, the
                // struct literal does not.
                let mut d = [0.3, -0.2, 0.9];
                d[axis] = f32::NAN;
                rays.push(Ray {
                    origin,
                    direction: Vec3::new(d[0], d[1], d[2]),
                });
                let mut o = [origin.x, origin.y, origin.z];
                o[axis] = f32::NAN;
                rays.push(Ray {
                    origin: Vec3::new(o[0], o[1], o[2]),
                    direction: Vec3::new(0.0, -0.6, 0.8),
                });
            }
            rays.push(Ray {
                origin,
                direction: Vec3::zero(),
            });
            rays.push(Ray {
                origin,
                direction: Vec3::new(f32::NAN, f32::NAN, f32::NAN),
            });
            for ray in &rays {
                let hit = assert_same_hit(&scene, ray);
                if hit.surface != Surface::Sky && hit.point.x.is_finite() {
                    for sun in suns {
                        let sun = sun.normalized();
                        assert_eq!(
                            scene.occluded_towards(hit.point, sun),
                            occluded_testing_every_obstacle(&scene, hit.point, sun),
                            "{:?} towards {sun:?}",
                            hit.point
                        );
                    }
                }
            }
        });
    }

    /// On the benchmark's clutter shape (5 roadside obstacles, 3 of them
    /// buildings, plus a 3-vehicle convoy) the footprint reject skips
    /// most exact tests — counted through [`Scene::reachable`], the one
    /// iterator `hit` and `occluded_towards` walk, so a reject that
    /// stopped rejecting fails here rather than in a benchmark.
    #[test]
    fn the_footprint_reject_skips_most_obstacle_tests() {
        use crate::camera::PinholeCamera;
        let base = (0..4096)
            .map(|seed| SceneBuilder::new(RoadCategory::UrbanMarked, seed).build())
            .find(|scene| {
                let blocks = scene
                    .obstacles
                    .iter()
                    .filter(|o| matches!(o, Obstacle::Block { .. }));
                (scene.obstacles.len(), blocks.count()) == (5, 3)
            })
            .expect("about one scene seed in twelve has the typical clutter");
        let scene = base.with_occluders(&crate::Occluder::convoy(&base, 3, 1), 40);
        let camera = PinholeCamera::kitti_like(96, 32);
        let spec = crate::LidarSpec::default();
        let mut rays = Vec::new();
        for v in 0..camera.height() {
            rays.extend((0..camera.width()).map(|u| camera.pixel_ray(u, v)));
        }
        for origin in sensor_origins() {
            for ring in 0..spec.rings {
                let elev = spec.elevation_min
                    + (spec.elevation_max - spec.elevation_min) * ring as f32
                        / (spec.rings - 1) as f32;
                for step in 0..spec.azimuth_steps {
                    let azim = spec.azimuth_half_fov
                        * (2.0 * step as f32 / (spec.azimuth_steps - 1) as f32 - 1.0);
                    rays.push(pattern_ray(origin, azim, elev));
                }
            }
        }
        let (mut tested, mut all) = (0usize, 0usize);
        for ray in &rays {
            let ground = ray.hit_ground(0.0).filter(|&t| t <= scene.max_range);
            tested += scene
                .reachable(ray, ground.unwrap_or(scene.max_range))
                .count();
            all += scene.obstacles.len();
        }
        assert!(
            2 * tested <= all,
            "{tested} of {all} obstacle tests survive the reject"
        );
    }

    #[test]
    fn category_codes() {
        assert_eq!(RoadCategory::UrbanMarked.code(), "UM");
        assert_eq!(RoadCategory::UrbanMultipleMarked.to_string(), "UMM");
        assert_eq!(RoadCategory::ALL.len(), 3);
    }
}
