//! Multi-LiDAR frame assembly: one scene observation fanned out into
//! per-mount depth streams.
//!
//! [`Sample`](crate::Sample) merges a rig's clouds into a single depth
//! image for training. The serve path wants the opposite: every mount's
//! stream kept separate and tagged with its source id, so each sensor
//! becomes its own `SourceId` at the server and the per-source circuit
//! breakers see genuinely independent inputs. [`RigFrame::render`] is
//! that assembly step — the chaos engine drives it once per scene-clock
//! frame.

use sf_scene::{
    depth_image_from_cloud, render_ground_truth, render_rgb_with, Lighting, PinholeCamera, Rig,
    Scene, Weather,
};
use sf_tensor::{Tensor, TensorRng};

/// One frame of a multi-LiDAR rig: the shared camera view and ground
/// truth plus one independently-seeded depth image per mount.
#[derive(Debug, Clone)]
pub struct RigFrame {
    /// Camera image, `[3, H, W]`.
    pub rgb: Tensor,
    /// Binary drivable-road mask, `[1, H, W]`.
    pub gt: Tensor,
    /// Per-mount `(source id, depth image)` pairs in mount order; depth
    /// images are `[1, H, W]` normalised inverse depth.
    pub depths: Vec<(u64, Tensor)>,
}

impl RigFrame {
    /// Renders one frame of `rig` observing `scene`.
    ///
    /// The caller owns the scene clock: pass the frame index and a run
    /// seed, and every mount scans with the stream seed
    /// [`Rig::stream_seed`]`(run_seed, frame, source)` — so streams are
    /// independent across mounts and frames but exactly reproducible.
    /// Weather degrades the RGB and every mount's scan; the ground truth
    /// is weather-invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn render(
        scene: &Scene,
        camera: &PinholeCamera,
        lighting: Lighting,
        weather: Weather,
        rig: &Rig,
        run_seed: u64,
        frame: u64,
        fill_iterations: usize,
    ) -> RigFrame {
        let (h, w) = (camera.height(), camera.width());
        let reshape = |t: Tensor| t.reshape(&[1, h, w]).expect("image reshapes to [1,H,W]");
        let rgb = render_rgb_with(scene, camera, lighting, weather);
        let gt = render_ground_truth(scene, camera);
        let depths = rig
            .mounts()
            .iter()
            .map(|mount| {
                let mut rng = TensorRng::seed_from(Rig::stream_seed(run_seed, frame, mount.source));
                let cloud = mount.spec.scan_with(scene, weather, &mut rng);
                let depth =
                    depth_image_from_cloud(&cloud, camera, mount.spec.max_range, fill_iterations);
                (mount.source, reshape(depth.to_tensor()))
            })
            .collect();
        RigFrame {
            rgb: rgb.to_tensor(),
            gt: reshape(gt.to_tensor()),
            depths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_scene::{RoadCategory, SceneBuilder};

    fn setup() -> (Scene, PinholeCamera) {
        (
            SceneBuilder::new(RoadCategory::UrbanMarked, 17).build(),
            PinholeCamera::kitti_like(48, 16),
        )
    }

    #[test]
    fn streams_are_independent_and_tagged() {
        let (scene, cam) = setup();
        let frame = RigFrame::render(
            &scene,
            &cam,
            Lighting::day(),
            Weather::clear(),
            &Rig::triple(),
            99,
            0,
            2,
        );
        assert_eq!(frame.depths.len(), 3);
        let sources: Vec<u64> = frame.depths.iter().map(|(s, _)| *s).collect();
        assert_eq!(sources, [0, 1, 2]);
        assert_ne!(frame.depths[0].1, frame.depths[1].1);
        assert_ne!(frame.depths[1].1, frame.depths[2].1);
        for (_, depth) in &frame.depths {
            assert_eq!(depth.shape(), &[1, 16, 48]);
            assert!(depth.sum() > 0.0, "every mount sees the road");
        }
    }

    #[test]
    fn frames_advance_streams_but_reproduce_exactly() {
        let (scene, cam) = setup();
        let render = |frame| {
            RigFrame::render(
                &scene,
                &cam,
                Lighting::day(),
                Weather::clear(),
                &Rig::dual(),
                42,
                frame,
                2,
            )
        };
        let f0 = render(0);
        let f1 = render(1);
        assert_ne!(f0.depths[0].1, f1.depths[0].1, "streams advance per frame");
        let f0_again = render(0);
        assert_eq!(f0.depths[0].1, f0_again.depths[0].1);
        assert_eq!(f0.rgb, f0_again.rgb);
    }

    #[test]
    fn weather_hits_every_stream() {
        let (scene, cam) = setup();
        let render = |weather| {
            RigFrame::render(
                &scene,
                &cam,
                Lighting::day(),
                weather,
                &Rig::triple(),
                7,
                3,
                2,
            )
        };
        let clear = render(Weather::clear());
        let foggy = render(Weather::fog(0.9));
        assert_ne!(clear.rgb, foggy.rgb);
        assert_eq!(clear.gt, foggy.gt);
        for ((_, c), (_, f)) in clear.depths.iter().zip(&foggy.depths) {
            assert_ne!(c, f, "fog must degrade every mount");
            assert!(f.sum() < c.sum());
        }
    }
}
