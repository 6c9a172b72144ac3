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
    depth_image_from_cloud, render_view, Lighting, PinholeCamera, Rig, RigMount, Scene, Weather,
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
        // One job per mount, largest (the roof unit) first, then the camera
        // view. Jobs hand back images; the tensors are made below, on the
        // calling thread, so their buffers come from — and are recycled
        // to — the caller's scratch arena, not a pool worker's.
        let jobs: Vec<Option<&RigMount>> = rig.mounts().iter().map(Some).chain([None]).collect();
        let mut images = sf_runtime::parallel_map(&jobs, |job| match job {
            Some(mount) => {
                let mut rng = TensorRng::seed_from(Rig::stream_seed(run_seed, frame, mount.source));
                let cloud = mount.spec.scan_with(scene, weather, &mut rng);
                let depth =
                    depth_image_from_cloud(&cloud, camera, mount.spec.max_range, fill_iterations);
                (None, depth)
            }
            None => {
                let (rgb, gt) = render_view(scene, camera, lighting, weather);
                (Some(rgb), gt)
            }
        });
        let (h, w) = (camera.height(), camera.width());
        let reshape = |t: Tensor| t.reshape(&[1, h, w]).expect("image reshapes to [1,H,W]");
        let (rgb, gt) = images.pop().expect("the view job is last");
        RigFrame {
            rgb: rgb.expect("the view job renders the RGB").to_tensor(),
            gt: reshape(gt.to_tensor()),
            depths: rig
                .mounts()
                .iter()
                .zip(&images)
                .map(|(mount, (_, depth))| (mount.source, reshape(depth.to_tensor())))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_scene::{RoadCategory, SceneBuilder};
    use sf_vision::GrayImage;

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_frame(a: &RigFrame, b: &RigFrame, what: &str) {
        assert_eq!(bits(&a.rgb), bits(&b.rgb), "{what}: rgb");
        assert_eq!(bits(&a.gt), bits(&b.gt), "{what}: gt");
        assert_eq!(a.depths.len(), b.depths.len(), "{what}");
        for ((sa, da), (sb, db)) in a.depths.iter().zip(&b.depths) {
            assert_eq!(sa, sb, "{what}: source order");
            assert_eq!(da.shape(), db.shape(), "{what}: source {sa}");
            assert_eq!(bits(da), bits(db), "{what}: depth of source {sa}");
        }
    }

    const WEATHERS: [fn() -> Weather; 4] = [
        Weather::clear,
        || Weather::rain(0.6),
        || Weather::fog(0.5),
        || Weather::snow(0.8),
    ];

    /// A frame is the serial composition of the public parts, bit for
    /// bit: the jobs share nothing, so running them side by side and
    /// shading and labelling from one cast change no value.
    #[test]
    fn a_frame_equals_the_serial_composition_of_its_parts() {
        use sf_scene::{render_ground_truth, render_rgb_with};
        let (scene, cam) = setup();
        let (h, w) = (cam.height(), cam.width());
        for rig in [Rig::single(), Rig::dual(), Rig::triple()] {
            for weather in WEATHERS.map(|w| w()) {
                let (run_seed, index, fill) = (0xD1CE, 11, 2);
                let frame = RigFrame::render(
                    &scene,
                    &cam,
                    Lighting::day(),
                    weather,
                    &rig,
                    run_seed,
                    index,
                    fill,
                );
                let plane = |image: GrayImage| image.to_tensor().reshape(&[1, h, w]).unwrap();
                let composed = RigFrame {
                    rgb: render_rgb_with(&scene, &cam, Lighting::day(), weather).to_tensor(),
                    gt: plane(render_ground_truth(&scene, &cam)),
                    depths: rig
                        .mounts()
                        .iter()
                        .map(|mount| {
                            let seed = Rig::stream_seed(run_seed, index, mount.source);
                            let cloud = mount.spec.scan_with(
                                &scene,
                                weather,
                                &mut TensorRng::seed_from(seed),
                            );
                            let range = mount.spec.max_range;
                            let depth = depth_image_from_cloud(&cloud, &cam, range, fill);
                            (mount.source, plane(depth))
                        })
                        .collect(),
                };
                assert_same_frame(
                    &frame,
                    &composed,
                    &format!("{} mounts, {weather}", rig.len()),
                );
            }
        }
    }

    /// Render, hand every buffer back, render again: from the second
    /// frame on the rendering thread's arena neither grows nor shrinks.
    /// Tensors built inside the pool jobs would break this — a worker's
    /// arena would feed the caller's, which then grows frame after frame.
    #[test]
    fn a_recycled_frame_stream_keeps_the_callers_arena_flat() {
        use sf_tensor::scratch;
        let (scene, cam) = setup();
        // A thread of its own: scratch arenas and their stats are per thread.
        let stats = std::thread::spawn(move || {
            (0..6u64)
                .map(|index| {
                    let weather = WEATHERS[index as usize % 4]();
                    let rig = Rig::triple();
                    let frame =
                        RigFrame::render(&scene, &cam, Lighting::day(), weather, &rig, 5, index, 2);
                    scratch::recycle(frame.rgb.into_vec());
                    scratch::recycle(frame.gt.into_vec());
                    for (_, depth) in frame.depths {
                        scratch::recycle(depth.into_vec());
                    }
                    scratch::stats()
                })
                .collect::<Vec<_>>()
        })
        .join()
        .expect("render thread");
        assert!(stats[1].held_bytes > 0, "frames are pool-backed");
        for (index, frame_stats) in stats.iter().enumerate().skip(2) {
            assert_eq!(*frame_stats, stats[1], "after frame {index}");
        }
    }

    /// A render inside a pool job (the caller works on its own batch, so
    /// a nested region cannot wait for a busy pool) changes no bit.
    #[test]
    fn a_render_nested_in_a_pool_job_changes_nothing() {
        let (scene, cam) = setup();
        let render = |index: &u64| {
            let weather = WEATHERS[*index as usize % 4]();
            RigFrame::render(
                &scene,
                &cam,
                Lighting::day(),
                weather,
                &Rig::triple(),
                9,
                *index,
                2,
            )
        };
        let indices: Vec<u64> = (0..8).collect();
        let nested = sf_runtime::parallel_map(&indices, render);
        for (index, nested) in indices.iter().zip(&nested) {
            assert_same_frame(nested, &render(index), &format!("frame {index}"));
        }
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
