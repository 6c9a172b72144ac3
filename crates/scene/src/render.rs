//! Ray-cast RGB and ground-truth rendering.

use sf_vision::{GrayImage, RgbImage};

use crate::camera::PinholeCamera;
use crate::lighting::Lighting;
use crate::scene::{Scene, Surface};
use crate::weather::{Weather, WeatherKind};

/// Deterministic value noise in `[-1, 1]` from integer lattice
/// coordinates — gives materials their texture without any RNG state.
fn value_noise(x: i32, z: i32, salt: u32) -> f32 {
    let mut h = (x as u32).wrapping_mul(0x85EB_CA6B)
        ^ (z as u32).wrapping_mul(0xC2B2_AE35)
        ^ salt.wrapping_mul(0x27D4_EB2F);
    h ^= h >> 15;
    h = h.wrapping_mul(0x2C1B_3C6D);
    h ^= h >> 12;
    (h & 0xFFFF) as f32 / 32768.0 - 1.0
}

/// Per-surface base colour (rgb multipliers on the textured albedo).
fn surface_tint(surface: Surface) -> [f32; 3] {
    match surface {
        Surface::Road => [0.95, 0.95, 1.0],
        Surface::LaneMarking => [1.0, 1.0, 0.85],
        Surface::Sidewalk => [1.0, 0.95, 0.9],
        Surface::Terrain => [0.75, 1.0, 0.6],
        Surface::Obstacle => [1.0, 0.9, 0.85],
        Surface::Sky => [0.65, 0.8, 1.0],
    }
}

/// Texture amplitude per surface (how strongly value noise modulates the
/// albedo).
fn texture_amplitude(surface: Surface) -> f32 {
    match surface {
        Surface::Road => 0.04,
        Surface::LaneMarking => 0.02,
        Surface::Sidewalk => 0.06,
        Surface::Terrain => 0.12,
        Surface::Obstacle => 0.08,
        Surface::Sky => 0.0,
    }
}

/// Renders the camera view of a scene under the given lighting.
///
/// The renderer is a single-bounce ray caster: procedural-textured
/// diffuse shading with ambient + directional sun terms, optional hard
/// shadows, night headlights with inverse-square falloff, exposure
/// clamping and deterministic per-pixel sensor noise.
pub fn render_rgb(scene: &Scene, camera: &PinholeCamera, lighting: Lighting) -> RgbImage {
    render_rgb_with(scene, camera, lighting, Weather::clear())
}

/// Applies Koschmieder scattering and precipitation noise to one shaded
/// pixel: `c' = c·T(d) + airlight·(1 − T(d)) + streaks`, where `T` is the
/// weather's transmittance over the viewing distance `d`. Deterministic —
/// streaks come from salted value noise, not RNG state.
fn weather_pixel(weather: Weather, rgb: [f32; 3], distance: f32, u: usize, v: usize) -> [f32; 3] {
    let t = weather.transmittance(distance);
    let airlight = weather.airlight();
    let salt = match weather.kind {
        WeatherKind::Clear => 0,
        WeatherKind::Rain => 0x5A17_0001,
        WeatherKind::Fog => 0x5A17_0002,
        WeatherKind::Snow => 0x5A17_0003,
    };
    let streak = value_noise(u as i32, v as i32, salt) * weather.precipitation_noise();
    let mut out = [0.0f32; 3];
    for (o, c) in out.iter_mut().zip(rgb) {
        *o = (c * t + airlight * (1.0 - t) + streak).clamp(0.0, 1.0);
    }
    out
}

/// Renders the camera view of a scene under the given lighting and
/// weather. With [`Weather::clear`] this is bit-identical to
/// [`render_rgb`]; otherwise each shaded pixel is attenuated towards the
/// weather's airlight over its viewing distance and overlaid with
/// deterministic precipitation noise — so fog washes out exactly the far
/// scene content whose LiDAR returns it also eats.
pub fn render_rgb_with(
    scene: &Scene,
    camera: &PinholeCamera,
    lighting: Lighting,
    weather: Weather,
) -> RgbImage {
    render_view(scene, camera, lighting, weather).0
}

/// Renders the RGB image of [`render_rgb_with`] and the ground truth of
/// [`render_ground_truth`] from one ray cast per pixel: both are
/// functions of the same [`Scene::hit`], which is most of their cost.
pub fn render_view(
    scene: &Scene,
    camera: &PinholeCamera,
    lighting: Lighting,
    weather: Weather,
) -> (RgbImage, GrayImage) {
    let (w, h) = (camera.width(), camera.height());
    let clear = weather.is_clear();
    let mut gt = GrayImage::new(w, h);
    let rgb = RgbImage::from_fn(w, h, |u, v| {
        let ray = camera.pixel_ray(u, v);
        let hit = scene.hit(&ray);
        gt.set(u, v, if hit.surface.is_drivable() { 1.0 } else { 0.0 });
        if hit.surface == Surface::Sky {
            let sky = surface_tint(Surface::Sky);
            let level = (lighting.ambient + 0.4 * lighting.sun_intensity).min(1.0);
            let pixel = [sky[0] * level, sky[1] * level, sky[2] * level];
            if clear {
                return pixel;
            }
            return weather_pixel(weather, pixel, scene.max_range(), u, v);
        }
        // Textured albedo.
        let tex = value_noise(
            (hit.point.x * 7.0).floor() as i32,
            (hit.point.z * 7.0).floor() as i32,
            hit.surface as u32,
        ) * texture_amplitude(hit.surface);
        let albedo = (hit.albedo + tex).clamp(0.0, 1.0);
        // Diffuse sun term with optional hard shadows.
        let mut sun = lighting.sun_intensity * hit.normal.dot(lighting.sun_direction).max(0.0);
        if lighting.cast_shadows
            && sun > 0.0
            && scene.occluded_towards(hit.point, lighting.sun_direction)
        {
            sun = 0.0;
        }
        // Headlights: from the ego position, inverse-square falloff.
        let head = if lighting.headlights > 0.0 {
            let d2 = (hit.point - camera.position()).dot(hit.point - camera.position());
            lighting.headlights * 60.0 / (d2 + 10.0)
        } else {
            0.0
        };
        let light = lighting.ambient + sun + head;
        let tint = surface_tint(hit.surface);
        let noise = value_noise(u as i32, v as i32, 0xBEEF) * lighting.noise;
        let base = albedo * light * lighting.exposure + noise;
        let pixel = [
            (base * tint[0]).clamp(0.0, 1.0),
            (base * tint[1]).clamp(0.0, 1.0),
            (base * tint[2]).clamp(0.0, 1.0),
        ];
        if clear {
            return pixel;
        }
        weather_pixel(weather, pixel, hit.t, u, v)
    });
    (rgb, gt)
}

/// Renders the pixel-exact drivable-road ground truth (1.0 = road).
pub fn render_ground_truth(scene: &Scene, camera: &PinholeCamera) -> GrayImage {
    GrayImage::from_fn(camera.width(), camera.height(), |u, v| {
        let hit = scene.hit(&camera.pixel_ray(u, v));
        if hit.surface.is_drivable() {
            1.0
        } else {
            0.0
        }
    })
}

/// Overlays a predicted road mask on an RGB frame (green tint where
/// `mask > 0.5`), for qualitative figures.
///
/// # Panics
///
/// Panics if the mask and image dimensions differ.
pub fn overlay_mask(rgb: &RgbImage, mask: &GrayImage) -> RgbImage {
    assert_eq!(
        (rgb.width(), rgb.height()),
        (mask.width(), mask.height()),
        "overlay: image sizes differ"
    );
    RgbImage::from_fn(rgb.width(), rgb.height(), |x, y| {
        let [r, g, b] = rgb.get(x, y);
        if mask.get(x, y) > 0.5 {
            [r * 0.4, (g * 0.4 + 0.6).min(1.0), b * 0.4]
        } else {
            [r, g, b]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{RoadCategory, SceneBuilder};

    fn test_setup() -> (Scene, PinholeCamera) {
        (
            SceneBuilder::new(RoadCategory::UrbanMarked, 11).build(),
            PinholeCamera::kitti_like(96, 32),
        )
    }

    #[test]
    fn rgb_values_are_in_unit_range() {
        let (scene, cam) = test_setup();
        for (_, lighting) in Lighting::presets() {
            let img = render_rgb(&scene, &cam, lighting);
            for y in 0..img.height() {
                for x in 0..img.width() {
                    for c in img.get(x, y) {
                        assert!((0.0..=1.0).contains(&c));
                    }
                }
            }
        }
    }

    #[test]
    fn night_is_darker_than_day() {
        let (scene, cam) = test_setup();
        let day = render_rgb(&scene, &cam, Lighting::day()).to_gray();
        let night = render_rgb(&scene, &cam, Lighting::night()).to_gray();
        let mean = |im: &GrayImage| im.data().iter().sum::<f32>() / im.data().len() as f32;
        assert!(
            mean(&night) < mean(&day) * 0.7,
            "night {} vs day {}",
            mean(&night),
            mean(&day)
        );
    }

    #[test]
    fn overexposure_saturates_pixels() {
        let (scene, cam) = test_setup();
        let over = render_rgb(&scene, &cam, Lighting::overexposed());
        let mut saturated = 0usize;
        for y in 0..over.height() {
            for x in 0..over.width() {
                if over.get(x, y).iter().any(|&c| c >= 0.999) {
                    saturated += 1;
                }
            }
        }
        assert!(
            saturated > over.width() * over.height() / 10,
            "only {saturated} saturated pixels"
        );
    }

    #[test]
    fn shadows_darken_some_road_pixels() {
        // Construct a scene and compare shadowed vs unshadowed renders.
        let scene = SceneBuilder::new(RoadCategory::UrbanMarked, 23).build();
        let cam = PinholeCamera::kitti_like(96, 32);
        let mut with = Lighting::harsh_shadows();
        let mut without = with;
        without.cast_shadows = false;
        with.noise = 0.0;
        without.noise = 0.0;
        let a = render_rgb(&scene, &cam, with).to_gray();
        let b = render_rgb(&scene, &cam, without).to_gray();
        let darker = a
            .data()
            .iter()
            .zip(b.data())
            .filter(|(&x, &y)| x < y - 0.05)
            .count();
        // Shadows land somewhere in most seeds; at minimum nothing may get
        // brighter.
        let brighter = a
            .data()
            .iter()
            .zip(b.data())
            .filter(|(&x, &y)| x > y + 1e-4)
            .count();
        assert_eq!(brighter, 0);
        let _ = darker;
    }

    #[test]
    fn ground_truth_is_binary_and_bottom_heavy() {
        let (scene, cam) = test_setup();
        let gt = render_ground_truth(&scene, &cam);
        assert!(gt.data().iter().all(|&v| v == 0.0 || v == 1.0));
        // Road pixels dominate the bottom rows and vanish at the top.
        let bottom: f32 = (0..gt.width()).map(|x| gt.get(x, gt.height() - 1)).sum();
        let top: f32 = (0..gt.width()).map(|x| gt.get(x, 0)).sum();
        assert!(bottom > gt.width() as f32 * 0.3);
        assert_eq!(top, 0.0);
    }

    #[test]
    fn gt_is_lighting_invariant_by_construction() {
        let (scene, cam) = test_setup();
        let gt1 = render_ground_truth(&scene, &cam);
        let gt2 = render_ground_truth(&scene, &cam);
        assert_eq!(gt1, gt2);
    }

    #[test]
    fn overlay_tints_road_green() {
        let (scene, cam) = test_setup();
        let rgb = render_rgb(&scene, &cam, Lighting::day());
        let gt = render_ground_truth(&scene, &cam);
        let overlay = overlay_mask(&rgb, &gt);
        let mut found = false;
        for y in 0..gt.height() {
            for x in 0..gt.width() {
                if gt.get(x, y) > 0.5 {
                    let [r, g, b] = overlay.get(x, y);
                    assert!(g > r && g > b, "road pixel not green-tinted");
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn clear_weather_render_is_bit_identical() {
        let (scene, cam) = test_setup();
        let plain = render_rgb(&scene, &cam, Lighting::day());
        let clear = render_rgb_with(&scene, &cam, Lighting::day(), Weather::clear());
        assert_eq!(plain, clear);
    }

    #[test]
    fn fog_washes_out_contrast_with_distance() {
        let (scene, cam) = test_setup();
        let clear = render_rgb(&scene, &cam, Lighting::day());
        let foggy = render_rgb_with(&scene, &cam, Lighting::day(), Weather::fog(0.9));
        assert_ne!(clear, foggy);
        // Per-row contrast (max-min of the gray channel): the far rows
        // (just under the horizon) must flatten far more than near rows.
        let contrast = |im: &RgbImage, y: usize| {
            let grays: Vec<f32> = (0..im.width())
                .map(|x| {
                    let [r, g, b] = im.get(x, y);
                    (r + g + b) / 3.0
                })
                .collect();
            grays.iter().cloned().fold(f32::MIN, f32::max)
                - grays.iter().cloned().fold(f32::MAX, f32::min)
        };
        // Row 17 sits just under the horizon (far scenery), row 30 is
        // near road.
        let far_loss = contrast(&clear, 17) - contrast(&foggy, 17);
        let near_loss = contrast(&clear, 30) - contrast(&foggy, 30);
        assert!(
            far_loss > near_loss,
            "fog must flatten far rows more: far {far_loss} near {near_loss}"
        );
        // Everything stays in range.
        for y in 0..foggy.height() {
            for x in 0..foggy.width() {
                for c in foggy.get(x, y) {
                    assert!((0.0..=1.0).contains(&c));
                }
            }
        }
    }

    #[test]
    fn weather_render_is_deterministic() {
        let (scene, cam) = test_setup();
        let a = render_rgb_with(&scene, &cam, Lighting::day(), Weather::snow(0.8));
        let b = render_rgb_with(&scene, &cam, Lighting::day(), Weather::snow(0.8));
        assert_eq!(a, b);
    }

    #[test]
    fn renders_are_deterministic() {
        let (scene, cam) = test_setup();
        let a = render_rgb(&scene, &cam, Lighting::day());
        let b = render_rgb(&scene, &cam, Lighting::day());
        assert_eq!(a, b);
    }
}
