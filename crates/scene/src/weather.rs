//! Weather model: the first nuisance that degrades *both* modalities.
//!
//! Lighting only stresses the camera; weather attenuates RGB contrast
//! through scattering (Koschmieder's law: transmittance `exp(-β·d)` with
//! airlight fill-in) **and** degrades the LiDAR with range-dependent
//! return dropout, backscatter ghost returns near the sensor, and extra
//! range jitter — the droplet/flake physics reported for automotive
//! LiDAR in adverse weather. Fog is the canonical cross-modal nuisance:
//! it whites out the camera at range and eats distant returns at the
//! same time, which is exactly the regime the paper's fusion network is
//! motivated by.
//!
//! All effects are deterministic: RGB scattering uses the scene ray's
//! hit distance plus salted value noise (no RNG state), and the LiDAR
//! effects draw from the scan's seeded RNG *only* when the weather is
//! not clear, so `Weather::clear()` is bit-identical to the pre-weather
//! pipeline — RNG stream included.

use std::fmt;
use std::str::FromStr;

/// Weather family. Severity-independent physics constants live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeatherKind {
    /// No weather effects at all.
    Clear,
    /// Rain: mild extinction, streak noise, wet-surface range jitter.
    Rain,
    /// Fog: strong extinction and airlight, heavy range-dependent
    /// dropout — the worst case for both sensors.
    Fog,
    /// Snow: bright airlight, flake backscatter ghosts, large jitter.
    Snow,
}

impl WeatherKind {
    /// All kinds in canonical order.
    pub const ALL: [WeatherKind; 4] = [
        WeatherKind::Clear,
        WeatherKind::Rain,
        WeatherKind::Fog,
        WeatherKind::Snow,
    ];

    /// Canonical lowercase name (the `FromStr` spelling).
    pub fn name(self) -> &'static str {
        match self {
            WeatherKind::Clear => "clear",
            WeatherKind::Rain => "rain",
            WeatherKind::Fog => "fog",
            WeatherKind::Snow => "snow",
        }
    }
}

/// A weather condition: a [`WeatherKind`] plus a severity in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use sf_scene::Weather;
///
/// let fog: Weather = "fog:0.6".parse().unwrap();
/// assert_eq!(fog, Weather::fog(0.6));
/// assert!(!fog.is_clear());
/// assert!(Weather::clear().is_clear());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weather {
    /// Weather family.
    pub kind: WeatherKind,
    /// Severity in `[0, 1]`; 0 behaves exactly like clear weather.
    pub severity: f32,
}

impl Weather {
    /// No weather effects; bit-identical to the pre-weather pipeline.
    pub fn clear() -> Self {
        Weather {
            kind: WeatherKind::Clear,
            severity: 0.0,
        }
    }

    /// Rain at `severity` (clamped to `[0, 1]`).
    pub fn rain(severity: f32) -> Self {
        Weather::new(WeatherKind::Rain, severity)
    }

    /// Fog at `severity` (clamped to `[0, 1]`).
    pub fn fog(severity: f32) -> Self {
        Weather::new(WeatherKind::Fog, severity)
    }

    /// Snow at `severity` (clamped to `[0, 1]`).
    pub fn snow(severity: f32) -> Self {
        Weather::new(WeatherKind::Snow, severity)
    }

    /// A kind at `severity` (clamped to `[0, 1]`). A non-finite severity
    /// is no measurement of anything and becomes 0 — clear weather —
    /// rather than a NaN that `clamp` would pass into every pixel and
    /// every dropout probability.
    pub fn new(kind: WeatherKind, severity: f32) -> Self {
        let severity = if severity.is_finite() {
            severity.clamp(0.0, 1.0)
        } else {
            0.0
        };
        Weather { kind, severity }
    }

    /// True when no weather effect is applied (clear kind or severity 0).
    pub fn is_clear(&self) -> bool {
        self.kind == WeatherKind::Clear || self.severity <= 0.0
    }

    /// Extinction coefficient β in 1/m for Koschmieder attenuation
    /// `T(d) = exp(-β·d)`. Fog dominates: at severity 1 the meteorological
    /// visibility `3/β` is ~25 m.
    pub fn extinction(&self) -> f32 {
        let per_kind = match self.kind {
            WeatherKind::Clear => 0.0,
            WeatherKind::Rain => 0.030,
            WeatherKind::Fog => 0.120,
            WeatherKind::Snow => 0.060,
        };
        per_kind * self.severity
    }

    /// Airlight grey level the attenuated image is pulled towards.
    pub fn airlight(&self) -> f32 {
        match self.kind {
            WeatherKind::Clear => 0.0,
            WeatherKind::Rain => 0.55,
            WeatherKind::Fog => 0.75,
            WeatherKind::Snow => 0.85,
        }
    }

    /// Amplitude of the deterministic precipitation streak/flake noise
    /// added on top of the attenuated RGB.
    pub fn precipitation_noise(&self) -> f32 {
        let per_kind = match self.kind {
            WeatherKind::Clear => 0.0,
            WeatherKind::Rain => 0.05,
            WeatherKind::Fog => 0.02,
            WeatherKind::Snow => 0.09,
        };
        per_kind * self.severity
    }

    /// Transmittance `exp(-β·d)` of a path of length `distance` metres.
    pub fn transmittance(&self, distance: f32) -> f32 {
        (-self.extinction() * distance).exp()
    }

    /// Probability that a LiDAR return at range `t` metres is absorbed or
    /// scattered away before reaching the receiver (two-way path).
    pub fn lidar_dropout(&self, t: f32) -> f64 {
        1.0 - (-1.6 * self.extinction() as f64 * t as f64).exp()
    }

    /// Probability that a surviving return is replaced by a backscatter
    /// ghost from a droplet/flake near the sensor.
    pub fn ghost_probability(&self) -> f64 {
        let per_kind = match self.kind {
            WeatherKind::Clear => 0.0,
            WeatherKind::Rain => 0.04,
            WeatherKind::Fog => 0.12,
            WeatherKind::Snow => 0.08,
        };
        per_kind * self.severity as f64
    }

    /// Extra Gaussian range-noise sigma in metres added to the sensor's
    /// own `range_noise`.
    pub fn range_jitter(&self) -> f32 {
        let per_kind = match self.kind {
            WeatherKind::Clear => 0.0,
            WeatherKind::Rain => 0.05,
            WeatherKind::Fog => 0.03,
            WeatherKind::Snow => 0.08,
        };
        per_kind * self.severity
    }
}

impl Default for Weather {
    fn default() -> Self {
        Weather::clear()
    }
}

impl fmt::Display for Weather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == WeatherKind::Clear {
            f.write_str("clear")
        } else {
            write!(f, "{}:{}", self.kind.name(), self.severity)
        }
    }
}

/// Error from parsing a weather spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWeatherError {
    /// The offending spec.
    pub spec: String,
}

impl fmt::Display for ParseWeatherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid weather spec {:?}: expected clear, rain:S, fog:S or snow:S \
             with severity S in [0, 1]",
            self.spec
        )
    }
}

impl std::error::Error for ParseWeatherError {}

impl FromStr for Weather {
    type Err = ParseWeatherError;

    /// Parses `clear`, `fog:0.6`, `rain:0.3`, `snow:1` — a kind name,
    /// optionally followed by `:severity`. A bare kind means severity 0.5.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseWeatherError {
            spec: s.to_string(),
        };
        let (name, severity) = match s.split_once(':') {
            Some((name, sev)) => {
                let sev: f32 = sev.trim().parse().map_err(|_| err())?;
                if !(0.0..=1.0).contains(&sev) {
                    return Err(err());
                }
                (name.trim(), sev)
            }
            None => (s.trim(), 0.5),
        };
        let kind = WeatherKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(err)?;
        if kind == WeatherKind::Clear {
            return Ok(Weather::clear());
        }
        Ok(Weather::new(kind, severity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_has_no_effect_parameters() {
        let clear = Weather::clear();
        assert!(clear.is_clear());
        assert_eq!(clear.extinction(), 0.0);
        assert_eq!(clear.ghost_probability(), 0.0);
        assert_eq!(clear.range_jitter(), 0.0);
        assert_eq!(clear.transmittance(100.0), 1.0);
        assert_eq!(clear.lidar_dropout(100.0), 0.0);
        assert!(Weather::fog(0.0).is_clear(), "severity 0 behaves as clear");
    }

    #[test]
    fn severity_scales_all_effects() {
        let light = Weather::fog(0.2);
        let heavy = Weather::fog(0.9);
        assert!(heavy.extinction() > light.extinction());
        assert!(heavy.ghost_probability() > light.ghost_probability());
        assert!(heavy.range_jitter() > light.range_jitter());
        assert!(heavy.transmittance(20.0) < light.transmittance(20.0));
        assert!(heavy.lidar_dropout(20.0) > light.lidar_dropout(20.0));
    }

    #[test]
    fn fog_is_the_strongest_extinguisher() {
        let s = 0.7;
        assert!(Weather::fog(s).extinction() > Weather::snow(s).extinction());
        assert!(Weather::snow(s).extinction() > Weather::rain(s).extinction());
    }

    #[test]
    fn dropout_grows_with_range() {
        let fog = Weather::fog(0.8);
        assert!(fog.lidar_dropout(40.0) > fog.lidar_dropout(5.0));
        assert!((0.0..=1.0).contains(&fog.lidar_dropout(1e6)));
    }

    #[test]
    fn severity_is_clamped() {
        assert_eq!(Weather::rain(7.0).severity, 1.0);
        assert_eq!(Weather::rain(-3.0).severity, 0.0);
    }

    #[test]
    fn a_non_finite_severity_is_clear_and_renders_finite() {
        use crate::{
            depth_image_from_cloud, render_rgb_with, LidarSpec, Lighting, PinholeCamera,
            RoadCategory, SceneBuilder,
        };
        let scene = SceneBuilder::new(RoadCategory::UrbanMarked, 31).build();
        let camera = PinholeCamera::kitti_like(48, 16);
        let spec = LidarSpec::default();
        for kind in [WeatherKind::Rain, WeatherKind::Fog, WeatherKind::Snow] {
            for severity in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let weather = Weather::new(kind, severity);
                assert!(weather.is_clear(), "{kind:?} at {severity}");
                assert_eq!(weather.severity, 0.0);
                let rgb = render_rgb_with(&scene, &camera, Lighting::day(), weather);
                assert!(rgb.to_tensor().data().iter().all(|v| v.is_finite()));
                let mut rng = sf_tensor::TensorRng::seed_from(5);
                let cloud = spec.scan_with(&scene, weather, &mut rng);
                assert_eq!(
                    cloud,
                    spec.scan(&scene, &mut sf_tensor::TensorRng::seed_from(5))
                );
                let depth = depth_image_from_cloud(&cloud, &camera, spec.max_range, 3);
                assert!(depth.data().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn spec_round_trips() {
        for spec in ["clear", "rain:0.3", "fog:0.65", "snow:1"] {
            let w: Weather = spec.parse().unwrap();
            let again: Weather = w.to_string().parse().unwrap();
            assert_eq!(w, again, "spec {spec}");
        }
    }

    #[test]
    fn bare_kind_defaults_to_half_severity() {
        let w: Weather = "fog".parse().unwrap();
        assert_eq!(w, Weather::fog(0.5));
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for spec in ["drizzle", "fog:2.0", "fog:-0.1", "fog:heavy", ""] {
            let err = spec.parse::<Weather>().unwrap_err();
            assert_eq!(err.spec, spec);
            assert!(err.to_string().contains("expected clear"), "{err}");
        }
    }
}
