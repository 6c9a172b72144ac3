//! A small, dependency-free `--flag value` argument parser.

use std::collections::BTreeMap;
use std::fmt;

use sf_core::{DegradationPolicy, FusionScheme};
use sf_dataset::SensorFault;
use sf_scene::{Rig, RoadCategory, Weather};

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseArgsError {
    /// No subcommand supplied.
    MissingCommand,
    /// A flag appeared without a value.
    MissingValue(String),
    /// A required flag was absent.
    MissingFlag(&'static str),
    /// A value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::MissingCommand => write!(f, "no command given"),
            ParseArgsError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ParseArgsError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ParseArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag {flag}: {value:?} is not a valid {expected}"),
            ParseArgsError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument {arg:?}")
            }
        }
    }
}

impl std::error::Error for ParseArgsError {}

/// Flags that are switches rather than `--flag value` pairs: bare
/// `--smoke` parses as `smoke=true`, while an explicit `true`/`false`
/// value is still accepted.
const BOOLEAN_FLAGS: &[&str] = &[
    "smoke",
    "no-breaker",
    "dump",
    "check",
    "kill",
    "deploy",
    "int8",
];

/// A parsed command line: the subcommand plus its `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseArgsError`] on missing command, dangling flags or
    /// stray positionals.
    pub fn parse(raw: &[String]) -> Result<Args, ParseArgsError> {
        let mut iter = raw.iter().peekable();
        let command = iter
            .next()
            .filter(|c| !c.starts_with("--"))
            .ok_or(ParseArgsError::MissingCommand)?
            .clone();
        let mut flags = BTreeMap::new();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let is_switch = BOOLEAN_FLAGS.contains(&name);
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().cloned().expect("peeked"),
                    _ if is_switch => "true".to_string(),
                    _ => return Err(ParseArgsError::MissingValue(arg.clone())),
                };
                flags.insert(name.to_string(), value);
            } else {
                return Err(ParseArgsError::UnexpectedPositional(arg.clone()));
            }
        }
        Ok(Args { command, flags })
    }

    /// A string flag, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A boolean switch: true when the flag was given (bare or with any
    /// value other than `false`).
    pub fn get_bool(&self, flag: &str) -> bool {
        matches!(self.get(flag), Some(v) if v != "false")
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::MissingFlag`] if absent.
    pub fn require(&self, flag: &'static str) -> Result<&str, ParseArgsError> {
        self.get(flag).ok_or(ParseArgsError::MissingFlag(flag))
    }

    /// A parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] if present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ParseArgsError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ParseArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// The fusion scheme flag (`--scheme`), defaulting to AllFilter_U.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown scheme name.
    pub fn scheme(&self) -> Result<FusionScheme, ParseArgsError> {
        match self.get("scheme").unwrap_or("au") {
            "baseline" => Ok(FusionScheme::Baseline),
            "au" => Ok(FusionScheme::AllFilterU),
            "ab" => Ok(FusionScheme::AllFilterB),
            "bs" => Ok(FusionScheme::BaseSharing),
            "ws" => Ok(FusionScheme::WeightedSharing),
            other => Err(ParseArgsError::BadValue {
                flag: "scheme".to_string(),
                value: other.to_string(),
                expected: "scheme (baseline|au|ab|bs|ws)",
            }),
        }
    }

    /// The optional depth-sensor fault to inject (`--fault`), as a
    /// `kind[:param]` spec like `depth-dropout:0.5` or
    /// `miscalibration:4,1`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown kind or an
    /// out-of-range parameter.
    pub fn fault(&self) -> Result<Option<SensorFault>, ParseArgsError> {
        match self.get("fault") {
            None => Ok(None),
            Some(spec) => spec
                .parse()
                .map(Some)
                .map_err(|_| ParseArgsError::BadValue {
                    flag: "fault".to_string(),
                    value: spec.to_string(),
                    expected: "fault spec (e.g. depth-dropout:0.5, dead-rows:0.3, \
                               gaussian-noise:0.2, salt-pepper:0.1, miscalibration:4,1, \
                               stale-frame)",
                }),
        }
    }

    /// The degradation policy (`--policy`). The CLI default is
    /// `fallback`: health-check depth and quarantine broken inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown policy name.
    pub fn policy(&self) -> Result<DegradationPolicy, ParseArgsError> {
        match self.get("policy").unwrap_or("fallback") {
            "trust" => Ok(DegradationPolicy::Trust),
            "fallback" => Ok(DegradationPolicy::CameraFallback),
            "camera-only" => Ok(DegradationPolicy::CameraOnly),
            other => Err(ParseArgsError::BadValue {
                flag: "policy".to_string(),
                value: other.to_string(),
                expected: "policy (trust|fallback|camera-only)",
            }),
        }
    }

    /// The weather condition (`--weather`), as `clear` or `kind:severity`
    /// like `fog:0.7`. Defaults to clear, which reproduces the
    /// pre-weather pipeline bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown kind or an
    /// out-of-range severity.
    pub fn weather(&self) -> Result<Weather, ParseArgsError> {
        match self.get("weather") {
            None => Ok(Weather::clear()),
            Some(spec) => spec.parse().map_err(|_| ParseArgsError::BadValue {
                flag: "weather".to_string(),
                value: spec.to_string(),
                expected: "weather spec (clear, rain:S, fog:S or snow:S with S in [0, 1])",
            }),
        }
    }

    /// The LiDAR rig (`--rig`), by name (`single`/`dual`/`triple`) or
    /// mount count (`1`/`2`/`3`). Defaults to the classic single roof
    /// sensor.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown rig name.
    pub fn rig(&self) -> Result<Rig, ParseArgsError> {
        match self.get("rig") {
            None => Ok(Rig::single()),
            Some(name) => Rig::by_name(name).ok_or_else(|| ParseArgsError::BadValue {
                flag: "rig".to_string(),
                value: name.to_string(),
                expected: "rig (single|dual|triple or 1|2|3)",
            }),
        }
    }

    /// The optional road-category filter (`--category`).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError::BadValue`] on an unknown category code.
    pub fn category(&self) -> Result<Option<RoadCategory>, ParseArgsError> {
        match self.get("category") {
            None => Ok(None),
            Some("um") => Ok(Some(RoadCategory::UrbanMarked)),
            Some("umm") => Ok(Some(RoadCategory::UrbanMultipleMarked)),
            Some("uu") => Ok(Some(RoadCategory::UrbanUnmarked)),
            Some(other) => Err(ParseArgsError::BadValue {
                flag: "category".to_string(),
                value: other.to_string(),
                expected: "category (um|umm|uu)",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Result<Args, ParseArgsError> {
        Args::parse(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args(&["train", "--epochs", "5", "--out", "m.sfm"]).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("epochs"), Some("5"));
        assert_eq!(a.require("out").unwrap(), "m.sfm");
        assert_eq!(a.get_parsed("epochs", 0usize, "integer").unwrap(), 5);
        assert_eq!(a.get_parsed("missing", 7usize, "integer").unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(args(&[]).unwrap_err(), ParseArgsError::MissingCommand);
        assert_eq!(
            args(&["--scheme", "au"]).unwrap_err(),
            ParseArgsError::MissingCommand
        );
        assert!(matches!(
            args(&["train", "--epochs"]).unwrap_err(),
            ParseArgsError::MissingValue(_)
        ));
        assert!(matches!(
            args(&["train", "oops"]).unwrap_err(),
            ParseArgsError::UnexpectedPositional(_)
        ));
        let a = args(&["train", "--epochs", "many"]).unwrap();
        assert!(matches!(
            a.get_parsed("epochs", 0usize, "integer"),
            Err(ParseArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn boolean_switches_need_no_value() {
        let bare = args(&["fleet-bench", "--smoke"]).unwrap();
        assert!(bare.get_bool("smoke"));
        let trailing = args(&["fleet-bench", "--smoke", "--clients", "2"]).unwrap();
        assert!(trailing.get_bool("smoke"));
        assert_eq!(trailing.get("clients"), Some("2"));
        let explicit = args(&["fleet-bench", "--smoke", "false"]).unwrap();
        assert!(!explicit.get_bool("smoke"));
        let absent = args(&["fleet-bench"]).unwrap();
        assert!(!absent.get_bool("smoke"));
        // Value-taking flags still reject a following flag as their value.
        assert!(matches!(
            args(&["train", "--epochs", "--out", "m.sfm"]).unwrap_err(),
            ParseArgsError::MissingValue(_)
        ));
    }

    #[test]
    fn scheme_and_category_lookups() {
        let a = args(&["info", "--scheme", "ws", "--category", "uu"]).unwrap();
        assert_eq!(a.scheme().unwrap(), FusionScheme::WeightedSharing);
        assert_eq!(a.category().unwrap(), Some(RoadCategory::UrbanUnmarked));
        let d = args(&["info"]).unwrap();
        assert_eq!(d.scheme().unwrap(), FusionScheme::AllFilterU);
        assert_eq!(d.category().unwrap(), None);
        let bad = args(&["info", "--scheme", "resnet"]).unwrap();
        assert!(bad.scheme().is_err());
        let badc = args(&["info", "--category", "rural"]).unwrap();
        assert!(badc.category().is_err());
    }

    #[test]
    fn fault_and_policy_lookups() {
        let a = args(&[
            "eval",
            "--fault",
            "depth-dropout:0.5",
            "--policy",
            "camera-only",
        ])
        .unwrap();
        assert_eq!(
            a.fault().unwrap(),
            Some(SensorFault::DepthDropout { p: 0.5 })
        );
        assert_eq!(a.policy().unwrap(), DegradationPolicy::CameraOnly);
        let d = args(&["eval"]).unwrap();
        assert_eq!(d.fault().unwrap(), None);
        assert_eq!(d.policy().unwrap(), DegradationPolicy::CameraFallback);
        let bad = args(&["eval", "--fault", "cosmic-rays"]).unwrap();
        assert!(bad.fault().is_err());
        let badp = args(&["eval", "--policy", "hope"]).unwrap();
        assert!(badp.policy().is_err());
    }

    #[test]
    fn weather_and_rig_lookups() {
        let a = args(&["eval", "--weather", "fog:0.7", "--rig", "triple"]).unwrap();
        assert_eq!(a.weather().unwrap(), Weather::fog(0.7));
        assert_eq!(a.rig().unwrap().len(), 3);
        let d = args(&["eval"]).unwrap();
        assert_eq!(d.weather().unwrap(), Weather::clear());
        assert_eq!(d.rig().unwrap(), Rig::single());
        let numeric = args(&["eval", "--rig", "2"]).unwrap();
        assert_eq!(numeric.rig().unwrap(), Rig::dual());
        let badw = args(&["eval", "--weather", "hail:0.5"]).unwrap();
        assert!(badw.weather().is_err());
        let badr = args(&["eval", "--rig", "4"]).unwrap();
        assert!(badr.rig().is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ParseArgsError::BadValue {
            flag: "alpha".into(),
            value: "x".into(),
            expected: "float",
        };
        assert!(e.to_string().contains("alpha"));
        assert!(ParseArgsError::MissingFlag("out")
            .to_string()
            .contains("--out"));
    }
}
