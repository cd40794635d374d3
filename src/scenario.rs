//! Declarative scenario files for the `lifeguard-sim` CLI.
//!
//! A scenario describes a topology, a LIFEGUARD deployment, and a timeline
//! of silent failures; [`run`] executes it and returns the system's event
//! log plus a reachability summary. Scenarios are plain JSON (see
//! `scenarios/*.json` for examples) so downstream users can script
//! experiments without writing Rust.

use crate::json::{self, Value};
use lg_asmap::{AsId, TopologyConfig};
use lg_bgp::Prefix;
use lg_sim::dataplane::infra_prefix;
use lg_sim::failures::{Failure, NetElement};
use lg_sim::{Network, Time};
use lifeguard_core::config::PING_INTERVAL_MS;
use lifeguard_core::{Event, Lifeguard, LifeguardConfig, World};

/// An AS id or "pick one automatically".
#[derive(Clone, Copy, Debug)]
pub enum AsPick {
    /// Explicit AS number.
    Explicit(u32),
    /// `"auto"`.
    Auto(AutoTag),
}

/// The literal string `"auto"`.
#[derive(Clone, Copy, Debug)]
pub enum AutoTag {
    /// Pick automatically.
    Auto,
}

/// Which destination prefix a failure affects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TowardSpec {
    /// The production prefix, the sentinel, and the origin's infra prefix —
    /// a full reverse-path failure toward the deployment.
    OriginPrefixes,
    /// A specific target AS's infra prefix (forward-path failure).
    Target,
    /// All traffic through the element.
    All,
}

/// One failure in the timeline.
#[derive(Clone, Debug)]
pub struct FailureSpec {
    /// The failed AS (`{"as": 7}`) or link (`{"link": [2, 4]}`).
    pub element: ElementSpec,
    /// Scope of affected destinations.
    pub toward: TowardSpec,
    /// Start minute.
    pub start_min: u64,
    /// End minute (omit for "until the end").
    pub end_min: Option<u64>,
}

/// Serialized failure element (flattened into the failure object as
/// `"as"`, `"link"`, or `"auto"`).
#[derive(Clone, Debug)]
pub enum ElementSpec {
    /// A whole AS.
    As(u32),
    /// An AS-AS link.
    Link(u32, u32),
    /// Resolved at run time: `{"auto": "reverse_transit"}` fails the first
    /// transit AS on the reverse path from the first target back to the
    /// origin — guaranteed to hit the monitored path.
    Auto(AutoElement),
}

/// Auto-resolved failure elements.
#[derive(Clone, Copy, Debug)]
pub enum AutoElement {
    /// First transit AS on the reverse path target → origin.
    ReverseTransit,
    /// First transit-to-transit link on the reverse path target → origin.
    ReverseLink,
}

/// A complete scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Topology to generate; [`parse`] and [`run`] reject an `n` below 64
    /// or above 65,536.
    pub topology: TopologyConfig,
    /// LIFEGUARD's origin AS (`"auto"` picks a multihomed stub).
    pub origin: AsPick,
    /// Monitored destinations (`"auto"` entries pick distinct stubs).
    pub targets: Vec<AsPick>,
    /// Vantage points assisting isolation.
    pub vantage_points: Vec<AsPick>,
    /// Failure timeline.
    pub failures: Vec<FailureSpec>,
    /// Total simulated duration, minutes.
    pub duration_min: u64,
}

/// Result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The LIFEGUARD event log.
    pub events: Vec<Event>,
    /// The chosen origin.
    pub origin: AsId,
    /// The chosen targets.
    pub targets: Vec<AsId>,
    /// Per-target downtime in ms observed by an external monitor pinging
    /// every 30 s (ground-truth unavailability, detection lag included).
    pub downtime_ms: Vec<(AsId, u64)>,
}

impl RunOutcome {
    /// Render the event log as text lines.
    pub fn log_lines(&self) -> Vec<String> {
        self.events.iter().map(|e| e.to_string()).collect()
    }
}

/// Error type for scenario loading/solving.
#[derive(Debug)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn resolve_picks(
    net: &Network,
    origin: AsPick,
    picks: &[AsPick],
    taken: &mut Vec<AsId>,
) -> Result<(AsId, Vec<AsId>), ScenarioError> {
    let mut auto_pool: Vec<AsId> = net
        .graph()
        .ases()
        .filter(|a| net.graph().is_stub(*a) && net.graph().providers(*a).len() >= 2)
        .collect();
    let mut next_auto = move |taken: &mut Vec<AsId>| -> Result<AsId, ScenarioError> {
        // Spread picks across the pool deterministically.
        while !auto_pool.is_empty() {
            // Take from alternating ends for diversity.
            let a = if taken.len().is_multiple_of(2) {
                auto_pool.remove(0)
            } else {
                auto_pool.pop().unwrap()
            };
            if !taken.contains(&a) {
                taken.push(a);
                return Ok(a);
            }
        }
        Err(ScenarioError(
            "not enough multihomed stubs for auto picks".into(),
        ))
    };
    let origin = match origin {
        AsPick::Explicit(v) => {
            let a = AsId(v);
            taken.push(a);
            a
        }
        AsPick::Auto(_) => next_auto(taken)?,
    };
    let mut out = Vec::new();
    for p in picks {
        out.push(match p {
            AsPick::Explicit(v) => {
                let a = AsId(*v);
                taken.push(a);
                a
            }
            AsPick::Auto(_) => next_auto(taken)?,
        });
    }
    Ok((origin, out))
}

/// Execute a scenario.
pub fn run(scenario: &Scenario) -> Result<RunOutcome, ScenarioError> {
    validate(scenario)?;
    let topo = &scenario.topology;
    let net = Network::new(topo.generate());
    let mut taken = Vec::new();
    let (origin, targets) = resolve_picks(&net, scenario.origin, &scenario.targets, &mut taken)?;
    let (_, vps) = resolve_picks(
        &net,
        AsPick::Explicit(origin.0),
        &scenario.vantage_points,
        &mut taken,
    )?;
    if targets.is_empty() {
        return Err(ScenarioError("at least one target required".into()));
    }
    for a in targets.iter().chain(vps.iter()).chain([&origin]) {
        if a.index() >= net.len() {
            return Err(ScenarioError(format!("{a} is outside the topology")));
        }
    }
    for (i, f) in scenario.failures.iter().enumerate() {
        let outside = |a: u32| (a as usize >= net.len()).then_some(AsId(a));
        match f.element {
            ElementSpec::As(a) => {
                if let Some(a) = outside(a) {
                    return Err(err(format!("failures[{i}].as {a} is outside the topology")));
                }
            }
            ElementSpec::Link(a, b) => {
                if let Some(x) = outside(a).or_else(|| outside(b)) {
                    return Err(err(format!(
                        "failures[{i}].link endpoint {x} is outside the topology"
                    )));
                }
                if net.graph().relationship(AsId(a), AsId(b)).is_none() {
                    return Err(err(format!(
                        "failures[{i}].link {}-{} is not an adjacency",
                        AsId(a),
                        AsId(b)
                    )));
                }
            }
            ElementSpec::Auto(_) => {}
        }
    }

    let production = Prefix::from_octets(184, 164, 224, 0, 20);
    let sentinel = Prefix::from_octets(184, 164, 224, 0, 19);
    let mut cfg = LifeguardConfig::paper_defaults(origin, production, sentinel);
    cfg.targets = targets.clone();
    cfg.vantage_points = vps;

    let mut world = World::new(&net);
    let mut lifeguard = Lifeguard::new(cfg);
    lifeguard.install(&mut world, Time::ZERO);

    // Install the failure timeline.
    let reverse_hops = world
        .dp
        .walk(Time::ZERO, targets[0], production.nth_addr(1))
        .as_hops();
    let reverse_transit = reverse_hops.get(1).copied();
    let reverse_link = (reverse_hops.len() >= 4).then(|| (reverse_hops[1], reverse_hops[2]));
    for f in &scenario.failures {
        let from = Time::from_mins(f.start_min);
        let until = f.end_min.map(Time::from_mins);
        let towards: Vec<Option<Prefix>> = match f.toward {
            TowardSpec::All => vec![None],
            TowardSpec::OriginPrefixes => {
                vec![Some(production), Some(sentinel), Some(infra_prefix(origin))]
            }
            TowardSpec::Target => targets.iter().map(|t| Some(infra_prefix(*t))).collect(),
        };
        for toward in towards {
            let base = match f.element {
                ElementSpec::As(a) => Failure::silent_as(AsId(a)),
                ElementSpec::Link(a, b) => Failure::silent_link(AsId(a), AsId(b)),
                ElementSpec::Auto(AutoElement::ReverseTransit) => {
                    Failure::silent_as(reverse_transit.ok_or_else(|| {
                        ScenarioError("no reverse path to resolve auto element".into())
                    })?)
                }
                ElementSpec::Auto(AutoElement::ReverseLink) => {
                    let (a, b) = reverse_link.ok_or_else(|| {
                        ScenarioError("reverse path too short for a transit link".into())
                    })?;
                    Failure::silent_link(a, b)
                }
            };
            let mut fail = base.window(from, until);
            fail.toward = toward;
            if matches!(fail.element, NetElement::As(a) if a == origin) {
                return Err(ScenarioError("cannot fail the origin itself".into()));
            }
            world.dp.failures_mut().add(fail);
        }
    }

    // Run the clock: LIFEGUARD ticks every ping interval; an external
    // ground-truth monitor accounts downtime.
    let mut downtime: Vec<(AsId, u64)> = targets.iter().map(|t| (*t, 0)).collect();
    let mut now = Time::from_secs(60);
    let end = Time::from_mins(scenario.duration_min);
    while now <= end {
        lifeguard.tick(&mut world, now);
        lg_telemetry::sample_global_timeseries(now.millis());
        for (t, d) in downtime.iter_mut() {
            let (fwd, rev) = world.dp.round_trip(
                now,
                origin,
                production.nth_addr(1),
                infra_prefix(*t).nth_addr(1),
            );
            let up = fwd.outcome.delivered() && rev.is_some_and(|r| r.outcome.delivered());
            if !up {
                *d += PING_INTERVAL_MS;
            }
        }
        now += PING_INTERVAL_MS;
    }

    Ok(RunOutcome {
        events: lifeguard.events().to_vec(),
        origin,
        targets,
        downtime_ms: downtime,
    })
}

fn err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError(msg.into())
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ScenarioError> {
    v.get(key)
        .ok_or_else(|| err(format!("missing field {key:?}")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, ScenarioError> {
    v.as_u64()
        .ok_or_else(|| err(format!("{what} must be a non-negative integer")))
}

fn as_u32(v: &Value, what: &str) -> Result<u32, ScenarioError> {
    let n = as_u64(v, what)?;
    u32::try_from(n).map_err(|_| err(format!("{what} does not fit in 32 bits")))
}

fn parse_topology(v: &Value) -> Result<TopologyConfig, ScenarioError> {
    let body = match v.as_obj() {
        Some([(tag, body)]) if tag == "calibrated" => body,
        _ => {
            return Err(err(
                r#"topology must be {"calibrated": {"n": N, "seed": S}}"#,
            ))
        }
    };
    let n = field(body, "n")?;
    let Some(n) = n.as_u64().and_then(|n| usize::try_from(n).ok()) else {
        return Err(bad_size(n));
    };
    Ok(TopologyConfig::calibrated(
        n,
        as_u64(field(body, "seed")?, "seed")?,
    ))
}

fn parse_pick(v: &Value, what: &str) -> Result<AsPick, ScenarioError> {
    match v {
        Value::Str(s) if s == "auto" => Ok(AsPick::Auto(AutoTag::Auto)),
        Value::Num(_) => Ok(AsPick::Explicit(as_u32(v, what)?)),
        _ => Err(err(format!("{what} must be an AS number or \"auto\""))),
    }
}

fn parse_picks(v: &Value, what: &str) -> Result<Vec<AsPick>, ScenarioError> {
    v.as_arr()
        .ok_or_else(|| err(format!("{what} must be an array")))?
        .iter()
        .map(|p| parse_pick(p, what))
        .collect()
}

fn parse_failure(v: &Value) -> Result<FailureSpec, ScenarioError> {
    let element = if let Some(a) = v.get("as") {
        ElementSpec::As(as_u32(a, "as")?)
    } else if let Some(l) = v.get("link") {
        match l.as_arr() {
            Some([a, b]) => ElementSpec::Link(as_u32(a, "link")?, as_u32(b, "link")?),
            _ => return Err(err("link must be a two-element array")),
        }
    } else if let Some(a) = v.get("auto") {
        match a.as_str() {
            Some("reverse_transit") => ElementSpec::Auto(AutoElement::ReverseTransit),
            Some("reverse_link") => ElementSpec::Auto(AutoElement::ReverseLink),
            _ => return Err(err("auto element must be reverse_transit or reverse_link")),
        }
    } else {
        return Err(err("failure needs an \"as\", \"link\", or \"auto\" key"));
    };
    let toward = match field(v, "toward")?.as_str() {
        Some("origin_prefixes") => TowardSpec::OriginPrefixes,
        Some("target") => TowardSpec::Target,
        Some("all") => TowardSpec::All,
        _ => return Err(err("toward must be origin_prefixes, target, or all")),
    };
    let end_min = match v.get("end_min") {
        None | Some(Value::Null) => None,
        Some(e) => Some(as_u64(e, "end_min")?),
    };
    Ok(FailureSpec {
        element,
        toward,
        start_min: as_u64(field(v, "start_min")?, "start_min")?,
        end_min,
    })
}

/// The longest scenario [`run`] accepts: one year of simulated minutes.
/// It keeps every minute count far inside [`Time`]'s range and the run's
/// tick loop finite.
const MAX_DURATION_MIN: u64 = 366 * 24 * 60;

/// The fewest ASes the calibrated generator builds.
const MIN_ASES: usize = 64;

/// The most ASes [`infra_prefix`] can address.
const MAX_ASES: usize = 65_536;

fn bad_size(n: impl std::fmt::Display) -> ScenarioError {
    err(format!(
        "topology n {n} is not an integer from {MIN_ASES} to {MAX_ASES}"
    ))
}

/// Reject scenarios that cannot mean what they say: a topology outside
/// [`MIN_ASES`]..=[`MAX_ASES`] (it would panic in the generator or the
/// data plane), a run longer than [`MAX_DURATION_MIN`], a failure that
/// starts at or after the run's end, or one whose window ends before it
/// starts (it would silently never fire).
fn validate(sc: &Scenario) -> Result<(), ScenarioError> {
    if !(MIN_ASES..=MAX_ASES).contains(&sc.topology.n) {
        return Err(bad_size(sc.topology.n));
    }
    if sc.duration_min > MAX_DURATION_MIN {
        return Err(err(format!(
            "duration_min {} exceeds one year ({MAX_DURATION_MIN} minutes)",
            sc.duration_min
        )));
    }
    for (i, f) in sc.failures.iter().enumerate() {
        if f.start_min >= sc.duration_min {
            return Err(err(format!(
                "failures[{i}].start_min {} is not before duration_min {}: it never fires",
                f.start_min, sc.duration_min
            )));
        }
        match f.end_min {
            Some(end) if end <= f.start_min => {
                return Err(err(format!(
                    "failures[{i}].end_min {end} is not after start_min {}: empty window",
                    f.start_min
                )));
            }
            Some(end) if end > MAX_DURATION_MIN => {
                return Err(err(format!(
                    "failures[{i}].end_min {end} exceeds one year ({MAX_DURATION_MIN} minutes)"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Parse a scenario from JSON.
pub fn parse(json: &str) -> Result<Scenario, ScenarioError> {
    let v = json::parse(json).map_err(err)?;
    let failures = field(&v, "failures")?
        .as_arr()
        .ok_or_else(|| err("failures must be an array"))?
        .iter()
        .map(parse_failure)
        .collect::<Result<Vec<_>, _>>()?;
    let sc = Scenario {
        topology: parse_topology(field(&v, "topology")?)?,
        origin: parse_pick(field(&v, "origin")?, "origin")?,
        targets: parse_picks(field(&v, "targets")?, "targets")?,
        vantage_points: parse_picks(field(&v, "vantage_points")?, "vantage_points")?,
        failures,
        duration_min: as_u64(field(&v, "duration_min")?, "duration_min")?,
    };
    validate(&sc)?;
    Ok(sc)
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn pick_value(p: AsPick) -> Value {
    match p {
        AsPick::Explicit(v) => num(v as u64),
        AsPick::Auto(_) => Value::Str("auto".into()),
    }
}

/// Serialize a scenario back to the JSON format [`parse`] accepts.
pub fn to_json(sc: &Scenario) -> String {
    let topology = Value::Obj(vec![(
        "calibrated".into(),
        Value::Obj(vec![
            ("n".into(), num(sc.topology.n as u64)),
            ("seed".into(), num(sc.topology.seed)),
        ]),
    )]);
    let failures: Vec<Value> = sc
        .failures
        .iter()
        .map(|f| {
            let mut fields = vec![match f.element {
                ElementSpec::As(a) => ("as".into(), num(a as u64)),
                ElementSpec::Link(a, b) => (
                    "link".into(),
                    Value::Arr(vec![num(a as u64), num(b as u64)]),
                ),
                ElementSpec::Auto(AutoElement::ReverseTransit) => {
                    ("auto".into(), Value::Str("reverse_transit".into()))
                }
                ElementSpec::Auto(AutoElement::ReverseLink) => {
                    ("auto".into(), Value::Str("reverse_link".into()))
                }
            }];
            let toward = match f.toward {
                TowardSpec::OriginPrefixes => "origin_prefixes",
                TowardSpec::Target => "target",
                TowardSpec::All => "all",
            };
            fields.push(("toward".into(), Value::Str(toward.into())));
            fields.push(("start_min".into(), num(f.start_min)));
            if let Some(e) = f.end_min {
                fields.push(("end_min".into(), num(e)));
            }
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        ("topology".into(), topology),
        ("origin".into(), pick_value(sc.origin)),
        (
            "targets".into(),
            Value::Arr(sc.targets.iter().copied().map(pick_value).collect()),
        ),
        (
            "vantage_points".into(),
            Value::Arr(sc.vantage_points.iter().copied().map(pick_value).collect()),
        ),
        ("failures".into(), Value::Arr(failures)),
        ("duration_min".into(), num(sc.duration_min)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"{
        "topology": {"calibrated": {"n": 64, "seed": 7}},
        "origin": "auto",
        "targets": ["auto"],
        "vantage_points": ["auto", "auto"],
        "failures": [
            {"as": 15, "toward": "origin_prefixes", "start_min": 10, "end_min": 70}
        ],
        "duration_min": 90
    }"#;

    #[test]
    fn parse_roundtrip() {
        let sc = parse(EXAMPLE).unwrap();
        assert_eq!(sc.duration_min, 90);
        assert_eq!(sc.failures.len(), 1);
        assert!(matches!(sc.failures[0].element, ElementSpec::As(15)));
        assert_eq!(sc.failures[0].toward, TowardSpec::OriginPrefixes);
        // Serialize back and reparse.
        let json = to_json(&sc);
        let again = parse(&json).unwrap();
        assert_eq!(again.duration_min, 90);
        assert!(matches!(again.failures[0].element, ElementSpec::As(15)));
        assert_eq!(again.failures[0].end_min, Some(70));
    }

    #[test]
    fn run_example_scenario() {
        let sc = parse(EXAMPLE).unwrap();
        let out = run(&sc).unwrap();
        // The failure may or may not hit the monitored path on this seed;
        // the run must complete with a coherent outcome either way.
        assert_eq!(out.targets.len(), 1);
        assert_eq!(out.downtime_ms.len(), 1);
        for line in out.log_lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn bad_scenarios_are_rejected() {
        assert!(parse("{").is_err());
        let mut sc = parse(EXAMPLE).unwrap();
        sc.targets.clear();
        assert!(run(&sc).is_err());
        let mut sc = parse(EXAMPLE).unwrap();
        sc.origin = AsPick::Explicit(4242);
        assert!(run(&sc).is_err());
    }

    /// `EXAMPLE` with its one failure replaced by `failure` (a JSON object
    /// body) and its duration set to `duration_min`.
    fn with_timeline(failure: &str, duration_min: u64) -> String {
        let json = EXAMPLE.replace(
            r#"{"as": 15, "toward": "origin_prefixes", "start_min": 10, "end_min": 70}"#,
            &format!(
                r#"{{"as": 3, "toward": "all", "start_min": 5, "end_min": 9}}, {{{failure}}}"#
            ),
        );
        json.replace(
            r#""duration_min": 90"#,
            &format!(r#""duration_min": {duration_min}"#),
        )
    }

    fn parse_error(json: &str) -> String {
        parse(json).expect_err("must be rejected").to_string()
    }

    #[test]
    fn a_failure_window_that_never_opens_is_rejected() {
        for end in [10, 4] {
            let json = with_timeline(
                &format!(r#""as": 15, "toward": "all", "start_min": 10, "end_min": {end}"#),
                90,
            );
            let msg = parse_error(&json);
            assert!(msg.contains("failures[1].end_min"), "{msg}");
        }
        let fine = with_timeline(
            r#""as": 15, "toward": "all", "start_min": 10, "end_min": 11"#,
            90,
        );
        assert!(parse(&fine).is_ok());
    }

    #[test]
    fn a_failure_starting_after_the_run_is_rejected() {
        for start in [90, 500] {
            let json = with_timeline(
                &format!(r#""as": 15, "toward": "all", "start_min": {start}"#),
                90,
            );
            let msg = parse_error(&json);
            assert!(msg.contains("failures[1].start_min"), "{msg}");
        }
        let last_minute = with_timeline(r#""as": 15, "toward": "all", "start_min": 89"#, 90);
        assert!(parse(&last_minute).is_ok());
    }

    #[test]
    fn durations_past_a_year_are_rejected_before_they_hang_or_wrap() {
        for duration in [
            MAX_DURATION_MIN + 1,
            1_000_000_000_000,
            u64::MAX / 60_000 + 1,
        ] {
            let json = with_timeline(r#""as": 15, "toward": "all", "start_min": 10"#, duration);
            let msg = parse_error(&json);
            assert!(msg.contains("duration_min"), "{msg}");
        }
        let year = with_timeline(
            r#""as": 15, "toward": "all", "start_min": 10"#,
            MAX_DURATION_MIN,
        );
        assert!(parse(&year).is_ok());
        let forever = with_timeline(
            r#""as": 15, "toward": "all", "start_min": 10, "end_min": 1000000000000"#,
            90,
        );
        assert!(parse_error(&forever).contains("failures[1].end_min"));
    }

    /// `EXAMPLE` (64 ASes, seed 7) with its failure on `element`
    /// (a JSON key/value pair), run to its typed error.
    fn run_error(element: &str) -> String {
        let json = with_timeline(
            &format!(r#"{element}, "toward": "all", "start_min": 10"#),
            90,
        );
        run(&parse(&json).unwrap())
            .expect_err("must be rejected")
            .to_string()
    }

    #[test]
    fn a_failed_as_outside_the_topology_is_rejected() {
        let msg = run_error(r#""as": 99999"#);
        assert!(
            msg.contains("failures[1].as") && msg.contains("outside"),
            "{msg}"
        );
    }

    #[test]
    fn a_failed_link_outside_the_topology_is_rejected() {
        let msg = run_error(r#""link": [99998, 99999]"#);
        assert!(
            msg.contains("failures[1].link") && msg.contains("outside"),
            "{msg}"
        );
    }

    #[test]
    fn a_failed_link_between_non_neighbors_is_rejected() {
        let msg = run_error(r#""link": [0, 0]"#);
        assert!(
            msg.contains("failures[1].link") && msg.contains("adjacency"),
            "{msg}"
        );
    }

    /// A failure-free scenario on a calibrated topology whose `n` is the
    /// JSON text `n`.
    fn sized(n: &str) -> String {
        format!(
            r#"{{
            "topology": {{"calibrated": {{"n": {n}, "seed": 3}}}},
            "origin": "auto",
            "targets": ["auto"],
            "vantage_points": ["auto"],
            "failures": [],
            "duration_min": 5
        }}"#
        )
    }

    #[test]
    fn a_topology_under_64_ases_is_rejected() {
        for n in ["63", "0"] {
            let msg = parse_error(&sized(n));
            assert!(msg.contains("from 64 to 65536"), "{n}: {msg}");
        }
        // A scenario built in code is checked by `run` too.
        let mut sc = parse(&sized("64")).unwrap();
        sc.topology.n = 63;
        let msg = run(&sc).expect_err("must be rejected").to_string();
        assert!(msg.contains("from 64 to 65536"), "{msg}");
    }

    #[test]
    fn a_non_integer_topology_size_is_rejected() {
        for n in ["64.5", "-64", r#""64""#, "null"] {
            let msg = parse_error(&sized(n));
            assert!(msg.contains("from 64 to 65536"), "{n}: {msg}");
        }
    }

    #[test]
    fn a_topology_past_infra_addressing_is_rejected() {
        for n in ["65537", &u64::MAX.to_string(), "1e30"] {
            let msg = parse_error(&sized(n));
            assert!(msg.contains("from 64 to 65536"), "{n}: {msg}");
        }
        assert!(parse(&sized("65536")).is_ok());
    }

    #[test]
    fn calibrated_topology_spec() {
        let sc = parse(&sized("64")).unwrap();
        assert_eq!(sc.topology.n, 64);
        assert_eq!(parse(&to_json(&sc)).unwrap().topology.n, 64);
        let out = run(&sc).unwrap();
        assert!(out.events.is_empty(), "no failures, no events");
        assert_eq!(out.downtime_ms[0].1, 0);
    }

    #[test]
    fn other_topology_forms_are_rejected() {
        for topology in [
            r#"{"small": {"seed": 7}}"#,
            r#"{"calibrated": {"n": 64, "seed": 7}, "medium": {"seed": 1}}"#,
            r#""calibrated""#,
        ] {
            let json = EXAMPLE.replace(r#"{"calibrated": {"n": 64, "seed": 7}}"#, topology);
            assert!(parse_error(&json).contains("calibrated"), "{topology}");
        }
    }

    #[test]
    fn explicit_picks_respected() {
        let mut sc = parse(EXAMPLE).unwrap();
        // Resolve the auto choices of the default run first.
        let auto = run(&sc).unwrap();
        sc.origin = AsPick::Explicit(auto.origin.0);
        sc.targets = vec![AsPick::Explicit(auto.targets[0].0)];
        let out = run(&sc).unwrap();
        assert_eq!(out.origin, auto.origin);
        assert_eq!(out.targets, auto.targets);
    }
}
